"""Benchmark-side spans around the calls the learner makes into each layer.

The traced run replaces the public functions ``repro.core.learner`` (and the
GaneSH run in ``repro.ganesh.coclustering``) look up at call time with
timing wrappers, so the program itself is unchanged.  Spans are aggregated
in memory per name: total seconds, call count, seconds covered by child
spans (for self time) and optional per-name counters taken from results.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Spans:
    """Aggregated, nested wall-clock spans of one process."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[str] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` timed under ``name``; ``count(result)`` adds to
        ``counts[name]`` when given."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.total[name] += elapsed
                self.calls[name] += 1
                if self._stack:
                    self.child[self._stack[-1]] += elapsed
            if count is not None:
                self.counts[name] += count(result)
            return result

        return wrapper

    def snapshot(self) -> tuple[dict, dict, dict, dict]:
        """Copies of (total, calls, counts, child) for later deltas."""
        return dict(self.total), dict(self.calls), dict(self.counts), dict(self.child)


def _count_splits(scores) -> int:
    return scores.n_splits


#: (module, attribute, span name, result counter) of every wrapped function
LEARNER_LAYERS = (
    ("repro.core.learner", "run_replicated_ganesh", "ganesh.sample", None),
    ("repro.core.learner", "run_obs_only_ganesh", "ganesh.obs_sample", None),
    ("repro.core.learner", "consensus_clusters", "consensus", len),
    ("repro.core.learner", "build_tree_structure", "trees.hierarchy", None),
    ("repro.core.learner", "score_node_splits", "trees.split_scoring", _count_splits),
    ("repro.core.learner", "select_node_splits", "trees.select", None),
    ("repro.core.learner", "accumulate_parent_scores", "trees.parents", None),
    ("repro.ganesh.coclustering", "reassign_var_sweep", "ganesh.var_sweep", None),
    ("repro.ganesh.coclustering", "merge_var_sweep", "ganesh.var_sweep", None),
    ("repro.ganesh.coclustering", "reassign_obs_sweep", "ganesh.obs_sweep", None),
    ("repro.ganesh.coclustering", "merge_obs_sweep", "ganesh.obs_sweep", None),
)


@contextmanager
def installed(spans: Spans):
    """Wrap every layer entry point (and ``LazySplitKernel.scores``) for the
    duration of the block, restoring the originals on exit."""
    import importlib

    from repro.scoring.kernel import LazySplitKernel

    saved = []
    try:
        for module_name, attr, name, count in LEARNER_LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, spans.wrap(name, original, count))
        original = LazySplitKernel.scores
        saved.append((LazySplitKernel, "scores", original))
        LazySplitKernel.scores = spans.wrap("scoring.kernel", original)
        yield spans
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def wrap_methods(spans: Spans, obj, names: dict[str, str]) -> None:
    """Time ``obj``'s public methods (``{method: span name}``) on the
    instance only, leaving the class untouched."""
    for method, name in names.items():
        setattr(obj, method, spans.wrap(name, getattr(obj, method)))
