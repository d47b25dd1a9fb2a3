"""Each output check of the benchmark rejects a corrupted network.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from repro.core.config import LearnerConfig, ParallelConfig  # noqa: E402
from repro.core.learner import LemonTreeLearner  # noqa: E402
from repro.data.synthetic import make_module_dataset  # noqa: E402
from repro.validation.metrics import network_fingerprint  # noqa: E402

CONFIG = LearnerConfig(
    max_sampling_steps=25,
    sampling_stop_repeats=2,
    init_var_clusters=1 / 16,
    parallel=ParallelConfig(kernel_backend="numpy"),
)
SEED = 5


def _learn(matrix_seed: int):
    matrix = make_module_dataset(40, 20, seed=matrix_seed).matrix
    return matrix, LemonTreeLearner(CONFIG).learn(matrix, SEED).network


@pytest.fixture(scope="module")
def learned():
    return _learn(7)


def _candidates(matrix):
    return CONFIG.resolve_candidate_parents(matrix.n_vars)


def test_learned_network_passes(learned):
    matrix, network = learned
    checks.check_network(network, matrix.values, _candidates(matrix))


def test_dropped_module_member_fails(learned):
    matrix, network = learned
    corrupt = copy.deepcopy(network)
    module = next(m for m in corrupt.modules if m.size > 1)
    module.members.pop()
    with pytest.raises(checks.CheckFailed, match="cover"):
        checks.check_network(corrupt, matrix.values, _candidates(matrix))


def test_observation_moved_between_leaves_fails(learned):
    matrix, network = learned
    corrupt = copy.deepcopy(network)
    root = next(t.root for m in corrupt.modules for t in m.trees if not t.root.is_leaf)
    source = next(root.left.leaves())
    target = next(root.right.leaves())
    moved, source.observations = source.observations[0], source.observations[1:]
    target.observations = np.sort(np.append(target.observations, moved))
    with pytest.raises(checks.CheckFailed, match="partition"):
        checks.check_network(corrupt, matrix.values, _candidates(matrix))


def test_network_for_wrong_matrix_fails(learned):
    matrix, network = learned
    other, oracle = _learn(8)
    with pytest.raises(checks.CheckFailed, match="split value"):
        checks.check_network(network, other.values, _candidates(other))
    with pytest.raises(checks.CheckFailed, match="fingerprint"):
        checks.check_same(network_fingerprint(network), network_fingerprint(oracle), "foreign")


def test_non_candidate_split_parent_fails(learned):
    matrix, network = learned
    used = {
        s.parent
        for m in network.modules
        for t in m.trees
        for node in t.internal_nodes()
        for s in node.weighted_splits + node.uniform_splits
    }
    narrowed = [c for c in _candidates(matrix) if c not in used]
    with pytest.raises(checks.CheckFailed, match="non-candidate"):
        checks.check_network(network, matrix.values, narrowed)


def test_parent_score_outside_unit_interval_fails(learned):
    matrix, network = learned
    corrupt = copy.deepcopy(network)
    module = next(m for m in corrupt.modules if m.weighted_parents)
    parent = next(iter(module.weighted_parents))
    module.weighted_parents[parent] = 1.5
    with pytest.raises(checks.CheckFailed, match=r"outside \[0, 1\]"):
        checks.check_network(corrupt, matrix.values, _candidates(matrix))
