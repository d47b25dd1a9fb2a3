"""The two closed-loop workloads and their rounds.

One caller runs every operation, each after the one before it ends; no run
uses more than two worker processes.  A round is a fixed list of
operations, so ``failed / attempted`` is the same in every run.

* ``fig6-serial``: fresh learn, then one resume after half the modules.
* ``fig6-pool``: the same on a two-worker pool with two resumes, then a
  learn of a second matrix in the same checkpoint directory (the
  foreign-directory learn).
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import LearnerConfig, ParallelConfig
from repro.core.learner import LemonTreeLearner
from repro.core.reference import ReferenceLearner
from repro.data.synthetic import SyntheticDataset, make_module_dataset
from repro.parallel.executor import TaskPoolExecutor
from repro.parallel.trace import WorkTrace
from repro.validation.metrics import network_fingerprint, recovery_metrics

import checks
import spans as spans_mod

#: ``benchmarks/conftest.py``: the "complete yeast-like" Fig. 5/6 matrix
#: (n = 180 ~ 5716/32, m = 192 ~ 2577/13), its generator seed, and the
#: learner seed of every benchmark there.
YEAST_COMPLETE = (180, 192)
YEAST_MATRIX_SEED = 7
BENCH_SEED = 31
#: the second matrix learned in fig6-pool's used checkpoint directory
FOREIGN_MATRIX_SEED = 8
#: prefix the ReferenceLearner differential check learns
PREFIX_SHAPE = (40, 20)
N_WORKERS = 2
#: rounds every run makes however short ``--seconds`` is, so each timing
#: is a median of at least two samples
MIN_ROUNDS = 2


def fig6_config(**changes) -> LearnerConfig:
    """``benchmarks/conftest.py`` ``bench_config``: the paper's
    minimum-run-time configuration (G = 1, U = 1)."""
    return LearnerConfig(
        max_sampling_steps=25,
        sampling_stop_repeats=2,
        init_var_clusters=1 / 16,
        **changes,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: SyntheticDataset
    config: LearnerConfig
    #: interrupt-and-resume repeats per round
    resumes: int = 1

    @property
    def pooled(self) -> bool:
        return self.config.resolve_n_workers() > 1


def make_workload(name: str) -> Workload:
    """The workload's timed input and configuration (fixed, not seeded)."""
    if name in ("fig6-serial", "fig6-pool"):
        n, m = YEAST_COMPLETE
        dataset = make_module_dataset(n, m, seed=YEAST_MATRIX_SEED, name="yeast-like-complete")
        if name == "fig6-serial":
            return Workload(name, dataset, fig6_config())
        config = fig6_config(n_ganesh_runs=2, parallel=ParallelConfig(n_workers=N_WORKERS))
        return Workload(name, dataset, config, resumes=2)
    raise ValueError(f"unknown workload {name!r}")


def foreign_matrix():
    n, m = YEAST_COMPLETE
    return make_module_dataset(n, m, seed=FOREIGN_MATRIX_SEED, name="yeast-like-second").matrix


# -- one learn ---------------------------------------------------------------


@dataclass
class Learned:
    network: object
    seconds: float
    worker_peak_kb: int = 0
    trace: WorkTrace | None = None
    executor_stats: object = None


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a live child process, from its status file."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def learn(workload: Workload, matrix, directory: Path, spans=None) -> Learned:
    """One timed ``learn()`` of ``matrix`` into ``directory``.

    On the pool the benchmark lends the learner its own
    :class:`TaskPoolExecutor`, so it can read the workers' peak memory
    before closing it and, when traced, time the executor's public
    methods; construction and close are inside the timed region, as they
    are when ``learn()`` owns its executor.
    """
    config = workload.config
    trace = WorkTrace() if spans is not None else None
    # Start from a collected heap, so neither the time nor the peak memory
    # of this learn depends on when the garbage of the one before is freed.
    gc.collect()
    learner = LemonTreeLearner(config)
    if not workload.pooled:
        start = time.perf_counter()
        result = learner.learn(matrix, BENCH_SEED, trace=trace, checkpoint_dir=directory)
        return Learned(result.network, time.perf_counter() - start, trace=trace)
    parents = np.asarray(config.resolve_candidate_parents(matrix.n_vars), dtype=np.int64)
    start = time.perf_counter()
    executor = TaskPoolExecutor(matrix.values, parents, config, BENCH_SEED, checkpoint_dir=directory)
    if spans is not None:
        spans_mod.wrap_methods(
            spans,
            executor,
            {
                "sample_ganesh_runs": "parallel.ganesh_dispatch",
                "learn_modules": "parallel.modules_dispatch",
                "close": "parallel.close",
            },
        )
    try:
        result = learner.learn(
            matrix, BENCH_SEED, trace=trace, checkpoint_dir=directory, executor=executor
        )
        worker_peak = max((_vm_hwm_kb(pid) for pid in executor.worker_pids()), default=0)
    finally:
        executor.close()
    seconds = time.perf_counter() - start
    return Learned(result.network, seconds, worker_peak, trace, executor.stats)


# -- checkpoint directory bookkeeping -------------------------------------------


def _module_files(directory: Path) -> dict[str, tuple[int, int]]:
    return {
        path.name: (path.stat().st_mtime_ns, path.stat().st_size)
        for path in directory.glob("module_*.json")
    }


def interrupt_half(directory: Path) -> dict[str, tuple[int, int]]:
    """Delete every other ``module_<id>.json`` (the odd ids), as if the run
    died after half its modules; return the survivors' (mtime, size)."""
    for path in directory.glob("module_*.json"):
        if int(path.stem.split("_")[1]) % 2 == 1:
            path.unlink()
    return _module_files(directory)


def resume_counts(directory: Path, survivors: dict) -> tuple[int, int]:
    """(reused, recomputed) module checkpoints of a resumed run."""
    after = _module_files(directory)
    reused = sum(1 for name, stamp in survivors.items() if after.get(name) == stamp)
    return reused, len(after) - reused


def checkpoint_bytes(directory: Path) -> tuple[int, int]:
    files = [p for p in directory.iterdir() if p.suffix in (".npz", ".json")]
    return len(files), sum(p.stat().st_size for p in files)


# -- the run -----------------------------------------------------------------------


class Run:
    """One benchmark run of one workload: checks, then timed rounds."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: float,
        work_dir: Path,
        traced: bool,
        after_round=None,
    ):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.spans = spans_mod.Spans() if traced else None
        #: called after every round, untimed by the rounds' own samples
        self.after_round = after_round
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.learn_s: list[float] = []
        self.resume_s: list[float] = []
        self.worker_peak_kb = 0
        self.layers: list[dict] = []
        self.resume_layers: list[dict] = []
        self.fresh_fingerprints: set[str] = set()
        self.recovery: dict = {}
        self.checks_s = 0.0
        self.candidates = workload.config.resolve_candidate_parents(workload.dataset.matrix.n_vars)

    def _check(self, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.problems.append(f"{self.workload.name}: {exc}")

    def _fresh_dir(self, name: str) -> Path:
        directory = self.work_dir / name
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        return directory

    # -- checks made once per run, before timing ----------------------------------
    def differential_check(self) -> None:
        """ReferenceLearner and LemonTreeLearner agree on a prefix of the
        workload's matrix under its config and the run's seed."""
        n, m = PREFIX_SHAPE
        prefix = self.workload.dataset.matrix.subsample(n, m)
        config = self.workload.config
        if config.candidate_parents is not None:
            config = config.with_updates(
                candidate_parents=tuple(c for c in config.candidate_parents if c < n)
            )
        optimised = LemonTreeLearner(config).learn(prefix, self.seed).network
        reference = ReferenceLearner(config).learn(prefix, self.seed).network
        self._check(
            checks.check_same,
            network_fingerprint(optimised),
            network_fingerprint(reference),
            f"LemonTreeLearner vs ReferenceLearner on the {n}x{m} prefix, seed {self.seed}",
        )
        self._check(checks.check_network, optimised, prefix.values, config.resolve_candidate_parents(n))

    def foreign_oracle(self) -> str:
        """The correct answer for the foreign-directory learn: the second
        matrix learned fresh in an empty directory."""
        learned = learn(self.workload, foreign_matrix(), self._fresh_dir("oracle"))
        self.worker_peak_kb = max(self.worker_peak_kb, learned.worker_peak_kb)
        return network_fingerprint(learned.network)

    # -- one round ---------------------------------------------------------------
    def round(self, oracle: str | None) -> None:
        workload = self.workload
        matrix = workload.dataset.matrix
        directory = self._fresh_dir("run")
        spans = self.spans

        self.attempted += 1
        before = spans.snapshot() if spans else None
        fresh = learn(workload, matrix, directory, spans)
        self.learn_s.append(fresh.seconds)
        self.worker_peak_kb = max(self.worker_peak_kb, fresh.worker_peak_kb)
        fingerprint = network_fingerprint(fresh.network)
        self.fresh_fingerprints.add(fingerprint)
        self._check(checks.check_network, fresh.network, matrix.values, self.candidates)
        self.recovery = recovery_metrics(fresh.network, workload.dataset.truth)
        if spans:
            self.layers.append(self._layer_metrics(before, fresh, directory))

        for _ in range(workload.resumes):
            survivors = interrupt_half(directory)
            self.attempted += 1
            resumed = learn(workload, matrix, directory)
            self.resume_s.append(resumed.seconds)
            self.worker_peak_kb = max(self.worker_peak_kb, resumed.worker_peak_kb)
            self._check(checks.check_network, resumed.network, matrix.values, self.candidates)
            self._check(
                checks.check_same,
                network_fingerprint(resumed.network),
                fingerprint,
                "resumed vs fresh network",
            )
            reused, recomputed = resume_counts(directory, survivors)
            self.resume_layers.append(
                {"checkpoint.modules_reused": reused, "checkpoint.modules_recomputed": recomputed}
            )

        if oracle is not None:
            # Known fault: the checkpoint fingerprints omit the matrix
            # contents, so this learn returns the first matrix's network.
            other = foreign_matrix()
            self.attempted += 1
            foreign = learn(workload, other, directory)
            try:
                checks.check_network(foreign.network, other.values, self.candidates)
                checks.check_same(network_fingerprint(foreign.network), oracle, "foreign-directory learn")
            except checks.CheckFailed:
                self.failed += 1

    def _layer_metrics(self, before, fresh: Learned, directory: Path) -> dict:
        """Per-layer metrics of one traced fresh learn (span deltas)."""
        total0, calls0, counts0, child0 = before
        total, calls, counts, child = self.spans.snapshot()

        def t(name):
            return total.get(name, 0.0) - total0.get(name, 0.0)

        def c(name):
            return calls.get(name, 0) - calls0.get(name, 0)

        def k(name):
            return counts.get(name, 0) - counts0.get(name, 0)

        trace = fresh.trace
        kernel = trace.kernel_counters
        hits, evaluations = kernel.get("hits", 0), kernel.get("evaluations", 0)
        busy = sum(trace.worker_times.values())
        dispatch = t("parallel.ganesh_dispatch") + t("parallel.modules_dispatch")
        stats = fresh.executor_stats
        files, n_bytes = checkpoint_bytes(directory)
        out = {
            "trace.learn_s": fresh.seconds,
            "learner.task1_s": trace.times.get("ganesh", 0.0),
            "learner.task2_s": trace.times.get("consensus", 0.0),
            "learner.task3_s": trace.times.get("modules", 0.0),
            "ganesh.sample_s": t("ganesh.sample"),
            "ganesh.runs": c("ganesh.sample"),
            "ganesh.var_sweep_s": t("ganesh.var_sweep"),
            "ganesh.obs_sweep_s": t("ganesh.obs_sweep"),
            "ganesh.obs_sample_s": t("ganesh.obs_sample"),
            "consensus.s": t("consensus"),
            "consensus.modules": k("consensus"),
            "trees.split_scoring_s": t("trees.split_scoring"),
            # split scoring minus the kernel time nested in it
            "trees.split_chain_self_s": t("trees.split_scoring")
            - (child.get("trees.split_scoring", 0.0) - child0.get("trees.split_scoring", 0.0)),
            "trees.nodes_scored": c("trees.split_scoring"),
            "trees.candidate_splits": k("trees.split_scoring"),
            "trees.hierarchy_s": t("trees.hierarchy"),
            "trees.select_s": t("trees.select"),
            "trees.parents_s": t("trees.parents"),
            "scoring.kernel_s": t("scoring.kernel"),
            "scoring.kernel_calls": c("scoring.kernel"),
            "scoring.kernel_evaluations": evaluations,
            "scoring.kernel_hits": hits,
            "scoring.kernel_hit_ratio": hits / (hits + evaluations) if hits + evaluations else 0.0,
            "parallel.ganesh_dispatch_s": t("parallel.ganesh_dispatch"),
            "parallel.modules_dispatch_s": t("parallel.modules_dispatch"),
            "parallel.close_s": t("parallel.close"),
            "parallel.worker_busy_s": busy,
            "parallel.worker_idle_s": N_WORKERS * dispatch - busy if stats else 0.0,
            "parallel.load_imbalance": trace.worker_imbalance(),
            "parallel.pools_constructed": stats.pools_constructed if stats else 0,
            "parallel.matrix_transfers": stats.matrix_transfers if stats else 0,
            "checkpoint.files_written": files,
            "checkpoint.bytes_written": n_bytes,
        }
        return out

    def execute(self) -> None:
        """Checks, then whole rounds until ``seconds`` of rounds have run
        and at least ``MIN_ROUNDS`` of them."""
        start = time.perf_counter()
        self.differential_check()
        oracle = self.foreign_oracle() if self.workload.pooled else None
        self.checks_s = time.perf_counter() - start
        context = spans_mod.installed(self.spans) if self.spans else nullcontext()
        with context:
            start = time.perf_counter()
            rounds = 0
            while True:
                self.round(oracle)
                rounds += 1
                if self.after_round is not None:
                    self.after_round()
                if rounds >= MIN_ROUNDS and time.perf_counter() - start >= self.seconds:
                    break
        if len(self.fresh_fingerprints) != 1:
            self.problems.append(f"{self.workload.name}: fresh learns of one input differ")
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own_kb + self.worker_peak_kb) / 1024.0


def median_of(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]} if rows else {}


def report(run: Run, setup: list[dict]) -> dict:
    """The run's result line: end-to-end metrics untraced, per-layer traced."""
    if run.spans is None:
        metrics = {
            "learn_s": (statistics.median(run.learn_s), "s"),
            "setup_s": (statistics.median(p["setup_s"] for p in setup), "s"),
            "peak_rss_mb": (run.peak_rss_mb(), "MB"),
            "resume_s": (statistics.median(run.resume_s), "s"),
            "module_ari": (run.recovery["module_ari"], "1"),
        }
    else:
        layers = median_of(run.layers) | median_of(run.resume_layers)
        layers["core.import_s"] = statistics.median(p["import_s"] for p in setup)
        layers["native.load_s"] = statistics.median(p["native_load_s"] for p in setup)
        metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    print(
        f"{run.workload.name}: learn_s samples {[round(x, 3) for x in run.learn_s]}, "
        f"resume_s samples {[round(x, 3) for x in run.resume_s]}, "
        f"setup_s samples {[round(p['setup_s'], 3) for p in setup]}, "
        f"pre-round checks {run.checks_s:.1f} s, kernel backend {setup[0]['backend']}",
        file=sys.stderr,
    )
    for line in run.problems:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _unit(name: str) -> str:
    if name.endswith("_s") or name == "consensus.s":
        return "s"
    if name.endswith(("_ratio", "imbalance")):
        return "1"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"
