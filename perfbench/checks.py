"""Output checks: properties every learned module network must have.

None of these compares against a stored network.  They follow from the
method (Michoel et al., *Validating module network learning algorithms
using simulated data*): consensus clustering partitions the variables,
every regression tree partitions the observations hierarchically, splits
are drawn from the candidate parents' observed values, and parent scores
are normalised posterior sums.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(AssertionError):
    """A learned network broke a property the method guarantees."""


def check_network(network, data: np.ndarray, candidates) -> None:
    """Raise :class:`CheckFailed` unless ``network`` is a valid network
    for the ``(n_vars, n_obs)`` matrix ``data`` and ``candidates``."""
    n_vars, n_obs = data.shape
    candidates = set(int(c) for c in candidates)
    seen: set[int] = set()
    for module in network.modules:
        for var in module.members:
            if not 0 <= var < n_vars:
                raise CheckFailed(f"module {module.module_id}: member {var} out of range")
            if var in seen:
                raise CheckFailed(f"variable {var} is in two modules")
            seen.add(var)
    if len(seen) != n_vars:
        raise CheckFailed(f"modules cover {len(seen)} of {n_vars} variables")

    for module in network.modules:
        where = f"module {module.module_id}"
        for tree in module.trees:
            if not np.array_equal(tree.root.observations, np.arange(n_obs)):
                raise CheckFailed(f"{where}: tree root does not hold every observation")
            _check_node(tree.root, data, candidates, where)
        for kind in ("weighted_parents", "uniform_parents"):
            for parent, score in getattr(module, kind).items():
                if parent not in candidates:
                    raise CheckFailed(f"{where}: {kind} has non-candidate {parent}")
                if not 0.0 <= score <= 1.0:
                    raise CheckFailed(f"{where}: {kind}[{parent}] = {score} outside [0, 1]")


def _check_node(node, data, candidates, where) -> None:
    """The leaves under ``node`` partition its observations, and its
    splits test a candidate parent at a value the parent takes there."""
    leaves = [leaf.observations for leaf in node.leaves()]
    joined = np.sort(np.concatenate(leaves))
    if not np.array_equal(joined, np.sort(node.observations)):
        raise CheckFailed(f"{where}: leaves of node {node.node_id} do not partition it")
    if node.is_leaf:
        return
    for split in node.weighted_splits + node.uniform_splits:
        if split.parent not in candidates:
            raise CheckFailed(f"{where}: split on non-candidate parent {split.parent}")
        if split.value not in data[split.parent, node.observations]:
            raise CheckFailed(
                f"{where}: split value {split.value} is not a value of parent "
                f"{split.parent} at node {node.node_id}"
            )
        if not 0.0 <= split.posterior <= 1.0:
            raise CheckFailed(f"{where}: split posterior {split.posterior} outside [0, 1]")
    _check_node(node.left, data, candidates, where)
    _check_node(node.right, data, candidates, where)


def check_same(fingerprint: str, expected: str, what: str) -> None:
    if fingerprint != expected:
        raise CheckFailed(f"{what}: fingerprint {fingerprint[:12]} != {expected[:12]}")
