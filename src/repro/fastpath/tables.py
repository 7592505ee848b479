"""Flat decision tables compiled from fitted CART trees and forests.

A fitted :class:`~repro.ml.decision_tree._BaseTree` is a linked
``TreeNode`` structure; walking it costs a Python attribute chase per
level per sample. Compilation flattens the tree into four contiguous
arrays indexed by node id::

    feature[n]    int32    splitting feature, -1 for leaves
    threshold[n]  float64  split threshold (x[feature] <= threshold -> left)
    left[n]       int32    left child node id
    right[n]      int32    right child node id
    values[n, c]  float64  node value (class probabilities / mean target)

Batch prediction descends all rows breadth-wise: each iteration
resolves one tree level for every still-internal row with a handful of
vectorized gathers, so a whole epoch batch costs ``depth`` numpy ops
instead of ``n_rows`` Python walks. Single-row prediction (the
controller's per-epoch case) uses plain Python lists, which beats both
the node chase and numpy scalar indexing.

Equivalence with the scalar estimators is exact: the node comparisons
(``x <= threshold``), the leaf argmax decode, and the forest's
class-aligned probability averaging reproduce the reference
implementations operation for operation, and
``tests/test_fastpath_equivalence.py`` asserts bit-identical outputs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import ModelError

__all__ = [
    "CompiledTree",
    "CompiledForest",
    "compile_tree",
    "compile_estimator",
    "compile_forest",
]


class CompiledTree:
    """One fitted tree as flat arrays (see module docstring)."""

    __slots__ = (
        "feature",
        "threshold",
        "left",
        "right",
        "values",
        "classes_",
        "leaf_pred",
        "n_features",
        "_feature_list",
        "_threshold_list",
        "_left_list",
        "_right_list",
        "_pred_list",
    )

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        values: np.ndarray,
        classes: Optional[np.ndarray],
        n_features: int,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.values = values
        self.classes_ = classes
        self.n_features = n_features
        # Leaf decode, precomputed once: np.argmax over the node value is
        # exactly what DecisionTreeClassifier.predict does per row.
        self.leaf_pred = np.argmax(values, axis=1).astype(np.int32)
        # Python-list mirrors for the tight single-row walker.
        self._feature_list = feature.tolist()
        self._threshold_list = threshold.tolist()
        self._left_list = left.tolist()
        self._right_list = right.tolist()
        self._pred_list = self.leaf_pred.tolist()

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    def leaf_ids(self, rows: np.ndarray) -> np.ndarray:
        """Leaf node id reached by every row (breadth-wise descent)."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.n_features:
            raise ModelError(
                f"expected (n, {self.n_features}) rows, got {rows.shape}"
            )
        node = np.zeros(rows.shape[0], dtype=np.int32)
        while True:
            feat = self.feature[node]
            internal = feat >= 0
            if not internal.any():
                return node
            idx = np.nonzero(internal)[0]
            sub = node[idx]
            go_left = rows[idx, feat[idx]] <= self.threshold[sub]
            node[idx] = np.where(go_left, self.left[sub], self.right[sub])

    def leaf_values(self, rows: np.ndarray) -> np.ndarray:
        """Node values at the reached leaves (probabilities / means)."""
        return self.values[self.leaf_ids(rows)]

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        """Decoded predictions for a batch of rows."""
        leaves = self.leaf_ids(rows)
        if self.classes_ is None:
            return self.values[leaves, 0]
        return self.classes_[self.leaf_pred[leaves]]

    def predict_row(self, row) -> object:
        """Decoded prediction for one sample (flat-array walk)."""
        feature = self._feature_list
        threshold = self._threshold_list
        left = self._left_list
        right = self._right_list
        node = 0
        feat = feature[0]
        while feat >= 0:
            node = (
                left[node] if row[feat] <= threshold[node] else right[node]
            )
            feat = feature[node]
        if self.classes_ is None:
            return self.values[node, 0]
        return self.classes_[self._pred_list[node]]


class CompiledForest:
    """A bagged ensemble of compiled trees with class-aligned voting."""

    __slots__ = ("trees", "classes_", "col_maps", "n_features")

    def __init__(
        self,
        trees: List[CompiledTree],
        classes: np.ndarray,
        col_maps: List[np.ndarray],
    ) -> None:
        if not trees:
            raise ModelError("cannot compile an empty forest")
        self.trees = trees
        self.classes_ = classes
        self.col_maps = col_maps
        self.n_features = trees[0].n_features

    def predict_batch(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        accumulated = np.zeros((rows.shape[0], self.classes_.size))
        for tree, col_map in zip(self.trees, self.col_maps):
            accumulated[:, col_map] += tree.leaf_values(rows)
        probs = accumulated / len(self.trees)
        return self.classes_[np.argmax(probs, axis=1)]

    def predict_row(self, row) -> object:
        return self.predict_batch(np.asarray(row).reshape(1, -1))[0]


# ---------------------------------------------------------------------------
def compile_tree(tree) -> CompiledTree:
    """Flatten one fitted tree estimator into a :class:`CompiledTree`."""
    root = getattr(tree, "root_", None)
    if root is None:
        raise ModelError("estimator is not fitted; call fit() first")
    features: List[int] = []
    thresholds: List[float] = []
    lefts: List[int] = []
    rights: List[int] = []
    values: List[np.ndarray] = []

    def visit(node) -> int:
        index = len(features)
        features.append(node.feature if not node.is_leaf else -1)
        thresholds.append(node.threshold)
        lefts.append(0)
        rights.append(0)
        values.append(np.asarray(node.value, dtype=np.float64))
        if not node.is_leaf:
            lefts[index] = visit(node.left)
            rights[index] = visit(node.right)
        return index

    visit(root)
    value_matrix = np.vstack([v.reshape(1, -1) for v in values])
    return CompiledTree(
        feature=np.asarray(features, dtype=np.int32),
        threshold=np.asarray(thresholds, dtype=np.float64),
        left=np.asarray(lefts, dtype=np.int32),
        right=np.asarray(rights, dtype=np.int32),
        values=value_matrix,
        classes=getattr(tree, "classes_", None),
        n_features=int(tree.n_features_),
    )


def compile_estimator(estimator):
    """Compile a tree or forest estimator; ``None`` when unsupported.

    Unsupported estimators (anything without the from-scratch tree
    internals) simply stay on their scalar ``predict`` — the caller
    treats ``None`` as "no fast path for this parameter".
    """
    member_trees = getattr(estimator, "trees_", None)
    if member_trees is not None:  # random forest
        classes = getattr(estimator, "classes_", None)
        if classes is None or not member_trees:
            return None
        compiled = [compile_tree(tree) for tree in member_trees]
        col_maps = [
            np.searchsorted(classes, tree.classes_) for tree in member_trees
        ]
        return CompiledForest(compiled, classes, col_maps)
    if getattr(estimator, "root_", None) is not None:
        return compile_tree(estimator)
    return None


def compile_forest(model) -> Dict[str, object]:
    """Compile a :class:`~repro.core.model.SparseAdaptModel` ensemble.

    Returns ``{parameter: CompiledTree | CompiledForest | None}`` —
    one flat table per predicted runtime parameter, ``None`` where the
    estimator type has no compiled form.
    """
    from repro import obs

    with obs.span("forest_compile"):
        return {
            name: compile_estimator(model.trees[name])
            for name in model.predicted_parameters()
        }
