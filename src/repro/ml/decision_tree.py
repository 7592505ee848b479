"""CART decision trees (classification and regression), from scratch.

The paper's predictive model is "an ensemble of decision trees, one per
configuration parameter", trained with Scikit-learn's
``DecisionTreeClassifier`` while sweeping ``criterion``, ``max_depth``,
and ``min_samples_leaf`` with 3-fold cross-validation (Section 5.1).
Scikit-learn is not available offline, so this module implements the
same estimator: binary axis-aligned splits chosen by impurity decrease
(Gini or entropy), depth and leaf-size limits, minimal cost-complexity
pruning, and Gini feature importance (used for Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ModelError

__all__ = ["TreeNode", "DecisionTreeClassifier", "DecisionTreeRegressor"]

_CRITERIA = ("gini", "entropy")


@dataclass
class TreeNode:
    """One node of a fitted tree.

    Leaves have ``feature == -1``; internal nodes route samples with
    ``x[feature] <= threshold`` to ``left`` and the rest to ``right``.
    """

    feature: int = -1
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    value: np.ndarray = field(default_factory=lambda: np.zeros(0))
    n_samples: int = 0
    impurity: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0

    def count_leaves(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.count_leaves() + self.right.count_leaves()

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log2(p)))


def _variance(y: np.ndarray) -> float:
    if y.size == 0:
        return 0.0
    return float(np.var(y))


class _BaseTree:
    """Shared fitting machinery for classifier and regressor trees."""

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[int] = None,
        ccp_alpha: float = 0.0,
        random_state: Optional[int] = None,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ModelError("max_depth must be >= 1 when given")
        if min_samples_split < 2:
            raise ModelError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ModelError("min_samples_leaf must be >= 1")
        if ccp_alpha < 0:
            raise ModelError("ccp_alpha must be non-negative")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.ccp_alpha = ccp_alpha
        self.random_state = random_state
        self.root_: Optional[TreeNode] = None
        self.n_features_: int = 0
        self.feature_importances_: Optional[np.ndarray] = None

    # -- subclass hooks -------------------------------------------------
    def _node_impurity(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def _node_value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _split_gains(
        self, y_sorted: np.ndarray, rows: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """Impurity decrease of a batch of candidate splits.

        ``y_sorted`` holds the node's targets once per candidate feature,
        each row ordered by that feature (shape ``(features, n)``).
        Candidate ``k`` splits row ``rows[k]`` at ``positions[k]``: the
        first ``positions[k]`` samples go left.
        """
        raise NotImplementedError

    # -- fitting ---------------------------------------------------------
    def _check_fitted(self) -> TreeNode:
        if self.root_ is None:
            raise ModelError("estimator is not fitted; call fit() first")
        return self.root_

    def _validate_xy(self, features, targets):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ModelError("X must be a 2-D array")
        if features.shape[0] == 0:
            raise ModelError("cannot fit on an empty dataset")
        targets = np.asarray(targets)
        if targets.shape[0] != features.shape[0]:
            raise ModelError("X and y must have the same number of rows")
        return features, targets

    def _fit_tree(self, features: np.ndarray, encoded: np.ndarray) -> None:
        self.n_features_ = features.shape[1]
        self._importance_raw = np.zeros(self.n_features_)
        rng = np.random.default_rng(self.random_state)
        indices = np.arange(features.shape[0])
        # Presort once: row ``f`` lists the sample ids in stable order of
        # feature ``f``. Children inherit it by stable partition, which
        # equals a stable argsort of each child's (ascending) id subset.
        presorted = np.ascontiguousarray(
            np.argsort(features, axis=0, kind="stable").T
        )
        self.root_ = self._build(
            features, encoded, indices, presorted, depth=0, rng=rng
        )
        if self.ccp_alpha > 0.0:
            self._prune(self.root_)
        total = self._importance_raw.sum()
        if total > 0:
            self.feature_importances_ = self._importance_raw / total
        else:
            self.feature_importances_ = np.zeros(self.n_features_)

    def _build(
        self,
        features: np.ndarray,
        encoded: np.ndarray,
        indices: np.ndarray,
        presorted: np.ndarray,
        depth: int,
        rng: np.random.Generator,
    ) -> TreeNode:
        y_node = encoded[indices]
        impurity = self._node_impurity(y_node)
        node = TreeNode(
            value=self._node_value(y_node),
            n_samples=indices.size,
            impurity=impurity,
        )
        if (
            impurity <= 1e-12
            or indices.size < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node

        candidate_features = np.arange(self.n_features_)
        if self.max_features is not None and self.max_features < self.n_features_:
            candidate_features = rng.choice(
                self.n_features_, size=self.max_features, replace=False
            )

        best_feature, best_gain, best_threshold = self._find_split(
            features, encoded, presorted, candidate_features
        )
        if best_feature < 0:
            return node

        go_left = features[indices, best_feature] <= best_threshold
        left_idx = indices[go_left]
        right_idx = indices[~go_left]
        if (
            left_idx.size < self.min_samples_leaf
            or right_idx.size < self.min_samples_leaf
        ):
            return node

        node.feature = best_feature
        node.threshold = best_threshold
        self._importance_raw[best_feature] += best_gain * indices.size
        in_left = np.zeros(features.shape[0], dtype=bool)
        in_left[left_idx] = True
        keep_left = in_left[presorted]
        n_features = presorted.shape[0]
        node.left = self._build(
            features,
            encoded,
            left_idx,
            presorted[keep_left].reshape(n_features, -1),
            depth + 1,
            rng,
        )
        node.right = self._build(
            features,
            encoded,
            right_idx,
            presorted[~keep_left].reshape(n_features, -1),
            depth + 1,
            rng,
        )
        return node

    def _find_split(
        self,
        features: np.ndarray,
        encoded: np.ndarray,
        presorted: np.ndarray,
        candidates: np.ndarray,
    ):
        """Best ``(feature, gain, threshold)`` over all candidate features.

        One 2-D pass scores every split position of every candidate.
        Candidate split positions lie between distinct consecutive
        values and honour ``min_samples_leaf`` on both sides; each
        feature keeps its first maximal position, and a feature replaces
        the incumbent (in ``candidates`` order) only by a gain larger by
        more than 1e-15. Returns feature ``-1`` when nothing gains.
        """
        n = presorted.shape[1]
        lo = self.min_samples_leaf
        hi = n - self.min_samples_leaf
        if hi < lo:
            return -1, 0.0, 0.0
        rows = presorted[candidates]
        x_sorted = features[rows, candidates[:, None]]
        distinct = x_sorted[:, lo : hi + 1] > x_sorted[:, lo - 1 : hi] + 1e-15
        feature_rows, columns = np.nonzero(distinct)
        if feature_rows.size == 0:
            return -1, 0.0, 0.0
        gains = np.full(distinct.shape, -np.inf)
        gains[feature_rows, columns] = self._split_gains(
            encoded[rows], feature_rows, columns + lo
        )
        best_positions = np.argmax(gains, axis=1)
        per_feature = gains[np.arange(candidates.size), best_positions]
        best_gain = 0.0
        best = -1
        for k, gain in enumerate(per_feature.tolist()):
            if gain > best_gain + 1e-15:
                best_gain = gain
                best = k
        if best < 0:
            return -1, 0.0, 0.0
        pos = lo + best_positions[best]
        threshold = 0.5 * (x_sorted[best, pos - 1] + x_sorted[best, pos])
        return int(candidates[best]), best_gain, float(threshold)

    # -- pruning ----------------------------------------------------------
    def _prune(self, node: TreeNode) -> None:
        """Minimal cost-complexity pruning with parameter ``ccp_alpha``.

        Repeatedly collapses the internal node whose effective alpha
        (impurity increase per removed leaf) is below the configured
        threshold, weakest link first.
        """
        while True:
            weakest = self._weakest_link(node, node.n_samples)
            if weakest is None:
                return
            alpha, target = weakest
            if alpha > self.ccp_alpha:
                return
            target.feature = -1
            target.left = None
            target.right = None

    def _weakest_link(self, root: TreeNode, total: int):
        best = None

        def visit(node: TreeNode):
            nonlocal best
            if node.is_leaf:
                return node.impurity * node.n_samples / total, 1
            left_cost, left_leaves = visit(node.left)
            right_cost, right_leaves = visit(node.right)
            subtree_cost = left_cost + right_cost
            leaves = left_leaves + right_leaves
            node_cost = node.impurity * node.n_samples / total
            if leaves > 1:
                alpha = (node_cost - subtree_cost) / (leaves - 1)
                if best is None or alpha < best[0]:
                    best = (alpha, node)
            return subtree_cost, leaves

        visit(root)
        return best

    # -- inference ---------------------------------------------------------
    def _decision_values(self, features: np.ndarray) -> np.ndarray:
        root = self._check_fitted()
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        if features.shape[1] != self.n_features_:
            raise ModelError(
                f"expected {self.n_features_} features, got {features.shape[1]}"
            )
        out = np.empty((features.shape[0], root.value.size))
        stack = [(root, np.arange(features.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                out[idx] = node.value
                continue
            go_left = features[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
        return out

    def decision_path(self, features) -> dict:
        """Root-to-leaf trace explaining the prediction for ONE sample.

        Returns ``{"steps": [...], "leaf": {...}}``. Each step records
        the comparison made at one internal node::

            {"depth": 0, "feature": 4, "threshold": 0.24,
             "value": 0.31, "direction": "gt"}

        ``direction`` is ``"le"`` when the sample went left
        (``value <= threshold``) and ``"gt"`` otherwise. The leaf entry
        carries its depth, training-sample count, and raw node value
        (class probabilities for classifiers, mean target for
        regressors). Subclasses extend the leaf with the decoded
        ``prediction`` (and a vote ``margin`` for classifiers).
        """
        root = self._check_fitted()
        sample = np.asarray(features, dtype=np.float64).reshape(-1)
        if sample.size != self.n_features_:
            raise ModelError(
                f"expected {self.n_features_} features, got {sample.size}"
            )
        steps = []
        node = root
        depth = 0
        while not node.is_leaf:
            observed = float(sample[node.feature])
            go_left = observed <= node.threshold
            steps.append(
                {
                    "depth": depth,
                    "feature": int(node.feature),
                    "threshold": float(node.threshold),
                    "value": observed,
                    "direction": "le" if go_left else "gt",
                }
            )
            node = node.left if go_left else node.right
            depth += 1
        leaf = {
            "depth": depth,
            "n_samples": int(node.n_samples),
            "value": [float(v) for v in node.value],
        }
        return {"steps": steps, "leaf": leaf}

    # -- introspection -------------------------------------------------------
    def depth(self) -> int:
        """Depth of the fitted tree (0 for a single leaf)."""
        return self._check_fitted().depth()

    def n_leaves(self) -> int:
        """Number of leaves of the fitted tree."""
        return self._check_fitted().count_leaves()

    def get_params(self) -> dict:
        """Constructor parameters, for model-selection clones."""
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "ccp_alpha": self.ccp_alpha,
            "random_state": self.random_state,
        }


class DecisionTreeClassifier(_BaseTree):
    """CART classification tree with Gini or entropy splitting."""

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[int] = None,
        ccp_alpha: float = 0.0,
        random_state: Optional[int] = None,
    ) -> None:
        if criterion not in _CRITERIA:
            raise ModelError(f"criterion must be one of {_CRITERIA}")
        super().__init__(
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            ccp_alpha=ccp_alpha,
            random_state=random_state,
        )
        self.criterion = criterion
        self.classes_: Optional[np.ndarray] = None

    def get_params(self) -> dict:
        params = super().get_params()
        params["criterion"] = self.criterion
        return params

    # -- criterion ---------------------------------------------------------
    def _impurity_from_counts(self, counts: np.ndarray) -> float:
        if self.criterion == "gini":
            return _gini(counts)
        return _entropy(counts)

    def _node_impurity(self, y: np.ndarray) -> float:
        counts = np.bincount(y, minlength=self._n_classes)
        return self._impurity_from_counts(counts)

    def _node_value(self, y: np.ndarray) -> np.ndarray:
        counts = np.bincount(y, minlength=self._n_classes)
        total = counts.sum()
        if total == 0:
            return np.full(self._n_classes, 1.0 / self._n_classes)
        return counts / total

    def _split_gains(self, y_sorted, rows, positions):
        """Gains from class-count prefix sums."""
        n = y_sorted.shape[1]
        # Flat index of the last sample left of each split.
        last_left = rows * n + positions - 1
        left_counts = np.empty((rows.size, self._n_classes))
        for label in range(self._n_classes):
            # Counts are exact small integers; int32 sums fastest.
            prefix = np.cumsum(y_sorted == label, axis=1, dtype=np.int32)
            left_counts[:, label] = prefix.ravel()[last_left]
        total = np.bincount(y_sorted[0], minlength=self._n_classes).astype(
            np.float64
        )
        parent_impurity = self._impurity_from_counts(total)
        right_counts = total - left_counts
        n_left = positions.astype(np.float64)
        n_right = n - n_left

        def batch_impurity(counts, sizes):
            p = counts / sizes[:, None]
            if self.criterion == "gini":
                return 1.0 - np.sum(p * p, axis=1)
            logs = np.zeros_like(p)
            np.log2(p, where=p > 0, out=logs)
            return -np.sum(p * logs, axis=1)

        weighted = (
            n_left * batch_impurity(left_counts, n_left)
            + n_right * batch_impurity(right_counts, n_right)
        ) / n
        return parent_impurity - weighted

    # -- public API -----------------------------------------------------------
    def fit(self, features, labels) -> "DecisionTreeClassifier":
        """Fit the tree; labels may be any hashable values."""
        features, labels = self._validate_xy(features, labels)
        self.classes_, encoded = np.unique(labels, return_inverse=True)
        self._n_classes = self.classes_.size
        self._fit_tree(features, encoded.astype(np.int64))
        return self

    def predict_proba(self, features) -> np.ndarray:
        """Class-probability estimates, one row per sample."""
        return self._decision_values(features)

    def predict(self, features) -> np.ndarray:
        """Predicted class labels."""
        if self.classes_ is None:
            raise ModelError("estimator is not fitted; call fit() first")
        probs = self.predict_proba(features)
        return self.classes_[np.argmax(probs, axis=1)]

    def score(self, features, labels) -> float:
        """Mean accuracy on the given data."""
        labels = np.asarray(labels)
        return float(np.mean(self.predict(features) == labels))

    def decision_path(self, features) -> dict:
        """Path trace plus the decoded class and its vote margin.

        The leaf gains ``prediction`` (the class label, decoded exactly
        like :meth:`predict`) and ``margin`` — the probability gap
        between the winning class and the runner-up at the leaf (1.0
        for a pure or single-class leaf).
        """
        if self.classes_ is None:
            raise ModelError("estimator is not fitted; call fit() first")
        path = super().decision_path(features)
        probabilities = np.asarray(path["leaf"]["value"])
        best = int(np.argmax(probabilities))
        prediction = self.classes_[best]
        item = getattr(prediction, "item", None)
        path["leaf"]["prediction"] = item() if callable(item) else prediction
        if probabilities.size > 1:
            others = np.delete(probabilities, best)
            margin = float(probabilities[best] - others.max())
        else:
            margin = 1.0
        path["leaf"]["margin"] = margin
        return path


class DecisionTreeRegressor(_BaseTree):
    """CART regression tree with variance-reduction splitting."""

    def _node_impurity(self, y: np.ndarray) -> float:
        return _variance(y)

    def _node_value(self, y: np.ndarray) -> np.ndarray:
        return np.array([float(np.mean(y))]) if y.size else np.zeros(1)

    def _split_gains(self, y_sorted, rows, positions):
        """Gains from running sums and sums of squares."""
        n = y_sorted.shape[1]
        prefix = np.cumsum(y_sorted, axis=1)
        prefix_sq = np.cumsum(y_sorted * y_sorted, axis=1)
        total, total_sq = prefix[:, -1], prefix_sq[:, -1]
        # The running sums follow each feature's own sample order, so
        # every feature has its own parent variance, computed in numpy
        # scalars as a one-feature scan computes it.
        parent = np.array(
            [t_sq / n - (t / n) ** 2 for t, t_sq in zip(total, total_sq)]
        )

        n_left = positions.astype(np.float64)
        n_right = n - n_left
        sum_left = prefix[rows, positions - 1]
        sq_left = prefix_sq[rows, positions - 1]
        var_left = sq_left / n_left - (sum_left / n_left) ** 2
        sum_right = total[rows] - sum_left
        sq_right = total_sq[rows] - sq_left
        var_right = sq_right / n_right - (sum_right / n_right) ** 2
        weighted = (n_left * var_left + n_right * var_right) / n
        return parent[rows] - weighted

    def fit(self, features, targets) -> "DecisionTreeRegressor":
        """Fit the tree on continuous targets."""
        features, targets = self._validate_xy(features, targets)
        self._fit_tree(features, targets.astype(np.float64))
        return self

    def predict(self, features) -> np.ndarray:
        """Predicted targets."""
        return self._decision_values(features)[:, 0]

    def decision_path(self, features) -> dict:
        """Path trace plus the predicted target at the leaf."""
        path = super().decision_path(features)
        path["leaf"]["prediction"] = path["leaf"]["value"][0]
        return path

    def score(self, features, targets) -> float:
        """Coefficient of determination R^2."""
        targets = np.asarray(targets, dtype=np.float64)
        predictions = self.predict(features)
        ss_res = float(np.sum((targets - predictions) ** 2))
        ss_tot = float(np.sum((targets - targets.mean()) ** 2))
        if ss_tot == 0:
            return 1.0 if ss_res == 0 else 0.0
        return 1.0 - ss_res / ss_tot


def clone_estimator(estimator, **overrides):
    """Return an unfitted copy of ``estimator`` with parameter overrides."""
    params = estimator.get_params()
    params.update(overrides)
    return type(estimator)(**params)


def _as_feature_names(names: Optional[Sequence[str]], count: int) -> List[str]:
    if names is None:
        return [f"x{i}" for i in range(count)]
    return list(names)
