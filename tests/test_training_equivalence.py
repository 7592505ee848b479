"""Training and trace synthesis give the same bytes as the scalar code.

The CART split search scores every candidate feature of a node in one
2-D pass over presorted samples. :class:`_PerFeatureLoop` below keeps
the per-feature loop it replaced (one ``argsort`` plus one split scan
per feature), verbatim, as the reference: every fitted tree must match
it node for node, bit for bit.

The digests were recorded with the per-feature split loop, a search
that re-simulated each phase's sampled configurations for features,
per-column ``trace_spmspv`` and ``rmat`` loops, a per-candidate
``diagonal_local`` set loop, and ``np.add.at`` sparse conversions. Any
change to the training set, a stock model, a trace or a conversion
changes a digest.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cli import main
from repro.core.dataset import build_training_set, table3_phases
from repro.core.modes import OptimizationMode
from repro.core.training import DEFAULT_PARAM_GRID, clear_model_cache
from repro.kernels.spmspv import trace_spmspv
from repro.ml import random_forest
from repro.ml.decision_tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    TreeNode,
)
from repro.sparse import generators, suite
from repro.sparse.coo import COOMatrix

EE = OptimizationMode.ENERGY_EFFICIENT

#: sha256 digests (see :func:`_digest`) recorded with the scalar code.
EXPECTED = {
    "ts_spmspm": "b3fe4441a3181ff59c7951e6bf7b15f86cd3f20d40a54b1f40db6ad1b9a856cb",
    "ts_spmspv": "ef1568a126101c3e6da8b8bcdd947481bf22a3cca3ce882eb3e1334d61aa8d7d",
    "model_spmspm": "aeddc09b7e9772b920c0177db898296f8283e18dad67f6ab85a7bd721ba32435",
    "model_spmspv": "f0a3478a616363d35b51ea87257e31889b70ad62c12f65dd63d09044cb979739",
    "trace_table3": "f3ee87397ef5baffa6f19fd6eedb86abdec15f6f5db11b2c2dbebfe23e3442f9",
    "conv_table3": "fd103f9b4eac87af53900dd78b7808b6a6b8b9a9a6739d86f66e9fbde7f6f7d5",
    "trace_suite": "c2f91042c27b70b407e232ecb6dc55d350108098a86601ef9a94db670bbcb722",
    "conv_suite": "00a4cfa3f9618fb81909b2256bd622d73cfd71910653734439fbd483483369bf",
    "suite_coo": "5c930c626fd64e061ce1f1e12449c5009f96c1c0c54b9b6004f25aa5b4f3fea4",
    "rmat": "cacd8e339f484a3f5e9d9e304d37bc68baadcb2ffb54a1f42a32ff8410ffe455",
    "rmat_probabilities": "7218dc12ef06e0760ef40cbd585831738f33911bb66d56e4dd5a00af4a2e9b02",
    "duplicates": "bb17fff59350fbf9d99d596c438929e1ef7006c8707aa5d93472bbd61c988dcb",
    "edge_shapes": "ffa16764ec7cc7f0b5539f51a08a7dcaca5436873fb3bd9964b6d215eac11f20",
    "diagonal_local": "4dfc1cab73e5e963b14832391033151ce6ac3a08cee300a856f69349e665b85d",
}

#: The matrices of Table 3's SpMSpV sweep and a spread of Table-5 ones.
SUITE_IDS = ("U1", "P1", "P2", "R09", "R10", "R12", "R13", "R14", "R16", "R03")


def _digest(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(str(part.dtype).encode())
            digest.update(str(part.shape).encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()


def _training_set_digest(training_set) -> str:
    labels = training_set.labels
    return _digest(training_set.features, *[labels[k] for k in sorted(labels)])


def _trace_digest(trace) -> str:
    rows = [
        tuple(
            float(v).hex() if isinstance(v, float) else v
            for v in dataclasses.astuple(epoch)
        )
        for epoch in trace.epochs
    ]
    return _digest(rows, sorted(trace.info.items()))


def _compressed_digest(matrix) -> str:
    return _digest(matrix.indptr, matrix.indices, matrix.data, matrix.shape)


def _duplicate_coo() -> COOMatrix:
    rng = np.random.default_rng(11)
    return COOMatrix(
        rng.integers(0, 40, 3000),
        rng.integers(0, 30, 3000),
        rng.normal(size=3000),
        (40, 30),
    )


# ---------------------------------------------------------------------------
# The reference: the per-feature split loop, verbatim.
# ---------------------------------------------------------------------------
class _PerFeatureLoop:
    def _fit_tree(self, features, encoded):
        self.n_features_ = features.shape[1]
        self._importance_raw = np.zeros(self.n_features_)
        rng = np.random.default_rng(self.random_state)
        indices = np.arange(features.shape[0])
        self.root_ = self._build_loop(
            features, encoded, indices, depth=0, rng=rng
        )
        if self.ccp_alpha > 0.0:
            self._prune(self.root_)
        total = self._importance_raw.sum()
        if total > 0:
            self.feature_importances_ = self._importance_raw / total
        else:
            self.feature_importances_ = np.zeros(self.n_features_)

    def _build_loop(self, features, encoded, indices, depth, rng):
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

        best_gain = 0.0
        best_feature = -1
        best_threshold = 0.0
        for feat in candidate_features:
            x_col = features[indices, feat]
            order = np.argsort(x_col, kind="stable")
            gain, threshold = self._feature_split(x_col, y_node, order)
            if gain > best_gain + 1e-15:
                best_gain = gain
                best_feature = int(feat)
                best_threshold = threshold

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
        node.left = self._build_loop(features, encoded, left_idx, depth + 1, rng)
        node.right = self._build_loop(
            features, encoded, right_idx, depth + 1, rng
        )
        return node


class LoopClassifier(_PerFeatureLoop, DecisionTreeClassifier):
    def _feature_split(self, x_col, y, order):
        """Best threshold on one feature via class-count prefix sums."""
        x_sorted = x_col[order]
        y_sorted = y[order]
        n = y_sorted.size
        one_hot = np.zeros((n, self._n_classes))
        one_hot[np.arange(n), y_sorted] = 1.0
        prefix = np.cumsum(one_hot, axis=0)
        total = prefix[-1]
        parent_impurity = self._impurity_from_counts(total)

        lo = self.min_samples_leaf
        hi = n - self.min_samples_leaf
        if hi < lo:
            return 0.0, 0.0
        positions = np.arange(lo, hi + 1)
        distinct = x_sorted[positions] > x_sorted[positions - 1] + 1e-15
        positions = positions[distinct]
        if positions.size == 0:
            return 0.0, 0.0

        left_counts = prefix[positions - 1]
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
        gains = parent_impurity - weighted
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            return 0.0, 0.0
        pos = positions[best]
        threshold = 0.5 * (x_sorted[pos - 1] + x_sorted[pos])
        return float(gains[best]), float(threshold)


class LoopRegressor(_PerFeatureLoop, DecisionTreeRegressor):
    def _feature_split(self, x_col, y, order):
        x_sorted = x_col[order]
        y_sorted = y[order].astype(np.float64)
        n = y_sorted.size
        prefix = np.cumsum(y_sorted)
        prefix_sq = np.cumsum(y_sorted * y_sorted)
        total, total_sq = prefix[-1], prefix_sq[-1]
        parent = total_sq / n - (total / n) ** 2

        lo = self.min_samples_leaf
        hi = n - self.min_samples_leaf
        if hi < lo:
            return 0.0, 0.0
        positions = np.arange(lo, hi + 1)
        distinct = x_sorted[positions] > x_sorted[positions - 1] + 1e-15
        positions = positions[distinct]
        if positions.size == 0:
            return 0.0, 0.0

        n_left = positions.astype(np.float64)
        n_right = n - n_left
        sum_left = prefix[positions - 1]
        sq_left = prefix_sq[positions - 1]
        var_left = sq_left / n_left - (sum_left / n_left) ** 2
        sum_right = total - sum_left
        sq_right = total_sq - sq_left
        var_right = sq_right / n_right - (sum_right / n_right) ** 2
        weighted = (n_left * var_left + n_right * var_right) / n
        gains = parent - weighted
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            return 0.0, 0.0
        pos = positions[best]
        threshold = 0.5 * (x_sorted[pos - 1] + x_sorted[pos])
        return float(gains[best]), float(threshold)


def _structure(tree):
    """Every node (preorder) and the importances, floats as hex."""
    nodes = []
    stack = [tree.root_]
    while stack:
        node = stack.pop()
        nodes.append(
            (
                node.feature,
                None if node.is_leaf else float(node.threshold).hex(),
                node.n_samples,
                float(node.impurity).hex(),
                tuple(float(v).hex() for v in node.value),
            )
        )
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)
    importances = tuple(float(v).hex() for v in tree.feature_importances_)
    return nodes, importances


def _assert_same_tree(tree, reference):
    assert _structure(tree) == _structure(reference)


@pytest.fixture(scope="module")
def stock_sets():
    """The stock EE training sets (quick recipe) of both kernels."""
    return {
        kernel: build_training_set(table3_phases(kernel), EE, k_samples=24, seed=0)
        for kernel in ("spmspm", "spmspv")
    }


@pytest.fixture(scope="module")
def tied_many_classes():
    """13 classes, heavily tied integer features plus one continuous."""
    rng = np.random.default_rng(3)
    features = rng.integers(0, 6, size=(600, 9)).astype(np.float64)
    features[:, 3] = rng.normal(size=600)
    return features, rng.integers(0, 13, size=600)


# ---------------------------------------------------------------------------
class TestSplitSearchMatchesPerFeatureLoop:
    @pytest.mark.parametrize("kernel", ["spmspm", "spmspv"])
    def test_stock_trees(self, stock_sets, kernel):
        training_set = stock_sets[kernel]
        for labels in training_set.labels.values():
            params = dict(criterion="gini", max_depth=10, min_samples_leaf=5)
            _assert_same_tree(
                DecisionTreeClassifier(random_state=0, **params).fit(
                    training_set.features, labels
                ),
                LoopClassifier(random_state=0, **params).fit(
                    training_set.features, labels
                ),
            )

    @pytest.mark.parametrize("criterion", DEFAULT_PARAM_GRID["criterion"])
    @pytest.mark.parametrize(
        "min_samples_leaf", DEFAULT_PARAM_GRID["min_samples_leaf"]
    )
    def test_default_param_grid(self, stock_sets, criterion, min_samples_leaf):
        training_set = stock_sets["spmspv"]
        labels = training_set.labels["clock_mhz"]
        for max_depth in DEFAULT_PARAM_GRID["max_depth"]:
            params = dict(
                criterion=criterion,
                max_depth=max_depth,
                min_samples_leaf=min_samples_leaf,
                random_state=0,
            )
            _assert_same_tree(
                DecisionTreeClassifier(**params).fit(
                    training_set.features, labels
                ),
                LoopClassifier(**params).fit(training_set.features, labels),
            )

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("max_features", [None, 3])
    def test_many_tied_classes(self, tied_many_classes, criterion, max_features):
        features, labels = tied_many_classes
        for min_samples_leaf in (1, 3):
            params = dict(
                criterion=criterion,
                max_depth=8,
                min_samples_leaf=min_samples_leaf,
                max_features=max_features,
                random_state=4,
            )
            _assert_same_tree(
                DecisionTreeClassifier(**params).fit(features, labels),
                LoopClassifier(**params).fit(features, labels),
            )

    @pytest.mark.parametrize("min_samples_leaf", [1, 5, 20])
    def test_regressor(self, stock_sets, min_samples_leaf):
        table = stock_sets["spmspv"].features
        for target in (0, 7):
            features = np.delete(table, target, axis=1)
            params = dict(max_depth=8, min_samples_leaf=min_samples_leaf)
            _assert_same_tree(
                DecisionTreeRegressor(**params).fit(features, table[:, target]),
                LoopRegressor(**params).fit(features, table[:, target]),
            )

    def test_random_forest_sqrt_features(self, stock_sets, monkeypatch):
        training_set = stock_sets["spmspm"]
        labels = training_set.labels["clock_mhz"]

        def fit_forest():
            return random_forest.RandomForestClassifier(
                n_estimators=4, max_depth=8, max_features="sqrt", random_state=7
            ).fit(training_set.features, labels)

        forest = fit_forest()
        monkeypatch.setattr(random_forest, "DecisionTreeClassifier", LoopClassifier)
        reference = fit_forest()
        assert len(forest.trees_) == len(reference.trees_)
        for tree, reference_tree in zip(forest.trees_, reference.trees_):
            _assert_same_tree(tree, reference_tree)
        assert (
            forest.feature_importances_.tobytes()
            == reference.feature_importances_.tobytes()
        )


class TestRecordedDigests:
    @pytest.mark.parametrize("kernel", ["spmspm", "spmspv"])
    def test_training_set(self, stock_sets, kernel):
        training_set = stock_sets[kernel]
        assert training_set.n_examples == {"spmspm": 1728, "spmspv": 864}[kernel]
        assert _training_set_digest(training_set) == EXPECTED[f"ts_{kernel}"]

    @pytest.mark.parametrize("kernel", ["spmspm", "spmspv"])
    def test_train_command_model_json(self, tmp_path, kernel, capsys):
        out = tmp_path / "model.json"
        clear_model_cache()
        assert main(["train", "--kernel", kernel, "--out", str(out)]) == 0
        capsys.readouterr()
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == EXPECTED[f"model_{kernel}"]

    def test_table3_traces_and_conversions(self):
        rng = np.random.default_rng(0)
        traces, conversions = [], []
        for dim in (256, 1024, 4096):
            for density in (0.002, 0.01, 0.05):
                seed = int(rng.integers(0, 2**31 - 1))
                matrix = generators.uniform_random(dim, dim, density, seed)
                vector = generators.random_vector(dim, 0.5, seed + 1)
                csc = matrix.to_csc()
                conversions += [
                    _compressed_digest(csc),
                    _compressed_digest(matrix.to_csr()),
                    _compressed_digest(matrix.transpose().to_csr()),
                ]
                traces.append(_trace_digest(trace_spmspv(csc, vector)))
        assert _digest(traces) == EXPECTED["trace_table3"]
        assert _digest(conversions) == EXPECTED["conv_table3"]

    def test_suite_matrices_traces_and_conversions(self):
        traces, conversions, matrices = [], [], []
        for matrix_id in SUITE_IDS:
            matrix = suite.load(matrix_id, 0.2)
            matrices.append(_digest(matrix.rows, matrix.cols, matrix.vals))
            csc = matrix.to_csc()
            conversions += [
                _compressed_digest(csc),
                _compressed_digest(matrix.to_csr()),
            ]
            vector = generators.random_vector(matrix.shape[1], 0.5, 7)
            traces.append(_trace_digest(trace_spmspv(csc, vector)))
        assert _digest(matrices) == EXPECTED["suite_coo"]
        assert _digest(conversions) == EXPECTED["conv_suite"]
        assert _digest(traces) == EXPECTED["trace_suite"]

    def test_rmat(self):
        arrays = []
        for n, nnz, seed in (
            (64, 300, 1),
            (100, 900, 2),
            (1024, 5000, 3),
            (7, 49, 4),
            (8, 64, 5),
            (1, 1, 6),
            (300, 20000, 7),
        ):
            matrix = generators.rmat(n, nnz, seed=seed)
            arrays.append(
                _digest(matrix.rows, matrix.cols, matrix.vals, matrix.shape)
            )
        assert _digest(arrays) == EXPECTED["rmat"]

    def test_rmat_other_probabilities(self):
        # Includes a zero-probability quadrant between non-zero ones.
        arrays = []
        for n, nnz, a, b, c, seed in (
            (64, 500, 0.25, 0.25, 0.25, 8),
            (128, 900, 0.5, 0.0, 0.2, 9),
            (200, 3000, 0.45, 0.15, 0.15, 10),
        ):
            matrix = generators.rmat(n, nnz, a=a, b=b, c=c, seed=seed)
            arrays.append(
                _digest(matrix.rows, matrix.cols, matrix.vals, matrix.shape)
            )
        assert _digest(arrays) == EXPECTED["rmat_probabilities"]

    def test_duplicate_coordinates(self):
        matrix = _duplicate_coo()
        assert _digest(
            _compressed_digest(matrix.to_csc()),
            _compressed_digest(matrix.to_csr()),
        ) == EXPECTED["duplicates"]

    def test_edge_shapes(self):
        parts = []
        for shape in ((0, 3), (3, 0), (0, 0), (1, 1)):
            empty = COOMatrix.empty(shape)
            parts.append(
                (
                    _compressed_digest(empty.to_csc()),
                    _compressed_digest(empty.to_csr()),
                    _digest(empty.sum_duplicates().rows),
                )
            )
        cancelling = COOMatrix([0, 0, 0], [0, 0, 0], [1.0, -1.0, 0.5], (1, 1))
        parts.append(
            (
                _compressed_digest(cancelling.to_csc()),
                _compressed_digest(cancelling.to_csr()),
            )
        )
        merged = _duplicate_coo().sum_duplicates()
        parts.append(_digest(merged.rows, merged.cols, merged.vals))
        symmetric = suite.load("R10", 0.1)
        parts.append(_digest(symmetric.rows, symmetric.cols, symmetric.vals))
        assert _digest(parts) == EXPECTED["edge_shapes"]

    def test_diagonal_local(self):
        # R06/R09 are the suite's diagonal_local matrices; the direct
        # calls add a wide spread (many rejected columns) and a request
        # that needs several rounds of draws to fill.
        arrays = []
        for matrix_id in ("R06", "R09"):
            matrix = suite.load(matrix_id, 0.3)
            arrays.append(
                _digest(matrix.rows, matrix.cols, matrix.vals, matrix.shape)
            )
        for n, nnz, spread, seed in ((300, 4000, 0.2, 3), (97, 2500, 0.01, 11)):
            matrix = generators.diagonal_local(n, nnz, spread=spread, seed=seed)
            arrays.append(
                _digest(matrix.rows, matrix.cols, matrix.vals, matrix.shape)
            )
        assert _digest(arrays) == EXPECTED["diagonal_local"]
