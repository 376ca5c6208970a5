from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from arxmatch import _kernels, forest
from arxmatch.candidates import build_index
from arxmatch.forest import (
    FEATURE_NAMES,
    MAX_TABLE_ENTRIES,
    ForestModel,
    ModelFormatError,
    TrainingError,
    bootstrap_training_set,
    load_model,
    predict_many,
    save_model,
    table_entries,
    train_forest,
    training_pairs_from,
)

from conftest import make_preprint, make_published, store_with


def tp(t, a, b, label):
    """One training pair: its (title, authors, abstract) vector and label."""
    return (t, a, b), label


def arrays(data) -> tuple[np.ndarray, np.ndarray]:
    """The (x, labels) arrays train_forest takes, from a list of tp pairs."""
    x = np.array([v for v, _ in data], dtype=np.float64).reshape(-1, 3)
    return x, np.array([label for _, label in data], dtype=bool)


def gini_split_oracle(x: np.ndarray, labels, weights):
    """Exhaustive search: every feature, every midpoint between distinct values."""
    total_pos = sum(w for w, y in zip(weights, labels) if y)
    total_neg = sum(w for w, y in zip(weights, labels) if not y)
    n_total = total_pos + total_neg
    best = (-1, 0.0, float("inf"))
    for f in range(x.shape[1]):
        vals = sorted(set(x[:, f]))
        for lo, hi in zip(vals, vals[1:]):
            t = (lo + hi) / 2.0
            pl = sum(w for w, y, v in zip(weights, labels, x[:, f]) if y and v <= t)
            nl = sum(w for w, y, v in zip(weights, labels, x[:, f]) if not y and v <= t)
            n_left = pl + nl
            n_right = n_total - n_left
            if n_left == 0 or n_right == 0:
                continue
            gl = 1.0 - (pl / n_left) ** 2 - (nl / n_left) ** 2
            pr = total_pos - pl
            nr = total_neg - nl
            gr = 1.0 - (pr / n_right) ** 2 - (nr / n_right) ** 2
            cost = (n_left * gl + n_right * gr) / n_total
            if cost < best[2]:
                best = (f, t, cost)
    return best


GRID = np.linspace(0.0, 1.0, 9)  # shared by rows and thresholds: exact ties
# rows on the grid, between its points, outside it, -0.0 (ties 0.0) and NaN
ROW_VALUES = st.sampled_from([*GRID.tolist(), -0.0, 0.3, 0.9, -1.0, 2.0, float("nan")])


def random_tree(rng, depth: int, features=(0, 1, 2)) -> list[dict]:
    """Node dicts in pre-order, thresholds on GRID or -0.0, so one path
    often splits one feature again, the same way or the opposite one."""
    nodes: list[dict] = []

    def node(d):
        i = len(nodes)
        nodes.append({"leaf": float(rng.random())})
        if d > 0 and rng.random() < 0.8:
            f = int(rng.choice(features))
            thr = float(rng.choice([*GRID, -0.0]))
            left, right = node(d - 1), node(d - 1)
            nodes[i] = {"feature": f, "threshold": thr, "left": left, "right": right}
        return i

    node(depth)
    return nodes


def contradictory_tree(f: int) -> list[dict]:
    """Splits on f whose repeats leave one child of each inner node below
    the root unreachable (the leaves 0.125 and 0.0625 and node 7)."""
    return [
        {"feature": f, "threshold": 0.5, "left": 1, "right": 4},
        {"feature": f, "threshold": 0.75, "left": 2, "right": 3},
        {"leaf": 0.25}, {"leaf": 0.125},
        {"feature": f, "threshold": 0.25, "left": 5, "right": 6},
        {"leaf": 0.0625},
        {"feature": f, "threshold": 0.5, "left": 7, "right": 8},
        {"leaf": 1.0}, {"leaf": 0.75},
    ]


def walk_oracle(trees: list[list[dict]], x: np.ndarray) -> np.ndarray:
    """Each row walked down every tree from its root, the leaf values
    summed tree by tree in root order."""
    want = []
    for row in x:
        acc = 0.0
        for nodes in trees:
            i = 0
            while "leaf" not in nodes[i]:
                node = nodes[i]
                i = node["left"] if row[node["feature"]] <= node["threshold"] \
                    else node["right"]
            acc += nodes[i]["leaf"]
        want.append(acc / len(trees))
    return np.array(want, dtype=np.float64)


def forest_of(trees: list[list[dict]]) -> ForestModel:
    return ForestModel(trees=trees, n_trees=len(trees), max_depth=6, seed=0)


def stump_payload() -> dict:
    """A valid one-tree model file's contents: one split and two leaves."""
    return {"schema_version": 1, "n_trees": 1, "max_depth": 1, "seed": 0,
            "decision_threshold": 0.5, "feature_names": list(FEATURE_NAMES),
            "trees": [[{"feature": 0, "threshold": 0.5, "left": 1, "right": 2},
                       {"leaf": 1.0}, {"leaf": 0.0}]]}


def wide_tree(per_feature: int) -> list[dict]:
    """A chain of splits with per_feature distinct thresholds on each
    feature, so its grid has (per_feature + 1) ** 3 cells."""
    nodes: list[dict] = []
    for k in range(3 * per_feature):
        i = len(nodes)
        nodes.append({"feature": k % 3, "threshold": (k // 3 + 1) / (per_feature + 1),
                      "left": i + 1, "right": i + 2})
        nodes.append({"leaf": 0.5})
    nodes.append({"leaf": 0.5})
    return nodes


STUMP_DATA = arrays([
    tp(0.1, 0.5, 0.5, True),
    tp(0.2, 0.5, 0.5, True),
    tp(0.7, 0.5, 0.5, False),
    tp(0.9, 0.5, 0.5, False),
])

# (field, value) pairs that load_model refuses in a model file
BAD_SCALARS = [
    ("decision_threshold", float("nan")),
    ("decision_threshold", 5.0),
    ("decision_threshold", 0.0),
    ("decision_threshold", "0.5"),
    ("seed", "s"),
    ("seed", 1.5),
    ("n_trees", True),
    ("max_depth", 0),
    ("max_depth", 2.0),
    ("feature_names", 5),
    ("feature_names", ["abstract_d", "author_d", "title_d"]),
    pytest.param("decision_threshold", 10**400, id="decision_threshold-10**400"),
]


class TestSplitSearch:
    def test_stump_on_separable_data(self):
        model = train_forest(*STUMP_DATA, n_trees=1, max_depth=1, seed=0)
        root = model.trees[0][0]
        assert root["feature"] == 0
        assert 0.2 < root["threshold"] < 0.7
        left = model.trees[0][root["left"]]
        right = model.trees[0][root["right"]]
        assert left["leaf"] == 1.0 and right["leaf"] == 0.0

    def test_kernel_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(21)
        feats = np.array([0, 1, 2], dtype=np.int64)
        for _ in range(300):
            n = int(rng.integers(2, 51))
            x = np.round(rng.random((n, 3)), 3)
            labels = rng.integers(0, 2, n).astype(bool)
            weights = rng.integers(1, 5, n).astype(np.float64)
            pos_w = np.where(labels, weights, 0.0)
            neg_w = np.where(labels, 0.0, weights)
            got = _kernels.best_split(x, pos_w, neg_w, feats)
            want = gini_split_oracle(x, labels, weights)
            assert int(got[0]) == want[0]
            if want[0] >= 0:
                assert float(got[1]) == want[1]
                assert float(got[2]) == want[2]


class TestTrainForest:
    def test_duplicated_dataset_identical_model(self, tmp_path):
        rng = np.random.default_rng(22)
        data = [tp(rng.random() * 0.4, rng.random() * 0.4, rng.random(), True)
                for _ in range(30)]
        data += [tp(0.5 + rng.random() * 0.5, 0.5 + rng.random() * 0.5,
                    rng.random(), False) for _ in range(30)]
        m1 = train_forest(*arrays(data), n_trees=20, max_depth=4, seed=5)
        m2 = train_forest(*arrays(data + data), n_trees=20, max_depth=4, seed=5)
        save_model(m1, tmp_path / "m1.json")
        save_model(m2, tmp_path / "m2.json")
        assert (tmp_path / "m1.json").read_bytes() == \
            (tmp_path / "m2.json").read_bytes()
        grid = np.random.default_rng(23).random((1000, 3))
        assert np.array_equal(predict_many(m1, grid), predict_many(m2, grid))

    def test_order_invariance(self):
        rng = np.random.default_rng(24)
        data = [tp(rng.random(), rng.random(), rng.random(), bool(i % 2))
                for i in range(40)]
        shuffled = [data[i] for i in rng.permutation(len(data))]
        m1 = train_forest(*arrays(data), n_trees=5, max_depth=3, seed=1)
        m2 = train_forest(*arrays(shuffled), n_trees=5, max_depth=3, seed=1)
        assert m1.trees == m2.trees

    def test_seed_changes_accuracy_stays_close(self):
        rng = np.random.default_rng(25)
        data = []
        for _ in range(150):
            data.append(tp(rng.random() * 0.35, rng.random() * 0.35,
                           rng.random() * 0.5, True))
            data.append(tp(0.45 + rng.random() * 0.55, 0.5 + rng.random() * 0.5,
                           0.4 + rng.random() * 0.6, False))
        x, y = arrays(data)
        accs = []
        for seed in (1, 2, 3, 4, 5):
            m = train_forest(x, y, n_trees=30, max_depth=5, seed=seed)
            accs.append(np.mean((predict_many(m, x) >= 0.5) == y))
        assert max(accs) - min(accs) <= 0.02

    def test_byte_identical_retrain(self, tmp_path):
        m1 = train_forest(*STUMP_DATA, n_trees=7, max_depth=3, seed=9)
        m2 = train_forest(*(a.copy() for a in STUMP_DATA), n_trees=7, max_depth=3, seed=9)
        save_model(m1, tmp_path / "a.json")
        save_model(m2, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_errors(self):
        with pytest.raises(TrainingError):
            train_forest(*arrays([]), n_trees=1, max_depth=1, seed=0)
        with pytest.raises(TrainingError):
            train_forest(*arrays([tp(0.1, 0.1, 0.1, True)]), n_trees=1, max_depth=1,
                         seed=0)
        with pytest.raises(TrainingError):
            train_forest(*STUMP_DATA, n_trees=0, max_depth=1, seed=0)
        with pytest.raises(TrainingError):
            train_forest(*STUMP_DATA, n_trees=1, max_depth=0, seed=0)
        with pytest.raises(TrainingError):
            train_forest(*STUMP_DATA, n_trees=1, max_depth=1, seed=0,
                         decision_threshold=1.5)

    # train_forest stores int(seed) and takes no feature names, so the seed
    # and feature_names cases do not apply
    @pytest.mark.parametrize("name, value", [
        case for case in BAD_SCALARS
        if getattr(case, "values", case)[0] not in ("seed", "feature_names")
    ] + [("n_trees", 2.0)])
    def test_refuses_what_load_model_refuses(self, name, value):
        with pytest.raises(TrainingError, match=name):
            train_forest(*STUMP_DATA, **{"n_trees": 1, "max_depth": 2, "seed": 1,
                                         name: value})


class TestPredict:
    def test_fixture_extremes(self, corpus_model):
        assert predict_many(corpus_model, np.array([[0.0, 0.0, 0.0]]))[0] > 0.9
        assert predict_many(corpus_model, np.array([[1.0, 1.0, 1.0]]))[0] < 0.1

    def test_single_tree_equals_leaf_probability(self):
        model = train_forest(*STUMP_DATA, n_trees=1, max_depth=2, seed=3)

        def walk(v):
            nodes = model.trees[0]
            i = 0
            while "leaf" not in nodes[i]:
                node = nodes[i]
                i = node["left"] if v[node["feature"]] <= node["threshold"] \
                    else node["right"]
            return nodes[i]["leaf"]

        rng = np.random.default_rng(26)
        for _ in range(100):
            v = rng.random(3)
            assert predict_many(model, np.array([v]))[0] == walk(v)

    @pytest.mark.parametrize("n_trees, n_rows, seed", [
        (1, 1, 40), (1, 30, 41), (100, 1, 42), (100, 30, 43),
        (7, 5, 44), (25, 12, 45), (60, 2, 46), (100, 4096, 47),
    ])
    def test_forest_eval_bit_exact_vs_per_tree_walk(self, n_trees, n_rows, seed):
        rng = np.random.default_rng(seed)
        trees = [random_tree(rng, 0 if t == 0 else int(rng.integers(0, 7)))
                 for t in range(n_trees)]
        assert set(trees[0][0]) == {"leaf"}  # the first tree is a bare leaf
        x = rng.choice(GRID, size=(n_rows, 3))
        assert np.array_equal(predict_many(forest_of(trees), x), walk_oracle(trees, x))

    def test_chunk_call_memory_does_not_grow_with_the_trees(self, corpus_model):
        # a chunk's call holds O(rows) arrays, never one per (tree, row)
        assert corpus_model.n_trees == 100
        corpus_model.packed()  # the table is built once per model, not per call
        x = np.random.default_rng(48).random((4096, 3))
        tracemalloc.start()
        try:
            predict_many(corpus_model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @settings(max_examples=200, deadline=None)
    @given(n_trees=st.integers(1, 100), seed=st.integers(0, 2**32 - 1),
           unused=st.sampled_from([None, 0, 1, 2]),
           rows=st.lists(st.tuples(ROW_VALUES, ROW_VALUES, ROW_VALUES), max_size=30),
           slots=st.tuples(st.integers(0, 101), st.integers(0, 101)))
    def test_property_table_lookup_matches_walk(self, n_trees, seed, unused, rows, slots):
        rng = np.random.default_rng(seed)
        features = [f for f in range(3) if f != unused]
        trees = [random_tree(rng, int(rng.integers(0, 7)), features)
                 for _ in range(n_trees)]
        trees.insert(slots[0] % (len(trees) + 1), [{"leaf": float(rng.random())}])
        trees.insert(slots[1] % (len(trees) + 1), contradictory_tree(features[-1]))
        x = np.array(rows, dtype=np.float64).reshape(-1, 3)
        model = forest_of(trees)
        assert np.array_equal(predict_many(model, x), walk_oracle(trees, x))
        assert table_entries(trees) == sum(a.size for a in model.packed()[3:])

    def test_forest_within_tree_range(self):
        rng = np.random.default_rng(27)
        data = [tp(rng.random(), rng.random(), rng.random(), bool(i % 2))
                for i in range(60)]
        model = train_forest(*arrays(data), n_trees=15, max_depth=4, seed=4)
        for _ in range(100):
            v = rng.random(3)
            per_tree = [
                predict_many(ForestModel(trees=[t], n_trees=1, max_depth=4, seed=0),
                             np.array([v]))[0]
                for t in model.trees
            ]
            p = predict_many(model, np.array([v]))[0]
            assert min(per_tree) - 1e-12 <= p <= max(per_tree) + 1e-12

    def test_monotone_sweeps(self, corpus_model):
        rng = np.random.default_rng(28)
        ok = total = 0
        for _ in range(300):
            base = rng.random(3)
            f = int(rng.integers(0, 3))
            hi = list(base)
            hi[f] = base[f] + (1.0 - base[f]) * rng.random()
            lo_p = predict_many(corpus_model, np.array([base]))[0]
            hi_p = predict_many(corpus_model, np.array([hi]))[0]
            total += 1
            ok += hi_p <= lo_p + 1e-12
        assert ok / total >= 0.95


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def tree_payloads(draw):
    """A walkable node list; one time in four a node is replaced by any JSON."""
    size = draw(st.integers(1, 5))
    nodes = []
    for i in range(size):
        if i == size - 1 or draw(st.booleans()):
            nodes.append({"leaf": draw(st.floats(0.0, 1.0))})
        else:
            nodes.append({"feature": draw(st.integers(0, 2)),
                          "threshold": draw(st.floats(0.0, 1.0)),
                          "left": draw(st.integers(i + 1, size - 1)),
                          "right": draw(st.integers(i + 1, size - 1))})
    if draw(st.integers(0, 3)) == 0:
        nodes[draw(st.integers(0, size - 1))] = draw(json_values)
    return nodes


@st.composite
def model_payloads(draw):
    """A well-formed model with up to two fields replaced or dropped."""
    n_trees = draw(st.integers(1, 3))
    payload = {"schema_version": 1, "n_trees": n_trees,
               "max_depth": draw(st.integers(1, 4)), "seed": draw(st.integers()),
               "decision_threshold": draw(st.floats(0.01, 0.99)),
               "feature_names": list(FEATURE_NAMES),
               "trees": [draw(tree_payloads()) for _ in range(n_trees)]}
    for key in draw(st.sets(st.sampled_from(sorted(payload)), max_size=2)):
        if draw(st.booleans()):
            payload[key] = draw(json_values)
        else:
            del payload[key]
    return payload


class TestSerialization:
    def test_roundtrip_identical_predictions(self, tmp_path):
        model = train_forest(*STUMP_DATA, n_trees=10, max_depth=3, seed=11)
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert loaded.decision_threshold == model.decision_threshold
        vectors = np.random.default_rng(29).random((1000, 3))
        assert np.array_equal(predict_many(model, vectors),
                              predict_many(loaded, vectors))

    def test_truncated_file(self, tmp_path):
        model = train_forest(*STUMP_DATA, n_trees=2, max_depth=2, seed=1)
        save_model(model, tmp_path / "m.json")
        raw = (tmp_path / "m.json").read_bytes()
        (tmp_path / "broken.json").write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "broken.json")

    def test_unknown_schema_version(self, tmp_path):
        model = train_forest(*STUMP_DATA, n_trees=2, max_depth=2, seed=1)
        save_model(model, tmp_path / "m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        payload["schema_version"] = 99
        (tmp_path / "m99.json").write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="schema version"):
            load_model(tmp_path / "m99.json")

    @pytest.mark.parametrize("nodes", [
        [],
        [{"feature": 0, "threshold": 0.5, "left": 0, "right": 0}],  # self loop
        [{"leaf": 1.0}, {"feature": 0, "threshold": 0.5, "left": 0, "right": 0}],
        [{"feature": 0, "threshold": 0.5, "left": 1, "right": 3},
         {"leaf": 1.0}, {"leaf": 0.0}],
        [{"feature": 3, "threshold": 0.5, "left": 1, "right": 2},
         {"leaf": 1.0}, {"leaf": 0.0}],
        [{"feature": 0, "threshold": float("nan"), "left": 1, "right": 2},
         {"leaf": 1.0}, {"leaf": 0.0}],
        [{"feature": 0, "left": 1, "right": 2}, {"leaf": 1.0}, {"leaf": 0.0}],
        [{"leaf": 1.5}],
        [[0.5]],
        # integers beyond the float range
        [{"feature": 0, "threshold": 10**400, "left": 1, "right": 2},
         {"leaf": 1.0}, {"leaf": 0.0}],
        [{"leaf": 10**400}],
    ])
    def test_malformed_tree(self, tmp_path, nodes):
        model = train_forest(*STUMP_DATA, n_trees=1, max_depth=2, seed=1)
        save_model(model, tmp_path / "m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        payload["trees"] = [nodes]
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="tree 0"):
            load_model(tmp_path / "bad.json")

    @pytest.mark.parametrize("name, value", BAD_SCALARS)
    def test_bad_scalar_field(self, tmp_path, name, value):
        model = train_forest(*STUMP_DATA, n_trees=1, max_depth=2, seed=1)
        save_model(model, tmp_path / "m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        payload[name] = value
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match=name):
            load_model(tmp_path / "bad.json")

    @pytest.mark.parametrize("version", [True, 1.0])  # both == 1 in Python
    def test_schema_version_not_an_int(self, tmp_path, version):
        model = train_forest(*STUMP_DATA, n_trees=1, max_depth=2, seed=1)
        save_model(model, tmp_path / "m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        payload["schema_version"] = version
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="schema version"):
            load_model(tmp_path / "bad.json")

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=model_payloads() | json_values,
           vector=st.tuples(*[st.floats(0.0, 1.0)] * 3))
    @example(payload={"schema_version": 1, "n_trees": 0, "max_depth": 1, "seed": 0,
                      "decision_threshold": 0.5, "trees": []},
             vector=(0.5, 0.5, 0.5))  # no trees: the mean leaf value is NaN
    def test_random_payload_rejected_or_predicts(self, tmp_path, payload, vector):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(payload))
        try:
            model = load_model(path)
        except ModelFormatError:
            return
        assert 0.0 <= predict_many(model, np.array([vector]))[0] <= 1.0

    def test_not_a_model(self, tmp_path):
        (tmp_path / "x.json").write_text("[1, 2, 3]")
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "x.json")

    def test_nested_past_the_recursion_limit(self, tmp_path):
        (tmp_path / "deep.json").write_text("[" * 100_000)
        with pytest.raises(ModelFormatError, match="unreadable model file .*deep.json"):
            load_model(tmp_path / "deep.json")

    def test_integer_past_the_digit_limit(self, tmp_path):
        text = json.dumps(stump_payload()).replace('"seed": 0', '"seed": 1' + "9" * 5000)
        (tmp_path / "long.json").write_text(text)
        with pytest.raises(ModelFormatError,
                           match="unreadable model file .*long.json: Exceeds the limit"):
            load_model(tmp_path / "long.json")

    def test_integer_thresholds_predict_as_the_walk(self, tmp_path):
        # integers a float64 cannot hold exactly: each split is tabulated at
        # the float its threshold converts to, as the edges are
        payload = stump_payload()
        payload["trees"] = [[{"feature": f, "threshold": thr, "left": 1, "right": 2},
                             {"leaf": 1.0}, {"leaf": 0.0}]
                            for f, thr in ((0, -10**300), (1, 2**53 + 1), (2, 10**300))]
        payload["n_trees"] = 3
        (tmp_path / "ints.json").write_text(json.dumps(payload))
        model = load_model(tmp_path / "ints.json")
        x = np.array([[0.5, 0.5, 0.5], [-1e301, 2.0**53, 1e301],
                      [0.5, 2.0**53 + 2, 0.5], [-1e300, -1.0, 1e300]])
        assert np.array_equal(predict_many(model, x), walk_oracle(payload["trees"], x))


class TestTableBound:
    """A model whose lookup table would exceed MAX_TABLE_ENTRIES is refused
    before the table is built."""

    def test_entries_count_cells_and_index(self):
        assert table_entries([wide_tree(4)]) == 5**3 + 3 * 5
        assert table_entries([wide_tree(4), [{"leaf": 0.5}]]) == 5**3 + 1 + 2 * 3 * 5

    def test_model_file_over_the_bound(self, tmp_path):
        payload = {"schema_version": 1, "n_trees": 1, "max_depth": 400, "seed": 0,
                   "decision_threshold": 0.5, "feature_names": list(FEATURE_NAMES),
                   "trees": [wide_tree(130)]}
        assert table_entries(payload["trees"]) == 131**3 + 3 * 131 > MAX_TABLE_ENTRIES
        (tmp_path / "wide.json").write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="lookup table of 2,248,484 entries"):
            load_model(tmp_path / "wide.json")
        payload["trees"] = [wide_tree(126)]  # 127**3 + 3 * 127 entries
        (tmp_path / "ok.json").write_text(json.dumps(payload))
        assert load_model(tmp_path / "ok.json").trees == payload["trees"]

    def test_training_over_the_bound(self, monkeypatch):
        rng = np.random.default_rng(47)
        data = arrays([tp(*rng.random(3), bool(rng.random() < 0.5)) for _ in range(200)])
        model = train_forest(*data, n_trees=3, max_depth=10, seed=2)
        entries = table_entries(model.trees)
        assert entries > 1000  # noisy labels make wide trees
        monkeypatch.setattr(forest, "MAX_TABLE_ENTRIES", entries)
        assert train_forest(*data, n_trees=3, max_depth=10, seed=2).trees == model.trees
        monkeypatch.setattr(forest, "MAX_TABLE_ENTRIES", entries - 1)
        with pytest.raises(TrainingError, match="exceeds the limit"):
            train_forest(*data, n_trees=3, max_depth=10, seed=2)


class TestBootstrapTrainingSet:
    def _paired_store(self):
        shared_words = "On the spectral gap of expander graphs"
        preprint = make_preprint(title=shared_words, authors=("Jane Doe",),
                                 doi="10.1/a")
        published = [
            make_published(accession="zbl1", title=shared_words,
                           authors=("Jane Doe",), doi="10.1/a"),
            make_published(accession="zbl2", title="On the spectral theory",
                           authors=("Al Smith",)),
            make_published(accession="zbl3", title="Expander graphs survey",
                           authors=("Bo Chan",)),
            make_published(accession="zbl4", title="The gap lemma",
                           authors=("Cy Deng",)),
        ]
        return store_with([preprint], published)

    def test_counts_one_pos_two_neg(self):
        store = self._paired_store()
        index = build_index(store)
        x, labels = bootstrap_training_set(store, index, neg_per_pos=2)
        # the positive first, then its preprint's negatives
        assert labels.tolist() == [True, False, False]
        assert x.shape == (3, 3) and x.dtype == np.float64
        assert x[0].tolist() == [0.0, 0.0, 0.0]

    def test_no_pairs_gives_empty_arrays(self):
        store = self._paired_store()
        x, labels = training_pairs_from(store, build_index(store), [], 3)
        assert x.shape == (0, 3) and x.dtype == np.float64
        assert labels.shape == (0,) and labels.dtype == bool
        with pytest.raises(TrainingError, match="empty training set"):
            train_forest(x, labels)

    def test_only_candidate_is_doi_match(self):
        preprint = make_preprint(title="Unique words nobody shares",
                                 authors=("Jane Doe",), doi="10.1/a")
        published = [
            make_published(accession="zbl1", title="Unique words nobody shares",
                           authors=("Jane Doe",), doi="10.1/a"),
            make_published(accession="zbl2", title="Different planet entirely",
                           authors=("Al Smith",)),
        ]
        store = store_with([preprint], published)
        _, labels = bootstrap_training_set(store, build_index(store), neg_per_pos=3)
        assert labels.tolist() == [True]

    def test_two_preprints_sharing_doi_both_positive(self):
        preprints = [
            make_preprint(pid="2301.00001", title="Part one of the book",
                          authors=("Jane Doe",), doi="10.1/book"),
            make_preprint(pid="2301.00002", title="Part two of the book",
                          authors=("Jane Doe",), doi="10.1/book"),
        ]
        published = [make_published(accession="zbl1", title="The whole book",
                                    authors=("Jane Doe",), doi="10.1/book",
                                    document_type="book")]
        store = store_with(preprints, published)
        _, labels = bootstrap_training_set(store, build_index(store), neg_per_pos=2)
        assert labels.sum() == 2

    def test_no_training_signal(self):
        store = store_with([make_preprint()], [make_published()])
        with pytest.raises(TrainingError, match="no training signal"):
            bootstrap_training_set(store, build_index(store))

    def test_multi_hit_doi_not_a_pair(self):
        preprint = make_preprint(doi="10.1/a")
        published = [make_published(accession="zbl1", doi="10.1/a"),
                     make_published(accession="zbl2", doi="10.1/a")]
        store = store_with([preprint], published)
        with pytest.raises(TrainingError):
            bootstrap_training_set(store, build_index(store))
