"""Forest training: RNG, Gini splits, policies, metrics, serialization."""

import copy
import json
import random
from pathlib import Path

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from websift.features import FEATURE_ORDER
from websift.forest import (
    BENIGN,
    MALICIOUS,
    ConfusionMatrix,
    ForestConfig,
    ModelFormatError,
    ForestModel,
    Xorshift64Star,
    best_split,
    evaluate,
    gini,
    load_model,
    metric_table,
    metrics_exact,
    model_from_doc,
    model_to_doc,
    predict,
    save_model,
    split_dataset,
    splitmix64,
    train_forest,
    truncate4,
)


# --- RNG ---

def test_splitmix64_known_answer():
    # canonical first output of the splitmix64 stream seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_splitmix64_stays_in_64_bits():
    for seed in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
        assert 0 <= splitmix64(seed) < 2**64


def test_xorshift_determinism():
    a = Xorshift64Star(42)
    b = Xorshift64Star(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    c = Xorshift64Star(43)
    assert a.next_u64() != c.next_u64()


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=1, max_value=1000))
def test_randrange_bounds(seed, n):
    rng = Xorshift64Star(seed)
    for _ in range(5):
        assert 0 <= rng.randrange(n) < n


def test_randrange_guards():
    rng = Xorshift64Star(1)
    assert rng.randrange(1) == 0
    with pytest.raises(ValueError):
        rng.randrange(0)


@given(st.integers(min_value=0, max_value=2**32),
       st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=35))
def test_sample_indices_distinct_and_in_range(seed, n, k):
    got = Xorshift64Star(seed).sample_indices(n, k)
    assert len(got) == min(k, n)
    assert len(set(got)) == len(got)
    assert all(0 <= i < n for i in got)


def test_sample_indices_full_draw_is_a_permutation():
    got = Xorshift64Star(9).sample_indices(8, 8)
    assert sorted(got) == list(range(8))


# --- gini ---

def test_gini_examples():
    assert gini([1, 3]) == 0.375
    assert gini([3, 1]) == 0.375
    assert gini([2, 2]) == 0.5
    assert gini([0, 5]) == 0.0
    assert gini([10, 10]) == 0.5  # weighting both sides equally changes nothing


def test_gini_rejects_zero_total():
    with pytest.raises(ValueError):
        gini([0, 0])
    with pytest.raises(ValueError):
        gini([])


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=2))
def test_gini_bounds(counts):
    if sum(counts) == 0:
        return
    g = gini(counts)
    assert 0.0 <= g <= 0.5


# --- best_split against a brute-force oracle ---

def oracle_best_split(rows, labels, weights, indices, feature_ids):
    def wcounts(idxs):
        c = [0.0, 0.0]
        for i in idxs:
            c[labels[i]] += weights[i]
        return c

    parent = wcounts(indices)
    if min(parent) == 0.0 or len(indices) < 2:
        return None
    total = sum(parent)
    parent_imp = gini(parent)
    best_key = None
    best_child = None
    for f in feature_ids:
        values = sorted({rows[i][f] for i in indices})
        for a, b in zip(values, values[1:]):
            t = (a + b) / 2.0
            if not (a <= t < b):
                continue
            left = wcounts([i for i in indices if rows[i][f] <= t])
            right = wcounts([i for i in indices if rows[i][f] > t])
            wl, wr = sum(left), sum(right)
            if wl <= 0 or wr <= 0:
                continue
            child = (wl * gini(left) + wr * gini(right)) / total
            key = (round(child, 12), f, t)
            if best_key is None or key < best_key:
                best_key, best_child = key, child
    if best_key is None or best_child >= parent_imp - 1e-12:
        return None
    return best_key[1], best_key[2]


def test_best_split_separable_1d():
    rows = [[0.0], [1.0]]
    assert best_split(rows, [0, 1], [1.0, 10.0], [0, 1], [0]) == (0, 0.5)


def test_best_split_constant_feature_gives_none():
    rows = [[3.0], [3.0], [3.0]]
    assert best_split(rows, [0, 1, 0], [1.0, 10.0, 1.0], [0, 1, 2], [0]) is None


def test_best_split_pure_node_gives_none():
    rows = [[0.0], [1.0]]
    assert best_split(rows, [1, 1], [10.0, 10.0], [0, 1], [0]) is None


def test_best_split_prefers_lower_feature_on_ties():
    # two identical columns: the tie-break must pick feature 0
    rows = [[0.0, 0.0], [1.0, 1.0]]
    assert best_split(rows, [0, 1], [1.0, 10.0], [0, 1], [1, 0]) == (0, 0.5)


def test_best_split_matches_oracle_on_random_instances():
    rng = random.Random(7)
    for trial in range(200):
        n = rng.randint(2, 12)
        n_features = rng.randint(1, 4)
        rows = [[float(rng.randint(0, 5)) for _ in range(n_features)]
                for _ in range(n)]
        labels = [rng.randint(0, 1) for _ in range(n)]
        if rng.random() < 0.5:
            weights = [10.0 if y else 1.0 for y in labels]
        else:
            weights = [1.0] * n
        indices = sorted(rng.sample(range(n), rng.randint(2, n)))
        if rng.random() < 0.3:
            feature_ids = sorted(rng.sample(range(n_features),
                                            rng.randint(1, n_features)))
        else:
            feature_ids = list(range(n_features))
        got = best_split(rows, labels, weights, indices, feature_ids)
        want = oracle_best_split(rows, labels, weights, indices, feature_ids)
        assert got == want, (trial, rows, labels, weights, indices, feature_ids)


# --- training behaviour ---

def two_cluster_data(n_per_side=12, spread=3, seed=5):
    rng = random.Random(seed)
    rows, labels = [], []
    for _ in range(n_per_side):
        rows.append([float(rng.randint(0, spread)), float(rng.randint(0, 40))])
        labels.append(BENIGN)
        rows.append([float(rng.randint(spread + 4, spread + 8)),
                     float(rng.randint(0, 40))])
        labels.append(MALICIOUS)
    return rows, labels


def test_single_unbagged_tree_memorizes_consistent_data():
    rows, labels = two_cluster_data()
    model = train_forest(rows, labels,
                         ForestConfig(n_trees=1, bootstrap=False, seed=3))
    for row, label in zip(rows, labels):
        category, _ = predict(model, row)
        assert category == label


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                min_size=4, max_size=25, unique=True))
def test_memorization_property_on_unique_rows(points):
    rows = [[float(a), float(b)] for a, b in points]
    labels = [1 if a + b > 30 else 0 for a, b in points]
    if len(set(labels)) < 2:
        return
    model = train_forest(rows, labels,
                         ForestConfig(n_trees=1, bootstrap=False, seed=1))
    assert all(predict(model, r)[0] == y for r, y in zip(rows, labels))


def test_same_seed_same_model():
    rows, labels = two_cluster_data()
    a = train_forest(rows, labels, ForestConfig(n_trees=5, seed=11))
    b = train_forest(rows, labels, ForestConfig(n_trees=5, seed=11))
    assert model_to_doc(a) == model_to_doc(b)
    c = train_forest(rows, labels, ForestConfig(n_trees=5, seed=12))
    assert model_to_doc(a) != model_to_doc(c)


def test_tree_seeds_are_independent_of_forest_size():
    rows, labels = two_cluster_data()
    small = train_forest(rows, labels, ForestConfig(n_trees=1, seed=11))
    large = train_forest(rows, labels, ForestConfig(n_trees=4, seed=11))
    small_doc = model_to_doc(small)
    large_doc = model_to_doc(large)
    assert large_doc["trees"][0] == small_doc["trees"][0]


def test_degenerate_single_class_training_warns():
    rows = [[0.0], [1.0], [2.0]]
    with pytest.warns(UserWarning, match="single-category"):
        model = train_forest(rows, [0, 0, 0], ForestConfig(n_trees=2))
    assert model.degenerate
    assert predict(model, [5.0])[0] == BENIGN
    assert predict(model, [5.0])[1] == 0.0


def test_training_input_validation():
    with pytest.raises(ValueError):
        train_forest([], [])
    with pytest.raises(ValueError):
        train_forest([[1.0]], [0, 1])
    with pytest.raises(ValueError):
        train_forest([[1.0], [1.0, 2.0]], [0, 1])


def test_predict_checks_feature_count():
    rows, labels = two_cluster_data()
    model = train_forest(rows, labels, ForestConfig(n_trees=1))
    with pytest.raises(ValueError):
        predict(model, [1.0, 2.0, 3.0])


def test_prediction_tie_goes_to_benign():
    model = ForestModel(trees=[[(5.0, 5.0)]], config=ForestConfig(n_trees=1),
                        feature_count=1, feature_ledger="custom-1")
    assert predict(model, [0.0]) == (BENIGN, 0.5)


def test_leaf_votes_carry_class_weights():
    # one malicious row (weight 10) vs one benign row (weight 1)
    model = train_forest([[0.0], [1.0]], [0, 1],
                         ForestConfig(n_trees=1, bootstrap=False))
    category, score = predict(model, [1.0])
    assert category == MALICIOUS
    assert score == 1.0  # the reached leaf is pure malicious
    # preorder: the root split on feature 0 at 0.5, its left leaf, its right leaf
    assert model.trees[0] == [(0, 0.5, 2), (1.0, 0.0), (0.0, 10.0)]


# --- evaluation and metrics ---

def test_evaluate_confusion_counts():
    rows, labels = two_cluster_data()
    model = train_forest(rows, labels, ForestConfig(n_trees=3, seed=4))
    cm = evaluate(model, rows, labels)
    assert cm.total() == len(rows)
    assert cm.tp + cm.fn == labels.count(MALICIOUS)
    assert cm.tn + cm.fp == labels.count(BENIGN)


def test_confusion_matrix_rejects_negative_counts():
    with pytest.raises(ValueError):
        ConfusionMatrix(tp=-1)


def test_metrics_reference_ratios():
    cm = ConfusionMatrix(tp=8001, fp=13, tn=9979, fn=2091)
    e = metrics_exact(cm)
    assert e["malware"]["precision"] == Fraction(8001, 8014)
    assert e["malware"]["recall"] == Fraction(8001, 10092)
    assert e["benign"]["recall"] == Fraction(9979, 9992)
    assert e["malware"]["accuracy"] == Fraction(8001 + 9979, cm.total())


def test_metrics_handle_zero_denominators():
    cm = ConfusionMatrix(tp=0, fp=0, tn=5, fn=0)
    e = metrics_exact(cm)
    assert e["malware"]["precision"] is None
    assert e["malware"]["recall"] is None
    assert e["benign"]["recall"] == 1
    assert metric_table(cm)["malware"]["precision"] == "n/a"
    assert metrics_exact(ConfusionMatrix())["malware"]["accuracy"] is None


def test_truncate4_truncates_instead_of_rounding():
    assert truncate4(Fraction(8001, 8014)) == "0.9983"   # 0.99837...
    assert truncate4(Fraction(17988, 20092)) == "0.8952"  # 0.89527...
    assert truncate4(Fraction(99999, 100000)) == "0.9999"
    assert truncate4(Fraction(1, 2)) == "0.5000"
    assert truncate4(Fraction(1)) == "1.0000"
    assert truncate4(0.25) == "0.2500"
    assert truncate4(None) == "n/a"


def test_metric_table_renders_truncated_strings():
    cm = ConfusionMatrix(tp=8001, fp=13, tn=9979, fn=2091)
    table = metric_table(cm)
    assert table["malware"]["precision"] == "0.9983"
    assert table["malware"]["recall"] == "0.7928"  # 8001/10092 = 0.79280...
    assert table["benign"]["recall"] == "0.9986"   # 9979/9992  = 0.99869...


# --- split policies ---

def test_scaled_split_shape():
    labels = [MALICIOUS] * 40 + [BENIGN] * 60
    train, test = split_dataset(range(100), labels, policy="scaled", seed=1)
    assert sorted(train + test) == list(range(100))
    assert not set(train) & set(test)
    train_mal = sum(1 for i in train if labels[i] == MALICIOUS)
    train_ben = len(train) - train_mal
    assert train_mal == 20           # half the malicious
    assert train_ben == 30           # min(10*20, 60//2)
    test_mal = sum(1 for i in test if labels[i] == MALICIOUS)
    assert test_mal == 20


def test_scaled_split_benign_capped_at_ten_to_one():
    labels = [MALICIOUS] * 2 + [BENIGN] * 100
    train, test = split_dataset(range(102), labels, policy="scaled", seed=1)
    train_ben = sum(1 for i in train if labels[i] == BENIGN)
    assert train_ben == 10  # min(10 * 1, 50)
    assert sum(1 for i in train if labels[i] == MALICIOUS) == 1


def test_split_determinism_and_seed_sensitivity():
    labels = [MALICIOUS] * 10 + [BENIGN] * 30
    a = split_dataset(range(40), labels, seed=5)
    b = split_dataset(range(40), labels, seed=5)
    c = split_dataset(range(40), labels, seed=6)
    assert a == b
    assert a != c


def test_split_errors():
    with pytest.raises(ValueError):
        split_dataset(range(3), [0, 0, 0], policy="scaled")
    with pytest.raises(ValueError):
        split_dataset(range(2), [1, 0], policy="scaled")
    with pytest.raises(ValueError):
        split_dataset(range(4), [1, 1, 0, 0], policy="nonsense")
    with pytest.raises(ValueError) as exc:
        split_dataset(range(20), [1] * 10 + [0] * 10, policy="paper2017")
    assert "paper2017" in str(exc.value)


@given(st.integers(min_value=2, max_value=30),
       st.integers(min_value=4, max_value=60),
       st.integers(min_value=0, max_value=99))
def test_split_partition_property(n_mal, n_ben, seed):
    labels = [MALICIOUS] * n_mal + [BENIGN] * n_ben
    train, test = split_dataset(range(len(labels)), labels, seed=seed)
    assert sorted(train + test) == list(range(len(labels)))
    assert train == sorted(train) and test == sorted(test)
    assert not set(train) & set(test)
    assert any(labels[i] == MALICIOUS for i in train)
    assert test


# --- serialization ---

def test_model_round_trip_through_file(tmp_path):
    rows, labels = two_cluster_data()
    model = train_forest(rows, labels, ForestConfig(n_trees=3, seed=8))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert model_to_doc(loaded) == model_to_doc(model)
    for row in rows:
        assert predict(loaded, row) == predict(model, row)


def test_model_doc_round_trip_preserves_thresholds_exactly():
    rows, labels = two_cluster_data()
    model = train_forest(rows, labels, ForestConfig(n_trees=2, seed=3))
    doc = json.loads(json.dumps(model_to_doc(model)))
    loaded = model_from_doc(doc)
    assert model_to_doc(loaded) == model_to_doc(model)


def test_model_format_guards(tmp_path):
    rows, labels = two_cluster_data()
    model = train_forest(rows, labels, ForestConfig(n_trees=1))
    doc = model_to_doc(model)

    bad_format = dict(doc, format="other/9")
    with pytest.raises(ModelFormatError):
        model_from_doc(bad_format)

    # a full-width model must carry the current feature ledger
    mismatched = dict(doc, feature_count=len(FEATURE_ORDER),
                      feature_ledger="bogus")
    with pytest.raises(ModelFormatError):
        model_from_doc(mismatched)

    garbage = tmp_path / "model.json"
    garbage.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(garbage)

    # JSON that is not a model: not an object, a missing key, a child index
    # that loops or runs past the end, a feature index past feature_count,
    # no trees at all
    nodes = doc["trees"][0]
    assert "l" in nodes[0]

    def with_root(**fields):
        return dict(doc, trees=[[dict(nodes[0], **fields)] + nodes[1:]])

    for bad in ([1], {"format": doc["format"]}, with_root(l=0),
                with_root(l=len(nodes)), with_root(f=doc["feature_count"]),
                dict(doc, trees=[])):
        with pytest.raises(ModelFormatError):
            model_from_doc(bad)


def test_custom_width_models_use_custom_ledger():
    rows, labels = two_cluster_data()
    model = train_forest(rows, labels, ForestConfig(n_trees=1))
    assert model.feature_count == 2
    assert model.feature_ledger == "custom-2"


OLD_MODEL = Path(__file__).parent / "data" / "forest_model_with_training_digests.json"


def test_a_model_file_with_training_digests_still_loads(tmp_path):
    # written when every model still carried training_digests:
    # train_forest(*two_cluster_data(), ForestConfig(n_trees=3, seed=8))
    old = json.loads(OLD_MODEL.read_text(encoding="utf-8"))
    assert old["training_digests"]
    loaded = load_model(OLD_MODEL)
    rows, labels = two_cluster_data()
    retrained = train_forest(rows, labels, ForestConfig(n_trees=3, seed=8))
    probes = rows + [[float(a), float(b)] for a in range(-1, 14) for b in range(-1, 42, 3)]
    assert [predict(loaded, r) for r in probes] == [predict(retrained, r) for r in probes]
    save_model(loaded, tmp_path / "model.json")
    del old["training_digests"]
    assert (tmp_path / "model.json").read_text(encoding="utf-8") == (
        json.dumps(old, sort_keys=True, indent=1) + "\n")
    assert model_to_doc(retrained) == old


_BASE_DOC = model_to_doc(train_forest(*two_cluster_data(), ForestConfig(n_trees=2, seed=4)))
_NODE_KEYS = st.sampled_from(["f", "t", "l", "r", "votes", "benign", "malicious"])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 14) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_NODE_KEYS, inner, max_size=3),
    max_leaves=6)


@st.composite
def mutated_model_docs(draw):
    """A model document with a few of its tree nodes or fields changed."""
    doc = copy.deepcopy(_BASE_DOC)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["set", "node", "drop", "repeat", "swap", "width"]))
        if op == "width":
            doc["feature_count"] = draw(st.integers(0, 3))
            continue
        tree = draw(st.sampled_from(doc["trees"]))
        if not tree:
            continue
        at = draw(st.integers(0, len(tree) - 1))
        if op == "set" and isinstance(tree[at], dict):
            tree[at][draw(_NODE_KEYS)] = draw(_JSON_VALUES)
        elif op == "node":
            tree[at] = draw(_JSON_VALUES)
        elif op == "drop":
            del tree[at]
        elif op == "repeat":
            tree.insert(at, copy.deepcopy(tree[at]))
        elif op == "swap":
            other = draw(st.integers(0, len(tree) - 1))
            tree[at], tree[other] = tree[other], tree[at]
    return doc


@settings(max_examples=300)
@given(mutated_model_docs(), st.data())
def test_a_mutated_model_document_is_refused_or_predicts(doc, data):
    try:
        model = model_from_doc(doc)
    except ModelFormatError:
        return
    row = data.draw(st.lists(st.floats(), min_size=model.feature_count,
                             max_size=model.feature_count))
    category, _ = predict(model, row)  # every walk reaches a leaf
    assert category in (BENIGN, MALICIOUS)
