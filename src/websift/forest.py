"""Decision trees and a random forest over feature vectors, from scratch.

Gini-impurity CART trees with no depth cap, per-node random feature
subsets, optional bootstrap resampling and class weighting applied as
Gini sample weights (10:1 malicious:benign).  The RNG is a
self-contained xorshift64* so identical seeds give identical models on
any platform; per-tree seeds come from a splitmix64 stream, which keeps
results independent of tree-training order.

Metric tables are rendered from exact integer arithmetic and truncated
(not half-rounded) at four decimals; that is the rule the reference
confusion-matrix tables follow (8001/8014 = 0.99837... renders 0.9983).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .features import FEATURE_ORDER, FeatureVector, ledger_hash

BENIGN = 0
MALICIOUS = 1
CATEGORY_NAMES = {BENIGN: "benign", MALICIOUS: "malicious"}
MODEL_FORMAT = "websift-forest/1"
CLASS_WEIGHTS = {MALICIOUS: 10.0, BENIGN: 1.0}

_MASK64 = (1 << 64) - 1
_IMPURITY_EPS = 1e-12


class ModelFormatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic RNG

def splitmix64(state: int) -> int:
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class Xorshift64Star:
    """xorshift64* with the canonical multiplier; never yields state 0."""

    def __init__(self, seed: int):
        self._state = splitmix64(seed & _MASK64) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs n > 0")
        return (self.next_u64() * n) >> 64

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), partial Fisher-Yates."""
        k = min(k, n)
        pool = list(range(n))
        for i in range(k):
            j = i + self.randrange(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


# ---------------------------------------------------------------------------
# model types

@dataclass
class ForestConfig:
    n_trees: int = 10
    seed: int = 1
    bootstrap: bool = True


@dataclass
class ForestModel:
    # each tree is its preorder node list, the layout model files hold: a split is
    # (feature, threshold, index of its right child) and its left child is the
    # next node; a leaf is (benign votes, malicious votes)
    trees: list[list[tuple]]
    config: ForestConfig
    feature_count: int
    feature_ledger: str
    degenerate: bool = False


@dataclass
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


# ---------------------------------------------------------------------------
# impurity and splits

def gini(weighted_counts) -> float:
    """1 - sum(p^2) over weighted category proportions."""
    total = float(sum(weighted_counts))
    if total <= 0:
        raise ValueError("gini needs positive total weight")
    return 1.0 - sum((w / total) ** 2 for w in weighted_counts)


def _weighted_counts(indices, labels, weights) -> list[float]:
    counts = [0.0, 0.0]
    for i in indices:
        counts[labels[i]] += weights[i]
    return counts


def best_split(rows, labels, weights, indices, feature_ids):
    """Best (feature, threshold) over the candidates, or None.

    Thresholds are midpoints between consecutive distinct values; the
    winner minimizes weighted child Gini with ties broken by rounded
    impurity, then feature index, then threshold, so results do not
    depend on candidate enumeration order.
    """
    parent_counts = _weighted_counts(indices, labels, weights)
    if min(parent_counts) == 0.0 or len(indices) < 2:
        return None
    parent_impurity = gini(parent_counts)
    total_weight = sum(parent_counts)
    best = None  # (rounded impurity, feature, threshold)
    best_child = None

    for f in feature_ids:
        ordered = sorted(indices, key=lambda i: rows[i][f])
        left = [0.0, 0.0]
        right = parent_counts[:]
        for pos in range(1, len(ordered)):
            prev_i = ordered[pos - 1]
            left[labels[prev_i]] += weights[prev_i]
            right[labels[prev_i]] -= weights[prev_i]
            a = rows[prev_i][f]
            b = rows[ordered[pos]][f]
            if a == b:
                continue
            threshold = (a + b) / 2.0
            if not (a <= threshold < b):
                continue  # adjacent floats can collapse the midpoint
            wl, wr = sum(left), sum(right)
            if wl <= 0 or wr <= 0:
                continue
            child = (wl * gini(left) + wr * gini(right)) / total_weight
            key = (round(child, 12), f, threshold)
            if best is None or key < best:
                best = key
                best_child = child
    if best is None or best_child >= parent_impurity - _IMPURITY_EPS:
        return None
    return best[1], best[2]


# ---------------------------------------------------------------------------
# training

def _as_row(sample):
    if isinstance(sample, FeatureVector):
        return sample.as_row()
    return [float(v) for v in sample]


def _grow_tree(rows, labels, weights, indices, rng, n_candidates, n_features) -> list:
    """One tree's preorder node list; each split draws its candidates in that order."""
    nodes: list = []

    def grow(indices):
        counts = _weighted_counts(indices, labels, weights)
        found = None
        if min(counts) != 0.0 and len(indices) >= 2:
            candidates = rng.sample_indices(n_features, n_candidates)
            found = best_split(rows, labels, weights, indices, candidates)
            if found is None:
                # widen to every feature so consistent data always separates
                found = best_split(rows, labels, weights, indices, range(n_features))
        if found is None:
            nodes.append((counts[BENIGN], counts[MALICIOUS]))
            return
        feature, threshold = found
        at = len(nodes)
        nodes.append(None)
        grow([i for i in indices if rows[i][feature] <= threshold])
        nodes[at] = (feature, threshold, len(nodes))
        grow([i for i in indices if rows[i][feature] > threshold])

    grow(indices)
    return nodes


def train_forest(samples, labels, config: ForestConfig | None = None) -> ForestModel:
    """Train a forest; samples are FeatureVectors or plain rows."""
    config = config or ForestConfig()
    if config.n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {config.n_trees}")
    rows = [_as_row(s) for s in samples]
    y = [int(bool(v)) for v in labels]
    if not rows:
        raise ValueError("empty training set")
    if len(rows) != len(y):
        raise ValueError("samples and labels differ in length")
    n_features = len(rows[0])
    if any(len(r) != n_features for r in rows):
        raise ValueError("inconsistent feature counts in training set")
    weights = [CLASS_WEIGHTS[label] for label in y]
    n_candidates = math.ceil(math.sqrt(n_features))
    degenerate = len(set(y)) < 2
    if degenerate:
        warnings.warn("single-category training set: model is a constant classifier",
                      stacklevel=2)

    n = len(rows)
    trees = []
    for t in range(config.n_trees):
        rng = Xorshift64Star(splitmix64((config.seed & _MASK64) + t + 1))
        if config.bootstrap:
            indices = [rng.randrange(n) for _ in range(n)]
        else:
            indices = list(range(n))
        trees.append(_grow_tree(rows, y, weights, indices, rng,
                                n_candidates, n_features))
    ledger = ledger_hash() if n_features == len(FEATURE_ORDER) else f"custom-{n_features}"
    return ForestModel(
        trees=trees,
        config=config,
        feature_count=n_features,
        feature_ledger=ledger,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# prediction and evaluation

def predict(model: ForestModel, sample) -> tuple[int, float]:
    """(category, malicious weight share); ties go to benign."""
    row = _as_row(sample)
    if len(row) != model.feature_count:
        raise ValueError(
            f"expected {model.feature_count} features, got {len(row)}")
    votes = [0.0, 0.0]
    for tree in model.trees:
        at = 0
        while len(tree[at]) == 3:
            feature, threshold, right = tree[at]
            at = at + 1 if row[feature] <= threshold else right
        benign, malicious = tree[at]
        votes[BENIGN] += benign
        votes[MALICIOUS] += malicious
    total = votes[BENIGN] + votes[MALICIOUS]
    score = votes[MALICIOUS] / total if total > 0 else 0.0
    return (MALICIOUS if votes[MALICIOUS] > votes[BENIGN] else BENIGN), score


def evaluate(model: ForestModel, samples, labels) -> ConfusionMatrix:
    rows = [_as_row(s) for s in samples]
    y = [int(bool(v)) for v in labels]
    if not rows:
        raise ValueError("empty test set")
    cm = ConfusionMatrix()
    for row, actual in zip(rows, y):
        predicted, _ = predict(model, row)
        if predicted == MALICIOUS and actual == MALICIOUS:
            cm.tp += 1
        elif predicted == MALICIOUS and actual == BENIGN:
            cm.fp += 1
        elif predicted == BENIGN and actual == BENIGN:
            cm.tn += 1
        else:
            cm.fn += 1
    return cm


def metrics_exact(cm: ConfusionMatrix) -> dict:
    """Precision, recall and accuracy per category, as exact Fractions.

    None where the denominator is 0.
    """
    def frac(num: int, den: int):
        return Fraction(num, den) if den else None

    total = cm.total()
    return {
        "malware": {
            "precision": frac(cm.tp, cm.tp + cm.fp),
            "recall": frac(cm.tp, cm.tp + cm.fn),
            "accuracy": frac(cm.tp + cm.tn, total) if total else None,
        },
        "benign": {
            "precision": frac(cm.tn, cm.tn + cm.fn),
            "recall": frac(cm.tn, cm.tn + cm.fp),
            "accuracy": frac(cm.tp + cm.tn, total) if total else None,
        },
    }


def truncate4(value: Fraction | float | None) -> str:
    """Render a metric truncated to 4 decimals, from exact arithmetic.

    Reference tables truncate toward zero rather than half-round, so
    8001/8014 renders as 0.9983 and 17988/20092 as 0.8952.
    """
    if value is None:
        return "n/a"
    frac = value if isinstance(value, Fraction) else Fraction(value)
    scaled = (frac.numerator * 10000) // frac.denominator
    return f"{scaled // 10000}.{scaled % 10000:04d}"


def metric_table(cm: ConfusionMatrix) -> dict:
    exact = metrics_exact(cm)
    return {cat: {name: truncate4(val) for name, val in vals.items()}
            for cat, vals in exact.items()}


# ---------------------------------------------------------------------------
# dataset split policies

def split_dataset(samples, labels, policy: str = "scaled",
                  seed: int = 1) -> tuple[list[int], list[int]]:
    """(train indices, test indices) under a named policy.

    policy "paper2017": 11861 malicious train / 10092 test, benign train
    = 10x malicious train, benign test 10000; requires a corpus that
    large.  policy "scaled": malicious halves, benign train = min(10x
    malicious train, half the benign), remainder of benign to test.
    """
    y = [int(bool(v)) for v in labels]
    mal = [i for i, v in enumerate(y) if v == MALICIOUS]
    ben = [i for i, v in enumerate(y) if v == BENIGN]
    rng = Xorshift64Star(seed)
    for pool in (mal, ben):
        for i in range(len(pool) - 1, 0, -1):
            j = rng.randrange(i + 1)
            pool[i], pool[j] = pool[j], pool[i]

    if policy == "paper2017":
        need_mal, need_mal_test, need_ben_test = 11861, 10092, 10000
        need_ben = need_mal * 10
        if len(mal) < need_mal + need_mal_test or len(ben) < need_ben + need_ben_test:
            raise ValueError(
                f"paper2017 policy needs {need_mal + need_mal_test} malicious and "
                f"{need_ben + need_ben_test} benign samples; "
                f"got {len(mal)}/{len(ben)}")
        train = mal[:need_mal] + ben[:need_ben]
        test = mal[need_mal:need_mal + need_mal_test] + ben[need_ben:need_ben + need_ben_test]
    elif policy == "scaled":
        if not mal or len(ben) < 2:
            raise ValueError("scaled policy needs malicious samples and >=2 benign")
        mal_train = max(1, len(mal) // 2)
        ben_train = min(10 * mal_train, len(ben) // 2)
        ben_train = max(1, ben_train)
        train = mal[:mal_train] + ben[:ben_train]
        test = mal[mal_train:] + ben[ben_train:]
        if not test:
            raise ValueError("scaled policy left an empty test set")
    else:
        raise ValueError(f"unknown split policy {policy!r}")
    return sorted(train), sorted(test)


# ---------------------------------------------------------------------------
# serialization

def _node_doc(at: int, node: tuple) -> dict:
    if len(node) == 2:
        return {"votes": {"benign": repr(node[0]), "malicious": repr(node[1])}}
    return {"f": node[0], "t": repr(node[1]), "l": at + 1, "r": node[2]}


def _tree_from_doc(entries: list, feature_count: int) -> list:
    """One tree's node list, checked in one pass to be in exact preorder,
    so that every walk of `predict` moves forward and ends at a leaf."""
    nodes = []
    starts = [0]  # where the pending subtrees must start, the next one last
    for at, entry in enumerate(entries):
        if not starts or starts.pop() != at:
            raise ModelFormatError(f"node {at} is out of preorder")
        if "votes" in entry:
            votes = entry["votes"]
            nodes.append((float(votes["benign"]), float(votes["malicious"])))
            continue
        feature, right = int(entry["f"]), int(entry["r"])
        if not 0 <= feature < feature_count or int(entry["l"]) != at + 1:
            raise ModelFormatError(f"node {at} names no feature or is out of preorder")
        nodes.append((feature, float(entry["t"]), right))
        starts += [right, at + 1]
    if starts:
        raise ModelFormatError("a tree ends before its last leaf")
    return nodes


def model_to_doc(model: ForestModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "n_trees": model.config.n_trees,
        "seed": model.config.seed,
        "bootstrap": model.config.bootstrap,
        "n_candidates": 0,  # ceil(sqrt(feature_count)) features tried per node
        "weights": {"malicious": repr(CLASS_WEIGHTS[MALICIOUS]),
                    "benign": repr(CLASS_WEIGHTS[BENIGN])},
        "feature_count": model.feature_count,
        "feature_ledger": model.feature_ledger,
        "degenerate": model.degenerate,
        "trees": [[_node_doc(at, node) for at, node in enumerate(tree)]
                  for tree in model.trees],
    }


def model_from_doc(doc: dict) -> ForestModel:
    """The model `model_to_doc` wrote, or an older file that also holds its
    training rows' digests (ignored); ModelFormatError for any other document."""
    if not isinstance(doc, dict):
        raise ModelFormatError("a model document is a JSON object")
    if doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"unknown model format {doc.get('format')!r}")
    try:
        feature_count = int(doc["feature_count"])
        ledger = doc.get("feature_ledger", "")
        if feature_count == len(FEATURE_ORDER) and ledger != ledger_hash():
            raise ModelFormatError(
                "model was trained against a different feature ledger")
        config = ForestConfig(
            n_trees=int(doc["n_trees"]),
            seed=int(doc["seed"]),
            bootstrap=bool(doc["bootstrap"]),
        )
        trees = [_tree_from_doc(t, feature_count) for t in doc["trees"]]
        if not trees:
            raise ModelFormatError("a model has no trees")
        return ForestModel(
            trees=trees,
            config=config,
            feature_count=feature_count,
            feature_ledger=ledger,
            degenerate=bool(doc.get("degenerate", False)),
        )
    except ModelFormatError:
        raise
    except (LookupError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc!r}") from None


def save_model(model: ForestModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_doc(model), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path) -> ForestModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"model file is not valid JSON: {exc}") from None
    return model_from_doc(doc)
