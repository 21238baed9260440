"""Ranking, classification, and interpretation quality measures.

Ranking metrics operate on a relevance list: the detector's output order with
a 1 wherever the method at that rank is actually vulnerable. Interpretation
metrics compare explanation subgraphs against fix ground truth, i.e. the
statements a real patch deleted or modified plus the statements depending on
added lines.

The two records the measures read, a RankedDetection and an
InterpretationSubgraph, are defined here: the detector (vulgraph.fagcn) and
the explainer (vulgraph.explain) build them, and `vulgraph evaluate` reads
them back from report files without loading numpy or the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import TOP_K
from .errors import EmptyClass, KOutOfRange, LengthMismatch, MissingTruth

REPORT_KS = (1, 3, 5, 10, 15, 20)


@dataclass(frozen=True)
class RankedDetection:
    method: str
    score: float
    decision: str
    rank: int


@dataclass
class InterpretationSubgraph:
    method: str
    edges: list  # (src, dst, kind, var, mask_value), strongest first
    nodes: tuple
    statement_ranking: list  # (statement index, importance), strongest first


@dataclass(frozen=True)
class FixGroundTruth:
    method: str
    deleted_or_modified: frozenset
    added_dependents: frozenset

    def all_statements(self) -> frozenset:
        return self.deleted_or_modified | self.added_dependents


def _check_k(rel, k: int) -> None:
    if k < 1 or k > len(rel):
        raise KOutOfRange(f"k={k} outside [1, {len(rel)}]")


def map_at_k(rel, k: int) -> float:
    """Average precision over the top k: mean of precision@i at relevant i."""
    _check_k(rel, k)
    hits = 0
    total = 0.0
    for i in range(1, k + 1):
        if rel[i - 1]:
            hits += 1
            total += hits / i
    return total / hits if hits else 0.0


def ndcg_at_k(rel, k: int) -> float:
    """Discounted cumulative gain of the top k against the ideal reorder."""
    _check_k(rel, k)
    dcg = sum(rel[i - 1] / math.log2(i + 1) for i in range(1, k + 1))
    ideal = sorted(rel[:k], reverse=True)
    idcg = sum(ideal[i - 1] / math.log2(i + 1) for i in range(1, k + 1))
    return dcg / idcg if idcg else 0.0


def fr_at_k(rel, k: int):
    """Rank of the first relevant item within the top k; None if absent."""
    _check_k(rel, k)
    for i in range(1, k + 1):
        if rel[i - 1]:
            return i
    return None


def ar_at_k(rel, k: int):
    """Mean rank of the relevant items within the top k; None if absent."""
    _check_k(rel, k)
    ranks = [i for i in range(1, k + 1) if rel[i - 1]]
    return sum(ranks) / len(ranks) if ranks else None


def auc(pos_scores, neg_scores) -> float:
    """Probability a random positive outscores a random negative (ties half)."""
    pos = list(pos_scores)
    neg = list(neg_scores)
    if not pos or not neg:
        raise EmptyClass("need at least one score per class")
    # rank-sum form; ties share the average rank of their block
    tagged = sorted([(s, 1) for s in pos] + [(s, 0) for s in neg])
    rank_sum = 0.0
    i = 0
    while i < len(tagged):
        j = i
        while j < len(tagged) and tagged[j][0] == tagged[i][0]:
            j += 1
        avg_rank = (i + 1 + j) / 2.0  # ranks are 1-based, block spans i+1..j
        rank_sum += avg_rank * sum(t for _, t in tagged[i:j])
        i = j
    u = rank_sum - len(pos) * (len(pos) + 1) / 2.0
    return u / (len(pos) * len(neg))


def _as_bit(value) -> int:
    if value in ("V", "NV"):
        return 1 if value == "V" else 0
    return 1 if value else 0


def precision_recall_f1(decisions, truth) -> tuple[float, float, float]:
    d = [_as_bit(x) for x in decisions]
    t = [_as_bit(x) for x in truth]
    if len(d) != len(t):
        raise LengthMismatch(f"{len(d)} decisions vs {len(t)} labels")
    tp = sum(1 for a, b in zip(d, t) if a and b)
    fp = sum(1 for a, b in zip(d, t) if a and not b)
    fn = sum(1 for a, b in zip(d, t) if not a and b)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _kept_statements(subgraph, num_nodes: int) -> set:
    return {stmt for stmt, _ in subgraph.statement_ranking[:num_nodes]}


def interp_accuracy(subgraphs, truths: dict, num_nodes: int) -> float:
    """Fraction of explanations whose top statements touch the fix.

    An explanation counts as correct when its `num_nodes` highest-ranked
    statements intersect either the deleted/modified statements or the
    statements dependent on added fix lines."""
    if not subgraphs:
        return 0.0
    correct = 0
    for sub in subgraphs:
        if sub.method not in truths:
            raise MissingTruth(sub.method)
        truth = truths[sub.method]
        kept = _kept_statements(sub, num_nodes)
        if kept & truth.deleted_or_modified or kept & truth.added_dependents:
            correct += 1
    return correct / len(subgraphs)


def mfr_mar(subgraphs, truths: dict):
    """Mean first / mean average rank of fix statements inside explanations.

    Statements missing from an explanation's ranking are skipped; methods
    whose fix statements are all missing are excluded from both means."""
    firsts, averages = [], []
    for sub in subgraphs:
        if sub.method not in truths:
            raise MissingTruth(sub.method)
        wanted = truths[sub.method].all_statements()
        ranks = [
            i
            for i, (stmt, _) in enumerate(sub.statement_ranking, start=1)
            if stmt in wanted
        ]
        if ranks:
            firsts.append(ranks[0])
            averages.append(sum(ranks) / len(ranks))
    if not firsts:
        return None, None
    return sum(firsts) / len(firsts), sum(averages) / len(averages)


def relevance_from_ranking(ranked, labels: dict) -> list[int]:
    """Relevance bits in rank order; labels maps method id -> "V"/"NV"."""
    return [1 if labels[r.method] == "V" else 0 for r in ranked]


def evaluation_report(
    ranked,
    labels: dict,
    subgraphs=None,
    truths: dict | None = None,
    num_nodes: int = TOP_K,
) -> dict:
    """All measures in one JSON-ready structure; ranking rows for the
    REPORT_KS cutoffs the list is long enough to support."""
    rel = relevance_from_ranking(ranked, labels)
    rows = []
    for k in REPORT_KS:
        if k > len(rel):
            continue
        rows.append(
            {
                "k": k,
                "map": map_at_k(rel, k),
                "ndcg": ndcg_at_k(rel, k),
                "fr": fr_at_k(rel, k),
                "ar": ar_at_k(rel, k),
            }
        )
    pos = [r.score for r in ranked if labels[r.method] == "V"]
    neg = [r.score for r in ranked if labels[r.method] == "NV"]
    decisions = [r.decision for r in ranked]
    truth_bits = [labels[r.method] for r in ranked]
    precision, recall, f1 = precision_recall_f1(decisions, truth_bits)
    report = {
        "ranking": rows,
        "auc": auc(pos, neg) if pos and neg else None,
        "classification": {"precision": precision, "recall": recall, "f1": f1},
    }
    if subgraphs is not None and truths is not None:
        mfr, mar = mfr_mar(subgraphs, truths)
        report["interpretation"] = {
            "accuracy": interp_accuracy(subgraphs, truths, num_nodes),
            "mfr": mfr,
            "mar": mar,
            "top_statements": num_nodes,
        }
    return report
