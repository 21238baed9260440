"""Graph-convolutional vulnerability detector.

A method's statement vectors form its feature matrix; two graph-convolution
layers over the symmetric-normalized dependence graph produce statement
representations, a three-level pyramid max-pool flattens them to a fixed
width, and a small fully-connected head emits a two-class softmax. All of it
after the encoder is graph_logits, one autodiff node with a hand-written
backward, which training, scoring and the explainer share. It takes a whole
chunk of methods at once: the convolutions are sums over the chunk's slot
list (vulgraph.slots), so they cost time and memory in proportion to the
statements and edges, and each method is pooled over its own rows. Every
product multiplies each method's rows on their own, so a method's logits are
the same in a chunk as alone. The vulnerability score is the V-class
probability; the decision threshold is fit on a tuning split by F1 search
and persisted with the checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import (
    Adam,
    ParamStore,
    Tensor,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .config import EncoderConfig, TrainConfig
from .encoders import encode_method_batch, encoder_layout, recurrence_memo
from .errors import CheckpointError, EmptySplit, ShapeMismatch, SingleClassTuningSet
from .features import Vocabulary, build_vocabulary, extract_method_features
from .frontend import Pdg
from .metrics import RankedDetection, auc, precision_recall_f1
from .rng import Rng
from .slots import Slots, normalize, propagate, slot_products

POOL_LEVELS = (1, 2, 4)
GCN_HIDDEN = 64
FC_HIDDEN = (64, 32)
N_CLASSES = 2
CHUNK_METHODS = 16  # methods of a scoring chunk
CHUNK_STMTS = 512  # statements of a scoring chunk, unless one method alone has more


def head_layout(stmt_dim: int, d2: int, h1: int, h2: int) -> list[tuple[str, tuple]]:
    """The detector's parameters after the encoder, in graph_logits' order:
    two graph convolutions to width d2, and a head through widths h1 and h2."""
    return [
        ("gcn.w1", (stmt_dim, d2)), ("gcn.w2", (d2, d2)),
        ("fc.w1", (sum(POOL_LEVELS) * d2, h1)), ("fc.b1", (h1,)),
        ("fc.w2", (h1, h2)), ("fc.b2", (h2,)),
        ("fc.w3", (h2, N_CLASSES)), ("fc.b3", (N_CLASSES,)),
    ]


HEAD_PARAMS = tuple(name for name, _ in head_layout(0, 0, 0, 0))


def model_layout(vocab_size: int, cfg: EncoderConfig, d2: int = GCN_HIDDEN) -> list[tuple[str, tuple]]:
    """Every model parameter, in registration order (which fixes checkpoint bytes)."""
    return encoder_layout(vocab_size, cfg) + head_layout(cfg.stmt_dim, d2, *FC_HIDDEN)


@dataclass
class DetectionModel:
    store: ParamStore
    vocab: Vocabulary
    encoder_config: EncoderConfig
    threshold: float = 0.5


def new_model(vocab: Vocabulary, cfg: EncoderConfig | None = None, seed: int = 0) -> DetectionModel:
    cfg = cfg or EncoderConfig()
    store = init_params(Rng(seed).fork("init"), model_layout(len(vocab), cfg))
    return DetectionModel(store=store, vocab=vocab, encoder_config=cfg)


def _pool_rows(first: int, last: int) -> list[tuple[int, int]]:
    """The row ranges [start, end) of the pyramid pool's 1+2+4 contiguous
    bins over the rows of one method, first to last - 1; a bin is never
    empty."""
    n = last - first
    bounds = []
    for level in POOL_LEVELS:
        for b in range(level):
            start = (b * n) // level
            bounds.append((first + start, first + max(((b + 1) * n) // level, start + 1)))
    return bounds


def _by_method(a: np.ndarray, b: np.ndarray, spans: list) -> np.ndarray:
    """a @ b, each method's rows (`spans`) multiplied on their own: BLAS
    picks its kernel by the number of rows, and kernels differ in the last
    bit, so this gives a method's rows as scoring it alone does."""
    if len(spans) == 1:
        return a @ b
    return np.concatenate([a[s:e] @ b for s, e in spans])


def graph_logits(slots: Slots, weights: Tensor, feats: Tensor, store: ParamStore) -> Tensor:
    """[methods, 2] class logits of a chunk's methods: two relu graph
    convolutions over the chunk's slot list with normalized slot weights
    (optionally masked), each method's pyramid pool over its rows, and the
    three-layer relu head.

    The whole detector is one tape node whose backward sends gradients to
    whichever of weights, feats and the eight parameters require grad.
    Forward and backward take the same numpy steps, in the same order, as
    the model built from one tape node per op, so values and gradients are
    bitwise theirs. Intermediates are kept only when an input requires
    grad, and no step is quadratic in the statements."""
    w, x = weights.data, feats.data
    if x.shape[0] != len(slots.runs.starts) or w.shape != slots.src.shape:
        raise ShapeMismatch(
            f"{x.shape[0]} statement rows and {w.shape} slot weights"
            f" for {len(slots.runs.starts)} rows and {slots.src.shape} slots"
        )
    params = tuple(store[name] for name in HEAD_PARAMS)
    w1, w2, f1, b1, f2, b2, f3, b3 = (p.data for p in params)
    p_w1, p_w2, p_f1, p_b1, p_f2, p_b2, p_f3, p_b3 = params
    t1 = _by_method(x, w1, slots.spans)
    t2 = propagate(slots, w, t1)
    keep1 = t2 > 0
    h1 = t2 * keep1
    t3 = _by_method(h1, w2, slots.spans)
    t4 = propagate(slots, w, t3)
    keep2 = t4 > 0
    h = t4 * keep2
    cols = np.arange(h.shape[1])
    idx = np.array([
        start + h[start:end].argmax(axis=0) for span in slots.spans for start, end in _pool_rows(*span)
    ])
    z = h[idx, cols].reshape(len(slots.spans), -1)
    heads = [(i, i + 1) for i in range(len(z))]
    a1 = _by_method(z, f1, heads) + b1
    keep3 = a1 > 0
    r1 = a1 * keep3
    a2 = _by_method(r1, f2, heads) + b2
    keep4 = a2 > 0
    r2 = a2 * keep4
    logits = _by_method(r2, f3, heads) + b3

    def backward(out):
        g = out.grad
        if p_f3.requires_grad:
            p_f3._accumulate(r2.T @ g)
        if p_b3.requires_grad:
            p_b3._accumulate(g.sum(axis=0))
        g = (g @ f3.T) * keep4
        if p_f2.requires_grad:
            p_f2._accumulate(r1.T @ g)
        if p_b2.requires_grad:
            p_b2._accumulate(g.sum(axis=0))
        g = (g @ f2.T) * keep3
        if p_f1.requires_grad:
            p_f1._accumulate(z.T @ g)
        if p_b1.requires_grad:
            p_b1._accumulate(g.sum(axis=0))
        pooled = (g @ f1.T).reshape(idx.shape)
        g = np.zeros(h.shape)
        np.add.at(g, (idx, cols), pooled)  # bin after bin, so shared rows sum in a fixed order
        g = g * keep2
        if weights.requires_grad:
            weights._accumulate(slot_products(slots, g, t3))
        w_rev = w[slots.rev]
        g = propagate(slots, w_rev, g)
        if p_w2.requires_grad:
            p_w2._accumulate(h1.T @ g)
        g = (g @ w2.T) * keep1
        if weights.requires_grad:
            weights._accumulate(slot_products(slots, g, t1))
        if feats.requires_grad or p_w1.requires_grad:
            g = propagate(slots, w_rev, g)
            if feats.requires_grad:
                feats._accumulate(g @ w1.T)
            if p_w1.requires_grad:
                p_w1._accumulate(x.T @ g)

    return Tensor._make(logits, (weights, feats, *params), backward)


def detector_weights(slots: Slots) -> Tensor:
    """The detector's normalized slot weights: every slot weighs one."""
    return Tensor(normalize(slots, np.ones(len(slots.src)))[0])


def _chunk_logits(
    model: DetectionModel, items: list, bundles: dict | None = None, memo: dict | None = None
) -> tuple[Tensor, list]:
    """[len(items), 2] logits for [(id, pdg)] pairs encoded and scored as one
    chunk, and each method's statement matrix; `bundles` maps method ids to
    feature bundles already extracted, and `memo` is the pass's recurrence
    memo (encoders.recurrence_memo), for a frozen model only."""
    pdgs = [p for _, p in items]
    bundle_lists = None if bundles is None else [bundles[mid] for mid, _ in items]
    enc, slots = encode_method_batch(pdgs, model.vocab, model.store, bundle_lists, memo)
    logits = graph_logits(slots, detector_weights(slots), enc, model.store)
    return logits, [Tensor(enc.data[s:e]) for s, e in slots.spans]


def frozen(model: DetectionModel) -> DetectionModel:
    """The model with its parameters read as constant tensors: a forward pass
    through it records no tape for them and leaves their gradients alone."""
    return replace(model, store={name: Tensor(t.data) for name, t in model.store.items()})


def _chunks(items, size: int):
    """Consecutive runs of items that close at `size` methods or before
    CHUNK_STMTS statements would be passed; a method larger than the budget
    is a chunk of its own. Scoring chunks and training batches both follow
    it: a chunk's memory grows with its statements and edges, so the budget
    bounds it."""
    part, stmts = [], 0
    for item in items:
        n = len(item[1].nodes)
        if part and (len(part) == size or stmts + n > CHUNK_STMTS):
            yield part
            part, stmts = [], 0
        part.append(item)
        stmts += n
    if part:
        yield part


def forward_methods(model: DetectionModel, items, bundles: dict | None = None):
    """Yield ((id, pdg), V-class probability, statement matrix) for each of
    an iterable of (id, pdg) pairs, encoded per chunk (see _chunks): the one
    forward pass that detect, explain and training's tuning scores share.
    A chunk's items are drawn (with the one that closes it) before its
    methods are yielded, so a caller that streams them holds one chunk of
    methods, not all of them.

    The weights stay fixed for the whole pass, so the token and context
    recurrences (sub_gru, name_gru, type_gru, data_gru, ctrl_gru) run each
    distinct input sequence once and read its final state from a memo
    afterwards (encoders.recurrence_memo, one dict per recurrence keyed by
    the token sequences themselves; a context by its neighbours' subtoken
    sequences), bitwise the state a chunk running every row reaches. The
    memo lives and dies with the pass. The Tree-LSTM and the attention
    Bi-GRU still run per chunk: their level products can have one row, so
    their bits depend on the chunk. Training's recording pass (_batch_loss)
    runs the same feature listing with no memo, so every row runs and its
    backward sums the per-row gradients in a fixed order."""
    # The pass records no autodiff tape, so a chunk's intermediates are
    # freed once the caller has moved on to the next chunk.
    const = frozen(model)
    memo = recurrence_memo(model.encoder_config.gru_hidden)
    for part in _chunks(items, CHUNK_METHODS):
        logits, feats = _chunk_logits(const, part, bundles, memo)
        z = logits.data
        e = np.exp(z - z.max(axis=1, keepdims=True))
        probs = (e / e.sum(axis=1, keepdims=True))[:, 1]
        for item, p, f in zip(part, probs, feats):
            yield item, float(p), f


def score_methods(model: DetectionModel, items, bundles: dict | None = None) -> list:
    """(id, V-class probability) for each of an iterable of (id, pdg) pairs,
    encoded per chunk."""
    return [(mid, p) for (mid, _), p, _ in forward_methods(model, items, bundles)]


def rank_methods(scored: list, threshold: float = 0.5) -> list[RankedDetection]:
    """Descending by score, ties by method id; ranks are 1-based."""
    ordered = sorted(scored, key=lambda pair: (-pair[1], pair[0]))
    return [
        RankedDetection(method=mid, score=score, decision="V" if score >= threshold else "NV", rank=i)
        for i, (mid, score) in enumerate(ordered, start=1)
    ]


def detection_report(ranked: list[RankedDetection]) -> list[dict]:
    return [
        {"method": r.method, "score": r.score, "decision": r.decision, "rank": r.rank}
        for r in ranked
    ]


def best_threshold(scored: list, labels: dict) -> float:
    """F1-maximizing cut over candidate thresholds: midpoints between the
    distinct sorted scores, plus the smallest score (the all-V decision).
    Ties prefer the smaller threshold."""
    pairs = [(score, labels[mid]) for mid, score in scored]
    classes = {lab for _, lab in pairs}
    if classes != {"V", "NV"}:
        raise SingleClassTuningSet(f"tuning classes seen: {sorted(classes)}")
    distinct = sorted({s for s, _ in pairs})
    candidates = [distinct[0]]
    candidates += [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
    truth = [lab for _, lab in pairs]
    best = None
    for tau in sorted(candidates):
        _, _, f1 = precision_recall_f1([s >= tau for s, _ in pairs], truth)
        if best is None or f1 > best[0] + 1e-12:
            best = (f1, tau)
    return best[1]


def balanced_training_pairs(items: list, labels: dict) -> list:
    """Equal V/NV counts; the surplus of the larger class is dropped
    deterministically in method-id order."""
    pos = sorted([it for it in items if labels[it[0]] == "V"], key=lambda it: it[0])
    neg = sorted([it for it in items if labels[it[0]] == "NV"], key=lambda it: it[0])
    m = min(len(pos), len(neg))
    return pos[:m] + neg[:m]


def cross_entropy(logits: Tensor, y: np.ndarray) -> Tensor:
    """Mean over the rows of -log softmax(logits)[row, y[row]], the
    log-sum-exp taken about each row's max, as one tape node. Forward and
    backward take the numpy steps of the tape built from one node per op, in
    its order, so the loss and its gradient are bitwise that tape's."""
    z = logits.data
    picked = (np.arange(len(y)), y)
    shift = z.max(axis=1, keepdims=True)
    e = np.exp(z - shift)
    total = e.sum(axis=1, keepdims=True)
    losses = (np.log(total) + shift).reshape(len(y)) - z[picked]

    def backward(out):
        d = np.broadcast_to(out.grad, losses.shape) / losses.size
        d_total = d.reshape(total.shape) / total
        grad = np.broadcast_to(d_total, e.shape) * e
        grad[picked] += -d
        logits._accumulate(grad)

    return Tensor._make(np.asarray(losses.mean()), (logits,), backward)


def _batch_loss(
    model: DetectionModel, batch: list, labels: dict, bundles: dict | None = None
) -> Tensor:
    logits, _ = _chunk_logits(model, batch, bundles)
    y = np.array([1 if labels[mid] == "V" else 0 for mid, _ in batch], dtype=np.int64)
    return cross_entropy(logits, y)


def train(
    train_items: list,
    tune_items: list,
    labels: dict,
    encoder_config: EncoderConfig | None = None,
    config: TrainConfig | None = None,
) -> tuple[DetectionModel, list[dict]]:
    """Cross-entropy training with Adam over balanced batches, which close as
    scoring chunks do (see _chunks); per-epoch loss and tuning AUC are
    logged, early stopping restores the best-AUC epoch, and the threshold is
    fit on that epoch's tuning scores. The vocabulary is built from the
    training split. Each method's feature bundles are extracted once per
    run."""
    config = config or TrainConfig()
    if not train_items:
        raise EmptySplit("training split is empty")
    if not tune_items:
        raise EmptySplit("tuning split is empty")
    balanced = balanced_training_pairs(train_items, labels)
    if not balanced:
        raise EmptySplit("training split lacks one of the classes")
    bundles: dict = {}
    for mid, pdg in list(train_items) + list(tune_items):
        if mid not in bundles:
            bundles[mid] = extract_method_features(pdg)
    vocab = build_vocabulary([bundles[mid] for mid, _ in train_items])
    model = new_model(vocab, encoder_config, seed=config.seed)
    opt = Adam(model.store, lr=config.lr)
    order_rng = Rng(config.seed).fork("order")
    log: list[dict] = []
    best_auc = -1.0
    bad_epochs = 0
    for epoch in range(1, config.epochs + 1):
        items = list(balanced)
        order_rng.shuffle(items)
        losses = []
        for batch in _chunks(items, config.batch_size):
            model.store.zero_grad()
            loss = _batch_loss(model, batch, labels, bundles)
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
            del loss  # the next batch is encoded without this batch's tape alive
        scored = score_methods(model, tune_items, bundles=bundles)
        pos = [s for mid, s in scored if labels[mid] == "V"]
        neg = [s for mid, s in scored if labels[mid] == "NV"]
        tune_auc = auc(pos, neg) if pos and neg else 0.0
        log.append(
            {"epoch": epoch, "loss": sum(losses) / len(losses), "tuning_auc": tune_auc}
        )
        if tune_auc > best_auc + 1e-12:
            best_auc = tune_auc
            best_snapshot = model.store.values.copy()
            best_scored = scored
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break
    model.store.values[...] = best_snapshot
    model.threshold = best_threshold(best_scored, labels)
    return model, log


def save_model(path, model: DetectionModel) -> None:
    meta = {
        "threshold": model.threshold,
        "vocab": model.vocab.to_dict(),
        "encoder_config": model.encoder_config.to_dict(),
    }
    save_checkpoint(path, model.store, meta=meta)


def load_model(path) -> DetectionModel:
    """The checkpoint's model, whose parameters must follow the model layout."""
    store, meta = load_checkpoint(path)
    try:
        for what, got, want in (
            ("metadata", meta, ("encoder_config", "threshold", "vocab")),
            ("encoder_config", meta["encoder_config"], EncoderConfig().to_dict()),
        ):
            if sorted(got) != sorted(want):
                raise CheckpointError(f"{path}: {what} keys {sorted(got)}, expected {sorted(want)}")
        model = DetectionModel(
            store=store,
            vocab=Vocabulary.from_dict(meta["vocab"]),
            encoder_config=EncoderConfig(**meta["encoder_config"]),
            threshold=float(meta["threshold"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed model metadata: {exc!r}") from exc
    got = [(name, t.data.shape) for name, t in store.items()]
    want = model_layout(len(model.vocab), model.encoder_config)
    if got != want:
        unexpected, missing = [p for p in got if p not in want], [p for p in want if p not in got]
        raise CheckpointError(
            f"{path}: parameters differ from the model layout: {unexpected} not in it, {missing} missing"
        )
    return model
