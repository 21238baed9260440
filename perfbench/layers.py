"""Per-layer metrics from the spans that traced child processes recorded.

Every `*_s` layer time is self time: the span's duration minus the spans
it directly caused, summed over the traced round. A metric whose span
name the tracer could not wrap is returned in `missing`, never as zero.
A count or ratio reads 0 where the workload does not exercise the layer.
"""

from __future__ import annotations

from collections import defaultdict

STAGES = ("gen-corpus", "train", "detect", "explain", "evaluate", "mine")

# statement-count bins of the size sweep: (name, lowest, highest + 1)
SIZE_BINS = (
    ("stmts_lt75", 0, 75),
    ("stmts_75_149", 75, 150),
    ("stmts_150_299", 150, 300),
    ("stmts_ge300", 300, 1 << 30),
)


def size_bin(stmts: int) -> str:
    return next(name for name, lo, hi in SIZE_BINS if lo <= stmts < hi)


def _with_self_time(spans: list[dict]) -> list[dict]:
    """Spans of one process, each with `dur` and `self` added."""
    children = defaultdict(float)
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        if span["parent"] is not None:
            children[span["parent"]] += span["dur"]
    for span in spans:
        span["self"] = span["dur"] - children[span["id"]]
    return spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Table:
    def __init__(self, missing: set[str]):
        self.metrics: dict[str, dict] = {}
        self.missing: list[str] = []
        self._absent = missing

    def put(self, name: str, unit: str, needs: tuple, compute) -> None:
        """Record `name` unless a span it needs was not wrapped; `compute`
        returns None when an attribute it reads was not recorded."""
        value = None if any(n in self._absent for n in needs) else compute()
        if value is None:
            self.missing.append(name)
        else:
            self.metrics[name] = {"value": value, "unit": unit}


def layer_metrics(ops: list, epochs_run: int, overhead_s: float) -> tuple[dict, list[str]]:
    """`ops` are the traced round's operations (see run.Op)."""
    spans: list[dict] = []
    absent: set[str] = set()
    op_bins = []
    for op in ops:
        trace = op.trace or {"spans": [], "missing": []}
        absent.update(trace["missing"])
        own = _with_self_time(trace["spans"])
        spans.extend(own)
        sizes = [s["stmts"] for s in own if s["name"] == "frontend.deps" and "stmts" in s]
        stmts = op.stmts if op.stmts is not None else max(sizes, default=None)
        op_bins.append((op, None if stmts is None else size_bin(stmts)))

    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def total(name: str) -> float:
        return sum(s["self"] for s in by_name[name])

    def attr_sum(name: str, attr: str, spans_=None):
        chosen = by_name[name] if spans_ is None else spans_
        if any(attr not in s for s in chosen):
            return None
        return sum(s[attr] for s in chosen)

    def attr_ratio(name: str, num: str, den: str):
        a, b = attr_sum(name, num), attr_sum(name, den)
        return None if a is None or b is None else _ratio(a, b)

    table = _Table(absent)
    put = table.put
    parse, deps = "frontend.parse", "frontend.deps"
    put("frontend.parse_s", "s", (parse,), lambda: total(parse))
    put("frontend.deps_s", "s", (deps,), lambda: total(deps))
    put("frontend.stmts", "count", (deps,), lambda: attr_sum(deps, "stmts"))
    put("frontend.edges", "count", (deps,), lambda: attr_sum(deps, "edges"))
    put("frontend.methods_skipped", "count", ("corpus.load",),
        lambda: attr_sum("corpus.load", "skipped"))
    put("corpus.load_s", "s", ("corpus.load",), lambda: total("corpus.load"))
    put("corpus.gen_s", "s", ("corpus.gen",), lambda: total("corpus.gen"))

    feat = "features.extract"
    put("features.extract_s", "s", (feat,), lambda: total(feat))
    put("features.calls_per_method", "ratio", (feat,),
        lambda: None if attr_sum(feat, "new") is None
        else _ratio(len(by_name[feat]), attr_sum(feat, "new")))
    enc = "encoders.encode"
    put("encoders.encode_s", "s", (enc,), lambda: total(enc))
    put("encoders.encode_ratio", "ratio", (enc,), lambda: attr_ratio(enc, "stmts", "new_stmts"))

    logits = "fagcn.graph_logits"
    put("fagcn.graph_logits_s", "s", (logits,), lambda: total(logits))
    put("fagcn.graph_logits_calls", "count", (logits,), lambda: len(by_name[logits]))
    put("fagcn.epochs_run", "count", (), lambda: epochs_run)

    back, adam = "autodiff.backward", "autodiff.adam_step"
    put("autodiff.backward_s", "s", (back,), lambda: total(back))
    put("autodiff.backward_calls", "count", (back,), lambda: len(by_name[back]))
    put("autodiff.tape_nodes_per_backward", "count", (back,),
        lambda: None if attr_sum(back, "tape") is None
        else _ratio(attr_sum(back, "tape"), len(by_name[back])))
    put("autodiff.adam_step_s", "s", (adam,), lambda: total(adam))

    mask = "explain.learn_mask"
    done = [s for s in by_name[mask] if "error" not in s]
    spreads = [s["spread"] for s in done if "spread" in s]

    def per_iter(chosen):
        iters = attr_sum(mask, "iters", chosen)
        return None if iters is None else _ratio(sum(s["dur"] for s in chosen), iters)

    put("explain.learn_mask_s", "s", (mask,), lambda: total(mask))
    put("explain.masked_adjacency_s", "s", ("explain.masked_adjacency",),
        lambda: total("explain.masked_adjacency"))
    put("explain.s_per_iter", "s", (mask,), lambda: per_iter(done))
    put("explain.mask_spread", "ratio", (mask,),
        lambda: None if len(spreads) != len(done) else _ratio(sum(spreads), len(spreads)))
    put("patterns.mine_s", "s", ("patterns.mine",), lambda: total("patterns.mine"))

    for stage in STAGES:  # completed commands only, like the end-to-end peak_rss_mb
        put(f"{stage}.peak_rss_mb", "MB", (),
            lambda stage=stage: max((op.rss_mb for op in ops
                                     if op.stage == stage and op.exit == 0), default=0.0))

    def in_bin(span, name):
        return "stmts" in span and size_bin(span["stmts"]) == name

    for name, _, _ in SIZE_BINS:
        built = [s for s in by_name[deps] if in_bin(s, name)]
        parsed = [s for s in by_name[parse] if in_bin(s, name)]
        put(f"{name}.parse_s", "s", (parse, deps),
            lambda b=built, p=parsed: _ratio(sum(s["self"] for s in b + p), len(b)))
        put(f"{name}.explain_s_per_iter", "s", (mask,),
            lambda name=name: per_iter([s for s in done if in_bin(s, name)]))
        put(f"{name}.peak_rss_mb", "MB", (),
            lambda name=name: max((op.rss_mb for op, b in op_bins if b == name), default=0.0))
        put(f"{name}.failed_ops", "count", (),
            lambda name=name: sum(1 for op, b in op_bins if b == name and op.failed))
    put("trace.overhead_s", "s", (), lambda: overhead_s)
    return table.metrics, table.missing
