"""Command-line pipeline driver.

Subcommands: parse, train, detect, explain, evaluate, mine, gradcheck,
gen-corpus. Configuration precedence is defaults < --config JSON file <
explicit flags; each command that takes --config builds its RunConfig
(vulgraph.config), which checks every key, before it opens any input.
Progress lines go to standard error; machine-readable results go to
standard output or to the declared output paths only.

Each subcommand imports the layers it runs when it runs. parse, gen-corpus,
evaluate and mine load neither numpy nor the model; train, detect, explain
and gradcheck import the model modules inside their command functions.
gen-corpus parses nothing and loads no frontend module: the commands that
read a corpus parse its methods as they read them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import RunConfig, load_run_config
from .corpus import (
    dump_corpus,
    fix_truth,
    generate_planted_corpus,
    iter_corpus,
    load_corpus,
    split,
    write_corpus_lines,
)
from .errors import ConfigError, CorpusError, SchemaError, VulgraphError
from .metrics import RankedDetection, evaluation_report
from .util import decode_json, decode_text, dump_json, is_int, is_number

TABLE_GRID = (2, 3, 4, 5)


def _config_from_args(args) -> RunConfig:
    overrides = {key: getattr(args, key, None) for key in ("seed", "k", "min_support")}
    return load_run_config(getattr(args, "config", None), overrides)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit_dir(report, out: str | None, name: str, dots) -> None:
    """The JSON report to standard output, or with --out DIR, to DIR/name
    plus each (file name, DOT text) of `dots` into DIR."""
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        for filename, dot in dots:
            (Path(out) / filename).write_text(dot, encoding="utf-8")
    _emit(dump_json(report, indent=2), Path(out) / name if out else None)


def _parsed(entries, skipped: set | None = None):
    """The entries whose method parsed, as they are read. Each other one is
    logged as skipped when it is read, and its id added to `skipped`."""
    for entry in entries:
        if entry.pdg is not None:
            yield entry
            continue
        _log(f"skipping {entry.id}: {entry.parse_error}")
        if skipped is not None:
            skipped.add(entry.id)


# --- commands ---------------------------------------------------------------


def cmd_parse(args) -> int:
    from .frontend import build_pdg, parse_source, pdg_to_dot, pdg_to_json

    if args.dot and not args.out:
        raise ConfigError("--dot writes its DOT files into the --out directory; give --out DIR")
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for path in args.files:
        source = decode_text(Path(path).read_bytes(), VulgraphError, path)
        source = source.replace("\r\n", "\n").replace("\r", "\n")  # as a text-mode read
        try:  # a file's PDGs are written once the whole file has parsed
            pdgs = [build_pdg(method_ast) for method_ast in parse_source(source)]
        except VulgraphError as exc:
            raise VulgraphError(f"{path}: {exc}") from exc
        for pdg in pdgs:
            text = pdg_to_json(pdg)
            if out_dir:
                (out_dir / f"{pdg.method}.pdg.json").write_text(text, encoding="utf-8")
                if args.dot:
                    (out_dir / f"{pdg.method}.dot").write_text(
                        pdg_to_dot(pdg), encoding="utf-8"
                    )
            else:
                sys.stdout.write(text)
            count += 1
    _log(f"parsed {count} method(s)")
    return 0


def cmd_train(args) -> int:
    from .fagcn import save_model, train

    cfg = _config_from_args(args)
    usable = list(_parsed(load_corpus(args.corpus)))
    parts = split(usable, cfg.split_spec())
    labels = {e.id: e.label for e in usable}
    train_items = [(e.id, e.pdg) for e in parts["train"]]
    tune_items = [(e.id, e.pdg) for e in parts["tune"]]
    _log(
        f"training on {len(train_items)} methods, tuning on {len(tune_items)}, "
        f"seed {cfg.seed}"
    )
    model, log_rows = train(
        train_items, tune_items, labels, cfg.encoder_config(), cfg.train_config()
    )
    save_model(args.out, model)
    log_path = args.log or args.out + ".log.json"
    log_payload = {
        "epochs": log_rows,
        "threshold": model.threshold,
        "splits": {name: [e.id for e in part] for name, part in parts.items()},
    }
    Path(log_path).write_text(dump_json(log_payload, indent=2), encoding="utf-8")
    if args.split_out:
        for name, part in parts.items():
            dump_corpus(part, f"{args.split_out}.{name}.jsonl")
    _log(f"saved checkpoint to {args.out} (threshold {model.threshold:.4f})")
    return 0


def cmd_detect(args) -> int:
    from .fagcn import load_model, rank_methods, score_methods

    _config_from_args(args)  # detect reads no key, but a bad --config is still an error
    model = load_model(args.model)
    # The corpus streams into the scoring chunks: a run holds one chunk of
    # parsed methods and one score per method.
    items = ((e.id, e.pdg) for e in _parsed(iter_corpus(args.corpus)))
    scored = score_methods(model, items)
    ranked = rank_methods(scored, model.threshold)
    report = {"threshold": model.threshold, "methods": [detection_row(r) for r in ranked]}
    _emit(dump_json(report, indent=2), args.out)
    _log(f"scored {len(scored)} method(s)")
    return 0


def cmd_explain(args) -> int:
    from .explain import extract_subgraph, learn_edge_mask, subgraph_to_dot
    from .fagcn import forward_methods, load_model
    from .patterns import abstract_subgraph

    cfg = _config_from_args(args)
    model = load_model(args.model)
    forced = set(args.method or ())

    # The same batches as detect, so each score is bitwise detect's score,
    # and each mask is learned on the statement matrix that score came from.
    # The corpus streams into them, so a run holds one chunk of parsed
    # methods besides its explanations.
    explain_cfg = cfg.explain_settings()
    rows, dots = [], []
    skipped: set = set()
    usable = 0
    items = ((e.id, e.pdg) for e in _parsed(iter_corpus(args.corpus), skipped))
    for (mid, pdg), score, feats in forward_methods(model, items):
        usable += 1
        decision = "V" if score >= model.threshold else "NV"
        if (mid not in forced) if forced else (decision != "V"):
            continue
        mask = learn_edge_mask(pdg, model, decision, explain_cfg, feats=feats)
        sub = extract_subgraph(pdg, mask, cfg.k)
        rows.append(explanation_row(mid, decision, score, sub, abstract_subgraph(sub, pdg)))
        dots.append((f"{mid}.dot", subgraph_to_dot(mid, pdg, sub)))
    missing = forced - {row["method"] for row in rows}
    if missing & skipped:
        raise CorpusError(f"method ids skipped because their parse failed: {sorted(missing & skipped)}")
    if missing:
        raise CorpusError(f"method ids not in corpus: {sorted(missing)}")
    _emit_dir(rows, args.out, "explanations.json", dots)
    _log(f"explained {len(rows)} of {len(forced) or usable} method(s)")
    return 0


def explanation_row(method: str, decision: str, score: float, sub, graph) -> dict:
    """The explanations-file row of `method`, from its explain.InterpretationSubgraph
    `sub` and that subgraph abstracted, `graph` (a patterns.AbstractGraph)."""
    return {
        "method": method,
        "decision": decision,
        "score": score,
        "k": len(sub.edges),
        "edges": [
            {"src": s, "dst": d, "kind": kind, "var": var, "mask": mask}
            for s, d, kind, var, mask in sub.edges
        ],
        "statements": [
            {"index": stmt, "importance": importance}
            for stmt, importance in sub.statement_ranking
        ],
        "abstract": {
            "nodes": [[i, label] for i, label in graph.nodes],
            "edges": [[s, d, kind] for s, d, kind in graph.edges],
        },
    }


def read_explanations(path) -> list[tuple]:
    """(method, [(index, importance)], [(node id, label)], [(source, target,
    kind)]) for each row of an explanations file, the list explain writes,
    every field checked once (docs/cli.md lists the checks); a row that
    fails one is a schema error naming the file and the row."""
    from .frontend.pdg import EDGE_KINDS

    rows = decode_json(Path(path).read_bytes(), SchemaError, path)
    if not isinstance(rows, list):
        raise SchemaError(f"{path}: explanations file must hold a list of explanations")
    explanations, seen = [], set()
    for n, row in enumerate(rows, start=1):
        where = f"{path}: explanations row {n}"
        if not isinstance(row, dict):
            raise SchemaError(f"{where}: not an object")
        method, statements, graph = row.get("method"), row.get("statements"), row.get("abstract")
        if not isinstance(method, str):
            raise SchemaError(f"{where}: method {method!r} is not a string")
        if method in seen:
            raise SchemaError(f"{where}: {method!r} is explained twice")
        seen.add(method)
        if not _all_of(statements, dict):
            raise SchemaError(f"{where}: statements must be a list of objects")
        ranking = [(s.get("index"), s.get("importance")) for s in statements]
        if not all(is_int(index) and is_number(importance) for index, importance in ranking):
            raise SchemaError(f"{where}: a statement has a non-integer index or a non-number importance")
        if len({index for index, _ in ranking}) < len(ranking):
            raise SchemaError(f"{where}: a statement index is listed twice")
        nodes = graph.get("nodes") if isinstance(graph, dict) else None
        edges = graph.get("edges") if isinstance(graph, dict) else None
        if not (_all_of(nodes, list, 2) and _all_of(edges, list, 3)):
            raise SchemaError(f"{where}: abstract must hold [id, label] nodes and [source, target, kind] edges")
        ids = [i for i, _ in nodes]
        ends = [v for s, d, _ in edges for v in (s, d)]
        if not all(is_int(v) for v in ids + ends):
            raise SchemaError(f"{where}: abstract node ids and edge ends must be integers")
        if len(set(ids)) < len(ids):
            raise SchemaError(f"{where}: an abstract node id is listed twice")
        if not all(isinstance(label, str) for _, label in nodes):
            raise SchemaError(f"{where}: an abstract node label is not a string")
        unknown = sorted(set(ends) - set(ids))
        if unknown:
            raise SchemaError(f"{where}: abstract edges name unknown nodes {unknown}")
        kinds = [k for _, _, k in edges if k not in EDGE_KINDS]
        if kinds:
            raise SchemaError(f"{where}: abstract edge kind {kinds[0]!r} is not data or control")
        explanations.append((method, ranking, [tuple(n) for n in nodes], [tuple(e) for e in edges]))
    return explanations


def _all_of(value, kind: type, length: int | None = None) -> bool:
    """Whether `value` is a list of `kind` values, each `length` long if given."""
    return isinstance(value, list) and all(
        isinstance(v, kind) and (length is None or len(v) == length) for v in value
    )


def detection_row(r: RankedDetection) -> dict:
    """The detections-file row of one ranked method."""
    return {"method": r.method, "score": r.score, "decision": r.decision, "rank": r.rank}


def read_detections(path) -> list[RankedDetection]:
    """The rows of a detections file, the report detect writes, each checked
    (docs/cli.md lists the checks); a bad row is a schema error naming it."""
    detections = decode_json(Path(path).read_bytes(), SchemaError, path)
    rows = detections.get("methods") if isinstance(detections, dict) else None
    if not _all_of(rows, dict):
        raise SchemaError(f"{path}: detections file must hold an object with a list of method rows")
    ranked = [RankedDetection(r.get("method"), r.get("score"), r.get("decision"), r.get("rank")) for r in rows]
    seen = set()
    for i, r in enumerate(ranked, start=1):
        where = f"{path}: detections row {i}"
        if not isinstance(r.method, str):
            raise SchemaError(f"{where}: method {r.method!r} is not a string")
        if r.method in seen:
            raise SchemaError(f"{where}: {r.method!r} is listed twice")
        seen.add(r.method)
        if not is_int(r.rank) or r.rank != i:  # the ranking metrics read the row order
            raise SchemaError(f"{where}: rank {r.rank!r} of {r.method!r} is not its row number")
        if not is_number(r.score):
            raise SchemaError(f"{where}: score {r.score!r} of {r.method!r} is not a number")
        if r.decision not in ("V", "NV"):
            raise SchemaError(f"{where}: decision {r.decision!r} of {r.method!r} is not V or NV")
    return ranked


def cmd_evaluate(args) -> int:
    cfg = _config_from_args(args)
    ranked = read_detections(args.detections)
    explanations = read_explanations(args.explanations) if args.explanations else []
    # One pass over the corpus keeps only what the metrics read of each
    # entry: its label, its statement count and, when interpretable, its fix.
    labels, stmt_counts, truths = {}, {}, {}
    for entry in iter_corpus(args.corpus):
        labels[entry.id] = entry.label
        if entry.pdg is not None:
            stmt_counts[entry.id] = len(entry.pdg.nodes)
            if entry.interpretable:
                truths[entry.id] = fix_truth(entry)
    unknown = [r.method for r in ranked if r.method not in labels]
    if unknown:
        raise CorpusError(f"detected methods missing from corpus: {unknown[:5]}")

    rankings = []
    skipped = 0
    for method, ranking, _, _ in explanations:
        n = stmt_counts.get(method)
        if n is not None and not all(0 <= index < n for index, _ in ranking):
            raise SchemaError(
                f"{args.explanations}: a statement index of {method!r} is not one of its {n} statements"
            )
        if method not in truths or labels.get(method) != "V":
            skipped += 1
            continue
        rankings.append((method, ranking))

    report = evaluation_report(ranked, labels, rankings, truths, num_nodes=cfg.k)
    report["counts"] = {
        "methods_ranked": len(ranked),
        "explanations_evaluated": len(rankings),
        "explanations_skipped": skipped,
    }
    _emit(dump_json(report, indent=2), args.out)
    return 0


def cmd_mine(args) -> int:
    from .patterns import AbstractGraph, mine_patterns, pattern_count_table, pattern_to_dict, pattern_to_dot

    cfg = _config_from_args(args)
    graphs = [AbstractGraph(nodes, edges) for _, _, nodes, edges in read_explanations(args.explanations)]
    lo, hi = args.sizes
    try:
        patterns = mine_patterns(graphs, cfg.min_support, (lo, hi))
    except ValueError as exc:  # the miner's own check of --sizes
        raise ConfigError(str(exc)) from exc
    table = pattern_count_table(graphs, supports=list(TABLE_GRID), sizes=list(TABLE_GRID))
    report = {
        "min_support": cfg.min_support,
        "size_range": [lo, hi],
        "patterns": [pattern_to_dict(p) for p in patterns],
        "count_table": table,
    }
    dots = ((f"pattern_{i:03d}.dot", pattern_to_dot(p)) for i, p in enumerate(patterns))
    _emit_dir(report, args.out, "patterns.json", dots)
    _log(f"mined {len(patterns)} pattern(s) from {len(graphs)} explanation(s)")
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import all_passed, run_gradcheck

    if args.seed < 0:
        raise ConfigError("seed must be non-negative")
    results = run_gradcheck(seed=args.seed)
    sys.stdout.write(dump_json(results, indent=2))
    ok = all_passed(results)
    _log(f"gradcheck: {sum(r['pass'] for r in results)}/{len(results)} ops pass")
    return 0 if ok else 1


def cmd_gen_corpus(args) -> int:
    cfg = _config_from_args(args)
    try:
        lines = generate_planted_corpus(args.n, seed=cfg.seed)
    except ValueError as exc:  # the generator's own check of --n
        raise ConfigError(f"--n: {exc}") from exc
    write_corpus_lines(lines, args.out)
    vuln = sum(1 for line in lines if line["label"] == "V")
    _log(f"wrote {len(lines)} methods ({vuln} vulnerable) to {args.out}")
    return 0


# --- argument wiring --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _size_pair(text: str):
    try:
        lo, hi = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected LO,HI") from exc
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vulgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, k=False, min_support=False):
        p.add_argument("--config", help="JSON config file")
        if k:
            p.add_argument("--k", type=int, help="edges kept per explanation")
        if min_support:
            p.add_argument("--min-support", dest="min_support", type=int,
                           help="minimum per-graph support")

    p = sub.add_parser("parse", help="emit PDG JSON (and DOT) per method")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", help="output directory (default: stdout)")
    p.add_argument("--dot", action="store_true", help="also write DOT files")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("train", help="train a detector on a corpus")
    p.add_argument("corpus")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", help="training log path (default: <out>.log.json)")
    p.add_argument("--split-out", dest="split_out",
                   help="prefix for writing the train/tune/test corpora")
    p.add_argument("--seed", type=int, help="random seed")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="score and rank a corpus")
    p.add_argument("corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="report path (default: stdout)")
    common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("explain", help="edge-mask explanations for detections")
    p.add_argument("corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--method", action="append",
                   help="explain this method id (repeatable; default: all detected V)")
    p.add_argument("--out", help="output directory (default: stdout)")
    common(p, k=True)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evaluate", help="detection and interpretation metrics")
    p.add_argument("--detections", required=True)
    p.add_argument("--explanations")
    p.add_argument("--corpus", required=True, help="corpus with labels and fixes")
    p.add_argument("--out", help="report path (default: stdout)")
    common(p, k=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("mine", help="frequent patterns over explanations")
    p.add_argument("explanations", help="explanations JSON file")
    p.add_argument("--sizes", type=_size_pair, default=(1, 8),
                   help="edge-count range LO,HI (default 1,8)")
    p.add_argument("--out", help="output directory (default: stdout)")
    common(p, min_support=True)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("gen-corpus", help="write a seeded planted-defect corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="random seed")
    common(p)
    p.set_defaults(func=cmd_gen_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args) or 0
    except (VulgraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 — deliberate containment boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
