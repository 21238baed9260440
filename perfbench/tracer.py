"""Outside-in tracing of vulgraph's layers for the benchmark's traced run.

`Tracer.install()` replaces each public function named in `TARGETS` with a
wrapper that records a span (id, name, parent id, start, end, attributes)
in memory. A plain function is replaced wherever its callers look it up:
in every loaded `vulgraph` module whose namespace holds it, its defining
module included. A method is replaced on its class. A target that no longer
exists is listed in `missing`, so a metric built on it is reported missing
and never as zero. Nothing is wrapped unless `install()` is called.

Span times come from the process CPU clock, like the benchmark's
end-to-end times, with the time the tracer spends reading attributes taken
out: walking the autodiff tape before a `backward` call, for instance, is
billed to no span, so it does not inflate the self time of its caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


class _Seen:
    """Objects met so far in this process, kept alive so ids stay unique."""

    def __init__(self):
        self._objects: dict[tuple, object] = {}

    def first(self, kind: str, obj) -> bool:
        key = (kind, id(obj))
        if key in self._objects:
            return False
        self._objects[key] = obj
        return True


def tape_size(root) -> int | None:
    """Tensors reachable from `root` through the autodiff tape, or None when
    the tensor no longer exposes its parents."""
    if not hasattr(root, "_parents"):
        return None
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


# Attributes read from a call's arguments, before it runs ...


def _features_args(seen, args, kwargs):
    return {"new": int(seen.first("features", args[0]))}


def _encode_args(seen, args, kwargs):
    pdgs = list(args[0])
    return {
        "stmts": sum(len(p.nodes) for p in pdgs),
        "new_stmts": sum(len(p.nodes) for p in pdgs if seen.first("encode", p)),
    }


def _backward_args(seen, args, kwargs):
    size = tape_size(args[0])
    return {} if size is None else {"tape": size}


def _mask_args(seen, args, kwargs):
    config = args[3] if len(args) > 3 else kwargs.get("config")
    attrs = {"stmts": len(args[0].nodes)}
    if getattr(config, "iterations", None) is not None:
        attrs["iters"] = config.iterations
    return attrs


# ... and from its result.


def _corpus_result(result):
    return {"skipped": sum(1 for e in result if e.pdg is None)}


def _method_result(result):
    return {"stmts": len(result.stmts)}


def _pdg_result(result):
    return {"stmts": len(result.nodes), "edges": len(result.edges)}


def _mask_result(result):
    values = result.values()
    return {"spread": float(values.max() - values.min()) if values.size else 0.0}


# (defining module, attribute path, span name, from arguments, from result)
TARGETS = (
    ("vulgraph.corpus", "load_corpus", "corpus.load", None, _corpus_result),
    ("vulgraph.corpus", "generate_planted_corpus", "corpus.gen", None, None),
    ("vulgraph.frontend.parser", "parse_method", "frontend.parse", None, _method_result),
    ("vulgraph.frontend.pdg", "build_pdg", "frontend.deps", None, _pdg_result),
    ("vulgraph.features", "extract_method_features", "features.extract", _features_args, None),
    ("vulgraph.encoders", "encode_method_batch", "encoders.encode", _encode_args, None),
    ("vulgraph.fagcn", "graph_logits", "fagcn.graph_logits", None, None),
    ("vulgraph.autodiff.tensor", "Tensor.backward", "autodiff.backward", _backward_args, None),
    ("vulgraph.autodiff.params", "Adam.step", "autodiff.adam_step", None, None),
    ("vulgraph.explain", "learn_edge_mask", "explain.learn_mask", _mask_args, _mask_result),
    ("vulgraph.explain", "masked_adjacency", "explain.masked_adjacency", None, None),
    ("vulgraph.patterns", "mine_patterns", "patterns.mine", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.excluded_s = 0.0  # CPU time spent reading attributes
        self._stack: list[int] = []
        self._seen = _Seen()

    def clock(self) -> float:
        """Process CPU time, less the time spent reading attributes."""
        return time.process_time() - self.excluded_s

    def _attributes(self, span: dict, read, *args) -> None:
        start = time.process_time()
        try:
            span.update(read(*args))
        except (AttributeError, IndexError, TypeError):
            pass  # the metrics that need these attributes report missing
        self.excluded_s += time.process_time() - start

    def wrap(self, fn, name: str, from_args=None, from_result=None):
        spans, stack, seen = self.spans, self._stack, self._seen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "parent": stack[-1] if stack else None}
            if from_args is not None:
                self._attributes(span, from_args, seen, args, kwargs)
            spans.append(span)
            stack.append(span["id"])
            span["start"] = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = self.clock()
                stack.pop()
            if from_result is not None:
                self._attributes(span, from_result, result)
            return result

        return traced

    def install(self) -> None:
        importlib.import_module("vulgraph.cli")  # loads every layer
        for module_name, path, name, from_args, from_result in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self.wrap(original, name, from_args, from_result)
            if outer:  # a method: callers find it on the class
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").partition(".")[0] != "vulgraph":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "missing": self.missing, "excluded_s": self.excluded_s}
