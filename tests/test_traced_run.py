"""A traced pipeline yields every per-layer metric the benchmark declares.

Runs a small gen-corpus → train → detect → explain round through
perfbench/child.py with the tracer installed, one subprocess per command,
and reduces the recorded spans with perfbench/layers.py, as the benchmark's
traced run does. A function the tracer can no longer wrap, or a metric that
comes out missing or non-finite, would leave the benchmark's last line
without a usable result.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@dataclass
class _Op:
    """The fields of perfbench/run.py's operation record that layers reads."""

    stage: str
    trace: dict
    exit: int = 0
    rss_mb: float = 0.0
    stmts: int | None = None
    failed: bool = False


def _layer_metrics():
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.layer_metrics


def test_traced_round_yields_every_per_layer_metric(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 1, "explain_iterations": 3}), encoding="utf-8")
    corpus, model = tmp_path / "corpus.jsonl", tmp_path / "model.json"
    test = tmp_path / "split.test.jsonl"
    commands = [
        ("gen-corpus", ["--n", 40, "--seed", 1, "--out", corpus]),
        ("train", [corpus, "--config", config, "--out", model, "--split-out", tmp_path / "split"]),
        ("detect", [test, "--model", model, "--out", tmp_path / "detections.json"]),
        ("explain", [test, "--model", model, "--config", config, "--out", tmp_path / "explanations"]),
    ]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    ops = []
    for stage, args in commands:
        trace = tmp_path / f"{stage}.trace.json"
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "child.py"), str(trace), "--", stage, *map(str, args)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        ops.append(_Op(stage, json.loads(trace.read_text(encoding="utf-8"))))
    assert any(span["name"] == "explain.learn_mask" for span in ops[-1].trace["spans"])

    metrics, missing = _layer_metrics()(ops, 1, 0.0)
    assert missing == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert [m["name"] for m in declared if m["name"] not in metrics] == []
    json.dumps(metrics, allow_nan=False)
