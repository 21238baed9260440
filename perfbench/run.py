"""The vulgraph benchmark: one command, three workloads (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. Each workload is one closed-loop
caller: it starts one `vulgraph` CLI child process at a time, through
`child.py`, under an address-space cap, waits for it, and checks its
output. Between commands it times `reference.py`, and it scales the gated
times by that to take out the host's drifting speed. With `--trace 0` the
last stdout line is a JSON object with the end-to-end metrics; with `--trace 1` the workload runs one untraced and one
traced round and the object holds the per-layer metrics instead. A full
record goes to `.perfbench/results/`. The exit code is 1 when an output
check fails and 2 when the checkout holds no vulgraph sources.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from child import CAP_MB
from largegen import large_method
from layers import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

# one BLAS thread per child: an idle BLAS worker spins and bills CPU time
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
RUN_LIMIT_S = 165.0  # the whole run, set-up included, ends within this
MIN_ROUNDS = 2  # repetitions compared byte for byte
SETUP_REPS = 3  # helper model trainings in set-up
COLD_STARTS = 7  # CLI start-ups in the set-up of planted-pipeline
HELPER_METHODS = 100  # corpus of the helper model that scan and large-methods use
HELPER_CONFIG = {"epochs": 2}
PLANTED_METHODS = 200
PLANTED_CONFIG = {"epochs": 5}
SCAN_METHODS = 2000
LARGE_SIZES = (50, 50, 100, 100, 200, 420)  # statements per method, one op each
LARGE_CONFIG = {"explain_iterations": 20}
# CPU seconds of reference.py on the machine the benchmark was written on;
# gated times are scaled to a host on which it takes this long
REFERENCE_S = 0.4
REFERENCE_EVERY_S = 3.0  # wall seconds between reference runs, at most one op late
AUC_FLOOR = 0.90
INTERP_FLOOR = 0.70


@dataclass
class Op:
    """One CLI invocation and what the benchmark saw of it."""

    stage: str
    wall_s: float
    cpu_s: float  # user + system time of the child
    exit: int
    rss_mb: float
    stmts: int | None = None  # statements of the single method the op handles
    methods: int = 0  # methods the op scored or explained
    problems: list = field(default_factory=list)
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        return self.exit != 0 or bool(self.problems)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def corpus_ids(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["id"] for line in fh if line.strip()]


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return path


class Runner:
    """Starts child processes one at a time and keeps the timed-phase ops."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.deadline = started + RUN_LIMIT_S
        self.ops: list[Op] = []
        self.digests: dict[str, str] = {}
        self.reference_s: list[float] = []  # CPU seconds of each reference.py run
        self._reference_at = 0.0
        self._count = 0

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def _spawn(self, argv: list[str]) -> Op:
        """Run one child to its end; the returned Op has stage `-`."""
        self._count += 1
        with open(self.work / f"op{self._count:04d}.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=CHILD_ENV,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                cpu, rss_mb = usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
            except ChildProcessError:  # the timeout's kill reaped it first
                cpu, rss_mb = 0.0, 0.0
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        return Op("-", wall, cpu, proc.returncode, rss_mb)

    def reference(self) -> None:
        """Time `reference.py` once; its samples scale the gated times."""
        op = self._spawn([sys.executable, str(HERE / "reference.py")])
        if op.exit:
            raise RuntimeError("reference.py failed; see the logs in " + str(self.work))
        self.reference_s.append(op.cpu_s)
        self._reference_at = time.perf_counter()

    def host_scale(self, first: int) -> float:
        """REFERENCE_S over the median reference time from sample `first` on:
        the factor that takes CPU times measured since then to a host on
        which the reference needs REFERENCE_S."""
        return REFERENCE_S / statistics.median(self.reference_s[first:])

    def cli(self, stage: str, args: list, *, traced=False, record=True, stmts=None) -> Op:
        trace_path = self.work / f"op{self._count + 1:04d}.trace.json"
        op = self._spawn([sys.executable, str(HERE / "child.py"),
                          str(trace_path) if traced else "-", "--", stage, *map(str, args)])
        op.stage, op.stmts = stage, stmts
        if time.perf_counter() - self._reference_at >= REFERENCE_EVERY_S:
            self.reference()
        if traced and trace_path.exists():
            op.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        if record:
            self.ops.append(op)
        return op

    def same_bytes(self, op: Op, key: str, path: Path) -> None:
        """Report bytes must repeat exactly across repetitions of one seed."""
        if not path.is_file():
            op.problems.append(f"{path.name} was not written")
            return
        digest = sha256(path)
        if self.digests.setdefault(key, digest) != digest:
            op.problems.append(f"{path.name} differs from the first repetition")


def check_detections(op: Op, path: Path, ids: list[str]) -> list[dict]:
    """Every input method listed once, scores in [0, 1], ranks 1..n."""
    try:
        rows = json.loads(path.read_text(encoding="utf-8"))["methods"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        op.problems.append(f"detection report unreadable: {exc}")
        return []
    listed = [row["method"] for row in rows]
    if sorted(listed) != sorted(ids):
        op.problems.append("detection report does not list every input method exactly once")
    if any(not 0.0 <= row["score"] <= 1.0 for row in rows):
        op.problems.append("detection score outside [0, 1]")
    if [row["rank"] for row in rows] != list(range(1, len(rows) + 1)):
        op.problems.append("detection ranks are not 1..n")
    return rows


def check_explanations(op: Op, path: Path, expected: set[str]) -> None:
    try:
        reports = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        op.problems.append(f"explanations unreadable: {exc}")
        return
    explained = [r["method"] for r in reports]
    if len(explained) != len(expected) or set(explained) != expected:
        op.problems.append(f"{len(explained)} explanations for {len(expected)} expected methods")


class Workload:
    """Set-up, then rounds of work; a round is the unit `round_cpu_s` measures."""

    def __init__(self, runner: Runner, seed: int):
        self.run = runner
        self.seed = seed
        self.work = runner.work
        self.setup_once_s = 0.0  # one-off set-up steps
        self.setup_reps: list[float] = []  # the repeated set-up step
        self.train_cpu: list[float] = []
        self.problems: list[str] = []  # failed checks outside any timed op
        self.notes: list[str] = []
        self.epochs_run = 0  # training epochs in the traced round

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int, traced: bool) -> None:
        raise NotImplementedError

    def summary(self) -> dict:
        """Workload-specific figures printed beside the metrics:
        name -> (value, unit)."""
        return {}

    def helper_model(self) -> Path:
        """Set-up of scan and large-methods: train a small model SETUP_REPS
        times from one generated corpus and check the checkpoints match."""
        config = write_json(self.work / "helper.config.json", HELPER_CONFIG)
        digests = set()
        for rep in range(SETUP_REPS):
            corpus, model = self.work / f"helper{rep}.jsonl", self.work / f"helper{rep}.model"
            gen = self.run.cli("gen-corpus", ["--n", HELPER_METHODS, "--seed", self.seed * 4 + 1,
                                              "--out", corpus], record=False)
            train = self.run.cli("train", [corpus, "--config", config, "--out", model], record=False)
            if gen.exit or train.exit:
                raise RuntimeError("helper model set-up failed; see the logs in " + str(self.work))
            self.setup_reps.append(gen.cpu_s + train.cpu_s)
            self.train_cpu.append(train.cpu_s)
            digests.add(sha256(model))
        if len(digests) != 1:
            self.problems.append("helper checkpoints differ across set-up repetitions")
        return self.work / "helper0.model"


class PlantedPipeline(Workload):
    """The README round trip: gen-corpus, train, detect, explain, evaluate, mine."""

    def __init__(self, runner: Runner, seed: int):
        super().__init__(runner, seed)
        self.auc = self.interp = None  # from the latest evaluation report

    def setup(self) -> None:
        # cold starts of the CLI; they also warm bytecode and file caches
        for _ in range(COLD_STARTS):
            op = self.run.cli("gen-corpus", ["--n", 20, "--seed", self.seed,
                                             "--out", self.work / "warm.jsonl"], record=False)
            if op.exit:
                raise RuntimeError("the vulgraph CLI does not start; see " + str(self.work))
            self.setup_reps.append(op.cpu_s)
        self.config = write_json(self.work / "planted.config.json", PLANTED_CONFIG)

    def round(self, index: int, traced: bool) -> None:
        run, d = self.run, self.work / f"round{index}"
        d.mkdir()

        def cli(stage, args):
            op = run.cli(stage, args, traced=traced)
            return None if op.exit else op

        corpus, model, test = d / "corpus.jsonl", d / "model.json", d / "split.test.jsonl"
        op = cli("gen-corpus", ["--n", PLANTED_METHODS, "--seed", self.seed, "--out", corpus])
        if op is None:
            return
        if len(set(corpus_ids(corpus))) != PLANTED_METHODS:
            op.problems.append(f"corpus does not hold {PLANTED_METHODS} distinct methods")
        run.same_bytes(op, "corpus", corpus)

        op = cli("train", [corpus, "--config", self.config, "--out", model,
                           "--split-out", d / "split"])
        if op is None:
            return
        self.train_cpu.append(op.cpu_s)
        run.same_bytes(op, "model", model)
        log = Path(f"{model}.log.json")
        run.same_bytes(op, "train-log", log)
        if traced:
            self.epochs_run = len(json.loads(log.read_text(encoding="utf-8"))["epochs"])

        detections = d / "detections.json"
        ids = corpus_ids(test)
        op = cli("detect", [test, "--model", model, "--out", detections])
        if op is None:
            return
        op.methods = len(ids)
        rows = check_detections(op, detections, ids)
        run.same_bytes(op, "detections", detections)

        explanations = d / "explanations" / "explanations.json"
        flagged = {row["method"] for row in rows if row["decision"] == "V"}
        op = cli("explain", [test, "--model", model, "--out", d / "explanations"])
        if op is None:
            return
        op.methods = len(flagged)
        check_explanations(op, explanations, flagged)
        run.same_bytes(op, "explanations", explanations)

        report = d / "report.json"
        op = cli("evaluate", ["--detections", detections, "--corpus", test,
                              "--explanations", explanations, "--out", report])
        if op is None:
            return
        figures = json.loads(report.read_text(encoding="utf-8"))
        self.auc = figures.get("auc")
        self.interp = figures.get("interpretation", {}).get("accuracy")
        if self.auc is None or self.auc < AUC_FLOOR:
            op.problems.append(f"auc {self.auc} below the {AUC_FLOOR} floor")
        if self.interp is None or self.interp < INTERP_FLOOR:
            op.problems.append(f"interp_accuracy {self.interp} below the {INTERP_FLOOR} floor")
        run.same_bytes(op, "report", report)

        op = cli("mine", [explanations, "--out", d / "patterns"])
        if op is not None:
            run.same_bytes(op, "patterns", d / "patterns" / "patterns.json")

    def summary(self) -> dict:
        if self.auc is None:
            self.problems.append("the acceptance floors were never evaluated")
        return {"auc": (self.auc, "ratio"), "interp_accuracy": (self.interp, "ratio")}


class Scan(Workload):
    """`vulgraph detect` over a fresh 2000-method planted corpus."""

    def setup(self) -> None:
        self.corpus = self.work / "scan.jsonl"
        op = self.run.cli("gen-corpus", ["--n", SCAN_METHODS, "--seed", self.seed * 4,
                                         "--out", self.corpus], record=False)
        if op.exit:
            raise RuntimeError("scan corpus generation failed; see " + str(self.work))
        self.setup_once_s = op.cpu_s
        self.ids = corpus_ids(self.corpus)
        self.model = self.helper_model()

    def round(self, index: int, traced: bool) -> None:
        out = self.work / f"detections{index}.json"
        op = self.run.cli("detect", [self.corpus, "--model", self.model, "--out", out],
                          traced=traced)
        op.methods = len(self.ids)
        if op.exit == 0:
            check_detections(op, out, self.ids)
            self.run.same_bytes(op, "detections", out)


class LargeMethods(Workload):
    """The size sweep: detect, then explain, one generated method at a time."""

    def setup(self) -> None:
        start = time.process_time()
        self.methods = []
        for i, size in enumerate(LARGE_SIZES):
            method_id = f"big{i}_{size}"
            source = large_method(i, self.seed * 64 + i, f"big_{i}", size)
            path = self.work / f"large{i}.jsonl"
            entry = {"id": method_id, "source": source, "pdg": None, "label": "NV", "fix": None}
            path.write_text(json.dumps(entry, sort_keys=True) + "\n", encoding="utf-8")
            self.methods.append((method_id, size, path))
        self.config = write_json(self.work / "large.config.json", LARGE_CONFIG)
        self.setup_once_s = time.process_time() - start
        self.model = self.helper_model()

    def round(self, index: int, traced: bool) -> None:
        run, d = self.run, self.work / f"round{index}"
        d.mkdir()
        for i, (method_id, size, path) in enumerate(self.methods):
            out = d / f"detections{i}.json"
            op = run.cli("detect", [path, "--model", self.model, "--out", out],
                         traced=traced, stmts=size)
            op.methods = 1
            if op.exit == 0:
                check_detections(op, out, [method_id])
                run.same_bytes(op, f"detections{i}", out)
            out = d / f"explanations{i}"
            op = run.cli("explain", [path, "--model", self.model, "--config", self.config,
                                     "--method", method_id, "--out", out],
                         traced=traced, stmts=size)
            op.methods = 1
            if op.exit == 0:
                check_explanations(op, out / "explanations.json", {method_id})
                run.same_bytes(op, f"explanations{i}", out / "explanations.json")


WORKLOADS = {"planted-pipeline": PlantedPipeline, "scan": Scan, "large-methods": LargeMethods}


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "cap_mb": CAP_MB,
    }


def measure(runner: Runner, wl: Workload, args) -> tuple[list[list[Op]], float, list[float]]:
    """Set-up, then the closed loop of rounds. Returns the rounds, the host
    scale of set-up, and the host scale of each round. The reference runs
    before and after set-up, after every round, and every
    REFERENCE_EVERY_S in between; a round's scale comes from the samples
    taken from just before it to just after it."""
    runner.reference()
    wl.setup()
    runner.reference()
    setup_scale = runner.host_scale(0)
    # rounds until --seconds have passed (at least MIN_ROUNDS); a traced run
    # makes one untraced round, then one traced round
    rounds: list[list[Op]] = []
    scales: list[float] = []
    timed_start = time.perf_counter()
    while True:
        first, first_sample = len(runner.ops), len(runner.reference_s) - 1
        wl.round(len(rounds), traced=bool(args.trace) and len(rounds) == 1)
        runner.reference()
        rounds.append(runner.ops[first:])
        scales.append(runner.host_scale(first_sample))
        elapsed = time.perf_counter() - timed_start
        if len(rounds) >= MIN_ROUNDS and (args.trace or elapsed >= args.seconds):
            break
        last = sum(op.wall_s for op in rounds[-1])
        if runner.remaining() < 1.2 * last:
            wl.notes.append(f"stopped after {len(rounds)} round(s) at the run time limit")
            break
    return rounds, setup_scale, scales


def round_cpu(ops: list[Op]) -> float:
    """CPU seconds of the round's commands that ran to completion, so that
    one which dies at the memory cap shows in `ok_ratio` alone, not as time
    the program needed."""
    return sum(op.cpu_s for op in ops if op.exit == 0)


def end_to_end(wl: Workload, rounds: list[list[Op]], ops: list[Op],
               setup_scale: float, scales: list[float]) -> dict:
    """The gated figures; times are scaled to the reference host (README.md).
    Peak RSS, like time, counts only the commands that ran to completion."""
    failed = sum(op.failed for op in ops)
    setup = wl.setup_once_s + statistics.median(wl.setup_reps)
    return {
        "setup_s": (setup_scale * setup, "s"),
        "round_cpu_s": (statistics.median(k * round_cpu(r) for k, r in zip(scales, rounds)), "s"),
        "peak_rss_mb": (max((op.rss_mb for op in ops if op.exit == 0), default=0.0), "MB"),
        "ok_ratio": ((len(ops) - failed) / len(ops), "ratio"),
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vulgraph" / "cli.py").is_file():
        print(f"no vulgraph sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = STATE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, started)
    wl = WORKLOADS[args.workload](runner, args.seed)
    try:
        rounds, setup_scale, scales = measure(runner, wl, args)
    except RuntimeError as exc:
        print(f"benchmark stopped: {exc}", file=sys.stderr)
        return 1

    ops = runner.ops
    failed = sum(op.failed for op in ops)
    figures = end_to_end(wl, rounds, ops, setup_scale, scales)
    detects = [op for op in ops if op.stage == "detect" and op.exit == 0]
    scored = sum(op.methods for op in detects)
    explains = [op for op in ops if op.stage == "explain" and op.exit == 0]
    explained = sum(op.methods for op in explains)
    summary = {
        "reference_s": (statistics.median(runner.reference_s), "s"),
        "setup_unscaled_s": (figures["setup_s"][0] / setup_scale, "s"),
        "round_cpu_unscaled_s": (statistics.median(round_cpu(r) for r in rounds), "s"),
        "wall_s": (statistics.median(sum(op.wall_s for op in r) for r in rounds), "s"),
        "train_cpu_s": (statistics.median(wl.train_cpu) if wl.train_cpu else None, "s"),
        "detect_methods_per_cpu_s": (scored / sum(op.cpu_s for op in detects)
                                     if scored else None, "1/s"),
        "failed_ratio": (failed / len(ops), "ratio"),
        "explain_s_per_method": (sum(op.cpu_s for op in explains) / explained
                                 if explained else None, "s"),
        "auc": (None, "ratio"),
        "interp_accuracy": (None, "ratio"),
        **wl.summary(),
    }
    missing: list[str] = []
    if args.trace and len(rounds) < 2:
        wl.problems.append("the traced round did not run before the time limit")
    if args.trace:
        overhead = sum(op.cpu_s for op in rounds[-1]) - sum(op.cpu_s for op in rounds[0])
        metrics, missing = layer_metrics(rounds[-1], wl.epochs_run, overhead)
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in figures.items()}
    problems = wl.problems + [f"{op.stage}: {p}" for op in ops for p in op.problems]
    correct = not problems

    record = {
        "environment": environment(args),
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "notes": wl.notes,
        "setup": {"once_s": wl.setup_once_s, "repeated_s": wl.setup_reps},
        "reference_s": runner.reference_s,
        "host_scale": {"setup": setup_scale, "rounds": scales},
        "rounds": [[{k: v for k, v in asdict(op).items() if k != "trace"} for op in r]
                   for r in rounds],
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
        "summary": {name: {"value": v, "unit": u} for name, (v, u) in summary.items()},
        "metrics": metrics,
        "missing": missing,
    }
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_json(Path(f"{stem}.json"), record)
    if args.trace:
        spans = [{"stage": op.stage, **op.trace} for op in rounds[-1] if op.trace]
        write_json(Path(f"{stem}.spans.json"), spans)

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{len(ops)} operation(s), {failed} failed")
    for name, (value, unit) in {**figures, **summary}.items():
        shown = "n/a (not run by this workload)" if value is None else f"{value:.6g}"
        print(f"  {name:24s} {shown} {unit}")
    for name in missing:
        print(f"  {name:24s} missing (its traced function is gone)")
    for problem in problems:
        print(f"  check failed: {problem}")
    for note in wl.notes:
        print(f"  note: {note}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
