"""Run one `vulgraph` CLI command in this process for the benchmark.

    python3 perfbench/child.py TRACE_JSON -- CLI_ARGS...

The address space is capped at CAP_MB (RLIMIT_AS) before the program
loads, so a method that needs more memory fails with MemoryError inside
this process instead of exhausting the machine. A TRACE_JSON path installs
the wrappers of `tracer.py` first and receives the recorded spans; `-`
wraps nothing. The exit code is the CLI's.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAP_MB = 2048  # address-space cap of every child process


def main(argv: list[str]) -> int:
    trace_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py TRACE_JSON -- CLI_ARGS...")
    cap = CAP_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from vulgraph.cli import main as cli_main

    code = cli_main(cli_args)
    if tracer is not None:
        Path(trace_path).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
