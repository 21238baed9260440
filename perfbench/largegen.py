"""Seeded generator of large mini-C methods for the size sweep.

Every method is valid under docs/grammar.md: declarations, assignments,
calls, and nested `if`/`while` blocks, ending in a `return`. The statement
count (as the frontend counts statements: one per declaration, assignment,
call, predicate and return) is exactly the requested size, and variables
are drawn from a sliding window of recent definitions so each statement
carries about 1.3-2 dependence edges.

Two seeds drive a method. The shape seed picks its structure: statement
kinds, nesting, and which variables each statement reads and writes, so it
fixes the dependence graph and with it the work and memory of the
pipeline. The surface seed picks identifier names, constants and called
functions, which change the tokens but not the graph.
"""

from __future__ import annotations

import random

_CALLS = ("log_event", "trace_step", "touch_sensor", "check_value")
_MAX_DEPTH = 3
_WINDOW = 6


class _Writer:
    def __init__(self, rng: random.Random, surface: random.Random, budget: int):
        self.rng = rng  # shape decisions
        self.surface = surface  # names, constants and callees
        self.prefix = surface.choice("abcdefgh") + surface.choice("klmnpqrs")
        self.budget = budget  # statements left, the final return excluded
        self.lines: list[str] = []
        self.names: list[str] = ["n", "cap"]

    def const(self, low: int, high: int) -> int:
        return self.surface.randint(low, high)

    def recent(self) -> str:
        return self.rng.choice(self.names[-_WINDOW:])

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * (depth + 1) + text)
        self.budget -= 1

    def simple(self, depth: int) -> None:
        roll = self.rng.random()
        if roll < 0.3 or len(self.names) < 4:
            name = f"{self.prefix}{len(self.names)}"
            self.emit(depth, f"int {name} = {self.recent()} + {self.const(1, 9)};")
            self.names.append(name)
        elif roll < 0.75:
            target = self.rng.choice(self.names[2:][-_WINDOW:])
            self.emit(depth, f"{target} = {self.recent()} * {self.const(2, 5)};")
        else:
            self.emit(depth, f"{self.surface.choice(_CALLS)}({self.recent()});")

    def block(self, depth: int, size: int) -> None:
        """Emit `size` statements at `depth`, nesting while budget allows."""
        stop = self.budget - size
        while self.budget > stop:
            room = self.budget - stop
            if (
                depth < _MAX_DEPTH
                and room >= 4
                and len(self.names) >= 4
                and self.rng.random() < 0.18
            ):
                inner = self.rng.randint(2, min(8, room - 2))
                scope = len(self.names)
                if self.rng.random() < 0.6:
                    self.emit(depth, f"if ({self.recent()} < {self.recent()}) {{")
                    self.block(depth + 1, inner)
                else:
                    counter = self.rng.choice(self.names[2:][-_WINDOW:])
                    self.emit(depth, f"while ({counter} > {self.const(0, 3)}) {{")
                    self.block(depth + 1, inner - 1)
                    self.emit(depth + 1, f"{counter} = {counter} - 1;")
                self.lines.append("    " * (depth + 1) + "}")
                del self.names[scope:]  # block-local declarations go out of scope
            else:
                self.simple(depth)


def large_method(shape_seed: int, surface_seed: int, name: str, n_stmts: int) -> str:
    """Source of one method named `name` with exactly `n_stmts` statements."""
    if n_stmts < 6:
        raise ValueError("n_stmts must be at least 6")
    writer = _Writer(random.Random(shape_seed), random.Random(surface_seed), n_stmts - 1)
    writer.block(0, n_stmts - 1)
    body = "\n".join(writer.lines)
    return f"int {name}(int n, int cap) {{\n{body}\n    return {writer.names[-1]};\n}}\n"
