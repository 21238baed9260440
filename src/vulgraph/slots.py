"""A chunk's dependence graph as a slot list, and the sums taken over it.

A slot is one directed (src, dst) pair of statement rows. Each unordered
pair of statements that one or more dependence edges join gives two slots,
one per direction; parallel edges share them, and an edge from a statement
to itself gives none. Each statement also has one self-loop slot. Rows are
offset into the chunk, so its methods share no slot, and slots are sorted by
destination, then source, so the slots into a row form one contiguous
segment, never empty. Everything here takes time and memory in proportion
to the slots, that is, to the statements plus the edges.

Every sum over slots adds one slot after another in slot order into zero,
as np.add.at adds, so it is bitwise np.add.at's sum, signed zeros included.
So the sum over the slots out of each row, which a gather's gradient takes,
is the same sum over the reverse slots into it (`Slots.rev`), bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .frontend import Pdg

# propagate and slot_products take a sum over at most this many values from
# one array of its terms, and a larger one offset by offset, with no array
# larger than their output. Timed on a 2-core x86-64 host with one BLAS
# thread, over planted chunks of 1 to 32 methods and generated methods of 40
# to 420 statements, 64 columns: the whole array is about twice as fast up
# to 2,000 values, the two break even between about 9,000 and 25,000, and
# from 25,000 values up offset by offset is 2 to 4 times as fast, since
# arrays above glibc's 128 KiB mmap threshold (16,384 values) take fresh
# pages. Explaining a planted method sums about 1,000 values at a time, and
# a 420-statement method about 150,000.
WHOLE = 1 << 14


class Offsets(NamedTuple):
    """How propagate and slot_products go offset by offset: the runs longest
    first (`rows`, undone by `inverse`), so the runs that reach an offset
    are a leading block of them; `order` lists the rows at offset 0 of every
    run, then at offset 1 of the runs that reach it, and so on; `later`
    gives, for each offset from 1 up, how many runs reach it and where their
    rows sit in `order`."""

    rows: np.ndarray
    inverse: np.ndarray
    order: np.ndarray
    later: list


class Runs:
    """Consecutive runs of rows, none empty: ids[k] is the run of row k,
    nondecreasing from 0. A sum over a run adds its rows one after another
    into zero, the order in which np.add.at adds them."""

    def __init__(self, ids: np.ndarray):
        self.ids = ids
        self.starts = np.flatnonzero(np.diff(ids, prepend=-1))
        # by row width, each value's (run, column) cell, flattened; making
        # it was about 6 of the 10 us of a sum over one planted method's
        # slots at 64 columns
        self.cells = {}

    @functools.cached_property
    def offsets(self) -> Offsets:
        counts = np.diff(self.starts, append=len(self.ids))
        rows = np.argsort(-counts, kind="stable")
        order, later = [self.starts[rows]], []
        at = len(rows)
        for r in range(1, int(counts.max(initial=1))):
            reach = int(np.count_nonzero(counts > r))
            order.append(order[0][:reach] + r)
            later.append((reach, at, at + reach))
            at += reach
        return Offsets(rows, np.argsort(rows), np.concatenate(order), later)

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Each run's sum of the rows of `values`, by one np.bincount over
        each value's (run, column) cell."""
        width = values.size // len(values)
        if width not in self.cells:
            self.cells[width] = (self.ids[:, None] * width + np.arange(width)).ravel()
        out = np.bincount(self.cells[width], weights=values.ravel(), minlength=len(self.starts) * width)
        return out.reshape((len(self.starts),) + values.shape[1:])


@dataclass(frozen=True)
class Slots:
    """A chunk's slot list; see the module docstring."""

    src: np.ndarray  # each slot's source row
    dst: np.ndarray  # each slot's destination row, nondecreasing
    rev: np.ndarray  # the slot of the opposite direction
    pair: np.ndarray  # the slot's statement pair, in dependence_pairs order; the pair count for a self loop
    runs: Runs  # the slots into each row
    spans: list  # each method's rows, [start, end)


def dependence_pairs(pdg: Pdg) -> list[tuple[tuple[int, int], list[int]]]:
    """The unordered statement pairs joined by dependence edges, in order of
    first appearance, each with the positions of its edges. An edge from a
    statement to itself joins no pair: the self loop stands for it."""
    pairs: dict[tuple[int, int], list[int]] = {}
    for pos, e in enumerate(pdg.edges):
        if e.src != e.dst:
            pairs.setdefault((min(e.src, e.dst), max(e.src, e.dst)), []).append(pos)
    return list(pairs.items())


def slot_list(pdgs: list[Pdg]) -> Slots:
    """The slot list of the methods' statements, laid end to end."""
    src, dst, pair, spans = [], [], [], []
    rows = n_pairs = 0
    for pdg in pdgs:
        ends = np.array([key for key, _ in dependence_pairs(pdg)], dtype=np.int64).reshape(-1, 2) + rows
        ids = np.arange(n_pairs, n_pairs + len(ends))
        loops = np.arange(rows, rows + len(pdg.nodes))
        src += [ends[:, 0], ends[:, 1], loops]
        dst += [ends[:, 1], ends[:, 0], loops]
        pair += [ids, ids, np.full(len(loops), -1)]
        spans.append((rows, rows + len(pdg.nodes)))
        rows += len(pdg.nodes)
        n_pairs += len(ends)
    src, dst, pair = (np.concatenate(part) if part else np.zeros(0, dtype=np.int64) for part in (src, dst, pair))
    order = np.lexsort((src, dst))
    src, dst, pair = src[order], dst[order], pair[order]
    pair[pair < 0] = n_pairs
    # The slots are closed under reversal, so the k-th slot by (src, dst)
    # is the reverse of the k-th by (dst, src).
    return Slots(
        src=src, dst=dst, rev=np.lexsort((dst, src)), pair=pair,
        runs=Runs(dst), spans=spans,
    )


def propagate(slots: Slots, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row's sum over its slots of w[slot] * x[src[slot]]: the weighted
    adjacency times x. With w[slots.rev] in place of w, it is the
    transposed adjacency times x."""
    if len(slots.src) * x.shape[1] <= WHOLE:
        return slots.runs.sum(x[slots.src] * w[:, None])
    by = slots.runs.offsets
    src, w = slots.src[by.order], w[by.order]
    first = len(by.rows)
    out = x[src[:first]]
    out *= w[:first, None]
    out += 0.0  # into zero: a lone -0.0 term sums to 0.0
    for reach, a, b in by.later:
        terms = x[src[a:b]]
        terms *= w[a:b, None]
        out[:reach] += terms
    return out[by.inverse]


def slot_products(slots: Slots, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each slot's g[dst] . x[src]: the gradient with respect to w of
    propagate(slots, w, x), given the output's gradient g."""
    if len(slots.src) * x.shape[1] <= WHOLE:
        return (g[slots.dst] * x[slots.src]).sum(axis=1)
    by = slots.runs.offsets
    src, g = slots.src[by.order], g[by.rows]
    first = len(by.rows)
    products = np.empty(len(src))
    terms = x[src[:first]]
    terms *= g
    products[:first] = terms.sum(axis=1)
    for reach, a, b in by.later:
        terms = x[src[a:b]]
        terms *= g[:reach]
        products[a:b] = terms.sum(axis=1)
    out = np.empty(len(src))
    out[by.order] = products
    return out


def normalize(slots: Slots, w: np.ndarray) -> tuple[np.ndarray, tuple]:
    """w / (deg[dst]^{1/2} deg[src]^{1/2}) (Kipf & Welling, ICLR 2017), deg
    the sum of w over the slots into each row, and the intermediates that
    normalize_grad reads."""
    # 1 / deg^{1/2}, not deg^{-1/2}: the two differ in the last bit.
    degree = slots.runs.sum(w)
    root = np.power(degree, 0.5)
    d = 1.0 / root
    scale = d[slots.dst] * d[slots.src]
    return scale * w, (degree, root, d, scale)


def normalize_grad(slots: Slots, grad: np.ndarray, w: np.ndarray, saved: tuple) -> np.ndarray:
    """The gradient with respect to w of normalize(slots, w), given the
    output's gradient: the per-op chain rule, step by step in the order of
    the per-op tape (tests/oracles.py normalize), so it is bitwise its."""
    degree, root, d, scale = saved
    d_scale = grad * w
    d_d = np.zeros(len(d))
    np.add.at(d_d, slots.dst, d_scale * d[slots.src])
    np.add.at(d_d, slots.src, d_scale * d[slots.dst])
    d_root = -d_d / (root * root)
    d_degree = d_root * 0.5 * np.power(degree, -0.5)
    return grad * scale + d_degree[slots.dst]
