import ast
import gc
import json
import os
import pathlib
import subprocess
import sys
import warnings
import zlib

import numpy as np
import pytest

from vulgraph import gradcheck
from vulgraph.autodiff import Adam, ParamStore, Tensor, glorot, load_checkpoint, save_checkpoint
from vulgraph.encoders import _sigmoid
from vulgraph.errors import CheckpointError, ShapeMismatch
from vulgraph.rng import Rng

import oracles
from oracles import finite_diff, rel_err, scatter, segment_max, uniform
from tensor_ops import concat, rows

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "vulgraph"

TOL = 1e-4


def _rand(rng, *shape):
    return np.array([uniform(rng, -2.0, 2.0) for _ in range(int(np.prod(shape)))]).reshape(shape)


def check_grads(make_loss, arrays, tol=TOL, eps=1e-6):
    """Reverse-mode gradients of make_loss(*tensors) vs central differences."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = make_loss(*tensors)
    loss.backward()
    for i, (t, a) in enumerate(zip(tensors, arrays)):
        work = [arr.copy() for arr in arrays]

        def f(_x, i=i, work=work):
            fixed = [Tensor(w) for w in work]
            return float(make_loss(*fixed).data)

        num = finite_diff(f, work[i], eps=eps)
        assert t.grad is not None, f"input {i} missing gradient"
        err = rel_err(t.grad, num)
        assert err < tol, f"input {i}: rel err {err}"


# --- per-op gradient checks ----------------------------------------------------


def test_grad_add_sub_with_leading_broadcast():
    rng = Rng(1)
    a, b, row, scalar = _rand(rng, 4, 3), _rand(rng, 4, 3), _rand(rng, 3), _rand(rng)
    check_grads(lambda x, y: (x + y).sum(), [a, b])
    check_grads(lambda x, y: (x - y).sum(), [a, b])
    check_grads(lambda x, r: (x + r).sum(), [a, row])
    check_grads(lambda x, r: (r - x).sum(), [a, row])
    check_grads(lambda x, s: (x + s).sum(), [a, scalar])
    check_grads(lambda x, o: (x + o).sum(), [a, _rand(rng, 1, 3)])


def test_grad_mul_div():
    rng = Rng(2)
    a, b = _rand(rng, 3, 5), _rand(rng, 3, 5) + 3.0
    check_grads(lambda x, y: (x * y).sum(), [a, b])
    check_grads(lambda x, y: (x / y).sum(), [a, b])
    check_grads(lambda x, r: (x * r).sum(), [a, _rand(rng, 5)])


def test_grad_nonlinearities():
    rng = Rng(3)
    a = _rand(rng, 4, 4)
    check_grads(lambda x: x.sigmoid().sum(), [a])
    check_grads(lambda x: x.tanh().sum(), [a])
    check_grads(lambda x: x.exp().sum(), [a])
    check_grads(lambda x: (x + 5.0).log().sum(), [a])
    shifted = a + np.sign(a) * 0.05  # keep clear of the relu kink
    check_grads(lambda x: x.relu().sum(), [shifted])
    check_grads(lambda x: x.pow_scalar(-0.5).sum(), [a + 5.0])


def test_grad_softmax_both_axes():
    rng = Rng(4)
    a = _rand(rng, 3, 6)
    w = _rand(rng, 3, 6)
    check_grads(lambda x: (x.softmax(axis=1) * w).sum(), [a])
    check_grads(lambda x: (x.softmax(axis=0) * w).sum(), [a])


def test_grad_matmul_transpose_reshape():
    rng = Rng(5)
    a, b = _rand(rng, 4, 3), _rand(rng, 3, 5)
    check_grads(lambda x, y: (x @ y).sum(), [a, b])
    check_grads(lambda x: (x.transpose() @ x).sum(), [a])
    check_grads(lambda x: x.reshape(2, 6).sum(axis=0).sum(), [a])


def test_grad_slicing_and_reductions():
    rng = Rng(6)
    a = _rand(rng, 5, 4)
    check_grads(lambda x: x[1:4].sum(), [a])
    check_grads(lambda x: x[2].sum(), [a])
    check_grads(lambda x: (x[0, 1] * x[0, 1]), [a])
    check_grads(lambda x: x.sum(axis=0).sum(), [a])
    check_grads(lambda x: x.sum(axis=1, keepdims=True).sum(), [a])
    check_grads(lambda x: x.mean().sum(), [a])
    check_grads(lambda x: x.mean(axis=1).sum(), [a])


def test_grad_concat_rows_amax():
    rng = Rng(7)
    a, b = _rand(rng, 2, 3), _rand(rng, 4, 3)
    check_grads(lambda x, y: concat([x, y], axis=0).sum(), [a, b])
    c = _rand(rng, 2, 5)
    check_grads(lambda x, y: concat([x, y], axis=1).sum(), [a, c])
    table = _rand(rng, 6, 3)
    idx = np.array([0, 2, 2, 5])  # repeated row must accumulate
    check_grads(lambda t: (rows(t, idx) * rows(t, idx)).sum(), [table])
    m = _rand(rng, 5, 4)
    check_grads(lambda x: segment_max(x, [(0, 5)]).sum(), [m])


def test_grad_composite_mlp():
    rng = Rng(8)
    x, w1, b1, w2 = _rand(rng, 5, 4), _rand(rng, 4, 6), _rand(rng, 6), _rand(rng, 6, 2)

    def loss(xt, w1t, b1t, w2t):
        h = ((xt @ w1t) + b1t).tanh()
        p = (h @ w2t).softmax(axis=1)
        return (p[:, 0] + 1e-9).log().mean() * Tensor(np.array(-1.0))

    check_grads(loss, [x, w1, b1, w2])


def _tape_ops(root: pathlib.Path = PACKAGE) -> set[str]:
    """Qualified names of the functions under root that record a tape node,
    in any module."""
    ops = set()

    def visit(scope, prefix):
        for node in scope.body:
            if isinstance(node, ast.ClassDef):
                visit(node, f"{prefix}{node.name}.")
            elif isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and ast.unparse(call.func) == "Tensor._make"
                for call in ast.walk(node)
            ):
                ops.add(prefix + node.name)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return ops


def test_the_autodiff_package_records_no_op():
    # the tape, parameters, Adam and checkpoints; every op lives in the
    # module that uses it
    assert _tape_ops(PACKAGE / "autodiff") == set()


def test_every_tape_op_has_a_gradcheck_case():
    ops = _tape_ops()
    assert ops == {
        "gru_sequence", "graph_logits", "masked_adjacency", "mask_loss",
        "encode_forest", "attend_and_fuse", "cross_entropy",
    }
    exercised = set()
    for _, build, arrays, _ in gradcheck._cases(0):
        stack = [build(*[Tensor(a, requires_grad=True) for a in arrays])]
        while stack:
            node = stack.pop()
            if node._backward_fn is not None:
                exercised.add(node._backward_fn.__qualname__.split(".<locals>.")[0])
            stack.extend(p for p in node._parents if p.requires_grad)
    assert ops - exercised == set()


def test_gradcheck_case_inputs_depend_only_on_seed_and_name():
    # Each case draws from a generator of its own, seeded from the seed and
    # the case's name, so its inputs are the same whichever cases come before
    # it, and adding or removing a case moves no other row of the table.
    cases = gradcheck._cases(3)
    (first, _, first_inputs, _), (last, _, last_inputs, _) = cases[0], cases[-1]
    assert (first, last) == ("gru_sequence", "mask_loss")
    for name, inputs, shapes in (
        ("gru_sequence", first_inputs, [(3, 2), (2, 2), (2, 2)]),
        ("mask_loss", last_inputs, [(1, 2), (4,)]),
    ):
        gen = np.random.default_rng([3, zlib.crc32(name.encode())])
        assert all(np.array_equal(a, gen.uniform(-1.5, 1.5, size=shape)) for a, shape in zip(inputs, shapes))
    # "masked_adjacency" draws its first 2 values as "mask_loss" does, but
    # not the same values
    masked = next(inputs for name, _, inputs, _ in cases if name == "masked_adjacency")
    assert not np.array_equal(masked[0][:2], last_inputs[0][0])


GRADCHECK_SEEDS = range(40)


def test_gradcheck_passes_on_correct_gradients_for_every_seed():
    failing = [
        (seed, row["op"], row["max_rel_err"])
        for seed in GRADCHECK_SEEDS
        for row in gradcheck.run_gradcheck(seed)
        if not row["pass"]
    ]
    assert failing == []


def test_gradcheck_fails_a_gradient_scaled_by_one_part_in_a_thousand_or_dropped():
    # For every case and seed, each input's gradient (every term its
    # backward adds into it) scaled by 1 + 1e-3, or left out, must fail the
    # check at its floor. The finite differences are taken once per case and
    # compared against every mutated gradient.
    uncaught = []
    for seed in GRADCHECK_SEEDS:
        for name, build, arrays, weight in gradcheck._cases(seed):
            analytic, floor = gradcheck._gradients(build, arrays, weight)
            numeric = gradcheck._numeric_gradients(build, arrays, weight)
            for which in range(len(arrays)):
                for scale in (1 + 1e-3, 0.0):
                    mutated = [grad * scale if k == which else grad for k, grad in enumerate(analytic)]
                    if gradcheck._max_rel_err(mutated, numeric, floor) < gradcheck.TOLERANCE:
                        uncaught.append((seed, name, which, scale))
    assert uncaught == []


# Run in a fresh interpreter with only the package on its path, so without
# the ops tests/tensor_ops.py installs: records which functions call
# Tensor._make during the commands given as JSON in argv[1], then during
# `vulgraph gradcheck`, and writes both name lists to argv[2].
_RECORD_TAPE_CALLERS = """
import importlib.util, json, sys
from vulgraph.autodiff import Tensor
from vulgraph.cli import main

assert importlib.util.find_spec("tensor_ops") is None, sys.path
make, fired, stage = Tensor._make, {"run": set(), "gradcheck": set()}, "run"

def spy(data, parents, backward_fn):
    fired[stage].add(sys._getframe(1).f_code.co_name)
    return make(data, parents, backward_fn)

Tensor._make = staticmethod(spy)
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
stage = "gradcheck"
assert main(["gradcheck"]) == 0
with open(sys.argv[2], "w") as fh:
    json.dump({k: sorted(v) for k, v in fired.items()}, fh)
"""


def test_a_run_records_every_package_tape_op_without_the_test_ops(tmp_path):
    # A package function that reaches for an op only the tests install fails
    # here. Every tape op in the package is one a run records, and gradcheck
    # checks no other.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 1, "explain_iterations": 3}), encoding="utf-8")
    corpus, model, split = tmp_path / "corpus.jsonl", tmp_path / "model.json", tmp_path / "split"
    test = f"{split}.test.jsonl"
    commands = [
        ["gen-corpus", "--n", "20", "--seed", "1", "--out", str(corpus)],
        ["train", str(corpus), "--config", str(config), "--out", str(model), "--split-out", str(split)],
        ["detect", test, "--model", str(model), "--out", str(tmp_path / "detections.json")],
        ["explain", str(corpus), "--model", str(model), "--config", str(config), "--method", "m0000_v",
         "--out", str(tmp_path / "explanations")],
    ]
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _RECORD_TAPE_CALLERS, json.dumps(commands), str(tmp_path / "fired.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    fired = json.loads((tmp_path / "fired.json").read_text(encoding="utf-8"))
    ops = {op.rpartition(".")[2] for op in _tape_ops()}
    run, checked = set(fired["run"]), set(fired["gradcheck"])
    assert ops - run == set()
    assert checked - run == set()


# --- semantics -----------------------------------------------------------------


def test_grad_scatter_sums_each_value_over_its_pairs():
    v = Tensor(np.array([0.3, 0.7]), requires_grad=True)
    ends = np.array([[0, 1], [1, 2]])
    out = scatter(np.eye(3), ends, ends[::-1], v)
    assert out.data.tolist() == [[1.0, 0.3, 0.0], [0.3, 1.0, 0.7], [0.0, 0.7, 1.0]]
    weight = np.arange(9.0).reshape(3, 3)
    (out * Tensor(weight)).sum().backward()
    assert v.grad.tolist() == [weight[0, 1] + weight[1, 0], weight[1, 2] + weight[2, 1]]


def test_dead_tape_is_freed_without_the_cycle_collector():
    x = Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4), requires_grad=True)
    w = Tensor(np.full((4, 3), 0.5), requires_grad=True)
    gc.collect()
    gc.disable()
    try:
        h = concat([rows(x, np.array([0, 2, 2])), x], axis=0) @ w
        adj = scatter(np.eye(3), [[0], [1]], [[1], [0]], h[np.array([0]), 1])
        loss = segment_max((adj @ h[0:3].tanh()).sigmoid(), [(0, 3)]).softmax().log().mean()
        loss.backward()
        del h, adj, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_shape_mismatch_rejected():
    a = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch):
        _ = a + Tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeMismatch):
        _ = a * Tensor(np.zeros((2, 1)))  # trailing broadcast is not allowed
    with pytest.raises(ShapeMismatch):
        a.matmul(Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeMismatch):
        (a + a).backward()  # non-scalar loss
    with pytest.raises(ShapeMismatch):
        a.backward(grad=np.ones((3, 2)))  # an output gradient of another shape


def test_backward_seeds_the_output_gradient():
    weight = np.array([[0.5, -2.0, 3.0], [1.5, 0.25, -1.0]])
    grads = []
    for seeded in (True, False):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = concat([x[1:], x[:1]]).sigmoid()
        if seeded:
            out.backward(grad=weight)
        else:
            (out * Tensor(weight)).sum().backward()
        grads.append(x.grad)
    assert np.array_equal(*grads)


def test_fanout_gradient_accumulates_exactly():
    a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    b = Tensor(np.array([[3.0, 4.0]]))
    c = Tensor(np.array([[5.0, 6.0]]))
    loss = (a * b).sum() + (a * c).sum()
    loss.backward()
    assert np.array_equal(a.grad, b.data + c.data)


def test_row_accumulation_is_bitwise_the_row_wise_add_at():
    # repeated rows, with values whose sums depend on the order of addition,
    # and signed zeros: -0.0 survives only a sum of -0.0 terms
    rng = np.random.default_rng(4)
    rows = np.array([3, 0, 3, 3, 1, 0, 3])
    grad = rng.standard_normal((len(rows), 5)) * 10.0 ** rng.integers(-8, 9, (len(rows), 5))
    grad[:, 4] = -0.0
    grad[4, 3] = -0.0
    store = ParamStore([("before", np.zeros(2)), ("table", np.zeros((4, 5)))])
    store["table"].grad[...] = -0.0
    for t, want in ((store["table"], np.full((4, 5), -0.0)), (Tensor(np.zeros((4, 5))), np.zeros((4, 5)))):
        for _ in range(2):  # the second time into a gradient that holds sums
            np.add.at(want, rows, grad)
            t._accumulate(grad, rows)
            assert want.tobytes() == t.grad.tobytes()
    assert np.signbit(store["table"].grad[2]).all()
    assert np.shares_memory(store["table"].grad, store.grads)
    assert store["before"].grad.tobytes() == np.zeros(2).tobytes()
    with pytest.raises(ShapeMismatch):  # an index pair per element is not a vector of rows
        Tensor(np.zeros((4, 5)))._accumulate(grad[:2, 0], (np.array([0, 1]), np.array([2, 3])))


def test_constants_track_nothing():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)), requires_grad=True)
    out = (a + b).sum()
    out.backward()
    assert a.grad is None and b.grad is not None
    assert not (a + a).requires_grad


def test_backward_fills_zero_grads_for_unused_params():
    # a parameter's gradient is zero from the start, and a backward that
    # does not reach it leaves it so
    store = ParamStore([("used", np.ones((2, 2))), ("unused", np.ones(3))])
    used, unused = store["used"], store["unused"]
    loss = used.sum()
    loss.backward()
    assert np.array_equal(unused.grad, np.zeros(3))
    Adam(store, lr=0.5).step()  # a zero gradient leaves its parameter in place
    assert np.allclose(used.data, np.full((2, 2), 0.5), rtol=0, atol=1e-7)
    assert np.array_equal(unused.data, np.ones(3))


# --- optimizers ------------------------------------------------------------------


def test_adam_missing_gradient():
    # no backward has run, so every gradient is zero and a step moves nothing
    store = ParamStore([("w", np.ones(2))])
    Adam(store, lr=0.1).step()
    assert store["w"].data.tolist() == [1.0, 1.0]


def test_adam_matches_reference_updates():
    # independent reference with explicit bias correction
    def ref_adam(w, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
        m = np.zeros_like(w)
        v = np.zeros_like(w)
        w = w.copy()
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1**t)
            vh = v / (1 - b2**t)
            w -= lr * mh / (np.sqrt(vh) + eps)
        return w

    rng = Rng(11)
    w0 = _rand(rng, 3, 2)
    target = _rand(rng, 3, 2)
    store = ParamStore([("w", w0)])
    w = store["w"]
    opt = Adam(store, lr=0.01)
    grads = []
    for _ in range(5):
        store.zero_grad()
        loss = ((w - Tensor(target)) * (w - Tensor(target))).sum()
        loss.backward()
        grads.append(w.grad.copy())
        opt.step()
    expected = ref_adam(w0, grads, lr=0.01)
    assert rel_err(w.data, expected) < 1e-12


def test_flat_adam_is_bitwise_the_per_tensor_loop():
    gen = np.random.default_rng(4)
    shapes = [(3, 4), (4,), (), (2, 5), (1,)]
    inputs = [gen.normal(0.0, 1.0, shape) for shape in shapes]
    stores = [ParamStore([(f"p{k}", data) for k, data in enumerate(inputs)]) for _ in range(2)]
    flat, ref = stores
    opts = (Adam(flat, lr=0.03), oracles.PerTensorAdam(ref, lr=0.03))
    for step in range(5):
        for store, opt in zip(stores, opts):
            store.zero_grad()
            loss = sum(((t * t).sum() * Tensor(np.array(0.5 + k + step))).exp().log() for k, (_, t) in enumerate(store.items()))
            loss.backward()
            opt.step()
        assert all(np.array_equal(a.data, b.data) for (_, a), (_, b) in zip(flat.items(), ref.items()))
    assert np.array_equal(flat.values, np.concatenate([t.data.reshape(-1) for _, t in ref.items()]))


def test_param_store_tensors_are_views_of_one_buffer():
    store = ParamStore([(f"p{k}", np.full((k + 1, 3), float(k))) for k in range(6)])
    tensors = [t for _, t in store.items()]
    assert [t.data.tolist() for t in tensors] == [np.full((k + 1, 3), float(k)).tolist() for k in range(6)]
    snapshot = store.values.copy()
    store.values[...] = -1.0
    assert all(np.all(t.data == -1.0) for t in tensors)
    store.values[...] = snapshot
    assert tensors[4].data.tolist() == np.full((5, 3), 4.0).tolist()
    # each gradient is its view of the gradient buffer from the start
    assert all(np.shares_memory(t.grad, store.grads) and not t.grad.any() for t in tensors)
    (tensors[2] * tensors[2]).sum().backward()
    assert np.array_equal(store.grads[9:18], np.full(9, 4.0))
    assert tensors[2].grad.tolist() == np.full((3, 3), 4.0).tolist()
    (tensors[2] * tensors[2]).sum().backward()  # accumulates until zero_grad
    assert np.array_equal(store.grads[9:18], np.full(9, 8.0))
    store.zero_grad()
    assert not store.grads.any()
    assert all(np.shares_memory(t.grad, store.grads) for t in tensors)


def test_sigmoid_is_bitwise_the_two_branch_form_without_overflow():
    gen = np.random.default_rng(9)
    x = np.concatenate([
        gen.normal(0.0, 4.0, 200_000), gen.uniform(-760.0, 760.0, 200_000),
        [0.0, -0.0, 745.0, -745.0, 709.8, -709.8, 36.0, -36.0],
    ])
    got = _sigmoid(x)
    assert np.array_equal(got.view(np.int64), oracles.sigmoid_two_branch(x).view(np.int64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _sigmoid(np.array([800.0, -800.0])).tolist() == [1.0, 0.0]
        assert _sigmoid(np.array([np.inf, -np.inf])).tolist() == [1.0, 0.0]  # hard gates


def test_training_bitwise_deterministic():
    def run():
        rng = Rng(123)
        store = ParamStore([("w", glorot(rng, 4, 4))])
        w = store["w"]
        x = Tensor(_rand(rng, 8, 4))
        opt = Adam(store, lr=0.005)
        for _ in range(10):
            store.zero_grad()
            loss = ((x @ w).tanh() * (x @ w).tanh()).sum()
            loss.backward()
            opt.step()
        return w.data.copy(), float(loss.data)

    w1, l1 = run()
    w2, l2 = run()
    assert np.array_equal(w1, w2)
    assert l1 == l2  # identical bits, not merely close


# --- checkpoints ------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    rng = Rng(21)
    store = ParamStore([("enc.w", _rand(rng, 3, 4)), ("enc.b", _rand(rng, 4))])
    meta = {"threshold": 0.625, "vocab": {"tokens": {"aa": 2}}}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, meta=meta)

    loaded, meta2 = load_checkpoint(path)
    assert meta2 == meta
    assert [name for name, _ in loaded.items()] == [name for name, _ in store.items()]
    for name, t in store.items():
        assert np.array_equal(loaded[name].data, t.data)


def test_checkpoint_bytes_reproducible(tmp_path):
    store = ParamStore([("w", np.arange(6, dtype=np.float64).reshape(2, 3))])
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, store, meta={"k": 1})
    save_checkpoint(p2, store, meta={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(b"IVDCKPT1")


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)
    store = ParamStore([("w", np.ones(4))])
    good = tmp_path / "good.ckpt"
    save_checkpoint(good, store)
    data = good.read_bytes()
    for name, damaged in (("trunc", data[:-16]), ("trailing", data + bytes(800)), ("ragged", data + bytes(3))):
        (tmp_path / f"{name}.ckpt").write_bytes(damaged)
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / f"{name}.ckpt")
    for manifest in (
        b"[]",
        b'{"version":1}',
        b'{"version":1,"params":[{"name":"w","shape":[2],"offset":-5}]}',
        b'{"version":1,"params":[{"name":"w","shape":[1],"offset":0},{"name":"w","shape":[1],"offset":1}]}',
        # the parameters must tile the blob: no overlap, no value left unread
        b'{"version":1,"params":[{"name":"a","shape":[2],"offset":0},{"name":"b","shape":[2],"offset":0}]}',
        b'{"version":1,"params":[{"name":"w","shape":[1],"offset":0}]}',
    ):
        odd = tmp_path / "odd.ckpt"
        odd.write_bytes(b"IVDCKPT1" + len(manifest).to_bytes(8, "little") + manifest + bytes(16))
        with pytest.raises(CheckpointError):
            load_checkpoint(odd)
