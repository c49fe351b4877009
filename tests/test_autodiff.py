"""Tests for the reverse-mode autodiff kernel."""

import gc
import importlib
import os
import sys
import tracemalloc
import types
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from simpool import autodiff as ad
from simpool import similarity
from simpool.similarity import SimilarityConfig, preprocess_dataset

from conftest import dataset_of, raw_edges, union_edges
from oracles import edge_runs, graph_runs, scatter_add_bincount


def scalarize(t):
    return ad.sum_all(t)


class TestForwardValues:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        m = ad.constant(rng.normal(size=(3, 3)))
        eye = ad.constant(np.eye(3))
        np.testing.assert_array_equal(ad.matmul(eye, m).values, m.values)

    def test_row_softmax_uniform(self):
        for n in (2, 5, 9):
            x = ad.constant(np.full((1, n), 3.7))
            np.testing.assert_allclose(ad.row_softmax(x).values, np.full((1, n), 1.0 / n))

    def test_tanh_gradient_at_zero(self):
        x = ad.parameter(np.zeros((2, 3)))
        with ad.Tape() as tape:
            y = ad.sum_all(ad.tanh(x))
            tape.backward(y)
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_concat_columns(self):
        a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        b = ad.constant([[5.0], [6.0]])
        out = ad.concat_columns([a, b])
        np.testing.assert_array_equal(out.values, [[1, 2, 5], [3, 4, 6]])

    def test_segmented_matmul_is_the_block_diagonal_product(self):
        rng = np.random.default_rng(1)
        segments = np.array([0, 2, 2, 7, 8])
        a, b = rng.normal(size=(3, 8)), rng.normal(size=(8, 4))
        blocks = [a[:, lo:hi] for lo, hi in zip(segments[:-1], segments[1:])]
        out = ad.matmul(ad.constant(a), ad.constant(b), segments).values
        np.testing.assert_allclose(out, sp.block_diag(blocks).toarray() @ b, rtol=1e-14, atol=1e-14)
        assert np.all(out[3:6] == 0.0)  # the empty segment's block
        for bad in ([1, 8], [0, 7], [0, 5, 3, 8]):
            with pytest.raises(ValueError, match="segments"):
                ad.matmul(ad.constant(a), ad.constant(b), np.array(bad))

    def test_segments_are_measured_once(self, monkeypatch):
        # a Segments gives the raw offsets' bytes, forward and backward, and diffs nothing again
        rng = np.random.default_rng(3)
        a, b, g = rng.normal(size=(3, 8)), rng.normal(size=(8, 4)), rng.normal(size=(12, 4))
        diffs, diff = [], np.diff
        monkeypatch.setattr(np, "diff", lambda *args, **kw: diffs.append(args) or diff(*args, **kw))
        for offsets, equal in (([0, 2, 2, 7, 8], False), ([0, 2, 4, 6, 8], True)):
            cut = ad.Segments(np.array(offsets))
            assert (cut.count, cut.total, cut.equal) == (4, 8, equal)
            assert cut.sizes.tolist() == diff(offsets).tolist()
            runs = []
            for segments in (np.array(offsets), cut):
                left, right = ad.parameter(a), ad.parameter(b)
                diffs.clear()
                with ad.Tape() as tape:
                    out = ad.matmul(left, right, segments)
                    tape.backward(ad.sum_all(ad.multiply(out, ad.constant(g))))
                runs.append((out.values.tobytes(), left.grad.tobytes(), right.grad.tobytes(),
                             len(diffs)))
            assert runs[0][:3] == runs[1][:3]
            assert runs[0][3] == 1 and runs[1][3] == 0
        for bad in ([], [1, 8], [0, 5, 3, 8], [[0, 8]]):
            with pytest.raises(ValueError, match="segments must rise from 0"):
                ad.Segments(np.array(bad))
        with pytest.raises(ValueError, match="segments must rise from 0 to 8"):
            ad.matmul(ad.constant(a), ad.constant(b), ad.Segments(np.array([0, 7])))

    def test_scatter_add_matches_bincount_bytes(self):
        # random, heavily repeated and empty index lists
        rng = np.random.default_rng(2)
        for rows, edges, width in ((7, 40, 3), (2, 300, 5), (5, 0, 3), (1, 9, 1), (60, 500, 17)):
            idx = rng.integers(0, rows, size=edges).astype(np.intp)
            x = rng.normal(size=(edges, width)) * 10.0 ** rng.integers(-8, 8, size=(edges, width))
            got = ad.incidence(idx, rows) @ x
            assert got.shape == (rows, width)
            assert got.tobytes() == scatter_add_bincount(x, idx, rows).tobytes()

    def test_shape_mismatch_raises(self):
        a = ad.constant(np.ones((2, 3)))
        b = ad.constant(np.ones((2, 3)))
        with pytest.raises(ValueError):
            ad.matmul(a, b)
        with pytest.raises(ValueError):
            ad.add(a, ad.constant(np.ones((3, 2))))

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ad.NumericError):
            ad.log(ad.constant([[0.0]]))
        with pytest.raises(ad.NumericError):
            ad.log(ad.constant([[-1.0]]))

    def test_gather_bounds(self):
        a = ad.constant(np.ones((2, 2)))
        with pytest.raises(IndexError):
            ad.gather(a, np.array([[2]]), np.array([[0]]))
        with pytest.raises(ValueError):  # a 1-D index would make a 1-D tensor
            ad.gather(a, np.array([0]), np.array([0]))

    def test_row_range_bounds(self):
        a = ad.constant(np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(ad.row_range(a, 1, 3).values, a.values[1:])
        assert ad.row_range(a, 3, 3).shape == (0, 2)
        for start, stop in ((-1, 2), (2, 1), (0, 4)):
            with pytest.raises(IndexError, match="outside"):
                ad.row_range(a, start, stop)

    def test_scatter_rows_sums_into_indexed_rows(self):
        # rows are scattered by a product with their incidence
        x = ad.constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = ad.sparse_matmul(ad.incidence(np.array([2, 0, 2]), 4), x)
        np.testing.assert_array_equal(out.values, [[3, 4], [0, 0], [6, 8], [0, 0]])
        empty = ad.sparse_matmul(ad.incidence(np.zeros(0, dtype=int), 3),
                                 ad.constant(np.zeros((0, 2))))
        np.testing.assert_array_equal(empty.values, np.zeros((3, 2)))

    def test_scatter_rows_is_transpose_of_gather_rows(self):
        # <gather_rows(y, idx), x> == <y, incidence(idx) @ x>
        rng = np.random.default_rng(12)
        idx = rng.integers(0, 6, size=40)
        x = rng.normal(size=(40, 5))
        y = rng.normal(size=(6, 5))
        lhs = (ad.gather_rows(ad.constant(y), idx).values * x).sum()
        rhs = (y * ad.sparse_matmul(ad.incidence(idx, 6), ad.constant(x)).values).sum()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_scatter_rows_validation(self):
        x = ad.constant(np.ones((3, 2)))
        with pytest.raises(IndexError):
            ad.incidence(np.array([0, 1, 3]), 3)
        with pytest.raises(IndexError):
            ad.incidence(np.array([0, -1, 2]), 3)
        with pytest.raises(ValueError):
            ad.sparse_matmul(ad.incidence(np.array([0, 1]), 3), x)
        with pytest.raises(ValueError):
            ad.sparse_matmul(ad.incidence(np.array([0, 1]), 3), ad.constant(np.ones((2, 2, 2))))


def _run_primitive_case(name, builder, rng):
    """Finite-difference check for one randomized primitive application."""
    x = ad.parameter(rng.uniform(-2.0, 2.0, size=(4, 3)))
    err = ad.grad_check(builder, x, epsilon=1e-5)
    assert err < 1e-4, f"{name}: relative error {err:.3e}"


# four nodes: a self-loop, a node with two incoming edges, node 3 receives none
EDGE_BLOCK = np.array([[0.0, 1.0, 0.0, 0.0],
                       [1.0, 0.0, 1.0, 0.0],
                       [0.0, 1.0, 1.0, 0.0],
                       [1.0, 0.0, 0.0, 0.0]])


def edge_aggregate_case(activation):
    def case(x):
        # built per call, so in the precision of the calling test
        c = ad.constant(np.arange(12.0).reshape(4, 3) / 6.0 - 1.0)
        d = ad.constant(np.arange(12.0).reshape(4, 3) - 5.0)
        out = ad.edge_aggregate(x, ad.multiply(x, c), ad.col_sum(ad.scalar_multiply(x, 0.3)),
                                raw_edges([EDGE_BLOCK]), activation)
        return scalarize(ad.multiply(out, d))

    return case


PRIMITIVE_CASES = {
    "matmul_left": lambda x: scalarize(ad.matmul(x, ad.constant(np.arange(12.0).reshape(3, 4)))),
    "matmul_right": lambda x: scalarize(ad.matmul(ad.constant(np.arange(8.0).reshape(2, 4)), x)),
    "matmul_segmented_left": lambda x: scalarize(ad.multiply(
        ad.matmul(x, ad.constant(np.arange(6.0).reshape(3, 2) - 2.0), np.array([0, 1, 3])),
        ad.constant(np.arange(16.0).reshape(8, 2) / 4.0 - 2.0))),
    "matmul_segmented_right": lambda x: scalarize(ad.multiply(
        ad.matmul(ad.constant(np.arange(8.0).reshape(2, 4) - 3.0), x, np.array([0, 3, 3, 4])),
        ad.constant(np.arange(18.0).reshape(6, 3) / 3.0 - 3.0))),
    "matmul_segmented_both": lambda x: scalarize(ad.tanh(
        ad.matmul(ad.transpose(x), x, np.array([0, 2, 4])))),
    "transpose": lambda x: scalarize(ad.multiply(ad.transpose(x), ad.constant(np.arange(12.0).reshape(3, 4)))),
    "add": lambda x: scalarize(ad.add(x, ad.constant(np.ones((4, 3))))),
    "add_row_broadcast": lambda x: scalarize(ad.tanh(ad.add(x, ad.constant(np.array([[0.3, -0.4, 0.1]]))))),
    "add_col_broadcast": lambda x: scalarize(ad.tanh(ad.add(x, ad.constant(np.full((4, 1), 0.25))))),
    "subtract": lambda x: scalarize(ad.subtract(ad.constant(np.ones((4, 3))), x)),
    "multiply": lambda x: scalarize(ad.multiply(x, ad.constant(np.arange(12.0).reshape(4, 3) - 5.0))),
    "multiply_col_broadcast": lambda x: scalarize(ad.multiply(x, ad.constant(np.array([[1.0], [-2.0], [0.5], [3.0]])))),
    "scalar_multiply": lambda x: scalarize(ad.scalar_multiply(x, -1.7)),
    "concat_columns": lambda x: scalarize(
        ad.tanh(ad.concat_columns([x, ad.scalar_multiply(x, 2.0)]))
    ),
    "gather": lambda x: scalarize(
        ad.gather(x, np.array([[0, 1], [3, 3]]), np.array([[2, 0], [1, 1]]))
    ),
    "gather_rows": lambda x: scalarize(
        ad.multiply(ad.gather_rows(x, np.array([3, 0, 3, 1, 3])),
                    ad.constant(np.arange(15.0).reshape(5, 3) - 7.0))
    ),
    "row_range": lambda x: scalarize(
        ad.multiply(ad.row_range(x, 1, 3), ad.constant(np.arange(6.0).reshape(2, 3) - 2.0))
    ),
    "sparse_matmul_incidence": lambda x: scalarize(
        ad.multiply(ad.sparse_matmul(ad.incidence(np.array([2, 0, 2, 4]), 5), x),
                    ad.constant(np.arange(15.0).reshape(5, 3) - 7.0))
    ),
    "sparse_matmul": lambda x: scalarize(ad.multiply(
        ad.sparse_matmul(sp.csr_matrix(np.array([[0.0, 2.0, 0.0, 1.0], [1.0, 0.0, 0.0, -3.0]])), x),
        ad.constant(np.arange(6.0).reshape(2, 3) - 2.0))),
    "row_softmax": lambda x: scalarize(
        ad.multiply(ad.row_softmax(x), ad.constant(np.arange(12.0).reshape(4, 3)))
    ),
    "tanh": lambda x: scalarize(ad.tanh(x)),
    "relu": lambda x: scalarize(ad.relu(ad.add(x, ad.constant(np.full((4, 3), 0.01))))),
    "log": lambda x: scalarize(ad.log(ad.add(ad.multiply(x, x), ad.constant(np.full((4, 3), 0.5))))),
    "sqrt": lambda x: scalarize(ad.sqrt(ad.add(ad.multiply(x, x), ad.constant(np.full((4, 3), 0.5))))),
    "reciprocal": lambda x: scalarize(ad.reciprocal(ad.add(ad.multiply(x, x), ad.constant(np.full((4, 3), 1.0))))),
    "clamp_min": lambda x: scalarize(ad.clamp_min(x, 0.35)),
    "sum_all": lambda x: ad.sum_all(x),
    "row_sum": lambda x: scalarize(ad.multiply(ad.row_sum(x), ad.constant(np.array([[1.0], [2.0], [3.0], [4.0]])))),
    "col_sum": lambda x: scalarize(ad.multiply(ad.col_sum(x), ad.constant(np.array([[1.0, -2.0, 3.0]])))),
    **{f"edge_aggregate_{act}": edge_aggregate_case(act) for act in ("relu", "tanh")},
    # only the sender rows need a gradient: the receiver and bias sums are not formed
    "edge_aggregate_senders_only": lambda x: scalarize(ad.multiply(ad.edge_aggregate(
        ad.constant(np.full((4, 3), 0.2)), x, ad.constant(np.array([[0.1, -0.3, 0.0]])),
        raw_edges([EDGE_BLOCK]), "tanh"), ad.constant(np.arange(12.0).reshape(4, 3) - 5.0))),
}


# every public function that records onto a tape
PRIMITIVES = [name for name in ad.__all__ if name not in {
    "Tensor", "Tape", "NumericError", "no_grad", "constant", "parameter", "grad_check"}]


def test_every_primitive_has_a_gradient_case():
    """Each tape primitive in ``ad.__all__`` has a case named after it or ``<name>_...``."""
    missing = [name for name in PRIMITIVES
               if not any(key == name or key.startswith(f"{name}_") for key in PRIMITIVE_CASES)]
    assert missing == []


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients(name):
    """Every primitive matches central differences on randomized inputs."""
    builder = PRIMITIVE_CASES[name]
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        _run_primitive_case(name, builder, rng)


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_backward_does_not_write_into_its_gradient(name, monkeypatch):
    """The tape stores the first gradient it is given as it is, so a backward pass
    may read its ``g`` but never write into it: every closure gets a read-only one."""
    original = ad._record

    def record(op_name, out, parents, backward):
        def read_only(g):
            g = g.view()
            g.flags.writeable = False
            return backward(g)

        return original(op_name, out, parents, read_only)

    monkeypatch.setattr(ad, "_record", record)
    x = ad.parameter(np.random.default_rng(17).uniform(-2.0, 2.0, size=(4, 3)))
    with ad.Tape() as tape:
        tape.backward(PRIMITIVE_CASES[name](x))
    assert x.grad is not None and np.all(np.isfinite(x.grad))


# each primitive as a function of op outputs of the given shapes
LIFETIME_CASES = {
    "matmul": (((4, 3), (3, 2)), ad.matmul),
    "matmul_segmented": (((2, 4), (4, 3)), lambda a, b: ad.matmul(a, b, np.array([0, 1, 4]))),
    "transpose": (((4, 3),), ad.transpose),
    "add": (((4, 3), (1, 3)), ad.add),
    "subtract": (((4, 3), (4, 1)), ad.subtract),
    "multiply": (((4, 3), (4, 3)), ad.multiply),
    "scalar_multiply": (((4, 3),), lambda a: ad.scalar_multiply(a, 2.0)),
    "concat_columns": (((4, 3), (4, 2)), lambda a, b: ad.concat_columns([a, b])),
    "gather": (((4, 3),), lambda a: ad.gather(a, np.array([[0, 3]]), np.array([[2, 2]]))),
    "gather_rows": (((4, 3),), lambda a: ad.gather_rows(a, np.array([3, 0, 3]))),
    "row_range": (((4, 3),), lambda a: ad.row_range(a, 1, 3)),
    "sparse_matmul": (((4, 3),), lambda a: ad.sparse_matmul(ad.incidence([1, 0, 1, 1], 2), a)),
    "edge_aggregate": (((4, 3), (4, 3), (1, 3)), lambda r, s, b: ad.edge_aggregate(
        r, s, b, raw_edges([EDGE_BLOCK]), "tanh")),
    "row_softmax": (((4, 3),), ad.row_softmax),
    "tanh": (((4, 3),), ad.tanh),
    "relu": (((4, 3),), ad.relu),
    "log": (((4, 3),), ad.log),
    "sqrt": (((4, 3),), ad.sqrt),
    "reciprocal": (((4, 3),), ad.reciprocal),
    "clamp_min": (((4, 3),), lambda a: ad.clamp_min(a, 1.0)),
    "sum_all": (((4, 3),), ad.sum_all),
    "row_sum": (((4, 3),), ad.row_sum),
    "col_sum": (((4, 3),), ad.col_sum),
}


def test_every_primitive_has_a_lifetime_case():
    assert set(PRIMITIVES) <= set(LIFETIME_CASES)


@pytest.mark.parametrize("name", sorted(LIFETIME_CASES))
def test_tape_holds_no_input_tensor(name):
    """A recorded op keeps arrays its backward reads, never its input ``Tensor``s: op
    outputs fed to it are freed once the forward code drops them, before backward."""
    shapes, apply = LIFETIME_CASES[name]
    rng = np.random.default_rng(23)
    leaves = [ad.parameter(rng.uniform(0.5, 1.5, size=shape)) for shape in shapes]
    with ad.Tape() as tape:
        inputs = [ad.scalar_multiply(leaf, 1.0) for leaf in leaves]
        freed = [weakref.ref(t) for t in inputs]
        out = apply(*inputs)
        del inputs
        assert [ref() for ref in freed] == [None] * len(freed)
        tape.backward(ad.sum_all(out))
    assert len(tape) == 0 and all(leaf.grad is not None for leaf in leaves)


def test_forward_holds_one_output_array_of_a_dense_layer():
    """relu(x @ w + b) under a tape keeps one n x m array after the forward pass: relu's
    output, which its backward reads, and not the product or the sum before it."""
    rng = np.random.default_rng(24)
    n, k, m = 2048, 16, 512  # a 4 MiB float32 output
    x = ad.constant(rng.normal(size=(n, k)))
    w = ad.parameter(rng.normal(size=(k, m)))
    b = ad.parameter(rng.normal(size=(1, m)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with ad.Tape() as tape:
            out = ad.relu(ad.add(ad.matmul(x, w), b))
            held = tracemalloc.get_traced_memory()[0] - base
            tape.backward(ad.sum_all(out))
    finally:
        tracemalloc.stop()
    assert held < 1.5 * out.values.nbytes, f"{held / out.values.nbytes:.2f} n x m arrays held"
    np.testing.assert_allclose(w.grad, x.values.T @ (out.values > 0.0), rtol=1e-5)


# the primitives with two or more parents
MULTI_PARENT_CASES = {name: LIFETIME_CASES[name] for name in (
    "matmul", "matmul_segmented", "add", "subtract", "multiply", "concat_columns")}


def arrays_reachable_from(root) -> list[np.ndarray]:
    """Every array ``gc.get_referents`` reaches from ``root``, without entering a
    module, a class, or a function's globals and builtins."""
    seen, arrays, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (types.ModuleType, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        referents = gc.get_referents(obj)
        if isinstance(obj, types.FunctionType):
            referents = [r for r in referents
                         if r is not obj.__globals__ and r is not obj.__builtins__]
        stack.extend(referents)
    return arrays


@pytest.mark.parametrize("constant", (0, 1))
@pytest.mark.parametrize("name", sorted(MULTI_PARENT_CASES))
def test_recorder_keeps_formulas_only_for_operands_needing_a_gradient(name, constant):
    """With one operand a constant, the recorded closure returns a gradient only for
    the other, equal to the one it gets when both need one, and the tape cannot
    reach the other's values: only the constant's dropped formula read them."""
    shapes, apply = MULTI_PARENT_CASES[name]
    rng = np.random.default_rng(25)
    values = [rng.uniform(0.5, 1.5, size=shape) for shape in shapes]
    g = rng.normal(size=apply(*map(ad.constant, values)).shape)

    def record(const):
        with ad.Tape() as tape:
            inputs = [ad.constant(v) if i == const else ad.scalar_multiply(ad.parameter(v), 1.0)
                      for i, v in enumerate(values)]
            apply(*inputs)
        return inputs, tape

    both, full = record(None)
    expected = {t: grad for t, grad in full._nodes[-1][1](g)}
    assert list(expected) == [t._node for t in both]
    inputs, tape = record(constant)
    (needing,) = (t for i, t in enumerate(inputs) if i != constant)
    held = arrays_reachable_from(tape._nodes)
    assert held and not any(np.shares_memory(x, needing.values) for x in held)
    pairs = tape._nodes[-1][1](g)
    assert [t for t, _ in pairs] == [needing._node]
    assert pairs[0][1].tobytes() == expected[both[1 - constant]._node].tobytes()


class TestPrecision:
    def test_only_float32_and_float64_are_accepted(self):
        for dtype in (np.float16, np.int64, "float32", None):
            with pytest.raises(ValueError, match="float32 or float64"):
                ad.precision(dtype)

    def test_tensors_and_incidences_follow_the_setting_until_exit(self):
        assert ad.tape_dtype() is np.float64
        with ad.precision(np.float32):
            assert ad.tape_dtype() is np.float32
            assert ad.constant(np.arange(3.0)).values.dtype == np.float32
            assert ad.incidence(np.array([1, 0]), 2).dtype == np.float32
            with ad.precision(np.float64):
                assert ad.parameter([[1.0]]).values.dtype == np.float64
            assert ad.tape_dtype() is np.float32
        assert ad.tape_dtype() is np.float64

    def test_products_of_two_dtypes_are_rejected(self):
        wide = ad.parameter(np.ones((2, 2)))
        with ad.precision(np.float32):
            narrow = ad.parameter(np.ones((2, 2)))
            sum_by_index = ad.incidence(np.array([0, 1]), 2)
        for left, right in ((wide, narrow), (narrow, wide)):
            with pytest.raises(TypeError, match="float32"):
                ad.matmul(left, right)
            with pytest.raises(TypeError, match="float32"):
                ad.matmul(left, right, np.array([0, 1, 2]))
        with pytest.raises(TypeError, match="float32"):
            ad.sparse_matmul(sum_by_index, wide)
        with pytest.raises(TypeError, match="float32"):
            ad.sparse_matmul(sp.csr_matrix(np.eye(2)), narrow)

    def test_row_softmax_flushes_subnormal_probabilities(self):
        # exp(-100) = 3.7e-44 is subnormal in float32 and normal in float64
        for dtype, small in ((np.float32, 0.0), (np.float64, np.exp(-100.0))):
            with ad.precision(dtype):
                x = ad.parameter([[0.0, -100.0, -800.0]])
                with ad.Tape() as tape:
                    s = ad.row_softmax(x)
                    tape.backward(ad.sum_all(ad.multiply(s, ad.constant([[1.0, 2.0, 3.0]]))))
            assert s.values.tolist() == [[1.0, small, 0.0]]
            assert x.grad[0, 2] == 0.0 and (x.grad[0, 1] == 0.0) == (small == 0.0)

    def test_grad_check_takes_only_float64(self):
        with ad.precision(np.float32):
            x = ad.parameter(np.ones((2, 2)))
            with pytest.raises(ValueError, match="float64"):
                ad.grad_check(ad.sum_all, x)


class TestGradCheck:
    def test_sum_of_squares(self):
        rng = np.random.default_rng(7)
        x = ad.parameter(rng.normal(size=(3, 4)))
        err = ad.grad_check(lambda t: ad.sum_all(ad.multiply(t, t)), x, epsilon=1e-5)
        assert err < 1e-6
        # closed-form oracle: d/dx sum(x^2) = 2x
        x.zero_grad()
        with ad.Tape() as tape:
            tape.backward(ad.sum_all(ad.multiply(x, x)))
        np.testing.assert_allclose(x.grad, 2.0 * x.values, rtol=1e-12)

    def test_softmax_dot(self):
        rng = np.random.default_rng(8)
        c = ad.constant(rng.normal(size=(5, 4)))
        x = ad.parameter(rng.normal(size=(5, 4)))
        err = ad.grad_check(lambda t: ad.sum_all(ad.multiply(ad.row_softmax(t), c)), x)
        assert err < 1e-4

    def test_constant_function(self):
        x = ad.parameter(np.ones((2, 2)))
        err = ad.grad_check(lambda t: ad.constant([[4.0]]), x)
        assert err == 0.0

    def test_epsilon_range_enforced(self):
        x = ad.parameter(np.ones((1, 1)))
        with pytest.raises(ValueError):
            ad.grad_check(lambda t: ad.sum_all(t), x, epsilon=1e-2)


class TestTapeSemantics:
    def test_gradient_buffer_is_reused_after_zero_grad(self):
        x = ad.parameter(np.random.default_rng(5).normal(size=(3, 2)))
        grads = []
        for scale in (2.0, 3.0):
            x.zero_grad()
            with ad.Tape() as tape:
                tape.backward(ad.sum_all(ad.scalar_multiply(x, scale)))
            grads.append(x.grad)
            np.testing.assert_array_equal(x.grad, np.full((3, 2), scale))
        assert grads[0] is grads[1]

    def test_backward_empties_the_tape_and_frees_op_outputs(self):
        # the tape holds no op output: one is freed when the forward code drops it
        x = ad.parameter(np.random.default_rng(4).normal(size=(3, 3)))
        with ad.Tape() as tape:
            hidden = ad.tanh(ad.matmul(x, x))
            freed = weakref.ref(hidden)
            loss = ad.sum_all(hidden)
            del hidden
            assert len(tape) == 3 and freed() is None
            tape.backward(loss)
        assert len(tape) == 0
        g = 1.0 - np.tanh(x.values @ x.values) ** 2
        np.testing.assert_allclose(x.grad, g @ x.values.T + x.values.T @ g, rtol=1e-5)

    def test_second_backward_on_a_swept_tape_raises(self):
        # a second sweep used to return silently and leave the gradient stale
        x = ad.parameter(np.array([[1.0]]))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.multiply(x, x))
            tape.backward(loss)
            with pytest.raises(RuntimeError, match="a tape is swept once"):
                tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [[2.0]])
        leaf = ad.parameter(np.array([[3.0]]))
        with ad.Tape() as tape:
            tape.backward(leaf)  # a loss that is not an op output
            with pytest.raises(RuntimeError, match="a tape is swept once"):
                tape.backward(leaf)
        np.testing.assert_array_equal(leaf.grad, [[1.0]])

    def test_backward_deterministic(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(6, 6))
        grads = []
        for _ in range(2):
            x = ad.parameter(base.copy())
            with ad.Tape() as tape:
                y = ad.sum_all(ad.row_softmax(ad.matmul(x, ad.tanh(x))))
                tape.backward(y)
            grads.append(x.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_grad_accumulates_over_reuse(self):
        x = ad.parameter(np.array([[2.0]]))
        with ad.Tape() as tape:
            y = ad.add(ad.multiply(x, x), x)  # x^2 + x -> dy/dx = 2x + 1
            tape.backward(ad.sum_all(y))
        np.testing.assert_allclose(x.grad, [[5.0]])

    def test_reused_leaf_accumulates_only_into_grad(self):
        # x feeds three ops; the sweep visits them in reverse creation order
        rng = np.random.default_rng(16)
        c, d, r = (rng.normal(size=(4, 4)) for _ in range(3))
        x = ad.parameter(rng.normal(size=(4, 4)))
        with ad.Tape() as tape:
            s = ad.add(ad.add(ad.matmul(ad.constant(c), x), ad.multiply(x, ad.constant(d))),
                       ad.scalar_multiply(x, 3.0))
            tape.backward(ad.sum_all(ad.multiply(s, ad.constant(r))))
        expected = r * 3.0
        expected += r * d
        expected += c.T @ r
        assert x.grad.tobytes() == expected.tobytes()
        assert id(x) not in tape._grads
        assert tape._grads == {}

    def test_gradient_shared_by_two_outputs_is_added_out_of_place(self):
        # the sweep runs the inner add first: it hands one array to t and u, then
        # t receives 3 * g from v, which must not change the array u still waits on
        x = ad.parameter(np.array([[0.5, -1.0]]))
        with ad.Tape() as tape:
            t = ad.tanh(x)
            u = ad.scalar_multiply(x, 2.0)
            v = ad.scalar_multiply(t, 3.0)
            tape.backward(ad.sum_all(ad.add(ad.add(t, u), v)))
        np.testing.assert_allclose(x.grad, 4.0 * (1.0 - np.tanh(x.values) ** 2) + 2.0,
                                   rtol=1e-15)

    def test_no_grad_suppresses_recording(self):
        x = ad.parameter(np.ones((2, 2)))
        with ad.Tape() as tape:
            with ad.no_grad():
                y = ad.tanh(x)
            assert len(tape) == 0
            assert not y.requires_grad
            # leaving no_grad resumes recording on the same tape
            assert ad.tanh(x).requires_grad
            assert len(tape) == 1

    def test_gather_index_channel_carries_no_gradient(self):
        # perturbing source entries that were never selected must leave the
        # output untouched, and their gradient must be exactly zero
        rng = np.random.default_rng(11)
        x = ad.parameter(rng.normal(size=(4, 4)))
        rows = np.array([[0, 1], [2, 3]])
        cols = np.array([[1, 2], [3, 0]])
        with ad.Tape() as tape:
            out = ad.gather(x, rows, cols)
            tape.backward(ad.sum_all(out))
        selected = np.zeros((4, 4), dtype=bool)
        selected[rows, cols] = True
        assert np.all(x.grad[~selected] == 0.0)
        assert np.all(x.grad[selected] == 1.0)

    def test_gather_backward_matches_add_at_bytes(self):
        # repeated indices: the scatter kernel sums in the same order as np.add.at
        rng = np.random.default_rng(13)
        for trial in range(20):
            n, m, width = 7, 5, int(rng.integers(1, 9))
            rows = rng.integers(0, n, size=(30, width))
            cols = rng.integers(0, m, size=(30, width))
            idx = rng.integers(0, n, size=60)
            g_gather = rng.normal(size=(30, width)) * 10.0 ** rng.integers(-8, 8, size=(30, width))
            g_rows = rng.normal(size=(60, m)) * 10.0 ** rng.integers(-8, 8, size=(60, m))

            x = ad.parameter(rng.normal(size=(n, m)))
            with ad.Tape() as tape:
                out = ad.gather(x, rows, cols)
                tape.backward(ad.sum_all(ad.multiply(out, ad.constant(g_gather))))
            expected = np.zeros((n, m))
            np.add.at(expected, (rows, cols), g_gather)
            assert x.grad.tobytes() == expected.tobytes()

            x = ad.parameter(rng.normal(size=(n, m)))
            with ad.Tape() as tape:
                out = ad.gather_rows(x, idx)
                tape.backward(ad.sum_all(ad.multiply(out, ad.constant(g_rows))))
            expected = np.zeros((n, m))
            np.add.at(expected, idx, g_rows)
            assert x.grad.tobytes() == expected.tobytes()

    def test_fault_injection_breaks_gradients(self, corrupt_backward):
        corrupt_backward("tanh")
        x = ad.parameter(np.full((2, 2), 0.3))
        err = ad.grad_check(lambda t: ad.sum_all(ad.tanh(t)), x)
        assert err > 1e-4


class _Stop(Exception):
    """Ends a call at its first ``ad.cost_runs``."""


def runs_asked_for(monkeypatch, call):
    """The runs ``call()`` gets from its first ``ad.cost_runs``; the call ends there."""
    asked, real = [], ad.cost_runs

    def spy(costs, budget):
        asked.append(real(costs, budget))
        raise _Stop

    monkeypatch.setattr(ad, "cost_runs", spy)
    with pytest.raises(_Stop):
        call()
    monkeypatch.setattr(ad, "cost_runs", real)
    return asked[0]


@pytest.fixture(scope="module")
def dd_blocks():
    """Every graph of the benchmark's seed-0 DD-like data as a symmetric 0/1 CSR block."""
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
    sys.path.insert(0, bench)
    try:
        tugen = importlib.import_module("tugen")
    finally:
        sys.path.remove(bench)
    data = tugen.generate(tugen.SPECS["dd"], seed=0)
    offsets = np.concatenate([[0], np.cumsum(data.node_counts)])
    pairs = np.concatenate([data.edges, data.edges[:, ::-1]])
    union = sp.csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                          shape=(offsets[-1],) * 2)
    p = union.indptr
    return [sp.csr_matrix((union.data[p[lo]:p[hi]], union.indices[p[lo]:p[hi]] - lo,
                           p[lo:hi + 1] - p[lo]), shape=(hi - lo,) * 2)
            for lo, hi in zip(offsets[:-1], offsets[1:])]


def seeded_blocks(rng):
    """Symmetric graphs of 1 to 30 nodes, one of 80 nodes among them, some edgeless."""
    sizes = rng.integers(1, 31, size=40)
    sizes[17] = 80
    blocks = []
    for g, n in enumerate(sizes):
        a = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.5), 1) & bool(g % 7)
        blocks.append(sp.csr_matrix((a | a.T).astype(np.float64)))
    return blocks


class TestCostRuns:
    """``cost_runs`` cuts as the two splitters it replaced, one per caller."""

    def test_greedy_runs_by_hand(self):
        assert ad.cost_runs([3, 4, 10, 0, 2, 1], 7) == [(0, 2), (2, 3), (3, 6)]
        assert ad.cost_runs([8, 8], 7) == [(0, 1), (1, 2)]  # over budget: a run of its own
        assert ad.cost_runs([0, 0, 0], 0) == [(0, 3)]
        assert ad.cost_runs([], 7) == []

    @staticmethod
    def edge_aggregate_runs(monkeypatch, edges, width):
        rows = ad.constant(np.zeros((edges.node_count, width)))
        bias = ad.constant(np.zeros((1, width)))
        runs = runs_asked_for(monkeypatch,
                              lambda: ad.edge_aggregate(rows, rows, bias, edges, "relu"))
        nodes, starts = edges.node_offsets, edges.edge_offsets
        return [(nodes[lo], nodes[hi], starts[lo], starts[hi]) for lo, hi in runs]

    def test_edge_aggregate_runs_are_the_old_splitter(self, monkeypatch, dd_blocks):
        # the seeded graphs under a budget of 40 float64 rows of 4, and DD in
        # batches of 20 under the real budget, in rows of 4, 64 and 0 entries
        dd = dd_blocks
        batches = [(seeded_blocks(np.random.default_rng(52)), 40 * 4 * 8)]
        batches += [(dd[lo:lo + 20], ad.EDGE_CHUNK_BYTES) for lo in range(0, len(dd), 20)]
        shared = oversized = 0
        for blocks, budget in batches:
            monkeypatch.setattr(ad, "EDGE_CHUNK_BYTES", budget)
            for dtype, width in ((np.float64, 4), (np.float32, 64), (np.float64, 0)):
                with ad.precision(dtype):
                    edges = union_edges(blocks)
                    want = edge_runs(edges, width, np.dtype(dtype).itemsize)
                    assert self.edge_aggregate_runs(monkeypatch, edges, width) == want
                graphs = [np.searchsorted(edges.node_offsets, run[:2]) for run in want]
                shared += sum(hi - lo > 1 for lo, hi in graphs)
                row_bytes = max(width, 1) * np.dtype(dtype).itemsize
                oversized += sum((e1 - e0) * row_bytes > budget for _, _, e0, e1 in want)
        assert shared > 0 and oversized > 0

    def test_preprocess_runs_are_the_old_splitter(self, monkeypatch, dd_blocks):
        seeded = seeded_blocks(np.random.default_rng(53))
        cfg = SimilarityConfig()
        for blocks, budget in ((seeded, 2000), (dd_blocks, similarity.GRAM_RUN_MULTIPLY_ADDS)):
            monkeypatch.setattr(similarity, "GRAM_RUN_MULTIPLY_ADDS", budget)
            features = np.ones((max(b.shape[0] for b in blocks), 1))
            ds = dataset_of([(b, features[:b.shape[0]], 0) for b in blocks], name="RUNS")
            want = graph_runs(ds.graphs)
            assert 1 < len(want) < len(ds)
            assert runs_asked_for(monkeypatch, lambda: preprocess_dataset(ds, cfg)) == want
