"""Tests for the reverse-mode autodiff kernel."""

import numpy as np
import pytest

from simpool import autodiff as ad
from simpool.layers import ACTIVATIONS, Edges


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

    def test_scatter_rows_sums_into_indexed_rows(self):
        x = ad.constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = ad.scatter_rows(x, np.array([2, 0, 2]), 4)
        np.testing.assert_array_equal(out.values, [[3, 4], [0, 0], [6, 8], [0, 0]])
        empty = ad.scatter_rows(ad.constant(np.zeros((0, 2))), np.zeros(0, dtype=int), 3)
        np.testing.assert_array_equal(empty.values, np.zeros((3, 2)))

    def test_scatter_rows_is_transpose_of_gather_rows(self):
        # <gather_rows(y, idx), x> == <y, scatter_rows(x, idx)>
        rng = np.random.default_rng(12)
        idx = rng.integers(0, 6, size=40)
        x = rng.normal(size=(40, 5))
        y = rng.normal(size=(6, 5))
        lhs = (ad.gather_rows(ad.constant(y), idx).values * x).sum()
        rhs = (y * ad.scatter_rows(ad.constant(x), idx, 6).values).sum()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_scatter_rows_validation(self):
        x = ad.constant(np.ones((3, 2)))
        with pytest.raises(IndexError):
            ad.scatter_rows(x, np.array([0, 1, 3]), 3)
        with pytest.raises(IndexError):
            ad.scatter_rows(x, np.array([0, -1, 2]), 3)
        with pytest.raises(ValueError):
            ad.scatter_rows(x, np.array([0, 1]), 3)
        with pytest.raises(ValueError):
            ad.scatter_rows(ad.constant(np.ones((2, 2, 2))), np.array([0, 1]), 3)


def _run_primitive_case(name, builder, rng):
    """Finite-difference check for one randomized primitive application."""
    x = ad.parameter(rng.uniform(-2.0, 2.0, size=(4, 3)))
    err = ad.grad_check(builder, x, epsilon=1e-5)
    assert err < 1e-4, f"{name}: relative error {err:.3e}"


# four nodes: a self-loop, a node with two incoming edges, node 3 receives none
EDGES = Edges(np.array([[0.0, 1.0, 0.0, 0.0],
                        [1.0, 0.0, 1.0, 0.0],
                        [0.0, 1.0, 1.0, 0.0],
                        [1.0, 0.0, 0.0, 0.0]]))


def edge_aggregate_case(activation):
    c = ad.constant(np.arange(12.0).reshape(4, 3) / 6.0 - 1.0)
    d = ad.constant(np.arange(12.0).reshape(4, 3) - 5.0)
    return lambda x: scalarize(ad.multiply(
        ad.edge_aggregate(x, ad.multiply(x, c), ad.col_sum(ad.scalar_multiply(x, 0.3)),
                          EDGES, activation), d))


PRIMITIVE_CASES = {
    "matmul_left": lambda x: scalarize(ad.matmul(x, ad.constant(np.arange(12.0).reshape(3, 4)))),
    "matmul_right": lambda x: scalarize(ad.matmul(ad.constant(np.arange(8.0).reshape(2, 4)), x)),
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
    "scatter_rows": lambda x: scalarize(
        ad.multiply(ad.scatter_rows(x, np.array([2, 0, 2, 4]), 5),
                    ad.constant(np.arange(15.0).reshape(5, 3) - 7.0))
    ),
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
    **{f"edge_aggregate_{act}": edge_aggregate_case(act) for act in ACTIVATIONS},
}


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

    def test_matmul_backward_skips_constant_operand(self):
        rng = np.random.default_rng(14)
        c = ad.constant(rng.normal(size=(5, 5)))
        w = ad.parameter(rng.normal(size=(5, 3)))
        g = rng.normal(size=(5, 3))
        with ad.Tape() as tape:
            ad.matmul(c, w)
            ad.matmul(w, ad.constant(g.T))
        (_, left), (_, right) = tape._nodes
        pairs = list(left(g))
        assert len(pairs) == 1 and pairs[0][0] is w
        np.testing.assert_array_equal(pairs[0][1], c.values.T @ g)
        pairs = list(right(c.values))
        assert len(pairs) == 1 and pairs[0][0] is w
        np.testing.assert_array_equal(pairs[0][1], c.values @ g)

    def test_multiply_backward_skips_constant_operand(self):
        rng = np.random.default_rng(15)
        c = ad.constant(rng.normal(size=(4, 1)))
        w = ad.parameter(rng.normal(size=(4, 3)))
        g = rng.normal(size=(4, 3))
        with ad.Tape() as tape:
            ad.multiply(w, c)
            ad.multiply(c, w)
        for _, backward in tape._nodes:
            pairs = list(backward(g))
            assert len(pairs) == 1 and pairs[0][0] is w
            np.testing.assert_array_equal(pairs[0][1], g * c.values)

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
