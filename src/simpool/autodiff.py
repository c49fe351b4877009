"""Minimal dense reverse-mode automatic differentiation kernel.

Tensors are float64 numpy arrays tracked on an explicit tape. Operations
record their backward closure in creation order, which is already a
topological order, so ``Tape.backward`` is a single reverse sweep that
visits each recorded node exactly once. Every tensor is 2-D: scalars and
vectors are stored as 1 x 1 and n x 1, so no operation checks ranks.

Gather and scatter indices are constants: no gradient ever flows into an
index argument, only into the values. ``scatter_rows`` is the transpose of
``gather_rows``: it sums input rows into the output rows they index. Its
forward pass and the backward passes of ``gather`` and ``gather_rows`` run
on ``_scatter_add``, one ``np.bincount`` that adds in index order.

``edge_aggregate`` is GMN message passing as one op. Its forward and
backward sums are products with a graph's constant CSR incidence matrices
(``layers.Edges``), whose rows list their edges in edge order, so they add
in the same order as ``_scatter_add``. The op keeps only its node-row
inputs on the tape and recomputes the edge rows in its backward pass.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "NumericError",
    "no_grad",
    "constant",
    "parameter",
    "matmul",
    "transpose",
    "add",
    "subtract",
    "multiply",
    "scalar_multiply",
    "concat_columns",
    "gather",
    "gather_rows",
    "scatter_rows",
    "edge_aggregate",
    "row_softmax",
    "tanh",
    "relu",
    "log",
    "sqrt",
    "reciprocal",
    "clamp_min",
    "sum_all",
    "row_sum",
    "col_sum",
    "grad_check",
]


class NumericError(ArithmeticError):
    """Raised when a computation produces or receives non-finite values."""


class Tensor:
    """A float64 array participating in reverse-mode differentiation."""

    __slots__ = ("values", "requires_grad", "grad", "_op_output")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.ndim > 2:
            raise ValueError(f"rank {arr.ndim} tensors are not supported (max 2)")
        self.values = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._op_output = False

    @classmethod
    def _raw(cls, arr: np.ndarray) -> Tensor:
        """Fast construction for op outputs (already float64 and 2-D)."""
        t = object.__new__(cls)
        t.values = arr
        t.requires_grad = False
        t.grad = None
        t._op_output = False
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        return float(self.values.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


class Tape:
    """Ordered record of operations; creation order is topological order."""

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        # gradients of op outputs whose node the sweep has not reached yet
        self._grads: dict[int, np.ndarray] = {}

    def __enter__(self) -> Tape:
        global _CURRENT_TAPE
        self._outer = _CURRENT_TAPE
        _CURRENT_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _CURRENT_TAPE
        _CURRENT_TAPE = self._outer

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and sweep the tape once, in reverse.

        Gradients of op outputs wait in a scratch dict until the sweep
        reaches the node that made them. The first gradient to arrive is
        stored as it is and later ones are added out of place, so a
        backward closure may return its own ``g`` and no closure may write
        into the ``g`` it receives. Leaves (tensors not produced by a
        recorded op) accumulate only into ``.grad``; the scratch dict never
        holds them, so it is empty when the sweep ends.
        """
        if loss.values.size != 1:
            raise ValueError("backward requires a scalar loss tensor")
        grads = self._grads = {}
        if not loss._op_output:
            if loss.requires_grad:
                loss.accumulate_grad(np.ones_like(loss.values))
            return
        grads[id(loss)] = np.ones_like(loss.values)
        for out, backward in reversed(self._nodes):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for parent, pg in backward(g):
                if not parent.requires_grad:
                    continue
                if not parent._op_output:
                    parent.accumulate_grad(pg)
                    continue
                # out of place: pg may be an array another gradient shares
                key = id(parent)
                prev = grads.get(key)
                grads[key] = pg if prev is None else prev + pg


# the tape operations record onto: the innermost open ``Tape``, or None
# outside every tape and inside ``no_grad``
_CURRENT_TAPE: Tape | None = None


class no_grad:
    """Context manager that stops recording until it exits."""

    def __enter__(self):
        global _CURRENT_TAPE
        self._outer = _CURRENT_TAPE
        _CURRENT_TAPE = None
        return self

    def __exit__(self, *exc):
        global _CURRENT_TAPE
        _CURRENT_TAPE = self._outer


def _record(op_name: str, out: Tensor, parents: Sequence[Tensor], backward) -> Tensor:
    tape = _CURRENT_TAPE
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._op_output = True
        tape._nodes.append((out, backward))
    return out


def _scatter_add(x: np.ndarray, idx: np.ndarray, rows: int) -> np.ndarray:
    """Sum row e of ``x`` into row ``idx[e]`` of a (rows, width) zero array.

    One ``np.bincount`` over the flat output positions. It adds into each
    output in order of e, so its sums are bit-identical to a loop over e.
    """
    width = x.shape[1]
    flat = (idx[:, None] * width + np.arange(width)).reshape(-1)
    return np.bincount(flat, weights=x.reshape(-1), minlength=rows * width).reshape(rows, width)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
    out = Tensor._raw(av @ bv)

    def backward(g):
        grads = []
        if a.requires_grad:
            grads.append((a, g @ bv.T))
        if b.requires_grad:
            grads.append((b, av.T @ g))
        return grads

    return _record("matmul", out, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    out = Tensor._raw(a.values.T.copy())

    def backward(g):
        return ((a, g.T),)

    return _record("transpose", out, (a,), backward)


def _broadcast_grad(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back onto a broadcast operand's shape."""
    if g.shape == shape:
        return g
    axes = tuple(i for i, (gs, ps) in enumerate(zip(g.shape, shape)) if ps == 1 and gs != 1)
    return g.sum(axis=axes, keepdims=True)


def _check_broadcast(name: str, av: np.ndarray, bv: np.ndarray) -> None:
    if av.shape == bv.shape:
        return
    for sa, sb in zip(av.shape, bv.shape):
        if sa != sb and sa != 1 and sb != 1:
            raise ValueError(f"{name} shape mismatch: {av.shape} vs {bv.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    _check_broadcast("add", av, bv)
    out = Tensor._raw(av + bv)

    def backward(g):
        return ((a, _broadcast_grad(g, av.shape)), (b, _broadcast_grad(g, bv.shape)))

    return _record("add", out, (a, b), backward)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    _check_broadcast("subtract", av, bv)
    out = Tensor._raw(av - bv)

    def backward(g):
        return ((a, _broadcast_grad(g, av.shape)), (b, -_broadcast_grad(g, bv.shape)))

    return _record("subtract", out, (a, b), backward)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    _check_broadcast("multiply", av, bv)
    out = Tensor._raw(av * bv)

    def backward(g):
        grads = []
        if a.requires_grad:
            grads.append((a, _broadcast_grad(g * bv, av.shape)))
        if b.requires_grad:
            grads.append((b, _broadcast_grad(g * av, bv.shape)))
        return grads

    return _record("multiply", out, (a, b), backward)


def scalar_multiply(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor._raw(a.values * c)

    def backward(g):
        return ((a, g * c),)

    return _record("scalar_multiply", out, (a,), backward)


def concat_columns(tensors: Sequence[Tensor]) -> Tensor:
    if not tensors:
        raise ValueError("concat_columns of an empty sequence")
    rows = tensors[0].shape[0]
    for t in tensors:
        if t.shape[0] != rows:
            raise ValueError("concat_columns requires equal row counts")
    widths = [t.shape[1] for t in tensors]
    out = Tensor._raw(np.concatenate([t.values for t in tensors], axis=1))

    def backward(g):
        outs = []
        start = 0
        for t, w in zip(tensors, widths):
            outs.append((t, g[:, start:start + w]))
            start += w
        return tuple(outs)

    return _record("concat_columns", out, tuple(tensors), backward)


def gather(a: Tensor, row_idx: np.ndarray, col_idx: np.ndarray) -> Tensor:
    """out[i, j] = a[row_idx[i, j], col_idx[i, j]]; indices are constants."""
    row_idx = np.asarray(row_idx, dtype=np.intp)
    col_idx = np.asarray(col_idx, dtype=np.intp)
    if row_idx.ndim != 2 or row_idx.shape != col_idx.shape:
        raise ValueError("gather index arrays must be 2-D and share a shape")
    n, m = a.shape
    if row_idx.size and (row_idx.min() < 0 or row_idx.max() >= n):
        raise IndexError("gather row index out of bounds")
    if col_idx.size and (col_idx.min() < 0 or col_idx.max() >= m):
        raise IndexError("gather column index out of bounds")
    out = Tensor._raw(a.values[row_idx, col_idx])

    def backward(g):
        flat = row_idx.reshape(-1) * m + col_idx.reshape(-1)
        return ((a, _scatter_add(g.reshape(-1, 1), flat, n * m).reshape(n, m)),)

    return _record("gather", out, (a,), backward)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select whole rows of a 2-D tensor; indices are constants."""
    idx = np.asarray(idx, dtype=np.intp).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError("gather_rows index out of bounds")
    out = Tensor._raw(a.values[idx])

    def backward(g):
        return ((a, _scatter_add(g, idx, a.shape[0])),)

    return _record("gather_rows", out, (a,), backward)


def scatter_rows(a: Tensor, idx: np.ndarray, rows: int) -> Tensor:
    """out[idx[e]] += a[e] into a (rows, m) tensor; indices are constants."""
    idx = np.asarray(idx, dtype=np.intp).reshape(-1)
    if idx.size != a.shape[0]:
        raise ValueError(f"scatter_rows needs one index per row, got {idx.size} for {a.shape[0]}")
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise IndexError("scatter_rows index out of bounds")
    out = Tensor._raw(_scatter_add(a.values, idx, rows))

    def backward(g):
        return ((a, g[idx]),)

    return _record("scatter_rows", out, (a,), backward)


def _tanh_grad_in_place(g: np.ndarray, pre: np.ndarray) -> None:
    t = np.tanh(pre, out=pre)
    g *= np.subtract(1.0, np.multiply(t, t, out=t), out=t)


# activation -> (act(x) in place, g *= act'(pre) in place, overwriting pre)
_EDGE_ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0, out=x), lambda g, pre: np.multiply(g, pre > 0.0, out=g)),
    "tanh": (lambda x: np.tanh(x, out=x), _tanh_grad_in_place),
    "linear": (lambda x: x, lambda g, pre: g),
}


def edge_aggregate(p_recv: Tensor, p_send: Tensor, bias: Tensor, edges, activation: str) -> Tensor:
    """out[i] = sum over edges e into i of w_e * act(p_recv[i] + p_send[senders[e]] + bias).

    ``edges`` is a ``layers.Edges``: its ``receivers``, ``senders`` and
    ``weights`` list the edges, and ``receiver_incidence`` and
    ``sender_incidence`` are the unweighted n x E incidences. The forward
    pass weighs the activated edge rows in place and sums them through the
    receiver incidence. The E x m pre-activations exist only while the
    forward or backward pass runs; the tape keeps the n x m inputs, and the
    backward pass recomputes ``pre`` to form g_pre = w * act'(pre) *
    g[receivers]. Its gradients are the receiver and sender incidences
    times g_pre and the column sum of g_pre.
    """
    if activation not in _EDGE_ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    act, act_grad = _EDGE_ACTIVATIONS[activation]
    n, m = edges.node_count, bias.shape[1]
    if p_recv.shape != (n, m) or p_send.shape != (n, m) or bias.shape != (1, m):
        raise ValueError(f"edge_aggregate shape mismatch: {p_recv.shape}, {p_send.shape}, "
                         f"{bias.shape} for {n} nodes")
    rv, sv, bv = p_recv.values, p_send.values, bias.values

    def pre_activations() -> np.ndarray:
        pre = rv[edges.receivers]
        pre += sv[edges.senders]
        pre += bv
        return pre

    messages = act(pre_activations())
    messages *= edges.weights.values
    out = Tensor._raw(edges.receiver_incidence @ messages)

    def backward(g):
        # pre first: its gather temporaries are freed before the E x m g_pre exists
        pre = pre_activations()
        g_pre = g[edges.receivers]
        g_pre *= edges.weights.values
        act_grad(g_pre, pre)
        grads = []
        if p_recv.requires_grad:
            grads.append((p_recv, edges.receiver_incidence @ g_pre))
        if p_send.requires_grad:
            grads.append((p_send, edges.sender_incidence @ g_pre))
        if bias.requires_grad:
            grads.append((bias, _broadcast_grad(g_pre, bv.shape)))
        return grads

    return _record("edge_aggregate", out, (p_recv, p_send, bias), backward)


def row_softmax(a: Tensor) -> Tensor:
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    out = Tensor._raw(s)

    def backward(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        return ((a, (g - dot) * s),)

    return _record("row_softmax", out, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.values)
    out = Tensor._raw(t)

    def backward(g):
        return ((a, g * (1.0 - t * t)),)

    return _record("tanh", out, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out = Tensor._raw(np.maximum(a.values, 0.0))

    def backward(g):
        return ((a, g * (a.values > 0.0)),)

    return _record("relu", out, (a,), backward)


def log(a: Tensor) -> Tensor:
    if np.any(a.values <= 0.0):
        raise NumericError("log requires strictly positive input; clamp first")
    out = Tensor._raw(np.log(a.values))

    def backward(g):
        return ((a, g / a.values),)

    return _record("log", out, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.values < 0.0):
        raise NumericError("sqrt of negative input")
    r = np.sqrt(a.values)
    out = Tensor._raw(r)

    def backward(g):
        # zero subgradient at the origin rather than the analytic +inf
        safe = np.where(r == 0.0, 1.0, r)
        return ((a, g * 0.5 / safe * (r > 0.0)),)

    return _record("sqrt", out, (a,), backward)


def reciprocal(a: Tensor) -> Tensor:
    if np.any(a.values == 0.0):
        raise NumericError("reciprocal of zero entry")
    r = 1.0 / a.values
    out = Tensor._raw(r)

    def backward(g):
        return ((a, -g * r * r),)

    return _record("reciprocal", out, (a,), backward)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); gradient passes only where a > floor."""
    floor = float(floor)
    out = Tensor._raw(np.maximum(a.values, floor))

    def backward(g):
        return ((a, g * (a.values > floor)),)

    return _record("clamp_min", out, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor._raw(np.array([[a.values.sum()]]))

    def backward(g):
        return ((a, np.full_like(a.values, float(g.reshape(-1)[0]))),)

    return _record("sum_all", out, (a,), backward)


def row_sum(a: Tensor) -> Tensor:
    """Sum over columns; (n, m) -> (n, 1)."""
    out = Tensor._raw(a.values.sum(axis=1, keepdims=True))

    def backward(g):
        return ((a, np.broadcast_to(g, a.shape).copy()),)

    return _record("row_sum", out, (a,), backward)


def col_sum(a: Tensor) -> Tensor:
    """Sum over rows; (n, m) -> (1, m)."""
    out = Tensor._raw(a.values.sum(axis=0, keepdims=True))

    def backward(g):
        return ((a, np.broadcast_to(g, a.shape).copy()),)

    return _record("col_sum", out, (a,), backward)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    epsilon: float = 1e-5,
) -> float:
    """Compare analytic and central-difference gradients of a scalar function.

    Returns max_i |analytic_i - numeric_i| / max(1, |analytic_i|, |numeric_i|).
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")
    x.requires_grad = True
    x.zero_grad()
    with Tape() as tape:
        y = f(x)
        if not np.all(np.isfinite(y.values)):
            raise NumericError("non-finite forward value in grad_check")
        tape.backward(y)
    analytic = np.zeros_like(x.values) if x.grad is None else x.grad.copy()

    numeric = np.zeros_like(x.values)
    flat = x.values.reshape(-1)
    num_flat = numeric.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            hi = f(x).item()
            flat[i] = orig - epsilon
            lo = f(x).item()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericError("non-finite forward value in finite differences")
            num_flat[i] = (hi - lo) / (2.0 * epsilon)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    err = np.abs(analytic - numeric) / denom
    return float(err.max()) if err.size else 0.0
