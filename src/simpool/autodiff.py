"""Minimal dense reverse-mode automatic differentiation kernel.

Tensors are numpy arrays tracked on an explicit tape. Operations
record their backward closure in creation order, which is already a
topological order, so ``Tape.backward`` is a single reverse sweep that
visits each recorded node exactly once and releases it. Every tensor is
2-D: scalars and vectors are stored as 1 x 1 and n x 1, so no operation
checks ranks.

The tape holds node numbers and closures, never an op's output. Every
primitive but ``edge_aggregate`` records through ``_op``: it computes
the forward values and states, for each parent, a formula that maps the
output's gradient to that parent's. ``_op`` keeps a formula only for a
parent whose gradient goes somewhere: the node number of an op output,
or the leaf itself. A constant's formula is dropped, and with it every
array only that formula read. A formula captures only what it reads: an
operand's values where it multiplies by them, the op's own output where
the derivative is a function of it (``tanh``, ``relu``, ``row_softmax``,
...), and otherwise shapes, indices or a constant matrix, never a
``Tensor``. So an op output whose values no kept formula reads is freed
as soon as the forward code drops it.

Every tensor holds the tape dtype, float32 unless a ``precision(np.float64)``
block is open. ``Tensor`` casts what it is given, ``incidence`` builds in
the dtype, and every other op allocates in its operands' dtype, so nothing
on the tape changes precision; ``matmul`` and ``sparse_matmul`` reject
operands of two dtypes. Finite differences need float64: ``grad_check``
takes only float64 input.

A batch of graphs is one disjoint union, so the ops see it as one graph.
Where the union must stay per graph, ``matmul`` takes ``segments``: the
product of a block-diagonal left operand, given as its blocks side by
side, with the stacked right operand, one row block per graph.

Gather indices are constants: no gradient ever flows into an index
argument, only into the values. Every sum of rows by an index is a
product with ``incidence(idx, rows)``, the rows x E CSC matrix with a 1
at (idx[e], e), which adds into each row in order of e: the backward
passes of ``gather`` and ``gather_rows``, the sums of ``edge_aggregate``,
and, through ``sparse_matmul``, the model's sum pool. A contiguous range
of rows needs no index: ``row_range`` copies it, and its backward pass
writes the gradient into that range of a zero array.

``sparse_matmul`` multiplies by a constant sparse matrix: stage-0
pooling's A·S on the union's adjacency, or a sum by index on an
``incidence``, with no edge rows.

``edge_aggregate`` is relu or tanh GMN message passing as one op. The op
keeps only its node-row inputs on the tape and recomputes the edge rows in
its backward pass, in runs of whole graphs of bounded size. A linear
message needs no edge rows at all: ``layers.GmnPropagation`` folds it into
node-row products and one ``sparse_matmul`` by the adjacency, which is its
own transpose because graphs are undirected.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence

import numpy as np
import scipy.sparse as sp

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
    "row_range",
    "sparse_matmul",
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


# the dtype every tensor holds and every op computes in; only ``precision`` changes it
_DTYPE: type = np.float32


class precision:
    """Context manager that makes new tensors and incidences ``dtype`` until it exits.

    ``dtype`` is np.float32, the default, or np.float64. Tensors made
    before the block keep their dtype, so a model and the batches it reads
    are built under the same setting.
    """

    def __init__(self, dtype):
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"the tape computes in float32 or float64, not {dtype!r}")
        self.dtype = np.dtype(dtype).type

    def __enter__(self):
        global _DTYPE
        self._outer = _DTYPE
        _DTYPE = self.dtype
        return self

    def __exit__(self, *exc):
        global _DTYPE
        _DTYPE = self._outer


def tape_dtype() -> type:
    """The dtype tensors and incidences are built in: np.float32 outside every ``precision``."""
    return _DTYPE


class Tensor:
    """A 2-D array in the tape dtype participating in reverse-mode differentiation.

    A tensor that an op recorded on a tape made is an op output: it
    carries the node number (``_node``) that ``Tape.backward`` routes its
    gradient by, and nothing on the tape refers to it. Every other tensor
    is a leaf, which receives its gradient in ``grad`` if it requires one.
    """

    __slots__ = ("values", "requires_grad", "grad", "_grad_buffer", "_node", "__weakref__")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=_DTYPE)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.ndim > 2:
            raise ValueError(f"rank {arr.ndim} tensors are not supported (max 2)")
        self.values = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._grad_buffer: np.ndarray | None = None
        self._node: int | None = None

    @classmethod
    def _raw(cls, arr: np.ndarray) -> Tensor:
        """Fast construction for op outputs (already 2-D, in their operands' dtype)."""
        t = object.__new__(cls)
        t.values = arr
        t.requires_grad = False
        t.grad = None
        t._grad_buffer = None
        t._node = None
        return t

    @property
    def _op_output(self) -> bool:
        return self._node is not None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        return float(self.values.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` into ``grad``.

        The first gradient after ``zero_grad`` is copied into a buffer the
        tensor keeps, so ``grad`` is the same array from one backward pass
        to the next: copy it to keep it past a ``zero_grad``. A fresh copy
        per pass would be a long-lived allocation made while the sweep's
        arrays fill the heap, and would keep the allocator from returning
        the memory freed around it. The buffer takes ``g``'s dtype, which
        is the tensor's own on a tape that never changes precision.
        """
        if self.grad is not None:
            self.grad += g
            return
        buffer = self._grad_buffer
        if buffer is None or buffer.shape != g.shape or buffer.dtype != g.dtype:
            buffer = self._grad_buffer = np.empty(g.shape, dtype=g.dtype)
        np.copyto(buffer, g)
        self.grad = buffer

    def store_in(self, values: np.ndarray, grad_buffer: np.ndarray) -> None:
        """Copy the values into ``values`` and keep them there; ``accumulate_grad`` then
        fills ``grad_buffer``.

        Both arrays must have this tensor's shape and dtype; ``training.Adam``
        passes views of its flat arrays. A gradient the tensor holds stays
        where it is until the next ``zero_grad``.
        """
        np.copyto(values, self.values)
        self.values = values
        self._grad_buffer = grad_buffer

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


class Tape:
    """Ordered record of operations; creation order is topological order.

    Each record is an op output's node number and the op's backward
    closure, which holds only the arrays its formula reads and, for each
    parent, where its gradient goes. The tape holds no ``Tensor``.
    """

    def __init__(self):
        self._nodes: list[tuple[int, Callable[[np.ndarray], list]]] = []
        # gradients of op outputs, by node number, that the sweep has not reached yet
        self._grads: dict[int, np.ndarray] = {}
        self._swept = False

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
        """Seed d(loss)/d(loss) = 1 and sweep the tape once, in reverse; a second call raises.

        A tape is swept once: the sweep pops each node before it runs its
        closure, so what the closure holds is freed as soon as nothing else
        refers to it, and the tape is empty afterwards. A closure returns
        (target, gradient) pairs for the parents that need a gradient. A
        node-number target is an op output: its gradient waits in a scratch
        dict, keyed by that number, until the sweep reaches its node. The
        first gradient to arrive is stored as it is and later ones are
        added out of place, so a backward closure may return its own ``g``
        and no closure may write into the ``g`` it receives. A ``Tensor``
        target is a leaf, which accumulates only into ``.grad``; the
        scratch dict never holds it, so it is empty when the sweep ends.
        """
        if self._swept:
            raise RuntimeError("this tape was already swept; a tape is swept once")
        if loss.values.size != 1:
            raise ValueError("backward requires a scalar loss tensor")
        self._swept = True
        grads = self._grads = {}
        nodes = self._nodes
        if loss._node is None:
            nodes.clear()
            if loss.requires_grad:
                loss.accumulate_grad(np.ones_like(loss.values))
            return
        grads[loss._node] = np.ones_like(loss.values)
        while nodes:
            node, backward = nodes.pop()
            g = grads.pop(node, None)
            if g is None:
                continue
            for target, pg in backward(g):
                if isinstance(target, Tensor):
                    target.accumulate_grad(pg)
                    continue
                # out of place: pg may be an array another gradient shares
                prev = grads.get(target)
                grads[target] = pg if prev is None else prev + pg


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


# node numbers of op outputs, unique across tapes: an op output of one tape may feed another
_NODE_NUMBERS = itertools.count()


def _record(op_name: str, out: Tensor, parents: Sequence[Tensor], backward) -> Tensor:
    """Record ``backward`` under a new node number of ``out`` if a parent needs a gradient.

    The open tape keeps the number and the closure, not ``out`` or ``parents``.
    """
    tape = _CURRENT_TAPE
    if tape is not None:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._node = node = next(_NODE_NUMBERS)
                tape._nodes.append((node, backward))
                break
    return out


def _target(t: Tensor):
    """Where ``t``'s gradient goes: its node number for an op output, ``t`` for a leaf
    that requires a gradient, None for a constant."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _op(op_name: str, values: np.ndarray, grads) -> Tensor:
    """The op output ``values``, recorded with the gradient formulas its parents need.

    ``grads`` holds one (parent, formula) pair per parent, and a formula
    maps the output's gradient to that parent's. Outside a tape the output
    is returned at once. Inside one, the closure handed to ``_record``
    keeps a formula only where its parent's gradient goes somewhere
    (``_target``): a constant's formula is dropped, and with it every
    array only that formula read.

    The capture rule: a formula captures only the arrays it reads, and no
    ``Tensor``. Bind a shape it needs to a name of its own, because a
    lambda that reads ``av.shape`` keeps ``av`` alive.

    The closure spells out one and two kept formulas, as nearly every op
    has: a comprehension would cost the backward sweep a frame per node.
    """
    out = Tensor._raw(values)
    if _CURRENT_TAPE is None:
        return out
    parents, kept = [], []
    for p, formula in grads:
        parents.append(p)
        t = _target(p)
        if t is not None:
            kept.append((t, formula))
    if len(kept) == 1:
        ((t, f),) = kept
        return _record(op_name, out, parents, lambda g: ((t, f(g)),))
    if len(kept) == 2:
        (t, f), (u, h) = kept
        return _record(op_name, out, parents, lambda g: ((t, f(g)), (u, h(g))))
    return _record(op_name, out, parents, lambda g: [(t, f(g)) for t, f in kept])


def _check_dtypes(name: str, a, b) -> None:
    """Reject a product of two dtypes: numpy would promote it, and the tape with it."""
    if a.dtype != b.dtype:
        raise TypeError(f"{name} of {a.dtype} and {b.dtype}: build the model and its "
                        "batches under one ad.precision")


def incidence(idx, rows: int) -> sp.csc_matrix:
    """The rows x E CSC matrix with a 1 at (idx[e], e), for E = len(idx), in the tape dtype.

    Its product with an E x m array sums row e into row idx[e]. Each
    column holds one entry, so the product adds into every row in order of
    e, bit-identical to a loop over e, and needs no E x m index array. An
    index outside [0, rows) raises ``IndexError``: scipy would store it
    unchecked, and a product with it writes outside the output.
    """
    idx = np.asarray(idx, dtype=np.intp).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise IndexError(f"incidence index outside [0, {rows})")
    return sp.csc_matrix((np.ones(idx.size, dtype=_DTYPE), idx, np.arange(idx.size + 1)),
                         shape=(rows, idx.size))


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor, segments: np.ndarray | None = None) -> Tensor:
    """a @ b, or with ``segments`` the product of a block-diagonal left operand.

    ``segments`` are offsets 0 = o_0 <= ... <= o_B = K that cut the K
    columns of ``a`` and the K rows of ``b`` into B ranges. The blocks of
    the left operand are the column ranges of ``a``, so ``a`` is r x K and
    the result stacks the B products a[:, o_g:o_(g+1)] @ b[o_g:o_(g+1)] as
    a (B r) x m array. With a = transpose(S) this is S_g^T Z_g for every
    graph g of a disjoint union at once.
    """
    av, bv = a.values, b.values
    if av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
    _check_dtypes("matmul", av, bv)
    if segments is None:
        return _op("matmul", av @ bv, ((a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)))

    segments = np.asarray(segments)
    sizes = np.diff(segments)
    if segments[0] != 0 or segments[-1] != av.shape[1] or np.any(sizes < 0):
        raise ValueError(f"segments must rise from 0 to {av.shape[1]}")
    count, r, m = sizes.size, av.shape[0], bv.shape[1]
    # equal segments (stacked c x c blocks) make 3-D views: one batched product
    equal = count > 0 and bool(np.all(sizes == sizes[0]))

    def blocks(x: np.ndarray, by_columns: bool):
        """x's blocks along the segmented axis, as views where x is contiguous."""
        if equal:
            if by_columns:
                return x.reshape(x.shape[0], count, sizes[0]).transpose(1, 0, 2)
            return x.reshape(count, sizes[0], x.shape[1])
        pairs = zip(segments[:-1], segments[1:])
        return [x[:, lo:hi] for lo, hi in pairs] if by_columns else [x[lo:hi] for lo, hi in pairs]

    def transposed(xs):
        return xs.transpose(0, 2, 1) if equal else [x.T for x in xs]

    def products(lefts, rights, outs) -> None:
        if equal:
            np.matmul(lefts, rights, out=outs)
        else:
            for x, y, o in zip(lefts, rights, outs):
                np.matmul(x, y, out=o)

    out = np.empty((count * r, m), dtype=av.dtype)
    products(blocks(av, True), blocks(bv, False), out.reshape(count, r, m))
    a_shape, b_shape, dtype = av.shape, bv.shape, av.dtype

    def grad_a(g):
        ga = np.empty(a_shape, dtype=dtype)
        products(g.reshape(count, r, m), transposed(blocks(bv, False)), blocks(ga, True))
        return ga

    def grad_b(g):
        gb = np.empty(b_shape, dtype=dtype)
        products(transposed(blocks(av, True)), g.reshape(count, r, m), blocks(gb, False))
        return gb

    return _op("matmul", out, ((a, grad_a), (b, grad_b)))


def transpose(a: Tensor) -> Tensor:
    return _op("transpose", a.values.T.copy(), ((a, lambda g: g.T),))


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
    a_shape, b_shape = av.shape, bv.shape
    return _op("add", av + bv, ((a, lambda g: _broadcast_grad(g, a_shape)),
                                (b, lambda g: _broadcast_grad(g, b_shape))))


def subtract(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    _check_broadcast("subtract", av, bv)
    a_shape, b_shape = av.shape, bv.shape
    return _op("subtract", av - bv, ((a, lambda g: _broadcast_grad(g, a_shape)),
                                     (b, lambda g: -_broadcast_grad(g, b_shape))))


def multiply(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    _check_broadcast("multiply", av, bv)
    a_shape, b_shape = av.shape, bv.shape
    return _op("multiply", av * bv, ((a, lambda g: _broadcast_grad(g * bv, a_shape)),
                                     (b, lambda g: _broadcast_grad(g * av, b_shape))))


def scalar_multiply(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _op("scalar_multiply", a.values * c, ((a, lambda g: g * c),))


def concat_columns(tensors: Sequence[Tensor]) -> Tensor:
    if not tensors:
        raise ValueError("concat_columns of an empty sequence")
    rows = tensors[0].shape[0]
    for t in tensors:
        if t.shape[0] != rows:
            raise ValueError("concat_columns requires equal row counts")
    ends = itertools.accumulate(t.shape[1] for t in tensors)
    return _op("concat_columns", np.concatenate([t.values for t in tensors], axis=1),
               [(t, lambda g, lo=end - t.shape[1], hi=end: g[:, lo:hi])
                for t, end in zip(tensors, ends)])


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

    def grad(g):
        flat = row_idx.reshape(-1) * m + col_idx.reshape(-1)
        return (incidence(flat, n * m) @ g.reshape(-1, 1)).reshape(n, m)

    return _op("gather", a.values[row_idx, col_idx], ((a, grad),))


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select whole rows of a 2-D tensor; indices are constants."""
    idx = np.asarray(idx, dtype=np.intp).reshape(-1)
    rows = a.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise IndexError("gather_rows index out of bounds")
    return _op("gather_rows", np.take(a.values, idx, axis=0),
               ((a, lambda g: incidence(idx, rows) @ g),))


def row_range(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start`` to ``stop`` of a 2-D tensor, copied; their gradient fills that range
    of a zero array, with no incidence."""
    rows = a.shape[0]
    if not 0 <= start <= stop <= rows:
        raise IndexError(f"row range [{start}, {stop}) outside [0, {rows}]")
    shape, dtype = a.shape, a.values.dtype

    def grad(g):
        out = np.zeros(shape, dtype=dtype)
        out[start:stop] = g
        return out

    return _op("row_range", a.values[start:stop].copy(), ((a, grad),))


def sparse_matmul(matrix, a: Tensor) -> Tensor:
    """matrix @ a for a constant scipy sparse ``matrix``; the gradient is matrix^T @ g.

    A CSR row sums its stored entries in index order, so with a 0/1
    ``layers.Edges.adjacency`` this adds in the order of a gather of each
    edge's receiver row and a scatter into its sender, with no edge rows.
    With an ``incidence(idx, rows)`` it sums row e of ``a`` into row
    idx[e], and its gradient gathers g's rows by ``idx``.
    """
    if matrix.shape[1] != a.shape[0]:
        raise ValueError(f"sparse_matmul shape mismatch: {matrix.shape} @ {a.shape}")
    _check_dtypes("sparse_matmul", matrix, a.values)
    return _op("sparse_matmul", matrix @ a.values, ((a, lambda g: matrix.T @ g),))


def _tanh_grad_in_place(g: np.ndarray, pre: np.ndarray) -> None:
    t = np.tanh(pre, out=pre)
    g *= np.subtract(1.0, np.multiply(t, t, out=t), out=t)


# activation -> (act(x) in place, g *= act'(pre) in place, overwriting pre)
_EDGE_ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0, out=x), lambda g, pre: np.multiply(g, pre > 0.0, out=g)),
    "tanh": (lambda x: np.tanh(x, out=x), _tanh_grad_in_place),
}


def cost_runs(costs, budget) -> list[tuple[int, int]]:
    """(first, end) positions of runs of consecutive items whose ``costs`` fit ``budget``.

    The cut is greedy: a run takes items while their summed cost fits,
    and an item that costs more than ``budget`` alone is a run of its own.
    """
    cuts, total = [0], 0
    for i, cost in enumerate(costs):
        if i > cuts[-1] and total + cost > budget:
            cuts.append(i)
            total = 0
        total += cost
    cuts.append(len(costs))
    return list(zip(cuts[:-1], cuts[1:])) if len(costs) else []


# bytes of E x m edge rows that one run of ``edge_aggregate`` holds, in any dtype
EDGE_CHUNK_BYTES = 1 << 20


def edge_aggregate(p_recv: Tensor, p_send: Tensor, bias: Tensor, edges, activation: str) -> Tensor:
    """out[i] = sum over edges e into i of act(p_recv[i] + p_send[senders[e]] + bias).

    ``activation`` is "relu" or "tanh"; a linear message sum has a cheaper
    form without edge rows (``layers.GmnPropagation``), so it is not served.
    ``edges`` is a ``layers.Edges``: its ``receivers`` and ``senders`` list
    the edges, ``receiver_incidence`` and ``sender_incidence`` are its
    n x E incidences, and its offsets cut nodes and edges into graphs.
    Both passes run over runs of whole graphs whose edge rows fit
    ``EDGE_CHUNK_BYTES`` (``cost_runs``; a float32 run holds twice the
    edges of a float64 one), so the E x m pre-activations exist one run
    at a time and only while a pass runs; the tape keeps the n x m inputs.
    A run that covers the union sums through the union's incidences; any
    other run through the ``incidence`` of its own edges and nodes. The
    forward pass sums the activated edge rows by receiver. The backward
    pass recomputes ``pre`` to form g_pre = act'(pre) * g[receivers]; the
    input gradients sum g_pre by receiver and by sender, and the bias
    gradient is the column sum of the ``p_recv`` gradient, which sums every
    edge once whatever the runs are. Every node's sums add in edge order,
    so outputs and gradients do not depend on the runs.

    It is the one primitive that records its own closure through
    ``_record`` rather than formulas through ``_op``: its three gradients
    share one recomputation of each run's ``pre`` and ``g_pre``, and a
    formula per parent would redo that pass for each.
    """
    if activation not in _EDGE_ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    act, act_grad = _EDGE_ACTIVATIONS[activation]
    n, m = edges.node_count, bias.shape[1]
    if p_recv.shape != (n, m) or p_send.shape != (n, m) or bias.shape != (1, m):
        raise ValueError(f"edge_aggregate shape mismatch: {p_recv.shape}, {p_send.shape}, "
                         f"{bias.shape} for {n} nodes")
    rv, sv, bv = p_recv.values, p_send.values, bias.values
    nodes, starts = edges.node_offsets, edges.edge_offsets
    row_bytes = max(m, 1) * rv.itemsize
    runs = [(nodes[lo], nodes[hi], starts[lo], starts[hi])
            for lo, hi in cost_runs((np.diff(starts) * row_bytes).tolist(), EDGE_CHUNK_BYTES)]

    def pre_activations(e0: int, e1: int) -> np.ndarray:
        pre = np.take(rv, edges.receivers[e0:e1], axis=0)
        pre += np.take(sv, edges.senders[e0:e1], axis=0)
        pre += bv
        return pre

    def run_incidence(end: str, n0: int, n1: int, e0: int, e1: int):
        """The incidence of the run's edges by their ``end``, "receiver" or "sender"."""
        if n1 - n0 == n:
            return getattr(edges, f"{end}_incidence")
        return incidence(getattr(edges, f"{end}s")[e0:e1] - n0, n1 - n0)

    out = np.empty((n, m), dtype=rv.dtype)
    for n0, n1, e0, e1 in runs:
        out[n0:n1] = run_incidence("receiver", n0, n1, e0, e1) @ act(pre_activations(e0, e1))
    out = Tensor._raw(out)
    t_recv, t_send, t_bias = _target(p_recv), _target(p_send), _target(bias)

    def backward(g):
        # the bias gradient is a sum of the p_recv one
        g_recv = (np.empty((n, m), dtype=rv.dtype)
                  if t_recv is not None or t_bias is not None else None)
        g_send = np.empty((n, m), dtype=rv.dtype) if t_send is not None else None
        for n0, n1, e0, e1 in runs:
            # pre first: its gather temporaries are freed before the E x m g_pre exists
            pre = pre_activations(e0, e1)
            g_pre = np.take(g, edges.receivers[e0:e1], axis=0)
            act_grad(g_pre, pre)
            del pre
            if g_recv is not None:
                g_recv[n0:n1] = run_incidence("receiver", n0, n1, e0, e1) @ g_pre
            if g_send is not None:
                g_send[n0:n1] = run_incidence("sender", n0, n1, e0, e1) @ g_pre
        grads = []
        if t_recv is not None:
            grads.append((t_recv, g_recv))
        if g_send is not None:
            grads.append((t_send, g_send))
        if t_bias is not None:
            grads.append((t_bias, g_recv.sum(axis=0, keepdims=True)))
        return grads

    return _record("edge_aggregate", out, (p_recv, p_send, bias), backward)


def row_softmax(a: Tensor) -> Tensor:
    """Softmax of each row, with subnormal probabilities flushed to zero.

    A probability below the dtype's smallest normal number is zero to its
    precision. Kept, it would make the gradient it scales subnormal too,
    and every product that gradient reaches runs several times slower: a
    saturated float32 classifier took a DD step at paper width from 4.5
    to 16 s. Flushing it makes its gradient exactly zero.
    """
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    s[s < np.finfo(s.dtype).tiny] = 0.0
    return _op("row_softmax", s, ((a, lambda g: (g - (g * s).sum(axis=1, keepdims=True)) * s),))


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.values)
    return _op("tanh", t, ((a, lambda g: g * (1.0 - t * t)),))


def relu(a: Tensor) -> Tensor:
    """max(a, 0). The backward pass reads the output: max(a, 0) > 0 exactly where a > 0,
    NaN included."""
    r = np.maximum(a.values, 0.0)
    return _op("relu", r, ((a, lambda g: g * (r > 0.0)),))


def log(a: Tensor) -> Tensor:
    av = a.values
    if np.any(av <= 0.0):
        raise NumericError("log requires strictly positive input; clamp first")
    return _op("log", np.log(av), ((a, lambda g: g / av),))


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.values < 0.0):
        raise NumericError("sqrt of negative input")
    r = np.sqrt(a.values)
    # zero subgradient at the origin rather than the analytic +inf
    return _op("sqrt", r, ((a, lambda g: g * 0.5 / np.where(r == 0.0, 1.0, r) * (r > 0.0)),))


def reciprocal(a: Tensor) -> Tensor:
    if np.any(a.values == 0.0):
        raise NumericError("reciprocal of zero entry")
    r = 1.0 / a.values
    return _op("reciprocal", r, ((a, lambda g: -g * r * r),))


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); gradient passes only where a > floor.

    The backward pass reads the output: max(a, floor) > floor exactly
    where a > floor, NaN included.
    """
    floor = float(floor)
    r = np.maximum(a.values, floor)
    return _op("clamp_min", r, ((a, lambda g: g * (r > floor)),))


def sum_all(a: Tensor) -> Tensor:
    shape, dtype = a.shape, a.values.dtype
    return _op("sum_all", np.array([[a.values.sum()]]),
               ((a, lambda g: np.full(shape, float(g.reshape(-1)[0]), dtype=dtype)),))


def row_sum(a: Tensor) -> Tensor:
    """Sum over columns; (n, m) -> (n, 1)."""
    shape = a.shape
    return _op("row_sum", a.values.sum(axis=1, keepdims=True),
               ((a, lambda g: np.broadcast_to(g, shape).copy()),))


def col_sum(a: Tensor) -> Tensor:
    """Sum over rows; (n, m) -> (1, m)."""
    shape = a.shape
    return _op("col_sum", a.values.sum(axis=0, keepdims=True),
               ((a, lambda g: np.broadcast_to(g, shape).copy()),))


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
    ``x`` must be float64, made under ``precision(np.float64)``, and ``f``
    must build its other tensors under the same setting: a float32 central
    difference at these epsilons is mostly rounding.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")
    if x.values.dtype != np.float64:
        raise ValueError(f"grad_check takes a float64 input, not {x.values.dtype}")
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
