"""Dense float64 tensors with reverse-mode automatic differentiation.

Small on purpose: just the operations the forecasting model needs, plus a
finite-difference checker to verify them. Each op supplies only its forward
value and one hand-derived vector-Jacobian product per input; ``_op`` does
the rest. Gradients are recorded on an explicit tape (a Wengert list): every
op that touches a tracked tensor appends one backward step, and
``Tape.backward`` replays the steps in exact reverse order, accumulating
``+=`` into each input's ``grad`` buffer so fan-out is handled naturally.

Reductions along the graph-node axis (softmax denominators, message-passing
contractions) sum their terms in sorted value order. Sorted summation depends
only on the multiset of addends, so relabeling the nodes permutes every
intermediate bitwise instead of perturbing the last ulp.
"""

from __future__ import annotations

import threading
import warnings

import numpy as np

from .errors import ShapeMismatchError

# Additive mask value treated as "masked out" by softmax_rows. Large enough
# that exp underflows to exactly 0.0, small enough to stay NaN-free.
MASK_VALUE = -1e9

# When True, every op asserts its output is finite. Slow; meant for tests.
CHECK_FINITE = False

_state = threading.local()


def _active_tape():
    return getattr(_state, "tape", None)


class Tape:
    """Ordered record of backward closures for one forward pass.

    Use as a context manager; only ops executed while a tape is active are
    recorded. Tapes on different threads are independent.
    """

    def __init__(self):
        self._steps = []

    def __enter__(self):
        if _active_tape() is not None:
            raise RuntimeError("a tape is already active on this thread")
        _state.tape = self
        return self

    def __exit__(self, *exc):
        _state.tape = None
        return False

    def __len__(self):
        return len(self._steps)

    def add(self, step):
        self._steps.append(step)

    def backward(self, loss: "Tensor"):
        """Seed d(loss)/d(loss)=1 and replay the tape in reverse."""
        if loss.data.size != 1:
            raise ShapeMismatchError("backward() expects a scalar loss")
        loss.grad = np.ones_like(loss.data)
        for step in reversed(self._steps):
            step()


class no_grad:
    """Context manager that suspends tape recording."""

    def __enter__(self):
        self._saved = _active_tape()
        _state.tape = None
        return self

    def __exit__(self, *exc):
        _state.tape = self._saved
        return False


class Tensor:
    """A dense float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _op(data, *inputs) -> Tensor:
    """Common protocol for every op: wrap the forward value and record one
    backward step on the active tape.

    `inputs` are (tensor, vjp) pairs, where vjp maps the output's gradient to
    that input's gradient (a vector-Jacobian product). The output requires
    grad when any input does. On replay, the step accumulates each tracked
    input's vjp in argument order, so an input passed twice, as in
    `mul(x, x)`, sums its two terms in a fixed order.
    """
    out = Tensor(data, any(t.requires_grad for t, _ in inputs))
    if CHECK_FINITE and not np.isfinite(out.data).all():
        raise FloatingPointError("non-finite value produced by an op")
    tape = _active_tape()
    if tape is not None and out.requires_grad:

        def step():
            g = out.grad
            if g is None:
                return
            for t, vjp in inputs:
                if t.requires_grad:
                    t.accumulate(vjp(g))

        tape.add(step)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _sorted_sum(x: np.ndarray, axis: int) -> np.ndarray:
    # np.sort's output depends only on the multiset of values, so the
    # subsequent sum is reordering-invariant bitwise.
    return np.sort(x, axis=axis).sum(axis=axis)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _op(
        a.data + b.data,
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(g, b.data.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _op(
        a.data - b.data,
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(-g, b.data.shape)),
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _op(-a.data, (a, lambda g: -g))


def mul(a, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    return _op(
        a.data * b.data,
        (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.data.shape)),
    )


def scale(a, s: float) -> Tensor:
    """Multiply by a python scalar."""
    a = as_tensor(a)
    s = float(s)
    return _op(a.data * s, (a, lambda g: g * s))


def _matmul_check(a: Tensor, b: Tensor):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError("matmul operands must have ndim >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatchError(
            f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}"
        )


def matmul(a, b) -> Tensor:
    """Matrix product; leading axes broadcast as in numpy."""
    a, b = as_tensor(a), as_tensor(b)
    _matmul_check(a, b)
    if b.data.shape[-1] == 1 or a.data.shape[-2] == 1:
        # thin products dispatch to BLAS matvec kernels whose accumulation
        # pattern depends on row position; einsum keeps each row's result
        # identical under row reordering
        data = np.einsum("...ij,...jk->...ik", a.data, b.data)
    else:
        data = a.data @ b.data
    return _op(
        data,
        (a, lambda g: _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)),
        (b, lambda g: _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)),
    )


def matmul_sorted(a, b) -> Tensor:
    """Matrix product whose contraction sums terms in sorted value order.

    Use where the contracted axis is the graph-node axis: the result is then
    invariant (bitwise) to how the nodes are numbered. Costs an extra
    O(n log n) sort and materializes every product term, one per node pair.
    The model's message passing uses `edge_matmul_sorted` instead; this dense
    form is the reference that op is tested against.
    """
    a, b = as_tensor(a), as_tensor(b)
    _matmul_check(a, b)
    if a.data.shape[:-2] != b.data.shape[:-2]:
        raise ShapeMismatchError("matmul_sorted requires identical batch dims")
    terms = a.data[..., :, :, None] * b.data[..., None, :, :]
    return _op(
        _sorted_sum(terms, axis=-2),
        (a, lambda g: g @ np.swapaxes(b.data, -1, -2)),
        (b, lambda g: np.swapaxes(a.data, -1, -2) @ g),
    )


def neighbor_table(adjacency: np.ndarray) -> np.ndarray:
    """Column indices of each row's nonzeros, padded with -1 to the widest row.

    Returns an (n, max_degree) integer table; within a row, neighbors appear
    in ascending column order.
    """
    rows, cols = np.nonzero(adjacency)
    n = adjacency.shape[0]
    counts = np.bincount(rows, minlength=n)
    table = np.full((n, counts.max(initial=0)), -1, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    table[rows, np.arange(rows.size) - starts[rows]] = cols
    return table


def edge_matmul_sorted(s, adjacency: np.ndarray, neighbors: np.ndarray, h) -> Tensor:
    """`matmul_sorted(s * adjacency, h)` summed over graph edges only.

    s: (..., n, n) attention weights, or None for the plain adjacency;
    adjacency: constant (n, n) array; neighbors: its `neighbor_table`;
    h: (..., n, d). Each output row gathers its neighbors' terms, pads the
    neighbor axis with exact +0.0, and sums in sorted value order. The terms
    the dense product would add for non-edges are all zeros, and in a sorted
    sum zeros sit between the negatives and the positives, so dropping them
    leaves the result bitwise equal to `matmul_sorted`. One exception, the
    sign of a zero: where every dense term is -0.0 (an all-zero gate row over
    negative features), a sum that starts from its first term gives -0.0,
    while here a +0.0 pad can make it +0.0. numpy 2.4 starts sums from +0.0,
    so there both give +0.0.

    The backward uses dense products, forming `s * adjacency` only then.
    """
    h = as_tensor(h)
    s = None if s is None else as_tensor(s)
    n = adjacency.shape[0]
    if h.ndim < 2 or h.data.shape[-2] != n or neighbors.shape[0] != n:
        raise ShapeMismatchError(
            f"edge_matmul_sorted: adjacency {adjacency.shape}, neighbors "
            f"{neighbors.shape} and features {h.data.shape} disagree"
        )
    if s is not None and s.data.shape != h.data.shape[:-1] + (n,):
        raise ShapeMismatchError(
            f"edge_matmul_sorted: weights {s.data.shape} do not match features {h.data.shape}"
        )
    pad = neighbors < 0
    cols = np.where(pad, 0, neighbors)
    rows = np.arange(n)[:, None]
    gate = adjacency[rows, cols]
    if s is not None:
        gate = s.data[..., rows, cols] * gate
    terms = h.data[..., cols, :]
    terms *= gate[..., None]
    np.copyto(terms, 0.0, where=pad[..., None])

    def grad_h(g):
        dense = adjacency if s is None else s.data * adjacency
        return np.swapaxes(dense, -1, -2) @ g

    weights = [] if s is None else [(s, lambda g: (g @ np.swapaxes(h.data, -1, -2)) * adjacency)]
    return _op(_sorted_sum(terms, axis=-2), *weights, (h, grad_h))


def transpose(a, axes: tuple) -> Tensor:
    a = as_tensor(a)
    inverse = np.argsort(axes)
    return _op(np.transpose(a.data, axes), (a, lambda g: np.transpose(g, inverse)))


def reshape(a, shape: tuple) -> Tensor:
    a = as_tensor(a)
    return _op(a.data.reshape(shape), (a, lambda g: g.reshape(a.data.shape)))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    bounds = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
    return _op(
        np.concatenate([t.data for t in tensors], axis=axis),
        *(
            (t, lambda g, lo=lo, hi=hi: np.split(g, [lo, hi], axis=axis)[1])
            for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:])
        ),
    )


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _op(np.maximum(a.data, 0.0), (a, lambda g: g * (a.data > 0.0)))


def abs_(a) -> Tensor:
    # subgradient 0 at exactly 0
    a = as_tensor(a)
    return _op(np.abs(a.data), (a, lambda g: g * np.sign(a.data)))


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def grad(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.data.shape).copy()

    return _op(a.data.sum(axis=axis, keepdims=keepdims), (a, grad))


def mean_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def softmax_rows(x, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis, numerically stabilized by row-max shift.

    `mask` is an additive array broadcastable to x: 0 keeps an entry,
    MASK_VALUE removes it (output exactly 0 there). Rows with every entry
    masked get all-zero output and a warning, since no distribution exists.
    """
    x = as_tensor(x)
    z = x.data
    masked = None
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=np.float64), z.shape)
        masked = mask <= MASK_VALUE / 2
        z = z + mask
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    if masked is not None:
        e = np.where(masked, 0.0, e)
    denom = _sorted_sum(e, axis=-1)[..., None]
    dead = denom == 0.0
    if dead.any():
        warnings.warn("softmax_rows: fully masked row(s) produced zero output")
        denom = np.where(dead, 1.0, denom)
    y = e / denom
    return _op(y, (x, lambda g: y * (g - (g * y).sum(axis=-1, keepdims=True))))


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit population variance,
    then apply the affine (gain, bias)."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat * gain.data + bias.data
    lead = tuple(range(y.ndim - 1))

    def grad_x(g):
        gx = g * gain.data
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        return inv * (gx - m1 - xhat * m2)

    return _op(
        y,
        (gain, lambda g: (g * xhat).sum(axis=lead)),
        (bias, lambda g: g.sum(axis=lead)),
        (x, grad_x),
    )


def conv1d(x, weights, bias=None, causal: bool = False) -> Tensor:
    """1-D convolution along the middle (time) axis of x: (n, t, c_in).

    weights: (k, c_in, c_out). Symmetric mode requires odd k and pads both
    sides; causal mode pads left only, so output[t] never reads inputs > t.
    Output keeps length t.
    """
    x, weights = as_tensor(x), as_tensor(weights)
    bias = as_tensor(bias) if bias is not None else None
    if x.ndim != 3 or weights.ndim != 3:
        raise ShapeMismatchError("conv1d expects x (n,t,c_in), weights (k,c_in,c_out)")
    k, c_in, c_out = weights.data.shape
    n, t, xc = x.data.shape
    if xc != c_in:
        raise ShapeMismatchError(f"conv1d channels disagree: {xc} vs {c_in}")
    if causal:
        pad_l, pad_r = k - 1, 0
    else:
        if k % 2 == 0:
            raise ShapeMismatchError("symmetric conv1d needs an odd kernel size")
        pad_l = pad_r = (k - 1) // 2
    xp = np.pad(x.data, ((0, 0), (pad_l, pad_r), (0, 0)))
    y = np.zeros((n, t, c_out))
    for j in range(k):
        y += xp[:, j : j + t, :] @ weights.data[j]
    if bias is not None:
        y += bias.data

    def grad_w(g):
        gw = np.zeros_like(weights.data)
        for j in range(k):
            gw[j] = np.einsum("ntc,ntd->cd", xp[:, j : j + t, :], g)
        return gw

    def grad_x(g):
        gxp = np.zeros_like(xp)
        for j in range(k):
            gxp[:, j : j + t, :] += g @ weights.data[j].T
        return gxp[:, pad_l : pad_l + t, :]

    biases = [] if bias is None else [(bias, lambda g: g.sum(axis=(0, 1)))]
    return _op(y, *biases, (weights, grad_w), (x, grad_x))


def dropout(x, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    x = as_tensor(x)
    if not training or rate == 0.0:
        return x
    keep = rng.random(x.data.shape) >= rate
    factor = keep / (1.0 - rate)
    return _op(x.data * factor, (x, lambda g: g * factor))


def grad_check(
    function,
    params,
    eps: float = 1e-5,
    max_coords: int = 24,
    seed: int = 0,
) -> float:
    """Compare tape gradients against central finite differences.

    `function` must take no arguments, close over `params` (an iterable of
    Tensors with requires_grad), and return a scalar Tensor. Returns the
    maximum error over sampled coordinates, relative with a unit floor:
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = function()
        tape.backward(loss)
    analytic = [
        np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params
    ]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        coords = range(n) if n <= max_coords else rng.choice(n, max_coords, False)
        for i in coords:
            saved = flat[i]
            flat[i] = saved + eps
            with no_grad():
                up = function().item()
            flat[i] = saved - eps
            with no_grad():
                down = function().item()
            flat[i] = saved
            numeric = (up - down) / (2.0 * eps)
            got = a.reshape(-1)[i]
            err = abs(got - numeric) / max(1.0, abs(got), abs(numeric))
            worst = max(worst, err)
    return worst
