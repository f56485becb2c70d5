"""Dense float64 tensors with reverse-mode automatic differentiation.

Small on purpose: just the operations the forecasting model needs; the tests
check each against finite differences. Each op supplies only its forward
value and one hand-derived vector-Jacobian product per input; ``_op`` does
the rest. Gradients are recorded on an explicit tape (a Wengert list): every
op that touches a tracked tensor appends one backward step, and
``Tape.backward`` replays the steps in exact reverse order, accumulating
``+=`` into each input's ``grad`` buffer so fan-out is handled naturally.

Reductions along the graph-node axis (softmax denominators, message-passing
contractions) sum their terms in sorted value order, and the spatial attention
logits use a contraction that rounds every node pair the same way, so
relabeling the nodes permutes every intermediate bitwise instead of perturbing
the last ulp.

Two ops split their work in two fixed halves, never sized by the core
count, so results do not depend on the machine:

* `fork_join`, a mean loss over the items of a batch in two parts, and
  `edge_attention`'s forward at region scale, over its weeks, both run the
  second half through `_both` on one worker thread, started on first use
  and then kept. Inside a `fork_join` half the worker is taken, so a week
  split there runs inline. Split or not, `fork_join` streams its items:
  each runs its backward right after its forward and keeps only its
  gradients, so a thread holds one item's graph at a time (micro-batch
  gradient accumulation, as in GPipe, arXiv:1811.06965).

`Tape.backward` and `fork_join` hold numpy's bundled OpenBLAS at
one thread (`blas_single_thread`): two halves that each ran two BLAS threads
oversubscribed a 2-core machine and measured no gain, and products on one
BLAS thread round alike whatever thread count the environment sets.
Elsewhere, as in a forecast, BLAS keeps its own thread count.
"""

from __future__ import annotations

import functools
import os
import threading
import warnings

import numpy as np

from .errors import ShapeMismatchError

# Additive mask value treated as "masked out" by softmax_rows. Large enough
# that exp underflows to exactly 0.0, small enough to stay NaN-free.
MASK_VALUE = -1e9

_state = threading.local()


def _active_tape():
    return getattr(_state, "tape", None)


def recording() -> bool:
    """Whether ops on this thread are being recorded on a tape."""
    return _active_tape() is not None


class Tape:
    """Ordered record of backward closures for one forward pass.

    Use as a context manager; only ops executed while a tape is active are
    recorded. Tapes on different threads are independent. Replaying the tape
    frees the gradient of every op output once its step has passed it on;
    leaves (parameters and inputs) keep theirs.
    """

    def __init__(self):
        self._steps = []
        # steps recorded on the sub-tapes of this tape's `fork_join` calls:
        # len() counts every op a forward recorded, split or not
        self._nested = 0

    def __enter__(self):
        if _active_tape() is not None:
            raise RuntimeError("a tape is already active on this thread")
        _state.tape = self
        return self

    def __exit__(self, *exc):
        _state.tape = None
        return False

    def __len__(self):
        return len(self._steps) + self._nested

    def add(self, step):
        self._steps.append(step)

    def backward(self, loss: "Tensor"):
        """Seed d(loss)/d(loss)=1 and replay the tape in reverse."""
        if loss.data.size != 1:
            raise ShapeMismatchError("backward() expects a scalar loss")
        loss.grad = np.ones_like(loss.data)
        with blas_single_thread():
            self._replay()

    def _replay(self):
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
        if g.shape != self.data.shape:
            raise ShapeMismatchError(
                f"gradient of shape {g.shape} for a tensor of shape {self.data.shape}"
            )
        if self.grad is None:
            # g + 0.0 turns -0.0 into +0.0, as adding g to zeros does, and the
            # buffer keeps the data's memory layout: later reductions of the
            # gradient round by layout
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _op(data, *inputs) -> Tensor:
    """Common protocol for every op: wrap the forward value and record one
    backward step on the active tape.

    `inputs` are (tensor, vjp) pairs, where vjp maps the output's gradient to
    that input's gradient (a vector-Jacobian product), or to None for no
    gradient. The output requires grad when any input does. On replay, the
    step accumulates each tracked input's vjp in argument order, so an input
    passed twice, as in `mul(x, x)`, sums its two terms in a fixed order, and
    then frees the output's gradient: nothing reads it again, and keeping
    every intermediate gradient until the tape is dropped cost 120 MB of a
    2-window 300-node step.
    """
    out = Tensor(data, any(t.requires_grad for t, _ in inputs))
    tape = _active_tape()
    if tape is not None and out.requires_grad:

        def step():
            g = out.grad
            if g is None:
                return
            for t, vjp in inputs:
                if t.requires_grad:
                    grad = vjp(g)
                    if grad is not None:
                        t.accumulate(grad)
            out.grad = None

        tape.add(step)
    return out


# Names in numpy's bundled OpenBLAS (scipy-openblas64) of the calls that set
# and read its thread count; threadpoolctl makes the same calls.
BLAS_SET_THREADS = "scipy_openblas_set_num_threads64_"
BLAS_GET_THREADS = "scipy_openblas_get_num_threads64_"
_blas_lock = threading.Lock()
_blas_pin = {"depth": 0, "saved": None}


@functools.cache
def _blas_threads():
    """(set, get) thread-count functions of the OpenBLAS this process has
    loaded, looked up on first use among its mapped libraries; None where
    none exports both symbols."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        if not path.startswith("/"):
            continue
        try:
            lib = ctypes.CDLL(path)
            set_threads, get_threads = getattr(lib, BLAS_SET_THREADS), getattr(lib, BLAS_GET_THREADS)
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None


class blas_single_thread:
    """Context that holds numpy's OpenBLAS at one thread and restores the
    count it found on the last exit. Re-entrant, also across threads; does
    nothing where the thread-count calls are missing (`_blas_threads`)."""

    def __enter__(self):
        functions = _blas_threads()
        if functions is not None:
            with _blas_lock:
                if _blas_pin["depth"] == 0:
                    _blas_pin["saved"] = functions[1]()
                    functions[0](1)
                _blas_pin["depth"] += 1
        return self

    def __exit__(self, *exc):
        functions = _blas_threads()
        if functions is not None:
            with _blas_lock:
                _blas_pin["depth"] -= 1
                if _blas_pin["depth"] == 0:
                    functions[0](_blas_pin["saved"])
        return False


def blas_info() -> dict:
    """numpy's BLAS library and version, and the BLAS thread count of every
    backward: 1, or None where it cannot be pinned."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "library": blas.get("name"),
        "version": blas.get("version"),
        "backward_threads": None if _blas_threads() is None else 1,
    }


# Held by the caller whose second half the worker of `_both` runs.
_busy = threading.Lock()


@functools.cache
def _executor():
    """The worker of `_both`: one thread, made on first use and then kept. A
    thread started for every step raised peak memory with each step (357
    against 320 MB after 16 steps), most likely as the allocator kept an
    arena for every thread it had seen."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="roadrisk-half")


def _forget_worker():
    # a forked child has no worker thread, but an executor that thinks it
    # has an idle one would queue every job for it and wait forever
    global _busy
    _busy = threading.Lock()
    _executor.cache_clear()


os.register_at_fork(after_in_child=_forget_worker)


def _both(first, second):
    """Run second() on the worker thread while first() runs here, and join.

    A failure of second() is re-raised here after the join; one of first()
    wins over it. Where the worker is taken (by another thread, or by a
    split inside a half) both run here, first() then second().
    """
    if not _busy.acquire(blocking=False):
        first()
        second()
        return
    try:
        half = _executor().submit(second)
        try:
            first()
        finally:
            failure = half.exception()  # the join
    finally:
        _busy.release()
    if failure is not None:
        raise failure


def fork_join(loss, params: dict[str, Tensor], parts) -> Tensor:
    """The mean of the scalar losses `loss(params, item)` over the items of
    one part, or of two with part 1 on the worker thread, streamed.

    Each item's forward runs on a sub-tape of its own, with leaf Tensors
    that share the parameter arrays, and its backward runs at once, seeded
    with the 1/b (b items) that `scale` hands each term of a mean; only the
    loss value and the leaves' gradients are kept. The result adds the
    values in item order, part 0's first, and scales the sum by 1/b, as
    `add` and `scale` do, in one step on the caller's tape, whose `len`
    counts the sub-tapes' steps too. The step hands each parameter the
    incoming gradient times each item's gradient, in reverse item order, as
    one tape over all the items accumulates them: a loss that is the tape's
    root gets a gradient of exactly 1, so its gradients equal that tape's
    bitwise where each parameter enters an item's loss once. Forwards and
    backwards hold BLAS at one thread (`blas_single_thread`). A failure in
    part 1 is re-raised here after the join.
    """
    weight = 1.0 / sum(map(len, parts))
    kept = [[] for _ in parts]  # (loss value, gradients by parameter, steps) per item

    def run(half):
        saved = _active_tape()
        try:
            for item in parts[half]:
                leaves = {name: Tensor(p.data, p.requires_grad) for name, p in params.items()}
                _state.tape = tape = Tape()
                out = loss(leaves, item)
                out.grad = np.full_like(out.data, weight)
                tape._replay()
                kept[half].append((out.data, {k: leaf.grad for k, leaf in leaves.items()}, len(tape)))
        finally:
            _state.tape = saved

    with blas_single_thread():
        if len(parts) == 1:
            run(0)
        else:
            _both(lambda: run(0), lambda: run(1))
    items = [entry for part in kept for entry in part]
    if recording():
        _active_tape()._nested += sum(steps for _, _, steps in items)
    total = items[0][0]
    for value, _, _ in items[1:]:
        total = total + value
    return _op(
        total * weight,
        *(
            (params[name], lambda g, grad=grad: None if grad is None else g * grad)
            for _, grads, _ in reversed(items)
            for name, grad in grads.items()
        ),
    )


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _sorted_sum(x: np.ndarray, axis: int) -> np.ndarray:
    # A sum's bits depend on the order of its terms and on the memory layout
    # of the array: numpy sums a contiguous axis pairwise and a strided one
    # term by term, and np.sort keeps the layout of its input. Sorting a
    # C-ordered copy fixes both, so the result depends only on the multiset
    # of values along `axis` and on the array's shape.
    s = np.array(x, order="C")
    s.sort(axis=axis)
    return s.sum(axis=axis)


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
    The model's message passing uses `edge_matmul_sorted` and `edge_attention`
    instead; this dense form is the reference those ops are tested against.
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


def _edge_sum(gate: np.ndarray, neighbors: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Rows of `matmul_sorted(G, h)` for the (batch, rows, n) matrix G that is
    `gate` (batch or 1, rows, max_degree) at the columns `neighbors` (rows,
    max_degree) and zero elsewhere; h: (batch, n, d); `gate` must be 0.0 at
    padding slots.

    Each row gathers its neighbours' terms, with padding slots reading an
    appended zero row, sorts them by value and adds them one after another
    starting from +0.0, as numpy 2.4 sums the dense product's node axis. The
    terms the dense product adds for non-edges are all zeros, and in a sorted
    sum zeros sit between the negatives and the positives, so dropping them
    leaves the result bitwise equal to `matmul_sorted`. Terms are laid out
    (d, batch, rows, max_degree), so the sort runs on contiguous lanes and
    the gate broadcasts over the outermost axis.
    """
    batch, n, d = h.shape
    features = np.concatenate([h.transpose(2, 0, 1), np.zeros((d, batch, 1))], axis=-1)
    # take, unlike fancy indexing, returns the gathered slots C-ordered
    terms = features.reshape(-1, n + 1).take(np.where(neighbors < 0, n, neighbors).ravel(), axis=1)
    terms = terms.reshape((d, batch) + neighbors.shape)
    terms *= gate
    terms.sort(axis=-1)
    total = np.zeros(terms.shape[:-1])
    for slot in range(terms.shape[-1]):
        total += terms[..., slot]
    return total.transpose(1, 2, 0)


def _edge_transpose(gate: np.ndarray, neighbors: np.ndarray, g: np.ndarray) -> np.ndarray:
    """`G^T @ g` for the matrix G of `_edge_sum`, gathered over each column's
    incoming edges; the table's padding entries read a zero weight."""
    n, width = neighbors.shape
    flat = neighbors.ravel()
    slots = np.flatnonzero(flat >= 0)
    slots = slots[np.argsort(flat[slots], kind="stable")]  # by column, rows ascending
    column = flat[slots]
    counts = np.bincount(column, minlength=n)
    table = np.full((n, counts.max(initial=0)), n * width)  # n * width: a zero slot
    table[column, np.arange(slots.size) - (np.cumsum(counts) - counts)[column]] = slots
    lead = gate.shape[:-2]
    padded = np.concatenate([gate.reshape(lead + (n * width,)), np.zeros(lead + (1,))], axis=-1)
    rows = np.minimum(table // max(width, 1), n - 1)
    return (g[..., rows, :] * padded[..., table][..., None]).sum(axis=-2)


def edge_matmul_sorted(neighbors: np.ndarray, edge_weights: np.ndarray, h) -> Tensor:
    """`matmul_sorted(A, h)` summed over the edges of the constant adjacency A.

    neighbors, edge_weights: A's `graph.EdgeTable`; h: (..., n, d). Bitwise
    equal to the dense product (see `_edge_sum`). The backward gathers each
    node's incoming edges, so no (n, n) array is formed.
    """
    h = as_tensor(h)
    if h.ndim < 2 or h.data.shape[-2] != neighbors.shape[0] or edge_weights.shape != neighbors.shape:
        raise ShapeMismatchError(
            f"edge_matmul_sorted: neighbors {neighbors.shape}, weights "
            f"{edge_weights.shape} and features {h.data.shape} disagree"
        )
    flat = h.data.reshape(-1, *h.data.shape[-2:])
    return _op(
        _edge_sum(edge_weights, neighbors, flat).reshape(h.data.shape),
        (h, lambda g: _edge_transpose(edge_weights, neighbors, g)),
    )


# Node pairs held per row block by `edge_attention`: 16 MB of float64.
BLOCK_ELEMENTS = 1 << 21
# Node pairs up to which `edge_attention` keeps its probabilities for the
# backward instead of recomputing them: 512 kB of float64.
KEEP_ELEMENTS = 1 << 16


def _row_blocks(n: int, block_rows: int):
    """[lo, hi) bounds of consecutive row blocks. No block holds a single row
    (unless n == 1): numpy sends a one-row product to BLAS gemv, which rounds
    differently from the gemm every wider block uses."""
    bounds = list(range(0, n, max(block_rows, 2))) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _attention_inputs(q: Tensor, k: Tensor, n: int):
    """C-ordered (batch, n, d) copies of q and k, k transposed, the logit scale
    and the row blocks, so that every caller rounds alike."""
    if q.ndim < 2 or q.data.shape != k.data.shape or q.data.shape[-2] != n:
        raise ShapeMismatchError(
            f"attention queries {q.data.shape} and keys {k.data.shape} disagree on {n} nodes"
        )
    d = q.data.shape[-1]
    qc = np.ascontiguousarray(q.data.reshape(-1, n, d))
    kc = np.ascontiguousarray(k.data.reshape(-1, n, d))
    kt = np.ascontiguousarray(np.swapaxes(kc, 1, 2))
    blocks = _row_blocks(n, BLOCK_ELEMENTS // max(qc.shape[0] * n, 1))
    return qc, kc, kt, 1.0 / np.sqrt(d), blocks


def _logits(a: np.ndarray, bt: np.ndarray, lo: int, hi: int, scale: float, out=None) -> np.ndarray:
    # einsum without BLAS sums each entry's d products in order, so an entry's
    # bits do not depend on its row or column position; BLAS rounds by position
    out = np.einsum("lid,ldj->lij", a[:, lo:hi], bt, optimize=False, out=out)
    out *= scale
    return out


def _shifted_exp(z: np.ndarray) -> np.ndarray:
    """Overwrite the logits z with exp(z - row max); returns the row max."""
    m = z.max(axis=-1, keepdims=True)
    z -= m
    np.exp(z, out=z)
    return m[..., 0]


def attention_rows(q, k) -> np.ndarray:
    """softmax(q k^T / sqrt(d)) over complete rows, as `edge_attention`
    computes it; (..., n, n). For inspecting small graphs only."""
    q, k = as_tensor(q), as_tensor(k)
    n = q.data.shape[-2]
    qc, _, kt, scale, blocks = _attention_inputs(q, k, n)
    rows = np.empty((qc.shape[0], n, n))
    for lo, hi in blocks:
        e = _logits(qc, kt, lo, hi, scale)
        _shifted_exp(e)
        rows[:, lo:hi] = e / _sorted_sum(e, axis=-1)[..., None]
    return rows.reshape(q.data.shape[:-1] + (n,))


def edge_attention(q, k, neighbors: np.ndarray, edge_weights: np.ndarray, h) -> Tensor:
    """`matmul_sorted(softmax_rows(q k^T / sqrt(d)) * A, h)` in memory that
    grows with edges.

    q, k: (..., n, d); h: (..., n, d_h); neighbors, edge_weights: the
    `graph.EdgeTable` of the constant adjacency A. Attention is normalised
    over all n nodes, but A keeps only its edges, so the op walks blocks of
    complete rows, as many as fit in BLOCK_ELEMENTS node pairs. Per block it
    forms the logits, the row max, the exponentials and their sorted-sum
    denominator, divides at the edges only and sums each row's messages
    (`_edge_sum`). It keeps the gated edge probabilities, the row max and
    the denominator; the backward recomputes each block, unless all n x n
    probabilities fit in KEEP_ELEMENTS.
    When it recomputes them, the forward splits the weeks in two fixed
    halves through `_both`: the first ceil(weeks / 2) run on the calling
    thread and the rest on the kept worker, each writing its own slices of
    the kept arrays and of one logits buffer. Inside a `fork_join` half the
    worker is taken and both halves run inline. The backward runs on the
    thread that replays the tape, with BLAS held at one thread; at region
    scale `training.batch_loss` puts the worker to work there, by running
    half of a batch's windows, forward and backward, through `fork_join`.
    The backward works in two node-pair buffers of one block each; when one
    block holds every row, its column pass takes the row pass's dlogits,
    transposed. Results are bitwise independent of the week split and of
    the inputs' memory layout; the output, but not the gradients (BLAS's
    g h^T rounds by row count), also of the block size; and the output is
    bitwise equivariant under relabeling the nodes.
    """
    q, k, h = as_tensor(q), as_tensor(k), as_tensor(h)
    n, width = neighbors.shape
    if h.ndim < 2 or h.data.shape[:-1] != q.data.shape[:-1] or edge_weights.shape != (n, width):
        raise ShapeMismatchError(
            f"edge_attention: queries {q.data.shape}, features {h.data.shape}, neighbors "
            f"{neighbors.shape} and weights {edge_weights.shape} disagree"
        )
    qc, kc, kt, scale, blocks = _attention_inputs(q, k, n)
    hc = np.ascontiguousarray(h.data.reshape(-1, n, h.data.shape[-1]))
    batch = qc.shape[0]
    # flat position of every slot within its C-ordered row block, padding
    # slots reading column 0
    slots_at = [
        (np.arange(hi - lo)[:, None] * n + np.maximum(neighbors[lo:hi], 0)).ravel()
        for lo, hi in blocks
    ]

    def at_slots(block, b):
        """(weeks, rows, width) entries of a (weeks, rows, n) block at each slot."""
        weeks, rows = block.shape[:2]
        return block.reshape(weeks, -1).take(slots_at[b], axis=1).reshape(weeks, rows, width)

    gate = np.empty((batch, n, width))
    row_max, denom = np.empty((batch, n)), np.empty((batch, n))
    out = np.empty(hc.shape)
    # a small graph keeps its one block of probabilities: at the fixture's
    # 30 nodes recomputing them costs the backward more than their 86 kB
    keep = len(blocks) == 1 and batch * n * n <= KEEP_ELEMENTS
    kept = np.empty((batch, n, n)) if keep else None
    # one logits buffer for both halves: temporaries that each thread allocated
    # itself stayed in the allocator's per-thread pools and raised peak memory
    block_rows = max(hi - lo for lo, hi in blocks)
    logits = np.empty(batch * block_rows * n)

    def forward(w0, w1, buf):
        """Fill weeks w0:w1 of gate, row_max, denom and out, block by block,
        with the logits in `buf`."""
        for b, (lo, hi) in enumerate(blocks):
            e = buf[: (w1 - w0) * (hi - lo) * n].reshape(w1 - w0, hi - lo, n)
            _logits(qc[w0:w1], kt[w0:w1], lo, hi, scale, out=e)
            row_max[w0:w1, lo:hi] = _shifted_exp(e)
            edges = at_slots(e, b)
            if kept is not None:
                kept[:] = e
            # e is C-ordered, so sorting it in place sums as `_sorted_sum` does
            e.sort(axis=-1)
            denom[w0:w1, lo:hi] = e.sum(axis=-1)
            gate[w0:w1, lo:hi] = edges / denom[w0:w1, lo:hi, None] * edge_weights[lo:hi]
            out[w0:w1, lo:hi] = _edge_sum(gate[w0:w1, lo:hi], neighbors[lo:hi], hc[w0:w1])

    # Weeks are independent, so the halves write disjoint slices. Always two
    # halves, whatever the machine's core count, so the split never changes
    # a bit.
    mid = (batch + 1) // 2
    if keep or mid == batch:
        forward(0, batch, logits)
    else:
        _both(
            lambda: forward(0, mid, logits),
            lambda: forward(mid, batch, logits[mid * block_rows * n :]),
        )
    if kept is not None:
        kept /= denom[..., None]
    memo = {}

    def grads(g):
        """dq, dk and dh, computed together on the first input's call."""
        if memo.get("g") is not g:
            memo["g"] = g
            memo["grads"] = attention_grads(np.ascontiguousarray(g.reshape(hc.shape)))
        return memo["grads"]

    def scatter(buf, at, values):
        buf.fill(0.0)
        buf.reshape(batch, -1)[:, at] = values
        return buf

    def attention_grads(g):
        # dlogits = y * (g_y - sum over edges of g_y * y), where g_y, the
        # gradient of the probabilities, is nonzero at the edges only
        edge_rows, edge_slots = np.nonzero(neighbors >= 0)
        edge_cols = neighbors[edge_rows, edge_slots]
        edge_slot = edge_rows * width + edge_slots

        def edges_in(major, minor, lo, hi):
            """Flat positions, in a C-ordered (hi - lo, n) block indexed by
            (major, minor), of the edges whose major index lies in lo:hi,
            and their slots in (n, width)."""
            sel = (major >= lo) & (major < hi)
            return (major[sel] - lo) * n + minor[sel], edge_slot[sel]

        # every node-pair array below is a block of one of two buffers, for
        # probabilities and for products and dlogits. Two allocations: glibc
        # raises its mmap threshold to the largest block freed, and one of
        # twice the size left region-forecast's peak RSS 6-26 MB higher.
        buffers = [np.empty(batch * block_rows * n) for _ in range(2)]

        def block(i, lo, hi):
            return buffers[i][: batch * (hi - lo) * n].reshape(batch, hi - lo, n)

        def probabilities(a, bt, lo, hi, m, s):
            y = _logits(a, bt, lo, hi, scale, out=block(0, lo, hi))
            y -= m
            return np.divide(np.exp(y, out=y), s, out=y)

        g_y, shift = np.empty(gate.shape), np.empty(row_max.shape)
        dq, dk, dh = np.empty(qc.shape), np.empty(kc.shape), np.empty(hc.shape)
        ht = np.ascontiguousarray(np.swapaxes(hc, 1, 2))
        for b, (lo, hi) in enumerate(blocks):
            dense = np.matmul(g[:, lo:hi], ht, out=block(1, lo, hi))
            dot = at_slots(dense, b)  # <g_i, h_j> at each slot
            g_y[:, lo:hi] = dot * edge_weights[lo:hi]
            shift[:, lo:hi] = (gate[:, lo:hi] * dot).sum(axis=-1)
            y = kept
            if y is None:
                y = probabilities(qc, kt, lo, hi, row_max[:, lo:hi, None], denom[:, lo:hi, None])
            at, slot = edges_in(edge_rows, edge_cols, lo, hi)
            scatter(dense, at, g_y.reshape(batch, -1)[:, slot])
            dense -= shift[:, lo:hi, None]
            dense *= y
            dq[:, lo:hi] = (dense @ kc) * scale

        # dk and dh sum over rows, so they take blocks of complete columns,
        # with the column dlogits, transposed, in the first buffer
        qt = np.ascontiguousarray(np.swapaxes(qc, 1, 2)) if len(blocks) > 1 else None
        for lo, hi in blocks:
            at, slot = edges_in(edge_cols, edge_rows, lo, hi)
            dense = block(1, lo, hi)
            if len(blocks) == 1:
                # a column dlogit is the same product of the same factors as
                # its row dlogit: the row pass's, transposed, bit for bit
                dlogits = block(0, lo, hi)
                dlogits[:] = np.swapaxes(dense, 1, 2)
            else:
                dlogits = probabilities(kc, qt, lo, hi, row_max[:, None, :], denom[:, None, :])
                scatter(dense, at, g_y.reshape(batch, -1)[:, slot])
                dense -= shift[:, None, :]
                dlogits *= dense
            dk[:, lo:hi] = (dlogits @ qc) * scale
            dh[:, lo:hi] = scatter(dense, at, gate.reshape(batch, -1)[:, slot]) @ g
        return dq.reshape(q.data.shape), dk.reshape(k.data.shape), dh.reshape(h.data.shape)

    return _op(
        out.reshape(h.data.shape),
        (q, lambda g: grads(g)[0]),
        (k, lambda g: grads(g)[1]),
        (h, lambda g: grads(g)[2]),
    )


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
