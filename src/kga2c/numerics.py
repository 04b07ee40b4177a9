"""Minimal dense-tensor reverse-mode automatic differentiation.

64-bit floats throughout, shapes up to rank 3, and exactly the operations the
agent needs.  Each op records a backward closure; ``backward`` walks the tape
in reverse topological order with a fixed accumulation order, so repeated
backward passes over the same graph are bitwise repeatable and gradients
accumulate until explicitly zeroed.  Inside ``no_grad()`` ops record nothing,
for forward passes that nothing differentiates; the agent's
``fixed_parameters`` enters it for its whole scope, and no code asks whether
it is inside.

The agent runs batch-major: the leading axis of its activations is the row
(one per worker), so each op here covers all rows in one call.  ``attend``
is the decoder's per-row attention as one op, and the losses
``binary_cross_entropy`` and ``cross_entropy_with_logits`` give one value
per row of a matrix.

A GRU is three packed tensors, W (in, 3H), U (H, 3H) and b (3H,), with the
gate blocks in z, r, n order.  ``gru_sequence`` is the one GRU tape node: it
runs the recurrence over a padded (T, B, in) batch with per-row lengths for
B hiddens (a single sequence is the B = 1 batch), and its backward does
backpropagation through time in one reverse loop over the forward's own
per-step arrays, then sends one gradient each to X, h0, W, U and b;
``gru_cell`` is its T = 1 case.  The input projection X @ W + b is one
product over every row and step, not one per token, and so are d/dX and
d/dW; h @ U, and d/dU with it, runs per step over the rows still running, so
the backward builds no (steps x rows)-sized copy of the forward's gates.
``ParameterSet`` draws each tensor's initial values from a stream of its own,
so they depend only on the seed, the tensor's name and its shape.

``take`` is the one indexed read: an element, a slice or rows of a tensor
along axis 0, or the elements at given (row, column) pairs.  Its backward
scatter-adds into a zero buffer the size of the whole input.
"""

from __future__ import annotations

import struct
import zlib
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

MASK_NEG = -1e9  # additive mask stand-in for -inf


class ShapeError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 3:
            raise ShapeError(f"rank {arr.ndim} > 3 unsupported")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray, list[np.ndarray]], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad={'yes' if self.grad is not None else 'no'})"

_taping = True  # False inside no_grad()


@contextmanager
def no_grad() -> Iterator[None]:
    """Build tensors without recording the tape: results inside have no
    parents, so nothing reaches the parameters and nothing is kept alive."""
    global _taping
    saved, _taping = _taping, False
    try:
        yield
    finally:
        _taping = saved


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    # Record the tape only when some ancestor is trainable; .grad buffers are
    # kept on leaves (requires_grad), intermediates just route flow.
    if _taping:
        for p in parents:
            if p.requires_grad or p._parents:
                out._parents = parents
                out._backward = backward
                break
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum out axes that were broadcast so grad matches the input shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _check_broadcast(a: np.ndarray, b: np.ndarray, op: str) -> None:
    """numpy's broadcasting rule: aligned from the right, each pair of
    dimensions is equal or has a 1."""
    sa, sb = a.shape, b.shape
    if sa == sb:
        return
    for x, y in zip(sa[::-1], sb[::-1]):
        if x != y and x != 1 and y != 1:
            raise ShapeError(f"{op}: incompatible shapes {sa} and {sb}")


# ---------------------------------------------------------------------------
# Elementwise and linear ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.data, b.data, "add")

    def backward(g, grads):
        grads[0] = _unbroadcast(g, a.data.shape)
        grads[1] = _unbroadcast(g, b.data.shape)

    return _make(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.data, b.data, "sub")

    def backward(g, grads):
        grads[0] = _unbroadcast(g, a.data.shape)
        grads[1] = _unbroadcast(-g, b.data.shape)

    return _make(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a.data, b.data, "mul")

    def backward(g, grads):
        grads[0] = _unbroadcast(g * b.data, a.data.shape)
        grads[1] = _unbroadcast(g * a.data, b.data.shape)

    return _make(a.data * b.data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise ShapeError("matmul requires rank >= 1 operands")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul: inner dims disagree, {a.data.shape} @ {b.data.shape}"
        )

    def backward(g, grads):
        ad, bd = a.data, b.data
        if ad.ndim == 1 and bd.ndim == 1:  # dot -> scalar
            grads[0] = g * bd
            grads[1] = g * ad
        elif ad.ndim == 1:  # (k,) @ (k,n) -> (n,)
            grads[0] = bd @ g
            grads[1] = np.outer(ad, g)
        elif bd.ndim == 1:  # (m,k) @ (k,) -> (m,)
            grads[0] = np.outer(g, bd)
            grads[1] = ad.T @ g
        else:
            grads[0] = g @ bd.T
            grads[1] = ad.T @ g

    return _make(a.data @ b.data, (a, b), backward)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Join vectors, or matrices with equal row counts, along the last axis."""
    tensors = tuple(tensors)
    lead = tensors[0].data.shape[:-1]
    for t in tensors:
        if t.data.ndim not in (1, 2) or t.data.shape[:-1] != lead:
            raise ShapeError(
                f"concat expects vectors or matrices with equal row counts, "
                f"got shape {t.data.shape}"
            )
    sizes = [t.data.shape[-1] for t in tensors]

    def backward(g, grads):
        off = 0
        for i, n in enumerate(sizes):
            grads[i] = g[..., off : off + n]
            off += n

    return _make(np.concatenate([t.data for t in tensors], axis=-1),
                 tuple(tensors), backward)


def stack0(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shaped vectors or matrices along a new leading axis
    (in argument order)."""
    tensors = tuple(tensors)  # snapshot: callers may grow their list later
    shape = tensors[0].data.shape
    for t in tensors:
        if t.data.shape != shape or t.data.ndim not in (1, 2):
            raise ShapeError("stack0 expects equal-shaped vectors or matrices")
    n = len(tensors)

    def backward(g, grads):
        for i in range(n):
            grads[i] = g[i]

    return _make(np.array([t.data for t in tensors]), tensors, backward)


def sigmoid(x: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g, grads):
        grads[0] = g * y * (1.0 - y)

    return _make(y, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def backward(g, grads):
        grads[0] = g * (1.0 - y * y)

    return _make(y, (x,), backward)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    mask = x.data > 0

    def backward(g, grads):
        grads[0] = g * np.where(mask, 1.0, slope)

    return _make(np.where(mask, x.data, slope * x.data), (x,), backward)


def log(x: Tensor) -> Tensor:
    def backward(g, grads):
        grads[0] = g / x.data

    return _make(np.log(x.data), (x,), backward)


def sum_(x: Tensor, axis: int | None = None) -> Tensor:
    def backward(g, grads):
        if axis is None:
            grads[0] = np.full_like(x.data, float(g))
        else:
            grads[0] = np.repeat(
                np.expand_dims(g, axis), x.data.shape[axis], axis=axis
            )

    return _make(x.data.sum(axis=axis), (x,), backward)


def take(x: Tensor, index, columns=None) -> Tensor:
    """``x.data[index]`` of a vector or a matrix.  ``index`` is an int or a
    slice (along axis 0), or an array of ints (rows along axis 0, in that
    array's shape: a (T, B) array of row ids gives a (T, B, n) batch).  With
    ``columns``, an int sequence as long as ``index``, it picks the elements
    ``x.data[index[i], columns[i]]`` of a matrix.  The backward scatter-adds
    into zeros, so a repeated index sums its gradients."""
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"take expects a vector or a matrix, got shape {x.data.shape}")
    if columns is not None:
        index = (np.asarray(index, dtype=np.intp), np.asarray(columns, dtype=np.intp))
    elif not isinstance(index, (int, np.integer, slice)):
        index = np.asarray(index, dtype=np.intp)

    def backward(g, grads):
        buf = np.zeros_like(x.data)
        if isinstance(index, (int, np.integer, slice)):
            buf[index] = g  # no index repeats
        else:
            np.add.at(buf, index, g)
        grads[0] = buf

    return _make(x.data[index], (x,), backward)


def column(x: Tensor) -> Tensor:
    """A vector as an (n, 1) matrix, which broadcasts across columns."""
    if x.data.ndim != 1:
        raise ShapeError("column expects a vector")

    def backward(g, grads):
        grads[0] = g[:, 0]

    return _make(x.data[:, None], (x,), backward)


def softmax(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Probabilities over a vector, or over each row of a matrix; masked-out
    entries are exactly zero and the rest renormalize.  ``mask`` is boolean,
    True = allowed, and must allow at least one entry per row."""
    if x.data.ndim not in (1, 2):
        raise ShapeError("softmax expects a vector or a matrix")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.data.shape:
            raise ShapeError(
                f"softmax mask shape {mask.shape} != logits shape {x.data.shape}"
            )
        if not mask.any(axis=-1).all():
            raise ShapeError("softmax mask excludes every entry of a row")
        shifted = x.data + np.where(mask, 0.0, MASK_NEG)
    else:
        shifted = x.data
    z = shifted - shifted.max(axis=-1, keepdims=True)
    e = np.exp(z)
    if mask is not None:
        e = np.where(mask, e, 0.0)  # exact zeros outside the mask
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g, grads):
        if y.ndim == 1:
            grads[0] = y * (g - float(g @ y))
        else:
            grads[0] = y * (g - (g * y).sum(axis=-1, keepdims=True))

    return _make(y, (x,), backward)


def attend(items: Sequence[Tensor], query: Tensor, scale: float) -> Tensor:
    """Scaled dot-product attention for each of R rows: row r's scores are
    ``scale * (item_j[r] . query[r])`` over the J (R, D) ``items``, a softmax
    over j turns them into weights, and the result's row r is the weighted
    sum of the items' rows r.  Returns (R, D)."""
    K = np.stack([t.data for t in items], axis=1)  # (R, J, D)
    q = query.data
    if K.ndim != 3 or q.shape != (K.shape[0], K.shape[2]):
        raise ShapeError(f"attend: items {K.shape[::2]} and query {q.shape} disagree")
    s = np.matmul(K, q[:, :, None])[:, :, 0] * scale
    e = np.exp(s - s.max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)  # (R, J)

    def backward(g, grads):
        da = np.matmul(K, g[:, :, None])[:, :, 0]
        ds = a * (da - (da * a).sum(axis=1, keepdims=True)) * scale
        dK = a[:, :, None] * g[:, None, :] + ds[:, :, None] * q[:, None, :]
        for j in range(K.shape[1]):
            grads[j] = dK[:, j]
        grads[-1] = np.matmul(ds[:, None, :], K)[:, 0]

    return _make(np.matmul(a[:, None, :], K)[:, 0], (*items, query), backward)


def cross_entropy_with_logits(logits: Tensor, targets) -> Tensor:
    """Categorical cross-entropy of one target class per row of (R, K)
    logits: logsumexp(x_r) - x_r[t_r], as an (R,) vector."""
    x, t = logits.data, np.asarray(targets, dtype=np.intp)
    if x.ndim != 2 or t.shape != x.shape[:1]:
        raise ShapeError(f"cross_entropy_with_logits expects (R, K) logits and "
                         f"R targets, got {x.shape} and {t.shape}")
    rows = np.arange(len(t))
    top = x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(x - top).sum(axis=1, keepdims=True)) + top
    p = np.exp(x - lse)

    def backward(g, grads):
        grads[0] = p * g[:, None]
        grads[0][rows, t] -= g

    return _make(lse[:, 0] - x[rows, t], (logits,), backward)


def binary_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Multi-label BCE between sigmoid(logits) and 0/1 targets, averaged
    over the last axis (a scalar for a vector, one value per row for a
    matrix), computed from logits for numerical stability."""
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.data.shape:
        raise ShapeError(
            f"binary_cross_entropy: targets shape {t.shape} != logits shape "
            f"{logits.data.shape}"
        )
    x = logits.data
    loss = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    n = x.shape[-1]

    def backward(g, grads):
        grads[0] = np.expand_dims(g, -1) * (1.0 / (1.0 + np.exp(-x)) - t) / n

    return _make(loss.mean(axis=-1), (logits,), backward)


# ---------------------------------------------------------------------------
# GRU


GRU = tuple[Tensor, Tensor, Tensor]  # (W, U, b), see ParameterSet.gru


def gru_sequence(X: Tensor, h0: Tensor, p: GRU,
                 lengths: Sequence[int] | None = None) -> Tensor:
    """The standard gated update (Cho et al. 2014), h' = (1-z)*h + z*n with
    z, r and n read as H-wide blocks of x_t @ W and h @ U.

    X is a padded (T, B, in) batch and h0 is (B, H); row b runs its first
    ``lengths[b]`` steps (all T by default), so a row that ends early
    carries its hidden and a zero-length row keeps its h0; returns the (B, H)
    last hiddens, or h0 itself when no row has a step.

    X @ W + b is one product.  The rows run longest first, so step t updates
    the prefix of the n_t rows still running.  The forward keeps each step's
    gates, h @ U and the hidden it read.  The backward walks those per-step
    arrays in one reverse loop: at step t it fills the n_t running rows of
    d(X @ W), adds h_t^T d(h_t @ U) into dU, and carries dh; then it takes one
    matmul each for X and W.
    """
    W, U, b = p
    Xd, hd = X.data, h0.data
    if not (Xd.ndim == 3 and hd.ndim == 2 and Xd.shape[1] == hd.shape[0]):
        raise ShapeError(
            f"gru_sequence expects a (T, B, in) batch and (B, H) hiddens, "
            f"got {Xd.shape} and {hd.shape}"
        )
    H = hd.shape[-1]
    if Xd.shape[-1] != W.data.shape[0] or U.data.shape != (H, 3 * H):
        raise ShapeError(
            f"gru_sequence: X {Xd.shape} / h {hd.shape} disagree with params "
            f"{W.data.shape} / {U.data.shape}"
        )
    T, B, n_in = Xd.shape
    order = None  # the row permutation that puts the longest rows first
    if lengths is None:
        steps, counts = T, [B] * T  # counts[t]: the rows still running at step t
    else:
        lens = [int(n) for n in lengths]
        if len(lens) != B or B and (min(lens) < 0 or max(lens) > T):
            raise ShapeError(f"gru_sequence: lengths {lengths} do not fit {B} rows of {T}")
        if any(a < b for a, b in zip(lens, lens[1:])):
            order = np.array(sorted(range(B), key=lambda i: -lens[i]))  # stable
            lens = [lens[i] for i in order]
        steps = lens[0] if B else 0
        counts, n = [], B
        for t in range(steps):
            while lens[n - 1] <= t:
                n -= 1
            counts.append(n)
    if steps == 0 or B == 0:
        return h0
    Wd, Ud = W.data, U.data
    XW = (Xd[:steps].reshape(-1, n_in) @ Wd + b.data).reshape(steps, B, 3 * H)
    h = hd
    if order is not None:
        XW, h = XW[:, order], h[order]
    x_zr, x_n = XW[:, :, :2 * H], XW[:, :, 2 * H:]
    zrs, ns, hUs, hs = [], [], [], []
    for t, n in enumerate(counts):
        if n == B:
            hp, xzr, xn = h, x_zr[t], x_n[t]
        else:
            hp, xzr, xn = h[:n], x_zr[t, :n], x_n[t, :n]
        hU = hp @ Ud
        zr = 1.0 / (1.0 + np.exp(-(xzr + hU[:, :2 * H])))  # z, r
        gn = np.tanh(xn + zr[:, H:] * hU[:, 2 * H:])
        zrs.append(zr)
        ns.append(gn)
        hUs.append(hU)
        hs.append(hp)
        hn = hp + zr[:, :H] * (gn - hp)
        h = hn if n == B else np.concatenate((hn, h[n:]))  # a new array: hp stays
    inverse = None if order is None else np.argsort(order)
    out = h if inverse is None else h[inverse]

    def backward(g, grads):
        # d(x_t @ W) of the rows still running at step t, in (z, r, n)
        # blocks; past a row's end it stays 0 and the row's dh passes through
        dXW = np.zeros((steps, B, 3 * H))  # also d/db
        dU = np.zeros_like(Ud)
        UT = Ud.T
        dh = (g if order is None else g[order]).copy()
        for t in range(steps - 1, -1, -1):
            n, zr, gn, hU, hp = counts[t], zrs[t], ns[t], hUs[t], hs[t]
            z, r, d, dxw = zr[:, :H], zr[:, H:], dh[:n], dXW[t, :n]
            dxw[:, 2 * H:] = d * z * (1.0 - gn * gn)
            dxw[:, :H] = d * (gn - hp) * z * (1.0 - z)
            dxw[:, H:2 * H] = dxw[:, 2 * H:] * hU[:, 2 * H:] * r * (1.0 - r)
            dhu = dxw.copy()  # d(h_t @ U): n is reached through r
            dhu[:, 2 * H:] *= r
            dU += hp.T @ dhu
            dh[:n] = d * (1.0 - z) + dhu @ UT
        if inverse is not None:
            dXW, dh = dXW[:, inverse], dh[inverse]
        dXW = dXW.reshape(-1, 3 * H)
        dX = (dXW @ Wd.T).reshape(steps, B, n_in)
        if steps < T:
            dX = np.concatenate((dX, np.zeros((T - steps, B, n_in))))
        grads[0] = dX
        grads[1] = dh
        grads[2] = Xd[:steps].reshape(-1, n_in).T @ dXW
        grads[3] = dU
        grads[4] = dXW.sum(axis=0)

    return _make(out, (X, h0, W, U, b), backward)


def gru_cell(x: Tensor, h: Tensor, p: GRU) -> Tensor:
    """One GRU step for each row of (B, H) hiddens with (B, in) inputs:
    ``gru_sequence`` over a single step."""
    return gru_sequence(stack0([x]), h, p)


# ---------------------------------------------------------------------------
# Backward pass


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into .grad along the recorded tape."""
    if loss.data.ndim != 0:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    flow: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    for node in reversed(topo):
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g.copy() if node.grad is None else node.grad + g
        if node._backward is None:
            continue
        grads: list[np.ndarray | None] = [None] * len(node._parents)
        node._backward(g, grads)
        for parent, pg in zip(node._parents, grads):
            if pg is None or not (parent.requires_grad or parent._parents):
                continue
            pid = id(parent)
            if pid in flow:
                flow[pid] = flow[pid] + pg
            else:
                flow[pid] = pg


# ---------------------------------------------------------------------------
# Parameters, Adam, checkpoints


class ParameterSet:
    """Named trainable tensors plus Adam state; each tensor's initial values
    come from its own stream, seeded by (seed, crc32 of its name)."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.tensors: dict[str, Tensor] = {}
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}
        self.adam_t = 0
        # set while a caller relies on the values not changing; adam_step refuses
        self.fixed = False

    def add(self, name: str, shape: tuple[int, ...], kind: str = "weight") -> Tensor:
        """kind: weight (uniform +-1/sqrt(fan_in)), bias (zeros), embedding
        (uniform +-1/sqrt(dim))."""
        if kind == "bias":
            return self._put(name, np.zeros(shape))
        bound = 1.0 / np.sqrt(shape[-1] if kind == "embedding" else shape[0])
        rng = np.random.default_rng([self.seed, zlib.crc32(name.encode("utf-8"))])
        return self._put(name, rng.uniform(-bound, bound, size=shape))

    def _put(self, name: str, data: np.ndarray) -> Tensor:
        if name in self.tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        self.tensors[name] = t
        self.adam_m[name] = np.zeros(t.data.shape)
        self.adam_v[name] = np.zeros(t.data.shape)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def gru(self, prefix: str, in_dim: int, hid_dim: int) -> GRU:
        """One GRU as three packed tensors, ``prefix.W`` (in_dim, 3H),
        ``prefix.U`` (H, 3H) and ``prefix.b`` (3H,), gate blocks in z, r, n
        order; W is bounded by in_dim and U by H."""
        return (self.add(f"{prefix}.W", (in_dim, 3 * hid_dim)),
                self.add(f"{prefix}.U", (hid_dim, 3 * hid_dim)),
                self.add(f"{prefix}.b", (3 * hid_dim,), "bias"))

    def gru_params(self, prefix: str) -> GRU:
        t = self.tensors
        return t[f"{prefix}.W"], t[f"{prefix}.U"], t[f"{prefix}.b"]

    def grad_norm(self) -> float:
        total = 0.0
        for name in self.names():
            g = self.tensors[name].grad
            if g is not None:
                total += float((g * g).sum())
        return float(np.sqrt(total))


def adam_step(
    params: ParameterSet,
    lr: float = 1e-3,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    grad_clip: float | None = None,
) -> float:
    """One bias-corrected Adam update over all parameters with gradients.
    Returns the pre-clip gradient norm.  Raises RuntimeError while
    ``params.fixed`` is set."""
    if params.fixed:
        raise RuntimeError("adam_step on parameters held fixed")
    b1, b2 = betas
    norm = params.grad_norm()
    scale = 1.0
    if grad_clip is not None and norm > grad_clip and norm > 0.0:
        scale = grad_clip / norm
    params.adam_t += 1
    t = params.adam_t
    for name in params.names():
        tensor = params.tensors[name]
        if tensor.grad is None:
            continue
        g = tensor.grad * scale
        m = params.adam_m[name]
        v = params.adam_v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        tensor.data = tensor.data - lr * m_hat / (np.sqrt(v_hat) + eps)
    return norm


CHECKPOINT_MAGIC = b"KGCK"
CHECKPOINT_VERSION = 1


def save_checkpoint(params: ParameterSet, path) -> None:
    """Versioned binary: name table, shapes, little-endian float64 payloads."""
    body = bytearray()
    names = params.names()
    body += struct.pack("<I", len(names))
    for name in names:
        raw = name.encode("utf-8")
        data = params.tensors[name].data
        body += struct.pack("<H", len(raw)) + raw
        body += struct.pack("<B", data.ndim)
        for dim in data.shape:
            body += struct.pack("<I", dim)
        body += data.astype("<f8").tobytes()
    blob = CHECKPOINT_MAGIC + struct.pack("<H", CHECKPOINT_VERSION) + bytes(body)
    blob += struct.pack("<I", zlib.crc32(blob))
    with open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path) -> ParameterSet:
    """Exact round trip of parameter values; Adam state starts fresh."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 10 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint (bad magic)")
    (crc,) = struct.unpack("<I", blob[-4:])
    if crc != zlib.crc32(blob[:-4]):
        raise CheckpointError("checkpoint checksum mismatch")
    (version,) = struct.unpack("<H", blob[4:6])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    params = ParameterSet()
    off = 6
    try:
        (count,) = struct.unpack_from("<I", blob, off)
        off += 4
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off : off + nlen].decode("utf-8")
            off += nlen
            (ndim,) = struct.unpack_from("<B", blob, off)
            off += 1
            shape = []
            for _ in range(ndim):
                (dim,) = struct.unpack_from("<I", blob, off)
                off += 4
                shape.append(dim)
            size = int(np.prod(shape)) if shape else 1
            if off + 8 * size > len(blob) - 4:
                raise CheckpointError(
                    f"truncated checkpoint: {name!r} needs {8 * size} bytes, "
                    f"{len(blob) - 4 - off} left"
                )
            data = np.frombuffer(blob, dtype="<f8", count=size, offset=off).reshape(shape)
            off += size * 8
            params._put(name, data.astype(np.float64))
    except struct.error as exc:
        raise CheckpointError(f"truncated checkpoint: {exc}") from exc
    if off != len(blob) - 4:
        raise CheckpointError("checkpoint has trailing bytes")
    return params
