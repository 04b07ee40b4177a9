"""Minimal dense-tensor reverse-mode automatic differentiation.

64-bit floats throughout, shapes up to rank 3, and exactly the operations the
agent needs.  Each op records a backward closure; ``backward`` walks the tape
in reverse topological order with a fixed accumulation order, so repeated
backward passes over the same graph are bitwise repeatable and gradients
accumulate until explicitly zeroed.

A GRU is three packed tensors, W (in, 3H), U (H, 3H) and b (3H,), with the
gate blocks in z, r, n order.  ``gru_sequence`` is the one GRU tape node: it
runs the recurrence over the T rows of a (T, in) input matrix, and its
backward does backpropagation through time in one reverse loop, then sends
one gradient each to X, h0, W, U and b; ``gru_cell`` is its T = 1 case.  The
input projection x_t @ W stays one product per token, because a single
X @ W sums in another order and would change every forward pass by
round-off.

``take`` is the one indexed read: an element, a slice or rows of a tensor
along axis 0.  Its backward is the one scatter-add, ``np.add.at`` into a
zero buffer the size of the whole input.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Sequence

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

def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    # Record the tape only when some ancestor is trainable; .grad buffers are
    # kept on leaves (requires_grad), intermediates just route flow.
    if any(p.requires_grad or p._parents for p in parents):
        out._parents = parents
        out._backward = backward
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
    if a.shape == b.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


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
    tensors = tuple(tensors)
    for t in tensors:
        if t.data.ndim != 1:
            raise ShapeError(f"concat expects vectors, got shape {t.data.shape}")
    sizes = [t.data.shape[0] for t in tensors]

    def backward(g, grads):
        off = 0
        for i, n in enumerate(sizes):
            grads[i] = g[off : off + n]
            off += n

    return _make(np.concatenate([t.data for t in tensors]), tuple(tensors), backward)


def stack0(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-length vectors into a matrix (rows in argument order)."""
    tensors = tuple(tensors)  # snapshot: callers may grow their list later
    shape = tensors[0].data.shape
    for t in tensors:
        if t.data.shape != shape or t.data.ndim != 1:
            raise ShapeError("stack0 expects equal-length vectors")
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


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]

    def backward(g, grads):
        if axis is None:
            grads[0] = np.full_like(x.data, float(g) / n)
        else:
            grads[0] = np.repeat(np.expand_dims(g / n, axis), n, axis=axis)

    return _make(x.data.mean(axis=axis), (x,), backward)


def sum_(x: Tensor, axis: int | None = None) -> Tensor:
    def backward(g, grads):
        if axis is None:
            grads[0] = np.full_like(x.data, float(g))
        else:
            grads[0] = np.repeat(
                np.expand_dims(g, axis), x.data.shape[axis], axis=axis
            )

    return _make(x.data.sum(axis=axis), (x,), backward)


def take(x: Tensor, index) -> Tensor:
    """``x.data[index]`` along axis 0 of a vector or a matrix.  ``index`` is
    an int, a slice or a sequence of ints; the backward scatter-adds into
    zeros, so a repeated index sums its gradients."""
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"take expects a vector or a matrix, got shape {x.data.shape}")
    if not isinstance(index, (int, np.integer, slice)):
        index = np.asarray(index, dtype=np.intp)

    def backward(g, grads):
        buf = np.zeros_like(x.data)
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


def cross_entropy_with_logits(logits: Tensor, target: int) -> Tensor:
    """Categorical cross-entropy of one target class: logsumexp(x) - x[t]."""
    if logits.data.ndim != 1:
        raise ShapeError("cross_entropy_with_logits expects a vector")
    z = logits.data - logits.data.max()
    lse = float(np.log(np.exp(z).sum()) + logits.data.max())
    p = np.exp(logits.data - lse)

    def backward(g, grads):
        buf = p * float(g)
        buf[target] -= float(g)
        grads[0] = buf

    return _make(np.float64(lse - logits.data[target]), (logits,), backward)


def binary_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean multi-label BCE between sigmoid(logits) and 0/1 targets,
    computed from logits for numerical stability."""
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.data.shape:
        raise ShapeError(
            f"binary_cross_entropy: targets shape {t.shape} != logits shape "
            f"{logits.data.shape}"
        )
    x = logits.data
    loss = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    n = x.size

    def backward(g, grads):
        grads[0] = float(g) * (1.0 / (1.0 + np.exp(-x)) - t) / n

    return _make(np.float64(loss.mean()), (logits,), backward)


# ---------------------------------------------------------------------------
# GRU


GRU = tuple[Tensor, Tensor, Tensor]  # (W, U, b), see ParameterSet.gru


def gru_sequence(X: Tensor, h0: Tensor, p: GRU) -> Tensor:
    """The standard gated update (Cho et al. 2014), h' = (1-z)*h + z*n with
    z, r and n read as H-wide blocks of x_t @ W and h @ U, run over the T
    rows of X from h0; returns the last hidden, or h0 itself when T = 0.

    The forward keeps each step's gates, h @ U and the hidden it read; the
    backward stacks them into arrays, runs backpropagation through time in
    one reverse loop that fills d(x_t @ W) and d(h_t @ U), and then takes one
    matmul per input.
    """
    W, U, b = p
    Xd, hd = X.data, h0.data
    if Xd.ndim != 2 or hd.ndim != 1:
        raise ShapeError(
            f"gru_sequence expects a (T, in) matrix and a hidden vector, got "
            f"{Xd.shape} and {hd.shape}"
        )
    T, H = Xd.shape[0], hd.shape[0]
    if Xd.shape[1] != W.data.shape[0] or U.data.shape != (H, 3 * H):
        raise ShapeError(
            f"gru_sequence: X {Xd.shape} / h {hd.shape} disagree with params "
            f"{W.data.shape} / {U.data.shape}"
        )
    if T == 0:
        return h0
    Wd, Ud = W.data, U.data
    b_zr, b_n = b.data[:2 * H], b.data[2 * H:]
    zrs, ns, hUs, hs = [], [], [], []
    h = hd
    for x in Xd:
        xW, hU = x @ Wd, h @ Ud
        zr = 1.0 / (1.0 + np.exp(-(xW[:2 * H] + hU[:2 * H] + b_zr)))  # z, r
        n = np.tanh(xW[2 * H:] + zr[H:] * hU[2 * H:] + b_n)
        zrs.append(zr)
        ns.append(n)
        hUs.append(hU)
        hs.append(h)
        h = h + zr[:H] * (n - h)

    def backward(g, grads):
        ZR, N, HU, Hp = np.array(zrs), np.array(ns), np.array(hUs), np.array(hs)
        Z, R, HUn = ZR[:, :H], ZR[:, H:], HU[:, 2 * H:]
        # dh_t times fxw[t] gives the (z, r, n) blocks of d(x_t @ W), and
        # times fhu[t] those of d(h_t @ U), which reaches n through r.
        fxw = np.empty((T, 3, H))
        fxw[:, 0] = (N - Hp) * Z * (1.0 - Z)
        fxw[:, 2] = Z * (1.0 - N * N)
        fxw[:, 1] = fxw[:, 2] * HUn * R * (1.0 - R)
        fhu = fxw.copy()
        fhu[:, 2] *= R
        keep = 1.0 - Z
        dXW = np.empty((T, 3 * H))  # also d/db
        dHU = np.empty((T, 3 * H))
        dXW3, dHU3, UT = dXW.reshape(T, 3, H), dHU.reshape(T, 3, H), Ud.T
        dh = g
        for t in range(T - 1, -1, -1):
            np.multiply(dh, fxw[t], out=dXW3[t])
            np.multiply(dh, fhu[t], out=dHU3[t])
            dh = dh * keep[t] + dHU[t] @ UT
        grads[0] = dXW @ Wd.T
        grads[1] = dh
        grads[2] = Xd.T @ dXW
        grads[3] = Hp.T @ dHU
        grads[4] = dXW.sum(axis=0)

    return _make(h, (X, h0, W, U, b), backward)


def gru_cell(x: Tensor, h: Tensor, p: GRU) -> Tensor:
    """One GRU step: ``gru_sequence`` over the one-row matrix of x."""
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
    """Named trainable tensors plus Adam state, seeded deterministically."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)
        self.tensors: dict[str, Tensor] = {}
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}
        self.adam_t = 0

    def add(self, name: str, shape: tuple[int, ...], kind: str = "weight") -> Tensor:
        """kind: weight (uniform +-1/sqrt(fan_in)), bias (zeros), embedding
        (uniform +-1/sqrt(dim))."""
        if kind == "bias":
            return self._put(name, np.zeros(shape))
        fan = shape[-1] if kind == "embedding" else shape[0]
        return self._put(name, self._uniform(shape, fan))

    def _uniform(self, shape: tuple[int, ...], fan: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan)
        return self.rng.uniform(-bound, bound, size=shape)

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
        order.  The six weight blocks draw from the RNG in the order Wz, Uz,
        Wr, Ur, Wn, Un, each bounded by its own fan-in, so every parameter
        starts as it did when each block was a tensor of its own."""
        W = np.empty((in_dim, 3 * hid_dim))
        U = np.empty((hid_dim, 3 * hid_dim))
        for k in range(3):
            block = slice(k * hid_dim, (k + 1) * hid_dim)
            W[:, block] = self._uniform((in_dim, hid_dim), in_dim)
            U[:, block] = self._uniform((hid_dim, hid_dim), hid_dim)
        return (self._put(f"{prefix}.W", W), self._put(f"{prefix}.U", U),
                self._put(f"{prefix}.b", np.zeros(3 * hid_dim)))

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
    Returns the pre-clip gradient norm."""
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


def load_checkpoint(path, seed: int = 0) -> ParameterSet:
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
    params = ParameterSet(seed)
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
