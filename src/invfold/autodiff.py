"""Reverse-mode automatic differentiation over dense numpy arrays.

A small tape: an operation on an input that needs a gradient returns a
Tensor with an op node, which holds one vector-Jacobian closure (VJP) per
such input and a link to that input's own node (or to the input itself
when it is a leaf created with requires_grad=True). The tape holds no op
outputs: an intermediate array lives on only while the caller keeps its
Tensor or a VJP reads it. VJPs close over exactly what they read (the
operand arrays of a product, a softmax's output, a dropout's boolean
mask, only a shape where a shape is enough), and `gelu` keeps only its
input and recomputes the rest. `tape_stats` counts the nodes and the
bytes a graph holds.

`backward` walks the graph once in reverse topological order and
accumulates gradients into the leaves. It consumes the graph: each node
drops its VJPs once they have run, so memory falls as backward proceeds,
and a later backward that reaches a consumed node raises InvalidBackward
instead of returning zero gradients. 64-bit is the default dtype;
training and all gradient checks run in 64-bit, inference may cast to
32-bit.

Inference needs no tape: inside `with no_grad():` an operation records
no parents, so every intermediate array is freed as soon as the caller
drops it and memory stays linear in the number of edges. The switch is
per thread (`threading.local`), so a `no_grad` block in one worker thread
never turns recording off, or back on, in another; blocks nest and
restore the enclosing state on exit, also when the body raises. Values
are the same with or without a tape.

The two per-edge blocks of the encoder are one op each:
- `edge_mlp`, the residual per-edge MLP, runs over blocks of receivers,
  in forward and again in backward, so the hidden activations stay in
  cache between the GEMMs; its tape keeps the two (n, d_h) node terms
  and the dropout mask, and backward recomputes each block's
  pre-activation instead of keeping it.
- `edge_attention`, edge-keyed attention, never forms a key or a value
  per edge: it pulls each query back through W_K and pools the inputs of
  the values with alpha before W_V. The scores, the softmax, the pooled
  terms and the gathered senders exist one receiver block at a time, in
  forward and again in backward; its tape keeps alpha, the pulled-back
  queries and the pooled rows.

Both ops, and the featurizer (`geometry.build_knn_graph`), hand their
receiver blocks to `run_blocks`, which runs them on `block_workers()`
threads: the number of usable CPUs when numpy's BLAS is pinned to one
thread, else 1, and always 1 in a thread other than the main thread.
BLAS counts as pinned when, of the variables it reads in order
(OpenBLAS: `OPENBLAS_NUM_THREADS`, `GOTO_NUM_THREADS`,
`OMP_NUM_THREADS`; MKL: `MKL_NUM_THREADS`, `OMP_NUM_THREADS`), the first
set to a positive number is 1, as they stood when this module was
imported. Setting `OPENBLAS_NUM_THREADS=1` before the program starts
therefore lets featurization, inference and training use every core;
left unset, a threaded BLAS spreads each GEMM instead. Values do not
depend on the worker count: every block writes only its own rows, and
sums over blocks are added in block order after the blocks.

Gradients of row gathers (`take_rows`, the sender terms of `edge_mlp`
and `edge_attention`) are sorted-segment sums (`scatter_rows`): the
gradient rows are grouped by the row they were gathered from and each
group is summed. The sort plan depends only on the index array, so it
is built once per distinct index, on the first backward pass that needs
it, and reused by every later op and pass; inference never builds one.

`check_gradient` is the independent oracle: central finite differences
re-evaluating the user's closure, never touching the tape internals.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from contextlib import contextmanager

import numpy as np

from .errors import InvalidBackward, NumericError
from .rng import RandomStream

_DEBUG_FINITE = False


def set_debug_checks(enabled: bool) -> None:
    """Toggle per-op finiteness assertions (NumericError on NaN/Inf)."""
    global _DEBUG_FINITE
    _DEBUG_FINITE = bool(enabled)


def _guard(data: np.ndarray, op: str) -> np.ndarray:
    if _DEBUG_FINITE and not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite value produced by {op}")
    return data


class _Node:
    """One recorded op: (parent, vjp) pairs, one per input that needs a
    gradient. A parent is the input's own node, or the input Tensor itself
    when it is a leaf. `parents` becomes None once backward has run the
    VJPs, which frees whatever they closed over."""

    __slots__ = ("parents", "op")

    def __init__(self, parents, op):
        self.parents = parents
        self.op = op


class Tensor:
    """Dense array plus, for an op output on the tape, its `_Node`."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False, dtype=None):
        if dtype is None:
            # float32 survives so inference can run fully in 32-bit;
            # everything else (lists, ints) defaults to float64
            arr = np.asarray(data)
            dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float64
            self.data = arr if arr.dtype == dtype else arr.astype(dtype)
        else:
            self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(as_tensor(other)))

    def __rsub__(self, other):
        return add(as_tensor(other), neg(self))

    def __matmul__(self, other):
        return matmul(self, other)

    def __truediv__(self, other):
        return div(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_GRAD_STATE = threading.local()


def grad_enabled() -> bool:
    """Whether operations in the calling thread record a tape."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextmanager
def no_grad():
    """Record no tape in the calling thread for the body of the block
    (or of the decorated function)."""
    outer = grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = outer


def _make(data, parents, op: str) -> Tensor:
    out = Tensor(_guard(data, op))
    if not grad_enabled():
        return out
    live = tuple((p if p._node is None else p._node, vjp)
                 for p, vjp in parents if p.requires_grad)
    if live:
        out.requires_grad = True
        out._node = _Node(live, op)
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    if grad.shape == tuple(shape):
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    # python scalars stay weak so float32 graphs are not upcast
    if isinstance(b, (int, float)):
        a = as_tensor(a)
        return _make(a.data + b, [(a, lambda g: g)], "add")
    if isinstance(a, (int, float)):
        return add(b, a)
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.shape, b.shape
    return _make(
        a.data + b.data,
        [(a, lambda g: _unbroadcast(g, sa)), (b, lambda g: _unbroadcast(g, sb))],
        "add",
    )


def mul(a, b) -> Tensor:
    if isinstance(b, (int, float)):
        a = as_tensor(a)
        return _make(a.data * b, [(a, lambda g: g * b)], "mul")
    if isinstance(a, (int, float)):
        return mul(b, a)
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data
    sa, sb = x.shape, y.shape
    return _make(
        x * y,
        [
            (a, lambda g: _unbroadcast(g * y, sa)),
            (b, lambda g: _unbroadcast(g * x, sb)),
        ],
        "mul",
    )


def div(a, b) -> Tensor:
    if isinstance(b, (int, float)):
        return mul(a, 1.0 / b)
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data
    sa, sb = x.shape, y.shape
    return _make(
        x / y,
        [
            (a, lambda g: _unbroadcast(g / y, sa)),
            (b, lambda g: _unbroadcast(-g * x / (y * y), sb)),
        ],
        "div",
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, [(a, lambda g: -g)], "neg")


def matmul(a, b) -> Tensor:
    """a @ b for two matrices."""
    a, b = as_tensor(a), as_tensor(b)
    x, y = a.data, b.data
    if x.ndim != 2 or y.ndim != 2:
        raise NumericError(f"matmul expects two matrices, got shapes {x.shape} and {y.shape}")
    return _make(x @ y, [(a, lambda g: g @ y.T), (b, lambda g: x.T @ g)], "matmul")


def linear(x, w, b=None) -> Tensor:
    """x @ w (+ b) with the leading axes of x folded for the GEMM."""
    x, w = as_tensor(x), as_tensor(w)
    shape, wd = x.shape, w.data
    d_out = wd.shape[1]
    x2 = x.data.reshape(-1, shape[-1])
    out = x2 @ wd
    if b is not None:
        b = as_tensor(b)
        # in place unless the bias widens the GEMM's dtype
        if out.dtype == np.result_type(out, b.data):
            out += b.data
        else:
            out = out + b.data
    parents = [
        (x, lambda g: (g.reshape(-1, d_out) @ wd.T).reshape(shape)),
        (w, lambda g: x2.T @ g.reshape(-1, d_out)),
    ]
    if b is not None:
        parents.append((b, lambda g: g.reshape(-1, d_out).sum(axis=0)))
    return _make(out.reshape(*shape[:-1], d_out), parents, "linear")


# edge rows per receiver block of `edge_mlp`, `edge_attention` and the
# featurizer: a block's hidden buffers, gathered senders or features
# stay in cache
EDGE_ROWS = 512


def receiver_blocks(n: int, k: int) -> list:
    """[(r0, r1)] runs of consecutive receivers that cover range(n), each
    of about EDGE_ROWS edges at k edges per receiver (at least one
    receiver); every run but the last has the same length."""
    step = max(1, EDGE_ROWS // max(k, 1))
    return [(r0, min(n, r0 + step)) for r0 in range(0, n, step)]


# the variables each BLAS takes its thread count from, in its order of
# precedence: the first set to a positive number decides
_BLAS_THREAD_VARS = {
    "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
}
# BLAS reads them once, when numpy loads it; this module imports numpy
# first, so they are read here, not at each call
_BLAS_ENV = {var: os.environ[var] for names in _BLAS_THREAD_VARS.values()
             for var in names if var in os.environ}


def blas_pinned(environ, blas: str) -> bool:
    """Whether the BLAS library named `blas` (numpy's build name) runs
    each call on one thread under the variables in environ. A BLAS other
    than OpenBLAS or MKL counts as not pinned."""
    for family, names in _BLAS_THREAD_VARS.items():
        if family in blas.lower():
            for var in names:
                value = environ.get(var, "").strip()
                if value.isdigit() and int(value) > 0:
                    return int(value) == 1
    return False


@functools.cache
def _numpy_blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy too old to report it
        return ""


def block_workers() -> int:
    """Threads that `run_blocks` uses: the usable CPUs when numpy's BLAS
    was loaded pinned to one thread (`blas_pinned`), else 1 (a BLAS that
    threads each GEMM already uses the cores). A call from any thread but
    the main thread gets 1, so callers that run their own threads do not
    fan out again inside each."""
    if threading.current_thread() is not threading.main_thread():
        return 1
    if not blas_pinned(_BLAS_ENV, _numpy_blas()):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_POOL = []  # the block executor, created on the first parallel call


def run_blocks(fn, blocks, buffers=None) -> list:
    """[fn(r0, r1, bufs) for (r0, r1) in blocks], on `block_workers()`
    threads: the caller and workers from a pool each claim the next
    unclaimed block until none is left. Each thread that claims a block
    calls `buffers()` once for its bufs (None without it). fn must write
    only its own block's rows of any shared output. The results come back
    in block order, so a sum over them taken in that order has the
    sequential loop's bits for any thread count and schedule. Every block
    task has ended when this returns; if blocks raised, the
    lowest-numbered block's exception is raised, the one the sequential
    loop would meet first (blocks claimed after a failure do not start)."""
    claims = itertools.count()  # next() on it is atomic under the GIL
    results, errors = [None] * len(blocks), []

    def drain():
        bufs = None
        while not errors:
            i = next(claims)
            if i >= len(blocks):
                return
            try:
                if bufs is None and buffers is not None:
                    bufs = buffers()
                results[i] = fn(*blocks[i], bufs)
            except BaseException as exc:
                errors.append((i, exc))
                return

    workers = min(block_workers(), len(blocks))
    if workers > 1 and not _POOL:
        from concurrent.futures import ThreadPoolExecutor
        _POOL.append(ThreadPoolExecutor(thread_name_prefix="invfold-blocks"))
    tasks = [_POOL[0].submit(drain) for _ in range(workers - 1)]
    drain()
    for task in tasks:
        task.result()
    if errors:
        raise min(errors, key=lambda item: item[0])[1]
    return results


def edge_mlp(h, e, neighbors, w1, b1, w2, b2, keep=None, scale: float = 1.0) -> Tensor:
    """Residual per-edge MLP: e_ji + gelu([h_i || h_j || e_ji] w1 + b1) w2 + b2.

    h: (n, d) node states, e: (n, k, d_e) edge states, neighbors: (n, k)
    sender indices; w1 holds d receiver, d sender and d_e edge rows in
    that order, and w2 maps the hidden width back to d_e. With a boolean
    `keep` of the hidden shape (n, k, d_h) the hidden activation is
    multiplied by `keep * scale` (inverted dropout).

    The wide concatenation never exists: the node segments of w1 run as
    (n, d) GEMMs whose rows are broadcast (receiver) or gathered (sender)
    onto the edges. Forward and backward run over the same blocks of
    receivers, about EDGE_ROWS edges each (`run_blocks`), and every
    per-edge hidden array is one block's buffer, one set per thread. The
    forward's edge GEMM, node terms and b1, GELU, the dropout multiply, the second GEMM, b2 and the
    residual all touch a block while it is in cache, and only the output
    is allocated per edge. On a tape the op keeps its inputs, the two
    (n, d_h) node terms and the mask, no per-edge hidden array: backward
    recomputes each block's pre-activation, GELU's value and slope, and
    writes the block's edge gradient and its share of the weight
    gradients; only the pre-activation gradient is one (n, k, d_h) array
    while backward runs, for the sender sum with `scatter_rows`. Values
    come from the same expressions as the separate ops (node and edge
    GEMMs, adds, gelu, dropout, linear, residual add), so their bits are
    the same; the weight gradients are sums over blocks, taken in block
    order.
    """
    h, e, w1, b1, w2, b2 = (as_tensor(t) for t in (h, e, w1, b1, w2, b2))
    hd, ed, w1d, b1d, w2d = h.data, e.data, w1.data, b1.data, w2.data
    n, d = hd.shape
    _, k, d_e = ed.shape
    d_h = w1d.shape[1]
    w_self, w_nbr, w_edge = w1d[:d], w1d[d:2 * d], w1d[2 * d:]
    node_self, node_nbr = hd @ w_self, hd @ w_nbr
    inputs = (h, e, w1, b1, w2, b2)
    dtype = np.result_type(*(t.data for t in inputs))
    blocks = receiver_blocks(n, k)
    block = max((r1 - r0 for r0, r1 in blocks), default=0)

    def pre_activation(r0, r1, z):
        np.matmul(ed[r0:r1].reshape(-1, d_e), w_edge, out=z.reshape(-1, d_h))
        z += node_self[r0:r1, None, :]
        z += node_nbr[neighbors[r0:r1]]
        z += b1d
        return z

    out = np.empty((n, k, d_e), dtype)

    def forward(r0, r1, bufs):
        pre, a, scratch = bufs[:, :r1 - r0]
        _gelu_into(pre_activation(r0, r1, pre), a, scratch)
        if keep is not None:
            a *= keep[r0:r1]
            a *= scale
        y = out[r0:r1]
        np.matmul(a.reshape(-1, d_h), w2d, out=y.reshape(-1, d_e))
        y += b2.data
        y += ed[r0:r1]

    run_blocks(forward, blocks, lambda: np.empty((3, block, k, d_h), dtype))
    if not (grad_enabled() and any(t.requires_grad for t in inputs)):
        return _make(out, [], "edge_mlp")

    memo = {}

    def grads(g):
        # every input's gradient but b2's, computed once per backward in
        # one pass over the blocks; each VJP pops its own
        if memo:
            return memo
        gtype = np.result_type(dtype, g)
        g_pre = np.empty((n, k, d_h), gtype)
        g_e = np.empty((n, k, d_e), gtype)
        g_self = np.empty((n, d_h), gtype)
        # g_w2, the edge rows of g_w1 and g_b1: each block's share is
        # added in block order
        sums = (np.zeros((d_h, d_e), gtype), np.zeros((d_e, d_h), gtype), np.zeros(d_h, gtype))

        def block_grads(r0, r1, bufs):
            half_x, t, inner, value, g_hid = bufs[:, :r1 - r0]
            _gelu_value_slope_into(pre_activation(r0, r1, half_x), value, t, inner, g_hid)
            g_blk = g[r0:r1].reshape(-1, d_e)
            np.matmul(g_blk, w2d.T, out=g_hid.reshape(-1, d_h))
            if keep is not None:
                for x in (value, g_hid):
                    x *= keep[r0:r1]
                    x *= scale
            gp = np.multiply(g_hid, t, out=g_pre[r0:r1]).reshape(-1, d_h)
            np.matmul(gp, w_edge.T, out=g_e[r0:r1].reshape(-1, d_e))
            g_e[r0:r1] += g[r0:r1]
            g_pre[r0:r1].sum(axis=1, out=g_self[r0:r1])
            return (value.reshape(-1, d_h).T @ g_blk, ed[r0:r1].reshape(-1, d_e).T @ gp,
                    gp.sum(axis=0))

        for shares in run_blocks(block_grads, blocks, lambda: np.empty((5, block, k, d_h), gtype)):
            for total, share in zip(sums, shares):
                total += share
        g_w2, g_w_edge, g_b1 = sums
        g_nbr = scatter_rows(g_pre, neighbors, n)
        memo.update(
            e=g_e, w2=g_w2, b1=g_b1,
            w1=np.concatenate([hd.T @ g_self, hd.T @ g_nbr, g_w_edge]),
            h=g_self @ w_self.T + g_nbr @ w_nbr.T,
        )
        return memo

    return _make(out, [
        (e, lambda g: grads(g).pop("e")),
        (w2, lambda g: grads(g).pop("w2")),
        (b2, lambda g: g.reshape(-1, d_e).sum(axis=0)),
        (w1, lambda g: grads(g).pop("w1")),
        (b1, lambda g: grads(g).pop("b1")),
        (h, lambda g: grads(g).pop("h")),
    ], "edge_mlp")


def edge_attention(q, h, e, neighbors, w_k, w_v, heads: int):
    """Edge-keyed attention as one op: (h_local, alpha).

    q, h: (n, d) queries and node states, e: (n, k, d_e) edge states,
    neighbors: (n, k) senders, w_k: (d_e, d), w_v: (2 d + d_e, d), with
    d = heads * d_k. Per head, alpha_ji = softmax_j(q_i . (e_ji w_k) /
    sqrt(d_k)) and h_local_i = sum_j alpha_ji [h_i || e_ji || h_j] w_v.
    alpha (n, k, heads) comes back as a Tensor that needs no gradient;
    non-finite scores raise NumericError.

    Both are linear in the key and the value, so neither exists per edge:
    each query is pulled back through its head's columns of w_k once per
    node, and each head pools [(sum_j alpha) h_i || sum_j alpha e_ji ||
    sum_j alpha h_j] before its columns of w_v. The scores, alpha, the
    pool and the gathered h_j are made one block of receivers (about
    EDGE_ROWS edges, `run_blocks`) at a time, in forward and again in
    backward, which sums the sender gradient with `scatter_rows` after
    the blocks. The tape keeps alpha, the pulled-back queries and the
    pool.
    """
    q, h, e, w_k, w_v = (as_tensor(t) for t in (q, h, e, w_k, w_v))
    qd, hd, ed, wkd, wvd = q.data, h.data, e.data, w_k.data, w_v.data
    n, d = hd.shape
    k, d_e = ed.shape[1:]
    d_k, d_in = d // heads, wvd.shape[0]
    scale = 1.0 / math.sqrt(d_k)
    blocks = receiver_blocks(n, k)

    wk_heads = wkd.reshape(d_e, heads, d_k)                    # (d_e, heads, d_k)
    q_heads = qd.reshape(n, heads, d_k).transpose(1, 0, 2)     # (heads, n, d_k)
    q_edge = q_heads @ wk_heads.transpose(1, 2, 0)             # (heads, n, d_e)
    q_edge_t = q_edge.transpose(1, 2, 0)                       # (n, d_e, heads)
    alpha = np.empty((n, k, heads), np.result_type(ed, q_edge))
    pooled = np.empty((n, heads, d_in), np.result_type(alpha, hd))

    def forward(r0, r1, _):
        scores = ed[r0:r1] @ q_edge_t[r0:r1]                   # (b, k, heads)
        scores *= scale
        a = _softmax_array(scores, axis=1, out=alpha[r0:r1])
        a_t = a.transpose(0, 2, 1)                             # (b, heads, k)
        pool = pooled[r0:r1]
        pool[:, :, :d] = a.sum(axis=1).reshape(-1, heads, 1) * hd[r0:r1].reshape(-1, 1, d)
        pool[:, :, d:d + d_e] = a_t @ ed[r0:r1]
        pool[:, :, d + d_e:] = a_t @ hd[neighbors[r0:r1]]

    run_blocks(forward, blocks)
    wv_heads = wvd.reshape(d_in, heads, -1).transpose(1, 0, 2)  # (heads, d_in, d_v)
    out = pooled.transpose(1, 0, 2) @ wv_heads                 # (heads, n, d_v)
    h_local = out.transpose(1, 0, 2).reshape(n, d)
    inputs = (q, h, e, w_k, w_v)
    if not (grad_enabled() and any(t.requires_grad for t in inputs)):
        return _make(h_local, [], "edge_attention"), Tensor(alpha)

    memo = {}

    def grads(g):
        # every input's gradient, computed once per backward; each VJP
        # pops its own
        if memo:
            return memo
        g_heads = g.reshape(n, heads, -1).transpose(1, 0, 2)   # (heads, n, d_v)
        g_w_v = (pooled.transpose(1, 2, 0) @ g_heads).transpose(1, 0, 2).reshape(d_in, d)
        g_pool = (g_heads @ wv_heads.transpose(0, 2, 1)).transpose(1, 0, 2)  # (n, heads, d_in)
        gtype = np.result_type(g_pool, alpha, ed, hd)
        g_q_edge = np.empty((n, heads, d_e), gtype)
        g_e_rows = np.empty((n, k, d_e), gtype)
        g_edge_j = np.empty((n, k, d), gtype)
        g_h_self = np.empty((n, d), gtype)

        def block_grads(r0, r1, _):
            pool = g_pool[r0:r1]
            g_self, g_e, g_j = pool[:, :, :d], pool[:, :, d:d + d_e], pool[:, :, d + d_e:]
            a = alpha[r0:r1]
            # alpha's gradient from the three pooled terms; the sender
            # term gathers h_j again
            g_alpha = ed[r0:r1] @ g_e.transpose(0, 2, 1)       # (b, k, heads)
            g_alpha += (g_self @ hd[r0:r1, :, None]).transpose(0, 2, 1)
            g_alpha += hd[neighbors[r0:r1]] @ g_j.transpose(0, 2, 1)
            g_edge_j[r0:r1] = a @ g_j                          # (b, k, d)
            g_scores = a * (g_alpha - (g_alpha * a).sum(axis=1, keepdims=True))
            g_scores *= scale
            g_q_edge[r0:r1] = g_scores.transpose(0, 2, 1) @ ed[r0:r1]
            g_e_rows[r0:r1] = a @ g_e + g_scores @ q_edge[:, r0:r1].transpose(1, 0, 2)
            g_h_self[r0:r1] = (g_self * a.sum(axis=1)[:, :, None]).sum(axis=1)

        run_blocks(block_grads, blocks)
        g_q_edge_heads = g_q_edge.transpose(1, 0, 2)           # (heads, n, d_e)
        memo.update(
            q=(g_q_edge_heads @ wk_heads.transpose(1, 0, 2)).transpose(1, 0, 2).reshape(n, d),
            w_k=(g_q_edge_heads.transpose(0, 2, 1) @ q_heads).transpose(1, 0, 2).reshape(d_e, d),
            w_v=g_w_v,
            e=g_e_rows,
            h=g_h_self + scatter_rows(g_edge_j, neighbors, n),
        )
        return memo

    return _make(h_local, [
        (q, lambda g: grads(g).pop("q")),
        (h, lambda g: grads(g).pop("h")),
        (e, lambda g: grads(g).pop("e")),
        (w_k, lambda g: grads(g).pop("w_k")),
        (w_v, lambda g: grads(g).pop("w_v")),
    ], "edge_attention"), Tensor(alpha)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.shape
    return _make(a.data.reshape(shape), [(a, lambda g: g.reshape(old))], "reshape")


def concat(parts, axis=-1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def make_vjp(index):
        return lambda g: np.split(g, splits, axis=axis)[index]

    return _make(
        np.concatenate([p.data for p in parts], axis=axis),
        [(p, make_vjp(i)) for i, p in enumerate(parts)],
        "concat",
    )


@functools.lru_cache(maxsize=16)
def _segment_plan(index_bytes: bytes, dtype: str, n: int) -> tuple:
    """Rows of g grouped by the target row that the index names them for.

    Returns [(targets (s,), rows (s, c))] with one entry per segment
    length c: row targets[i] sums g rows rows[i], in index order.
    Keyed on the index bytes, so every op and every backward pass over
    the same neighbour array shares one plan, and an index changed in
    place gets a new one.
    """
    flat = np.frombuffer(index_bytes, dtype=dtype)
    flat = np.where(flat < 0, flat + n, flat)  # numpy's negative indexing
    order = np.argsort(flat, kind="stable")
    ranked = flat[order]
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(first)
    lengths = np.diff(starts, append=ranked.size)
    plan = []
    for c in np.unique(lengths):
        seg_starts = starts[lengths == c]
        plan.append((ranked[seg_starts], order[seg_starts[:, None] + np.arange(c)]))
    return tuple(plan)


def scatter_rows(g, index, n: int) -> np.ndarray:
    """Adjoint of `x[index]` for an x with n rows: row r of the result
    is the sum of the rows of g that index names r.

    g has shape index.shape + row shape; rows no index names are 0.
    Segments of equal length are summed together, one gather and one
    contiguous reduction each, so work and memory are linear in g.
    """
    index = np.asarray(index)
    g_rows = g.reshape(index.size, *g.shape[index.ndim:])
    out = np.zeros((n,) + g_rows.shape[1:], dtype=g.dtype)
    plan = _segment_plan(np.ascontiguousarray(index).tobytes(), index.dtype.str, n)
    for targets, rows in plan:
        out[targets] = g_rows[rows].sum(axis=1)
    return out


def take_rows(a, index) -> Tensor:
    """Gather rows along axis 0; backward scatter-adds."""
    a = as_tensor(a)
    index = np.asarray(index)
    n = a.shape[0]
    return _make(a.data[index], [(a, lambda g: scatter_rows(g, index, n))], "take_rows")


def tile_row(a, n: int) -> Tensor:
    """(1, d) -> (n, d) by repetition; backward sums rows."""
    a = as_tensor(a)
    data = np.broadcast_to(a.data, (n, a.shape[1])).copy()
    return _make(data, [(a, lambda g: g.sum(axis=0, keepdims=True))], "tile_row")


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    shape = a.shape

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, shape).copy()
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, shape).copy()

    return _make(a.data.sum(axis=axis, keepdims=keepdims), [(a, vjp)], "sum")


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, [(a, lambda g: g * out)], "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    return _make(np.log(x), [(a, lambda g: g / x)], "log")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    z = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return _make(out, [(a, lambda g: g * out * (1.0 - out))], "sigmoid")


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_parts(x):
    """x², the tanh and x / 2: what gelu's value and slope are made of."""
    x2 = x * x
    return x2, np.tanh(x * (_GELU_C + (_GELU_C * 0.044715) * x2)), 0.5 * x


def _gelu_value(parts):
    _, t, half_x = parts
    return half_x + half_x * t


def _gelu_slope(parts):
    x2, t, half_x = parts
    dinner = _GELU_C + (3.0 * _GELU_C * 0.044715) * x2
    return 0.5 + 0.5 * t + half_x * ((1.0 - t * t) * dinner)


def _gelu_into(x, out, half_x):
    """gelu(x) written into out, with half_x as scratch: `_gelu_parts` and
    `_gelu_value` in place, so the same bits."""
    np.multiply(x, x, out=out)
    out *= _GELU_C * 0.044715
    out += _GELU_C
    out *= x
    np.tanh(out, out=out)
    np.multiply(x, 0.5, out=half_x)
    out *= half_x
    out += half_x


def _gelu_value_slope_into(x, value, slope, inner, scratch):
    """gelu(x) into value and its slope into slope, with inner and
    scratch as scratch: `_gelu_parts`, `_gelu_value` and `_gelu_slope`
    in place, so the same bits. x is left holding x / 2."""
    np.multiply(x, x, out=inner)
    np.multiply(inner, _GELU_C * 0.044715, out=slope)
    slope += _GELU_C
    slope *= x
    np.tanh(slope, out=slope)
    inner *= 3.0 * _GELU_C * 0.044715
    inner += _GELU_C
    x *= 0.5
    np.multiply(x, slope, out=value)
    value += x
    np.multiply(slope, slope, out=scratch)
    np.subtract(1.0, scratch, out=scratch)
    scratch *= inner
    scratch *= x
    slope *= 0.5
    slope += 0.5
    slope += scratch


def gelu(a) -> Tensor:
    """tanh-approximation GELU. The tape keeps only the input; backward
    recomputes the tanh from it (the same expressions, so the same bits)."""
    a = as_tensor(a)
    x = a.data
    return _make(_gelu_value(_gelu_parts(x)),
                 [(a, lambda g: g * _gelu_slope(_gelu_parts(x)))], "gelu")


def _softmax_array(x: np.ndarray, axis, out=None) -> np.ndarray:
    """Max-shifted softmax of an array, into out if given; non-finite
    input raises NumericError."""
    if not np.all(np.isfinite(x)):
        raise NumericError("softmax input is not finite")
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return np.divide(e, e.sum(axis=axis, keepdims=True), out=out)


def softmax(a, axis=-1) -> Tensor:
    """Max-shifted softmax; non-finite input raises NumericError."""
    a = as_tensor(a)
    out = _softmax_array(a.data, axis)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - dot)

    return _make(out, [(a, vjp)], "softmax")


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis, then scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    gd, sb = gain.data, bias.shape
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = gd * xhat + bias.data

    def vjp_x(g):
        dxhat = g * gd
        term1 = dxhat
        term2 = dxhat.mean(axis=-1, keepdims=True)
        term3 = xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        return inv * (term1 - term2 - term3)

    def vjp_gain(g):
        return _unbroadcast(g * xhat, gd.shape)

    def vjp_bias(g):
        return _unbroadcast(g, sb)

    return _make(out, [(x, vjp_x), (gain, vjp_gain), (bias, vjp_bias)], "layer_norm")


def dropout(x, rate: float, stream: RandomStream | None, training: bool) -> Tensor:
    """Inverted dropout; the identity when not training or rate == 0."""
    x = as_tensor(x)
    if not training or rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise NumericError(f"dropout rate must be in [0, 1), got {rate}")
    # the tape keeps the boolean mask, not the float multiplier
    mask, scale = stream.keep_mask(x.shape, rate), 1.0 / (1.0 - rate)
    return _make(x.data * (mask * scale), [(x, lambda g: g * (mask * scale))], "dropout")


def _topo_order(start):
    """Graph entries reachable from `start` (a node or a leaf), parents
    before children. InvalidBackward if one was released by an earlier
    backward."""
    order, seen, stack = [], set(), [(start, False)]
    while stack:
        item, expanded = stack.pop()
        if expanded:
            order.append(item)
            continue
        if id(item) in seen:
            continue
        seen.add(id(item))
        stack.append((item, True))
        if isinstance(item, Tensor):
            continue
        if item.parents is None:
            raise InvalidBackward(f"backward reached a {item.op} node that an earlier "
                                  "backward consumed; build the graph again")
        for parent, _ in item.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _start(root: Tensor):
    return root if root._node is None else root._node


def backward(root: Tensor) -> None:
    """Populate .grad for every requires_grad leaf reachable from root.

    The root must be scalar. Backward consumes the graph: each node
    drops its VJPs (and the arrays they hold) as soon as they have run,
    so a second backward through any of its nodes raises InvalidBackward
    before touching a gradient.
    """
    if root.size != 1:
        raise InvalidBackward(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        return
    start = _start(root)
    order = _topo_order(start)

    # grads hold [array, owned]; un-owned arrays may alias a child's
    # gradient (e.g. reshape views), so the first accumulation copies.
    grads = {id(start): [np.ones_like(root.data), True]}
    while order:
        item = order.pop()
        entry = grads.pop(id(item), None)
        if isinstance(item, Tensor):
            if entry is not None:
                g = entry[0]
                item.grad = g.copy() if item.grad is None else item.grad + g
            continue
        parents, item.parents = item.parents, None
        if entry is None:
            continue
        g = entry[0]
        for parent, vjp in parents:
            pg = vjp(g)
            key = id(parent)
            slot = grads.get(key)
            if slot is None:
                grads[key] = [pg, False]
            elif slot[1]:
                slot[0] += pg
            else:
                slot[0] = slot[0] + pg
                slot[1] = True


def tape_stats(root: Tensor) -> tuple:
    """(nodes, bytes) of the graph behind root: the entries backward would
    visit (op nodes and leaves), and the bytes of every distinct base
    array that the VJP closures reach, each counted once."""
    if not root.requires_grad:
        return 0, 0
    order = _topo_order(_start(root))
    stack = [vjp for item in order if not isinstance(item, Tensor) for _, vjp in item.parents]
    seen, bases = set(), {}
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj.nbytes
        elif isinstance(obj, Tensor):
            stack.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return len(order), sum(bases.values())


def zero_grads(params) -> None:
    values = params.values() if isinstance(params, dict) else params
    for p in values:
        p.zero_grad()


def check_gradient(f, params, eps: float = 1e-5, samples_per_param=None, seed: int = 0) -> float:
    """Max relative error between tape gradients and central differences.

    `f` must be a deterministic closure over `params` returning a scalar
    Tensor (dropout off). With `samples_per_param` set, a seeded subset
    of entries is probed per parameter; None probes every entry.
    Relative error: |analytic - numeric| / max(1e-12, |analytic| + |numeric|).
    """
    named = params if isinstance(params, dict) else {str(i): p for i, p in enumerate(params)}
    zero_grads(named)
    loss = f()
    backward(loss)
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in named.items()}

    worst = 0.0
    stream = RandomStream(seed, "gradcheck")
    for name, p in named.items():
        flat = p.data.reshape(-1)
        size = flat.size
        if samples_per_param is None or size <= samples_per_param:
            indices = range(size)
        else:
            indices = stream.child(name).permutation(size)[:samples_per_param]
        aflat = analytic[name].reshape(-1)
        for idx in indices:
            orig = flat[idx]
            with no_grad():  # the probes need values only
                flat[idx] = orig + eps
                hi = f().item()
                flat[idx] = orig - eps
                lo = f().item()
            flat[idx] = orig
            numeric = (hi - lo) / (2.0 * eps)
            a = aflat[idx]
            err = abs(a - numeric) / max(1e-12, abs(a) + abs(numeric))
            if err > worst:
                worst = err
    zero_grads(named)
    return worst
