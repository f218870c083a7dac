"""Tape correctness: per-op gradient checks against central differences,
backward contracts, and softmax behavior."""

import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invfold import autodiff as ad
from invfold.autodiff import Tensor, backward, check_gradient
from invfold.errors import InvalidBackward, NumericError
from invfold.rng import RandomStream


def rand(shape, seed=0, scale=1.0):
    return RandomStream(seed, f"t{shape}").gaussian(shape) * scale


def param(shape, seed=0, scale=1.0):
    return Tensor(rand(shape, seed, scale), requires_grad=True)


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_closed_form(self):
        out = ad.softmax(Tensor([np.log(1.0), np.log(3.0)]))
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        x = rand((5,), seed=1)
        a = ad.softmax(Tensor(x)).data
        b = ad.softmax(Tensor(x + 123.4)).data
        assert np.max(np.abs(a - b)) < 1e-12

    def test_large_magnitude_rows_sum_to_one(self):
        x = rand((20, 7), seed=2, scale=100.0)
        out = ad.softmax(Tensor(x), axis=1).data
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-7
        assert np.all(out > 0)

    def test_nonfinite_input(self):
        with pytest.raises(NumericError):
            ad.softmax(Tensor([1.0, np.inf]))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_rows_stochastic_property(self, seed):
        x = RandomStream(seed, "sm").gaussian((4, 6)) * 50
        out = ad.softmax(Tensor(x), axis=1).data
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-7


class TestBackwardContract:
    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ad.tsum(ad.mul(x, x))
        backward(y)
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_root(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(InvalidBackward):
            backward(ad.mul(x, x))

    def test_double_backward(self):
        x = Tensor([1.0], requires_grad=True)
        y = ad.tsum(ad.mul(x, x))
        backward(y)
        with pytest.raises(InvalidBackward):
            backward(y)

    def test_constant_function_zero_gradient(self):
        x = Tensor([3.0, 4.0], requires_grad=True)
        y = ad.tsum(ad.mul(x, 0.0))
        backward(y)
        assert np.allclose(x.grad, [0.0, 0.0])

    def test_grad_accumulates_across_graphs(self):
        x = Tensor([2.0], requires_grad=True)
        backward(ad.tsum(ad.mul(x, x)))
        backward(ad.tsum(ad.mul(x, x)))
        assert np.allclose(x.grad, [8.0])

    def test_debug_mode_traps_nonfinite(self):
        ad.set_debug_checks(True)
        try:
            with np.errstate(invalid="ignore"):
                with pytest.raises(NumericError):
                    ad.log(Tensor([-1.0]))
        finally:
            ad.set_debug_checks(False)


class TestTapeMemory:
    def test_dropped_intermediate_is_freed(self):
        x = param((4, 3), seed=60)
        y = ad.gelu(x)
        freed = weakref.ref(y.data)
        loss = ad.tsum(ad.mul(y, 3.0))
        del y
        assert freed() is None
        backward(loss)
        dropped = x.grad
        x.zero_grad()
        kept = ad.gelu(x)
        backward(ad.tsum(ad.mul(kept, 3.0)))
        assert np.array_equal(x.grad, dropped)

        def f():
            return ad.tsum(ad.mul(ad.gelu(x), 3.0))

        assert check_gradient(f, {"x": x}, eps=1e-6) < 1e-6

    def test_gelu_keeps_only_its_input(self):
        x = param((50, 4), seed=61)
        assert ad.tape_stats(ad.tsum(ad.gelu(x))) == (3, x.data.nbytes)

    def test_dropout_keeps_a_boolean_mask(self):
        x = param((1000, 8), seed=62)
        out = ad.dropout(x, 0.25, RandomStream(3, "d"), training=True)
        assert ad.tape_stats(ad.tsum(ad.mul(out, 2.0))) == (4, 1000 * 8)

    def test_second_backward_through_a_consumed_node_raises(self):
        x = param((3,), seed=63)
        y = ad.gelu(x)
        first, second = ad.tsum(y), ad.tsum(ad.mul(y, y))
        backward(first)
        grad = x.grad.copy()
        with pytest.raises(InvalidBackward):
            backward(second)
        assert np.array_equal(x.grad, grad)

    def test_tape_stats_of_a_constant(self):
        assert ad.tape_stats(ad.tsum(Tensor(np.ones(3)))) == (0, 0)


class TestOpGradients:
    def test_sigmoid_matches_finite_differences(self):
        w = param((4, 3), seed=3)
        x = rand((5, 4), seed=4)

        def f():
            return ad.tsum(ad.sigmoid(ad.matmul(Tensor(x), w)))

        assert check_gradient(f, {"w": w}, eps=1e-5) < 1e-6

    @pytest.mark.parametrize("op", [ad.exp, ad.gelu, ad.sigmoid])
    def test_elementwise(self, op):
        x = param((6,), seed=5)

        def f():
            return ad.tsum(op(ad.mul(x, 0.7)))

        assert check_gradient(f, {"x": x}, eps=1e-6) < 1e-6

    def test_log(self):
        x = Tensor(np.abs(rand((6,), seed=6)) + 0.5, requires_grad=True)

        def f():
            return ad.tsum(ad.log(x))

        assert check_gradient(f, {"x": x}, eps=1e-7) < 1e-6

    def test_div(self):
        a = param((5,), seed=7)
        b = Tensor(np.abs(rand((5,), seed=8)) + 1.0, requires_grad=True)

        def f():
            return ad.tsum(ad.div(a, b))

        assert check_gradient(f, {"a": a, "b": b}, eps=1e-6) < 1e-6

    def test_softmax_grad(self):
        x = param((3, 5), seed=9)
        w = rand((3, 5), seed=10)

        def f():
            return ad.tsum(ad.mul(ad.softmax(x, axis=1), w))

        assert check_gradient(f, {"x": x}, eps=1e-6) < 1e-6

    def test_channelwise_softmax_grad(self):
        x = param((4, 3), seed=11)
        w = rand((4, 3), seed=12)

        def f():
            return ad.tsum(ad.mul(ad.softmax(x, axis=0), w))

        assert check_gradient(f, {"x": x}, eps=1e-6) < 1e-6

    def test_layer_norm_grad(self):
        x = param((4, 6), seed=13)
        gain = param((6,), seed=14)
        bias = param((6,), seed=15)
        w = rand((4, 6), seed=16)

        def f():
            return ad.tsum(ad.mul(ad.layer_norm(x, gain, bias), w))

        assert check_gradient(f, {"x": x, "g": gain, "b": bias}, eps=1e-6) < 1e-5

    def test_concat_and_reshape(self):
        a = param((3, 2), seed=17)
        b = param((3, 4), seed=18)
        w = rand((18,), seed=19)

        def f():
            cat = ad.concat([a, b], axis=1)
            return ad.tsum(ad.mul(ad.reshape(cat, (18,)), w))

        assert check_gradient(f, {"a": a, "b": b}, eps=1e-6) < 1e-6

    def test_take_expand_tile(self):
        h = param((5, 3), seed=20)
        idx = np.array([[1, 4], [0, 0], [2, 3], [4, 1], [3, 3]])
        w1 = rand((5, 2, 3), seed=21)
        w2 = rand((5, 2, 3), seed=22)
        g = param((1, 3), seed=23)
        w3 = rand((5, 3), seed=24)

        def f():
            gathered = ad.mul(ad.take_rows(h, idx), w1)
            expanded = ad.mul(ad.take_rows(h, np.repeat(np.arange(5)[:, None], 2, 1)), w2)
            tiled = ad.mul(ad.tile_row(g, 5), w3)
            return ad.add(ad.tsum(ad.add(gathered, expanded)), ad.tsum(tiled))

        assert check_gradient(f, {"h": h, "g": g}, eps=1e-6) < 1e-6

    def test_linear_fused(self):
        x = param((4, 3, 5), seed=25)
        w = param((5, 2), seed=26)
        b = param((2,), seed=27)

        def f():
            return ad.tsum(ad.gelu(ad.linear(x, w, b)))

        assert check_gradient(f, {"x": x, "w": w, "b": b}, eps=1e-5) < 1e-6

    def test_edge_mlp_gradient(self):
        neighbors = np.array([[1, 2], [0, 2], [1, 0], [2, 1]])
        h = param((4, 3), seed=28)
        e = param((4, 2, 5), seed=29)
        w1 = param((11, 6), seed=30)
        b1 = param((6,), seed=31)
        w2 = param((6, 5), seed=32)
        b2 = param((5,), seed=33)
        drop = RandomStream(3, "mask")
        wmix = rand((4, 2, 5), seed=34)
        params = {"h": h, "e": e, "w1": w1, "b1": b1, "w2": w2, "b2": b2}

        def f():
            out = ad.edge_mlp(h, e, neighbors, w1, b1, w2, b2, drop, 0.25)
            return ad.tsum(ad.mul(out, wmix))

        assert check_gradient(f, params, eps=1e-6) < 1e-6

    def test_edge_mlp_matches_concat_path(self):
        neighbors = np.array([[1, 2], [0, 2], [1, 0], [2, 1]])
        h = param((4, 3), seed=35)
        e = param((4, 2, 5), seed=36)
        w1, b1 = param((11, 6), seed=37), param((6,), seed=38)
        w2, b2 = param((6, 5), seed=39), param((5,), seed=40)
        fused = ad.edge_mlp(h, e, neighbors, w1, b1, w2, b2)
        h_i = ad.take_rows(h, np.repeat(np.arange(4)[:, None], 2, 1))
        h_j = ad.take_rows(h, neighbors)
        hidden = ad.gelu(ad.linear(ad.concat([h_i, h_j, e], axis=2), w1, b1))
        explicit = ad.add(e, ad.linear(hidden, w2, b2))
        assert np.max(np.abs(fused.data - explicit.data)) < 1e-12

    @pytest.mark.parametrize("edge_rows", [ad.EDGE_ROWS, 2], ids=["one-block", "row-blocks"])
    def test_edge_attention_gradient(self, monkeypatch, edge_rows):
        monkeypatch.setattr(ad, "EDGE_ROWS", edge_rows)
        # receiver 2 names sender 1 twice, so the sender gradient sums a segment
        neighbors = np.array([[1, 2], [0, 2], [1, 1]])
        q = param((3, 4), seed=36)
        h = param((3, 4), seed=37)
        e = param((3, 2, 3), seed=38)
        wk = param((3, 4), seed=39)
        wv = param((11, 4), seed=40)
        w = rand((3, 4), seed=41)

        def f():
            h_local, _ = ad.edge_attention(q, h, e, neighbors, wk, wv, heads=2)
            return ad.tsum(ad.mul(h_local, w))

        params = {"q": q, "h": h, "e": e, "wk": wk, "wv": wv}
        assert check_gradient(f, params, eps=1e-6) < 1e-6

    # (40, 30) runs in blocks of EDGE_ROWS // 30 receivers with a short
    # last block; k > EDGE_ROWS puts one receiver in each block
    @pytest.mark.parametrize("n,k", [(6, 4), (40, 30), (3, ad.EDGE_ROWS + 8)])
    def test_edge_attention_matches_materialized_keys_and_values(self, monkeypatch, n, k):
        rng = np.random.default_rng(5)
        d, d_e, heads = 8, 5, 2
        neighbors = rng.integers(0, n, (n, k))
        q, h = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        e = rng.standard_normal((n, k, d_e))
        wk, wv = rng.standard_normal((d_e, d)), rng.standard_normal((2 * d + d_e, d))
        keys = (e @ wk).reshape(n, k, heads, d // heads)
        scores = np.einsum("nhc,nkhc->nkh", q.reshape(n, heads, -1), keys) / np.sqrt(d // heads)
        ref_alpha = np.exp(scores - scores.max(axis=1, keepdims=True))
        ref_alpha /= ref_alpha.sum(axis=1, keepdims=True)
        h_i = np.repeat(h[:, None, :], k, axis=1)
        values = (np.concatenate([h_i, e, h[neighbors]], axis=2) @ wv).reshape(n, k, heads, -1)
        ref_out = np.einsum("nkh,nkhv->nhv", ref_alpha, values).reshape(n, d)
        args = (Tensor(e), neighbors, Tensor(wk), Tensor(wv), heads)
        with ad.no_grad():
            untaped, alpha = ad.edge_attention(Tensor(q), Tensor(h), *args)
        taped, taped_alpha = ad.edge_attention(Tensor(q), Tensor(h, requires_grad=True), *args)
        assert untaped._node is None and taped._node is not None
        assert not alpha.requires_grad and not taped_alpha.requires_grad
        assert np.max(np.abs(alpha.data - ref_alpha)) < 1e-12
        assert np.max(np.abs(untaped.data - ref_out)) < 1e-12
        assert np.array_equal(taped.data, untaped.data)
        assert np.array_equal(taped_alpha.data, alpha.data)

        # the output, alpha and every gradient have the sequential loop's
        # bits for any number of worker threads; senders are named from
        # several blocks
        def run(workers):
            monkeypatch.setattr(ad, "block_workers", lambda: workers)
            leaves = [Tensor(x, requires_grad=True) for x in (q, h, e, wk, wv)]
            out, weights = ad.edge_attention(*leaves[:3], neighbors, *leaves[3:], heads)
            ad.backward(ad.tsum(ad.mul(out, np.cos(ref_out))))
            return [out.data, weights.data] + [t.grad for t in leaves]

        sequential = run(1)
        assert np.array_equal(sequential[0], untaped.data)
        for workers in (2, 3):
            assert all(np.array_equal(a, b) for a, b in zip(sequential, run(workers)))

    def test_edge_attention_tape_keeps_no_gathered_senders(self):
        n, k, d, d_e, heads = 9, 4, 8, 5, 2
        rng = np.random.default_rng(6)
        neighbors = rng.integers(0, n, (n, k))
        q, h, e, wk, wv = (Tensor(rng.standard_normal(shape), requires_grad=True)
                           for shape in ((n, d), (n, d), (n, k, d_e), (d_e, d), (2 * d + d_e, d)))
        out, _ = ad.edge_attention(q, h, e, neighbors, wk, wv, heads)
        # alpha, the five inputs and the index; backward rebuilds the
        # pulled-back queries and the pool
        held = 8 * n * k * heads
        held += sum(t.data.nbytes for t in (q, h, e, wk, wv)) + neighbors.nbytes
        # the op, its five leaves and the sum
        assert ad.tape_stats(ad.tsum(out)) == (7, held)

    def test_matmul_takes_only_matrices(self):
        with pytest.raises(NumericError):
            ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 5))))

    def test_matmul_chain_finite_difference(self):
        w1 = param((4, 8), seed=40)
        w2 = param((8, 2), seed=41)
        x = rand((3, 4), seed=42)

        def f():
            return ad.tsum(ad.sigmoid(ad.matmul(ad.gelu(ad.matmul(Tensor(x), w1)), w2)))

        assert check_gradient(f, {"w1": w1, "w2": w2}, eps=1e-5) < 1e-6


def unfused_edge_mlp(h, e, neighbors, w1, b1, w2, b2, stream=None, rate=0.0):
    """The edge MLP as separate ops: node and edge segments of w1, b1,
    gelu, dropout, the second linear and the residual add."""
    h, e = ad.as_tensor(h), ad.as_tensor(e)
    n, d = h.shape
    w_self, w_nbr, w_edge = Tensor(w1[:d]), Tensor(w1[d:2 * d]), Tensor(w1[2 * d:])
    x = ad.add(ad.linear(e, w_edge), ad.reshape(ad.matmul(h, w_self), (n, 1, -1)))
    x = ad.add(ad.add(x, ad.take_rows(ad.matmul(h, w_nbr), neighbors)), Tensor(b1))
    x = ad.gelu(x)
    x = ad.dropout(x, rate, stream, training=True)
    return ad.add(e, ad.linear(x, Tensor(w2), Tensor(b2)))


class TestEdgeMlp:
    @staticmethod
    def inputs(n, k, d=8, d_e=8, d_h=16, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((n, d)), rng.standard_normal((n, k, d_e)),
                rng.integers(0, n, (n, k)), rng.standard_normal((2 * d + d_e, d_h)) * 0.3,
                rng.standard_normal(d_h), rng.standard_normal((d_h, d_e)) * 0.3,
                rng.standard_normal(d_e))

    # 33 receivers in blocks of EDGE_ROWS // 48 leave a short last block;
    # k > EDGE_ROWS puts one receiver in each block
    @pytest.mark.parametrize("n,k", [(33, 48), (3, ad.EDGE_ROWS + 8)])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("activation", ["gelu"])  # the op's only activation
    def test_matches_unfused_composition_bitwise(self, n, k, rate, activation):
        h, e, neighbors, w1, b1, w2, b2 = self.inputs(n, k)
        ref = unfused_edge_mlp(h, e, neighbors, w1, b1, w2, b2, RandomStream(7, "drop"), rate).data
        args = (neighbors, Tensor(w1), Tensor(b1), Tensor(w2), Tensor(b2),
                RandomStream(7, "drop") if rate else None, rate)
        with ad.no_grad():
            untaped = ad.edge_mlp(Tensor(h), Tensor(e), *args)
        taped = ad.edge_mlp(Tensor(h, requires_grad=True), Tensor(e), *args)
        assert untaped._node is None and taped._node is not None
        assert np.array_equal(untaped.data, ref)
        assert np.array_equal(taped.data, ref)

    def test_tape_keeps_node_terms_and_mask(self):
        n, k, d_h = 9, 4, 12
        data = self.inputs(n, k, d_h=d_h)
        h, e, neighbors = Tensor(data[0], requires_grad=True), Tensor(data[1], requires_grad=True), data[2]
        w1, b1, w2, b2 = (Tensor(x, requires_grad=True) for x in data[3:])
        out = ad.edge_mlp(h, e, neighbors, w1, b1, w2, b2, RandomStream(1, "mask"), 0.2)
        node_terms = 2 * n * d_h * 8  # h w_self and h w_nbr
        packed_mask = n * k * 2  # 12 hidden entries per edge packed into 2 bytes
        held = (packed_mask + node_terms + neighbors.nbytes
                + sum(t.data.nbytes for t in (h, e, w1, b1, w2)))
        # the op, its six leaves and the sum; no (n, k, d_h) float array
        # (3456 B here) nor bool mask (432 B): backward unpacks the mask
        # and recomputes the pre-activation per block
        assert ad.tape_stats(ad.tsum(out)) == (8, held)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_backward_does_not_depend_on_block_size(self, monkeypatch, rate):
        n, k = 7, 4
        h, e, neighbors, *weights = self.inputs(n, k)
        neighbors[0, 0] = neighbors[5, 1] = 3  # one sender, receivers in different blocks
        g = np.random.default_rng(1).standard_normal(e.shape)

        def gradients(edge_rows, workers):
            monkeypatch.setattr(ad, "EDGE_ROWS", edge_rows)
            monkeypatch.setattr(ad, "block_workers", lambda: workers)
            leaves = [Tensor(x, requires_grad=True) for x in (h, e, *weights)]
            x, y, w1, b1, w2, b2 = leaves
            drop = RandomStream(2, "mask") if rate else None
            out = ad.edge_mlp(x, y, neighbors, w1, b1, w2, b2, drop, rate)
            ad.backward(ad.tsum(ad.mul(out, g)))
            return [t.grad for t in leaves] + [out.data]

        # one receiver per block; blocks of two receivers with a short
        # last block (receivers 0 and 5 apart); one block for all
        sizes = (k, 2 * k, n * k)
        one, two, whole = (gradients(rows, 1) for rows in sizes)
        for other in (two, whole):
            assert all(np.array_equal(a, b) for a, b in zip(one[:2], other[:2]))
            for a, b in zip(one[2:6], other[2:6]):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
        # at a given block size, the output and every gradient have the
        # sequential loop's bits for any number of worker threads
        for rows, sequential in zip(sizes, (one, two, whole)):
            for workers in (2, 3):
                parallel = gradients(rows, workers)
                assert all(np.array_equal(a, b) for a, b in zip(sequential, parallel))


class TestRunBlocks:
    @pytest.mark.parametrize("blas,environ,pinned", [
        ("scipy-openblas", {}, False),
        ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "1"}, True),
        ("scipy-openblas", {"OMP_NUM_THREADS": "1"}, True),
        ("scipy-openblas", {"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
        # OpenBLAS reads its own variable first, and ignores MKL's
        ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ("scipy-openblas", {"MKL_NUM_THREADS": "1"}, False),
        ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
        ("mkl-sdl", {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
        ("mkl-sdl", {"OPENBLAS_NUM_THREADS": "1"}, False),
        ("accelerate", {"OMP_NUM_THREADS": "1"}, False),
    ])
    def test_blas_pinned_reads_the_variables_in_the_blas_order(self, blas, environ, pinned):
        assert ad.blas_pinned(environ, blas) is pinned

    def test_worker_rule(self, monkeypatch):
        monkeypatch.setattr(ad, "_numpy_blas", lambda: "scipy-openblas")
        monkeypatch.setattr(ad, "_BLAS_ENV", {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"})
        assert ad.block_workers() == 1
        # the variables as numpy's BLAS read them at load, not as they are now
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert ad.block_workers() == 1
        monkeypatch.setattr(ad, "_BLAS_ENV", {"OPENBLAS_NUM_THREADS": "1"})
        assert ad.block_workers() == len(os.sched_getaffinity(0))
        # a call from any thread but the main thread runs sequentially
        seen = []
        worker = threading.Thread(target=lambda: seen.append(ad.block_workers()))
        worker.start()
        worker.join(5)
        assert not worker.is_alive() and seen == [1]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_come_back_in_block_order(self, monkeypatch, workers):
        # more threads than cores and a short switch interval, so blocks
        # finish out of order
        monkeypatch.setattr(ad, "block_workers", lambda: workers)
        blocks = ad.receiver_blocks(400, ad.EDGE_ROWS // 3)
        delays = np.random.default_rng(workers).uniform(0, 0.001, len(blocks))
        out, buffers = np.zeros(400), []

        def fn(r0, r1, bufs):
            time.sleep(delays[r0 // 3])
            bufs[:r1 - r0] = np.arange(r0, r1)
            out[r0:r1] = bufs[:r1 - r0]
            return r0

        def make_buffers():
            buffers.append(threading.current_thread())
            return np.empty(3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = ad.run_blocks(fn, blocks, make_buffers)
        finally:
            sys.setswitchinterval(interval)
        assert results == [r0 for r0, _ in blocks]
        assert np.array_equal(out, np.arange(400))
        # one set of buffers per thread that took a block
        assert len(buffers) == len(set(buffers)) <= workers

    def test_worker_exception_reaches_caller_once_every_block_ended(self, monkeypatch):
        monkeypatch.setattr(ad, "block_workers", lambda: 3)
        lock, raised, second_started = threading.Lock(), threading.Event(), threading.Event()
        state = {"active": 0, "worker_calls": 0, "slow_done": False}
        error = NumericError("softmax input is not finite")

        def fn(r0, r1, _):
            with lock:
                state["active"] += 1
            try:
                if threading.current_thread() is threading.main_thread():
                    raised.wait(5)  # let the workers take blocks
                    return
                with lock:
                    state["worker_calls"] += 1
                    call = state["worker_calls"]
                if call == 1:
                    second_started.wait(5)
                    raised.set()
                    raise error
                second_started.set()
                time.sleep(0.2)
                state["slow_done"] = True
            finally:
                with lock:
                    state["active"] -= 1

        with pytest.raises(NumericError) as info:
            ad.run_blocks(fn, ad.receiver_blocks(12, ad.EDGE_ROWS))
        assert info.value is error
        assert state["active"] == 0 and state["slow_done"]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_non_finite_score_in_a_late_block_raises(self, monkeypatch, workers):
        monkeypatch.setattr(ad, "block_workers", lambda: workers)
        n, k, d, d_e = 6, ad.EDGE_ROWS, 4, 3
        rng = np.random.default_rng(0)
        e = rng.standard_normal((n, k, d_e))
        e[4, 7, 1] = np.inf  # one receiver per block: block 4 of 6
        with pytest.raises(NumericError, match="softmax input is not finite"):
            ad.edge_attention(rng.standard_normal((n, d)), rng.standard_normal((n, d)), e,
                              rng.integers(0, n, (n, k)), rng.standard_normal((d_e, d)),
                              rng.standard_normal((2 * d + d_e, d)), heads=2)


class TestDropout:
    def test_eval_mode_identity(self):
        x = Tensor(rand((10, 4), seed=43))
        out = ad.dropout(x, 0.5, None, training=False)
        assert out is x

    def test_training_mask_scale(self):
        x = Tensor(np.ones((1000, 8)))
        out = ad.dropout(x, 0.25, RandomStream(3, "d"), training=True)
        kept = out.data != 0.0
        assert abs(kept.mean() - 0.75) < 0.03
        assert np.allclose(out.data[kept], 1.0 / 0.75)

    def test_deterministic_given_stream(self):
        x = Tensor(np.ones((50, 4)))
        a = ad.dropout(x, 0.3, RandomStream(4, "d"), training=True)
        b = ad.dropout(x, 0.3, RandomStream(4, "d"), training=True)
        assert np.array_equal(a.data, b.data)


class TestCheckGradient:
    def test_quadratic_tiny_error(self):
        x = param((4,), seed=44)

        def f():
            return ad.tsum(ad.mul(x, x))

        assert check_gradient(f, {"x": x}, eps=1e-6) < 1e-9

    def test_sampled_subset(self):
        w = param((30, 30), seed=45)

        def f():
            return ad.tsum(ad.sigmoid(w))

        err = check_gradient(f, {"w": w}, eps=1e-6, samples_per_param=5, seed=1)
        assert err < 1e-6


def records_tape() -> bool:
    """Whether a new op on a requires_grad leaf links to its parent."""
    out = ad.mul(Tensor(np.ones(2), requires_grad=True), 2.0)
    return out.requires_grad and len(out._node.parents) == 1


class TestNoGrad:
    def test_block_records_no_tape(self):
        x = param((3, 2), seed=46)
        with ad.no_grad():
            y = ad.tsum(ad.mul(x, x))
            assert not ad.grad_enabled()
        assert not y.requires_grad and y._node is None
        assert ad.grad_enabled() and records_tape()

    def test_values_match_taped_run(self):
        x = param((4, 3), seed=47)
        taped = ad.softmax(ad.gelu(x), axis=1).data
        with ad.no_grad():
            free = ad.softmax(ad.gelu(x), axis=1).data
        assert np.array_equal(taped, free)

    def test_nested_blocks_restore_outer_state(self):
        with ad.no_grad():
            with ad.no_grad():
                assert not records_tape()
            assert not records_tape()
        assert records_tape()

    def test_state_restored_when_body_raises(self):
        with pytest.raises(NumericError):
            with ad.no_grad():
                ad.softmax(Tensor([np.nan, 0.0]))
        assert ad.grad_enabled() and records_tape()

    def test_interleaved_threads_keep_their_own_state(self):
        # forced order: A enters, B enters, A exits, B exits; a single
        # process-wide flag saved and restored on enter and exit ends
        # this order switched off for good
        step = threading.Barrier(2, timeout=10)
        seen = {}

        def thread_a():
            with ad.no_grad():
                step.wait()                      # 1: A is inside
                step.wait()                      # 2: B is inside
                seen["a_inside"] = records_tape()
            seen["a_after"] = records_tape()
            step.wait()                          # 3: A has left

        def thread_b():
            step.wait()                          # 1
            with ad.no_grad():
                step.wait()                      # 2
                step.wait()                      # 3
                seen["b_inside"] = records_tape()
            seen["b_after"] = records_tape()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
            assert not t.is_alive()
        assert seen == {"a_inside": False, "a_after": True,
                        "b_inside": False, "b_after": True}
        assert records_tape()


def onehot_scatter(g, index, n):
    """Dense reference: one-hot (m, n) matrix transposed times the rows of g."""
    flat = index.reshape(-1)
    onehot = np.zeros((flat.size, n))
    onehot[np.arange(flat.size), flat] = 1.0
    return onehot.T @ g.reshape(flat.size, -1)


class TestScatterRows:
    def test_duplicate_indices_sum(self):
        g = rand((4, 3), seed=48)
        out = ad.scatter_rows(g, np.array([2, 0, 2, 2]), 3)
        assert np.allclose(out[2], g[0] + g[2] + g[3], rtol=0, atol=1e-15)
        assert np.array_equal(out[0], g[1])

    def test_unnamed_row_is_exactly_zero(self):
        g = rand((3, 5), seed=49)
        out = ad.scatter_rows(g, np.array([0, 2, 0]), 4)
        assert np.all(out[1] == 0.0) and np.all(out[3] == 0.0)

    def test_negative_indices_follow_numpy(self):
        g = rand((3, 2), seed=50)
        out = ad.scatter_rows(g, np.array([-1, 2, 0]), 3)
        assert np.allclose(out, onehot_scatter(g, np.array([2, 2, 0]), 3), rtol=0, atol=1e-15)

    def test_index_changed_in_place_gets_a_new_plan(self):
        g = rand((2, 2), seed=51)
        index = np.array([0, 1])
        first = ad.scatter_rows(g, index, 2)
        index[:] = [1, 1]
        assert np.array_equal(first, g)
        assert np.allclose(ad.scatter_rows(g, index, 2), [[0.0, 0.0], g[0] + g[1]],
                           rtol=0, atol=1e-15)

    def test_take_rows_three_d_operand(self):
        a = param((4, 2, 3), seed=52)
        idx = np.array([[3, 3], [0, 1], [1, 3]])
        w = rand((3, 2, 2, 3), seed=53)

        def f():
            return ad.tsum(ad.mul(ad.take_rows(a, idx), w))

        assert check_gradient(f, {"a": a}, eps=1e-6) < 1e-7
        ad.backward(f())
        assert np.all(a.grad[2] == 0.0)

    def test_knn_scale_matches_onehot_reference(self):
        from invfold.geometry import FeatureConfig, build_knn_graph
        from invfold.synthetic import random_backbone
        graph = build_knn_graph(random_backbone(9, 300), FeatureConfig(k=48))
        g = rand((300, 48, 16), seed=54)
        out = ad.scatter_rows(g, graph.neighbors, 300)
        assert np.max(np.abs(out - onehot_scatter(g, graph.neighbors, 300))) < 1e-12
