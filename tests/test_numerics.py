import struct
import zlib

import numpy as np
import pytest

from kga2c import numerics as nm
from gradcheck import finite_difference_check


def rand(rng, *shape):
    return nm.Tensor(rng.normal(size=shape), requires_grad=True)


class TestCoreOps:
    @pytest.mark.parametrize("seed", range(5))
    def test_elementwise_and_linear(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, 4)
        W = rand(rng, 4, 3)
        b = rand(rng, 3)
        y = rand(rng, 3)

        def f():
            h = nm.tanh(nm.add(nm.matmul(x, W), b))
            return nm.sum_(nm.mul(nm.sigmoid(h), y))

        finite_difference_check(f, [x, W, b, y])

    @pytest.mark.parametrize("seed", range(3))
    def test_matmul_shapes(self, seed):
        rng = np.random.default_rng(seed)
        A = rand(rng, 3, 4)
        B = rand(rng, 4, 2)
        v = rand(rng, 3)
        u = rand(rng, 4)

        def f():
            m = nm.matmul(A, B)  # (3,2)
            lhs = nm.matmul(v, m)  # (2,)
            return nm.add(nm.sum_(lhs), nm.matmul(nm.matmul(A, u), v))

        finite_difference_check(f, [A, B, v, u])

    def test_matmul_shape_mismatch_message(self):
        a = nm.Tensor(np.zeros((2, 3)))
        b = nm.Tensor(np.zeros((2, 3)))
        with pytest.raises(nm.ShapeError) as err:
            nm.matmul(a, b)
        assert "(2, 3)" in str(err.value)

    def test_leaky_relu_definition(self):
        x = nm.Tensor(np.array([-1.0, 0.5]))
        y = nm.leaky_relu(x, 0.2)
        assert y.data[0] == pytest.approx(-0.2)
        assert y.data[1] == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(3))
    def test_leaky_relu_grad(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, 6)
        y = rand(rng, 6)
        finite_difference_check(
            lambda: nm.sum_(nm.mul(nm.leaky_relu(x, 0.2), y)), [x, y]
        )

    def test_softmax_uniform_on_equal_logits(self):
        x = nm.Tensor(np.full(4, 1.7))
        assert np.allclose(nm.softmax(x).data, 0.25)

    @pytest.mark.parametrize("seed", range(4))
    def test_softmax_grad(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, 5)
        y = rand(rng, 5)
        finite_difference_check(lambda: nm.sum_(nm.mul(nm.softmax(x), y)), [x, y])

    def test_masked_softmax_exact_zeros_and_renormalization(self):
        rng = np.random.default_rng(0)
        x = nm.Tensor(rng.normal(size=8))
        mask = np.array([True, False, True, False, True, True, False, True])
        y = nm.softmax(x, mask=mask)
        assert np.all(y.data[~mask] == 0.0)
        assert abs(y.data.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_masked_softmax_grad(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, 6)
        y = rand(rng, 6)
        mask = np.array([True, True, False, True, False, True])
        finite_difference_check(
            lambda: nm.sum_(nm.mul(nm.softmax(x, mask=mask), y)), [x, y]
        )
        # row-wise over a matrix whose logits scale each row by a column
        c = rand(rng, 3)
        X = rand(rng, 3, 4)
        Y = rand(rng, 3, 4)
        mask = np.array([[True, False, True, True],
                         [False, True, False, False],
                         [True, True, True, True]])

        def f():
            probs = nm.softmax(nm.mul(nm.column(c), X), mask=mask)
            return nm.sum_(nm.mul(probs, Y))

        finite_difference_check(f, [c, X, Y])

    def test_fully_masked_softmax_rejected(self):
        with pytest.raises(nm.ShapeError):
            nm.softmax(nm.Tensor(np.zeros(3)), mask=np.zeros(3, dtype=bool))
        one_row_empty = np.array([[True, False], [False, False]])
        with pytest.raises(nm.ShapeError, match="excludes every entry"):
            nm.softmax(nm.Tensor(np.zeros((2, 2))), mask=one_row_empty)

    @pytest.mark.parametrize("seed", range(3))
    def test_losses(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, 5)
        targets = (rng.random(5) > 0.5).astype(float)

        finite_difference_check(lambda: nm.binary_cross_entropy(x, targets), [x])
        finite_difference_check(
            lambda: nm.take(nm.cross_entropy_with_logits(nm.stack0([x]), [3]), 0), [x])

    @pytest.mark.parametrize("seed", range(2))
    def test_losses_per_row(self, seed):
        """A matrix gives one loss per row, each equal to its row's loss."""
        rng = np.random.default_rng(seed)
        X = rand(rng, 3, 5)
        targets = (rng.random((3, 5)) > 0.5).astype(float)
        classes = [4, 0, 4]
        w = nm.Tensor(rng.normal(size=3))
        bce = nm.binary_cross_entropy(X, targets)
        ce = nm.cross_entropy_with_logits(X, classes)
        assert bce.shape == ce.shape == (3,)
        for r in range(3):
            x = X.data[r]
            assert abs(bce.data[r] - nm.binary_cross_entropy(
                nm.Tensor(x), targets[r]).item()) <= 1e-15
            lse = np.log(np.exp(x - x.max()).sum()) + x.max()
            assert abs(ce.data[r] - (lse - x[classes[r]])) <= 1e-14
        finite_difference_check(lambda: nm.matmul(nm.binary_cross_entropy(X, targets), w), [X])
        finite_difference_check(lambda: nm.matmul(nm.cross_entropy_with_logits(X, classes), w), [X])
        with pytest.raises(nm.ShapeError, match="R targets"):
            nm.cross_entropy_with_logits(X, [1, 2])

    @pytest.mark.parametrize("shape, index", [
        ((6,), 2),
        ((6,), slice(1, 4)),
        ((6,), [0, 5, 5, 2]),
        ((5, 3), 4),
        ((5, 3), np.array([0, 4, 4, 1])),
    ], ids=["vector-int", "vector-slice", "vector-list", "matrix-int", "matrix-array"])
    def test_take(self, shape, index):
        """Forward is x.data[index]; the gradient is a numpy scatter-add of
        the upstream gradient, so a repeated index sums."""
        rng = np.random.default_rng(0)
        x = rand(rng, *shape)
        out = nm.take(x, index)
        assert np.array_equal(out.data, x.data[index])
        y = rng.normal(size=out.data.shape)
        x.zero_grad()
        nm.backward(nm.sum_(nm.mul(out, nm.Tensor(y))))
        ref = np.zeros(shape)
        np.add.at(ref, index, y)
        assert np.array_equal(x.grad, ref)

    @pytest.mark.parametrize("seed", range(3))
    def test_take_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        T = rand(rng, 5, 3)
        v = rand(rng, 6)

        def f():
            e = nm.take(T, [0, 4, 4])
            a = nm.sum_(e, axis=0)
            b = nm.take(e, 1)
            s = nm.take(v, slice(1, 4))
            return nm.add(
                nm.add(nm.take(nm.mul(a, b), 2), nm.sum_(nm.take(v, [0, 5, 5]))),
                nm.sum_(nm.mul(s, a)),
            )

        finite_difference_check(f, [T, v])

    def test_take_rejects_rank0(self):
        with pytest.raises(nm.ShapeError, match="vector or a matrix"):
            nm.take(nm.Tensor(1.5), 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_concat_stack_vector_mean(self, seed):
        rng = np.random.default_rng(seed)
        a = rand(rng, 3)
        b = rand(rng, 3)
        c = rand(rng, 2)

        def f():
            m = nm.stack0([a, b, nm.mul(a, b)])
            pooled = nm.sum_(m, axis=0)
            flat = nm.concat([pooled, c])
            scalars = nm.add(nm.add(nm.sum_(a), nm.sum_(c)), nm.take(flat, 0))
            return nm.add(nm.sum_(nm.mul(flat, flat)), scalars)

        finite_difference_check(f, [a, b, c])

    def test_broadcast_add_row_vector(self):
        rng = np.random.default_rng(1)
        M = rand(rng, 3, 4)
        b = rand(rng, 4)
        finite_difference_check(lambda: nm.sum_(nm.add(M, b)), [M, b])


class TestGRU:
    def test_zero_params_halve_hidden(self):
        rng = np.random.default_rng(0)
        x = nm.Tensor(rng.normal(size=(1, 4)))
        h = nm.Tensor(rng.normal(size=(1, 3)))
        zeros = (nm.Tensor(np.zeros((4, 9))), nm.Tensor(np.zeros((3, 9))),
                 nm.Tensor(np.zeros(9)))
        out = nm.gru_cell(x, h, zeros)
        assert np.allclose(out.data, 0.5 * h.data)

    def test_packed_blocks_match_separate_gates(self):
        """W, U and b hold the z, r, n gates in that order, each block drawn
        as its own weight tensor would be, in the order Wz, Uz, Wr, Ur, Wn,
        Un; the cell is the textbook GRU over those blocks."""
        params = nm.ParameterSet(3)
        W, U, b = params.gru("g", 4, 3)
        assert params.names() == ["g.U", "g.W", "g.b"]
        ref = nm.ParameterSet(3)
        blocks = {}
        for gate in "zrn":
            blocks[f"W{gate}"] = ref.add(f"W{gate}", (4, 3)).data
            blocks[f"U{gate}"] = ref.add(f"U{gate}", (3, 3)).data
        for k, gate in enumerate("zrn"):
            cols = slice(3 * k, 3 * k + 3)
            assert np.array_equal(W.data[:, cols], blocks[f"W{gate}"])
            assert np.array_equal(U.data[:, cols], blocks[f"U{gate}"])
        assert params.rng.random() == ref.rng.random()  # no extra draws

        rng = np.random.default_rng(0)
        b.data = rng.normal(size=9)
        bz, br, bn = b.data[:3], b.data[3:6], b.data[6:]
        x, h = rng.normal(size=4), rng.normal(size=3)

        def sigmoid(a):
            return 1.0 / (1.0 + np.exp(-a))

        z = sigmoid(x @ blocks["Wz"] + h @ blocks["Uz"] + bz)
        r = sigmoid(x @ blocks["Wr"] + h @ blocks["Ur"] + br)
        n = np.tanh(x @ blocks["Wn"] + r * (h @ blocks["Un"]) + bn)
        out = nm.gru_cell(nm.Tensor(x[None]), nm.Tensor(h[None]), (W, U, b))
        assert out.shape == (1, 3)
        assert np.allclose(out.data[0], (1 - z) * h + z * n, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        params = nm.ParameterSet(seed)
        gp = params.gru("g", 4, 3)
        x = rand(rng, 1, 4)
        h = rand(rng, 1, 3)
        y = nm.Tensor(rng.normal(size=(1, 3)))

        def f():
            h1 = nm.gru_cell(x, h, gp)
            h2 = nm.gru_cell(x, h1, gp)
            return nm.sum_(nm.mul(h2, y))

        finite_difference_check(f, [x, h] + [params[n] for n in params.names()])

    def test_empty_sequence_returns_h0(self):
        params = nm.ParameterSet(0)
        gp = params.gru("g", 4, 3)
        h0 = nm.Tensor(np.array([[1.0, -2.0, 3.0]]))
        assert nm.gru_sequence(nm.Tensor(np.zeros((0, 1, 4))), h0, gp) is h0

    def test_shape_mismatch_rejected(self):
        params = nm.ParameterSet(0)
        gp = params.gru("g", 4, 3)
        h = nm.Tensor(np.zeros((1, 3)))
        with pytest.raises(nm.ShapeError):  # X is a (T, in) matrix, not (T, B, in)
            nm.gru_sequence(nm.Tensor(np.zeros((2, 4))), h, gp)
        with pytest.raises(nm.ShapeError):  # h is a vector, not (B, H)
            nm.gru_sequence(nm.Tensor(np.zeros((2, 1, 4))), nm.Tensor(np.zeros(3)), gp)
        with pytest.raises(nm.ShapeError):  # two rows of X, one hidden
            nm.gru_sequence(nm.Tensor(np.zeros((2, 2, 4))), h, gp)
        with pytest.raises(nm.ShapeError):  # in-dim disagrees with W
            nm.gru_sequence(nm.Tensor(np.zeros((2, 1, 5))), h, gp)
        with pytest.raises(nm.ShapeError):  # hidden size disagrees with U
            nm.gru_sequence(nm.Tensor(np.zeros((2, 1, 4))), nm.Tensor(np.zeros((1, 4))), gp)
        with pytest.raises(nm.ShapeError):
            nm.gru_cell(nm.Tensor(np.zeros((1, 5))), h, gp)

    @staticmethod
    def reference_sequence(X, h, p):
        """The textbook per-token GRU composed from primitive tape nodes, in
        the kernel's order of operations: one X @ W + b for every token, then
        h + z * (n - h), which is (1 - z) * h + z * n."""
        W, U, b = p
        H = h.data.shape[0]
        XWb = nm.add(nm.matmul(X, W), b)

        def gate(k, pre):
            return nm.take(pre, slice(k * H, (k + 1) * H))

        for t in range(X.data.shape[0]):
            xW, hU = nm.take(XWb, t), nm.matmul(h, U)
            z = nm.sigmoid(nm.add(gate(0, xW), gate(0, hU)))
            r = nm.sigmoid(nm.add(gate(1, xW), gate(1, hU)))
            n = nm.tanh(nm.add(gate(2, xW), nm.mul(r, gate(2, hU))))
            h = nm.add(h, nm.mul(z, nm.sub(n, h)))
        return h

    @pytest.mark.parametrize("T", [1, 2, 7, 20])
    @pytest.mark.parametrize("seed", range(3))
    def test_sequence_matches_per_token_reference(self, T, seed):
        """A one-row batch: its output bitwise equal to the primitive-node
        GRU over the row's (T, in) sequence and hidden vector; gradients of
        X, h0, W, U and b equal to 1e-12 of each tensor's largest entry."""
        rng = np.random.default_rng(100 * T + seed)
        params = nm.ParameterSet(seed)
        gp = params.gru("g", 6, 5)
        gp[2].data = rng.normal(size=15)
        X = rand(rng, T, 6)
        h0 = rand(rng, 5)
        y = nm.Tensor(rng.normal(size=5))

        def run(fn, X, h0, y):
            out = fn(X, h0, gp)
            tensors = [X, h0, *gp]
            for t in tensors:
                t.zero_grad()
            nm.backward(nm.sum_(nm.mul(out, y)))
            return out.data, [t.grad.copy() for t in tensors]

        Xb = nm.Tensor(X.data[:, None], requires_grad=True)  # (T, 1, in)
        hb = nm.Tensor(h0.data[None], requires_grad=True)  # (1, H)
        out, grads = run(nm.gru_sequence, Xb, hb, nm.Tensor(y.data[None]))
        ref_out, ref_grads = run(self.reference_sequence, X, h0, y)
        out, grads[0], grads[1] = out[0], grads[0][:, 0], grads[1][0]
        assert np.array_equal(out, ref_out)
        for name, g, ref in zip(["X", "h0", "W", "U", "b"], grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max(), name

    @pytest.mark.parametrize("T", [1, 3])
    def test_sequence_gradients(self, T):
        rng = np.random.default_rng(T)
        params = nm.ParameterSet(T)
        gp = params.gru("g", 4, 3)
        gp[2].data = rng.normal(size=9)
        X = rand(rng, T, 1, 4)
        h0 = rand(rng, 1, 3)
        y = nm.Tensor(rng.normal(size=(1, 3)))
        finite_difference_check(
            lambda: nm.sum_(nm.mul(nm.gru_sequence(X, h0, gp), y)), [X, h0, *gp]
        )


    @staticmethod
    def batch(rng, lengths, T, n_in=4, H=3):
        """A padded (T, B, n_in) batch, its (B, H) hiddens, and a GRU with a
        non-zero bias."""
        params = nm.ParameterSet(len(lengths))
        gp = params.gru("g", n_in, H)
        gp[2].data = rng.normal(size=3 * H)
        X = rand(rng, T, len(lengths), n_in)
        h0 = rand(rng, len(lengths), H)
        return X, h0, gp

    @pytest.mark.parametrize("lengths", [[5, 2, 0, 5], [0, 3, 1], [4], [2, 2],
                                         [7 * b % 11 for b in range(32)]])
    def test_batch_equals_its_rows(self, lengths):
        """Each row of a batch with unequal lengths, zero included, equals
        that row run alone over its own steps, outputs and gradients within
        1e-12; the padding past a row's end gets zero gradient.  The last
        case is the learner pass's size: 32 rows, three of length 0."""
        rng = np.random.default_rng(sum(lengths))
        T = max(lengths) + 1  # padded past the longest row too
        X, h0, gp = self.batch(rng, lengths, T)
        y = rng.normal(size=(len(lengths), 3))
        out = nm.gru_sequence(X, h0, gp, lengths)
        for t in (X, h0, *gp):
            t.zero_grad()
        nm.backward(nm.sum_(nm.sum_(nm.mul(out, nm.Tensor(y)), axis=1)))
        batch_grads = [t.grad.copy() for t in (X, h0, *gp)]
        rows_out = []
        for t in gp:
            t.zero_grad()
        for b, n in enumerate(lengths):
            Xb = nm.Tensor(X.data[:n, b:b + 1].copy(), requires_grad=True)
            hb = nm.Tensor(h0.data[b:b + 1].copy(), requires_grad=True)
            ob = nm.gru_sequence(Xb, hb, gp)  # the row as a one-row batch
            rows_out.append(ob.data[0])
            if ob is hb:  # T = 0: h0 itself, so d/dh0 is y
                assert n == 0
                hb.grad = y[b:b + 1]
                Xb.grad = np.zeros((0, 1, 4))
            else:
                nm.backward(nm.sum_(nm.mul(ob, nm.Tensor(y[b:b + 1]))))
            assert np.abs(batch_grads[0][:n, b] - Xb.grad[:, 0]).max(initial=0) <= 1e-12
            assert not batch_grads[0][n:, b].any()
            assert np.abs(batch_grads[1][b] - hb.grad[0]).max() <= 1e-12
        assert np.abs(out.data - np.array(rows_out)).max() <= 1e-12
        for got, t in zip(batch_grads[2:], gp):
            assert np.abs(got - t.grad).max() <= 1e-12 * max(np.abs(t.grad).max(), 1)

    def test_batch_with_no_steps_returns_h0(self):
        X, h0, gp = self.batch(np.random.default_rng(0), [0, 0], 2)
        assert nm.gru_sequence(X, h0, gp, [0, 0]) is h0

    @pytest.mark.parametrize("lengths", [[3, 1, 0], [0, 2, 2]])
    def test_batch_gradients(self, lengths):
        rng = np.random.default_rng(len(lengths) + lengths[0])
        X, h0, gp = self.batch(rng, lengths, 3)
        y = nm.Tensor(rng.normal(size=(len(lengths), 3)))
        finite_difference_check(
            lambda: nm.sum_(nm.sum_(nm.mul(nm.gru_sequence(X, h0, gp, lengths), y),
                                    axis=0)),
            [X, h0, *gp],
        )

    def test_batch_lengths_must_fit(self):
        X, h0, gp = self.batch(np.random.default_rng(0), [1, 1], 2)
        for lengths in ([1], [3, 1], [-1, 1]):
            with pytest.raises(nm.ShapeError, match="lengths"):
                nm.gru_sequence(X, h0, gp, lengths)


class TestBatchOps:
    @pytest.mark.parametrize("seed", range(2))
    def test_attend_matches_its_definition_and_gradients(self, seed):
        rng = np.random.default_rng(seed)
        items = [rand(rng, 3, 4) for _ in range(3)]
        query = rand(rng, 3, 4)
        y = nm.Tensor(rng.normal(size=(3, 4)))
        out = nm.attend(items, query, 0.5)
        for r in range(3):
            K = np.array([t.data[r] for t in items])
            s = 0.5 * (K @ query.data[r])
            a = np.exp(s - s.max()) / np.exp(s - s.max()).sum()
            assert np.allclose(out.data[r], a @ K, rtol=0, atol=1e-14)
        finite_difference_check(
            lambda: nm.sum_(nm.sum_(nm.mul(nm.attend(items, query, 0.5), y), axis=0)),
            [*items, query],
        )

    def test_concat_matrices_take_pairs_and_stack_rows(self):
        rng = np.random.default_rng(3)
        A, B = rand(rng, 2, 3), rand(rng, 2, 2)
        assert nm.concat([A, B]).shape == (2, 5)
        picked = nm.take(nm.concat([A, B]), [0, 1, 1], [4, 0, 2])
        assert np.array_equal(picked.data, [B.data[0, 1], A.data[1, 0], A.data[1, 2]])
        with pytest.raises(nm.ShapeError, match="equal row counts"):
            nm.concat([A, rand(rng, 3, 2)])
        y = nm.Tensor(rng.normal(size=(2, 2, 5)))
        finite_difference_check(
            lambda: nm.add(
                nm.sum_(nm.take(nm.concat([A, B]), [1, 1, 0], [0, 3, 4])),
                nm.sum_(nm.sum_(nm.sum_(nm.mul(nm.stack0(
                    [nm.concat([A, B]), nm.concat([B, A])]), y), axis=0), axis=0))),
            [A, B],
        )

    def test_take_a_batch_of_rows(self):
        rng = np.random.default_rng(4)
        E = rand(rng, 5, 3)
        ids = np.array([[0, 4], [2, 0], [0, 0]])  # (T, B): a padded batch
        assert nm.take(E, ids).shape == (3, 2, 3)
        nm.backward(nm.sum_(nm.sum_(nm.sum_(nm.take(E, ids), axis=0), axis=0)))
        assert np.array_equal(E.grad[:, 0], [4.0, 0.0, 1.0, 0.0, 1.0])

    def test_no_grad_records_no_tape(self):
        rng = np.random.default_rng(5)
        w = rand(rng, 3)
        with nm.no_grad():
            inside = nm.tanh(nm.mul(w, w))
            with nm.no_grad():
                pass
            still = nm.add(w, w)
        after = nm.add(w, w)
        assert inside._parents == () and inside._backward is None
        assert still._parents == ()
        assert after._parents == (w, w)
        assert np.array_equal(inside.data, nm.tanh(nm.mul(w, w)).data)


class TestBackward:
    def test_linear_grad_is_input(self):
        rng = np.random.default_rng(0)
        w = rand(rng, 5)
        x = nm.Tensor(rng.normal(size=5))
        nm.backward(nm.sum_(nm.mul(w, x)))
        assert np.allclose(w.grad, x.data)

    def test_accumulation_doubles_without_zeroing(self):
        rng = np.random.default_rng(1)
        w = rand(rng, 4)
        x = nm.Tensor(rng.normal(size=4))
        loss = nm.sum_(nm.mul(w, x))
        nm.backward(loss)
        first = w.grad.copy()
        nm.backward(loss)
        assert np.array_equal(w.grad, 2 * first)

    def test_non_scalar_loss_rejected(self):
        w = nm.Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(nm.ShapeError):
            nm.backward(nm.mul(w, w))

    def test_bitwise_repeatable(self):
        rng = np.random.default_rng(2)
        w = rand(rng, 6)
        x = nm.Tensor(rng.normal(size=6))

        def grad_once():
            w.zero_grad()
            loss = nm.sum_(nm.mul(nm.tanh(w), x))
            nm.backward(loss)
            return w.grad.copy()

        g1, g2 = grad_once(), grad_once()
        assert np.array_equal(g1, g2)

    def test_diamond_graph_accumulates_once_per_path(self):
        w = nm.Tensor(np.array(2.0), requires_grad=True)
        y = nm.mul(w, w)  # dy/dw = 2w = 4
        z = nm.add(y, y)  # dz/dw = 8
        nm.backward(z)
        assert w.grad == pytest.approx(8.0)


class TestAdam:
    def test_quadratic_converges_like_reference(self):
        # independent scalar Adam simulation
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        w_ref, m, v = 1.0, 0.0, 0.0
        trajectory = []
        for t in range(1, 201):
            g = 2 * w_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            w_ref -= lr * m_hat / (np.sqrt(v_hat) + eps)
            trajectory.append(w_ref)

        params = nm.ParameterSet(0)
        w = params.add("w", (), "bias")
        w.data = np.asarray(1.0)
        ours = []
        for _ in range(200):
            params.zero_grad()
            nm.backward(nm.mul(w, w))
            nm.adam_step(params, lr=lr, betas=(b1, b2), eps=eps)
            ours.append(w.item())
        assert np.allclose(ours, trajectory, atol=1e-12)
        assert abs(w.item()) < 1e-2

    def test_grad_clip_scales_before_update(self):
        params = nm.ParameterSet(0)
        w = params.add("w", (2,), "bias")
        w.grad = np.array([3.0, 4.0])  # norm 5
        norm = nm.adam_step(params, lr=0.0, grad_clip=1.0)
        assert norm == pytest.approx(5.0)


class TestParameterSet:
    def test_initialization_bounds_and_bias_zero(self):
        params = nm.ParameterSet(3)
        W = params.add("W", (9, 4))
        b = params.add("b", (4,), "bias")
        bound = 1.0 / np.sqrt(9)
        assert np.all(np.abs(W.data) <= bound)
        assert np.all(b.data == 0.0)

    def test_duplicate_name_rejected(self):
        params = nm.ParameterSet(0)
        params.add("x", (2,))
        with pytest.raises(ValueError):
            params.add("x", (2,))

    def test_seeded_init_reproducible(self):
        a = nm.ParameterSet(11).add("W", (5, 5))
        b = nm.ParameterSet(11).add("W", (5, 5))
        assert np.array_equal(a.data, b.data)


class TestCheckpoint:
    def test_exact_round_trip(self, tmp_path):
        params = nm.ParameterSet(5)
        params.add("enc.W", (7, 3))
        params.add("enc.b", (3,), "bias")
        params.add("scalar", (), "bias")
        path = tmp_path / "ckpt.bin"
        nm.save_checkpoint(params, path)
        loaded = nm.load_checkpoint(path)
        assert loaded.names() == params.names()
        for name in params.names():
            assert np.array_equal(loaded[name].data, params[name].data)

    def test_corrupt_file_rejected(self, tmp_path):
        params = nm.ParameterSet(0)
        params.add("w", (4,))
        path = tmp_path / "ckpt.bin"
        nm.save_checkpoint(params, path)
        blob = bytearray(path.read_bytes())
        blob[10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(nm.CheckpointError):
            nm.load_checkpoint(path)

    def test_shape_larger_than_payload_rejected(self, tmp_path):
        """A valid CRC over a shape header that claims more data than the
        blob holds: one tensor of shape (4,) with 16 payload bytes."""
        body = struct.pack("<I", 1) + struct.pack("<H", 1) + b"w"
        body += struct.pack("<B", 1) + struct.pack("<I", 4) + bytes(16)
        blob = nm.CHECKPOINT_MAGIC + struct.pack("<H", nm.CHECKPOINT_VERSION) + body
        path = tmp_path / "short.bin"
        path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
        with pytest.raises(nm.CheckpointError, match="truncated checkpoint"):
            nm.load_checkpoint(path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"junk")
        with pytest.raises(nm.CheckpointError):
            nm.load_checkpoint(path)
