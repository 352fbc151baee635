"""Layer primitives against independent references and finite differences."""

import numpy as np
import pytest
import scipy.special

from kgqa import selfcheck
from kgqa.model import layers
from kgqa.model.gradcheck import check_gradients
from kgqa.model.layers import (BiLSTM, GCNLayer, Linear, MLP, glorot,
                               normalized_adjacency, scatter_rows, sigmoid,
                               softmax, softmax_backward)
from kgqa.selfcheck import packed_lstm_suite, scatter_sort_suite

from conftest import mutant


def test_sigmoid_matches_scipy_and_is_stable():
    x = np.array([-1000.0, -10.0, 0.0, 10.0, 1000.0])
    got = sigmoid(x)
    assert np.allclose(got, scipy.special.expit(x), atol=1e-15)
    assert np.isfinite(got).all()


def test_softmax_matches_scipy_and_is_stable():
    x = np.array([[1e3, -1e3, 0.0], [5.0, 5.0, 5.0]])
    got = softmax(x)
    assert np.allclose(got, scipy.special.softmax(x, axis=-1), atol=1e-15)
    assert np.allclose(got.sum(axis=-1), 1.0)
    assert np.isfinite(got).all()


def test_softmax_backward_matches_finite_differences():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(5)
    dy = rng.standard_normal(5)
    y = softmax(x)
    got = softmax_backward(y, dy)
    eps = 1e-6
    for i in range(5):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        num = (softmax(xp) @ dy - softmax(xm) @ dy) / (2 * eps)
        assert got[i] == pytest.approx(num, abs=1e-8)


def test_linear_forward_is_affine():
    rng = np.random.default_rng(1)
    lin = Linear(rng, 4, 3)
    x = rng.standard_normal((7, 4))
    y, cache = lin.forward(x)
    assert np.allclose(y, x @ lin.W + lin.b)
    lin2 = Linear(rng, 4, 3)
    lin2.W[:] = 0
    lin2.b[:] = np.arange(3.0)
    y2, _ = lin2.forward(x)
    assert np.allclose(y2, np.arange(3.0))


def test_linear_gradients():
    rng = np.random.default_rng(2)
    lin = Linear(rng, 4, 3)
    x = rng.standard_normal((5, 4))
    proj = rng.standard_normal((5, 3))

    def loss_fn():
        y, _ = lin.forward(x)
        return float((y * proj).sum())

    lin.zero_grad()
    y, cache = lin.forward(x)
    dx = lin.backward(proj, cache)
    analytic = {name: g.copy() for name, g in lin.grads().items()}
    errs = check_gradients(loss_fn, lin.params(), analytic, step=1e-6)
    assert max(errs.values()) < 1e-6
    eps = 1e-6
    for idx in [(0, 0), (2, 3), (4, 1)]:
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        num = ((xp @ lin.W + lin.b) * proj).sum() - ((xm @ lin.W + lin.b) * proj).sum()
        assert dx[idx] == pytest.approx(num / (2 * eps), abs=1e-7)


def test_mlp_is_tanh_chain():
    rng = np.random.default_rng(3)
    mlp = MLP(rng, (4, 6, 2))
    x = rng.standard_normal((3, 4))
    y, _ = mlp.forward(x)
    h = np.tanh(x @ mlp.layers[0].W + mlp.layers[0].b)
    want = h @ mlp.layers[1].W + mlp.layers[1].b
    assert np.allclose(y, want, atol=1e-14)


def test_mlp_gradients():
    rng = np.random.default_rng(4)
    mlp = MLP(rng, (3, 5, 2))
    x = rng.standard_normal((4, 3))
    proj = rng.standard_normal((4, 2))

    def loss_fn():
        y, _ = mlp.forward(x)
        return float((y * proj).sum())

    mlp.zero_grad()
    y, cache = mlp.forward(x)
    mlp.backward(proj, cache)
    analytic = {name: g.copy() for name, g in mlp.grads().items()}
    errs = check_gradients(loss_fn, mlp.params(), analytic)
    assert max(errs.values()) < 1e-6


def reference_lstm(params, x):
    """Independent per-step loop; gate order i, f, g, o."""
    Wx, Wh, b = params
    B, T, d_in = x.shape
    H = Wh.shape[0]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    ys = []
    for t in range(T):
        z = x[:, t] @ Wx + h @ Wh + b
        i = scipy.special.expit(z[:, :H])
        f = scipy.special.expit(z[:, H:2 * H])
        g = np.tanh(z[:, 2 * H:3 * H])
        o = scipy.special.expit(z[:, 3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
        ys.append(h)
    return np.stack(ys, axis=1)


def params_of(lstm):
    return lstm.Wx, lstm.Wh, lstm.b


RAGGED_LENGTHS = [[], [1], [3, 1, 5, 1, 2, 4, 3], [2, 2, 2], [5, 4, 3, 2, 1]]


def ragged_rows(rng, lengths, d_in):
    offsets = np.cumsum([0] + lengths)
    return rng.standard_normal((int(offsets[-1]), d_in)), offsets


def test_lstm_forward_matches_reference():
    # each sequence's forward half at its last step, and reverse half at its
    # first, are the final states of the reference loop over it and over it
    # reversed
    rng = np.random.default_rng(5)
    bi = BiLSTM(rng, d_in=3, d_hidden=4)
    x, offsets = ragged_rows(rng, [6, 2, 6, 1], 3)
    ends, _ = bi.forward(x, np.arange(len(x)), offsets)
    for k, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        fwd = reference_lstm(params_of(bi.fwd), x[None, lo:hi])[0]
        bwd = reference_lstm(params_of(bi.bwd), x[None, lo:hi][:, ::-1])[0]
        assert np.max(np.abs(ends[k, 1, :4] - fwd[-1])) <= 1e-12
        assert np.max(np.abs(ends[k, 0, 4:] - bwd[-1])) <= 1e-12


def test_lstm_zero_weights_zero_output():
    rng = np.random.default_rng(6)
    bi = BiLSTM(rng, d_in=3, d_hidden=4)
    for p in bi.params().values():
        p[:] = 0
    ends, _ = bi.forward(np.ones((8, 3)), np.arange(8), np.array([0, 5, 8]))
    assert np.allclose(ends, 0.0)


def test_lstm_gradients():
    # a batch of equal lengths: every step runs every sequence
    rng = np.random.default_rng(7)
    bi = BiLSTM(rng, d_in=3, d_hidden=4)
    x, offsets = ragged_rows(rng, [5, 5], 3)
    proj = rng.standard_normal((2, 2, 8))

    def loss_fn():
        return float((bi.forward(x, np.arange(len(x)), offsets)[0] * proj).sum())

    bi.zero_grad()
    _, cache = bi.forward(x, np.arange(len(x)), offsets)
    dx = bi.backward(proj, cache)
    analytic = {name: g.copy() for name, g in bi.grads().items()}
    errs = check_gradients(loss_fn, bi.params(), analytic)
    assert max(errs.values()) < 1e-5
    eps = 1e-6

    def reference_loss(x):
        total = 0.0
        for k, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
            fwd = reference_lstm(params_of(bi.fwd), x[None, lo:hi])[0]
            bwd = reference_lstm(params_of(bi.bwd), x[None, lo:hi][:, ::-1])[0][::-1]
            y = np.concatenate([fwd, bwd], axis=1)
            total += (y[0] * proj[k, 0]).sum() + (y[-1] * proj[k, 1]).sum()
        return total

    for idx in [(0, 0), (9, 2), (2, 1)]:
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        num = (reference_loss(xp) - reference_loss(xm)) / (2 * eps)
        assert dx[idx] == pytest.approx(num, abs=1e-6)


def test_bilstm_halves_are_directional():
    rng = np.random.default_rng(8)
    bi = BiLSTM(rng, d_in=3, d_hidden=4)
    x = rng.standard_normal((5, 3))
    ends, _ = bi.forward(x, np.arange(5), np.array([0, 5]))
    fwd = reference_lstm(params_of(bi.fwd), x[None])[0]
    bwd = reference_lstm(params_of(bi.bwd), x[None, ::-1])[0, ::-1]
    assert np.allclose(ends[0, :, :4], fwd[[0, -1]], atol=1e-12)
    assert np.allclose(ends[0, :, 4:], bwd[[0, -1]], atol=1e-12)


def test_bilstm_gradients():
    rng = np.random.default_rng(9)
    bi = BiLSTM(rng, d_in=2, d_hidden=3)
    x, offsets = ragged_rows(rng, [4, 1, 3, 4], 2)
    proj = rng.standard_normal((4, 2, 6))

    def loss_fn():
        return float((bi.forward(x, np.arange(len(x)), offsets)[0] * proj).sum())

    bi.zero_grad()
    _, cache = bi.forward(x, np.arange(len(x)), offsets)
    bi.backward(proj, cache)
    analytic = {name: g.copy() for name, g in bi.grads().items()}
    errs = check_gradients(loss_fn, bi.params(), analytic)
    assert max(errs.values()) < 1e-5


@pytest.mark.parametrize("lengths", RAGGED_LENGTHS)
def test_ragged_ends_equal_lone_runs_one_call_per_length(lengths, monkeypatch):
    # the packed batch gives each sequence the ends of its run alone and of
    # one run per distinct length, and steps once per step of its longest
    rng = np.random.default_rng(11)
    bi = BiLSTM(rng, d_in=3, d_hidden=4)
    x, offsets = ragged_rows(rng, lengths, 3)
    lone = [bi.forward(x[lo:hi], np.arange(hi - lo), np.array([0, hi - lo]))[0][0]
            for lo, hi in zip(offsets, offsets[1:])]
    by_length = np.zeros((len(lengths), 2, 8))
    for length in set(lengths):
        index = np.flatnonzero(np.array(lengths) == length)
        pos = offsets[index, None] + np.arange(length)
        by_length[index] = bi.forward(x, pos.ravel(), length * np.arange(len(index) + 1))[0]
    calls = []
    real = layers.activate_gates

    def counting(z, *args):
        calls.append(len(z))
        return real(z, *args)

    monkeypatch.setattr(layers, "activate_gates", counting)
    ends, _ = bi.forward(x, np.arange(len(x)), offsets)
    assert ends.shape == (len(lengths), 2, 8)
    assert len(calls) == 2 * max(lengths, default=0)  # one per step and direction
    assert sum(calls) == 2 * sum(lengths)  # each step computes only its running rows
    for k, y in enumerate(lone):
        assert np.max(np.abs(ends[k] - y)) <= 1e-12
    assert np.max(np.abs(ends - by_length), initial=0.0) <= 1e-12


@pytest.mark.parametrize("lengths", RAGGED_LENGTHS)
def test_ragged_backward_matches_finite_differences(lengths):
    rng = np.random.default_rng(12)
    bi = BiLSTM(rng, d_in=2, d_hidden=3)
    x, offsets = ragged_rows(rng, lengths, 2)
    proj = rng.standard_normal((len(lengths), 2, 6))

    def loss_fn():
        ends, _ = bi.forward(x, np.arange(len(x)), offsets)
        return float((ends * proj).sum())

    bi.zero_grad()
    _, cache = bi.forward(x, np.arange(len(x)), offsets)
    dx = bi.backward(proj, cache)
    assert dx.shape == x.shape
    tensors = {**bi.params(), "x": x}
    analytic = {**{name: g.copy() for name, g in bi.grads().items()}, "x": dx}
    errs = check_gradients(loss_fn, tensors, analytic)
    assert max(errs.values()) < 1e-5


def test_a_sequence_without_steps_is_refused():
    bi = BiLSTM(np.random.default_rng(0), d_in=2, d_hidden=3)
    with pytest.raises(ValueError, match="at least one step"):
        bi.forward(np.zeros((2, 2)), np.arange(2), np.array([0, 2, 2]))


def test_packed_lstm_oracle_passes_and_catches_a_whole_batch_reversal(monkeypatch):
    assert packed_lstm_suite(n_cases=20).passed  # the --quick size
    # the reverse direction reads the whole batch reversed, not each
    # sequence, so sequence k reads another's rows
    monkeypatch.setattr(layers, "pack", mutant(layers.pack, "rev=offsets[seq + 1] - 1 - step",
                                               "rev=offsets[-1] - 1 - offsets[seq] - step"))
    result = packed_lstm_suite(n_cases=20)
    assert result.name == "packed-lstm"
    assert not result.passed, result.detail


def test_packed_lstm_oracle_catches_a_table_gradient_that_keeps_one_repeat(monkeypatch):
    # dL/d(table) assigned per table row instead of summed: a row read by
    # several steps keeps only one step's gradient
    monkeypatch.setattr(BiLSTM, "_back", mutant(
        BiLSTM._back, "D_table = scatter_rows(len(table), rows, D)",
        "D_table = np.zeros((len(table), 4 * H)); D_table[rows] = D"))
    result = packed_lstm_suite(n_cases=20)
    assert result.name == "packed-lstm"
    assert not result.passed, result.detail
    assert "d_table" in result.detail or "Wx" in result.detail


def test_normalized_adjacency_rows():
    adj = normalized_adjacency(4, [(0, 1), (0, 2), (3, 3)])
    assert np.allclose(adj[0], [0, 0.5, 0.5, 0])
    assert np.allclose(adj[1], [1, 0, 0, 0])
    assert np.allclose(adj[2], [1, 0, 0, 0])
    sums = adj.sum(axis=1)
    assert set(np.round(sums, 12)) <= {0.0, 1.0}


def test_gcn_identity_weights_hand_example():
    rng = np.random.default_rng(10)
    layer = GCNLayer(rng, 2, 2)
    layer.W_self[:] = np.eye(2)
    layer.W_nbr[:] = np.eye(2)
    h = np.array([[1.0, 0.0], [0.0, 1.0]])
    adj = normalized_adjacency(2, [(0, 1)])
    out, _ = layer.forward(h, adj)
    assert np.allclose(out, [[1, 1], [1, 1]])


def test_gcn_isolated_node_zero_self_weight():
    rng = np.random.default_rng(11)
    layer = GCNLayer(rng, 3, 2)
    layer.W_self[:] = 0
    h = np.ones((1, 3))
    adj = normalized_adjacency(1, [])
    out, _ = layer.forward(h, adj)
    assert np.allclose(out, 0.0)


def test_gcn_permutation_equivariance():
    rng = np.random.default_rng(12)
    layer = GCNLayer(rng, 3, 3)
    h = rng.standard_normal((5, 3))
    edges = [(0, 1), (1, 2), (3, 4), (0, 4)]
    out, _ = layer.forward(h, normalized_adjacency(5, edges))
    perm = rng.permutation(5)
    inv = np.argsort(perm)
    p_edges = [(int(inv[a]), int(inv[b])) for a, b in edges]
    p_out, _ = layer.forward(h[perm], normalized_adjacency(5, p_edges))
    assert np.allclose(p_out, out[perm], atol=1e-12)


def test_gcn_gradients():
    rng = np.random.default_rng(13)
    layer = GCNLayer(rng, 3, 2)
    h = rng.standard_normal((4, 3))
    adj = normalized_adjacency(4, [(0, 1), (2, 3), (1, 2)])
    proj = rng.standard_normal((4, 2))

    def loss_fn():
        y, _ = layer.forward(h, adj)
        return float((y * proj).sum())

    layer.zero_grad()
    y, cache = layer.forward(h, adj)
    dh = layer.backward(proj, cache)
    analytic = {name: g.copy() for name, g in layer.grads().items()}
    errs = check_gradients(loss_fn, layer.params(), analytic)
    assert max(errs.values()) < 1e-6
    eps = 1e-6
    for idx in [(0, 0), (3, 2), (2, 1)]:
        hp, hm = h.copy(), h.copy()
        hp[idx] += eps
        hm[idx] -= eps
        fp = (layer.forward(hp, adj)[0] * proj).sum()
        fm = (layer.forward(hm, adj)[0] * proj).sum()
        assert dh[idx] == pytest.approx((fp - fm) / (2 * eps), abs=1e-6)


def test_glorot_shape_and_scale():
    rng = np.random.default_rng(14)
    w = glorot(rng, 50, 80)
    assert w.shape == (50, 80)
    limit = np.sqrt(6.0 / 130.0)
    assert np.abs(w).max() <= limit + 1e-12


def sorted_reduceat_scatter(n, index, values):
    """The sorted ``np.add.reduceat`` scatter once tried for TransE: it adds
    each row's terms in another grouping, so it is not bit-identical."""
    out = np.zeros((n, values.shape[1]))
    if len(index):
        order = np.argsort(index, kind="stable")
        idx = index[order]
        starts = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
        out[idx[starts]] = np.add.reduceat(values[order], starts, axis=0)
    return out


def test_scatter_rows_equals_add_at_byte_for_byte():
    rng = np.random.default_rng(0)
    index = rng.integers(0, 50, size=2000)  # repeated and unsorted
    values = rng.standard_normal((2000, 7)) * 10.0 ** rng.integers(-8, 9, (2000, 1))
    want = np.zeros((60, 7))  # rows 50-59 take nothing
    np.add.at(want, index, values)
    assert scatter_rows(60, index, values).tobytes() == want.tobytes()
    assert scatter_rows(3, np.zeros(0, np.int64), np.zeros((0, 4))).tobytes() \
        == np.zeros((3, 4)).tobytes()


def test_scatter_and_sort_oracle_passes_and_catches_a_reordered_sum(monkeypatch):
    assert scatter_sort_suite(n_cases=50).passed
    monkeypatch.setattr(selfcheck, "scatter_rows", sorted_reduceat_scatter)
    result = scatter_sort_suite(n_cases=50)
    assert not result.passed
    assert "differs from np.add.at" in result.detail
