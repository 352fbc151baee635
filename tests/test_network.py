"""Scoring-network behavior: encodings, attention, losses, gradients."""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given
from hypothesis import strategies as st

from kgqa.config import RunConfig
from kgqa.model.gradcheck import check_gradients
from kgqa.model.network import (Instance, PathAttentionScorer, bce_loss, fallback_rows,
                                fallback_vector, instance_from_schema_graph)
from kgqa.paths import SchemaGraph, build_schema_graph
from kgqa.selfcheck import CHECK_CONFIG, CHECK_D_S, random_instance, random_kg

from conftest import make_chain_kg

CFG = RunConfig(kge_dim=6, gcn_dims="5,4", lstm_hidden=4, d_t=6, t_hidden=7,
                score_hidden=5)
D_S = 8
NO_FALLBACK = np.zeros((0, CFG.d_path))  # the fallback rows when every pair has a path


def fresh(seed=0, config=CFG, **kw):
    rng = np.random.default_rng(seed)
    inst, s, node_init, rel_emb, fallback = random_instance(rng, config, D_S, **kw)
    net = PathAttentionScorer(config, D_S, np.random.default_rng(seed + 1))
    return net, inst, s[None], node_init, rel_emb, fallback


def one_pair_instance(config, paths, n_nodes=3, label=None):
    # concept 0 to concept 1; concept ids equal node rows
    sg = SchemaGraph(cq=[0], ca=[1], nodes=list(range(n_nodes)), edges=[(0, 0, 1)],
                     paths={(0, 0): paths})
    return instance_from_schema_graph(sg, "x", 0, label=label)


def single_path_instance(config, rel=0, sign=1.0, n_nodes=3):
    path = {"start": 0, "steps": [[rel, sign < 0, 1]]}
    return one_pair_instance(config, [path], n_nodes=n_nodes, label=1)


def test_zero_lstm_weights_give_zero_path_vectors():
    net, inst, s, node_init, rel_emb, fb = fresh(seed=2, allow_zero_paths=False)
    for name, p in net.params().items():
        if name.startswith("path_lstm."):
            p[:] = 0
    trace = net.forward(inst, s, node_init, rel_emb, fb)
    assert np.allclose(trace.V, 0.0)


def test_single_step_path_duplicates_its_only_position():
    rng = np.random.default_rng(3)
    inst = single_path_instance(CFG)
    net = PathAttentionScorer(CFG, D_S, rng)
    s = rng.standard_normal((1, D_S))
    node_init = rng.standard_normal((3, CFG.kge_dim))
    rel_emb = rng.standard_normal((2, CFG.kge_dim))
    trace = net.forward(inst, s, node_init, rel_emb, NO_FALLBACK)
    v = trace.V[0]
    H2 = 2 * CFG.lstm_hidden
    assert np.allclose(v[:H2], v[H2:])


def test_reversed_step_changes_the_path_vector():
    rng = np.random.default_rng(4)
    net = PathAttentionScorer(CFG, D_S, rng)
    s = rng.standard_normal((1, D_S))
    node_init = rng.standard_normal((3, CFG.kge_dim))
    rel_emb = rng.standard_normal((2, CFG.kge_dim))
    fwd = net.forward(single_path_instance(CFG, sign=1.0), s, node_init, rel_emb,
                      NO_FALLBACK)
    rev = net.forward(single_path_instance(CFG, sign=-1.0), s, node_init, rel_emb,
                      NO_FALLBACK)
    assert not np.allclose(fwd.V[0], rev.V[0])
    assert abs(fwd.score[0] - rev.score[0]) > 0


def test_path_attention_off_means_plain_mean():
    cfg = replace(CFG, path_attention=False)
    net, inst, s, node_init, rel_emb, fb = fresh(seed=5, config=cfg,
                                                 allow_zero_paths=False)
    trace = net.forward(inst, s, node_init, rel_emb, fb)
    for pi in range(len(inst.q_rows)):
        vecs = trace.V[inst.owner == pi]
        if len(vecs):
            assert np.allclose(trace.R_hat[pi], vecs.mean(axis=0), atol=1e-12)


def test_mean_degeneracy_one_and_two_identical_paths():
    # one path: R equals that path vector; two equal vectors: R equals them
    rng = np.random.default_rng(6)
    net = PathAttentionScorer(CFG, D_S, rng)
    net.W1[:] = 0
    s = rng.standard_normal((1, D_S))
    node_init = rng.standard_normal((3, CFG.kge_dim))
    rel_emb = rng.standard_normal((2, CFG.kge_dim))
    inst = single_path_instance(CFG)
    trace = net.forward(inst, s, node_init, rel_emb, NO_FALLBACK)
    assert np.allclose(trace.R_hat[0], trace.V[0], atol=1e-12)
    path = {"start": 0, "steps": [[0, False, 1]]}
    inst2 = one_pair_instance(CFG, [path, path])
    trace2 = net.forward(inst2, s, node_init, rel_emb, NO_FALLBACK)
    assert np.allclose(trace2.R_hat[0], trace2.V[0], atol=1e-12)


def test_statement_mlp_zero_weights_bias_only():
    rng = np.random.default_rng(7)
    net = PathAttentionScorer(CFG, D_S, rng)
    for name, p in net.params().items():
        if name.startswith("t_mlp."):
            p[:] = 0
    bias = net.t_mlp.layers[-1].b
    bias[:] = np.arange(CFG.d_t, dtype=float)
    inst = single_path_instance(CFG)
    s = rng.standard_normal((1, D_S))
    trace = net.forward(inst, s, rng.standard_normal((3, CFG.kge_dim)),
                        rng.standard_normal((2, CFG.kge_dim)), NO_FALLBACK)
    assert trace.T.shape == (1, CFG.d_t)
    assert np.allclose(trace.T[0], np.arange(CFG.d_t, dtype=float))


def test_zero_score_mlp_gives_half():
    net, inst, s, node_init, rel_emb, fb = fresh(seed=8)
    for name, p in net.params().items():
        if name.startswith("score_mlp."):
            p[:] = 0
    trace = net.forward(inst, s, node_init, rel_emb, fb)
    assert trace.raw[0] == 0.0
    assert trace.score[0] == pytest.approx(0.5, abs=1e-15)


def test_score_strictly_inside_unit_interval():
    for seed in range(6):
        net, inst, s, node_init, rel_emb, fb = fresh(seed=seed)
        trace = net.forward(inst, s, node_init, rel_emb * 50, fb)
        assert 0.0 < trace.score[0] < 1.0


def test_w1_gradient_zero_when_every_pair_has_one_path():
    net, inst, s, node_init, rel_emb, fb = fresh(seed=9, max_paths=1,
                                                 allow_zero_paths=False)
    assert np.all(np.bincount(inst.owner, minlength=len(inst.q_rows)) == 1)
    trace = net.forward(inst, s, node_init, rel_emb, fb)
    net.zero_grad()
    net.backward(trace, np.ones(1))
    assert np.allclose(net.grads()["W1"], 0.0)


def test_doubling_loss_grad_doubles_every_gradient():
    net, inst, s, node_init, rel_emb, fb = fresh(seed=10)
    trace = net.forward(inst, s, node_init, rel_emb, fb)
    net.zero_grad()
    g1_in = net.backward(trace, np.ones(1))
    g1 = {k: v.copy() for k, v in net.grads().items()}
    net.zero_grad()
    g2_in = net.backward(trace, np.full(1, 2.0))
    g2 = net.grads()
    for k in g1:
        assert np.allclose(2.0 * g1[k], g2[k], atol=1e-12)
    assert np.allclose(2.0 * g1_in.ds, g2_in.ds, atol=1e-12)
    assert np.allclose(2.0 * g1_in.d_node_init, g2_in.d_node_init, atol=1e-12)
    assert np.allclose(2.0 * g1_in.d_rel_emb, g2_in.d_rel_emb, atol=1e-12)


@pytest.mark.parametrize("rows,width", [(0, CFG.d_path), (2, CFG.d_path),
                                        (1, CFG.d_path - 1)],
                         ids=["no-row", "extra-row", "narrow-row"])
def test_forward_rejects_fallback_rows_of_the_wrong_shape(rows, width):
    # one pair with a path and one without: exactly one row of width d_path
    net = PathAttentionScorer(CFG, D_S, np.random.default_rng(11))
    path = {"start": 0, "steps": [[0, False, 1]]}
    sg = SchemaGraph(cq=[0], ca=[1, 2], nodes=[0, 1, 2], edges=[(0, 0, 1)],
                     paths={(0, 0): [path], (0, 1): []})
    inst = instance_from_schema_graph(sg, "x", 0)
    args = (inst, np.zeros((1, D_S)), np.zeros((3, CFG.kge_dim)), np.zeros((1, CFG.kge_dim)))
    assert fallback_rows([inst], CFG.d_path, CFG.seed).shape == (1, CFG.d_path)
    net.forward(*args, np.zeros((1, CFG.d_path)))
    with pytest.raises(ValueError, match=re.escape(
            f"fallback rows shape {(rows, width)}, expected {(1, CFG.d_path)}")):
        net.forward(*args, np.zeros((rows, width)))


@pytest.mark.parametrize("path_attention", [True, False])
def test_instance_without_any_path_scores_and_backpropagates(path_attention):
    # the ungrounded anchor form: one pair, no paths anywhere (K = 0)
    cfg = replace(CHECK_CONFIG, path_attention=path_attention)
    rng = np.random.default_rng(12)
    net = PathAttentionScorer(cfg, CHECK_D_S, rng)
    inst = instance_from_schema_graph(None, "x", 0, label=1)
    s = rng.standard_normal((1, CHECK_D_S))
    node_init = rng.standard_normal((1, cfg.kge_dim))
    rel_emb = rng.standard_normal((3, cfg.kge_dim))
    fb = fallback_rows([inst], cfg.d_path, 0)
    trace = net.forward(inst, s, node_init, rel_emb, fb)
    assert trace.V.shape == (0, cfg.d_path)
    assert trace.alpha.shape == (1, 0)
    assert np.array_equal(trace.R_hat[0], fb[0])
    assert 0.0 < trace.score[0] < 1.0

    def loss_fn():
        return bce_loss(net.forward(inst, s, node_init, rel_emb, fb).raw, 1)[0]

    net.zero_grad()
    in_grads = net.backward(trace, bce_loss(trace.raw, 1)[1])
    assert np.all(in_grads.d_rel_emb == 0.0)
    assert np.allclose(net.grads()["W1"], 0.0)
    tensors = {f"net.{k}": v for k, v in net.params().items()}
    tensors.update(s=s, node_init=node_init)
    analytic = {f"net.{k}": v for k, v in net.grads().items()}
    analytic.update(s=in_grads.ds, node_init=in_grads.d_node_init)
    report = check_gradients(loss_fn, tensors, analytic)
    assert max(report.values()) < 1e-4, report


def test_concat_shifts_each_part_into_its_own_block():
    rng = np.random.default_rng(13)
    parts = [random_instance(rng, CFG, D_S)[0] for _ in range(3)]
    parts.insert(1, instance_from_schema_graph(None, "x", 1))
    union = Instance.concat(parts)
    rows = np.cumsum([0] + [p.n_nodes for p in parts])
    pairs = np.cumsum([0] + [len(p.q_rows) for p in parts])
    paths = np.cumsum([0] + [len(p.owner) for p in parts])
    steps = np.cumsum([0] + [len(p.heads) for p in parts])
    assert union.pair_bounds.tolist() == pairs.tolist()
    assert union.pair_cand.tolist() == np.repeat(np.arange(4), np.diff(pairs)).tolist()
    assert union.node_ids.tolist() == sum((p.node_ids.tolist() for p in parts), [])
    assert union.und_edges == [(a + o, b + o) for p, o in zip(parts, rows)
                               for a, b in p.und_edges]
    for g, part in enumerate(parts):
        mine = slice(pairs[g], pairs[g + 1])
        assert union.q_rows[mine].tolist() == (part.q_rows + rows[g]).tolist()
        assert union.a_rows[mine].tolist() == (part.a_rows + rows[g]).tolist()
        assert union.owner[paths[g]:paths[g + 1]].tolist() == (part.owner + pairs[g]).tolist()
        assert union.offsets[paths[g]:paths[g + 1] + 1].tolist() == \
            (part.offsets + steps[g]).tolist()
        mine = slice(steps[g], steps[g + 1])
        assert union.heads[mine].tolist() == (part.heads + rows[g]).tolist()
        assert union.tails[mine].tolist() == (part.tails + rows[g]).tolist()
        assert union.rels[mine].tolist() == part.rels.tolist()
        assert union.signs[mine].tolist() == part.signs.tolist()
    # the union's pathless pairs are the parts', and take the parts' rows
    pathless = np.bincount(union.owner, minlength=pairs[-1]) == 0
    assert pathless.tolist() == sum(
        ((np.bincount(p.owner, minlength=len(p.q_rows)) == 0).tolist() for p in parts), [])
    rows_of_parts = [fallback_rows([p], CFG.d_path, 0) for p in parts]
    assert np.array_equal(fallback_rows(parts, CFG.d_path, 0), np.concatenate(rows_of_parts))
    assert len(rows_of_parts[1]) == 1
    assert pathless.sum() == sum(map(len, rows_of_parts))
    assert Instance.concat(parts[:1]) is parts[0]


def test_one_pass_over_candidates_equals_one_pass_each():
    from kgqa.selfcheck import batch_suite
    result = batch_suite(seed=0, n_questions=16)
    assert result.passed, result.detail


def test_bce_loss_over_candidates_sums_scalar_losses():
    raws = np.array([-30.0, -2.0, 0.0, 0.7, 25.0])
    labels = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    loss, grad = bce_loss(raws, labels)
    parts = [bce_loss(float(r), int(y)) for r, y in zip(raws, labels)]
    assert loss == pytest.approx(sum(p[0] for p in parts), rel=1e-12, abs=1e-12)
    assert grad.shape == raws.shape
    assert np.allclose(grad, [p[1] for p in parts], rtol=0, atol=1e-15)


def test_bce_loss_matches_reference_and_gradient():
    for raw in (-30.0, -2.0, 0.0, 0.7, 25.0):
        for label in (0, 1):
            loss, grad = bce_loss(raw, label)
            want = -scipy.special.log_expit(raw) if label == 1 \
                else -scipy.special.log_expit(-raw)
            assert loss == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert grad == pytest.approx(scipy.special.expit(raw) - label,
                                         rel=1e-12, abs=1e-12)
            eps = 1e-6
            lp, _ = bce_loss(raw + eps, label)
            lm, _ = bce_loss(raw - eps, label)
            assert grad == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)


def test_fallback_vector_deterministic_and_keyed():
    a = fallback_vector(16, 0, "ex", 1, 5, 9)
    b = fallback_vector(16, 0, "ex", 1, 5, 9)
    c = fallback_vector(16, 0, "ex", 1, 5, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_instance_from_schema_graph_maps_rows_and_fallbacks():
    kg = make_chain_kg(4)
    sg = build_schema_graph(kg, {0}, {3}, max_edges=3, cap=10)
    inst = instance_from_schema_graph(sg, "ex", 1, label=0)
    assert inst.label == 0
    assert list(inst.node_ids) == sorted(sg.nodes)
    local = {g: i for i, g in enumerate(inst.node_ids)}
    assert inst.q_rows.tolist() == [local[0]]
    assert inst.a_rows.tolist() == [local[3]]
    assert inst.owner.tolist() == [0]
    steps = slice(inst.offsets[0], inst.offsets[1])
    assert list(inst.node_ids[inst.heads[steps]]) == [0, 1, 2]
    assert list(inst.node_ids[inst.tails[steps]]) == [1, 2, 3]
    assert np.all(inst.signs[steps] == 1.0)
    assert fallback_rows([inst], 8, 0).shape == (0, 8)
    # edges cover each path hop exactly once, undirected
    assert sorted(inst.und_edges) == sorted(
        (min(local[a], local[b]), max(local[a], local[b]))
        for a, b in [(0, 1), (1, 2), (2, 3)])


def test_instance_pathless_pair_gets_seeded_fallback():
    kg = make_chain_kg(3)
    sg = build_schema_graph(kg, {0}, {2}, max_edges=3, cap=10)
    sg.paths[(0, 0)] = []
    inst = instance_from_schema_graph(sg, "ex", 0)
    row_a = fallback_rows([inst], 8, 0)
    row_b = fallback_rows([instance_from_schema_graph(sg, "ex", 0)], 8, 0)
    row_c = fallback_rows([inst], 8, 1)
    assert row_a.shape == (1, 8)
    assert np.array_equal(row_a, row_b)
    assert not np.array_equal(row_a, row_c)
    assert np.array_equal(row_a[0], fallback_vector(8, 0, "ex", 0, 0, 2))


@given(seed=st.integers(0, 2 ** 32 - 1), n_q=st.integers(1, 12),
       n_a=st.integers(1, 3), density=st.floats(0.05, 0.3))
@example(seed=0, n_q=12, n_a=2, density=0.2)
def test_path_table_reproduces_schema_graph_paths(seed, n_q, n_a, density):
    rng = np.random.default_rng(seed)
    n = n_q + n_a + int(rng.integers(0, 4))
    kg = random_kg(rng, n, density)
    picks = rng.permutation(n).tolist()
    sg = build_schema_graph(kg, picks[:n_q], picks[n_q:n_q + n_a], max_edges=3, cap=20)
    inst = instance_from_schema_graph(sg, "ex", 0)
    ids = inst.node_ids.tolist()
    pair_indices = [(i, j) for i in range(len(sg.cq)) for j in range(len(sg.ca))]
    assert len(inst.q_rows) == len(inst.a_rows) == len(pair_indices)
    assert inst.heads.dtype == inst.rels.dtype == inst.tails.dtype == np.int64
    assert inst.signs.dtype == np.float64
    n_paths = np.bincount(inst.owner, minlength=len(pair_indices))
    for p, (i, j) in enumerate(pair_indices):
        assert (ids[inst.q_rows[p]], ids[inst.a_rows[p]]) == (sg.cq[i], sg.ca[j])
        got = []
        for k in np.flatnonzero(inst.owner == p).tolist():
            steps = slice(inst.offsets[k], inst.offsets[k + 1])
            heads, rels, signs, tails = (a[steps] for a in (
                inst.heads, inst.rels, inst.signs, inst.tails))
            assert heads[1:].tolist() == tails[:-1].tolist()
            got.append({"start": ids[heads[0]], "steps": [
                [r, s < 0, ids[t]]
                for r, s, t in zip(rels.tolist(), signs.tolist(), tails.tolist())]})
        assert got == sg.paths[(i, j)]
        assert (n_paths[p] > 0) == bool(sg.paths[(i, j)])
    assert len(fallback_rows([inst], 4, 0)) == sum(not plist for plist in sg.paths.values())


def test_run_config_derived_dims():
    cfg = RunConfig(kge_dim=3, gcn_dims="5", lstm_hidden=2, d_t=4, t_hidden=4,
                    score_hidden=3, path_attention=False)
    back = RunConfig(**cfg.to_dict())
    assert back == cfg
    assert cfg.gcn_layers == (5,)
    assert cfg.d_path == 8
    assert cfg.d_step == 2 * 5 + 3
    assert RunConfig(gcn_dims="").d_gcn_out == 100


def test_check_config_gradients_full_tolerance():
    # one fresh instance through the production gradient path
    from kgqa.selfcheck import gradient_suite
    result = gradient_suite(seed=123, n_instances=2)
    assert result.passed, result.detail


@pytest.mark.parametrize("config", [CFG, replace(CFG, gcn_dims="")])
def test_backward_input_grads_equal_the_add_at_scatter(config, monkeypatch):
    """``d_node_init`` and ``d_rel_emb`` equal, byte for byte, the ``np.add.at``
    sums they replaced, recomputed from the same trace: step heads, relations
    and tails, then question and answer rows, each in table order."""
    rng = np.random.default_rng(21)
    parts = [random_instance(rng, config, D_S, n_relations=2)[0] for _ in range(4)]
    parts.append(instance_from_schema_graph(None, "x", 4))
    inst = Instance.concat(parts)
    net = PathAttentionScorer(config, D_S, np.random.default_rng(22))
    node_init = rng.standard_normal((inst.n_nodes, config.kge_dim))
    rel_emb = rng.standard_normal((2, config.kge_dim))
    trace = net.forward(inst, rng.standard_normal((len(parts), D_S)), node_init,
                        rel_emb, fallback_rows(parts, config.d_path, config.seed))
    seen = {}

    def spy(layer, method, key):
        inner = getattr(layer, method)

        def wrapped(*args):
            seen[key] = inner(*args)
            return seen[key]
        monkeypatch.setattr(layer, method, wrapped)

    spy(net.path_lstm, "backward_ragged", "d_x")
    spy(net.t_mlp, "backward", "d_t_in")
    got = net.backward(trace, rng.standard_normal(len(parts)))

    d, e, d_s = config.d_gcn_out, config.kge_dim, D_S
    d_x, d_t_in = seen["d_x"], seen["d_t_in"]
    d_node = np.zeros((inst.n_nodes, d))
    d_rel = np.zeros_like(rel_emb)
    np.add.at(d_node, inst.heads, d_x[:, :d])
    np.add.at(d_rel, inst.rels, inst.signs[:, None] * d_x[:, d:d + e])
    np.add.at(d_node, inst.tails, d_x[:, d + e:])
    np.add.at(d_node, inst.q_rows, d_t_in[:, d_s:d_s + d])
    np.add.at(d_node, inst.a_rows, d_t_in[:, d_s + d:])
    for layer, cache in zip(reversed(net.gcn), reversed(trace.gcn_caches)):
        d_node = layer.backward(d_node, cache)
    assert got.d_rel_emb.tobytes() == d_rel.tobytes()
    assert got.d_node_init.tobytes() == d_node.tobytes()
    assert len(np.unique(inst.heads)) < len(inst.heads)  # rows repeat
