"""Scoring-network behavior: encodings, attention, losses, gradients."""

import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given
from hypothesis import strategies as st

from kgqa import io_utils
from kgqa.config import RunConfig
from kgqa.model.gradcheck import check_gradients
from kgqa.model.network import (Instance, PathAttentionScorer, bce_loss, fallback_vector,
                                instance_from_schema_graph)
from kgqa.paths import build_schema_graph
from kgqa.selfcheck import CHECK_CONFIG, CHECK_D_S, random_instance, random_kg

from conftest import make_chain_kg

CFG = RunConfig(kge_dim=6, gcn_dims="5,4", lstm_hidden=4, d_t=6, t_hidden=7,
                score_hidden=5)
D_S = 8


def fresh(seed=0, config=CFG, **kw):
    rng = np.random.default_rng(seed)
    inst, s, node_init, rel_emb = random_instance(rng, config, D_S, **kw)
    net = PathAttentionScorer(config, D_S, np.random.default_rng(seed + 1))
    return net, inst, s[None], node_init, rel_emb


def one_pair_instance(config, paths, n_nodes=3, label=None):
    # concept 0 to concept 1; concept ids equal node rows
    sg = {"cq": [0], "ca": [1], "nodes": list(range(n_nodes)),
          "edges": [[0, 0, 1]], "paths": {"0,0": paths}}
    return instance_from_schema_graph(sg, "x", 0, config.d_path, label=label)


def single_path_instance(config, rel=0, sign=1.0, n_nodes=3):
    path = {"start": 0, "steps": [[rel, sign < 0, 1]]}
    return one_pair_instance(config, [path], n_nodes=n_nodes, label=1)


def test_zero_lstm_weights_give_zero_path_vectors():
    net, inst, s, node_init, rel_emb = fresh(seed=2, allow_zero_paths=False)
    for name, p in net.params().items():
        if name.startswith("path_lstm."):
            p[:] = 0
    trace = net.forward(inst, s, node_init, rel_emb)
    assert np.allclose(trace.V, 0.0)


def test_single_step_path_duplicates_its_only_position():
    rng = np.random.default_rng(3)
    inst = single_path_instance(CFG)
    net = PathAttentionScorer(CFG, D_S, rng)
    s = rng.standard_normal((1, D_S))
    node_init = rng.standard_normal((3, CFG.kge_dim))
    rel_emb = rng.standard_normal((2, CFG.kge_dim))
    trace = net.forward(inst, s, node_init, rel_emb)
    v = trace.V[0]
    H2 = 2 * CFG.lstm_hidden
    assert np.allclose(v[:H2], v[H2:])


def test_reversed_step_changes_the_path_vector():
    rng = np.random.default_rng(4)
    net = PathAttentionScorer(CFG, D_S, rng)
    s = rng.standard_normal((1, D_S))
    node_init = rng.standard_normal((3, CFG.kge_dim))
    rel_emb = rng.standard_normal((2, CFG.kge_dim))
    fwd = net.forward(single_path_instance(CFG, sign=1.0), s, node_init, rel_emb)
    rev = net.forward(single_path_instance(CFG, sign=-1.0), s, node_init, rel_emb)
    assert not np.allclose(fwd.V[0], rev.V[0])
    assert abs(fwd.score[0] - rev.score[0]) > 0


def test_path_attention_off_means_plain_mean():
    cfg = replace(CFG, path_attention=False)
    net, inst, s, node_init, rel_emb = fresh(seed=5, config=cfg,
                                             allow_zero_paths=False)
    trace = net.forward(inst, s, node_init, rel_emb)
    for pi in range(len(inst.pairs)):
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
    trace = net.forward(inst, s, node_init, rel_emb)
    assert np.allclose(trace.R_hat[0], trace.V[0], atol=1e-12)
    path = {"start": 0, "steps": [[0, False, 1]]}
    inst2 = one_pair_instance(CFG, [path, path])
    trace2 = net.forward(inst2, s, node_init, rel_emb)
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
                        rng.standard_normal((2, CFG.kge_dim)))
    assert trace.T.shape == (1, CFG.d_t)
    assert np.allclose(trace.T[0], np.arange(CFG.d_t, dtype=float))


def test_zero_score_mlp_gives_half():
    net, inst, s, node_init, rel_emb = fresh(seed=8)
    for name, p in net.params().items():
        if name.startswith("score_mlp."):
            p[:] = 0
    trace = net.forward(inst, s, node_init, rel_emb)
    assert trace.raw[0] == 0.0
    assert trace.score[0] == pytest.approx(0.5, abs=1e-15)


def test_score_strictly_inside_unit_interval():
    for seed in range(6):
        net, inst, s, node_init, rel_emb = fresh(seed=seed)
        trace = net.forward(inst, s, node_init, rel_emb * 50)
        assert 0.0 < trace.score[0] < 1.0


def test_w1_gradient_zero_when_every_pair_has_one_path():
    net, inst, s, node_init, rel_emb = fresh(seed=9, max_paths=1,
                                             allow_zero_paths=False)
    assert all(len(p.paths) == 1 for p in inst.pairs)
    trace = net.forward(inst, s, node_init, rel_emb)
    net.zero_grad()
    net.backward(trace, np.ones(1))
    assert np.allclose(net.grads()["W1"], 0.0)


def test_doubling_loss_grad_doubles_every_gradient():
    net, inst, s, node_init, rel_emb = fresh(seed=10)
    trace = net.forward(inst, s, node_init, rel_emb)
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


def test_forward_requires_fallback_for_pathless_pair():
    none = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="no paths and no fallback"):
        Instance(example_id="x", cand_index=0, node_ids=np.arange(2), und_edges=[],
                 q_rows=np.array([0]), a_rows=np.array([1]), owner=none,
                 offsets=np.zeros(1, dtype=np.int64), heads=none, rels=none,
                 signs=np.zeros(0), tails=none, fallback=np.zeros((0, CFG.d_path)))


@pytest.mark.parametrize("path_attention", [True, False])
def test_instance_without_any_path_scores_and_backpropagates(path_attention):
    # the ungrounded anchor form: one pair, no paths anywhere (K = 0)
    cfg = replace(CHECK_CONFIG, path_attention=path_attention)
    rng = np.random.default_rng(12)
    net = PathAttentionScorer(cfg, CHECK_D_S, rng)
    inst = instance_from_schema_graph(None, "x", 0, cfg.d_path, seed=0, label=1)
    s = rng.standard_normal((1, CHECK_D_S))
    node_init = rng.standard_normal((1, cfg.kge_dim))
    rel_emb = rng.standard_normal((3, cfg.kge_dim))
    trace = net.forward(inst, s, node_init, rel_emb)
    assert trace.V.shape == (0, cfg.d_path)
    assert trace.alpha.shape == (1, 0)
    assert np.array_equal(trace.R_hat[0], inst.pairs[0].fallback)
    assert 0.0 < trace.score[0] < 1.0

    def loss_fn():
        return bce_loss(net.forward(inst, s, node_init, rel_emb).raw, 1)[0]

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
    parts.insert(1, instance_from_schema_graph(None, "x", 1, CFG.d_path))
    union = Instance.concat(parts)
    rows = np.cumsum([0] + [p.n_nodes for p in parts])
    pairs = np.cumsum([0] + [len(p.q_rows) for p in parts])
    assert union.pair_bounds.tolist() == pairs.tolist()
    assert union.pair_cand.tolist() == np.repeat(np.arange(4), np.diff(pairs)).tolist()
    assert union.node_ids.tolist() == sum((p.node_ids.tolist() for p in parts), [])
    assert union.und_edges == [(a + o, b + o) for p, o in zip(parts, rows)
                               for a, b in p.und_edges]
    got = union.pairs
    for g, part in enumerate(parts):
        for mine, theirs in zip(got[pairs[g]:pairs[g + 1]], part.pairs):
            assert (mine.q_row, mine.a_row) == (theirs.q_row + rows[g], theirs.a_row + rows[g])
            assert len(mine.paths) == len(theirs.paths)
            for (h, r, s, t), (h0, r0, s0, t0) in zip(mine.paths, theirs.paths):
                assert h.tolist() == (h0 + rows[g]).tolist()
                assert t.tolist() == (t0 + rows[g]).tolist()
                assert r.tolist() == r0.tolist() and s.tolist() == s0.tolist()
            assert (mine.fallback is None) == (theirs.fallback is None)
            if mine.fallback is not None:
                assert np.array_equal(mine.fallback, theirs.fallback)
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
    inst = instance_from_schema_graph(sg.to_dict(), "ex", 1, d_path=8, seed=0, label=0)
    assert inst.label == 0
    assert list(inst.node_ids) == sorted(sg.nodes)
    local = {g: i for i, g in enumerate(inst.node_ids)}
    pair = inst.pairs[0]
    assert pair.q_row == local[0]
    assert pair.a_row == local[3]
    heads, rels, signs, tails = pair.paths[0]
    assert list(inst.node_ids[heads]) == [0, 1, 2]
    assert list(inst.node_ids[tails]) == [1, 2, 3]
    assert np.all(signs == 1.0)
    assert pair.fallback is None
    # edges cover each path hop exactly once, undirected
    assert sorted(inst.und_edges) == sorted(
        (min(local[a], local[b]), max(local[a], local[b]))
        for a, b in [(0, 1), (1, 2), (2, 3)])


def test_instance_pathless_pair_gets_seeded_fallback():
    kg = make_chain_kg(3)
    sg = build_schema_graph(kg, {0}, {2}, max_edges=3, cap=10)
    sg.paths[(0, 0)] = []
    inst_a = instance_from_schema_graph(sg.to_dict(), "ex", 0, d_path=8, seed=0)
    inst_b = instance_from_schema_graph(sg.to_dict(), "ex", 0, d_path=8, seed=0)
    inst_c = instance_from_schema_graph(sg.to_dict(), "ex", 0, d_path=8, seed=1)
    assert inst_a.pairs[0].fallback is not None
    assert np.array_equal(inst_a.pairs[0].fallback, inst_b.pairs[0].fallback)
    assert not np.array_equal(inst_a.pairs[0].fallback,
                              inst_c.pairs[0].fallback)


@given(seed=st.integers(0, 2 ** 32 - 1), n_q=st.integers(1, 12),
       n_a=st.integers(1, 3), density=st.floats(0.05, 0.3))
@example(seed=0, n_q=12, n_a=2, density=0.2)
def test_path_table_reproduces_schema_graph_paths(seed, n_q, n_a, density):
    # up to 12 question concepts, so the cached JSON key "10,0" sorts before "2,0"
    rng = np.random.default_rng(seed)
    n = n_q + n_a + int(rng.integers(0, 4))
    kg = random_kg(rng, n, density)
    picks = rng.permutation(n).tolist()
    sg = build_schema_graph(kg, picks[:n_q], picks[n_q:n_q + n_a], max_edges=3, cap=20)
    cached = json.loads(io_utils.canonical_json(sg.to_dict()))
    inst = instance_from_schema_graph(cached, "ex", 0, d_path=4)
    ids = inst.node_ids.tolist()
    pair_indices = [(i, j) for i in range(len(sg.cq)) for j in range(len(sg.ca))]
    assert len(inst.pairs) == len(pair_indices)
    for (i, j), pair in zip(pair_indices, inst.pairs):
        assert (ids[pair.q_row], ids[pair.a_row]) == (sg.cq[i], sg.ca[j])
        got = []
        for heads, rels, signs, tails in pair.paths:
            assert heads.dtype == rels.dtype == tails.dtype == np.int64
            assert signs.dtype == np.float64
            assert heads[1:].tolist() == tails[:-1].tolist()
            got.append({"start": ids[heads[0]], "steps": [
                [r, s < 0, ids[t]]
                for r, s, t in zip(rels.tolist(), signs.tolist(), tails.tolist())]})
        assert got == sg.paths[(i, j)]
        assert (pair.fallback is None) == bool(sg.paths[(i, j)])
    assert len(inst.fallback) == sum(not plist for plist in sg.paths.values())


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
