"""Triple embeddings: training, confidence, path scores, pruning."""

import copy
import hashlib
import linecache
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa import kg as kg_mod
from kgqa import selfcheck
from kgqa.kg import build_graph
from kgqa.kge import (EmbeddingTable, eval_tail_mrr, init_embeddings,
                      load_word_vectors, prune_schema_graph, train_transe)
from kgqa.paths import build_schema_graph, path_triples
from kgqa.selfcheck import random_kg, reference_prune
from kgqa.toy import build_toy_world
from perfbench import gen
from perfbench.workloads import HUB_CFG

from conftest import TOY_CFG, make_chain_kg, mutant, planted_kg


def table_with_distances(dists, gamma=2.0):
    """One (a, r_k, b) edge per relation with exact distance dists[k].

    ent[a] = 0 and ent[b] = c*e0, so ||a + r - b|| = |c + d - c| = d when
    r = (c + d)*e0. Lets tests pin confidences analytically.
    """
    dim = 4
    ent = np.zeros((2, dim))
    ent[1, 0] = 1.0
    rel = np.zeros((len(dists), dim))
    for k, d in enumerate(dists):
        rel[k, 0] = 1.0 + d
    return EmbeddingTable(ent=ent, rel=rel, gamma=gamma)


def dist_for_score(score, gamma):
    # invert logistic(gamma - d) = score
    return gamma - math.log(score / (1.0 - score))


def test_confidence_is_logistic_of_distance():
    table = table_with_distances([0.0], gamma=1.0)
    assert table.triple_confidence(0, 0, 1) == pytest.approx(
        1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)
    assert table.triple_confidence(0, 0, 1) == pytest.approx(0.7311, abs=1e-4)


def test_confidence_vanishes_at_large_distance():
    table = table_with_distances([1e6], gamma=2.0)
    assert table.triple_confidence(0, 0, 1) < 1e-12


def test_confidence_monotone_in_distance():
    table = table_with_distances([0.5, 1.5, 3.0], gamma=2.0)
    scores = [table.triple_confidence(0, k, 1) for k in range(3)]
    assert scores == sorted(scores, reverse=True)


def path_for(kg, src, dst, **kw):
    from kgqa.paths import find_paths
    paths, _ = find_paths(kg, src, [dst], **kw)[dst]
    return paths


def test_path_score_single_step_equals_confidence():
    kg = build_graph(["a", "b"], ["r"], [(0, 0, 1)], [1.0])
    table = table_with_distances([1.2])
    (p,) = path_for(kg, 0, 1, max_edges=1, cap=10)
    assert table.path_score(0, p) == pytest.approx(
        table.triple_confidence(0, 0, 1), rel=1e-12)


def test_path_score_is_product():
    kg = make_chain_kg(3)
    table = EmbeddingTable(ent=np.random.default_rng(0).standard_normal((3, 5)),
                           rel=np.random.default_rng(1).standard_normal((1, 5)),
                           gamma=2.0)
    (p,) = path_for(kg, 0, 2, max_edges=2, cap=10)
    want = table.triple_confidence(0, 0, 1) * table.triple_confidence(1, 0, 2)
    assert table.path_score(0, p) == pytest.approx(want, rel=1e-12)


@given(st.integers(0, 999))
def test_path_score_at_most_min_step(seed):
    rng = np.random.default_rng(seed)
    kg = make_chain_kg(4)
    table = EmbeddingTable(ent=rng.standard_normal((4, 5)),
                           rel=rng.standard_normal((1, 5)), gamma=2.0)
    (p,) = path_for(kg, 0, 3, max_edges=3, cap=10)
    steps = [table.triple_confidence(0, 0, 1), table.triple_confidence(1, 0, 2),
             table.triple_confidence(2, 0, 3)]
    assert 0.0 < table.path_score(0, p) <= min(steps) + 1e-15


# ------------------------------------------------------------------ pruning

def multi_edge_world(scores, gamma=2.0):
    """(a, r_k, b) per score, so the pair has len(scores) one-edge paths."""
    n = len(scores)
    rels = [f"r{k}" for k in range(n)]
    kg = build_graph(["a", "b"], rels, [(0, k, 1) for k in range(n)],
                     np.ones(n))
    table = table_with_distances([dist_for_score(s, gamma) for s in scores],
                                 gamma=gamma)
    sg = build_schema_graph(kg, {0}, {1}, max_edges=1, cap=100)
    return kg, table, sg


def kept_scores(sg, table):
    return sorted(round(table.path_score(0, p), 6)
                  for p in sg.paths[(0, 0)])


def test_prune_threshold_definition():
    _, table, sg = multi_edge_world([0.2, 0.1, 0.16, 0.05])
    report = prune_schema_graph(sg, table, threshold=0.15)
    assert kept_scores(sg, table) == [0.16, 0.2]
    assert report.paths_before == 4
    assert report.paths_after == 2


def keeps_the_path_scoring_the_threshold(prune) -> bool:
    """Whether ``prune``, at a threshold equal to the exact score of the 0.16
    path of four, keeps that path and the 0.2 one and drops the rest."""
    _, table, sg = multi_edge_world([0.2, 0.1, 0.16, 0.05])
    at = sorted(sg.paths[(0, 0)], key=partial(table.path_score, 0))[2]
    prune(sg, table, threshold=table.path_score(0, at))
    return at in sg.paths[(0, 0)] and kept_scores(sg, table) == [0.16, 0.2]


def test_prune_keeps_a_path_scoring_exactly_the_threshold():
    # a path is dropped only when its score falls below the threshold
    assert keeps_the_path_scoring_the_threshold(prune_schema_graph)


def test_a_mutant_is_cut_from_the_source_kgqa_was_imported_from(monkeypatch):
    # as if kge.py gained a line at its top after the suite imported it
    real = linecache.getlines
    monkeypatch.setattr(linecache, "getlines", lambda *a, **kw: ["\n", *real(*a, **kw)])
    strict = mutant(prune_schema_graph, "s >= threshold", "s > threshold")
    assert not keeps_the_path_scoring_the_threshold(strict)


def test_pruning_checks_catch_a_strict_threshold(monkeypatch):
    strict = mutant(prune_schema_graph, "s >= threshold", "s > threshold")
    assert not keeps_the_path_scoring_the_threshold(strict)
    monkeypatch.setattr(selfcheck, "prune_schema_graph", strict)
    result = selfcheck.pruning_suite(n_graphs=25)
    assert not result.passed
    assert "differs from reference_prune" in result.detail


def test_prune_exempts_pairs_below_three_paths():
    _, table, sg = multi_edge_world([0.01, 0.02])
    report = prune_schema_graph(sg, table, threshold=0.15)
    assert len(sg.paths[(0, 0)]) == 2
    assert report.pairs_exempt == 1


def test_prune_threshold_zero_is_identity():
    _, table, sg = multi_edge_world([0.2, 0.1, 0.16, 0.05])
    before = {k: list(v) for k, v in sg.paths.items()}
    prune_schema_graph(sg, table, threshold=0.0)
    assert sg.paths == before


def test_prune_keep_best_floor():
    _, table, sg = multi_edge_world([0.01, 0.05, 0.02])
    prune_schema_graph(sg, table, threshold=0.5)
    assert kept_scores(sg, table) == [0.05]


def test_prune_rebuilds_node_cover():
    # two 2-edge routes a-m1-b / a-m2-b plus a direct edge; after pruning,
    # nodes must cover exactly the survivors plus the endpoint sets
    concepts = ["a", "m1", "m2", "b"]
    triples = [(0, 0, 1), (1, 0, 3), (0, 0, 2), (2, 0, 3), (0, 0, 3)]
    kg = build_graph(concepts, ["r"], triples, np.ones(len(triples)))
    rng = np.random.default_rng(3)
    table = EmbeddingTable(ent=rng.standard_normal((4, 8)),
                           rel=rng.standard_normal((1, 8)), gamma=2.0)
    sg = build_schema_graph(kg, {0}, {3}, max_edges=2, cap=100)
    assert len(sg.paths[(0, 0)]) == 3
    ranked = sorted(sg.paths[(0, 0)], key=partial(table.path_score, 0))
    cut = (table.path_score(0, ranked[0]) + table.path_score(0, ranked[1])) / 2
    prune_schema_graph(sg, table, threshold=cut)
    assert len(sg.paths[(0, 0)]) == 2
    cover = {0, 3}
    for p in sg.paths[(0, 0)]:
        cover |= {sg.cq[0], *(node for _, _, node in p)}
    assert set(sg.nodes) == cover


@given(st.integers(0, 500))
@settings(max_examples=25)
def test_prune_monotone_in_threshold(seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0.01, 0.9, size=int(rng.integers(3, 8)))
    t1, t2 = sorted(rng.uniform(0.0, 1.0, size=2))
    _, table, sg1 = multi_edge_world(list(scores))
    _, table2, sg2 = multi_edge_world(list(scores))
    prune_schema_graph(sg1, table, threshold=t1)
    prune_schema_graph(sg2, table2, threshold=t2)
    low = {tuple(path_triples(0, p)) for p in sg1.paths[(0, 0)]}
    high = {tuple(path_triples(0, p)) for p in sg2.paths[(0, 0)]}
    assert high <= low


@given(st.integers(0, 10_000),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
@settings(max_examples=40)
def test_prune_equals_per_path_reference(seed, threshold):
    # the vectorized rule keeps the same paths in the same order, reports the
    # same counts and leaves the same schema-graph JSON as the per-path one
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 10))
    kg = random_kg(rng, n, float(rng.uniform(0.2, 0.5)))
    picks = rng.permutation(n)
    cq = [int(x) for x in picks[:int(rng.integers(1, 3))]]
    ca = [int(x) for x in picks[len(cq):len(cq) + int(rng.integers(1, 3))]]
    sg = build_schema_graph(kg, cq, ca, max_edges=3, cap=int(rng.integers(1, 50)))
    table = EmbeddingTable(ent=rng.standard_normal((n, 8)),
                           rel=rng.standard_normal((kg.n_relations, 8)), gamma=2.0)
    want_sg = copy.deepcopy(sg)
    want = reference_prune(want_sg, table, threshold)
    got = prune_schema_graph(sg, table, threshold)
    assert got == want
    assert sg.paths == want_sg.paths
    assert sg.to_dict() == want_sg.to_dict()


def test_prune_scores_every_triple_in_one_call(monkeypatch):
    _, table, sg = multi_edge_world([0.2, 0.1, 0.16, 0.05])
    calls = []
    real = EmbeddingTable.triple_confidence

    def counting(self, h, r, t):
        calls.append(len(h))
        return real(self, h, r, t)

    monkeypatch.setattr(EmbeddingTable, "triple_confidence", counting)
    prune_schema_graph(sg, table, threshold=0.15)
    assert calls == [4]
    _, table, sparse = multi_edge_world([0.2, 0.1])
    prune_schema_graph(sparse, table, threshold=0.15)
    assert calls == [4]  # an exempt pair scores nothing


@pytest.mark.parametrize("text,line,what", [
    ("a 1 0\nb 0 x\n", 2, "could not convert string to float: 'x'"),
    ("a 1 0\n\nb 0 1 2\n", 3, "row has 3 values, the first row has 2"),
])
def test_bad_word_vector_row_is_named(tmp_path, text, line, what):
    wv = tmp_path / "vecs.txt"
    wv.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_word_vectors(wv)
    assert str(exc.value) == f"{wv}:{line}: {what}"


# ----------------------------------------------------------------- training

def test_epochs_zero_returns_initialization():
    kg = planted_kg(seed=0)
    rng = np.random.default_rng(np.random.SeedSequence(0).entropy % (2 ** 32))
    trained, history = train_transe(kg, dim=16, epochs=0, seed=5)
    init = init_embeddings(kg, 16, np.random.default_rng(5))
    assert history == []
    assert np.array_equal(trained.ent, init.ent)
    assert np.array_equal(trained.rel, init.rel)


def test_training_is_bit_deterministic():
    kg = planted_kg(seed=0)
    a, ha = train_transe(kg, dim=16, epochs=10, seed=3)
    b, hb = train_transe(kg, dim=16, epochs=10, seed=3)
    assert ha == hb
    assert np.array_equal(a.ent, b.ent)
    assert np.array_equal(a.rel, b.rel)


@pytest.mark.parametrize("dim,ent_sha,rel_sha", [
    (32, "4b31db6b26584a7d5e88016759751fd854d770d77d53baad5f4069e7dc49cc8c",
     "4141b997218b81559ba9d4074708be0db463fd5806e928fbf426d3f35315243a"),
    (100, "ac1d440d402c4191b6807d29253fc1b4165f752ca235c52a272039d8ecf4c854",
     "35fd754ad1fbd794d1adc4ee749c65f94c110e17c1f5ea50f99d7ec22d92343f"),
])
def test_training_bytes_unchanged_on_the_toy_world(dim, ent_sha, rel_sha):
    # sha256 of the trained tables, recorded with the np.add.at updates that
    # layers.scatter_rows replaced; three relations make every batch repeat
    # relation rows, and two negatives per positive repeat entity rows
    kg = build_toy_world(seed=0).kg
    table, _ = train_transe(kg, dim=dim, epochs=20, lr=0.05, batch_size=64,
                            neg_per_pos=2, seed=0)
    assert hashlib.sha256(table.ent.tobytes()).hexdigest() == ent_sha
    assert hashlib.sha256(table.rel.tobytes()).hexdigest() == rel_sha


TRAINED_TABLE_DIGESTS = {
    "toy": "b942900c5c4acd6882afbf4ad862597553204fe39851d0d4a93562f185da0c58",
    "hub": "1bfbc6af3b7f62f8fa16bcf2f65251360084e3ce207ef6444b0ae4043fc7b29f",
}


@pytest.mark.parametrize("world", sorted(TRAINED_TABLE_DIGESTS))
def test_trained_table_and_loss_bytes_are_pinned(world, tmp_path):
    """sha256 over ``ent``, ``rel`` and the loss history that ``train_transe``
    gives at the benchmark's settings on the seed-0 toy world and the tiny hub
    world; recorded before the update step's gathers and scatters were
    trimmed, which must leave every byte as it was."""
    if world == "toy":
        kg, cfg = build_toy_world(seed=0).kg, TOY_CFG
    else:
        tsv, _ = gen.write_hub_inputs(tmp_path, 0, gen.HUB_SIZES["tiny"])
        (kg, _), cfg = kg_mod.ingest(tsv, merge_map=None), HUB_CFG
    table, history = train_transe(kg, dim=cfg["kge_dim"], lr=cfg["kge_lr"],
                                  epochs=cfg["kge_epochs"], batch_size=cfg["kge_batch"],
                                  seed=cfg["seed"])
    digest = hashlib.sha256(table.ent.tobytes() + table.rel.tobytes()
                            + np.asarray(history).tobytes()).hexdigest()
    assert digest == TRAINED_TABLE_DIGESTS[world]


@pytest.mark.parametrize("key", ["dim", "batch_size", "neg_per_pos"])
def test_training_sizes_below_one_are_named(key):
    kg = planted_kg(seed=0)
    train_transe(kg, epochs=1, **{key: 1})
    with pytest.raises(ValueError, match=f"^{key} must be at least 1, got 0$"):
        train_transe(kg, epochs=1, **{key: 0})


def test_training_reduces_loss_and_beats_random_ranking():
    kg = planted_kg(seed=0)
    table, history = train_transe(kg, dim=32, epochs=60, lr=0.1,
                                  batch_size=16, seed=0)
    assert history[-1] < history[0]
    mrr = eval_tail_mrr(table, kg.triples, known=kg.triples)
    assert mrr > 2.0 * 0.14  # analytic random baseline is about 0.133


def test_entities_renormalized_to_unit_sphere():
    kg = planted_kg(seed=1)
    table, _ = train_transe(kg, dim=16, epochs=5, seed=0)
    norms = np.linalg.norm(table.ent, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)


def test_word_vector_initialization_mean_of_tokens(tmp_path):
    kg = build_graph(["glue", "glue_stick", "stick"], ["r"],
                     [(0, 0, 2)], [1.0])
    wv = tmp_path / "vecs.txt"
    wv.write_text("glue 1 0 0 0\nstick 0 1 0 0\n", encoding="utf-8")
    vecs = load_word_vectors(wv)
    table = init_embeddings(kg, 4, np.random.default_rng(0), vecs)
    gs = table.ent[kg.lookup_surface("glue_stick")]
    # mean [0.5, 0.5, 0, 0] renormalized to the unit sphere
    assert gs == pytest.approx([math.sqrt(0.5), math.sqrt(0.5), 0, 0],
                               abs=1e-12)


def test_non_finite_loss_aborts():
    kg = planted_kg(seed=0)
    bad = {kg.surface(i): np.full(8, np.nan) for i in range(kg.n_concepts)}
    with pytest.raises(FloatingPointError):
        train_transe(kg, dim=8, epochs=2, seed=0, word_vectors=bad)


def test_eval_tail_mrr_filtered_protocol():
    # h + r sits exactly on a competing true tail; filtering must skip it
    ent = np.zeros((3, 2))
    ent[1] = [1.0, 0.0]
    ent[2] = [0.9, 0.1]
    rel = np.array([[0.9, 0.1]])
    table = EmbeddingTable(ent=ent, rel=rel, gamma=2.0)
    test_triple = np.array([[0, 0, 1]])
    raw = eval_tail_mrr(table, test_triple)
    known = np.array([[0, 0, 1], [0, 0, 2]])
    filtered = eval_tail_mrr(table, test_triple, known=known)
    assert raw == pytest.approx(0.5)   # entity 2 ranks first unfiltered
    assert filtered == pytest.approx(1.0)


def test_table_save_load_round_trip(tmp_path):
    kg = planted_kg(seed=0)
    table, _ = train_transe(kg, dim=8, epochs=3, seed=0)
    table.gamma = 1.75
    p = tmp_path / "kge.bin"
    table.save(p)
    back = EmbeddingTable.load(p)
    assert np.array_equal(back.ent, table.ent)
    assert np.array_equal(back.rel, table.rel)
    assert back.gamma == 1.75
