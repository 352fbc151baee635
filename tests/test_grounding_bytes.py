"""Pinned bytes of the grounding stage and its search count.

The digests are sha256 over the canonical JSON of every candidate's
``ground_question`` result, pruned and unpruned, on the seed-0 toy world and
on the benchmark's tiny hub world; pruned at threshold 0.3, where the briefly
trained tables drop some paths but not all. A candidate is rendered as
``kgqa paths``/``prune`` render it, without its id and index:
``{"sg": ..., "prune": ...}``, ``{"sg": ...}`` or ``{"ungrounded": true}``.
They were recorded from the per-pair search that the per-question search
replaced: a change to the order of the search work must leave every schema
graph and prune report as it was.
"""

import pytest

from kgqa import io_utils, paths, pipeline
from kgqa import kg as kg_mod
from kgqa.config import RunConfig
from kgqa.data import load_dataset
from kgqa.ground import load_stopwords, recognize
from kgqa.kge import PruneReport, train_transe
from kgqa.toy import build_toy_world
from perfbench import gen
from perfbench.workloads import HUB_CFG

from conftest import TOY_CFG

DIGESTS = {
    ("toy", False): "8bf42a6e23615067bfcd523e4b6b48782d7bf92c2f38b9de73e1abb525c242ba",
    ("toy", True): "4acdab58ad483883eb6db30f488930346aeebe94d601f49d4fc1eccf314ad114",
    ("hub", False): "a655a854421316ed74a84deb0c0d88c648b3f3385eb7156e583d7f6e2e21493e",
    ("hub", True): "42ed3a46e8edfc3ccedd6aa79b8babef5e5ccf0b904aedfc5cada67c0854cb9f",
}


@pytest.fixture(scope="module")
def worlds(tmp_path_factory):
    """(kg, examples, cfg, emb) of the seed-0 toy world and the tiny hub world."""
    toy = build_toy_world(seed=0)
    toy_cfg = RunConfig(**{**TOY_CFG, "kge_epochs": 3})
    root = tmp_path_factory.mktemp("hub")
    tsv, dataset = gen.write_hub_inputs(root, 0, gen.HUB_SIZES["tiny"])
    hub_kg, _ = kg_mod.ingest(tsv, merge_map=None)
    out = {}
    for name, kg, examples, cfg in (
            ("toy", toy.kg, toy.train + toy.dev, toy_cfg),
            ("hub", hub_kg, load_dataset(dataset), RunConfig(**HUB_CFG))):
        emb, _ = train_transe(kg, dim=cfg.kge_dim, margin=cfg.kge_margin, lr=cfg.kge_lr,
                              epochs=cfg.kge_epochs, batch_size=cfg.kge_batch,
                              neg_per_pos=cfg.kge_neg, seed=cfg.seed)
        out[name] = (kg, examples, cfg, emb)
    return out


def render(sg, report) -> dict:
    if sg is None:
        return {"ungrounded": True}
    row = {"sg": sg.to_dict()}
    if report is not None:
        row["prune"] = report.to_dict()
    return row


@pytest.mark.parametrize("world,prune", sorted(DIGESTS))
def test_ground_question_payload_digest(worlds, world, prune):
    kg, examples, cfg, emb = worlds[world]
    cfg = RunConfig(**{**cfg.to_dict(), "prune": prune, "threshold": 0.3})
    stop = load_stopwords(None)
    grounded = [pipeline.ground_question(kg, stop, cfg, ex, emb) for ex in examples]
    flat = [cand for question in grounded for cand in question]
    assert sum(sg is not None for sg, _ in flat) > 0
    if prune:  # the digest covers dropped paths, not only exempt pairs
        report = sum((report for sg, report in flat if sg is not None), PruneReport())
        assert report.paths_after < report.paths_before
    rows = [[render(sg, report) for sg, report in question] for question in grounded]
    digest = io_utils.sha256_bytes(io_utils.canonical_json(rows).encode())
    assert digest == DIGESTS[(world, prune)]


def test_one_search_per_question_concept(worlds, monkeypatch):
    # a question's candidates share its question concepts, so each distinct
    # question concept is searched once, against every candidate's answers
    kg, examples, cfg, emb = worlds["toy"]
    stop = load_stopwords(None)
    calls = []
    real = paths.find_paths

    def counting(kg, src, goals, *args, **kwargs):
        calls.append(src)
        return real(kg, src, goals, *args, **kwargs)

    monkeypatch.setattr(paths, "find_paths", counting)
    n_pairs = n_searches = 0
    for ex in examples[:40]:
        calls.clear()
        pipeline.ground_question(kg, stop, cfg, ex, emb)
        cq = recognize(ex.question, kg, max_ngram=cfg.max_ngram, stopwords=stop).concepts
        cas = [recognize(c, kg, max_ngram=cfg.max_ngram, stopwords=stop).concepts - cq
               for c in ex.candidates]
        assert sorted(calls) == (sorted(cq) if any(cas) else [])
        n_pairs += len(cq) * sum(map(len, cas))
        n_searches += len(calls)
    assert n_pairs >= 3 * n_searches  # a search per pair would cost 3x or more
