"""Pinned bytes of the grounding stage and its search count.

The digests are sha256 over the canonical JSON of every candidate's
``ground_questions`` result, pruned and unpruned, from one call over the whole
list of the seed-0 toy world and of the benchmark's tiny hub world; pruned at
threshold 0.3, where the briefly trained tables drop some paths but not all.
A candidate is rendered as ``kgqa paths``/``prune`` render it, without its id
and index: ``{"sg": ..., "prune": ...}``, ``{"sg": ...}`` or
``{"ungrounded": true}``. They were recorded from the per-pair search that the
per-question search, and then the per-list search, replaced: a change to the
order or the sharing of the search work must leave every schema graph and
prune report as it was.

``CACHE_DIGESTS`` pin the cache entries ``preprocess`` writes for the same
worlds, pruned at 0.3: sha256 over each file's path under the cache directory,
its length and its bytes, in path order.

``GROUND_DIGEST`` pins the bytes ``kgqa ground`` writes for the seed-0 toy
world's 100 dev questions, recorded from the per-question recognition loop
that the shared recognition pass replaced.
"""

import hashlib
from dataclasses import replace

import pytest

from kgqa import io_utils, paths, pipeline
from kgqa import kg as kg_mod
from kgqa.cli import main
from kgqa.config import RunConfig
from kgqa.data import load_dataset, save_dataset
from kgqa.ground import load_stopwords, recognize
from kgqa.kge import PruneReport, train_transe
from kgqa.toy import build_toy_world
from perfbench import gen
from perfbench.workloads import HUB_CFG

from conftest import TOY_CFG, dir_bytes

DIGESTS = {
    ("toy", False): "8bf42a6e23615067bfcd523e4b6b48782d7bf92c2f38b9de73e1abb525c242ba",
    ("toy", True): "4acdab58ad483883eb6db30f488930346aeebe94d601f49d4fc1eccf314ad114",
    ("hub", False): "a655a854421316ed74a84deb0c0d88c648b3f3385eb7156e583d7f6e2e21493e",
    ("hub", True): "42ed3a46e8edfc3ccedd6aa79b8babef5e5ccf0b904aedfc5cada67c0854cb9f",
}
CACHE_DIGESTS = {
    "toy": "b701d2018321b29f981d4a6f618d1510885863ea2ec91aabfdf3b4118dbc8b0e",
    "hub": "d4af766a9c9d74449671489ecf43809996304a87c4e65599ee1a176b8d3f3a62",
}

GROUND_DIGEST = "f3f9f1532c884481f1696af1bd0ad152e9e397f74fd9648cfbcf2129daeba530"


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
    grounded = pipeline.ground_questions(kg, stop, cfg, examples, emb)
    flat = [cand for question in grounded for cand in question]
    assert sum(sg is not None for sg, _ in flat) > 0
    if prune:  # the digest covers dropped paths, not only exempt pairs
        report = sum((report for sg, report in flat if sg is not None), PruneReport())
        assert report.paths_after < report.paths_before
    rows = [[render(sg, report) for sg, report in question] for question in grounded]
    digest = io_utils.sha256_bytes(io_utils.canonical_json(rows).encode())
    assert digest == DIGESTS[(world, prune)]


@pytest.mark.parametrize("world", sorted(CACHE_DIGESTS))
def test_cache_entry_bytes_are_pinned(worlds, tmp_path, world):
    kg, examples, cfg, emb = worlds[world]
    cfg = RunConfig(**{**cfg.to_dict(), "prune": True, "threshold": 0.3})
    pipeline.preprocess(kg, emb, examples, cfg, load_stopwords(None), cache_dir=tmp_path)
    files = dir_bytes(tmp_path)
    assert len(files) == len(examples)
    digest = hashlib.sha256()
    for name, data in files.items():
        digest.update(f"{name.as_posix()}\0{len(data)}\0".encode() + data)
    assert digest.hexdigest() == CACHE_DIGESTS[world]


def counted_searches(monkeypatch) -> list[int]:
    """The source of every ``find_paths`` call from now on, in call order."""
    calls = []
    real = paths.find_paths

    def counting(kg, src, goals, *args, **kwargs):
        calls.append(src)
        return real(kg, src, goals, *args, **kwargs)

    monkeypatch.setattr(paths, "find_paths", counting)
    return calls


def test_one_search_per_question_concept(worlds, monkeypatch):
    # a question's candidates share its question concepts, so each distinct
    # question concept is searched once, against every candidate's answers
    kg, examples, cfg, emb = worlds["toy"]
    stop = load_stopwords(None)
    calls = counted_searches(monkeypatch)
    n_pairs = n_searches = 0
    searched = set()  # the question concepts of questions with any goal
    for ex in examples[:40]:
        calls.clear()
        pipeline.ground_questions(kg, stop, cfg, [ex], emb)
        cq = recognize(ex.question, kg, max_ngram=cfg.max_ngram, stopwords=stop).concepts
        cas = [recognize(c, kg, max_ngram=cfg.max_ngram, stopwords=stop).concepts - cq
               for c in ex.candidates]
        assert sorted(calls) == (sorted(cq) if any(cas) else [])
        n_pairs += len(cq) * sum(map(len, cas))
        n_searches += len(calls)
        searched |= cq if any(cas) else set()
    assert n_pairs >= 3 * n_searches  # a search per pair would cost 3x or more

    # over the list, questions share their question concepts too: one search
    # per distinct question concept with any goal, however many ask it
    calls.clear()
    pipeline.preprocess(kg, emb, examples[:40], cfg, stop)
    assert sorted(calls) == sorted(searched)
    assert len(searched) < n_searches


def test_question_edges_are_listed_once_per_question(worlds, monkeypatch):
    # a question's candidates share the direct edges inside its question set,
    # so they are listed once per question: 3897 of the seed-0 toy world's
    # 6203 neighbour lists, where one listing per candidate made 7485 of 9791
    kg, examples, cfg, emb = worlds["toy"]
    listed, members = [], []
    real_neighbors, real_intra = kg_mod.KnowledgeGraph.neighbors, paths.intra_edges
    monkeypatch.setattr(kg_mod.KnowledgeGraph, "neighbors",
                        lambda self, c: listed.append(c) or real_neighbors(self, c))
    monkeypatch.setattr(paths, "intra_edges",
                        lambda kg, concepts: members.append(len(set(concepts))) or real_intra(
                            kg, concepts))
    grounded = pipeline.ground_questions(kg, load_stopwords(None), cfg, examples, emb)
    n_grounded = sum(sg is not None for question in grounded for sg, _ in question)
    assert len(listed) == 6203
    assert sum(members) == 3897
    # one listing per question with a goal, one per grounded candidate
    assert n_grounded < len(members) <= n_grounded + len(examples)


def test_cold_toy_train_pass_searches_each_question_concept_once(monkeypatch):
    # the seed-1 world's 500 train questions ask 96 distinct question
    # concepts; one search per question made 763 searches
    world = build_toy_world(seed=1)
    calls = counted_searches(monkeypatch)
    pipeline.preprocess(world.kg, None, world.train, replace(RunConfig(), prune=False),
                        load_stopwords(None))
    assert len(calls) == len(set(calls)) == 96


def test_pruning_without_a_table_is_refused(worlds, tmp_path):
    # an unpruned entry must never land in a pruned config's cache namespace
    kg, examples, cfg, _ = worlds["toy"]
    assert cfg.prune
    with pytest.raises(ValueError, match="cfg.prune"):
        pipeline.preprocess(kg, None, examples[:3], cfg, load_stopwords(None),
                            cache_dir=tmp_path)
    assert not list(tmp_path.rglob("*.bin"))
    assert pipeline.ground_questions(kg, load_stopwords(None), replace(cfg, prune=False),
                                     examples[:3], None)


def test_ground_command_output_bytes_are_pinned(tmp_path):
    world = build_toy_world(seed=0)
    kg, dev, out = tmp_path / "kg.bin", tmp_path / "dev.jsonl", tmp_path / "grounded.jsonl"
    world.kg.save(kg)
    save_dataset(dev, world.dev)
    assert main(["ground", "--kg", str(kg), "--dataset", str(dev), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == len(world.dev) == 100
    assert io_utils.sha256_bytes(out.read_bytes()) == GROUND_DIGEST


def test_ground_command_recognizes_each_distinct_text_once(tmp_path, monkeypatch):
    # the 100 dev questions hold 600 texts, 88 of them distinct
    world = build_toy_world(seed=0)
    kg, dev = tmp_path / "kg.bin", tmp_path / "dev.jsonl"
    world.kg.save(kg)
    save_dataset(dev, world.dev)
    texts = []
    real = pipeline.recognize
    monkeypatch.setattr(pipeline, "recognize",
                        lambda text, *args, **kwargs: texts.append(text) or real(
                            text, *args, **kwargs))
    assert main(["ground", "--kg", str(kg), "--dataset", str(dev),
                 "--out", str(tmp_path / "grounded.jsonl")]) == 0
    assert len(texts) == len(set(texts)) == 88
