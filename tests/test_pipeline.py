"""End-to-end pipeline behavior on small worlds."""

import json
import re
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import CACHE_DAMAGE, damage_cache_entry, poison_optimizer_steps

from kgqa import io_utils, pipeline, selfcheck
from kgqa.config import RunConfig
from kgqa.data import QAExample, accuracy, load_dataset
from kgqa.ground import load_stopwords
from kgqa.kg import build_graph
from kgqa.kge import EmbeddingTable, train_transe
from kgqa.model.layers import BiLSTM
from kgqa.model.network import Instance, fallback_rows, fallback_vector
from kgqa.paths import SchemaGraph
from kgqa.pipeline import (ModelState, build_model_state, explain, ground_questions,
                           load_model_state, predict, preprocess, train)
from kgqa.statement import UNK, FeatureStore
from kgqa.toy import EVIDENCE, build_toy_world

GLUE_LINE = json.dumps({
    "id": "q-glue",
    "question": {
        "stem": "where do adults usually keep glue sticks for their work?",
        "choices": [
            {"label": "A", "text": "classroom"},
            {"label": "B", "text": "office"},
            {"label": "C", "text": "desk drawer"},
            {"label": "D", "text": "at school"},
            {"label": "E", "text": "cabinet"},
        ],
    },
    "answerKey": "B",
})


def write_jsonl(path, lines):
    path.write_text("\n".join(lines) + "\n" if lines else "", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def mini():
    """A very small trained world for fast behavioral tests."""
    world = build_toy_world(seed=0, n_train=24, n_dev=10)
    cfg = RunConfig(seed=0, kge_dim=16, kge_epochs=10, kge_lr=0.05,
                    gcn_dims="16,12", lstm_hidden=8, d_t=8, t_hidden=8,
                    score_hidden=8, enc_embed=8, enc_hidden=8, cap=20,
                    epochs=2, patience=2)
    emb, _ = train_transe(world.kg, dim=cfg.kge_dim, margin=cfg.kge_margin,
                          lr=cfg.kge_lr, epochs=cfg.kge_epochs,
                          batch_size=cfg.kge_batch, seed=cfg.seed)
    stop = load_stopwords(None)
    train_inst = preprocess(world.kg, emb, world.train, cfg, stop)
    dev_inst = preprocess(world.kg, emb, world.dev, cfg, stop)
    return SimpleNamespace(world=world, cfg=cfg, emb=emb, stop=stop,
                           train_inst=train_inst, dev_inst=dev_inst)


def fresh_state(mini, **cfg_overrides):
    cfg = RunConfig(**{**mini.cfg.to_dict(), **cfg_overrides})
    return build_model_state(cfg, mini.emb, examples_for_vocab=mini.world.train)


def test_load_dataset_parses_answer_key_to_label(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [GLUE_LINE])
    (ex,) = load_dataset(path)
    assert ex.id == "q-glue"
    assert ex.candidates[1] == "office"
    assert ex.label == 1
    assert ex.candidates[ex.label] == "office"


def test_load_dataset_empty_file(tmp_path):
    path = write_jsonl(tmp_path / "e.jsonl", [])
    assert load_dataset(path) == []


def test_load_dataset_reports_bad_line_number(tmp_path):
    path = write_jsonl(tmp_path / "b.jsonl", [GLUE_LINE, '{"id": "broken"}'])
    with pytest.raises(ValueError, match="b.jsonl:2"):
        load_dataset(path)


def test_load_dataset_rejects_a_repeated_id(tmp_path):
    # instances, cache entries and features are keyed by id: a repeat would
    # score one question on another's instances
    other = json.loads(GLUE_LINE)
    other["question"]["stem"] = "what holds paper together?"
    path = write_jsonl(tmp_path / "d.jsonl", [GLUE_LINE, "", json.dumps(other)])
    with pytest.raises(ValueError, match=r"d\.jsonl:3: duplicate id 'q-glue' \(first on line 1\)"):
        load_dataset(path)


def test_load_dataset_rejects_more_candidates_than_labels(tmp_path):
    row = json.loads(GLUE_LINE)
    row["question"]["choices"] = [{"label": label, "text": f"choice {label}"}
                                  for label in "ABCDEFGHI"]
    path = write_jsonl(tmp_path / "d.jsonl", [json.dumps(row)])
    with pytest.raises(ValueError, match="d.jsonl:1: q-glue: needs 2 to 8 candidates, found 9"):
        load_dataset(path)
    eight = QAExample(id="e", question="q", candidates=list("abcdefgh"), label=7)
    assert eight.to_json_obj()["answerKey"] == "H"


def test_accuracy_scoring_and_empty_error():
    exs = [QAExample(id="a", question="q", candidates=["x", "y"], label=1),
           QAExample(id="b", question="q", candidates=["x", "y"], label=0)]
    assert accuracy({"a": 1, "b": 1}, exs) == 0.5
    with pytest.raises(ValueError, match="no labeled"):
        accuracy({}, [QAExample(id="c", question="q", candidates=["x", "y"])])


# the path table's array fields after node_ids: pairs, paths and steps
TABLE = ("q_rows", "a_rows", "owner", "offsets", "heads", "rels", "signs", "tails")


def test_preprocess_cache_round_trip(mini, tmp_path):
    examples = mini.world.dev[:2]
    first = preprocess(mini.world.kg, mini.emb, examples, mini.cfg,
                       mini.stop, cache_dir=tmp_path)
    cached_files = list(tmp_path.rglob("*.bin"))
    assert cached_files
    second = preprocess(mini.world.kg, mini.emb, examples, mini.cfg,
                        mini.stop, cache_dir=tmp_path)
    assert first.keys() == second.keys()
    for key in first:
        a, b = first[key], second[key]
        assert np.array_equal(a.node_ids, b.node_ids)
        assert a.und_edges == b.und_edges
        assert len(a.q_rows) == len(b.q_rows)
        for name in TABLE:
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_preprocess_of_the_whole_list_equals_one_call_per_question(mini, tmp_path):
    # seven questions, the last three asking the first three's questions again
    # (candidates reversed), so question concepts repeat across the list
    base = mini.world.dev[:4]
    examples = [*base, *(QAExample(f"{ex.id}-again", ex.question, ex.candidates[::-1],
                                   len(ex.candidates) - 1 - ex.label)
                         for ex in base[:3])]

    def run(name, calls):
        out = {}
        for part in calls:
            out.update(preprocess(mini.world.kg, mini.emb, part, mini.cfg, mini.stop,
                                  cache_dir=tmp_path / name))
        return out, {p.relative_to(tmp_path / name): p.read_bytes()
                     for p in sorted((tmp_path / name).rglob("*.bin"))}

    whole, whole_bytes = run("whole", [examples])
    assert len(whole_bytes) == len(examples)
    insts, cache_bytes = run("single", [[ex] for ex in examples])
    assert cache_bytes == whole_bytes
    assert list(insts) == list(whole)
    assert [selfcheck.instance_mismatch(insts[key], whole[key])
            for key in whole] == [None] * len(whole)


def test_preprocess_refuses_more_than_one_job(mini, tmp_path):
    with pytest.raises(ValueError, match="jobs must be 1, got 2"):
        preprocess(mini.world.kg, mini.emb, mini.world.dev[:2], mini.cfg, mini.stop,
                   cache_dir=tmp_path, jobs=2)
    assert not list(tmp_path.rglob("*"))


def test_preprocess_grounds_each_question_once(mini, tmp_path, monkeypatch):
    # a cold pass recognizes the question once and each candidate once,
    # scores a candidate's triples in at most one call, and rebuilds its
    # cover after the search and again only when pruning dropped a path;
    # a warm pass does none of it
    base = mini.world.train[0]
    ex = QAExample(id="counted", question=base.question,
                   candidates=[*base.candidates, "zzzyqx qwerton"], label=0)
    counts = {"recognize": 0, "triple_confidence": 0, "rebuild_cover": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "recognize", counting("recognize", pipeline.recognize))
    monkeypatch.setattr(EmbeddingTable, "triple_confidence",
                        counting("triple_confidence", EmbeddingTable.triple_confidence))
    monkeypatch.setattr(SchemaGraph, "rebuild_cover",
                        counting("rebuild_cover", SchemaGraph.rebuild_cover))
    cold = preprocess(mini.world.kg, mini.emb, [ex], mini.cfg, mini.stop,
                      cache_dir=tmp_path)
    (entry,) = tmp_path.rglob("*.bin")
    meta = io_utils.read_container(entry, kind="instance")[0]
    payloads = [{"ungrounded": u, "prune": p}
                for u, p in zip(meta["ungrounded"], meta["prune"], strict=True)]
    grounded = [p for p in payloads if not p["ungrounded"]]
    dropped = [p for p in grounded
               if p["prune"]["paths_after"] < p["prune"]["paths_before"]]
    assert len(payloads) == len(ex.candidates)
    assert 0 < len(grounded) < len(payloads)
    assert 0 < len(dropped) < len(grounded)
    assert counts["recognize"] == 1 + len(ex.candidates)
    assert 0 < counts["triple_confidence"] <= len(grounded)
    assert counts["rebuild_cover"] == len(grounded) + len(dropped)

    counts.update(dict.fromkeys(counts, 0))
    warm = preprocess(mini.world.kg, mini.emb, [ex], mini.cfg, mini.stop,
                      cache_dir=tmp_path)
    assert counts == dict.fromkeys(counts, 0)
    assert list(warm) == list(cold)


@pytest.fixture(scope="module")
def pathless():
    """One question over a four-concept graph in which "stone" has no edge:
    candidate 0 grounds with a path for one pair and none for the other,
    candidate 1 likewise over two hops, and candidate 2 grounds to nothing."""
    kg = build_graph(["apple", "tree", "river", "stone"], ["near"],
                     [(0, 0, 1), (1, 0, 2)], np.ones(2))
    rng = np.random.default_rng(0)
    emb = EmbeddingTable(ent=rng.standard_normal((4, 4)),
                         rel=rng.standard_normal((1, 4)), gamma=2.0)
    cfg = RunConfig(seed=3, kge_dim=4, gcn_dims="4", lstm_hidden=3, cap=5)
    ex = QAExample(id="pathless", question="apple stone",
                   candidates=["tree", "river", "zzzyqx"], label=1)
    return SimpleNamespace(kg=kg, emb=emb, cfg=cfg, ex=ex, stop=frozenset())


def pathless_preprocess(world, cache_dir=None):
    return preprocess(world.kg, world.emb, [world.ex], world.cfg, world.stop,
                      cache_dir=cache_dir)


def test_cold_warm_and_uncached_instances_are_equal(pathless, tmp_path):
    uncached = pathless_preprocess(pathless)
    cold = pathless_preprocess(pathless, tmp_path)
    warm = pathless_preprocess(pathless, tmp_path)
    insts = list(uncached.values())
    assert [inst.ungrounded for inst in insts] == [False, False, True]
    assert [len(fallback_rows([inst], pathless.cfg.d_path, pathless.cfg.seed))
            for inst in insts] == [1, 1, 1]
    assert all(len(inst.owner) > 0 for inst in insts[:2])
    assert [inst.label for inst in insts] == [0, 1, 0]
    assert list(cold) == list(warm) == list(uncached)
    for key, inst in uncached.items():
        assert selfcheck.instance_mismatch(inst, cold[key]) is None
        assert selfcheck.instance_mismatch(inst, warm[key]) is None
    # the comparison sees a dtype, and an int type inside und_edges
    inst = insts[0]
    assert selfcheck.instance_mismatch(
        inst, replace(inst, heads=inst.heads.astype(np.int32))) == "heads"
    assert selfcheck.instance_mismatch(inst, replace(
        inst, und_edges=[(np.int64(a), b) for a, b in inst.und_edges])) == "und_edges"


def test_pathless_pairs_draw_their_fallback_rows_by_concept(pathless):
    # concepts apple 0, tree 1, river 2, stone 3: stone has no path to either
    # answer, and candidate 2 is the ungrounded anchor
    insts = list(pathless_preprocess(pathless).values())
    d_path, seed = pathless.cfg.d_path, pathless.cfg.seed
    assert seed == 3
    want = [fallback_vector(d_path, 3, "pathless", 0, 3, 1),
            fallback_vector(d_path, 3, "pathless", 1, 3, 2),
            fallback_vector(d_path, 3, "pathless", 2, "anchor")]
    for ci, inst in enumerate(insts):
        assert np.array_equal(fallback_rows([inst], d_path, seed), want[ci:ci + 1])
    assert np.array_equal(fallback_rows(insts, d_path, seed), want)


def test_cache_entry_holds_the_prune_report(pathless, tmp_path):
    pathless_preprocess(pathless, tmp_path)
    (entry,) = tmp_path.rglob("*.bin")
    meta = io_utils.read_container(entry, kind="instance")[0]
    (grounded,) = ground_questions(pathless.kg, pathless.stop, pathless.cfg,
                                   [pathless.ex], pathless.emb)
    assert meta["prune"] == [None if report is None else report.to_dict()
                             for _, report in grounded]
    assert meta["ungrounded"] == [False, False, True]


@pytest.mark.parametrize("how", [*CACHE_DAMAGE, "miscounted"])
def test_bad_cache_entry_is_named(pathless, tmp_path, how):
    pathless_preprocess(pathless, tmp_path)
    entry = sorted(tmp_path.rglob("*.bin"))[0]
    if how == "miscounted":  # counts that do not add up to the ints block
        meta, blocks = io_utils.read_container(entry)
        meta["counts"]["nodes"][1] += 1
        io_utils.write_container(entry, "instance", meta, blocks)
    else:
        damage_cache_entry(entry, how)
    with pytest.raises(io_utils.ContainerError, match=re.escape(str(entry))):
        pathless_preprocess(pathless, tmp_path)


def two_candidate_entry():
    """Candidate 0: one question concept, two answer concepts, paths of one
    and two steps; candidate 1: the ungrounded anchor. The graph they come
    from has ``TWO_CANDIDATE_GRAPH`` concepts and relations."""
    sg = SchemaGraph(
        cq=[0], ca=[1, 2], nodes=[0, 1, 2], edges=[(0, 0, 1), (1, 0, 2), (0, 0, 2)],
        paths={(0, 0): [((0, False, 1),)],
               (0, 1): [((0, False, 2),), ((0, False, 1), (0, True, 2))]})
    cands = [pipeline.instance_from_schema_graph(sg, "q", 0),
             pipeline.instance_from_schema_graph(None, "q", 1)]
    assert cands[0].owner.tolist() == [0, 1, 1]
    assert cands[0].offsets.tolist() == [0, 1, 2, 4]
    return cands


TWO_CANDIDATE_GRAPH = (3, 1)


def set_index(inst, field, i, value):
    """Write ``value`` at ``i`` of a copy of ``field``, skipping the checks
    an Instance runs when it is built."""
    if field == "und_edges":
        inst.und_edges = [*inst.und_edges[:i], value, *inst.und_edges[i + 1:]]
    else:
        arr = getattr(inst, field).copy()
        arr[i] = value
        setattr(inst, field, arr)


@pytest.mark.parametrize("cand,field,i,value,problem", [
    (0, "q_rows", 0, 3, "candidate 0: q_rows holds 3, outside its node range [0, 3)"),
    (0, "a_rows", 1, -1, "candidate 0: a_rows holds -1, outside its node range [0, 3)"),
    (0, "heads", 3, 99, "candidate 0: heads holds 99, outside its node range [0, 3)"),
    (0, "tails", 0, 3, "candidate 0: tails holds 3, outside its node range [0, 3)"),
    (0, "und_edges", 1, (1, 3),
     "candidate 0: und_edges holds 3, outside its node range [0, 3)"),
    (1, "q_rows", 0, 1, "candidate 1: q_rows holds 1, outside its node range [0, 1)"),
    (0, "owner", 2, 2, "candidate 0: owner holds 2, outside its pair range [0, 2)"),
    (0, "owner", 2, 0, "owner is not sorted"),
    (0, "offsets", 0, 1, "offsets do not run from 0 to the step count"),
    (0, "offsets", 3, 3, "offsets do not run from 0 to the step count"),
    (1, "offsets", 0, 1, "offsets do not run from 0 to the step count"),
    (0, "offsets", 2, 0, "offsets decrease"),
    (0, "offsets", 2, 1, "a path has no steps"),
    (0, "node_ids", 1, -1, "candidate 0: node_ids holds -1, outside its concept range [0, 3)"),
    (1, "node_ids", 0, 3, "candidate 1: node_ids holds 3, outside its concept range [0, 3)"),
    (0, "rels", 3, -2, "candidate 0: rels holds -2, outside its relation range [0, 1)"),
    (0, "rels", 0, 10**6,
     "candidate 0: rels holds 1000000, outside its relation range [0, 1)"),
])
def test_cache_entry_index_outside_its_table_is_named(tmp_path, cand, field, i, value,
                                                      problem):
    path = tmp_path / "entry.bin"
    cands = two_candidate_entry()
    pipeline.write_cache_entry(path, cands, [None, None])
    got = pipeline.read_cache_entry(path, "q", 2, *TWO_CANDIDATE_GRAPH)
    assert [selfcheck.instance_mismatch(a, b) for a, b in zip(cands, got)] == [None] * 2
    set_index(cands[cand], field, i, value)
    pipeline.write_cache_entry(path, cands, [None, None])
    with pytest.raises(io_utils.ContainerError,
                       match=f"^{re.escape(f'{path}: {problem}')}$"):
        pipeline.read_cache_entry(path, "q", 2, *TWO_CANDIDATE_GRAPH)


def test_cache_entry_with_a_sign_other_than_one_or_minus_one_is_named(tmp_path):
    # signs of 0.5 used to be read and scored
    path = tmp_path / "entry.bin"
    cands = two_candidate_entry()
    cands[0].signs = np.full_like(cands[0].signs, 0.5)
    pipeline.write_cache_entry(path, cands, [None, None])
    with pytest.raises(io_utils.ContainerError,
                       match=f"^{re.escape(f'{path}: ')}block 'signs' holds a sign "
                             "other than 1 or -1$"):
        pipeline.read_cache_entry(path, "q", 2, *TWO_CANDIDATE_GRAPH)


def test_cache_entry_with_the_older_fallback_block_still_reads(tmp_path):
    # earlier entries also stored one float64 row per pathless pair
    path = tmp_path / "entry.bin"
    cands = two_candidate_entry()
    pipeline.write_cache_entry(path, cands, [None, None])
    meta, blocks = io_utils.read_container(path)
    meta["counts"]["fallbacks"] = [0, 1]
    io_utils.write_container(path, "instance", meta, {**blocks, "fallback": np.ones((1, 4))})
    got = pipeline.read_cache_entry(path, "q", 2, *TWO_CANDIDATE_GRAPH)
    assert [selfcheck.instance_mismatch(a, b) for a, b in zip(cands, got)] == [None] * 2


# the graph sizes of selfcheck.random_instance's defaults
RANDOM_GRAPH = (6, 3)


def index_problem(inst) -> bool:
    """Per-candidate loop reference of the checks a cache entry's read runs
    on its indices, for an entry of a graph of ``RANDOM_GRAPH`` sizes."""
    n, n_pairs = inst.n_nodes, len(inst.q_rows)
    rows = [*inst.q_rows, *inst.a_rows, *inst.heads, *inst.tails,
            *(r for edge in inst.und_edges for r in edge)]
    owner, offsets = inst.owner.tolist(), inst.offsets.tolist()
    n_concepts, n_relations = RANDOM_GRAPH
    return not (all(0 <= r < n for r in rows)
                and all(0 <= c < n_concepts for c in inst.node_ids)
                and all(0 <= r < n_relations for r in inst.rels)
                and all(0 <= o < n_pairs for o in owner) and owner == sorted(owner)
                and offsets[0] == 0 and offsets[-1] == len(inst.heads)
                and all(a < b for a, b in zip(offsets, offsets[1:])))


def test_cache_index_checks_equal_a_per_candidate_loop(tmp_path):
    rng = np.random.default_rng(17)
    path = tmp_path / "entry.bin"
    fields = ("q_rows", "a_rows", "heads", "tails", "und_edges", "owner", "offsets",
              "node_ids", "rels")
    n_bad = 0
    for trial in range(300):
        cands = [replace(selfcheck.random_instance(
            rng, selfcheck.CHECK_CONFIG, selfcheck.CHECK_D_S)[0],
            example_id="q", cand_index=ci) for ci in range(int(rng.integers(1, 5)))]
        inst = cands[int(rng.integers(len(cands)))]
        field = fields[int(rng.integers(len(fields)))]
        size = len(getattr(inst, field))
        if size:
            i = int(rng.integers(size))
            if field == "und_edges":
                value = (inst.und_edges[i][0], int(rng.integers(-2, inst.n_nodes + 2)))
            else:
                old = int(getattr(inst, field)[i])
                value = old + int(rng.choice([-2, -1, 1, 2]))
            set_index(inst, field, i, value)
        want = any(index_problem(c) for c in cands)
        n_bad += want
        pipeline.write_cache_entry(path, cands, [None] * len(cands))
        try:
            pipeline.read_cache_entry(path, "q", len(cands), *RANDOM_GRAPH)
            got = False
        except io_utils.ContainerError:
            got = True
        assert got == want, (trial, field)
    assert 0 < n_bad < 300


def test_cache_entry_of_another_candidate_count_is_named(pathless, tmp_path):
    pathless_preprocess(pathless, tmp_path)
    (entry,) = tmp_path.rglob("*.bin")
    fewer = SimpleNamespace(**{**vars(pathless), "ex": replace(
        pathless.ex, candidates=["tree", "river"])})
    with pytest.raises(io_utils.ContainerError,
                       match=f"^{re.escape(str(entry))}: entry holds 3 candidates, "
                             "example 'pathless' has 2$"):
        pathless_preprocess(fewer, tmp_path)


def test_cache_entry_of_a_larger_graph_is_named(pathless, tmp_path):
    # preprocess checks an entry's concept ids against the graph it is given
    pathless_preprocess(pathless, tmp_path)
    (entry,) = tmp_path.rglob("*.bin")
    smaller = SimpleNamespace(**{**vars(pathless), "kg": build_graph(
        ["apple", "tree", "river"], ["near"], [(0, 0, 1), (1, 0, 2)], np.ones(2))})
    with pytest.raises(io_utils.ContainerError,
                       match=f"^{re.escape(str(entry))}: candidate 0: node_ids holds 3, "
                             r"outside its concept range \[0, 3\)$"):
        pathless_preprocess(smaller, tmp_path)


def test_cold_pass_writes_one_entry_per_question(mini, tmp_path):
    examples = mini.world.dev[:3]
    preprocess(mini.world.kg, mini.emb, examples, mini.cfg, mini.stop,
               cache_dir=tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [mini.cfg.hash()]
    names = sorted(p.name for p in (tmp_path / mini.cfg.hash()).iterdir())
    assert names == sorted(io_utils.sha256_bytes(ex.id.encode())[:24] + ".bin"
                           for ex in examples)


def test_per_candidate_entries_are_ignored(pathless, tmp_path):
    root = tmp_path / pathless.cfg.hash()
    root.mkdir()
    stem = io_utils.sha256_bytes(pathless.ex.id.encode())[:24]
    old = {root / f"{stem}_{ci}.bin": b"not read" for ci in range(3)}
    for path, data in old.items():
        path.write_bytes(data)
    uncached = pathless_preprocess(pathless)
    cached = pathless_preprocess(pathless, tmp_path)
    for key, inst in uncached.items():
        assert selfcheck.instance_mismatch(inst, cached[key]) is None
    assert {path: path.read_bytes() for path in old} == old
    assert sorted(p.name for p in root.iterdir()) == \
        sorted([stem + ".bin", *(p.name for p in old)])


def test_cache_round_trip_suite_catches_a_lossy_reader(monkeypatch):
    assert selfcheck.cache_round_trip_suite(n_instances=5).passed

    def lossy(*args, **kwargs):
        insts = pipeline.read_cache_entry(*args, **kwargs)
        for inst in insts:
            inst.und_edges = [(np.int64(a), np.int64(b)) for a, b in inst.und_edges]
        return insts

    monkeypatch.setattr(selfcheck, "read_cache_entry", lossy)
    result = selfcheck.cache_round_trip_suite(n_instances=5)
    assert not result.passed
    assert "und_edges differs" in result.detail


@pytest.mark.parametrize("key,value", [
    ("max_ngram", 0), ("max_edges", 0), ("cap", 0), ("threshold", float("nan")),
    ("threshold", float("inf")), ("threshold", -0.1), ("threshold", 1.5)])
def test_bad_grounding_setting_is_rejected_wherever_a_config_is_built(
        mini, tmp_path, key, value):
    message = f"^{key} must be"
    with pytest.raises(ValueError, match=message):
        RunConfig(**{key: value})
    with pytest.raises(ValueError, match=message):
        replace(mini.cfg, **{key: value})
    path = tmp_path / "model.bin"
    fresh_state(mini).save(path)
    meta, blocks = io_utils.read_container(path, kind="model")
    meta["run_config"][key] = value
    io_utils.write_container(path, "model", meta, blocks)
    with pytest.raises(io_utils.ContainerError,
                       match=f"^{re.escape(str(path))}: meta 'run_config' {key} must be"):
        load_model_state(path, mini.emb)


@pytest.mark.parametrize("key, value, type_name", [
    ("max_edges", "3", "int"), ("max_edges", 3.0, "int"), ("seed", True, "int"),
    ("threshold", True, "float"), ("threshold", "0.5", "float"), ("prune", 1, "bool"),
    ("gcn_dims", 8, "str")])
def test_a_config_value_of_another_type_is_named(key, value, type_name):
    # a library caller's value fails by name, as a config file's does
    with pytest.raises(ValueError, match=re.escape(
            f"key {key!r} is {value!r}, not of type {type_name}")):
        RunConfig(**{key: value})


def test_grounding_bounds_are_accepted_and_the_config_hash_is_unchanged():
    for threshold in (0, 0.0, 1.0):
        RunConfig(max_ngram=1, max_edges=1, cap=1, threshold=threshold)
    assert RunConfig().hash() == "999ea1ce0d7c5820"


def test_config_hash_follows_every_set_key():
    cfg = RunConfig()
    assert cfg.hash() == "999ea1ce0d7c5820"
    with pytest.raises(FrozenInstanceError):
        cfg.prune = False
    assert cfg.hash() == "999ea1ce0d7c5820"
    unpruned = replace(cfg, prune=False)
    assert unpruned.hash() == RunConfig(prune=False).hash() != "999ea1ce0d7c5820"
    assert replace(unpruned, prune=True).hash() == "999ea1ce0d7c5820"
    assert replace(cfg, lr=0.5).hash() == RunConfig(lr=0.5).hash()
    assert cfg == RunConfig() and cfg.to_dict() == RunConfig().to_dict()


def test_ungroundable_candidate_becomes_flagged_anchor(mini):
    ex = QAExample(id="weird", question=mini.world.train[0].question,
                   candidates=["zzzyqx qwerton", mini.world.train[0].candidates[0]],
                   label=1)
    inst = preprocess(mini.world.kg, mini.emb, [ex], mini.cfg, mini.stop)
    anchor = inst[("weird", 0)]
    assert anchor.ungrounded
    assert anchor.n_nodes == 1
    assert len(anchor.q_rows) == 1 and len(anchor.owner) == 0
    assert np.array_equal(fallback_rows([anchor], mini.cfg.d_path, mini.cfg.seed),
                          [fallback_vector(mini.cfg.d_path, mini.cfg.seed, "weird", 0,
                                           "anchor")])
    assert inst[("weird", 1)].ungrounded is False


def test_zero_epochs_leaves_weights_at_init(mini):
    state = fresh_state(mini, epochs=0)
    before = {k: v.copy() for k, v in state.params().items()}
    result = train(state, mini.world.train, mini.world.dev,
                   mini.train_inst, mini.dev_inst)
    assert result.metrics == []
    for k, v in state.params().items():
        assert np.array_equal(before[k], v)


def test_same_seed_training_reproduces_metrics(mini):
    logs = []
    r1 = train(fresh_state(mini), mini.world.train, mini.world.dev,
               mini.train_inst, mini.dev_inst, log=logs.append)
    r2 = train(fresh_state(mini), mini.world.train, mini.world.dev,
               mini.train_inst, mini.dev_inst)
    assert r1.metrics_csv() == r2.metrics_csv()
    assert len(logs) == len(r1.metrics)
    assert all(isinstance(line, str) and "epoch" in line for line in logs)


def test_non_finite_loss_aborts_with_example_id(mini):
    state = fresh_state(mini)
    state.net.W1[0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite loss on example"):
        train(state, mini.world.train, mini.world.dev,
              mini.train_inst, mini.dev_inst)


@pytest.mark.parametrize("what", ["parameter", "dev score"])
def test_training_refuses_a_non_finite_model(mini, monkeypatch, what):
    # one batch per epoch, so the bad weight is never seen by a loss
    state = fresh_state(mini, batch_examples=len(mini.world.train))
    if what == "parameter":
        poison_optimizer_steps(monkeypatch)
    else:
        real = pipeline.predict
        monkeypatch.setattr(pipeline, "predict", lambda *args: [
            replace(p, scores=[np.nan] * len(p.scores)) for p in real(*args)])
    with pytest.raises(FloatingPointError, match=f"non-finite {what}.* after epoch 1$"):
        train(state, mini.world.train, mini.world.dev, mini.train_inst, mini.dev_inst)


def test_training_refuses_a_dev_set_without_labels_before_an_epoch(mini, monkeypatch):
    state = fresh_state(mini)
    unlabeled = [replace(ex, label=None) for ex in mini.world.dev]
    monkeypatch.setattr(pipeline, "_example_forward", lambda *args: pytest.fail("scored"))
    with pytest.raises(ValueError, match=r"dev set \(--dev\) has no labeled example"):
        train(state, mini.world.train, unlabeled, mini.train_inst, mini.dev_inst)


def test_exact_tie_chooses_lowest_index(mini):
    state = fresh_state(mini)
    for name, p in state.net.params().items():
        if name.startswith("score_mlp."):
            p[:] = 0
    preds = predict(state, mini.world.dev[:3], mini.dev_inst)
    for p in preds:
        assert len(set(p.scores)) == 1
        assert p.chosen == 0
        assert p.to_json_obj()["answer"] == "A"


def test_untrained_model_scores_near_chance(toy_run):
    state = build_model_state(toy_run.cfg, toy_run.emb,
                              examples_for_vocab=toy_run.world.train)
    acc = accuracy({p.example_id: p.chosen for p in predict(
        state, toy_run.world.dev, toy_run.dev_inst)}, toy_run.world.dev)
    assert 0.05 <= acc <= 0.45  # 5 candidates, chance 0.2


def test_candidate_score_independent_of_other_candidates(mini):
    # one pass over a question's candidates may round differently from a
    # pass of one (a row block of a matrix product need not equal the product
    # of the block in the last bits), so the referee is 1e-12
    state = fresh_state(mini)
    ex, others = mini.world.dev[0], mini.world.dev[1:5]
    cands = range(len(ex.candidates))
    own = mini.dev_inst[(ex.id, 0)]
    alone = state.forward(ex, [0], [own])[0]
    (pred,) = predict(state, [ex], mini.dev_inst)
    swapped = [own] + [mini.dev_inst[(q.id, ci)] for q, ci in zip(others, cands[1:])]
    mixed = state.forward(ex, cands, swapped)[0]
    assert pred.scores[0] == pytest.approx(alone.score[0], abs=1e-12, rel=0)
    assert mixed.score[0] == pytest.approx(alone.score[0], abs=1e-12, rel=0)
    assert mixed.raw[0] == pytest.approx(alone.raw[0], abs=1e-12, rel=0)


def test_one_bilstm_run_per_pass_per_question(mini, monkeypatch):
    # a question's train step and its prediction each run the path BiLSTM
    # once and the statement BiLSTM once, over all candidates together, as
    # one packed batch of every path or token sequence
    state = fresh_state(mini, epochs=1)
    ex = mini.world.train[0]
    insts = [mini.train_inst[(ex.id, ci)] for ci in range(len(ex.candidates))]
    n_paths = sum(len(inst.owner) for inst in insts)
    assert len(set(np.concatenate([np.diff(inst.offsets) for inst in insts]).tolist())) > 1
    calls = []
    real = BiLSTM.forward

    def counting(self, table, index, offsets):
        calls.append(len(offsets) - 1)
        return real(self, table, index, offsets)

    monkeypatch.setattr(BiLSTM, "forward", counting)
    train(state, [ex], [ex], mini.train_inst, mini.train_inst)
    # the train step, then the dev evaluation: statements, then paths
    assert calls == 2 * [len(ex.candidates), n_paths]
    calls.clear()
    predict(state, [ex], mini.train_inst)
    assert calls == [len(ex.candidates), n_paths]


def test_bilstm_tables_hold_one_row_per_distinct_token_and_step(mini, monkeypatch):
    # the statement run reads one embedding row per distinct token, the path
    # run one input row per distinct (head, rel, sign, tail) step
    state = fresh_state(mini)
    ex = mini.world.train[0]
    inst = Instance.concat([mini.train_inst[(ex.id, ci)] for ci in range(len(ex.candidates))])
    seen = []
    real = BiLSTM.forward

    def recording(self, table, index, offsets):
        seen.append((table, index, offsets))
        return real(self, table, index, offsets)

    monkeypatch.setattr(BiLSTM, "forward", recording)
    predict(state, [ex], mini.train_inst)
    (words, word_index, _), (steps, step_index, step_offsets) = seen

    ids = np.concatenate([state.encoder.token_ids(ex.question, c) for c in ex.candidates])
    assert len(words) == len(set(ids.tolist())) < len(ids)
    assert np.array_equal(words[word_index], state.encoder.emb[ids])

    keys = list(zip(inst.heads.tolist(), inst.rels.tolist(), inst.signs.tolist(),
                    inst.tails.tolist()))
    assert np.array_equal(step_offsets, inst.offsets)
    assert len(steps) == len(set(keys)) < len(keys)
    # equal steps read one row and distinct steps distinct rows
    assert len(set(zip(keys, step_index.tolist()))) == len(steps)
    assert sorted(set(step_index.tolist())) == list(range(len(steps)))


def test_prediction_json_shape(mini):
    state = fresh_state(mini)
    ex = mini.world.dev[0]
    (pred,) = predict(state, [ex], mini.dev_inst)
    obj = pred.to_json_obj()
    assert obj["id"] == ex.id
    assert len(obj["scores"]) == len(ex.candidates)
    assert obj["chosen"] == int(np.argmax(pred.scores))
    assert obj["answer"] == "ABCDE"[obj["chosen"]]
    assert "ungrounded_candidates" not in obj


def test_explain_matches_trace_and_normalizes(mini):
    state = fresh_state(mini)
    ex = mini.world.dev[1]
    ci = ex.label
    inst = mini.dev_inst[(ex.id, ci)]
    report = explain(state, mini.world.kg, ex, ci, inst,
                     top_pairs=len(inst.q_rows), top_paths=50)
    trace, _ = state.forward(ex, [ci], [inst])
    assert report["score"] == pytest.approx(trace.score[0], rel=1e-12)
    assert report["candidate_text"] == ex.candidates[ci]
    total_beta = sum(p["beta"] for p in report["pairs"])
    assert total_beta == pytest.approx(1.0, abs=1e-6)
    for pair in report["pairs"]:
        if pair["n_paths"] == 1:
            assert pair["paths"][0]["alpha"] == pytest.approx(1.0, abs=1e-9)
        for path in pair["paths"]:
            assert path["rendering"].startswith("(")
            assert len(path["steps"]) >= 1


@pytest.mark.parametrize("top_pairs, top_paths", [(0, 2), (-1, 2), (3, 0), (3, -2)])
def test_explain_rejects_top_counts_below_one(mini, top_pairs, top_paths):
    state = fresh_state(mini)
    ex = mini.world.dev[0]
    with pytest.raises(ValueError, match="at least 1"):
        explain(state, mini.world.kg, ex, 0, mini.dev_inst[(ex.id, 0)],
                top_pairs=top_pairs, top_paths=top_paths)


def test_toy_explanations_surface_planted_evidence(toy_run):
    state = toy_run.state
    world = toy_run.world
    correct, evidenced = 0, 0
    preds = {p.example_id: p.chosen for p in predict(state, world.dev, toy_run.dev_inst)}
    for ex in world.dev:
        if preds[ex.id] != ex.label:
            continue
        correct += 1
        inst = toy_run.dev_inst[(ex.id, ex.label)]
        report = explain(state, world.kg, ex, ex.label, inst,
                         top_pairs=1, top_paths=1)
        steps = report["pairs"][0]["paths"][0]["steps"]
        if all(rel == EVIDENCE and not rev for rel, rev, _ in steps):
            evidenced += 1
    assert correct > 0
    assert evidenced / correct >= 0.80


def test_model_state_save_load_round_trip(mini, tmp_path):
    state = fresh_state(mini)
    train(state, mini.world.train[:8], mini.world.dev[:4],
          mini.train_inst, mini.dev_inst)
    path = tmp_path / "model.bin"
    state.save(path)
    loaded = load_model_state(path, mini.emb)
    p1 = predict(state, mini.world.dev, mini.dev_inst)
    p2 = predict(loaded, mini.world.dev, mini.dev_inst)
    for a, b in zip(p1, p2):
        assert a.scores == b.scores
        assert a.chosen == b.chosen


def test_checkpoint_stores_vocab_once_and_loads_older_layout(mini, tmp_path):
    state = fresh_state(mini)
    train(state, mini.world.train[:8], mini.world.dev[:4],
          mini.train_inst, mini.dev_inst)
    new_path = tmp_path / "model.bin"
    state.save(new_path)
    meta, blocks = io_utils.read_container(new_path, kind="model")
    assert "vocab" not in meta
    assert meta["enc_meta"] == {"vocab": state.encoder.vocab}
    # the older layout also carried a top-level copy of the vocabulary, and
    # the encoder widths that run_config's enc_embed/enc_hidden hold
    old_path = tmp_path / "model-old.bin"
    enc_meta = {**meta["enc_meta"], "d_embed": state.cfg.enc_embed,
                "d_hidden": state.cfg.enc_hidden}
    io_utils.write_container(old_path, "model",
                             {**meta, "vocab": enc_meta["vocab"], "enc_meta": enc_meta},
                             blocks)
    want = predict(state, mini.world.dev, mini.dev_inst)
    for path in (new_path, old_path):
        got = predict(load_model_state(path, mini.emb), mini.world.dev, mini.dev_inst)
        for a, b in zip(want, got):
            assert a.scores == b.scores
            assert a.chosen == b.chosen


@pytest.mark.parametrize("key, value", [("d_s", 128), ("encoder", "toy"), ("loss", "bce")])
def test_checkpoint_with_retired_run_config_key_loads(mini, tmp_path, key, value):
    state = fresh_state(mini)
    train(state, mini.world.train[:8], mini.world.dev[:4],
          mini.train_inst, mini.dev_inst)
    path = tmp_path / "model.bin"
    state.save(path)
    meta, blocks = io_utils.read_container(path, kind="model")
    assert key not in meta["run_config"]
    # older checkpoints carried run_config fields nothing reads any more
    old_path = tmp_path / "model-old.bin"
    io_utils.write_container(
        old_path, "model", {**meta, "run_config": {**meta["run_config"], key: value}},
        blocks)
    loaded = load_model_state(old_path, mini.emb)
    assert loaded.cfg == state.cfg
    want = predict(state, mini.world.dev, mini.dev_inst)
    got = predict(loaded, mini.world.dev, mini.dev_inst)
    for a, b in zip(want, got):
        assert a.scores == b.scores
        assert a.chosen == b.chosen


def feature_store(mini, width=6):
    keys = {}
    for ex in mini.world.train + mini.world.dev:
        for ci in range(len(ex.candidates)):
            keys[(ex.id, ci)] = len(keys)
    return FeatureStore(keys, np.random.default_rng(3).standard_normal((len(keys), width)))


@pytest.mark.parametrize("encoder", ["toy", "features"])
def test_checkpoint_with_model_config_key_loads(mini, tmp_path, encoder):
    features = feature_store(mini) if encoder == "features" else None
    cfg = mini.cfg
    state = build_model_state(cfg, mini.emb, examples_for_vocab=mini.world.train,
                              features=features)
    assert (state.encoder is None) == (features is not None)
    train(state, mini.world.train[:8], mini.world.dev[:4],
          mini.train_inst, mini.dev_inst)
    path = tmp_path / "model.bin"
    state.save(path)
    meta, blocks = io_utils.read_container(path, kind="model")
    assert "model_config" not in meta
    # older checkpoints also described the network a second time
    model_config = {
        "d_node": cfg.kge_dim, "gcn_dims": list(cfg.gcn_layers), "d_rel": cfg.kge_dim,
        "lstm_hidden": cfg.lstm_hidden, "d_t": cfg.d_t, "t_hidden": cfg.t_hidden,
        "d_s": state.d_s, "score_hidden": cfg.score_hidden,
        "path_attention": cfg.path_attention, "pair_attention": cfg.pair_attention,
        "train_rel_emb": cfg.train_rel_emb, "train_node_emb": cfg.train_node_emb}
    old_path = tmp_path / "model-old.bin"
    io_utils.write_container(old_path, "model", {**meta, "model_config": model_config},
                             blocks)
    want = predict(state, mini.world.dev, mini.dev_inst)
    got = predict(load_model_state(old_path, mini.emb, features=features),
                  mini.world.dev, mini.dev_inst)
    for a, b in zip(want, got):
        assert a.scores == b.scores
        assert a.chosen == b.chosen


def test_checkpoint_missing_block_is_named(mini, tmp_path):
    path = tmp_path / "model.bin"
    fresh_state(mini).save(path)
    meta, blocks = io_utils.read_container(path, kind="model")
    del blocks["net.W1"]
    io_utils.write_container(path, "model", meta, blocks)
    with pytest.raises(io_utils.ContainerError,
                       match=f"^{re.escape(str(path))}: missing block 'net.W1'$"):
        load_model_state(path, mini.emb)


@pytest.mark.parametrize("key, value, message", [
    ("run_config", None, "missing meta key 'run_config'"),
    ("encoder", None, "missing meta key 'encoder'"),
    ("enc_meta", None, "missing meta key 'enc_meta'"),
    ("run_config", "x", "meta 'run_config' is 'x', not an object"),
    ("encoder", "bogus", "meta 'encoder' is 'bogus', not 'toy' or 'features'"),
])
def test_checkpoint_with_malformed_meta_is_named(mini, tmp_path, key, value, message):
    path = tmp_path / "model.bin"
    fresh_state(mini).save(path)
    meta, blocks = io_utils.read_container(path, kind="model")
    meta[key] = value
    if value is None:
        del meta[key]
    io_utils.write_container(path, "model", meta, blocks)
    with pytest.raises(io_utils.ContainerError, match=re.escape(f"{path}: {message}")):
        load_model_state(path, mini.emb)


def _set_first_vocab_id(value):
    def change(meta):
        vocab = meta["enc_meta"]["vocab"]
        vocab[min(vocab)] = value
    return change


@pytest.mark.parametrize("change, message", [
    (lambda meta: meta["run_config"].update(bogus=1),
     "meta 'run_config' key 'bogus' is 1, not a config key"),
    (lambda meta: meta["run_config"].update(lstm_hidden="4"),
     "meta 'run_config' key 'lstm_hidden' is '4', not of type int"),
    (lambda meta: meta["run_config"].update(lstm_hidden=float("nan")),
     "meta 'run_config' key 'lstm_hidden' is nan, not of type int"),
    (lambda meta: meta.update(enc_meta="x"),
     "meta 'enc_meta' has no 'vocab' object of integer ids"),
    (lambda meta: meta.update(enc_meta={}),
     "meta 'enc_meta' has no 'vocab' object of integer ids"),
    (_set_first_vocab_id("x"), "meta 'enc_meta' has no 'vocab' object of integer ids"),
    (_set_first_vocab_id(1.5), "meta 'enc_meta' has no 'vocab' object of integer ids"),
    (_set_first_vocab_id(True), "meta 'enc_meta' has no 'vocab' object of integer ids"),
    (_set_first_vocab_id(-1), "meta 'enc_meta' has no 'vocab' object of integer ids"),
    (_set_first_vocab_id(1), "meta 'enc_meta' has no 'vocab' object of integer ids"),
    (lambda meta: meta["enc_meta"]["vocab"].update({"zzz": meta["enc_meta"]["vocab"].pop(UNK)}),
     "meta 'enc_meta' has no 'vocab' object of integer ids"),
], ids=["unknown-key", "width-string", "width-nan", "enc-meta-string",
        "enc-meta-without-vocab", "vocab-id-string", "vocab-id-float", "vocab-id-bool",
        "vocab-id-negative", "vocab-id-repeated", "vocab-without-unknown-word"])
def test_checkpoint_with_malformed_nested_meta_is_named(mini, tmp_path, change, message):
    path = tmp_path / "model.bin"
    fresh_state(mini).save(path)
    meta, blocks = io_utils.read_container(path, kind="model")
    change(meta)
    io_utils.write_container(path, "model", meta, blocks)
    with pytest.raises(io_utils.ContainerError, match=re.escape(f"{path}: {message}")):
        load_model_state(path, mini.emb)


def test_feature_file_of_another_width_fails_to_load(mini, tmp_path):
    path = tmp_path / "model.bin"
    build_model_state(mini.cfg, mini.emb, features=feature_store(mini)).save(path)
    with pytest.raises(io_utils.ContainerError, match=re.escape(
            f"{path}: block 'net.W2' has shape [6, 8], expected [7, 8]")):
        load_model_state(path, mini.emb, features=feature_store(mini, width=7))


def test_registry_names_trainable_tensors_as_the_checkpoint_does(mini, tmp_path):
    frozen = fresh_state(mini, train_rel_emb=False)
    assert all(k.startswith(("net.", "enc.")) for k in frozen.params())
    state = fresh_state(mini, train_node_emb=True)
    assert state.params()["rel_emb"] is state.rel_emb
    assert state.params()["node_emb"] is state.node_emb
    assert state.params().keys() == state.grads().keys()
    path = tmp_path / "model.bin"
    frozen.save(path)
    _, blocks = io_utils.read_container(path, kind="model")
    assert set(blocks) == set(frozen.params()) | {"rel_emb"}


def test_training_node_embeddings_with_frozen_relations(mini, tmp_path):
    state = fresh_state(mini, train_node_emb=True, train_rel_emb=False)
    train(state, mini.world.train, mini.world.dev,
          mini.train_inst, mini.dev_inst)
    assert np.array_equal(state.rel_emb, mini.emb.rel)
    used = np.zeros(len(mini.emb.ent), dtype=bool)
    for inst in mini.train_inst.values():
        used[inst.node_ids] = True
    changed = np.any(state.node_emb != mini.emb.ent, axis=1)
    assert changed.any()
    assert not np.any(changed & ~used)
    path = tmp_path / "model.bin"
    state.save(path)
    loaded = load_model_state(path, mini.emb)
    assert np.array_equal(loaded.node_emb, state.node_emb)
    want = predict(state, mini.world.dev, mini.dev_inst)
    got = predict(loaded, mini.world.dev, mini.dev_inst)
    for a, b in zip(want, got):
        assert a.scores == b.scores
        assert a.chosen == b.chosen


def test_gradient_oracle_checks_the_training_backward(monkeypatch):
    real = ModelState.backward

    def without_node_emb_scatter(state, ctxs, d_raws):
        before = state.grads()["node_emb"].copy()
        real(state, ctxs, d_raws)
        state.grads()["node_emb"][...] = before

    monkeypatch.setattr(ModelState, "backward", without_node_emb_scatter)
    res = selfcheck.gradient_suite(n_instances=2)
    assert not res.passed
    assert "(node_emb)" in res.detail


def test_feature_mode_state_trains_saves_and_loads(mini, tmp_path):
    features = feature_store(mini)
    state = build_model_state(mini.cfg, mini.emb, features=features)
    assert state.encoder is None and state.d_s == 6
    assert not any(k.startswith("enc.") for k in state.params())
    train(state, mini.world.train[:8], mini.world.dev[:4],
          mini.train_inst, mini.dev_inst)
    path = tmp_path / "model.bin"
    state.save(path)
    with pytest.raises(ValueError, match="pass --features"):
        load_model_state(path, mini.emb)
    want = predict(state, mini.world.dev, mini.dev_inst)
    got = predict(load_model_state(path, mini.emb, features=features),
                  mini.world.dev, mini.dev_inst)
    for a, b in zip(want, got):
        assert a.scores == b.scores
        assert a.chosen == b.chosen
