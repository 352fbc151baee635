"""The program names and fields the benchmark in ``perfbench/`` reads.

``perfbench.spans.instrument`` wraps kgqa functions by attribute name and its
hooks, like ``perfbench.workloads.instance_fingerprint``, read instance
fields. Renaming either breaks the benchmark; this test breaks first. The
benchmark also refuses to run when the schema-graph JSON of its reference
worlds drifts from ``perfbench/reference.json``; so does this test.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from kgqa.config import RunConfig
from kgqa.ground import load_stopwords
from kgqa.kge import PruneReport, train_transe
from kgqa.pipeline import (build_model_state, explain, ground_questions,
                           load_model_state, predict, preprocess)
from kgqa.toy import build_toy_world
from perfbench.spans import Tracer, instrument
from perfbench.workloads import WORKLOADS, instance_fingerprint, reference_digest

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())


def test_perfbench_readers_see_the_program(tmp_path):
    world = build_toy_world(seed=0, n_train=6, n_dev=4)
    cfg = RunConfig(seed=0, kge_dim=8, kge_epochs=2, gcn_dims="8,6", lstm_hidden=4,
                    d_t=6, t_hidden=6, score_hidden=4, enc_embed=6, enc_hidden=4,
                    cap=10)
    emb, _ = train_transe(world.kg, dim=cfg.kge_dim, margin=cfg.kge_margin,
                          lr=cfg.kge_lr, epochs=cfg.kge_epochs,
                          batch_size=cfg.kge_batch, seed=cfg.seed)
    stop = load_stopwords(None)
    examples = world.dev
    tracer = Tracer()
    with instrument(tracer):
        cold = preprocess(world.kg, emb, examples, cfg, stop, cache_dir=tmp_path)
        warm = preprocess(world.kg, emb, examples, cfg, stop, cache_dir=tmp_path)
        state = build_model_state(cfg, emb, examples_for_vocab=world.train)
        predict(state, examples, warm)
        ex = examples[0]
        explain(state, world.kg, ex, 0, warm[(ex.id, 0)])

    assert list(cold) == list(warm)
    for key in cold:
        assert instance_fingerprint(cold[key]) == instance_fingerprint(warm[key])
    scored = list(warm.values()) + [warm[(ex.id, 0)]]
    n_paths = sum(len(inst.owner) for inst in scored)
    assert n_paths > 0
    assert tracer.counters["network.paths"] == n_paths
    assert tracer.counters["network.nodes"] == sum(inst.n_nodes for inst in scored)
    # one pass per question, and one for the explained candidate
    assert tracer.total_calls("network.forward") == len(examples) + 1
    # each candidate is built once, on the cold pass; the warm one reads it
    assert tracer.total_calls("network.instance_from_schema_graph") == len(cold)

    # the path counters equal the path records and prune reports of the cold
    # pass (the warm one reads the cache and searches nothing)
    def records(cfg):
        grounded = [(sg, report)
                    for question in ground_questions(world.kg, stop, cfg, examples, emb)
                    for sg, report in question if sg is not None]
        return grounded, sum(len(plist) for sg, _ in grounded
                             for plist in sg.paths.values())

    _, n_found = records(replace(cfg, prune=False))
    pruned, n_kept = records(cfg)
    assert tracer.counters["paths.paths_found"] == n_found > 0
    report = sum((report for _, report in pruned), PruneReport())
    assert tracer.counters["kge.paths_before"] == report.paths_before == n_found
    assert tracer.counters["kge.paths_after"] == report.paths_after == n_kept

    # the setup and checkpoint stages: save, then reload through the wrapped
    # loader and predict with the loaded state
    model_path = tmp_path / "model.bin"
    reload_tracer = Tracer()
    with instrument(reload_tracer):
        state.save(model_path)
        loaded = load_model_state(model_path, emb)
        got = predict(loaded, examples, warm)
    want = predict(state, examples, warm)
    assert [(p.scores, p.chosen) for p in got] == [(p.scores, p.chosen) for p in want]
    assert reload_tracer.total_calls("network.forward") == len(examples)


@pytest.mark.parametrize("name", sorted(REFERENCE["schema_graph_digest"]))
def test_reference_schema_graph_digest(name, tmp_path):
    assert reference_digest(WORKLOADS[name], tmp_path) == \
        REFERENCE["schema_graph_digest"][name]
