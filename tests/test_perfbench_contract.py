"""The program names and fields the benchmark in ``perfbench/`` reads.

``perfbench.spans.instrument`` wraps kgqa functions by attribute name and its
hooks, like ``perfbench.workloads.instance_fingerprint``, read instance
fields. Renaming either breaks the benchmark; this test breaks first.
"""

from kgqa.config import RunConfig
from kgqa.ground import load_stopwords
from kgqa.kge import train_transe
from kgqa.pipeline import (build_model_state, explain, load_model_state, predict,
                           preprocess)
from kgqa.toy import build_toy_world
from perfbench.spans import Tracer, instrument
from perfbench.workloads import instance_fingerprint


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
    assert tracer.total_calls("network.forward") == len(scored)
    assert tracer.total_calls("network.instance_from_schema_graph") == 2 * len(cold)

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
    assert reload_tracer.total_calls("network.forward") == len(warm)
