"""Shared fixtures: tiny graphs, the synthetic KGE benchmark, the toy QA run."""

import errno
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from kgqa import io_utils
from kgqa.config import RunConfig
from kgqa.data import save_dataset
from kgqa.ground import load_stopwords
from kgqa.io_utils import write_container
from kgqa.kg import build_graph
from kgqa.kge import train_transe
from kgqa.model.optim import Adam
from kgqa.pipeline import (build_model_state, evaluate, ground_question,
                           preprocess, train)
from kgqa.toy import build_toy_world, rule_candidate_plausible

settings.register_profile(
    "suite", deadline=None, max_examples=25,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


def make_chain_kg(n_nodes, rel_names=("r",)):
    # a-b-c-... chain, all edges forward with relation 0
    concepts = [chr(ord("a") + i) for i in range(n_nodes)]
    triples = [(i, 0, i + 1) for i in range(n_nodes - 1)]
    return build_graph(concepts, list(rel_names), triples, np.ones(len(triples)))


# ways a preprocessing cache entry can go bad: cut in half (a run killed
# mid-write), emptied, or replaced by a container of another kind
CACHE_DAMAGE = ("truncated", "empty", "wrong-kind")


def damage_cache_entry(path, how):
    if how == "truncated":
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
    elif how == "empty":
        path.write_bytes(b"")
    else:
        write_container(path, "model", {}, {"w": np.ones(2)})


class _FailingWrite:
    """A file opened for writing whose first write puts down half of its data
    and then fails, as a full disk or a killed run would leave it."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "simulated full disk")


def fail_writes_midway(monkeypatch):
    """Make every file that ``io_utils`` opens for writing fail midway."""
    def failing_open(file, mode="r", **kwargs):
        f = open(file, mode, **kwargs)
        return _FailingWrite(f) if "w" in mode else f
    monkeypatch.setattr(io_utils, "open", failing_open, raising=False)


def poison_optimizer_steps(monkeypatch):
    """Make every optimizer step leave an infinite weight behind it."""
    real = Adam.step

    def step(self, grads):
        real(self, grads)
        self.tensors[min(self.tensors)].flat[0] = np.inf

    monkeypatch.setattr(Adam, "step", step)


def dir_bytes(root):
    """Every file under ``root``, relative path -> bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def planted_kg(seed=0, n_concepts=30, n_relations=5, n_triples=100, latent=6):
    """Triples realized by a hidden translation model, so ranking is learnable.

    Used as the trainability benchmark: an implementation that optimizes the
    margin loss correctly must rank tails far above chance here, while a
    broken one stays near the analytic random baseline.
    """
    rng = np.random.default_rng(seed)
    g_ent = rng.standard_normal((n_concepts, latent))
    g_ent /= np.linalg.norm(g_ent, axis=1, keepdims=True)
    g_rel = 0.7 * rng.standard_normal((n_relations, latent)) / np.sqrt(latent)
    seen, triples = set(), []
    while len(triples) < n_triples:
        h = int(rng.integers(n_concepts))
        r = int(rng.integers(n_relations))
        pred = g_ent[h] + g_rel[r]
        dist = np.linalg.norm(pred[None, :] - g_ent, axis=1)
        dist[h] = np.inf
        t = int(np.argmin(dist))
        if (h, r, t) in seen:
            continue
        seen.add((h, r, t))
        triples.append((h, r, t))
    return build_graph([f"c{i:02d}" for i in range(n_concepts)],
                       [f"r{i}" for i in range(n_relations)],
                       triples, np.ones(n_triples))


# Hyperparameters for the synthetic QA benchmark, small enough to train on a
# laptop CPU in about a minute but big enough to separate signal from hubs.
TOY_CFG = dict(
    seed=0,
    kge_dim=32, kge_epochs=60, kge_lr=0.05, kge_batch=256,
    gcn_dims="32,24", lstm_hidden=32, d_t=32, t_hidden=32, score_hidden=32,
    enc_embed=32, enc_hidden=16,
    cap=40, threshold=0.15,
    lr=3e-3, epochs=6, batch_examples=16, patience=3,
)


@pytest.fixture(scope="session")
def toy_run():
    """Full toy pipeline, trained once per session: KGE, model, ablation."""
    t0 = time.monotonic()
    world = build_toy_world(seed=0)
    cfg = RunConfig(**TOY_CFG)
    emb, _ = train_transe(
        world.kg, dim=cfg.kge_dim, margin=cfg.kge_margin, lr=cfg.kge_lr,
        epochs=cfg.kge_epochs, batch_size=cfg.kge_batch, seed=cfg.seed)
    stop = load_stopwords(None)
    train_inst = preprocess(world.kg, emb, world.train, cfg, stop)
    dev_inst = preprocess(world.kg, emb, world.dev, cfg, stop)

    # ceiling check before any training: exactly one candidate per dev
    # question carries a pure evidence chain, and it is the labeled one
    rule_cfg = RunConfig(**{**TOY_CFG, "prune": False})
    rule_hits = 0
    for ex in world.dev:
        plausible = [
            "sg" in payload and rule_candidate_plausible(payload["sg"], world.kg)
            for payload in ground_question(world.kg, stop, rule_cfg, ex, None)]
        if plausible.count(True) == 1 and plausible.index(True) == ex.label:
            rule_hits += 1
    rule_acc = rule_hits / len(world.dev)

    state = build_model_state(cfg, emb, examples_for_vocab=world.train)
    result = train(state, world.train, world.dev, train_inst, dev_inst)
    full_acc, _ = evaluate(state, world.dev, dev_inst)

    abl_cfg = RunConfig(**{**TOY_CFG, "path_attention": False,
                           "pair_attention": False})
    abl_state = build_model_state(abl_cfg, emb, examples_for_vocab=world.train)
    train(abl_state, world.train, world.dev, train_inst, dev_inst)
    abl_acc, _ = evaluate(abl_state, world.dev, dev_inst)

    return SimpleNamespace(
        world=world, cfg=cfg, emb=emb, stopwords=stop,
        train_inst=train_inst, dev_inst=dev_inst, state=state,
        result=result, full_acc=full_acc, abl_acc=abl_acc,
        rule_acc=rule_acc, elapsed=time.monotonic() - t0)


CLI_CFG_TEXT = """\
# small dimensions so command round-trips stay fast
seed = 0
kge_dim = 16
kge_epochs = 20
kge_lr = 0.05
gcn_dims = 16,12
lstm_hidden = 8
d_t = 8
t_hidden = 8
score_hidden = 8
enc_embed = 8
enc_hidden = 8
cap = 20
epochs = 2
patience = 2
lr = 0.003
"""


@pytest.fixture(scope="session")
def cli_world(tmp_path_factory):
    """On-disk inputs for command tests: KG dump, datasets, config file."""
    root = tmp_path_factory.mktemp("cli-world")
    world = build_toy_world(seed=0, n_train=12, n_dev=8)
    kg_tsv = root / "kg.tsv"
    with open(kg_tsv, "w", encoding="utf-8") as fh:
        for h, r, t in world.kg.triples:
            fh.write(f"{world.kg.relations[int(r)]}\t{world.kg.surface(int(h))}"
                     f"\t{world.kg.surface(int(t))}\t1.0\n")
    train_jsonl = root / "train.jsonl"
    dev_jsonl = root / "dev.jsonl"
    save_dataset(train_jsonl, world.train)
    save_dataset(dev_jsonl, world.dev)
    config = root / "run.cfg"
    config.write_text(CLI_CFG_TEXT, encoding="utf-8")
    return SimpleNamespace(root=root, world=world, kg_tsv=kg_tsv,
                           train_jsonl=train_jsonl, dev_jsonl=dev_jsonl,
                           config=config)
