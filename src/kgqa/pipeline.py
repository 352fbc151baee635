"""End-to-end orchestration: preprocess, train, predict, explain.

Preprocessing turns each (question, candidate) into a model-ready Instance:
recognize concepts, build the schema graph, prune paths, convert to local
arrays. Results are cached on disk keyed by (example id, candidate index,
config hash). A candidate whose question or answer grounds to nothing gets a
single-anchor fallback instance (one pseudo-pair, no paths) and is flagged in
prediction output rather than dropped, so every candidate stays scorable.

Training is single-threaded over the cached instances for determinism: fixed
seeds drive init and shuffling, gradient accumulation follows a sorted tensor
order, and metrics/checkpoint bytes are reproducible run to run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import Callable, Optional

import numpy as np

from . import io_utils
from .config import RunConfig
from .data import LABELS, QAExample, accuracy
from .ground import recognize
from .kg import KnowledgeGraph
from .kge import EmbeddingTable, PruneReport, prune_schema_graph
from .model.network import (Instance, PathAttentionScorer, ModelConfig, PairData, bce_loss,
                            fallback_vector, instance_from_schema_graph,
                            listwise_loss)
from .model.optim import Adam
from .paths import GroundingError, SchemaGraph, build_schema_graph
from .statement import FeatureStore, ToyStatementEncoder, build_vocab

ANCHOR_CONCEPT = 0  # arbitrary fixed concept anchoring ungroundable candidates


# ---------------------------------------------------------------- preprocess

def ground_candidate(
    kg: KnowledgeGraph,
    stopwords: frozenset[str],
    cfg: RunConfig,
    example: QAExample,
    cand_index: int,
    emb: Optional[EmbeddingTable],
) -> dict:
    """Schema-graph JSON for one candidate, or an ungrounded marker."""
    cq = recognize(example.question, kg, max_ngram=cfg.max_ngram, stopwords=stopwords)
    ca = recognize(example.candidates[cand_index], kg,
                   max_ngram=cfg.max_ngram, stopwords=stopwords)
    try:
        sg = build_schema_graph(kg, cq, ca, max_edges=cfg.max_edges, cap=cfg.cap)
    except GroundingError:
        return {"ungrounded": True}
    report = None
    if cfg.prune and emb is not None:
        report = prune_schema_graph(sg, emb, threshold=cfg.threshold)
    out = {"sg": sg.to_dict()}
    if report is not None:
        out["prune"] = report.to_dict()
    return out


def _anchor_instance(example_id: str, cand_index: int, d_path: int,
                     seed: int, label: Optional[int]) -> Instance:
    fb = fallback_vector(d_path, seed, example_id, cand_index, "anchor")
    pair = PairData(q_row=0, a_row=0, paths=[], fallback=fb)
    return Instance(
        example_id=example_id, cand_index=cand_index,
        node_ids=np.asarray([ANCHOR_CONCEPT], dtype=np.int64),
        und_edges=[], pairs=[pair], label=label, ungrounded=True)


def _payload_to_instance(payload: dict, example: QAExample, cand_index: int,
                         d_path: int, seed: int) -> Instance:
    label = None
    if example.label is not None:
        label = 1 if example.label == cand_index else 0
    if payload.get("ungrounded"):
        return _anchor_instance(example.id, cand_index, d_path, seed, label)
    sg = SchemaGraph.from_dict(payload["sg"])
    return instance_from_schema_graph(
        sg, example.id, cand_index, d_path, seed=seed, label=label)


def preprocess(
    kg: KnowledgeGraph,
    emb: Optional[EmbeddingTable],
    examples: list[QAExample],
    cfg: RunConfig,
    stopwords: frozenset[str],
    cache_dir=None,
    jobs: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> dict[tuple[str, int], Instance]:
    """Instances for every (example, candidate), cache-backed when dir given."""
    d_path = 4 * cfg.lstm_hidden
    tasks = [(ex, ci) for ex in examples for ci in range(len(ex.candidates))]
    payloads: dict[tuple[str, int], dict] = {}

    cache_root = None
    if cache_dir is not None:
        cache_root = FsPath(cache_dir) / cfg.hash()
        cache_root.mkdir(parents=True, exist_ok=True)

    def cache_path(ex_id: str, ci: int) -> Optional[FsPath]:
        if cache_root is None:
            return None
        return cache_root / f"{io_utils.sha256_bytes(ex_id.encode())[:24]}_{ci}.json"

    pending = []
    for ex, ci in tasks:
        cp = cache_path(ex.id, ci)
        if cp is not None and cp.exists():
            payloads[(ex.id, ci)] = json.loads(cp.read_text(encoding="utf-8"))
        else:
            pending.append((ex, ci))

    if pending:
        if jobs > 1:
            computed = _parallel_ground(kg, stopwords, cfg, pending, emb, jobs)
        else:
            computed = [
                ground_candidate(kg, stopwords, cfg, ex, ci, emb)
                for ex, ci in pending
            ]
        for (ex, ci), payload in zip(pending, computed):
            payloads[(ex.id, ci)] = payload
            cp = cache_path(ex.id, ci)
            if cp is not None:
                cp.write_text(io_utils.canonical_json(payload) + "\n", encoding="utf-8")

    out: dict[tuple[str, int], Instance] = {}
    for n, (ex, ci) in enumerate(tasks):
        out[(ex.id, ci)] = _payload_to_instance(
            payloads[(ex.id, ci)], ex, ci, d_path, cfg.seed)
        if progress is not None:
            progress(n + 1, len(tasks))
    return out


_WORKER_STATE: dict = {}


def _init_worker(kg, stopwords, cfg, emb) -> None:
    _WORKER_STATE["args"] = (kg, stopwords, cfg, emb)


def _worker_ground(task) -> dict:
    kg, stopwords, cfg, emb = _WORKER_STATE["args"]
    ex, ci = task
    return ground_candidate(kg, stopwords, cfg, ex, ci, emb)


def _parallel_ground(kg, stopwords, cfg, pending, emb, jobs) -> list[dict]:
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker,
            initargs=(kg, stopwords, cfg, emb)) as pool:
        return list(pool.map(_worker_ground, pending, chunksize=16))


# ---------------------------------------------------------------- model state

@dataclass
class ModelState:
    """Everything needed to score: network, embeddings, statement encoder."""

    cfg: RunConfig
    model_config: ModelConfig
    net: PathAttentionScorer
    rel_emb: np.ndarray
    node_emb: np.ndarray              # entity table; trained copy or read-only view
    encoder: Optional[ToyStatementEncoder] = None
    features: Optional[FeatureStore] = None

    def statement(self, example: QAExample, cand_index: int):
        """Returns (s, encoder_cache_or_None)."""
        if self.encoder is not None:
            ids = self.encoder.token_ids(example.question,
                                         example.candidates[cand_index])
            s, cache = self.encoder.forward(ids)
            return s, cache
        s = self.features.get(example.id, cand_index)
        if s.shape != (self.model_config.d_s,):
            raise ValueError(
                f"feature vector for ({example.id}, {cand_index}) has shape "
                f"{s.shape}, model expects ({self.model_config.d_s},)")
        return s, None

    def node_init(self, inst: Instance) -> np.ndarray:
        return self.node_emb[inst.node_ids]

    def trainable_tensors(self) -> dict[str, np.ndarray]:
        out = {f"net.{k}": v for k, v in self.net.params().items()}
        if self.encoder is not None:
            out.update({f"enc.{k}": v for k, v in self.encoder.params().items()})
        if self.model_config.train_rel_emb:
            out["rel_emb"] = self.rel_emb
        if self.model_config.train_node_emb:
            out["node_emb"] = self.node_emb
        return out

    def save(self, path) -> None:
        meta = {
            "run_config": self.cfg.to_dict(),
            "model_config": self.model_config.to_dict(),
            "encoder": "toy" if self.encoder is not None else "features",
        }
        blocks: dict[str, np.ndarray] = {}
        for k, v in sorted(self.net.params().items()):
            blocks[f"net.{k}"] = v
        blocks["rel_emb"] = self.rel_emb
        if self.encoder is not None:
            meta["enc_meta"] = self.encoder.save_extra_meta()
            for k, v in sorted(self.encoder.params().items()):
                blocks[f"enc.{k}"] = v
        if self.model_config.train_node_emb:
            blocks["node_emb"] = self.node_emb
        io_utils.write_container(path, "model", meta, blocks)


def build_model_state(
    cfg: RunConfig,
    emb: EmbeddingTable,
    examples_for_vocab: Optional[list[QAExample]] = None,
    features: Optional[FeatureStore] = None,
) -> ModelState:
    """Fresh, seeded model state for training."""
    rng = np.random.default_rng(io_utils.stable_seed("model-init", cfg.seed))
    encoder = None
    if cfg.encoder == "toy":
        if examples_for_vocab is None:
            raise ValueError("toy encoder needs examples to build its vocabulary")
        texts = []
        for ex in examples_for_vocab:
            texts.append(ex.question)
            texts.extend(ex.candidates)
        encoder = ToyStatementEncoder(build_vocab(texts), cfg.enc_embed,
                                      cfg.enc_hidden, rng)
        d_s = encoder.d_s
    elif cfg.encoder == "features":
        if features is None:
            raise ValueError("features encoder needs a feature store")
        d_s = features.dim
    else:
        raise ValueError(f"unknown encoder kind {cfg.encoder!r}")
    mc = cfg.model_config(d_s)
    if emb.dim != mc.d_node:
        raise ValueError(f"embedding dim {emb.dim} != configured kge_dim {mc.d_node}")
    net = PathAttentionScorer(mc, rng)
    rel_emb = emb.rel.copy()
    node_emb = emb.ent.copy() if mc.train_node_emb else emb.ent
    return ModelState(cfg=cfg, model_config=mc, net=net, rel_emb=rel_emb,
                      node_emb=node_emb, encoder=encoder, features=features)


def load_model_state(path, emb: EmbeddingTable,
                     features: Optional[FeatureStore] = None) -> ModelState:
    meta, blocks = io_utils.read_container(path, kind="model")
    cfg = RunConfig(**meta["run_config"])
    mc = ModelConfig.from_dict(meta["model_config"])
    rng = np.random.default_rng(0)  # shapes overwritten below
    net = PathAttentionScorer(mc, rng)
    for k, v in net.params().items():
        v[...] = blocks[f"net.{k}"]
    encoder = None
    if meta["encoder"] == "toy":
        em = meta["enc_meta"]
        encoder = ToyStatementEncoder(
            {k: int(i) for k, i in em["vocab"].items()},
            em["d_embed"], em["d_hidden"], rng)
        for k, v in encoder.params().items():
            v[...] = blocks[f"enc.{k}"]
    elif features is None:
        raise ValueError("checkpoint uses feature files; pass --features")
    rel_emb = blocks["rel_emb"]
    node_emb = blocks["node_emb"] if "node_emb" in blocks else emb.ent
    if node_emb.shape[1] != mc.d_node:
        raise ValueError("entity table dim does not match checkpoint config")
    return ModelState(cfg=cfg, model_config=mc, net=net, rel_emb=rel_emb,
                      node_emb=node_emb, encoder=encoder, features=features)


# ---------------------------------------------------------------- training

@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    dev_accuracy: float

    def csv_row(self) -> str:
        return f"{self.epoch},{self.train_loss:.6f},{self.dev_accuracy:.6f}"


@dataclass
class TrainResult:
    state: ModelState
    metrics: list[EpochMetrics]
    best_epoch: int
    best_dev_accuracy: float

    def metrics_csv(self) -> str:
        lines = ["epoch,train_loss,dev_accuracy"]
        lines += [m.csv_row() for m in self.metrics]
        return "\n".join(lines) + "\n"


def _example_forward(state: ModelState, example: QAExample,
                     instances: dict) -> tuple[list, np.ndarray]:
    """Forward every candidate; returns (per-candidate contexts, raw logits)."""
    ctxs = []
    raws = []
    for ci in range(len(example.candidates)):
        inst = instances[(example.id, ci)]
        s, enc_cache = state.statement(example, ci)
        trace = state.net.forward(inst, s, state.node_init(inst), state.rel_emb)
        ctxs.append((inst, enc_cache, trace))
        raws.append(trace.raw)
    return ctxs, np.asarray(raws)


def _example_backward(state: ModelState, ctxs: list, d_raws: np.ndarray,
                      rel_grad: np.ndarray, node_grad: Optional[np.ndarray]) -> None:
    for (inst, enc_cache, trace), d_raw in zip(ctxs, d_raws):
        if d_raw == 0.0:
            continue
        in_grads = state.net.backward(trace, float(d_raw))
        if state.encoder is not None:
            state.encoder.backward(in_grads.ds, enc_cache)
        if state.model_config.train_rel_emb:
            rel_grad += in_grads.d_rel_emb
        if node_grad is not None:
            np.add.at(node_grad, inst.node_ids, in_grads.d_node_init)


def evaluate(state: ModelState, examples: list[QAExample],
             instances: dict) -> tuple[float, dict[str, int]]:
    preds: dict[str, int] = {}
    for ex in examples:
        _, raws = _example_forward(state, ex, instances)
        preds[ex.id] = int(np.argmax(raws))  # argmax takes the lowest tied index
    return accuracy(preds, examples), preds


def train(
    state: ModelState,
    train_examples: list[QAExample],
    dev_examples: list[QAExample],
    train_instances: dict,
    dev_instances: dict,
    log: Optional[Callable[[str], None]] = None,
) -> TrainResult:
    cfg = state.cfg
    for ex in train_examples:
        if ex.label is None:
            raise ValueError(f"{ex.id}: training example lacks a label")
    tensors = state.trainable_tensors()
    opt = Adam(tensors, lr=cfg.lr)
    rng = np.random.default_rng(io_utils.stable_seed("train-shuffle", cfg.seed))

    rel_grad = np.zeros_like(state.rel_emb)
    node_grad = (np.zeros_like(state.node_emb)
                 if state.model_config.train_node_emb else None)

    def gather_grads() -> dict[str, np.ndarray]:
        g = {f"net.{k}": v for k, v in state.net.grads().items()}
        if state.encoder is not None:
            g.update({f"enc.{k}": v for k, v in state.encoder.grads().items()})
        if state.model_config.train_rel_emb:
            g["rel_emb"] = rel_grad
        if node_grad is not None:
            g["node_emb"] = node_grad
        return g

    def zero_grads() -> None:
        state.net.zero_grad()
        if state.encoder is not None:
            state.encoder.zero_grad()
        rel_grad[...] = 0.0
        if node_grad is not None:
            node_grad[...] = 0.0

    metrics: list[EpochMetrics] = []
    best_acc = -1.0
    best_epoch = -1
    best_snapshot: dict[str, np.ndarray] = {}
    since_best = 0

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_examples))
        total_loss = 0.0
        n_loss_terms = 0
        for lo in range(0, len(order), cfg.batch_examples):
            batch = [train_examples[int(i)] for i in order[lo:lo + cfg.batch_examples]]
            zero_grads()
            scale = 1.0 / len(batch)
            for ex in batch:
                ctxs, raws = _example_forward(state, ex, train_instances)
                if cfg.loss == "listwise":
                    loss, d_raws = listwise_loss(raws, ex.label)
                else:
                    labels = (np.arange(len(raws)) == ex.label).astype(np.float64)
                    loss, d_raws = bce_loss(raws, labels)
                if not np.isfinite(loss):
                    raise FloatingPointError(
                        f"non-finite loss on example {ex.id} (epoch {epoch})")
                total_loss += loss
                n_loss_terms += 1
                _example_backward(state, ctxs, d_raws * scale, rel_grad, node_grad)
            opt.step(gather_grads())

        dev_acc, _ = evaluate(state, dev_examples, dev_instances)
        m = EpochMetrics(epoch=epoch,
                         train_loss=total_loss / max(1, n_loss_terms),
                         dev_accuracy=dev_acc)
        metrics.append(m)
        if log is not None:
            log(f"epoch {epoch}: train_loss={m.train_loss:.4f} dev_acc={dev_acc:.4f}")
        if dev_acc > best_acc:
            best_acc = dev_acc
            best_epoch = epoch
            best_snapshot = {k: v.copy() for k, v in tensors.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break

    if best_snapshot:
        for k, v in tensors.items():
            v[...] = best_snapshot[k]
    return TrainResult(state=state, metrics=metrics,
                       best_epoch=best_epoch, best_dev_accuracy=best_acc)


# ---------------------------------------------------------------- predict

@dataclass
class Prediction:
    example_id: str
    scores: list[float]
    chosen: int
    ungrounded: list[int] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        obj = {
            "id": self.example_id,
            "scores": [round(float(s), 10) for s in self.scores],
            "chosen": self.chosen,
            "answer": LABELS[self.chosen],
        }
        if self.ungrounded:
            obj["ungrounded_candidates"] = self.ungrounded
        return obj


def predict(state: ModelState, examples: list[QAExample],
            instances: dict) -> list[Prediction]:
    out = []
    for ex in examples:
        ctxs, raws = _example_forward(state, ex, instances)
        scores = [c[2].score for c in ctxs]
        out.append(Prediction(
            example_id=ex.id,
            scores=scores,
            chosen=int(np.argmax(raws)),
            ungrounded=[ci for ci, c in enumerate(ctxs) if c[0].ungrounded]))
    return out


# ---------------------------------------------------------------- explain

def explain(state: ModelState, kg: KnowledgeGraph, example: QAExample,
            cand_index: int, inst: Instance,
            top_pairs: int = 3, top_paths: int = 2) -> dict:
    """Attention report for one candidate, numbers straight off the trace."""
    s, _ = state.statement(example, cand_index)
    trace = state.net.forward(inst, s, state.node_init(inst), state.rel_emb)
    rel_names = kg.relations
    pair_order = np.argsort(-trace.beta_hat, kind="stable")[:top_pairs]
    pairs_out = []
    for pi in pair_order:
        pair = inst.pairs[int(pi)]
        a_hat = trace.alpha[pi, trace.owner == pi]
        path_order = np.argsort(-a_hat, kind="stable")[:top_paths]
        paths_out = []
        for ki in path_order:
            heads, rels, signs, tails = pair.paths[int(ki)]
            parts = [f"({kg.surface(int(inst.node_ids[heads[0]]))})"]
            steps = []
            for t in range(len(rels)):
                rel = rel_names[int(rels[t])]
                rev = signs[t] < 0
                nxt = kg.surface(int(inst.node_ids[tails[t]]))
                parts.append(f"<-{rel}- ({nxt})" if rev else f"-{rel}-> ({nxt})")
                steps.append([rel, bool(rev), nxt])
            paths_out.append({
                "alpha": float(a_hat[int(ki)]),
                "rendering": " ".join(parts),
                "steps": steps,
            })
        pairs_out.append({
            "question_concept": kg.surface(int(inst.node_ids[pair.q_row])),
            "answer_concept": kg.surface(int(inst.node_ids[pair.a_row])),
            "beta": float(trace.beta_hat[int(pi)]),
            "n_paths": len(pair.paths),
            "paths": paths_out,
        })
    return {
        "id": example.id,
        "candidate": cand_index,
        "candidate_text": example.candidates[cand_index],
        "score": trace.score,
        "ungrounded": inst.ungrounded,
        "pairs": pairs_out,
    }
