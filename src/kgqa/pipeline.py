"""End-to-end orchestration: preprocess, train, predict, explain.

Preprocessing turns each (question, candidate) into a model-ready Instance:
recognize concepts, build the schema graph, prune paths, convert to the path
table, in one serial pass over a list: each distinct text is recognized once
(``mention_sets``) and each distinct question concept searched once for all
the questions (``ground_questions``). A candidate whose
question or answer grounds to nothing gets a single-anchor fallback instance
(one pseudo-pair, no paths) and is flagged in prediction output rather than
dropped, so every candidate stays scorable. The stand-in vectors of pairs
without paths are not part of an Instance: ``ModelState.forward`` draws them
with ``fallback_rows`` from ``cfg.seed`` and the instances it scores, so
preprocessed data depends only on the grounding inputs.

With a cache directory, each question's candidates are stored as one binary
container of kind ``instance``,
``<cache>/<config hash>/<sha256(example id)[:24]>.bin`` (layout in
``write_cache_entry``), written to a temporary file and moved into place, so
an interrupted run leaves no partial entry. A hit reads that one file and
slices it into the candidates' Instances, with no JSON parsing and no table
building; a miss grounds the whole question, builds its tables once and
writes them. Older ``.json`` and per-candidate ``_<candidate>.bin`` entries
are never read, so they simply miss. An entry that is cut short, empty, of
another kind, inconsistent, holding an index outside its tables or the graph,
or holding another number of candidates than the example raises
ContainerError naming the file.

Training and prediction score a question's candidates in one pass: one
statement-encoder call and one network call over the union of the
candidates' instances (``Instance.concat``), and one backward when training.
Explanations score their one candidate as a pass of one.

Training is single-threaded over the cached instances for determinism: fixed
seeds drive init and shuffling, gradient accumulation follows a sorted tensor
order, and metrics/checkpoint bytes are reproducible run to run.
"""

from __future__ import annotations

import bisect
import itertools
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, get_type_hints

import numpy as np

from . import io_utils, paths
from .config import RunConfig
from .data import LABELS, QAExample, accuracy
from .ground import MentionSet, recognize
from .kg import KnowledgeGraph
from .kge import EmbeddingTable, PruneReport, prune_schema_graph
from .model.layers import Layer
from .model.network import (ForwardTrace, Instance, PathAttentionScorer,
                            bce_loss, fallback_rows, instance_from_schema_graph)
from .model.optim import Adam
from .paths import GroundingError, SchemaGraph, build_schema_graph
from .statement import FeatureStore, ToyStatementEncoder, build_vocab


# ---------------------------------------------------------------- preprocess

def mention_sets(kg: KnowledgeGraph, stopwords: frozenset[str], cfg: RunConfig,
                 examples: Sequence[QAExample]) -> dict[str, MentionSet]:
    """The mentions of each distinct question and candidate text of
    ``examples``, each recognized once."""
    return {text: recognize(text, kg, max_ngram=cfg.max_ngram, stopwords=stopwords)
            for text in dict.fromkeys(itertools.chain.from_iterable(
                (ex.question, *ex.candidates) for ex in examples))}


def ground_questions(
    kg: KnowledgeGraph,
    stopwords: frozenset[str],
    cfg: RunConfig,
    examples: Sequence[QAExample],
    emb: Optional[EmbeddingTable],
) -> list[list[tuple[Optional[SchemaGraph], Optional[PruneReport]]]]:
    """(schema graph, prune report) of each candidate of each of ``examples``,
    in order: the graph None when the candidate grounds to nothing, the
    report None when ``cfg.prune`` is off. Pruning needs ``emb``; without it
    ``cfg.prune`` is a ValueError.

    Each distinct text is recognized once (``mention_sets``). Each distinct
    question concept is searched once, against the answer concepts of every
    question that mentions it; a goal's paths do not depend on the other
    goals of its search, so each grounded pair takes its paths from those
    searches unchanged, and is then pruned. The direct edges inside a
    question's concept set are listed once for all its candidates.
    """
    if cfg.prune and emb is None:
        raise ValueError("cfg.prune needs an embedding table to score paths")
    mentions = mention_sets(kg, stopwords, cfg, examples)
    questions = [(mentions[ex.question], [mentions[cand] for cand in ex.candidates])
                 for ex in examples]
    goals: dict[int, set[int]] = {}
    q_edges = []  # per question; unused when no candidate can ground
    for cq, cas in questions:
        answers = set().union(*(ca.concepts for ca in cas)) - cq.concepts
        if answers:
            for qc in cq.concepts:
                goals.setdefault(qc, set()).update(answers)
        q_edges.append(paths.intra_edges(kg, cq.concepts) if answers else set())
    found = {qc: paths.find_paths(kg, qc, g, max_edges=cfg.max_edges, cap=cfg.cap)
             for qc, g in goals.items()}

    def ground(cq, ca, edges):
        try:
            sg = build_schema_graph(kg, cq, ca, max_edges=cfg.max_edges, cap=cfg.cap,
                                    found=found, q_edges=edges)
        except GroundingError:
            return None, None
        return sg, (prune_schema_graph(sg, emb, threshold=cfg.threshold)
                    if cfg.prune else None)

    return [[ground(cq, ca, edges) for ca in cas]
            for (cq, cas), edges in zip(questions, q_edges)]


def preprocess(
    kg: KnowledgeGraph,
    emb: Optional[EmbeddingTable],
    examples: list[QAExample],
    cfg: RunConfig,
    stopwords: frozenset[str],
    cache_dir=None,
    jobs: int = 1,
) -> dict[tuple[str, int], Instance]:
    """Instances for every (example, candidate), cache-backed when dir given.

    A cached question is read back from its ``.bin`` entry. The other
    questions are grounded by one serial ``ground_questions`` call, and each
    question's candidates are built once and written to the cache as one
    entry. The cache does not change an instance.
    """
    if jobs != 1:  # kept only for perfbench's jobs=1 call; there is no pool
        raise ValueError(f"preprocess runs serially; jobs must be 1, got {jobs}")
    # plain string paths: a pathlib join per question costs microseconds that
    # a warm pass, one small file read per question, notices
    cache_root = None if cache_dir is None else os.path.join(cache_dir, cfg.hash())

    def cache_path(ex_id: str) -> str:
        return f"{cache_root}/{io_utils.sha256_bytes(ex_id.encode())[:24]}.bin"

    insts: dict[tuple[str, int], Instance] = {}
    pending: list[QAExample] = []
    for ex in examples:
        if cache_root is not None:
            try:  # opening the entry is the probe: no file, a miss
                cands = read_cache_entry(cache_path(ex.id), ex.id, len(ex.candidates),
                                         kg.n_concepts, kg.n_relations, label=ex.label)
                insts.update(((ex.id, ci), inst) for ci, inst in enumerate(cands))
                continue
            except FileNotFoundError:
                pass
        pending.append(ex)

    computed = ground_questions(kg, stopwords, cfg, pending, emb)
    if cache_root is not None and pending:
        os.makedirs(cache_root, exist_ok=True)
    for ex, grounded in zip(pending, computed):
        # a candidate that grounds to nothing becomes the anchor instance
        cands = [instance_from_schema_graph(
            sg, ex.id, ci, label=_cand_label(ex.label, ci))
            for ci, (sg, _) in enumerate(grounded)]
        insts.update(((ex.id, ci), inst) for ci, inst in enumerate(cands))
        if cache_root is not None:
            write_cache_entry(cache_path(ex.id), cands, [
                None if report is None else report.to_dict()
                for _, report in grounded])

    return {(ex.id, ci): insts[(ex.id, ci)]
            for ex in examples for ci in range(len(ex.candidates))}


def _cand_label(label: Optional[int], ci: int) -> Optional[int]:
    """Candidate ``ci``'s label given ``label``, the correct candidate's index."""
    return None if label is None else int(label == ci)


# the int64 sections of a cache entry's "ints" block, in order, as (Instance
# field, meta "counts" key, per-count length, extra length per candidate,
# the table its values index: a "counts" key, the graph's "concepts" or
# "relations", or None for offsets, which are checked on their own)
_INT_SECTIONS = (("q_rows", "pairs", 1, 0, "nodes"), ("a_rows", "pairs", 1, 0, "nodes"),
                 ("heads", "steps", 1, 0, "nodes"), ("tails", "steps", 1, 0, "nodes"),
                 ("und_edges", "edges", 2, 0, "nodes"), ("owner", "paths", 1, 0, "pairs"),
                 ("offsets", "paths", 1, 1, None), ("node_ids", "nodes", 1, 0, "concepts"),
                 ("rels", "steps", 1, 0, "relations"))
_SECTION_NAMES = tuple(name for name, *_ in _INT_SECTIONS)
_OWNER = 5         # owner, the last section of row or pair indices; offsets follow
_COUNTS = ("edges", "nodes", "pairs", "paths", "steps")


def write_cache_entry(path, insts: Sequence[Instance],
                      prunes: Sequence[Optional[dict]]) -> None:
    """Write a question's candidates, ``insts`` in order, as one ``instance``
    container.

    Block ``ints`` holds ``_INT_SECTIONS`` in order, each section every
    candidate's array end to end (``und_edges`` as flat row pairs);
    ``signs`` lays the candidates' float64 arrays end to end. Meta holds one
    list entry per candidate: ``counts`` (the lengths that cut the blocks),
    ``ungrounded`` and ``prune``, the prune report or null when pruning did
    not run.
    """
    counts = {"edges": [len(i.und_edges) for i in insts],
              "nodes": [i.n_nodes for i in insts],
              "pairs": [len(i.q_rows) for i in insts],
              "paths": [len(i.owner) for i in insts],
              "steps": [len(i.heads) for i in insts]}
    ints = np.concatenate([np.asarray(getattr(inst, name), dtype=np.int64).reshape(-1)
                           for name in _SECTION_NAMES for inst in insts])
    io_utils.write_container(
        path, "instance",
        {"counts": counts, "prune": list(prunes),
         "ungrounded": [inst.ungrounded for inst in insts]},
        {"ints": ints, "signs": np.concatenate([inst.signs for inst in insts])})


def read_cache_entry(path, example_id: str, n_cands: int, n_concepts: int,
                     n_relations: int, label: Optional[int] = None) -> list[Instance]:
    """The ``n_cands`` instances that ``write_cache_entry`` wrote to ``path``.

    ``n_concepts`` and ``n_relations`` are the sizes of the graph the entry
    was grounded on. ``label`` is the index of the correct candidate, as in
    ``QAExample``. A missing file raises FileNotFoundError. An entry that is
    cut short, of another kind or of another candidate count, whose counts,
    block shapes or tables do not fit together, or whose row, pair, step,
    concept or relation indices fall outside their tables raises
    ContainerError naming ``path``.
    """
    meta, blocks = io_utils.read_container(path, kind="instance")
    counts, ungrounded = meta.get("counts"), meta.get("ungrounded")
    columns = [counts.get(k) for k in _COUNTS] if isinstance(counts, dict) else None
    if not (columns is not None and isinstance(ungrounded, list)
            and all(type(u) is bool for u in ungrounded)
            and all(isinstance(col, list) and len(col) == len(ungrounded)
                    for col in columns)
            and all(type(n) is int and n >= 0 for n in itertools.chain(*columns))):
        raise io_utils.ContainerError(
            f"{path}: meta needs a bool list 'ungrounded' and 'counts' "
            f"{', '.join(_COUNTS)}: lists of non-negative ints, one per candidate")
    if len(ungrounded) != n_cands:
        raise io_utils.ContainerError(
            f"{path}: entry holds {len(ungrounded)} candidates, "
            f"example {example_id!r} has {n_cands}")
    # sizes[s][c]: the length of section s of candidate c; bounds: where
    # each of those runs starts in the ints block, and the block's end
    sizes = [[n * scale + extra for n in counts[key]]
             for _, key, scale, extra, _ in _INT_SECTIONS]
    bounds = list(itertools.accumulate(itertools.chain.from_iterable(sizes), initial=0))
    io_utils.require(path, meta, blocks, block_specs={
        "ints": (("int64",), [bounds[-1]]),
        "signs": (("float64",), [sum(counts["steps"])])})
    ints = blocks["ints"]
    _check_cache_indices(path, ints, {**counts, "concepts": [n_concepts] * n_cands,
                                      "relations": [n_relations] * n_cands}, sizes, bounds)
    runs = [ints[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    ends = list(itertools.accumulate(counts["steps"], initial=0))
    signs = [blocks["signs"][lo:hi] for lo, hi in zip(ends, ends[1:])]
    out = []
    for ci in range(n_cands):
        # runs[s * n_cands + ci] is section s of candidate ci
        table = dict(zip(_SECTION_NAMES, runs[ci::n_cands]))
        edges = table.pop("und_edges").tolist()
        out.append(Instance(
            example_id, ci, und_edges=list(zip(edges[0::2], edges[1::2])),
            signs=signs[ci], label=_cand_label(label, ci), ungrounded=ungrounded[ci],
            **table))
    return out


def _check_cache_indices(path, ints: np.ndarray, counts: dict, sizes: list,
                         bounds: list) -> None:
    """Raise ContainerError naming ``path`` unless every index in ``ints``, a
    cache entry's int block cut by ``sizes`` at ``bounds``, points inside its
    table: rows below the node count, ``owner`` sorted and below the pair
    count, ``offsets`` increasing from 0 to the step count, so no path is
    empty, and concept and relation ids below the graph's counts, which
    ``counts`` holds per candidate beside the entry's own. It costs a fixed
    dozen array operations per question."""
    n = len(sizes[0])
    # one comparison checks every section: read as uint64, a negative index
    # is above any table size; offsets, limited to 0 here, are let through
    limit = np.repeat(
        np.array([c for *_, table in _INT_SECTIONS
                  for c in (counts[table] if table else [0] * n)], dtype=np.uint64),
        [size for section in sizes for size in section])
    inside = ints.view(np.uint64) < limit
    inside[bounds[(_OWNER + 1) * n]:bounds[(_OWNER + 2) * n]] = True
    if not inside.all():
        at = int(np.argmin(inside))
        s, c = divmod(bisect.bisect_right(bounds, at) - 1, n)
        name, *_, table = _INT_SECTIONS[s]
        raise io_utils.ContainerError(
            f"{path}: candidate {c}: {name} holds {ints[at]}, outside its "
            f"{table[:-1]} range [0, {counts[table][c]})")
    # where each candidate's owner and offsets start, and where offsets end
    starts = bounds[_OWNER * n:(_OWNER + 2) * n + 1]
    ends = ints[[i for lo, hi in zip(starts[n:], starts[n + 1:]) for i in (lo, hi - 1)]]
    if ends.tolist() != [i for steps in counts["steps"] for i in (0, steps)]:
        raise io_utils.ContainerError(
            f"{path}: offsets do not run from 0 to the step count")
    # owner shifted by the pairs of the candidates before, then offsets
    # shifted by every pair and by the steps and candidates before, less their
    # place in the run: in range, they never decrease across the question
    # exactly when each candidate's owner is sorted and its offsets increase
    shift = [*itertools.accumulate(counts["pairs"][:-1], initial=0), *itertools.accumulate(
        [s + 1 for s in counts["steps"][:-1]], initial=sum(counts["pairs"]))]
    walk = ints[starts[0]:starts[-1]] + np.repeat(
        shift, [*counts["paths"], *sizes[_OWNER + 1]])
    owner_len = starts[n] - starts[0]
    walk[owner_len:] -= np.arange(len(walk) - owner_len)
    down = walk[1:] < walk[:-1]
    if down.any():
        at = int(np.argmax(down))
        raise io_utils.ContainerError(f"{path}: " + (
            "owner is not sorted" if at + 1 < owner_len
            else "offsets decrease" if walk[at + 1] < walk[at] - 1 else "a path has no steps"))


# ---------------------------------------------------------------- model state

class ModelState(Layer):
    """Everything needed to score: network, embeddings, statement encoder.

    ``cfg`` sizes and switches all of it. ``d_s``, the statement width, is
    the toy encoder's or the feature file's, so a checkpoint is rebuilt from
    its ``run_config`` and vocabulary (or the feature file) alone.

    Its registry holds every trainable tensor once, under the name the
    checkpoint uses: ``net.*``, ``enc.*`` for the toy encoder, and ``rel_emb``
    / ``node_emb`` when the configuration trains them. The optimizer, the
    gradient buffers and the checkpoint all read that one registry.
    """

    def __init__(self, cfg: RunConfig, emb: EmbeddingTable, rng: np.random.Generator,
                 vocab: Optional[dict[str, int]] = None,
                 features: Optional[FeatureStore] = None) -> None:
        """Encoder from ``vocab`` (else ``features``), then network, from ``rng``."""
        super().__init__()
        self.cfg = cfg
        self.features = features
        self.encoder = None
        if vocab is not None:
            self.encoder = ToyStatementEncoder(vocab, cfg.enc_embed, cfg.enc_hidden, rng)
            self._adopt("enc", self.encoder)
            self.d_s = self.encoder.d_s
        elif features is not None:
            self.d_s = features.dim
        else:
            raise ValueError("model needs a vocabulary or a feature store")
        if emb.dim != cfg.kge_dim:
            raise ValueError(
                f"embedding dim {emb.dim} != configured kge_dim {cfg.kge_dim}")
        self.net = PathAttentionScorer(cfg, self.d_s, rng)
        self._adopt("net", self.net)
        self.rel_emb = emb.rel.copy()
        self.node_emb = emb.ent.copy() if cfg.train_node_emb else emb.ent
        if cfg.train_rel_emb:
            self._register("rel_emb", self.rel_emb)
        if cfg.train_node_emb:
            self._register("node_emb", self.node_emb)

    def statements(self, example: QAExample, cands: Sequence[int]):
        """Returns ((G, d_s) statement vectors of ``cands``, encoder cache or None)."""
        if self.encoder is not None:
            return self.encoder.forward([
                self.encoder.token_ids(example.question, example.candidates[ci])
                for ci in cands])
        return np.stack([self.features.get(example.id, ci) for ci in cands]), None

    def forward(self, example: QAExample, cands: Sequence[int],
                insts: Sequence[Instance]) -> tuple[ForwardTrace, object]:
        """Scores candidates ``cands`` of ``example``, whose instances are
        ``insts``, in one pass; returns (trace, encoder cache or None)."""
        s, enc_cache = self.statements(example, cands)
        inst = Instance.concat(insts)
        trace = self.net.forward(inst, s, self.node_emb[inst.node_ids], self.rel_emb,
                                 fallback_rows(insts, self.cfg.d_path, self.cfg.seed))
        return trace, enc_cache

    def backward(self, ctx: tuple, d_raw: np.ndarray) -> None:
        """Accumulates the gradients of the ``forward`` pass ``ctx`` into the registry."""
        trace, enc_cache = ctx
        grads = self.grads()
        in_grads = self.net.backward(trace, d_raw)
        if self.encoder is not None:
            self.encoder.backward(in_grads.ds, enc_cache)
        if "rel_emb" in grads:
            grads["rel_emb"] += in_grads.d_rel_emb
        if "node_emb" in grads:
            np.add.at(grads["node_emb"], trace.inst.node_ids, in_grads.d_node_init)

    def checkpoint_blocks(self) -> dict[str, np.ndarray]:
        """The registry plus ``rel_emb``, which is stored even when frozen."""
        return dict(sorted({**self.params(), "rel_emb": self.rel_emb}.items()))

    def save(self, path) -> None:
        meta = {
            "run_config": self.cfg.to_dict(),
            "encoder": "toy" if self.encoder is not None else "features",
        }
        if self.encoder is not None:
            meta["enc_meta"] = self.encoder.save_extra_meta()
        io_utils.write_container(path, "model", meta, self.checkpoint_blocks())


def build_model_state(
    cfg: RunConfig,
    emb: EmbeddingTable,
    examples_for_vocab: Optional[list[QAExample]] = None,
    features: Optional[FeatureStore] = None,
) -> ModelState:
    """Fresh, seeded model state for training.

    Statement vectors come from ``features`` when given, else from a toy
    encoder over the words of ``examples_for_vocab``.
    """
    rng = np.random.default_rng(io_utils.stable_seed("model-init", cfg.seed))
    if features is not None:
        return ModelState(cfg, emb, rng, features=features)
    if examples_for_vocab is None:
        raise ValueError("toy encoder needs examples to build its vocabulary")
    texts = [t for ex in examples_for_vocab for t in (ex.question, *ex.candidates)]
    return ModelState(cfg, emb, rng, vocab=build_vocab(texts))


# run_config keys that older checkpoints store and nothing reads any more;
# older checkpoints also carry a top-level "model_config", which is ignored
# because every width it held follows from run_config and the encoder
_RETIRED_RUN_CONFIG_KEYS = ("d_s", "encoder", "loss")
_RUN_CONFIG_TYPES = get_type_hints(RunConfig)  # a float key also takes an int


def load_model_state(path, emb: EmbeddingTable,
                     features: Optional[FeatureStore] = None) -> ModelState:
    meta, blocks = io_utils.read_container(path, kind="model")
    io_utils.require(path, meta, blocks, ("run_config", "encoder"))
    if not isinstance(meta["run_config"], dict):
        raise io_utils.ContainerError(
            f"{path}: meta 'run_config' is {meta['run_config']!r}, not an object")
    if meta["encoder"] not in ("toy", "features"):
        raise io_utils.ContainerError(
            f"{path}: meta 'encoder' is {meta['encoder']!r}, not 'toy' or 'features'")
    record = {k: v for k, v in meta["run_config"].items() if k not in _RETIRED_RUN_CONFIG_KEYS}
    for key, value in record.items():
        want = _RUN_CONFIG_TYPES.get(key)
        if want is None or not (type(value) is want or want is float and type(value) is int):
            raise io_utils.ContainerError(
                f"{path}: meta 'run_config' key {key!r} is {value!r}, "
                + (f"not of type {want.__name__}" if want else "not a config key"))
    cfg = RunConfig(**record)
    vocab = None
    if meta["encoder"] == "toy":
        if features is not None:
            raise ValueError("checkpoint has a toy encoder, which reads no --features")
        io_utils.require(path, meta, blocks, ("enc_meta",))
        vocab = meta["enc_meta"].get("vocab") if isinstance(meta["enc_meta"], dict) else None
        if not (isinstance(vocab, dict) and all(type(i) is int for i in vocab.values())):
            raise io_utils.ContainerError(
                f"{path}: meta 'enc_meta' has no 'vocab' object of integer ids")
    elif features is None:
        raise ValueError("checkpoint uses feature files; pass --features")
    state = ModelState(cfg, emb, np.random.default_rng(0), vocab=vocab,
                       features=features)
    for name, v in state.checkpoint_blocks().items():
        if name not in blocks:
            raise ValueError(f"checkpoint {path} has no block {name!r}")
        if blocks[name].shape != v.shape:
            raise ValueError(f"checkpoint block {name!r} has shape "
                             f"{blocks[name].shape}, model expects {v.shape}")
        v[...] = blocks[name]
    return state


# ---------------------------------------------------------------- training

@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    dev_accuracy: float


@dataclass
class TrainResult:
    state: ModelState
    metrics: list[EpochMetrics]
    best_epoch: int
    best_dev_accuracy: float

    def metrics_csv(self) -> str:
        lines = ["epoch,train_loss,dev_accuracy"]
        lines += [f"{m.epoch},{m.train_loss:.6f},{m.dev_accuracy:.6f}" for m in self.metrics]
        return "\n".join(lines) + "\n"


def _example_forward(state: ModelState, example: QAExample,
                     instances: dict) -> tuple[ForwardTrace, object]:
    """Scores every candidate of ``example`` in one pass; returns (trace,
    encoder cache or None), with one row of ``trace.raw`` per candidate."""
    cands = range(len(example.candidates))
    return state.forward(example, cands, [instances[(example.id, ci)] for ci in cands])


def check_training_labels(train_examples: list[QAExample],
                          dev_examples: list[QAExample]) -> None:
    """Refuse a training example without a label, or a dev set with no
    labelled example to pick an epoch by, before any work is done."""
    for ex in train_examples:
        if ex.label is None:
            raise ValueError(f"{ex.id}: training example lacks a label")
    if all(ex.label is None for ex in dev_examples):
        raise ValueError("the dev set (--dev) has no labeled example to pick an epoch by")


def train(
    state: ModelState,
    train_examples: list[QAExample],
    dev_examples: list[QAExample],
    train_instances: dict,
    dev_instances: dict,
    log: Optional[Callable[[str], None]] = None,
) -> TrainResult:
    cfg = state.cfg
    check_training_labels(train_examples, dev_examples)
    tensors = state.params()
    opt = Adam(tensors, lr=cfg.lr)
    rng = np.random.default_rng(io_utils.stable_seed("train-shuffle", cfg.seed))

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
            state.zero_grad()
            scale = 1.0 / len(batch)
            for ex in batch:
                ctx = _example_forward(state, ex, train_instances)
                raws = ctx[0].raw
                labels = (np.arange(len(raws)) == ex.label).astype(np.float64)
                loss, d_raws = bce_loss(raws, labels)
                if not np.isfinite(loss):
                    raise FloatingPointError(
                        f"non-finite loss on example {ex.id} (epoch {epoch})")
                total_loss += loss
                n_loss_terms += 1
                state.backward(ctx, d_raws * scale)
            opt.step(state.grads())

        # a non-finite weight or score must not reach a checkpoint
        dev_preds = predict(state, dev_examples, dev_instances)
        bad = [k for k, v in tensors.items() if not np.isfinite(v).all()]
        if bad or not np.isfinite([s for p in dev_preds for s in p.scores]).all():
            what = f"parameter {bad[0]}" if bad else "dev score"
            raise FloatingPointError(f"non-finite {what} after epoch {epoch}")
        dev_acc = accuracy({p.example_id: p.chosen for p in dev_preds}, dev_examples)
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
        trace, _ = _example_forward(state, ex, instances)
        out.append(Prediction(
            example_id=ex.id,
            scores=trace.score.tolist(),
            chosen=int(np.argmax(trace.raw)),  # argmax takes the lowest tied index
            ungrounded=[ci for ci in range(len(ex.candidates))
                        if instances[(ex.id, ci)].ungrounded]))
    return out


# ---------------------------------------------------------------- explain

def explain(state: ModelState, kg: KnowledgeGraph, example: QAExample,
            cand_index: int, inst: Instance,
            top_pairs: int = 3, top_paths: int = 2) -> dict:
    """Attention report for one candidate, numbers straight off the trace.

    It lists the ``top_pairs`` most attended pairs and, in each, the
    ``top_paths`` most attended paths; both counts must be at least 1.
    ``cand_index`` must index ``example``'s candidates.
    """
    if top_pairs < 1 or top_paths < 1:
        raise ValueError(f"top_pairs and top_paths must be at least 1, "
                         f"got {top_pairs} and {top_paths}")
    n = len(example.candidates)
    if not 0 <= cand_index < n:
        raise ValueError(f"{example.id}: candidate must be in 0..{n - 1}, "
                         f"got {cand_index}")
    trace, _ = state.forward(example, [cand_index], [inst])
    beta_hat = trace.beta_hat[0]
    rel_names = kg.relations
    pair_order = np.argsort(-beta_hat, kind="stable")[:top_pairs]
    # pair p owns paths path_lo[p]:path_lo[p + 1], since owner is sorted
    path_lo = np.searchsorted(inst.owner, np.arange(len(inst.q_rows) + 1)).tolist()
    offsets = inst.offsets.tolist()
    pairs_out = []
    for pi in pair_order.tolist():
        lo, hi = path_lo[pi], path_lo[pi + 1]
        a_hat = trace.alpha[pi, lo:hi]
        path_order = np.argsort(-a_hat, kind="stable")[:top_paths]
        paths_out = []
        for ki in path_order.tolist():
            steps_lo, steps_hi = offsets[lo + ki], offsets[lo + ki + 1]
            parts = [f"({kg.surface(int(inst.node_ids[inst.heads[steps_lo]]))})"]
            steps = []
            for t in range(steps_lo, steps_hi):
                rel = rel_names[int(inst.rels[t])]
                rev = inst.signs[t] < 0
                nxt = kg.surface(int(inst.node_ids[inst.tails[t]]))
                parts.append(f"<-{rel}- ({nxt})" if rev else f"-{rel}-> ({nxt})")
                steps.append([rel, bool(rev), nxt])
            paths_out.append({
                "alpha": float(a_hat[ki]),
                "rendering": " ".join(parts),
                "steps": steps,
            })
        pairs_out.append({
            "question_concept": kg.surface(int(inst.node_ids[inst.q_rows[pi]])),
            "answer_concept": kg.surface(int(inst.node_ids[inst.a_rows[pi]])),
            "beta": float(beta_hat[pi]),
            "n_paths": hi - lo,
            "paths": paths_out,
        })
    return {
        "id": example.id,
        "candidate": cand_index,
        "candidate_text": example.candidates[cand_index],
        "score": float(trace.score[0]),
        "ungrounded": inst.ungrounded,
        "pairs": pairs_out,
    }
