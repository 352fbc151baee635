"""Workloads and the stages one benchmark round runs through kgqa's public calls.

A round runs every stage of a workload once, in the order a user runs the
commands: ingest, train-kge, set-up, preprocess (cold), train, checkpoint,
preprocess (warm), predict, explain. A timed run repeats rounds until its time
is up, and each reported time is a median: per stage over rounds, and for the
per-question stages per question over rounds, summed over questions.
Every time is scaled to a reference machine speed by ``Stopwatch``.
"""

from __future__ import annotations

import math
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kgqa import io_utils, kg as kg_mod, kge, pipeline
from kgqa.config import RunConfig
from kgqa.data import load_dataset
from kgqa.ground import load_stopwords, recognize
from kgqa.paths import GroundingError, build_schema_graph
from kgqa.toy import EVIDENCE, build_toy_world

from . import gen
from .spans import Tracer
from .stopwatch import Stopwatch

# The dims and rates of TOY_CFG in tests/conftest.py, the dims the test suite
# trains. Minibatches of 4 questions instead of 16 give a 60-question
# training set enough optimizer steps to learn the task in two epochs.
TOY_CFG = dict(
    seed=0,
    kge_dim=32, kge_epochs=60, kge_lr=0.05, kge_batch=256,
    gcn_dims="32,24", lstm_hidden=32, d_t=32, t_hidden=32, score_hidden=32,
    enc_embed=32, enc_hidden=16,
    cap=40, threshold=0.15,
    lr=3e-3, epochs=2, batch_examples=4, patience=3,
)
# RunConfig's own network dims (kge 100, GCN 100,50, LSTM 128, d_t 128,
# score 64) with the toy training schedule, for one epoch.
PAPER_CFG = dict(
    seed=0, kge_epochs=30, kge_lr=0.05, kge_batch=256,
    cap=40, threshold=0.15,
    lr=3e-3, epochs=1, batch_examples=4, patience=3,
)
# Grounding at RunConfig defaults (cap 100); a short TransE run, since 4e4
# triples take about 0.15 s per epoch.
HUB_CFG = dict(seed=0, kge_dim=32, kge_epochs=2, kge_lr=0.05, kge_batch=512)

REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    world: str                  # "toy" or "hub"
    cfg: dict
    sizes: dict                 # size name -> (n_train, n_dev) or HubSize
    accuracy_floor: float = 0.0
    digest: bool = False

    @property
    def network(self) -> bool:
        return self.world == "toy"


WORKLOADS = {
    "toy-train": Workload(
        "toy-train", "toy", TOY_CFG,
        {"full": (60, 40), "tiny": (6, 4)}, accuracy_floor=0.6, digest=True),
    "paper-dims-train": Workload(
        "paper-dims-train", "toy", PAPER_CFG,
        {"full": (30, 70), "tiny": (4, 4)}, accuracy_floor=0.5),
    "hub-preprocess": Workload(
        "hub-preprocess", "hub", HUB_CFG, gen.HUB_SIZES, digest=True),
}
DIGEST_SAMPLE = {"toy": 8, "hub": 6}   # questions of the reference world


# ---------------------------------------------------------------- helpers

def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def instance_fingerprint(inst) -> str:
    """Hash of everything the network reads from an instance."""
    parts = [inst.example_id, inst.cand_index, inst.node_ids.tolist(),
             inst.und_edges, inst.label, inst.ungrounded]
    for pair in inst.pairs:
        parts.append([pair.q_row, pair.a_row,
                      [[a.tolist() for a in p] for p in pair.paths],
                      None if pair.fallback is None else pair.fallback.tolist()])
    return io_utils.sha256_bytes(repr(parts).encode())


def schema_graph_digest(kg, examples, cfg: RunConfig, stop) -> str:
    """sha256 over the unpruned schema graph of every candidate of ``examples``."""
    rows = []
    for ex in examples:
        cq = recognize(ex.question, kg, max_ngram=cfg.max_ngram, stopwords=stop)
        for cand in ex.candidates:
            ca = recognize(cand, kg, max_ngram=cfg.max_ngram, stopwords=stop)
            try:
                sg = build_schema_graph(kg, cq, ca, max_edges=cfg.max_edges, cap=cfg.cap)
                rows.append(sg.to_dict())
            except GroundingError:
                rows.append("ungrounded")
    return io_utils.sha256_bytes(io_utils.canonical_json(rows).encode())


def write_inputs(workload: Workload, seed: int, size: str, out_dir: Path):
    """Generate a workload's input files; returns (tsv, train, dev) paths.

    The hub workload has a single question set, returned as ``train`` with
    ``dev`` None.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload.world == "hub":
        tsv, dataset = gen.write_hub_inputs(out_dir, seed, workload.sizes[size])
        return tsv, dataset, None
    n_train, n_dev = workload.sizes[size]
    world = build_toy_world(seed=seed, n_train=n_train, n_dev=n_dev)
    return gen.write_toy_inputs(out_dir, world)


def reference_digest(workload: Workload, work: Path) -> str:
    """Digest of a fixed candidate sample of the reference-seed, full-size world."""
    cfg = RunConfig(**{**workload.cfg, "prune": False})
    tsv, train_path, _ = write_inputs(workload, REFERENCE_SEED, "full", work / "reference")
    kg, _ = kg_mod.ingest(tsv, merge_map=None)
    sample = load_dataset(train_path)[:DIGEST_SAMPLE[workload.world]]
    return schema_graph_digest(kg, sample, cfg, load_stopwords(None))


def degree_profile(kg, examples, cfg: RunConfig, stop) -> dict:
    """Degree stats of the graph and the share of hub-grounded candidates.

    A candidate counts as hub-grounded when its question mentions a concept
    whose degree is above the graph's 99th percentile.
    """
    degree = (np.bincount(kg.triples[:, 0], minlength=kg.n_concepts)
              + np.bincount(kg.triples[:, 2], minlength=kg.n_concepts))
    p99 = _percentile(degree, 99)
    hub_cands = n_cands = 0
    for ex in examples:
        cq = recognize(ex.question, kg, max_ngram=cfg.max_ngram, stopwords=stop)
        n_cands += len(ex.candidates)
        if any(degree[c] > p99 for c in cq.concepts):
            hub_cands += len(ex.candidates)
    return {"degree_max": int(degree.max()), "degree_p99": p99,
            "degree_median": _percentile(degree, 50),
            "hub_question_share": hub_cands / max(1, n_cands)}


# ---------------------------------------------------------------- rounds

@dataclass
class Record:
    """Everything rounds measured, checked and counted."""

    stage_s: dict = field(default_factory=dict)      # stage -> [seconds]
    per_q: dict = field(default_factory=dict)        # stage -> {qid: [seconds]}
    values: dict = field(default_factory=dict)       # name -> [value]
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add_stage(self, stage: str, seconds: float) -> None:
        self.stage_s.setdefault(stage, []).append(seconds)

    def add_q(self, stage: str, qid: str, seconds: float) -> None:
        self.per_q.setdefault(stage, {}).setdefault(qid, []).append(seconds)

    def add_value(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def ops(self, n: int, ok: bool, what: str = "") -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            if what and len(self.problems) < 20:
                self.problems.append(what)

    # ---- summaries
    def stage_median(self, stage: str) -> float:
        return statistics.median(self.stage_s[stage])

    def pass_seconds(self, stage: str) -> float:
        """One pass over every question: sum of per-question medians."""
        return sum(statistics.median(v) for v in self.per_q[stage].values())

    def q_percentile_ms(self, stage: str, q: float) -> float:
        return 1000 * _percentile(
            [statistics.median(v) for v in self.per_q[stage].values()], q)


class Bench:
    """One workload at one seed: generated inputs plus the rounds run on them."""

    def __init__(self, workload: Workload, seed: int, size: str, work: Path) -> None:
        self.w = workload
        self.seed = seed
        self.size = size
        self.work = work
        self.cfg = RunConfig(**{**workload.cfg, "seed": seed})
        # Tiny inputs train too little for the quality floor to mean anything.
        self.accuracy_floor = workload.accuracy_floor if size == "full" else 0.0
        self.rec = Record()
        self.clock = Stopwatch()
        self.tracer: Tracer | None = None
        # Repeat the cheap stages inside a round for more samples; traced runs
        # keep one repetition so that call counts stay per round.
        self.repeat = True
        self.kg_path = work / "kg.bin"
        self.kge_path = work / "kge.bin"
        self.model_path = work / "model.bin"
        self._state = None

    # ---------------------------------------------------------- untimed set-up

    def prepare(self) -> None:
        """Generate inputs, check the path digest, record workload properties."""
        self.tsv, train_path, dev_path = write_inputs(
            self.w, self.seed, self.size, self.work / "inputs")
        self.train_ex = load_dataset(train_path)
        self.dev_ex = load_dataset(dev_path) if dev_path else []
        self.questions = self.train_ex + self.dev_ex
        self.n_cands = sum(len(ex.candidates) for ex in self.questions)
        self.digest = reference_digest(self.w, self.work) if self.w.digest else None
        kg, _ = kg_mod.ingest(self.tsv, merge_map=None)
        self.profile = degree_profile(kg, self.questions, self.cfg, load_stopwords(None))

    # ---------------------------------------------------------- stages

    def _repeat(self, once, min_s: float, max_reps: int) -> None:
        """Call ``once`` until ``min_s`` of wall time has passed (1..max_reps)."""
        reps = max_reps if self.repeat else 1
        t0 = time.perf_counter()
        n = 0
        while n == 0 or (n < reps and time.perf_counter() - t0 < min_s):
            once()
            n += 1

    def _stage(self, name: str):
        return self.tracer.in_stage(name) if self.tracer else nullcontext()

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def run_round(self, r: int) -> float:
        """Run every stage once; returns the sum of the round's scaled times."""
        self.clock.span = self._span
        start = self.clock.scaled_total
        with self._stage("ingest"):
            self._ingest()
        with self._stage("train_kge"):
            self._train_kge()
        kg, emb, stop = (kg_mod.KnowledgeGraph.load(self.kg_path),
                         kge.EmbeddingTable.load(self.kge_path), load_stopwords(None))
        if not self.w.network:
            with self._stage("setup"):
                self._setup(with_model=False)
        cache = self.work / f"cache-{r}"
        with self._stage("preprocess_cold"):
            cold = self._preprocess("preprocess_cold", kg, emb, stop, cache)
        if self.w.network:
            with self._stage("train"):
                self._train(emb, cold)
            with self._stage("checkpoint"):
                self._checkpoint(emb)
            with self._stage("setup"):
                kg, emb, stop, state = self._setup(with_model=True)
        with self._stage("preprocess_warm"):
            warm = self._preprocess("preprocess_warm", kg, emb, stop, cache, expect=cold)
        if self.w.network and state is not None:
            with self._stage("predict"):
                chosen = self._predict(state, warm)
            with self._stage("explain"):
                self._explain(state, kg, warm, chosen)
        shutil.rmtree(cache, ignore_errors=True)
        return self.clock.scaled_total - start

    def _ingest(self) -> None:
        def ingest_and_save():
            graph, _ = kg_mod.ingest(self.tsv, merge_map=None)
            graph.save(self.kg_path)

        def once():
            self.rec.add_stage("ingest", self.clock.time("mixed", ingest_and_save)[1])
        self._repeat(once, 0.6, 30)

    def _train_kge(self) -> None:
        kg = kg_mod.KnowledgeGraph.load(self.kg_path)
        c = self.cfg

        def once():
            (table, history), t = self.clock.time(
                "interp", kge.train_transe, kg, dim=c.kge_dim, margin=c.kge_margin,
                lr=c.kge_lr, epochs=c.kge_epochs, batch_size=c.kge_batch,
                neg_per_pos=c.kge_neg, seed=c.seed)
            self.rec.add_value("kge_triples_per_s", kg.n_triples * c.kge_epochs / t)
            ok = bool(history) and all(math.isfinite(h) for h in history)
            self.rec.ops(1, ok, "train-kge: non-finite loss")
            table.gamma = c.gamma
            _, t_save = self.clock.time("memory", table.save, self.kge_path)
            self.rec.add_stage("train_kge", t + t_save)
        self._repeat(once, 0.6, 8)

    def _setup(self, with_model: bool):
        def load():
            kg = kg_mod.KnowledgeGraph.load(self.kg_path)
            emb = kge.EmbeddingTable.load(self.kge_path)
            stop = load_stopwords(None)
            state = pipeline.load_model_state(self.model_path, emb) if with_model else None
            return [kg, emb, stop, state]

        loaded = []

        def once():
            loaded[:], t = self.clock.time("memory", load)
            self.rec.add_stage("setup", t)
        try:
            self._repeat(once, 0.3, 30)
        except Exception:
            _report_failure("setup")
            self.rec.ops(1, False, "setup raised")
            return None, None, None, None
        return loaded

    def _preprocess(self, stage: str, kg, emb, stop, cache: Path,
                    expect: dict | None = None) -> dict:
        """One ``preprocess`` call per question; one op per candidate."""
        out: dict = {}
        root = cache / self.cfg.hash()
        for ex in self.questions:
            n = len(ex.candidates)
            with self._span("bench.check"):
                before = self._cache_files(root)
            try:
                inst, t = self.clock.time("interp", pipeline.preprocess, kg, emb, [ex],
                                          self.cfg, stop, cache_dir=cache, jobs=1)
            except Exception:
                _report_failure(f"preprocess {ex.id}")
                self.rec.ops(n, False, f"{stage} preprocess raised on {ex.id}")
                continue
            self.rec.add_q(stage, ex.id, t)
            with self._span("bench.check"):
                self._count_cache(root, before, n)
                for ci in range(n):
                    got = inst.get((ex.id, ci))
                    ok = got is not None
                    if ok and expect is not None:
                        ok = (ex.id, ci) in expect and instance_fingerprint(got) == \
                            instance_fingerprint(expect[(ex.id, ci)])
                    self.rec.ops(1, ok, f"{stage} instance mismatch on {ex.id}#{ci}")
                    if got is not None:
                        out[(ex.id, ci)] = got
        return out

    def _cache_files(self, root: Path) -> dict | None:
        if self.tracer is None:
            return None
        return {p.name: p.stat().st_size for p in root.iterdir()} if root.exists() else {}

    def _count_cache(self, root: Path, before: dict | None, n_tasks: int) -> None:
        if self.tracer is None:
            return
        after = self._cache_files(root)
        new = set(after) - set(before)
        self.tracer.count("pipeline.cache.misses", len(new))
        self.tracer.count("pipeline.cache.hits", n_tasks - len(new))
        self.tracer.count("pipeline.cache.bytes_written", sum(after[f] for f in new))
        self.tracer.counters["pipeline.cache.files"] = len(after)

    def _train(self, emb, instances: dict) -> None:
        epochs = self.cfg.epochs
        try:
            state = pipeline.build_model_state(
                self.cfg, emb, examples_for_vocab=self.train_ex + self.dev_ex)
            result, t = self.clock.time("interp", pipeline.train, state, self.train_ex,
                                        self.dev_ex, instances, instances)
        except Exception:
            _report_failure("train")
            self.rec.ops(epochs, False, "train raised")
            self._state = None
            return
        run = len(result.metrics)
        ok = run >= 1 and all(math.isfinite(m.train_loss) for m in result.metrics)
        self.rec.ops(run, ok, "train: non-finite loss")
        self.rec.add_stage("train", t)
        self.rec.add_value("train_epoch_s", t / max(1, run))
        self._state = state

    def _checkpoint(self, emb) -> None:
        if self._state is None:
            return

        def save_and_load():
            self._state.save(self.model_path)
            pipeline.load_model_state(self.model_path, emb)
        self.rec.add_stage("checkpoint", self.clock.time("memory", save_and_load)[1])

    def _predict(self, state, instances: dict) -> dict:
        """One ``predict`` call per question; one op per question."""
        chosen: dict = {}
        hits = 0
        for ex in self.questions:
            try:
                preds, t = self.clock.time("interp", pipeline.predict, state, [ex], instances)
            except Exception:
                _report_failure(f"predict {ex.id}")
                self.rec.ops(1, False, f"predict raised on {ex.id}")
                continue
            self.rec.add_q("predict", ex.id, t)
            p = preds[0] if len(preds) == 1 else None
            ok = (p is not None and len(p.scores) == len(ex.candidates)
                  and all(math.isfinite(s) and 0.0 < s < 1.0 for s in p.scores)
                  and p.chosen == int(np.argmax(p.scores)))
            self.rec.ops(1, ok, f"predict check failed on {ex.id}")
            if ok:
                chosen[ex.id] = (p.chosen, p.scores[p.chosen])
        for ex in self.dev_ex:
            hits += ex.id in chosen and chosen[ex.id][0] == ex.label
        accuracy = hits / max(1, len(self.dev_ex))
        self.rec.add_value("dev_accuracy", accuracy)
        if accuracy < self.accuracy_floor:
            self.rec.problems.append(
                f"dev accuracy {accuracy:.3f} below floor {self.accuracy_floor}")
        return chosen

    def _explain(self, state, kg, instances: dict, chosen: dict) -> None:
        """One ``explain`` call per dev question on its chosen candidate."""
        evidence = correct = 0
        for ex in self.dev_ex:
            if ex.id not in chosen:
                continue
            cand, score = chosen[ex.id]
            try:
                report, t = self.clock.time(
                    "interp", pipeline.explain, state, kg, ex, cand,
                    instances[(ex.id, cand)], top_pairs=3, top_paths=2)
            except Exception:
                _report_failure(f"explain {ex.id}")
                self.rec.ops(1, False, f"explain raised on {ex.id}")
                continue
            self.rec.add_q("explain", ex.id, t)
            betas = [p["beta"] for p in report["pairs"]]
            ok = (report["candidate"] == cand and abs(report["score"] - score) <= 1e-12
                  and bool(betas) and all(0.0 <= b <= 1.0 for b in betas)
                  and sum(betas) <= 1.0 + 1e-9)
            self.rec.ops(1, ok, f"explain check failed on {ex.id}")
            if cand == ex.label:
                correct += 1
                top = report["pairs"][0]["paths"]
                evidence += bool(top) and all(
                    rel == EVIDENCE and not rev for rel, rev, _ in top[0]["steps"])
        self.rec.add_value("evidence_top_path_rate", evidence / max(1, correct))

    # ---------------------------------------------------------- summaries

    def end_to_end(self, peak_rss_mb: float) -> dict[str, float]:
        rec = self.rec
        stages = ["preprocess_cold", "preprocess_warm"]
        if self.w.network:
            stages += ["predict", "explain"]
        pipeline_s = (rec.stage_median("ingest") + rec.stage_median("train_kge")
                      + rec.stage_median("setup")
                      + sum(rec.pass_seconds(s) for s in stages))
        if self.w.network:
            pipeline_s += rec.stage_median("train") + rec.stage_median("checkpoint")
        return {
            "setup_s": rec.stage_median("setup"),
            "kge_triples_per_s": statistics.median(rec.values["kge_triples_per_s"]),
            "preprocess_cand_per_s": self.n_cands / rec.pass_seconds("preprocess_cold"),
            "cache_hit_cand_per_s": self.n_cands / rec.pass_seconds("preprocess_warm"),
            "pipeline_s": pipeline_s,
            "peak_rss_mb": peak_rss_mb,
        }

    def stage_metrics(self) -> dict[str, float]:
        """Per-stage figures; zero for the network stages where they do not run."""
        rec = self.rec
        ingest = {"stage.ingest_s": rec.stage_median("ingest")}
        if not self.w.network:
            return {**ingest, **{k: 0.0 for k in NETWORK_STAGE_METRICS}}
        return {
            **ingest,
            "stage.train_epoch_s": statistics.median(rec.values["train_epoch_s"]),
            "stage.checkpoint_s": rec.stage_median("checkpoint"),
            "stage.predict_q_per_s": len(rec.per_q["predict"]) / rec.pass_seconds("predict"),
            "stage.predict_q_p50_ms": rec.q_percentile_ms("predict", 50),
            "stage.predict_q_p90_ms": rec.q_percentile_ms("predict", 90),
            "stage.explain_p50_ms": rec.q_percentile_ms("explain", 50),
            "stage.explain_p90_ms": rec.q_percentile_ms("explain", 90),
            "quality.dev_accuracy": statistics.median(rec.values["dev_accuracy"]),
            "quality.evidence_top_path_rate":
                statistics.median(rec.values["evidence_top_path_rate"]),
        }


NETWORK_STAGE_METRICS = (
    "stage.train_epoch_s", "stage.checkpoint_s", "stage.predict_q_per_s",
    "stage.predict_q_p50_ms", "stage.predict_q_p90_ms", "stage.explain_p50_ms",
    "stage.explain_p90_ms", "quality.dev_accuracy", "quality.evidence_top_path_rate",
)
