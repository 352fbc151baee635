"""Built-in verification suites: oracles and property checks.

Each suite pits a component against an independent reference: the path
finder against exhaustive permutation enumeration over the raw triple list
and against the plain DFS it replaced; the gradients of the training step,
as ``pipeline.ModelState.forward`` and ``backward`` compute them,
against central finite differences; the one pass that scores a question's
candidates against one pass per candidate; pruning against the per-path
rule it vectorized; attention against its closed-form degenerate cases; a
preprocessing cache entry read back against the instance built from the
schema graph and written to it; the bincount scatter against
``np.add.at`` and the packed-key adjacency sort against the four-key
``np.lexsort`` they replaced; the packed BiLSTM runner, over tables whose
rows repeat, against the dense per-step loop, one batch per sequence length,
that it replaced. The
CLI `selfcheck` subcommand runs them all and reports pass/fail; the test
suite calls the same functions with the sizes and tolerances pinned in the
acceptance tests.
"""

from __future__ import annotations

import copy
import itertools
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .config import RunConfig
from .data import QAExample
from .io_utils import stable_seed
from .kg import KnowledgeGraph, build_graph
from .kge import (PRUNE_EXEMPT_BELOW, EmbeddingTable, PruneReport,
                  prune_schema_graph)
from .model.gradcheck import check_gradients
from .model.layers import LSTM, BiLSTM, scatter_rows, sigmoid
from .model.network import (Instance, PathAttentionScorer, bce_loss, fallback_rows,
                            instance_from_schema_graph)
from .paths import PathSteps, SchemaGraph, Step, build_schema_graph, find_paths, path_sort_key
from .pipeline import ModelState, read_cache_entry, write_cache_entry
from .statement import build_vocab

# small dims keep finite differences affordable while exercising every tensor;
# training the entity table puts it in the gradient oracle's scope
CHECK_CONFIG = RunConfig(kge_dim=6, gcn_dims="5,4", lstm_hidden=4, d_t=6,
                         t_hidden=7, score_hidden=5, enc_embed=5, enc_hidden=4,
                         train_node_emb=True)
CHECK_D_S = 2 * CHECK_CONFIG.enc_hidden  # statement width


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


@dataclass
class SelfcheckReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "all_passed": bool(self.all_passed),
            "checks": [
                {"name": c.name, "passed": bool(c.passed), "detail": c.detail}
                for c in self.checks
            ],
        }


# ------------------------------------------------------------ random inputs

def random_kg(rng: np.random.Generator, n_nodes: int, density: float,
              n_relations: int = 3) -> KnowledgeGraph:
    concepts = tuple(f"n{i:03d}" for i in range(n_nodes))
    relations = tuple(f"r{i}" for i in range(n_relations))
    triples = set()
    for a in range(n_nodes):
        for b in range(n_nodes):  # self-loops too: no simple path may take one
            if rng.random() < density:  # now and then two relations, parallel
                for r in rng.integers(n_relations, size=1 + (rng.random() < 0.2)):
                    triples.add((a, int(r), b))
    if not triples:
        triples.add((0, 0, min(1, n_nodes - 1)))
    arr = np.asarray(sorted(triples), dtype=np.uint32)
    return build_graph(concepts, relations, arr, np.ones(len(arr)))


def random_instance(
    rng: np.random.Generator,
    cfg: RunConfig,
    d_s: int,
    max_nodes: int = 6,
    max_paths: int = 4,
    n_relations: int = 3,
    allow_zero_paths: bool = True,
) -> tuple[Instance, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Random model input: (instance, s, node_init, rel_emb, fallback), the
    last the rows ``fallback_rows`` draws for its pathless pairs under
    ``cfg.seed``.

    Paths are random simple walks over the nodes, whose concept ids equal
    their rows; ``instance_from_schema_graph`` adds their hops to the graph's
    edges.
    """
    n = int(rng.integers(3, max_nodes + 1))
    n_q = int(rng.integers(1, 3))
    n_a = int(rng.integers(1, 3))
    rows = rng.permutation(n)
    cq = [int(r) for r in rows[:n_q]]
    ca = [int(r) for r in rows[n_q:n_q + n_a]]
    paths = {}
    for i, qi in enumerate(cq):
        for j, aj in enumerate(ca):
            k = int(rng.integers(0, max_paths + 1)) if allow_zero_paths \
                else int(rng.integers(1, max_paths + 1))
            plist = []
            for _ in range(k):
                length = int(rng.integers(1, 4))
                mids = [int(x) for x in
                        rng.choice([r for r in range(n) if r not in (qi, aj)],
                                   size=min(length - 1, n - 2), replace=False)]
                seq = [qi] + mids + [aj]
                rels = rng.integers(0, n_relations, size=len(seq) - 1)
                reverse = rng.random(len(seq) - 1) >= 0.5
                plist.append(tuple((int(r), bool(v), t)
                                   for r, v, t in zip(rels, reverse, seq[1:])))
            paths[(i, j)] = plist
    # a few background edges; the instance drops loops and repeats
    edges = []
    for _ in range(n):
        a, b = rng.integers(0, n, size=2)
        edges.append((int(a), 0, int(b)))
    sg = SchemaGraph(cq=cq, ca=ca, nodes=list(range(n)), edges=edges, paths=paths)
    inst = instance_from_schema_graph(sg, f"rand-{int(rng.integers(1 << 30))}", 0)
    s = rng.standard_normal(d_s)
    node_init = rng.standard_normal((n, cfg.kge_dim))
    rel_emb = rng.standard_normal((n_relations, cfg.kge_dim))
    return inst, s, node_init, rel_emb, fallback_rows([inst], cfg.d_path, cfg.seed)


def permute_instance(
    inst: Instance, node_init: np.ndarray, cfg: RunConfig, rng: np.random.Generator,
) -> tuple[Instance, np.ndarray, np.ndarray]:
    """Relabel node rows and shuffle concept and path order; same semantics.

    The question concepts, the answer concepts and each pair's paths are
    shuffled, which reorders the pairs. Returns the permuted instance, its
    node vectors and the fallback rows drawn again for it under ``cfg.seed``:
    they are the originals in the new pair order only if the draws are keyed
    by concept, not by position.
    """
    perm = rng.permutation(inst.n_nodes)  # old row i -> new row perm[i]
    new_ids = np.empty_like(inst.node_ids)
    new_init = np.empty_like(node_init)
    new_ids[perm] = inst.node_ids
    new_init[perm] = node_init
    ids = inst.node_ids.tolist()
    # each pair's paths as (rel, reverse, node) step tuples, in table order
    keys = list(zip(inst.node_ids[inst.q_rows].tolist(), inst.node_ids[inst.a_rows].tolist()))
    by_pair = {key: [] for key in keys}
    steps = list(zip(inst.rels.tolist(), (inst.signs < 0).tolist(),
                     inst.node_ids[inst.tails].tolist()))
    bounds = inst.offsets.tolist()
    for p, lo, hi in zip(inst.owner.tolist(), bounds, bounds[1:]):
        by_pair[keys[p]].append(tuple(steps[lo:hi]))
    cq = rng.permutation(list(dict.fromkeys(q for q, _ in keys))).tolist()
    ca = rng.permutation(list(dict.fromkeys(a for _, a in keys))).tolist()
    paths = {}
    for i, qc in enumerate(cq):
        for j, ac in enumerate(ca):
            plist = by_pair[(qc, ac)]
            paths[(i, j)] = [plist[int(k)] for k in rng.permutation(len(plist))]
    sg = SchemaGraph(cq=cq, ca=ca, nodes=new_ids.tolist(),
                     edges=[(ids[a], 0, ids[b]) for a, b in inst.und_edges], paths=paths)
    permuted = instance_from_schema_graph(sg, inst.example_id, inst.cand_index,
                                          label=inst.label)
    return permuted, new_init, fallback_rows([permuted], cfg.d_path, cfg.seed)


# ------------------------------------------------------------ path oracle

def brute_force_paths(
    n_concepts: int,
    triples: np.ndarray,
    src: int,
    dst: int,
    max_edges: int,
) -> set[PathSteps]:
    """Exhaustive simple-path enumeration straight from the triple list.

    Walks every permutation of intermediate nodes and every combination of
    parallel (relation, orientation) options per hop. Independent of the
    adjacency-index DFS it checks: no shared traversal code.
    """
    options: dict[tuple[int, int], list[tuple[int, bool]]] = defaultdict(list)
    for h, r, t in np.asarray(triples, dtype=np.int64):
        options[(int(h), int(t))].append((int(r), False))
        options[(int(t), int(h))].append((int(r), True))
    others = [v for v in range(n_concepts) if v not in (src, dst)]
    found = set()
    for n_mid in range(0, max_edges):
        for mids in itertools.permutations(others, n_mid):
            seq = (src, *mids, dst)
            hop_opts = [options.get((seq[i], seq[i + 1]), [])
                        for i in range(len(seq) - 1)]
            if any(not o for o in hop_opts):
                continue
            for combo in itertools.product(*hop_opts):
                found.add(tuple(
                    (rel, rev, seq[i + 1]) for i, (rel, rev) in enumerate(combo)))
    return found


def reference_find_paths(
    kg: KnowledgeGraph,
    src: int,
    dst: int,
    max_edges: int = 3,
    cap: int = 100,
) -> tuple[list[PathSteps], bool]:
    """The plain depth-limited DFS from ``src`` that ``paths.find_paths``
    replaced, kept as its oracle: same contract, the same step tuples in the
    same order."""
    if src == dst:
        raise ValueError("src and dst must differ")
    if max_edges < 1 or cap < 1:
        raise ValueError("max_edges and cap must be >= 1")
    for c in (src, dst):
        if not 0 <= c < kg.n_concepts:
            raise IndexError(f"concept id {c} out of range")

    found: list[PathSteps] = []
    steps: list[Step] = []
    on_path = {src}

    def dfs(node: int) -> None:
        if len(steps) >= max_edges:
            return
        for nbr, rel, rev in kg.neighbors(node):
            if nbr == dst:
                found.append(tuple(steps) + ((rel, rev, nbr),))
                continue
            if nbr in on_path:
                continue
            if len(steps) + 1 >= max_edges:
                continue  # a dead end: nbr != dst and no room to extend
            on_path.add(nbr)
            steps.append((rel, rev, nbr))
            dfs(nbr)
            steps.pop()
            on_path.remove(nbr)

    dfs(src)
    unique = sorted(set(found), key=path_sort_key)
    return unique[:cap], len(unique) > cap


def path_oracle_suite(seed: int = 0, n_graphs: int = 200, max_nodes: int = 12,
                      density: float = 0.3, max_edges: int = 3) -> CheckResult:
    """``find_paths`` as ``ground_questions`` runs it, once per question
    concept against the answer concepts of every question that mentions it
    (here several candidates' overlapping answer sets), checked pair
    by pair: against brute-force enumeration (as a set) at ``max_edges``, and
    against ``reference_find_paths`` exactly (ordered list and ``truncated``
    flag, in full and at a cap that truncates) at depth 1 to 4 in turn. It
    counts the pairs with a path through another goal or another question
    concept, and those with two paths through the same nodes in the same
    directions (over parallel edges), and fails when any count is 0, since
    then it tested none of that."""
    rng = np.random.default_rng(stable_seed("path-oracle", seed))
    mismatches = compared = via_goal = via_question = parallel = 0
    for g in range(n_graphs):
        n = int(rng.integers(4, max_nodes + 1))
        kg = random_kg(rng, n, density)
        picks = [int(x) for x in rng.permutation(n)]
        cq = picks[:int(rng.integers(1, 4))]
        pool = picks[len(cq):len(cq) + 4]  # small, so candidates' answers overlap
        cands = [set(rng.choice(pool, size=int(rng.integers(1, min(3, len(pool)) + 1)),
                                replace=False).tolist())
                 for _ in range(int(rng.integers(2, 5)))]
        goals = set().union(*cands)
        depth = 1 + g % 4
        for q in cq:
            full = find_paths(kg, q, goals, max_edges=max_edges, cap=10 ** 9)
            deep = {cap: find_paths(kg, q, goals, max_edges=depth, cap=cap)
                    for cap in (3, 10 ** 9)}
            for a in sorted(goals):
                got, truncated = full[a]
                compared += 1
                exact = all(
                    deep[cap][a] == reference_find_paths(kg, q, a, max_edges=depth, cap=cap)
                    for cap in deep)
                if truncated or not exact or set(got) != brute_force_paths(
                        n, kg.triples, q, a, max_edges):
                    mismatches += 1
                mids = {node for p in deep[10 ** 9][a][0] for _, _, node in p[:-1]}
                via_goal += bool(mids & goals)
                via_question += bool(mids & set(cq))
                walks = [tuple((rev, node) for _, rev, node in p) for p in got]
                parallel += len(set(walks)) < len(walks)
    return CheckResult(
        name="path-enumeration-oracle",
        passed=mismatches == 0 and min(via_goal, via_question, parallel) > 0,
        detail=f"{compared} (source, target) pairs over {n_graphs} graphs, "
               f"{via_goal} through another goal, {via_question} through another "
               f"question concept, {parallel} over parallel edges, "
               f"{mismatches} mismatches")


# ------------------------------------------------------------ gradient suite

def _random_question(rng: np.random.Generator, words: list[str], example_id: str,
                     n_cands: int, label: int) -> QAExample:
    """Question and candidates of 1-3 and 1-2 random words."""
    return QAExample(
        id=example_id,
        question=" ".join(rng.choice(words, size=int(rng.integers(1, 4)))),
        candidates=[" ".join(rng.choice(words, size=int(rng.integers(1, 3))))
                    for _ in range(n_cands)],
        label=label)


def gradient_suite(seed: int = 0, n_instances: int = 20,
                   tol: float = 1e-4) -> CheckResult:
    """Finite-difference check of the training step over every trainable tensor.

    Each case is a fresh ``ModelState`` on ``CHECK_CONFIG``, so the toy
    encoder, the relation vectors and the entity table all train. It scores
    a random question of two candidates on random instances in one pass, as
    ``train`` does, so the check also covers the offsets of
    ``Instance.concat`` and the per-candidate pair softmax. The loss is the
    binary cross-entropy ``train`` takes over the candidates, and the
    analytic gradients are what ``ModelState.backward`` accumulates in the
    registry.
    """
    rng = np.random.default_rng(stable_seed("gradcheck", seed))
    cfg = CHECK_CONFIG
    words = [f"w{i}" for i in range(8)]
    vocab = build_vocab(words)
    worst = 0.0
    worst_name = ""
    for idx in range(n_instances):
        parts = [random_instance(rng, cfg, CHECK_D_S) for _ in range(2)]
        # two rows no instance node reads: their gradient must stay zero
        ent = rng.standard_normal((max(p[0].n_nodes for p in parts) + 2, cfg.kge_dim))
        state = ModelState(cfg, EmbeddingTable(ent=ent, rel=parts[0][3]), rng,
                           vocab=vocab)
        example = _random_question(rng, words, parts[0][0].example_id, 2, idx % 2)
        insts = [p[0] for p in parts]
        labels = (np.arange(2) == example.label).astype(np.float64)

        def loss_fn() -> float:
            return bce_loss(state.forward(example, range(2), insts)[0].raw, labels)[0]

        state.zero_grad()
        ctx = state.forward(example, range(2), insts)
        _, d_raws = bce_loss(ctx[0].raw, labels)
        state.backward(ctx, d_raws)
        report = check_gradients(loss_fn, state.params(), state.grads(),
                                 seed=stable_seed("gc-entries", seed, idx))
        for name, err in report.items():
            if err > worst:
                worst = err
                worst_name = name
    return CheckResult(
        name="gradient-oracle",
        passed=worst < tol,
        detail=f"{n_instances} instances, max rel err {worst:.3e} "
               f"({worst_name}), tolerance {tol:g}")


def batch_suite(seed: int = 0, n_questions: int = 20,
                tol: float = 1e-12) -> CheckResult:
    """One pass over a question's candidates against one pass per candidate.

    Each question joins 2-5 random instances, with pathless pairs among them
    and, in every other question, the K = 0 anchor; each pair of questions
    takes the next of the four settings of the two attention switches. Through
    ``ModelState.forward`` and ``backward``, the pass over all candidates
    must give the logits and scores, each candidate's rows of ``alpha`` and
    ``beta_hat``, and the gradient of every trainable tensor that the passes
    of one candidate each give, within ``tol``.
    """
    rng = np.random.default_rng(stable_seed("batch", seed))
    words = [f"w{i}" for i in range(8)]
    vocab = build_vocab(words)
    switches = list(itertools.product((True, False), repeat=2))
    worst = 0.0
    worst_name = ""

    def compare(name: str, got: np.ndarray, want: np.ndarray) -> None:
        nonlocal worst, worst_name
        err = float(np.max(np.abs(got - want), initial=0.0))
        if err > worst or not np.isfinite(err):
            worst, worst_name = err, name

    for idx in range(n_questions):
        path_attention, pair_attention = switches[idx // 2 % len(switches)]
        cfg = replace(CHECK_CONFIG, path_attention=path_attention,
                      pair_attention=pair_attention)
        n_cands = int(rng.integers(2, 6))
        parts = [random_instance(rng, cfg, CHECK_D_S) for _ in range(n_cands)]
        insts = [p[0] for p in parts]
        if idx % 2 == 0:
            insts[int(rng.integers(n_cands))] = instance_from_schema_graph(
                None, "anchor", 0)
        ent = rng.standard_normal((max(i.n_nodes for i in insts), cfg.kge_dim))
        state = ModelState(cfg, EmbeddingTable(ent=ent, rel=parts[0][3]), rng,
                           vocab=vocab)
        example = _random_question(rng, words, f"q{idx}", n_cands, 0)
        cands = range(n_cands)
        d_raws = rng.standard_normal(n_cands)

        state.zero_grad()
        ctx = state.forward(example, cands, insts)
        state.backward(ctx, d_raws)
        batched = ctx[0]
        grads = {k: v.copy() for k, v in state.grads().items()}

        state.zero_grad()
        alpha = np.zeros_like(batched.alpha)
        beta_hat = np.zeros_like(batched.beta_hat)
        raw, score = np.zeros(n_cands), np.zeros(n_cands)
        p0 = k0 = 0
        for ci in cands:
            lone_ctx = state.forward(example, [ci], [insts[ci]])
            state.backward(lone_ctx, d_raws[ci:ci + 1])
            lone = lone_ctx[0]
            n_pairs, n_paths = lone.alpha.shape
            alpha[p0:p0 + n_pairs, k0:k0 + n_paths] = lone.alpha
            beta_hat[ci, p0:p0 + n_pairs] = lone.beta_hat[0]
            raw[ci], score[ci] = lone.raw[0], lone.score[0]
            p0, k0 = p0 + n_pairs, k0 + n_paths
        compare("raw", batched.raw, raw)
        compare("score", batched.score, score)
        compare("alpha", batched.alpha, alpha)
        compare("beta_hat", batched.beta_hat, beta_hat)
        for name, g in state.grads().items():
            compare(name, grads[name], g)
    return CheckResult(
        name="batch-equivalence",
        passed=worst <= tol,
        detail=f"{n_questions} questions of 2-5 candidates, max |one pass - "
               f"pass per candidate| {worst:.3e} ({worst_name}), tolerance {tol:g}")


# ------------------------------------------------------------ attention suites

def degeneracy_suite(seed: int = 0, n_instances: int = 25,
                     tol: float = 1e-9) -> CheckResult:
    """W1 = W2 = 0 must reproduce plain mean pooling of [R; T]."""
    rng = np.random.default_rng(stable_seed("degeneracy", seed))
    worst = 0.0
    for _ in range(n_instances):
        cfg = CHECK_CONFIG
        net = PathAttentionScorer(cfg, CHECK_D_S, rng)
        net.params()["W1"][...] = 0.0
        net.params()["W2"][...] = 0.0
        inst, s, node_init, rel_emb, fallback = random_instance(rng, cfg, CHECK_D_S)
        trace = net.forward(inst, s[None], node_init, rel_emb, fallback)
        fallbacks = iter(fallback)
        rows = []
        for pi in range(len(inst.q_rows)):
            vecs = trace.V[inst.owner == pi]
            r = np.mean(vecs, axis=0) if len(vecs) else next(fallbacks)
            rows.append(np.concatenate([r, trace.T[pi]]))
        g_ref = np.sum(rows, axis=0) / len(rows)
        worst = max(worst, float(np.max(np.abs(g_ref - trace.g_hat[0]))))
    return CheckResult(
        name="attention-degeneracy",
        passed=worst <= tol,
        detail=f"max |g_hat - mean-pool g| = {worst:.3e}, tolerance {tol:g}")


def normalization_suite(seed: int = 0, n_instances: int = 50,
                        tol: float = 1e-6) -> CheckResult:
    """Attention groups sum to 1; huge-magnitude inputs stay finite."""
    rng = np.random.default_rng(stable_seed("normalization", seed))
    worst = 0.0
    finite = True
    for idx in range(n_instances):
        cfg = CHECK_CONFIG
        net = PathAttentionScorer(cfg, CHECK_D_S, rng)
        inst, s, node_init, rel_emb, fallback = random_instance(rng, cfg, CHECK_D_S)
        if idx % 3 == 0:  # push magnitudes to the 1e3 regime
            s = s * 1e3
            node_init = node_init * 1e3
            rel_emb = rel_emb * 1e3
            for name in ("W1", "W2"):
                net.params()[name][...] *= 1e3
        trace = net.forward(inst, s[None], node_init, rel_emb, fallback)
        beta_hat, score = trace.beta_hat[0], trace.score[0]
        for pi in range(len(inst.q_rows)):
            a_hat = trace.alpha[pi, inst.owner == pi]
            if len(a_hat):
                worst = max(worst, abs(float(np.sum(a_hat)) - 1.0))
                finite &= bool(np.all(np.isfinite(a_hat)))
        worst = max(worst, abs(float(np.sum(beta_hat)) - 1.0))
        finite &= bool(np.all(np.isfinite(beta_hat)))
        finite &= bool(np.isfinite(score))
        finite &= 0.0 < score < 1.0
    return CheckResult(
        name="attention-normalization",
        passed=finite and worst <= tol,
        detail=f"max |sum - 1| = {worst:.3e}, all finite = {finite}")


def permutation_suite(seed: int = 0, n_instances: int = 30,
                      tol: float = 1e-9) -> CheckResult:
    rng = np.random.default_rng(stable_seed("permutation", seed))
    worst = 0.0
    for _ in range(n_instances):
        cfg = CHECK_CONFIG
        net = PathAttentionScorer(cfg, CHECK_D_S, rng)
        inst, s, node_init, rel_emb, fallback = random_instance(rng, cfg, CHECK_D_S)
        base = float(net.forward(inst, s[None], node_init, rel_emb, fallback).score[0])
        for _ in range(3):
            p_inst, p_init, p_fallback = permute_instance(inst, node_init, cfg, rng)
            again = float(net.forward(p_inst, s[None], p_init, rel_emb,
                                      p_fallback).score[0])
            worst = max(worst, abs(base - again))
    return CheckResult(
        name="permutation-invariance",
        passed=worst < tol,
        detail=f"max |score delta| = {worst:.3e}, tolerance {tol:g}")


# ------------------------------------------------------------ pruning suite

def _random_schema_graphs(rng: np.random.Generator, n: int):
    for _ in range(n):
        nodes = int(rng.integers(6, 10))
        kg = random_kg(rng, nodes, 0.35)
        picks = rng.permutation(nodes)
        cq = [int(picks[0])]
        ca = [int(x) for x in picks[1:1 + int(rng.integers(1, 3))]]
        sg = build_schema_graph(kg, cq, ca, max_edges=3, cap=200)
        dim = 8
        erng = np.random.default_rng(int(rng.integers(2 ** 31)))
        table = EmbeddingTable(
            ent=erng.standard_normal((nodes, dim)),
            rel=erng.standard_normal((kg.n_relations, dim)),
            gamma=2.0)
        yield sg, table


def reference_prune(sg: SchemaGraph, table: EmbeddingTable,
                    threshold: float) -> PruneReport:
    """The per-path pruning rule ``prune_schema_graph`` vectorizes: one
    ``path_score`` per path, and the cover rebuilt unconditionally."""
    report = PruneReport(pairs_total=len(sg.paths))
    for key, plist in sorted(sg.paths.items()):
        report.paths_before += len(plist)
        if len(plist) < PRUNE_EXEMPT_BELOW:
            report.pairs_exempt += 1
            report.paths_after += len(plist)
            continue
        scores = [table.path_score(sg.cq[key[0]], p) for p in plist]
        kept = [p for p, s in zip(plist, scores) if s >= threshold]
        if not kept:
            kept = [plist[int(np.argmax(scores))]]
        sg.paths[key] = kept
        report.paths_after += len(kept)
    sg.rebuild_cover()
    return report


def pruning_suite(seed: int = 0, n_graphs: int = 40) -> CheckResult:
    """Threshold meaning, sparse-pair exemption, monotonicity, zero identity,
    and ``prune_schema_graph`` equal to ``reference_prune``: kept lists in
    order, report and schema graph. Besides 0, 1 and two random
    thresholds, each graph with a pair of PRUNE_EXEMPT_BELOW or more paths is
    pruned at the median score of the first such pair's paths, which must
    keep the paths scoring exactly that; it fails when no graph has one."""
    rng = np.random.default_rng(stable_seed("pruning", seed))
    problems = []
    n_equal = 0
    for gi, (sg, table) in enumerate(_random_schema_graphs(rng, n_graphs)):
        t1, t2 = sorted(rng.uniform(0.05, 0.9, size=2))
        thresholds = [0.0, t1, t2, 1.0]
        dense = [key for key, plist in sorted(sg.paths.items())
                 if len(plist) >= PRUNE_EXEMPT_BELOW]
        if dense:  # and the median path score of the first pair not exempt
            eq_scores = [table.path_score(sg.cq[dense[0][0]], p)
                         for p in sg.paths[dense[0]]]
            t_equal = sorted(eq_scores)[len(eq_scores) // 2]
            thresholds.append(t_equal)
            n_equal += 1
        copies = {t: copy.deepcopy(sg) for t in thresholds}
        for t, copy_sg in copies.items():
            ref_sg = copy.deepcopy(sg)
            ref_report = reference_prune(ref_sg, table, threshold=t)
            report = prune_schema_graph(copy_sg, table, threshold=t)
            if report != ref_report or copy_sg.paths != ref_sg.paths:
                problems.append(f"g{gi}: threshold {t:.3f} differs from reference_prune")
            elif copy_sg != ref_sg:
                problems.append(f"g{gi}: threshold {t:.3f} cover differs from reference_prune")
        if dense:
            at = {p for p, sc in zip(sg.paths[dense[0]], eq_scores) if sc == t_equal}
            kept = set(copies[t_equal].paths[dense[0]])
            if not at <= kept:
                problems.append(f"g{gi}{dense[0]}: dropped a path scoring exactly "
                                "the threshold")
        for key, orig in sg.paths.items():
            keys = set(orig)
            zero = set(copies[0.0].paths[key])
            k1 = set(copies[t1].paths[key])
            k2 = set(copies[t2].paths[key])
            if zero != keys:
                problems.append(f"g{gi}{key}: threshold 0 not identity")
            if len(orig) < 3 and (k1 != keys or k2 != keys):
                problems.append(f"g{gi}{key}: sparse pair was pruned")
            if not k2 <= k1:
                problems.append(f"g{gi}{key}: higher threshold kept extra paths")
            if orig and (not k1 or not k2):
                problems.append(f"g{gi}{key}: pair lost all paths")
            scores = {p: table.path_score(sg.cq[key[0]], p) for p in orig}
            if len(orig) >= 3:
                best = max(scores.values())
                for t, kept in ((t1, k1), (t2, k2)):
                    for pk in kept:
                        if scores[pk] < t and scores[pk] < best:
                            problems.append(
                                f"g{gi}{key}: kept sub-threshold non-best path")
    return CheckResult(
        name="pruning-semantics",
        passed=not problems and n_equal > 0,
        detail=("ok" if not problems else "; ".join(problems[:4]))
               + f" ({n_graphs} graphs, {n_equal} pruned at a path's exact score)")


# ------------------------------------------------------------ cache suite

def instance_mismatch(a: Instance, b: Instance) -> Optional[str]:
    """The first field in which ``a`` and ``b`` differ, or None: arrays by
    dtype, shape and bytes, other fields by type and repr."""
    for f in fields(Instance):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            same = (isinstance(y, np.ndarray) and x.dtype == y.dtype
                    and x.shape == y.shape and x.tobytes() == y.tobytes())
        else:
            same = type(x) is type(y) and repr(x) == repr(y)
        if not same:
            return f.name
    return None


def cache_round_trip_suite(seed: int = 0, n_instances: int = 25) -> CheckResult:
    """Random instances and the ungrounded anchor, written in groups of 1 to 5
    as the candidates of one cache entry each and read back, equal the
    instances written, field for field."""
    rng = np.random.default_rng(stable_seed("cache-round-trip", seed))
    insts = [random_instance(rng, CHECK_CONFIG, CHECK_D_S)[0]
             for _ in range(n_instances)]
    insts.append(instance_from_schema_graph(None, "anchor", 0))
    insts = [insts[i] for i in rng.permutation(len(insts))]
    problems, n_groups = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        while insts:
            size = int(rng.integers(1, 6))
            group, insts = insts[:size], insts[size:]
            ex_id = f"group-{n_groups}"
            label = None if rng.random() < 0.5 else int(rng.integers(len(group)))
            group = [replace(inst, example_id=ex_id, cand_index=ci,
                             label=None if label is None else int(label == ci))
                     for ci, inst in enumerate(group)]
            path = Path(tmp) / f"{ex_id}.bin"
            write_cache_entry(path, group, [None] * len(group))
            # the graph sizes are random_instance's defaults
            got = read_cache_entry(path, ex_id, len(group), 6, 3, label=label)
            for ci, (want, have) in enumerate(zip(group, got)):
                bad = instance_mismatch(want, have)
                if bad is not None:
                    problems.append(f"{ex_id} candidate {ci}: {bad} differs")
            n_groups += 1
    return CheckResult(
        name="cache-round-trip",
        passed=not problems,
        detail=("ok" if not problems else "; ".join(problems[:4]))
               + f" ({n_instances + 1} instances in {n_groups} entries, "
               "anchor included)")


# ------------------------------------------------------------ scatter and sort suite

def reference_adjacency(kg: KnowledgeGraph) -> tuple[np.ndarray, ...]:
    """``build_graph``'s adjacency as the four-key ``np.lexsort`` and the
    ``np.add.at`` row counts built it: (ptr, nbr, rel, rev)."""
    t, n = kg.triples, kg.n_triples
    src = np.concatenate([t[:, 0], t[:, 2]])
    nbr = np.concatenate([t[:, 2], t[:, 0]])
    rel = np.concatenate([t[:, 1], t[:, 1]])
    rev = np.concatenate([np.zeros(n, np.uint8), np.ones(n, np.uint8)])
    order = np.lexsort((rev, rel, nbr, src))
    ptr = np.zeros(kg.n_concepts + 1, dtype=np.int64)
    np.add.at(ptr, src + 1, 1)
    return np.cumsum(ptr), nbr[order], rel[order], rev[order]


def scatter_sort_suite(seed: int = 0, n_cases: int = 100) -> CheckResult:
    """``scatter_rows`` equal to ``np.add.at`` into zeros, byte for byte, on
    repeated, unsorted and empty indices, signed zeros among the values and
    1 to 8 columns; and ``build_graph``'s adjacency arrays equal to
    ``reference_adjacency`` on random graphs with duplicate triples,
    self-loops and isolated concepts, given in random order."""
    rng = np.random.default_rng(stable_seed("scatter-and-sort", seed))
    problems = []
    for ci in range(n_cases):
        n = int(rng.integers(1, 12))
        index = rng.integers(0, n, size=int(rng.integers(0, 4 * n)))
        values = rng.standard_normal((len(index), int(rng.integers(1, 9))))
        values[rng.random(values.shape) < 0.1] = -0.0
        want = np.zeros((n, values.shape[1]))
        np.add.at(want, index, values)
        if scatter_rows(n, index, values).tobytes() != want.tobytes():
            problems.append(f"scatter case {ci} ({len(index)} rows into {n}) "
                            "differs from np.add.at")
    for gi in range(n_cases):
        nv, n_rel = int(rng.integers(1, 16)), int(rng.integers(1, 5))
        used = int(rng.integers(1, nv + 1))  # concepts at or above it are isolated
        m = int(rng.integers(0, 3 * used))
        t = np.stack([rng.integers(0, used, m), rng.integers(0, n_rel, m),
                      rng.integers(0, used, m)], axis=1)
        loops = rng.random(m) < 0.15
        t[loops, 2] = t[loops, 0]
        t = np.concatenate([t, t[rng.integers(0, m, size=m // 3)]]) if m else t
        t = t[rng.permutation(len(t))]
        kg = build_graph([f"c{i}" for i in range(nv)], [f"r{i}" for i in range(n_rel)],
                         t, np.ones(len(t)))
        got = (kg._adj_ptr, kg._adj_nbr, kg._adj_rel, kg._adj_rev)
        for name, a, b in zip(("ptr", "nbr", "rel", "rev"), got, reference_adjacency(kg)):
            if a.dtype != b.dtype or a.tobytes() != b.tobytes():
                problems.append(f"graph {gi} ({nv} concepts, {len(t)} triples): "
                                f"adjacency {name} differs from np.lexsort")
    return CheckResult(
        name="scatter-and-sort",
        passed=not problems,
        detail=("ok" if not problems else "; ".join(problems[:4]))
               + f" ({n_cases} scatters, {n_cases} graphs)")


# ------------------------------------------------------------ packed LSTM suite

def reference_lstm_forward(lstm: LSTM, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """The dense per-step loop over a (B, T, d_in) batch of equal-length
    sequences that ``BiLSTM``'s packed runner replaced: (B, T, H) outputs."""
    B, T, _ = x.shape
    H = lstm.d_hidden
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    out = np.zeros((B, T, H))
    steps = []
    for t in range(T):
        a = x[:, t] @ lstm.Wx + h @ lstm.Wh + lstm.b
        gates = sigmoid(a)  # one call for i, f and o; the g block is unused
        i, f, o = gates[:, :H], gates[:, H:2 * H], gates[:, 3 * H:]
        g = np.tanh(a[:, 2 * H:3 * H])
        c_new = f * c + i * g
        hc = np.tanh(c_new)
        steps.append((i, f, g, o, c, hc, h))
        c = c_new
        h = o * hc
        out[:, t] = h
    return out, {"x": x, "steps": steps}


def reference_lstm_backward(lstm: LSTM, dout: np.ndarray, cache: dict) -> np.ndarray:
    """Backward of ``reference_lstm_forward``: accumulates ``lstm``'s
    gradients one step at a time and returns dL/dx."""
    x, steps = cache["x"], cache["steps"]
    B, T, _ = x.shape
    H = lstm.d_hidden
    grads = lstm.grads()
    dx = np.zeros_like(x)
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        i, f, g, o, c_prev, hc, h_prev = steps[t]
        dh = dout[:, t] + dh_next
        do = dh * hc
        dc = dc_next + dh * o * (1.0 - hc * hc)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dc_next = dc * f
        da = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f),
             dg * (1.0 - g * g), do * o * (1.0 - o)], axis=1)
        grads["Wx"] += x[:, t].T @ da
        grads["Wh"] += h_prev.T @ da
        grads["b"] += da.sum(axis=0)
        dx[:, t] = da @ lstm.Wx.T
        dh_next = da @ lstm.Wh.T
    return dx


def reference_bilstm(bi: BiLSTM, x: np.ndarray, offsets: np.ndarray,
                     d_ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``BiLSTM.forward`` and ``backward`` as they ran before packing: one
    dense batch per distinct sequence length, the reverse direction on the
    batch flipped in time. Returns (ends, dL/dx) for the upstream
    ``d_ends`` and accumulates ``bi``'s gradients."""
    H = bi.d_hidden
    lengths = np.diff(offsets)
    ends = np.zeros((len(lengths), 2, 2 * H))
    dx = np.zeros_like(x)
    for length in np.unique(lengths):
        index = np.flatnonzero(lengths == length)
        pos = offsets[index, None] + np.arange(length)
        yf, cf = reference_lstm_forward(bi.fwd, x[pos])
        yb, cb = reference_lstm_forward(bi.bwd, x[pos][:, ::-1])
        y = np.concatenate([yf, yb[:, ::-1]], axis=2)
        ends[index, 0] = y[:, 0]
        ends[index, 1] = y[:, -1]
        dy = np.zeros_like(y)
        dy[:, 0] = d_ends[index, 0]
        dy[:, -1] += d_ends[index, 1]  # length 1: the first is the last
        dx[pos] = (reference_lstm_backward(bi.fwd, dy[:, :, :H], cf)
                   + reference_lstm_backward(bi.bwd, dy[:, ::-1, H:], cb)[:, ::-1])
    return ends, dx


def packed_lstm_suite(seed: int = 0, n_cases: int = 40,
                      tol: float = 1e-12) -> CheckResult:
    """``BiLSTM.forward`` and ``backward`` on a packed batch against
    ``reference_bilstm`` on the rows it reads, ``table[index]``: the ends,
    dL/d(table) against the reference dL/dx summed per table row, and every
    parameter gradient within ``tol``. Batches hold 0 to 9 sequences of 1 to
    6 steps in random order; every fourth holds equal lengths and every
    fourth lone steps, and the first is empty. Each table holds from one row
    to two more rows than its batch has steps, so rows repeat and some go
    unread."""
    rng = np.random.default_rng(stable_seed("packed-lstm", seed))
    worst, worst_name = 0.0, ""
    for ci in range(n_cases):
        k = 0 if ci == 0 else int(rng.integers(1, 10))
        if ci % 4 == 1:
            lengths = np.full(k, int(rng.integers(1, 7)))
        elif ci % 4 == 2:
            lengths = np.ones(k, dtype=np.int64)
        else:
            lengths = rng.integers(1, 7, size=k)
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        d_in, H = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        bi = BiLSTM(rng, d_in, H)
        n_rows = int(offsets[-1])
        table = rng.standard_normal((int(rng.integers(1, n_rows + 3)), d_in))
        index = rng.integers(0, len(table), size=n_rows)
        d_ends = rng.standard_normal((k, 2, 2 * H))
        bi.zero_grad()
        want_ends, want_dx = reference_bilstm(bi, table[index], offsets, d_ends)
        want_grads = {name: g.copy() for name, g in bi.grads().items()}
        bi.zero_grad()
        ends, cache = bi.forward(table, index, offsets)
        pairs = [("ends", ends, want_ends),
                 ("d_table", bi.backward(d_ends, cache),
                  scatter_rows(len(table), index, want_dx))]
        pairs += [(name, g, want_grads[name]) for name, g in bi.grads().items()]
        for name, a, b in pairs:
            err = float(np.max(np.abs(a - b), initial=0.0)) if a.shape == b.shape \
                else np.inf
            if err > worst or not np.isfinite(err):
                worst, worst_name = err, f"{name}, case {ci}"
    return CheckResult(
        name="packed-lstm",
        passed=worst <= tol,
        detail=f"{n_cases} batches of 0-9 sequences over tables with repeated and "
               f"unread rows, max |packed - one batch per length| {worst:.3e} "
               f"({worst_name}), tolerance {tol:g}")


# ------------------------------------------------------------ entry point

def run_selfcheck(seed: int = 0, quick: bool = False) -> SelfcheckReport:
    sizes = {
        "grad": 5 if quick else 20,
        "oracle": 40 if quick else 200,
        "inst": 10 if quick else 25,
    }
    report = SelfcheckReport()
    report.checks.append(gradient_suite(seed, n_instances=sizes["grad"]))
    report.checks.append(path_oracle_suite(seed, n_graphs=sizes["oracle"]))
    report.checks.append(degeneracy_suite(seed, n_instances=sizes["inst"]))
    report.checks.append(normalization_suite(seed, n_instances=2 * sizes["inst"]))
    report.checks.append(permutation_suite(seed, n_instances=sizes["inst"]))
    report.checks.append(batch_suite(seed, n_questions=sizes["inst"]))
    report.checks.append(pruning_suite(seed, n_graphs=sizes["inst"] + 15))
    report.checks.append(cache_round_trip_suite(seed, n_instances=sizes["inst"]))
    report.checks.append(scatter_sort_suite(seed, n_cases=sizes["oracle"]))
    report.checks.append(packed_lstm_suite(seed, n_cases=2 * sizes["inst"]))
    return report
