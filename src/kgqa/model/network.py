"""Graph-and-path scoring network with hierarchical attention.

One forward pass scores the candidates of one Instance: the flat path table
built once from a candidate's schema graph, or the disjoint union of a
question's candidates that ``Instance.concat`` builds (see ``Instance``).
Candidates share no node rows, pairs or paths in the union, so each one is still
scored independently; one pass only batches the work.

  1. GCN layers contextualize the schema-graph node vectors.
  2. Each step is encoded as [source state; signed relation vector;
     destination state]; the paths run through the bidirectional LSTM's
     ragged runner (``BiLSTM.forward_ragged``), and a path vector
     concatenates the bi-hidden states at its first and last steps (4H
     dims). The path vectors form one (K, d_path) matrix V.
  3. Per concept pair (i, j): T_ij = MLP([s; c_i; c_j]), with the statement
     vector s of the pair's candidate, one batch over all pairs. Path
     attention alpha = T W1 V^T, softmaxed per row over the pair's own paths
     (a masked (P, K) matrix; uniform when path attention is disabled),
     gives the attended relation vectors R = alpha V. A pair with no paths
     has a zero row and takes a fixed per-pair random vector as its R: the
     caller passes these rows in, drawn by ``fallback_rows``, so the path
     table holds only the schema graph.
  4. Pair attention beta_ij = s W2 T_ij, softmaxed over each candidate's own
     pairs (a masked (G, P) matrix), pools [R_ij; T_ij] into the candidate's
     graph vector g.
  5. score = sigmoid(MLP(g)), one per candidate.

backward() consumes the retained trace and yields exact gradients for every
parameter tensor plus the statement vectors, initial node vectors, and
relation vectors, so upstream encoders and embedding tables can train too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..config import RunConfig
from ..io_utils import stable_seed
from ..paths import SchemaGraph
from .layers import (BiLSTM, GCNLayer, Layer, MLP, glorot, normalized_adjacency,
                     scatter_rows, sigmoid, softmax, softmax_backward)

SCORE_EPS = 1e-15  # reported scores stay inside the open interval (0, 1)


ANCHOR_CONCEPT = 0  # arbitrary fixed concept anchoring ungroundable candidates


class PairView(NamedTuple):
    """One pair of an instance, read off its path table.

    Each path is its (heads, rels, signs, tails) step slices. ``fallback`` is
    always None: a pathless pair's stand-in vector is a scoring input that
    ``fallback_rows`` draws, not part of the table, and the field stays only
    because the benchmark's instance fingerprint reads it.
    """

    q_row: int
    a_row: int
    paths: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    fallback: Optional[np.ndarray]


@dataclass
class Instance:
    """Grounded (question, candidate) inputs as one flat path table.

    Pairs p = 0..P-1 are the (question concept, answer concept) pairs in
    schema-graph order, at local node rows ``q_rows[p]`` and ``a_rows[p]``.
    Paths k = 0..K-1 are numbered pair by pair, so ``owner`` (the pair of each
    path) is sorted; path k's steps are ``offsets[k]:offsets[k + 1]`` of the
    step arrays, laid end to end. A pair may own no path; the vector that
    stands in for its attended path vector is drawn by ``fallback_rows`` when
    the instance is scored, so the table depends on the schema graph alone.

    Candidates g = 0..G-1 own the pairs ``pair_bounds[g]:pair_bounds[g + 1]``.
    An instance built from a schema graph holds one candidate; one built by
    ``concat`` holds several, and its ``example_id`` and ``cand_index`` are
    those of its first part, while ``label`` and ``ungrounded``, which
    describe a single candidate, stay unset.
    """

    example_id: str
    cand_index: int
    node_ids: np.ndarray            # (N,) global concept ids
    und_edges: list[tuple[int, int]]  # unique undirected local row pairs
    q_rows: np.ndarray              # (P,) int64
    a_rows: np.ndarray              # (P,) int64
    owner: np.ndarray               # (K,) int64 pair of each path
    offsets: np.ndarray             # (K + 1,) int64 step bounds of each path
    heads: np.ndarray               # (S,) int64 source row of each step
    rels: np.ndarray                # (S,) int64 relation id
    signs: np.ndarray               # (S,) float64, +1 forward, -1 reversed
    tails: np.ndarray               # (S,) int64 destination row
    label: Optional[int] = None     # 1 correct candidate, 0 distractor
    ungrounded: bool = False        # True for the single-anchor fallback form
    pair_bounds: Optional[np.ndarray] = None  # (G + 1,) int64; None: [0, P]

    def __post_init__(self) -> None:
        if self.pair_bounds is None:
            self.pair_bounds = np.array([0, len(self.q_rows)], dtype=np.int64)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def pair_cand(self) -> np.ndarray:
        """(P,) candidate of each pair."""
        return np.repeat(np.arange(len(self.pair_bounds) - 1), np.diff(self.pair_bounds))

    @classmethod
    def concat(cls, parts: Sequence["Instance"]) -> "Instance":
        """The disjoint union of ``parts``, whose candidates keep their order.

        The node rows, pairs and steps of each part are offset by those of the
        parts before it, so ``und_edges`` and the row and pair indices are
        shifted. A single part is returned as it is.
        """
        if len(parts) == 1:
            return parts[0]
        # where each part's node rows, pairs and steps start in the union
        rows, pairs, steps = (np.cumsum((0,) + sizes[:-1]).tolist() for sizes in zip(
            *[(p.n_nodes, len(p.q_rows), len(p.heads)) for p in parts]))

        def join(field, starts=None):
            arrays = [getattr(p, field) for p in parts]
            if starts is not None:
                arrays = [a + o for a, o in zip(arrays, starts)]
            return np.concatenate(arrays)

        return cls(
            parts[0].example_id, parts[0].cand_index,
            node_ids=join("node_ids"),
            und_edges=[(a + o, b + o) for p, o in zip(parts, rows)
                       for a, b in p.und_edges],
            q_rows=join("q_rows", rows), a_rows=join("a_rows", rows),
            owner=join("owner", pairs),
            offsets=np.concatenate([[0]] + [p.offsets[1:] + o
                                            for p, o in zip(parts, steps)]),
            heads=join("heads", rows), rels=join("rels"), signs=join("signs"),
            tails=join("tails", rows),
            pair_bounds=np.concatenate([[0]] + [p.pair_bounds[1:] + o
                                                for p, o in zip(parts, pairs)]))

    @property
    def pairs(self) -> list[PairView]:
        """Read-only per-pair view of the table, built on each access."""
        steps = (self.heads, self.rels, self.signs, self.tails)
        bounds = self.offsets.tolist()
        paths = [tuple(a[lo:hi] for a in steps) for lo, hi in zip(bounds, bounds[1:])]
        ends = np.searchsorted(self.owner, np.arange(len(self.q_rows) + 1)).tolist()
        return [PairView(q, a, paths[lo:hi], None)
                for q, a, lo, hi in zip(self.q_rows.tolist(), self.a_rows.tolist(),
                                        ends, ends[1:])]


def fallback_vector(d_path: int, *seed_parts) -> np.ndarray:
    """Deterministic stand-in path vector for a pair with no paths."""
    rng = np.random.default_rng(stable_seed("fallback", *seed_parts))
    return rng.standard_normal(d_path) / np.sqrt(d_path)


def fallback_rows(parts: Sequence[Instance], d_path: int, seed: int) -> np.ndarray:
    """(F, d_path) stand-in vectors of the pathless pairs of ``parts``, in the
    pair order of ``Instance.concat(parts)``; never trained.

    Each row is keyed by ``seed``, its part's ``example_id`` and
    ``cand_index`` and the global concept ids of the pair, or by "anchor" for
    an ungrounded part, so relabeling or reordering a part's nodes or pairs
    cannot change it.
    """
    rows = []
    for part in parts:
        pathless = np.bincount(part.owner, minlength=len(part.q_rows)) == 0
        for qc, ac in zip(part.node_ids[part.q_rows[pathless]].tolist(),
                          part.node_ids[part.a_rows[pathless]].tolist()):
            key = ("anchor",) if part.ungrounded else (qc, ac)
            rows.append(fallback_vector(d_path, seed, part.example_id, part.cand_index, *key))
    return np.array(rows, dtype=np.float64).reshape(-1, d_path)


def instance_from_schema_graph(
    sg: Optional[SchemaGraph],
    example_id: str,
    cand_index: int,
    label: Optional[int] = None,
) -> Instance:
    """Build the path table of ``sg``: its pairs (i, j) over ``sg.cq`` and
    ``sg.ca`` in row-major order, each owning the paths ``sg.paths[(i, j)]``.

    ``sg`` None builds the ungrounded anchor: concept ANCHOR_CONCEPT
    alone, one pair on it and no paths.
    """
    ungrounded = sg is None
    if ungrounded:
        cq = ca = nodes = [ANCHOR_CONCEPT]
        edges, pair_paths = [], {(0, 0): []}
    else:
        cq, ca, nodes, edges, pair_paths = sg.cq, sg.ca, sg.nodes, sg.edges, sg.paths
    row = {c: i for i, c in enumerate(nodes)}
    und = sorted({
        (min(row[h], row[t]), max(row[h], row[t]))
        for h, _, t in edges if h != t
    })
    q_rows, a_rows, owner, offsets = [], [], [], [0]
    heads, rels, signs, tails = [], [], [], []
    for i, qc in enumerate(cq):
        for j, ac in enumerate(ca):
            for path in pair_paths[(i, j)]:
                cur = path["start"]
                for rel, reverse, node in path["steps"]:
                    heads.append(row[cur])
                    rels.append(rel)
                    signs.append(-1.0 if reverse else 1.0)
                    tails.append(row[node])
                    cur = node
                owner.append(len(q_rows))
                offsets.append(len(heads))
            q_rows.append(row[qc])
            a_rows.append(row[ac])
    ints = partial(np.array, dtype=np.int64)
    return Instance(
        example_id, cand_index, node_ids=ints(nodes), und_edges=und,
        q_rows=ints(q_rows), a_rows=ints(a_rows), owner=ints(owner),
        offsets=ints(offsets), heads=ints(heads), rels=ints(rels),
        signs=np.array(signs, dtype=np.float64), tails=ints(tails),
        label=label, ungrounded=ungrounded)


@dataclass
class ForwardTrace:
    """Everything backward() needs beyond the instance's own path table.

    Rows of ``V`` and columns of ``alpha`` follow the table's path order, so
    ``V[inst.owner == p]`` are pair p's path vectors. ``alpha`` holds the
    path attention of pair p over its own paths in row p and zero elsewhere;
    a pair with no paths has a zero row and its fallback row as ``R_hat``.
    In the same way ``beta_hat`` holds the pair attention of candidate g over
    its own pairs in row g, and row g of ``s``, ``g_hat``, ``raw`` and
    ``score`` is candidate g's.
    """

    inst: Instance
    s: np.ndarray                       # (G, d_s) statement vectors
    rel_emb: np.ndarray
    gcn_caches: list
    lstm_cache: tuple                   # the path BiLSTM's forward_ragged cache
    V: np.ndarray                       # (K, d_path) path vectors
    t_cache: object
    T: np.ndarray                       # (P, d_t)
    alpha: np.ndarray                   # (P, K) path attention
    R_hat: np.ndarray                   # (P, d_path)
    beta_hat: np.ndarray                # (G, P) pair attention
    g_hat: np.ndarray                   # (G, d_path + d_t) graph vectors
    score_cache: object
    raw: np.ndarray                     # (G,) logits
    score: np.ndarray                   # (G,) sigmoid of raw


@dataclass
class InputGrads:
    ds: np.ndarray                      # (G, d_s)
    d_node_init: np.ndarray
    d_rel_emb: np.ndarray


class PathAttentionScorer(Layer):
    """The scoring network, sized and switched by the ``RunConfig`` it reads.

    ``kge_dim`` is the node and relation width; ``d_s``, the statement width,
    comes from the statement encoder or the feature file. Parameters are
    drawn from ``rng`` in a fixed order: GCN, BiLSTM, T-MLP, W1, W2, score MLP.
    """

    def __init__(self, cfg: RunConfig, d_s: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.cfg = cfg
        self.d_s = d_s
        self.gcn: list[GCNLayer] = []
        d_prev = cfg.kge_dim
        for li, d_out in enumerate(cfg.gcn_layers):
            layer = GCNLayer(rng, d_prev, d_out)
            self.gcn.append(layer)
            self._adopt(f"gcn{li}", layer)
            d_prev = d_out
        self.path_lstm = BiLSTM(rng, cfg.d_step, cfg.lstm_hidden)
        self._adopt("path_lstm", self.path_lstm)
        self.t_mlp = MLP(rng, [d_s + 2 * cfg.d_gcn_out, cfg.t_hidden, cfg.d_t])
        self._adopt("t_mlp", self.t_mlp)
        self.W1 = self._register("W1", glorot(rng, cfg.d_t, cfg.d_path))
        self.W2 = self._register("W2", glorot(rng, d_s, cfg.d_t))
        self.score_mlp = MLP(rng, [cfg.d_path + cfg.d_t, cfg.score_hidden, 1])
        self._adopt("score_mlp", self.score_mlp)

    # ---------------- forward ----------------

    def forward(self, inst: Instance, s: np.ndarray, node_init: np.ndarray,
                rel_emb: np.ndarray, fallback: np.ndarray) -> ForwardTrace:
        """Scores the instance's G candidates; ``s`` is (G, d_s) and
        ``fallback`` holds one row per pair without paths, in pair order, as
        ``fallback_rows`` draws them."""
        c = self.cfg
        n = inst.n_nodes
        G = len(inst.pair_bounds) - 1
        P, K = len(inst.q_rows), len(inst.owner)
        with_paths = np.bincount(inst.owner, minlength=P) > 0
        if node_init.shape != (n, c.kge_dim):
            raise ValueError(f"node_init shape {node_init.shape}, "
                             f"expected {(n, c.kge_dim)}")
        if s.shape != (G, self.d_s):
            raise ValueError(f"statement vectors shape {s.shape}, "
                             f"expected {(G, self.d_s)}")
        want = (P - int(with_paths.sum()), c.d_path)
        if fallback.shape != want:
            raise ValueError(f"fallback rows shape {fallback.shape}, expected {want}")

        adj = normalized_adjacency(n, inst.und_edges)
        h = node_init
        gcn_caches = []
        for layer in self.gcn:
            h, cache = layer.forward(h, adj)
            gcn_caches.append(cache)

        x = np.concatenate(
            [h[inst.heads], inst.signs[:, None] * rel_emb[inst.rels], h[inst.tails]],
            axis=1)
        # a path vector joins the bi-states at its first and last steps
        ends, lstm_cache = self.path_lstm.forward_ragged(x, inst.offsets)
        V = ends.reshape(K, c.d_path)

        cand = inst.pair_cand
        t_in = np.concatenate([s[cand], h[inst.q_rows], h[inst.a_rows]], axis=1)
        T, t_cache = self.t_mlp.forward(t_in)

        # path attention: softmax over each pair's own paths, as masked rows
        alpha = np.zeros((P, K))
        if K:
            logits = (T @ self.W1) @ V.T if c.path_attention else np.zeros((P, K))
            masked = np.where(inst.owner == np.arange(P)[:, None], logits, -np.inf)
            alpha[with_paths] = softmax(masked[with_paths])
        R_hat = alpha @ V
        R_hat[~with_paths] = fallback

        # pair attention: softmax over each candidate's own pairs, as masked
        # rows; every candidate has at least one pair
        beta = (s @ self.W2) @ T.T if c.pair_attention else np.zeros((G, P))
        beta_hat = softmax(np.where(cand == np.arange(G)[:, None], beta, -np.inf))
        u = np.concatenate([R_hat, T], axis=1)
        g_hat = beta_hat @ u

        raw_col, score_cache = self.score_mlp.forward(g_hat)
        raw = raw_col[:, 0]
        score = np.clip(sigmoid(raw), SCORE_EPS, 1.0 - SCORE_EPS)
        return ForwardTrace(
            inst=inst, s=s, rel_emb=rel_emb, gcn_caches=gcn_caches,
            lstm_cache=lstm_cache, V=V, t_cache=t_cache, T=T, alpha=alpha, R_hat=R_hat,
            beta_hat=beta_hat, g_hat=g_hat, score_cache=score_cache, raw=raw, score=score)

    # ---------------- backward ----------------

    def backward(self, trace: ForwardTrace, d_raw: np.ndarray) -> InputGrads:
        """Accumulate parameter gradients; return input-side gradients.

        d_raw, of the shape of ``trace.raw``, is dLoss/dRaw where raw is each
        candidate's pre-sigmoid logit; losses are defined on raw directly
        (logit form) so the chain stays exact.
        """
        c = self.cfg
        d = c.d_gcn_out
        d_raw = np.asarray(d_raw, dtype=np.float64)
        if d_raw.shape != trace.raw.shape:
            raise ValueError(f"d_raw shape {d_raw.shape}, expected {trace.raw.shape}")
        d_g = self.score_mlp.backward(d_raw[:, None], trace.score_cache)

        u = np.concatenate([trace.R_hat, trace.T], axis=1)
        d_beta_hat = d_g @ u.T
        du = trace.beta_hat.T @ d_g
        dR_hat = du[:, :c.d_path]
        dT = du[:, c.d_path:].copy()

        ds = np.zeros_like(trace.s)
        if c.pair_attention:
            # entries outside a candidate's own pairs are zero in beta_hat,
            # so they take no gradient
            d_beta = softmax_backward(trace.beta_hat, d_beta_hat)
            # beta_gp = (s_g W2) . T_p
            sW2 = trace.s @ self.W2
            d_sW2 = d_beta @ trace.T
            ds += d_sW2 @ self.W2.T
            dT += d_beta.T @ sW2
            self._grads["W2"] += trace.s.T @ d_sW2

        # rows of pairs without paths are zero in alpha: their fallback
        # rows are constant inputs and take no gradient
        V, alpha = trace.V, trace.alpha
        dV = alpha.T @ dR_hat
        if c.path_attention:
            d_logits = softmax_backward(alpha, dR_hat @ V.T)
            dT += d_logits @ (V @ self.W1.T)
            dV += d_logits.T @ (trace.T @ self.W1)
            self._grads["W1"] += trace.T.T @ (d_logits @ V)

        inst = trace.inst
        d_x = self.path_lstm.backward_ragged(dV.reshape(-1, 2, 2 * c.lstm_hidden),
                                             trace.lstm_cache)
        d_rel = scatter_rows(len(trace.rel_emb), inst.rels,
                             inst.signs[:, None] * d_x[:, d:d + c.kge_dim])
        d_t_in = self.t_mlp.backward(dT, trace.t_cache)
        np.add.at(ds, inst.pair_cand, d_t_in[:, :self.d_s])
        dh = scatter_rows(
            inst.n_nodes, np.concatenate([inst.heads, inst.tails, inst.q_rows, inst.a_rows]),
            np.concatenate([d_x[:, :d], d_x[:, d + c.kge_dim:],
                            d_t_in[:, self.d_s:self.d_s + d], d_t_in[:, self.d_s + d:]]))

        for layer, cache in zip(reversed(self.gcn), reversed(trace.gcn_caches)):
            dh = layer.backward(dh, cache)
        return InputGrads(ds=ds, d_node_init=dh, d_rel_emb=d_rel)


def bce_loss(raw: float | np.ndarray,
             label: float | np.ndarray) -> tuple[float, float | np.ndarray]:
    """Binary cross-entropy on logits; returns (loss, dloss/draw).

    ``raw`` and ``label`` are scalars or equal-shape arrays, such as one
    question's candidate logits and their 0/1 labels: the loss is summed and
    the gradient has the shape of ``raw``. Computed in logit form (softplus)
    so extreme raw values stay finite.
    """
    raw = np.asarray(raw, dtype=np.float64)
    loss = np.sum(np.maximum(raw, 0.0) - raw * label + np.log1p(np.exp(-np.abs(raw))))
    return float(loss), sigmoid(raw) - label
