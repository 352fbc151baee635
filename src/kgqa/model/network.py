"""Graph-and-path scoring network with hierarchical attention.

One forward pass scores a single (question, candidate) instance:

  1. GCN layers contextualize the schema-graph node vectors.
  2. The instance's paths form one flat list, numbered pair by pair, with
     ``owner`` giving each path's pair. Each step is encoded as [source
     state; signed relation vector; destination state]; paths of equal
     length run through the bidirectional LSTM as one batch, and a path
     vector concatenates the bi-hidden states at its first and last steps
     (4H dims). The path vectors form one (K, d_path) matrix V.
  3. Per concept pair (i, j): T_ij = MLP([s; c_i; c_j]), one batch over all
     pairs. Path attention alpha = T W1 V^T, softmaxed per row over the
     pair's own paths (a masked (P, K) matrix; uniform when path attention
     is disabled), gives the attended relation vectors R = alpha V. A pair
     with no paths has a zero row and takes a fixed per-pair random vector
     as its R.
  4. Pair attention beta_ij = s W2 T_ij, softmaxed over all pairs, pools
     [R_ij; T_ij] into the graph vector g.
  5. score = sigmoid(MLP(g)).

backward() consumes the retained trace and yields exact gradients for every
parameter tensor plus the statement vector, initial node vectors, and
relation vectors, so upstream encoders and embedding tables can train too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..io_utils import stable_seed
from ..paths import SchemaGraph
from .layers import (BiLSTM, GCNLayer, Layer, MLP, glorot, normalized_adjacency,
                     sigmoid, softmax, softmax_backward)

SCORE_EPS = 1e-15  # reported scores stay inside the open interval (0, 1)


@dataclass
class ModelConfig:
    d_node: int = 100
    gcn_dims: tuple[int, ...] = (100, 50)
    d_rel: int = 100
    lstm_hidden: int = 128
    d_t: int = 128
    t_hidden: int = 128
    d_s: int = 128
    score_hidden: int = 64
    path_attention: bool = True
    pair_attention: bool = True
    train_rel_emb: bool = True
    train_node_emb: bool = False

    @property
    def d_gcn_out(self) -> int:
        return self.gcn_dims[-1] if self.gcn_dims else self.d_node

    @property
    def d_path(self) -> int:
        return 4 * self.lstm_hidden

    @property
    def d_step(self) -> int:
        return 2 * self.d_gcn_out + self.d_rel

    def to_dict(self) -> dict:
        return {
            "d_node": self.d_node, "gcn_dims": list(self.gcn_dims),
            "d_rel": self.d_rel, "lstm_hidden": self.lstm_hidden,
            "d_t": self.d_t, "t_hidden": self.t_hidden, "d_s": self.d_s,
            "score_hidden": self.score_hidden,
            "path_attention": self.path_attention,
            "pair_attention": self.pair_attention,
            "train_rel_emb": self.train_rel_emb,
            "train_node_emb": self.train_node_emb,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["gcn_dims"] = tuple(d.get("gcn_dims", (100, 50)))
        return cls(**d)


@dataclass
class PairData:
    """One (question concept, answer concept) pair in local node rows.

    Each path is four aligned int arrays over its steps: source row, relation
    id, sign (+1 forward, -1 reversed), destination row. ``fallback`` stands
    in for the attended path vector when the pair has no paths; it is drawn
    once at instance-build time and never trained.
    """

    q_row: int
    a_row: int
    paths: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    fallback: Optional[np.ndarray] = None


@dataclass
class Instance:
    """A grounded (question, candidate) input in model-ready form."""

    example_id: str
    cand_index: int
    node_ids: np.ndarray            # (N,) global concept ids
    und_edges: list[tuple[int, int]]  # unique undirected local row pairs
    pairs: list[PairData]
    label: Optional[int] = None     # 1 correct candidate, 0 distractor
    ungrounded: bool = False        # True for the single-anchor fallback form

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)


def fallback_vector(d_path: int, *seed_parts) -> np.ndarray:
    """Deterministic stand-in path vector for a pair with no paths."""
    rng = np.random.default_rng(stable_seed("fallback", *seed_parts))
    return rng.standard_normal(d_path) / np.sqrt(d_path)


def instance_from_schema_graph(
    sg: SchemaGraph,
    example_id: str,
    cand_index: int,
    d_path: int,
    seed: int = 0,
    label: Optional[int] = None,
) -> Instance:
    """Convert a schema graph to local-row arrays the network consumes.

    Fallback vectors are keyed by the global concept ids of the pair, so
    relabeling or reordering nodes later cannot change them.
    """
    row = {c: i for i, c in enumerate(sg.nodes)}
    und = sorted({
        (min(row[h], row[t]), max(row[h], row[t]))
        for h, _, t in sg.edges if h != t
    })
    pairs = []
    for i, j in sg.pair_indices():
        qc, ac = sg.cq[i], sg.ca[j]
        arrs = []
        for path in sg.paths[(i, j)]:
            heads, rels, signs, tails = [], [], [], []
            cur = path.start
            for step in path.steps:
                heads.append(row[cur])
                rels.append(step.rel)
                signs.append(-1.0 if step.reverse else 1.0)
                tails.append(row[step.node])
                cur = step.node
            arrs.append((np.asarray(heads), np.asarray(rels),
                         np.asarray(signs, dtype=np.float64), np.asarray(tails)))
        fb = None
        if not arrs:
            fb = fallback_vector(d_path, seed, example_id, cand_index, qc, ac)
        pairs.append(PairData(q_row=row[qc], a_row=row[ac], paths=arrs, fallback=fb))
    return Instance(
        example_id=example_id,
        cand_index=cand_index,
        node_ids=np.asarray(sg.nodes, dtype=np.int64),
        und_edges=und,
        pairs=pairs,
        label=label,
    )


@dataclass
class ForwardTrace:
    """Everything backward() needs, with the instance's paths in one flat list.

    Paths are numbered k = 0..K-1 pair by pair, in each pair's own order, so
    ``owner`` is sorted and ``V[owner == p]`` are pair p's path vectors.
    Their steps sit end to end in the flat ``steps`` arrays; each entry of
    ``groups`` is one BiLSTM run over the paths of one length: (path
    indices, (B, L) step positions, LSTM cache). ``alpha`` holds the path
    attention of pair p over its own paths in row p and zero elsewhere; a
    pair with no paths has a zero row and its fallback vector as ``R_hat``.
    """

    inst: Instance
    s: np.ndarray
    node_init: np.ndarray
    rel_emb: np.ndarray
    adj: np.ndarray
    gcn_caches: list
    node_states: list[np.ndarray]       # per layer, [0] = input
    steps: tuple[np.ndarray, ...]       # (S,) heads, rels, signs, tails
    groups: list[tuple]                 # per path length
    q_rows: np.ndarray                  # (P,)
    a_rows: np.ndarray                  # (P,)
    owner: np.ndarray                   # (K,) pair of each path
    V: np.ndarray                       # (K, d_path) path vectors
    t_cache: object
    T: np.ndarray                       # (P, d_t)
    alpha: np.ndarray                   # (P, K) path attention
    R_hat: np.ndarray                   # (P, d_path)
    beta: np.ndarray
    beta_hat: np.ndarray
    g_hat: np.ndarray
    score_cache: object
    raw: float
    score: float


@dataclass
class InputGrads:
    ds: np.ndarray
    d_node_init: np.ndarray
    d_rel_emb: np.ndarray


class PathAttentionScorer(Layer):
    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        c = config
        self.gcn: list[GCNLayer] = []
        d_prev = c.d_node
        for li, d_out in enumerate(c.gcn_dims):
            layer = GCNLayer(rng, d_prev, d_out)
            self.gcn.append(layer)
            self._adopt(f"gcn{li}", layer)
            d_prev = d_out
        self.path_lstm = BiLSTM(rng, c.d_step, c.lstm_hidden)
        self._adopt("path_lstm", self.path_lstm)
        self.t_mlp = MLP(rng, [c.d_s + 2 * c.d_gcn_out, c.t_hidden, c.d_t])
        self._adopt("t_mlp", self.t_mlp)
        self.W1 = self._register("W1", glorot(rng, c.d_t, c.d_path))
        self.W2 = self._register("W2", glorot(rng, c.d_s, c.d_t))
        self.score_mlp = MLP(rng, [c.d_path + c.d_t, c.score_hidden, 1])
        self._adopt("score_mlp", self.score_mlp)

    # ---------------- forward ----------------

    def forward(self, inst: Instance, s: np.ndarray,
                node_init: np.ndarray, rel_emb: np.ndarray) -> ForwardTrace:
        c = self.config
        n = inst.n_nodes
        if node_init.shape != (n, c.d_node):
            raise ValueError(f"node_init shape {node_init.shape}, "
                             f"expected {(n, c.d_node)}")
        if s.shape != (c.d_s,):
            raise ValueError(f"statement vector shape {s.shape}, expected ({c.d_s},)")

        adj = normalized_adjacency(n, inst.und_edges)
        h = node_init
        gcn_caches = []
        node_states = [h]
        for layer in self.gcn:
            h, cache = layer.forward(h, adj)
            gcn_caches.append(cache)
            node_states.append(h)

        paths = [p for pair in inst.pairs for p in pair.paths]
        counts = np.array([len(pair.paths) for pair in inst.pairs], dtype=np.int64)
        P, K = len(counts), len(paths)
        owner = np.repeat(np.arange(P), counts)
        lengths = np.array([len(p[0]) for p in paths], dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        steps = tuple(
            np.concatenate([p[f] for p in paths]) if K else np.zeros(0, dtype)
            for f, dtype in enumerate((np.int64, np.int64, np.float64, np.int64)))
        heads, rels, signs, tails = steps
        x = np.concatenate(
            [h[heads], signs[:, None] * rel_emb[rels], h[tails]], axis=1)

        # one BiLSTM run per path length; a path vector joins the bi-states
        # at its first and last steps
        H2 = c.lstm_hidden * 2
        V = np.zeros((K, c.d_path))
        groups = []
        for length in np.unique(lengths):
            index = np.flatnonzero(lengths == length)
            pos = starts[index, None] + np.arange(length)
            y, lstm_cache = self.path_lstm.forward(x[pos])
            V[index, :H2] = y[:, 0]
            V[index, H2:] = y[:, -1]
            groups.append((index, pos, lstm_cache))

        q_rows = np.array([pair.q_row for pair in inst.pairs], dtype=np.int64)
        a_rows = np.array([pair.a_row for pair in inst.pairs], dtype=np.int64)
        t_in = np.concatenate(
            [np.broadcast_to(s, (P, c.d_s)), h[q_rows], h[a_rows]], axis=1)
        T, t_cache = self.t_mlp.forward(t_in)

        # path attention: softmax over each pair's own paths, as masked rows
        with_paths = counts > 0
        alpha = np.zeros((P, K))
        if K:
            logits = (T @ self.W1) @ V.T if c.path_attention else np.zeros((P, K))
            masked = np.where(owner == np.arange(P)[:, None], logits, -np.inf)
            alpha[with_paths] = softmax(masked[with_paths])
        R_hat = alpha @ V
        for pi in np.flatnonzero(~with_paths):
            fallback = inst.pairs[pi].fallback
            if fallback is None:
                raise ValueError(f"pair {pi} has no paths and no fallback vector")
            R_hat[pi] = fallback

        if c.pair_attention:
            beta = (s @ self.W2) @ T.T
        else:
            beta = np.zeros(P)
        beta_hat = softmax(beta)
        u = np.concatenate([R_hat, T], axis=1)
        g_hat = beta_hat @ u

        raw_arr, score_cache = self.score_mlp.forward(g_hat)
        raw = float(raw_arr[0])
        score = float(np.clip(sigmoid(np.array([raw]))[0], SCORE_EPS, 1.0 - SCORE_EPS))
        return ForwardTrace(
            inst=inst, s=s, node_init=node_init, rel_emb=rel_emb, adj=adj,
            gcn_caches=gcn_caches, node_states=node_states, steps=steps,
            groups=groups, q_rows=q_rows, a_rows=a_rows, owner=owner, V=V,
            t_cache=t_cache, T=T, alpha=alpha, R_hat=R_hat, beta=beta,
            beta_hat=beta_hat, g_hat=g_hat, score_cache=score_cache, raw=raw,
            score=score)

    # ---------------- backward ----------------

    def backward(self, trace: ForwardTrace, d_raw: float) -> InputGrads:
        """Accumulate parameter gradients; return input-side gradients.

        d_raw is dLoss/dRaw where raw is the pre-sigmoid scalar; losses are
        defined on raw directly (logit form) so the chain stays exact.
        """
        c = self.config
        H2 = c.lstm_hidden * 2
        d = c.d_gcn_out
        d_g = self.score_mlp.backward(np.array([float(d_raw)]), trace.score_cache)

        u = np.concatenate([trace.R_hat, trace.T], axis=1)
        d_beta_hat = u @ d_g
        du = np.outer(trace.beta_hat, d_g)
        dR_hat = du[:, :c.d_path]
        dT = du[:, c.d_path:].copy()

        ds = np.zeros(c.d_s)
        if c.pair_attention:
            d_beta = softmax_backward(trace.beta_hat, d_beta_hat)
            # beta_p = (s W2) . T_p
            sW2 = trace.s @ self.W2
            ds += self.W2 @ (trace.T.T @ d_beta)
            dT += np.outer(d_beta, sW2)
            self._grads["W2"] += np.outer(trace.s, trace.T.T @ d_beta)

        # rows of pairs without paths are zero in alpha: their fallback
        # vectors are constant inputs and take no gradient
        V, alpha = trace.V, trace.alpha
        dV = alpha.T @ dR_hat
        if c.path_attention:
            d_logits = softmax_backward(alpha, dR_hat @ V.T)
            dT += d_logits @ (V @ self.W1.T)
            dV += d_logits.T @ (trace.T @ self.W1)
            self._grads["W1"] += trace.T.T @ (d_logits @ V)

        heads, rels, signs, tails = trace.steps
        d_x = np.zeros((len(heads), c.d_step))
        for index, pos, lstm_cache in trace.groups:
            dy = np.zeros(pos.shape + (H2,))
            dy[:, 0] = dV[index, :H2]
            dy[:, -1] += dV[index, H2:]
            d_x[pos] = self.path_lstm.backward(dy, lstm_cache)
        d_node = np.zeros((trace.inst.n_nodes, d))
        d_rel = np.zeros_like(trace.rel_emb)
        np.add.at(d_node, heads, d_x[:, :d])
        np.add.at(d_rel, rels, signs[:, None] * d_x[:, d:d + c.d_rel])
        np.add.at(d_node, tails, d_x[:, d + c.d_rel:])

        d_t_in = self.t_mlp.backward(dT, trace.t_cache)
        ds += d_t_in[:, :c.d_s].sum(axis=0)
        np.add.at(d_node, trace.q_rows, d_t_in[:, c.d_s:c.d_s + d])
        np.add.at(d_node, trace.a_rows, d_t_in[:, c.d_s + d:])

        dh = d_node
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


def listwise_loss(raws: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy over one question's candidate logits."""
    p = softmax(raws)
    z = raws - np.max(raws)
    loss = float(np.log(np.sum(np.exp(z))) - z[label])
    grad = p.copy()
    grad[label] -= 1.0
    return loss, grad
