"""Translational triple embeddings and path pruning.

Entities and relations share one d-dimensional space; a triple (h, r, t) is
scored by ``||h + r - t||_2`` (small is plausible). The table holds forward
relations only: a path is scored by its canonical triples
(``paths.path_triples``), so a step walked against its triple's direction
scores exactly as the stored triple does.

Training is margin-based ranking against corrupted triples with plain
minibatch SGD, L2-renormalizing entity rows after each epoch. Row updates are
summed in index order, bit-identical to ``np.add.at`` (``layers.scatter_rows``).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from . import io_utils
from .kg import KnowledgeGraph
from .model.layers import scatter_rows
from .paths import PathSteps, SchemaGraph, path_triples

DEFAULT_GAMMA = 2.0
DEFAULT_THRESHOLD = 0.15
PRUNE_EXEMPT_BELOW = 3  # pairs with fewer paths are never pruned


@dataclass
class EmbeddingTable:
    ent: np.ndarray  # (n_concepts, d) float64
    rel: np.ndarray  # (n_relations, d) float64, forward orientation
    gamma: float = DEFAULT_GAMMA

    @property
    def dim(self) -> int:
        return self.ent.shape[1]

    def triple_confidence(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Plausibility in (0, 1) of the triples (h, r, t): logistic of
        (gamma - ||h + r - t||_2)."""
        h, r, t = np.asarray(h), np.asarray(r), np.asarray(t)
        x = self.gamma - np.linalg.norm(self.ent[h] + self.rel[r] - self.ent[t], axis=-1)
        z = np.exp(-np.abs(x))  # z <= 1, no overflow either direction
        out = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
        return out[()]

    def path_score(self, start: int, steps: PathSteps) -> float:
        """Product of the triple confidences along the path from ``start``."""
        conf = 1.0
        for h, r, t in path_triples(start, steps):
            conf *= float(self.triple_confidence(h, r, t))
        return conf

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {"gamma": self.gamma, "dim": self.dim,
                "n_entities": int(self.ent.shape[0]),
                "n_relations": int(self.rel.shape[0])}
        if extra_meta:
            meta.update(extra_meta)
        io_utils.write_container(path, "kge", meta, {"ent": self.ent, "rel": self.rel})

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        meta, blocks = io_utils.read_container(path, kind="kge")
        io_utils.require(path, meta, blocks, ("gamma",), {
            "ent": (io_utils.FLOATS, (None, "d")), "rel": (io_utils.FLOATS, (None, "d"))})
        return cls(ent=blocks["ent"], rel=blocks["rel"], gamma=float(meta["gamma"]))


def load_word_vectors(path) -> dict[str, np.ndarray]:
    """Plain-text vectors: one ``word v1 v2 ... vd`` row per line.

    An unreadable file raises its OSError. A non-numeric value, or a row
    whose width differs from the first row's, is a ValueError naming
    ``path:line``.
    """
    vecs: dict[str, np.ndarray] = {}
    width = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                continue
            try:
                row = np.asarray([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(f"{path}:{lineno}: row has {len(row)} values, "
                                 f"the first row has {width}")
            vecs[parts[0]] = row
    return vecs


def _renorm_entities(ent: np.ndarray) -> None:
    norms = np.linalg.norm(ent, axis=1, keepdims=True)
    np.maximum(norms, 1e-12, out=norms)  # guard all-zero rows
    ent /= norms


def init_embeddings(
    kg: KnowledgeGraph,
    dim: int,
    rng: np.random.Generator,
    word_vectors: dict[str, np.ndarray] | None = None,
) -> EmbeddingTable:
    """Uniform(-1/sqrt(d), 1/sqrt(d)) init, entity rows from word vectors when given.

    A multi-token concept takes the mean of its tokens' vectors; concepts with
    no covered token keep their random row.
    """
    bound = 1.0 / np.sqrt(dim)
    ent = rng.uniform(-bound, bound, size=(kg.n_concepts, dim))
    rel = rng.uniform(-bound, bound, size=(kg.n_relations, dim))
    if word_vectors is not None:
        any_dim = next(iter(word_vectors.values())).shape[0] if word_vectors else dim
        if any_dim != dim:
            raise ValueError(f"word vectors have dim {any_dim}, expected {dim}")
        for i, surface in enumerate(kg.concepts):
            toks = [word_vectors[t] for t in surface.split("_") if t in word_vectors]
            if toks:
                ent[i] = np.mean(toks, axis=0)
    _renorm_entities(ent)
    return EmbeddingTable(ent=ent, rel=rel)


def train_transe(
    kg: KnowledgeGraph,
    dim: int = 100,
    margin: float = 1.0,
    lr: float = 0.01,
    epochs: int = 100,
    batch_size: int = 512,
    neg_per_pos: int = 1,
    seed: int = 0,
    word_vectors: dict[str, np.ndarray] | None = None,
) -> tuple[EmbeddingTable, list[float]]:
    """Margin-ranking SGD over the graph's triples.

    Corruption replaces the head or the tail (fair coin) with a uniform random
    entity. ``word_vectors`` is a table read by ``load_word_vectors``, or None
    for random entity rows. Returns the table plus mean epoch loss history;
    epochs=0 returns the initial table untouched.
    """
    for name, value in (("dim", dim), ("batch_size", batch_size), ("neg_per_pos", neg_per_pos)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")
    rng = np.random.default_rng(seed)
    table = init_embeddings(kg, dim, rng, word_vectors)
    ent, rel = table.ent, table.rel
    triples = kg.triples.astype(np.int64)
    n = len(triples)
    if n == 0:
        raise ValueError("cannot train on an empty graph")
    history: list[float] = []

    for epoch in range(epochs):
        order = rng.permutation(n)
        losses = []
        for lo in range(0, n, batch_size):
            idx = order[lo:lo + batch_size]
            batch = np.repeat(triples[idx], neg_per_pos, axis=0)
            h, r, t = batch[:, 0], batch[:, 1], batch[:, 2]
            m = len(batch)
            corrupt = rng.integers(0, kg.n_concepts, size=m)
            corrupt_head = rng.random(m) < 0.5
            hn = np.where(corrupt_head, corrupt, h)
            tn = np.where(corrupt_head, t, corrupt)

            rr = rel[r]
            d_pos_vec = ent[h] + rr - ent[t]
            d_neg_vec = ent[hn] + rr - ent[tn]
            d_pos = np.linalg.norm(d_pos_vec, axis=1)
            d_neg = np.linalg.norm(d_neg_vec, axis=1)
            gap = margin + d_pos - d_neg
            viol = gap > 0
            losses.append(float(np.mean(np.maximum(0.0, gap))))
            if not viol.any():
                continue

            # d ||v|| / dv = v / ||v||
            gp = d_pos_vec[viol] / np.maximum(d_pos[viol, None], 1e-12)
            gn = d_neg_vec[viol] / np.maximum(d_neg[viol, None], 1e-12)
            step = lr / max(1, int(viol.sum()))
            # scatter into buffers over just the touched rows; ids repeat
            ids = np.concatenate([h[viol], t[viol], hn[viol], tn[viol]])
            gvec = np.concatenate([gp, -gp, -gn, gn])
            uniq, pos = np.unique(ids, return_inverse=True)
            upd_ent = scatter_rows(len(uniq), pos, gvec)
            ent[uniq] -= step * upd_ent
            # few relations: update every row, untouched ones by exactly zero
            rel -= step * scatter_rows(len(rel), np.tile(r[viol], 2),
                                       np.concatenate([gp, -gn]))

        _renorm_entities(ent)
        mean_loss = float(np.mean(losses)) if losses else 0.0
        history.append(mean_loss)
        if not np.isfinite(mean_loss):
            raise FloatingPointError(f"non-finite loss at epoch {epoch}")
    return table, history


def eval_tail_mrr(
    table: EmbeddingTable,
    triples: np.ndarray,
    known: np.ndarray | None = None,
) -> float:
    """Filtered mean reciprocal rank of the true tail.

    For each (h, r, t) every entity is ranked by ||h + r - e||; other known
    true tails for (h, r) are excluded from the ranking (filtered protocol).
    """
    known_set = set()
    if known is not None:
        known_set = {(int(a), int(b), int(c)) for a, b, c in known}
    rr = []
    for h, r, t in np.asarray(triples, dtype=np.int64):
        query = table.ent[h] + table.rel[r]
        dist = np.linalg.norm(query[None, :] - table.ent, axis=1)
        true_d = dist[t]
        better = 0
        for e in np.flatnonzero(dist < true_d):
            if e != t and (int(h), int(r), int(e)) not in known_set:
                better += 1
        rr.append(1.0 / (1 + better))
    return float(np.mean(rr))


@dataclass
class PruneReport:
    pairs_total: int = 0
    pairs_exempt: int = 0
    paths_before: int = 0
    paths_after: int = 0

    @property
    def kept_fraction(self) -> float:
        return self.paths_after / self.paths_before if self.paths_before else 1.0

    def __add__(self, other: "PruneReport") -> "PruneReport":
        return PruneReport(*(a + b for a, b in zip(astuple(self), astuple(other))))

    def to_dict(self) -> dict:
        return {
            "pairs_total": self.pairs_total,
            "pairs_exempt": self.pairs_exempt,
            "paths_before": self.paths_before,
            "paths_after": self.paths_after,
            "kept_fraction": self.kept_fraction,
        }


def prune_schema_graph(
    sg: SchemaGraph,
    table: EmbeddingTable,
    threshold: float = DEFAULT_THRESHOLD,
) -> PruneReport:
    """Drop low-confidence paths in place; sparse pairs are left alone.

    Pairs holding fewer than PRUNE_EXEMPT_BELOW paths keep everything. A pair
    whose paths all score below threshold keeps its single best path, so
    pruning never disconnects a previously connected pair.

    The distinct canonical triples of every pruned pair are scored in one
    ``triple_confidence`` call; a path's score is then the Python-float
    product of its triples' confidences in ``path_score`` order, so the kept
    lists equal the per-path rule (``selfcheck.reference_prune``) bit for
    bit. ``sg.nodes`` must be current on entry, as ``build_schema_graph``
    leaves it; ``rebuild_cover`` recomputes it only when a path was dropped.
    """
    report = PruneReport(pairs_total=len(sg.paths))
    index: dict[tuple[int, int, int], int] = {}
    pending = []  # (key, paths, per-path triple rows into ``index``)
    for (i, j), plist in sorted(sg.paths.items()):
        report.paths_before += len(plist)
        if len(plist) < PRUNE_EXEMPT_BELOW:
            report.pairs_exempt += 1
            report.paths_after += len(plist)
            continue
        rows = [[index.setdefault(tr, len(index)) for tr in path_triples(sg.cq[i], p)]
                for p in plist]
        pending.append(((i, j), plist, rows))
    if not pending:
        return report
    h, r, t = np.array(list(index), dtype=np.int64).T
    conf = table.triple_confidence(h, r, t).tolist()
    dropped = False
    for key, plist, rows in pending:
        scores = []
        for row in rows:
            score = 1.0
            for i in row:
                score *= conf[i]
            scores.append(score)
        kept = [p for p, s in zip(plist, scores) if s >= threshold]
        if not kept:
            kept = [plist[int(np.argmax(scores))]]
        sg.paths[key] = kept
        report.paths_after += len(kept)
        dropped |= len(kept) < len(plist)
    if dropped:
        sg.rebuild_cover()
    return report
