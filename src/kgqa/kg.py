"""Triple-store ingestion with relation merging and an immutable adjacency index.

Accepts either the full ConceptNet 5.x assertion TSV (URI, relation, start,
end, JSON metadata; rows with a non-English endpoint are skipped) or a
simplified ``relation <tab> head <tab> tail [<tab> weight]`` TSV. Raw relation
names are merged down by a map that ``load_merge_map`` reads from a two-column
file (``raw <tab> merged|DELETE``); duplicate merged triples collapse keeping
the maximum weight. Skipped lines are summarized per reason, not listed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .io_utils import BYTES, ContainerError, read_container, require, write_container

DELETE = "DELETE"
LANGUAGE = "en"  # recognition (lemmatizer, stopwords) is English-only


class IngestError(ValueError):
    """Raised when ingestion cannot produce a usable graph."""


def normalize_surface(text: str) -> str:
    """Lowercase and join tokens with underscores ("Glue Stick" -> "glue_stick")."""
    return "_".join(text.strip().lower().split())


def load_merge_map(path: str | Path) -> dict[str, str]:
    """Parse a merge map file: `raw <tab> merged|DELETE`, '#' comments."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise IngestError(f"{path}:{lineno}: merge map lines need 2 tab-separated columns")
        mapping[parts[0].strip()] = parts[1].strip()
    return mapping


def default_merge_map_path() -> Path:
    return Path(__file__).parent / "data" / "relation_merge_default.tsv"


@dataclass
class IngestReport:
    """Ingest counts. ``skipped`` summarizes skipped lines by reason key
    (``"language filter"``, ``"malformed"``, ``"unmapped relation 'X'"``,
    ``"deleted relation 'X'"``): a count, the first line number and that
    line's message, so the report stays small on a dump of any length."""

    lines_read: int = 0
    triples_kept: int = 0
    duplicates_merged: int = 0
    skipped: dict[str, dict] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def skip(self, key: str, lineno: int, message: str) -> None:
        entry = self.skipped.setdefault(
            key, {"count": 0, "first_line": lineno, "first_message": message})
        entry["count"] += 1

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class KnowledgeGraph:
    """Immutable concept/relation vocabularies plus a CSR-style adjacency index.

    ``triples`` is an (n, 3) uint32 array of (head, rel, tail); each triple
    appears in the adjacency once forward on its head and once reverse on its
    tail, sorted by (neighbor, rel, direction).
    """

    concepts: tuple[str, ...]
    relations: tuple[str, ...]
    triples: np.ndarray
    weights: np.ndarray
    _surface_index: dict[str, int] = field(repr=False)
    _adj_ptr: np.ndarray = field(repr=False)
    _adj_nbr: np.ndarray = field(repr=False)
    _adj_rel: np.ndarray = field(repr=False)
    _adj_rev: np.ndarray = field(repr=False)

    @property
    def n_concepts(self) -> int:
        return len(self.concepts)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    @property
    def n_triples(self) -> int:
        return len(self.triples)

    def lookup_surface(self, surface: str) -> int | None:
        """Exact match of a normalized surface against the vocabulary."""
        return self._surface_index.get(surface)

    def surface(self, concept: int) -> str:
        return self.concepts[concept]

    def neighbors(self, concept: int) -> list[tuple[int, int, bool]]:
        """All incident edges of a concept as (neighbor, rel, reverse) tuples.

        ``reverse`` is True when the underlying triple points neighbor->concept.
        Deterministic order: sorted by neighbor id, then rel id, then direction.
        """
        c = int(concept)
        if not 0 <= c < self.n_concepts:
            raise IndexError(f"concept id {concept} out of range")
        lo, hi = self._adj_ptr[c], self._adj_ptr[c + 1]
        return list(zip(
            self._adj_nbr[lo:hi].tolist(),
            self._adj_rel[lo:hi].tolist(),
            self._adj_rev[lo:hi].astype(bool).tolist(),
        ))

    def save(self, path: str | Path) -> None:
        meta = {
            "n_concepts": self.n_concepts,
            "n_relations": self.n_relations,
            "n_triples": self.n_triples,
        }
        write_container(
            path,
            "kg-snapshot",
            meta,
            {
                "concepts": "\n".join(self.concepts).encode("utf-8"),
                "relations": "\n".join(self.relations).encode("utf-8"),
                "triples": self.triples.astype(np.uint32),
                "weights": self.weights.astype(np.float32),
            },
        )

    @classmethod
    def load(cls, path: str | Path) -> "KnowledgeGraph":
        meta, blocks = read_container(path, "kg-snapshot")
        require(path, meta, blocks, (), {
            "concepts": BYTES, "relations": BYTES,
            "triples": (("uint32",), ("n", 3)), "weights": (("float32",), ("n",))})
        vocab = {}
        for name in ("concepts", "relations"):
            try:
                vocab[name] = blocks[name].decode("utf-8").split("\n") if blocks[name] else []
            except UnicodeDecodeError as exc:
                raise ContainerError(f"{path}: block {name!r} is not UTF-8: {exc}") from None
        concepts, relations = vocab["concepts"], vocab["relations"]
        triples = blocks["triples"]
        for col, name, size in ((0, "concepts", len(concepts)),
                                (1, "relations", len(relations)),
                                (2, "concepts", len(concepts))):
            top = int(triples[:, col].max()) if len(triples) else -1
            if top >= size:
                raise ContainerError(f"{path}: block 'triples' holds id {top} "
                                     f"of block {name!r}, which lists {size}")
        kg = build_graph(concepts, relations, triples, blocks["weights"])
        if len(kg._surface_index) != kg.n_concepts:  # recognition would see one of two
            raise ContainerError(f"{path}: block 'concepts' repeats a surface: "
                                 f"{kg.n_concepts} concepts, {len(kg._surface_index)} distinct")
        return kg


def build_graph(concepts, relations, triples, weights) -> KnowledgeGraph:
    """Assemble the immutable graph, building the sorted adjacency index: one
    argsort of the int64 key ``((src*nv + nbr)*n_rel + rel)*2 + rev``, the
    order of ``np.lexsort((rev, rel, nbr, src))``. The key holds every field
    of an entry, so entries with equal keys are equal and the sort need not
    be stable. An id past its vocabulary, or a vocabulary too large for the
    key, is a ValueError."""
    nv, n_rel = len(concepts), len(relations)
    if nv * nv * n_rel * 2 >= 2 ** 63:
        raise ValueError(f"{nv} concepts and {n_rel} relations overflow the int64 sort key")
    triples = np.asarray(triples, dtype=np.uint32).reshape(-1, 3)
    weights = np.asarray(weights, dtype=np.float32).reshape(-1)
    n = len(triples)
    # One forward entry on the head, one reverse entry on the tail.
    src = np.concatenate([triples[:, 0], triples[:, 2]])
    nbr = np.concatenate([triples[:, 2], triples[:, 0]])
    rel = np.concatenate([triples[:, 1], triples[:, 1]])
    rev = np.concatenate([np.zeros(n, np.uint8), np.ones(n, np.uint8)])
    counts = np.bincount(src, minlength=nv)  # longer than nv when an id is out of range
    if len(counts) > nv or (n and int(rel.max()) >= n_rel):
        raise ValueError(f"triple ids must be below {nv} concepts and {n_rel} relations")
    key = ((src.astype(np.int64) * nv + nbr) * n_rel + rel) * 2 + rev
    order = np.argsort(key)
    nbr, rel, rev = nbr[order], rel[order], rev[order]
    return KnowledgeGraph(
        concepts=tuple(concepts),
        relations=tuple(relations),
        triples=triples,
        weights=weights,
        _surface_index=dict(zip(concepts, range(nv))),
        _adj_ptr=np.concatenate([np.zeros(1, np.int64), np.cumsum(counts)]),
        _adj_nbr=nbr,
        _adj_rel=rel,
        _adj_rev=rev,
    )


class _Skip(ValueError):
    """A well-formed line that ingestion leaves out; its message is its summary key."""


def _parse_full_line(fields: list[str]) -> tuple[str, str, str, float]:
    """Parse a ConceptNet 5.x assertion row; an endpoint outside ``LANGUAGE``
    is a _Skip."""
    rel_uri, start, end, meta = fields[1], fields[2], fields[3], fields[4]
    if not rel_uri.startswith("/r/"):
        raise ValueError(f"bad relation URI {rel_uri!r}")
    rel = rel_uri[len("/r/"):]
    endpoints = []
    for uri in (start, end):
        parts = uri.split("/")
        # /c/<lang>/<surface>[/<sense>...]
        if len(parts) < 4 or parts[1] != "c":
            raise ValueError(f"bad concept URI {uri!r}")
        if parts[2] != LANGUAGE:
            raise _Skip("language filter")
        endpoints.append(normalize_surface(parts[3]))
    try:
        weight = float(json.loads(meta).get("weight", 1.0))
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise ValueError(f"bad metadata JSON: {exc}") from exc
    return rel, endpoints[0], endpoints[1], weight


def _parse_simple_line(fields: list[str]) -> tuple[str, str, str, float]:
    if len(fields) not in (3, 4):
        raise ValueError(f"expected 3 or 4 columns, found {len(fields)}")
    weight = float(fields[3]) if len(fields) == 4 else 1.0
    return fields[0].strip(), normalize_surface(fields[1]), normalize_surface(fields[2]), weight


def ingest(
    assertions_file: str | Path,
    merge_map: dict[str, str] | None = None,
) -> tuple[KnowledgeGraph, IngestReport]:
    """Read a triple dump, merge relation types, and build the graph.

    ``merge_map`` is a loaded map (``load_merge_map``), or None to keep raw
    relation names. With a map, relation ids follow its targets in first-use
    order; without one, raw names in order of first use. A line that is
    malformed (in either format: an empty relation or endpoint, or a weight
    that is not finite and non-negative), has a non-English endpoint, or whose
    relation the map lacks or deletes is skipped and summarized; map entries
    never seen in the data produce a warning. Raises IngestError when nothing
    survives.
    """
    report = IngestReport()
    rel_ids: dict[str, int] = {}
    for target in (merge_map or {}).values():
        if target != DELETE:
            rel_ids.setdefault(target, len(rel_ids))
    best: dict[tuple[str, int, str], float] = {}
    raw_seen: set[str] = set()

    with open(assertions_file, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            report.lines_read += 1
            fields = line.split("\t")
            try:
                if len(fields) == 5 and fields[0].startswith("/a/"):
                    raw_rel, head, tail, weight = _parse_full_line(fields)
                else:
                    raw_rel, head, tail, weight = _parse_simple_line(fields)
                if not (raw_rel and head and tail and 0.0 <= weight < math.inf):
                    raise ValueError(f"weight {weight} is not finite and non-negative"
                                     if not 0.0 <= weight < math.inf
                                     else "empty relation or endpoint")
                raw_seen.add(raw_rel)
                rel = raw_rel if merge_map is None else merge_map.get(raw_rel)
                rid = rel_ids.get(rel)
                if rid is None:
                    if merge_map is not None:
                        why = "deleted" if rel == DELETE else "unmapped"
                        raise _Skip(f"{why} relation {raw_rel!r}")
                    rid = rel_ids[rel] = len(rel_ids)
            except ValueError as exc:
                report.skip(str(exc) if isinstance(exc, _Skip) else "malformed",
                            lineno, str(exc))
                continue
            key = (head, rid, tail)
            old = best.get(key)
            if old is not None:
                report.duplicates_merged += 1
            if old is None or weight > old:
                best[key] = weight

    report.warnings = [f"merge map relation never seen in data: {name!r}"
                       for name in sorted(set(merge_map or ()) - raw_seen)]
    if not best:
        raise IngestError("empty knowledge graph: no triples survived ingestion")

    concepts = sorted({h for h, _, _ in best} | {t for _, _, t in best})
    cindex = {s: i for i, s in enumerate(concepts)}
    rows = sorted((cindex[h], r, cindex[t], w) for (h, r, t), w in best.items())
    triples = np.array([(h, r, t) for h, r, t, _ in rows], dtype=np.uint32)
    weights = np.array([w for _, _, _, w in rows], dtype=np.float32)
    report.triples_kept = len(rows)
    return build_graph(concepts, tuple(rel_ids), triples, weights), report
