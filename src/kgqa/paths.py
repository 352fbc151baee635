"""Schema-graph construction: bounded simple-path search between concept sets.

Paths run from a question concept to an answer concept, at most ``max_edges``
edges (default 3), traversing triples in either direction with a per-step
``reverse`` flag. Each (question concept, answer concept) pair is searched on
its own by a depth-limited DFS that starts from whichever endpoint has fewer
incident edges; paths found from the answer side are walked back before they
are sorted. The last hop is a dictionary lookup in the edges incident to the
target, so no node on the last level lists its neighbours, and a hub endpoint
costs one neighbour list rather than one per node two hops away. Results merge
deterministically by pair index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .ground import MentionSet
from .kg import KnowledgeGraph


class GroundingError(ValueError):
    """Raised when a QA pair yields no usable concept pair."""


@dataclass(frozen=True)
class PathStep:
    rel: int
    reverse: bool
    node: int

    def to_list(self) -> list:
        return [self.rel, self.reverse, self.node]


@dataclass(frozen=True)
class Path:
    start: int
    steps: tuple[PathStep, ...]

    @property
    def end(self) -> int:
        return self.steps[-1].node

    @property
    def n_edges(self) -> int:
        return len(self.steps)

    def nodes(self) -> list[int]:
        return [self.start] + [s.node for s in self.steps]

    def triples(self) -> list[tuple[int, int, int]]:
        """Underlying triples in canonical (head, rel, tail) orientation."""
        out = []
        cur = self.start
        for step in self.steps:
            if step.reverse:
                out.append((step.node, step.rel, cur))
            else:
                out.append((cur, step.rel, step.node))
            cur = step.node
        return out

    def sort_key(self) -> tuple:
        return (len(self.steps), tuple((s.node, s.rel, s.reverse) for s in self.steps))

    def to_dict(self) -> dict:
        return {"start": self.start, "steps": [s.to_list() for s in self.steps]}

    @classmethod
    def from_dict(cls, d: dict) -> "Path":
        return cls(
            start=int(d["start"]),
            steps=tuple(PathStep(int(r), bool(v), int(n)) for r, v, n in d["steps"]),
        )


def find_paths(
    kg: KnowledgeGraph,
    src: int,
    dst: int,
    max_edges: int = 3,
    cap: int = 100,
) -> tuple[list[Path], bool]:
    """All simple paths src -> dst with at most ``max_edges`` edges.

    Returns (paths, truncated): paths sorted shortest first then
    lexicographically by the (node, rel, reverse) step sequence, cut to
    ``cap`` entries with the flag saying whether anything was dropped.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    if max_edges < 1 or cap < 1:
        raise ValueError("max_edges and cap must be >= 1")
    for c in (src, dst):
        if not 0 <= c < kg.n_concepts:
            raise IndexError(f"concept id {c} out of range")

    src, dst = int(src), int(dst)  # no numpy scalar may reach a path's JSON
    # Search from the endpoint with fewer incident edges, then reverse.
    ptr = kg._adj_ptr
    flip = bool(ptr[src + 1] - ptr[src] > ptr[dst + 1] - ptr[dst])
    start, goal = (dst, src) if flip else (src, dst)
    # Every edge into the goal, keyed by the node it leaves: the last hop of
    # a path is a lookup, so no node on the last level lists its neighbours.
    into_goal: dict[int, list[PathStep]] = {}
    for nbr, rel, rev in kg.neighbors(goal):
        into_goal.setdefault(nbr, []).append(PathStep(rel, not rev, goal))

    found: list[tuple[PathStep, ...]] = []
    on_path = {start}

    def extend(node: int, prefix: tuple[PathStep, ...]) -> None:
        found.extend(prefix + (last,) for last in into_goal.get(node, ()))
        if len(prefix) + 2 > max_edges:
            return
        if len(prefix) + 2 == max_edges:  # every neighbour is on the last level
            for nbr, rel, rev in kg.neighbors(node):
                tails = into_goal.get(nbr)
                if tails and nbr != goal and nbr not in on_path:
                    mid = prefix + (PathStep(rel, rev, nbr),)
                    found.extend(mid + (last,) for last in tails)
            return
        for nbr, rel, rev in kg.neighbors(node):
            if nbr == goal or nbr in on_path:
                continue
            on_path.add(nbr)
            extend(nbr, prefix + (PathStep(rel, rev, nbr),))
            on_path.remove(nbr)

    extend(start, ())
    paths = {_reversed(start, steps) if flip else Path(start, steps) for steps in found}
    unique = sorted(paths, key=Path.sort_key)
    truncated = len(unique) > cap
    return unique[:cap], truncated


def _reversed(start: int, steps: tuple[PathStep, ...]) -> Path:
    """The same path walked from its end: step i of the result crosses the
    edge of step ``-1 - i`` the other way and lands on the node it left."""
    left = (start, *(s.node for s in steps[:-1]))
    return Path(steps[-1].node, tuple(
        PathStep(s.rel, not s.reverse, node)
        for s, node in zip(reversed(steps), reversed(left))))


@dataclass
class SchemaGraph:
    """Grounded subgraph for one QA pair.

    ``paths`` maps (i, j) pair indices into ``cq``/``ca`` to the path list
    between cq[i] and ca[j]; ``edges`` covers every triple used by a path plus
    direct edges inside each mention set, and ``nodes`` exactly the concepts
    those touch plus the mention sets themselves.
    """

    cq: list[int]
    ca: list[int]
    nodes: list[int] = field(default_factory=list)
    edges: list[tuple[int, int, int]] = field(default_factory=list)
    paths: dict[tuple[int, int], list[Path]] = field(default_factory=dict)
    truncated: set[tuple[int, int]] = field(default_factory=set)

    def pair_indices(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(len(self.cq)) for j in range(len(self.ca))]

    def rebuild_cover(self) -> None:
        """Recompute nodes/edges to exactly cover current paths + intra edges."""
        intra = [e for e in self.edges if self._is_intra(e)]
        edge_set = set(intra)
        node_set = set(self.cq) | set(self.ca)
        for plist in self.paths.values():
            for path in plist:
                node_set.update(path.nodes())
                edge_set.update(path.triples())
        self.nodes = sorted(node_set)
        self.edges = sorted(edge_set)

    def _is_intra(self, edge: tuple[int, int, int]) -> bool:
        h, _, t = edge
        cq, ca = set(self.cq), set(self.ca)
        return (h in cq and t in cq) or (h in ca and t in ca)

    def to_dict(self) -> dict:
        return {
            "cq": list(self.cq),
            "ca": list(self.ca),
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
            "paths": {
                f"{i},{j}": [p.to_dict() for p in plist]
                for (i, j), plist in sorted(self.paths.items())
            },
            "truncated": sorted(list(t) for t in self.truncated),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SchemaGraph":
        paths = {}
        for key, plist in d["paths"].items():
            i, j = key.split(",")
            paths[(int(i), int(j))] = [Path.from_dict(p) for p in plist]
        return cls(
            cq=[int(c) for c in d["cq"]],
            ca=[int(c) for c in d["ca"]],
            nodes=[int(n) for n in d["nodes"]],
            edges=[tuple(int(x) for x in e) for e in d["edges"]],
            paths=paths,
            truncated={(int(i), int(j)) for i, j in d["truncated"]},
        )


def _intra_edges(kg: KnowledgeGraph, members: Iterable[int]) -> set[tuple[int, int, int]]:
    members = set(members)
    edges = set()
    for c in members:
        for nbr, rel, rev in kg.neighbors(c):
            if nbr in members and nbr != c:
                edges.add((nbr, rel, c) if rev else (c, rel, nbr))
    return edges


def build_schema_graph(
    kg: KnowledgeGraph,
    cq: MentionSet | Iterable[int],
    ca: MentionSet | Iterable[int],
    max_edges: int = 3,
    cap: int = 100,
) -> SchemaGraph:
    """Ground one QA pair: per-pair path lists plus intra-set direct edges.

    Concepts mentioned on both sides stay in the question set and leave the
    answer set. Raises GroundingError when either side ends up empty.
    """
    cq_set = set(cq.concepts if isinstance(cq, MentionSet) else cq)
    ca_set = set(ca.concepts if isinstance(ca, MentionSet) else ca)
    ca_set -= cq_set
    if not cq_set or not ca_set:
        raise GroundingError("ungroundable pair: empty concept set after overlap handling")

    sg = SchemaGraph(cq=sorted(cq_set), ca=sorted(ca_set))
    for i, qc in enumerate(sg.cq):
        for j, ac in enumerate(sg.ca):
            plist, truncated = find_paths(kg, qc, ac, max_edges=max_edges, cap=cap)
            sg.paths[(i, j)] = plist
            if truncated:
                sg.truncated.add((i, j))
    sg.edges = sorted(_intra_edges(kg, cq_set) | _intra_edges(kg, ca_set))
    sg.rebuild_cover()
    return sg
