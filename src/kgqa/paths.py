"""Schema-graph construction: bounded simple-path search between concept sets.

Paths run from a question concept to an answer concept, at most ``max_edges``
edges (default 3), traversing triples in either direction with a per-step
``reverse`` flag. A path is the record the preprocessing cache stores and the
network reads, ``{"start": concept, "steps": [[rel, reverse, node], ...]}``,
from ``find_paths`` onward. Each (question concept, answer concept) pair is
searched on its own by a depth-limited DFS that starts from whichever endpoint
has fewer incident edges; paths found from the answer side are walked back
before they are sorted. The last hop is a dictionary lookup in the edges
incident to the target, so no node on the last level lists its neighbours, and
a hub endpoint costs one neighbour list rather than one per node two hops away.
Results merge deterministically by pair index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .ground import MentionSet
from .kg import KnowledgeGraph


class GroundingError(ValueError):
    """Raised when a QA pair yields no usable concept pair."""


Step = tuple[int, bool, int]  # (rel, reverse, node)


def _steps_key(steps) -> tuple:
    """Shortest first, then the (node, rel, reverse) step sequence."""
    return (len(steps), tuple((node, rel, rev) for rel, rev, node in steps))


def path_sort_key(path: dict) -> tuple:
    """The order ``find_paths`` returns paths in."""
    return _steps_key(path["steps"])


def path_triples(path: dict) -> list[tuple[int, int, int]]:
    """Underlying triples of a path in canonical (head, rel, tail) orientation."""
    out = []
    cur = path["start"]
    for rel, reverse, node in path["steps"]:
        out.append((node, rel, cur) if reverse else (cur, rel, node))
        cur = node
    return out


def find_paths(
    kg: KnowledgeGraph,
    src: int,
    dst: int,
    max_edges: int = 3,
    cap: int = 100,
) -> tuple[list[dict], bool]:
    """All simple paths src -> dst with at most ``max_edges`` edges.

    Returns (paths, truncated): path records sorted shortest first then
    lexicographically by the (node, rel, reverse) step sequence
    (``path_sort_key``), cut to ``cap`` entries with the flag saying whether
    anything was dropped. Every record starts at ``src`` and holds plain
    Python ints and bools, so it is ready for JSON.
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
    into_goal: dict[int, list[Step]] = {}
    for nbr, rel, rev in kg.neighbors(goal):
        into_goal.setdefault(nbr, []).append((rel, not rev, goal))

    found: list[tuple[Step, ...]] = []
    on_path = {start}

    def extend(node: int, prefix: tuple[Step, ...]) -> None:
        found.extend(prefix + (last,) for last in into_goal.get(node, ()))
        if len(prefix) + 2 > max_edges:
            return
        if len(prefix) + 2 == max_edges:  # every neighbour is on the last level
            for nbr, rel, rev in kg.neighbors(node):
                tails = into_goal.get(nbr)
                if tails and nbr != goal and nbr not in on_path:
                    mid = prefix + ((rel, rev, nbr),)
                    found.extend(mid + (last,) for last in tails)
            return
        for nbr, rel, rev in kg.neighbors(node):
            if nbr == goal or nbr in on_path:
                continue
            on_path.add(nbr)
            extend(nbr, prefix + ((rel, rev, nbr),))
            on_path.remove(nbr)

    extend(start, ())
    if flip:
        found = [_reversed(start, steps) for steps in found]
    unique = sorted(set(found), key=_steps_key)
    paths = [{"start": src, "steps": [list(step) for step in steps]}
             for steps in unique[:cap]]
    return paths, len(unique) > cap


def _reversed(start: int, steps: tuple[Step, ...]) -> tuple[Step, ...]:
    """The same path walked from its end: step i of the result crosses the
    edge of step ``-1 - i`` the other way and lands on the node it left."""
    left = (start, *(node for _, _, node in steps[:-1]))
    return tuple((rel, not rev, node)
                 for (rel, rev, _), node in zip(reversed(steps), reversed(left)))


@dataclass
class SchemaGraph:
    """Grounded subgraph for one QA pair.

    ``paths`` maps (i, j) pair indices into ``cq``/``ca`` to the path records
    between cq[i] and ca[j], in ``find_paths`` order; ``edges`` covers every
    triple used by a path plus direct edges inside each mention set, and
    ``nodes`` exactly the concepts those touch plus the mention sets
    themselves. ``to_dict`` is the JSON the preprocessing cache, ``kgqa
    paths`` and ``instance_from_schema_graph`` hold; its path records are the
    ones in ``paths``, not copies.
    """

    cq: list[int]
    ca: list[int]
    nodes: list[int] = field(default_factory=list)
    edges: list[tuple[int, int, int]] = field(default_factory=list)
    paths: dict[tuple[int, int], list[dict]] = field(default_factory=dict)
    truncated: set[tuple[int, int]] = field(default_factory=set)

    def rebuild_cover(self) -> None:
        """Recompute nodes/edges to exactly cover current paths + intra edges."""
        cq, ca = set(self.cq), set(self.ca)
        edge_set = {(h, r, t) for h, r, t in self.edges
                    if (h in cq and t in cq) or (h in ca and t in ca)}
        node_set = cq | ca
        for plist in self.paths.values():
            for path in plist:
                node_set.add(path["start"])
                node_set.update(node for _, _, node in path["steps"])
                edge_set.update(path_triples(path))
        self.nodes = sorted(node_set)
        self.edges = sorted(edge_set)

    def to_dict(self) -> dict:
        return {
            "cq": list(self.cq),
            "ca": list(self.ca),
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
            "paths": {f"{i},{j}": plist for (i, j), plist in sorted(self.paths.items())},
            "truncated": sorted(list(t) for t in self.truncated),
        }


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
