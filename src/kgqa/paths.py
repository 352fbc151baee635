"""Schema-graph construction: bounded simple-path search between concept sets.

Paths run from a question concept to an answer concept, at most ``max_edges``
edges (default 3), traversing triples in either direction with a per-step
``reverse`` flag. A path is its ``(rel, reverse, node)`` steps (``PathSteps``)
from ``cq[i]`` of its pair (i, j), from ``find_paths`` to the path table; only
``SchemaGraph.to_dict`` writes its start and lists its triples.
Questions share question concepts, so ``pipeline.ground_questions`` searches
each distinct one once per list of questions, by one depth-limited DFS that
collects the paths to the answer concepts of every question that mentions it;
a goal's paths do not depend on the other goals of the search, and
``build_schema_graph`` then takes each pair's list from those results. The
last hop is a dictionary lookup in one table of the edges incident to every
goal, so no node on the last level lists its neighbours. Results merge
deterministically by pair index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .ground import MentionSet
from .kg import KnowledgeGraph


class GroundingError(ValueError):
    """Raised when a QA pair yields no usable concept pair."""


Step = tuple[int, bool, int]  # (rel, reverse, node)
PathSteps = tuple[Step, ...]


def path_sort_key(steps: PathSteps) -> tuple:
    """``find_paths`` order: shortest first, then the (node, rel, reverse) steps."""
    return (len(steps), tuple((node, rel, rev) for rel, rev, node in steps))


def path_triples(start: int, steps: PathSteps) -> list[tuple[int, int, int]]:
    """Canonical (head, rel, tail) triples of the path from ``start``."""
    out = []
    cur = start
    for rel, reverse, node in steps:
        out.append((node, rel, cur) if reverse else (cur, rel, node))
        cur = node
    return out


def find_paths(
    kg: KnowledgeGraph,
    src: int,
    goals: Iterable[int],
    max_edges: int = 3,
    cap: int = 100,
) -> dict[int, tuple[list[PathSteps], bool]]:
    """All simple paths from ``src`` to each of ``goals``, at most ``max_edges``
    edges, from one depth-limited DFS.

    Returns {goal: (paths, truncated)} for every goal: step tuples sorted
    shortest first then lexicographically by the (node, rel, reverse) step
    sequence (``path_sort_key``), cut to ``cap`` entries with the flag saying
    whether anything was dropped. A path to goal g passes neither through g
    nor through ``src``; other goals may lie mid-path. Every step holds plain
    Python ints and bools, so it is ready for JSON.
    """
    src, goals = int(src), sorted({int(g) for g in goals})  # no numpy scalar in JSON
    if src in goals:
        raise ValueError("src must not be a goal")
    if max_edges < 1 or cap < 1:
        raise ValueError("max_edges and cap must be >= 1")
    for c in (src, *goals):
        if not 0 <= c < kg.n_concepts:
            raise IndexError(f"concept id {c} out of range")

    # Every edge into every goal, keyed by the node it leaves: the last hop of
    # a path is a lookup, so no node on the last level lists its neighbours.
    into: dict[int, list[tuple[int, Step]]] = {}
    for goal in goals:
        for nbr, rel, rev in kg.neighbors(goal):
            into.setdefault(nbr, []).append((goal, (rel, not rev, goal)))

    found: dict[int, list[PathSteps]] = {goal: [] for goal in goals}
    on_path = {src}

    def extend(node: int, prefix: PathSteps) -> None:
        for goal, last in into.get(node, ()):
            if goal not in on_path:
                found[goal].append(prefix + (last,))
        if len(prefix) + 2 > max_edges:
            return
        if len(prefix) + 2 == max_edges:  # every neighbour is on the last level
            for nbr, rel, rev in kg.neighbors(node):
                tails = into.get(nbr)
                if tails and nbr not in on_path:
                    mid = prefix + ((rel, rev, nbr),)
                    for goal, last in tails:
                        if goal != nbr and goal not in on_path:
                            found[goal].append(mid + (last,))
            return
        for nbr, rel, rev in kg.neighbors(node):
            if nbr in on_path:
                continue
            on_path.add(nbr)
            extend(nbr, prefix + ((rel, rev, nbr),))
            on_path.remove(nbr)

    extend(src, ())
    unique = {goal: sorted(set(plist), key=path_sort_key) for goal, plist in found.items()}
    return {goal: (plist[:cap], len(plist) > cap) for goal, plist in unique.items()}


@dataclass
class SchemaGraph:
    """Grounded subgraph for one QA pair.

    ``paths`` maps (i, j) pair indices into ``cq``/``ca`` to the paths from
    cq[i] to ca[j], as step tuples in ``find_paths`` order; ``edges`` holds
    only the direct edges inside each mention set, and ``nodes`` those sets
    plus every node of a path. ``to_dict`` is its JSON form, made only for
    ``kgqa paths``/``prune`` output and the benchmark's digest: "i,j" pair
    keys, paths as ``{"start": cq[i], "steps": [[rel, reverse, node], ...]}``
    records, and "edges" adding every path's triples to the direct edges.
    """

    cq: list[int]
    ca: list[int]
    nodes: list[int] = field(default_factory=list)
    edges: list[tuple[int, int, int]] = field(default_factory=list)
    paths: dict[tuple[int, int], list[PathSteps]] = field(default_factory=dict)
    truncated: set[tuple[int, int]] = field(default_factory=set)

    def rebuild_cover(self) -> None:
        """Recompute ``nodes``: the mention sets plus every node of a current path."""
        self.nodes = sorted({*self.cq, *self.ca, *(
            node for plist in self.paths.values() for p in plist for _, _, node in p)})

    def to_dict(self) -> dict:
        edges = {*self.edges, *(tr for (i, _), plist in self.paths.items()
                                for p in plist for tr in path_triples(self.cq[i], p))}
        return {
            "cq": list(self.cq),
            "ca": list(self.ca),
            "nodes": list(self.nodes),
            "edges": [list(e) for e in sorted(edges)],
            "paths": {f"{i},{j}": [{"start": self.cq[i], "steps": [list(s) for s in p]}
                                   for p in plist]
                      for (i, j), plist in sorted(self.paths.items())},
            "truncated": sorted(list(t) for t in self.truncated),
        }


def intra_edges(kg: KnowledgeGraph, members: Iterable[int]) -> set[tuple[int, int, int]]:
    """The direct (head, rel, tail) edges between two distinct ``members``."""
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
    found: dict[int, dict[int, tuple[list[PathSteps], bool]]] | None = None,
    q_edges: set[tuple[int, int, int]] | None = None,
) -> SchemaGraph:
    """Ground one QA pair: per-pair path lists plus intra-set direct edges.

    Concepts mentioned on both sides stay in the question set and leave the
    answer set. Raises GroundingError when either side ends up empty.
    ``found`` maps each question concept to its ``find_paths`` result over
    goals that include this pair's answer concepts, as ``ground_questions``
    shares it between every question of a list; with None, each question
    concept is searched here against this pair's answer concepts.
    ``q_edges`` is ``intra_edges`` of the question set, which every candidate
    of a question shares; with None it is listed here.
    """
    cq_set = set(cq.concepts if isinstance(cq, MentionSet) else cq)
    ca_set = set(ca.concepts if isinstance(ca, MentionSet) else ca)
    ca_set -= cq_set
    if not cq_set or not ca_set:
        raise GroundingError("ungroundable pair: empty concept set after overlap handling")

    sg = SchemaGraph(cq=sorted(cq_set), ca=sorted(ca_set))
    for i, qc in enumerate(sg.cq):
        by_goal = (found[qc] if found is not None
                   else find_paths(kg, qc, ca_set, max_edges=max_edges, cap=cap))
        for j, ac in enumerate(sg.ca):
            sg.paths[(i, j)], truncated = by_goal[ac]
            if truncated:
                sg.truncated.add((i, j))
    if q_edges is None:
        q_edges = intra_edges(kg, cq_set)
    sg.edges = sorted(q_edges | intra_edges(kg, ca_set))
    sg.rebuild_cover()
    return sg
