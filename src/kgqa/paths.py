"""Schema-graph construction: bounded simple-path search between concept sets.

Paths run from a question concept to an answer concept, at most ``max_edges``
edges (default 3), traversing triples in either direction with a per-step
``reverse`` flag. A path is one record, ``{"start": concept, "steps": [[rel,
reverse, node], ...]}``, from ``find_paths`` through pruning to the path
table that ``instance_from_schema_graph`` builds. A question's candidates
share its question concepts, so each question concept is searched once, by
one depth-limited DFS that collects the paths to the answer concepts of
every candidate at once;
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
    goals: Iterable[int],
    max_edges: int = 3,
    cap: int = 100,
) -> dict[int, tuple[list[dict], bool]]:
    """All simple paths from ``src`` to each of ``goals``, at most ``max_edges``
    edges, from one depth-limited DFS.

    Returns {goal: (paths, truncated)} for every goal: path records sorted
    shortest first then lexicographically by the (node, rel, reverse) step
    sequence (``path_sort_key``), cut to ``cap`` entries with the flag saying
    whether anything was dropped. A path to goal g passes neither through g
    nor through ``src``; other goals may lie mid-path. Every record starts at
    ``src`` and holds plain Python ints and bools, so it is ready for JSON.
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

    found: dict[int, list[tuple[Step, ...]]] = {goal: [] for goal in goals}
    on_path = {src}

    def extend(node: int, prefix: tuple[Step, ...]) -> None:
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
    out = {}
    for goal, steps_found in found.items():
        unique = sorted(set(steps_found), key=_steps_key)
        out[goal] = ([{"start": src, "steps": [list(step) for step in steps]}
                      for steps in unique[:cap]], len(unique) > cap)
    return out


@dataclass
class SchemaGraph:
    """Grounded subgraph for one QA pair.

    ``paths`` maps (i, j) pair indices into ``cq``/``ca`` to the path records
    between cq[i] and ca[j], in ``find_paths`` order; ``edges`` covers every
    triple used by a path plus direct edges inside each mention set, and
    ``nodes`` exactly the concepts those touch plus the mention sets
    themselves. ``to_dict`` is its JSON form, with "i,j" pair keys, made
    only for ``kgqa paths``/``prune`` output and the benchmark's digest; its
    path records are the ones in ``paths``, not copies.
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
    found: dict[int, dict[int, tuple[list[dict], bool]]] | None = None,
) -> SchemaGraph:
    """Ground one QA pair: per-pair path lists plus intra-set direct edges.

    Concepts mentioned on both sides stay in the question set and leave the
    answer set. Raises GroundingError when either side ends up empty.
    ``found`` maps each question concept to its ``find_paths`` result over
    goals that include this pair's answer concepts, as ``ground_question``
    shares it between a question's candidates; with None, each question
    concept is searched here against this pair's answer concepts.
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
    sg.edges = sorted(_intra_edges(kg, cq_set) | _intra_edges(kg, ca_set))
    sg.rebuild_cover()
    return sg
