"""Schema-graph construction and bounded simple-path search."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa import paths, selfcheck
from kgqa.io_utils import canonical_json
from kgqa.kg import KnowledgeGraph, build_graph
from kgqa.kge import EmbeddingTable, prune_schema_graph
from kgqa.paths import (GroundingError, build_schema_graph, find_paths,
                        path_sort_key, path_triples)
from kgqa.selfcheck import brute_force_paths, random_kg, reference_find_paths

from conftest import make_chain_kg, mutant


def keyset(paths):
    return {tuple(map(tuple, p["steps"])) for p in paths}


def find_one(kg, src, dst, **kw):
    """``find_paths`` with the single goal ``dst``: (paths, truncated)."""
    return find_paths(kg, src, [dst], **kw)[int(dst)]


def test_chain_exactly_one_path():
    kg = make_chain_kg(4)
    got, truncated = find_one(kg, 0, 3, max_edges=3, cap=100)
    assert not truncated
    assert keyset(got) == brute_force_paths(4, kg.triples, 0, 3, 3)
    assert len(got) == 1
    assert [node for _, _, node in got[0]["steps"]] == [1, 2, 3]


def test_chain_too_long_gives_empty():
    kg = make_chain_kg(5)
    got, truncated = find_one(kg, 0, 4, max_edges=3, cap=100)
    assert got == []
    assert not truncated
    assert brute_force_paths(5, kg.triples, 0, 4, 3) == set()


def test_direct_edge_single_forward_step():
    kg = build_graph(["a", "b"], ["r"], [(0, 0, 1)], [1.0])
    got, _ = find_one(kg, 0, 1, max_edges=3, cap=100)
    assert len(got) == 1
    assert got[0] == {"start": 0, "steps": [[0, False, 1]]}


def test_reverse_traversal_flagged():
    kg = build_graph(["a", "b"], ["r"], [(1, 0, 0)], [1.0])
    got, _ = find_one(kg, 0, 1, max_edges=3, cap=100)
    assert len(got) == 1
    assert got[0]["steps"][0][1] is True


def test_destination_never_intermediate():
    # a-d plus a-d-b-d style lures: any path through dst is illegal
    triples = [(0, 0, 3), (3, 0, 1), (1, 0, 2), (0, 0, 1), (2, 0, 3)]
    kg = build_graph(list("abcd"), ["r"], triples, np.ones(len(triples)))
    got, _ = find_one(kg, 0, 3, max_edges=3, cap=100)
    for p in got:
        assert 3 not in [node for _, _, node in p["steps"][:-1]]
        assert p["steps"][-1][2] == 3


def test_order_shorter_first_then_lexicographic():
    triples = [(0, 0, 1), (0, 1, 1), (0, 0, 2), (2, 0, 1)]
    kg = build_graph(list("abc"), ["r0", "r1"], triples, np.ones(len(triples)))
    got, _ = find_one(kg, 0, 1, max_edges=3, cap=100)
    lengths = [len(p["steps"]) for p in got]
    assert lengths == sorted(lengths)
    keys = [path_sort_key(p) for p in got]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_cap_truncates_and_flags():
    # parallel relations multiply path count: 3 rels x 2 hops = 9 two-edge paths
    triples = [(0, r, 1) for r in range(3)] + [(1, r, 2) for r in range(3)]
    kg = build_graph(list("abc"), ["r0", "r1", "r2"], triples,
                     np.ones(len(triples)))
    full, truncated = find_one(kg, 0, 2, max_edges=2, cap=100)
    assert not truncated
    capped, truncated = find_one(kg, 0, 2, max_edges=2, cap=4)
    assert truncated
    assert len(capped) == 4
    assert capped == full[:4]


def test_invalid_ids_raise():
    kg = make_chain_kg(3)
    with pytest.raises((IndexError, ValueError)):
        find_one(kg, 0, 99, max_edges=3, cap=10)
    with pytest.raises(ValueError, match="src must not be a goal"):
        find_paths(kg, 0, [2, 0])


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_matches_bruteforce_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    pairs = [(h, t) for h in range(n) for t in range(n) if h != t]
    mask = rng.random(len(pairs)) < 0.3
    triples = [(h, int(rng.integers(2)), t)
               for (h, t), keep in zip(pairs, mask) if keep]
    if not triples:
        return
    kg = build_graph([f"c{i}" for i in range(n)], ["r0", "r1"], triples,
                     np.ones(len(triples)))
    src, dst = rng.permutation(n)[:2]
    got, truncated = find_one(kg, int(src), int(dst), max_edges=3, cap=10 ** 9)
    assert not truncated
    assert keyset(got) == brute_force_paths(n, kg.triples, int(src),
                                            int(dst), 3)
    for p in got:
        nodes = [p["start"]] + [node for _, _, node in p["steps"]]
        assert len(set(nodes)) == len(nodes)  # simple
        assert 1 <= len(p["steps"]) <= 3


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_symmetry_under_endpoint_swap(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    pairs = [(h, t) for h in range(n) for t in range(n) if h != t]
    mask = rng.random(len(pairs)) < 0.35
    triples = [(h, 0, t) for (h, t), keep in zip(pairs, mask) if keep]
    if not triples:
        return
    kg = build_graph([f"c{i}" for i in range(n)], ["r"], triples,
                     np.ones(len(triples)))
    src, dst = (int(x) for x in rng.permutation(n)[:2])
    fwd, _ = find_one(kg, src, dst, max_edges=3, cap=10 ** 9)
    bwd, _ = find_one(kg, dst, src, max_edges=3, cap=10 ** 9)
    # same underlying triple sequences, reversed, with orientation flipped
    assert {tuple(reversed(path_triples(p))) for p in fwd} == \
        {tuple(path_triples(p)) for p in bwd}


def degree(kg, c):
    return len(kg.neighbors(c))


def assert_matches_reference(kg, a, b, max_edges=3, cap=10 ** 9):
    """Exact agreement with the plain DFS, in both argument orders."""
    for src, dst in ((a, b), (b, a)):
        assert find_one(kg, src, dst, max_edges=max_edges, cap=cap) == \
            reference_find_paths(kg, src, dst, max_edges=max_edges, cap=cap)


@st.composite
def hub_graphs(draw):
    """Random multigraph-like KGs with self-loops, antiparallel triples and
    several relations on one (head, tail), plus leaves hung on one hub until
    its degree is at least 3x that of every other node."""
    n = draw(st.integers(3, 8))
    raw = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2),
                                  st.integers(0, n - 1)), min_size=1, max_size=24))
    triples = set(raw)
    h, t = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    triples |= {(h, 0, t), (h, 1, t), (t, 2, h), (h, 0, h)}
    hub = draw(st.integers(0, n - 1))
    deg = np.zeros(n, dtype=int)
    for a, _, b in triples:
        deg[a] += 1
        deg[b] += 1
    others = max(int(deg[c]) for c in range(n) if c != hub)
    leaf_rel = draw(st.lists(st.tuples(st.integers(0, 2), st.booleans()),
                             min_size=1, max_size=4))
    leaf = n
    while deg[hub] < 3 * max(others, 1):
        rel, into_hub = leaf_rel[leaf % len(leaf_rel)]
        triples.add((leaf, rel, hub) if into_hub else (hub, rel, leaf))
        deg[hub] += 1
        leaf += 1
    kg = build_graph([f"c{i}" for i in range(leaf)], ["r0", "r1", "r2"],
                     sorted(triples), np.ones(len(triples)))
    return kg, hub


@settings(max_examples=60)
@given(hub_graphs(), st.data(), st.integers(1, 4), st.integers(1, 50))
def test_find_paths_equals_reference_dfs(graph, data, max_edges, cap):
    kg, hub = graph
    n = kg.n_concepts
    a = data.draw(st.sampled_from([hub, *range(n)]))
    b = data.draw(st.integers(0, n - 1).filter(lambda c: c != a))
    assert_matches_reference(kg, a, b, max_edges=max_edges, cap=cap)


def test_self_loop_on_dst_is_never_walked():
    # dst = 2 carries a self-loop and is the lower-degree end
    triples = [(0, 0, 1), (0, 1, 1), (1, 0, 2), (2, 1, 2), (0, 1, 3), (3, 0, 1),
               (0, 0, 2), (0, 0, 4)]
    kg = build_graph(list("abcde"), ["r0", "r1"], triples, np.ones(len(triples)))
    assert degree(kg, 0) > degree(kg, 2)
    got, _ = find_one(kg, 0, 2)
    assert all(node != 2 for p in got for _, _, node in p["steps"][:-1])
    assert keyset(got) == brute_force_paths(5, kg.triples, 0, 2, 3)
    assert_matches_reference(kg, 0, 2)


def test_self_loop_on_src_is_never_walked():
    # src = 0 carries two self-loops, raising its degree above dst's
    triples = [(0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2), (0, 1, 2)]
    kg = build_graph(list("abc"), ["r0", "r1"], triples, np.ones(len(triples)))
    assert degree(kg, 0) > degree(kg, 2)
    got, _ = find_one(kg, 0, 2)
    assert all(p["start"] == 0 and 0 not in [node for _, _, node in p["steps"]]
               for p in got)
    assert keyset(got) == brute_force_paths(3, kg.triples, 0, 2, 3)
    assert_matches_reference(kg, 0, 2)


def test_path_oracle_catches_a_search_that_walks_a_goal_self_loop(monkeypatch):
    # random_kg draws self-loops, so the oracle sees a search that ends a
    # path on a goal's self-loop after reaching that goal
    loose = mutant(paths.find_paths, "if goal != nbr and goal not in on_path:",
                   "if goal not in on_path:")
    monkeypatch.setattr(selfcheck, "find_paths", loose)
    result = selfcheck.path_oracle_suite(n_graphs=40)
    assert not result.passed
    assert not result.detail.endswith(" 0 mismatches")


def test_degree_tie_searches_either_way_alike():
    # endpoints of equal degree; the search starts at src whatever the degrees
    triples = [(0, 0, 1), (1, 0, 3), (0, 1, 2), (2, 1, 3), (0, 0, 3)]
    kg = build_graph(list("abcd"), ["r0", "r1"], triples, np.ones(len(triples)))
    assert degree(kg, 0) == degree(kg, 3)
    got, _ = find_one(kg, 0, 3)
    assert [p["steps"] for p in got] == [
        [[0, False, 3]], [[0, False, 1], [0, False, 3]],
        [[1, False, 2], [1, False, 3]]]
    assert_matches_reference(kg, 0, 3, cap=2)


def test_hub_endpoint_costs_no_hub_expansion(monkeypatch):
    # a hub with 300 leaves, and a 3-edge path leaf1-y-x-hub: a hub goal
    # costs its neighbour list for the last-hop table and one pass on the
    # last level, never a neighbour list per hub neighbour
    n_leaves = 300
    x, y = n_leaves + 1, n_leaves + 2
    triples = [(0, 0, leaf) for leaf in range(1, n_leaves + 1)]
    triples += [(0, 1, x), (x, 1, y), (y, 1, 1)]
    kg = build_graph([f"c{i}" for i in range(n_leaves + 3)], ["r0", "r1"],
                     triples, np.ones(len(triples)))
    want = reference_find_paths(kg, 1, 0)
    calls = []
    plain = KnowledgeGraph.neighbors

    def counted(self, concept):
        calls.append(concept)
        return plain(self, concept)

    monkeypatch.setattr(KnowledgeGraph, "neighbors", counted)
    got = find_one(kg, 1, 0)
    assert got == want
    assert [[node for _, _, node in p["steps"]] for p in got[0]] == [[0], [y, x, 0]]
    assert len(calls) < 10


def test_paths_hold_python_scalars_for_numpy_endpoints():
    kg = make_chain_kg(4)
    for src, dst in ((np.int64(0), np.uint32(3)), (np.uint32(3), np.int64(0))):
        found = find_paths(kg, src, [dst])
        assert [type(goal) for goal in found] == [int]
        (path,), _ = found[int(dst)]
        assert type(path["start"]) is int
        for rel, reverse, node in path["steps"]:
            assert (type(rel), type(reverse), type(node)) == (int, bool, int)


def test_schema_graph_chain():
    kg = make_chain_kg(4)
    sg = build_schema_graph(kg, {0}, {3}, max_edges=3, cap=100)
    assert len(sg.nodes) == 4
    assert len(sg.edges) == 3
    assert len(sg.paths[(0, 0)]) == 1


def test_schema_graph_disconnected_pair_empty_paths():
    kg = build_graph(["a", "b", "z"], ["r"], [(0, 0, 1)], [1.0])
    sg = build_schema_graph(kg, {0}, {2}, max_edges=3, cap=100)
    assert sg.paths[(0, 0)] == []


def test_schema_graph_intra_set_edge():
    triples = [(0, 0, 1), (0, 1, 2), (1, 1, 2), (2, 0, 3)]
    kg = build_graph(list("abcd"), ["intra", "r"], triples,
                     np.ones(len(triples)))
    sg = build_schema_graph(kg, {0, 1}, {3}, max_edges=3, cap=100)
    assert (0, 0, 1) in sg.edges


def test_schema_graph_overlap_goes_to_question_side():
    kg = make_chain_kg(4)
    sg = build_schema_graph(kg, {0, 2}, {2, 3}, max_edges=3, cap=100)
    assert 2 in sg.cq
    assert 2 not in sg.ca


def test_schema_graph_ungroundable():
    kg = make_chain_kg(3)
    with pytest.raises(GroundingError, match="ungroundable"):
        build_schema_graph(kg, set(), {1}, max_edges=3, cap=100)


@settings(max_examples=40)
@given(st.integers(0, 10_000), st.floats(0.0, 0.9))
def test_schema_graph_dict_round_trip(seed, threshold):
    # the cached JSON reads back equal to to_dict, before and after pruning
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    kg = random_kg(rng, n, float(rng.uniform(0.1, 0.5)))
    picks = rng.permutation(n).tolist()
    n_q = int(rng.integers(1, 3))
    sg = build_schema_graph(kg, picks[:n_q], picks[n_q:n_q + int(rng.integers(1, 3))],
                            max_edges=3, cap=int(rng.integers(1, 30)))
    table = EmbeddingTable(ent=rng.standard_normal((n, 4)),
                           rel=rng.standard_normal((kg.n_relations, 4)), gamma=2.0)
    for prune in (False, True):
        if prune:
            prune_schema_graph(sg, table, threshold=threshold)
        d = sg.to_dict()
        assert json.loads(canonical_json(d)) == d
        assert (d["cq"], d["ca"], d["nodes"]) == (sg.cq, sg.ca, sg.nodes)
        assert [tuple(e) for e in d["edges"]] == sg.edges
        assert d["paths"] == {f"{i},{j}": plist for (i, j), plist in sg.paths.items()}
        assert {tuple(t) for t in d["truncated"]} == sg.truncated


def node_seq(path):
    return [node for _, _, node in path["steps"]]


def test_goals_and_question_concepts_may_lie_mid_path():
    # chain a-b-c-d-e: from a, goal b lies on the paths to d and e, and goal
    # d on the path to e; no goal's own paths pass through it
    kg = make_chain_kg(5)
    found = find_paths(kg, 0, [1, 3, 4])
    assert {g: [node_seq(p) for p in plist] for g, (plist, _) in found.items()} == \
        {1: [[1]], 3: [[1, 2, 3]], 4: []}
    assert find_paths(kg, 0, [1, 3, 4], max_edges=4)[4][0] == \
        reference_find_paths(kg, 0, 4, max_edges=4)[0]
    # question concepts {a, c} and answer {e}: the search from c is one edge
    # shorter, and the one from a walks through c
    sg = build_schema_graph(kg, {0, 2}, {4}, max_edges=4, cap=10)
    assert [node_seq(p) for p in sg.paths[(0, 0)]] == [[1, 2, 3, 4]]
    assert [node_seq(p) for p in sg.paths[(1, 0)]] == [[3, 4]]


@st.composite
def question_groundings(draw):
    """A random graph, 1-3 question concepts and 2-4 candidates' answer sets
    drawn from a pool small enough that the sets overlap."""
    kg, hub = draw(hub_graphs())
    order = draw(st.permutations(range(kg.n_concepts)))
    cq = order[:draw(st.integers(1, min(3, len(order) - 1)))]
    pool = order[len(cq):len(cq) + 4]
    cands = draw(st.lists(st.sets(st.sampled_from(pool), min_size=1, max_size=3),
                          min_size=2, max_size=4))
    return kg, cq, cands


@settings(max_examples=60)
@given(question_groundings(), st.integers(1, 4), st.integers(1, 6))
def test_multi_goal_search_equals_reference_per_pair(grounding, max_edges, cap):
    # one search per question concept answers every (question, answer) pair
    # of every candidate exactly as the plain per-pair DFS does
    kg, cq, cands = grounding
    goals = set().union(*cands)
    for qc in cq:
        for c in (cap, 10 ** 9):
            found = find_paths(kg, qc, goals, max_edges=max_edges, cap=c)
            assert sorted(found) == sorted(goals)
            for goal in goals:
                assert found[goal] == reference_find_paths(
                    kg, qc, goal, max_edges=max_edges, cap=c)
    shared = {qc: find_paths(kg, qc, goals, max_edges=max_edges, cap=cap) for qc in cq}
    for ca in cands:
        assert build_schema_graph(kg, cq, ca, max_edges, cap, found=shared) == \
            build_schema_graph(kg, cq, ca, max_edges, cap)
