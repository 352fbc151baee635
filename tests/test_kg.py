"""Graph store: ingest, merging, adjacency, persistence."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgqa.kg import (IngestError, KnowledgeGraph, build_graph,
                     default_merge_map_path, ingest, load_merge_map,
                     normalize_surface)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_simple_line_single_triple(tmp_path):
    f = write(tmp_path, "kg.tsv", "HasProperty\tice\tcold\t1.0\n")
    kg, report = ingest(f)
    assert kg.n_concepts == 2
    assert kg.n_relations == 1
    assert len(kg.triples) == 1
    h, r, t = kg.triples[0]
    assert kg.surface(int(h)) == "ice"
    assert kg.relations[int(r)] == "HasProperty"
    assert kg.surface(int(t)) == "cold"
    assert report.triples_kept == 1
    assert report.skipped == []


def test_empty_input_raises(tmp_path):
    f = write(tmp_path, "kg.tsv", "")
    with pytest.raises(IngestError, match="empty knowledge graph"):
        ingest(f)


def test_dedup_keeps_max_weight(tmp_path):
    f = write(tmp_path, "kg.tsv",
              "r1\ta\tb\t0.5\n"
              "r2\tb\tc\t1.0\n"
              "r1\ta\tb\t2.0\n")
    kg, _ = ingest(f)
    assert len(kg.triples) == 2
    a, b = kg.lookup_surface("a"), kg.lookup_surface("b")
    idx = [i for i, (h, r, t) in enumerate(kg.triples)
           if int(h) == a and int(t) == b]
    assert len(idx) == 1
    assert kg.weights[idx[0]] == pytest.approx(2.0)


def test_full_format_line_and_language_filter(tmp_path):
    f = write(tmp_path, "kg.tsv",
              "/a/x\t/r/HasProperty\t/c/en/ice\t/c/en/cold\t{\"weight\": 1.5}\n"
              "/a/y\t/r/HasProperty\t/c/fr/glace\t/c/fr/froid\t{\"weight\": 1.0}\n")
    kg, report = ingest(f)
    assert len(kg.triples) == 1
    assert kg.lookup_surface("ice") is not None
    assert kg.lookup_surface("glace") is None
    assert [reason for _, reason in report.skipped] == ["language filter"]


def test_malformed_line_reported_with_number(tmp_path):
    f = write(tmp_path, "kg.tsv",
              "r1\ta\tb\t1.0\n"
              "not a triple\n"
              "r1\tb\tc\t1.0\n")
    kg, report = ingest(f)
    assert len(kg.triples) == 2
    assert len(report.skipped) == 1
    lineno, reason = report.skipped[0]
    assert lineno == 2
    assert "malformed" in reason


def test_merge_map_renames_and_deletes(tmp_path):
    f = write(tmp_path, "kg.tsv",
              "RelatedTo\ta\tb\t1.0\n"
              "Antonym\tb\tc\t1.0\n"
              "dbpedia/genre\tc\td\t1.0\n")
    m = write(tmp_path, "merge.tsv",
              "RelatedTo\trelatedto\n"
              "Antonym\trelatedto\n"
              "dbpedia/genre\tDELETE\n")
    kg, report = ingest(f, merge_map=m)
    assert kg.relations == ("relatedto",)
    assert len(kg.triples) == 2
    assert any("deleted relation" in reason for _, reason in report.skipped)


def test_merge_map_unknown_entry_warns(tmp_path):
    f = write(tmp_path, "kg.tsv", "RelatedTo\ta\tb\t1.0\n")
    m = write(tmp_path, "merge.tsv",
              "RelatedTo\trelatedto\nNeverUsed\trelatedto\n")
    _, report = ingest(f, merge_map=m)
    assert any("NeverUsed" in w for w in report.warnings)


def test_relation_absent_from_map_is_skipped(tmp_path):
    f = write(tmp_path, "kg.tsv",
              "RelatedTo\ta\tb\t1.0\nMystery\tb\tc\t1.0\n")
    m = write(tmp_path, "merge.tsv", "RelatedTo\trelatedto\n")
    kg, _ = ingest(f, merge_map=m)
    assert len(kg.triples) == 1


def test_default_merge_map_has_17_targets():
    mapping = load_merge_map(default_merge_map_path())
    targets = {v for v in mapping.values() if v != "DELETE"}
    assert len(targets) == 17


def test_lookup_surface():
    kg = build_graph(["ice", "cold"], ["HasProperty"], [(0, 0, 1)], [1.0])
    assert kg.lookup_surface("ice") == 0
    assert kg.lookup_surface("unicorn_horn") is None
    # caller must normalize first
    assert kg.lookup_surface("Ice") is None
    assert normalize_surface("Ice") == "ice"


def test_neighbors_direction_and_isolated():
    kg = build_graph(["ice", "cold", "lonely"], ["HasProperty"],
                     [(0, 0, 1)], [1.0])
    assert kg.neighbors(0) == [(1, 0, False)]
    assert kg.neighbors(1) == [(0, 0, True)]
    assert kg.neighbors(2) == []


def test_neighbors_sorted_deterministically():
    triples = [(0, 1, 3), (0, 0, 2), (0, 0, 1), (2, 1, 0)]
    kg = build_graph(list("abcd"), ["r0", "r1"], triples,
                     np.ones(len(triples)))
    nbrs = kg.neighbors(0)
    assert nbrs == sorted(nbrs)


def test_neighbors_are_python_scalars(tmp_path):
    # uint32 triples and uint8 flags must not leak out as numpy scalars
    triples = [(0, 1, 2), (2, 0, 0), (1, 1, 1), (0, 0, 1)]
    kg = build_graph(list("abc"), ["r0", "r1"], triples, np.ones(len(triples)))
    kg.save(tmp_path / "kg.bin")
    for graph in (kg, KnowledgeGraph.load(tmp_path / "kg.bin")):
        for c in range(graph.n_concepts):
            for entry in graph.neighbors(c):
                assert tuple(map(type, entry)) == (int, int, bool)


def test_invalid_id_raises():
    kg = build_graph(["a", "b"], ["r"], [(0, 0, 1)], [1.0])
    with pytest.raises((IndexError, ValueError)):
        kg.neighbors(99)


@given(st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 2), st.integers(0, 7)),
    min_size=1, max_size=30))
def test_every_triple_reachable_from_both_endpoints(raw):
    triples = sorted({(h, r, t) for h, r, t in raw if h != t})
    if not triples:
        return
    kg = build_graph([f"c{i}" for i in range(8)], ["r0", "r1", "r2"],
                     triples, np.ones(len(triples)))
    for h, r, t in triples:
        assert (t, r, False) in kg.neighbors(h)
        assert (h, r, True) in kg.neighbors(t)


def test_save_load_round_trip(tmp_path):
    kg = build_graph(["ice", "cold", "wet"], ["HasProperty", "RelatedTo"],
                     [(0, 0, 1), (1, 1, 2)], [1.0, 0.5])
    p = tmp_path / "kg.bin"
    kg.save(p)
    kg2 = KnowledgeGraph.load(p)
    assert kg2.concepts == kg.concepts
    assert kg2.relations == kg.relations
    assert np.array_equal(kg2.triples, kg.triples)
    assert np.array_equal(kg2.weights, kg.weights)
    assert kg2.neighbors(1) == kg.neighbors(1)


def test_ingest_deterministic_bytes(tmp_path):
    f = write(tmp_path, "kg.tsv",
              "r1\tc\td\t1.0\nr2\ta\tb\t0.5\nr1\tb\tc\t0.2\n")
    for i in (1, 2):
        kg, _ = ingest(f)
        kg.save(tmp_path / f"kg{i}.bin")
    assert (tmp_path / "kg1.bin").read_bytes() == (tmp_path / "kg2.bin").read_bytes()
