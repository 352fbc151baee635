"""Graph store: ingest, merging, adjacency, persistence."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgqa import selfcheck
from kgqa.kg import (IngestError, KnowledgeGraph, build_graph,
                     default_merge_map_path, ingest, load_merge_map,
                     normalize_surface)
from kgqa.selfcheck import scatter_sort_suite
from kgqa.toy import build_toy_world


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
    assert report.skipped == {}


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
    assert report.skipped == {"language filter": {
        "count": 1, "first_line": 2, "first_message": "language filter"}}


def test_malformed_line_reported_with_number(tmp_path):
    f = write(tmp_path, "kg.tsv",
              "r1\ta\tb\t1.0\n"
              "not a triple\n"
              "r1\tb\tc\t1.0\n")
    kg, report = ingest(f)
    assert len(kg.triples) == 2
    assert list(report.skipped) == ["malformed"]
    entry = report.skipped["malformed"]
    assert (entry["count"], entry["first_line"]) == (1, 2)
    assert "expected 3 or 4 columns" in entry["first_message"]


# rows that both line formats skip as malformed
FULL_ROW = "/a/x\t/r/{}\t/c/en/{}\t/c/en/cold\t{{\"weight\": {}}}"
MALFORMED_ROWS = {
    "simple-nan": "r\tice\tcold\tnan",
    "simple-inf": "r\tice\tcold\tinf",
    "simple-negative": "r\tice\tcold\t-2",
    "simple-empty-relation": "\tice\tcold\t1.0",
    "simple-empty-endpoint": "r\t \tcold\t1.0",
    "full-nan": FULL_ROW.format("r", "ice", "NaN"),
    "full-inf": FULL_ROW.format("r", "ice", "Infinity"),
    "full-negative": FULL_ROW.format("r", "ice", "-2"),
    "full-empty-relation": FULL_ROW.format("", "ice", "1.0"),
    "full-empty-endpoint": FULL_ROW.format("r", "", "1.0"),
    "simple-float32-overflow": "r\tice\tcold\t1e39",
    "full-float32-overflow": FULL_ROW.format("r", "ice", "1e39"),
}


@pytest.mark.parametrize("row", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS)
def test_both_formats_skip_the_same_malformed_rows(tmp_path, row):
    kg, report = ingest(write(tmp_path, "kg.tsv", f"r\ta\tb\t1.0\n{row}\n"))
    assert len(kg.triples) == 1
    assert list(report.skipped) == ["malformed"]
    entry = report.skipped["malformed"]
    assert (entry["count"], entry["first_line"]) == (1, 2)


def test_a_weight_that_overflows_float32_is_named(tmp_path):
    # the snapshot stores weights as float32, where 1e39 would be inf
    _, report = ingest(write(tmp_path, "kg.tsv", "r\ta\tb\t3.4028235e38\nr\ta\tc\t1e39\n"))
    assert report.triples_kept == 1
    assert report.skipped == {"malformed": {
        "count": 1, "first_line": 2,
        "first_message": "weight 1e+39 is not a finite non-negative float32"}}


@pytest.mark.parametrize("metadata", ["[1]", "1", '"x"'])
def test_full_format_metadata_that_is_not_an_object_is_malformed(tmp_path, metadata):
    kg, report = ingest(write(tmp_path, "kg.tsv",
                              "r\ta\tb\t1.0\n"
                              f"/a/x\t/r/r\t/c/en/ice\t/c/en/cold\t{metadata}\n"))
    assert len(kg.triples) == 1
    assert report.skipped == {"malformed": {
        "count": 1, "first_line": 2,
        "first_message": "bad metadata JSON: "
                         f"'{type(json.loads(metadata)).__name__}' object has no attribute 'get'"}}


def test_merge_map_renames_and_deletes(tmp_path):
    f = write(tmp_path, "kg.tsv",
              "RelatedTo\ta\tb\t1.0\n"
              "Antonym\tb\tc\t1.0\n"
              "dbpedia/genre\tc\td\t1.0\n")
    m = write(tmp_path, "merge.tsv",
              "RelatedTo\trelatedto\n"
              "Antonym\trelatedto\n"
              "dbpedia/genre\tDELETE\n")
    kg, report = ingest(f, merge_map=load_merge_map(m))
    assert kg.relations == ("relatedto",)
    assert len(kg.triples) == 2
    assert list(report.skipped) == ["deleted relation 'dbpedia/genre'"]
    assert report.skipped["deleted relation 'dbpedia/genre'"]["first_line"] == 3


def test_merge_map_unknown_entry_warns(tmp_path):
    f = write(tmp_path, "kg.tsv", "RelatedTo\ta\tb\t1.0\n")
    m = write(tmp_path, "merge.tsv",
              "RelatedTo\trelatedto\nNeverUsed\trelatedto\n")
    _, report = ingest(f, merge_map=load_merge_map(m))
    assert any("NeverUsed" in w for w in report.warnings)


def test_relation_absent_from_map_is_skipped(tmp_path):
    f = write(tmp_path, "kg.tsv",
              "RelatedTo\ta\tb\t1.0\nMystery\tb\tc\t1.0\n")
    m = write(tmp_path, "merge.tsv", "RelatedTo\trelatedto\n")
    kg, _ = ingest(f, merge_map=load_merge_map(m))
    assert len(kg.triples) == 1


@pytest.mark.parametrize("n_foreign", [10, 1000])
def test_skipped_lines_are_summarized_not_listed(tmp_path, n_foreign):
    # a dump's non-English rows can run to millions; the report keeps one
    # entry per reason, with a count, the first line and its message
    rows = ["/a/x\t/r/IsA\t/c/en/ice\t/c/en/solid\t{}"]
    rows += [f"/a/{i}\t/r/IsA\t/c/fr/glace{i}\t/c/en/solid\t{{}}" for i in range(n_foreign)]
    rows += ["Mystery\ta\tb", "not a triple", "Mystery\tb\tc"]
    f = write(tmp_path, "kg.tsv", "\n".join(rows) + "\n")
    _, report = ingest(f, merge_map={"IsA": "isa"})
    assert report.lines_read == n_foreign + 4
    assert report.to_dict()["skipped"] == {
        "language filter": {"count": n_foreign, "first_line": 2,
                            "first_message": "language filter"},
        "unmapped relation 'Mystery'": {"count": 2, "first_line": n_foreign + 2,
                                        "first_message": "unmapped relation 'Mystery'"},
        "malformed": {"count": 1, "first_line": n_foreign + 3,
                      "first_message": "expected 3 or 4 columns, found 1"},
    }


def test_duplicates_without_a_weight_column_are_counted(tmp_path):
    # every 3-column row carries the default weight 1.0
    f = write(tmp_path, "kg.tsv", "r\ta\tb\nr\ta\tb\nr\ta\tb\t0.5\nr\ta\tb\t4\n")
    kg, report = ingest(f)
    assert report.duplicates_merged == 3
    assert kg.weights.tolist() == [4.0]


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


def test_adjacency_bytes_unchanged_on_the_toy_world():
    # sha256 of the adjacency arrays, recorded with the four-key np.lexsort
    # and np.add.at row counts that the packed-key sort replaced
    kg = build_toy_world(seed=0).kg
    want = {
        "_adj_ptr": "69a86ef6aafed47d31b088382f25b4a898dbe8f26b8686cc8877b725a2fe0457",
        "_adj_nbr": "3af3f43fbc18f37ce1ffed06b6c0ae91eb02f885da05d49c70d69ec3dcbf2fd1",
        "_adj_rel": "9ab87507a8c9f2317aca5c35c6188bc32f138caffa43b5ea876c797db1bab7ec",
        "_adj_rev": "ea7e5745a0cc6036a0bdf058b38ba6b818678c5ef6d655c5cb04a30d3315552e",
    }
    got = {name: hashlib.sha256(getattr(kg, name).tobytes()).hexdigest() for name in want}
    assert got == want


def test_a_snapshot_with_a_repeated_row_and_a_self_loop_loads_the_stable_order(tmp_path):
    # equal sort keys are equal entries, so an unstable sort gives the arrays
    # of the stable one
    triples = np.array([(2, 1, 0), (1, 0, 1), (0, 1, 2), (2, 1, 0), (1, 0, 1),
                        (0, 0, 2), (2, 1, 0)], dtype=np.uint32)
    build_graph(["a", "b", "c"], ["r", "s"], triples, np.ones(7)).save(tmp_path / "kg.bin")
    kg = KnowledgeGraph.load(tmp_path / "kg.bin")
    src = np.concatenate([triples[:, 0], triples[:, 2]]).astype(np.int64)
    nbr = np.concatenate([triples[:, 2], triples[:, 0]])
    rel = np.concatenate([triples[:, 1], triples[:, 1]])
    rev = np.repeat(np.array([0, 1], np.uint8), len(triples))
    order = np.argsort(((src * 3 + nbr) * 2 + rel) * 2 + rev, kind="stable")
    for name, want in (("_adj_nbr", nbr[order]), ("_adj_rel", rel[order]),
                       ("_adj_rev", rev[order])):
        got = getattr(kg, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert kg._adj_ptr.tolist() == [0, 5, 9, 14]
    assert kg.neighbors(1) == [(1, 0, False), (1, 0, False), (1, 0, True), (1, 0, True)]


def test_scatter_and_sort_oracle_catches_a_wrong_adjacency_order(monkeypatch):
    def by_source_only(concepts, relations, triples, weights):
        kg = build_graph(concepts, relations, triples, weights)
        src = np.repeat(np.arange(kg.n_concepts), np.diff(kg._adj_ptr))
        order = np.lexsort((kg._adj_nbr, -kg._adj_rel.astype(np.int64), src))
        for name in ("_adj_nbr", "_adj_rel", "_adj_rev"):
            object.__setattr__(kg, name, getattr(kg, name)[order])
        return kg

    monkeypatch.setattr(selfcheck, "build_graph", by_source_only)
    result = scatter_sort_suite(n_cases=50)
    assert not result.passed
    assert "differs from np.lexsort" in result.detail


@pytest.mark.parametrize("nv,n_rel", [(2 ** 31, 1), (2 ** 30, 4), (3, 2 ** 62)])
def test_a_vocabulary_past_the_int64_sort_key_is_named(nv, n_rel):
    # nv**2 * n_rel * 2 reaches 2**63; ranges stand in for the vocabularies,
    # so nothing that large is built
    with pytest.raises(ValueError, match=f"{nv} concepts and {n_rel} relations"):
        build_graph(range(nv), range(n_rel), np.zeros((0, 3)), np.zeros(0))


@pytest.mark.parametrize("triple", [(0, 0, 3), (3, 0, 0), (0, 1, 2), (1, 2 ** 31, 2)])
def test_a_triple_id_past_its_vocabulary_is_named(triple):
    # a relation id past the vocabulary would collide with a key of another
    # concept's row and misplace entries silently
    with pytest.raises(ValueError, match="triple ids must be below 3 concepts and 1 relations"):
        build_graph(["a", "b", "c"], ["r"], [(0, 0, 1), triple], np.ones(2))


def test_the_largest_accepted_vocabulary_keeps_the_sort_key_exact():
    # nv = 2**31 - 1 at one relation is the largest vocabulary build_graph
    # accepts; its largest key, entry (nv-1, nv-1, rel 0, reverse), fits int64
    nv, n_rel = 2 ** 31 - 1, 1
    assert nv * nv * n_rel * 2 < 2 ** 63 <= (nv + 1) ** 2 * n_rel * 2
    top = np.array([nv - 1], np.uint32)
    key = ((top.astype(np.int64) * nv + top) * n_rel + np.uint32(0)) * 2 + np.uint8(1)
    assert int(key[0]) == 2 * nv * nv * n_rel - 1
