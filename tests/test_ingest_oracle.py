"""``kg.ingest`` against the per-line reader it replaced.

``reference_ingest`` is the reader that normalized both endpoints of every
line, keyed its triples by surface strings and ordered them with ``sorted``
over Python tuples. It stays here as the oracle: on any dump, in either
format or both, with or without a merge map, ingest must give the same
snapshot bytes and the same report, or raise the same error.
"""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa.kg import (DELETE, LANGUAGE, IngestError, IngestReport, build_graph, ingest,
                     normalize_surface)

from conftest import mutant


class _Skip(ValueError):
    pass


def _parse_full_line(fields):
    rel_uri, start, end, meta = fields[1], fields[2], fields[3], fields[4]
    if not rel_uri.startswith("/r/"):
        raise ValueError(f"bad relation URI {rel_uri!r}")
    rel = rel_uri[len("/r/"):]
    endpoints = []
    for uri in (start, end):
        parts = uri.split("/")
        if len(parts) < 4 or parts[1] != "c":
            raise ValueError(f"bad concept URI {uri!r}")
        if parts[2] != LANGUAGE:
            raise _Skip("language filter")
        endpoints.append(normalize_surface(parts[3]))
    try:
        weight = float(json.loads(meta).get("weight", 1.0))
    except (json.JSONDecodeError, AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"bad metadata JSON: {exc}") from exc
    return rel, endpoints[0], endpoints[1], weight


def _parse_simple_line(fields):
    if len(fields) not in (3, 4):
        raise ValueError(f"expected 3 or 4 columns, found {len(fields)}")
    weight = float(fields[3]) if len(fields) == 4 else 1.0
    return fields[0].strip(), normalize_surface(fields[1]), normalize_surface(fields[2]), weight


def _fits_float32(weight):
    try:
        struct.pack("<f", weight)  # refuses a double that float32 rounds to inf
    except OverflowError:
        return False
    return True


def reference_ingest(assertions_file, merge_map=None):
    report = IngestReport()
    rel_ids = {}
    for target in (merge_map or {}).values():
        if target != DELETE:
            rel_ids.setdefault(target, len(rel_ids))
    best = {}
    raw_seen = set()
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
                if not (0.0 <= weight < math.inf and _fits_float32(weight)):
                    raise ValueError(f"weight {weight} is not a finite non-negative float32")
                if not (raw_rel and head and tail):
                    raise ValueError("empty relation or endpoint")
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


# case and whitespace variants of one surface, multi-word surfaces, endpoints
# that normalize to "", a few letters whose lowercase differs in length, and
# simple-format fields that are also full-format URIs
SURFACES = ("ice", "Ice", " ICE ", "ice cube", "Ice  Cube", "ice_cube", "cold",
            "Cold", "zeta", "alpha", "Äpfel", "äpfel", "İ", "ß", "", "  ",
            "/c/en/ice", "/c/fr/ice")
RELATIONS = ("IsA", " IsA", "isa", "RelatedTo", "usedfor", "Other", "")
# most weights and metadata are valid, so most drawn dumps keep some triples
WEIGHTS = ("1.0", "0.5", "2", " 3 ", "0", "-0", "0.25", "1.5", "4",
           "nan", "-1", "inf", "1e39", "3.4028235e38", "3.4028236e38", "abc", "")
LANGUAGES = (LANGUAGE, LANGUAGE, LANGUAGE, LANGUAGE, "fr", "de")
METAS = ('{"weight": 1.5}', '{"weight": 0.25}', "{}", '{"weight": "2.5"}', '{"weight": 3}',
         '{"weight": 0.5}', '{"weight": "heavy"}', '{"weight": NaN}', '{"weight": -1}',
         '{"weight": Infinity}', '{"weight": null}', '{"weight": 1e39}', "not json",
         "[1]", "1", '"x"')


@st.composite
def concept_uris(draw):
    kind = draw(st.sampled_from(("ok", "ok", "ok", "sense", "short", "not-c", "shared")))
    if kind == "short":
        return f"/c/{draw(st.sampled_from(LANGUAGES))}"
    if kind == "shared":
        return draw(st.sampled_from(SURFACES[-2:]))
    surface = draw(st.sampled_from(SURFACES))
    prefix = "c" if kind != "not-c" else "x"
    return (f"/{prefix}/{draw(st.sampled_from(LANGUAGES))}/{surface}"
            + ("/n" if kind == "sense" else ""))


@st.composite
def dump_lines(draw):
    kind = draw(st.sampled_from(("simple",) * 4 + ("full",) * 3 + ("columns", "skip")))
    if kind == "skip":
        return draw(st.sampled_from(("", "# comment", "#\tx\ty")))
    if kind == "full":
        rel = draw(st.sampled_from(RELATIONS)).strip()
        rel_uri = draw(st.sampled_from((f"/r/{rel}", f"/r/{rel}", rel)))
        return "\t".join((f"/a/{draw(st.integers(0, 9))}", rel_uri, draw(concept_uris()),
                          draw(concept_uris()), draw(st.sampled_from(METAS))))
    fields = [draw(st.sampled_from(RELATIONS)), draw(st.sampled_from(SURFACES)),
              draw(st.sampled_from(SURFACES))]
    if draw(st.booleans()):
        fields.append(draw(st.sampled_from(WEIGHTS)))
    if kind == "columns":  # too few, or five without a leading /a/ field
        fields = fields[:2] if draw(st.booleans()) else [*fields[:3], "1.0", "x"]
    return "\t".join(fields)


# raw names seen in the data or not, each merged, deleted or left out
merge_maps = st.none() | st.dictionaries(
    st.sampled_from(("IsA", "isa", "RelatedTo", "usedfor", "NeverSeen")),
    st.sampled_from(("alpha", "zeta", "alpha", "zeta", DELETE)), max_size=5)


def outcome(ingest_fn, path, merge_map):
    """The snapshot bytes and report dict of one ingest, or the error it raised."""
    try:
        graph, report = ingest_fn(path, merge_map=merge_map)
    except Exception as exc:  # noqa: BLE001 - the two readers must raise alike
        return type(exc), str(exc)
    graph.save(path.with_suffix(".bin"))
    return path.with_suffix(".bin").read_bytes(), report.to_dict()


def assert_matches_reference(ingest_fn, root):
    @settings(max_examples=100)
    @given(lines=st.lists(dump_lines(), min_size=1, max_size=16), merge_map=merge_maps)
    def check(lines, merge_map):
        path = root / "dump.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert outcome(ingest_fn, path, merge_map) == outcome(reference_ingest, path, merge_map)
    check()


def test_ingest_matches_the_per_line_reader(tmp_path_factory):
    assert_matches_reference(ingest, tmp_path_factory.mktemp("oracle"))


def test_the_oracle_catches_surface_ids_left_in_first_seen_order(tmp_path_factory):
    unsorted = mutant(ingest, "sorted(np.unique(ids[:, ::2]).tolist(), key=by_id.__getitem__)",
                      "np.unique(ids[:, ::2]).tolist()")
    with pytest.raises(AssertionError):
        assert_matches_reference(unsorted, tmp_path_factory.mktemp("mutant"))
