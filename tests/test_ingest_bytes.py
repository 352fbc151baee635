"""Pinned output of ``kg.ingest``.

Each digest is sha256 over the saved ``kg.bin`` bytes followed by the
canonical JSON of the report's ``lines_read``, ``triples_kept``,
``duplicates_merged`` and ``warnings``. The inputs are the benchmark's tiny
hub TSV without a merge map, the same TSV under a map with merged, ``DELETE``
and never-seen entries, and a small ConceptNet 5.x style file with
non-English, malformed and duplicate rows. A change to how ingest reads,
merges or orders must leave the graph and these counts as they are.
"""

import hashlib

import pytest

from kgqa import io_utils
from kgqa.kg import ingest, load_merge_map
from perfbench import gen

DIGESTS = {
    "hub": "bd41efd356146a5f022db3754f05c2e8a45bc948e90883759a57b0889bf0d29b",
    "hub-mapped": "8bcdb134c0617d9461d060a641ee9823e422fe7316a58c1f0514028592c054a6",
    "full-format": "1c15acf4b1a25817f77866b3434e1f06968a21884cf4055cef12bb98300af6f5",
}

# targets in first-use order zeta, alpha, mid, orphan: relation ids follow the
# map, not the alphabet; "orphan" is reached only from a never-seen name
HUB_MAP = """\
# merged, deleted and never-seen entries
usedfor\tzeta
antonym\talpha
hasproperty\talpha
isa\tDELETE
partof\tDELETE
relatedto\tmid
causes\tzeta
NeverSeen\talpha
AlsoNeverSeen\tDELETE
OnlyHere\torphan
"""

FULL_FORMAT = """\
# ConceptNet 5.x assertion rows
/a/1\t/r/IsA\t/c/en/ice_cube/n\t/c/en/ice\t{"weight": 1.5}
/a/2\t/r/IsA\t/c/en/ice_cube\t/c/en/ice/n/wn\t{"weight": 0.5}
/a/3\t/r/HasProperty\t/c/en/ice\t/c/en/cold\t{"weight": 2.0}
/a/4\t/r/HasProperty\t/c/fr/glace\t/c/fr/froid\t{"weight": 1.0}
/a/5\t/r/RelatedTo\t/c/en/ice\t/c/de/eis\t{"weight": 1.0}

/a/6\t/r/RelatedTo\t/c/ja/氷\t/c/en/ice\t{"weight": 1.0}
/a/7\tHasProperty\t/c/en/ice\t/c/en/wet\t{"weight": 1.0}
/a/8\t/r/HasProperty\t/c/en\t/c/en/wet\t{"weight": 1.0}
/a/9\t/r/HasProperty\t/c/en/ice\t/c/en/wet\tnot json
/a/10\t/r/HasProperty\t/c/en/ice\t/c/en/wet\t{"weight": "heavy"}
/a/11\t/r/AtLocation\t/c/en/Ice\t/c/en/Freezer\t{}
/a/12\t/r/AtLocation\t/c/en/ice\t/c/en/freezer\t{"weight": 3.25}
/a/13\t/r/HasProperty\t/c/en/ice\t/c/en/cold\t{"weight": 1.0}
/a/14\t/r/RelatedTo\t/c/en/cold\t/c/en/winter\t{"weight": 0.75}
RelatedTo\twinter\tsnow\t0.5
x\t/r/RelatedTo\t/c/en/cold\t/c/en/snow\t{"weight": 1.0}
"""


def ingest_digest(tsv, merge_map, tmp_path) -> str:
    graph, report = ingest(tsv, merge_map=merge_map)
    graph.save(tmp_path / "kg.bin")
    counts = {key: report.to_dict()[key] for key in
              ("lines_read", "triples_kept", "duplicates_merged", "warnings")}
    digest = hashlib.sha256((tmp_path / "kg.bin").read_bytes())
    digest.update(io_utils.canonical_json(counts).encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_ingest_output_is_pinned(tmp_path, name):
    if name == "full-format":
        tsv, merge_map = tmp_path / "assertions.tsv", None
        tsv.write_text(FULL_FORMAT, encoding="utf-8")
    else:
        tsv, _ = gen.write_hub_inputs(tmp_path, 0, gen.HUB_SIZES["tiny"])
        merge_map = None
        if name == "hub-mapped":
            (tmp_path / "merge.tsv").write_text(HUB_MAP, encoding="utf-8")
            merge_map = load_merge_map(tmp_path / "merge.tsv")
    assert ingest_digest(tsv, merge_map, tmp_path) == DIGESTS[name]
