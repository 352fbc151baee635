"""Every loader against its kind's declared spec.

One small valid artifact of each of the five kinds is rewritten with one
change: a meta field deleted or given another value (one level into objects
and lists too), or one float cell set to NaN or inf. The loader must either
return or raise a ContainerError whose message starts with the file's path;
any other exception is a loader that trusted its input.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa.config import RunConfig
from kgqa.data import QAExample
from kgqa.io_utils import ContainerError, read_container, write_container
from kgqa.kg import KnowledgeGraph, build_graph
from kgqa.kge import EmbeddingTable
from kgqa.model.network import instance_from_schema_graph
from kgqa.paths import SchemaGraph
from kgqa.pipeline import build_model_state, load_model_state, read_cache_entry, \
    write_cache_entry
from kgqa.statement import FeatureStore

EMB = EmbeddingTable(ent=np.full((3, 4), 0.5), rel=np.full((2, 4), 0.5))
MODEL_CFG = RunConfig(kge_dim=4, gcn_dims="3", lstm_hidden=2, d_t=3, t_hidden=3,
                      score_hidden=2, enc_embed=3, enc_hidden=2)


def save_cache_entry(path):
    sg = SchemaGraph(cq=[0], ca=[1, 2], nodes=[0, 1, 2],
                     edges=[(0, 0, 1), (1, 1, 2), (0, 0, 2)],
                     paths={(0, 0): [((0, False, 1),)],
                            (0, 1): [((0, False, 2),), ((0, False, 1), (1, True, 2))]})
    write_cache_entry(path, [instance_from_schema_graph(sg, "q", 0),
                             instance_from_schema_graph(None, "q", 1)],
                      [{"paths_before": 3, "paths_after": 3}, None])


# kind -> (write a valid artifact to a path, load it)
KINDS = {
    "kg-snapshot": (
        lambda p: build_graph(["a", "b", "c"], ["r", "s"], [(0, 0, 1), (1, 1, 2)],
                              [1.0, 0.5]).save(p),
        KnowledgeGraph.load),
    "kge": (lambda p: EMB.save(p, extra_meta={"epochs": 2, "final_loss": 0.25}),
            EmbeddingTable.load),
    "features": (lambda p: FeatureStore.write(p, {("q", 0): np.ones(3),
                                                  ("q", 1): np.zeros(3)}),
                 FeatureStore.load),
    "model": (lambda p: build_model_state(MODEL_CFG, EMB, examples_for_vocab=[
                  QAExample("q", "a b", ["c", "d"])]).save(p),
              lambda p: load_model_state(p, EMB)),
    "instance": (save_cache_entry, lambda p: read_cache_entry(p, "q", 2, 3, 2)),
}

DELETE = "<delete>"
VALUES = (DELETE, None, "x", 1, -1, 1.5, True, [], {}, math.nan)


def meta_paths(meta: dict) -> list[tuple]:
    """Every meta key, and every key or index one level into its objects and lists."""
    paths = []
    for key, value in meta.items():
        paths.append((key,))
        if isinstance(value, (dict, list)):
            paths += [(key, inner) for inner in
                      (value if isinstance(value, dict) else range(len(value)))]
    return paths


def float_cells(blocks: dict) -> list[tuple[str, int]]:
    return [(name, i) for name, block in blocks.items()
            if not isinstance(block, bytes) and block.dtype.kind == "f"
            for i in range(block.size)]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """kind -> (meta, blocks) of a valid artifact, which its loader loads."""
    root = tmp_path_factory.mktemp("valid")
    out = {}
    for kind, (save, load) in KINDS.items():
        path = root / f"{kind}.bin"
        save(path)
        load(path)
        out[kind] = read_container(path, kind=kind)
    return out


def test_each_valid_artifact_has_meta_and_float_blocks_to_change(valid):
    for kind, (meta, blocks) in valid.items():
        assert meta_paths(meta) and float_cells(blocks), kind


def rewrite(path, kind, meta, blocks, change) -> None:
    """Write ``meta`` and ``blocks`` of kind ``kind`` to ``path`` with ``change``:
    ("meta", key path, value) or ("cell", block name, flat index, value)."""
    meta = {k: (dict(v) if isinstance(v, dict) else list(v) if isinstance(v, list) else v)
            for k, v in meta.items()}
    blocks = dict(blocks)
    if change[0] == "cell":
        _, name, i, value = change
        blocks[name] = blocks[name].copy()
        blocks[name].reshape(-1)[i] = value
    else:
        _, keys, value = change
        parent = meta if len(keys) == 1 else meta[keys[0]]
        if value is DELETE:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
    write_container(path, kind, meta, blocks)


def assert_loads_or_names_the_file(load, path) -> None:
    try:
        load(path)
    except ContainerError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_float_block_holding_nan_or_inf_is_named(valid, tmp_path, kind):
    # a cache entry's signs have the stricter rule of +1 or -1
    meta, blocks = valid[kind]
    path = tmp_path / "changed.bin"
    for name, i in dict.fromkeys((name, 0) for name, _ in float_cells(blocks)):
        complaint = ("holds a sign other than 1 or -1" if name == "signs"
                     else "holds a value that is not finite")
        for value in (math.nan, math.inf, -math.inf):
            rewrite(path, kind, meta, blocks, ("cell", name, i, value))
            with pytest.raises(ContainerError, match=re.escape(f"{path}: block {name!r} "
                                                               f"{complaint}")):
                KINDS[kind][1](path)


@st.composite
def changes(draw, meta, blocks):
    if draw(st.booleans()):
        name, i = draw(st.sampled_from(float_cells(blocks)))
        return "cell", name, i, draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    return "meta", draw(st.sampled_from(meta_paths(meta))), draw(st.sampled_from(VALUES))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_changed_artifact_loads_or_names_the_file(valid, tmp_path_factory, kind):
    meta, blocks = valid[kind]
    path = tmp_path_factory.mktemp("fuzz") / f"{kind}.bin"

    @settings(derandomize=True, max_examples=300, database=None)
    @given(change=changes(meta, blocks))
    def check(change):
        rewrite(path, kind, meta, blocks, change)
        assert_loads_or_names_the_file(KINDS[kind][1], path)

    check()
