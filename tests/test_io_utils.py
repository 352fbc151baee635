"""Binary container: valid files round-trip, damaged or malformed ones raise
ContainerError, each loader names a block or meta key it needs, and a write
that fails midway leaves the previous file."""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from conftest import dir_bytes, fail_writes_midway
from hypothesis import strategies as st

from kgqa import pipeline
from kgqa.data import QAExample, save_dataset
from kgqa.io_utils import (MAGIC, ContainerError, read_container, write_container,
                           write_manifest)
from kgqa.kg import KnowledgeGraph, build_graph
from kgqa.kge import EmbeddingTable
from kgqa.model.network import instance_from_schema_graph
from kgqa.statement import FeatureStore

BLOCK_SPECS = st.lists(
    st.tuples(st.sampled_from(["float64", "float32", "uint32", "int64", "bytes"]),
              st.lists(st.integers(0, 3), max_size=2)),
    max_size=3)


def assert_every_truncation_raises(data: bytes, read) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cut = Path(tmp) / "cut.bin"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(ContainerError):
                read(cut)


@given(specs=BLOCK_SPECS, seed=st.integers(0, 2 ** 32 - 1))
def test_every_truncation_raises_and_whole_file_round_trips(specs, seed):
    rng = np.random.default_rng(seed)
    blocks = {}
    for i, (dtype, shape) in enumerate(specs):
        if dtype == "bytes":
            blocks[f"b{i}"] = rng.bytes(int(np.prod(shape)))
        else:
            blocks[f"b{i}"] = rng.integers(0, 1000, size=shape).astype(dtype)
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "c.bin", Path(tmp) / "again.bin"
        write_container(path, "test", {"seed": seed}, blocks)
        meta, back = read_container(path, kind="test")
        assert meta == {"seed": seed}
        assert list(back) == list(blocks)
        for name, value in blocks.items():
            if isinstance(value, bytes):
                assert back[name] == value
            else:
                assert back[name].dtype == value.dtype
                assert np.array_equal(back[name], value)
        write_container(again, "test", meta, back)
        data = path.read_bytes()
        assert again.read_bytes() == data
    assert_every_truncation_raises(data, read_container)


def test_every_truncation_of_a_kge_table_raises_container_error(tmp_path):
    path = tmp_path / "kge.bin"
    EmbeddingTable(ent=np.arange(12.0).reshape(3, 4), rel=np.ones((2, 4)),
                   gamma=2.0).save(path)
    assert_every_truncation_raises(path.read_bytes(), EmbeddingTable.load)


def test_unknown_block_dtype_raises_container_error(tmp_path):
    header = json.dumps({"kind": "test", "version": 1, "meta": {},
                         "blocks": [{"name": "x", "dtype": "complex128",
                                     "shape": [1]}]}).encode()
    path = tmp_path / "c.bin"
    path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header + bytes(16))
    with pytest.raises(ContainerError, match="unknown dtype 'complex128'"):
        read_container(path)


def test_garbled_header_raises_container_error(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(MAGIC + struct.pack("<Q", 4) + b"\xff{]x")
    with pytest.raises(ContainerError, match="unreadable header"):
        read_container(path)


def write_raw(path, header) -> None:
    raw = json.dumps(header).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(raw)) + raw + bytes(16))


def block(shape, name="x", dtype="float64"):
    return {"name": name, "dtype": dtype, "shape": shape}


@pytest.mark.parametrize("header, message", [
    ({}, "header has no 'kind'"),
    ([], "header is not a JSON object"),
    ({"kind": "test", "version": 1, "blocks": []}, "header has no 'meta'"),
    ({"kind": "test", "version": 1, "meta": {}}, "header has no 'blocks'"),
    ({"kind": "test", "meta": [], "blocks": []}, "header 'meta' is not a dict"),
    ({"kind": "test", "meta": {}, "blocks": {}}, "header 'blocks' is not a list"),
    ({"kind": "test", "meta": {}, "blocks": [["x", "float64", [1]]]},
     "block entry 0 lacks a string name or dtype"),
    ({"kind": "test", "meta": {}, "blocks": [block("2")]}, "block 'x' has shape '2'"),
    ({"kind": "test", "meta": {}, "blocks": [block([-1])]}, r"block 'x' has shape \[-1\]"),
    ({"kind": "test", "meta": {}, "blocks": [block([1.0])]}, r"block 'x' has shape \[1.0\]"),
    ({"kind": "test", "meta": {}, "blocks": [block([2**40, 2**40])]}, "truncated block 'x'"),
])
def test_malformed_header_raises_container_error(tmp_path, header, message):
    path = tmp_path / "c.bin"
    write_raw(path, header)
    with pytest.raises(ContainerError, match=message):
        read_container(path)


def save_kge(path):
    EmbeddingTable(ent=np.ones((3, 4)), rel=np.ones((2, 4))).save(path)


def save_kg(path):
    build_graph(["a", "b"], ["r"], [(0, 0, 1)], [1.0]).save(path)


def save_features(path):
    FeatureStore.write(path, {("q", 0): np.ones(3)})


# loader name -> (save a valid container, container kind, load)
LOADERS = {
    "kge": (save_kge, "kge", EmbeddingTable.load),
    "kg": (save_kg, "kg-snapshot", KnowledgeGraph.load),
    "features": (save_features, "features", FeatureStore.load),
}


def load_rewritten(tmp_path, loader, block_name=None, meta_key=None, block=None):
    """Load a valid container rewritten without one block or meta key, or
    with ``block`` in place of block ``block_name``."""
    save, kind, load = LOADERS[loader]
    path = tmp_path / "c.bin"
    save(path)
    meta, blocks = read_container(path, kind=kind)
    assert block_name in (None, *blocks) and meta_key in (None, *meta)
    blocks.pop(block_name, None)
    meta.pop(meta_key, None)
    if block is not None:
        blocks[block_name] = block
    write_container(path, kind, meta, blocks)
    return load(path)


@pytest.mark.parametrize("loader, block_name", [
    ("kge", "ent"), ("kge", "rel"), ("kg", "concepts"), ("kg", "relations"),
    ("kg", "triples"), ("kg", "weights"), ("features", "rows"),
])
def test_loader_names_a_missing_block(tmp_path, loader, block_name):
    with pytest.raises(ContainerError, match=f"missing block '{block_name}'"):
        load_rewritten(tmp_path, loader, block_name=block_name)


@pytest.mark.parametrize("loader, meta_key", [("kge", "gamma"), ("features", "keys")])
def test_loader_names_a_missing_meta_key(tmp_path, loader, meta_key):
    with pytest.raises(ContainerError, match=f"missing meta key '{meta_key}'"):
        load_rewritten(tmp_path, loader, meta_key=meta_key)


# the valid containers: kg with 2 concepts and 1 triple, kge with 3 x 4 entity
# and 2 x 4 relation rows, features with 1 key of width 3
WRONG_BLOCKS = [
    ("kg", "concepts", np.zeros(2), "dtype 'float64', expected 'bytes'"),
    ("kg", "relations", np.zeros(1, np.uint32), "dtype 'uint32', expected 'bytes'"),
    ("kg", "triples", b"\0" * 12, "dtype 'bytes', expected 'uint32'"),
    ("kg", "triples", np.zeros((1, 3)), "dtype 'float64', expected 'uint32'"),
    ("kg", "triples", np.zeros((1, 2), np.uint32), r"shape \[1, 2\], expected \[n, 3\]"),
    ("kg", "triples", np.zeros(3, np.uint32), r"shape \[3\], expected \[n, 3\]"),
    ("kg", "weights", np.ones(2, np.float32), r"shape \[2\], expected \[n=1\]"),
    ("kg", "weights", np.ones(1), "dtype 'float64', expected 'float32'"),
    ("kge", "ent", np.ones((3, 4), np.int64), "dtype 'int64', expected 'float64' or 'float32'"),
    ("kge", "ent", np.ones(4), r"shape \[4\], expected \[\*, d\]"),
    ("kge", "rel", np.ones((2, 5)), r"shape \[2, 5\], expected \[\*, d=4\]"),
    ("features", "rows", b"\0" * 12, "dtype 'bytes', expected 'float64' or 'float32'"),
    ("features", "rows", np.ones(3, np.float32), r"shape \[3\], expected \[keys=1, \*\]"),
    ("features", "rows", np.ones((2, 3), np.float32), r"shape \[2, 3\], expected \[keys=1, \*\]"),
]


@pytest.mark.parametrize("triple, message", [
    ((0, 0, 5), "id 5 of block 'concepts', which lists 2"),
    ((2, 0, 1), "id 2 of block 'concepts', which lists 2"),
    ((0, 1, 1), "id 1 of block 'relations', which lists 1"),
])
def test_kg_loader_names_a_triple_id_out_of_range(tmp_path, triple, message):
    with pytest.raises(ContainerError, match=message):
        load_rewritten(tmp_path, "kg", block_name="triples",
                       block=np.array([triple], dtype=np.uint32))


@pytest.mark.parametrize(
    "loader, block_name, block, message", WRONG_BLOCKS,
    ids=[f"{loader}-{name}-" + ("bytes" if isinstance(block, bytes)
                                else f"{block.dtype}{list(block.shape)}")
         for loader, name, block, _ in WRONG_BLOCKS])
def test_loader_names_a_block_of_the_wrong_dtype_or_shape(tmp_path, loader, block_name,
                                                          block, message):
    with pytest.raises(ContainerError, match=f"block '{block_name}' has {message}"):
        load_rewritten(tmp_path, loader, block_name=block_name, block=block)


# writer name -> write version v of an artifact into a directory
WRITERS = {
    "container": lambda d, v: write_container(d / "c.bin", "test", {"v": v},
                                              {"w": np.full(4, float(v))}),
    "kg": lambda d, v: build_graph(["a", "b"], ["r"], [(0, 0, 1)], [float(v)]).save(
        d / "kg.bin"),
    "kge": lambda d, v: EmbeddingTable(ent=np.full((3, 4), float(v)),
                                       rel=np.ones((2, 4))).save(d / "kge.bin"),
    "features": lambda d, v: FeatureStore.write(d / "f.bin", {("q", 0): np.full(3, v)}),
    "manifest": lambda d, v: write_manifest(d / "out", "cmd", "hash", {}, v, "0"),
    "cache-entry": lambda d, v: pipeline.write_cache_entry(
        d / "entry.bin", [instance_from_schema_graph(None, "q", 0, 4, seed=v)], [None]),
    "dataset": lambda d, v: save_dataset(
        d / "data.jsonl", [QAExample("q", f"question {v}", ["a", "b"])]),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_write_that_fails_midway_keeps_the_previous_file(tmp_path, monkeypatch,
                                                           writer):
    WRITERS[writer](tmp_path, 1)
    before = dir_bytes(tmp_path)
    assert len(before) == 1
    with monkeypatch.context() as m:
        fail_writes_midway(m)
        with pytest.raises(OSError, match="simulated full disk"):
            WRITERS[writer](tmp_path, 2)
        assert dir_bytes(tmp_path) == before   # no temporary file either
    WRITERS[writer](tmp_path, 2)
    after = dir_bytes(tmp_path)
    assert after.keys() == before.keys() and after != before
