"""Binary container: valid files round-trip, damaged ones raise ContainerError."""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgqa.io_utils import MAGIC, ContainerError, read_container, write_container
from kgqa.kge import EmbeddingTable

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
