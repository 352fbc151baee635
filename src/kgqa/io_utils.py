"""Deterministic binary container, hashing, and run-manifest helpers.

All on-disk artifacts share one container layout so every snapshot is
reproducible byte for byte:

    magic   8 bytes  b"KGQABIN1"
    hlen    8 bytes  little-endian uint64, length of the header JSON
    header  hlen bytes of UTF-8 JSON:
              {"kind": ..., "version": 1, "meta": {...},
               "blocks": [{"name", "dtype", "shape"}, ...]}
    blocks  raw little-endian C-order bytes, in header order

"bytes" blocks carry raw byte strings (shape = [length]); every other dtype
is a numpy array.

What each kind must hold is declared once, as a ``Spec`` beside its writer:
``kg.KG_SPEC``, ``kge.KGE_SPEC``, ``statement.FEATURES_SPEC``, and
``pipeline.MODEL_SPEC`` and ``pipeline.INSTANCE_SPEC``. ``read_container``
applies the spec it is given, so a loader reads without checking; without
one it is the raw reader.

Every artifact is written through ``atomic_open``, so a run killed mid-write
leaves the previous file, never a part of a new one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

MAGIC = b"KGQABIN1"

_DTYPES = {
    "float64": np.dtype("<f8"),
    "float32": np.dtype("<f4"),
    "uint32": np.dtype("<u4"),
    "int64": np.dtype("<i8"),
}
_NAMES = {dtype: name for name, dtype in _DTYPES.items()}


class ContainerError(ValueError):
    """Raised for unreadable or mismatched binary artifacts."""


def canonical_json(obj) -> str:
    """JSON with sorted keys and fixed separators, safe to hash."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", encoding: str | None = None):
    """A file opened for writing ``path``, which appears whole or not at all.

    The block writes a temporary file in ``path``'s directory, and
    ``os.replace`` moves it onto ``path`` once the block ends; if the block
    raises, the temporary file is removed and ``path`` keeps what it held.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        f = open(tmp, mode, encoding=encoding)
    except OSError as exc:
        exc.filename = str(path)  # name the file asked for, not the temporary one
        raise
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 through ``atomic_open``."""
    with atomic_open(path, "w", encoding="utf-8") as f:
        f.write(text)


def write_container(path: str | Path, kind: str, meta: dict, blocks: dict) -> None:
    """Write named blocks (numpy arrays or bytes) under a JSON header.

    Block order follows insertion order of ``blocks`` and is part of the
    format, so callers must pass blocks in a fixed order.
    """
    entries = []
    payloads = []
    for name, value in blocks.items():
        if isinstance(value, bytes):
            entries.append({"name": name, "dtype": "bytes", "shape": [len(value)]})
            payloads.append(value)
        else:
            arr = np.asarray(value)
            # a dict lookup: formatting a dtype's name costs microseconds
            dtype = _NAMES.get(arr.dtype)
            if dtype is None:
                raise ContainerError(
                    f"unsupported block dtype {str(arr.dtype)!r} for {name!r}")
            # asarray keeps a 0-d shape; tobytes writes C order regardless
            arr = np.asarray(arr, dtype=_DTYPES[dtype])
            entries.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
            payloads.append(arr.tobytes())
    header = canonical_json(
        {"kind": kind, "version": 1, "meta": meta, "blocks": entries}
    ).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for payload in payloads:
            f.write(payload)


BYTES = (("bytes",), None)
FLOATS = ("float64", "float32")


def rule(test: Callable[[object], bool], what: str) -> Callable[[object], Optional[str]]:
    """A meta rule: None for a value ``test`` accepts, else the complaint
    ``is <value>, not <what>``."""
    return lambda value: None if test(value) else f"is {value!r}, not {what}"


OBJECT = rule(lambda v: isinstance(v, dict), "an object")
FINITE = rule(lambda v: type(v) in (int, float) and math.isfinite(v), "a finite number")
STRINGS = rule(lambda v: isinstance(v, list) and set(map(type, v)) <= {str},
               "a list of strings")


def _finite(block: np.ndarray) -> Optional[str]:
    return None if np.isfinite(block).all() else "holds a value that is not finite"


class Spec(NamedTuple):
    """What a container of one kind holds beyond the header layout.

    ``meta`` maps each meta key the kind needs to its rule: a function of the
    value that returns None, or the complaint that follows ``meta '<key>'``
    in the error. ``blocks`` maps each block it needs to (dtype names, shape),
    shape None for a bytes block, optionally with a third entry, a rule of
    the array; a float block without one must be finite. A shape entry is an
    int, None for any length, or a name for a length that must be the same
    wherever the name appears; ``dims``, given the meta once it passes, fixes
    the lengths of some names.
    """

    meta: dict = {}
    blocks: dict = {}
    dims: Optional[Callable[[dict], dict]] = None


def check(path, meta: dict, blocks: dict, spec: Spec) -> None:
    """Raise ContainerError naming ``path`` and the first meta key or block
    of ``spec`` that ``meta`` or ``blocks`` lacks or holds otherwise."""
    for key, allowed in spec.meta.items():
        if key not in meta:
            raise ContainerError(f"{path}: missing meta key {key!r}")
        if (complaint := allowed(meta[key])) is not None:
            raise ContainerError(f"{path}: meta {key!r} {complaint}")
    dims = spec.dims(meta) if spec.dims else {}
    for name, (dtypes, shape, *values) in spec.blocks.items():
        if name not in blocks:
            raise ContainerError(f"{path}: missing block {name!r}")
        value = blocks[name]
        # a dict lookup: reading dtype.name costs microseconds per block
        dtype = "bytes" if isinstance(value, bytes) else _NAMES[value.dtype]
        if dtype not in dtypes:
            raise ContainerError(f"{path}: block {name!r} has dtype {dtype!r}, "
                                 f"expected {' or '.join(map(repr, dtypes))}")
        if shape is not None and shape != value.shape:
            want = tuple(dims.get(n) if isinstance(n, str) else n for n in shape)
            if want != value.shape:  # some names are not known yet, or it does not fit
                if value.ndim != len(shape) or any(
                        w not in (None, size) for w, size in zip(want, value.shape)):
                    expected = ", ".join("*" if n is None else f"{n}={dims[n]}"
                                         if n in dims else str(n) for n in shape)
                    raise ContainerError(f"{path}: block {name!r} has shape "
                                         f"{list(value.shape)}, expected [{expected}]")
                dims.update((n, size) for n, size in zip(shape, value.shape)
                            if isinstance(n, str))
        allowed = values[0] if values else _finite if dtype in FLOATS else None
        if allowed is not None and (complaint := allowed(value)) is not None:
            raise ContainerError(f"{path}: block {name!r} {complaint}")


def _span_end(size: int, pos: int, n: int, path, what: str) -> int:
    """End of the ``n`` bytes at ``pos`` of a ``size``-byte file; ContainerError
    if the file is cut short before it."""
    left = size - pos
    if n > left:
        raise ContainerError(f"{path}: truncated {what}: {n} bytes needed, {left} left")
    return pos + n


def _check_header(header, path) -> None:
    """Raise ContainerError unless the header has the layout written above."""
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: header is not a JSON object")
    for key, typ in (("kind", str), ("meta", dict), ("blocks", list)):
        if key not in header:
            raise ContainerError(f"{path}: header has no {key!r}")
        if not isinstance(header[key], typ):
            raise ContainerError(f"{path}: header {key!r} is not a {typ.__name__}")
    for i, entry in enumerate(header["blocks"]):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("dtype"), str)):
            raise ContainerError(f"{path}: block entry {i} lacks a string name or dtype")
        shape = entry.get("shape")
        if not (isinstance(shape, list)
                and all(type(n) is int and n >= 0 for n in shape)):
            raise ContainerError(
                f"{path}: block {entry['name']!r} has shape {shape!r}, "
                "not a list of non-negative ints")


def read_container(path: str | Path, kind: str | None = None,
                   spec: Spec | None = None) -> tuple[dict, dict]:
    """Read back (meta, blocks); verifies magic and, if given, the kind.

    A file cut short anywhere, an unreadable or malformed header or an unknown
    block dtype raises ContainerError, and so does whatever ``check`` refuses
    of ``spec``, if given: a float block it names that holds NaN or inf, say.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(8) != MAGIC:
            raise ContainerError(f"{path}: not a kgqa binary artifact")
        end = _span_end(size, 8, 8, path, "header length")
        (hlen,) = struct.unpack("<Q", f.read(8))
        end = _span_end(size, end, hlen, path, "header")
        try:
            header = json.loads(f.read(hlen).decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or JSON
            raise ContainerError(f"{path}: unreadable header: {exc}") from None
        _check_header(header, path)
        if kind is not None and header["kind"] != kind:
            raise ContainerError(
                f"{path}: expected kind {kind!r}, found {header['kind']!r}"
            )
        blocks = {}
        for entry in header["blocks"]:
            name, dtype = entry["name"], entry["dtype"]
            if dtype != "bytes" and dtype not in _DTYPES:
                raise ContainerError(
                    f"{path}: block {name!r} has unknown dtype {dtype!r}")
            itemsize = 1 if dtype == "bytes" else _DTYPES[dtype].itemsize
            n = math.prod(entry["shape"]) * itemsize
            end = _span_end(size, end, n, path, f"block {name!r}")
            if dtype == "bytes":
                blocks[name] = f.read(n)
                continue
            # read straight into the array: no intermediate bytes, no copy
            arr = np.empty(entry["shape"], dtype=_DTYPES[dtype])
            if f.readinto(arr) != n:
                raise ContainerError(f"{path}: truncated block {name!r} while reading")
            blocks[name] = arr
    check(path, header["meta"], blocks, spec or Spec())
    return header["meta"], blocks


def write_manifest(out_path: str | Path, command: str, cfg_hash: str,
                   inputs: dict[str, str], seed: int | None,
                   version: str) -> Path:
    """Write `<out>.manifest.json` recording how an output was produced:
    ``inputs`` maps each input's name (the command-line flag's dest) to the
    sha256 of the file read for it, packaged defaults included."""
    manifest = {"command": command, "config_hash": cfg_hash, "inputs": inputs,
                "seed": seed, "package_version": version}
    path = Path(str(out_path) + ".manifest.json")
    write_text(path, canonical_json(manifest) + "\n")
    return path


def stable_seed(*parts) -> int:
    """Derive a reproducible 64-bit seed from arbitrary string/int parts."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
