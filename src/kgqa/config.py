"""Run configuration: one flat key=value namespace for every pipeline stage.

Files hold ``key = value`` lines ('#' comments allowed); command-line flags
override file values, which override the defaults below. These fields are
the only place a default setting is written: a stage function's keyword
defaults read them (``RunConfig.threshold`` and so on). A run's identity is
the hash of the fully resolved config, embedded in output manifests and used
to key the preprocessing cache.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import get_type_hints

from .io_utils import canonical_json, sha256_bytes


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0

    # grounding
    max_ngram: int = 4

    # schema graphs
    max_edges: int = 3
    cap: int = 100

    # pruning
    prune: bool = True
    threshold: float = 0.15

    # triple embeddings
    kge_dim: int = 100
    kge_margin: float = 1.0
    kge_lr: float = 0.01
    kge_epochs: int = 100
    kge_batch: int = 512
    kge_neg: int = 1
    gamma: float = 2.0

    # network dims and switches
    gcn_dims: str = "100,50"
    lstm_hidden: int = 128
    d_t: int = 128
    t_hidden: int = 128
    score_hidden: int = 64
    path_attention: bool = True
    pair_attention: bool = True
    train_rel_emb: bool = True
    train_node_emb: bool = False

    # toy statement encoder, used unless a feature file is given; the
    # statement width is 2 * enc_hidden or the feature file's width
    enc_embed: int = 32
    enc_hidden: int = 64

    # training
    lr: float = 1e-3
    epochs: int = 10
    batch_examples: int = 16
    patience: int = 3

    def __post_init__(self) -> None:
        """Reject a value of another type than its key's annotation (a float
        key also takes an int; a bool is not an int), and settings that would
        ground nothing, build a network without a unit, fail partway through
        a run, train at a rate not above 0, or write a non-finite table or a
        non-JSON header, naming the key."""
        for key, want in _TYPES.items():
            value = getattr(self, key)
            if not (type(value) is want or want is float and type(value) is int):
                raise ValueError(f"key {key!r} is {value!r}, not of type {want.__name__}")
        for keys, allowed, what in _RANGES:
            for key in keys:
                if not allowed(getattr(self, key)):
                    raise ValueError(f"{key} must be {what}, got {getattr(self, key)!r}")

    # network widths derived from the keys above; kge_dim is both the node
    # and the relation width
    @property
    def gcn_layers(self) -> tuple[int, ...]:
        return tuple(int(x) for x in self.gcn_dims.split(",") if x.strip())

    @property
    def d_gcn_out(self) -> int:
        layers = self.gcn_layers
        return layers[-1] if layers else self.kge_dim

    @property
    def d_path(self) -> int:
        return 4 * self.lstm_hidden

    @property
    def d_step(self) -> int:
        return 2 * self.d_gcn_out + self.kge_dim

    def to_dict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        """The first 16 hex chars of the sha256 of every key's canonical JSON,
        computed once: ``preprocess`` asks for it on every call, and a frozen
        config never changes a key."""
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = sha256_bytes(canonical_json(asdict(self)).encode())[:16]
        return self.__dict__["_hash"]


_TYPES = get_type_hints(RunConfig)
# the values each key takes beyond its type: (keys, test, what they must be)
_RANGES = (
    (("seed", "kge_epochs", "epochs", "patience"), lambda v: v >= 0, "at least 0"),
    (("max_ngram", "max_edges", "cap", "kge_dim", "kge_batch", "kge_neg", "lstm_hidden",
      "d_t", "t_hidden", "score_hidden", "enc_embed", "enc_hidden", "batch_examples"),
     lambda v: v >= 1, "at least 1"),
    (("threshold",), lambda v: 0.0 <= v <= 1.0, "a finite number in [0, 1]"),
    (("lr", "kge_lr"), lambda v: 0.0 < v < math.inf, "a finite number above 0"),
    (("kge_margin", "gamma"), math.isfinite, "a finite number"),
    (("kge_margin",), lambda v: v >= 0, "at least 0"),
    (("gcn_dims",), lambda v: all(d.strip().isdecimal() and int(d) > 0
                                  for d in (v.split(",") if v.strip() else [])),
     "empty or comma-separated positive integers"),
)

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def _coerce(name: str, raw: str, target_type) -> object:
    raw = raw.strip()
    if target_type is bool:
        if raw.lower() not in _BOOL_WORDS:
            raise ValueError(f"{name}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    try:
        return target_type(raw)
    except ValueError:
        raise ValueError(f"{name}: cannot parse {raw!r} as {target_type.__name__}") from None


def parse_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def resolve_config(file_path=None, overrides: dict[str, object] | None = None) -> RunConfig:
    """Defaults <- config file <- overrides, unknown keys rejected."""
    values: dict[str, object] = {}
    from_file = parse_config_file(file_path) if file_path is not None else {}
    for source, where in ((from_file, str(file_path)), (overrides or {}, "flags")):
        for key, value in source.items():
            if key not in _TYPES:
                raise ValueError(f"{where}: unknown config key {key!r}")
            if isinstance(value, str) and _TYPES[key] is not str:
                value = _coerce(key, value, _TYPES[key])
            values[key] = value
    return RunConfig(**values)
