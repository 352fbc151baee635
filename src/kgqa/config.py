"""Run configuration: one flat key=value namespace for every pipeline stage.

Files hold ``key = value`` lines ('#' comments allowed); command-line flags
override file values, which override the defaults below. A run's identity is
the hash of the fully resolved config, embedded in output manifests and used
to key the preprocessing cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import get_type_hints

from .io_utils import config_hash


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
        """Reject settings that would ground nothing, build a network without
        a unit, fail partway through a run, or write a non-finite table or a
        non-JSON header, naming the key."""
        if not (math.isfinite(self.threshold) and 0.0 <= self.threshold <= 1.0):
            raise ValueError(f"threshold must be a finite number in [0, 1], "
                             f"got {self.threshold!r}")
        for key, low in (("max_ngram", 1), ("max_edges", 1), ("cap", 1), ("kge_dim", 1),
                         ("kge_batch", 1), ("kge_neg", 1), ("kge_epochs", 0),
                         ("lstm_hidden", 1), ("d_t", 1), ("t_hidden", 1),
                         ("score_hidden", 1), ("enc_embed", 1), ("enc_hidden", 1),
                         ("epochs", 0), ("batch_examples", 1), ("patience", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be at least {low}, got {getattr(self, key)!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a finite number above 0, got {self.lr!r}")
        dims = self.gcn_dims.split(",") if self.gcn_dims.strip() else []
        if not all(d.strip().isdecimal() and int(d) > 0 for d in dims):
            raise ValueError(f"gcn_dims must be empty or comma-separated positive "
                             f"integers, got {self.gcn_dims!r}")
        for key in ("kge_lr", "kge_margin", "gamma"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be a finite number, got {getattr(self, key)!r}")
        if self.kge_margin < 0:
            raise ValueError(f"kge_margin must be at least 0, got {self.kge_margin!r}")

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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def hash(self) -> str:
        """``config_hash`` of every key, computed once: ``preprocess`` asks
        for it on every call, and a frozen config never changes a key."""
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = config_hash(self.to_dict())
        return self.__dict__["_hash"]


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
    hints = get_type_hints(RunConfig)
    valid = {f.name for f in fields(RunConfig)}
    values: dict[str, object] = {}

    def apply(source: dict, where: str) -> None:
        for key, value in source.items():
            if key not in valid:
                raise ValueError(f"{where}: unknown config key {key!r}")
            if isinstance(value, str) and hints[key] is not str:
                value = _coerce(key, value, hints[key])
            values[key] = value

    if file_path is not None:
        apply(parse_config_file(file_path), str(file_path))
    if overrides:
        apply(overrides, "flags")
    return RunConfig(**values)
