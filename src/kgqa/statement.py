"""Statement vectors: a small trainable encoder, or precomputed feature files.

The toy encoder embeds the token sequence "question [sep] answer" and runs a
bidirectional LSTM; the statement vector concatenates the forward direction's
final hidden state with the backward direction's final hidden state, giving
d_s = 2 * hidden. Every statement vector comes from ``forward``, one packed
BiLSTM run over a question's candidates that embeds each distinct token once. Feature mode looks vectors up from a
file keyed by (example id, candidate index), for any external encoder.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import io_utils
from .ground import tokenize
from .model.layers import BiLSTM, Layer

SEP = "<sep>"
UNK = "<unk>"


def build_vocab(texts) -> dict[str, int]:
    """Token -> id over all texts; ids 0/1 reserved for the separator/unknown."""
    seen = set()
    for text in texts:
        seen.update(tokenize(text))
    vocab = {SEP: 0, UNK: 1}
    for tok in sorted(seen):
        vocab[tok] = len(vocab)
    return vocab


class ToyStatementEncoder(Layer):
    def __init__(self, vocab: dict[str, int], d_embed: int, d_hidden: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.vocab = vocab
        self.d_hidden = d_hidden
        self.emb = self._register(
            "emb", rng.standard_normal((len(vocab), d_embed)) * 0.1)
        self.lstm = BiLSTM(rng, d_embed, d_hidden)
        self._adopt("lstm", self.lstm)

    @property
    def d_s(self) -> int:
        return 2 * self.d_hidden

    def token_ids(self, question: str, answer: str) -> np.ndarray:
        toks = tokenize(question) + [SEP] + tokenize(answer)
        unk = self.vocab[UNK]
        return np.asarray([self.vocab.get(t, unk) for t in toks], dtype=np.int64)

    def forward(self, seqs: list[np.ndarray]) -> tuple[np.ndarray, tuple]:
        """Statement vectors (G, d_s) of G token-id sequences, in one packed
        BiLSTM run (``BiLSTM.forward``) over the embeddings of their distinct
        tokens."""
        H = self.d_hidden
        words, index = np.unique(np.concatenate(seqs), return_inverse=True)
        offsets = np.cumsum([0] + [len(s) for s in seqs])
        ends, lstm_cache = self.lstm.forward(self.emb[words], index, offsets)
        s = np.concatenate([ends[:, 1, :H], ends[:, 0, H:]], axis=1)
        return s, (words, lstm_cache)

    def backward(self, ds: np.ndarray, cache: tuple) -> None:
        H = self.d_hidden
        words, lstm_cache = cache
        d_ends = np.zeros((len(ds), 2, 2 * H))
        d_ends[:, 1, :H] = ds[:, :H]
        d_ends[:, 0, H:] = ds[:, H:]
        self._grads["emb"][words] += self.lstm.backward(d_ends, lstm_cache)

    def save_extra_meta(self) -> dict:
        """The vocabulary; the widths are the run config's enc_embed/enc_hidden."""
        return {"vocab": self.vocab}


class FeatureStore:
    """Read-only statement vectors keyed by (example id, candidate index)."""

    def __init__(self, keys: dict[tuple[str, int], int], rows: np.ndarray) -> None:
        self._keys = keys
        self._rows = rows

    @property
    def dim(self) -> int:
        return self._rows.shape[1]

    def get(self, example_id: str, cand_index: int) -> np.ndarray:
        try:
            return self._rows[self._keys[(example_id, cand_index)]].astype(np.float64)
        except KeyError:
            raise KeyError(
                f"no statement feature for key ({example_id!r}, {cand_index})") from None

    @classmethod
    def load(cls, path) -> "FeatureStore":
        path = Path(path)
        if path.suffix == ".jsonl":
            return cls._load_jsonl(path)
        meta, blocks = io_utils.read_container(path, kind="features")
        io_utils.require(path, meta, blocks, ("keys",),
                         {"rows": (io_utils.FLOATS, ("keys", None))},
                         dims={"keys": len(meta.get("keys", ()))})
        keys = {}
        for pos, key in enumerate(meta["keys"]):
            ex_id, sep, idx = str(key).rpartition("#")
            if not sep or not idx.isdecimal():
                raise io_utils.ContainerError(
                    f"{path}: feature key {key!r} is not '<example id>#<candidate index>'")
            keys[(ex_id, int(idx))] = pos
        return cls(keys, blocks["rows"])

    @classmethod
    def _load_jsonl(cls, path: Path) -> "FeatureStore":
        import json
        keys = {}
        rows = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    key = (str(obj["id"]), int(obj["candidate"]))
                    vec = np.asarray(obj["vector"], dtype=np.float64)
                except (ValueError, KeyError) as exc:
                    raise ValueError(f"{path}:{lineno}: bad feature row: {exc}") from None
                if vec.ndim != 1 or (rows and len(vec) != len(rows[0])):
                    width = len(rows[0]) if rows else "*"
                    raise ValueError(f"{path}:{lineno}: feature vector has shape "
                                     f"{list(vec.shape)}, expected [{width}]")
                keys[key] = len(rows)
                rows.append(vec)
        if not rows:
            raise ValueError(f"{path}: no feature rows")
        return cls(keys, np.vstack(rows))

    @staticmethod
    def write(path, entries: dict[tuple[str, int], np.ndarray]) -> None:
        """Binary layout: sorted key list in the header, float32 rows block."""
        if not entries:
            raise ValueError(f"{path}: no statement vectors to write")
        items = sorted(entries.items())
        keys = [f"{ex_id}#{idx}" for (ex_id, idx), _ in items]
        rows = np.vstack([vec for _, vec in items]).astype(np.float32)
        io_utils.write_container(
            path, "features",
            {"keys": keys, "dim": int(rows.shape[1])},
            {"rows": rows})
