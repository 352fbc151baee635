"""Multiple-choice QA dataset loading and scoring."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .io_utils import atomic_open

LABELS = "ABCDEFGH"


@dataclass
class QAExample:
    id: str
    question: str
    candidates: list[str]
    label: Optional[int] = None  # index into candidates; None for test sets

    def __post_init__(self) -> None:
        if len(self.candidates) < 2:
            raise ValueError(f"{self.id}: needs at least 2 candidates")
        if self.label is not None and not 0 <= self.label < len(self.candidates):
            raise ValueError(f"{self.id}: label {self.label} out of range")

    def to_json_obj(self) -> dict:
        obj = {
            "id": self.id,
            "question": {
                "stem": self.question,
                "choices": [
                    {"label": LABELS[i], "text": t}
                    for i, t in enumerate(self.candidates)
                ],
            },
        }
        if self.label is not None:
            obj["answerKey"] = LABELS[self.label]
        return obj


def _parse_example(obj: dict) -> QAExample:
    q = obj["question"]
    choices = sorted(q["choices"], key=lambda c: c["label"])
    candidates = [c["text"] for c in choices]
    label = None
    if "answerKey" in obj and obj["answerKey"]:
        letters = [c["label"] for c in choices]
        try:
            label = letters.index(obj["answerKey"])
        except ValueError:
            raise ValueError(f"answerKey {obj['answerKey']!r} not among "
                             f"choice labels {letters}") from None
    return QAExample(id=str(obj["id"]), question=q["stem"],
                     candidates=candidates, label=label)


def load_dataset(path) -> list[QAExample]:
    """Parse a JSONL file of questions; malformed lines report their number."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(_parse_example(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def save_dataset(path, examples: list[QAExample]) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(ex.to_json_obj(), sort_keys=True) + "\n")


def accuracy(predictions: dict[str, int], examples: list[QAExample]) -> float:
    labeled = [ex for ex in examples if ex.label is not None]
    if not labeled:
        raise ValueError("no labeled examples to score")
    hits = sum(1 for ex in labeled if predictions.get(ex.id) == ex.label)
    return hits / len(labeled)
