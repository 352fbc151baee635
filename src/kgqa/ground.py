"""Mention recognition: n-gram matching of text against the concept vocabulary.

Tokens are lowercased and split on anything outside [a-z0-9_']. Every n-gram
up to ``max_ngram`` tokens is tried both verbatim and with each token
lemmatized, joined with underscores to follow the vocabulary's surface
convention. N-grams made entirely of stop words are skipped; overlapping
matches are all kept.

The lemmatizer is a small rule table (plural stripping, -ing/-ed handling
with doubled-consonant undoubling and e-restoration) plus an exception file.
It is deliberately dictionary-free, so forms like "created" -> "creat" come
out wrong; recognition behavior is pinned to these documented rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from .config import RunConfig
from .kg import KnowledgeGraph

_TOKEN_RE = re.compile(r"[a-z0-9_']+")
_VOWELS = set("aeiou")
# Consonants whose doubling typically marks -ing/-ed inflection (sitting,
# stopped) but not stem spelling (falling, guessing).
_UNDOUBLE = set("bdgkmnprt")


def _load_exceptions() -> dict[str, str]:
    table = {}
    path = Path(__file__).parent / "data" / "lemma_exceptions.tsv"
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        form, lemma = line.split("\t")
        table[form] = lemma
    return table


_EXCEPTIONS = _load_exceptions()


def default_stopwords_path() -> Path:
    return Path(__file__).parent / "data" / "stopwords.txt"


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """One word per line; default list ships with the package."""
    if path is None:
        path = default_stopwords_path()
    words = Path(path).read_text(encoding="utf-8").split()
    return frozenset(w.lower() for w in words)


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _restore_e(stem: str) -> str:
    """Append 'e' after consonant-vowel-consonant stems (mak -> make)."""
    if len(stem) >= 3 and stem[-1] not in _VOWELS and stem[-1] != "y" \
            and stem[-2] in _VOWELS and stem[-3] not in _VOWELS:
        return stem + "e"
    return stem


def _strip_gerund(stem: str) -> str:
    if len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] in _UNDOUBLE:
        return stem[:-1]
    return _restore_e(stem)


@lru_cache(maxsize=65536)
def lemmatize(token: str) -> str:
    """Rule-based lemma of a single lowercase token; idempotent."""
    if token in _EXCEPTIONS:
        return _EXCEPTIONS[token]
    if len(token) >= 3 and token.endswith("'s"):
        return lemmatize(token[:-2])
    if len(token) >= 5 and token.endswith("ies"):
        return token[:-3] + "y"
    if token.endswith(("sses", "xes", "zes", "ches", "shes")):
        return token[:-2]
    if len(token) >= 4 and token.endswith("ses"):
        # house+s not bus+es: strip one 's', exceptions cover the bus family
        return token[:-1]
    if token.endswith(("ss", "us", "is")):
        return token
    if len(token) >= 4 and token.endswith("s"):
        return token[:-1]
    if len(token) >= 6 and token.endswith("ing"):
        stem = token[:-3]
        return _strip_gerund(stem) if len(stem) >= 3 else token
    if len(token) >= 5 and token.endswith("ied"):
        return token[:-3] + "y"
    if len(token) >= 4 and token.endswith("ed"):
        stem = token[:-2]
        return _strip_gerund(stem) if len(stem) >= 3 else token
    return token


@dataclass
class MentionSet:
    """Concepts recognized in one text plus the token spans that matched."""

    concepts: set[int] = field(default_factory=set)
    spans: dict[int, list[tuple[int, int]]] = field(default_factory=dict)

    def add(self, concept: int, start: int, end: int) -> None:
        self.concepts.add(concept)
        self.spans.setdefault(concept, [])
        if (start, end) not in self.spans[concept]:
            self.spans[concept].append((start, end))

    def to_dict(self, kg: KnowledgeGraph) -> dict:
        return {
            "concepts": [
                {"id": c, "surface": kg.surface(c), "spans": self.spans[c]}
                for c in sorted(self.concepts)
            ]
        }


def recognize(
    text: str,
    kg: KnowledgeGraph,
    max_ngram: int = RunConfig.max_ngram,
    stopwords: frozenset[str] | set[str] = frozenset(),
) -> MentionSet:
    """All vocabulary concepts whose surface matches an n-gram of the text.

    Matching is exact or with per-token lemmatization; both hits are kept when
    they name different concepts. Deterministic and side-effect free.
    """
    tokens = tokenize(text)
    mentions = MentionSet()
    for start in range(len(tokens)):
        for n in range(1, max_ngram + 1):
            end = start + n
            if end > len(tokens):
                break
            gram = tokens[start:end]
            if all(t in stopwords for t in gram):
                continue
            exact = "_".join(gram)
            hit = kg.lookup_surface(exact)
            if hit is not None:
                mentions.add(hit, start, end)
            lemma = "_".join(lemmatize(t) for t in gram)
            if lemma != exact:
                hit = kg.lookup_surface(lemma)
                if hit is not None:
                    mentions.add(hit, start, end)
    return mentions
