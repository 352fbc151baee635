"""Seeded input generators for the benchmark workloads.

Each generator writes the files a user would hand to the ``kgqa`` commands: a
simplified ``relation<TAB>head<TAB>tail<TAB>weight`` triple dump and a JSONL
question set. The program under test only ever sees these files.

The hub graph is a Chung-Lu random graph: concept of degree rank ``k`` gets
weight ``(k + 1) ** -DEGREE_EXPONENT`` and both endpoints of every triple are
drawn in proportion to weight, so degrees follow a power law whose expected
sequence is the same for every seed; the wiring and the names change with
the seed. Keeping the path-search cost of different seeds comparable is what
lets a handful of seeded runs agree on a throughput.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RELATIONS = (
    "antonym", "atlocation", "capableof", "causes", "createdby", "desires",
    "hascontext", "hasproperty", "hassubevent", "isa", "madeof",
    "notcapableof", "notdesires", "partof", "receivesaction", "relatedto",
    "usedfor",
)
DEGREE_EXPONENT = 0.6      # weight ~ rank^-0.6, i.e. degree tail exponent ~2.7
MULTI_WORD_SHARE = 0.2     # share of concepts whose surface has two words
CORE = 400                 # hubs whose mutual edges are the same for every seed
CORE_SEED = 20190905
N_CANDIDATES = 5

_CONSONANTS = "bdfgklmnprtvz"
_VOWELS = "aeiou"
# Stop-word-only fillers: recognition skips them, so a question grounds to
# exactly the concept it names.
_TEMPLATES = (
    "what is the {q} for",
    "which of these is about the {q}",
    "where would you find the {q}",
    "why is there {q} here",
)


@dataclass(frozen=True)
class HubSize:
    n_concepts: int
    n_triples: int
    n_questions: int


HUB_SIZES = {
    "full": HubSize(n_concepts=10_000, n_triples=40_000, n_questions=40),
    "tiny": HubSize(n_concepts=300, n_triples=900, n_questions=4),
}


def _pseudo_words(n: int, rng: np.random.Generator) -> list[str]:
    """``n`` distinct consonant-vowel words of 2-4 syllables.

    Every word ends in a vowel, which the lemmatizer leaves alone, so no two
    concepts collide after lemmatization.
    """
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        n_syl = int(rng.integers(2, 5))
        cons = rng.integers(len(_CONSONANTS), size=n_syl)
        vows = rng.integers(len(_VOWELS), size=n_syl)
        word = "".join(_CONSONANTS[c] + _VOWELS[v] for c, v in zip(cons, vows))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _surfaces(n: int, rng: np.random.Generator) -> list[str]:
    """Concept surfaces; the words of a two-word surface name nothing alone."""
    n_multi = int(round(n * MULTI_WORD_SHARE))
    words = _pseudo_words(n + n_multi, rng)
    single = words[:n - n_multi]
    rest = words[n - n_multi:]
    out = single + [f"{rest[2 * i]} {rest[2 * i + 1]}" for i in range(n_multi)]
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _rank_weights(n_concepts: int) -> np.ndarray:
    return (np.arange(n_concepts) + 1.0) ** -DEGREE_EXPONENT


def _draw_triples(rng: np.random.Generator, size: HubSize, core: bool) -> np.ndarray:
    """Unique (head, rel, tail) rows of one Chung-Lu draw.

    Keeps the rows with both ends among the ``CORE`` highest-weight concepts
    when ``core`` is set, and all other rows when it is not.
    """
    weight = _rank_weights(size.n_concepts)
    p = weight / weight.sum()
    heads = rng.choice(size.n_concepts, size=size.n_triples, p=p)
    tails = rng.choice(size.n_concepts, size=size.n_triples, p=p)
    rels = rng.integers(len(RELATIONS), size=size.n_triples)
    in_core = (heads < CORE) & (tails < CORE)
    keep = (heads != tails) & (in_core == core)
    return np.unique(np.column_stack([heads, rels, tails])[keep], axis=0)


def hub_triples(size: HubSize, seed: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(surfaces by degree rank, unique (head, rel, tail) rows, weights).

    Edges among the ``CORE`` top hubs come from a fixed draw shared by every
    seed; the seed draws all other edges and the names. Path-search cost from
    a hub is dominated by how densely the hubs link to each other; drawn
    anew for each seed, that one quantity moved the workload's path-search
    work by 8.6 % (IQR over median, ten seeds), against 4.5 % with the core
    shared.
    """
    rng = np.random.default_rng(seed)
    surfaces = _surfaces(size.n_concepts, rng)
    triples = np.concatenate([
        _draw_triples(np.random.default_rng(CORE_SEED), size, core=True),
        _draw_triples(rng, size, core=False),
    ])
    weights = np.round(rng.uniform(0.5, 3.0, size=len(triples)), 3)
    return surfaces, triples, weights


def _question_ranks(n_concepts: int, n: int) -> np.ndarray:
    """Degree ranks of ``n`` question concepts, drawn in proportion to degree.

    The draw is stratified with fixed offsets over the expected degree mass:
    question ``i`` takes the rank at mass ``(i + 0.5) / n``. Every seed thus
    asks about the same mix of hubs and leaves, so the heavy tail of
    path-search cost does not swing the measured throughput from seed to
    seed; the seed still decides the graph around each of them.
    """
    cdf = np.cumsum(_rank_weights(n_concepts))
    cdf /= cdf[-1]
    return np.searchsorted(cdf, (np.arange(n) + 0.5) / n)


def _example(ex_id: str, question: str, candidates: list[str], label: int) -> dict:
    return {
        "id": ex_id,
        "question": {
            "stem": question,
            "choices": [{"label": "ABCDE"[i], "text": t}
                        for i, t in enumerate(candidates)],
        },
        "answerKey": "ABCDE"[label],
    }


def write_hub_inputs(out_dir, seed: int, size: HubSize) -> tuple[Path, Path]:
    """Write ``hub.tsv`` and ``hub.jsonl`` for ``seed``; returns their paths."""
    out_dir = Path(out_dir)
    surfaces, triples, weights = hub_triples(size, seed)
    rng = np.random.default_rng([seed, 1])
    degree = (np.bincount(triples[:, 0], minlength=size.n_concepts)
              + np.bincount(triples[:, 2], minlength=size.n_concepts))
    present = np.flatnonzero(degree > 0)

    tsv = out_dir / "hub.tsv"
    with open(tsv, "w", encoding="utf-8") as fh:
        for (h, r, t), w in zip(triples.tolist(), weights.tolist()):
            fh.write(f"{RELATIONS[r]}\t{surfaces[h]}\t{surfaces[t]}\t{w}\n")

    dataset = out_dir / "hub.jsonl"
    with open(dataset, "w", encoding="utf-8") as fh:
        ranks = _question_ranks(size.n_concepts, size.n_questions)
        for qi, qc in enumerate(ranks[rng.permutation(len(ranks))]):
            answers = rng.choice(present[present != qc], size=N_CANDIDATES, replace=False)
            template = _TEMPLATES[int(rng.integers(len(_TEMPLATES)))]
            row = _example(f"hub-{qi:04d}", template.format(q=surfaces[int(qc)]),
                           [surfaces[int(a)] for a in answers],
                           int(rng.integers(N_CANDIDATES)))
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return tsv, dataset


def write_toy_inputs(out_dir, world) -> tuple[Path, Path, Path]:
    """Write a toy world's graph and its train/dev sets as command inputs."""
    out_dir = Path(out_dir)
    kg = world.kg
    tsv = out_dir / "toy.tsv"
    with open(tsv, "w", encoding="utf-8") as fh:
        for h, r, t in kg.triples.tolist():
            fh.write(f"{kg.relations[r]}\t{kg.surface(h)}\t{kg.surface(t)}\t1.0\n")
    paths = []
    for name, examples in (("train", world.train), ("dev", world.dev)):
        path = out_dir / f"toy-{name}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for ex in examples:
                fh.write(json.dumps(ex.to_json_obj(), sort_keys=True) + "\n")
        paths.append(path)
    return tsv, paths[0], paths[1]
