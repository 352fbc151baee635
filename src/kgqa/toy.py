"""Synthetic 5-way QA world with planted graph evidence.

The world has item families. Every item carries a short "evidence_of" chain
(one hop, or two hops through a family mediator) to its family's target
concept. All items, clues, and targets also hang off shared hub concepts via
"common_trait" edges, so every candidate answer is reachable from the
question concepts within three hops; only the correct one is reachable by a
pure evidence_of chain. A scorer that checks for that chain gets every
question right, which pins the task's ceiling at 1.0 before any learning.

Questions name one item (dev questions use each family's held-out item, so
dev items never occur in training text) and sometimes a clue; candidates are
the correct target plus four targets from other families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import QAExample
from .kg import KnowledgeGraph, build_graph
from .paths import SchemaGraph

EVIDENCE = "evidence_of"
HUB_REL = "common_trait"
VARIANT = "variant_of"

TEMPLATES = [
    "field team catalogued {item} next to {clue} at dawn",
    "the survey flagged {item} during the third sweep",
    "analysts compared {item} with older finds near {clue}",
    "a courier delivered {item} for the weekly review",
]


@dataclass
class ToyWorld:
    kg: KnowledgeGraph
    train: list[QAExample]
    dev: list[QAExample]


def build_toy_kg(n_families: int = 18, items_per_family: int = 6,
                 n_hubs: int = 3, n_clues: int = 6) -> KnowledgeGraph:
    concepts = set()
    triples = []

    def item(f: int, i: int) -> str:
        return f"item_{f:02d}_{i}"

    for f in range(n_families):
        target = f"target_{f:02d}"
        mediator = f"mediator_{f:02d}"
        concepts.update([target, mediator])
        triples.append((mediator, EVIDENCE, target))
        for i in range(items_per_family):
            it = item(f, i)
            concepts.add(it)
            if i % 2 == 0:
                triples.append((it, EVIDENCE, target))
            else:
                triples.append((it, EVIDENCE, mediator))
            triples.append((it, HUB_REL, f"hub_{(f + i) % n_hubs}"))
            triples.append((it, HUB_REL, f"hub_{(f + i + 1) % n_hubs}"))
            triples.append((it, VARIANT, item(f, (i + 1) % items_per_family)))
        for h in range(n_hubs):
            triples.append((f"hub_{h}", HUB_REL, target))
    for h in range(n_hubs):
        concepts.add(f"hub_{h}")
    for c in range(n_clues):
        clue = f"clue_{c}"
        concepts.add(clue)
        for h in range(n_hubs):
            triples.append((clue, HUB_REL, f"hub_{h}"))

    concept_list = tuple(sorted(concepts))
    relations = (HUB_REL, EVIDENCE, VARIANT)
    cidx = {c: i for i, c in enumerate(concept_list)}
    ridx = {r: i for i, r in enumerate(relations)}
    arr = np.asarray(
        sorted((cidx[h], ridx[r], cidx[t]) for h, r, t in set(triples)),
        dtype=np.uint32)
    return build_graph(concept_list, relations, arr, np.ones(len(arr)))


def make_example(
    ex_id: str, family: int, item_i: int, rng: np.random.Generator,
    n_families: int, n_clues: int,
) -> QAExample:
    others = [f for f in range(n_families) if f != family]
    distractors = rng.choice(len(others), size=4, replace=False)
    candidates = [f"target_{family:02d}"] + [f"target_{others[d]:02d}" for d in distractors]
    order = rng.permutation(5)
    shuffled = [candidates[k] for k in order]
    label = int(np.argwhere(order == 0)[0][0])
    template = TEMPLATES[int(rng.integers(len(TEMPLATES)))]
    question = template.format(
        item=f"item_{family:02d}_{item_i}",
        clue=f"clue_{int(rng.integers(n_clues))}")
    return QAExample(id=ex_id, question=question, candidates=shuffled, label=label)


def build_toy_world(seed: int = 0, n_families: int = 18, items_per_family: int = 6,
                    n_hubs: int = 3, n_clues: int = 6,
                    n_train: int = 500, n_dev: int = 100) -> ToyWorld:
    """Dev questions use only each family's last item, unseen in training."""
    kg = build_toy_kg(n_families, items_per_family, n_hubs, n_clues)
    rng = np.random.default_rng(seed)
    train = [
        make_example(f"toy-train-{e:04d}", e % n_families,
                     (e // n_families) % (items_per_family - 1), rng,
                     n_families, n_clues)
        for e in range(n_train)
    ]
    dev = [
        make_example(f"toy-dev-{e:04d}", e % n_families, items_per_family - 1,
                     rng, n_families, n_clues)
        for e in range(n_dev)
    ]
    return ToyWorld(kg=kg, train=train, dev=dev)


def is_pure_evidence(path: dict, kg: KnowledgeGraph) -> bool:
    evidence = kg.relations.index(EVIDENCE)
    return all(rel == evidence and not reverse for rel, reverse, _ in path["steps"])


def rule_candidate_plausible(sg: SchemaGraph, kg: KnowledgeGraph) -> bool:
    """The hand rule: some pair of a schema graph owns an all-evidence
    forward chain."""
    return any(
        is_pure_evidence(p, kg)
        for plist in sg.paths.values()
        for p in plist
    )
