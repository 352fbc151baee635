"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing capture so the line
lands in the terminal log) and then asserts. Tolerances and sizes are pinned
in the constants below; timing budgets use wall-clock monotonic time.
"""

import json
import os
import time
from collections import defaultdict

import numpy as np
import pytest

from kgqa.cli import main
from kgqa.kge import eval_tail_mrr, train_transe
from kgqa.selfcheck import (degeneracy_suite, gradient_suite,
                            normalization_suite, path_oracle_suite,
                            permutation_suite, pruning_suite)

from conftest import planted_kg

GRAD_INSTANCES = 20
GRAD_TOL = 1e-4
GRAD_BUDGET_S = 120
ORACLE_GRAPHS = 200
ORACLE_MAX_NODES = 12
ORACLE_DENSITY = 0.3
ORACLE_BUDGET_S = 60
DEGEN_TOL = 1e-9
ATTN_TOL = 1e-6
PERM_TOL = 1e-9
KGE_EPOCHS = 200
KGE_MRR_FACTOR = 3.0
KGE_WIN_RATE = 0.85
KGE_WIN_SAMPLES = 1000
KGE_BUDGET_S = 120
TOY_DEV_ACC = 0.90
TOY_MAX_EPOCHS = 10
TOY_ABLATION_MARGIN = 0.02
TOY_BUDGET_S = 600
PRUNE_KEEP_CENTER = 0.6721
PRUNE_KEEP_TOL = 0.05


@pytest.fixture
def report(capsys):
    # prints outside pytest capture so the line lands in the terminal log
    def _report(num: int, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def test_criterion_01_gradient_oracle(report):
    t0 = time.monotonic()
    res = gradient_suite(seed=0, n_instances=GRAD_INSTANCES, tol=GRAD_TOL)
    dt = time.monotonic() - t0
    ok = res.passed and dt < GRAD_BUDGET_S
    report(1, ok, f"{res.detail}; {dt:.1f}s (budget {GRAD_BUDGET_S}s)")


def test_criterion_02_path_enumeration_oracle(report):
    t0 = time.monotonic()
    res = path_oracle_suite(seed=0, n_graphs=ORACLE_GRAPHS,
                            max_nodes=ORACLE_MAX_NODES,
                            density=ORACLE_DENSITY, max_edges=3)
    dt = time.monotonic() - t0
    ok = res.passed and dt < ORACLE_BUDGET_S
    report(2, ok, f"{res.detail}; {dt:.1f}s (budget {ORACLE_BUDGET_S}s)")


def test_criterion_03_attention_degeneracy(report):
    res = degeneracy_suite(seed=0, n_instances=25, tol=DEGEN_TOL)
    report(3, res.passed, res.detail)


def test_criterion_04_attention_normalization(report):
    res = normalization_suite(seed=0, n_instances=50, tol=ATTN_TOL)
    report(4, res.passed, res.detail)


def test_criterion_05_permutation_invariance(report):
    res = permutation_suite(seed=0, n_instances=30, tol=PERM_TOL)
    report(5, res.passed, res.detail)


def test_criterion_06_pruning_semantics(report):
    res = pruning_suite(seed=0, n_graphs=40)
    report(6, res.passed, res.detail)


def test_criterion_07_transe_sanity(report):
    kg = planted_kg(seed=0)
    t0 = time.monotonic()
    table, _ = train_transe(kg, dim=100, margin=1.0, lr=0.1,
                            epochs=KGE_EPOCHS, batch_size=16, seed=0)
    mrr = eval_tail_mrr(table, kg.triples, known=kg.triples)

    # random baseline: a uniformly ranked tail among the m candidates left
    # after filtering has expected reciprocal rank H_m / m
    tails = defaultdict(set)
    for h, r, t in kg.triples:
        tails[(int(h), int(r))].add(int(t))
    harmonic = np.cumsum(1.0 / np.arange(1, kg.n_concepts + 1))
    rr = []
    for h, r, _ in kg.triples:
        m = kg.n_concepts - (len(tails[(int(h), int(r))]) - 1)
        rr.append(harmonic[m - 1] / m)
    baseline = float(np.mean(rr))

    known = {(int(h), int(r), int(t)) for h, r, t in kg.triples}
    rng = np.random.default_rng(1234)
    wins = 0
    for _ in range(KGE_WIN_SAMPLES):
        h, r, t = (int(x) for x in kg.triples[rng.integers(len(kg.triples))])
        while True:
            e = int(rng.integers(kg.n_concepts))
            hc, tc = (e, t) if rng.random() < 0.5 else (h, e)
            if (hc, r, tc) != (h, r, t) and (hc, r, tc) not in known:
                break
        if table.triple_confidence(h, r, t) > table.triple_confidence(hc, r, tc):
            wins += 1
    win_rate = wins / KGE_WIN_SAMPLES
    dt = time.monotonic() - t0
    ok = (mrr >= KGE_MRR_FACTOR * baseline and win_rate >= KGE_WIN_RATE
          and dt < KGE_BUDGET_S)
    report(7, ok, f"filtered tail-MRR {mrr:.3f} vs {KGE_MRR_FACTOR}x random "
                  f"{KGE_MRR_FACTOR * baseline:.3f}; win rate {win_rate:.3f} "
                  f"(floor {KGE_WIN_RATE}); {dt:.1f}s (budget {KGE_BUDGET_S}s)")


def test_criterion_08_end_to_end_toy_task(report, toy_run):
    epochs_run = len(toy_run.result.metrics)
    margin = toy_run.abl_acc - toy_run.full_acc
    ok = (toy_run.rule_acc == 1.0
          and toy_run.full_acc >= TOY_DEV_ACC
          and epochs_run <= TOY_MAX_EPOCHS
          and margin <= TOY_ABLATION_MARGIN
          and toy_run.elapsed < TOY_BUDGET_S)
    report(8, ok, f"rule-scorer ceiling {toy_run.rule_acc:.2f} (need 1.00); "
                  f"dev accuracy {toy_run.full_acc:.3f} (floor {TOY_DEV_ACC}) "
                  f"after {epochs_run} epochs (cap {TOY_MAX_EPOCHS}); "
                  f"attention-off ablation {toy_run.abl_acc:.3f}, margin "
                  f"{margin:+.3f} (cap +{TOY_ABLATION_MARGIN}); "
                  f"{toy_run.elapsed:.0f}s (budget {TOY_BUDGET_S}s)")


def test_criterion_09_conceptnet_prune_rate(report, capsys, tmp_path):
    assertions = os.environ.get("KGQA_CONCEPTNET")
    dataset = os.environ.get("KGQA_CSQA")
    if not (assertions and dataset):
        with capsys.disabled():
            print("SKIP criterion 9: set KGQA_CONCEPTNET and KGQA_CSQA to "
                  "run the full-scale pruning-rate check", flush=True)
        pytest.skip("full ConceptNet + QA dataset not supplied")
    kg_path = tmp_path / "kg.bin"
    kge_path = tmp_path / "kge.bin"
    pruned = tmp_path / "pruned.jsonl"
    assert main(["ingest", assertions, "--out", str(kg_path)]) == 0
    assert main(["train-kge", "--kg", str(kg_path), "--out", str(kge_path)]) == 0
    assert main(["prune", "--kg", str(kg_path), "--kge", str(kge_path),
                 "--dataset", dataset, "--out", str(pruned)]) == 0
    with open(str(pruned) + ".stats.json", encoding="utf-8") as fh:
        stats = json.load(fh)
    kept = stats["paths_after"] / stats["paths_before"]
    ok = abs(kept - PRUNE_KEEP_CENTER) <= PRUNE_KEEP_TOL
    report(9, ok, f"kept fraction {kept:.4f} vs {PRUNE_KEEP_CENTER} "
                  f"± {PRUNE_KEEP_TOL}")


def test_criterion_10_byte_determinism(report, cli_world, selfcheck_runs, tmp_path):
    shared = tmp_path / "shared"
    shared.mkdir()
    merge = shared / "merge.tsv"
    merge.write_text("evidence_of\tevidence_of\ncommon_trait\tcommon_trait\n"
                     "variant_of\tvariant_of\n", encoding="utf-8")
    kg = shared / "kg.bin"
    kge = shared / "kge.bin"
    assert main(["ingest", str(cli_world.kg_tsv), "--merge-map", str(merge),
                 "--out", str(kg)]) == 0
    assert main(["train-kge", "--kg", str(kg),
                 "--config", str(cli_world.config), "--out", str(kge)]) == 0

    outputs = {}
    for tag, sc in zip(("a", "b"), selfcheck_runs):
        d = tmp_path / tag
        d.mkdir()
        assert sc.code == 0
        assert main(["train", "--kg", str(kg), "--kge", str(kge),
                     "--dataset", str(cli_world.train_jsonl),
                     "--dev", str(cli_world.dev_jsonl),
                     "--config", str(cli_world.config),
                     "--out", str(d / "model")]) == 0
        preds = d / "preds.jsonl"
        assert main(["predict", "--kg", str(kg), "--kge", str(kge),
                     "--checkpoint", str(d / "model" / "model.bin"),
                     "--dataset", str(cli_world.dev_jsonl),
                     "--out", str(preds)]) == 0
        outputs[tag] = {
            "selfcheck.json": sc.report,
            "model.bin": (d / "model" / "model.bin").read_bytes(),
            "metrics.csv": (d / "model" / "metrics.csv").read_bytes(),
            "preds.jsonl": preds.read_bytes(),
        }
    mismatched = [name for name in outputs["a"]
                  if outputs["a"][name] != outputs["b"][name]]
    ok = not mismatched
    report(10, ok, "selfcheck/train/predict outputs byte-identical across "
                   "same-seed runs" if ok else
                   f"outputs differ between runs: {mismatched}")
