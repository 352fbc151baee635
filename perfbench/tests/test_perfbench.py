"""Self-tests of the benchmark: generators, span arithmetic, output format.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import gen, workloads  # noqa: E402
from perfbench.spans import Tracer, instrument  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_input_files(tmp_path, name):
    w = workloads.WORKLOADS[name]
    workloads.write_inputs(w, 7, "tiny", tmp_path / "a")
    workloads.write_inputs(w, 7, "tiny", tmp_path / "b")
    workloads.write_inputs(w, 8, "tiny", tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert len(a) >= 2
    assert a == b
    assert a != c


def test_hub_graph_has_power_law_hubs_and_multi_word_surfaces():
    surfaces, triples, weights = gen.hub_triples(gen.HUB_SIZES["full"], seed=3)
    top_degree = (triples[:, 0] == 0).sum() + (triples[:, 2] == 0).sum()
    assert len(triples) > 0.99 * gen.HUB_SIZES["full"].n_triples
    assert len({tuple(t) for t in triples.tolist()}) == len(triples)
    assert top_degree > 300           # the top-ranked concept is a hub
    assert sum(" " in s for s in surfaces) > 0.1 * len(surfaces)
    assert len(weights) == len(triples)


def test_self_time_subtracts_nested_spans():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    with tracer.in_stage("s"):           # stage span: 1 + 2 + 10 + 3 = 16 s
        tick(1.0)
        with tracer.span("outer"):       # 2 + inner 10 + 3 = 15 s
            tick(2.0)
            with tracer.span("inner"):   # 4 + 6 = 10 s
                tick(4.0)
                with tracer.span("leaf"):
                    tick(6.0)
            tick(3.0)
    key = lambda name: ("s", name)       # noqa: E731
    assert tracer.total_s[key("stage.s")] == 16.0
    assert tracer.self_s[key("stage.s")] == 1.0
    assert tracer.total_s[key("outer")] == 15.0
    assert tracer.self_s[key("outer")] == 5.0
    assert tracer.self_s[key("inner")] == 4.0
    assert tracer.self_s[key("leaf")] == 6.0
    total_self = sum(tracer.self_s.values())
    assert total_self == tracer.total_s[key("stage.s")]
    assert tracer.top_self(2) == [("leaf", 1, 6.0), ("outer", 1, 5.0)]


def test_instrument_restores_every_wrapped_attribute():
    from kgqa import pipeline
    from kgqa.kg import KnowledgeGraph
    before = (pipeline.recognize, KnowledgeGraph.__dict__["load"],
              KnowledgeGraph.neighbors)
    with instrument(Tracer()):
        assert pipeline.recognize is not before[0]
    after = (pipeline.recognize, KnowledgeGraph.__dict__["load"],
             KnowledgeGraph.neighbors)
    assert after == before


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_emits_every_named_metric(name, trace):
    proc = _run(ROOT, name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace and not workloads.WORKLOADS[name].network:
        for metric, v in result["metrics"].items():
            if metric.startswith(("network.", "layers.", "optim.")) and \
                    metric.endswith(".calls"):
                assert v["value"] == 0, metric


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "toy-train", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
