"""Opt-in rehearsal of criterion 9's commands on a ConceptNet-sized graph, offline.

    KGQA_REHEARSE_TRIPLES=400000 python3 -m pytest tests/test_scale_rehearsal.py -s

Skipped unless ``KGQA_REHEARSE_TRIPLES`` is set, so tier-1 never runs it.
It writes perfbench's seeded power-law hub (``perfbench.gen.write_hub_inputs``,
seed 1) with that many triples, a quarter as many concepts and 40 questions,
then runs ``kgqa ingest`` (raw relation names), ``train-kge`` (one epoch at
``RunConfig``'s other defaults) and ``prune`` through ``cli.main``, each in a
child process. The wall time of each child (interpreter start included) and
its peak RSS go to the JSON file named by ``KGQA_REHEARSE_OUT``, or to
standard output.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

import kgqa
from perfbench import gen

TRIPLES = os.environ.get("KGQA_REHEARSE_TRIPLES")

# runs one command in the child and reports its exit code and peak RSS on
# the last line of standard output
CHILD = """\
import json, resource, sys
from kgqa.cli import main
code = main(sys.argv[1:])
print(json.dumps({"exit": code,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def run_stage(argv):
    src = str(Path(kgqa.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True)
    wall_s = time.perf_counter() - t0
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result.pop("exit") == 0, done.stdout[-2000:]
    return {"wall_s": round(wall_s, 3), **result, "stdout": lines[:-1][-1:]}


@pytest.mark.skipif(not TRIPLES, reason="set KGQA_REHEARSE_TRIPLES to rehearse at scale")
def test_rehearse_ingest_train_kge_and_prune_at_scale(tmp_path, capsys):
    size = gen.HubSize(n_concepts=int(TRIPLES) // 4, n_triples=int(TRIPLES), n_questions=40)
    t0 = time.perf_counter()
    tsv, dataset = gen.write_hub_inputs(tmp_path, 1, size)
    stages = {"generate": {"wall_s": round(time.perf_counter() - t0, 3)}}
    config = tmp_path / "run.cfg"
    config.write_text("kge_epochs = 1\n", encoding="utf-8")
    kg, kge = tmp_path / "kg.bin", tmp_path / "kge.bin"
    stages["ingest"] = run_stage(["ingest", str(tsv), "--merge-map", "identity",
                                  "--out", str(kg)])
    stages["train_kge"] = run_stage(["train-kge", "--kg", str(kg), "--config", str(config),
                                     "--out", str(kge)])
    stages["prune"] = run_stage(["prune", "--kg", str(kg), "--kge", str(kge),
                                 "--dataset", str(dataset), "--config", str(config),
                                 "--out", str(tmp_path / "pruned.jsonl")])
    record = json.dumps({"size": asdict(size), "stages": stages}, indent=1, sort_keys=True)
    if os.environ.get("KGQA_REHEARSE_OUT"):
        Path(os.environ["KGQA_REHEARSE_OUT"]).write_text(record + "\n", encoding="utf-8")
    else:
        with capsys.disabled():
            print(record)
