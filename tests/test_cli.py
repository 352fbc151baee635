"""Command-line behavior: every stage wired end to end on a small world."""

import builtins
import io
import itertools
import json
import math
import re
import shlex
import shutil
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (CACHE_DAMAGE, damage_cache_entry, dir_bytes, fail_writes_midway,
                      poison_optimizer_steps)

from kgqa import io_utils
from kgqa.cli import build_parser, main
from kgqa.config import RunConfig, resolve_config
from kgqa.data import save_dataset
from kgqa.ground import default_stopwords_path
from kgqa.kg import default_merge_map_path
from kgqa.kge import EmbeddingTable
from kgqa.model.layers import BiLSTM

MERGE_MAP = "evidence_of\tevidence_of\ncommon_trait\tcommon_trait\nvariant_of\tvariant_of\n"
README = Path(__file__).parents[1] / "README.md"


@pytest.fixture(scope="module")
def run(cli_world, tmp_path_factory):
    """Run the whole command chain once; keep the paths around."""
    out = tmp_path_factory.mktemp("cli-out")
    merge = out / "merge.tsv"
    merge.write_text(MERGE_MAP, encoding="utf-8")
    kg = out / "kg.bin"
    kge = out / "kge.bin"
    model_dir = out / "model"
    paths = SimpleNamespace(
        out=out, merge=merge, kg=kg, kge=kge, model_dir=model_dir,
        grounded=out / "grounded.jsonl", sgs=out / "sgs.jsonl",
        pruned=out / "pruned.jsonl", preds=out / "preds.jsonl",
        explain=out / "explain.json", selfcheck=out / "selfcheck.json")

    cfg = str(cli_world.config)
    codes = {}
    codes["ingest"] = main(["ingest", str(cli_world.kg_tsv),
                            "--merge-map", str(merge), "--out", str(kg)])
    codes["train-kge"] = main(["train-kge", "--kg", str(kg),
                               "--config", cfg, "--out", str(kge)])
    codes["ground"] = main(["ground", "--kg", str(kg),
                            "--dataset", str(cli_world.dev_jsonl),
                            "--config", cfg, "--out", str(paths.grounded)])
    codes["paths"] = main(["paths", "--kg", str(kg),
                           "--dataset", str(cli_world.dev_jsonl),
                           "--config", cfg, "--out", str(paths.sgs)])
    codes["prune"] = main(["prune", "--kg", str(kg), "--kge", str(kge),
                           "--dataset", str(cli_world.dev_jsonl),
                           "--config", cfg, "--out", str(paths.pruned)])
    codes["train"] = main(["train", "--kg", str(kg), "--kge", str(kge),
                           "--dataset", str(cli_world.train_jsonl),
                           "--dev", str(cli_world.dev_jsonl),
                           "--config", cfg, "--out", str(model_dir)])
    codes["predict"] = main(["predict", "--kg", str(kg), "--kge", str(kge),
                             "--checkpoint", str(model_dir / "model.bin"),
                             "--dataset", str(cli_world.dev_jsonl),
                             "--out", str(paths.preds)])
    ex_id = cli_world.world.dev[0].id
    codes["explain"] = main(["explain", "--kg", str(kg), "--kge", str(kge),
                             "--checkpoint", str(model_dir / "model.bin"),
                             "--dataset", str(cli_world.dev_jsonl),
                             "--id", ex_id, "--out", str(paths.explain)])
    paths.codes = codes
    paths.example_id = ex_id
    return paths


def test_every_stage_exits_zero(run):
    assert run.codes == {name: 0 for name in run.codes}


def test_merge_map_identity_keeps_raw_relations(cli_world, tmp_path):
    out = tmp_path / "kg.bin"
    code = main(["ingest", str(cli_world.kg_tsv),
                 "--merge-map", "identity", "--out", str(out)])
    assert code == 0
    from kgqa.kg import KnowledgeGraph
    kg = KnowledgeGraph.load(out)
    assert set(kg.relations) == {"evidence_of", "common_trait", "variant_of"}
    manifest = json.loads((tmp_path / "kg.bin.manifest.json").read_text())
    assert set(manifest["inputs"]) == {"assertions"}


def test_ingest_snapshot_and_manifest(run):
    assert run.kg.exists()
    manifest = json.loads((run.out / "kg.bin.manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert set(manifest["inputs"]) == {"assertions", "merge_map"}
    for digest in manifest["inputs"].values():
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_grounding_rows_cover_dataset(run, cli_world):
    rows = [json.loads(l) for l in run.grounded.read_text().splitlines()]
    assert [r["id"] for r in rows] == [ex.id for ex in cli_world.world.dev]
    for row, ex in zip(rows, cli_world.world.dev):
        assert len(row["candidates"]) == len(ex.candidates)
        assert row["question_concepts"]  # toy questions always ground


def test_paths_rows_hold_schema_graphs(run):
    rows = [json.loads(l) for l in run.sgs.read_text().splitlines()]
    assert any("sg" in r for r in rows)
    for row in rows:
        if "sg" in row:
            assert {"cq", "ca", "nodes", "edges", "paths"} <= row["sg"].keys()


def test_paths_and_prune_output_bytes_are_pinned(run):
    # recorded from the per-pair search the per-question search replaced
    assert io_utils.sha256_bytes(run.sgs.read_bytes()) == \
        "d841257d2ae717df0202bc08490925c11bd0d504e242ccafbee44a5c44708e40"
    assert io_utils.sha256_bytes(run.pruned.read_bytes()) == \
        "a2dfd55c1b30d08294877e9a4eaa7174f0a0285c50f2714f7e31b6107320e955"


def path_lengths(jsonl_path):
    rows = [json.loads(l) for l in jsonl_path.read_text().splitlines()]
    return [len(p["steps"])
            for row in rows if "sg" in row
            for plist in row["sg"]["paths"].values()
            for p in plist]


def test_max_edges_flag_overrides_config(run, cli_world, tmp_path):
    short = tmp_path / "short.jsonl"
    code = main(["paths", "--kg", str(run.kg),
                 "--dataset", str(cli_world.dev_jsonl),
                 "--config", str(cli_world.config),
                 "--max-edges", "2", "--out", str(short)])
    assert code == 0
    lengths = path_lengths(short)
    assert lengths and max(lengths) == 2
    assert max(path_lengths(run.sgs)) == 3  # config default still in force


def test_prune_writes_stats_sidecar(run):
    stats = json.loads((run.out / "pruned.jsonl.stats.json").read_text())
    assert stats["paths_after"] <= stats["paths_before"]
    assert 0.0 < stats["kept_fraction"] <= 1.0
    assert stats["threshold"] == pytest.approx(0.15)


def test_train_writes_model_and_metrics(run):
    assert (run.model_dir / "model.bin").exists()
    lines = (run.model_dir / "metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,dev_accuracy"
    assert len(lines) >= 2
    assert (run.model_dir / "model.bin.manifest.json").exists()
    assert (run.model_dir / "metrics.csv.manifest.json").exists()


def test_predictions_one_line_per_example(run, cli_world):
    rows = [json.loads(l) for l in run.preds.read_text().splitlines()]
    assert len(rows) == len(cli_world.world.dev) >= 3
    for row in rows:
        assert {"id", "scores", "chosen", "answer"} <= row.keys()
        assert row["answer"] in "ABCDE"
        assert row["chosen"] == row["scores"].index(max(row["scores"]))


def test_explain_report_structure(run):
    report = json.loads(run.explain.read_text())
    assert report["id"] == run.example_id
    assert report["pairs"]
    for pair in report["pairs"]:
        assert 0.0 <= pair["beta"] <= 1.0
        for path in pair["paths"]:
            assert 0.0 <= path["alpha"] <= 1.0 + 1e-12
            assert "->" in path["rendering"] or "<-" in path["rendering"]


def test_selfcheck_quick_exit_zero_and_report(run, capsys):
    code = main(["selfcheck", "--quick", "--out", str(run.selfcheck)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines and all(l.startswith(("PASS ", "FAIL ")) for l in lines)
    report = json.loads(run.selfcheck.read_text())
    assert report["all_passed"] is True
    assert len(report["checks"]) == len(lines)


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--dataset", "x.jsonl"])
    assert exc.value.code == 2


def test_stage_failure_prints_structured_error(tmp_path, capsys):
    code = main(["ingest", str(tmp_path / "missing.tsv"),
                 "--out", str(tmp_path / "kg.bin")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "FileNotFoundError"
    assert "missing.tsv" in err["error"]["message"]


@pytest.mark.parametrize("command", ["prune", "predict"])
@pytest.mark.parametrize("ent_delta,rel_delta", [(16, 0), (-1, 0), (0, 1)])
def test_a_table_of_another_graph_is_refused(run, cli_world, tmp_path, capsys,
                                             command, ent_delta, rel_delta):
    # rows are read by concept and relation id, so a table trained on a
    # larger or smaller graph would score with other concepts' rows
    emb = EmbeddingTable.load(run.kge)
    n_ent, n_rel = len(emb.ent) + ent_delta, len(emb.rel) + rel_delta
    other = tmp_path / "other-kge.bin"
    EmbeddingTable(ent=np.resize(emb.ent, (n_ent, emb.dim)),
                   rel=np.resize(emb.rel, (n_rel, emb.dim))).save(other)
    out = tmp_path / "out.jsonl"
    flags = {"prune": ["--config", str(cli_world.config)],
             "predict": ["--checkpoint", str(run.model_dir / "model.bin")]}[command]
    code = main([command, "--kg", str(run.kg), "--kge", str(other),
                 "--dataset", str(cli_world.dev_jsonl), "--out", str(out), *flags])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError"
    assert err["message"] == (
        f"{other} holds {n_ent} entity and {n_rel} relation rows, but {run.kg} has "
        f"{len(emb.ent)} concepts and {len(emb.rel)} relations")
    assert not out.exists()


def test_a_question_with_nine_candidates_fails_with_structured_error(run, tmp_path,
                                                                    capsys):
    row = {"id": "q9", "question": {"stem": "which one?", "choices": [
        {"label": label, "text": "glue"} for label in "ABCDEFGHI"]}}
    dataset = tmp_path / "nine.jsonl"
    dataset.write_text(json.dumps(row) + "\n", encoding="utf-8")
    code = main(["ground", "--kg", str(run.kg), "--dataset", str(dataset),
                 "--out", str(tmp_path / "grounded.jsonl")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "ValueError",
                   "message": f"{dataset}:1: q9: needs 2 to 8 candidates, found 9"}


@pytest.mark.parametrize("line", ["encoder = features", "loss = listwise"])
def test_config_naming_a_retired_key_fails_with_structured_error(cli_world, tmp_path,
                                                                 line, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(cli_world.config.read_text() + line + "\n", encoding="utf-8")
    code = main(["paths", "--kg", str(tmp_path / "kg.bin"),
                 "--dataset", str(cli_world.dev_jsonl),
                 "--config", str(config), "--out", str(tmp_path / "sgs.jsonl")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"
    assert f"unknown config key {line.split()[0]!r}" in err["error"]["message"]


@pytest.mark.parametrize("command,flags,line,key", [
    ("prune", ["--threshold", "nan"], "", "threshold"),
    ("prune", ["--threshold", "inf"], "", "threshold"),
    ("prune", ["--threshold", "-0.1"], "", "threshold"),
    ("prune", ["--threshold", "1.5"], "", "threshold"),
    ("prune", [], "threshold = nan", "threshold"),
    ("paths", ["--cap", "0"], "", "cap"),
    ("paths", ["--max-edges", "0"], "", "max_edges"),
    ("paths", [], "max_ngram = 0", "max_ngram"),
])
def test_bad_grounding_setting_fails_with_structured_error(run, cli_world, tmp_path,
                                                           command, flags, line, key,
                                                           capsys):
    config = tmp_path / "run.cfg"
    config.write_text(cli_world.config.read_text() + line + "\n", encoding="utf-8")
    out = tmp_path / "sgs.jsonl"
    if command == "prune":
        flags = ["--kge", str(run.kge), *flags]
    code = main([command, "--kg", str(run.kg), "--dataset", str(cli_world.dev_jsonl),
                 "--config", str(config), "--out", str(out), *flags])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError"
    assert err["message"].startswith(f"{key} must be")
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["0", "1"])
def test_threshold_bounds_are_accepted(run, cli_world, tmp_path, threshold):
    out = tmp_path / "pruned.jsonl"
    code = main(["prune", "--kg", str(run.kg), "--kge", str(run.kge),
                 "--dataset", str(cli_world.dev_jsonl),
                 "--config", str(cli_world.config), "--threshold", threshold,
                 "--out", str(out)])
    assert code == 0
    stats = json.loads((tmp_path / "pruned.jsonl.stats.json").read_text())
    assert stats["threshold"] == float(threshold)


# (key, boundary value that is accepted, value past it that is rejected)
KGE_KEY_BOUNDS = [
    ("kge_dim", "1", "0"),
    ("kge_batch", "1", "0"),
    ("kge_neg", "1", "0"),
    ("kge_epochs", "0", "-1"),
    ("kge_lr", "1e308", "nan"),
    ("kge_lr", "5e-324", "0"),
    ("kge_lr", "5e-324", "-1"),
    ("kge_margin", "0", "-1"),
    ("kge_margin", "1e308", "inf"),
    ("gamma", "-1e308", "nan"),
    ("gamma", "1e308", "inf"),
    ("seed", "0", "-1"),
]


@pytest.mark.parametrize("key,accepted,rejected", KGE_KEY_BOUNDS)
def test_triple_embedding_settings_are_checked_at_their_bounds(
        run, cli_world, tmp_path, key, accepted, rejected, capsys):
    assert getattr(resolve_config(overrides={key: accepted}), key) == float(accepted)
    with pytest.raises(ValueError, match=f"^{key} must be "):
        resolve_config(overrides={key: rejected})
    config = tmp_path / "run.cfg"
    config.write_text(cli_world.config.read_text() + f"{key} = {rejected}\n",
                      encoding="utf-8")
    out = tmp_path / "kge.bin"
    code = main(["train-kge", "--kg", str(run.kg), "--config", str(config),
                 "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError"
    assert err["message"].startswith(f"{key} must be ")
    assert not out.exists()


# (key, boundary value that is accepted, value past it that is rejected),
# plus the values that used to train a NaN, untrained or zero-width model or
# fail with an error naming no key: lr -1, epochs -2, gcn_dims abc,
# score_hidden -1
NETWORK_KEY_BOUNDS = [
    ("lr", "5e-324", "0"),
    ("lr", "5e-324", "-1"),
    ("lr", "1e308", "inf"),
    ("lr", "1e308", "nan"),
    ("epochs", "0", "-1"),
    ("epochs", "0", "-2"),
    ("patience", "0", "-1"),
    ("seed", "0", "-1"),
    *((key, "1", "0") for key in ("lstm_hidden", "enc_hidden", "enc_embed", "d_t",
                                  "t_hidden", "score_hidden", "batch_examples")),
    ("score_hidden", "1", "-1"),
    ("gcn_dims", "", "0"),
    ("gcn_dims", "1", "8,-2"),
    ("gcn_dims", "16,1", "16,,8"),
    ("gcn_dims", "16,1", "16.5"),
    ("gcn_dims", "16,1", "abc"),
]


@pytest.mark.parametrize("key,accepted,rejected", NETWORK_KEY_BOUNDS)
def test_network_settings_are_checked_at_their_bounds(
        run, cli_world, tmp_path, key, accepted, rejected, capsys):
    want = type(getattr(RunConfig(), key))(accepted)
    assert getattr(resolve_config(overrides={key: accepted}), key) == want
    with pytest.raises(ValueError, match=f"^{key} must be "):
        resolve_config(overrides={key: rejected})
    config = tmp_path / "run.cfg"
    config.write_text(cli_world.config.read_text() + f"{key} = {rejected}\n",
                      encoding="utf-8")
    out = tmp_path / "model"
    code = main(["train", "--kg", str(run.kg), "--kge", str(run.kge),
                 "--dataset", str(cli_world.train_jsonl), "--dev", str(cli_world.dev_jsonl),
                 "--config", str(config), "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError"
    assert err["message"].startswith(f"{key} must be ")
    assert not out.exists()


def test_train_saves_no_model_with_a_non_finite_weight(run, cli_world, tmp_path,
                                                       monkeypatch, capsys):
    poison_optimizer_steps(monkeypatch)
    out = tmp_path / "model"
    code = main(["train", "--kg", str(run.kg), "--kge", str(run.kge),
                 "--dataset", str(cli_world.train_jsonl), "--dev", str(cli_world.dev_jsonl),
                 "--config", str(cli_world.config), "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "FloatingPointError"
    assert err["message"].startswith("non-finite parameter ")
    assert err["message"].endswith(" after epoch 1")
    assert not (out / "model.bin").exists()


def refused_train_run(run, cli_world, tmp_path, capsys, train_rows, dev_rows):
    """``kgqa train --cache`` on the given rows; asserts it failed before
    caching anything or making the --out directory, and returns the error."""
    train, dev = tmp_path / "train.jsonl", tmp_path / "dev.jsonl"
    out, cache = tmp_path / "model", tmp_path / "cache"
    save_dataset(train, train_rows)
    save_dataset(dev, dev_rows)
    code = main(["train", "--kg", str(run.kg), "--kge", str(run.kge),
                 "--dataset", str(train), "--dev", str(dev), "--cache", str(cache),
                 "--config", str(cli_world.config), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "epoch" not in captured.out
    assert not out.exists()
    assert not cache.exists()
    err = json.loads(captured.err)["error"]
    assert err["type"] == "ValueError"
    return err["message"]


def test_train_refuses_a_dev_set_without_labels(run, cli_world, tmp_path, capsys):
    message = refused_train_run(run, cli_world, tmp_path, capsys, cli_world.world.train,
                                [replace(ex, label=None) for ex in cli_world.world.dev])
    assert message.startswith("the dev set (--dev) has no labeled example")


def test_train_refuses_an_unlabelled_training_example_before_grounding(
        run, cli_world, tmp_path, capsys):
    rows = list(cli_world.world.train)
    rows[3] = replace(rows[3], label=None)
    message = refused_train_run(run, cli_world, tmp_path, capsys, rows,
                                cli_world.world.dev)
    assert message == f"{rows[3].id}: training example lacks a label"


def test_train_kge_names_a_bad_word_vector_row(run, cli_world, tmp_path, capsys):
    vecs = tmp_path / "vecs.txt"
    vecs.write_text("glue 1 0\nstick 0 abc\n", encoding="utf-8")
    code = main(["train-kge", "--kg", str(run.kg), "--config", str(cli_world.config),
                 "--word-vectors", str(vecs), "--out", str(tmp_path / "kge.bin")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError"
    assert err["message"].startswith(f"{vecs}:2: ")


def test_train_kge_with_missing_word_vectors_writes_nothing(run, cli_world, tmp_path,
                                                           capsys):
    out = tmp_path / "kge.bin"
    code = main(["train-kge", "--kg", str(run.kg), "--config", str(cli_world.config),
                 "--word-vectors", str(tmp_path / "missing.txt"), "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "FileNotFoundError"
    assert "missing.txt" in err["message"]
    assert list(tmp_path.iterdir()) == []


def test_readme_config_table_names_only_run_config_fields():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | meaning |") + 2
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    keys = {k for row in rows for k in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert keys and keys <= {f.name for f in fields(RunConfig)}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def explain_args(run, cli_world, *extra):
    return ["explain", "--kg", str(run.kg), "--kge", str(run.kge),
            "--checkpoint", str(run.model_dir / "model.bin"),
            "--dataset", str(cli_world.dev_jsonl), "--id", run.example_id,
            "--out", str(run.out / "explain-extra.json"), *extra]


@pytest.mark.parametrize("flag", ["--top-pairs", "--top-paths"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_explain_top_counts_below_one_are_usage_errors(run, cli_world, flag, value,
                                                       capsys):
    with pytest.raises(SystemExit) as exc:
        main(explain_args(run, cli_world, flag, value))
    assert exc.value.code == 2
    assert "at least 1" in capsys.readouterr().err


def test_explain_top_counts_bound_the_report(run, cli_world):
    code = main(explain_args(run, cli_world, "--top-pairs", "1", "--top-paths", "1"))
    assert code == 0
    report = json.loads((run.out / "explain-extra.json").read_text())
    assert len(report["pairs"]) == 1
    assert len(report["pairs"][0]["paths"]) <= 1


def predict_args(run, cli_world, out, *extra, kge=None):
    return ["predict", "--kg", str(run.kg), "--kge", str(kge or run.kge),
            "--checkpoint", str(run.model_dir / "model.bin"),
            "--dataset", str(cli_world.dev_jsonl), "--out", str(out), *extra]


def cache_files(cache):
    return {p: p.stat().st_mtime_ns for p in cache.rglob("*") if p.is_file()}


def test_predict_cache_equals_no_cache_and_rerun_writes_nothing(run, cli_world,
                                                                tmp_path):
    cache = tmp_path / "cache"
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert main(predict_args(run, cli_world, first, "--cache", str(cache))) == 0
    assert first.read_bytes() == run.preds.read_bytes()
    written = cache_files(cache)
    assert written
    assert main(predict_args(run, cli_world, second, "--cache", str(cache))) == 0
    assert second.read_bytes() == run.preds.read_bytes()
    assert cache_files(cache) == written


def test_cache_misses_on_a_kge_table_differing_only_in_gamma(run, cli_world,
                                                              tmp_path):
    cache = tmp_path / "cache"
    assert main(predict_args(run, cli_world, tmp_path / "warm.jsonl",
                             "--cache", str(cache))) == 0
    before = cache_files(cache)
    table = EmbeddingTable.load(run.kge)
    table.gamma = 0.5  # prunes most of the paths the trained table keeps
    kge = tmp_path / "kge-gamma.bin"
    table.save(kge)
    cached, fresh = tmp_path / "cached.jsonl", tmp_path / "fresh.jsonl"
    assert main(predict_args(run, cli_world, cached, "--cache", str(cache),
                             kge=kge)) == 0
    assert main(predict_args(run, cli_world, fresh, kge=kge)) == 0
    assert cached.read_bytes() == fresh.read_bytes()
    assert fresh.read_bytes() != run.preds.read_bytes()
    assert set(cache_files(cache)) > set(before)


@pytest.fixture(scope="module")
def train_cache(run, cli_world, tmp_path_factory):
    """The arguments of a `train --cache` run, and the cache it filled."""
    root = tmp_path_factory.mktemp("train-cache")
    args = ["train", "--kg", str(run.kg), "--kge", str(run.kge),
            "--dataset", str(cli_world.train_jsonl), "--dev", str(cli_world.dev_jsonl),
            "--config", str(cli_world.config)]
    cache = root / "cache"
    assert main([*args, "--cache", str(cache), "--out", str(root / "model")]) == 0
    return args, cache


@pytest.mark.parametrize("how", CACHE_DAMAGE)
def test_train_names_a_bad_cache_entry(train_cache, tmp_path, how, capsys):
    args, cache = train_cache
    copy = tmp_path / "cache"
    shutil.copytree(cache, copy)
    entry = sorted(copy.rglob("*.bin"))[0]
    damage_cache_entry(entry, how)
    capsys.readouterr()
    code = main([*args, "--cache", str(copy), "--out", str(tmp_path / "model")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ContainerError"
    assert err["message"].startswith(f"{entry}: ")


def output_args(run, cli_world, command, out):
    """A command line of ``command`` that writes its outputs under ``out``."""
    common = ["--kg", str(run.kg), "--dataset", str(cli_world.dev_jsonl)]
    scoring = ["--kge", str(run.kge), "--checkpoint", str(run.model_dir / "model.bin")]
    return {
        "ground": ["ground", *common, "--out", str(out / "g.jsonl")],
        "prune": ["prune", *common, "--kge", str(run.kge),
                  "--config", str(cli_world.config), "--out", str(out / "p.jsonl")],
        "train": ["train", *common[:2], "--kge", str(run.kge),
                  "--dataset", str(cli_world.train_jsonl),
                  "--dev", str(cli_world.dev_jsonl),
                  "--config", str(cli_world.config), "--out", str(out / "model")],
        "predict": ["predict", *common, *scoring, "--out", str(out / "p.jsonl")],
        "explain": ["explain", *common, *scoring, "--id", run.example_id,
                    "--out", str(out / "e.json")],
    }[command]


@pytest.mark.parametrize("command", ["ground", "prune", "train", "predict", "explain"])
def test_an_output_write_that_fails_midway_keeps_the_previous_outputs(
        run, cli_world, tmp_path, monkeypatch, capsys, command):
    args = output_args(run, cli_world, command, tmp_path)
    assert main(args) == 0
    before = dir_bytes(tmp_path)
    assert before
    fail_writes_midway(monkeypatch)
    capsys.readouterr()
    assert main(args) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "OSError"
    assert dir_bytes(tmp_path) == before   # no temporary file either


def test_output_in_a_missing_directory_is_named(run, cli_world, tmp_path, capsys):
    out = tmp_path / "missing" / "p.jsonl"
    capsys.readouterr()
    assert main(predict_args(run, cli_world, out)) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "FileNotFoundError"
    assert err["message"].endswith(f"{str(out)!r}")


def test_ungrounded_candidate_scores_alike_in_predict_and_explain(run, cli_world,
                                                                  tmp_path):
    ex = cli_world.world.dev[0]
    ex = replace(ex, candidates=[*ex.candidates[:1], "qqzx vvrk",
                                 *ex.candidates[2:]])
    dataset = tmp_path / "dev.jsonl"
    save_dataset(dataset, [ex])
    preds, report = tmp_path / "preds.jsonl", tmp_path / "explain.json"
    common = ["--kg", str(run.kg), "--kge", str(run.kge),
              "--checkpoint", str(run.model_dir / "model.bin"),
              "--dataset", str(dataset)]
    assert main(["predict", *common, "--out", str(preds)]) == 0
    assert main(["explain", *common, "--id", ex.id, "--candidate", "1",
                 "--out", str(report)]) == 0
    row = json.loads(preds.read_text())
    explained = json.loads(report.read_text())
    assert row["ungrounded_candidates"] == [1]
    assert explained["ungrounded"] is True
    assert row["scores"][1] == round(explained["score"], 10)


@pytest.fixture(scope="module")
def feature_model(run, cli_world, tmp_path_factory):
    """Statement vectors of the train and dev questions from the toy model, and
    a model trained on them; returns (feature file, model file)."""
    root = tmp_path_factory.mktemp("feature-model")
    both = root / "train-dev.jsonl"
    save_dataset(both, cli_world.world.train + cli_world.world.dev)
    features, model = root / "features.bin", root / "model" / "model.bin"
    common = ["--kg", str(run.kg), "--kge", str(run.kge)]
    assert main(["encode", *common, "--checkpoint", str(run.model_dir / "model.bin"),
                 "--dataset", str(both), "--out", str(features)]) == 0
    assert main(["train", *common, "--dataset", str(cli_world.train_jsonl),
                 "--dev", str(cli_world.dev_jsonl), "--features", str(features),
                 "--config", str(cli_world.config), "--out", str(model.parent)]) == 0
    return features, model


def test_feature_mode_round_trip(run, cli_world, feature_model, tmp_path):
    features, model = feature_model
    preds = tmp_path / "preds.jsonl"
    meta, _ = io_utils.read_container(model, kind="model")
    assert meta["encoder"] == "features"
    assert "enc_meta" not in meta
    assert main(["predict", "--kg", str(run.kg), "--kge", str(run.kge),
                 "--checkpoint", str(model), "--dataset", str(cli_world.dev_jsonl),
                 "--features", str(features), "--out", str(preds)]) == 0
    rows = [json.loads(l) for l in preds.read_text().splitlines()]
    assert [r["id"] for r in rows] == [ex.id for ex in cli_world.world.dev]
    assert all(math.isfinite(s) for r in rows for s in r["scores"])


@pytest.mark.parametrize("command", ["predict", "explain"])
def test_a_toy_encoder_checkpoint_refuses_features(run, cli_world, feature_model,
                                                   tmp_path, capsys, command):
    # a toy-encoder model builds its statements itself and would ignore the file
    features, _ = feature_model
    argv = [command, "--kg", str(run.kg), "--kge", str(run.kge),
            "--checkpoint", str(run.model_dir / "model.bin"),
            "--dataset", str(cli_world.dev_jsonl), "--features", str(features),
            "--out", str(tmp_path / "out")]
    if command == "explain":
        argv += ["--id", run.example_id]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError"
    assert "--features" in err["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("candidate", ["7", "-1"])
def test_explain_candidate_out_of_range_names_the_range(run, cli_world, candidate,
                                                        capsys):
    code = main(explain_args(run, cli_world, "--candidate", candidate))
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError"
    assert "0..4" in err["message"] and candidate in err["message"]


def encode_args(run, dataset, out):
    return ["encode", "--kg", str(run.kg), "--kge", str(run.kge),
            "--checkpoint", str(run.model_dir / "model.bin"),
            "--dataset", str(dataset), "--out", str(out)]


def test_encode_of_an_empty_dataset_names_the_output(run, tmp_path, capsys):
    empty, out = tmp_path / "empty.jsonl", tmp_path / "features.bin"
    empty.write_text("", encoding="utf-8")
    assert main(encode_args(run, empty, out)) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError"
    assert str(out) in err["message"]
    assert not out.exists()


def test_encode_runs_the_bilstm_once_per_question(run, cli_world, tmp_path, monkeypatch):
    examples = cli_world.world.train + cli_world.world.dev
    both = tmp_path / "train-dev.jsonl"
    save_dataset(both, examples)
    assert len(examples) == 20
    calls = []
    real = BiLSTM.forward

    def counting(self, table, index, offsets):
        calls.append(len(offsets) - 1)
        return real(self, table, index, offsets)

    monkeypatch.setattr(BiLSTM, "forward", counting)
    assert main(encode_args(run, both, tmp_path / "features.bin")) == 0
    assert calls == [len(ex.candidates) for ex in examples]


def reads_and_hashes(monkeypatch):
    """Record every file opened for reading and count each ``sha256_file``
    call per file; returns (set of files read, Counter of files hashed)."""
    read, hashed = set(), Counter()
    real_open = io.open

    def recording_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)  # a missing file is no read
        if not set(mode) & set("wax+"):
            read.add(Path(file).resolve())
        return f

    def counting_hash(path):
        hashed[Path(path).resolve()] += 1
        with real_open(path, "rb") as f:
            return io_utils.sha256_bytes(f.read())

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr(io_utils, "sha256_file", counting_hash)
    return read, hashed


def input_case(run, cli_world, feature_model, out, command):
    """(argv, {input name: file it reads}, outputs with a manifest) of ``command``
    run with its packaged defaults, or for explain with --features and
    --stopwords; train, predict and explain also fill a --cache."""
    kg, kge, ckpt = str(run.kg), str(run.kge), str(run.model_dir / "model.bin")
    dev, cfg, cache = str(cli_world.dev_jsonl), str(cli_world.config), str(out / "cache")
    stop = default_stopwords_path()
    grounding = {"kg": kg, "dataset": dev, "stopwords": stop}
    scoring = {"kg": kg, "kge": kge, "checkpoint": ckpt, "dataset": dev}
    if command == "ingest":
        tsv = out / "triples.tsv"
        tsv.write_text("IsA\tice\twater\nAntonym\tcold\thot\n", encoding="utf-8")
        return ([command, str(tsv), "--out", str(out / "kg.bin")],
                {"assertions": tsv, "merge_map": default_merge_map_path()}, ["kg.bin"])
    if command in ("ground", "paths"):
        return ([command, "--kg", kg, "--dataset", dev, "--config", cfg,
                 "--out", str(out / "o.jsonl")], grounding, ["o.jsonl"])
    if command == "prune":
        return ([command, "--kg", kg, "--kge", kge, "--dataset", dev, "--config", cfg,
                 "--out", str(out / "o.jsonl")], {**grounding, "kge": kge}, ["o.jsonl"])
    if command == "train-kge":
        vecs = out / "vecs.txt"
        vecs.write_text("ice" + " 0.25" * resolve_config(cfg).kge_dim + "\n",
                        encoding="utf-8")
        return ([command, "--kg", kg, "--config", cfg, "--word-vectors", str(vecs),
                 "--out", str(out / "kge.bin")], {"kg": kg, "word_vectors": vecs},
                ["kge.bin"])
    if command == "encode":
        return ([command, "--kg", kg, "--kge", kge, "--checkpoint", ckpt, "--dataset", dev,
                 "--out", str(out / "f.bin")], scoring, ["f.bin"])
    if command == "train":
        return ([command, "--kg", kg, "--kge", kge, "--dataset", str(cli_world.train_jsonl),
                 "--dev", dev, "--config", cfg, "--cache", cache, "--out", str(out / "m")],
                {**grounding, "kge": kge, "dataset": cli_world.train_jsonl, "dev": dev},
                ["m/model.bin", "m/metrics.csv"])
    if command == "predict":
        return (predict_args(run, cli_world, out / "p.jsonl", "--cache", cache),
                {**scoring, "stopwords": stop}, ["p.jsonl"])
    features, model = feature_model
    stop = out / "stopwords.txt"
    shutil.copyfile(default_stopwords_path(), stop)
    return ([command, "--kg", kg, "--kge", kge, "--checkpoint", str(model), "--dataset", dev,
             "--id", run.example_id, "--features", str(features), "--stopwords", str(stop),
             "--cache", cache, "--out", str(out / "e.json")],
            {**scoring, "checkpoint": model, "features": features, "stopwords": stop},
            ["e.json"])


@pytest.mark.parametrize("command", ["ingest", "ground", "paths", "train-kge", "prune",
                                     "encode", "train", "predict", "explain"])
def test_manifest_names_every_file_read_and_each_is_hashed_once(
        run, cli_world, feature_model, tmp_path, monkeypatch, command):
    argv, inputs, outputs = input_case(run, cli_world, feature_model, tmp_path, command)
    files = {name: Path(path).resolve() for name, path in inputs.items()}
    read, hashed = reads_and_hashes(monkeypatch)
    assert main(argv) == 0
    monkeypatch.undo()
    assert read - {cli_world.config.resolve()} == set(files.values())
    assert hashed == Counter(files.values())
    for out in outputs:
        manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
        assert manifest["inputs"] == {name: io_utils.sha256_file(path)
                                      for name, path in files.items()}


REQUIRED_FLAGS = {"ground": [], "paths": [], "prune": ["--kge", "kge.bin"],
                  "predict": ["--kge", "kge.bin", "--checkpoint", "model.bin"],
                  "train": ["--kge", "kge.bin", "--dev", "dev.jsonl"]}


# commands that draw nothing take no --seed, and preprocessing is serial, so
# no command takes --jobs
@pytest.mark.parametrize("command,flag", [
    *(pytest.param(c, "--seed 1", id=c) for c in ("ground", "paths", "prune", "predict")),
    *(pytest.param(c, "--jobs 2", id=f"{c}-jobs") for c in ("train", "predict"))])
def test_commands_that_draw_nothing_take_no_seed(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--kg", "kg.bin", "--dataset", "dev.jsonl", "--out", "out.jsonl",
              *REQUIRED_FLAGS[command], *flag.split()])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_a_dump_whose_only_relation_is_empty_writes_no_snapshot(tmp_path, capsys):
    tsv, out = tmp_path / "assertions.tsv", tmp_path / "kg.bin"
    tsv.write_text('/a/1\t/r/\t/c/en/ice\t/c/en/cold\t{"weight": 1.0}\n', encoding="utf-8")
    assert main(["ingest", str(tsv), "--merge-map", "identity", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "IngestError"
    assert not out.exists()


def test_every_readme_command_line_parses(capsys):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("kgqa ")]
    assert len(commands) >= 11
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}\n"
                        f"{capsys.readouterr().err}")
