"""Command-line entry point: one subcommand per pipeline stage.

Every file-producing stage also writes `<out>.manifest.json` recording the
command, resolved config hash, the hash of every input file it read, and
seed, so any artifact can be traced back to exactly what produced it. Flags
override config-file values, which override built-in defaults. Exit codes:
0 success, 1 stage failure (structured JSON error on stderr), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, io_utils
from .config import RunConfig, resolve_config
from .data import accuracy, load_dataset
from .ground import default_stopwords_path, load_stopwords
from .kg import KnowledgeGraph, default_merge_map_path, ingest, load_merge_map
from .kge import EmbeddingTable, PruneReport, load_word_vectors, train_transe
from .pipeline import (build_model_state, check_training_labels, explain,
                       ground_questions, load_model_state, mention_sets, predict,
                       preprocess, train)
from .selfcheck import run_selfcheck
from .statement import FeatureStore


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    flags = {
        "kg": dict(help="knowledge-graph snapshot", required=True),
        "merge-map": dict(help="relation merge map TSV, or 'identity' to keep "
                               "raw names (default: packaged map)"),
        "stopwords": dict(help="stopword list (default: packaged)"),
        "dataset": dict(help="QA dataset JSONL", required=True),
        "features": dict(help="statement feature file"),
        "config": dict(help="key=value config file"),
        "seed": dict(type=int, help="random seed (overrides config)"),
        "out": dict(help="output path", required=True),
        "threshold": dict(type=float, help="path-score pruning threshold"),
        "max-edges": dict(type=int, help="maximum edges per path"),
        "cap": dict(type=int, help="maximum paths kept per concept pair"),
        "kge": dict(help="triple-embedding snapshot", required=True),
        "checkpoint": dict(help="model checkpoint", required=True),
        "cache": dict(help="schema-graph cache directory"),
        "dev": dict(help="dev-set JSONL for early stopping", required=True),
    }
    for name in names:
        spec = dict(flags[name.rstrip("?")])
        if name.endswith("?"):
            spec.pop("required", None)
        p.add_argument(f"--{name.rstrip('?')}", **spec)


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _config_from_args(args) -> RunConfig:
    overrides = {}
    for flag, key in (("seed", "seed"), ("threshold", "threshold"),
                      ("max_edges", "max_edges"), ("cap", "cap")):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    return resolve_config(getattr(args, "config", None), overrides)


# Each input-file flag's dest, with the packaged file read when it is absent;
# not --config, whose values the config hash records
INPUT_FILES = {"assertions": None, "merge_map": default_merge_map_path(), "kg": None,
               "kge": None, "checkpoint": None, "dataset": None, "dev": None,
               "features": None, "stopwords": default_stopwords_path(),
               "word_vectors": None}


def _input_files(args) -> dict[str, str]:
    """The files a command reads, by dest; `--merge-map identity` reads none."""
    files = ((dest, getattr(args, dest) or default)
             for dest, default in INPUT_FILES.items() if hasattr(args, dest))
    return {dest: str(path) for dest, path in files
            if path and (dest, path) != ("merge_map", "identity")}


def _digests(args) -> dict[str, str]:
    """sha256 of each file in ``args.inputs`` by dest, hashed on first use so
    that config and usage errors come before any input is read."""
    if args.digests is None:
        args.digests = {dest: io_utils.sha256_file(path)
                        for dest, path in args.inputs.items()}
    return args.digests


def _manifest(args, out_path, cfg: RunConfig | None) -> None:
    io_utils.write_manifest(
        out_path, args.command,
        cfg.hash() if cfg is not None else "none",
        _digests(args), cfg.seed if cfg is not None else None, __version__)


def _cache_dir(args, dataset: str) -> str | None:
    """`--cache DIR` in a subdirectory named by the hashes of the KG, KGE,
    stopword and ``dataset`` or ``dev`` files, so a changed input misses it."""
    if args.cache is None:
        return None
    joined = "".join(_digests(args)[dest] for dest in ("kg", "kge", "stopwords", dataset))
    return str(Path(args.cache) / io_utils.sha256_bytes(joined.encode())[:16])


def _graph_and_table(args) -> tuple[KnowledgeGraph, EmbeddingTable]:
    """Load --kg and --kge; a table trained on another graph is a ValueError,
    since its rows are read by concept and relation id."""
    kg, emb = KnowledgeGraph.load(args.kg), EmbeddingTable.load(args.kge)
    rows = (len(emb.ent), len(emb.rel))
    if rows != (kg.n_concepts, kg.n_relations):
        raise ValueError(f"{args.kge} holds {rows[0]} entity and {rows[1]} relation rows, "
                         f"but {args.kg} has {kg.n_concepts} concepts and "
                         f"{kg.n_relations} relations")
    return kg, emb


# ---------------------------------------------------------------- commands

def cmd_ingest(args) -> int:
    merge_path = args.inputs.get("merge_map")  # absent: keep raw relation names
    kg, report = ingest(args.assertions,
                        merge_map=load_merge_map(merge_path) if merge_path else None)
    kg.save(args.out)
    _manifest(args, args.out, None)
    print(io_utils.canonical_json({
        "concepts": kg.n_concepts, "relations": kg.n_relations,
        "triples": int(len(kg.triples)), **report.to_dict()}))
    return 0


def cmd_ground(args) -> int:
    cfg = _config_from_args(args)
    kg = KnowledgeGraph.load(args.kg)
    stop = load_stopwords(args.inputs["stopwords"])
    examples = load_dataset(args.dataset)
    concepts = {text: m.to_dict(kg)["concepts"]
                for text, m in mention_sets(kg, stop, cfg, examples).items()}
    with io_utils.atomic_open(args.out, "w", encoding="utf-8") as fh:
        for ex in examples:
            row = {"id": ex.id, "question_concepts": concepts[ex.question],
                   "candidates": [{"index": ci, "answer_concepts": concepts[cand]}
                                  for ci, cand in enumerate(ex.candidates)]}
            fh.write(io_utils.canonical_json(row) + "\n")
    _manifest(args, args.out, cfg)
    return 0


def cmd_schema_graphs(args) -> int:
    """`paths` writes unpruned schema graphs; `prune` prunes them with --kge
    and adds the summed prune report as a `.stats.json` sidecar and on stdout."""
    cfg = replace(_config_from_args(args), prune=args.command == "prune")
    kg, emb = _graph_and_table(args) if cfg.prune else (KnowledgeGraph.load(args.kg), None)
    stop = load_stopwords(args.inputs["stopwords"])
    total = PruneReport()
    examples = load_dataset(args.dataset)
    grounded = ground_questions(kg, stop, cfg, examples, emb)
    with io_utils.atomic_open(args.out, "w", encoding="utf-8") as fh:
        for ex, cands in zip(examples, grounded):
            for ci, (sg, report) in enumerate(cands):
                row = {"id": ex.id, "candidate": ci}
                if sg is None:
                    row["ungrounded"] = True
                else:
                    row["sg"] = sg.to_dict()
                if report is not None:
                    row["prune"] = report.to_dict()
                    total += report
                fh.write(io_utils.canonical_json(row) + "\n")
    _manifest(args, args.out, cfg)
    if cfg.prune:
        stats = io_utils.canonical_json({**total.to_dict(), "threshold": cfg.threshold})
        io_utils.write_text(str(args.out) + ".stats.json", stats + "\n")
        print(stats)
    return 0


def cmd_train_kge(args) -> int:
    cfg = _config_from_args(args)
    kg = KnowledgeGraph.load(args.kg)
    word_vecs = load_word_vectors(args.word_vectors) if args.word_vectors else None
    table, history = train_transe(
        kg, dim=cfg.kge_dim, margin=cfg.kge_margin, lr=cfg.kge_lr,
        epochs=cfg.kge_epochs, batch_size=cfg.kge_batch, neg_per_pos=cfg.kge_neg,
        seed=cfg.seed, word_vectors=word_vecs)
    table.gamma = cfg.gamma
    table.save(args.out, extra_meta={"epochs": cfg.kge_epochs,
                                     "final_loss": history[-1] if history else None})
    _manifest(args, args.out, cfg)
    if history:
        print(f"trained {cfg.kge_epochs} epochs, final loss {history[-1]:.4f}")
    return 0


def _load_state_inputs(args, need_checkpoint: bool):
    kg, emb = _graph_and_table(args)
    features = FeatureStore.load(args.features) if "features" in args.inputs else None
    state = None
    if need_checkpoint:
        state = load_model_state(args.checkpoint, emb, features=features)
    return kg, emb, features, state


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    kg, emb, features, _ = _load_state_inputs(args, need_checkpoint=False)
    train_examples = load_dataset(args.dataset)
    dev_examples = load_dataset(args.dev)
    check_training_labels(train_examples, dev_examples)
    stop = load_stopwords(args.inputs["stopwords"])
    state = build_model_state(cfg, emb,
                              examples_for_vocab=train_examples + dev_examples,
                              features=features)
    train_inst = preprocess(kg, emb, train_examples, cfg, stop,
                            cache_dir=_cache_dir(args, "dataset"))
    dev_inst = preprocess(kg, emb, dev_examples, cfg, stop,
                          cache_dir=_cache_dir(args, "dev"))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = train(state, train_examples, dev_examples, train_inst, dev_inst,
                   log=print)
    model_path = out_dir / "model.bin"
    state.save(model_path)
    metrics_path = out_dir / "metrics.csv"
    io_utils.write_text(metrics_path, result.metrics_csv())
    _manifest(args, model_path, cfg)
    _manifest(args, metrics_path, cfg)
    print(f"best dev accuracy {result.best_dev_accuracy:.4f} "
          f"at epoch {result.best_epoch}")
    return 0


def cmd_predict(args) -> int:
    kg, emb, features, state = _load_state_inputs(args, need_checkpoint=True)
    cfg = state.cfg
    examples = load_dataset(args.dataset)
    stop = load_stopwords(args.inputs["stopwords"])
    instances = preprocess(kg, emb, examples, cfg, stop,
                           cache_dir=_cache_dir(args, "dataset"))
    predictions = predict(state, examples, instances)
    with io_utils.atomic_open(args.out, "w", encoding="utf-8") as fh:
        for pred in predictions:
            fh.write(io_utils.canonical_json(pred.to_json_obj()) + "\n")
    _manifest(args, args.out, cfg)
    n_labeled = sum(ex.label is not None for ex in examples)
    if n_labeled:
        acc = accuracy({p.example_id: p.chosen for p in predictions}, examples)
        print(f"accuracy {acc:.4f} over {n_labeled} examples")
    return 0


def cmd_explain(args) -> int:
    kg, emb, features, state = _load_state_inputs(args, need_checkpoint=True)
    cfg = state.cfg
    examples = [ex for ex in load_dataset(args.dataset) if ex.id == args.id]
    if not examples:
        raise ValueError(f"example id {args.id!r} not found in {args.dataset}")
    ex = examples[0]
    stop = load_stopwords(args.inputs["stopwords"])
    instances = preprocess(kg, emb, [ex], cfg, stop,
                           cache_dir=_cache_dir(args, "dataset"))
    if args.candidate is not None:
        cand = args.candidate
    else:
        preds = predict(state, [ex], instances)
        cand = preds[0].chosen
    # an out-of-range --candidate has no instance; explain names the range
    report = explain(state, kg, ex, cand, instances.get((ex.id, cand)),
                     top_pairs=args.top_pairs, top_paths=args.top_paths)
    io_utils.write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    _manifest(args, args.out, cfg)
    return 0


def cmd_encode(args) -> int:
    kg, emb, features, state = _load_state_inputs(args, need_checkpoint=True)
    if state.encoder is None:
        raise ValueError("checkpoint has no trainable encoder; feature files "
                         "are produced externally")
    examples = load_dataset(args.dataset)
    entries = {}
    for ex in examples:
        s, _ = state.statements(ex, range(len(ex.candidates)))
        entries.update(((ex.id, ci), vec) for ci, vec in enumerate(s))
    FeatureStore.write(args.out, entries)
    _manifest(args, args.out, state.cfg)
    print(f"encoded {len(entries)} statement vectors")
    return 0


def cmd_selfcheck(args) -> int:
    report = run_selfcheck(seed=args.seed, quick=args.quick)
    for check in report.checks:
        print(check.line())
    if args.out:
        io_utils.write_text(args.out, io_utils.canonical_json(report.to_dict()) + "\n")
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgqa",
        description="Knowledge-graph grounded multiple-choice QA pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a graph snapshot from assertion TSV")
    p.add_argument("assertions", help="assertion TSV (raw dump or simplified)")
    _add_common(p, "merge-map?", "out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("ground", help="recognize question/answer concepts")
    _add_common(p, "kg", "dataset", "stopwords?", "config?", "out")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("paths", help="build unpruned schema graphs")
    _add_common(p, "kg", "dataset", "stopwords?", "config?", "out",
                "max-edges?", "cap?")
    p.set_defaults(func=cmd_schema_graphs)

    p = sub.add_parser("train-kge", help="train translational triple embeddings")
    _add_common(p, "kg", "config?", "out", "seed?")
    p.add_argument("--word-vectors", help="optional text word vectors for init")
    p.set_defaults(func=cmd_train_kge)

    p = sub.add_parser("prune", help="score and prune schema-graph paths")
    _add_common(p, "kg", "kge", "dataset", "stopwords?", "config?", "out",
                "threshold?", "max-edges?", "cap?")
    p.set_defaults(func=cmd_schema_graphs)

    p = sub.add_parser("encode", help="export statement vectors from a checkpoint")
    _add_common(p, "kg", "kge", "checkpoint", "dataset", "out")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train", help="train the scoring network")
    _add_common(p, "kg", "kge", "dataset", "dev", "features?", "stopwords?",
                "config?", "out", "seed?", "cache?")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score candidates and pick answers")
    _add_common(p, "kg", "kge", "checkpoint", "dataset", "features?",
                "stopwords?", "out", "cache?")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("explain", help="attention report for one example")
    _add_common(p, "kg", "kge", "checkpoint", "dataset", "features?",
                "stopwords?", "out", "cache?")
    p.add_argument("--id", required=True, help="example id to explain")
    p.add_argument("--candidate", type=int, help="candidate index (default: predicted)")
    p.add_argument("--top-pairs", type=_positive_int, default=3)
    p.add_argument("--top-paths", type=_positive_int, default=2)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("selfcheck", help="run built-in oracle and property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true", help="smaller suite sizes")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.inputs, args.digests = _input_files(args), None
    try:
        return args.func(args)
    except Exception as exc:  # surface stage failures as structured errors
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
