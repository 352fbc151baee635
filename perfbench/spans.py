"""In-memory span recorder and the wrappers that put spans around kgqa's layers.

Spans are opened and closed from the benchmark's own files: ``instrument``
replaces the public functions and methods of each layer, at the module
attribute their callers look up, with a wrapper that records a span. Nothing
inside ``kgqa`` changes. A span's self time is its duration minus the time
covered by the spans opened inside it.

Only aggregates are kept -- calls, inclusive time and self time per
(stage, span name) -- because path search on the hub graph opens millions of
``kg.neighbors`` spans, too many to keep one record each.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable


class Tracer:
    """Nested spans, aggregated per (stage, name), plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stage = "none"
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.total_s: dict[tuple[str, str], float] = defaultdict(float)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, time covered by children]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        dur = self.clock() - start
        key = (self.stage, name)
        self.calls[key] += 1
        self.total_s[key] += dur
        self.self_s[key] += dur - covered
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @contextmanager
    def in_stage(self, stage: str):
        """Attribute spans to ``stage`` and record the stage itself as a span.

        The stage span's self time is the time spent outside every wrapped
        layer: pipeline glue and the benchmark's own bookkeeping.
        """
        outer, self.stage = self.stage, stage
        try:
            with self.span(f"stage.{stage}"):
                yield
        finally:
            self.stage = outer

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``after(result, *args)`` then sees the result."""
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result, *args)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ queries

    def total_calls(self, name: str) -> int:
        return sum(n for (_, nm), n in self.calls.items() if nm == name)

    def total_self(self, name: str) -> float:
        return sum(s for (_, nm), s in self.self_s.items() if nm == name)

    def total_inclusive(self, name: str) -> float:
        return sum(s for (_, nm), s in self.total_s.items() if nm == name)

    def stages_with_calls(self, name: str) -> set[str]:
        return {st for (st, nm), n in self.calls.items() if nm == name and n > 0}

    def top_self(self, k: int) -> list[tuple[str, int, float]]:
        """The ``k`` span names with the most self time: (name, calls, self s)."""
        names = {nm for _, nm in self.calls}
        rows = [(nm, self.total_calls(nm), self.total_self(nm)) for nm in names]
        rows.sort(key=lambda r: (-r[2], r[0]))
        return rows[:k]


# ------------------------------------------------------------ instrumentation

def _targets():
    """(owner, attribute, span name) for every wrapped layer entry point.

    Functions a module imported by name are wrapped in the importing module,
    because that is the attribute its code looks up at call time.
    """
    from kgqa import io_utils, kg, kge, paths, pipeline, statement
    from kgqa.model import layers, network, optim

    return [
        (kg, "ingest", "kg.ingest"),
        (kg.KnowledgeGraph, "load", "kg.load"),
        (kg, "read_container", "io_utils.read_container"),
        (io_utils, "read_container", "io_utils.read_container"),
        (io_utils, "canonical_json", "io_utils.canonical_json"),
        (pipeline, "recognize", "ground.recognize"),
        (kg.KnowledgeGraph, "neighbors", "kg.neighbors"),
        (paths, "find_paths", "paths.find_paths"),
        (pipeline, "build_schema_graph", "paths.build_schema_graph"),
        (paths.SchemaGraph, "rebuild_cover", "paths.rebuild_cover"),
        (kge.EmbeddingTable, "triple_confidence", "kge.triple_confidence"),
        (pipeline, "prune_schema_graph", "kge.prune_schema_graph"),
        (kge, "train_transe", "kge.train_transe"),
        (pipeline, "instance_from_schema_graph", "network.instance_from_schema_graph"),
        (network.PathAttentionScorer, "forward", "network.forward"),
        (network.PathAttentionScorer, "backward", "network.backward"),
        (network, "normalized_adjacency", "layers.normalized_adjacency"),
        (layers.GCNLayer, "forward", "layers.gcn.forward"),
        (layers.GCNLayer, "backward", "layers.gcn.backward"),
        (layers.BiLSTM, "forward", "layers.bilstm.forward"),
        (layers.BiLSTM, "backward", "layers.bilstm.backward"),
        (layers.MLP, "forward", "layers.mlp.forward"),
        (layers.MLP, "backward", "layers.mlp.backward"),
        (network, "softmax", "layers.softmax"),
        (layers, "sigmoid", "layers.sigmoid"),
        (network, "sigmoid", "layers.sigmoid"),
        (statement.ToyStatementEncoder, "forward", "statement.encoder.forward"),
        (statement.ToyStatementEncoder, "backward", "statement.encoder.backward"),
        (optim.Adam, "step", "optim.adam_step"),
    ]


def _after_hooks(tracer: Tracer) -> dict[str, Callable]:
    def schema_graph(sg, *args):
        tracer.count("paths.paths_found", sum(len(p) for p in sg.paths.values()))
        tracer.count("paths.pairs_truncated", len(sg.truncated))

    def prune(report, *args):
        tracer.count("kge.paths_before", report.paths_before)
        tracer.count("kge.paths_after", report.paths_after)

    def forward(trace, net, inst, *args):
        tracer.count("network.nodes", inst.n_nodes)
        tracer.count("network.paths", sum(len(p.paths) for p in inst.pairs))

    return {"paths.build_schema_graph": schema_graph,
            "kge.prune_schema_graph": prune,
            "network.forward": forward}


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer entry point in ``tracer`` spans; restore on exit."""
    hooks = _after_hooks(tracer)
    saved = []
    try:
        for owner, attr, name in _targets():
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, raw.__func__, hooks.get(name)))
            else:
                wrapped = tracer.wrap(name, raw, hooks.get(name))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
