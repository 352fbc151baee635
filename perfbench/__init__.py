"""Benchmark of the kgqa pipeline; run it with ``python3 perfbench/run.py``."""
