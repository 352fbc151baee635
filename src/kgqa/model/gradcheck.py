"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

DEFAULT_STEP = 1e-5
REL_FLOOR = 1e-6
MAX_ENTRIES_PER_TENSOR = 200


def check_gradients(
    loss_fn: Callable[[], float],
    tensors: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    step: float = DEFAULT_STEP,
    seed: int = 0,
) -> dict[str, float]:
    """Max relative error per tensor between analytic and numeric gradients.

    loss_fn() must recompute the scalar loss from the tensors' current
    values; entries are perturbed in place and restored afterwards. Tensors
    above the entry cap are spot-checked at a seeded sample of positions,
    smaller ones exhaustively. Relative error uses the symmetric form
    |a - n| / max(|a|, |n|, 1e-6) so near-zero gradients stay comparable.
    """
    rng = np.random.default_rng(seed)
    report: dict[str, float] = {}
    for name in sorted(tensors):
        arr = tensors[name]
        grad = analytic[name]
        if arr.shape != grad.shape:
            raise ValueError(f"{name}: tensor {arr.shape} vs gradient {grad.shape}")
        n_entries = arr.size
        if n_entries <= MAX_ENTRIES_PER_TENSOR:
            idxs = np.arange(n_entries)
        else:
            idxs = rng.choice(n_entries, size=MAX_ENTRIES_PER_TENSOR, replace=False)
            idxs.sort()
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        worst = 0.0
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn()
            flat[i] = orig - step
            down = loss_fn()
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            a = gflat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), REL_FLOOR)
            worst = max(worst, rel)
        report[name] = worst
    return report
