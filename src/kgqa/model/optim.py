"""Adam over a flat dict of named tensors, updated in deterministic order."""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, tensors: dict[str, np.ndarray], lr: float) -> None:
        self.tensors = tensors
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bias1 = 1.0 - BETA1 ** self.t
        bias2 = 1.0 - BETA2 ** self.t
        for name in sorted(self.tensors):
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            mhat = m / bias1
            vhat = v / bias2
            self.tensors[name] -= self.lr * mhat / (np.sqrt(vhat) + EPS)
