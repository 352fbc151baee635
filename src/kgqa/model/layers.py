"""Neural layers in plain numpy with hand-derived backward passes.

Every layer keeps its parameters and gradient buffers in parallel dicts so a
model can expose one flat name -> tensor mapping for the optimizer and for
finite-difference checking. forward() returns (output, cache); backward()
takes (upstream grad, cache), accumulates into the grad buffers, and returns
the gradient w.r.t. the input. A layer may be applied many times before its
gradients are consumed; callers zero_grad() between steps.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in tanh form: overflow-free on both tails.

    Accurate in absolute terms (within about 2e-16), not relative ones: far
    into the negative tail it rounds to 0 where 1 / (1 + exp(-x)) would
    still resolve tiny values.
    """
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def activate_gates(a: np.ndarray, half: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """In place, ``half * tanh(half * a) + offset`` over ``a``'s columns: with
    ``half`` 0.5 and ``offset`` 0.5 a column takes ``sigmoid`` bit for bit
    (halving is exact), with ``half`` 1 and ``offset`` 0 it takes tanh."""
    a *= half
    np.tanh(a, out=a)
    a *= half
    a += offset
    return a


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-subtracted."""
    z = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_backward(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Given y = softmax(x) and dL/dy, return dL/dx."""
    dot = np.sum(y * dy, axis=-1, keepdims=True)
    return y * (dy - dot)


def scatter_rows(n: int, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum row i of ``values`` (m, d) into row ``index[i]`` of n zero rows.

    One ``np.bincount`` adds each cell's terms in index order from 0.0, as
    ``np.add.at`` into zeros does, so the results are bit-identical."""
    d = values.shape[1]
    flat = np.asarray(index, dtype=np.intp)[:, None] * d + np.arange(d)
    return np.bincount(flat.ravel(), values.ravel(), n * d).reshape(n, d)


def glorot(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out))


class Layer:
    """Base: flat registry of named parameter and gradient arrays."""

    def __init__(self) -> None:
        self._params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}

    def _register(self, name: str, arr: np.ndarray) -> np.ndarray:
        self._params[name] = arr
        self._grads[name] = np.zeros_like(arr)
        return arr

    def _adopt(self, prefix: str, child: "Layer") -> None:
        for k, v in child._params.items():
            self._params[f"{prefix}.{k}"] = v
        for k, v in child._grads.items():
            self._grads[f"{prefix}.{k}"] = v

    def params(self) -> dict[str, np.ndarray]:
        return self._params

    def grads(self) -> dict[str, np.ndarray]:
        return self._grads

    def zero_grad(self) -> None:
        for g in self._grads.values():
            g[...] = 0.0


class Linear(Layer):
    def __init__(self, rng: np.random.Generator, n_in: int, n_out: int) -> None:
        super().__init__()
        self.W = self._register("W", glorot(rng, n_in, n_out))
        self.b = self._register("b", np.zeros(n_out))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x @ self.W + self.b, x

    def backward(self, dy: np.ndarray, cache: np.ndarray) -> np.ndarray:
        x = cache
        xf = x.reshape(-1, x.shape[-1])
        dyf = dy.reshape(-1, dy.shape[-1])
        self._grads["W"] += xf.T @ dyf
        self._grads["b"] += dyf.sum(axis=0)
        return dy @ self.W.T


class MLP(Layer):
    """Stack of linear layers, tanh on hidden layers, linear output."""

    def __init__(self, rng: np.random.Generator, dims: list[int]) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        self.layers = [Linear(rng, dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
        for i, lay in enumerate(self.layers):
            self._adopt(str(i), lay)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        caches = []
        for i, lay in enumerate(self.layers):
            x, c = lay.forward(x)
            if i < len(self.layers) - 1:
                x = np.tanh(x)
            caches.append((c, x if i < len(self.layers) - 1 else None))
        return x, caches

    def backward(self, dy: np.ndarray, caches: list) -> np.ndarray:
        for i in range(len(self.layers) - 1, -1, -1):
            c, activated = caches[i]
            if activated is not None:  # tanh was applied after this layer
                dy = dy * (1.0 - activated * activated)
            dy = self.layers[i].backward(dy, c)
        return dy


class LSTM(Layer):
    """One direction's parameters, gate order i, f, g, o; ``BiLSTM`` runs them."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_hidden: int) -> None:
        super().__init__()
        self.d_hidden = d_hidden
        self.Wx = self._register("Wx", glorot(rng, d_in, 4 * d_hidden))
        self.Wh = self._register("Wh", glorot(rng, d_hidden, 4 * d_hidden))
        self.b = self._register("b", np.zeros(4 * d_hidden))


class Packing(NamedTuple):
    """The packed layout of K ragged sequences, longest first.

    Sequences are put in slots by a stable sort on length, longest first, so
    the sequences still running at step t fill slots ``0:n_t`` and their rows
    are the packed block ``starts[t]:starts[t + 1]``; every step's block is a
    prefix of the one before. Packed row r of the forward direction reads
    input row ``fwd[r]``, of the reverse direction ``rev[r]``: each sequence
    is reversed on its own, so nothing is padded or masked.
    """

    order: np.ndarray   # (K,) sequence in each slot
    starts: np.ndarray  # (T + 1,) packed block bounds of the steps
    last: np.ndarray    # (K,) packed row of each slot's last step
    prev: np.ndarray    # (R - K,) row of the step before, for rows past step 0
    fwd: np.ndarray     # (R,) input row of each packed row, forward direction
    rev: np.ndarray     # (R,) input row of each packed row, reverse direction


def pack(offsets: np.ndarray) -> Packing:
    """The layout of the sequences ``offsets[k]:offsets[k + 1]``, each at
    least one row long."""
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offsets)
    if len(lengths) and lengths.min() < 1:
        raise ValueError("every sequence needs at least one step")
    order = np.argsort(-lengths, kind="stable")
    by_slot = lengths[order]
    T = int(by_slot[0]) if len(by_slot) else 0
    counts = (by_slot > np.arange(T)[:, None]).sum(axis=1)  # (T,) sequences running
    starts = np.concatenate([[0], np.cumsum(counts)])
    step = np.repeat(np.arange(T), counts)
    rows = np.arange(len(step))
    seq = order[rows - starts[step]]
    K = len(order)
    return Packing(order=order, starts=starts, last=starts[by_slot - 1] + np.arange(K),
                   prev=rows[K:] - counts[step[K:] - 1],
                   fwd=offsets[seq] + step, rev=offsets[seq + 1] - 1 - step)


class BiLSTM(Layer):
    """Forward and reversed LSTM over a packed batch of ragged sequences.

    ``forward(table, index, offsets)`` runs sequence k, the rows
    ``table[index[offsets[k]:offsets[k + 1]]]``, as it would run alone, and
    returns the bi-states at its two ends. A caller passes each distinct
    input row once in ``table``: each direction multiplies the table rows by
    ``Wx`` once and gathers those products into its packed rows before its
    recurrence, whose steps then compute only the sequences still running
    (see ``Packing``). Backward sums dL/d(preactivation) per table row and
    forms the gradients of ``Wx``, ``Wh``, ``b`` and the table with one
    product each after its loop.
    """

    def __init__(self, rng: np.random.Generator, d_in: int, d_hidden: int) -> None:
        super().__init__()
        self.d_hidden = d_hidden
        self.fwd = LSTM(rng, d_in, d_hidden)
        self.bwd = LSTM(rng, d_in, d_hidden)
        self._adopt("fwd", self.fwd)
        self._adopt("bwd", self.bwd)

    def forward(self, table: np.ndarray, index: np.ndarray,
                offsets: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Ends of K ragged sequences; sequence k is
        ``table[index[offsets[k]:offsets[k + 1]]]``.

        Returns ((K, 2, 2H) ends, cache), with ``ends[k, 0]`` at sequence k's
        first position and ``ends[k, 1]`` at its last; the first H columns are
        the forward direction's, the last H the reverse direction's."""
        H = self.d_hidden
        packing = pack(offsets)
        index = np.asarray(index, dtype=np.intp)
        rows = (index[packing.fwd], index[packing.rev])  # table row of each packed row
        runs = [self._run(self.fwd, table, rows[0], packing),
                self._run(self.bwd, table, rows[1], packing)]
        hf, hb = runs[0][3], runs[1][3]
        K = len(packing.order)
        ends = np.zeros((K, 2, 2 * H))
        ends[packing.order, 0, :H] = hf[:K]
        ends[packing.order, 1, :H] = hf[packing.last]
        ends[packing.order, 0, H:] = hb[packing.last]
        ends[packing.order, 1, H:] = hb[:K]
        return ends, (table, rows, packing, runs)

    @staticmethod
    def _run(lstm: LSTM, table: np.ndarray, rows: np.ndarray, packing: Packing) -> tuple:
        """One direction's recurrence over packed rows ``table[rows]``: returns
        packed (gates, c, tanh(c), h), the g block of ``gates`` holding tanh(g)."""
        H = lstm.d_hidden
        gates = (table @ lstm.Wx + lstm.b)[rows]
        # sigmoid on the i, f and o blocks, tanh on g: one activate_gates call
        half = np.full(4 * H, 0.5)
        half[2 * H:3 * H] = 1.0
        offset = 1.0 - half
        c = np.empty((len(rows), H))
        hc = np.empty_like(c)
        h = np.empty_like(c)
        bounds = packing.starts.tolist()
        for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            a = gates[lo:hi]
            if t:  # the rows still running are a prefix of the step before
                prev = slice(bounds[t - 1], bounds[t - 1] + hi - lo)
                a += h[prev] @ lstm.Wh
            activate_gates(a, half, offset)
            np.multiply(a[:, :H], a[:, 2 * H:3 * H], out=c[lo:hi])
            if t:
                c[lo:hi] += a[:, H:2 * H] * c[prev]
            np.tanh(c[lo:hi], out=hc[lo:hi])
            np.multiply(a[:, 3 * H:], hc[lo:hi], out=h[lo:hi])
        return gates, c, hc, h

    def backward(self, d_ends: np.ndarray, cache: tuple) -> np.ndarray:
        """Given dL/d(ends) of ``forward``, return the (U, d_in) dL/d(table)."""
        table, (rows_f, rows_b), packing, (run_f, run_b) = cache
        H = self.d_hidden
        d = d_ends[packing.order]  # slot order
        d_table = self._back(self.fwd, table, rows_f, packing, run_f, d[:, 0, :H], d[:, 1, :H])
        d_table += self._back(self.bwd, table, rows_b, packing, run_b, d[:, 1, H:], d[:, 0, H:])
        return d_table

    @staticmethod
    def _back(lstm: LSTM, table: np.ndarray, rows: np.ndarray, packing: Packing,
              run: tuple, d_first: np.ndarray, d_last: np.ndarray) -> np.ndarray:
        """One direction's backward pass over packed rows ``table[rows]``, given
        dL/dh at each slot's first and last step; returns its dL/d(table)."""
        gates, c, hc, h = run
        H = lstm.d_hidden
        K = len(packing.order)
        dh = np.zeros((len(rows), H))  # packed; takes each step's carry too
        dh[:K] = d_first
        dh[packing.last] += d_last  # length 1: the first step is the last
        D = np.empty((len(rows), 4 * H))  # dL/d(preactivation), packed
        dc_next = np.zeros((K, H))
        bounds = packing.starts.tolist()
        for t in range(len(bounds) - 2, -1, -1):
            lo, hi = bounds[t], bounds[t + 1]
            n = hi - lo
            i, f = gates[lo:hi, :H], gates[lo:hi, H:2 * H]
            g, o = gates[lo:hi, 2 * H:3 * H], gates[lo:hi, 3 * H:]
            tc = hc[lo:hi]
            dc = dc_next[:n] + dh[lo:hi] * o * (1.0 - tc * tc)
            da = D[lo:hi]
            da[:, :H] = dc * g * i * (1.0 - i)
            da[:, 2 * H:3 * H] = dc * i * (1.0 - g * g)
            da[:, 3 * H:] = dh[lo:hi] * tc * o * (1.0 - o)
            if t:
                prev = slice(bounds[t - 1], bounds[t - 1] + n)
                da[:, H:2 * H] = dc * c[prev] * f * (1.0 - f)
                dh[prev] += da @ lstm.Wh.T
                dc_next[:n] = dc * f
            else:
                da[:, H:2 * H] = 0.0  # the cell state before step 0 is zero
        # each buffer goes as soon as it is spent: this pass sets the memory
        # peak of a training step
        del dh, dc_next
        lstm._grads["Wh"] += h[packing.prev].T @ D[K:]  # step 0 has no h before it
        lstm._grads["b"] += D.sum(axis=0)
        D_table = scatter_rows(len(table), rows, D)  # summed per table row
        del D
        lstm._grads["Wx"] += table.T @ D_table
        return D_table @ lstm.Wx.T


class GCNLayer(Layer):
    """One graph-convolution step over an unlabeled, non-directional graph.

    new_i = relu(W_self^T h_i + (1/|N_i|) sum_{j in N_i} W_nbr^T h_j); a node
    with no neighbors keeps only the self term. The neighbor average arrives
    as a row-normalized dense matrix A (zero rows for isolated nodes).
    """

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int) -> None:
        super().__init__()
        self.W_self = self._register("W_self", glorot(rng, d_in, d_out))
        self.W_nbr = self._register("W_nbr", glorot(rng, d_in, d_out))

    def forward(self, h: np.ndarray, adj: np.ndarray) -> tuple[np.ndarray, tuple]:
        z = h @ self.W_self + (adj @ h) @ self.W_nbr
        out = np.maximum(z, 0.0)
        return out, (h, adj, z)

    def backward(self, dout: np.ndarray, cache: tuple) -> np.ndarray:
        h, adj, z = cache
        dz = dout * (z > 0)
        self._grads["W_self"] += h.T @ dz
        self._grads["W_nbr"] += (adj @ h).T @ dz
        return dz @ self.W_self.T + adj.T @ (dz @ self.W_nbr.T)


def normalized_adjacency(n_nodes: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """Row-normalized neighbor matrix from undirected node-index pairs.

    Parallel edges and self-loops collapse; each row sums to 1 unless the
    node is isolated (all-zero row).
    """
    adj = np.zeros((n_nodes, n_nodes))
    for a, b in edges:
        if a != b:
            adj[a, b] = 1.0
            adj[b, a] = 1.0
    deg = adj.sum(axis=1, keepdims=True)
    np.divide(adj, deg, out=adj, where=deg > 0)
    return adj
