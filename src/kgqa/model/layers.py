"""Neural layers in plain numpy with hand-derived backward passes.

Every layer keeps its parameters and gradient buffers in parallel dicts so a
model can expose one flat name -> tensor mapping for the optimizer and for
finite-difference checking. forward() returns (output, cache); backward()
takes (upstream grad, cache), accumulates into the grad buffers, and returns
the gradient w.r.t. the input. A layer may be applied many times before its
gradients are consumed; callers zero_grad() between steps.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in tanh form: overflow-free on both tails.

    Accurate in absolute terms (within about 2e-16), not relative ones: far
    into the negative tail it rounds to 0 where 1 / (1 + exp(-x)) would
    still resolve tiny values.
    """
    return 0.5 * (1.0 + np.tanh(0.5 * x))


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
    """Single-direction LSTM over (B, T, d_in) batches; gate order i, f, g, o."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_hidden: int) -> None:
        super().__init__()
        self.d_in = d_in
        self.d_hidden = d_hidden
        self.Wx = self._register("Wx", glorot(rng, d_in, 4 * d_hidden))
        self.Wh = self._register("Wh", glorot(rng, d_hidden, 4 * d_hidden))
        self.b = self._register("b", np.zeros(4 * d_hidden))

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        B, T, _ = x.shape
        H = self.d_hidden
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        out = np.zeros((B, T, H))
        steps = []
        for t in range(T):
            a = x[:, t] @ self.Wx + h @ self.Wh + self.b
            gates = sigmoid(a)  # one call for i, f and o; the g block is unused
            i, f, o = gates[:, :H], gates[:, H:2 * H], gates[:, 3 * H:]
            g = np.tanh(a[:, 2 * H:3 * H])
            c_new = f * c + i * g
            hc = np.tanh(c_new)
            steps.append((i, f, g, o, c, hc, h))
            c = c_new
            h = o * hc
            out[:, t] = h
        return out, {"x": x, "steps": steps}

    def backward(self, dout: np.ndarray, cache: dict) -> np.ndarray:
        x, steps = cache["x"], cache["steps"]
        B, T, _ = x.shape
        H = self.d_hidden
        dx = np.zeros_like(x)
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            i, f, g, o, c_prev, hc, h_prev = steps[t]
            dh = dout[:, t] + dh_next
            do = dh * hc
            dc = dc_next + dh * o * (1.0 - hc * hc)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f
            da = np.concatenate(
                [di * i * (1.0 - i), df * f * (1.0 - f),
                 dg * (1.0 - g * g), do * o * (1.0 - o)], axis=1)
            self._grads["Wx"] += x[:, t].T @ da
            self._grads["Wh"] += h_prev.T @ da
            self._grads["b"] += da.sum(axis=0)
            dx[:, t] = da @ self.Wx.T
            dh_next = da @ self.Wh.T
        return dx


class BiLSTM(Layer):
    """Forward and reversed LSTM; output concatenated per original position."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_hidden: int) -> None:
        super().__init__()
        self.d_hidden = d_hidden
        self.fwd = LSTM(rng, d_in, d_hidden)
        self.bwd = LSTM(rng, d_in, d_hidden)
        self._adopt("fwd", self.fwd)
        self._adopt("bwd", self.bwd)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        yf, cf = self.fwd.forward(x)
        yb_rev, cb = self.bwd.forward(x[:, ::-1])
        y = np.concatenate([yf, yb_rev[:, ::-1]], axis=2)
        return y, (cf, cb)

    def backward(self, dy: np.ndarray, cache: tuple) -> np.ndarray:
        cf, cb = cache
        H = self.d_hidden
        dxf = self.fwd.backward(dy[:, :, :H], cf)
        dxb = self.bwd.backward(dy[:, ::-1, H:], cb)
        return dxf + dxb[:, ::-1]

    def forward_ragged(self, x: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Ends of K ragged sequences; sequence k is ``x[offsets[k]:offsets[k + 1]]``.

        One unpadded ``forward`` batch per distinct length, so each sequence
        gets the outputs it would get alone. Returns ((K, 2, 2H) ends, cache),
        with ``ends[k, 0]`` at sequence k's first position and ``ends[k, 1]``
        at its last."""
        lengths = np.diff(offsets)
        ends = np.zeros((len(lengths), 2, 2 * self.d_hidden))
        groups = []
        for length in np.unique(lengths):
            index = np.flatnonzero(lengths == length)
            pos = offsets[index, None] + np.arange(length)
            y, cache = self.forward(x[pos])
            ends[index, 0] = y[:, 0]
            ends[index, 1] = y[:, -1]
            groups.append((index, pos, cache))
        return ends, (len(x), groups)

    def backward_ragged(self, d_ends: np.ndarray, cache: tuple) -> np.ndarray:
        """Given dL/d(ends) of ``forward_ragged``, return the (S, d_in) dL/dx."""
        n_rows, groups = cache
        dx = np.zeros((n_rows, self.fwd.d_in))
        for index, pos, lstm_cache in groups:
            dy = np.zeros(pos.shape + (2 * self.d_hidden,))
            dy[:, 0] = d_ends[index, 0]
            dy[:, -1] += d_ends[index, 1]  # length 1: the first is the last
            dx[pos] = self.backward(dy, lstm_cache)
        return dx


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
