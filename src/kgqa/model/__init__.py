"""Neural scoring core: layers, network, optimizer, gradient checking."""

from .gradcheck import check_gradients
from .layers import BiLSTM, GCNLayer, Linear, LSTM, MLP, normalized_adjacency, sigmoid, softmax
from .network import (ForwardTrace, Instance, InputGrads, PathAttentionScorer,
                      bce_loss, fallback_vector, instance_from_schema_graph,
                      listwise_loss)
from .optim import Adam

__all__ = [
    "Adam", "BiLSTM", "ForwardTrace", "GCNLayer", "InputGrads", "Instance",
    "LSTM", "Linear", "MLP", "PathAttentionScorer",
    "bce_loss", "check_gradients", "fallback_vector", "instance_from_schema_graph",
    "listwise_loss", "normalized_adjacency", "sigmoid", "softmax",
]
