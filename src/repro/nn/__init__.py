"""Neural-network layer library built on :mod:`repro.tensor`."""

from .module import Module, ModuleList, Parameter
from .linear import Linear
from .conv import Conv2d
from .norm import BatchNorm2d, GroupNorm, LayerNorm, layer_norm_eval
from .activations import ReLU, Sigmoid, Tanh
from .dropout import Dropout
from .pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from .embedding import Embedding, LearnedPositional
from .attention import (MultiHeadSelfAttention, attention_eval, causal_mask,
                        softmax_eval)
from .container import Sequential
from .recurrent import GRUCell, LSTM, LSTMCell, RNNCell
from . import init

__all__ = [
    "Module",
    "ModuleList",
    "Parameter",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "GroupNorm",
    "LayerNorm",
    "layer_norm_eval",
    "MultiHeadSelfAttention",
    "attention_eval",
    "causal_mask",
    "softmax_eval",
    "LearnedPositional",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Dropout",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Embedding",
    "Sequential",
    "RNNCell",
    "LSTMCell",
    "GRUCell",
    "LSTM",
    "init",
]
