"""Reverse-mode autograd tensor engine over numpy.

This subpackage is the computational substrate for the whole library: a
:class:`~repro.tensor.tensor.Tensor` type with broadcasting arithmetic,
matmul, im2col convolution, pooling, embedding lookup, and the composite
functions (softmax, losses, dropout) the models are built from.
"""

from .tensor import Tensor, concat, is_grad_enabled, no_grad, stack
from .ops import (
    avg_pool2d,
    conv2d,
    embedding,
    global_avg_pool2d,
    max_pool2d,
    pad2d,
    pad_channels,
)
from .functional import (
    dropout,
    log_softmax,
    mse_loss,
    one_hot,
    relu,
    sigmoid,
    softmax,
    tanh,
)
from .fused import cross_entropy, group_norm
from .gradcheck import check_gradients, numeric_gradient
from .profile import FlopCounter, count_flops, profiling_active, record_flops
from .shared import ArenaManifest, SharedArena, shm_segments
from .workspace import WorkspaceArena, active_workspace, use_workspace

__all__ = [
    "Tensor",
    "concat",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "embedding",
    "pad2d",
    "pad_channels",
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "dropout",
    "group_norm",
    "one_hot",
    "mse_loss",
    "WorkspaceArena",
    "active_workspace",
    "use_workspace",
    "SharedArena",
    "ArenaManifest",
    "shm_segments",
    "check_gradients",
    "numeric_gradient",
    "FlopCounter",
    "count_flops",
    "profiling_active",
    "record_flops",
]
