"""Model-level cost accounting: FLOPs, parameters, and memory footprints.

``measured_flops`` runs an instrumented forward pass, so it reports the
*actual* multiply-adds of the sliced computation — the quantity behind the
``Ct`` rows of Tables 2 and 4.  ``active_params`` counts the parameters a
subnet deployed at a rate holds (the ``Mt`` rows), read from the
compiled plan whose steps :func:`~repro.slicing.deploy.materialize_subnet`
ships.

The memory helpers extend the same accounting to bytes, per
:class:`~repro.slicing.profile.SliceProfile`: :func:`param_bytes` is the
weight storage a deployed subnet needs resident, and
:func:`peak_activation_bytes` measures the largest input+output
activation footprint any layer holds live during a forward pass.
Together (:func:`memory_of_profile`) they feed node memory budgets in
:mod:`repro.cluster` and the ``repro profile search`` report.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..nn.module import Module
from ..slicing.context import slice_profile
from ..slicing.plans import compile_plan
from ..tensor import Tensor, count_flops, no_grad


def measured_flops(model: Module, input_shape: tuple[int, ...],
                   rate=1.0, input_builder=None) -> int:
    """Multiply-adds of one forward pass at ``rate``.

    Parameters
    ----------
    rate:
        A scalar slice rate or a :class:`~repro.slicing.profile.SliceProfile`;
        the forward runs under the corresponding ambient profile, so the
        count is exact for non-uniform per-layer profiles too.
    input_shape:
        Shape of a dummy input batch (e.g. ``(1, 3, 16, 16)``).
    input_builder:
        Optional callable producing the dummy model input from the shape
        (for models whose input is not a float tensor, e.g. token ids).
    """
    if input_builder is None:
        dummy = Tensor(np.zeros(input_shape, dtype=np.float32))
    else:
        dummy = input_builder(input_shape)
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            with slice_profile(rate):
                with count_flops() as counter:
                    model(dummy)
    finally:
        model.train(was_training)
    return counter.total


def active_params(model: Module, rate=1.0) -> int:
    """Parameters resident in memory when the model is deployed at ``rate``.

    Counts what :func:`~repro.slicing.deploy.materialize_subnet` ships,
    for any profile: the weights of the plan
    :func:`~repro.slicing.plans.compile_plan` compiles, each layer at the
    width that arrives at it (float32, four bytes each).  A model
    without a plan raises :class:`~repro.errors.PlanError`.
    """
    return param_bytes(model, rate) // 4


def param_bytes(model: Module, rate=1.0) -> int:
    """Weight bytes resident when the model is deployed at ``rate``.

    The byte counterpart of :func:`active_params`:
    ``compile_plan(model, rate).param_bytes()``.  An elastic replica that
    serves every rate from one model hosts its full weights instead.
    """
    return compile_plan(model, rate).param_bytes()


def _io_bytes(value) -> int:
    """Bytes of the tensors in a module input/output structure."""
    if isinstance(value, Tensor):
        return value.data.nbytes
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_io_bytes(v) for v in value)
    return 0


@contextlib.contextmanager
def _record_leaf_io(sizes: list[int]):
    """Record each leaf module's live input+output bytes during forwards.

    A leaf layer's input and output activations are simultaneously live
    while it executes, so ``max`` over leaves is the peak activation
    working set of the network (weights and kernel scratch excluded).
    """
    original = Module.__call__

    def recording(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        if not self._modules:
            sizes.append(_io_bytes(args) + _io_bytes(out))
        return out

    Module.__call__ = recording
    try:
        yield
    finally:
        Module.__call__ = original


def peak_activation_bytes(model: Module, input_shape: tuple[int, ...],
                          rate=1.0, input_builder=None) -> int:
    """Peak live activation bytes of one forward pass at ``rate``.

    Measured, not modeled: the forward runs under the ambient profile
    and every leaf layer reports its live input+output footprint, so
    non-uniform per-layer profiles are accounted exactly.  Scales
    linearly with the batch dimension of ``input_shape``.
    """
    if input_builder is None:
        dummy = Tensor(np.zeros(input_shape, dtype=np.float32))
    else:
        dummy = input_builder(input_shape)
    was_training = model.training
    model.eval()
    sizes: list[int] = []
    try:
        with no_grad():
            with slice_profile(rate):
                with _record_leaf_io(sizes):
                    model(dummy)
    finally:
        model.train(was_training)
    return max(sizes, default=_io_bytes(dummy))


def memory_of_profile(model: Module, input_shape: tuple[int, ...],
                      rate=1.0, input_builder=None) -> dict[str, int]:
    """Per-profile memory footprint: weights + peak activations.

    Returns ``{"param_bytes", "peak_activation_bytes", "total_bytes",
    "batch"}`` where ``batch`` is the leading dimension the activations
    were measured at (activation bytes scale linearly with it).

    Models that expose ``kv_cache_bytes(profile)`` (decoder LMs with
    per-session KV caches) additionally report
    ``"kv_cache_bytes_per_session"`` — the *per resident session* cache
    footprint at this profile, which the cluster planner budgets
    separately from the shared weights (``total_bytes`` deliberately
    excludes it: sessions scale with users, not replicas).
    """
    params = param_bytes(model, rate)
    activations = peak_activation_bytes(model, input_shape, rate=rate,
                                        input_builder=input_builder)
    result = {
        "param_bytes": params,
        "peak_activation_bytes": activations,
        "total_bytes": params + activations,
        "batch": int(input_shape[0]),
    }
    kv_fn = getattr(model, "kv_cache_bytes", None)
    if callable(kv_fn):
        result["kv_cache_bytes_per_session"] = int(kv_fn(rate))
    return result


def memory_table(model: Module, input_shape: tuple[int, ...],
                 rates: list) -> dict:
    """Per-rate (or per-profile) :func:`memory_of_profile` summary."""
    return {rate: memory_of_profile(model, input_shape, rate=rate)
            for rate in rates}


def cost_table(model: Module, input_shape: tuple[int, ...],
               rates: list[float]) -> dict[float, dict[str, float]]:
    """Per-rate cost summary: flops, params, and fractions of the full model."""
    full_flops = measured_flops(model, input_shape, rate=1.0)
    full_params = active_params(model, rate=1.0)
    table: dict[float, dict[str, float]] = {}
    for rate in rates:
        flops = measured_flops(model, input_shape, rate=rate)
        params = active_params(model, rate=rate)
        table[rate] = {
            "flops": flops,
            "params": params,
            "flops_fraction": flops / full_flops,
            "params_fraction": params / full_params,
        }
    return table
