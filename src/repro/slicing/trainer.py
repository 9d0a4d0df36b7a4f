"""Algorithm 1: training with model slicing.

For each batch the trainer asks the scheduling scheme for a list of slice
rates, runs a forward/backward pass for each corresponding subnet,
*accumulates* the gradients, and applies one optimizer update — exactly the
structure of Algorithm 1 in the paper.

Schemes may schedule scalar rates or per-layer
:class:`~repro.slicing.profile.SliceProfile` objects
(:class:`~repro.slicing.schemes.ProfileScheme`); each scheduled item runs
as one forward/backward under the corresponding ambient profile, so
heterogeneous-width subnets train through the same Algorithm-1 loop.
"""

from __future__ import annotations

import json
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..errors import ConfigError
from ..nn.module import Module
from ..optim import SGD
from ..tensor import Tensor, cross_entropy, no_grad
from ..tensor.workspace import WorkspaceArena, use_workspace
from .context import slice_profile
from .schemes import Scheme


def _rate_key(key):
    """JSON-safe (string) dict key for a scheduled rate or profile.

    Scalar rates (and uniform profiles, which collapse back to their
    float rate) use the float repr — the same string ``json.dumps``
    would coerce a float key to — so mixed rate/profile tables sort and
    serialize cleanly.  Non-uniform profiles use their fingerprint.
    """
    if isinstance(key, (int, float)):
        return repr(float(key))
    if getattr(key, "uniform", False):
        return repr(float(key))
    return key.fingerprint()


class EpochRecord:
    """Per-epoch telemetry: losses and evaluation metrics per slice rate."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.train_loss: dict[float, float] = {}
        self.eval_error: dict[float, float] = {}
        self.eval_loss: dict[float, float] = {}
        self.extra: dict[str, object] = {}

    def __repr__(self) -> str:
        return f"EpochRecord(epoch={self.epoch}, eval_error={self.eval_error})"

    def to_dict(self) -> dict:
        """JSON-serializable view: scalar slice-rate keys become their
        float-repr strings, non-uniform profile keys become fingerprint
        strings (see :func:`_rate_key`)."""
        return {
            "epoch": self.epoch,
            "train_loss": {_rate_key(k): v for k, v in self.train_loss.items()},
            "eval_error": {_rate_key(k): v for k, v in self.eval_error.items()},
            "eval_loss": {_rate_key(k): v for k, v in self.eval_loss.items()},
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EpochRecord":
        """Inverse of :meth:`to_dict`; accepts string rate keys (JSON).

        Keys that don't parse as floats (non-uniform profile
        fingerprints) are kept as strings.
        """
        def parse(key):
            try:
                return float(key)
            except ValueError:
                return key

        record = cls(int(data["epoch"]))
        for field in ("train_loss", "eval_error", "eval_loss"):
            record.__dict__[field] = {
                parse(rate): float(value)
                for rate, value in data.get(field, {}).items()}
        record.extra = dict(data.get("extra", {}))
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class SliceTrainer:
    """Trains a sliceable classification model per Algorithm 1.

    Parameters
    ----------
    model:
        A model built from sliced layers (e.g. :class:`~repro.models.SlicedVGG`).
    scheme:
        The slice-rate scheduling scheme deciding which subnets each batch
        trains.
    optimizer:
        Typically :class:`~repro.optim.SGD`; gradients from all scheduled
        subnets are accumulated before its single ``step()``.
    loss_fn:
        ``loss_fn(logits, targets) -> Tensor``; defaults to cross-entropy.
    rng:
        Generator driving the scheme's sampling.
    fast_path:
        When True (the default) each :meth:`train_batch` runs under a
        pooled :class:`~repro.tensor.workspace.WorkspaceArena`: conv
        im2col/col2im buffers are reused across batches, the unsliced
        input's columns are shared across the scheduled rates, and
        conv / GroupNorm / pooling take their buffers from the arena.
        Loss values are bitwise identical to the reference path per
        forward; weight trajectories agree to float32 rounding (the
        pooled conv and max-pool backwards round differently).  Set
        False to train without the arena: numpy-allocated buffers and
        the reference conv and max-pool backwards.
    """

    def __init__(self, model: Module, scheme: Scheme, optimizer: SGD,
                 loss_fn: Callable = cross_entropy,
                 rng: np.random.Generator | None = None,
                 fast_path: bool = True):
        if not isinstance(scheme, Scheme):
            raise ConfigError(f"scheme must be a Scheme, got {type(scheme)}")
        self.model = model
        self.scheme = scheme
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.rng = rng if rng is not None else np.random.default_rng()
        self.fast_path = bool(fast_path)
        self.arena = WorkspaceArena() if self.fast_path else None
        self.history: list[EpochRecord] = []

    # ------------------------------------------------------------------
    def train_batch(self, inputs: np.ndarray, targets: np.ndarray
                    ) -> dict[float, float]:
        """One Algorithm-1 step; returns the loss observed per slice rate.

        Gradients from the scheduled subnets are accumulated as in
        Algorithm 1 and then *averaged* over the number of scheduled
        rates.  (The paper's pseudo-code sums; averaging makes the
        effective step size independent of how many subnets a scheduling
        scheme trains per batch, so a single learning rate works for
        every scheme — without it, static scheduling of k rates behaves
        like a k-times larger learning rate and diverges.)
        """
        started = obs.clock_now() if obs.enabled() else None
        self.model.train()
        self.optimizer.zero_grad()
        rates = self.scheme.sample(self.rng)
        # Integer payloads (token ids) go to the model raw — embedding
        # lookups take plain index arrays; everything else is wrapped
        # once, outside the rate loop, so all rates share one array.
        arr = np.asarray(inputs)
        if arr.dtype.kind in "iu":
            model_input, pinned = arr, None
        else:
            model_input = Tensor(arr)
            pinned = model_input.data
        losses: dict[float, float] = {}
        if self.arena is not None:
            self.arena.begin_step(pinned_input=pinned)
            with use_workspace(self.arena):
                for rate in rates:
                    with slice_profile(rate):
                        logits = self.model(model_input)
                        loss = self.loss_fn(logits, targets)
                    loss.backward()
                    losses[rate] = loss.item()
                    self.arena.end_pass()
            self.arena.end_step()
            if started is not None:
                obs.count("train_fast_steps_total")
        else:
            for rate in rates:
                with slice_profile(rate):
                    logits = self.model(model_input)
                    loss = self.loss_fn(logits, targets)
                loss.backward()
                losses[rate] = loss.item()
        if len(rates) > 1:
            inv = 1.0 / len(rates)
            for param in self.optimizer.params:
                if param.grad is not None:
                    param.grad *= inv
        if started is not None:
            obs.gauge("train_grad_norm", self._grad_norm())
        self.optimizer.step()
        if started is not None:
            obs.count("train_steps_total")
            for rate, value in losses.items():
                obs.count("train_rate_scheduled_total", rate=f"{rate:g}")
                obs.gauge("train_loss", value, rate=f"{rate:g}")
            obs.observe("train_step_seconds", obs.clock_now() - started)
        return losses

    def _grad_norm(self) -> float:
        """Global L2 norm of the accumulated (averaged) gradients."""
        total = 0.0
        for param in self.optimizer.params:
            if param.grad is not None:
                flat = param.grad.reshape(-1)
                total += float(np.dot(flat, flat))
        return total ** 0.5

    def train_epoch(self, loader) -> dict[float, float]:
        """Train over an iterable of ``(inputs, targets)`` batches.

        Returns the mean observed loss per slice rate for the epoch.
        """
        sums: dict[float, float] = {}
        counts: dict[float, int] = {}
        for inputs, targets in loader:
            for rate, value in self.train_batch(inputs, targets).items():
                sums[rate] = sums.get(rate, 0.0) + value
                counts[rate] = counts.get(rate, 0) + 1
        return {rate: sums[rate] / counts[rate] for rate in sums}

    # ------------------------------------------------------------------
    def evaluate(self, loader, rates: Sequence[float] | None = None
                 ) -> dict[float, dict[str, float]]:
        """Evaluate the model at each rate; returns error/loss/accuracy."""
        rates = list(rates) if rates is not None else list(self.scheme.rates)
        self.model.eval()
        results: dict[float, dict[str, float]] = {}
        for rate in rates:
            correct = 0
            total = 0
            loss_sum = 0.0
            batches = 0
            with no_grad():
                with slice_profile(rate):
                    for inputs, targets in loader:
                        logits = self.model(Tensor(inputs))
                        loss_sum += self.loss_fn(logits, targets).item()
                        batches += 1
                        pred = logits.data.argmax(axis=1)
                        correct += int((pred == targets).sum())
                        total += len(targets)
            accuracy = correct / total if total else 0.0
            results[rate] = {
                "accuracy": accuracy,
                "error": 1.0 - accuracy,
                "loss": loss_sum / max(batches, 1),
            }
        return results

    # ------------------------------------------------------------------
    def fit(self, train_loader_fn: Callable[[], object],
            eval_loader_fn: Callable[[], object] | None = None,
            epochs: int = 1, eval_rates: Sequence[float] | None = None,
            lr_schedule=None, epoch_hook=None) -> list[EpochRecord]:
        """Full training loop with per-epoch evaluation telemetry.

        ``train_loader_fn`` / ``eval_loader_fn`` are zero-argument callables
        returning fresh batch iterables (so shuffling re-randomizes per
        epoch).  ``epoch_hook(record, model)`` runs after each epoch.
        """
        for epoch in range(epochs):
            record = EpochRecord(epoch)
            with obs.span("train.epoch", epoch=epoch):
                record.train_loss = self.train_epoch(train_loader_fn())
                if eval_loader_fn is not None:
                    results = self.evaluate(eval_loader_fn(),
                                            rates=eval_rates)
                    record.eval_error = {r: m["error"]
                                         for r, m in results.items()}
                    record.eval_loss = {r: m["loss"]
                                        for r, m in results.items()}
            obs.event("train.epoch_record", **record.to_dict())
            if lr_schedule is not None:
                lr_schedule.step()
            if epoch_hook is not None:
                epoch_hook(record, self.model)
            self.history.append(record)
        return self.history

    # ------------------------------------------------------------------
    def history_dicts(self) -> list[dict]:
        """The training history as JSON-serializable dicts."""
        return [record.to_dict() for record in self.history]

    def export_history(self, path: str) -> int:
        """Write the history as JSONL ``train.epoch`` trace events.

        The records use the same schema as :mod:`repro.obs` traces, so
        training curves and runtime telemetry flow through the same
        tooling (``repro obs summarize`` reads either).  Returns the
        number of records written.
        """
        with open(path, "w") as handle:
            for n, record in enumerate(self.history, 1):
                handle.write(obs.dumps_record({
                    "kind": "event", "id": n, "parent": None,
                    "name": "train.epoch", "time": float(record.epoch),
                    "attrs": record.to_dict(),
                }) + "\n")
        return len(self.history)
