"""Ablations of the design choices DESIGN.md calls out.

* **Normalization under slicing** — the paper's GN solution vs. naive
  single-stats BN vs. SlimmableNet's multi-BN (Sec. 3.2 discussion).
* **Output rescaling** for sliced dense layers (the NNLM's stabilizer).
* **Slice granularity G** — how many groups per layer.
* **Incremental widening** (Sec. 3.5) — measured FLOPs saved and the
  approximation error of reusing ``ya``.
"""

from __future__ import annotations

import numpy as np

from ..models import MLP
from ..optim import SGD
from ..slicing import RandomStaticScheme, SliceTrainer
from ..slicing.resume import ResumablePlan, scratch_madds
from .cache import ExperimentCache, experiment_key
from .config import ImageExperimentConfig
from .harness import (
    accuracy_table,
    build_image_task,
    default_scheme,
    make_vgg,
    predictions_at_rates,
    train_model,
)


def normalization_ablation(cfg: ImageExperimentConfig,
                           cache: ExperimentCache) -> dict:
    """GN vs. naive BN vs. multi-BN, trained identically with slicing."""
    rates = cfg.coarse_rates

    def compute() -> dict:
        splits = build_image_task(cfg)
        labels = splits["test"].targets
        out: dict = {"rates": rates, "variants": {}}
        for i, norm in enumerate(("group", "batch", "multi_bn")):
            model = make_vgg(cfg, seed=cfg.seed + 300 + i, norm=norm,
                             rates=rates if norm == "multi_bn" else None)
            train_model(cfg, model, default_scheme(cfg, rates), splits,
                        trainer_seed=300 + i)
            preds = predictions_at_rates(model, splits["test"].inputs, rates)
            out["variants"][norm] = {
                str(r): float((p == labels).mean()) for r, p in preds.items()
            }
        return out

    return cache.get_or_compute(experiment_key("ablation_normalization", cfg), compute)


def granularity_ablation(cfg: ImageExperimentConfig,
                         cache: ExperimentCache,
                         group_counts=(4, 8, 16)) -> dict:
    """Slice-group count G: coarser vs. finer width control."""
    rates = cfg.coarse_rates

    def compute() -> dict:
        from ..models import SlicedVGG

        splits = build_image_task(cfg)
        labels = splits["test"].targets
        out: dict = {"rates": rates, "by_groups": {}}
        for i, groups in enumerate(group_counts):
            model = SlicedVGG.cifar_mini(
                num_classes=cfg.num_classes, width=cfg.vgg_width,
                num_groups=groups, seed=cfg.seed + 310 + i,
            )
            train_model(cfg, model, default_scheme(cfg, rates), splits,
                        trainer_seed=310 + i)
            preds = predictions_at_rates(model, splits["test"].inputs, rates)
            out["by_groups"][str(groups)] = {
                str(r): float((p == labels).mean()) for r, p in preds.items()
            }
        return out

    return cache.get_or_compute(experiment_key("ablation_granularity", cfg), compute)


def rescale_ablation(cache: ExperimentCache, seed: int = 0) -> dict:
    """Output rescaling on/off for a sliced MLP on a dense-feature task."""

    def compute() -> dict:
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(512, 16)).astype(np.float32)
        w = rng.normal(size=(16, 4))
        y = (x @ w + 0.5 * rng.normal(size=(512, 4))).argmax(axis=1)
        x_test = rng.normal(size=(256, 16)).astype(np.float32)
        y_test = (x_test @ w).argmax(axis=1)
        rates = [0.25, 0.5, 1.0]
        out: dict = {"rates": rates, "variants": {}}
        from ..data import ArrayDataset, DataLoader

        data = ArrayDataset(x, y)
        for rescale in (True, False):
            model = MLP(16, [32, 32], 4, rescale=rescale, seed=seed)
            opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
            trainer = SliceTrainer(
                model, RandomStaticScheme(rates, num_random=1), opt,
                rng=np.random.default_rng(seed + 1))
            for _ in range(30):
                trainer.train_epoch(DataLoader(
                    data, 64, shuffle=True,
                    rng=np.random.default_rng(seed + 2)))
            preds = predictions_at_rates(model, x_test, rates)
            out["variants"]["rescale" if rescale else "no_rescale"] = \
                accuracy_table(preds, y_test)
        return out

    raw = cache.get_or_compute(f"ablation_rescale-seed{seed}", compute)
    return raw


def incremental_ablation(cache: ExperimentCache, seed: int = 0) -> dict:
    """Sec. 3.5 computation reuse: cost saved and approximation error.

    An approximate-mode :class:`ResumablePlan` widens a narrow pass of a
    small seeded MLP; the error is against a from-scratch pass at the
    wide rate.  With one hidden layer the widened head's input prefix
    is unchanged (the hidden layer's input is never sliced), so reusing
    ``ya`` is exact up to float rounding; deeper chains drift by the
    paper's ``y~a ~= ya`` approximation.
    """

    def compute() -> dict:
        model = MLP(64, [64], 10, seed=seed)
        x = np.random.default_rng(seed).normal(
            size=(32, 64)).astype(np.float32)
        out: dict = {"pairs": {}}
        for narrow, wide in ((0.25, 0.5), (0.25, 1.0), (0.5, 1.0)):
            plan = ResumablePlan(model, narrow, exact=False)
            plan.run(x)
            before = plan.spent_madds
            approx = plan.widen(wide)
            direct = ResumablePlan(model, wide).run(x)
            out["pairs"][f"{narrow}->{wide}"] = {
                "incremental_madds": int(plan.spent_madds - before),
                "from_scratch_madds": scratch_madds(model, wide, len(x)),
                "max_abs_error": float(np.abs(approx - direct).max()),
            }
        return out

    return cache.get_or_compute(
        f"ablation_incremental_resumable-seed{seed}", compute)
