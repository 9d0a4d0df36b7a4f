"""Differential harness for resumable plans and cascade serving.

The contract under test, layer by layer:

* ``ResumablePlan.widen()`` in exact mode is **bitwise** equal to a
  from-scratch resumable pass — and to the non-folding compiled plan —
  for MLP/NNLM/VGG across non-uniform nested profile chains.
* Widening is order-consistent through nested chains (hypothesis sweep)
  and the FLOPs accounting telescopes analytically in paper mode.
* Row subsetting (the cascade's escalation primitive) is bitwise.
* Stale parameters can never silently resume (regression for the
  ``Parameter.data[...]`` footgun).
* The cascade executor's escalations match a hand-computed oracle on
  the planted easy/hard demo workload — incremental escalation against
  from-scratch resumable passes, the default compiled-plan recompute
  against hand-run compiled plans, both bitwise — the two modes agree
  on this workload's predictions (measured: BLAS and the canonical GEMM
  differ in the last bits, far from any threshold here), recompute
  escalation prices every family exactly as a from-scratch resumable
  pass does, and seeded ``--cascade`` runtime runs produce
  byte-identical traces.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.cluster import CostTable, ProfileCost
from repro.diagnose.demo import train_demo_model
from repro.errors import PlanError, ServingError, SliceRateError
from repro.models import MLP, NNLM, SlicedVGG, TransformerEncoder
from repro.obs.metrics import MetricsRegistry
from repro.runtime import (
    CascadeExecutor,
    CascadeStage,
    FaultPlan,
    InferenceRuntime,
    LatencyProfile,
    Replica,
    ReplicaPool,
    RuntimeConfig,
    margins_of,
)
from repro.serving import CascadeController
from repro.slicing import (
    LayerProfile,
    ResumablePlan,
    compile_plan,
    named_slice_points,
    pointwise_nested,
    scratch_madds,
)
from repro.tensor import Tensor, no_grad


@pytest.fixture(autouse=True)
def _isolated_obs():
    obs.disable()
    obs._registry = MetricsRegistry()
    obs._tracer = obs.Tracer()
    yield
    obs.disable()


@pytest.fixture(scope="module")
def mlp():
    return MLP(in_features=12, hidden=(32, 24), num_classes=5, seed=1)


@pytest.fixture(scope="module")
def nnlm():
    return NNLM(vocab_size=30, embed_dim=8, hidden_size=16,
                num_layers=2, seed=2)


@pytest.fixture(scope="module")
def vgg():
    return SlicedVGG([(16, 1), (32, 1)], in_channels=3, num_classes=4,
                     seed=3)


@pytest.fixture(scope="module")
def demo():
    """One trained demo model (planted easy/hard regions) per module."""
    return train_demo_model(seed=0, epochs=3)


def profile_chain(model, rows):
    """Build LayerProfiles from ``{name: (r0, r1, r2)}``-style rows."""
    names = [name for name, _ in named_slice_points(model)]
    chain = []
    for k in range(len(next(iter(rows.values())))):
        chain.append(LayerProfile(
            {name: rows[name][k] for name in rows if name in names},
            default=min(rows[name][k] for name in rows)))
    return chain


# Three non-uniform nested chains per model (acceptance criterion).
MLP_CHAINS = [
    {"fc0": (0.25, 0.5, 1.0), "fc1": (0.5, 0.5, 0.75),
     "head": (0.25, 0.75, 1.0)},
    {"fc0": (0.125, 0.375, 0.625), "fc1": (0.25, 0.75, 1.0),
     "head": (0.5, 0.5, 1.0)},
    {"fc0": (0.5, 0.75, 0.875), "fc1": (0.125, 0.25, 1.0),
     "head": (0.375, 0.625, 0.75)},
]
NNLM_CHAINS = [
    {"lstm.cell0": (0.25, 0.5, 1.0), "lstm.cell1": (0.5, 0.75, 1.0),
     "decoder": (0.25, 0.5, 0.75)},
    {"lstm.cell0": (0.5, 0.5, 0.75), "lstm.cell1": (0.25, 1.0, 1.0),
     "decoder": (0.375, 0.625, 1.0)},
    {"lstm.cell0": (0.125, 0.625, 0.875), "lstm.cell1": (0.375, 0.5, 0.625),
     "decoder": (0.25, 0.25, 1.0)},
]
VGG_CHAINS = [
    {"conv0": (0.25, 0.5, 1.0), "conv1": (0.5, 0.75, 1.0),
     "head": (0.25, 0.5, 0.75)},
    {"conv0": (0.5, 0.625, 0.875), "conv1": (0.25, 0.25, 1.0),
     "head": (0.375, 0.75, 1.0)},
    {"conv0": (0.125, 0.375, 0.5), "conv1": (0.625, 0.875, 1.0),
     "head": (0.5, 1.0, 1.0)},
]


# ---------------------------------------------------------------------------
class TestExactWidenBitwise:
    """Exact-mode widen == from-scratch, bit for bit, across models."""

    @pytest.mark.parametrize("rows", MLP_CHAINS)
    def test_mlp_chain_bitwise(self, mlp, rng, rows):
        p0, p1, p2 = profile_chain(mlp, rows)
        x = rng.normal(size=(7, 12)).astype(np.float32)
        plan = ResumablePlan(mlp, p0, exact=True)
        plan.run(x)
        plan.widen(p1)
        chained = plan.widen(p2)
        scratch = ResumablePlan(mlp, p2, exact=True).run(x)
        assert np.array_equal(chained, scratch)
        # ... and numerically against the compiled plan (it folds the
        # rescale into its weights and runs BLAS, whose accumulation
        # order differs from the canonical GEMM, so this comparison is
        # to float tolerance, not bitwise).
        compiled = compile_plan(mlp, p2).run(x)
        np.testing.assert_allclose(chained, np.asarray(compiled),
                                   rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("rows", NNLM_CHAINS)
    def test_nnlm_chain_bitwise(self, nnlm, rng, rows):
        p0, p1, p2 = profile_chain(nnlm, rows)
        tokens = rng.integers(0, 30, size=(5, 3))
        plan = ResumablePlan(nnlm, p0, exact=True)
        plan.run(tokens)
        plan.widen(p1)
        chained = plan.widen(p2)
        scratch = ResumablePlan(nnlm, p2, exact=True).run(tokens)
        assert np.array_equal(chained, scratch)

    @pytest.mark.parametrize("rows", VGG_CHAINS)
    def test_vgg_chain_bitwise(self, vgg, rng, rows):
        p0, p1, p2 = profile_chain(vgg, rows)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        plan = ResumablePlan(vgg, p0, exact=True)
        plan.run(x)
        plan.widen(p1)
        chained = plan.widen(p2)
        scratch = ResumablePlan(vgg, p2, exact=True).run(x)
        assert np.array_equal(chained, scratch)

    def test_mlp_matches_live_sliced_forward(self, mlp, rng):
        """The resumable pass tracks the live forward numerically."""
        p0, _, p2 = profile_chain(mlp, MLP_CHAINS[0])
        x = rng.normal(size=(4, 12)).astype(np.float32)
        plan = ResumablePlan(mlp, p0, exact=True)
        plan.run(x)
        widened = plan.widen(p2)
        from repro.slicing import slice_profile
        with no_grad(), slice_profile(p2):
            live = mlp(Tensor(x)).data
        np.testing.assert_allclose(widened, live, rtol=1e-5, atol=1e-6)

    def test_widen_to_same_profile_is_free(self, mlp, rng):
        p0 = profile_chain(mlp, MLP_CHAINS[0])[0]
        x = rng.normal(size=(3, 12)).astype(np.float32)
        plan = ResumablePlan(mlp, p0, exact=True)
        first = plan.run(x)
        again = plan.widen(p0)
        assert np.array_equal(first, again)
        assert plan.last_report and all(r["spent"] == 0
                                        for r in plan.last_report)

    def test_non_nested_widen_rejected(self, mlp, rng):
        x = rng.normal(size=(3, 12)).astype(np.float32)
        plan = ResumablePlan(mlp, 0.5, exact=True)
        plan.run(x)
        with pytest.raises(SliceRateError):
            plan.widen(0.25)
        narrower_fc1 = LayerProfile({"fc0": 1.0, "fc1": 0.25}, default=1.0)
        with pytest.raises(SliceRateError):
            plan.widen(narrower_fc1)

    def test_widen_before_run_rejected(self, mlp):
        with pytest.raises(PlanError):
            ResumablePlan(mlp, 0.5).widen(1.0)

    def test_unsupported_model_rejected(self):
        with pytest.raises(PlanError):
            ResumablePlan(object(), 0.5)

    def test_pointwise_nested_helper(self, mlp):
        assert pointwise_nested(mlp, 0.25, 0.5)
        assert not pointwise_nested(mlp, 0.5, 0.25)
        mixed = LayerProfile({"fc0": 0.25, "fc1": 1.0}, default=0.5)
        assert not pointwise_nested(mlp, mixed,
                                    LayerProfile({"fc0": 0.5, "fc1": 0.75},
                                                 default=0.5))


# ---------------------------------------------------------------------------
GRID = st.integers(min_value=1, max_value=8)
TRIPLE = st.tuples(GRID, GRID, GRID)


class TestPropertySweep:
    """Hypothesis sweep: any nested chain is order-consistent."""

    @given(fc0=TRIPLE, fc1=TRIPLE, head=TRIPLE, batch=st.integers(1, 5))
    def test_random_nested_chain_bitwise(self, mlp, fc0, fc1, head, batch):
        rows = {"fc0": sorted(r / 8 for r in fc0),
                "fc1": sorted(r / 8 for r in fc1),
                "head": sorted(r / 8 for r in head)}
        p0, p1, p2 = profile_chain(mlp, rows)
        x = np.random.default_rng(batch).normal(
            size=(batch, 12)).astype(np.float32)
        plan = ResumablePlan(mlp, p0, exact=True)
        plan.run(x)
        plan.widen(p1)
        chained = plan.widen(p2)
        scratch = ResumablePlan(mlp, p2, exact=True).run(x)
        assert np.array_equal(chained, scratch)
        # Exact mode never spends more than from-scratch would.
        assert plan.flops_saved() >= 0

    @given(fc0=TRIPLE, fc1=TRIPLE, head=TRIPLE)
    def test_paper_mode_flops_telescope(self, mlp, fc0, fc1, head):
        """Approx spend over a chain telescopes to one full pass."""
        rows = {"fc0": sorted(r / 8 for r in fc0),
                "fc1": sorted(r / 8 for r in fc1),
                "head": sorted(r / 8 for r in head)}
        p0, p1, p2 = profile_chain(mlp, rows)
        batch = 4
        x = np.random.default_rng(0).normal(
            size=(batch, 12)).astype(np.float32)
        plan = ResumablePlan(mlp, p0, exact=False)
        plan.run(x)
        plan.widen(p1)
        plan.widen(p2)
        assert plan.spent_madds == scratch_madds(mlp, p2, batch=batch)

    def test_paper_mode_per_layer_analytic_count(self, mlp, rng):
        """Each layer's widen spend is batch*(wb_o*wb_i - wa_o*wa_i)."""
        p0, p1, _ = profile_chain(mlp, MLP_CHAINS[0])
        batch = 6
        x = rng.normal(size=(batch, 12)).astype(np.float32)
        plan = ResumablePlan(mlp, p0, exact=False)
        plan.run(x)

        def widths(profile):
            out = []
            width = mlp.in_features
            for layer in list(mlp.layers) + [mlp.head]:
                out_w = layer.out_partition.width_for(
                    profile.rate_for(layer.slice_point)) \
                    if layer.slice_output else layer.out_features
                out.append((width, out_w))
                width = out_w
            return out

        narrow, wide = widths(p0), widths(p1)
        plan.widen(p1)
        for report, (na_in, na_out), (wi_in, wi_out) in zip(
                plan.last_report, narrow, wide):
            expected = batch * (wi_out * wi_in - na_out * na_in)
            assert report["spent"] == expected

    def test_scratch_madds_matches_executed_full(self, mlp):
        p2 = profile_chain(mlp, MLP_CHAINS[0])[2]
        x = np.zeros((3, 12), dtype=np.float32)
        plan = ResumablePlan(mlp, p2)
        plan.run(x)
        assert plan.spent_madds == scratch_madds(mlp, p2, batch=3)


# ---------------------------------------------------------------------------
class TestSubset:
    def test_subset_widen_bitwise_vs_full_widen(self, mlp, rng):
        x = rng.normal(size=(9, 12)).astype(np.float32)
        plan = ResumablePlan(mlp, 0.25, exact=True)
        plan.run(x)
        rows = np.array([0, 3, 8])
        sub = plan.subset(rows)
        widened = sub.widen(0.75)
        full = ResumablePlan(mlp, 0.25, exact=True)
        full.run(x)
        assert np.array_equal(widened, full.widen(0.75)[rows])

    def test_nested_subsets(self, mlp, rng):
        x = rng.normal(size=(8, 12)).astype(np.float32)
        plan = ResumablePlan(mlp, 0.25, exact=True)
        plan.run(x)
        sub = plan.subset(np.array([1, 4, 6, 7]))
        sub.widen(0.5)
        deeper = sub.subset(np.array([0, 2]))   # rows 1 and 6 of the batch
        widened = deeper.widen(1.0)
        scratch = ResumablePlan(mlp, 1.0, exact=True).run(x[[1, 6]])
        assert np.array_equal(widened, scratch)

    def test_subset_before_run_rejected(self, mlp):
        with pytest.raises(PlanError):
            ResumablePlan(mlp, 0.5).subset([0])

    def test_sequence_model_subset_rejected(self, nnlm, rng):
        tokens = rng.integers(0, 30, size=(4, 3))
        plan = ResumablePlan(nnlm, 0.5)
        plan.run(tokens)
        with pytest.raises(PlanError):
            plan.subset([0])


# ---------------------------------------------------------------------------
class TestStaleness:
    """A mid-cascade weight update must invalidate retained state."""

    def test_mutation_invalidates_widen(self, rng):
        model = MLP(in_features=8, hidden=(16,), num_classes=3, seed=0)
        x = rng.normal(size=(4, 8)).astype(np.float32)
        plan = ResumablePlan(model, 0.5, exact=True)
        plan.run(x)
        with model.layers[0].weight.mutate() as data:
            data[0, 0] += 1.0
        assert not plan.is_valid()
        with pytest.raises(PlanError):
            plan.widen(1.0)
        with pytest.raises(PlanError):
            plan.run(x)

    def test_no_stale_resume_predictions(self, rng):
        """A rebuilt plan sees the new weights; the old one cannot answer."""
        model = MLP(in_features=8, hidden=(16,), num_classes=3, seed=0)
        x = rng.normal(size=(4, 8)).astype(np.float32)
        stale = ResumablePlan(model, 0.5, exact=True)
        stale.run(x)
        with model.head.weight.mutate() as data:
            data += 0.5
        fresh = ResumablePlan(model, 0.5, exact=True)
        fresh_out = fresh.run(x)
        assert not np.array_equal(stale.output, fresh_out)
        with pytest.raises(PlanError):
            stale.widen(1.0)

    def test_mutation_between_cascade_batches(self, demo, rng):
        """Cached stage plans recompile after a mutation."""
        model, data = demo
        stages = [CascadeStage(0.25, 1.0), CascadeStage(1.0)]
        executor = CascadeExecutor(model, stages)
        batch = data["eval_x"][:16].astype(np.float32)
        before = executor.run_batch(batch).predictions
        with model.head.bias.mutate() as values:
            values += 10.0   # push every logit; predictions survive argmax
        after = executor.run_batch(batch).predictions
        assert np.array_equal(before, after)  # +const doesn't move argmax
        with model.head.weight.mutate() as values:
            values[:] = -values
        flipped = executor.run_batch(batch).predictions
        assert not np.array_equal(before, flipped)
        assert executor.plans.invalidations > 0


# ---------------------------------------------------------------------------
class TestMargins:
    def test_margin_is_top1_minus_top2(self):
        logits = np.array([[0.1, 2.0, -1.0], [5.0, 5.0, 1.0]])
        np.testing.assert_allclose(margins_of(logits), [1.9, 0.0])

    def test_single_class_rejected(self):
        with pytest.raises(ServingError):
            margins_of(np.zeros((3, 1)))


class TestCascadeExecutor:
    def stages(self, t0=1.0, t1=1.0):
        return [CascadeStage(0.25, t0), CascadeStage(0.5, t1),
                CascadeStage(1.0)]

    @staticmethod
    def hand_cascade(x, run):
        """Hand-compute the cascade; ``run(rate, rows)`` answers a stage."""
        logits = run(0.25, x)
        preds = np.argmax(logits, axis=-1)
        stage = np.zeros(len(x), dtype=int)
        rows = np.arange(len(x))
        escalations = []
        for k, rate in enumerate([0.5, 1.0], start=1):
            unsure = margins_of(logits) < 1.0
            rows = rows[unsure]
            if not len(rows):
                break
            escalations.append((k - 1, k, len(rows)))
            logits = run(rate, x[rows])
            preds[rows] = np.argmax(logits, axis=-1)
            stage[rows] = k
        return preds, stage, escalations

    def test_escalations_match_from_scratch_oracle(self, demo):
        """Hand-compute the cascade from independent from-scratch plans."""
        model, data = demo
        x = data["eval_x"][:96].astype(np.float32)
        executor = CascadeExecutor(model, self.stages(), incremental=True)
        result = executor.run_batch(x)
        preds, stage, escalations = self.hand_cascade(
            x, lambda rate, rows: ResumablePlan(model, rate).run(rows))
        assert result.escalations == escalations
        assert np.array_equal(result.stages, stage)
        assert np.array_equal(result.predictions, preds)

    def test_compiled_escalations_match_hand_run_plans(self, demo):
        """The default path is a hand-run compiled-plan cascade, bitwise."""
        model, data = demo
        x = data["eval_x"][:96].astype(np.float32)
        result = CascadeExecutor(model, self.stages()).run_batch(x)
        preds, stage, escalations = self.hand_cascade(
            x, lambda rate, rows: compile_plan(model, rate).run(rows))
        assert escalations   # planted hard rows escalate
        assert result.escalations == escalations
        assert np.array_equal(result.stages, stage)
        assert np.array_equal(result.predictions, preds)

    def test_incremental_and_recompute_predictions_identical(self, demo):
        model, data = demo
        x = data["eval_x"][:64].astype(np.float32)
        incremental = CascadeExecutor(model, self.stages(),
                                      incremental=True).run_batch(x)
        recompute = CascadeExecutor(model, self.stages(),
                                    incremental=False).run_batch(x)
        assert np.array_equal(incremental.predictions,
                              recompute.predictions)
        assert np.array_equal(incremental.stages, recompute.stages)
        assert incremental.escalated_rows > 0   # planted hard rows escalate
        # Incremental escalation is strictly cheaper than recompute.
        assert incremental.spent_madds < recompute.spent_madds
        assert incremental.flops_saved > 0
        assert recompute.flops_saved == 0

    @pytest.mark.parametrize("build, row_shape", [
        (lambda: MLP(in_features=12, hidden=(32, 24), num_classes=5,
                     seed=1), (12,)),
        (lambda: SlicedVGG.cifar_mini(seed=0), (3, 16, 16)),
        (lambda: TransformerEncoder(seed=0), (3, 16, 16)),
    ], ids=["mlp", "gn-vgg", "tenc"])
    def test_recompute_madds_match_from_scratch_passes(self, build,
                                                       row_shape):
        """Per stage: spent == full == a from-scratch resumable pass."""
        model = build()
        model.eval()
        x = np.random.default_rng(0).normal(
            size=(5,) + row_shape).astype(np.float32)
        executor = CascadeExecutor(model, self.stages(t0=1e9, t1=1e9))
        for _ in range(2):   # the per-row cache must not change counts
            result = executor.run_batch(x)
            assert result.stage_rows == [5, 5, 5]
            for k, rate in enumerate([0.25, 0.5, 1.0]):
                plan = ResumablePlan(model, rate)
                plan.run(x)
                assert result.stage_spent[k] == plan.scratch_madds
                assert result.stage_full[k] == plan.scratch_madds

    def test_high_threshold_escalates_everything(self, demo):
        model, data = demo
        x = data["eval_x"][:16].astype(np.float32)
        result = CascadeExecutor(
            model, self.stages(t0=1e9, t1=1e9)).run_batch(x)
        assert result.stage_rows == [16, 16, 16]
        assert (result.stages == 2).all()

    def test_zero_threshold_never_escalates(self, demo):
        model, data = demo
        x = data["eval_x"][:16].astype(np.float32)
        result = CascadeExecutor(
            model, self.stages(t0=0.0, t1=0.0)).run_batch(x)
        assert result.escalations == []
        assert (result.stages == 0).all()
        assert result.flops_saved == 0

    def test_service_seconds_scales_with_spent_fraction(self, demo):
        model, data = demo
        x = data["eval_x"][:64].astype(np.float32)
        latency = LatencyProfile(full_per_sample=0.002)
        executor = CascadeExecutor(model, self.stages(), incremental=True)
        result = executor.run_batch(x)
        expected = 0.0
        for stage, rows, spent, full in zip(executor.stages,
                                            result.stage_rows,
                                            result.stage_spent,
                                            result.stage_full):
            if rows:
                expected += rows * latency.per_sample(stage.rate) \
                    * (spent / full)
        assert executor.service_seconds(result, latency) \
            == pytest.approx(expected)
        recompute = CascadeExecutor(model, self.stages(),
                                    incremental=False)
        slower = recompute.service_seconds(recompute.run_batch(x), latency)
        assert executor.service_seconds(result, latency) < slower

    def test_calibrate_returns_per_stage_exit_accuracy(self, demo):
        model, data = demo
        x = data["eval_x"].astype(np.float32)
        executor = CascadeExecutor(model, self.stages())
        accuracy = executor.calibrate(x, data["eval_y"])
        assert set(accuracy) == {0.25, 0.5, 1.0}
        assert all(0.0 <= a <= 1.0 for a in accuracy.values())
        result = executor.run_batch(x)
        exits = result.stages == 0
        manual = float(np.mean(
            result.predictions[exits] == data["eval_y"][exits]))
        assert accuracy[0.25] == pytest.approx(manual)

    def test_stage_validation(self, demo):
        model, _ = demo
        with pytest.raises(ServingError):
            CascadeExecutor(model, [CascadeStage(1.0)])
        with pytest.raises(ServingError):   # missing threshold mid-chain
            CascadeExecutor(model, [CascadeStage(0.25),
                                    CascadeStage(1.0)])
        with pytest.raises(ServingError):   # not nested
            CascadeExecutor(model, [CascadeStage(0.5, 1.0),
                                    CascadeStage(0.25)])

    def test_result_to_dict_round_trip(self, demo):
        model, data = demo
        x = data["eval_x"][:32].astype(np.float32)
        result = CascadeExecutor(model, self.stages()).run_batch(x)
        exported = result.to_dict()
        assert exported["rows"] == 32
        assert sum(exported["exits_per_stage"]) == 32
        assert exported["spent_madds"] + exported["flops_saved"] \
            == exported["recompute_madds"]


# ---------------------------------------------------------------------------
class TestCascadeController:
    def controller(self, **kwargs):
        rates = [0.25, 0.5, 1.0]
        cost = {r: 0.002 * r * r for r in rates}
        return CascadeController(rates, cost, latency_slo=0.1, **kwargs)

    def test_choose_returns_floor_rate(self):
        controller = self.controller()
        assert controller.choose(4) == 0.25
        assert controller.choose(0) is None

    def test_worst_case_budgeting(self):
        controller = self.controller()
        # Worst case: every request runs all three stages.
        expected = sum(0.002 * r * r for r in [0.25, 0.5, 1.0])
        assert controller.per_sample_cost() == pytest.approx(expected)
        assert controller.max_batch() == int(0.05 / expected)
        assert controller.choose(controller.max_batch()) == 0.25
        assert controller.choose(controller.max_batch() + 1) is None

    def test_reach_fractions_discount_cost(self):
        optimistic = self.controller(reach_fractions=[1.0, 0.3, 0.1])
        assert optimistic.per_sample_cost() \
            < self.controller().per_sample_cost()
        assert optimistic.max_batch() > self.controller().max_batch()

    def test_downgrade_returns_floor(self):
        controller = self.controller()
        assert controller.downgrade(1.0) == 0.25
        assert controller.downgrade(0.25) == 0.25

    def test_validation(self):
        cost = {0.25: 0.001, 1.0: 0.002}
        with pytest.raises(ServingError):
            CascadeController([0.25], {0.25: 0.001}, 0.1)
        with pytest.raises(ServingError):   # not cheapest-first
            CascadeController([1.0, 0.25], cost, 0.1)
        with pytest.raises(ServingError):   # increasing reach
            CascadeController([0.25, 1.0], cost, 0.1,
                              reach_fractions=[1.0, 1.2])
        with pytest.raises(ServingError):   # must start at 1.0
            CascadeController([0.25, 1.0], cost, 0.1,
                              reach_fractions=[0.5, 0.5])
        with pytest.raises(ServingError):   # missing stage cost
            CascadeController([0.25, 0.5], {0.25: 0.001}, 0.1)


# ---------------------------------------------------------------------------
def build_runtime(model, data, thresholds=(1.0, 1.0), replicas=2,
                  fault_plan=None):
    rates = [0.25, 0.5, 1.0]
    stages = [CascadeStage(r, t) for r, t in zip(rates[:-1], thresholds)]
    stages.append(CascadeStage(rates[-1]))
    executor = CascadeExecutor(model, stages, incremental=True)
    cost = {r: 0.002 * r * r for r in rates}
    controller = CascadeController(rates, cost, latency_slo=0.1)
    pool = ReplicaPool(
        [Replica(f"r{i}", LatencyProfile(0.002), model=model)
         for i in range(replicas)], seed=0)
    config = RuntimeConfig(latency_slo=0.1, max_batch_size=64, seed=0)
    inputs = data["eval_x"].astype(np.float32)
    runtime = InferenceRuntime(
        pool, controller, config,
        executor.calibrate(inputs, data["eval_y"]),
        fault_plan=fault_plan, inputs=inputs, labels=data["eval_y"],
        cascade=executor)
    return runtime, executor


class TestCascadeRuntime:
    def arrivals(self, n=200, horizon=2.0, seed=0):
        return np.sort(np.random.default_rng(seed).uniform(0, horizon, n))

    def test_all_requests_complete_and_carry_stages(self, demo):
        model, data = demo
        runtime, _ = build_runtime(model, data)
        report = runtime.run(self.arrivals(), duration=4.0)
        assert report.outcome_counts()["completed"] == 200
        assert all(t.stage is not None for t in report.completed)
        assert all(t.rate == [0.25, 0.5, 1.0][t.stage]
                   for t in report.completed)
        assert report.escalation_fraction is not None
        histogram = report.stage_histogram()
        assert sum(histogram.values()) == 200

    def test_escalation_counters_match_trace_oracle(self, demo):
        """cascade_escalations_total == per-stage reach from the traces."""
        model, data = demo
        obs.configure(clock=obs.TickClock())
        runtime, _ = build_runtime(model, data)
        report = runtime.run(self.arrivals(), duration=4.0)
        counter = obs.registry().get("cascade_escalations_total")
        reach1 = sum(1 for t in report.completed if t.stage >= 1)
        reach2 = sum(1 for t in report.completed if t.stage >= 2)
        assert counter.value(**{"from": "0.25", "to": "0.5"}) == reach1
        assert counter.value(**{"from": "0.5", "to": "1"}) == reach2
        saved = obs.registry().get("cascade_flops_saved_total")
        assert saved.total() > 0
        obs.shutdown(write_metrics=False)

    def test_expected_accuracy_uses_stage_rate(self, demo):
        model, data = demo
        runtime, executor = build_runtime(model, data)
        inputs = data["eval_x"].astype(np.float32)
        calibrated = executor.calibrate(inputs, data["eval_y"])
        report = runtime.run(self.arrivals(50), duration=4.0)
        for trace in report.completed:
            assert trace.expected_accuracy == pytest.approx(
                calibrated[[0.25, 0.5, 1.0][trace.stage]])

    def test_cascade_requires_inputs(self, demo):
        model, data = demo
        runtime, executor = build_runtime(model, data)
        with pytest.raises(ServingError):
            InferenceRuntime(runtime.pool, runtime.controller,
                             runtime.config, {1.0: 0.9},
                             cascade=executor)

    def test_seeded_runs_produce_byte_identical_traces(self, demo,
                                                       tmp_path):
        model, data = demo
        contents = []
        for name in ("a", "b"):
            path = tmp_path / f"trace_{name}.jsonl"
            obs.configure(trace_path=str(path), clock=obs.TickClock())
            runtime, _ = build_runtime(model, data)
            runtime.run(self.arrivals(), duration=4.0)
            obs.shutdown()
            contents.append(path.read_bytes())
        assert contents[0] == contents[1]

    def test_crash_mid_run_retries_through_cascade(self, demo):
        model, data = demo
        runtime, _ = build_runtime(
            model, data, fault_plan=FaultPlan.single_crash("r0", 0.5))
        report = runtime.run(self.arrivals(), duration=6.0)
        outcomes = report.outcome_counts()
        assert outcomes["completed"] > 0
        # Completed retries still carry coherent cascade stages.
        assert all(t.stage in (0, 1, 2) for t in report.completed)


# ---------------------------------------------------------------------------
class TestCostTableCascade:
    def table(self):
        entries = [
            ProfileCost(profile=0.25, per_sample_s=0.000125, accuracy=0.7,
                        flops=1e5, param_bytes=1e4, activation_bytes=1e3),
            ProfileCost(profile=0.5, per_sample_s=0.0005, accuracy=0.85,
                        flops=4e5, param_bytes=4e4, activation_bytes=2e3),
            ProfileCost(profile=1.0, per_sample_s=0.002, accuracy=0.95,
                        flops=1.6e6, param_bytes=1.6e5,
                        activation_bytes=4e3),
        ]
        return CostTable(entries)

    def test_cascade_controller_from_table(self):
        controller = self.table().cascade_controller(latency_slo=0.1)
        assert [float(r) for r in controller.rates] == [0.25, 0.5, 1.0]
        assert controller.choose(1) is not None

    def test_cascade_summary_worst_case(self):
        summary = self.table().cascade_summary()
        # Worst case: every request pays every stage; everything exits
        # at the terminal stage.
        assert summary["per_sample_s"] == pytest.approx(
            0.000125 + 0.0005 + 0.002)
        assert summary["exit_fractions"] == [0.0, 0.0, 1.0]
        assert summary["expected_accuracy"] == pytest.approx(0.95)

    def test_cascade_summary_with_fractions(self):
        summary = self.table().cascade_summary(
            reach_fractions=[1.0, 0.4, 0.1],
            incremental_fractions=[1.0, 0.8, 0.9])
        assert summary["exit_fractions"] == pytest.approx([0.6, 0.3, 0.1])
        expected_s = (1.0 * 0.000125 * 1.0 + 0.4 * 0.0005 * 0.8
                      + 0.1 * 0.002 * 0.9)
        assert summary["per_sample_s"] == pytest.approx(expected_s)
        blended = 0.6 * 0.7 + 0.3 * 0.85 + 0.1 * 0.95
        assert summary["expected_accuracy"] == pytest.approx(blended)

    def test_cascade_summary_validation(self):
        with pytest.raises(ServingError):
            self.table().cascade_summary(stage_profiles=[0.25])
        with pytest.raises(ServingError):
            self.table().cascade_summary(reach_fractions=[1.0, 0.2])
        with pytest.raises(ServingError):
            self.table().cascade_summary(reach_fractions=[1.0, 0.2, 0.5])
