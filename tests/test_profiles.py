"""Per-layer SliceProfile tests: semantics, equivalence, search, serving.

Four guarantees are pinned down here:

1. **Value semantics** — profiles are immutable value objects whose
   uniform degenerate case interoperates with plain float rates
   (equality, hashing, ordering, formatting), so every pre-profile
   rate-keyed table keeps working.
2. **Uniform equivalence** — running under ``UniformProfile(r)`` is
   *bitwise identical* to the old scalar ``slice_rate(r)`` path, for
   forwards and full training steps (fast path on and off).
3. **Non-uniform correctness** — compiled plans, live forwards, and
   materialized deployments agree for genuinely per-layer profiles, and
   pointwise-ordered profiles preserve the Eq. 2 prefix nesting.
4. **Search and serving** — the greedy budget search returns feasible
   profiles (with its obs accounting), and profiles flow through the
   plan cache, replicas, controllers, and telemetry.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.cli import build_parser, main
from repro.errors import BudgetError, ServingError, SliceRateError
from repro.metrics.flops import active_params, measured_flops
from repro.models import (MLP, NNLM, SlicedResNet, SlicedVGG,
                          TransformerEncoder, TransformerLM)
from repro.models.transformer import head_ffn_profile
from repro.optim import SGD
from repro.runtime.replica import LatencyProfile, Replica
from repro.serving import (
    ProfileTableController,
    accuracy_for_rate,
    measured_accuracy_table,
)
from repro.slicing import (
    LayerProfile,
    PlanCache,
    ProfileScheme,
    SliceContext,
    SliceTrainer,
    StaticScheme,
    UniformProfile,
    as_profile,
    compile_plan,
    current_profile,
    current_rate,
    materialize_subnet,
    search_profile_for_budget,
    slice_profile,
    slice_rate,
    uniform_rate_for_budget,
    width_slice_points,
)
from repro.slicing.budget import ProfileSearchResult
from repro.slicing.trainer import EpochRecord
from repro.tensor import Tensor, no_grad

RATES = [0.25, 0.5, 0.75, 1.0]


def _arg(x):
    arr = np.asarray(x)
    return arr if arr.dtype.kind in "iu" else Tensor(x)


def _forward(model, x, context):
    model.eval()
    with no_grad(), context:
        return model(_arg(x)).data.copy()


# ----------------------------------------------------------------------
# Value semantics and float interoperability
# ----------------------------------------------------------------------
class TestProfileValues:
    def test_uniform_equals_and_hashes_like_its_rate(self):
        p = UniformProfile(0.5)
        assert p == 0.5 and 0.5 == p
        assert hash(p) == hash(0.5)
        table = {0.25: "a", 0.5: "b"}
        assert table[p] == "b"            # profile key hits float entry
        assert {p: "x"}[0.5] == "x"        # float key hits profile entry

    def test_uniform_float_and_label(self):
        p = UniformProfile(0.75)
        assert float(p) == 0.75
        assert f"{p:g}" == "0.75"
        assert p.rate_for("anything") == 0.75
        assert p.rate_for(None) == 0.75

    def test_layer_profile_resolution_and_default(self):
        p = LayerProfile({"fc0": 0.25, "fc1": 0.75}, default=0.5)
        assert p.rate_for("fc0") == 0.25
        assert p.rate_for("fc1") == 0.75
        assert p.rate_for("unknown") == 0.5
        assert p.rate_for(None) == 0.5
        assert not p.uniform

    def test_all_default_layer_profile_canonicalizes_to_uniform(self):
        p = LayerProfile({"fc0": 0.5, "fc1": 0.5}, default=0.5)
        assert p.uniform
        assert p.fingerprint() == UniformProfile(0.5).fingerprint()
        assert p == UniformProfile(0.5) == 0.5
        assert hash(p) == hash(0.5)

    def test_fingerprint_is_order_independent(self):
        a = LayerProfile({"fc0": 0.25, "fc1": 0.75})
        b = LayerProfile({"fc1": 0.75, "fc0": 0.25})
        assert a.fingerprint() == b.fingerprint()
        assert a == b and hash(a) == hash(b)

    def test_non_uniform_never_equals_a_scalar(self):
        p = LayerProfile({"fc0": 0.25, "fc1": 0.75})
        assert p != float(p)
        assert p != 0.5

    def test_ordering_mixes_floats_and_profiles(self):
        items = [1.0, UniformProfile(0.25),
                 LayerProfile({"a": 0.5, "b": 1.0}), 0.5]
        ordered = sorted(items)
        assert [float(x) for x in ordered] == [0.25, 0.5, 0.75, 1.0]

    def test_label_is_short_and_stable(self):
        p = LayerProfile({"fc0": 0.25, "fc1": 0.75})
        assert p.label().startswith("prof:")
        assert p.label() == LayerProfile({"fc1": 0.75, "fc0": 0.25}).label()
        assert f"{p:g}" == p.label()

    def test_with_rate_copies(self):
        p = LayerProfile({"fc0": 0.25})
        q = p.with_rate("fc0", 0.5)
        assert p.rate_for("fc0") == 0.25 and q.rate_for("fc0") == 0.5

    def test_pointwise_leq(self):
        low = LayerProfile({"a": 0.25, "b": 0.5})
        high = LayerProfile({"a": 0.5, "b": 0.5})
        assert low.pointwise_leq(high)
        assert not high.pointwise_leq(low)
        # Mean-ordered but not pointwise-ordered:
        crossed = LayerProfile({"a": 1.0, "b": 0.25})
        assert not low.pointwise_leq(crossed)

    def test_as_profile_coercions(self):
        assert isinstance(as_profile(0.5), UniformProfile)
        assert isinstance(as_profile({"fc0": 0.5}), LayerProfile)
        p = LayerProfile({"fc0": 0.5})
        assert as_profile(p) is p
        with pytest.raises(SliceRateError):
            as_profile("0.5")

    def test_invalid_rates_rejected(self):
        with pytest.raises(SliceRateError):
            UniformProfile(0.0)
        with pytest.raises(SliceRateError):
            LayerProfile({"fc0": 1.5})
        with pytest.raises(SliceRateError):
            LayerProfile({"fc0": 0.5}, default=-1.0)


class TestContext:
    def test_default_profile_is_full_width(self):
        assert current_rate() == 1.0
        assert current_profile() == UniformProfile(1.0)

    def test_slice_profile_nests(self):
        p = LayerProfile({"fc0": 0.25}, default=0.5)
        with slice_profile(p):
            assert current_profile() is p
            assert current_rate() == 0.5
            with slice_rate(0.75):
                assert current_rate() == 0.75
            assert current_profile() is p
        assert current_rate() == 1.0

    def test_slice_context_wrapper_is_module_api(self):
        """The legacy SliceContext facade delegates to the module API."""
        assert SliceContext.get() == current_rate()
        with SliceContext.at(0.5):
            assert current_rate() == 0.5
        with SliceContext.at_profile({"fc0": 0.25}):
            assert current_profile().rate_for("fc0") == 0.25

    def test_slice_profile_accepts_mappings_and_floats(self):
        with slice_profile({"fc0": 0.5}):
            assert current_profile().rate_for("fc0") == 0.5
        with slice_profile(0.25):
            assert current_rate() == 0.25


# ----------------------------------------------------------------------
# Eq. 2 nesting across pointwise-ordered profiles (property tests)
# ----------------------------------------------------------------------
_NEST_MODEL = MLP(12, [16, 16], 6, num_groups=4, seed=0)


class TestMonotoneNesting:
    @given(a0=st.sampled_from(RATES), a1=st.sampled_from(RATES),
           b0=st.sampled_from(RATES), b1=st.sampled_from(RATES))
    def test_plan_weights_nest_pointwise(self, a0, a1, b0, b1):
        """Eq. 2 per layer: the narrow profile's compiled weights are an
        exact prefix of the wide profile's, layer by layer."""
        low = LayerProfile({"fc0": min(a0, b0), "fc1": min(a1, b1)})
        high = LayerProfile({"fc0": max(a0, b0), "fc1": max(a1, b1)})
        assert low.pointwise_leq(high)
        plan_low = compile_plan(_NEST_MODEL, low)
        plan_high = compile_plan(_NEST_MODEL, high)
        for narrow, wide in zip(plan_low.steps, plan_high.steps):
            out_w, in_w = narrow.weight.shape
            np.testing.assert_array_equal(narrow.weight,
                                          wide.weight[:out_w, :in_w])

    @given(a0=st.sampled_from(RATES), a1=st.sampled_from(RATES),
           b0=st.sampled_from(RATES), b1=st.sampled_from(RATES))
    def test_active_params_monotone_pointwise(self, a0, a1, b0, b1):
        low = LayerProfile({"fc0": min(a0, b0), "fc1": min(a1, b1)})
        high = LayerProfile({"fc0": max(a0, b0), "fc1": max(a1, b1)})
        assert active_params(_NEST_MODEL, low) \
            <= active_params(_NEST_MODEL, high)

    @given(r=st.sampled_from(RATES))
    def test_uniform_profile_matches_scalar_accounting(self, r):
        assert active_params(_NEST_MODEL, UniformProfile(r)) \
            == active_params(_NEST_MODEL, r)
        assert measured_flops(_NEST_MODEL, (2, 12), rate=UniformProfile(r)) \
            == measured_flops(_NEST_MODEL, (2, 12), rate=r)


# ----------------------------------------------------------------------
# Uniform equivalence: UniformProfile(r) is bitwise the scalar path
# ----------------------------------------------------------------------
class TestUniformBitwiseEquivalence:
    @pytest.mark.parametrize("rate", RATES)
    def test_mlp_forward(self, rng, rate):
        model = MLP(12, [16, 16], 6, num_groups=4, seed=0)
        x = rng.normal(size=(5, 12)).astype(np.float32)
        np.testing.assert_array_equal(
            _forward(model, x, slice_rate(rate)),
            _forward(model, x, slice_profile(UniformProfile(rate))))

    @pytest.mark.parametrize("rate", RATES)
    def test_vgg_groupnorm_forward(self, rng, rate):
        model = SlicedVGG.cifar_mini(num_classes=4, width=8, stages=2,
                                     num_groups=4, seed=0)
        x = rng.normal(size=(3, 3, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(
            _forward(model, x, slice_rate(rate)),
            _forward(model, x, slice_profile(UniformProfile(rate))))

    @pytest.mark.parametrize("rate", RATES)
    def test_nnlm_forward(self, rng, rate):
        model = NNLM(vocab_size=20, embed_dim=8, hidden_size=8,
                     num_groups=4, seed=0)
        tokens = rng.integers(0, 20, size=(5, 3))
        np.testing.assert_array_equal(
            _forward(model, tokens, slice_rate(rate)),
            _forward(model, tokens, slice_profile(UniformProfile(rate))))

    @pytest.mark.parametrize("fast_path", [False, True])
    @pytest.mark.parametrize("model_kind", ["mlp", "vgg"])
    def test_training_step_bitwise(self, rng, model_kind, fast_path):
        """One Algorithm-1 step scheduled as floats vs uniform profiles
        leaves bitwise-identical weights (fast path on and off)."""
        def build(scheme):
            if model_kind == "mlp":
                model = MLP(12, [16, 16], 6, num_groups=4, seed=0)
            else:
                model = SlicedVGG.cifar_mini(num_classes=4, width=8,
                                             stages=2, num_groups=4, seed=0)
            trainer = SliceTrainer(
                model, scheme, SGD(model.parameters(), lr=0.1),
                rng=np.random.default_rng(7), fast_path=fast_path)
            return model, trainer

        if model_kind == "mlp":
            x = rng.normal(size=(6, 12)).astype(np.float32)
        else:
            x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 4, size=len(x))

        scalar_model, scalar_trainer = build(StaticScheme(RATES))
        profile_model, profile_trainer = build(
            ProfileScheme([UniformProfile(r) for r in RATES]))
        scalar_losses = scalar_trainer.train_batch(x, y)
        profile_losses = profile_trainer.train_batch(x, y)

        assert {float(k): v for k, v in scalar_losses.items()} \
            == {float(k): v for k, v in profile_losses.items()}
        scalar_params = dict(scalar_model.state_dict())
        for name, value in profile_model.state_dict().items():
            np.testing.assert_array_equal(
                value, scalar_params[name],
                err_msg=f"parameter {name} diverged")

    @pytest.mark.parametrize("fast_path", [False, True])
    def test_nnlm_training_step_bitwise(self, rng, fast_path):
        tokens = rng.integers(0, 20, size=(4, 3))
        targets = rng.integers(0, 20, size=(4, 3))

        def step(contexts):
            model = NNLM(vocab_size=20, embed_dim=8, hidden_size=8,
                         num_groups=4, seed=0)
            model.train()
            optimizer = SGD(model.parameters(), lr=0.1)
            optimizer.zero_grad()
            for context in contexts:
                with context:
                    model.sequence_nll(tokens, targets).backward()
            optimizer.step()
            return model.state_dict()

        scalar = step([slice_rate(r) for r in RATES])
        profiled = step([slice_profile(UniformProfile(r)) for r in RATES])
        for name, value in profiled.items():
            np.testing.assert_array_equal(value, scalar[name],
                                          err_msg=f"parameter {name}")


# ----------------------------------------------------------------------
# Non-uniform differential: plan vs live vs materialized
# ----------------------------------------------------------------------
MLP_PROFILES = [
    LayerProfile({"fc0": 0.25, "fc1": 0.75}),
    LayerProfile({"fc0": 1.0, "fc1": 0.5}),
    LayerProfile({"fc0": 0.5, "fc1": 0.75}, default=0.5),
]
VGG_PROFILES = [
    LayerProfile({"conv0": 0.5, "conv2": 0.75}),
    LayerProfile({"conv0": 0.25, "conv1": 0.5, "conv2": 1.0, "conv3": 0.5}),
    LayerProfile({"conv1": 0.75, "conv3": 0.25}),
]
NNLM_PROFILES = [
    LayerProfile({"lstm.cell0": 0.5, "lstm.cell1": 1.0}),
    LayerProfile({"lstm.cell0": 1.0, "lstm.cell1": 0.25}),
    LayerProfile({"lstm.cell0": 0.75, "lstm.cell1": 0.5}),
]
# Each multi-BN norm must run at its conv's rate, one it has a branch for.
MULTI_BN_PROFILES = [
    LayerProfile({"conv0": 0.5, "norm0": 0.5, "conv2": 0.5, "norm2": 0.5}),
    LayerProfile({"conv1": 0.5, "norm1": 0.5, "conv3": 0.5, "norm3": 0.5}),
]
# (head rate, FFN rate, residual rate): a residual rate below 1 slices
# the positional table.
TRANSFORMER_PROFILES = [(0.5, 1.0, 0.5), (1.0, 0.25, 0.75), (0.75, 0.5, 1.0)]


class TestNonUniformDifferential:
    def _assert_three_way(self, model, x, profile, rtol=1e-4, atol=1e-5):
        model.eval()
        live = _forward(model, x, slice_profile(profile))
        plan = compile_plan(model, profile)
        assert plan.profile == profile
        assert plan.rate is None  # no single scalar describes the plan
        np.testing.assert_allclose(plan.run(np.asarray(x)), live,
                                   rtol=rtol, atol=atol,
                                   err_msg=f"plan vs live {profile}")
        deployed = materialize_subnet(model, profile)
        deployed.eval()
        with no_grad():
            deployed_out = deployed(_arg(x)).data
        np.testing.assert_allclose(deployed_out, live, rtol=rtol, atol=atol,
                                   err_msg=f"deployed vs live {profile}")
        # One size everywhere: the count, the artifact and the plan.
        assert active_params(model, profile) == deployed.num_parameters() \
            == plan.param_bytes() // 4

    @pytest.mark.parametrize("profile", MLP_PROFILES, ids=str)
    def test_mlp(self, rng, profile):
        model = MLP(12, [16, 16], 6, num_groups=4, seed=0)
        x = rng.normal(size=(5, 12)).astype(np.float32)
        self._assert_three_way(model, x, profile)

    @pytest.mark.parametrize("profile", VGG_PROFILES, ids=str)
    def test_vgg_groupnorm(self, rng, profile):
        model = SlicedVGG.cifar_mini(num_classes=4, width=8, stages=2,
                                     num_groups=4, seed=0)
        x = rng.normal(size=(3, 3, 8, 8)).astype(np.float32)
        self._assert_three_way(model, x, profile)

    @pytest.mark.parametrize("profile", NNLM_PROFILES, ids=str)
    def test_nnlm(self, rng, profile):
        model = NNLM(vocab_size=20, embed_dim=8, hidden_size=8,
                     num_groups=4, seed=0)
        tokens = rng.integers(0, 20, size=(5, 3))
        self._assert_three_way(model, tokens, profile,
                               rtol=1e-3, atol=1e-4)

    @pytest.mark.parametrize("profile", MULTI_BN_PROFILES, ids=str)
    def test_vgg_multi_bn(self, rng, profile):
        rates = [0.5, 1.0]
        model = SlicedVGG.cifar_mini(num_classes=4, width=8, stages=2,
                                     num_groups=4, norm="multi_bn",
                                     rates=rates, seed=0)
        model.train()
        for rate in rates:  # populate per-rate running statistics
            with slice_rate(rate):
                model(Tensor(rng.normal(
                    size=(4, 3, 8, 8)).astype(np.float32)))
        x = rng.normal(size=(3, 3, 8, 8)).astype(np.float32)
        self._assert_three_way(model, x, profile)

    @pytest.mark.parametrize("family,profile", [
        ("vgg", LayerProfile({"conv0": 0.5})),
        ("resnet", LayerProfile({"blocks.0.conv1": 0.5})),
    ], ids=["vgg-conv0", "resnet-conv1"])
    def test_multi_bn_runs_at_the_arriving_width(self, rng, family, profile):
        # Only the conv is named: its norm keeps the default rate 1.0
        # but must pick the BN of the width the conv emits, on the live
        # forward as in the plan and the deployed subnet.
        rates = [0.5, 1.0]
        kwargs = dict(num_classes=4, num_groups=4, norm="multi_bn",
                      rates=rates, seed=0)
        model = SlicedVGG.cifar_mini(width=8, stages=2, **kwargs) \
            if family == "vgg" else SlicedResNet.cifar_mini(**kwargs)
        model.train()
        for rate in rates:  # populate per-rate running statistics
            with slice_rate(rate):
                model(Tensor(rng.normal(
                    size=(4, 3, 8, 8)).astype(np.float32)))
        x = rng.normal(size=(3, 3, 8, 8)).astype(np.float32)
        self._assert_three_way(model, x, profile)

    @pytest.mark.parametrize("rates", TRANSFORMER_PROFILES, ids=str)
    def test_tenc(self, rng, rates):
        model = TransformerEncoder(image_size=8, patch_size=4, channels=3,
                                   num_classes=5, embed_dim=32, num_heads=4,
                                   ffn_dim=64, depth=2, seed=3)
        x = rng.normal(size=(3, 3, 8, 8)).astype(np.float32)
        self._assert_three_way(model, x, head_ffn_profile(model, *rates))

    @pytest.mark.parametrize("rates", TRANSFORMER_PROFILES, ids=str)
    def test_tlm(self, rng, rates):
        model = TransformerLM(61, embed_dim=32, num_heads=4, ffn_dim=64,
                              depth=2, max_seq=16, seed=5)
        tokens = rng.integers(0, 61, size=(10, 3))
        self._assert_three_way(model, tokens, head_ffn_profile(model, *rates))


# ----------------------------------------------------------------------
# Plan cache keyed by profile fingerprint
# ----------------------------------------------------------------------
class TestPlanCacheProfiles:
    def test_uniform_profile_shares_entry_with_scalar(self):
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        cache = PlanCache()
        plan = cache.get(model, 0.5)
        assert cache.get(model, UniformProfile(0.5)) is plan
        assert cache.get(model, LayerProfile({"fc0": 0.5}, default=0.5)) \
            is plan
        assert cache.hits == 2 and cache.misses == 1

    def test_distinct_profiles_compile_separately(self):
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        cache = PlanCache()
        a = cache.get(model, LayerProfile({"fc0": 0.5}))
        b = cache.get(model, LayerProfile({"fc0": 0.25}))
        assert a is not b and len(cache) == 2
        assert cache.profile_keys() == 2

    def test_profile_keys_counts_fingerprints_not_entries(self):
        a = MLP(8, [8], 3, num_groups=4, seed=0)
        b = MLP(8, [8], 3, num_groups=4, seed=1)
        cache = PlanCache()
        cache.get(a, 0.5)
        cache.get(b, 0.5)       # same fingerprint, different model
        cache.get(a, 1.0)
        assert len(cache) == 3 and cache.profile_keys() == 2

    def test_mutate_context_invalidates_cached_plan(self, rng):
        """Satellite regression: in-place writes through Parameter.mutate
        bump the version, so a cached plan goes stale."""
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        cache = PlanCache()
        stale = cache.get(model, LayerProfile({"fc0": 0.5}))
        x = rng.normal(size=(3, 8)).astype(np.float32)
        before = stale.run(x).copy()
        with model.head.weight.mutate() as data:
            data[...] *= 2.0
        assert not stale.is_valid()
        fresh = cache.get(model, LayerProfile({"fc0": 0.5}))
        assert fresh is not stale
        assert cache.invalidations == 1
        assert not np.array_equal(fresh.run(x), before)

    def test_mutate_bumps_even_on_exception(self):
        param = MLP(8, [8], 3, num_groups=4, seed=0).head.weight
        version = param.version
        with pytest.raises(RuntimeError):
            with param.mutate() as data:
                data[0, 0] = 7.0
                raise RuntimeError("boom")
        assert param.version > version

    def test_profile_keys_gauge(self):
        registry, _ = obs.configure()
        try:
            model = MLP(8, [8], 3, num_groups=4, seed=0)
            cache = PlanCache()
            cache.get(model, 0.5)
            cache.get(model, LayerProfile({"fc0": 0.25}))
            assert registry.get("plan_cache_profile_keys").value() == 2.0
            assert registry.get("plan_cache_size").value() == 2.0
        finally:
            obs.shutdown(write_metrics=False)


# ----------------------------------------------------------------------
# Budget-constrained profile search
# ----------------------------------------------------------------------
class TestProfileSearch:
    def test_width_slice_points_excludes_norms_and_heads(self):
        model = SlicedVGG.cifar_mini(num_classes=4, width=8, stages=2,
                                     num_groups=4, seed=0)
        names = [n for n, _ in width_slice_points(model)]
        assert names == ["conv0", "conv1", "conv2", "conv3"]

    def test_search_respects_budget_and_beats_nothing_smaller(self):
        model = MLP(12, [16, 16], 6, num_groups=4, seed=0)
        full = measured_flops(model, (4, 12), rate=1.0)
        budget = 0.5 * full
        result = search_profile_for_budget(model, (4, 12), budget, RATES)
        assert isinstance(result, ProfileSearchResult)
        assert result.cost <= budget
        assert result.evals > 0 and len(result.history) >= 1
        # The searched profile's measured cost must match a re-evaluation.
        assert measured_flops(model, (4, 12), rate=result.profile) \
            == result.cost

    def test_search_uses_at_least_uniform_budget(self):
        """Greedy ascent never does worse than the best uniform rate in
        budget utilization terms on the bundled CNN."""
        model = SlicedVGG.cifar_mini(num_classes=4, width=8, stages=2,
                                     num_groups=4, seed=0)
        shape = (2, 3, 8, 8)
        full = measured_flops(model, shape, rate=1.0)
        budget = 0.4 * full
        searched = search_profile_for_budget(model, shape, budget, RATES)
        uniform = uniform_rate_for_budget(model, shape, budget, RATES)
        assert searched.cost <= budget and uniform.cost <= budget
        assert searched.cost >= uniform.cost
        assert not searched.profile.uniform

    def test_infeasible_budget_raises(self):
        model = MLP(12, [16, 16], 6, num_groups=4, seed=0)
        with pytest.raises(BudgetError):
            search_profile_for_budget(model, (4, 12), 1.0, RATES)
        with pytest.raises(BudgetError):
            uniform_rate_for_budget(model, (4, 12), 1.0, RATES)

    def test_unknown_point_raises(self):
        model = MLP(12, [16, 16], 6, num_groups=4, seed=0)
        with pytest.raises(BudgetError):
            search_profile_for_budget(model, (4, 12), 1e9, RATES,
                                      points=["nope"])

    def test_search_eval_counter_and_memoization(self):
        registry, _ = obs.configure()
        try:
            model = MLP(12, [16, 16], 6, num_groups=4, seed=0)
            full = measured_flops(model, (4, 12), rate=1.0)
            result = search_profile_for_budget(model, (4, 12), 0.5 * full,
                                               RATES)
            counted = registry.get("profile_search_evals_total").value()
            assert counted == float(result.evals) > 0
        finally:
            obs.shutdown(write_metrics=False)

    def test_custom_cost_fn_and_importance(self):
        model = MLP(12, [16, 16], 6, num_groups=4, seed=0)
        calls = []

        def cost_fn(profile):
            calls.append(profile.fingerprint())
            return float(profile.rate_for("fc0")) + float(
                profile.rate_for("fc1"))

        result = search_profile_for_budget(
            model, None, 1.25, RATES, cost_fn=cost_fn,
            importance={"fc1": 100.0})
        assert calls
        # fc1 is overwhelmingly more important, so it gets the budget.
        assert result.profile.rate_for("fc1") \
            > result.profile.rate_for("fc0")


# ----------------------------------------------------------------------
# Scheduling profiles, trainer telemetry round trip
# ----------------------------------------------------------------------
class TestProfileScheme:
    def test_dedupes_by_fingerprint_and_orders_by_mean(self):
        scheme = ProfileScheme([
            0.5, UniformProfile(0.5), LayerProfile({"fc0": 0.25}),
            1.0,
        ])
        assert len(scheme.rates) == 3
        assert [float(p) for p in scheme.rates] \
            == sorted(float(p) for p in scheme.rates)

    def test_sample_is_widest_first(self):
        scheme = ProfileScheme([0.25, 1.0, LayerProfile({"fc0": 0.5})])
        order = scheme.sample(np.random.default_rng(0))
        assert float(order[0]) == 1.0
        assert float(order[-1]) == 0.25

    def test_num_random_keeps_extremes(self):
        profiles = [0.25, 0.5, 0.75, 1.0,
                    LayerProfile({"fc0": 0.25, "fc1": 1.0})]
        scheme = ProfileScheme(profiles, num_random=1)
        rng = np.random.default_rng(0)
        for _ in range(5):
            chosen = scheme.sample(rng)
            assert chosen[0] == scheme.rates[-1]
            assert chosen[-1] == scheme.rates[0]
            assert len(chosen) == 3

    def test_empty_rejected(self):
        from repro.errors import SchedulingError
        with pytest.raises(SchedulingError):
            ProfileScheme([])


class TestEpochRecordProfiles:
    def test_round_trip_with_mixed_keys(self):
        record = EpochRecord(3)
        profile = LayerProfile({"fc0": 0.25, "fc1": 0.75})
        record.train_loss = {0.5: 1.25, UniformProfile(1.0): 0.5,
                             profile: 0.75}
        data = json.loads(record.to_json())
        assert set(data["train_loss"]) \
            == {"0.5", "1.0", profile.fingerprint()}
        back = EpochRecord.from_dict(data)
        assert back.train_loss[0.5] == 1.25
        assert back.train_loss[1.0] == 0.5
        assert back.train_loss[profile.fingerprint()] == 0.75


# ----------------------------------------------------------------------
# Serving and runtime with profiles
# ----------------------------------------------------------------------
class TestAccuracyTables:
    def test_accuracy_for_rate_profile_keys(self):
        profile = LayerProfile({"fc0": 0.25, "fc1": 1.0})
        table = {0.5: 0.8, 1.0: 0.9, profile: 0.85}
        assert accuracy_for_rate(table, profile) == 0.85
        assert accuracy_for_rate(table, UniformProfile(0.5)) == 0.8
        other = LayerProfile({"fc0": 1.0, "fc1": 1.0}, default=0.5)
        # No exact entry: nearest by mean rate.
        assert accuracy_for_rate(table, other) \
            == table[min((0.5, 1.0), key=lambda r: abs(r - float(other)))]

    def test_measured_accuracy_table_with_profiles(self, rng):
        model = MLP(12, [16, 16], 6, num_groups=4, seed=0)
        model.eval()
        x = rng.normal(size=(16, 12)).astype(np.float32)
        y = rng.integers(0, 6, size=16)
        profile = LayerProfile({"fc0": 0.5, "fc1": 1.0})
        cache = PlanCache()
        table = measured_accuracy_table(
            model, x, y, [0.5, UniformProfile(1.0), profile, 1.0],
            plan_cache=cache)
        assert set(table) == {0.5, 1.0, profile}
        expected = np.argmax(cache.get(model, profile).run(x), axis=-1)
        assert table[profile] == pytest.approx(
            float((expected == y).mean()))


class TestProfileTableController:
    PROFILE = LayerProfile({"fc0": 0.5, "fc1": 1.0})

    def _controller(self):
        return ProfileTableController(
            {0.25: 0.001, self.PROFILE: 0.004, 1.0: 0.01},
            latency_slo=0.2)

    def test_choose_picks_most_expensive_feasible(self):
        controller = self._controller()
        assert controller.choose(1) == 1.0
        assert controller.choose(25) == self.PROFILE
        assert controller.choose(99) == 0.25
        assert controller.choose(200) is None

    def test_downgrade_steps_through_cost_order(self):
        controller = self._controller()
        assert controller.downgrade(UniformProfile(1.0)) == self.PROFILE
        assert controller.downgrade(self.PROFILE) == 0.25
        assert controller.downgrade(0.25) == 0.25  # already cheapest

    def test_max_batch_and_rates(self):
        controller = self._controller()
        assert controller.max_batch(0.25) == 100
        assert controller.max_batch(self.PROFILE) == 25
        assert [float(r) for r in controller.rates] == [0.25, 0.75, 1.0]
        with pytest.raises(ServingError):
            controller.per_sample_cost(0.5)

    def test_validation(self):
        with pytest.raises(ServingError):
            ProfileTableController({}, latency_slo=0.2)
        with pytest.raises(ServingError):
            ProfileTableController({0.5: -1.0}, latency_slo=0.2)
        with pytest.raises(ServingError):
            ProfileTableController({0.5: 0.01}, latency_slo=0.0)

    def test_decision_event_carries_profile_fingerprint(self):
        _, tracer = obs.configure()
        try:
            self._controller().choose(25)
            events = [r for r in tracer.records
                      if r.get("name") == "controller.decision"]
            assert events
            attrs = events[-1]["attrs"]
            assert attrs["profile"] == self.PROFILE.fingerprint()
            assert attrs["rate"] == float(self.PROFILE)
        finally:
            obs.shutdown(write_metrics=False)


class TestLatencyProfileWithProfiles:
    def test_non_uniform_exact_entry_wins(self):
        profile = LayerProfile({"fc0": 0.5, "fc1": 1.0})
        lp = LatencyProfile(per_rate={0.5: 0.002, 1.0: 0.01,
                                      profile: 0.005})
        assert lp.per_sample(profile) == 0.005
        assert lp.per_sample(0.5) == 0.002
        assert lp.per_sample(UniformProfile(1.0)) == 0.01

    def test_non_uniform_falls_back_to_mean_rate_curve(self):
        profile = LayerProfile({"fc0": 0.5, "fc1": 1.0})  # mean 0.75
        lp = LatencyProfile(full_per_sample=0.01)
        assert lp.per_sample(profile) \
            == pytest.approx(0.01 * 0.75 * 0.75)

    def test_replica_serves_profiles_through_plans(self, rng):
        model = MLP(12, [16, 16], 6, num_groups=4, seed=0)
        model.eval()
        profile = LayerProfile({"fc0": 0.5, "fc1": 1.0})
        cache = PlanCache()
        replica = Replica("r0", LatencyProfile(full_per_sample=0.001),
                          model=model, plan_cache=cache)
        assert replica.warm_plans([0.5, profile]) == 2
        x = rng.normal(size=(4, 12)).astype(np.float32)
        predictions = replica.predict(x, profile)
        expected = np.argmax(cache.get(model, profile).run(x), axis=-1)
        np.testing.assert_array_equal(predictions, expected)
        assert cache.profile_keys() == 2

    def test_replica_matches_live(self, rng):
        model = MLP(12, [16, 16], 6, num_groups=4, seed=0)
        model.eval()
        profile = LayerProfile({"fc0": 0.25, "fc1": 0.75})
        replica = Replica("r0", LatencyProfile(full_per_sample=0.001),
                          model=model, plan_cache=PlanCache())
        x = rng.normal(size=(4, 12)).astype(np.float32)
        live = _forward(model, x, slice_profile(profile))
        np.testing.assert_array_equal(replica.predict(x, profile),
                                      np.argmax(live, axis=-1))


class TestRuntimeWithProfiles:
    def test_end_to_end_profile_serving(self, rng):
        """The continuous runtime serves real predictions at non-uniform
        profiles chosen by a ProfileTableController, and its JSON report
        stays serializable."""
        from repro.runtime import (
            InferenceRuntime,
            ReplicaPool,
            RuntimeConfig,
        )

        model = MLP(12, [16, 16], 6, num_groups=4, seed=0)
        model.eval()
        profile = LayerProfile({"fc0": 0.5, "fc1": 1.0})
        # Full width is too slow for any batch under the SLO, so the
        # controller lands on the non-uniform profile for modest batches.
        costs = {0.25: 0.0001, profile: 0.001, 1.0: 0.06}
        controller = ProfileTableController(costs, latency_slo=0.1)
        latency = LatencyProfile(per_rate=costs)
        pool = ReplicaPool([
            Replica(f"r{i}", latency, model=model, plan_cache=PlanCache())
            for i in range(2)])
        inputs = rng.normal(size=(32, 12)).astype(np.float32)
        labels = rng.integers(0, 6, size=32)
        config = RuntimeConfig(latency_slo=0.1, max_batch_size=32,
                               batch_timeout=0.005)
        runtime = InferenceRuntime(
            pool, controller, config,
            accuracy_of_rate={0.25: 0.6, profile: 0.8, 1.0: 0.9},
            inputs=inputs, labels=labels)
        arrivals = np.sort(rng.uniform(0.0, 1.0, size=120))
        report = runtime.run(arrivals, duration=2.0)
        assert report.total_requests == 120
        completed = report.completed
        assert completed
        served = {t.rate for t in completed}
        assert any(isinstance(r, LayerProfile) for r in served)
        payload = json.loads(report.to_json())
        assert payload["total_requests"] == 120
        rates = {t["rate"] for t in payload["traces"]
                 if t["rate"] is not None}
        assert profile.label() in rates or rates <= {0.25, 1.0}


# ----------------------------------------------------------------------
# CLI: repro profile search
# ----------------------------------------------------------------------
class TestProfileCLI:
    def test_parser(self):
        args = build_parser().parse_args(["profile", "search"])
        assert args.command == "profile"
        assert args.profile_command == "search"
        assert args.model == "mlp"
        assert args.budget_fraction == 0.5
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile"])

    def test_search_json_output(self, capsys):
        code = main(["profile", "search", "--model", "mlp",
                     "--rates", "0.25", "0.5", "0.75", "1.0", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["searched"]["cost"] <= payload["budget"]
        assert payload["uniform"]["uniform"] is True

    def test_search_human_output(self, capsys):
        code = main(["profile", "search", "--model", "mlp",
                     "--rates", "0.25", "0.5", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "searched profile" in out
        assert "best uniform rate" in out

    def test_search_infeasible_budget_fails_cleanly(self, capsys):
        code = main(["profile", "search", "--model", "mlp",
                     "--budget", "1.0"])
        assert code == 2
        assert "profile search failed" in capsys.readouterr().err
