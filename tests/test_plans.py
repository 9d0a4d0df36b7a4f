"""Differential-testing harness for compiled inference plans.

Every compiled step/plan is checked *three ways* against the two
pre-existing execution paths:

1. the ordinary sliced forward (``with slice_rate(r): model(x)``),
2. the materialized standalone subnet (:func:`materialize_subnet`),
3. the compiled plan (:mod:`repro.slicing.plans`).

On top of equivalence, this file pins down the plan cache's contract:
hits, misses, staleness-driven invalidation (parameter version counters,
identity changes, rebound running statistics), LRU eviction, and the
observability counters that report all of the above.
"""

import numpy as np
import pytest

from repro import obs
from repro.errors import PlanError
from repro.models import MLP, NNLM, SlicedVGG
from repro.nn.module import Module, Parameter
from repro.optim import SGD
from repro.slicing import (
    FallbackPlan,
    GroupPartition,
    MultiBatchNorm2d,
    PlanCache,
    SlicedConv2d,
    SlicedGRUCell,
    SlicedGroupNorm,
    SlicedLSTMCell,
    SlicedLinear,
    SlicedRNNCell,
    compile_layer,
    compile_plan,
    get_plan,
    materialize_subnet,
    shared_cache,
    slice_rate,
)
from repro.tensor import Tensor, no_grad

RATES_G4 = GroupPartition(8, 4).valid_rates()  # 0.25, 0.5, 0.75, 1.0


class _Wrap(Module):
    """Minimal container so single layers can go through materialize."""

    def __init__(self, layer):
        super().__init__()
        self.layer = layer

    def forward(self, x):
        return self.layer(x)


def _as_arrays(out):
    if isinstance(out, tuple):  # recurrent cells return (h, c) states
        return tuple(t.data if isinstance(t, Tensor) else t for t in out)
    return out.data if isinstance(out, Tensor) else out


def _arg(x):
    arr = np.asarray(x)
    return arr if arr.dtype.kind in "iu" else Tensor(x)


def _sliced(layer, x, rate):
    """The reference leg: uncompiled sliced forward at ``rate``."""
    with no_grad(), slice_rate(rate):
        out = layer(_arg(x))
    return _as_arrays(out)


def _materialized(layer, x, rate):
    """The deployment leg: standalone subnet from materialize_subnet."""
    deployed = materialize_subnet(_Wrap(layer), rate)
    deployed.eval()
    with no_grad():
        out = deployed(_arg(x))
    return _as_arrays(out)


# ----------------------------------------------------------------------
# Three-way layer equivalence: plan vs sliced vs materialized (Eq. 2)
# ----------------------------------------------------------------------
class TestLayerEquivalence:
    @pytest.mark.parametrize("groups", [2, 4])
    @pytest.mark.parametrize("rescale", [False, True])
    def test_linear_three_way(self, rng, groups, rescale):
        layer = SlicedLinear(12, 8, rescale=rescale, num_groups=groups,
                             rng=np.random.default_rng(0))
        for rate in GroupPartition(12, groups).valid_rates():
            in_w = layer.in_partition.width_for(rate)
            x = rng.normal(size=(5, in_w)).astype(np.float32)
            step = compile_layer(layer, rate)
            plan_out = step(x)
            np.testing.assert_allclose(plan_out, _sliced(layer, x, rate),
                                       rtol=1e-5, atol=1e-6,
                                       err_msg=f"plan vs sliced at {rate}")
            np.testing.assert_allclose(plan_out, _materialized(layer, x, rate),
                                       rtol=1e-4, atol=1e-5,
                                       err_msg=f"plan vs deployed at {rate}")

    @pytest.mark.parametrize("groups", [2, 4])
    def test_conv2d_three_way(self, rng, groups):
        layer = SlicedConv2d(8, 8, 3, padding=1, bias=True,
                             num_groups=groups,
                             rng=np.random.default_rng(0))
        for rate in GroupPartition(8, groups).valid_rates():
            in_w = layer.in_partition.width_for(rate)
            x = rng.normal(size=(2, in_w, 6, 6)).astype(np.float32)
            step = compile_layer(layer, rate)
            plan_out = np.array(step(x))  # conv reuses its output buffer
            np.testing.assert_allclose(plan_out, _sliced(layer, x, rate),
                                       rtol=1e-4, atol=1e-5,
                                       err_msg=f"plan vs sliced at {rate}")
            np.testing.assert_allclose(plan_out, _materialized(layer, x, rate),
                                       rtol=1e-4, atol=1e-5,
                                       err_msg=f"plan vs deployed at {rate}")

    @pytest.mark.parametrize("groups", [2, 4])
    def test_groupnorm_three_way(self, rng, groups):
        layer = SlicedGroupNorm(8, num_groups=groups)
        layer.weight.data = rng.normal(size=8).astype(np.float32)
        layer.bias.data = rng.normal(size=8).astype(np.float32)
        for rate in GroupPartition(8, groups).valid_rates():
            active = max(1, min(round(rate * groups), groups)) \
                * layer.group_size
            x = rng.normal(size=(3, active, 5, 5)).astype(np.float32)
            step = compile_layer(layer, rate)
            plan_out = step(x)
            np.testing.assert_allclose(plan_out, _sliced(layer, x, rate),
                                       rtol=1e-4, atol=1e-5,
                                       err_msg=f"plan vs sliced at {rate}")
            np.testing.assert_allclose(plan_out, _materialized(layer, x, rate),
                                       rtol=1e-4, atol=1e-5,
                                       err_msg=f"plan vs deployed at {rate}")

    def test_multi_batchnorm_three_way(self, rng):
        rates = [0.25, 0.5, 1.0]
        layer = MultiBatchNorm2d(8, rates, num_groups=4)
        layer.train()
        for rate in rates:  # populate per-rate running statistics
            width = layer.partition.width_for(rate)
            with slice_rate(rate):
                layer(Tensor(rng.normal(
                    size=(6, width, 4, 4)).astype(np.float32)))
        layer.eval()
        for rate in rates:
            width = layer.partition.width_for(rate)
            x = rng.normal(size=(3, width, 4, 4)).astype(np.float32)
            step = compile_layer(layer, rate)
            plan_out = step(x)
            np.testing.assert_allclose(plan_out, _sliced(layer, x, rate),
                                       rtol=1e-4, atol=1e-5,
                                       err_msg=f"plan vs sliced at {rate}")
            np.testing.assert_allclose(plan_out, _materialized(layer, x, rate),
                                       rtol=1e-4, atol=1e-5,
                                       err_msg=f"plan vs deployed at {rate}")

    def test_multi_batchnorm_unknown_rate_rejected(self):
        layer = MultiBatchNorm2d(8, [0.5, 1.0], num_groups=4)
        with pytest.raises(PlanError):
            compile_layer(layer, 0.75)

    @pytest.mark.parametrize("cell_cls", [SlicedLSTMCell, SlicedGRUCell,
                                          SlicedRNNCell])
    def test_recurrent_cell_three_way(self, rng, cell_cls):
        # rescale=False (the default) so all three legs agree: the GRU's
        # deployed form bakes the rescale into the candidate gate while
        # the sliced forward leaves the candidate unscaled.
        cell = cell_cls(8, 8, num_groups=4, rng=np.random.default_rng(0))
        for rate in RATES_G4:
            in_w = cell.in_partition.width_for(rate)
            x = rng.normal(size=(4, in_w)).astype(np.float32)
            step = compile_layer(cell, rate)
            plan_out = step(x)
            sliced = _sliced(cell, x, rate)
            deployed = _materialized(cell, x, rate)
            if cell_cls is SlicedLSTMCell:  # (h, c) state tuples
                for got, want in ((plan_out[0], sliced[0]),
                                  (plan_out[1], sliced[1]),
                                  (plan_out[0], deployed[0]),
                                  (plan_out[1], deployed[1])):
                    np.testing.assert_allclose(got, want,
                                               rtol=1e-4, atol=1e-5)
            else:
                np.testing.assert_allclose(plan_out, sliced,
                                           rtol=1e-4, atol=1e-5)
                np.testing.assert_allclose(plan_out, deployed,
                                           rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("cell_cls", [SlicedLSTMCell, SlicedGRUCell,
                                          SlicedRNNCell])
    def test_recurrent_cell_rescaled_matches_sliced(self, rng, cell_cls):
        cell = cell_cls(8, 8, rescale=True, num_groups=4,
                        rng=np.random.default_rng(1))
        for rate in RATES_G4:
            in_w = cell.in_partition.width_for(rate)
            x = rng.normal(size=(4, in_w)).astype(np.float32)
            plan_out = compile_layer(cell, rate)(x)
            sliced = _sliced(cell, x, rate)
            if cell_cls is SlicedLSTMCell:
                np.testing.assert_allclose(plan_out[0], sliced[0],
                                           rtol=1e-4, atol=1e-5)
                np.testing.assert_allclose(plan_out[1], sliced[1],
                                           rtol=1e-4, atol=1e-5)
            else:
                np.testing.assert_allclose(plan_out, sliced,
                                           rtol=1e-4, atol=1e-5)

    def test_unknown_layer_rejected(self):
        with pytest.raises(PlanError):
            compile_layer(_Wrap(SlicedLinear(4, 4)), 0.5)


# ----------------------------------------------------------------------
# Whole-model three-way equivalence
# ----------------------------------------------------------------------
class TestModelEquivalence:
    def _assert_three_way(self, model, x, rates, rtol=1e-4, atol=1e-5):
        model.eval()
        for rate in rates:
            plan = compile_plan(model, rate)
            assert plan.compiled and not plan.fallback
            plan_out = plan.run(x)
            sliced = _sliced(model, x, rate)
            deployed = materialize_subnet(model, rate)
            deployed.eval()
            with no_grad():
                arg = x if np.asarray(x).dtype.kind in "iu" else Tensor(x)
                mat_out = deployed(arg).data
            np.testing.assert_allclose(plan_out, sliced, rtol=rtol, atol=atol,
                                       err_msg=f"plan vs sliced at {rate}")
            np.testing.assert_allclose(plan_out, mat_out, rtol=rtol, atol=atol,
                                       err_msg=f"plan vs deployed at {rate}")

    def test_mlp(self, rng):
        model = MLP(12, [16, 16], 6, num_groups=4, seed=0)
        x = rng.normal(size=(5, 12)).astype(np.float32)
        self._assert_three_way(model, x, RATES_G4)

    def test_vgg_groupnorm(self, rng):
        model = SlicedVGG.cifar_mini(num_classes=4, width=8, stages=2,
                                     num_groups=4, seed=0)
        x = rng.normal(size=(3, 3, 8, 8)).astype(np.float32)
        self._assert_three_way(model, x, RATES_G4)

    def test_vgg_multi_bn(self, rng):
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
        self._assert_three_way(model, x, rates)

    def test_nnlm(self, rng):
        model = NNLM(vocab_size=20, embed_dim=8, hidden_size=8,
                     num_groups=4, seed=0)
        tokens = rng.integers(0, 20, size=(5, 3))
        self._assert_three_way(model, tokens, RATES_G4,
                               rtol=1e-3, atol=1e-4)

    def test_plan_ignores_slice_context_and_training_flag(self, rng):
        """Plans always run eval semantics at their own compiled rate."""
        model = MLP(12, [16], 4, num_groups=4, seed=0)
        x = rng.normal(size=(3, 12)).astype(np.float32)
        plan = compile_plan(model, 0.5)
        base = plan.run(x)
        model.train()
        with slice_rate(0.25):  # must have no effect on the snapshot
            again = plan.run(x)
        np.testing.assert_array_equal(base, again)

    def test_plan_tensor_entry_point(self, rng):
        model = MLP(12, [16], 4, num_groups=4, seed=0)
        x = rng.normal(size=(3, 12)).astype(np.float32)
        plan = compile_plan(model, 0.5)
        out = plan(Tensor(x))
        assert isinstance(out, Tensor)
        np.testing.assert_array_equal(out.data, plan.run(x))

    def test_param_bytes_grow_with_rate(self):
        model = MLP(12, [16, 16], 6, num_groups=4, seed=0)
        sizes = [compile_plan(model, rate).param_bytes()
                 for rate in RATES_G4]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]


# ----------------------------------------------------------------------
# Nesting: Subnet-r_a's plan weights are a prefix of Subnet-r_b's (Eq. 2)
# ----------------------------------------------------------------------
class TestNesting:
    def test_conv_weights_nest_exactly(self):
        layer = SlicedConv2d(8, 8, 3, padding=1, bias=True, num_groups=4,
                             rng=np.random.default_rng(0))
        steps = [compile_layer(layer, rate) for rate in RATES_G4]
        for narrow, wide in zip(steps, steps[1:]):
            out_w, in_w = narrow.weight.shape[:2]
            np.testing.assert_array_equal(
                narrow.weight, wide.weight[:out_w, :in_w])
            np.testing.assert_array_equal(narrow.bias, wide.bias[:out_w])

    def test_linear_weights_nest_after_unscaling(self):
        layer = SlicedLinear(12, 8, rescale=True, num_groups=4,
                             rng=np.random.default_rng(0))
        steps = [compile_layer(layer, rate) for rate in RATES_G4]
        for narrow, wide in zip(steps, steps[1:]):
            # LinearStep.weight keeps the raw (unscaled) prefix, so the
            # containment is exact even though the executed operands fold
            # in different rescale factors per rate.
            out_w, in_w = narrow.weight.shape
            np.testing.assert_array_equal(
                narrow.weight, wide.weight[:out_w, :in_w])
        widths = [layer.in_partition.width_for(rate) for rate in RATES_G4]
        assert [s.scale for s in steps] == [12 / w for w in widths]

    def test_lstm_gate_prefixes_nest(self):
        cell = SlicedLSTMCell(8, 8, num_groups=4,
                              rng=np.random.default_rng(0))
        steps = [compile_layer(cell, rate) for rate in RATES_G4]
        for narrow, wide in zip(steps, steps[1:]):
            h_a, h_b = narrow.hidden, wide.hidden
            in_a = narrow.in_width
            for k in range(4):  # gates are packed i, f, g, o
                np.testing.assert_array_equal(
                    narrow.weight_ih[k * h_a:(k + 1) * h_a],
                    wide.weight_ih[k * h_b:k * h_b + h_a, :in_a])
                np.testing.assert_array_equal(
                    narrow.weight_hh[k * h_a:(k + 1) * h_a],
                    wide.weight_hh[k * h_b:k * h_b + h_a, :h_a])
                np.testing.assert_array_equal(
                    narrow.bias[k * h_a:(k + 1) * h_a],
                    wide.bias[k * h_b:k * h_b + h_a])


# ----------------------------------------------------------------------
# Parameter version counters (the staleness signal)
# ----------------------------------------------------------------------
class TestParameterVersion:
    def test_fresh_parameter_starts_at_zero(self):
        assert Parameter(np.zeros(3)).version == 0

    def test_rebinding_write_bumps(self):
        p = Parameter(np.zeros(3))
        p.data = np.ones(3, dtype=np.float32)
        assert p.version == 1

    def test_augmented_assignment_bumps(self):
        p = Parameter(np.ones(3))
        p.data -= 0.5  # the optimizer's update form
        assert p.version == 1
        np.testing.assert_allclose(p.data, 0.5)

    def test_in_place_elementwise_write_does_not_bump(self):
        # Documented limitation: writes through the array do not rebind,
        # so callers must bump_version() explicitly (load_state_dict does).
        p = Parameter(np.zeros(3))
        p.data[...] = 1.0
        assert p.version == 0
        assert p.bump_version() == 1

    def test_mutate_scope_bumps_once(self):
        # The supported form for element writes: the context manager
        # closes the ``data[...]`` staleness footgun above.
        p = Parameter(np.zeros(3))
        with p.mutate() as data:
            data[0] = 1.0
            data[2] = 2.0
        assert p.version == 1
        np.testing.assert_allclose(p.data, [1.0, 0.0, 2.0])

    def test_mutate_bumps_even_when_body_raises(self):
        # A partial write still invalidates compiled plans.
        p = Parameter(np.zeros(3))
        with pytest.raises(RuntimeError):
            with p.mutate() as data:
                data[0] = 1.0
                raise RuntimeError("interrupted mid-write")
        assert p.version == 1

    def test_module_parameter_version_sums(self):
        layer = SlicedLinear(4, 4, rng=np.random.default_rng(0))
        before = layer.parameter_version()
        layer.weight.data = layer.weight.data * 2.0
        layer.bias.data = layer.bias.data + 1.0
        assert layer.parameter_version() == before + 2

    def test_sgd_step_bumps_every_updated_parameter(self, rng):
        model = MLP(6, [8], 3, num_groups=4, seed=0)
        optimizer = SGD(model.parameters(), lr=0.1)
        versions = [p.version for p in model.parameters()]
        x = Tensor(rng.normal(size=(4, 6)).astype(np.float32))
        model(x).sum().backward()
        optimizer.step()
        after = [p.version for p in model.parameters()]
        assert all(b == a + 1 for b, a in zip(after, versions))

    def test_load_state_dict_bumps(self):
        layer = SlicedLinear(4, 4, rng=np.random.default_rng(0))
        state = layer.state_dict()
        before = layer.parameter_version()
        layer.load_state_dict(state)
        assert layer.parameter_version() > before


# ----------------------------------------------------------------------
# Cache correctness: hits, staleness, eviction, obs counters
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_hit_returns_same_plan(self):
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        cache = PlanCache()
        first = cache.get(model, 0.5)
        assert cache.get(model, 0.5) is first
        assert cache.stats() == {"size": 1, "hits": 1, "misses": 1,
                                 "invalidations": 0, "evictions": 0}

    def test_distinct_rates_compile_separately(self):
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        cache = PlanCache()
        assert cache.get(model, 0.5) is not cache.get(model, 1.0)
        assert cache.misses == 2 and len(cache) == 2

    def test_optimizer_step_invalidates(self, rng):
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        optimizer = SGD(model.parameters(), lr=0.1)
        cache = PlanCache()
        stale = cache.get(model, 0.5)
        model(Tensor(rng.normal(size=(4, 8)).astype(np.float32))) \
            .sum().backward()
        optimizer.step()
        assert not stale.is_valid()
        fresh = cache.get(model, 0.5)
        assert fresh is not stale
        assert cache.stats() == {"size": 1, "hits": 0, "misses": 2,
                                 "invalidations": 1, "evictions": 0}
        x = rng.normal(size=(3, 8)).astype(np.float32)
        np.testing.assert_allclose(fresh.run(x), _sliced(model, x, 0.5),
                                   rtol=1e-5, atol=1e-6)

    def test_manual_rebind_invalidates(self):
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        cache = PlanCache()
        stale = cache.get(model, 0.5)
        model.head.weight.data = model.head.weight.data * 1.5
        assert not stale.is_valid()
        assert cache.get(model, 0.5) is not stale
        assert cache.invalidations == 1

    def test_elementwise_write_needs_explicit_bump(self):
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        cache = PlanCache()
        plan = cache.get(model, 0.5)
        model.head.weight.data[...] *= 1.5  # silent without a rebind
        assert cache.get(model, 0.5) is plan  # documented limitation
        model.head.weight.bump_version()
        assert cache.get(model, 0.5) is not plan

    def test_load_state_dict_invalidates(self):
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        cache = PlanCache()
        plan = cache.get(model, 0.5)
        model.load_state_dict(model.state_dict())
        assert not plan.is_valid()
        assert cache.get(model, 0.5) is not plan

    def test_layer_swap_invalidates(self):
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        plan = compile_plan(model, 0.5)
        model.head = SlicedLinear(8, 3, slice_output=False, num_groups=4,
                                  rng=np.random.default_rng(1))
        assert not plan.is_valid()

    def test_rebound_running_stats_invalidate(self, rng):
        model = SlicedVGG.cifar_mini(num_classes=4, width=8, stages=2,
                                     num_groups=4, norm="multi_bn",
                                     rates=[0.5, 1.0], seed=0)
        model.eval()
        plan = compile_plan(model, 0.5)
        assert plan.is_valid()
        bn = next(m for m in model.modules() if m.extra_state())
        bn.running_mean = bn.running_mean + 1.0  # rebinds the buffer
        assert not plan.is_valid()

    def test_lru_eviction(self):
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        cache = PlanCache(capacity=2)
        cache.get(model, 0.25)
        cache.get(model, 0.5)
        cache.get(model, 1.0)  # evicts 0.25 (least recently used)
        assert len(cache) == 2 and cache.evictions == 1
        cache.get(model, 0.5)
        assert cache.hits == 1
        cache.get(model, 0.25)  # gone: recompiles
        assert cache.misses == 4

    def test_invalidate_by_model_and_wholesale(self):
        a = MLP(8, [8], 3, num_groups=4, seed=0)
        b = MLP(8, [8], 3, num_groups=4, seed=1)
        cache = PlanCache()
        cache.get(a, 0.5)
        cache.get(a, 1.0)
        cache.get(b, 0.5)
        assert cache.invalidate(a) == 2 and len(cache) == 1
        assert cache.invalidate() == 1 and len(cache) == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(PlanError):
            PlanCache(capacity=0)

    def test_get_plan_uses_shared_cache(self):
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        shared = shared_cache()
        shared.invalidate(model)
        plan = get_plan(model, 0.5)
        assert get_plan(model, 0.5) is plan
        own = PlanCache()
        assert get_plan(model, 0.5, cache=own) is not plan
        shared.invalidate(model)


class TestObsCounters:
    @pytest.fixture
    def telemetry(self):
        registry, _ = obs.configure()
        yield registry
        obs.shutdown(write_metrics=False)

    def test_cache_counters_exact(self, telemetry):
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        cache = PlanCache(capacity=2)
        cache.get(model, 0.25)           # miss + compile
        cache.get(model, 0.25)           # hit
        cache.get(model, 0.5)            # miss + compile
        cache.get(model, 1.0)            # miss + compile + evict 0.25
        model.head.weight.data = model.head.weight.data * 2.0
        cache.get(model, 1.0)            # invalidation + miss + compile
        assert telemetry.get("plan_cache_hits_total").value() == 1.0
        assert telemetry.get("plan_cache_misses_total").value() == 4.0
        assert telemetry.get("plan_cache_invalidations_total").value() == 1.0
        assert telemetry.get("plan_cache_evictions_total").value() == 1.0
        assert telemetry.get("plan_compiles_total").value(kind="MLP") == 4.0
        assert telemetry.get("plan_cache_size").value() == 2.0

    def test_fallback_counter(self, telemetry):
        plan = PlanCache().get(_Wrap(SlicedLinear(4, 4)), 0.5)
        assert plan.fallback
        assert telemetry.get("plan_fallbacks_total") \
            .value(kind="_Wrap") == 1.0


# ----------------------------------------------------------------------
# Fallback plans: unknown models stay correct, never stale
# ----------------------------------------------------------------------
class TestFallbackPlan:
    def test_matches_sliced_forward_exactly(self, rng):
        wrapped = _Wrap(SlicedLinear(8, 6, num_groups=4,
                                     rng=np.random.default_rng(0)))
        plan = compile_plan(wrapped, 0.5)
        assert isinstance(plan, FallbackPlan)
        assert not plan.compiled and plan.fallback
        in_w = wrapped.layer.in_partition.width_for(0.5)
        x = rng.normal(size=(4, in_w)).astype(np.float32)
        np.testing.assert_array_equal(plan.run(x), _sliced(wrapped, x, 0.5))

    def test_reads_live_weights(self, rng):
        wrapped = _Wrap(SlicedLinear(8, 6, num_groups=4,
                                     rng=np.random.default_rng(0)))
        plan = compile_plan(wrapped, 1.0)
        x = rng.normal(size=(3, 8)).astype(np.float32)
        before = plan.run(x)
        wrapped.layer.weight.data = wrapped.layer.weight.data * 2.0
        assert plan.is_valid()  # never stale by construction
        np.testing.assert_allclose(plan.run(x), before * 2.0,
                                   rtol=1e-5, atol=1e-6)


# ----------------------------------------------------------------------
# Integrations: runtime replicas, latency metrics, serving, anytime
# ----------------------------------------------------------------------
class TestIntegrations:
    def _replica(self, model, use_plans, cache=None):
        from repro.runtime import LatencyProfile, Replica
        return Replica("r0", LatencyProfile(full_per_sample=1e-4),
                       model=model, use_plans=use_plans, plan_cache=cache)

    def test_replica_plan_predictions_match_sliced(self, rng):
        model = MLP(12, [16], 4, num_groups=4, seed=0)
        x = rng.normal(size=(10, 12)).astype(np.float32)
        cache = PlanCache()
        planned = self._replica(model, True, cache)
        unplanned = self._replica(model, False)
        for rate in RATES_G4:
            np.testing.assert_array_equal(planned.predict(x, rate),
                                          unplanned.predict(x, rate))
        assert cache.misses == len(RATES_G4)

    def test_replica_warm_plans(self):
        model = MLP(12, [16], 4, num_groups=4, seed=0)
        cache = PlanCache()
        replica = self._replica(model, True, cache)
        assert replica.warm_plans([0.25, 0.5]) == 2
        assert cache.misses == 2
        replica.predict(np.zeros((2, 12), dtype=np.float32), 0.5)
        assert cache.hits == 1

    def test_measure_latency_plan_path(self, rng):
        from repro.metrics import measure_latency
        model = MLP(12, [16], 4, num_groups=4, seed=0)
        x = rng.normal(size=(4, 12)).astype(np.float32)
        cache = PlanCache()
        latency = measure_latency(model, x, 0.5, repeats=2,
                                  use_plan=True, plan_cache=cache)
        assert latency > 0.0
        assert len(cache) == 1

    def test_measured_accuracy_table(self, rng):
        from repro.serving import measured_accuracy_table
        model = MLP(12, [16], 4, num_groups=4, seed=0)
        x = rng.normal(size=(20, 12)).astype(np.float32)
        labels = rng.integers(0, 4, size=20)
        table = measured_accuracy_table(model, x, labels, RATES_G4,
                                        plan_cache=PlanCache())
        assert set(table) == set(RATES_G4)
        for rate in RATES_G4:
            expected = float(
                (_sliced(model, x, rate).argmax(axis=-1) == labels).mean())
            assert table[rate] == pytest.approx(expected)

    def test_anytime_follows_parameter_mutation(self, rng):
        from repro.anytime import AnytimeMLP
        from repro.slicing import ResumablePlan
        model = MLP(12, [16, 16], 4, num_groups=4, seed=0)
        engine = AnytimeMLP(model, [0.25, 0.5, 1.0])
        x = rng.normal(size=(5, 12)).astype(np.float32)
        before = engine.run(x)[-1].logits
        model.head.weight.data *= 1.1
        final = engine.run(x)[-1].logits
        plan = ResumablePlan(model, 0.25, exact=False)
        plan.run(x)
        plan.widen(0.5)
        np.testing.assert_array_equal(final, plan.widen(1.0))
        assert not np.array_equal(final, before)


# ----------------------------------------------------------------------
# Resumable plans against the compiled-plan contract
# ----------------------------------------------------------------------
class TestResumablePlanParity:
    """The resumable path honours the same contracts as InferencePlan:
    numerically aligned outputs per profile and the identical
    parameter-version staleness signal."""

    def test_resumable_matches_compiled_plan_per_rate(self, rng):
        from repro.slicing import ResumablePlan
        model = MLP(12, [16, 16], 4, num_groups=4, seed=0)
        x = rng.normal(size=(5, 12)).astype(np.float32)
        for rate in RATES_G4:
            resumable = ResumablePlan(model, rate).run(x)
            compiled = compile_plan(model, rate).run(x)
            np.testing.assert_allclose(resumable, np.asarray(compiled),
                                       rtol=1e-5, atol=1e-6)

    def test_mutate_scope_invalidates_both_plan_kinds(self, rng):
        from repro.slicing import ResumablePlan
        model = MLP(12, [16], 4, num_groups=4, seed=0)
        x = rng.normal(size=(3, 12)).astype(np.float32)
        cache = PlanCache()
        cache.get(model, 0.5)
        resumable = ResumablePlan(model, 0.5)
        resumable.run(x)
        with model.head.weight.mutate() as data:
            data[0, 0] += 1.0
        cache.get(model, 0.5)
        assert cache.misses == 2  # cached InferencePlan went stale
        assert not resumable.is_valid()
        with pytest.raises(PlanError):
            resumable.widen(1.0)
