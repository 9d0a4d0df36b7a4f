"""Differential-testing harness for compiled inference plans.

Every compiled step/plan is checked *three ways* against the two
pre-existing execution paths:

1. the ordinary sliced forward (``with slice_rate(r): model(x)``),
2. the materialized standalone subnet (:func:`materialize_subnet`),
3. the compiled plan (:mod:`repro.slicing.plans`).

On top of equivalence, this file pins down the plan cache's contract:
hits, misses, staleness-driven invalidation (parameter version counters,
identity changes, rebound running statistics), the mutation epoch that
lets a check on an unchanged process skip the walk, LRU eviction, and
the observability counters that report all of the above.
"""

import numpy as np
import pytest

from repro import obs
from repro.errors import PlanError, ShapeError
from repro.metrics import active_params
from repro.models import (MLP, NNLM, SlicedResNet, SlicedVGG,
                          TransformerEncoder, TransformerLM)
from repro.nn import Sequential
from repro.nn.module import Module, Parameter, mutation_epoch
from repro.optim import SGD
from repro.slicing import (
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
from repro.slicing.plans import ConvStep
from repro.tensor import Tensor, conv2d, no_grad

RATES_G4 = GroupPartition(8, 4).valid_rates()  # 0.25, 0.5, 0.75, 1.0


def _as_arrays(out):
    if isinstance(out, tuple):  # recurrent cells return (h, c) states
        return tuple(t.data if isinstance(t, Tensor) else t for t in out)
    return out.data if isinstance(out, Tensor) else out


def _arg(x):
    arr = np.asarray(x)
    return arr if arr.dtype.kind in "iu" else Tensor(x)


def _tensors(state):
    """A recurrent state (array or tuple of arrays) as Tensor arguments."""
    if isinstance(state, tuple):
        return (tuple(Tensor(s) for s in state),)
    return (Tensor(state),)


def _sliced(layer, x, rate, *state):
    """The reference leg: uncompiled sliced forward at ``rate``."""
    with no_grad(), slice_rate(rate):
        out = layer(_arg(x), *state)
    return _as_arrays(out)


def _materialized(layer, x, rate, *state):
    """The deployment leg: standalone subnet from materialize_subnet.

    The deployed child takes the recurrent state directly; a
    ``Sequential`` passes its input only.
    """
    deployed = materialize_subnet(Sequential(layer), rate)
    deployed.eval()
    with no_grad():
        out = deployed[0](_arg(x), *state)
    return _as_arrays(out)


def _states(out):
    return out if isinstance(out, tuple) else (out,)


def _assert_cell_three_way(cell, rng):
    """Plan, sliced and deployed cells agree from a nonzero state."""
    for rate in RATES_G4:
        in_w = cell.in_partition.width_for(rate)
        hidden = cell.partition.width_for(rate)
        x = rng.normal(size=(4, in_w)).astype(np.float32)
        state = rng.normal(size=(4, hidden)).astype(np.float32)
        if isinstance(cell, SlicedLSTMCell):  # (h, c) state tuples
            state = (state, rng.normal(size=(4, hidden)).astype(np.float32))
        plan_out = compile_layer(cell, rate)(x, state)
        for leg, out in (("sliced", _sliced(cell, x, rate, *_tensors(state))),
                         ("deployed", _materialized(cell, x, rate,
                                                    *_tensors(state)))):
            for got, want in zip(_states(plan_out), _states(out)):
                np.testing.assert_allclose(
                    got, want, rtol=1e-4, atol=1e-5,
                    err_msg=f"plan vs {leg} at {rate}")


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
            plan_out = np.array(step(x))
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

    @pytest.mark.parametrize("groups", [2, 4])
    def test_groupnorm_step_bitwise_live(self, rng, groups):
        """The step replays the live layer's eval arithmetic, fused ReLU
        included, so compiled and live group norms agree in every bit."""
        layer = SlicedGroupNorm(8, num_groups=groups)
        layer.weight.data = rng.normal(size=8).astype(np.float32)
        layer.bias.data = rng.normal(size=8).astype(np.float32)
        for rate in GroupPartition(8, groups).valid_rates():
            step = compile_layer(layer, rate, relu=True)
            x = rng.normal(size=(4, step.channels, 5, 5)).astype(np.float32)
            with no_grad():
                live = layer(Tensor(x)).relu().data
            np.testing.assert_array_equal(step(x), live,
                                          err_msg=f"rate {rate}")

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
        cell = cell_cls(8, 8, num_groups=4, rng=np.random.default_rng(0))
        _assert_cell_three_way(cell, rng)

    @pytest.mark.parametrize("cell_cls", [SlicedLSTMCell, SlicedGRUCell,
                                          SlicedRNNCell])
    def test_recurrent_cell_rescaled_matches_sliced(self, rng, cell_cls):
        cell = cell_cls(8, 8, rescale=True, num_groups=4,
                        rng=np.random.default_rng(1))
        _assert_cell_three_way(cell, rng)

    def test_unknown_layer_rejected(self):
        with pytest.raises(PlanError):
            compile_layer(Sequential(SlicedLinear(4, 4)), 0.5)


# ----------------------------------------------------------------------
# Whole-model three-way equivalence
# ----------------------------------------------------------------------
class TestModelEquivalence:
    def _assert_three_way(self, model, x, rates, rtol=1e-4, atol=1e-5):
        model.eval()
        for rate in rates:
            plan = compile_plan(model, rate)
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
            # One size everywhere: the count, the artifact and the plan.
            assert active_params(model, rate) == deployed.num_parameters() \
                == plan.param_bytes() // 4

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
        with pytest.raises(PlanError):  # no BN branch for this rate
            materialize_subnet(model, 0.75)

    def test_transformer_encoder(self, rng):
        model = TransformerEncoder(image_size=8, patch_size=4, channels=3,
                                   num_classes=5, embed_dim=32, num_heads=4,
                                   ffn_dim=64, depth=2, seed=3)
        x = rng.normal(size=(3, 3, 8, 8)).astype(np.float32)
        self._assert_three_way(model, x, RATES_G4)

    def test_transformer_lm(self, rng):
        model = TransformerLM(61, embed_dim=32, num_heads=4, ffn_dim=64,
                              depth=2, max_seq=16, seed=5)
        tokens = rng.integers(0, 61, size=(10, 3))
        self._assert_three_way(model, tokens, RATES_G4)

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


class TestTokenIdRange:
    """A bad token id fails alike live, compiled and resumable (a
    negative id would otherwise wrap to the last vocabulary row)."""

    @pytest.mark.parametrize("bad", ["negative", "vocab", "float"])
    @pytest.mark.parametrize("family", ["nnlm", "tlm"])
    def test_bad_token_ids_raise_everywhere(self, family, bad):
        from repro.slicing import ResumablePlan
        if family == "nnlm":
            model = NNLM(vocab_size=20, embed_dim=8, hidden_size=8,
                         num_groups=4, seed=0)
        else:
            model = TransformerLM(20, embed_dim=16, num_heads=4, ffn_dim=32,
                                  depth=1, max_seq=8, num_groups=4, seed=0)
        model.eval()
        tokens = np.ones((5, 2), dtype=np.int64)
        tokens[3, 1] = -1 if bad == "negative" else 20
        if bad == "float":
            tokens = np.ones((5, 2), dtype=np.float32)
        for run in (lambda: _sliced(model, tokens, 0.5),
                    lambda: compile_plan(model, 0.5).run(tokens),
                    lambda: ResumablePlan(model, 0.5).run(tokens)):
            with pytest.raises(ShapeError, match="out of range|integers"):
                run()


# ----------------------------------------------------------------------
# CNN plans run the live conv and group-norm kernels: bitwise equal
# ----------------------------------------------------------------------
#: Spatial sizes that are not powers of two, so a reciprocal-count mean
#: and a true-divide mean round differently.
IMAGE_SHAPES = [(3, 3, 12, 12), (4, 3, 20, 20)]


def _cnn(name):
    if name == "vgg":
        return SlicedVGG.cifar_mini(num_classes=4, seed=0).eval()
    return SlicedResNet.cifar_mini(num_classes=4, blocks=2, seed=0).eval()


def _live_units(model):
    """The live forward as one callable per compiled step, head excluded."""
    if isinstance(model, SlicedVGG):
        units = [(lambda h, op=op: op(h).relu()) if kind == "norm" else op
                 for kind, op in model._ops]
    else:
        units = [model.stem, *model.blocks,
                 lambda h: model.final_norm(h).relu()]
    return units + [model.global_pool]


class TestCNNPlansBitwiseLive:
    @pytest.mark.parametrize("shape", IMAGE_SHAPES, ids=["3x12x12", "4x20x20"])
    @pytest.mark.parametrize("rate", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("name", ["vgg", "resnet"])
    def test_plan_is_the_live_forward(self, name, rate, shape):
        model = _cnn(name)
        x = np.random.default_rng(0).normal(size=shape).astype(np.float32)
        with no_grad(), slice_rate(rate):
            live = model(Tensor(x)).data
        assert np.array_equal(compile_plan(model, rate).run(x), live)

    @pytest.mark.parametrize("shape", IMAGE_SHAPES, ids=["3x12x12", "4x20x20"])
    @pytest.mark.parametrize("name", ["vgg", "resnet"])
    def test_every_activation_before_the_head_at_075(self, name, shape):
        """At .75 the head folds its 4/3 rescale into the weights (the
        live layer scales after the GEMM); every step before it is the
        live arithmetic."""
        model = _cnn(name)
        x = np.random.default_rng(0).normal(size=shape).astype(np.float32)
        plan = compile_plan(model, 0.75)
        units = _live_units(model)
        assert len(units) == len(plan.steps) - 1
        live, compiled = Tensor(x), x
        with no_grad(), slice_rate(0.75):
            for i, (unit, step) in enumerate(zip(units, plan.steps)):
                live, compiled = unit(live), step(compiled)
                np.testing.assert_array_equal(
                    compiled, live.data, err_msg=f"step {i} ({step.kind})")

    def test_pointwise_conv_step_is_conv2d(self, rng):
        x = rng.normal(size=(2, 64, 6, 6)).astype(np.float32)
        weight = rng.normal(size=(32, 64, 1, 1)).astype(np.float32)
        bias = rng.normal(size=32).astype(np.float32)
        with no_grad():
            live = conv2d(Tensor(x), Tensor(weight), Tensor(bias)).data
        assert np.array_equal(ConvStep(weight, bias)(x), live)


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
        before = [p.version for p in layer.parameters()]
        layer.load_state_dict(state)
        after = [p.version for p in layer.parameters()]
        assert all(b > a for b, a in zip(after, before))


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

    @pytest.mark.parametrize("rate", [0.5, 1.0])
    def test_held_plan_aliases_parameters(self, rng, rate):
        """Plans are not copies: contiguous prefixes are views of the
        live parameters, so a held plan is run only while is_valid()."""
        model = MLP(8, [16], 4, seed=0)
        plan = compile_plan(model, rate)
        x = rng.normal(size=(3, 8)).astype(np.float32)
        before = plan.run(x).copy()
        for param in model.parameters():
            param.data -= 0.1
        assert not plan.is_valid()
        assert not np.array_equal(plan.run(x), before)

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

    @pytest.mark.parametrize("build", [
        lambda: SlicedVGG.cifar_mini(num_classes=4, width=8, stages=2,
                                     num_groups=4, norm="batch", seed=0),
        lambda: SlicedResNet.cifar_mini(num_classes=4, blocks=1,
                                        norm="batch", seed=0),
    ], ids=["vgg", "resnet"])
    def test_naive_batch_norm_training_invalidates(self, rng, build):
        # A train-mode forward updates the shared running statistics;
        # both plan kinds must go stale and the cache must recompile to
        # the new eval output instead of serving the folded old ones.
        from repro.slicing import ResumablePlan
        model = build()
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        model.eval()
        cache = PlanCache()
        stale = cache.get(model, 1.0)
        resumable = ResumablePlan(model, 1.0)
        model.train()
        model(Tensor(x * 3.0 + 1.0))
        model.eval()
        assert not stale.is_valid()
        assert not resumable.is_valid()
        fresh = cache.get(model, 1.0)
        assert fresh is not stale
        with slice_rate(1.0):
            live = model(Tensor(x)).data
        np.testing.assert_allclose(fresh.run(x), live, rtol=1e-4, atol=1e-5)

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


# ----------------------------------------------------------------------
# The mutation epoch: every bump path stales a held plan, and a check on
# an unchanged process never walks the model
# ----------------------------------------------------------------------
# Each path takes the model and returns its write as a thunk, so that
# building a replacement (whose own construction bumps the epoch) happens
# before the test reads the epoch.
def _data_assign(model):
    weight = model.head.weight
    return lambda: setattr(weight, "data", weight.data * 1.5)


def _data_isub(model):
    def write():
        model.head.weight.data -= 0.1
    return write


def _bump_version(model):
    return model.head.weight.bump_version


def _mutate(model):
    def write():
        with model.head.weight.mutate() as data:
            data[0, 0] += 1.0
    return write


def _mutate_raises(model):
    def write():
        with pytest.raises(RuntimeError):
            with model.head.weight.mutate() as data:
                data[0, 0] += 1.0
                raise RuntimeError("interrupted mid-write")
    return write


def _sync_version_new(model):
    weight = model.head.weight
    return lambda: weight.sync_version(weight.version + 5)


def _new_parameter(model):
    bias = Parameter(model.head.bias.data.copy())
    return lambda: setattr(model.head, "bias", bias)


def _new_head():
    return SlicedLinear(8, 3, slice_output=False, num_groups=4,
                        rng=np.random.default_rng(1))


def _child_swap(model):
    head = _new_head()
    return lambda: setattr(model, "head", head)


def _register_module(model):
    head = _new_head()
    return lambda: model.register_module("head", head)


def _load_state_dict(model):
    state = model.state_dict()
    return lambda: model.load_state_dict(state)


_BUMP_PATHS = [_data_assign, _data_isub, _bump_version, _mutate,
               _mutate_raises, _sync_version_new, _new_parameter,
               _child_swap, _register_module, _load_state_dict]


def _count_walks(monkeypatch) -> list:
    """Count calls to ``Module.parameters`` (the staleness walk)."""
    calls = []
    original = Module.parameters

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Module, "parameters", counted)
    return calls


class TestMutationEpoch:
    @pytest.mark.parametrize("path", _BUMP_PATHS,
                             ids=lambda path: path.__name__.lstrip("_"))
    def test_bump_path_stales_held_plan(self, path):
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        plan = compile_plan(model, 0.5)
        write = path(model)
        assert plan.is_valid()
        epoch = mutation_epoch()
        write()
        assert mutation_epoch() != epoch
        assert not plan.is_valid()

    def test_rebound_running_mean_stales_held_plan(self):
        model = SlicedVGG.cifar_mini(num_classes=4, width=8, stages=2,
                                     num_groups=4, norm="batch", seed=0)
        model.eval()
        plan = compile_plan(model, 1.0)
        assert plan.is_valid()
        bn = next(m for m in model.modules() if m.extra_state())
        epoch = mutation_epoch()
        bn.running_mean = bn.running_mean + 1.0
        assert mutation_epoch() != epoch
        assert not plan.is_valid()

    def test_sync_version_to_same_value_keeps_fast_path(self, monkeypatch):
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        plan = compile_plan(model, 0.5)
        assert plan.is_valid()
        epoch = mutation_epoch()
        for param in model.parameters():
            param.sync_version(param.version)
        assert mutation_epoch() == epoch
        walks = _count_walks(monkeypatch)
        assert plan.is_valid()
        assert walks == []

    def test_cache_hit_on_unchanged_model_does_not_walk(self, monkeypatch):
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        cache = PlanCache()
        plan = cache.get(model, 0.5)
        walks = _count_walks(monkeypatch)
        for _ in range(3):
            assert cache.get(model, 0.5) is plan
        assert walks == []
        assert cache.hits == 3

    def test_unrelated_write_walks_once_and_stays_valid(self, monkeypatch):
        # The epoch is process-wide: another model's write costs this
        # plan one walk, which passes and re-arms the fast path.
        model = MLP(8, [8], 3, num_groups=4, seed=0)
        other = MLP(8, [8], 3, num_groups=4, seed=1)
        plan = compile_plan(model, 0.5)
        other.head.weight.bump_version()
        walks = _count_walks(monkeypatch)
        assert plan.is_valid()
        assert plan.is_valid()
        assert walks == [model]


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


# ----------------------------------------------------------------------
# Integrations: runtime replicas, latency metrics, serving, anytime
# ----------------------------------------------------------------------
class TestIntegrations:
    def _replica(self, model, cache):
        from repro.runtime import LatencyProfile, Replica
        return Replica("r0", LatencyProfile(full_per_sample=1e-4),
                       model=model, plan_cache=cache)

    def test_replica_plan_predictions_match_sliced(self, rng):
        model = MLP(12, [16], 4, num_groups=4, seed=0)
        x = rng.normal(size=(10, 12)).astype(np.float32)
        cache = PlanCache()
        replica = self._replica(model, cache)
        for rate in RATES_G4:
            np.testing.assert_array_equal(
                replica.predict(x, rate),
                _sliced(model, x, rate).argmax(axis=-1))
        assert cache.misses == len(RATES_G4)

    def test_replica_warm_plans(self):
        model = MLP(12, [16], 4, num_groups=4, seed=0)
        cache = PlanCache()
        replica = self._replica(model, cache)
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
        from repro.slicing import ResumablePlan, anytime_predict
        model = MLP(12, [16, 16], 4, num_groups=4, seed=0)
        rates = [0.25, 0.5, 1.0]
        x = rng.normal(size=(5, 12)).astype(np.float32)
        before = anytime_predict(model, rates, x)[-1]["logits"]
        model.head.weight.data *= 1.1
        final = anytime_predict(model, rates, x)[-1]["logits"]
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
