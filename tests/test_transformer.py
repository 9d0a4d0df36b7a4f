"""Differential harness for the sliced-attention transformer family.

The contract under test:

* Live forward, compiled :func:`compile_plan` and
  :func:`materialize_subnet` are **bitwise** identical for both models —
  at uniform rates and at non-uniform head-count x FFN-width profiles.
* Grouped slicing is Eq.-2 nested: a narrower head/FFN profile's plan
  weights are literal array prefixes of a wider profile's (hypothesis
  sweep over the head x FFN grid), and :func:`pointwise_nested` resolves
  comparisons at head/group granularity.
* ``ResumablePlan.widen`` in exact mode is bitwise equal to a
  from-scratch pass at the wider profile; clean head growth reports
  ``"per-head recompute"`` and residual growth ``"full recompute"``;
  row subsetting is refused (the attention cache couples the batch).
* The token :class:`Embedding` follows the ambient profile width when
  (and only when) it opts into output slicing — the width-controller
  regression, at every demo rate.
* :class:`DecoderSession` incremental decoding agrees with the full
  forward and its KV cache bytes match ``kv_cache_bytes``, which the
  serving cost model (``memory_of_profile`` -> ``CostTable`` ->
  ``NodeSpec.max_sessions``) budgets per resident session.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import CostTable, NodeSpec
from repro.errors import PlanError, ShapeError
from repro.metrics.flops import measured_flops, memory_of_profile
from repro.models import MLP, TransformerEncoder, TransformerLM
from repro.models.transformer import (head_ffn_profile,
                                      transformer_search_points)
from repro.nn import Embedding, Module
from repro.optim import SGD
from repro.runtime import LatencyProfile
from repro.slicing import (
    LayerProfile,
    ResumablePlan,
    compile_plan,
    materialize_subnet,
    pointwise_nested,
    slice_granularity,
    slice_profile,
    slice_rate,
    snap_rate,
)
from repro.slicing.plans import AttentionBlockStep, FFNBlockStep
from repro.tensor import no_grad

HEADS, FFN_GROUPS = 4, 8
DEMO_RATES = [i / 8 for i in range(1, 9)]


@pytest.fixture(scope="module")
def enc():
    model = TransformerEncoder(image_size=8, patch_size=4, channels=3,
                               num_classes=5, embed_dim=32,
                               num_heads=HEADS, ffn_dim=64, depth=2, seed=3)
    model.eval()
    return model


@pytest.fixture(scope="module")
def lm():
    model = TransformerLM(61, embed_dim=32, num_heads=HEADS, ffn_dim=64,
                          depth=2, max_seq=16, seed=5)
    model.eval()
    return model


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(11)
    return rng.normal(size=(3, 3, 8, 8)).astype(np.float32)


@pytest.fixture(scope="module")
def tokens():
    rng = np.random.default_rng(12)
    return rng.integers(0, 61, size=(10, 3))


def live(model, inputs, profile):
    with no_grad(), slice_profile(profile):
        out = model(inputs)
    return out.data


def deployed(model, inputs, profile):
    subnet = materialize_subnet(model, profile)
    subnet.eval()
    with no_grad():
        out = subnet(inputs)
    return out.data


# Three non-uniform (head_rate, ffn_rate) profiles per model, as the
# acceptance criteria require, spanning both axes independently.
HEAD_FFN = [(0.5, 1.0), (1.0, 0.5), (0.75, 0.25)]


class TestThreeWayDifferential:
    """live == compiled plan == materialized subnet, bitwise."""

    @pytest.mark.parametrize("rate", [0.25, 0.5, 0.75, 1.0])
    def test_encoder_uniform(self, enc, images, rate):
        expected = live(enc, images, rate)
        assert np.array_equal(compile_plan(enc, rate).run(images), expected)
        assert np.array_equal(deployed(enc, images, rate), expected)

    @pytest.mark.parametrize("rate", [0.25, 0.5, 0.75, 1.0])
    def test_lm_uniform(self, lm, tokens, rate):
        expected = live(lm, tokens, rate)
        assert np.array_equal(compile_plan(lm, rate).run(tokens), expected)
        assert np.array_equal(deployed(lm, tokens, rate), expected)

    @pytest.mark.parametrize("head_rate,ffn_rate", HEAD_FFN)
    def test_encoder_head_ffn(self, enc, images, head_rate, ffn_rate):
        profile = head_ffn_profile(enc, head_rate, ffn_rate)
        expected = live(enc, images, profile)
        assert np.array_equal(compile_plan(enc, profile).run(images),
                              expected)
        assert np.array_equal(deployed(enc, images, profile), expected)

    @pytest.mark.parametrize("head_rate,ffn_rate", HEAD_FFN)
    def test_lm_head_ffn(self, lm, tokens, head_rate, ffn_rate):
        profile = head_ffn_profile(lm, head_rate, ffn_rate)
        expected = live(lm, tokens, profile)
        assert np.array_equal(compile_plan(lm, profile).run(tokens),
                              expected)
        assert np.array_equal(deployed(lm, tokens, profile), expected)

    def test_narrow_residual_stream(self, lm, tokens):
        """The whole residual stream can narrow (default rate < 1)."""
        profile = head_ffn_profile(lm, 0.5, 0.5, default=0.5)
        expected = live(lm, tokens, profile)
        assert np.array_equal(compile_plan(lm, profile).run(tokens),
                              expected)

    def test_fc2_must_stay_at_residual_width(self, lm, tokens):
        bad = LayerProfile({"blocks.0.fc2": 0.5}, default=1.0)
        with pytest.raises(ShapeError):
            live(lm, tokens, bad)
        with pytest.raises(PlanError):
            compile_plan(lm, bad)


class TestGroupedNesting:
    """Eq. 2 at head/group granularity: narrow weights ⊂ wide weights."""

    @given(h1=st.integers(1, HEADS), h2=st.integers(1, HEADS),
           f1=st.integers(1, FFN_GROUPS), f2=st.integers(1, FFN_GROUPS))
    def test_narrow_plan_is_prefix_of_wide(self, lm, h1, h2, f1, f2):
        narrow = head_ffn_profile(lm, min(h1, h2) / HEADS,
                                  min(f1, f2) / FFN_GROUPS)
        wide = head_ffn_profile(lm, max(h1, h2) / HEADS,
                                max(f1, f2) / FFN_GROUPS)
        assert pointwise_nested(lm, narrow, wide)
        if (h1, f1) != (h2, f2):
            assert not pointwise_nested(lm, wide, narrow)
        steps_n = compile_plan(lm, narrow).steps
        steps_w = compile_plan(lm, wide).steps
        attn = ffn = 0
        for step_n, step_w in zip(steps_n, steps_w):
            if isinstance(step_n, AttentionBlockStep):
                rows, cols = step_n.qkv_weight.shape
                assert np.array_equal(step_n.qkv_weight,
                                      step_w.qkv_weight[:rows, :cols])
                out, inner = step_n.proj_weight.shape
                assert np.array_equal(step_n.proj_weight,
                                      step_w.proj_weight[:out, :inner])
                attn += 1
            elif isinstance(step_n, FFNBlockStep):
                rows, cols = step_n.fc1_weight.shape
                assert np.array_equal(step_n.fc1_weight,
                                      step_w.fc1_weight[:rows, :cols])
                assert np.array_equal(
                    step_n.fc2_weight,
                    step_w.fc2_weight[:, :step_n.fc2_weight.shape[1]])
                ffn += 1
        assert attn == 2 and ffn == 2

    def test_granularity_snaps_head_rates(self, lm):
        grain = slice_granularity(lm)
        point = "blocks.0.attn"
        assert grain[point] == HEADS
        # 0.4 and 0.49 both snap to 2-of-4 heads: nested both ways.
        p_low = LayerProfile({point: 0.4}, default=1.0)
        p_high = LayerProfile({point: 0.49}, default=1.0)
        assert snap_rate(0.4, HEADS) == snap_rate(0.49, HEADS) == 2
        assert pointwise_nested(lm, p_low, p_high)
        assert pointwise_nested(lm, p_high, p_low)

    def test_search_points_exclude_controllers_and_fc2(self, lm, enc):
        for model in (lm, enc):
            points = transformer_search_points(model)
            assert points, "search points must not be empty"
            assert all(p.endswith("attn") or p.endswith("fc1")
                       for p in points)


class TestResumableWidening:
    def test_exact_widen_bitwise_lm(self, lm, tokens):
        p0 = head_ffn_profile(lm, 0.5, 0.25)
        p1 = head_ffn_profile(lm, 1.0, 0.75)
        plan = ResumablePlan(lm, p0, exact=True)
        plan.run(tokens)
        widened = plan.widen(p1)
        fresh = ResumablePlan(lm, p1, exact=True).run(tokens)
        assert np.array_equal(widened, fresh)
        notes = [entry.get("note") for entry in plan.last_report]
        assert "per-head recompute" in notes
        assert plan.flops_saved() > 0

    def test_exact_widen_bitwise_encoder(self, enc, images):
        p0 = head_ffn_profile(enc, 0.25, 0.5)
        p1 = head_ffn_profile(enc, 0.75, 1.0)
        plan = ResumablePlan(enc, p0, exact=True)
        plan.run(images)
        widened = plan.widen(p1)
        fresh = ResumablePlan(enc, p1, exact=True).run(images)
        assert np.array_equal(widened, fresh)

    def test_residual_growth_recomputes(self, lm, tokens):
        plan = ResumablePlan(lm, 0.5, exact=True)
        plan.run(tokens)
        widened = plan.widen(1.0)
        fresh = ResumablePlan(lm, 1.0, exact=True).run(tokens)
        assert np.array_equal(widened, fresh)
        notes = [entry.get("note") for entry in plan.last_report]
        assert "full recompute" in notes

    def test_subset_refused(self, lm, tokens):
        plan = ResumablePlan(lm, 0.5, exact=True)
        plan.run(tokens)
        with pytest.raises(PlanError):
            plan.subset([0])

    def test_approx_mode_reports_savings(self, lm, tokens):
        plan = ResumablePlan(lm, head_ffn_profile(lm, 0.5, 0.5),
                             exact=False)
        first = plan.run(tokens)
        assert first.shape == (10, 3, 61)
        widened = plan.widen(head_ffn_profile(lm, 1.0, 1.0))
        assert widened.shape == (10, 3, 61)
        assert plan.flops_saved() > 0

    def test_overlong_sequence_raises_shape_error(self, lm):
        """The live model, compiled and resumable plans refuse a sequence
        longer than the positional table with one error."""
        tokens = np.zeros((17, 2), dtype=np.int64)  # max_seq is 16
        message = "sequence length 17 exceeds max_seq 16"
        with pytest.raises(ShapeError, match=message), no_grad():
            lm(tokens)
        with pytest.raises(ShapeError, match=message):
            compile_plan(lm, 1.0).run(tokens)
        with pytest.raises(ShapeError, match=message):
            ResumablePlan(lm, 1.0).run(tokens)


class TestEmbeddingWidthController:
    """Regression: the token embedding must follow the ambient profile."""

    @pytest.mark.parametrize("rate", DEMO_RATES)
    def test_sliced_output_follows_profile(self, lm, tokens, rate):
        with no_grad(), slice_rate(rate):
            out = lm.embedding(tokens)
        assert out.shape == tokens.shape + (lm.embedding.active_width(rate),)

    def test_opt_out_ignores_profile(self):
        emb = Embedding(10, 16, rng=np.random.default_rng(0))
        idx = np.arange(6).reshape(2, 3)
        with no_grad(), slice_rate(0.25):
            out = emb(idx)
        assert out.shape == (2, 3, 16)

    @pytest.mark.parametrize("rate", DEMO_RATES)
    def test_lm_forward_at_every_demo_rate(self, lm, tokens, rate):
        logits = live(lm, tokens, rate)
        assert logits.shape == (10, 3, 61)
        assert np.all(np.isfinite(logits))


class TestDecoderSession:
    def test_incremental_matches_full_forward(self, lm):
        profile = head_ffn_profile(lm, 0.75, 0.5)
        rng = np.random.default_rng(21)
        seq = rng.integers(0, 61, size=12)
        session = lm.new_session(profile)
        stepwise = np.stack([session.append(t) for t in seq])
        full = live(lm, seq.reshape(-1, 1), profile)[:, 0]
        assert np.allclose(stepwise, full, atol=1e-5)

    def test_kv_bytes_match_cost_model(self, lm):
        for rate in [0.25, 0.5, 1.0]:
            session = lm.new_session(rate)
            assert session.kv_bytes == lm.kv_cache_bytes(rate)
        assert lm.kv_cache_bytes(0.25) < lm.kv_cache_bytes(1.0)

    def test_session_capacity_errors(self, lm):
        session = lm.new_session(1.0, max_seq=2)
        session.append(1)
        session.append(2)
        with pytest.raises(ShapeError):
            session.append(3)

    def test_session_longer_than_positions_rejected(self, lm):
        for seq in (0, lm.max_seq + 1):
            with pytest.raises(ShapeError, match="session length"):
                lm.new_session(1.0, max_seq=seq)
            with pytest.raises(ShapeError, match="session length"):
                lm.kv_cache_bytes(1.0, max_seq=seq)
        assert lm.new_session(1.0, max_seq=lm.max_seq).max_seq == 16

    @pytest.mark.parametrize("token", [-1, 61])
    def test_out_of_range_token_rejected(self, lm, token):
        session = lm.new_session(0.5)
        with pytest.raises(ShapeError, match="out of range"):
            session.append(token)
        assert session.length == 0

    def test_sessions_share_one_plan(self, lm):
        """A session's weights are views of its profile's cached plan;
        the only arrays it owns are its KV cache."""
        profile = head_ffn_profile(lm, 0.5, 0.75)
        first, second = lm.new_session(profile), lm.new_session(profile)
        assert first.plan is second.plan
        weights = [v for step in first.plan.steps for v in vars(step).values()
                   if isinstance(v, np.ndarray)]
        owned = 0
        for value in vars(first).values():
            for arr in (value if isinstance(value, list) else [value]):
                if isinstance(arr, np.ndarray) and not any(
                        np.shares_memory(arr, w) for w in weights):
                    owned += arr.nbytes
        assert owned == first.kv_bytes == lm.kv_cache_bytes(profile)

    def test_stale_session_raises(self):
        model = TransformerLM(61, embed_dim=32, num_heads=HEADS, ffn_dim=64,
                              depth=2, max_seq=16, seed=5)
        session = model.new_session(1.0)
        session.append(3)
        optimizer = SGD(model.parameters(), lr=0.1)
        model.sequence_nll(np.array([[3], [4]]),
                           np.array([[4], [5]])).backward()
        optimizer.step()
        with pytest.raises(PlanError, match="stale"):
            session.append(4)
        fresh = model.new_session(1.0)
        fresh.append(3)
        assert fresh.plan is not session.plan

    def test_append_checks_staleness_without_walking(self, monkeypatch):
        model = TransformerLM(61, embed_dim=32, num_heads=HEADS, ffn_dim=64,
                              depth=2, max_seq=16, seed=5)
        session = model.new_session(1.0)
        session.append(3)
        walks = []
        walk = Module.parameters
        monkeypatch.setattr(Module, "parameters",
                            lambda self: walks.append(self) or walk(self))
        for token in (4, 5, 6):
            session.append(token)
        assert walks == []
        with model.blocks[0].fc1.weight.mutate() as data:
            data[0, 0] += 1.0
        with pytest.raises(PlanError, match="stale"):
            session.append(7)
        assert walks == [model]


def _token_builder(shape):
    return np.zeros(shape, dtype=np.int64)


class TestServingCostModel:
    def test_memory_of_profile_reports_kv(self, lm, enc):
        mem = memory_of_profile(lm, (8, 1), rate=0.5,
                                input_builder=_token_builder)
        assert mem["kv_cache_bytes_per_session"] == lm.kv_cache_bytes(0.5)
        # Sessions scale with users, not replicas: kept out of the total.
        assert mem["total_bytes"] == (mem["param_bytes"]
                                      + mem["peak_activation_bytes"])
        enc_mem = memory_of_profile(enc, (1, 3, 8, 8), rate=0.5)
        assert "kv_cache_bytes_per_session" not in enc_mem

    def test_node_budget_is_kv_bounded(self, lm):
        table = CostTable.from_model(
            lm, (8, 1), {0.25: 0.6, 1.0: 0.9}, LatencyProfile(0.002),
            input_builder=_token_builder)
        node = NodeSpec(memory_bytes=1 << 20, flops_per_sec=1e9,
                        max_replicas=4, sessions_per_replica=8)
        cheap, wide = table.cheapest, table.widest
        assert cheap.kv_bytes_per_session > 0
        assert node.max_sessions(cheap) > node.max_sessions(wide) > 0
        # Resident sessions inflate each replica's memory footprint.
        stateless = NodeSpec(memory_bytes=1 << 20, flops_per_sec=1e9,
                             max_replicas=4)
        assert (node.replica_footprint(wide)
                == stateless.replica_footprint(wide)
                + 8 * wide.kv_bytes_per_session)

    def test_stateless_models_are_unbounded(self):
        mlp = MLP(8, [16], 4, seed=0)
        table = CostTable.from_model(mlp, (1, 8), {1.0: 0.9},
                                     LatencyProfile(0.002))
        node = NodeSpec(memory_bytes=1 << 20, flops_per_sec=1e9,
                        max_replicas=4)
        assert node.max_sessions(table.widest) == float("inf")

    def test_attention_flops_superlinear_in_seq(self, lm):
        short = measured_flops(lm, (5, 1), rate=1.0,
                               input_builder=_token_builder)
        long = measured_flops(lm, (10, 1), rate=1.0,
                              input_builder=_token_builder)
        # Dense terms scale linearly with T; the T^2 attention scores
        # push the doubled sequence strictly past 2x.
        assert long > 2 * short
