"""Attention operator semantics: relations, weight perceptron, position
encoding, structural identities against convolution and scalar attention."""

import tracemalloc

import numpy as np
import pytest

import sanet.tensor as T
from sanet.attention import (
    FAMILIES,
    FAMILY_FIELDS,
    AttentionConfig,
    Conv2d,
    VectorAttention,
    attention_dims,
    conv2d,
    mlp_widths,
    pairwise_attention,
    patchwise_attention,
    position_map,
    relation_width,
)
from sanet.accounting import mlp_params
from sanet.reference import (
    _mlp_vector,
    naive_position_map,
    pairwise_relation_vector,
    patch_relation_vector,
)
from sanet.tensor import ConfigError, DimensionError, Tensor, no_grad


def make_params(family="pairwise", relation="subtraction", k=3, share=2,
                position="none", normalize=False, channels=16, seed=0,
                dtype=np.float64):
    fields = {"share": share, "position": position, "normalize": normalize}
    cfg = AttentionConfig(family=family, relation=relation, footprint=k, r1=4, r2=2,
                          **{f: v for f, v in fields.items() if f in FAMILY_FIELDS[family]})
    return VectorAttention(channels, cfg, np.random.default_rng(seed), dtype=dtype)


def force_constant_weights(params, value=1.0):
    """Zero the perceptron so it emits ``value`` regardless of input."""
    for layer in params.mlp:
        layer.w.data[...] = 0.0
        layer.b.data[...] = 0.0
    params.mlp[-1].b.data[...] = value


class TestPositionFeatures:
    def test_single_pixel_maps_to_origin(self):
        out = position_map(1, 1, Tensor(np.eye(2)), np.float64)
        np.testing.assert_array_equal(out.data, np.zeros((1, 2, 1, 1)))

    def test_identity_map_corners(self):
        out = position_map(3, 3, Tensor(np.eye(2)), np.float64).data[0]
        np.testing.assert_array_equal(out[:, 0, 0], [-1.0, -1.0])
        np.testing.assert_array_equal(out[:, 2, 2], [1.0, 1.0])

    def test_five_point_axis_is_linspace(self):
        out = position_map(5, 5, Tensor(np.eye(2)), np.float64).data[0]
        np.testing.assert_allclose(out[0, :, 0], np.linspace(-1, 1, 5), atol=1e-15)
        np.testing.assert_allclose(out[1, 0, :], np.linspace(-1, 1, 5), atol=1e-15)

    def test_matches_loop_oracle_through_random_map(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(2, 2))
        out = position_map(4, 6, Tensor(w), np.float64).data
        np.testing.assert_allclose(out, naive_position_map(4, 6, w, np.float64)[None],
                                   atol=1e-14)


class TestRelationVectors:
    def test_subtraction_of_equal_features_is_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(pairwise_relation_vector(v, v, "subtraction"),
                                      np.zeros(3))

    def test_dot_hand_sum(self):
        out = pairwise_relation_vector(np.array([1.0, 2.0]), np.array([3.0, 4.0]), "dot")
        np.testing.assert_array_equal(out, [11.0])

    def test_concatenation_doubles_width_query_first(self):
        qi, kj = np.arange(4.0), np.arange(4.0, 8.0)
        out = pairwise_relation_vector(qi, kj, "concatenation")
        assert out.shape == (8,)
        np.testing.assert_array_equal(out[:4], qi)
        np.testing.assert_array_equal(out[4:], kj)

    def test_star_product_with_zero_query_is_zero(self):
        slots = [np.array([1.0]), np.array([2.0])]
        out = patch_relation_vector(np.zeros(1), slots, slots, "star_product")
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_clique_product_row_major_enumeration(self):
        """Two abstract slots, width-1 features: products come out (j, k) ordered."""
        q_slots = [np.array([3.0]), np.array([4.0])]  # per-slot query features c, d
        k_slots = [np.array([1.0]), np.array([2.0])]  # per-slot key features a, b
        out = patch_relation_vector(np.zeros(1), q_slots, k_slots, "clique_product")
        np.testing.assert_array_equal(out, [3.0, 6.0, 4.0, 8.0])

    def test_relation_widths(self):
        dims = attention_dims(256, AttentionConfig(family="patchwise",
                                                   relation="concatenation", footprint=7))
        assert relation_width(AttentionConfig(family="patchwise", relation="concatenation",
                                              footprint=7), dims) == 50 * 16 == 800
        cfg_dot = AttentionConfig(relation="dot")
        assert relation_width(cfg_dot, attention_dims(256, cfg_dot)) == 1


class TestWeightPerceptron:
    def test_depth_one_identity(self):
        """A square single-layer perceptron set to the identity passes
        relation vectors through unchanged."""
        cfg = AttentionConfig(family="pairwise", relation="subtraction", footprint=3,
                              r1=4, r2=2, share=2, mlp_depth=1, position="none")
        p = VectorAttention(16, cfg, np.random.default_rng(0), dtype=np.float64)
        p.mlp[0].w.data[...] = np.eye(4)
        p.mlp[0].b.data[...] = 0.0
        v = Tensor(np.random.default_rng(1).normal(size=(1, 4, 2, 2)))
        out = T.linear(v, p.mlp[0].w, p.mlp[0].b)
        np.testing.assert_array_equal(out.data, v.data)

    def test_depth_two_zero_final_layer_kills_output(self):
        params = make_params()
        params.mlp[-1].w.data[...] = 0.0
        params.mlp[-1].b.data[...] = 0.0
        x = Tensor(np.random.default_rng(2).normal(size=(1, 16, 4, 4)))
        with no_grad():
            out = pairwise_attention(x, params)
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_default_perceptron_size_at_stage_widths(self):
        """C=64, r1=16, r2=4, share=8, relative position: 38 trainable scalars."""
        cfg = AttentionConfig()  # subtraction, depth 2, relative
        widths = mlp_widths(cfg, attention_dims(64, cfg))
        assert widths == [6, 4, 2]
        assert mlp_params(widths) == 38

    def test_depths_change_layer_count(self):
        for depth, layers in ((1, 1), (2, 2), (3, 3)):
            cfg = AttentionConfig(mlp_depth=depth)
            p = VectorAttention(64, cfg, np.random.default_rng(0))
            assert len(p.mlp) == layers


class TestPairwiseAttention:
    def test_single_slot_constant_weight_returns_values(self):
        """k=1 with unit weights collapses to the value map, exactly."""
        params = make_params(k=1)
        force_constant_weights(params, 1.0)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 16, 4, 4)))
        with no_grad():
            out = pairwise_attention(x, params)
            values = T.linear(x, params.w_value)
        np.testing.assert_array_equal(out.data, values.data)

    @pytest.mark.parametrize("relation", ["summation", "subtraction", "concatenation",
                                          "hadamard", "dot"])
    def test_slot_permutation_invariance_double(self, relation):
        """A set operator cannot depend on how the footprint is enumerated."""
        params = make_params(relation=relation, position="relative", seed=4)
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 16, 5, 5)))
        order = rng.permutation(9)
        with no_grad():
            base = pairwise_attention(x, params).data
            permuted = pairwise_attention(x, params, slot_order=order).data
        assert np.max(np.abs(base - permuted)) <= 1e-12

    @pytest.mark.parametrize("relation", ["summation", "subtraction", "concatenation",
                                          "hadamard", "dot"])
    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4, 5, 6, 7, 7], [0, 1, 2],
                                       [1, 2, 3, 4, 5, 6, 7, 8, 9]],
                             ids=["repeated", "short", "out-of-range"])
    def test_bad_slot_order_rejected(self, relation, order):
        params = make_params(relation=relation, position="relative", seed=4)
        x = Tensor(np.random.default_rng(5).normal(size=(1, 16, 5, 5)))
        with pytest.raises(DimensionError, match="permute range"):
            pairwise_attention(x, params, slot_order=order)

    def test_slot_permutation_invariance_single(self):
        """Single precision: invariant up to resummation noise, 1e-6 of scale."""
        params = make_params(position="relative", seed=6, dtype=np.float32)
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 16, 5, 5)).astype(np.float32))
        with no_grad():
            base = pairwise_attention(x, params).data
            permuted = pairwise_attention(x, params, slot_order=rng.permutation(9)).data
        assert np.max(np.abs(base - permuted)) <= 1e-6 * max(1.0, np.abs(base).max())

    def test_padded_slots_contribute_exactly_zero(self):
        """The full operator equals an oracle that never visits padded slots
        (the bias-free value map sends zero padding to zero)."""
        params = make_params(position="relative", seed=8)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 16, 4, 4))
        with no_grad():
            fast = pairwise_attention(Tensor(x), params).data

        from sanet.reference import naive_linear
        cfg = params.cfg
        pad = (cfg.footprint - 1) // 2
        q = naive_linear(x, params.w_query.data, params.b_query.data)
        kf = naive_linear(x, params.w_key.data, params.b_key.data)
        v = naive_linear(x, params.w_value.data, None)
        pos = naive_position_map(4, 4, params.w_pos.data, x.dtype)
        skip = np.zeros_like(fast)
        for i in range(4):
            for j in range(4):
                acc = np.zeros(params.dims.cm)
                for dy in range(cfg.footprint):
                    for dx in range(cfg.footprint):
                        ii, jj = i + dy - pad, j + dx - pad
                        if not (0 <= ii < 4 and 0 <= jj < 4):
                            continue  # padded slot skipped entirely
                        rel = pairwise_relation_vector(q[0, :, i, j], kf[0, :, ii, jj],
                                                       cfg.relation)
                        rel = np.concatenate([rel, pos[:, i, j] - pos[:, ii, jj]])
                        acc += np.repeat(_mlp_vector(params, rel), cfg.share) * v[0, :, ii, jj]
                skip[0, :, i, j] = acc
        np.testing.assert_allclose(fast, skip, atol=1e-12)

    def test_parameter_count_independent_of_footprint(self):
        counts = set()
        for k in (3, 5, 7, 9, 11):
            counts.add(make_params(k=k, position="relative").param_count())
        assert len(counts) == 1

    def test_divisibility_errors(self):
        with pytest.raises(ConfigError):
            attention_dims(10, AttentionConfig())  # r1=16 does not divide 10
        with pytest.raises(ConfigError):
            AttentionConfig(footprint=4)

    @pytest.mark.parametrize("relation", ["summation", "subtraction", "concatenation"])
    def test_tape_holds_no_per_slot_weight_buffer(self, relation):
        """The weight perceptron runs slot by slot inside ``slot_aggregate``,
        so one taped forward at [8, 16, 16, 16], k=5, leaves less memory
        alive than a single [N, d, K, H, W] float32 buffer.  (Hadamard and
        dot keep their per-slot query-key product, which is that large.)"""
        params = make_params(relation=relation, k=5, position="relative", seed=10,
                             dtype=np.float32)
        x = Tensor(np.random.default_rng(11).normal(size=(8, 16, 16, 16)).astype(np.float32),
                   requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = pairwise_attention(x, params)
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        buffer = 8 * params.dims.d * 25 * 16 * 16 * 4
        assert live < buffer, f"{live} bytes live after forward, one buffer is {buffer}"


class TestPatchwiseAttention:
    def test_single_slot_constant_weight_returns_values(self):
        params = make_params(family="patchwise", relation="concatenation", k=1)
        force_constant_weights(params, 1.0)
        x = Tensor(np.random.default_rng(10).normal(size=(2, 16, 4, 4)))
        with no_grad():
            out = patchwise_attention(x, params)
            values = T.linear(x, params.w_value)
        np.testing.assert_array_equal(out.data, values.data)

    def test_parameter_count_grows_with_footprint(self):
        counts = [
            VectorAttention(16, AttentionConfig(family="patchwise",
                                                relation="concatenation", footprint=k,
                                                r1=4, r2=2, share=2),
                            np.random.default_rng(0)).param_count()
            for k in (3, 5, 7)
        ]
        assert counts[0] < counts[1] < counts[2]

    def test_reproduces_convolution_with_shared_slot_weights(self):
        """Constant slot weights s_j over a value map B realize the
        convolution kernel k[o, c, j] = s_j * B[o, c]."""
        params = make_params(family="patchwise", relation="concatenation", k=3,
                             share=8, seed=11)  # share == cm: one weight per slot
        rng = np.random.default_rng(12)
        slot_w = rng.normal(size=9)
        force_constant_weights(params, 0.0)
        params.mlp[-1].b.data[...] = slot_w  # groups == 1: entry s is slot s
        kernel = np.einsum("s,oc->ocs", slot_w, params.w_value.data).reshape(8, 16, 3, 3)

        x = Tensor(rng.normal(size=(2, 16, 6, 6)))
        with no_grad():
            attn = patchwise_attention(x, params).data
            conv = conv2d(x, Tensor(kernel)).data
        assert np.max(np.abs(attn - conv)) <= 1e-6

    def test_reproduces_convolution_with_per_channel_weights(self):
        """share=1 extends the construction to per-channel slot weights."""
        params = make_params(family="patchwise", relation="concatenation", k=3,
                             share=1, seed=13)
        rng = np.random.default_rng(14)
        cm = params.dims.cm
        slot_w = rng.normal(size=(9, cm))  # [slot, channel]
        force_constant_weights(params, 0.0)
        params.mlp[-1].b.data[...] = slot_w.reshape(-1)
        kernel = np.einsum("sc,ci->cis", slot_w, params.w_value.data).reshape(cm, 16, 3, 3)

        x = Tensor(rng.normal(size=(1, 16, 5, 5)))
        with no_grad():
            attn = patchwise_attention(x, params).data
            conv = conv2d(x, Tensor(kernel)).data
        assert np.max(np.abs(attn - conv)) <= 1e-6


class TestScalarAttention:
    def test_zero_query_with_softmax_averages_values(self):
        """Zero scores normalize to uniform 1/K: output is the slot mean."""
        params = make_params(family="scalar", relation="dot", k=3, normalize=True)
        params.w_query.data[...] = 0.0
        params.b_query.data[...] = 0.0
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(1, 16, 4, 4)))
        with no_grad():
            out = patchwise_attention(x, params).data
            values = T.unfold(T.linear(x, params.w_value), 3).data
        np.testing.assert_allclose(out, values.mean(axis=2), atol=1e-12)

    def test_equals_pairwise_dot_with_scalar_broadcast_head(self):
        """Pairwise dot with an identity 1->groups head is scalar attention."""
        scalar = make_params(family="scalar", relation="dot", k=3, seed=16)
        cfg = AttentionConfig(family="pairwise", relation="dot", footprint=3,
                              r1=4, r2=2, share=2, mlp_depth=1, position="none")
        pair = VectorAttention(16, cfg, np.random.default_rng(16), dtype=np.float64)
        for name in ("w_query", "b_query", "w_key", "b_key", "w_value"):
            getattr(pair, name).data[...] = getattr(scalar, name).data
        pair.mlp[0].w.data[...] = 1.0  # [groups, 1]: broadcast the dot score
        pair.mlp[0].b.data[...] = 0.0

        x = Tensor(np.random.default_rng(17).normal(size=(2, 16, 5, 5)))
        with no_grad():
            a = patchwise_attention(x, scalar).data
            b = pairwise_attention(x, pair).data
        assert np.max(np.abs(a - b)) <= 1e-12


class TestConv2d:
    def test_pointwise_kernel_equals_linear(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)))
        w = rng.normal(size=(6, 4))
        b = Tensor(rng.normal(size=6))
        with no_grad():
            conv = conv2d(x, Tensor(w.reshape(6, 4, 1, 1)), bias=b).data
            lin = T.linear(x, Tensor(w), b).data
        np.testing.assert_array_equal(conv, lin)

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(1, 3, 4, 4))
        kernel = np.zeros((3, 3, 3, 3))
        for c in range(3):
            kernel[c, c, 1, 1] = 1.0
        with no_grad():
            out = conv2d(Tensor(x), Tensor(kernel)).data
        np.testing.assert_array_equal(out, x)

    def test_channel_mismatch_raises(self):
        with pytest.raises(DimensionError):
            conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))

    def test_module_stride_two_shape(self):
        conv = Conv2d(3, 8, 3, stride=2, rng=np.random.default_rng(20))
        out = conv.forward(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)))
        assert out.shape == (1, 8, 16, 16)


class TestFamilyFields:
    def test_conv_is_no_attention_family(self):
        with pytest.raises(ConfigError, match="^family must be one of .*, got 'conv'"):
            AttentionConfig(family="conv")

    def test_no_relation_takes_the_family_default(self):
        relations = [AttentionConfig(family=family).relation for family in FAMILIES]
        assert relations == ["subtraction", "concatenation", "dot"]

    @pytest.mark.parametrize("family,relation,field,value", [
        ("patchwise", "concatenation", "position", "none"),
        ("scalar", "dot", "share", 4),
        ("scalar", "dot", "mlp_depth", 1),
        ("scalar", "dot", "position", "absolute"),
    ])
    def test_unread_field_off_its_default_is_rejected(self, family, relation, field, value):
        with pytest.raises(ConfigError, match=f"^{field} applies to "):
            AttentionConfig(family=family, relation=relation, **{field: value})

    def test_scalar_attention_has_one_group(self):
        """One weight per slot for all value channels, whatever ``cm``."""
        dims = attention_dims(16, AttentionConfig(family="scalar", relation="dot", r2=16))
        assert (dims.cm, dims.groups) == (1, 1)


class TestFootprintRule:
    def test_padding_preserves_extent(self):
        for k in (1, 3, 5, 7, 9, 11):
            cfg = AttentionConfig(footprint=k)
            assert attention_dims(64, cfg).slots == k * k
            gathered = T.unfold(Tensor(np.zeros((1, 2, 3, 4))), cfg.footprint)
            assert gathered.shape == (1, 2, k * k, 3, 4)

    @pytest.mark.parametrize("k", [0, 2, 13])
    def test_rejects_out_of_range(self, k):
        with pytest.raises(ConfigError, match="^footprint must be one of"):
            AttentionConfig(footprint=k)
