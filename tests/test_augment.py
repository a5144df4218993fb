"""View-pipeline and mixture checks: identities, determinism, bounds, and
bitwise equality of the batched pipeline with the per-record oracle."""

import augment_oracle as oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import identity_config
from mixsiam.augment import (
    VIEW_DRAWS,
    AugmentConfig,
    LambdaMixPolicy,
    augment_view,
    gaussian_blur,
    gaussian_kernel1d,
    make_triplet,
    mix,
    resize_bilinear,
    to_grayscale,
    view_rng,
)
from mixsiam.data import ImageRecord, SyntheticConfig, make_synthetic
from mixsiam.errors import ConfigError, ShapeError


def _img(seed=0, size=32):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, size=(3, size, size))


def _record(seed=0, size=32):
    return ImageRecord(pixels=_img(seed, size), label=0, source_index=int(seed))


def _one_view(img, cfg, rng):
    """augment_view on a batch of one [C, H, W] image."""
    return augment_view(img[None], cfg, [rng])[0]


def _one_triplet(rec, cfg, policy, epoch):
    t = make_triplet([rec], cfg, policy, epoch)
    return t.x1[0], t.x2[0], t.xm[0], float(t.lambda_mix[0])


def _bytes_equal(a, b):
    """Equal shape and dtype and the same bits (so -0.0 != +0.0)."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- config validation ---------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"crop_scale_range": (0.0, 1.0)},
    {"crop_scale_range": (0.9, 0.4)},
    {"crop_scale_range": (0.5, 1.5)},
    {"crop_scale_range": (0.2, 0.5, 1.0)},
    {"crop_scale_range": ()},
    {"output_size": 4},
    {"hflip_prob": 1.5},
    {"jitter_prob": -0.1},
    {"jitter_strengths": (0.4, 0.4, 0.4)},
    {"blur_sigma_range": (0.0, 1.0)},
    {"blur_sigma_range": (0.5,)},
    {"aspect_ratio_range": (2.0, 1.0)},
    {"aspect_ratio_range": (1.0,)},
])
def test_invalid_augment_config(kwargs):
    with pytest.raises(ConfigError):
        AugmentConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"kind": "gamma"}, {"kind": "beta"}, {"value": 1.5},
])
def test_invalid_lambda_policy(kwargs):
    with pytest.raises(ConfigError):
        LambdaMixPolicy(**kwargs)


# -- the keyed draw schedule -----------------------------------------------


@given(st.integers(0, 2**63 - 1), st.floats(-3.0, 3.0), st.floats(0.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_one_vector_draw_equals_scalar_uniform_draws(seed, lo, width):
    # augment_view reads a view's 13 parameters from one rng.random(13) as
    # lo + (hi - lo) * u; that is bit for bit what 13 scalar draws give
    hi = lo + width
    u = np.random.default_rng(seed).random(VIEW_DRAWS)
    rng = np.random.default_rng(seed)
    scalar = [rng.uniform(lo, hi) for _ in range(VIEW_DRAWS)]
    assert [lo + (hi - lo) * v for v in u] == scalar


# -- pipeline identities --------------------------------------------------


def test_identity_pipeline_same_size_is_exact():
    img = _img(1, 32)
    out = _one_view(img, identity_config(32), np.random.default_rng(0))
    assert np.array_equal(out, img)


def test_identity_pipeline_resizes_full_image():
    img = _img(2, 32)
    out = _one_view(img, identity_config(16), np.random.default_rng(0))
    assert np.array_equal(out, np.clip(resize_bilinear(img[None], 16)[0], 0.0, 1.0))


def test_hflip_applied_when_forced():
    img = _img(3, 16)
    cfg = AugmentConfig(crop_scale_range=(1.0, 1.0), output_size=16, hflip_prob=1.0,
                        jitter_prob=0.0, grayscale_prob=0.0, blur_prob=0.0,
                        aspect_ratio_range=(1.0, 1.0))
    out = _one_view(img, cfg, np.random.default_rng(0))
    assert np.array_equal(out, img[:, :, ::-1])


def test_grayscale_idempotent_on_gray_image():
    gray = np.broadcast_to(_img(4, 16)[0], (3, 16, 16)).copy()
    assert np.allclose(to_grayscale(gray[None])[0], gray, atol=1e-6)


def test_gaussian_kernel_normalized():
    for sigma in (0.1, 0.5, 1.0, 2.0):
        k = gaussian_kernel1d(sigma)
        assert len(k) == 2 * int(np.ceil(3 * sigma)) + 1
        assert abs(k.sum() - 1.0) < 1e-9


def test_blur_preserves_constant_image():
    const = np.full((2, 3, 16, 16), 0.37)
    assert np.allclose(gaussian_blur(const, [0.1, 2.0]), const, atol=1e-6)


def test_blur_smooths_noise():
    img = _img(5, 32)
    out = gaussian_blur(img[None], [2.0])[0]
    assert out.std() < img.std() * 0.5


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_view_outputs_stay_in_unit_interval(seed):
    cfg = AugmentConfig(seed=0)
    out = _one_view(_img(seed % 7), cfg, np.random.default_rng(seed))
    assert out.shape == (3, 32, 32)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_view_determinism_bitwise():
    cfg = AugmentConfig()
    a = _one_view(_img(1), cfg, np.random.default_rng(99))
    b = _one_view(_img(1), cfg, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_view_of_a_sample_ignores_the_rest_of_the_batch():
    cfg = AugmentConfig()
    imgs = np.stack([_img(i) for i in range(5)])
    batch = augment_view(imgs, cfg, [np.random.default_rng(i) for i in range(5)])
    for i in range(5):
        alone = _one_view(imgs[i], cfg, np.random.default_rng(i))
        assert _bytes_equal(np.ascontiguousarray(batch[i]), np.ascontiguousarray(alone))


def test_resize_bilinear_known_values():
    # 2x upsample of a 2x2 ramp: corner pixels keep source values
    img = np.array([[[[0.0, 1.0], [2.0, 3.0]]]])
    out = resize_bilinear(img, 4)[0]
    # corners replicate (half-pixel mapping lands outside and clamps)
    assert out[0, 0, 0] == 0.0 and out[0, 3, 3] == 3.0
    # hand-computed interior sample: y=x=0.25 -> 0.75*(0.25) + 0.25*(2.25)
    assert np.isclose(out[0, 1, 1], 0.75, atol=1e-12)
    assert out.min() >= 0.0 and out.max() <= 3.0


def test_resize_bilinear_window_is_the_crop():
    img = _img(6, 32)
    out = resize_bilinear(img[None], 16, np.array([[3, 5, 20, 11]]))[0]
    want = oracle.resize_bilinear(img[:, 3:23, 5:16], 16, 16)
    assert _bytes_equal(np.ascontiguousarray(out), want)


# -- bitwise equality with the per-record oracle -----------------------------

_prob = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


def _pair(lo, hi):
    return st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(lambda p: tuple(sorted(p)))


_configs = st.builds(
    AugmentConfig,
    crop_scale_range=st.just((1.0, 1.0)) | _pair(0.01, 1.0),
    output_size=st.integers(8, 40),
    hflip_prob=_prob, jitter_prob=_prob, grayscale_prob=_prob, blur_prob=_prob,
    jitter_strengths=st.tuples(*[st.floats(0.0, 1.0)] * 4),
    blur_sigma_range=_pair(0.05, 3.0),
    aspect_ratio_range=_pair(0.25, 4.0),
    seed=st.integers(0, 2**31 - 1),
)
_policies = st.one_of(
    st.builds(LambdaMixPolicy, kind=st.just("fixed"), value=st.floats(0.0, 1.0)),
    st.just(LambdaMixPolicy(kind="pick_view")),
)
ALL_ON = AugmentConfig(output_size=24, hflip_prob=1.0, jitter_prob=1.0,
                       grayscale_prob=1.0, blur_prob=1.0, seed=3)
ALL_OFF = AugmentConfig(crop_scale_range=(1.0, 1.0), output_size=40, hflip_prob=0.0,
                        jitter_prob=0.0, grayscale_prob=0.0, blur_prob=0.0, seed=4)


def _records(kind, batch, size, seed):
    rng = np.random.default_rng(seed)
    first = int(rng.integers(0, 10**6))
    if kind == "uint8":  # as CIFAR records hold them
        pixels = rng.integers(0, 256, size=(batch, 3, size, size), dtype=np.uint8)
    else:
        pixels = rng.uniform(0, 1, size=(batch, 3, size, size))
    return [ImageRecord(pixels=p, label=0, source_index=first + i) for i, p in enumerate(pixels)]


@given(cfg=_configs, policy=_policies, kind=st.sampled_from(["float64", "uint8"]),
       batch=st.sampled_from([1, 2, 7, 32]), size=st.integers(8, 40),
       epoch=st.integers(0, 1000), seed=st.integers(0, 2**31 - 1))
@example(cfg=ALL_ON, policy=LambdaMixPolicy(kind="pick_view"), kind="float64",
         batch=32, size=32, epoch=0, seed=0)
@example(cfg=ALL_ON, policy=LambdaMixPolicy(kind="pick_view"), kind="uint8",
         batch=7, size=32, epoch=1, seed=1)
@example(cfg=ALL_OFF, policy=LambdaMixPolicy(), kind="uint8",
         batch=2, size=32, epoch=2, seed=2)
@settings(max_examples=40, deadline=None)
def test_batched_triplets_equal_per_record_oracle_bitwise(cfg, policy, kind, batch, size,
                                                          epoch, seed):
    records = _records(kind, batch, size, seed)
    got = make_triplet(records, cfg, policy, epoch)
    got32 = make_triplet(records, cfg, policy, epoch, dtype=np.float32)
    for b, rec in enumerate(records):
        want = oracle.make_triplet(rec, cfg, policy, epoch)
        assert got.lambda_mix[b] == want.lambda_mix
        assert got.source_index[b] == want.source_index
        for name in ("x1", "x2", "xm"):
            w = getattr(want, name)
            assert _bytes_equal(getattr(got, name)[b], w), (name, b)
            assert _bytes_equal(getattr(got32, name)[b], w.astype(np.float32)), (name, b)
    for t in (got, got32):
        assert all(getattr(t, n).flags.c_contiguous for n in ("x1", "x2", "xm"))


@given(st.integers(1, 9), st.integers(8, 40), st.integers(8, 40), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_full_image_resize_equals_per_record_oracle(batch, size, out, seed):
    imgs = np.random.default_rng(seed).uniform(size=(batch, 3, size, size))
    got = resize_bilinear(imgs, out)
    for b in range(batch):
        want = oracle.resize_bilinear(imgs[b], out, out)
        assert _bytes_equal(np.ascontiguousarray(got[b]), want)


@given(st.lists(st.just(0.0) | st.floats(0.05, 3.0), min_size=1, max_size=9),
       st.integers(8, 24), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
# radius 2 at samples 0, 3 and 5, between sigma 0 and radius 4
@example(sigmas=[0.5, 0.0, 1.2, 0.4, 0.0, 0.45], size=12, seed=3)
# radius 9 reflects past the far edge of a side of 8
@example(sigmas=[0.0, 3.0], size=8, seed=4)
def test_blur_keeps_each_samples_taps_bitwise(sigmas, size, seed):
    # signed input with zeros of both signs: each blurred sum starts from
    # +0.0 and runs over the sample's own taps in order, as the oracle's
    # sum(...) does, so an all-zero window gives +0.0 whatever its signs;
    # a sigma of 0 leaves the sample as it is, -0.0 included
    rng = np.random.default_rng(seed)
    imgs = rng.normal(size=(len(sigmas), 3, size, size))
    imgs[rng.random(imgs.shape) < 0.3] = 0.0
    imgs[rng.random(imgs.shape) < 0.3] = -0.0
    given = imgs.copy()
    got = gaussian_blur(imgs, sigmas)
    assert imgs.tobytes() == given.tobytes()
    for b, sigma in enumerate(sigmas):
        want = oracle.gaussian_blur(imgs[b], sigma) if sigma else imgs[b]
        assert _bytes_equal(np.ascontiguousarray(got[b]), want)


# -- mix -------------------------------------------------------------------


def test_mix_endpoints_bitwise():
    a, b = _img(6)[None], _img(7)[None]
    assert np.array_equal(mix(a, b, [1.0]), a)
    assert np.array_equal(mix(a, b, [0.0]), b)


def test_mix_midpoint_arithmetic():
    a = np.full((1, 1, 2, 2), 0.2)
    b = np.full((1, 1, 2, 2), 0.6)
    assert np.allclose(mix(a, b, [0.5]), 0.4, atol=1e-15)


@given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=5),
       st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_mix_swap_identity_exact(lams, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, size=(len(lams), 3, 5, 5))
    b = rng.uniform(0, 1, size=(len(lams), 3, 5, 5))
    lams = np.array(lams)
    assert np.array_equal(mix(a, b, lams), mix(b, a, 1.0 - lams))
    for i, lam in enumerate(lams):
        assert _bytes_equal(mix(a, b, lams)[i], oracle.mix(a[i], b[i], float(lam)))


@given(st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_mix_stays_in_unit_interval(lam):
    a, b = _img(8)[None], _img(9)[None]
    out = mix(a, b, [lam])
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_mix_validates_inputs():
    with pytest.raises(ConfigError, match="lambda_mix"):
        mix(_img(0)[None], _img(1)[None], [1.2])
    with pytest.raises(ConfigError, match="lambda_mix"):
        mix(_img(0)[None], _img(1)[None], [float("nan")])
    with pytest.raises(ShapeError, match="shapes"):
        mix(np.zeros((1, 3, 4, 4)), np.zeros((1, 3, 5, 5)), [0.5])
    with pytest.raises(ShapeError, match="lambdas"):
        mix(np.zeros((2, 3, 4, 4)), np.zeros((2, 3, 4, 4)), [0.5])


# -- triplets ----------------------------------------------------------------


def test_triplet_invariant_at_storage_precision():
    # xm tracks lambda*x1 + (1-lambda)*x2 to 1 ulp at the operands' unit
    # scale (2^-52); for lambda >= 0.5 the match is bitwise. (Exact-swap
    # symmetry of mix() fixes the evaluation order, so a lambda < 0.5
    # reconstructs the complement coefficient and can differ from the naive
    # formula by one rounding of the coefficient.)
    ds = make_synthetic(SyntheticConfig(classes=2, per_class=4, size=32, seed=0))
    cfg = AugmentConfig(seed=11)
    for policy in (LambdaMixPolicy(), LambdaMixPolicy(value=0.3),
                   LambdaMixPolicy(kind="pick_view")):
        t = make_triplet(ds.records, cfg, policy, epoch=0)
        assert t.x1.shape == t.x2.shape == t.xm.shape == (8, 3, 32, 32)
        for x1, x2, xm, lam in zip(t.x1, t.x2, t.xm, t.lambda_mix):
            want = lam * x1 + (1 - lam) * x2
            assert np.max(np.abs(xm - want)) <= 2.0 ** -52
            if lam >= 0.5:
                assert np.array_equal(xm, want)


def test_triplet_keyed_determinism_ignores_call_order():
    recs = [_record(i) for i in range(4)]
    cfg = AugmentConfig(seed=5)
    policy = LambdaMixPolicy(kind="pick_view")
    forward = make_triplet(recs, cfg, policy, epoch=3)
    backward = make_triplet(recs[::-1], cfg, policy, epoch=3)
    for name in ("x1", "x2", "xm", "lambda_mix", "source_index"):
        assert np.array_equal(getattr(forward, name), getattr(backward, name)[::-1])


def test_triplet_views_differ_between_slots_and_epochs():
    rec = _record(2)
    cfg = AugmentConfig(seed=5)
    x1_0, x2_0, _, _ = _one_triplet(rec, cfg, LambdaMixPolicy(), epoch=0)
    x1_1, _, _, _ = _one_triplet(rec, cfg, LambdaMixPolicy(), epoch=1)
    assert not np.array_equal(x1_0, x2_0)
    assert not np.array_equal(x1_0, x1_1)


def test_identity_pipeline_triplet_collapses_to_resize():
    rec = _record(3, size=32)
    x1, x2, xm, _ = _one_triplet(rec, identity_config(32, seed=1), LambdaMixPolicy(), epoch=0)
    assert np.array_equal(x1, rec.pixels)
    assert np.array_equal(x2, rec.pixels)
    assert np.array_equal(xm, rec.pixels)  # 0.5*x + 0.5*x == x bitwise


def test_pick_view_policy_copies_a_view():
    rec = _record(4)
    cfg = AugmentConfig(seed=9)
    recs = [ImageRecord(rec.pixels, 0, idx) for idx in range(20)]
    t = make_triplet(recs, cfg, LambdaMixPolicy(kind="pick_view"), epoch=0)
    assert set(t.lambda_mix) == {0.0, 1.0}
    for x1, x2, xm, lam in zip(t.x1, t.x2, t.xm, t.lambda_mix):
        assert np.array_equal(xm, x1 if lam == 1.0 else x2)


def test_view_rng_streams_are_independent():
    a = view_rng(0, 0, 0, 0).random(4)
    b = view_rng(0, 0, 0, 1).random(4)
    c = view_rng(0, 0, 1, 0).random(4)
    assert not np.array_equal(a, b) and not np.array_equal(a, c)
