"""Nearest-neighbor entropy estimation and the uncertainty coefficient."""

import math

import numpy as np
import pytest
import scipy.special
import sentdep.entropy
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from sentdep.core import AlignedPairs
from sentdep.entropy import (
    DEFAULT_K,
    EPSILON_FLOOR,
    MAX_K,
    _kth_neighbor_distance_1d,
    conditional_entropy,
    digamma,
    kl_entropy,
    uncertainty_coefficient,
)
from sentdep.errors import DegenerateSample, DomainError, InsufficientData

EULER_GAMMA = 0.5772156649015329
GAUSSIAN_ENTROPY = 0.5 * math.log(2.0 * math.pi * math.e)


def _pairs(xs, ys) -> AlignedPairs:
    return AlignedPairs(
        pairs=tuple((float(a), float(b)) for a, b in zip(xs, ys)), lag_days=1
    )


class TestDigamma:
    def test_euler_mascheroni_anchor(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-10)

    def test_psi_of_two(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            digamma(-3.5)

    def test_against_scipy_grid(self):
        zs = [0.01, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 5.9, 6.0, 10.0, 123.4, 10000.0]
        worst = max(abs(digamma(z) - scipy.special.digamma(z)) for z in zs)
        assert worst <= 1e-10

    @given(st.floats(min_value=0.01, max_value=50.0))
    def test_recurrence(self, z):
        assert digamma(z + 1.0) - digamma(z) == pytest.approx(1.0 / z, abs=1e-9)


class TestKlEntropy:
    def test_uniform_calibration(self):
        rng = np.random.default_rng(0)
        est = kl_entropy(rng.uniform(size=4000), k=3)
        assert abs(est.value) <= 0.05  # analytic H(U(0,1)) = 0 nats
        assert (est.k, est.n, est.dim) == (3, 4000, 1)

    def test_gaussian_calibration(self):
        rng = np.random.default_rng(0)
        rng.uniform(size=4000)  # keep the stream position of the check above
        est = kl_entropy(rng.normal(size=4000), k=3)
        assert est.value == pytest.approx(GAUSSIAN_ENTROPY, abs=0.05)

    def test_identical_points_rejected(self):
        with pytest.raises(DegenerateSample):
            kl_entropy(np.full(50, 2.5), k=3)

    def test_minority_duplicates_are_floored_not_fatal(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=100)
        sample = np.concatenate([base[:70], np.full(30, base[0])])
        est = kl_entropy(sample, k=3)
        assert math.isfinite(est.value)

    def test_k_range(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=50)
        with pytest.raises(ValueError):
            kl_entropy(s, k=0)
        with pytest.raises(ValueError):
            kl_entropy(s, k=MAX_K + 1)
        assert kl_entropy(s, k=MAX_K).k == MAX_K

    def test_sample_size_floor(self):
        rng = np.random.default_rng(2)
        with pytest.raises(InsufficientData):
            kl_entropy(rng.normal(size=4), k=3)
        assert kl_entropy(rng.normal(size=5), k=3).n == 5

    def test_two_dimensional_points(self):
        rng = np.random.default_rng(3)
        est = kl_entropy(rng.normal(size=(500, 2)), k=DEFAULT_K)
        assert est.dim == 2
        # independent standard normals: H = 2 · ½ln(2πe)
        assert est.value == pytest.approx(2.0 * GAUSSIAN_ENTROPY, abs=0.15)

    def test_nonfinite_rejected(self):
        s = np.ones(20)
        s[3] = np.nan
        with pytest.raises(ValueError):
            kl_entropy(s, k=3)

    def test_translation_leaves_estimate_unchanged(self):
        rng = np.random.default_rng(4)
        # dyadic grid values plus a power-of-two shift keep every pairwise
        # difference bit-identical, so the estimate must match exactly
        s = rng.integers(0, 2**20, size=300).astype(float) / 2**20
        assert kl_entropy(s + 4.0, k=3).value == kl_entropy(s, k=3).value
        g = rng.normal(size=300)
        shifted = kl_entropy(g + 100.0, k=3).value
        assert shifted == pytest.approx(kl_entropy(g, k=3).value, abs=1e-12)

    def test_scaling_adds_d_log_a(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=500)
        h = kl_entropy(s, k=3).value
        assert kl_entropy(3.0 * s, k=3).value == pytest.approx(
            h + math.log(3.0), abs=1e-9)
        pts = rng.normal(size=(400, 2))
        h2 = kl_entropy(pts, k=3).value
        assert kl_entropy(0.5 * pts, k=3).value == pytest.approx(
            h2 + 2.0 * math.log(0.5), abs=1e-9)


@st.composite
def one_dimensional_samples(draw):
    """(sample, k): tie-heavy integer counts or floats, n from k + 2 up."""
    k = draw(st.integers(min_value=1, max_value=MAX_K))
    n = draw(st.one_of(st.just(k + 2), st.integers(min_value=k + 2, max_value=300)))
    values = st.one_of(
        st.integers(min_value=0, max_value=6).map(float),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    )
    sample = draw(st.lists(values, min_size=n, max_size=n))
    return np.array(sample), k


@given(one_dimensional_samples())
# 0.0 and -0.0 side by side: the distance between them is +0.0 for the tree
@example((np.array([0.0, -0.0, 0.0]), 1))
@example((np.array([0.0, -0.0, 0.0, 0.0, -1.0, 0.0, -0.0]), 5))
def test_sorted_neighbor_distances_equal_the_kd_tree_bit_for_bit(sample_and_k):
    sample, k = sample_and_k
    points = sample[:, np.newaxis]
    tree_eps = cKDTree(points).query(points, k=k + 1, p=np.inf)[0][:, k]
    eps = _kth_neighbor_distance_1d(sample, k)
    assert eps.tobytes() == tree_eps.tobytes()
    # the log-sum runs in input order, as it did over the tree's distances
    n = sample.shape[0]
    if np.mean(tree_eps == 0.0) <= 0.5:
        expected = (digamma(n) - digamma(k) + math.log(2.0)
                    + (1 / n) * float(np.log(np.maximum(tree_eps, EPSILON_FLOOR)).sum()))
        assert kl_entropy(sample, k).value == expected


class TestConditionalEntropy:
    def test_independence_keeps_full_entropy(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=4000)
        y = rng.normal(size=4000)
        h_y = kl_entropy(y, k=3).value
        h_y_x = conditional_entropy(y, x, k=3).value
        assert h_y_x == pytest.approx(h_y, abs=0.05)

    def test_additive_noise_leaves_noise_entropy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=10_000)
        y = x + rng.normal(0.0, 0.01, size=10_000)
        h = conditional_entropy(y, x, k=3).value
        # analytic: ½·ln(2πe·1e−4) ≈ −3.1862
        assert h == pytest.approx(0.5 * math.log(2 * math.pi * math.e * 1e-4), abs=0.1)

    def test_minimum_sample(self):
        with pytest.raises(InsufficientData):
            conditional_entropy([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4], k=3)

    def test_tied_counts_fail_before_the_joint_cloud(self, monkeypatch):
        dims = []
        real = sentdep.entropy.kl_entropy

        def recording(samples, k=DEFAULT_K):
            points = np.asarray(samples)
            dims.append(1 if points.ndim == 1 else points.shape[1])
            return real(samples, k)

        monkeypatch.setattr(sentdep.entropy, "kl_entropy", recording)
        counts = [0.0] * 80 + [1.0] * 15 + [2.0] * 5
        prices = np.random.default_rng(3).normal(size=100)
        with pytest.raises(DegenerateSample):
            conditional_entropy(prices, counts)
        assert dims == [1]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            conditional_entropy([1.0, 2.0, 3.0], [1.0, 2.0], k=1)

    def test_conditioning_rarely_raises_entropy(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=800)
            y = 0.5 * x + rng.normal(size=800)
            assert (conditional_entropy(y, x, k=3).value
                    <= kl_entropy(y, k=3).value + 0.1)


class TestUncertaintyCoefficient:
    def test_informative_predictor_scores_high(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=2000)
        ys = 0.9 * xs + rng.normal(0.0, 0.3, size=2000)
        res = uncertainty_coefficient(_pairs(xs, ys), k=3)
        assert res.valid
        assert res.u > 0.5
        assert res.mi == pytest.approx(res.h_y - res.h_y_given_x, abs=1e-12)
        assert res.u == pytest.approx(res.mi / res.h_y, abs=1e-12)
        assert res.k == 3

    def test_independent_predictor_scores_near_zero(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=2000)
        ys = rng.normal(size=2000)
        res = uncertainty_coefficient(_pairs(xs, ys), k=3)
        assert res.valid
        assert abs(res.u) <= 0.05

    def test_near_zero_denominator_flagged_not_fatal(self):
        # U(0,1) prices have analytic entropy 0; the estimate lands below
        # the 1e−6 validity cutoff (negative at this seed)
        rng = np.random.default_rng(1)
        xs = rng.normal(size=2000)
        ys = rng.uniform(size=2000)
        res = uncertainty_coefficient(_pairs(xs, ys), k=3)
        assert not res.valid
        assert res.h_y < 1e-6
        assert math.isfinite(res.u)  # reported, just not trusted

    def test_propagates_sample_floor(self):
        with pytest.raises(InsufficientData):
            uncertainty_coefficient(_pairs([1.0, 2.0, 3.0, 4.0],
                                           [2.0, 1.0, 4.0, 3.0]), k=3)
