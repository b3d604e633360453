import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import kendall_tau, sample_uniform_permutations
from orbtour.permutations import (MAX_SOBOL_DIM, decode, encode, sample_mallows,
                                  sobol_points)


def l2_star_discrepancy(pts: np.ndarray) -> float:
    """Warnock's closed form for the L2 star discrepancy (oracle)."""
    n, d = pts.shape
    term1 = 3.0 ** (-d)
    term2 = np.prod((1.0 - pts**2) / 2.0, axis=1).sum() * 2.0 / n
    cross = np.prod(1.0 - np.maximum(pts[:, None, :], pts[None, :, :]), axis=2)
    term3 = cross.sum() / n**2
    return math.sqrt(term1 - term2 + term3)


# ---------------------------------------------------------------------------
# low-discrepancy points
# ---------------------------------------------------------------------------

def test_first_one_dimensional_points():
    pts = sobol_points(1, 7).ravel().tolist()
    assert pts == [0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125]


def test_matches_reference_generator_to_dim_64():
    # scipy carries the same published direction-number table
    from scipy.stats import qmc
    import warnings
    for dim in (2, 5, 13, 37, 64):
        eng = qmc.Sobol(dim, scramble=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = eng.random(33)[1:]
        mine = sobol_points(dim, 32)
        assert np.array_equal(ref, mine)


def test_discrepancy_beats_pseudorandom():
    pts = sobol_points(2, 1024)
    rng = np.random.default_rng(0)
    rand = rng.random((1024, 2))
    assert l2_star_discrepancy(pts) < 0.5 * l2_star_discrepancy(rand)


def test_scramble_determinism_and_range():
    a = sobol_points(6, 100, seed=42)
    b = sobol_points(6, 100, seed=42)
    c = sobol_points(6, 100, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((a >= 0.0) & (a < 1.0))


def test_dim_bounds():
    with pytest.raises(ValueError):
        sobol_points(0, 1)
    with pytest.raises(ValueError):
        sobol_points(MAX_SOBOL_DIM + 1, 1)
    with pytest.raises(ValueError):
        sobol_points(3, 0)


# ---------------------------------------------------------------------------
# uniform permutations
# ---------------------------------------------------------------------------

def test_single_element_permutation():
    perms = sample_uniform_permutations(1, 10)
    assert np.all(perms == 0)


def test_argsort_definition():
    assert decode([0.3, 0.1, 0.9]).tolist() == [1, 0, 2]


def test_uniformity_chi_square():
    perms = sample_uniform_permutations(4, 24000)
    keys = perms @ (4 ** np.arange(4))
    _, counts = np.unique(keys, return_counts=True)
    assert counts.size == 24
    chi2 = float(((counts - 1000.0) ** 2 / 1000.0).sum())
    assert chi2 < stats.chi2.ppf(0.99, 23)


# ---------------------------------------------------------------------------
# Mallows model
# ---------------------------------------------------------------------------

def test_kendall_tau_basics():
    assert kendall_tau([0, 1, 2], [0, 1, 2]) == 0
    assert kendall_tau([0, 1, 2], [2, 1, 0]) == 3
    assert kendall_tau([1, 0, 2, 3], [0, 1, 2, 3]) == 1
    # the reversal is the farthest order: n(n-1)/2 discordant pairs
    assert kendall_tau([0, 1, 2, 3], [3, 2, 1, 0]) == 4 * 3 // 2


def test_mallows_zero_dispersion_is_uniform():
    perms = sample_mallows((0, 1, 2, 3), 0.0, 24000, seed=1)
    keys = perms @ (4 ** np.arange(4))
    _, counts = np.unique(keys, return_counts=True)
    chi2 = float(((counts - 1000.0) ** 2 / 1000.0).sum())
    assert chi2 < stats.chi2.ppf(0.99, 23)


def test_mallows_concentrates_on_center():
    center = (2, 0, 3, 1)
    perms = sample_mallows(center, 20.0, 5000, seed=2)
    frac = float((perms == np.array(center)).all(axis=1).mean())
    assert frac > 0.999


def test_mallows_exponential_distance_law():
    """Frequency ratios across Kendall distances follow exp(-theta*d): the
    log-frequency regression over the exhaustive group recovers -theta."""
    theta = 1.0
    perms = sample_mallows((0, 1, 2, 3), theta, 1_000_000, seed=3)
    keys = perms @ (4 ** np.arange(4))
    uniq, counts = np.unique(keys, return_counts=True)
    freq = dict(zip(uniq.tolist(), counts.tolist()))
    dists, logf = [], []
    for perm in itertools.permutations(range(4)):
        key = sum(p * 4**j for j, p in enumerate(perm))
        dists.append(kendall_tau(np.array(perm), np.arange(4)))
        logf.append(math.log(freq[key] / 1e6))
    slope, intercept = np.polyfit(dists, logf, 1)
    pred = slope * np.array(dists) + intercept
    resid = np.array(logf) - pred
    r2 = 1.0 - float((resid**2).sum() / ((np.array(logf) - np.mean(logf)) ** 2).sum())
    assert slope == pytest.approx(-theta, rel=0.05)
    assert r2 > 0.99
    # spot check a single ratio at distance gap 2
    d0 = [i for i, d in enumerate(dists) if d == 0][0]
    d2 = [i for i, d in enumerate(dists) if d == 2][0]
    assert logf[d0] - logf[d2] == pytest.approx(2.0, abs=0.1)


def test_mallows_determinism():
    assert np.array_equal(sample_mallows((3, 1, 0, 2), 0.7, 50, seed=9),
                          sample_mallows((3, 1, 0, 2), 0.7, 50, seed=9))


@pytest.mark.parametrize("center, theta", [((0, 1, 2), -0.5), ((0, 2, 2), 1.0),
                                           ((1, 2, 3), 1.0)])
def test_mallows_rejects_a_bad_center_or_dispersion(center, theta):
    with pytest.raises(ValueError):
        sample_mallows(center, theta, 1)


# ---------------------------------------------------------------------------
# random keys
# ---------------------------------------------------------------------------

def test_decode_sorted_keys_is_identity():
    assert decode([0.1, 0.2, 0.5, 0.9]).tolist() == [0, 1, 2, 3]


def test_decode_ties_keep_index_order():
    assert decode([0.5, 0.5, 0.1, 0.5]).tolist() == [2, 0, 1, 3]


def test_encode_decode_exhaustive_small():
    rng = np.random.default_rng(4)
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            keys = encode(perm, rng)
            assert np.all((keys >= 0.0) & (keys < 1.0))
            assert decode(keys).tolist() == list(perm)


@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_encode_decode_randomized(n, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assert np.array_equal(decode(encode(perm, rng)), perm)
