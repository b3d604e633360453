import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import kendall_tau, sample_uniform_permutations
from orbtour.optimizer import decode, encode, sample_mallows


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
    perms = sample_mallows((0, 1, 2, 3), 0.0, 24000, np.random.default_rng(1))
    keys = perms @ (4 ** np.arange(4))
    _, counts = np.unique(keys, return_counts=True)
    chi2 = float(((counts - 1000.0) ** 2 / 1000.0).sum())
    assert chi2 < stats.chi2.ppf(0.99, 23)


def test_mallows_concentrates_on_center():
    center = (2, 0, 3, 1)
    perms = sample_mallows(center, 20.0, 5000, np.random.default_rng(2))
    frac = float((perms == np.array(center)).all(axis=1).mean())
    assert frac > 0.999


def test_mallows_exponential_distance_law():
    """Frequency ratios across Kendall distances follow exp(-theta*d): the
    log-frequency regression over the exhaustive group recovers -theta."""
    theta = 1.0
    perms = sample_mallows((0, 1, 2, 3), theta, 1_000_000, np.random.default_rng(3))
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
    assert np.array_equal(sample_mallows((3, 1, 0, 2), 0.7, 50, np.random.default_rng(9)),
                          sample_mallows((3, 1, 0, 2), 0.7, 50, np.random.default_rng(9)))


@pytest.mark.parametrize("center, theta", [((0, 1, 2), -0.5), ((0, 2, 2), 1.0),
                                           ((1, 2, 3), 1.0)])
def test_mallows_rejects_a_bad_center_or_dispersion(center, theta):
    with pytest.raises(ValueError):
        sample_mallows(center, theta, 1, np.random.default_rng(0))


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
