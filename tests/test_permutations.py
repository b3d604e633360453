import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import sample_uniform_permutations
from orbtour.optimizer import decode, encode


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
