import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import sample_uniform_permutations
from orbtour.optimizer import _ga_step, _order_crossover, _tables


# ---------------------------------------------------------------------------
# uniform permutations
# ---------------------------------------------------------------------------

def test_single_element_permutation():
    perms = sample_uniform_permutations(1, 10)
    assert np.all(perms == 0)


def test_uniformity_chi_square():
    perms = sample_uniform_permutations(4, 24000)
    keys = perms @ (4 ** np.arange(4))
    _, counts = np.unique(keys, return_counts=True)
    assert counts.size == 24
    chi2 = float(((counts - 1000.0) ** 2 / 1000.0).sum())
    assert chi2 < stats.chi2.ppf(0.99, 23)


# ---------------------------------------------------------------------------
# the GA's operators
# ---------------------------------------------------------------------------

@given(st.integers(1, 20), st.integers(1, 4), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_every_child_is_a_permutation(n, islands, pop, seed):
    g = np.random.default_rng(seed)
    perms = sample_uniform_permutations(n, islands * pop, seed).reshape(islands, pop, n)
    cost = g.integers(0, 3, (islands, pop)).astype(float)
    _ga_step(perms, cost, g, _tables(n))
    assert np.array_equal(np.sort(perms, axis=2),
                          np.broadcast_to(np.arange(n), perms.shape))


@given(st.integers(1, 20), st.data())
@settings(max_examples=300, deadline=None)
def test_order_crossover_keeps_the_slice_and_the_donor_order(n, data):
    i, j = (data.draw(st.integers(0, n)) for _ in range(2))
    seed = data.draw(st.integers(0, 2**32 - 1))
    pa, pb = sample_uniform_permutations(n, 2, seed)
    lo, hi = min(i, j), max(i, j)
    outside = _tables(n)[0]
    child = _order_crossover(pa[None].copy(), pb[None], outside[None, i * (n + 1) + j])[0]
    kept = pa[lo:hi].tolist()
    assert child[lo:hi].tolist() == kept
    assert (np.delete(child, np.s_[lo:hi]).tolist()
            == [g for g in pb.tolist() if g not in kept])


def test_insertion_and_reversal_tables_match_list_operations():
    for n in range(1, 9):
        _, insert, reverse = _tables(n)
        order = list("abcdefgh"[:n])
        for a in range(n):
            for b in range(n):
                moved = order.copy()
                moved.insert(b, moved.pop(a))
                assert [order[k] for k in insert[a * n + b]] == moved
        for i in range(n + 1):
            for j in range(n + 1):
                lo, hi = min(i, j), max(i, j)
                turned = order[:lo] + order[lo:hi][::-1] + order[hi:]
                assert [order[k] for k in reverse[i * (n + 1) + j]] == turned
