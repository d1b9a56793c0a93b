import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holdscan as hs
from holdscan.errors import (
    IndexOutOfRange,
    InvalidPartition,
    SameInvestor,
    SupportMismatch,
)

from conftest import random_active


def chi2_oracle(u, v):
    """Brute-force divergence straight from the definition."""
    return sum((a - b) ** 2 / b for a, b in zip(u, v) if b > 0)


def test_chi2_golden_profiles():
    assert hs.chi2_divergence([0.75, 0.25], [0.5, 0.5]) == pytest.approx(0.25, abs=1e-15)
    assert hs.chi2_divergence([1 / 6, 5 / 6], [0.5, 0.5]) == pytest.approx(4 / 9, abs=1e-15)


def test_chi2_zero_on_equal():
    assert hs.chi2_divergence([0.2, 0.8], [0.2, 0.8]) == 0.0


def test_chi2_support_mismatch():
    with pytest.raises(SupportMismatch):
        hs.chi2_divergence([0.5, 0.5], [1.0, 0.0])


def test_chi2_allows_shared_zero():
    value = hs.chi2_divergence([0.5, 0.5, 0.0], [0.25, 0.75, 0.0])
    assert value == pytest.approx(chi2_oracle([0.5, 0.5, 0.0], [0.25, 0.75, 0.0]), abs=1e-15)


def test_dependence_index_golden(golden):
    report = hs.dependence_index(golden)
    assert report.index == pytest.approx(7 / 30, abs=1e-12)
    nptest.assert_allclose(
        report.investor_contributions, [0.4 * 0.25, 0.3 * 4 / 9, 0.0], atol=1e-12
    )
    assert report.investor_contributions.sum() == pytest.approx(report.index, abs=1e-10)
    assert report.stock_contributions.sum() == pytest.approx(report.index, abs=1e-10)
    # the most tilted investor contributes the most
    assert int(np.argmax(report.investor_contributions)) == 1


def test_dependence_zero_on_product():
    p = np.array([0.45, 0.35, 0.2])
    s = np.array([0.3, 0.3, 0.4])
    report = hs.dependence_index(hs.OwnershipMatrix(np.outer(p, s)))
    assert report.index == pytest.approx(0.0, abs=1e-12)


def test_dependence_antidiagonal_half():
    matrix = hs.OwnershipMatrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert hs.dependence_index(matrix).index == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_three_forms_agree(seed):
    rng = np.random.default_rng(seed)
    matrix = random_active(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
    marg = hs.marginals(matrix)
    e = matrix.entries
    bench = np.outer(marg.p, marg.s)
    definitional = float(np.sum((e - bench) ** 2 / bench))
    closed = float(np.sum(e * e / bench) - 1.0)
    likelihood = float(np.sum(bench * (e / bench - 1.0) ** 2))
    report = hs.dependence_index(matrix)
    assert abs(definitional - closed) <= 1e-10
    assert abs(definitional - likelihood) <= 1e-10
    assert abs(report.index - definitional) <= 1e-10
    assert abs(float(report.investor_contributions.sum()) - report.index) <= 1e-10
    assert abs(float(report.stock_contributions.sum()) - report.index) <= 1e-10


def test_index_zero_iff_product():
    rng = np.random.default_rng(3)
    for _ in range(25):
        matrix = random_active(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        marg = hs.marginals(matrix)
        product = np.outer(marg.p, marg.s)
        x = hs.dependence_index(matrix).index
        is_product = bool(np.max(np.abs(matrix.entries - product)) <= 1e-12)
        assert (x <= 1e-12) == is_product


def test_aggregate_singleton_partition(golden):
    split = hs.aggregate(golden, hs.Partition(((0,), (1,), (2,))))
    x = hs.dependence_index(golden).index
    assert split.between == pytest.approx(x, abs=1e-12)
    assert split.within == 0.0


def test_aggregate_whole_partition(golden):
    split = hs.aggregate(golden, hs.Partition(((0, 1, 2),)))
    x = hs.dependence_index(golden).index
    assert split.between == pytest.approx(0.0, abs=1e-12)
    assert split.within == pytest.approx(x, abs=1e-12)
    nptest.assert_allclose(split.merged.entries, [[0.5, 0.5]], atol=1e-15)


def test_aggregate_label_collision_disambiguated():
    matrix = hs.OwnershipMatrix(
        np.array([[0.3, 0.1], [0.2, 0.2], [0.1, 0.1]]), ["a", "a+b", "b"]
    )
    split = hs.aggregate(matrix, hs.Partition(((0, 2), (1,))))
    assert split.merged.investor_labels == ("a+b", "a+b*")


def test_aggregate_two_group_partition_against_oracle(golden):
    # oracle: evaluate the between/within sums directly from the formulas
    marg = hs.marginals(golden)
    q = golden.entries / marg.p[:, None]
    groups = ((0, 1), (2,))
    between_oracle = 0.0
    within_oracle = 0.0
    for group in groups:
        idx = list(group)
        mass = marg.p[idx].sum()
        mean = (marg.p[idx, None] * q[idx]).sum(axis=0) / mass
        between_oracle += mass * np.sum((mean - marg.s) ** 2 / marg.s)
        for i in idx:
            within_oracle += marg.p[i] * np.sum((q[i] - mean) ** 2 / marg.s)
    split = hs.aggregate(golden, hs.Partition(groups))
    assert split.between == pytest.approx(between_oracle, abs=1e-12)
    assert split.within == pytest.approx(within_oracle, abs=1e-12)
    total = hs.dependence_index(golden).index
    assert split.between + split.within == pytest.approx(total, abs=1e-10)
    assert hs.dependence_index(split.merged).index == pytest.approx(split.between, abs=1e-10)


def random_partition(rng, n):
    sizes = []
    left = n
    while left:
        take = int(rng.integers(1, left + 1))
        sizes.append(take)
        left -= take
    order = rng.permutation(n)
    groups = []
    pos = 0
    for size in sizes:
        groups.append(tuple(int(i) for i in order[pos : pos + size]))
        pos += size
    return hs.Partition(tuple(groups))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_aggregation_exact_and_monotone(seed):
    rng = np.random.default_rng(seed)
    matrix = random_active(rng, int(rng.integers(2, 9)), int(rng.integers(2, 7)))
    partition = random_partition(rng, matrix.n)
    split = hs.aggregate(matrix, partition)
    x = hs.dependence_index(matrix).index
    assert split.within >= -1e-14
    assert split.between + split.within == pytest.approx(x, abs=1e-10)
    assert split.between <= x + 1e-10
    assert hs.dependence_index(split.merged).index == pytest.approx(split.between, abs=1e-10)


def test_partition_validation(golden):
    with pytest.raises(InvalidPartition):
        hs.Partition(((0, 1), (1, 2)))
    with pytest.raises(InvalidPartition):
        hs.Partition(((0,), ()))
    with pytest.raises(InvalidPartition):
        hs.aggregate(golden, hs.Partition(((0, 1),)))
    with pytest.raises(InvalidPartition):
        hs.aggregate(golden, hs.Partition(((0, 1), (5,))))


def test_partition_rejects_repeated_investor():
    with pytest.raises(InvalidPartition, match="investor 0 appears twice in one group"):
        hs.Partition(((0, 0, 1),))
    with pytest.raises(InvalidPartition, match="investor 2 appears twice in one group"):
        hs.Partition(((1, 2, 2), (0,)))


def test_merger_delta_golden_pair(golden):
    # two-sided oracle: closed form and an explicit before/after recomputation
    marg = hs.marginals(golden)
    expected = (0.4 * 0.3 / 0.7) * (
        (0.75 - 1 / 6) ** 2 / 0.5 + (0.25 - 5 / 6) ** 2 / 0.5
    )
    delta = hs.merger_delta(golden, 0, 1)
    assert delta == pytest.approx(expected, abs=1e-12)
    merged_rows = np.vstack([golden.entries[0] + golden.entries[1], golden.entries[2]])
    merged = hs.OwnershipMatrix(merged_rows)
    drop = hs.dependence_index(golden).index - hs.dependence_index(merged).index
    assert delta == pytest.approx(drop, abs=1e-10)


def test_merger_delta_first_and_third(golden):
    delta = hs.merger_delta(golden, 0, 2)
    assert delta == pytest.approx((6 / 35) * 0.25, abs=1e-12)
    merged_rows = np.vstack([golden.entries[0] + golden.entries[2], golden.entries[1]])
    merged = hs.OwnershipMatrix(merged_rows)
    drop = hs.dependence_index(golden).index - hs.dependence_index(merged).index
    assert delta == pytest.approx(drop, abs=1e-10)


def test_merger_delta_identical_profiles():
    matrix = hs.OwnershipMatrix(np.array([[0.3, 0.1], [0.45, 0.15]]))
    assert hs.merger_delta(matrix, 0, 1) == pytest.approx(0.0, abs=1e-15)


def test_merger_delta_index_errors(golden):
    with pytest.raises(IndexOutOfRange):
        hs.merger_delta(golden, 0, 7)
    with pytest.raises(SameInvestor):
        hs.merger_delta(golden, 1, 1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_merger_delta_nonnegative(seed):
    rng = np.random.default_rng(seed)
    matrix = random_active(rng, int(rng.integers(2, 9)), int(rng.integers(1, 7)))
    a, b = rng.choice(matrix.n, size=2, replace=False)
    assert hs.merger_delta(matrix, int(a), int(b)) >= 0.0


def test_column_side_aggregation_exploratory(golden):
    # mirror of the investor aggregation on the stock side; not a
    # guaranteed contract, checked here as an exploratory identity
    marg = hs.marginals(golden)
    r = golden.entries / marg.s[None, :]
    groups = ((0, 1),)
    mass = marg.s.sum()
    mean = (marg.s[None, :] * r).sum(axis=1) / mass
    between = mass * np.sum((mean - marg.p) ** 2 / marg.p)
    within = 0.0
    for j in range(golden.m):
        within += marg.s[j] * np.sum((r[:, j] - mean) ** 2 / marg.p)
    x = hs.dependence_index(golden).index
    assert between + within == pytest.approx(x, abs=1e-10)
