import re
import warnings

import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holdscan as hs
from holdscan import dependence
from holdscan.errors import (
    IndexOutOfRange,
    InternalConsistencyError,
    InvalidPartition,
    SameInvestor,
    SupportMismatch,
)

from conftest import outcome, random_active


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


def test_nan_forms_raise_instead_of_passing():
    # p2 = s2 = 1e-320 (subnormal): the profile ratios (e / p) / s overflow,
    # so two forms of X are infinite and the slack is nan, and abs(inf - 1)
    # <= nan is False; the agreement check must fail on it, warning nothing.
    # These are the shares of 1e300 and 1e-20, which normalize refuses
    matrix = hs.OwnershipMatrix([[1.0, 0.0], [0.0, 1e-320]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InternalConsistencyError, match="^dependence forms disagree"):
            hs.dependence_index(matrix)


def test_masses_whose_product_underflows_keep_their_index():
    # p2 * s2 = 1e-170 * 1e-170 underflows to 0; no form divides by it, so
    # the index is the true X = 1, held by the second investor and stock
    matrix = hs.normalize([[1e170, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = hs.dependence_index(matrix)
        assert hs.rho(matrix) == pytest.approx(1.0, rel=1e-12)
    assert report.index == 1.0
    nptest.assert_array_equal(report.investor_contributions, [0.0, 1.0])
    nptest.assert_array_equal(report.stock_contributions, [0.0, 1.0])


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


def sparse_book():
    """6 x 7, two held cells a row: its 42 singleton-group cells exceed twice its 12 held ones."""
    raw = np.zeros((6, 7))
    raw[np.arange(6), np.arange(6)] = np.arange(1.0, 7.0)
    raw[np.arange(6), np.arange(1, 7)] = 2.0
    return hs.normalize(raw)


def test_aggregate_checks_the_aggregation_law(golden, monkeypatch):
    # a quarter of the second merged cell's mass moved to the first: the
    # merged book still sums to one, but between + within no longer equals X.
    # The golden book's 2 x 2 group cells are summed by marking every cell,
    # the sparse book's 6 x 7 by the sort
    summed_cells = dependence._summed_cells

    def skewed(keys, values, shape):
        rows, cols, sums, where = summed_cells(keys, values, shape)
        delta = min(sums[:2]) / 4
        sums[0] += delta
        sums[1] -= delta
        return rows, cols, sums, where

    monkeypatch.setattr(dependence, "_summed_cells", skewed)
    sparse = sparse_book()
    for matrix, groups in ((golden, ((0, 1), (2,))), (sparse, tuple((i,) for i in range(sparse.n)))):
        with pytest.raises(InternalConsistencyError, match="between \\+ within"):
            hs.aggregate(matrix, hs.Partition(groups))


def test_aggregate_on_the_sort_path_splits_exactly():
    matrix = sparse_book()
    groups = ((0, 3), (1,), (2, 4), (5,))  # 4 x 7 group cells, 12 held cells
    split = hs.aggregate(matrix, hs.Partition(groups))
    x = hs.dependence_index(matrix).index
    assert split.between + split.within == pytest.approx(x, abs=1e-12)
    rows = np.array([matrix.entries[list(g)].sum(axis=0) for g in groups])
    assert hs.dependence_index(split.merged).index == pytest.approx(
        hs.dependence_index(hs.OwnershipMatrix(rows)).index, abs=1e-12
    )


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


@pytest.mark.parametrize("index", [1.5, 1.0, np.float64(1.0), "1", None], ids=repr)
def test_non_integer_investor_indices_are_rejected(golden, index):
    # int() once truncated 1.5 to investor 1
    message = f"^investor index must be an integer, got {re.escape(repr(index))}$"
    with pytest.raises(InvalidPartition, match=message):
        hs.Partition(((index, 0), (2,)))
    for call in (hs.merger_delta, hs.merge_investors):
        with pytest.raises(IndexOutOfRange, match=message):
            call(golden, 0, index)
        with pytest.raises(IndexOutOfRange, match=message):
            call(golden, index, 2)


def test_numpy_integer_investor_indices_are_accepted(golden):
    groups = hs.Partition(((np.int64(1), np.uint8(0)), (np.intp(2),))).groups
    assert groups == ((0, 1), (2,))
    assert all(type(i) is int for group in groups for i in group)
    # a Python bool is an int; numpy's bool is not (see the core input checks)
    bools = hs.Partition(((True, False), (2,))).groups
    assert bools == groups and all(type(i) is int for group in bools for i in group)
    assert hs.merger_delta(golden, np.int32(0), np.int64(1)) == hs.merger_delta(golden, 0, 1)
    merged = hs.merge_investors(golden, np.uint16(0), np.int64(1))
    assert merged.after == hs.merge_investors(golden, 0, 1).after


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


def large_dependence_book(kind):
    """A 1001-investor book whose investors share no stock, so X = 1000.

    Each investor holds one stock ("diagonal") or two ("block") of its own,
    with lognormal masses; X counts the investors minus one either way.
    """
    rng = np.random.default_rng(5)
    mass = rng.lognormal(size=1001)
    if kind == "diagonal":
        return hs.normalize(np.diag(mass))
    split = rng.uniform(0.1, 0.9, 1001)
    raw = np.zeros((1001, 2002))
    rows = np.arange(1001)
    raw[rows, 2 * rows] = mass * split
    raw[rows, 2 * rows + 1] = mass * (1.0 - split)
    return hs.normalize(raw)


@pytest.mark.parametrize("kind", ["diagonal", "block"])
def test_identity_checks_scale_with_large_dependence(kind):
    # at X ~ 1e3 an absolute slack of 1e-10 would ask the dependence forms,
    # the spectrum tail and the comparative laws for 1e-13 relative accuracy
    from holdscan.core import _agree, _at_most, _scaled_tol

    assert _scaled_tol(1e-10, 0.5) == 1e-10
    assert _scaled_tol(1e-10, np.array([-1000.0, 2.0])) == pytest.approx(1e-7)
    assert _scaled_tol(1e-10, np.float64(-4.0), 2.0) == pytest.approx(4e-10)
    nan = float("nan")
    assert np.isnan(_scaled_tol(1e-10, 2.0, nan, 3.0))
    assert np.isnan(_scaled_tol(1e-10, np.array([1.0, nan])))

    def fails(check, *args):
        with pytest.raises(InternalConsistencyError, match="^off$"):
            check(*args)

    # absolute below one, relative above: the slack is 1e-9 * max(1, |a|, |b|, |terms|)
    _agree(0.25, 0.25 + 0.9e-9, "off")
    fails(_agree, 0.25, 0.25 + 1.1e-9, "off")
    _agree(1000.0, 1000.0 + 0.9e-6, "off")
    fails(_agree, 1000.0, 1000.0 + 1.1e-6, "off")
    _agree(0.25, 0.25 + 0.9e-6, "off", 1e-9, -1000.0)
    fails(_agree, 0.25, 0.25 + 0.9e-6, "off", 1e-12, -1000.0)
    # arrays: one entry off is enough, and every entry gets the largest term's slack
    _agree(np.array([0.0, 5e-10, -5e-10]), 0.0, "off")
    fails(_agree, np.array([0.0, 2e-9, 0.0]), 0.0, "off")
    _agree(np.array([1000.0, 1.0]), np.array([1000.0, 1.0 + 9e-7]), "off")
    fails(_agree, np.array([1000.0, 1.0]), np.array([1000.0, 1.0 + 2e-6]), "off")
    # a NaN in a, b or a term fails, also where a - b would pass
    for a, b, *terms in ((nan, nan), (nan, 1.0), (1.0, nan), (1.0, 1.0, nan),
                         (np.array([1.0, nan]), 1.0), (1.0, 1.0, np.array([nan]))):
        fails(_agree, a, b, "off", 1e-9, *terms)
        fails(_at_most, a, b, "off", 1e-9, *terms)
    # so does an infinite side or term, which would otherwise make the slack infinite
    inf = float("inf")
    for terms in ((nan, 2.0), (2.0, inf), (inf, nan), (np.array([1.0, -inf]),)):
        assert np.isnan(_scaled_tol(1e-10, *terms))
    for a, b, *terms in ((inf, 1.0), (1.0, inf), (inf, inf), (1.0, 1.0, inf),
                         (np.array([inf, 1.0]), np.ones(2)), (1.0, 1.0, np.array([-inf]))):
        fails(_agree, a, b, "off", 1e-9, *terms)
        fails(_at_most, a, b, "off", 1e-9, *terms)
    # _at_most is one-sided: any amount below passes, only an excess fails
    _at_most(-1e6, 1.0, "off")
    fails(_agree, -1e6, 1.0, "off")
    _at_most(1.0 + 0.9e-9, 1.0, "off")
    fails(_at_most, 1.0 + 1.1e-9, 1.0, "off")
    _at_most(np.array([0.0, 0.5]), np.array([1.0, 0.5 + 1e-15]), "off")
    fails(_at_most, np.array([0.0, 0.5 + 2e-9]), np.array([1.0, 0.5]), "off")
    matrix = large_dependence_book(kind)
    assert hs.dependence_index(matrix).index == pytest.approx(1000.0, rel=1e-12)
    hs.micro_decomposition(matrix)
    hs.support_bounds(matrix)
    merged = hs.merge_investors(matrix, 0, 1)
    assert merged.after.dependence == pytest.approx(999.0, rel=1e-12)
    hs.dilute(matrix, 0.25)
    hs.remove_stock(matrix, 3)
    if kind == "diagonal":  # one dense SVD of 1001 x 1001 is enough
        res = hs.whiten(matrix)
        assert res.rho == pytest.approx(1.0, abs=1e-12)
        assert sum(x * x for x in res.singular_values[1:]) == pytest.approx(1000.0, rel=1e-12)


def loop_partition(groups):
    """Oracle: the groups as the one-at-a-time loop checks and sorts them, raising its first fault."""
    norm = []
    seen = set()
    for group in groups:
        members = tuple(sorted(dependence._index(i, InvalidPartition, "investor index")
                               for i in group))
        if not members:
            raise InvalidPartition("empty group")
        if any(i < 0 for i in members):
            raise InvalidPartition("negative investor index")
        repeated = [a for a, b in zip(members, members[1:]) if a == b]
        if repeated:
            raise InvalidPartition(f"investor {repeated[0]} appears twice in one group")
        overlap = seen.intersection(members)
        if overlap:
            raise InvalidPartition(f"investor {min(overlap)} appears in two groups")
        seen.update(members)
        norm.append(members)
    return tuple(norm)


def loop_coverage(groups, n):
    """Oracle: the loop ``aggregate`` checked a partition's coverage of n investors with."""
    covered = [i for group in groups for i in group]
    if any(i >= n for i in covered):
        raise InvalidPartition(f"investor index out of range for n={n}")
    if len(covered) != n:
        raise InvalidPartition("groups do not cover every investor")


FAULTS = ["none", "empty group", "negative", "repeat", "overlap", "index >= n", "missing", "float"]


@st.composite
def faulty_partitions(draw):
    """n investors and a partition of them with at most one fault, its members of mixed types."""
    n = draw(st.integers(1, 10))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    groups = [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    fault = draw(st.sampled_from(FAULTS))
    g = draw(st.integers(0, len(groups) - 1))
    at = draw(st.integers(0, len(groups[g])))
    if fault == "empty group":
        groups.insert(draw(st.integers(0, len(groups))), [])
    elif fault == "negative":
        groups[g].insert(at, -draw(st.integers(1, 3)))
    elif fault == "repeat":
        groups[g].insert(at, draw(st.sampled_from(groups[g])))
    elif fault == "overlap" and len(groups) > 1:
        h = draw(st.sampled_from([k for k in range(len(groups)) if k != g]))
        groups[g].insert(at, draw(st.sampled_from(groups[h])))
    elif fault == "index >= n":
        groups[g].insert(at, n + draw(st.integers(0, 3)))
    elif fault == "missing":
        groups[g].pop(at % len(groups[g]))
        groups = [group for group in groups if group]
    elif fault == "float":
        groups[g][at % len(groups[g])] = float(groups[g][at % len(groups[g])])

    def typed(i):
        if not isinstance(i, int):
            return i
        kinds = [int, np.int64, np.int32, np.intp]
        if i >= 0:
            kinds += [np.uint8, np.uint64]
        if i in (0, 1):
            kinds += [bool, np.bool_]
        return draw(st.sampled_from(kinds))(i)

    container = draw(st.sampled_from([tuple, list]))
    return n, tuple(container(map(typed, group)) for group in groups)


@given(faulty_partitions())
@settings(max_examples=300, deadline=None)
def test_partition_checks_word_each_fault_as_the_loop_did(drawn):
    n, groups = drawn
    expected, got = outcome(loop_partition, groups), outcome(hs.Partition, groups)
    if expected[0] != "returns":
        assert got == expected
        return
    assert got[0] == "returns" and got[1].groups == expected[1]
    assert all(type(i) is int for group in got[1].groups for i in group)
    matrix = hs.normalize(np.ones((n, 2)))
    covered = outcome(loop_coverage, expected[1], n)
    split = outcome(hs.aggregate, matrix, got[1])
    assert split[0] == covered[0] and (covered[0] == "returns" or split == covered)


@pytest.mark.parametrize("groups", [((1.0, 0), (2,)), ((0, np.float64(2)), (1,)),
                                    ((0,), (np.float32(1), 2))], ids=repr)
def test_partition_rejects_floats_as_the_loop_did(groups):
    assert outcome(hs.Partition, groups) == outcome(loop_partition, groups)
