"""Benchmark-adjusted ownership dependence.

The dependence index is the Pearson chi-square divergence between the
share matrix and the rank-one proportional benchmark built from its own
marginals. It vanishes exactly when every investor holds the market
portfolio at their own scale. Three algebraically equivalent forms exist
(definitional, closed, likelihood-ratio), along with two exact profile
decompositions: a size-weighted average of investor-level deviations from
the market portfolio, and symmetrically of stock-level deviations from
the investor base.

Under any grouping of investors the index splits exactly into
between-group dependence plus within-group heterogeneity, so coarsening
holdings data can only discard the (nonnegative) within part. Merging two
investors loses a closed-form amount driven by how far their portfolio
profiles are apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _EXACT_TOL, OwnershipMatrix, _agree, _dense_row, _freeze_fields, _index, _per_book,
    _probability_vector, _summed_cells, _unique_label, held_cells, require_active,
)
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidPartition,
    SameInvestor,
    SupportMismatch,
)

#: Base slack of the cross-form agreement.
_FORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DependenceReport:
    """Dependence index with both exact profile decompositions.

    ``investor_contributions[i]`` is investor i's mass times the
    chi-square deviation of their portfolio from the market portfolio;
    ``stock_contributions[j]`` mirrors it on the stock side. Each vector
    sums to ``index``.
    """

    index: float
    investor_contributions: np.ndarray
    stock_contributions: np.ndarray

    def __post_init__(self) -> None:
        _freeze_fields(self, "investor_contributions", "stock_contributions")


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty groups of distinct investor indices.

    Coverage of the full investor set is checked against a concrete
    matrix inside :func:`aggregate`.
    """

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        norm: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for group in self.groups:
            members = tuple(sorted(_index(i, InvalidPartition, "investor index") for i in group))
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
        object.__setattr__(self, "groups", tuple(norm))


@dataclass(frozen=True, eq=False)
class AggregationSplit:
    """Exact between/within split of the dependence index under a grouping."""

    between: float
    within: float
    merged: OwnershipMatrix


def chi2_divergence(u: "np.typing.ArrayLike", v: "np.typing.ArrayLike") -> float:
    """Pearson chi-square divergence of probability vector ``u`` from ``v``.

    Zero iff ``u == v``. Cells where ``v`` is zero must carry no ``u``
    mass, otherwise the divergence is infinite and SupportMismatch is
    raised.
    """
    u_arr = _probability_vector(u, "u")
    v_arr = _probability_vector(v, "v")
    if u_arr.shape != v_arr.shape:
        raise DimensionMismatch(
            f"length mismatch: {u_arr.shape[0]} vs {v_arr.shape[0]}"
        )
    if np.any((v_arr <= 0) & (u_arr > 0)):
        raise SupportMismatch("u places mass where v has none")
    mask = v_arr > 0
    diff = u_arr[mask] - v_arr[mask]
    return float(np.sum(diff * diff / v_arr[mask]))


@_per_book
def dependence_index(matrix: OwnershipMatrix) -> DependenceReport:
    """Chi-square dependence of the matrix relative to its product benchmark.

    The reported index is the sum that signed books share (``_chi_square``).
    The closed form, the likelihood-ratio form, and both profile
    decompositions are computed independently and must agree with it to
    1e-10 (relative above one). No form divides by a product of two
    marginals, which underflows on books whose masses span the float range.
    Computed once per matrix.

    Every sum runs over the held cells only: an empty cell deviates from
    the benchmark by its whole mass ``p_i * s_j``, so the empty cells enter
    through their total benchmark mass. Time and memory are O(nnz + n + m).
    """
    marg = require_active(matrix)
    p, s = marg.p, marg.s
    n, m = matrix.shape
    rows, cols, e = held_cells(matrix)
    p_h, s_h = p[rows], s[cols]
    term = np.empty(e.size)  # scratch: each form writes its terms here in turn
    # a ratio that overflows fails the checks below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        index = _chi_square(e, (n, m), (p_h, s_h), (s_h, p_h), float(p.sum() * s.sum()), term)
        investor_contrib = p * (
            np.bincount(rows, _profile_terms(e, p_h, s_h, term), minlength=n)
            + _empty_mass(rows, s_h, s, n)
        )
        stock_contrib = s * (
            np.bincount(cols, _profile_terms(e, s_h, p_h, term), minlength=m)
            + _empty_mass(cols, p_h, p, m)
        )
        # closed: the sum of (e / p) (e / s), less one
        closed = float(np.multiply(np.divide(e, p_h, out=term), e / s_h, out=term).sum()) - 1.0
        # likelihood: ((e / p) / s - 1)**2 p s, each the square of the ratio times
        # sqrt(p) sqrt(s), and the empty cells' benchmark mass
        unheld = float(p.sum() * s.sum() - np.multiply(p_h, s_h, out=term).sum())
        ratio = np.divide(e, p_h, out=term)
        ratio /= s_h
        ratio -= 1.0
        ratio *= np.sqrt(p_h, out=p_h)
        ratio *= np.sqrt(s_h, out=s_h)
        likelihood = float(ratio @ ratio) + unheld

    forms = np.array([closed, likelihood, investor_contrib.sum(), stock_contrib.sum()])
    _agree(forms, index, "dependence forms disagree beyond tolerance", _FORM_TOL)
    return DependenceReport(
        index=index,
        investor_contributions=investor_contrib,
        stock_contributions=stock_contrib,
    )


def _chi_square(values, shape, divisors, benches, total, term) -> float:
    """The sum over every cell of an n-by-m book of (A_ij - a_i b_j / eta)**2 / (g_i h_j).

    ``values`` are A's held cells. At each of them the caller gives the
    ``divisors`` g_i and h_j and the ``benches`` (a_i / g_i) (b_j / eta)
    and (a_i / eta) (b_j / h_j), gathered from the vectors it holds. A held
    cell adds (A/g - the first bench) (A/h - the second), formed in the
    scratch array ``term`` and one array more; an empty cell adds the
    product of its benches, so the empty cells enter as ``total``, that
    product summed over every cell, (sum of a a/g) (sum of b b/h) / eta**2,
    less its held part. No product of two marginals is a divisor. An
    unsigned book has a = g = p, b = h = s and eta = 1: its divisors are
    p_i and s_j, its benches s_j and p_i, and ``total`` is 1 but for rounding.
    """
    (g, h), (bench_g, bench_h) = divisors, benches
    left = np.divide(values, g, out=term)
    left -= bench_g
    right = values / h
    right -= bench_h
    left *= right
    if values.size == shape[0] * shape[1]:
        return float(np.sum(left))
    return float(np.sum(left)) + float(total - bench_h @ bench_g)


def _profile_terms(
    e: np.ndarray, own: np.ndarray, other: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``(e / own - other) ** 2 / other`` for each held cell, written into ``out``.

    With ``own`` the investor masses and ``other`` the stock masses of the
    cells, these are the squared deviations of each portfolio from the
    market portfolio; swapped, those of each owner base from the investors'.
    """
    np.divide(e, own, out=out)
    out -= other
    out *= out
    out /= other
    return out


def _empty_mass(
    line: np.ndarray, weights: np.ndarray, total: np.ndarray, size: int
) -> np.ndarray:
    """For each of ``size`` rows (or columns), the mass of ``total`` it leaves empty.

    Held cell k lies on line ``line[k]`` and carries ``weights[k]`` of
    ``total``. A line with no empty cell gets exactly zero, not the rounding
    noise of ``total.sum()`` minus its own weights.
    """
    gap = total.sum() - np.bincount(line, weights, minlength=size)
    return np.where(np.bincount(line, minlength=size) < total.size, gap, 0.0)


def aggregate(matrix: OwnershipMatrix, partition: Partition) -> AggregationSplit:
    """Split dependence into between-group and within-group components.

    ``between`` is the dependence index of the merged (group-summed)
    matrix; ``within`` is the mass-weighted heterogeneity of member
    portfolios around their group mean. The two add up to the dependence
    of the original matrix, which is checked before returning. Both are
    summed over the held cells, the empty ones entering in closed form:
    O(nnz + n + m) time and memory.
    """
    marg = require_active(matrix)
    p, s = marg.p, marg.s
    n, m = matrix.shape
    covered = [i for group in partition.groups for i in group]
    if any(i >= n for i in covered):
        raise InvalidPartition(f"investor index out of range for n={n}")
    if len(covered) != n:
        raise InvalidPartition("groups do not cover every investor")

    size = len(partition.groups)
    group = np.empty(n, dtype=np.intp)
    for a, members in enumerate(partition.groups):
        group[list(members)] = a
    index = dependence_index(matrix).index  # before this function's own arrays
    # the merged matrix's cells; member rows add in index order
    rows, cols, e = held_cells(matrix)
    keys = group.astype(np.int64).take(rows)
    keys *= m
    keys += cols
    g_rows, g_cols, summed, where = _summed_cells(keys, e, m)
    del keys  # sorted in place into ``where``
    mass = np.bincount(group, p, minlength=size)
    # scratch; every index is in range, and take's default mode would buffer out
    term, other = np.empty(e.size), np.empty(e.size)
    g_mass, g_s = mass.take(g_rows, out=other[: summed.size], mode="clip"), s[g_cols]
    between = _chi_square(
        summed, (size, m), (g_mass, g_s), (g_s, g_mass), float(mass.sum() * s.sum()),
        term[: summed.size],
    )
    mean = summed / g_mass  # each group's mean profile, on its held cells
    del g_mass
    # a member that leaves empty a cell its group holds deviates there by the
    # whole mean; a member holding every cell of its group adds exactly zero
    gap = np.multiply(mean, mean, out=other[: summed.size])
    gap /= g_s
    del g_s
    unheld = np.where(
        np.bincount(rows, minlength=n) < np.bincount(g_rows, minlength=size)[group],
        np.bincount(g_rows, gap, minlength=size)[group]
        - np.bincount(rows, gap.take(where, out=term, mode="clip"), minlength=n),
        0.0,
    )
    del gap
    spread = np.divide(e, p.take(rows, out=term, mode="clip"), out=term)
    spread -= mean.take(where, out=other, mode="clip")
    del where, mean
    spread *= spread
    spread /= s.take(cols, out=other, mode="clip")
    within = float(p @ (np.bincount(rows, spread, minlength=n) + unheld))
    _agree(between + within, index,
           "between + within disagrees with the dependence index", _EXACT_TOL, between, within)

    merged_labels: list[str] = []
    taken: set[str] = set()
    for members in partition.groups:
        label = _unique_label("+".join(matrix.investor_labels[i] for i in members), taken)
        merged_labels.append(label)
        taken.add(label)
    merged = OwnershipMatrix._from_cells(
        (size, m), g_rows, g_cols, summed, merged_labels, matrix.stock_labels
    )
    return AggregationSplit(between=between, within=within, merged=merged)


def merger_delta(matrix: OwnershipMatrix, a: int, b: int) -> float:
    """Exact dependence lost when investors ``a`` and ``b`` merge.

    Nonnegative; zero iff the two portfolio profiles coincide. Equals the
    dependence index of the original matrix minus that of the matrix with
    rows ``a`` and ``b`` summed.
    """
    marg = require_active(matrix)
    a, b = _row_pair(matrix.n, a, b)
    p, s = marg.p, marg.s
    qa = _dense_row(matrix, a) / p[a]
    qb = _dense_row(matrix, b) / p[b]
    weight = p[a] * p[b] / (p[a] + p[b])
    return float(weight * np.sum((qa - qb) ** 2 / s))


def _row_pair(n: int, a: int, b: int) -> tuple[int, int]:
    a, b = (_index(idx, IndexOutOfRange, "investor index") for idx in (a, b))
    for idx in (a, b):
        if idx < 0 or idx >= n:
            raise IndexOutOfRange(f"investor index {idx} outside 0..{n - 1}")
    if a == b:
        raise SameInvestor(f"need two distinct investors, got {a} twice")
    return a, b

