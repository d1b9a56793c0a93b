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

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    OwnershipMatrix, _freeze, _probability_vector, _unique_label, held_cells, require_active
)
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InternalConsistencyError,
    InvalidPartition,
    SameInvestor,
    SupportMismatch,
)

#: Cross-form agreement tolerance; disagreement beyond it is treated as
#: catastrophic cancellation and re-examined under compensated summation.
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
        object.__setattr__(
            self, "investor_contributions", _freeze(self.investor_contributions)
        )
        object.__setattr__(
            self, "stock_contributions", _freeze(self.stock_contributions)
        )


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
            members = tuple(sorted(int(i) for i in group))
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


def dependence_index(matrix: OwnershipMatrix) -> DependenceReport:
    """Chi-square dependence of the matrix relative to its product benchmark.

    The reported index uses the definitional sum of squared benchmark
    deviations. The closed form, the likelihood-ratio form, and both
    profile decompositions are computed independently and must agree to
    1e-10; on disagreement the definitional form is recomputed with
    compensated summation before failing.

    Every sum runs over the held cells only: an empty cell deviates from
    the benchmark by its whole mass ``p_i * s_j``, so the empty cells enter
    through their total benchmark mass. Beyond one pass over the entries,
    time and memory are O(nnz + n + m).
    """
    marg = require_active(matrix)
    p, s = marg.p, marg.s
    n, m = matrix.shape
    rows, cols, e = held_cells(matrix)
    p_h, s_h = p[rows], s[cols]
    bench = p_h * s_h
    dev = e - bench
    terms = dev * dev / bench
    # benchmark mass of the empty cells; exactly zero when there are none
    unheld = float(p.sum() * s.sum() - bench.sum()) if e.size < n * m else 0.0

    definitional = float(terms.sum()) + unheld
    closed = float(np.sum(e * e / bench) - 1.0)
    likelihood = float(np.sum(bench * (e / bench - 1.0) ** 2)) + unheld

    investor_contrib = p * (
        np.bincount(rows, (e / p_h - s_h) ** 2 / s_h, minlength=n)
        + _empty_mass(rows, s_h, s, n)
    )
    stock_contrib = s * (
        np.bincount(cols, (e / s_h - p_h) ** 2 / p_h, minlength=m)
        + _empty_mass(cols, p_h, p, m)
    )

    forms = (
        closed,
        likelihood,
        float(investor_contrib.sum()),
        float(stock_contrib.sum()),
    )
    index = definitional
    if any(abs(f - definitional) > _FORM_TOL for f in forms):
        compensated = math.fsum([*terms.tolist(), unheld])
        if any(abs(f - compensated) > _FORM_TOL for f in forms):
            raise InternalConsistencyError(
                "dependence forms disagree beyond tolerance even under "
                "compensated summation"
            )
        index = compensated
    return DependenceReport(
        index=index,
        investor_contributions=investor_contrib,
        stock_contributions=stock_contrib,
    )


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
    portfolios around their group mean. The two always add up to the
    dependence of the original matrix.
    """
    marg = require_active(matrix)
    p, s = marg.p, marg.s
    n = matrix.n
    covered = [i for group in partition.groups for i in group]
    if any(i >= n for i in covered):
        raise InvalidPartition(f"investor index out of range for n={n}")
    if len(covered) != n:
        raise InvalidPartition("groups do not cover every investor")

    e = matrix.entries
    q = e / p[:, None]
    between = 0.0
    within = 0.0
    merged_rows = np.empty((len(partition.groups), matrix.m))
    merged_labels: list[str] = []
    for a, group in enumerate(partition.groups):
        idx = list(group)
        mass = float(p[idx].sum())
        row = e[idx].sum(axis=0)
        merged_rows[a] = row
        mean_profile = row / mass
        between += mass * float(np.sum((mean_profile - s) ** 2 / s))
        spread = q[idx] - mean_profile[None, :]
        within += float(np.sum(p[idx, None] * spread * spread / s[None, :]))
        joined = "+".join(matrix.investor_labels[i] for i in idx)
        merged_labels.append(_unique_label(joined, merged_labels))

    merged = OwnershipMatrix(merged_rows, tuple(merged_labels), matrix.stock_labels)
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
    qa = matrix.entries[a] / p[a]
    qb = matrix.entries[b] / p[b]
    weight = p[a] * p[b] / (p[a] + p[b])
    return float(weight * np.sum((qa - qb) ** 2 / s))


def _row_pair(n: int, a: int, b: int) -> tuple[int, int]:
    a, b = int(a), int(b)
    for idx in (a, b):
        if idx < 0 or idx >= n:
            raise IndexOutOfRange(f"investor index {idx} outside 0..{n - 1}")
    if a == b:
        raise SameInvestor(f"need two distinct investors, got {a} twice")
    return a, b

