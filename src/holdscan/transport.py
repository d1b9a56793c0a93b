"""Fixed-marginal geometry of ownership matrices.

The set of nonnegative matrices with prescribed row and column sums is a
transportation polytope. Over it the cell-level concentration (sum of
squared entries) has a unique minimizer with an additive-threshold
structure, while its maximizers sit at extreme points, which are exactly
the feasible matrices whose bipartite support graph is a forest.

The minimizer is found by exact blockwise dual ascent on the threshold
multipliers: given the column multipliers, each row multiplier solves a
piecewise-linear monotone equation in closed form (a simplex-projection
style threshold solve), and vice versa. The maximizer is found either by
decoding every spanning tree from its bipartite Prüfer code (small
systems, exact and certified) or by vertex local search along improving
polytope edges (large systems, a certified lower bound only).

The feasible-range sparsity score locates an observed matrix between the
fixed-marginal minimum and maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OwnershipMatrix, Marginals, _freeze, require_active
from .errors import (
    ConvergenceFailure,
    DegenerateRange,
    DimensionMismatch,
    InternalConsistencyError,
    NonFiniteEntry,
    NotFeasible,
    OutOfRange,
)

#: Absolute tolerance on marginal residuals for feasibility checks.
TOL_FEAS = 1e-8

#: Convergence tolerance of the dual-ascent minimizer (marginal residuals).
TOL_KKT = 1e-10

#: The maximum is certified by decoding every spanning tree of the complete
#: bipartite support graph when their count does not exceed this.
MAX_ENUMERATION = 1_000_000

#: Prüfer codes decoded at once; keeps the enumeration's memory near 1 MB.
_CHUNK = 1024

#: Negative dust tolerated when solving a tree system before the tree is
#: declared infeasible.
_TREE_NEG_TOL = 1e-12

#: Minimum objective gain for a local-search pivot to be taken.
_PIVOT_GAIN_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TransportSolution:
    """An optimizer of the cell concentration over a transportation polytope.

    ``kind`` is ``"minimum"`` or ``"maximum"``. ``certified`` means the
    value is exact: always true for the minimum; true for the maximum only
    when the vertex set was exhaustively enumerated, otherwise the
    objective is a lower bound on the true maximum. For the minimum,
    ``multipliers`` carries the dual pair reproducing the matrix through
    the additive threshold rule.
    """

    matrix: np.ndarray
    objective: float
    kind: str
    certified: bool
    marginals: Marginals
    multipliers: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", _freeze(mat))
        if self.kind not in ("minimum", "maximum"):
            raise InternalConsistencyError(f"unknown solution kind {self.kind!r}")
        if not _matches_marginals(mat, self.marginals, TOL_FEAS):
            raise InternalConsistencyError("solution violates its own marginals")
        if abs(float(np.sum(mat * mat)) - self.objective) > 1e-12:
            raise InternalConsistencyError("objective disagrees with its matrix")
        if self.multipliers is not None:
            lam, mu = (np.asarray(v, dtype=float) for v in self.multipliers)
            rebuilt = np.maximum(0.0, (lam[:, None] + mu[None, :]) / 2.0)
            if np.max(np.abs(rebuilt - mat)) > TOL_KKT:
                raise InternalConsistencyError("multipliers do not reproduce the matrix")
            object.__setattr__(self, "multipliers", (_freeze(lam), _freeze(mu)))
        if self.kind == "maximum" and self.certified and not _support_is_forest(mat):
            raise InternalConsistencyError("certified maximizer support is not a forest")


@dataclass(frozen=True)
class SparsityScore:
    """Position of an observed matrix in its fixed-marginal range.

    ``psi`` is 0 at the unique minimum and 1 at the (certified) maximum of
    the cell concentration over matrices sharing the marginals.
    """

    psi: float
    m_min: float
    m_max: float
    m_observed: float
    certified: bool


@dataclass(frozen=True)
class TransportFamily2x2:
    """Closed-form description of the one-parameter 2x2 transport family.

    The free cell ranges over ``interval``; ``x_star`` is the
    unconstrained quadratic minimizer and ``x_min_constrained`` its
    projection onto the interval, which attains the fixed-marginal
    minimum of the cell concentration.
    """

    interval: tuple[float, float]
    x_star: float
    x_min_constrained: float


def is_feasible(candidate: "np.typing.ArrayLike", marg: Marginals) -> bool:
    """True iff the matrix is nonnegative with the prescribed marginals."""
    mat = np.asarray(candidate, dtype=float)
    if mat.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={mat.ndim}")
    if mat.shape != (marg.n, marg.m):
        raise DimensionMismatch(
            f"matrix shape {mat.shape} does not fit marginals ({marg.n}, {marg.m})"
        )
    if not np.all(np.isfinite(mat)):
        raise NonFiniteEntry("matrix must be finite")
    if np.any(mat < 0):
        return False
    return _matches_marginals(mat, marg, TOL_FEAS)


def min_micro(marg: Marginals, *, init_mu: "np.typing.ArrayLike | None" = None) -> TransportSolution:
    """Unique fixed-marginal minimizer of the cell concentration.

    Euclidean projection of the zero matrix onto the transportation
    polytope. Solved by alternating exact multiplier solves until both
    marginal residuals fall below ``TOL_KKT``; the optional ``init_mu``
    only changes the starting point, never the answer.
    """
    p, s = marg.p, marg.s
    rows = np.flatnonzero(p > 0)
    cols = np.flatnonzero(s > 0)
    sub_mu0 = None
    if init_mu is not None:
        sub_mu0 = np.asarray(init_mu, dtype=float)
        if sub_mu0.shape != (marg.m,):
            raise DimensionMismatch("init_mu must have one entry per stock")
        sub_mu0 = sub_mu0[cols]
    sub, lam_a, mu_a = _dual_ascent_min(p[rows], s[cols], sub_mu0)

    full = np.zeros((marg.n, marg.m))
    full[np.ix_(rows, cols)] = sub
    lam = np.empty(marg.n)
    mu = np.empty(marg.m)
    lam[rows] = lam_a
    mu[cols] = mu_a
    # Inactive rows/columns get multipliers low enough to zero their cells.
    lam[np.setdiff1d(np.arange(marg.n), rows)] = -abs(mu_a.max()) - 1.0
    mu[np.setdiff1d(np.arange(marg.m), cols)] = -abs(lam.max()) - 1.0
    return TransportSolution(
        matrix=full,
        objective=float(np.sum(full * full)),
        kind="minimum",
        certified=True,
        marginals=marg,
        multipliers=(lam, mu),
    )


def max_micro(marg: Marginals, budget: int = 64, *, seed: int = 0) -> TransportSolution:
    """A forest-supported maximizer of the cell concentration.

    Exhaustive and certified when the spanning-tree count of the complete
    bipartite graph on active rows and columns is at most
    ``MAX_ENUMERATION`` (every tree's vertex, from its Prüfer code);
    otherwise a seeded multi-start vertex local search returning a lower
    bound (``certified=False``). Ties between vertices break toward the
    lexicographically smallest support, so the reported argmax is
    deterministic.
    """
    if budget < 1:
        raise OutOfRange(f"budget must be positive, got {budget}")
    p, s = marg.p, marg.s
    rows = np.flatnonzero(p > 0)
    cols = np.flatnonzero(s > 0)
    pa, sa = p[rows], s[cols]
    if vertex_count(pa.size, sa.size) <= MAX_ENUMERATION:
        best, obj = _enumerate_max(pa, sa)
        certified = True
    else:
        best, obj = _local_search_max(pa, sa, budget, seed)
        certified = False
    full = np.zeros((marg.n, marg.m))
    full[np.ix_(rows, cols)] = best
    return TransportSolution(
        matrix=full,
        objective=obj,
        kind="maximum",
        certified=certified,
        marginals=marg,
    )


def sparsity_score(
    matrix: OwnershipMatrix, *, budget: int = 64, seed: int = 0
) -> SparsityScore:
    """Locate the observed cell concentration in its feasible range.

    Raises DegenerateRange when the marginals pin the concentration down
    to a point (for example a single investor or a single stock). When the
    maximum is uncertified and the observed value exceeds the search
    result, the observed value itself is the better lower bound and the
    range is widened to it.
    """
    marg = require_active(matrix)
    observed = float(np.sum(matrix.entries**2))
    lo = min_micro(marg)
    hi = max_micro(marg, budget, seed=seed)
    m_min, m_max = lo.objective, hi.objective
    if observed < m_min - TOL_FEAS:
        raise InternalConsistencyError("observed value undercuts the certified minimum")
    if observed > m_max + TOL_FEAS:
        if hi.certified:
            raise InternalConsistencyError("observed value exceeds the certified maximum")
        m_max = observed
    if m_max - m_min <= TOL_FEAS:
        raise DegenerateRange(
            "fixed-marginal range has zero width; sparsity score undefined"
        )
    psi = (observed - m_min) / (m_max - m_min)
    psi = min(max(psi, 0.0), 1.0)
    return SparsityScore(
        psi=psi, m_min=m_min, m_max=m_max, m_observed=observed, certified=hi.certified
    )


def is_extreme_point(candidate: "np.typing.ArrayLike", marg: Marginals) -> bool:
    """True iff a feasible matrix is a vertex of its transportation polytope.

    Equivalent to the bipartite support graph being acyclic; checked by
    union-find cycle detection over the positive cells.
    """
    mat = np.asarray(candidate, dtype=float)
    if not is_feasible(mat, marg):
        raise NotFeasible("matrix does not satisfy the marginal constraints")
    return _support_is_forest(mat)


def family_2x2(a: float, b: float) -> TransportFamily2x2:
    """One-parameter family of 2x2 matrices with marginals (a,1-a), (b,1-b).

    Feasibility confines the free corner cell to an interval; the cell
    concentration is a convex quadratic of it with vertex ``x_star``, so
    the constrained minimizer is the projection of ``x_star`` onto the
    interval.
    """
    _check_open_unit(a, "a")
    _check_open_unit(b, "b")
    lo = max(0.0, a + b - 1.0)
    hi = min(a, b)
    x_star = (a + b) / 2.0 - 0.25
    x_min = min(max(x_star, lo), hi)
    return TransportFamily2x2(interval=(lo, hi), x_star=x_star, x_min_constrained=x_min)


def transport_matrix_2x2(a: float, b: float, x: float) -> np.ndarray:
    """The member of the 2x2 family with corner cell ``x``."""
    _check_open_unit(a, "a")
    _check_open_unit(b, "b")
    fam = family_2x2(a, b)
    lo, hi = fam.interval
    if x < lo - 1e-12 or x > hi + 1e-12:
        raise OutOfRange(f"x={x!r} outside feasible interval [{lo!r}, {hi!r}]")
    x = min(max(x, lo), hi)
    return np.array([[x, a - x], [b - x, 1.0 - a - b + x]])


def vertex_count(n: int, m: int) -> int:
    """Spanning trees of the complete bipartite graph on n+m vertices.

    Every vertex of the transportation polytope solves the marginal system
    of at least one spanning tree, so this bounds the enumeration work.
    """
    return n ** (m - 1) * m ** (n - 1)


# -- minimizer internals ---------------------------------------------------


def _threshold_solve(targets: np.ndarray, duals: np.ndarray) -> np.ndarray:
    """Solve sum_j max(0, (x + duals[j]) / 2) = t for each t in targets.

    The left side is piecewise linear and increasing in x, with knees at
    the negated duals; sorting once lets every target be solved exactly by
    locating its knee interval.
    """
    order = np.sort(duals)[::-1]
    csum = np.cumsum(order)
    active = np.arange(1, order.size + 1, dtype=float)
    knee = csum - active * order  # nondecreasing, knee[0] == 0
    k = np.searchsorted(knee, 2.0 * targets, side="left")
    k = np.maximum(k, 1)
    return (2.0 * targets - csum[k - 1]) / k


#: Residual below which the active set is trusted enough to attempt an
#: exact equality-constrained finish.
_FINISH_TOL = 1e-3


def _dual_ascent_min(
    p: np.ndarray, s: np.ndarray, mu0: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, m = p.size, s.size
    # Start at the multipliers of the affine (sign-unconstrained) projection:
    # exact in one pass whenever that projection is already nonnegative.
    mu = mu0.copy() if mu0 is not None else 2.0 * s / n - 1.0 / (n * m)
    cap = 100 * (n + m)
    tried_support: np.ndarray | None = None
    for _ in range(cap):
        lam = _threshold_solve(p, mu)
        mu = _threshold_solve(s, lam)
        cells = np.maximum(0.0, (lam[:, None] + mu[None, :]) / 2.0)
        row_res = float(np.max(np.abs(cells.sum(axis=1) - p)))
        col_res = float(np.max(np.abs(cells.sum(axis=0) - s)))
        if max(row_res, col_res) <= TOL_KKT:
            return cells, lam, mu
        if max(row_res, col_res) <= _FINISH_TOL:
            support = cells > 0
            if tried_support is None or not np.array_equal(support, tried_support):
                tried_support = support
                finished = _active_set_finish(p, s, support)
                if finished is not None:
                    return finished
    raise ConvergenceFailure(
        f"dual ascent missed tolerance {TOL_KKT:g} within {cap} iterations"
    )


def _active_set_finish(
    p: np.ndarray, s: np.ndarray, support: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Exact multiplier solve on a guessed support pattern.

    On the support the minimizer is affine in the multipliers, so the
    marginal constraints become a linear system. Returns None when the
    guess fails complementarity or feasibility, in which case the ascent
    continues.
    """
    n, m = support.shape
    row_counts = support.sum(axis=1)
    col_counts = support.sum(axis=0)
    if np.any(row_counts == 0) or np.any(col_counts == 0):
        return None
    system = np.zeros((n + m, n + m))
    system[:n, :n] = np.diag(row_counts)
    system[:n, n:] = support
    system[n:, :n] = support.T
    system[n:, n:] = np.diag(col_counts)
    rhs = np.concatenate([2.0 * p, 2.0 * s])
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    lam, mu = solution[:n], solution[n:]
    grid = (lam[:, None] + mu[None, :]) / 2.0
    if np.any(grid[support] < -1e-12) or np.any(grid[~support] > 1e-12):
        return None
    cells = np.maximum(0.0, grid)
    row_res = float(np.max(np.abs(cells.sum(axis=1) - p)))
    col_res = float(np.max(np.abs(cells.sum(axis=0) - s)))
    if max(row_res, col_res) > TOL_KKT:
        return None
    return cells, lam, mu


# -- maximizer internals ---------------------------------------------------


def _enumerate_max(p: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, float]:
    """Best vertex over every spanning tree of the complete bipartite graph.

    Trees are decoded ``_CHUNK`` Prüfer codes at a time. Among the trees
    within 1e-15 of the best objective, the one whose support (positive
    cells in row-major order) is lexicographically smallest wins.
    """
    n, m = p.size, s.size
    total = vertex_count(n, m)
    best = -1.0
    # near-best trees, one per support and sorted by it: code, objective and
    # support (flat cells, padded with -1 so that a prefix sorts first)
    kept = (np.empty(0, np.intp), np.empty(0), np.empty((0, n + m - 1), np.intp))
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total))
        rows, cols, values = _decode_trees(codes, p, s)
        cells = np.maximum(values, 0.0)
        feasible = np.all(values >= -_TREE_NEG_TOL, axis=1)
        obj = np.where(feasible, np.sum(cells * cells, axis=1), -np.inf)
        if obj.max() < best - 1e-15:
            continue
        best = max(best, float(obj.max()))
        near = np.flatnonzero(obj >= best - 1e-15)
        flat = np.where(cells[near] > 0, rows[near] * m + cols[near], n * m)
        support = np.sort(flat, axis=1)
        support[support == n * m] = -1
        codes, obj, support = (
            np.concatenate(pair) for pair in zip(kept, (codes[near], obj[near], support))
        )
        order = np.argsort(-obj, kind="stable")
        keep = order[np.unique(support[order], axis=0, return_index=True)[1]]
        keep = keep[obj[keep] >= best - 1e-15]
        kept = codes[keep], obj[keep], support[keep]
    if best < 0.0:
        raise InternalConsistencyError("no feasible vertex found during enumeration")
    rows, cols, values = _decode_trees(kept[0][:1], p, s)
    mat = np.zeros((n, m))
    mat[rows[0], cols[0]] = np.maximum(values[0], 0.0)
    return mat, float(np.sum(mat * mat))


def _decode_trees(
    codes: np.ndarray, p: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spanning trees of K_{n,m} from their bipartite Prüfer codes, with values.

    Code k reads as mixed-radix digits A in rows^(m-1) and B in
    cols^(n-1), and a vertex's degree is one plus its count in A or B.
    Each step removes one leaf: the smallest leaf row, joined to the next
    column of B, if there is one; otherwise the smallest leaf column,
    joined to the next row of A. (Once one row is left, the rest of A
    names it, so it is no leaf while two or more columns remain.) The
    removed leaf's residual mass is the edge value and leaves its
    neighbour, so the values solve the tree's marginal system; the last
    row and column share what is left. Vertices are rows 0..n-1, then
    columns n..n+m-1. Returns the row, column and value of every edge,
    each of shape (len(codes), n+m-1).
    """
    n, m = p.size, s.size
    nv = n + m
    base = np.arange(codes.size) * nv  # each code's offset in the flat arrays
    # per code: A, a spare, B, a spare, as vertices; a spare digit is read
    # only on the branch not taken
    radix = np.repeat([n, 1, m, 1], [m - 1, 1, n - 1, 1])
    digits = codes[:, None] // np.cumprod(np.r_[1, radix[:-1]]) % radix
    digits += np.repeat([0, n], [m, n])
    named = np.delete(digits, [m - 1, nv - 1], axis=1) + base[:, None]
    degree = 1 + np.bincount(named.ravel(), minlength=codes.size * nv)
    by_code = degree.reshape(-1, nv)
    digits = digits.ravel()
    next_a, next_b = base.copy(), base + m
    residual = np.tile(np.concatenate([p, s]), codes.size)
    ends = np.empty((2, codes.size, nv - 1), np.intp)  # each edge's leaf and neighbour
    values = np.empty((codes.size, nv - 1))
    for step in range(nv - 2):
        row_leaf = by_code[:, :n] == 1
        take_row = row_leaf.any(axis=1)
        leaf = np.where(
            take_row, row_leaf.argmax(axis=1), n + (by_code[:, n:] == 1).argmax(axis=1)
        )
        other = np.where(take_row, digits[next_b], digits[next_a])
        values[:, step] = residual[base + leaf]
        residual[base + other] -= values[:, step]
        degree[base + leaf] = 0
        degree[base + other] -= 1
        ends[:, :, step] = leaf, other
        next_b += take_row
        next_a += ~take_row
    ends[:, :, -1] = (by_code[:, :n] > 0).argmax(axis=1), n + (by_code[:, n:] > 0).argmax(axis=1)
    values[:, -1] = residual[base + ends[0, :, -1]]
    return ends.min(axis=0), ends.max(axis=0) - n, values


def _northwest_vertex(
    p: np.ndarray, s: np.ndarray, row_order: np.ndarray, col_order: np.ndarray
) -> np.ndarray:
    """Greedy staircase vertex along permuted rows and columns."""
    n, m = p.size, s.size
    mat = np.zeros((n, m))
    rem_p = p.copy()
    rem_s = s.copy()
    ri = cj = 0
    while ri < n and cj < m:
        i = int(row_order[ri])
        j = int(col_order[cj])
        amount = min(rem_p[i], rem_s[j])
        mat[i, j] = amount
        rem_p[i] -= amount
        rem_s[j] -= amount
        if rem_p[i] <= 0.0:
            ri += 1
        else:
            cj += 1
    return mat


def _local_search_max(
    p: np.ndarray, s: np.ndarray, budget: int, seed: int
) -> tuple[np.ndarray, float]:
    rng = np.random.default_rng(seed)
    n, m = p.size, s.size
    cap = min(float(p @ p), float(s @ s))  # unreachable above this value
    best_obj = -1.0
    best_support: tuple[tuple[int, int], ...] | None = None
    best_mat: np.ndarray | None = None
    for restart in range(budget):
        if restart == 0:
            # largest-to-largest greedy staircase, usually near-optimal
            row_order = np.argsort(-p, kind="stable")
            col_order = np.argsort(-s, kind="stable")
        elif restart == 1:
            row_order = np.arange(n)
            col_order = np.arange(m)
        else:
            row_order = rng.permutation(n)
            col_order = rng.permutation(m)
        mat = _northwest_vertex(p, s, row_order, col_order)
        mat, obj = _hill_climb(mat)
        support = tuple(zip(*np.nonzero(mat > 0)))
        if obj > best_obj + 1e-15 or (
            abs(obj - best_obj) <= 1e-15
            and best_support is not None
            and support < best_support
        ):
            best_obj, best_support, best_mat = obj, support, mat
        if best_obj >= cap - 1e-12:
            break
    assert best_mat is not None
    return best_mat, best_obj


class _Forest:
    """Rooted parent-pointer view of a vertex's support forest.

    Each support cell is the edge between its investor vertex and its
    stock vertex (offset by the row count); ``adjacency[v]`` maps each
    neighbour of vertex v to the value of their cell. Climbing parent
    pointers to the lowest common ancestor yields the unique cycle closed
    by any nonbasic cell within one component. Every component hangs from
    its smallest vertex, so the order in which a cycle's cells are summed
    depends only on the support, never on the pivots that led to it.
    """

    def __init__(self, mat: np.ndarray):
        n, m = mat.shape
        nv = n + m
        self.adjacency: list[dict[int, float]] = [{} for _ in range(nv)]
        for i, j in zip(*np.nonzero(mat > 0)):
            value = float(mat[i, j])
            self.adjacency[int(i)][n + int(j)] = value
            self.adjacency[n + int(j)][int(i)] = value
        self.parent = [-1] * nv
        self.parent_value = [0.0] * nv  # cell value on the edge to the parent
        self.depth = [0] * nv
        self.component = [-1] * nv
        for root in range(nv):
            if self.component[root] < 0:
                self._hang(root, -1, root)

    def _hang(self, top: int, above: int, component: int) -> None:
        """Hang the tree containing ``top`` from ``above`` (-1: as a root)."""
        adjacency, parent, value = self.adjacency, self.parent, self.parent_value
        depth, comp = self.depth, self.component
        parent[top] = above
        value[top] = adjacency[top][above] if above >= 0 else 0.0
        depth[top] = depth[above] + 1 if above >= 0 else 0
        comp[top] = component
        stack = [top]
        while stack:
            vtx = stack.pop()
            for nxt, cell in adjacency[vtx].items():
                if nxt == parent[vtx]:
                    continue
                parent[nxt] = vtx
                value[nxt] = cell
                depth[nxt] = depth[vtx] + 1
                comp[nxt] = component
                stack.append(nxt)

    def _rehang_as_root(self, vtx: int) -> None:
        """Re-root the tree containing ``vtx`` at its smallest vertex."""
        seen = {vtx}
        stack = [vtx]
        while stack:
            for nxt in self.adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        root = min(seen)
        self._hang(root, -1, root)

    def cycle(self, a: int, b: int) -> tuple[float, float, int] | None:
        """Gain ingredients of the cycle closed by the nonbasic edge (a, b).

        Returns (theta, signed_sum, length) where theta is the flow that
        drives the first shrinking cell to zero, signed_sum is the
        alternating sum of cell values around the path, and length counts
        path cells; None when a and b live in different components.
        """
        if self.component[a] != self.component[b]:
            return None
        depth, parent, value = self.depth, self.parent, self.parent_value
        theta = np.inf
        signed = 0.0
        count = 0
        sign_a = -1.0  # first edge out of each endpoint balances that endpoint
        sign_b = -1.0
        da, db = depth[a], depth[b]
        while da > db:
            x = value[a]
            signed += sign_a * x
            if sign_a < 0 and x < theta:
                theta = x
            sign_a = -sign_a
            a = parent[a]
            da -= 1
            count += 1
        while db > da:
            x = value[b]
            signed += sign_b * x
            if sign_b < 0 and x < theta:
                theta = x
            sign_b = -sign_b
            b = parent[b]
            db -= 1
            count += 1
        while a != b:
            x = value[a]
            signed += sign_a * x
            if sign_a < 0 and x < theta:
                theta = x
            sign_a = -sign_a
            a = parent[a]
            x = value[b]
            signed += sign_b * x
            if sign_b < 0 and x < theta:
                theta = x
            sign_b = -sign_b
            b = parent[b]
            count += 2
        return float(theta), signed, count

    def pivot(self, a: int, b: int, theta: float) -> None:
        """Push ``theta`` around the cycle closed by the nonbasic edge (a, b).

        Path cells alternately shrink and grow from each endpoint; those
        driven to zero leave the support. Only vertices whose path to
        their root crossed a leaving cell are re-hung: the piece holding
        an endpoint joins the other endpoint's tree through the entering
        cell, and every other cut piece becomes a tree of its own.
        """
        adjacency, parent, value, depth = (
            self.adjacency, self.parent, self.parent_value, self.depth,
        )
        sides: tuple[list[int], list[int]] = ([], [])  # path cells cut on each side
        ends = [a, b]
        signs = [-1.0, -1.0]
        while ends[0] != ends[1]:
            side = 0 if depth[ends[0]] >= depth[ends[1]] else 1
            vtx = ends[side]
            above = parent[vtx]
            x = value[vtx] + signs[side] * theta
            if x == 0.0:
                del adjacency[vtx][above], adjacency[above][vtx]
                sides[side].append(vtx)
            else:
                value[vtx] = adjacency[vtx][above] = adjacency[above][vtx] = x
            signs[side] = -signs[side]
            ends[side] = above
        adjacency[a][b] = adjacency[b][a] = theta
        cut_a, cut_b = sides
        if not cut_a:
            self._hang(b, a, self.component[a])
        elif not cut_b:
            self._hang(a, b, self.component[b])
        else:
            self._rehang_as_root(a)
        for vtx in cut_a[1:] + cut_b[1:]:
            self._rehang_as_root(vtx)

    def matrix(self, n: int, m: int) -> np.ndarray:
        """Cell values as a dense investor-by-stock matrix."""
        mat = np.zeros((n, m))
        for i in range(n):
            for vtx, value in self.adjacency[i].items():
                mat[i, vtx - n] = value
        return mat


def _hill_climb(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Move along improving polytope edges until a local maximum.

    Each nonbasic cell whose endpoints lie in one tree component closes a
    unique cycle; pushing flow around it until a basic cell hits zero is
    an edge of the polytope, and convexity puts the larger objective at
    the far vertex. Scans candidates circularly and takes the first
    improving pivot, so a full quiet pass certifies local optimality.
    """
    n, m = mat.shape
    forest = _Forest(mat)
    adjacency = forest.adjacency
    total = n * m
    cursor = 0
    quiet = 0
    while quiet < total:
        i, j = divmod(cursor, m)
        cursor = (cursor + 1) % total
        quiet += 1
        if n + j in adjacency[i]:
            continue
        ingredients = forest.cycle(i, n + j)
        if ingredients is None:
            continue
        theta, signed, length = ingredients
        # entering cell contributes theta^2; each path cell (x -> x+s*theta)
        # contributes 2*s*x*theta + theta^2
        gain = theta * theta * (1.0 + length) + 2.0 * theta * signed
        if gain <= _PIVOT_GAIN_TOL or theta <= 0.0:
            continue
        forest.pivot(i, n + j, theta)
        quiet = 0
    mat = forest.matrix(n, m)
    return mat, float(np.sum(mat * mat))


# -- shared helpers --------------------------------------------------------


def _matches_marginals(mat: np.ndarray, marg: Marginals, tol: float) -> bool:
    return bool(
        np.max(np.abs(mat.sum(axis=1) - marg.p)) <= tol
        and np.max(np.abs(mat.sum(axis=0) - marg.s)) <= tol
    )


def _support_is_forest(mat: np.ndarray) -> bool:
    n = mat.shape[0]
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for i, j in zip(*np.nonzero(mat > 0)):
        ru, rv = find(int(i)), find(n + int(j))
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _check_open_unit(value: float, name: str) -> None:
    if not np.isfinite(value) or not 0.0 < value < 1.0:
        raise OutOfRange(f"{name} must lie strictly between 0 and 1, got {value!r}")
