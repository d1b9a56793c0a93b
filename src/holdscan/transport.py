"""Fixed-marginal geometry of ownership matrices.

The set of nonnegative matrices with prescribed row and column sums is a
transportation polytope. Over it the cell-level concentration (sum of
squared entries) has a unique minimizer with an additive-threshold
structure, while its maximizers sit at extreme points, which are exactly
the feasible matrices whose bipartite support graph is a forest.

The minimizer is found by semismooth Newton ascent on the concave dual
of the threshold multipliers, each step a conjugate-gradient solve on
the current support. A row holds its k largest column multipliers, so
the support acts through sorted prefix sums and the solver forms no
n x m array. The maximizer is found either by decoding every spanning
tree from its bipartite Prüfer code (small systems, exact and certified)
or by vertex local search along improving polytope edges (large systems,
a certified lower bound only), restarted from staircase vertices along
row and column orders drawn from the PCG64 stream of numpy's
``default_rng(seed)``, which ``_pcg`` reproduces on Python integers. The
restarts are shared round-robin among forked worker processes, one per
CPU the process may run on, and their results are taken in restart order,
so the search returns what one process would, bit for bit.

The feasible-range sparsity score locates an observed matrix between the
fixed-marginal minimum and maximum.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

import holdscan as hs

from ._pcg import Permutations
from .core import (
    OwnershipMatrix,
    Marginals,
    _agree,
    _at_most,
    _check_search,
    _freeze,
    require_active,
)
from .errors import (
    ConvergenceFailure,
    DegenerateRange,
    DimensionMismatch,
    InternalConsistencyError,
    NonFiniteEntry,
    NotFeasible,
    OutOfRange,
)
from .indices import micro_concentration

#: Absolute tolerance on marginal residuals for feasibility checks.
TOL_FEAS = 1e-8

#: Convergence tolerance of the minimizer (marginal residuals).
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
    the additive threshold rule; it is unique only up to a shift along
    (1, -1), which leaves every cell unchanged.
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
        _agree(np.sum(mat * mat), self.objective, "objective disagrees with its matrix", 1e-12)
        if self.multipliers is not None:
            lam, mu = (np.asarray(v, dtype=float) for v in self.multipliers)
            rebuilt = np.maximum(0.0, (lam[:, None] + mu[None, :]) / 2.0)
            _agree(rebuilt, mat, "multipliers do not reproduce the matrix", TOL_KKT)
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


def min_micro(marg: Marginals) -> TransportSolution:
    """Unique fixed-marginal minimizer of the cell concentration.

    Euclidean projection of the zero matrix onto the transportation
    polytope. Solved by Newton steps on the dual multipliers until the
    marginal residuals reach rounding level (``TOL_KKT`` at worst).
    """
    p, s = marg.p, marg.s
    rows = np.flatnonzero(p > 0)
    cols = np.flatnonzero(s > 0)
    lam_a, mu_a = _dual_newton_min(p[rows], s[cols])
    # Inactive rows/columns get multipliers low enough to zero their cells.
    lam = np.full(marg.n, -abs(mu_a.max()) - 1.0)
    lam[rows] = lam_a
    mu = np.full(marg.m, -abs(lam.max()) - 1.0)
    mu[cols] = mu_a
    full = np.maximum(0.0, (lam[:, None] + mu[None, :]) / 2.0)
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
    bound (``certified=False``), whose restart orders are the permutations
    numpy's ``default_rng(seed)`` draws, reproduced bit for bit by
    ``_pcg.Permutations``. Ties between vertices break toward the
    lexicographically smallest support, so the reported argmax is
    deterministic. The restarts are shared among forked processes, one
    per CPU this process may run on, with the result of one process; the
    search stays in this process when other Python threads run, when
    ``os.fork`` is missing, or when ``budget`` is 1.
    """
    _check_search(budget, seed)
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
    _check_search(budget, seed)
    marg = require_active(matrix)
    observed = micro_concentration(matrix)
    lo = min_micro(marg)
    hi = max_micro(marg, budget, seed=seed)
    m_min, m_max = lo.objective, hi.objective
    _at_most(m_min, observed, "observed value undercuts the certified minimum", TOL_FEAS)
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


def _dual_newton_min(p: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n, m = p.size, s.size
    target = np.concatenate([p, s])
    null = np.concatenate([np.ones(n), -np.ones(m)])  # J is singular along it
    floor = (n + m) * np.finfo(float).eps * float(target.max())  # rounding in n + m sums

    def evaluate(duals: np.ndarray) -> tuple:
        duals -= (duals @ null) / duals.size * null  # an offset along null costs cells digits
        lam, mu = duals[:n], duals[n:]
        # A label below its kink holds no cell and has no curvature; lifting
        # it to the kink raises the dual and puts its first cell in J.
        np.maximum(lam, -mu.max(), out=lam)
        np.maximum(mu, -lam.max(), out=mu)
        support = _support_operator(duals, n)
        fitted = support(duals)
        # the concave dual duals·target − ½ duals·J(duals) and its gradient, the gap
        return duals, support, target - fitted, float(duals @ target - duals @ fitted / 2.0)

    # Start at the multipliers of the affine (sign-unconstrained) projection:
    # exact whenever that projection is already nonnegative.
    start = np.concatenate([2.0 * p / m, 2.0 * s / n]) - 1.0 / (n * m)
    duals, support, gap, value = evaluate(start)
    for _ in range(100 * (n + m)):
        size = float(np.max(np.abs(gap)))
        if size <= floor:
            break
        # δ keeps J + δI definite on a support graph of several components;
        # solving only to a residual of δ keeps the convergence quadratic.
        delta = min(size, 1.0) ** 2
        step = _conjugate_gradients(lambda z: support(z) + delta * z, gap, max(floor, delta))
        slope = float(gap @ step)
        for t in 0.5 ** np.arange(30):  # a step cut 2^30-fold moves only rounding
            trial = evaluate(duals + t * step)
            # near the optimum rounding hides the dual's rise, not the gap's fall
            if trial[3] >= value + 1e-4 * t * slope or np.max(np.abs(trial[2])) < size:
                break
        else:
            break
        duals, support, gap, value = trial
    if np.max(np.abs(gap)) > TOL_KKT:
        raise ConvergenceFailure(
            f"Newton ascent stopped at residual {np.max(np.abs(gap)):.3g}, above {TOL_KKT:g}"
        )
    return duals[:n], duals[n:]


def _support_operator(duals: np.ndarray, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """z -> J z, J = ½[diag(k) B; Bᵀ diag(c)] on the support of duals = (lam, mu).

    B holds the cells with lam[i] + mu[j] >= 0, so row i holds its k[i]
    largest mu, column j its c[j] largest lam, and B and Bᵀ are prefix sums
    in sorted order. J duals stacks the row and column sums of the cells
    max(0, (lam[i] + mu[j]) / 2).
    """
    lam, mu = duals[:n], duals[n:]
    by_mu = np.argsort(-mu, kind="stable")
    by_lam = np.argsort(-lam, kind="stable")
    k = np.searchsorted(-mu[by_mu], lam, side="right")  # how many mu[j] reach -lam[i]
    c = np.searchsorted(-lam[by_lam], mu, side="right")

    def apply(z: np.ndarray) -> np.ndarray:
        x, y = z[:n], z[n:]
        row = k * x + y[by_mu].cumsum()[k - 1] * (k > 0)
        col = x[by_lam].cumsum()[c - 1] * (c > 0) + c * y
        return np.concatenate([row, col]) / 2.0

    return apply


def _conjugate_gradients(
    apply: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray, floor: float
) -> np.ndarray:
    """The d with apply(d) = rhs for a symmetric positive semidefinite apply.

    Stops on a direction without curvature or once every residual entry
    is below ``floor``.
    """
    step = np.zeros_like(rhs)
    r = rhs.copy()
    direction = rhs.copy()
    rr = float(r @ r)
    for _ in range(rhs.size):
        jd = apply(direction)
        curvature = float(direction @ jd)
        if curvature <= 0.0:
            break
        alpha = rr / curvature
        step += alpha * direction
        r -= alpha * jd
        rr, rr_old = float(r @ r), rr
        if abs(r).max() <= floor:
            break
        direction = r + (rr / rr_old) * direction
    return step


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
    p: np.ndarray, s: np.ndarray, rows: list[int], cols: list[int]
) -> np.ndarray:
    """Greedy staircase vertex along permuted rows and columns."""
    n, m = p.size, s.size
    mat = np.zeros((n, m))
    rem_p, rem_s = p.tolist(), s.tolist()
    ri = cj = 0
    while ri < n and cj < m:
        i, j = rows[ri], cols[cj]
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
    """Best of ``budget`` climbs; restart k runs in worker k % W (0 is this process).

    The W - 1 other workers are forked children that pickle each result to
    a pipe as soon as they have it. Results are taken in restart order, so
    the tie rule and the early stop see what one process would see, and the
    answer is the serial one bit for bit. Every child is killed and reaped
    before this returns or raises.
    """
    cap = min(float(p @ p), float(s @ s))  # unreachable above this value
    workers = hs._fork.worker_count(budget)
    best_obj = -1.0
    best_support: list[int] = []
    best_values: list[float] = []

    def share(worker: int) -> Iterator[tuple[float, list[int], list[float]]]:
        return _restarts(p, s, budget, seed, worker, workers)

    with hs._fork.forked("search", share, workers) as receive:
        own = share(0)
        for restart in range(budget):
            worker = restart % workers
            obj, support, values = receive(worker, f"restart {restart}") if worker else next(own)
            if obj > best_obj + 1e-15 or (abs(obj - best_obj) <= 1e-15 and support < best_support):
                best_obj, best_support, best_values = obj, support, values
            if best_obj >= cap - 1e-12:
                break
    best = np.zeros((p.size, s.size))
    best.flat[best_support] = best_values
    return best, best_obj


def _restarts(
    p: np.ndarray, s: np.ndarray, budget: int, seed: int, worker: int, workers: int
) -> Iterator[tuple[float, list[int], list[float]]]:
    """Climbs of restarts worker, worker + workers, ...: (objective, support, cells).

    Every worker draws the whole order stream in restart order, so restart
    k starts from the same vertex in whichever worker climbs it. The
    support lists the positive cells' flat indices in row-major order, so
    it is ordered as (i, j) pairs; the cells are their values.
    """
    orders = Permutations(seed)
    n, m = p.size, s.size
    for restart in range(budget):
        if restart == 0:
            # largest-to-largest greedy staircase, usually near-optimal
            row_order = np.argsort(-p, kind="stable").tolist()
            col_order = np.argsort(-s, kind="stable").tolist()
        elif restart == 1:
            row_order = list(range(n))
            col_order = list(range(m))
        else:
            row_order = orders.permutation(n)
            col_order = orders.permutation(m)
        if restart % workers == worker:
            mat, obj = _hill_climb(_northwest_vertex(p, s, row_order, col_order))
            support = np.flatnonzero(mat > 0)
            yield obj, support.tolist(), mat.flat[support].tolist()


class _Forest:
    """Rooted parent-pointer view of a vertex's support forest.

    Each support cell is the edge between its investor vertex and its
    stock vertex (offset by the row count); ``adjacency[v]`` maps each
    neighbour of vertex v to the value of their cell, ``parent_value[v]``
    the value of the cell to v's parent, and ``component[v]`` the root of
    v's tree. `_hill_climb` walks these pointers to the lowest common
    ancestor to price the unique cycle closed by a nonbasic cell within
    one component; the forest only builds, pivots and reads back. Every
    component hangs from its smallest vertex, so the order in which a
    cycle's cells are summed depends only on the support, never on the
    pivots that led to it. A pivot that cuts one side of its cycle keeps
    that root and reverses one path of parent pointers; only a split that
    leaves a tree without its root re-hangs a whole tree.
    """

    def __init__(self, mat: np.ndarray):
        n, m = mat.shape
        nv = n + m
        self.adjacency: list[dict[int, float]] = [{} for _ in range(nv)]
        rows, cols = np.nonzero(mat > 0)
        for i, j, value in zip(rows.tolist(), cols.tolist(), mat[rows, cols].tolist()):
            self.adjacency[i][n + j] = value
            self.adjacency[n + j][i] = value
        self.parent = [-1] * nv
        self.parent_value = [0.0] * nv  # cell value on the edge to the parent
        self.depth = [0] * nv
        self.component = [-1] * nv
        for root in range(nv):
            if self.component[root] < 0:
                self._hang(root)

    def _hang(self, root: int) -> None:
        """Hang the tree containing ``root`` from it."""
        adjacency, parent, value = self.adjacency, self.parent, self.parent_value
        depth, comp = self.depth, self.component
        parent[root], value[root], depth[root], comp[root] = -1, 0.0, 0, root
        stack = [root]
        while stack:
            vtx = stack.pop()
            up, below = parent[vtx], depth[vtx] + 1
            for nxt, cell in adjacency[vtx].items():
                if nxt == up:
                    continue
                parent[nxt] = vtx
                value[nxt] = cell
                depth[nxt] = below
                comp[nxt] = root
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
        self._hang(min(seen))

    def pivot(self, a: int, b: int, theta: float) -> None:
        """Push ``theta`` around the cycle closed by the nonbasic edge (a, b).

        Path cells alternately shrink and grow from each endpoint; those
        driven to zero leave the support. When only one endpoint's side
        lost cells, the piece below its lowest cut joins the other
        endpoint through the entering cell, and the tree keeps its root:
        the parent pointers and values on the path from that endpoint up
        to the cut turn round, and each subtree off the path keeps its
        pointers and values and shifts its depth by as much as its path
        vertex's depth changed (a zero shift is skipped). When both sides
        lost cells, the piece joining the two endpoints is re-hung from its
        smallest vertex. Every other cut piece becomes a tree hung from its
        smallest vertex.
        """
        adjacency, parent, value, depth = (
            self.adjacency, self.parent, self.parent_value, self.depth,
        )
        cut_a: list[int] = []  # path cells cut on each side, lowest first
        cut_b: list[int] = []
        end_a, end_b = a, b
        shrink_a = shrink_b = True
        while end_a != end_b:
            if depth[end_a] >= depth[end_b]:
                vtx = end_a
                above = end_a = parent[vtx]
                x = value[vtx] - theta if shrink_a else value[vtx] + theta
                shrink_a, cut = not shrink_a, cut_a
            else:
                vtx = end_b
                above = end_b = parent[vtx]
                x = value[vtx] - theta if shrink_b else value[vtx] + theta
                shrink_b, cut = not shrink_b, cut_b
            if x == 0.0:
                del adjacency[vtx][above], adjacency[above][vtx]
                cut.append(vtx)
            else:
                value[vtx] = adjacency[vtx][above] = adjacency[above][vtx] = x
        adjacency[a][b] = adjacency[b][a] = theta
        if cut_a and cut_b:
            self._rehang_as_root(a)
        else:
            vtx, lowest, below = (a, cut_a[0], b) if cut_a else (b, cut_b[0], a)
            cell, new_depth = theta, depth[below] + 1
            while True:
                up, up_cell = parent[vtx], value[vtx]
                shift = new_depth - depth[vtx]
                parent[vtx], value[vtx], depth[vtx] = below, cell, new_depth
                if shift:
                    stack = [nxt for nxt in adjacency[vtx] if nxt != below and nxt != up]
                    while stack:
                        hung = stack.pop()
                        depth[hung] += shift
                        above = parent[hung]
                        for nxt in adjacency[hung]:
                            if nxt != above:
                                stack.append(nxt)
                if vtx == lowest:
                    break
                below, cell, vtx = vtx, up_cell, up
                new_depth += 1
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
    the far vertex. Scans cells in circular row-major order from the one
    after the last pivot and takes the first improving pivot, so a full
    quiet pass certifies local optimality. Each cycle is walked up the
    parent pointers from the deeper end first, then from both ends in
    turn, summing its cells in that order.
    """
    n, m = mat.shape
    forest = _Forest(mat)
    adjacency, parent, value = forest.adjacency, forest.parent, forest.parent_value
    depth, component = forest.depth, forest.component
    inf, gain_tol = np.inf, _PIVOT_GAIN_TOL
    row, col = 0, 0  # the cell the next pass starts from
    while True:
        # one circular pass: row `row` from `col`, the other rows, row `row` up to `col`
        for step in range(n + 1):
            i = (row + step) % n
            basic, comp_i, depth_i = adjacency[i], component[i], depth[i]
            for vb in range(n + (col if step == 0 else 0), n + (col if step == n else m)):
                if vb in basic or component[vb] != comp_i:
                    continue
                # climb to the lowest common ancestor; the first cell out of
                # each endpoint shrinks, and shrinking and growing alternate.
                # A row and a column of one tree differ in depth by an odd
                # count, so the deeper end climbs (shrink, grow) pairs and one
                # last shrinking cell, and from then on the two ends, taken
                # in turn, have opposite signs (cycles are a few cells long:
                # while loops beat building ranges)
                a, b = i, vb
                da, db = depth_i, depth[vb]
                theta = inf
                signed = 0.0
                if da > db:
                    while da > db + 1:
                        da -= 2
                        x = value[a]
                        signed -= x
                        if x < theta:
                            theta = x
                        a = parent[a]
                        signed += value[a]
                        a = parent[a]
                    x = value[a]
                    signed -= x
                    if x < theta:
                        theta = x
                    a = parent[a]
                    shrink_a = False
                else:
                    while db > da + 1:
                        db -= 2
                        x = value[b]
                        signed -= x
                        if x < theta:
                            theta = x
                        b = parent[b]
                        signed += value[b]
                        b = parent[b]
                    x = value[b]
                    signed -= x
                    if x < theta:
                        theta = x
                    b = parent[b]
                    shrink_a = True
                while a != b:
                    x = value[a]
                    a = parent[a]
                    if shrink_a:
                        signed -= x
                        if x < theta:
                            theta = x
                        signed += value[b]
                    else:
                        signed += x
                        x = value[b]
                        signed -= x
                        if x < theta:
                            theta = x
                    b = parent[b]
                    shrink_a = not shrink_a
                length = depth_i + depth[vb] - 2 * depth[a]
                # entering cell contributes theta^2; each path cell (x -> x+s*theta)
                # contributes 2*s*x*theta + theta^2
                gain = theta * theta * (1.0 + length) + 2.0 * theta * signed
                if gain > gain_tol and theta > 0.0:
                    break
            else:
                continue  # no improving pivot in this row
            break  # pivot on (i, vb)
        else:
            break  # a full pass without an improving pivot
        forest.pivot(i, vb, theta)
        row, col = (i, vb - n + 1) if vb - n + 1 < m else ((i + 1) % n, 0)
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
