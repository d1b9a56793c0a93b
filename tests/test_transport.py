import os
import subprocess
import sys
import threading

import numpy as np
import numpy.testing as nptest
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holdscan as hs
from holdscan.errors import (
    ConvergenceFailure,
    DegenerateRange,
    DimensionMismatch,
    InternalConsistencyError,
    NonFiniteEntry,
    NotFeasible,
    OutOfRange,
)

from conftest import count_forks, no_child_left, peak_bytes, refuse_fork, use_workers


def support_graph(matrix):
    n = matrix.shape[0]
    g = nx.Graph()
    g.add_nodes_from(range(n + matrix.shape[1]))
    for i, j in zip(*np.nonzero(matrix > 0)):
        g.add_edge(int(i), n + int(j))
    return g


def sinkhorn_feasible(rng, p, s, iters=400):
    """Random strictly positive member of the polytope by row/col scaling."""
    x = rng.random((p.size, s.size)) + 0.1
    for _ in range(iters):
        x *= (p / x.sum(axis=1))[:, None]
        x *= (s / x.sum(axis=0))[None, :]
    x *= (p / x.sum(axis=1))[:, None]
    return x


def test_is_feasible_golden(golden):
    marg = hs.marginals(golden)
    assert hs.is_feasible(golden.entries, marg)
    assert hs.is_feasible(np.outer(marg.p, marg.s), marg)
    wrong = hs.Marginals(np.array([0.5, 0.25, 0.25]), np.array([0.5, 0.5]))
    assert not hs.is_feasible(golden.entries, wrong)


def test_is_feasible_shape_check(golden):
    with pytest.raises(DimensionMismatch):
        hs.is_feasible(np.zeros((2, 2)), hs.marginals(golden))


def test_min_micro_golden(golden):
    sol = hs.min_micro(hs.marginals(golden))
    assert sol.objective == pytest.approx(0.17, abs=1e-9)
    assert sol.certified and sol.kind == "minimum"
    assert sol.multipliers is not None


def test_min_micro_corner_example():
    marg = hs.Marginals(np.array([0.9, 0.1]), np.array([0.9, 0.1]))
    sol = hs.min_micro(marg)
    nptest.assert_allclose(sol.matrix, [[0.80, 0.10], [0.10, 0.0]], atol=1e-9)
    assert sol.objective == pytest.approx(0.66, abs=1e-12)


def test_min_micro_uniform_marginals():
    marg = hs.Marginals(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    sol = hs.min_micro(marg)
    nptest.assert_allclose(sol.matrix, np.full((2, 2), 0.25), atol=1e-12)
    assert sol.objective == pytest.approx(0.25, abs=1e-12)


def test_min_micro_keeps_its_plan_without_a_copy():
    # the plan is kept read-only in place and only its checks add temporaries:
    # 3.01 dense arrays when this bound was set, 4.01 when it was copied
    rng = np.random.default_rng(5)
    p, s = rng.lognormal(0.0, 1.0, 1200), rng.lognormal(0.0, 1.0, 900)
    marg = hs.Marginals(p / p.sum(), s / s.sum())
    dense = p.size * s.size * 8
    peak = peak_bytes(hs.min_micro, marg)
    assert peak <= 3.25 * dense, f"min_micro peaked at {peak / dense:.2f} dense arrays"


def test_transport_solution_keeps_a_fresh_plan_read_only_in_place():
    marg = hs.Marginals(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    fresh, lam, mu = np.full((2, 2), 0.25), np.full(2, 0.25), np.full(2, 0.25)
    solution = hs.TransportSolution(fresh, 0.25, "minimum", True, marg, (lam, mu))
    assert solution.matrix is fresh and not fresh.flags.writeable
    assert solution.multipliers[0] is lam and not mu.flags.writeable
    backing = np.full((2, 3), 0.25)
    for given in (backing[:, :2], fresh.tolist()):
        solution = hs.TransportSolution(given, 0.25, "minimum", True, marg)
        assert solution.matrix is not given and not solution.matrix.flags.writeable
        nptest.assert_array_equal(solution.matrix, fresh)
    assert backing.flags.writeable


def test_max_micro_golden(golden):
    sol = hs.max_micro(hs.marginals(golden))
    assert sol.objective == pytest.approx(0.30, abs=1e-9)
    assert sol.certified and sol.kind == "maximum"


def test_max_micro_single_investor():
    s = np.array([0.5, 0.3, 0.2])
    sol = hs.max_micro(hs.Marginals(np.array([1.0]), s))
    nptest.assert_allclose(sol.matrix, s[None, :], atol=1e-15)
    assert sol.objective == pytest.approx(float(s @ s), abs=1e-15)


def test_max_micro_uniform_2x2_from_interval_oracle():
    # oracle: the 2x2 polytope is the segment over the feasible interval,
    # so the maximum over vertices is the larger endpoint value
    fam = hs.family_2x2(0.5, 0.5)
    endpoints = [
        hs.transport_matrix_2x2(0.5, 0.5, fam.interval[0]),
        hs.transport_matrix_2x2(0.5, 0.5, fam.interval[1]),
    ]
    oracle = max(float(np.sum(e * e)) for e in endpoints)
    sol = hs.max_micro(hs.Marginals(np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    assert sol.objective == pytest.approx(oracle, abs=1e-15)
    assert sol.objective == pytest.approx(0.5, abs=1e-15)
    nptest.assert_allclose(sol.matrix, np.diag([0.5, 0.5]), atol=1e-15)


def test_max_micro_vertex_property():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        p = rng.random(n) + 0.05
        p /= p.sum()
        s = rng.random(m) + 0.05
        s /= s.sum()
        sol = hs.max_micro(hs.Marginals(p, s))
        assert int(np.count_nonzero(sol.matrix > 0)) <= n + m - 1
        assert nx.is_forest(support_graph(sol.matrix))


def test_sandwich_against_sinkhorn_members(golden):
    rng = np.random.default_rng(12)
    for _ in range(15):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        p = rng.random(n) + 0.1
        p /= p.sum()
        s = rng.random(m) + 0.1
        s /= s.sum()
        marg = hs.Marginals(p, s)
        member = sinkhorn_feasible(rng, p, s)
        assert hs.is_feasible(member, marg)
        value = float(np.sum(member * member))
        assert hs.min_micro(marg).objective <= value + 1e-9
        assert value <= hs.max_micro(marg).objective + 1e-9


def test_sparsity_score_golden(golden):
    score = hs.sparsity_score(golden)
    assert score.psi == pytest.approx(0.04 / 0.13, abs=1e-9)
    assert score.certified
    assert score.m_observed == pytest.approx(0.21, abs=1e-15)


def test_sparsity_score_extremes(golden):
    marg = hs.marginals(golden)
    at_min = hs.OwnershipMatrix(hs.min_micro(marg).matrix, golden.investor_labels, golden.stock_labels)
    assert hs.sparsity_score(at_min).psi == pytest.approx(0.0, abs=1e-9)
    at_max = hs.OwnershipMatrix(hs.max_micro(marg).matrix)
    assert hs.sparsity_score(at_max).psi == pytest.approx(1.0, abs=1e-9)


def test_sparsity_score_widens_to_an_observed_value_above_the_search(monkeypatch):
    from holdscan import transport

    def product_only(p, s, budget, seed):  # feasible, but far from any vertex
        mat = np.outer(p, s)
        return mat, float(np.sum(mat * mat))

    monkeypatch.setattr(transport, "_local_search_max", product_only)
    matrix = hs.normalize(np.eye(12, 10) + 0.01)
    assert hs.vertex_count(*matrix.shape) > transport.MAX_ENUMERATION
    marg = hs.marginals(matrix)
    score = hs.sparsity_score(matrix)
    assert score.m_observed > float(marg.p @ marg.p) * float(marg.s @ marg.s) + transport.TOL_FEAS
    assert score.psi == 1.0
    assert score.m_max == score.m_observed
    assert score.certified is False


def test_sparsity_degenerate_single_stock():
    matrix = hs.OwnershipMatrix(np.array([[0.4], [0.6]]))
    with pytest.raises(DegenerateRange):
        hs.sparsity_score(matrix)


def test_is_extreme_point_examples(golden):
    half = hs.Marginals(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert hs.is_extreme_point(np.diag([0.5, 0.5]), half)
    assert not hs.is_extreme_point(np.full((2, 2), 0.25), half)
    # oracle for the full-support book: cycle detection on the support graph
    marg = hs.marginals(golden)
    assert not nx.is_forest(support_graph(golden.entries))
    assert not hs.is_extreme_point(golden.entries, marg)


def test_is_extreme_point_requires_feasibility(golden):
    with pytest.raises(NotFeasible):
        hs.is_extreme_point(np.full((3, 2), 1.0 / 6), hs.marginals(golden))


def test_family_2x2_corner_case():
    fam = hs.family_2x2(0.9, 0.9)
    assert fam.x_star == pytest.approx(0.65, abs=1e-15)
    assert fam.interval[0] == pytest.approx(0.8, abs=1e-15)
    assert fam.interval[1] == pytest.approx(0.9, abs=1e-15)
    assert fam.x_min_constrained == pytest.approx(0.8, abs=1e-15)
    mat = hs.transport_matrix_2x2(0.9, 0.9, fam.x_min_constrained)
    assert float(np.sum(mat * mat)) == pytest.approx(0.66, abs=1e-12)


def test_family_2x2_interior_uniform():
    fam = hs.family_2x2(0.5, 0.5)
    assert fam.x_star == pytest.approx(0.25, abs=1e-15)
    mat = hs.transport_matrix_2x2(0.5, 0.5, fam.x_min_constrained)
    assert float(np.sum(mat * mat)) == pytest.approx(0.25, abs=1e-15)


def test_family_2x2_product_point_value():
    mat = hs.transport_matrix_2x2(0.9, 0.9, 0.81)
    assert float(np.sum(mat * mat)) == pytest.approx(0.6724, abs=1e-12)


def test_family_2x2_out_of_range():
    with pytest.raises(OutOfRange):
        hs.family_2x2(0.0, 0.5)
    with pytest.raises(OutOfRange):
        hs.transport_matrix_2x2(0.9, 0.9, 0.5)


@given(
    st.floats(0.02, 0.98).map(lambda v: round(v, 3)),
    st.floats(0.02, 0.98).map(lambda v: round(v, 3)),
)
@settings(max_examples=80, deadline=None)
def test_family_2x2_matches_solver(a, b):
    fam = hs.family_2x2(a, b)
    mat = hs.transport_matrix_2x2(a, b, fam.x_min_constrained)
    marg = hs.Marginals(np.array([a, 1 - a]), np.array([b, 1 - b]))
    assert float(np.sum(mat * mat)) == pytest.approx(hs.min_micro(marg).objective, abs=1e-9)


@given(
    st.floats(0.02, 0.98).map(lambda v: round(v, 3)),
    st.floats(0.02, 0.98).map(lambda v: round(v, 3)),
)
@settings(max_examples=60, deadline=None)
def test_product_vs_min_gap(a, b):
    marg = hs.Marginals(np.array([a, 1 - a]), np.array([b, 1 - b]))
    product_value = float(np.sum(np.outer(marg.p, marg.s) ** 2))
    min_value = hs.min_micro(marg).objective
    assert product_value >= min_value - 1e-12
    degenerate = abs((2 * a - 1) * (2 * b - 1)) <= 1e-12
    if degenerate:
        assert product_value == pytest.approx(min_value, abs=1e-9)
    else:
        assert product_value > min_value + 1e-12


def test_degenerate_marginals_restricted():
    marg = hs.Marginals(np.array([0.6, 0.4]), np.array([0.7, 0.0, 0.3]))
    lo = hs.min_micro(marg)
    hi = hs.max_micro(marg)
    assert np.all(lo.matrix[:, 1] == 0.0)
    assert np.all(hi.matrix[:, 1] == 0.0)
    assert hs.is_feasible(lo.matrix, marg)
    assert hs.is_feasible(hi.matrix, marg)
    assert lo.objective <= hi.objective


def test_max_budget_validation(golden):
    with pytest.raises(OutOfRange):
        hs.max_micro(hs.marginals(golden), budget=0)


def test_vertex_count_formula():
    assert hs.vertex_count(3, 2) == 12
    assert hs.vertex_count(1, 9) == 1
    assert hs.vertex_count(4, 3) == 432


def test_local_search_path_is_deterministic():
    # force the uncertified path by shrinking the enumeration gate
    import holdscan.transport as transport

    p = np.linspace(1, 2, 7)
    p /= p.sum()
    s = np.linspace(1, 3, 6)
    s /= s.sum()
    marg = hs.Marginals(p, s)
    old_gate = transport.MAX_ENUMERATION
    transport.MAX_ENUMERATION = 1
    try:
        first = hs.max_micro(marg, budget=8, seed=3)
        second = hs.max_micro(marg, budget=8, seed=3)
    finally:
        transport.MAX_ENUMERATION = old_gate
    assert not first.certified
    nptest.assert_array_equal(first.matrix, second.matrix)
    assert nx.is_forest(support_graph(first.matrix))
    # the heuristic value is a lower bound on the certified maximum
    assert first.objective <= hs.max_micro(marg).objective + 1e-12


def power_law_marginals(seed, n, m):
    rng = np.random.default_rng(seed)
    p = (rng.permutation(n) + 1.0) ** -1.0 * rng.uniform(0.5, 1.5, n)
    s = (rng.permutation(m) + 1.0) ** -0.8 * rng.uniform(0.5, 1.5, m)
    return hs.Marginals(p / p.sum(), s / s.sum())


#: Local-search maxima recorded before the spanning forest was updated in
#: place: (n, m, budget, objective as float.hex, flat indices of the support).
#: Book k of the table is ``power_law_marginals(k // 2, n, m)``.
LOCAL_SEARCH_PINS = [
    (12, 10, 1, '0x1.161fa4e126bc2p-3', [
        4, 8, 9, 12, 29, 32, 33, 35, 39, 41, 46, 49, 50, 59, 67, 68, 75, 80, 96, 106,
        114
    ]),
    (12, 10, 64, '0x1.1773177c71a3cp-3', [
        6, 10, 29, 33, 34, 35, 42, 46, 53, 67, 68, 75, 81, 90, 91, 95, 105, 106, 108,
        109, 114
    ]),
    (20, 16, 1, '0x1.68609f5a6f2e7p-4', [
        7, 17, 18, 27, 33, 38, 45, 47, 58, 62, 75, 83, 98, 118, 129, 147, 148, 159, 161,
        167, 168, 169, 170, 172, 176, 177, 206, 218, 227, 252, 261, 285, 303, 309, 316
    ]),
    (20, 16, 64, '0x1.68609f5a6f2e7p-4', [
        7, 17, 18, 27, 33, 38, 45, 47, 58, 62, 75, 83, 98, 118, 129, 147, 148, 159, 161,
        167, 168, 169, 170, 172, 176, 177, 206, 218, 227, 252, 261, 285, 303, 309, 316
    ]),
    (40, 30, 1, '0x1.602a9c2633a90p-4', [
        2, 53, 80, 99, 103, 107, 109, 112, 114, 115, 116, 117, 119, 133, 176, 186, 189,
        219, 221, 228, 238, 241, 257, 277, 309, 344, 370, 395, 426, 477, 509, 532, 564,
        573, 578, 582, 594, 623, 635, 688, 715, 728, 769, 780, 796, 828, 843, 885, 916,
        917, 947, 974, 975, 984, 1014, 1027, 1062, 1085, 1087, 1100, 1104, 1120, 1133,
        1134, 1142, 1144, 1157, 1188, 1191
    ]),
    (40, 30, 64, '0x1.602a9c2633a90p-4', [
        2, 53, 80, 99, 103, 107, 109, 112, 114, 115, 116, 117, 119, 133, 176, 186, 189,
        219, 221, 228, 238, 241, 257, 277, 309, 344, 370, 395, 426, 477, 509, 532, 564,
        573, 578, 582, 594, 623, 635, 688, 715, 728, 769, 780, 796, 828, 843, 885, 916,
        917, 947, 974, 975, 984, 1014, 1027, 1062, 1085, 1087, 1100, 1104, 1120, 1133,
        1134, 1142, 1144, 1157, 1188, 1191
    ]),
]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**70 + 3, 2**200 + 1])
def test_restart_orders_match_numpy_permutations(seed):
    # numpy stays the oracle: each restart from 2 to 63 draws a row order and
    # then a column order from one generator. The sizes straddle the powers
    # of two where the draw mask widens; 2**200 + 1 has more seed words than
    # the pool holds.
    from holdscan._pcg import Permutations

    sizes = [1, 2, 3, 4, 5, 31, 32, 33, 64, 65, 1000]
    for n, m in zip(sizes, reversed(sizes)):
        rng, orders = np.random.default_rng(seed), Permutations(seed)
        for _ in range(2, 64):
            for k in (n, m):
                assert orders.permutation(k) == rng.permutation(k).tolist(), (seed, n, m)


@pytest.mark.parametrize("case", range(len(LOCAL_SEARCH_PINS)))
def test_local_search_pinned_vertices(case):
    n, m, budget, objective, support = LOCAL_SEARCH_PINS[case]
    sol = hs.max_micro(power_law_marginals(case // 2, n, m), budget)
    assert not sol.certified
    assert sol.objective == float.fromhex(objective)
    assert np.array_equal(np.flatnonzero(sol.matrix > 0), support)


@pytest.mark.parametrize("case", range(len(LOCAL_SEARCH_PINS)))
def test_local_search_is_locally_optimal(case):
    # oracle: every nonbasic cell closes a cycle through the support forest
    # (found by networkx); pushing flow around it must not gain
    from holdscan.transport import _PIVOT_GAIN_TOL

    n, m, budget, _, _ = LOCAL_SEARCH_PINS[case]
    mat = hs.max_micro(power_law_marginals(case // 2, n, m), budget).matrix
    g = support_graph(mat)
    assert nx.is_forest(g)
    for i, j in zip(*np.nonzero(mat == 0)):
        a, b = int(i), n + int(j)
        if not nx.has_path(g, a, b):
            continue
        path = nx.shortest_path(g, a, b)
        values = np.array([mat[min(u, v), max(u, v) - n] for u, v in zip(path, path[1:])])
        signs = np.where(np.arange(values.size) % 2 == 0, -1.0, 1.0)
        theta = float(values[signs < 0].min())
        gain = theta * theta * (1.0 + values.size) + 2.0 * theta * float(signs @ values)
        assert gain <= _PIVOT_GAIN_TOL


#: sha256 of the pivots (one "a b theta.hex()" line each) of the budget-1
#: local searches on the budget-1 books of ``LOCAL_SEARCH_PINS``, recorded
#: before pivots re-hung one path: (case, pivot count, digest).
PIVOT_PATH_PINS = [
    (0, 23, "29d4907309e07df820d52f948a46a95784a1b0ec4ae0c2a5dbf9e885a953c447"),
    (2, 53, "48096d9dab2a282a2b3fe07eedc33c2e87fdbae7a00e6408cba508d3228c7d05"),
    (4, 125, "a9d62aa2ffcefa0ba98e2f8332641478eab7b19b21345ba73ec515165e853af0"),
]


@pytest.mark.parametrize("case, count, digest", PIVOT_PATH_PINS)
def test_local_search_pinned_pivot_path(case, count, digest, monkeypatch):
    # the same result by a different route would still pass the vertex pins
    import hashlib

    from holdscan.transport import _Forest

    n, m, budget, _, _ = LOCAL_SEARCH_PINS[case]
    assert budget == 1
    pivots = []
    pivot = _Forest.pivot

    def recording(forest, a, b, theta):
        pivots.append(f"{a} {b} {theta.hex()}")
        pivot(forest, a, b, theta)

    monkeypatch.setattr(_Forest, "pivot", recording)
    hs.max_micro(power_law_marginals(case // 2, n, m), budget)
    assert len(pivots) == count
    assert hashlib.sha256("\n".join(pivots).encode()).hexdigest() == digest


# -- the local search's restarts in forked workers -----------------------------


@pytest.mark.parametrize("case", [1, 3, 5])
def test_pinned_searches_match_in_any_number_of_workers(case, monkeypatch):
    n, m, budget, objective, support = LOCAL_SEARCH_PINS[case]
    assert budget == 64
    marg = power_law_marginals(case // 2, n, m)
    forks = count_forks(monkeypatch)
    results = []
    for workers in (1, 2, 3, 5):
        use_workers(monkeypatch, workers)
        before = len(forks)
        sol = hs.max_micro(marg, budget)
        assert len(forks) - before == workers - 1
        results.append((sol.objective.hex(), np.flatnonzero(sol.matrix > 0).tolist(),
                        sol.matrix.tobytes()))
        no_child_left()
    assert results[0][:2] == (objective, support)
    assert all(result == results[0] for result in results)


@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from(["lognormal", "tied"]),
    st.integers(1, 12),
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_local_search_is_the_serial_one_in_any_number_of_workers(n, m, kind, budget, data):
    # 1-3 integer masses tie objectives, so the support tie rule decides
    import holdscan._fork as fork
    import holdscan.transport as transport

    p, s = drawn_masses(data, n, kind), drawn_masses(data, m, kind)
    p, s = p / p.sum(), s / s.sum()
    seed = data.draw(st.integers(0, 2**32 - 1))
    count = fork.worker_count
    try:
        results = []
        for workers in (1, 2, 3):
            fork.worker_count = lambda budget: min(workers, budget)
            mat, obj = transport._local_search_max(p, s, budget, seed)
            results.append((obj.hex(), mat.tobytes()))
    finally:
        fork.worker_count = count
    assert all(result == results[0] for result in results)


def scripted_climbs(monkeypatch, p, s, budget, script):
    """Make restart k's climb return ``script(k, cap)``: an objective and a support.

    The climb knows its restart by its start vertex, recorded from a serial
    search, and returns the support's cells valued k + 1. The patched
    function is inherited by the forked workers.
    """
    import holdscan.transport as transport

    starts = []
    use_workers(monkeypatch, 1)
    monkeypatch.setattr(transport, "_hill_climb", lambda mat: starts.append(mat.tobytes()) or (mat, 0.0))
    transport._local_search_max(p, s, budget, 0)
    assert len(set(starts)) == budget
    restart_of = {start: k for k, start in enumerate(starts)}
    cap = min(float(p @ p), float(s @ s))

    def climb(mat):
        k = restart_of[mat.tobytes()]
        objective, support = script(k, cap)
        out = np.zeros_like(mat)
        out.flat[support] = k + 1.0
        return out, objective

    monkeypatch.setattr(transport, "_hill_climb", climb)


def serial_and_forked(monkeypatch, p, s, budget):
    """(objective hex, matrix bytes) of the search in 1, 2, 3 and 5 workers."""
    import holdscan.transport as transport

    results = []
    for workers in (1, 2, 3, 5):
        use_workers(monkeypatch, workers)
        mat, obj = transport._local_search_max(p, s, budget, 0)
        no_child_left()
        results.append((obj.hex(), mat.tobytes()))
    return results


def test_forked_search_keeps_the_tie_rule(monkeypatch):
    # an objective within 1e-15 of the best so far ties with it, and the
    # smaller support wins, wherever the two restarts ran: the best moves
    # up at restarts 2 and 6 and to a smaller support at 1, 4, 7 and 8
    marg = lognormal_marginals(3, 12, 10)
    offsets = [0.0, -9e-16, 5e-16, 4e-16, -3e-16, 0.0, 1.4e-15, 8e-16, 1.1e-15, -2e-16]
    supports = [[5, 9, 40], [2, 50], [1, 7], [3, 4, 5], [0, 99], [2, 49], [8], [1, 6, 7],
                [1, 5], [0, 98]]
    scripted_climbs(monkeypatch, marg.p, marg.s, 10, lambda k, cap: (cap / 2 + offsets[k], supports[k]))
    results = serial_and_forked(monkeypatch, marg.p, marg.s, 10)
    assert all(result == results[0] for result in results)
    best = np.frombuffer(results[0][1]).reshape(12, 10)
    assert np.flatnonzero(best).tolist() == [1, 5] and best.flat[1] == 9.0


@pytest.mark.parametrize("budget", [1, 2, 16])
def test_forked_search_stops_at_the_cap_as_one_process_does(budget, monkeypatch):
    # restart 3 reaches the cap: the search stops there, later restarts lose,
    # and every worker is reaped
    marg = lognormal_marginals(4, 12, 10)
    climbs = []

    def script(k, cap):
        if os.getpid() == caller:
            climbs.append(k)
        objective = cap if k == 3 else cap / 2 + k * 1e-3 * cap
        return objective, [k, 20 + k]

    caller = os.getpid()
    scripted_climbs(monkeypatch, marg.p, marg.s, budget, script)
    results = serial_and_forked(monkeypatch, marg.p, marg.s, budget)
    assert all(result == results[0] for result in results)
    if budget > 3:
        assert float.fromhex(results[0][0]) == min(float(marg.p @ marg.p), float(marg.s @ marg.s))
        assert max(climbs) <= 3  # the caller climbs nothing after the stop


def test_failing_worker_raises_and_is_reaped(monkeypatch):
    import holdscan.transport as transport

    climb, caller = transport._hill_climb, os.getpid()

    def failing(mat):
        if os.getpid() != caller:
            raise RuntimeError("a worker fails")
        return climb(mat)

    monkeypatch.setattr(transport, "_hill_climb", failing)
    use_workers(monkeypatch, 3)
    with pytest.raises(InternalConsistencyError, match="ended with status 1 before sending restart 1$"):
        hs.max_micro(power_law_marginals(0, 12, 10), 64)
    no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_failing_caller_reaps_its_workers(error, monkeypatch):
    import holdscan.transport as transport

    climb, caller = transport._hill_climb, os.getpid()

    def failing(mat):
        if os.getpid() == caller:
            raise error("the caller fails")
        return climb(mat)

    monkeypatch.setattr(transport, "_hill_climb", failing)
    use_workers(monkeypatch, 3)
    with pytest.raises(error):
        hs.max_micro(power_law_marginals(0, 12, 10), 64)
    no_child_left()


def test_forked_workers_leave_the_callers_output_alone(tmp_path):
    # unflushed text in the caller's stdout buffer is copied into each fork;
    # a worker that flushed it or ran on into the CLI would print it again
    rows = [f"i{i},s{j},{(i + 1) * (j + 2) % 7 + 1}" for i in range(12) for j in range(10)]
    book = tmp_path / "book.csv"
    book.write_text("investor,stock,amount\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code = ("import sys\nfrom holdscan import cli\n"
            "sys.stdout.write('written before the search\\n')\n"
            "sys.exit(cli.main(['psi', sys.argv[1]]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("PYTHONUNBUFFERED", None)  # keep the text in the buffer
    done = subprocess.run([sys.executable, "-c", code, str(book)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.count("written before the search") == 1
    assert done.stdout.count("schema_version") == 1
    assert "certified                    false" in done.stdout


def test_search_in_a_second_thread_does_not_fork(monkeypatch):
    n, m, budget, objective, support = LOCAL_SEARCH_PINS[1]
    refuse_fork(monkeypatch)
    found = []
    thread = threading.Thread(
        target=lambda: found.append(hs.max_micro(power_law_marginals(0, n, m), budget))
    )
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert found[0].objective.hex() == objective
    assert np.flatnonzero(found[0].matrix > 0).tolist() == support


@pytest.mark.parametrize("case", [0, 2, 4])
def test_budget_one_search_does_not_fork(case, monkeypatch):
    n, m, budget, objective, support = LOCAL_SEARCH_PINS[case]
    assert budget == 1
    refuse_fork(monkeypatch)
    sol = hs.max_micro(power_law_marginals(case // 2, n, m), budget)
    assert sol.objective.hex() == objective
    assert np.flatnonzero(sol.matrix > 0).tolist() == support


def test_worker_count(monkeypatch):
    from holdscan._fork import worker_count

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert worker_count(64) == min(cpus, 64)
    assert worker_count(1) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert worker_count(64) == min(os.cpu_count(), 64)
    monkeypatch.delattr(os, "fork", raising=False)
    assert worker_count(64) == 1


# -- certified maximum: the Prüfer decode against a recursive oracle ----------


def oracle_spanning_trees(n, m):
    """Spanning trees of K_{n,m} as cell tuples, by recursive edge choice.

    Edges are scanned in row-major cell order and trees are emitted in
    lexicographic order of their cell-index sets. A cheap connectivity
    prune keeps dead branches from being explored.
    """
    nv = n + m
    cells = [(i, j) for i in range(n) for j in range(m)]
    ecount = len(cells)
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def can_still_connect(start, comps):
        link = {}

        def lfind(x):
            while link.get(x, x) != x:
                x = link[x]
            return x

        remaining = comps
        for idx in range(start, ecount):
            i, j = cells[idx]
            ru, rv = lfind(find(i)), lfind(find(n + j))
            if ru != rv:
                link[ru] = rv
                remaining -= 1
                if remaining == 1:
                    return True
        return remaining == 1

    chosen = []

    def recurse(start, comps):
        if comps == 1:
            yield tuple(cells[idx] for idx in chosen)
            return
        if ecount - start < comps - 1 or not can_still_connect(start, comps):
            return
        for idx in range(start, ecount):
            if ecount - idx < comps - 1:
                break
            i, j = cells[idx]
            ru, rv = find(i), find(n + j)
            if ru == rv:
                continue
            parent[ru] = rv
            chosen.append(idx)
            yield from recurse(idx + 1, comps - 1)
            chosen.pop()
            parent[ru] = ru

    yield from recurse(0, nv)


def oracle_tree_vertex(tree, p, s):
    """The matrix on a spanning tree with marginals (p, s); None if infeasible.

    Leaf elimination in stack order: each leaf's residual mass is its
    edge's value and is taken from the neighbour.
    """
    n, m = p.size, s.size
    nv = n + m
    residual = np.concatenate([p, s])
    incident = [[] for _ in range(nv)]
    for eid, (i, j) in enumerate(tree):
        incident[i].append(eid)
        incident[n + j].append(eid)
    degree = [len(edges) for edges in incident]
    used = [False] * len(tree)
    values = np.zeros(len(tree))
    stack = [vtx for vtx in range(nv) if degree[vtx] == 1]
    while stack:
        vtx = stack.pop()
        if degree[vtx] != 1:
            continue
        eid = next(e for e in incident[vtx] if not used[e])
        used[eid] = True
        i, j = tree[eid]
        other = n + j if vtx == i else i
        amount = residual[vtx]
        if amount < -1e-12:
            return None
        values[eid] = amount
        residual[vtx] = 0.0
        residual[other] -= amount
        degree[vtx] -= 1
        degree[other] -= 1
        if degree[other] == 1:
            stack.append(other)
    assert all(used)
    mat = np.zeros((n, m))
    for eid, (i, j) in enumerate(tree):
        mat[i, j] = max(values[eid], 0.0)
    return mat


def oracle_max(p, s):
    """Best oracle vertex, in tree order; a near tie (1e-15) goes to the smaller support."""
    best_obj, best_support, best_mat = -1.0, None, None
    for tree in oracle_spanning_trees(p.size, s.size):
        mat = oracle_tree_vertex(tree, p, s)
        if mat is None:
            continue
        obj = float(np.sum(mat * mat))
        support = tuple(np.flatnonzero(mat > 0))
        if obj > best_obj + 1e-15 or (abs(obj - best_obj) <= 1e-15 and support < best_support):
            best_obj, best_support, best_mat = obj, support, mat
    return best_mat, best_obj


def lognormal_marginals(seed, n, m):
    rng = np.random.default_rng(seed)
    p = rng.lognormal(size=n)
    s = rng.lognormal(size=m)
    return hs.Marginals(p / p.sum(), s / s.sum())


SMALL_SHAPES = [
    (n, m) for n in range(1, 6) for m in range(1, 6) if hs.vertex_count(n, m) <= 4096
]


@pytest.mark.parametrize("n, m", SMALL_SHAPES)
def test_decoded_trees_match_oracle(n, m):
    from holdscan.transport import _decode_trees

    marg = lognormal_marginals(10 * n + m, n, m)
    total = hs.vertex_count(n, m)
    rows, cols, values = _decode_trees(np.arange(total), marg.p, marg.s)
    decoded = {}
    for r, c, v in zip(rows, cols, values):
        decoded[frozenset(zip(r.tolist(), c.tolist()))] = (r, c, v)
    trees = list(oracle_spanning_trees(n, m))
    assert len(decoded) == len(trees) == total
    assert set(decoded) == {frozenset(tree) for tree in trees}
    for tree in trees:
        expect = oracle_tree_vertex(tree, marg.p, marg.s)
        r, c, v = decoded[frozenset(tree)]
        assert (expect is not None) == bool(np.all(v >= -1e-12))
        if expect is not None:
            got = np.zeros((n, m))
            got[r, c] = np.maximum(v, 0.0)
            nptest.assert_allclose(got, expect, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (4, 1), (1, 7), (6, 1)])
def test_enumeration_single_row_or_column(n, m):
    # one investor or one stock: the star is the only tree and the only vertex
    marg = lognormal_marginals(n + m, n, m)
    sol = hs.max_micro(marg)
    assert sol.certified
    expect = marg.s[None, :] if n == 1 else marg.p[:, None]
    nptest.assert_allclose(sol.matrix, expect, rtol=0, atol=1e-15)
    oracle_mat, oracle_obj = oracle_max(marg.p, marg.s)
    nptest.assert_allclose(sol.matrix, oracle_mat, rtol=0, atol=1e-15)
    assert abs(sol.objective - oracle_obj) <= 1e-15


#: Shapes whose oracle enumeration stays within a second.
ORACLE_SHAPES = [(n, m) for n, m in SMALL_SHAPES if 1 < hs.vertex_count(n, m) <= 500]


@given(st.sampled_from(ORACLE_SHAPES), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_certified_max_matches_oracle_lognormal(shape, seed):
    marg = lognormal_marginals(seed, *shape)
    sol = hs.max_micro(marg)
    oracle_mat, oracle_obj = oracle_max(marg.p, marg.s)
    assert sol.certified
    assert abs(sol.objective - oracle_obj) <= 1e-15
    assert np.array_equal(np.flatnonzero(sol.matrix > 0), np.flatnonzero(oracle_mat > 0))


@given(st.sampled_from(ORACLE_SHAPES), st.data())
@settings(max_examples=40, deadline=None)
def test_certified_max_matches_oracle_degenerate(shape, data):
    # uniform and small-integer masses tie many vertices; rounding dust of
    # about 1e-17 may then pick another support of the same objective
    n, m = shape
    masses = st.integers(1, 3) if data.draw(st.booleans()) else st.just(1)
    p = np.array(data.draw(st.lists(masses, min_size=n, max_size=n)), float)
    s = np.array(data.draw(st.lists(masses, min_size=m, max_size=m)), float)
    marg = hs.Marginals(p / p.sum(), s / s.sum())
    sol = hs.max_micro(marg)
    _, oracle_obj = oracle_max(marg.p, marg.s)
    assert sol.certified
    assert abs(sol.objective - oracle_obj) <= 1e-15
    assert hs.is_feasible(sol.matrix, marg)
    assert nx.is_forest(support_graph(sol.matrix))


def test_certified_max_memory_is_chunked():
    import tracemalloc

    marg = lognormal_marginals(2, 4, 6)
    assert hs.vertex_count(4, 6) == 221_184
    tracemalloc.start()
    try:
        sol = hs.max_micro(marg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.certified
    assert peak < 2_000_000


def oracle_cycle(forest, a, b):
    """Gain ingredients of the cycle closed by the nonbasic edge (a, b).

    The cycle walk as a function of its own, priced one cell at a time
    with a signed multiplier. Returns (theta, signed_sum, length): theta
    is the flow that drives the first shrinking cell to zero, signed_sum
    the alternating sum of cell values around the path and length the
    number of path cells; None when a and b lie in different components.
    """
    if forest.component[a] != forest.component[b]:
        return None
    depth, parent, value = forest.depth, forest.parent, forest.parent_value
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


def oracle_hill_climb(mat):
    """The local search with ``oracle_cycle`` and a flat ``divmod`` scan.

    Visits cells in circular row-major order and takes the first
    improving pivot, as `_hill_climb` does. Returns the local maximum and
    its objective.
    """
    from holdscan.transport import _PIVOT_GAIN_TOL, _Forest

    n, m = mat.shape
    forest = _Forest(mat)
    total = n * m
    cursor = 0
    quiet = 0
    while quiet < total:
        i, j = divmod(cursor, m)
        cursor = (cursor + 1) % total
        quiet += 1
        if n + j in forest.adjacency[i]:
            continue
        ingredients = oracle_cycle(forest, i, n + j)
        if ingredients is None:
            continue
        theta, signed, length = ingredients
        gain = theta * theta * (1.0 + length) + 2.0 * theta * signed
        if gain <= _PIVOT_GAIN_TOL or theta <= 0.0:
            continue
        forest.pivot(i, n + j, theta)
        quiet = 0
    mat = forest.matrix(n, m)
    return mat, float(np.sum(mat * mat))


@given(
    st.integers(1, 25),
    st.integers(1, 20),
    st.sampled_from(["lognormal", "power-law", "tied"]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_hill_climb_matches_oracle_walk(n, m, kind, data):
    # 1-3 integer masses tie cell values, so one pivot can cut several cells
    from holdscan.transport import _hill_climb

    _, start = drawn_staircase(data, n, m, kind)
    mat, objective = _hill_climb(start)
    expect, expect_objective = oracle_hill_climb(start)
    assert np.array_equal(np.flatnonzero(mat), np.flatnonzero(expect))
    assert objective == expect_objective


@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.sampled_from(["lognormal", "power-law", "tied"]),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_northwest_vertex_is_a_forest_supported_vertex(n, m, kind, data):
    # the staircase meets both marginals, holds at most n + m - 1 cells and
    # its support is a forest; 1-3 integer masses close rows and columns at once
    from holdscan.transport import TOL_FEAS

    marg, mat = drawn_staircase(data, n, m, kind)
    assert mat.shape == (n, m)
    assert np.all(mat >= 0.0)
    assert np.max(np.abs(mat.sum(axis=1) - marg.p)) <= TOL_FEAS
    assert np.max(np.abs(mat.sum(axis=0) - marg.s)) <= TOL_FEAS
    assert np.count_nonzero(mat) <= n + m - 1
    assert nx.is_forest(support_graph(mat))


def test_hill_climb_gain_rounds_as_oracle_cycle_sums(monkeypatch):
    # the scan prices each cycle at exactly oracle_cycle's gain, bit for bit.
    # Take each candidate of the first pass whose gain beats every candidate
    # before it in scan order: with the pivot threshold one ulp below that
    # gain the candidate is the first pivot, and at the gain itself the next
    # such candidate is, or none. So another order of adding up a cycle's
    # cells, which rounds some gain otherwise, moves a pivot here. The first
    # candidate of the scan alone would not do: it lies in row 0, the root
    # of its tree, so its cycle never takes the two-end walk.
    import holdscan.transport as transport
    from holdscan.transport import _Forest, _hill_climb, _northwest_vertex

    class Pivoted(Exception):
        pass

    def first_pivot(forest, a, b, theta):
        raise Pivoted(a, b)

    monkeypatch.setattr(_Forest, "pivot", first_pivot)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, m = (int(k) for k in rng.integers(3, 13, 2))
        marg = lognormal_marginals(seed, n, m)
        start = _northwest_vertex(
            marg.p, marg.s, rng.permutation(n).tolist(), rng.permutation(m).tolist()
        )
        forest = _Forest(start)
        records = []  # (candidate, gain), each gain above all before it in scan order
        for i in range(n):
            for j in range(n, n + m):
                if j not in forest.adjacency[i] and forest.component[i] == forest.component[j]:
                    theta, signed, length = oracle_cycle(forest, i, j)
                    gain = theta * theta * (1.0 + length) + 2.0 * theta * signed
                    if not records or gain > records[-1][1]:
                        records.append(((i, j), gain))
        for k, (candidate, gain) in enumerate(records):
            after = records[k + 1][0] if k + 1 < len(records) else None
            for tol, expected in ((np.nextafter(gain, -np.inf), candidate), (gain, after)):
                monkeypatch.setattr(transport, "_PIVOT_GAIN_TOL", tol)
                try:
                    _hill_climb(start)
                    first = None
                except Pivoted as exc:
                    first = exc.args
                assert first == expected, (seed, tol)


def oracle_cuts(forest, a, b, theta):
    """How many cells pushing ``theta`` around (a, b) cuts on a's and on b's side."""
    depth, parent, value = forest.depth, forest.parent, forest.parent_value
    top_a, top_b = a, b
    while top_a != top_b:
        if depth[top_a] >= depth[top_b]:
            top_a = parent[top_a]
        else:
            top_b = parent[top_b]
    cuts = []
    for end in (a, b):
        count, shrink = 0, True
        while end != top_a:
            count += shrink and value[end] == theta
            shrink = not shrink
            end = parent[end]
        cuts.append(count)
    return tuple(cuts)


def test_forest_pivot_matches_rebuild():
    # degenerate pivots (several cells reach zero at once) split the forest;
    # updating it in place must agree with rebuilding it from scratch, for
    # cuts on either side of the cycle, on both, and several on one side
    from holdscan.transport import _Forest, _support_is_forest

    rng = np.random.default_rng(17)
    cut_counts = set()
    kinds = set()
    deepest_shift = 0
    for _ in range(300):
        n, m = int(rng.integers(2, 16)), int(rng.integers(2, 16))
        mat = np.zeros((n, m))
        for cell in rng.permutation(n * m)[: n + m - 1]:
            grown = mat.copy()
            grown.flat[cell] = float(rng.integers(1, 3))  # small values make ties
            if _support_is_forest(grown):
                mat = grown
        forest = _Forest(mat)
        for _ in range(5):
            closing = [
                (int(i), n + int(j))
                for i, j in zip(*np.nonzero(mat == 0))
                if forest.component[int(i)] == forest.component[n + int(j)]
            ]
            if not closing:
                break
            a, b = closing[int(rng.integers(len(closing)))]
            theta = oracle_cycle(forest, a, b)[0]
            cut_a, cut_b = oracle_cuts(forest, a, b, theta)
            several = "+" if max(cut_a, cut_b) > 1 else ""
            kinds.add(("a" if cut_a else "") + ("b" if cut_b else "") + several)
            support = np.count_nonzero(mat)
            before = list(forest.depth)
            forest.pivot(a, b, theta)
            mat = forest.matrix(n, m)
            cut_counts.add(support + 1 - np.count_nonzero(mat))
            assert cut_a + cut_b == support + 1 - np.count_nonzero(mat)
            if not (cut_a and cut_b):
                shifts = (abs(x - y) for x, y in zip(forest.depth, before))
                deepest_shift = max(deepest_shift, *shifts)
            fresh = _Forest(mat)
            for name in ("parent", "parent_value", "depth", "component"):
                assert getattr(forest, name) == getattr(fresh, name)
    assert {1, 2, 3} <= cut_counts
    assert {"a", "b", "ab", "a+", "b+"} <= kinds
    assert deepest_shift >= 6


def oracle_threshold(targets, duals):
    """Solve sum_j max(0, (x + duals[j]) / 2) = t for each positive target.

    With the duals in descending order, x is the value (2t - top-k sum) / k
    for the largest k whose k-th dual still gives a positive cell, the
    rule of Euclidean projection onto the simplex.
    """
    order = np.sort(duals)[::-1]
    x = (2.0 * targets[:, None] - np.cumsum(order)) / np.arange(1, order.size + 1)
    k = order.size - np.argmax((x + order > 0)[:, ::-1], axis=1)
    return x[np.arange(targets.size), k - 1]


def oracle_min(p, s):
    """The dense minimizer: block sweeps, then exact ``lstsq`` finishes.

    Builds the n x m residual grid every sweep and solves the (n+m)^2
    support system densely. Returns the full matrix and its objective.
    """
    from holdscan.transport import TOL_KKT

    rows, cols = np.flatnonzero(p > 0), np.flatnonzero(s > 0)
    pa, sa = p[rows], s[cols]
    n, m = pa.size, sa.size

    def finish(support):
        k, c = support.sum(axis=1), support.sum(axis=0)
        if np.any(k == 0) or np.any(c == 0):
            return None
        system = np.block([[np.diag(k), support], [support.T, np.diag(c)]]).astype(float)
        sol, *_ = np.linalg.lstsq(system, np.concatenate([2 * pa, 2 * sa]), rcond=None)
        grid = (sol[:n, None] + sol[None, n:]) / 2.0
        if np.any(grid[support] < -1e-12) or np.any(grid[~support] > 1e-12):
            return None
        cells = np.maximum(0.0, grid)
        if max(np.max(np.abs(cells.sum(axis=1) - pa)), np.max(np.abs(cells.sum(axis=0) - sa))) > TOL_KKT:
            return None
        return cells

    mu = 2.0 * sa / n - 1.0 / (n * m)
    tried = None
    for _ in range(100 * (n + m)):
        lam = oracle_threshold(pa, mu)
        mu = oracle_threshold(sa, lam)
        cells = np.maximum(0.0, (lam[:, None] + mu[None, :]) / 2.0)
        res = max(np.max(np.abs(cells.sum(axis=1) - pa)), np.max(np.abs(cells.sum(axis=0) - sa)))
        if res <= TOL_KKT:
            break
        if res <= 1e-3 and (tried is None or not np.array_equal(cells > 0, tried)):
            tried = cells > 0
            finished = finish(tried)
            if finished is not None:
                cells = finished
                break
    else:
        raise AssertionError("oracle did not converge")
    full = np.zeros((p.size, s.size))
    full[np.ix_(rows, cols)] = cells
    return full, float(np.sum(full * full))


def drawn_staircase(data, n, m, kind):
    """Drawn marginals of ``kind`` and their northwest vertex along drawn orders."""
    from holdscan.transport import _northwest_vertex

    if kind == "power-law":
        marg = power_law_marginals(data.draw(st.integers(0, 2**32 - 1)), n, m)
    else:
        p, s = drawn_masses(data, n, kind), drawn_masses(data, m, kind)
        marg = hs.Marginals(p / p.sum(), s / s.sum())
    rows = data.draw(st.permutations(range(n)))
    cols = data.draw(st.permutations(range(m)))
    return marg, _northwest_vertex(marg.p, marg.s, rows, cols)


def drawn_masses(data, size, kind):
    if kind == "uniform":
        return np.ones(size)
    if kind == "lognormal":
        return np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).lognormal(size=size)
    values = data.draw(st.lists(st.integers(0, 3) if kind == "zeros" else st.integers(1, 3),
                                min_size=size, max_size=size))
    values[data.draw(st.integers(0, size - 1))] += 1  # keep at least one active label
    return np.array(values, float)


@given(
    st.integers(1, 60),
    st.integers(1, 60),
    st.sampled_from(["uniform", "lognormal", "tied", "zeros"]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_min_micro_matches_dense_oracle(n, m, kind, data):
    p, s = drawn_masses(data, n, kind), drawn_masses(data, m, kind)
    marg = hs.Marginals(p / p.sum(), s / s.sum())
    sol = hs.min_micro(marg)
    expect, objective = oracle_min(marg.p, marg.s)
    nptest.assert_allclose(sol.matrix, expect, rtol=0, atol=1e-9)
    assert abs(sol.objective - objective) <= 1e-12 * objective
    lam, mu = sol.multipliers
    nptest.assert_array_equal(sol.matrix, np.maximum(0.0, (lam[:, None] + mu[None, :]) / 2.0))


def test_min_micro_solver_memory_is_matrix_free():
    import tracemalloc

    from holdscan.transport import _dual_newton_min

    marg = power_law_marginals(7, 300, 200)
    tracemalloc.start()
    try:
        _dual_newton_min(marg.p, marg.s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 200 * 8 / 4


@pytest.mark.parametrize("seed", [0, 3])
def test_min_micro_residual_at_rounding_level(seed):
    marg = power_law_marginals(seed, 1000, 750)
    mat = hs.min_micro(marg).matrix
    residual = max(np.max(np.abs(mat.sum(axis=1) - marg.p)),
                   np.max(np.abs(mat.sum(axis=0) - marg.s)))
    floor = (marg.n + marg.m) * np.finfo(float).eps * max(marg.p.max(), marg.s.max())
    assert residual <= 4 * floor


def test_min_micro_newton_operator_builds(monkeypatch):
    from holdscan import transport

    builds = []
    build = transport._support_operator
    monkeypatch.setattr(
        transport, "_support_operator", lambda duals, n: builds.append(n) or build(duals, n)
    )
    hs.min_micro(power_law_marginals(0, 1000, 750))
    assert len(builds) <= 15  # a linearly convergent solver needs about 50


def test_min_micro_heavy_tails():
    # masses spread over about six decades leave tiny labels with no cell
    # for many steps
    rng = np.random.default_rng(21)
    for _ in range(100):
        n, m = (int(x) for x in rng.integers(2, 60, 2))
        p, s = rng.lognormal(sigma=3.0, size=n), rng.lognormal(sigma=3.0, size=m)
        marg = hs.Marginals(p / p.sum(), s / s.sum())
        expect, objective = oracle_min(marg.p, marg.s)
        sol = hs.min_micro(marg)
        # the oracle stops at marginal residuals of TOL_KKT, so it is good to about 1e-9
        nptest.assert_allclose(sol.matrix, expect, rtol=0, atol=1e-9)
        assert abs(sol.objective - objective) <= 1e-9 * objective


def test_min_micro_raises_when_newton_stalls(monkeypatch):
    from holdscan import transport

    monkeypatch.setattr(transport, "_conjugate_gradients", lambda apply, rhs, floor: 0.0 * rhs)
    marg = hs.Marginals(np.array([0.9, 0.1]), np.array([0.9, 0.1]))
    with pytest.raises(ConvergenceFailure, match="above 1e-10"):
        hs.min_micro(marg)


@pytest.mark.parametrize("certified", [True, False])
def test_max_micro_rejects_negative_seed(golden, certified):
    from holdscan.transport import MAX_ENUMERATION

    marg = hs.marginals(golden) if certified else power_law_marginals(0, 12, 10)
    assert (hs.vertex_count(marg.n, marg.m) <= MAX_ENUMERATION) == certified
    with pytest.raises(OutOfRange):
        hs.max_micro(marg, seed=-1)


@pytest.mark.parametrize("certified", [True, False])
@pytest.mark.parametrize("search", [{"seed": 1.5}, {"budget": 2.5}, {"seed": "1"}, {"budget": None}])
def test_max_micro_rejects_non_integer_search_arguments(golden, certified, search):
    from holdscan.transport import MAX_ENUMERATION

    marg = hs.marginals(golden) if certified else power_law_marginals(0, 12, 10)
    assert (hs.vertex_count(marg.n, marg.m) <= MAX_ENUMERATION) == certified
    with pytest.raises(OutOfRange, match=f"^{next(iter(search))} must be an integer, got "):
        hs.max_micro(marg, **search)


@pytest.mark.parametrize("certified", [True, False])
def test_max_micro_takes_numpy_integer_search_arguments(golden, certified):
    marg = hs.marginals(golden) if certified else power_law_marginals(0, 12, 10)
    got = hs.max_micro(marg, np.int64(3), seed=np.uint8(5))
    expect = hs.max_micro(marg, 3, seed=5)
    assert got.certified == certified
    assert got.objective == expect.objective
    assert np.array_equal(got.matrix, expect.matrix)
