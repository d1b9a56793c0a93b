import numpy as np
import numpy.testing as nptest
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holdscan as hs
from holdscan.errors import (
    DegenerateRange,
    DimensionMismatch,
    NotFeasible,
    OutOfRange,
)



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


def test_min_micro_unique_across_starts():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        p = rng.random(n) + 0.05
        p /= p.sum()
        s = rng.random(m) + 0.05
        s /= s.sum()
        marg = hs.Marginals(p, s)
        first = hs.min_micro(marg)
        second = hs.min_micro(marg, init_mu=rng.standard_normal(m) * 2)
        assert np.max(np.abs(first.matrix - second.matrix)) <= 1e-7


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


def test_forest_pivot_matches_rebuild():
    # degenerate pivots (several cells reach zero at once) split the forest;
    # updating it in place must agree with rebuilding it from scratch
    from holdscan.transport import _Forest, _support_is_forest

    rng = np.random.default_rng(17)
    cut_counts = set()
    for _ in range(300):
        n, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
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
                if forest.cycle(int(i), n + int(j)) is not None
            ]
            if not closing:
                break
            a, b = closing[int(rng.integers(len(closing)))]
            support = np.count_nonzero(mat)
            forest.pivot(a, b, forest.cycle(a, b)[0])
            mat = forest.matrix(n, m)
            cut_counts.add(support + 1 - np.count_nonzero(mat))
            fresh = _Forest(mat)
            for name in ("parent", "parent_value", "depth", "component"):
                assert getattr(forest, name) == getattr(fresh, name)
    assert {1, 2, 3} <= cut_counts
