"""End-to-end acceptance suite.

One test per criterion, each at its pinned tolerance, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them). Oracles here are
independent of the library paths they check: brute-force vertex
enumeration uses networkx plus pseudo-inverse solves, the minimizer
oracle is a Dykstra alternating projection, and Monte Carlo draws come
from a counter-based generator.
"""

import itertools
import json
import time
from contextlib import contextmanager

import networkx as nx
import numpy as np
import pytest

import holdscan as hs
from holdscan import cli

from conftest import GOLDEN_RAW, philox


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def write_golden_csv(tmp_path):
    path = tmp_path / "golden.csv"
    rows = ["investor,stock,amount"]
    for i, row in enumerate(GOLDEN_RAW, start=1):
        for j, amount in enumerate(row, start=1):
            rows.append(f"inv{i},stk{j},{amount:g}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_criterion_01_golden_worked_example(tmp_path):
    with criterion("criterion 01 golden worked example"):
        start = time.perf_counter()
        matrix = cli.ingest(write_golden_csv(tmp_path))
        marg = hs.marginals(matrix)
        assert abs(hs.herfindahl(marg.p) - 0.34) <= 1e-15
        assert abs(hs.herfindahl(marg.s) - 0.50) <= 1e-15
        assert abs(hs.micro_concentration(matrix) - 0.21) <= 1e-15
        assert abs(hs.dependence_index(matrix).index - 0.233333) <= 1e-6
        assert abs(hs.rho(matrix) - 0.4830) <= 5e-4
        low = hs.min_micro(marg)
        high = hs.max_micro(marg)
        assert abs(low.objective - 0.17) <= 1e-6
        assert high.certified
        assert abs(high.objective - 0.30) <= 1e-9
        assert abs(hs.sparsity_score(matrix).psi - 0.3077) <= 1e-3
        assert time.perf_counter() - start < 1.0


def test_criterion_02_two_by_two_closed_forms():
    with criterion("criterion 02 2x2 closed forms"):
        start = time.perf_counter()
        grid = [round(0.01 * k, 2) for k in range(1, 100)]
        for a in grid:
            for b in grid:
                fam = hs.family_2x2(a, b)
                member = hs.transport_matrix_2x2(a, b, fam.x_min_constrained)
                family_min = float(np.sum(member * member))
                marg = hs.Marginals(np.array([a, 1 - a]), np.array([b, 1 - b]))
                assert abs(family_min - hs.min_micro(marg).objective) <= 1e-9
        fam = hs.family_2x2(0.9, 0.9)
        member = hs.transport_matrix_2x2(0.9, 0.9, fam.x_min_constrained)
        assert abs(float(np.sum(member * member)) - 0.66) <= 1e-12
        product = hs.transport_matrix_2x2(0.9, 0.9, 0.81)
        assert abs(float(np.sum(product * product)) - 0.6724) <= 1e-12
        assert time.perf_counter() - start < 10.0


def test_criterion_03_spectral_identity():
    with criterion("criterion 03 spectral identity"):
        start = time.perf_counter()
        rng = philox(3)
        for _ in range(500):
            n = int(rng.integers(1, 31))
            m = int(rng.integers(1, 21))
            matrix = hs.normalize(rng.random((n, m)) + 1e-3)
            res = hs.whiten(matrix)
            x = hs.dependence_index(matrix).index
            tail = float(np.sum(np.square(res.singular_values[1:])))
            assert abs(x - tail) <= 1e-9 * max(1.0, x)
            assert res.rho**2 <= x + 1e-9
            if min(n, m) > 1:
                assert x <= (min(n, m) - 1) * res.rho**2 + 1e-9
        assert time.perf_counter() - start < 30.0


def test_criterion_04_aggregation_law():
    with criterion("criterion 04 aggregation law"):
        rng = philox(4)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(2, 8))
            matrix = hs.normalize(rng.random((n, m)) + 1e-3)
            order = rng.permutation(n)
            cuts = sorted(
                set(rng.integers(1, n, size=int(rng.integers(0, n))).tolist())
            )
            bounds = [0] + cuts + [n]
            groups = tuple(
                tuple(int(i) for i in order[lo:hi])
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            )
            split = hs.aggregate(matrix, hs.Partition(groups))
            x = hs.dependence_index(matrix).index
            assert split.within >= 0.0
            assert abs(split.between + split.within - x) <= 1e-10
            merged_x = hs.dependence_index(split.merged).index
            assert abs(merged_x - split.between) <= 1e-10


def _numpy_headline(entries):
    """Index recomputation with plain numpy, independent of the library."""
    p = entries.sum(axis=1)
    s = entries.sum(axis=0)
    bench = np.outer(p, s)
    return (
        float(p @ p),
        float(s @ s),
        float(np.sum(entries * entries)),
        float(np.sum((entries - bench) ** 2 / bench)),
    )


def test_criterion_05_comparative_static_laws():
    with criterion("criterion 05 comparative statics"):
        rng = philox(5)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 8))
            entries = rng.random((n, m)) + 1e-3
            entries /= entries.sum()
            matrix = hs.OwnershipMatrix(entries)
            p = entries.sum(axis=1)
            s = entries.sum(axis=0)
            h_inv, h_stk, micro, x = _numpy_headline(entries)

            a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
            merged = hs.merge_investors(matrix, a, b)
            ha, hsks, ma, xa = _numpy_headline(merged.matrix_after.entries)
            qa, qb = entries[a] / p[a], entries[b] / p[b]
            closed_drop = (
                p[a] * p[b] / (p[a] + p[b]) * float(np.sum((qa - qb) ** 2 / s))
            )
            assert abs(ha - (h_inv + 2 * p[a] * p[b])) <= 1e-9
            assert abs(hsks - h_stk) <= 1e-9
            assert abs(ma - (micro + 2 * float(entries[a] @ entries[b]))) <= 1e-9
            assert abs(xa - (x - closed_drop)) <= 1e-9

            j0 = int(rng.integers(0, m))
            removed = hs.remove_stock(matrix, j0)
            weight = 1.0 - float(s[j0])
            _, _, m_removed, _ = _numpy_headline(removed.matrix_after.entries)
            closed = (micro - float(entries[:, j0] @ entries[:, j0])) / weight**2
            assert abs(m_removed - closed) <= 1e-9

            lam = float(rng.uniform(0.05, 0.95))
            diluted = hs.dilute(matrix, lam)
            hd, hsd, md, xd = _numpy_headline(diluted.matrix_after.entries)
            assert abs(hd - ((1 - lam) ** 2 * h_inv + lam**2)) <= 1e-9
            assert abs(hsd - h_stk) <= 1e-9
            assert abs(md - ((1 - lam) ** 2 * micro + lam**2 * h_stk)) <= 1e-9
            assert abs(xd - (1 - lam) * x) <= 1e-9

            # first-order expansion when a vanishing stock is removed
            eps = 1e-4
            padded = np.hstack([entries * (1 - eps), eps * p[:, None]])
            small = hs.OwnershipMatrix(padded)
            micro_padded = hs.micro_concentration(small)
            after = hs.remove_stock(small, m)
            assert abs(after.after.micro - micro_padded * (1 + 2 * eps)) <= 1e-6


def _simplex_grid(size):
    """Coarse positive marginal grid for one side."""
    denominator = 4 if size <= 4 else size
    if denominator < size:
        return []
    points = []
    for cuts in itertools.combinations(range(1, denominator), size - 1):
        bounds = (0,) + cuts + (denominator,)
        parts = [bounds[k + 1] - bounds[k] for k in range(size)]
        points.append(np.array(parts, dtype=float) / denominator)
    return points


def _brute_force_vertex_max(p, s, trees):
    nv = p.size + s.size
    rhs = np.concatenate([p, s])
    best = -1.0
    for _, pinv, incidence in trees:
        vals = pinv @ rhs
        if np.min(vals) < -1e-9:
            continue
        if np.max(np.abs(incidence @ vals - rhs)) > 1e-9:
            continue
        best = max(best, float(np.sum(np.maximum(vals, 0.0) ** 2)))
    return best


def _spanning_tree_systems(n, m):
    cells = [(i, j) for i in range(n) for j in range(m)]
    nv = n + m
    systems = []
    for subset in itertools.combinations(range(len(cells)), nv - 1):
        graph = nx.Graph()
        graph.add_nodes_from(range(nv))
        graph.add_edges_from((cells[k][0], n + cells[k][1]) for k in subset)
        if graph.number_of_edges() != nv - 1 or not nx.is_connected(graph):
            continue
        incidence = np.zeros((nv, nv - 1))
        for col, k in enumerate(subset):
            i, j = cells[k]
            incidence[i, col] = 1.0
            incidence[n + j, col] = 1.0
        systems.append((subset, np.linalg.pinv(incidence), incidence))
    return systems


def _dykstra_projection_min(p, s, iters=20000, tol=1e-12):
    n, m = p.size, s.size
    x = np.zeros((n, m))
    correction = np.zeros((n, m))
    previous = None
    for _ in range(iters):
        row_gap = x.sum(axis=1) - p
        col_gap = x.sum(axis=0) - s
        excess = float(x.sum()) - 1.0
        x = x - (row_gap / m)[:, None] - ((col_gap - excess / m) / n)[None, :]
        shifted = x + correction
        clipped = np.maximum(shifted, 0.0)
        correction = shifted - clipped
        if previous is not None and np.max(np.abs(clipped - previous)) < tol:
            x = clipped
            break
        previous = clipped
        x = clipped
    return float(np.sum(x * x))


def test_criterion_06_transport_oracles():
    with criterion("criterion 06 transport oracles"):
        shapes = [
            (n, m)
            for n in range(1, 7)
            for m in range(1, 7)
            if n + m <= 7
        ]
        for n, m in shapes:
            trees = _spanning_tree_systems(n, m)
            for p in _simplex_grid(n):
                for s in _simplex_grid(m):
                    marg = hs.Marginals(p, s)
                    sol = hs.max_micro(marg)
                    assert sol.certified
                    oracle = _brute_force_vertex_max(p, s, trees)
                    assert abs(sol.objective - oracle) <= 1e-12
                    dykstra = _dykstra_projection_min(p, s)
                    assert abs(hs.min_micro(marg).objective - dykstra) <= 1e-6


def test_criterion_07_transmission_bounds():
    with criterion("criterion 07 transmission bounds"):
        rng = philox(7)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 9))
            matrix = hs.normalize(rng.random((n, m)) + 1e-3)
            shock = rng.standard_normal(n) * 2
            result = hs.fire_sale(matrix, shock)
            assert abs(result.severity - (result.parallel_term + result.perp_term)) <= 1e-9

        # sharpness: the top residual pair attains the squared dominant mode
        for seed in (70, 71, 72):
            local = philox(seed)
            matrix = hs.normalize(local.random((6, 5)) + 1e-2)
            marg = hs.marginals(matrix)
            res = hs.whiten(matrix)
            left, _, _ = np.linalg.svd(res.residual)
            shock = left[:, 0] / np.sqrt(marg.p)
            result = hs.fire_sale(matrix, shock)
            assert abs(float(marg.p @ shock**2) - 1.0) <= 1e-9
            assert abs(result.severity - res.rho**2) <= 1e-6

        # isotropic capacity against the Monte Carlo mean on fixed seeds
        matrix = hs.normalize(philox(700).random((6, 4)) + 1e-2)
        marg = hs.marginals(matrix)
        res = hs.whiten(matrix)
        sigma = 2.0
        target = hs.isotropic_capacity(matrix, sigma)
        draws = 100_000
        v = np.sqrt(marg.s)
        for seed in (701, 702, 703):
            sample = philox(seed).standard_normal((draws, matrix.m)) * sigma
            centered = sample - np.outer(sample @ v, v)
            realized = np.sum((centered @ res.residual.T) ** 2, axis=1)
            stderr = realized.std(ddof=1) / np.sqrt(draws)
            assert abs(realized.mean() - target) <= 3 * stderr


def test_criterion_08_non_identification():
    with criterion("criterion 08 non-identification"):
        for t in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            matrix, micro_formula, dep_formula = hs.nonid_family(t)
            marg = hs.marginals(matrix)
            assert abs(hs.herfindahl(marg.p) - 0.5) <= 1e-12
            assert abs(hs.herfindahl(marg.s) - 0.5) <= 1e-12
            assert abs(hs.micro_concentration(matrix) - micro_formula) <= 1e-12
            assert abs(hs.dependence_index(matrix).index - dep_formula) <= 1e-12
            assert abs(micro_formula - (0.25 + 4 * (t - 0.25) ** 2)) <= 1e-12
            assert abs(dep_formula - 16 * (t - 0.25) ** 2) <= 1e-12


def test_criterion_09_extension_laws():
    with criterion("criterion 09 extension laws"):
        rng = philox(9)
        for alpha in (0.5, 2.0, 3.0):
            for _ in range(30):
                n = int(rng.integers(1, 9))
                m = int(rng.integers(1, 9))
                p = rng.random(n) + 0.05
                p /= p.sum()
                s = rng.random(m) + 0.05
                s /= s.sum()
                summary = hs.renyi_summary(hs.OwnershipMatrix(np.outer(p, s)), alpha)
                product = summary.investor_power_sum * summary.stock_power_sum
                assert abs(summary.micro_power_sum - product) <= 1e-10 * abs(product)

        plus = np.array([[0.4, 0.0], [0.0, 0.4]])
        minus = np.array([[0.0, 0.1], [0.1, 0.0]])
        book = hs.signed_from_raw(plus, minus)
        net = book.net
        bench = np.outer(book.net_investor_marginals, book.net_stock_marginals)
        bench /= book.net_exposure
        weights = np.outer(book.gross_investor_marginals, book.gross_stock_marginals)
        sum_form = float(np.sum((net - bench) ** 2 / weights))
        frob_form = float(np.sum(((net - bench) / np.sqrt(weights)) ** 2))
        assert abs(sum_form - frob_form) <= 1e-10
        assert abs(hs.signed_dependence(book) - sum_form) <= 1e-10
        for scale in (7.3, 1e-4):
            rescaled = hs.signed_from_raw(scale * plus, scale * minus)
            assert abs(hs.signed_dependence(rescaled) - sum_form) <= 1e-10


def test_criterion_10_cli_determinism(tmp_path, capsys, reads_afresh):
    with criterion("criterion 10 CLI determinism"):
        path = write_golden_csv(tmp_path)
        argv = [
            "dashboard",
            str(path),
            "--format",
            "json",
            "--seed",
            "0",
            "--max-budget",
            "64",
        ]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first.encode("utf-8") == second.encode("utf-8")
        payload = json.loads(first)
        assert payload["dashboard"]["H_I"] == 0.34
        assert payload["dashboard"]["Psi"] == 0.307692
