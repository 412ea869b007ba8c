import itertools
import sys
import threading

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from cusplab import analysis, geometry, modes, pool, radial, spectrum
from cusplab.bessel import h_pair
from cusplab.errors import (
    ConfigError,
    MetricDegenerateError,
    NonContractionError,
)
from cusplab.fields import Field
from cusplab.grid import RadialGrid
from cusplab.model import CuspModel


def square_model():
    return CuspModel(2, np.eye(2), np.array([[1.0]]))


def n3_model():
    """The n = 3 model of the picard_n3 benchmark workload."""
    return CuspModel(3, np.eye(4), np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.8]]))


def _up_reference(y, h, d):
    """Q_i = int_{s_0}^{s_i} y(s) exp(sigma(s) - sigma_i) ds by the forward
    scan: the interval rule on the mirrored grid weights each interval from
    its last node, and Q_0 = 0."""
    seg = np.zeros(len(y), dtype=y.dtype)
    seg[:0:-1] = radial.interval_integrals(h, y[::-1], np.exp(-d))
    return modes.exp_weighted_cumsum(seg, d)


class TestScans:
    def test_against_brute_force(self):
        rng = np.random.default_rng(0)
        d = 40.0 / 256
        sigma = d * np.arange(257)
        q = rng.normal(size=257) + 1j * rng.normal(size=257)
        R = modes.exp_weighted_revcumsum(q, d)
        F = modes.exp_weighted_cumsum(q, d)
        Rb = np.array([np.sum(q[i:] * np.exp(sigma[i] - sigma[i:])) for i in range(257)])
        Fb = np.array([np.sum(q[: i + 1] * np.exp(sigma[: i + 1] - sigma[i])) for i in range(257)])
        assert np.max(np.abs(R - Rb)) / np.max(np.abs(Rb)) < 1e-13
        assert np.max(np.abs(F - Fb)) / np.max(np.abs(Fb)) < 1e-13

    def test_huge_exponent_spans_stay_finite(self):
        d = 5000.0 / 4095  # the exponent spans 5000 over 4096 nodes
        q = np.ones(4096)
        R = modes.exp_weighted_revcumsum(q, d)
        F = modes.exp_weighted_cumsum(q, d)
        assert np.all(np.isfinite(R)) and np.all(np.isfinite(F))
        # each reduces to a local geometric sum of the step decay
        geo = 1.0 / (1.0 - np.exp(-d))
        assert F[-1] == pytest.approx(geo, rel=1e-12)

    @pytest.mark.parametrize("tail", [1e-3, 1e-20])
    def test_tail_mass_survives_at_deepest_node(self, tail):
        s = np.linspace(1.0, 5.0, 200)
        h = s[1] - s[0]
        P = modes._cumulative_down(np.sin(s), h, 3.0 * h, tail)
        assert P[-1] == tail

    def test_cumulative_rules_fourth_order(self):
        import mpmath as mp

        rate = 3.0
        errs_p, errs_q = [], []
        for nn in (200, 400):
            s = np.linspace(1.0, 5.0, nn)
            h = s[1] - s[0]
            y = np.cos(s)
            P = modes._cumulative_down(y, h, rate * h, 0.0)
            Q = _up_reference(y, h, rate * h)
            i = nn // 3
            pe = float(mp.quad(lambda u: mp.cos(u) * mp.e ** (rate * (s[i] - u)), [s[i], s[-1]]))
            qe = float(mp.quad(lambda u: mp.cos(u) * mp.e ** (rate * (u - s[i])), [s[0], s[i]]))
            errs_p.append(abs(P[i] - pe))
            errs_q.append(abs(Q[i] - qe))
        assert np.log2(errs_p[0] / errs_p[1]) > 3.3
        assert np.log2(errs_q[0] / errs_q[1]) > 3.3

    def test_cumulative_integrals_match_long_double_recurrence(self):
        # A4's grid at its largest eigenvalue: the exponent spans 334 over
        # 120 000 nodes.  The reference sums the same interval rule by the recurrence
        # R_i = q_i + rho R_{i+1} in long double, with rho from the exponent's endpoints.
        grid = RadialGrid.make(0.1, 20.0, 120_000)
        sigma = h_pair(2, 10 * np.pi**2, grid.x).exponent
        y = np.random.default_rng(11).normal(size=len(grid))
        d = modes._solve_plan(2, 10 * np.pi**2, grid).d
        P = modes._cumulative_down(y, grid.h, d, 0.0)
        Q = _up_reference(y, grid.h, d)

        L = np.longdouble
        nn = len(y)
        rho = np.exp(-(L(sigma[-1]) - L(sigma[0])) / L(nn - 1))
        hl = L(grid.h)

        def segments(yl):  # interval k weighted from its first node
            seg = np.empty(nn - 1, dtype=L)
            seg[1:-1] = hl / 24 * (-yl[:-3] / rho + 13 * yl[1:-2] + 13 * rho * yl[2:-1] - rho**2 * yl[3:])
            seg[0] = hl / 24 * (9 * yl[0] + 19 * rho * yl[1] - 5 * rho**2 * yl[2] + rho**3 * yl[3])
            seg[-1] = hl / 24 * (yl[-4] / rho**2 - 5 * yl[-3] / rho + 19 * yl[-2] + 9 * rho * yl[-1])
            return seg

        def scan(seg):
            out = np.zeros(nn, dtype=L)
            acc = L(0)
            for i, q in enumerate(seg):
                acc = q + rho * acc
                out[i + 1] = acc
            return out

        yl = y.astype(L)
        P_ref = scan(segments(yl)[::-1])[::-1]  # P_{nn-1} = 0: no tail mass
        Q_ref = scan(segments(yl[::-1])[::-1])  # mirrored interval k weighted from its last node
        assert np.max(np.abs(P - P_ref)) < 3e-14 * np.max(np.abs(P_ref))
        assert np.max(np.abs(Q - Q_ref)) < 3e-14 * np.max(np.abs(Q_ref))

    @pytest.mark.parametrize("scan", [modes.exp_weighted_revcumsum, modes.exp_weighted_cumsum])
    def test_scans_need_a_finite_positive_step(self, scan):
        q = np.ones(400)
        assert np.all(np.isfinite(scan(q, 0.1)))
        for bad in (0.0, -0.1, np.inf, -np.inf, np.nan):
            with pytest.raises(ConfigError, match="step"):
                scan(q, bad)


class TestModeSolve:
    def test_homogeneous_solution(self):
        n, lam = 2, np.pi**2
        grid = RadialGrid.make(0.1, 20.0, 2000)
        prob = modes.ModeProblem(n=n, lam=lam, f=np.zeros(len(grid)), v_x0=1.0, grid=grid)
        v = modes.mode_solve(prob).real
        pair = h_pair(n, lam, grid.x)
        ratio = pair.h2_mantissa / pair.h2_mantissa[0] * np.exp(pair.exponent[0] - pair.exponent)
        assert np.max(np.abs(v - ratio)) < 1e-12
        assert v[0] == pytest.approx(1.0, abs=1e-14)

    def test_boundary_value_exact(self):
        n, lam = 2, 2 * np.pi**2
        grid = RadialGrid.make(0.08, 18.0, 1500)
        f = np.sin(grid.s)
        prob = modes.ModeProblem(n=n, lam=lam, f=f, v_x0=0.37, grid=grid)
        v = modes.mode_solve(prob)
        assert v[0].real == pytest.approx(0.37, abs=1e-12)

    def test_decaying_inhomogeneity_residual(self):
        n, lam = 2, np.pi**2
        grid = RadialGrid.make(0.4, 20.0, 80000)
        f = grid.x**3 * np.exp(-np.sqrt(lam) / np.sqrt(grid.x))
        prob = modes.ModeProblem(n=n, lam=lam, f=f, v_x0=0.0, grid=grid)
        v = modes.mode_solve(prob).real
        res = modes.mode_ode_residual(prob, v)
        it = grid.interior(2)
        assert np.max(np.abs(res[it])) / np.max(np.abs(f)) < 1e-6

    @pytest.mark.parametrize("lam_mult", [1.0, 2.0, 10.0])
    def test_inverse_property_random_bounded(self, lam_mult):
        n = 2
        lam = lam_mult * np.pi**2
        grid = RadialGrid.make(0.1, 20.0, 120000)
        rng = np.random.default_rng(int(10 * lam_mult))
        span = grid.s[-1] - grid.s[0]
        f = sum(
            rng.normal() * np.cos(m * np.pi * (grid.s - grid.s[0]) / span) for m in range(1, 5)
        )
        f = f / np.max(np.abs(f))
        prob = modes.ModeProblem(n=n, lam=lam, f=f, v_x0=0.0, grid=grid)
        v = modes.mode_solve(prob).real
        res = modes.mode_ode_residual(prob, v)
        it = grid.interior(2)
        assert np.max(np.abs(res[it])) < 1e-6

    def test_rejects_zero_eigenvalue_and_bad_f(self):
        grid = RadialGrid.make(0.1, 10.0, 100)
        with pytest.raises(ConfigError):
            modes.ModeProblem(n=2, lam=0.0, f=np.zeros(100), v_x0=0.0, grid=grid)
        with pytest.raises(ConfigError):
            modes.ModeProblem(n=2, lam=1.0, f=np.full(100, np.nan), v_x0=0.0, grid=grid)
        for lam in (np.nan, np.inf):
            with pytest.raises(ConfigError):
                modes.ModeProblem(n=2, lam=lam, f=np.zeros(100), v_x0=0.0, grid=grid)
        for v_x0 in (np.nan, np.inf, complex(0.0, np.inf)):
            with pytest.raises(ConfigError):
                modes.ModeProblem(n=2, lam=1.0, f=np.zeros(100), v_x0=v_x0, grid=grid)

    def test_exponent_step_past_the_interval_rule_refused(self):
        # d = 2 sqrt(lambda) h per node: exp(-3 d) underflows past d of about 236
        grid = RadialGrid.make(0.05, 20.0, 400)
        lam = (236.0 / (2 * grid.h)) ** 2
        v = modes.mode_solve(modes.ModeProblem(n=2, lam=lam, f=np.sin(grid.s), v_x0=1.0, grid=grid))
        assert np.all(np.isfinite(v))
        prob = modes.ModeProblem(n=2, lam=1e8 * np.pi**2, f=np.sin(grid.s), v_x0=1.0, grid=grid)
        with pytest.raises(ConfigError, match=r"lambda = 9.8696e\+08 on grid step h = 0.038917.*d = .* = 2445"):
            modes.mode_solve(prob)

    def test_real_inhomogeneity_solved_in_real_arithmetic(self):
        grid = RadialGrid.make(0.1, 20.0, 3000)
        f = np.sin(3.0 * grid.s) * np.exp(-0.1 * grid.s)
        real = modes.mode_solve(modes.ModeProblem(n=2, lam=2 * np.pi**2, f=f, v_x0=0.4, grid=grid))
        cplx = modes.mode_solve(
            modes.ModeProblem(n=2, lam=2 * np.pi**2, f=f.astype(complex), v_x0=0.4, grid=grid)
        )
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert np.array_equal(real, cplx.real)


def _parent_solve(n, lam, grid, f, v_x0):
    """The mode solve written out from the kernel pair, node arrays rebuilt
    on every call: the formula a solve plan must reproduce."""
    pair = h_pair(n, lam, grid.x)
    x, s, sigma = grid.x, grid.s, pair.exponent
    m1, m2 = pair.h1_mantissa, pair.h2_mantissa
    jac = 2.0 / s**3
    y2 = x ** (n - 1) * m2 * f * jac
    y1 = x ** (n - 1) * m1 * f * jac
    tail = (1.0 / np.sqrt(lam)) * x[-1] ** 1.5 * (x[-1] ** (n - 1) * m2[-1] * f[-1])
    d = (sigma[-1] - sigma[0]) / (len(sigma) - 1)
    P = modes._cumulative_down(y2, grid.h, d, tail)
    Q = _up_reference(y1, grid.h, d)
    coef = v_x0 + 2.0 * m1[0] * P[0]
    hom = (m2 / m2[0]) * np.exp(sigma[0] - sigma)
    return coef * hom - 2.0 * m1 * P - 2.0 * m2 * Q


class TestKernelPairReuse:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Empty plan and weight memos; counts the kernel pairs actually
        computed."""
        modes._solve_plan.cache_clear()
        modes._grid_weight.cache_clear()
        computed = []

        def counting(*args):
            computed.append(args[1])
            return h_pair(*args)

        monkeypatch.setattr(modes, "h_pair", counting)
        yield computed
        modes._solve_plan.cache_clear()
        modes._grid_weight.cache_clear()

    def test_one_pair_per_eigenvalue(self, calls):
        # every square-torus character k != 0 with lambda <= 10 pi^2: 36
        # problems over 7 distinct eigenvalues
        grid = RadialGrid.make(0.1, 20.0, 400)
        rng = np.random.default_rng(1)
        lams = [
            np.pi**2 * (k1 * k1 + k2 * k2)
            for k1 in range(-3, 4)
            for k2 in range(-3, 4)
            if 0 < k1 * k1 + k2 * k2 <= 10
        ]
        assert len(lams) == 36
        for lam in lams:
            modes.mode_solve(modes.ModeProblem(n=2, lam=lam, f=rng.normal(size=400), v_x0=0.0, grid=grid))
        assert len(calls) == 7
        # one grid weight for the grid and n, shared by all seven plans
        plans = [modes._solve_plan(2, lam, grid) for lam in set(lams)]
        assert len({id(p) for p in plans}) == 7 and len(calls) == 7
        assert len({id(p.weight) for p in plans}) == 1
        assert modes._grid_weight.cache_info().currsize == 1

    def test_solve_builds_one_pair_per_eigenvalue(self, calls):
        # a (16, 16) solve at cutoff 25 walks 13 distinct eigenvalues in the
        # same order in every assembly: each plan is built once and held
        grid = RadialGrid.make(0.05, 34.0, 300)
        boundary = {(1, 0): 2.5e-4, (-1, 0): 2.5e-4, (0, 1): 2.5e-4, (0, -1): 2.5e-4}
        _, state = modes.picard_solve(square_model(), boundary, grid, torus_resolution=16, cutoff=25.0)
        assert state.iteration >= 4
        assert len(calls) == len(set(calls)) == 13

    def test_equal_grid_built_apart_hits(self, calls):
        g1 = RadialGrid.make(0.1, 20.0, 400)
        g2 = RadialGrid(np.linspace(g1.s[0], g1.s[-1], 400))
        assert g1 is not g2 and np.array_equal(g1.s, g2.s)
        assert modes._solve_plan(2, np.pi**2, g1) is modes._solve_plan(2, np.pi**2, g2)
        assert len(calls) == 1

    def test_moved_interior_node_misses(self, calls):
        g1 = RadialGrid.make(0.1, 20.0, 400)
        s = g1.s.copy()
        s[200] = np.nextafter(s[200], np.inf)  # within the grid's uniformity tolerance
        g2 = RadialGrid(s)
        assert (len(g2), g2.s[0], g2.s[-1]) == (len(g1), g1.s[0], g1.s[-1])
        p1 = modes._solve_plan(2, np.pi**2, g1)
        p2 = modes._solve_plan(2, np.pi**2, g2)
        assert len(calls) == 2
        assert p2 is not p1 and p2.weight is not p1.weight
        pair = h_pair(2, np.pi**2, g2.x)
        assert np.array_equal(p2.m1, pair.h1_mantissa)
        hom = (pair.h2_mantissa / pair.h2_mantissa[0]) * np.exp(pair.exponent[0] - pair.exponent)
        assert np.array_equal(p2.hom, hom)

    def test_exact_eigenvalue_key(self, calls):
        # lambda keys the plan exactly: one ulp apart is another plan
        grid = RadialGrid.make(0.1, 20.0, 400)
        lam = 2 * np.pi**2
        p1 = modes._solve_plan(2, lam, grid)
        p2 = modes._solve_plan(2, np.nextafter(lam, np.inf), grid)
        assert calls == [lam, np.nextafter(lam, np.inf)]
        assert p2 is not p1 and p2.weight is p1.weight

    def test_cached_arrays_read_only(self, calls):
        plan = modes._solve_plan(2, np.pi**2, RadialGrid.make(0.1, 20.0, 400))
        held = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
        assert len(held) == 4  # m1, m2, weight, hom
        for a in held:
            with pytest.raises(ValueError):
                a[0] = 1.0
        # m1, m2 and hom are the rows of the kernel pair's one block, hom over the exponent row
        block = plan.m1.base
        assert block.shape == (3, 400) and plan.m2.base is block and plan.hom.base is block
        assert [a.ctypes.data for a in (plan.hom, plan.m1, plan.m2)] == [row.ctypes.data for row in block]

    def test_cache_bounded(self, calls):
        grid = RadialGrid.make(0.1, 20.0, 200)
        bound = modes._PLANS_HELD
        assert modes._solve_plan.cache_info().maxsize == bound
        for j in range(1, bound + 4):
            modes._solve_plan(2, j * np.pi**2, grid)
            assert modes._solve_plan.cache_info().currsize <= bound
        # the newest plan is held, the oldest was dropped
        modes._solve_plan(2, (bound + 3) * np.pi**2, grid)
        assert len(calls) == bound + 3
        modes._solve_plan(2, np.pi**2, grid)
        assert len(calls) == bound + 4

    @pytest.mark.parametrize("complex_f", [False, True])
    def test_hit_equals_fresh_plan_and_parent_formula(self, calls, complex_f):
        grid = RadialGrid.make(0.1, 20.0, 3000)
        lam = 5 * np.pi**2
        rng = np.random.default_rng(7)
        f = np.sin(2.0 * grid.s) + rng.normal(size=len(grid))
        if complex_f:
            f = f + 1j * np.cos(grid.s)
        v_x0 = 0.3 - 0.2j if complex_f else 0.3
        modes._solve_plan(2, lam, grid)
        hit = modes.mode_solve(modes.ModeProblem(n=2, lam=lam, f=f, v_x0=v_x0, grid=grid))
        assert len(calls) == 1  # the solve reused the held plan
        fresh = modes._solve_with_plan(modes._solve_plan.__wrapped__(2, lam, grid), f, v_x0)
        assert len(calls) == 2
        assert np.array_equal(hit, fresh)
        assert hit.dtype == (np.complex128 if complex_f else np.float64)
        ref = _parent_solve(2, lam, grid, f, v_x0)
        assert np.max(np.abs(hit - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_real_f_gives_float64_from_plan(self, calls):
        grid = RadialGrid.make(0.1, 20.0, 400)
        plan = modes._solve_plan(2, 2 * np.pi**2, grid)
        v = modes._solve_with_plan(plan, np.cos(grid.s), 0.5)
        assert v.dtype == np.float64


# two node blocks per worker on two CPUs is 2 * 2 * 8192 = 32768 nodes
PARALLEL_NODES = 40_000


def _parallel_problem(lam, complex_f):
    grid = RadialGrid.make(0.1, 20.0, PARALLEL_NODES)
    rng = np.random.default_rng(11)
    f = np.sin(3.0 * grid.s) + 0.1 * rng.normal(size=len(grid))
    if complex_f:
        return modes.ModeProblem(n=2, lam=lam, f=f + 1j * np.cos(grid.s), v_x0=0.3 - 0.2j, grid=grid)
    return modes.ModeProblem(n=2, lam=lam, f=f, v_x0=0.3, grid=grid)


@pytest.mark.parametrize("complex_f", [False, True])
def test_up_integral_is_the_mirrored_down_integral(complex_f):
    # a solve's up integral is `_integral` on the mirrored nodes with no
    # tail; the forward scan gives it bit for bit
    problem = _parallel_problem(5 * np.pi**2, complex_f)
    plan = modes._solve_plan(2, problem.lam, problem.grid)
    f, m1, m2, w = problem.f, plan.m1, plan.m2, plan.weight
    work = modes._work(len(f), plan.d, f.dtype)[0]
    Q, _ = modes._integral(plan, work, f[::-1], w[::-1], m1[::-1], m2[::-1], 0.0)
    ref = _up_reference(f * w * m1, plan.h, plan.d) * m2
    assert Q.dtype == ref.dtype and np.array_equal(Q[::-1], ref)


class TestParallelSolve:
    @pytest.fixture
    def integrals(self, monkeypatch):
        """Records (thread, np.geterr()) of every cumulative integral."""
        seen = []
        integral = modes._integral

        def spy(*args):
            seen.append((threading.get_ident(), np.geterr()))
            return integral(*args)

        monkeypatch.setattr(modes, "_integral", spy)
        return seen

    @pytest.mark.parametrize("complex_f", [False, True])
    def test_down_integral_on_the_pool_equals_serial_solve(self, cpus, integrals, complex_f):
        problem = _parallel_problem(5 * np.pi**2, complex_f)
        cpus(1)
        serial = modes.mode_solve(problem)
        cpus(2)
        parallel = modes.mode_solve(problem)
        assert np.array_equal(serial, parallel)
        assert parallel.dtype == (np.complex128 if complex_f else np.float64)
        caller = threading.get_ident()
        [(down, _), (up, _), *on_pool] = integrals
        assert down == up == caller  # the serial solve
        assert len(on_pool) == 2 and all(thread != caller for thread, _ in on_pool)

    def test_size_rule(self, cpus):
        # two blocks per worker: green_sweep's 120 000 nodes go parallel on
        # two CPUs, picard_a5's 4800 and picard_n3's 600 never do
        cpus(2)
        assert not pool.parallel(4 * 2**13 - 1) and pool.parallel(4 * 2**13)
        assert pool.parallel(120_000) and not pool.parallel(4800)
        cpus(4)
        assert not pool.parallel(8 * 2**13 - 1) and pool.parallel(8 * 2**13)
        cpus(1)
        assert not pool.parallel(10**7)

    def test_workers_see_the_callers_errstate(self, cpus, blocks, integrals):
        cpus(2)
        problem = _parallel_problem(7 * np.pi**2, complex_f=True)
        modes._solve_plan.cache_clear()
        with np.errstate(all="raise"):
            modes.mode_solve(problem)
        raised = dict.fromkeys(("divide", "over", "under", "invalid"), "raise")
        assert len(blocks) == 5 and len(integrals) == 2
        for thread, err in blocks + integrals:
            assert thread != threading.get_ident() and err == raised

    def test_concurrent_solves_on_held_plans(self, cpus):
        # four callers, more than the cores, share the held plans of two
        # eigenvalues; a tiny switch interval interleaves them as finely as
        # the interpreter allows
        problems = [_parallel_problem(lam, complex_f) for lam in (np.pi**2, 2 * np.pi**2) for complex_f in (False, True)]
        cpus(1)
        serial = [modes.mode_solve(p) for p in problems]
        cpus(2)
        results = {}

        def solve_all(caller):
            results[caller] = [modes.mode_solve(p) for p in problems]

        threads = [threading.Thread(target=solve_all, args=(caller,)) for caller in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        for t in threads:
            assert not t.is_alive()
        assert sorted(results) == [0, 1, 2, 3]
        for got in results.values():
            assert all(np.array_equal(a, b) for a, b in zip(got, serial, strict=True))


class TestAssemble:
    def test_pure_boundary_mode(self):
        model = square_model()
        grid = RadialGrid.make(0.1, 18.0, 1200)
        g = Field.zero(grid, (8, 8))
        delta = 1e-3
        out, diag = modes.assemble_representation(
            model, {(1, 0): delta, (-1, 0): delta}, g, spectrum.modes_below(model, 10 * np.pi**2, g.torus_shape)
        )
        pair = h_pair(2, np.pi**2, grid.x)
        ratio = pair.h2_mantissa / pair.h2_mantissa[0] * np.exp(pair.exponent[0] - pair.exponent)
        assert np.max(np.abs(out.mode((1, 0)) - delta * ratio)) < 1e-15
        assert diag["tail_indicator"] == 0.0

    def test_operator_inverse_consistency(self):
        # applying the linearized operator recovers the inhomogeneity
        from cusplab import geometry

        model = square_model()
        grid = RadialGrid.make(0.1, 16.0, 30000)
        prof = (grid.x**2 * np.exp(-2.0 / np.sqrt(grid.x))).astype(complex)
        g = Field.from_modes(grid, {(0, 0): prof, (1, 0): 0.5 * prof, (-1, 0): 0.5 * prof}, (8, 8))
        out, _ = modes.assemble_representation(model, {}, g, spectrum.modes_below(model, 10 * np.pi**2, g.torus_shape))
        lg = geometry.linearized_apply(model, out, order=2)
        it = grid.interior(2)
        scale = np.max(np.abs(prof))
        for k in ((0, 0), (1, 0)):
            got = (model.n + 1) * lg.mode(k)
            assert np.max(np.abs(got[it] - g.mode(k)[it])) / scale < 1e-5

    def test_real_valuedness_preserved(self):
        model = square_model()
        grid = RadialGrid.make(0.1, 14.0, 800)
        prof = (grid.x**2 * np.exp(-1.0 / np.sqrt(grid.x))).astype(complex)
        g = Field.from_modes(grid, {(0, 0): prof, (1, 0): (0.3 + 0.1j) * prof, (-1, 0): (0.3 - 0.1j) * prof}, (8, 8))
        out, _ = modes.assemble_representation(model, {}, g, spectrum.modes_below(model, 5 * np.pi**2, g.torus_shape))
        # on (8, 8) the halved axis is the last: both modes sit on its k_2 = 0
        # plane in slots of their own, and one solve fills both
        assert np.array_equal(out.mode((-1, 0)), out.mode((1, 0)).conj())

    def test_modes_the_torus_grid_cannot_hold(self):
        # on an m = 4 grid the below-cutoff mode (2, 0) would alias onto
        # (-2, 0): it is not enumerated, and boundary data on it is rejected
        model = square_model()
        grid = RadialGrid.make(0.1, 14.0, 300)
        g = Field.zero(grid, (4, 4))
        below = spectrum.modes_below(model, 10 * np.pi**2, g.torus_shape)
        assert np.max(np.abs(below[0])) == 1
        _, diag = modes.assemble_representation(model, {(1, 0): 1e-3, (-1, 0): 1e-3}, g, below)
        assert diag["modes_solved"] == 1  # (1, 0) and its conjugate (-1, 0)
        with pytest.raises(ConfigError):
            modes.assemble_representation(model, {(2, 0): 1e-3, (-2, 0): 1e-3}, g, below)

    def test_truncate_mode_noise(self):
        grid = RadialGrid.make(0.1, 14.0, 100)
        prof = np.exp(-np.arange(100.0)).astype(complex)
        f = Field.from_modes(grid, {(0, 0): prof}, (8, 8))
        cleaned = modes.truncate_mode_noise(f)
        assert cleaned.mode((0, 0))[-1] == 0.0
        assert cleaned.mode((0, 0))[0] == prof[0]


class TestPicard:
    def test_zero_boundary_gives_zero(self):
        model = square_model()
        grid = RadialGrid.make(0.05, 12.0, 400)
        u, state = modes.picard_solve(model, {(0, 0): 0.0}, grid, torus_resolution=8, tol=1e-12)
        assert u.sup_norm() < 1e-13
        assert state.iteration == 1

    def test_constant_boundary_reaches_tangent_cone(self):
        model = square_model()
        grid = RadialGrid.make(0.05, 20.0, 2500)
        c = 0.2
        beta = -3 * np.log1p(c * grid.x0)
        u, state = modes.picard_solve(
            model, {(0, 0): beta}, grid, torus_resolution=8, tol=1e-12, max_iter=40
        )
        exact = -3 * np.log1p(c * grid.x)
        assert np.max(np.abs(u.radial_mean() - exact)) < 1e-7
        c_fit, rms = modes.extract_tangent_cone(u, 2)
        assert c_fit == pytest.approx(c, abs=1e-6)
        # contraction history nonincreasing after the first two sweeps
        hist = [record["sup_change"] for record in state.trace]
        assert all(hist[i + 1] <= hist[i] for i in range(1, len(hist) - 1))

    def test_contraction_scales_with_amplitude(self):
        # the contraction factor after the second sweep grows linearly with
        # the boundary amplitude
        model = square_model()
        grid = RadialGrid.make(0.05, 14.0, 800)
        rhos = []
        for amp in (1e-4, 1e-3, 1e-2):
            beta = -3 * np.log1p(amp * grid.x0)
            _, state = modes.picard_solve(
                model, {(0, 0): beta}, grid, torus_resolution=8, tol=1e-14, max_iter=25
            )
            rhos.append(state.trace[1]["sup_change"] / state.trace[0]["sup_change"])
        slope = np.polyfit(np.log([1e-4, 1e-3, 1e-2]), np.log(rhos), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.15)

    def test_boundary_symmetry_required(self):
        model = square_model()
        grid = RadialGrid.make(0.05, 12.0, 300)
        with pytest.raises(ConfigError):
            modes.picard_solve(model, {(1, 0): 1e-3}, grid, torus_resolution=8)

    @pytest.mark.parametrize(
        "boundary, mode",
        [
            ({(1, 0): np.nan, (-1, 0): np.nan}, r"\(1, 0\)"),
            ({(1, 0): complex(1e-3, np.nan), (-1, 0): complex(1e-3, np.nan)}, r"\(1, 0\)"),
            ({(0, 0): np.inf}, r"\(0, 0\)"),
        ],
        ids=["nan-cosine", "nan-imaginary-part", "inf-zero-mode"],
    )
    def test_non_finite_boundary_refused(self, boundary, mode):
        # refused before the spectrum is searched, naming the mode, and with
        # no warning on the way (pytest turns a RuntimeWarning into an error)
        grid = RadialGrid.make(0.05, 12.0, 300)
        with pytest.raises(ConfigError, match=rf"^boundary coefficient of mode {mode} is not finite"):
            modes.picard_solve(square_model(), boundary, grid, torus_resolution=8)

    @pytest.mark.parametrize("cutoff", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
    def test_cutoff_must_be_positive_and_finite(self, cutoff):
        grid = RadialGrid.make(0.05, 12.0, 300)
        with pytest.raises(ConfigError, match="^cutoff must be positive and finite"):
            modes.picard_solve(square_model(), {(1, 0): 5e-4, (-1, 0): 5e-4}, grid, 8, cutoff=cutoff)

    def test_large_boundary_fails_loudly(self):
        # the drift is refused at iteration 3, before its zero-mode
        # inhomogeneity stops decaying (the decay refusal at iteration 5)
        model = square_model()
        grid = RadialGrid.make(0.05, 12.0, 600)
        with pytest.raises(
            NonContractionError,
            match=r"^Picard iteration 3 stopped contracting: .* \(ratio 0\.\d{3}, tolerance 1\.0e-12 "
            r"projected at iteration \d+, past 2 max_iter = 16\)",
        ):
            modes.picard_solve(
                model, {(0, 0): 40.0}, grid, torus_resolution=8, tol=1e-12, max_iter=8
            )

    def test_degenerate_metric_names_stage(self):
        # the linear solution of a unit cosine boundary already makes the
        # perturbed metric lose positivity at the boundary node
        grid = RadialGrid.make(0.05, 12.0, 600)
        with pytest.raises(
            MetricDegenerateError,
            match=r"^Picard iteration 1: perturbed metric degenerate at x=0\.05, "
            r"torus index \(0, 0\): smallest eigenvalue -\d\.\d{3}e\+01$",
        ):
            modes.picard_solve(square_model(), {(1, 0): 0.5, (-1, 0): 0.5}, grid, torus_resolution=8)

    def test_drift_refused_by_projected_iteration_count(self):
        # the changes of this drift shrink only like 1/k (2.65, 1.32, 0.84,
        # ...): the ratio q stays below 1 for 37 iterations, but the geometric
        # projection of the iteration that reaches tol passes 2 max_iter early
        grid = RadialGrid.make(0.05, 12.0, 600)
        with pytest.raises(
            NonContractionError,
            match=r"^Picard iteration ([3-9]|10) stopped contracting: change \d\.\d{3}e-\d+ after \d\.\d{3}e-\d+ "
            r"\(ratio 0\.\d{3}, tolerance 1\.0e-10 projected at iteration \d+, past 2 max_iter = 80\)",
        ):
            modes.picard_solve(square_model(), {(0, 0): 16.0}, grid, torus_resolution=8, max_iter=40)

    def test_trace_records_residual(self):
        # on the A5 boundary the residual of each iterate falls from the
        # quadratic size of the linear solution to the stencil floor
        grid = RadialGrid.make(0.05, 34.0, 1200)
        _, state = modes.picard_solve(
            square_model(), {(1, 0): 5e-4, (-1, 0): 5e-4}, grid, torus_resolution=16, cutoff=25.0, tol=1e-11
        )
        residuals = [record["residual_sup"] for record in state.trace]
        assert len(residuals) == state.iteration >= 2
        assert residuals[-1] < residuals[0]

    def test_modes_enumerated_once_on_the_collocation_shape(self, monkeypatch):
        # one enumeration per solve, over the box the collocation grid holds
        calls = []
        enumerate_modes = modes.modes_below

        def recorded(model, lam_max, shape):
            calls.append(shape)
            return enumerate_modes(model, lam_max, shape)

        monkeypatch.setattr(modes, "modes_below", recorded)
        grid = RadialGrid.make(0.05, 16.0, 400)
        u, state = modes.picard_solve(square_model(), {(1, 0): 5e-5, (-1, 0): 5e-5}, grid, torus_resolution=8)
        assert state.iteration >= 2
        assert calls == [state.diagnostics["torus_shape"]] == [u.torus_shape] == [(8, 1)]

    def test_non_contraction_names_iteration_and_change(self):
        grid = RadialGrid.make(0.05, 12.0, 600)
        with pytest.raises(
            NonContractionError,
            match=r"^Picard iteration \d+ stopped contracting: change \d\.\d{3}e-\d+ after \d\.\d{3}e-\d+ "
            r"\(ratio \d\.\d{3}, tolerance 1\.0e-12 projected at iteration (\d+|inf), past 2 max_iter = 80\)",
        ):
            modes.picard_solve(square_model(), {(0, 0): 4.0}, grid, torus_resolution=8, tol=1e-12)

    def test_no_convergence_names_iteration_and_change(self):
        grid = RadialGrid.make(0.05, 12.0, 600)
        with pytest.raises(
            NonContractionError, match=r"within 2 iterations: Picard iteration 2 changed the iterate by \d\.\d{3}e[+-]\d+, tolerance 1\.0e-12"
        ):
            modes.picard_solve(square_model(), {(0, 0): 40.0}, grid, torus_resolution=8, tol=1e-12, max_iter=2)
        with pytest.raises(ConfigError, match="max_iter"):
            modes.picard_solve(square_model(), {(0, 0): 40.0}, grid, torus_resolution=8, max_iter=0)
        with pytest.raises(ConfigError, match="tol"):
            modes.picard_solve(square_model(), {(0, 0): 40.0}, grid, torus_resolution=8, tol=0.0)


def _collocation_shapes(monkeypatch) -> list:
    """The torus shapes collocated on from here on, one per `_ma_values` call."""
    shapes, collocate = [], geometry._ma_values

    def spy(model, f, *args, **kwargs):
        shapes.append(f.torus_shape)
        return collocate(model, f, *args, **kwargs)

    monkeypatch.setattr(geometry, "_ma_values", spy)
    return shapes


_N3_BETA = -4.0 * np.log1p(0.2 * 0.05)  # the picard_n3 boundary: tangent cone c = 0.2 at x0 = 0.05


class TestTorusShape:
    """picard_solve collocates m points along the lattice axes its boundary
    modes span and one along the others."""

    @pytest.mark.parametrize(
        "model, boundary, m, expected",
        [
            (square_model(), {(1, 0): 5e-4, (-1, 0): 5e-4}, 16, (16, 1)),
            (n3_model(), {(0, 0, 0, 0): _N3_BETA}, 4, (1, 1, 1, 1)),
            (square_model(), {(1, 0): 5e-5, (-1, 0): 5e-5, (0, 1): 5e-5, (0, -1): 5e-5}, 16, (16, 16)),
        ],
        ids=["A5-boundary", "n3-constant-boundary", "both-axes-spanned"],
    )
    def test_collocation_shape_follows_boundary(self, monkeypatch, model, boundary, m, expected):
        shapes = _collocation_shapes(monkeypatch)
        grid = RadialGrid.make(0.05, 34.0, 200)
        u, state = modes.picard_solve(model, boundary, grid, torus_resolution=m, tol=1e-11)
        assert shapes == [expected] * (state.iteration + 1)  # every iteration and the final residual
        assert u.torus_shape == state.diagnostics["torus_shape"] == expected
        assert u.torus_resolution == max(expected)

    def test_pm_pair_is_one_solve_on_collapsed_axis(self):
        # on (16, 1) the halved axis is axis 0, so (-1, 0) is stored as the
        # conjugate of (1, 0) instead of being solved apart
        grid = RadialGrid.make(0.05, 34.0, 200)
        u, state = modes.picard_solve(square_model(), {(1, 0): 5e-4, (-1, 0): 5e-4}, grid, torus_resolution=16)
        assert u.torus_shape == (16, 1)
        assert [t["modes_solved"] for t in state.trace] == [3] * state.iteration  # (1, 0), (2, 0), (3, 0)
        assert np.array_equal(u.mode((-1, 0)), np.conj(u.mode((1, 0))))

    def test_pm_pair_is_one_solve_on_the_plane_of_the_halved_axis(self):
        # on (16, 16) the halved axis is axis 1: (1, 0) and (-1, 0) have slots
        # of their own, and one solve fills both with conjugate profiles
        grid = RadialGrid.make(0.05, 34.0, 300)
        boundary = {(1, 0): 2.5e-4, (-1, 0): 2.5e-4, (0, 1): 2.5e-4, (0, -1): 2.5e-4}
        u, state = modes.picard_solve(square_model(), boundary, grid, torus_resolution=16)
        assert u.torus_shape == (16, 16)
        assert [t["modes_solved"] for t in state.trace] == [14] * state.iteration
        for k in itertools.product(range(-7, 8), repeat=2):
            assert np.array_equal(u.mode(k), u.mode((-k[0], -k[1])).conj()), k

    @pytest.mark.parametrize(
        "model, boundary, m, transforms",
        [
            (square_model(), {(1, 0): 5e-4, (-1, 0): 5e-4}, 16, True),
            (n3_model(), {(0, 0, 0, 0): _N3_BETA}, 4, False),
        ],
        ids=["A5-boundary", "n3-constant-boundary"],
    )
    def test_ffts_skip_axes_of_size_one(self, monkeypatch, model, boundary, m, transforms):
        # every transformed axis has size > 1; an all-ones shape runs no FFT
        sizes = []
        irfftn, rfftn = np.fft.irfftn, np.fft.rfftn

        def spy_irfftn(a, s=None, axes=None, norm=None):
            out = irfftn(a, s=s, axes=axes, norm=norm)
            sizes.append([out.shape[i] for i in (range(out.ndim) if axes is None else axes)])
            return out

        def spy_rfftn(a, s=None, axes=None, norm=None):
            sizes.append([np.shape(a)[i] for i in (range(np.ndim(a)) if axes is None else axes)])
            return rfftn(a, s=s, axes=axes, norm=norm)

        monkeypatch.setattr(np.fft, "irfftn", spy_irfftn)
        monkeypatch.setattr(np.fft, "rfftn", spy_rfftn)
        grid = RadialGrid.make(0.05, 34.0, 200)
        modes.picard_solve(model, boundary, grid, torus_resolution=m, tol=1e-11)
        assert bool(sizes) == transforms
        assert all(size > 1 for call in sizes for size in call)

    def test_sine_boundary_is_the_quarter_period_translate_of_the_cosine(self):
        # a sin(2 pi t1) is a cos(2 pi t1) translated by a quarter period, 4 of
        # the 16 points, so the collocation points map onto each other; its
        # half spectrum is imaginary, so the solve takes the full-torus path
        # in complex arithmetic, and its mode (1, 0) is -i times the cosine's
        grid = RadialGrid.make(0.05, 34.0, 400)
        a = 1e-3
        solves = [modes.picard_solve(square_model(), boundary, grid, torus_resolution=16, cutoff=25.0, tol=1e-11)
                  for boundary in ({(1, 0): 0.5 * a, (-1, 0): 0.5 * a}, {(1, 0): -0.5j * a, (-1, 0): 0.5j * a})]
        (cos_u, cos_state), (sin_u, sin_state) = solves
        reference = cos_u.mode((1, 0))
        assert np.max(np.abs(sin_u.mode((1, 0)) + 1j * reference)) <= 1e-13 * np.max(np.abs(reference))
        assert sin_state.iteration == cos_state.iteration
        assert sin_state.diagnostics["residual_sup"] == pytest.approx(cos_state.diagnostics["residual_sup"], rel=1e-12)
        assert cos_u.even and not sin_u.even
        assert (cos_state.diagnostics["collocated_points"], sin_state.diagnostics["collocated_points"]) == (9, 16)
        assert sin_state.diagnostics["collocated_points_reason"] == "boundary data not even: every torus point"

    def test_even_data_solves_modes_in_real_arithmetic(self, monkeypatch):
        # a cosine solve passes float64 profiles and real boundary values to
        # every mode solve, and each returns float64
        calls = []
        solve = modes._solve_with_plan

        def spy(plan, f, v_x0):
            out = solve(plan, f, v_x0)
            calls.append((f.dtype, type(v_x0), out.dtype))
            return out

        monkeypatch.setattr(modes, "_solve_with_plan", spy)
        grid = RadialGrid.make(0.05, 34.0, 200)
        u, state = modes.picard_solve(square_model(), {(1, 0): 5e-4, (-1, 0): 5e-4}, grid, torus_resolution=16)
        # the iterations, the first assembly and the final pass
        assert len(calls) == 1 + sum(t["modes_solved"] for t in state.trace) + state.diagnostics["modes_solved"]
        assert set(calls) == {(np.dtype(float), float, np.dtype(float))}
        assert u.even

    @pytest.mark.parametrize(
        "model, boundary, m, nodes",
        [
            (square_model(), {(1, 0): 5e-5, (-1, 0): 5e-5}, 8, 400),
            (n3_model(), {(0, 0, 0, 0): _N3_BETA}, 4, 200),
        ],
        ids=["n2-cosine", "n3-constant"],
    )
    def test_reduced_solve_equals_full_resolution(self, monkeypatch, model, boundary, m, nodes):
        grid = RadialGrid.make(0.05, 34.0, nodes)
        u, state = modes.picard_solve(model, boundary, grid, torus_resolution=m, tol=1e-12)
        monkeypatch.setattr(modes, "boundary_torus_shape", lambda boundary, dims, res: (res,) * dims)
        full, full_state = modes.picard_solve(model, boundary, grid, torus_resolution=m, tol=1e-12)
        assert full.torus_shape == (m,) * (2 * model.d) != u.torus_shape
        assert state.iteration == full_state.iteration
        # the reduced values broadcast along the collapsed axes
        assert np.max(np.abs(full.values() - u.values())) <= 1e-13 * full.sup_norm()


class TestExtractTangentCone:
    def test_exact_member_of_family(self):
        grid = RadialGrid.make(0.1, 25.0, 2000)
        u = Field.from_radial(grid, -3 * np.log1p(0.37 * grid.x), (8, 8))
        c, rms = modes.extract_tangent_cone(u, 2)
        assert c == pytest.approx(0.37, abs=1e-9)
        assert rms < 1e-12

    def test_mode_content_ignored(self):
        grid = RadialGrid.make(0.1, 25.0, 2000)
        pair = h_pair(2, np.pi**2, grid.x)
        h2 = pair.h2_mantissa / pair.h2_mantissa[0] * np.exp(pair.exponent[0] - pair.exponent)
        u = Field.from_modes(
            grid,
            {
                (0, 0): (-3 * np.log1p(0.37 * grid.x)).astype(complex),
                (1, 0): 0.5e-3 * h2.astype(complex),
                (-1, 0): 0.5e-3 * h2.astype(complex),
            },
            (8, 8),
        )
        c, _ = modes.extract_tangent_cone(u, 2)
        assert c == pytest.approx(0.37, abs=1e-8)

    def test_steps_stay_inside_the_model_domain(self):
        # near c x = -1 a full Gauss-Newton step from c = 0 lands past the
        # pole of log(1 + c x); halved steps keep 1 + c x > 0 and converge
        grid = RadialGrid.make(0.5, 1.5, 40)
        u = Field.from_radial(grid, -3 * np.log1p(-1.9 * grid.x), (1, 1))
        with np.errstate(invalid="raise"):
            c, rms = modes.extract_tangent_cone(u, 2)
        assert c == pytest.approx(-1.9, abs=1e-9)
        assert rms < 1e-10


class TestStructure:
    def test_remainder_proportional_to_kernel(self):
        # the first-eigenvalue remainder tracks H2 pointwise within 1% over
        # the observation window
        model = square_model()
        grid = RadialGrid.make(0.05, 34.0, 2400)
        amp = 1e-3
        u, state = modes.picard_solve(
            model,
            {(1, 0): amp / 2, (-1, 0): amp / 2},
            grid,
            torus_resolution=16,
            cutoff=25.0,
            tol=1e-11,
        )
        lam1 = state.diagnostics["lambda1"]
        prof = np.abs(u.mode((1, 0)))
        pair = h_pair(2, lam1, grid.x)
        h2_rel = pair.h2_mantissa / pair.h2_mantissa[0] * np.exp(pair.exponent[0] - pair.exponent)
        lo, hi = analysis.window_from_s(lam1, 40.0, 200.0)
        mask = (grid.x >= lo) & (grid.x <= hi)
        ratio = prof[mask] / h2_rel[mask]
        assert (np.max(ratio) - np.min(ratio)) / np.mean(ratio) < 0.01

    def test_rate_tracks_first_eigenvalue(self):
        # on the rectangular torus Z + 2iZ the first eigenvalue drops to
        # pi^2/4 and the fitted exponential coefficient follows it
        from cusplab import spectrum

        model = CuspModel(2, np.diag([1.0, 2.0]), np.array([[1.0]]))
        lam1 = spectrum.first_eigenvalue(model)
        assert lam1 == pytest.approx(np.pi**2 / 4)
        grid = RadialGrid.make(0.05, 70.0, 5000)
        amp = 1e-3
        u, state = modes.picard_solve(
            model,
            {(0, 1): amp / 2, (0, -1): amp / 2},
            grid,
            torus_resolution=16,
            cutoff=25.0,
            tol=1e-11,
        )
        assert state.diagnostics["residual_sup"] < 1e-7
        prof = np.abs(u.mode((0, 1)))
        fit = analysis.decay_fit(grid.x, prof, analysis.window_from_s(lam1, 40.0, 200.0))
        target = 2.0 * np.sqrt(lam1)
        assert abs(fit.delta - target) / target < 0.02
        assert abs(fit.p - (-0.75)) < 0.1

    def test_scale_equivariance(self):
        # shifting the bundle scale maps solutions to solutions after the
        # radial reparametrization x -> x/(1+cx)
        model = square_model()
        c = 0.2
        x0 = 0.05
        beta0 = -3 * np.log1p(0.15 * x0)
        grid1 = RadialGrid.make(x0, 22.0, 3000)
        u1, _ = modes.picard_solve(
            model, {(0, 0): beta0}, grid1, torus_resolution=8, tol=1e-12
        )
        x0s = x0 / (1 + c * x0)
        beta0s = beta0 + 3 * np.log1p(c * x0)
        grid2 = RadialGrid.make(x0s, np.sqrt(22.0**2 + c) + 0.5, 3000)
        u2, _ = modes.picard_solve(
            model, {(0, 0): beta0s}, grid2, torus_resolution=8, tol=1e-12
        )
        # compare u1(x) with u2(x*) - 3 log(1+cx) on the common deep range
        xs = grid1.x
        x_star = xs / (1 + c * xs)
        spline = CubicSpline(grid2.s[::1], u2.radial_mean())
        u2_at = spline(1.0 / np.sqrt(x_star))
        mapped = u2_at - 3 * np.log1p(c * xs)
        mask = (x_star > grid2.x[-1]) & (x_star < grid2.x[0])
        err = np.max(np.abs(mapped[mask] - u1.radial_mean()[mask]))
        assert err < 1e-6
