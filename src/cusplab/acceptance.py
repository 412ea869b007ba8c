"""Acceptance suite: one callable per criterion, each returning a result
record with pass/fail and the measured margins.  The CLI `report` command
and the test suite both run these."""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis, bessel, geometry, modes, radial, spectrum
from .fields import Field
from .grid import RadialGrid
from .model import CuspModel, CuspPoint


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in self.details.items())
        return f"[{status}] {self.name} ({self.seconds:.2f}s) {parts}"


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        result.seconds = time.perf_counter() - t0
        return result

    return wrapper


def square_torus_model() -> CuspModel:
    """n = 2 on the square unit torus with A = 1: lambda_1 = pi^2."""
    return CuspModel(n=2, lattice=np.eye(2), A=np.eye(1))


@_timed
def criterion_a1() -> CriterionResult:
    """Kernel identity sweep: both Wronskian residuals <= 1e-9."""
    s = np.geomspace(0.5, 500.0, 120)
    # np.max, unlike a running max(), keeps a NaN residual, which then fails
    worst = float(np.max([bessel.wronskian_residuals(alpha, s) for alpha in range(4, 9)]))
    return CriterionResult("A1 kernel identities", worst <= 1e-9, {"max_residual": worst})


@_timed
def criterion_a2() -> CriterionResult:
    """Formal expansion matches the closed form to 1e-12 relative at K=20."""
    rels = []
    for n in (2, 3):
        for c in (0.1, 0.5, 2.0):
            coeffs = radial.expand_formal(n, -(n + 1) * c, 20)
            target = radial.tangent_cone_coefficients(n, c, 20)
            rels.append(np.abs(coeffs[1:] - target[1:]) / np.abs(target[1:]))
    worst = float(np.max(rels))
    return CriterionResult("A2 formal expansion", worst <= 1e-12, {"max_rel_err": worst})


@_timed
def criterion_a3() -> CriterionResult:
    """Radial ODE family: closed form at b=0, conserved level, cone angles."""
    n = 2
    traj = radial.integrate_calabi(n, a=float(np.log((n + 1) ** n)), b=0.0, t0=-1.0, t_end=-50.0, tol=1e-13, psi0=0.0)
    exact = -(n + 1) * np.log(-traj.t_nodes)
    sup_err = float(np.max(np.abs(traj.psi - exact)))
    drift = traj.first_integral_drift()
    cone_errs = []
    for b in (1.0 / (n + 1), 3.0):
        angle, empirical = radial.cone_angle(n, b)
        c_exact = angle / (2.0 * np.pi)
        cone_errs.append(abs(empirical - c_exact) / c_exact)
    cone_err = float(np.max(cone_errs))
    passed = sup_err <= 1e-8 and drift <= 1e-10 and cone_err <= 1e-3
    return CriterionResult(
        "A3 radial ODE family",
        passed,
        {"sup_err": sup_err, "integral_drift": drift, "cone_rel_err": cone_err},
    )


def _random_bounded(rng, s: np.ndarray) -> np.ndarray:
    span = s[-1] - s[0]
    out = np.zeros_like(s)
    for m in range(1, 5):
        out += rng.normal() * np.cos(m * np.pi * (s - s[0]) / span)
        out += rng.normal() * np.sin(m * np.pi * (s - s[0]) / span)
    return out / np.max(np.abs(out))


@_timed
def criterion_a4() -> CriterionResult:
    """Green operator inverts the mode operator: residual <= 1e-6 relative,
    improving at 2nd order under refinement."""
    n = 2
    lam1 = float(np.pi**2)
    grid = RadialGrid.make(x0=0.1, s_max=20.0, num=120_000)
    rng = np.random.default_rng(20240211)
    rels = []
    slopes = []
    for lam in (lam1, 2.0 * lam1, 10.0 * lam1):
        for trial in range(20):
            f = _random_bounded(rng, grid.s)
            prob = modes.ModeProblem(n=n, lam=lam, f=f, v_x0=0.0, grid=grid)
            v = modes.mode_solve(prob)
            res = modes.mode_ode_residual(prob, v)
            interior = grid.interior(2)
            rel = float(np.max(np.abs(res[interior])) / np.max(np.abs(f)))
            rels.append(rel)
            if trial < 2:
                half = RadialGrid(grid.s[::2])
                fh = f[::2]
                prob_h = modes.ModeProblem(n=n, lam=lam, f=fh, v_x0=0.0, grid=half)
                vh = modes.mode_solve(prob_h)
                res_h = modes.mode_ode_residual(prob_h, vh)
                rel_h = float(np.max(np.abs(res_h[half.interior(2)])) / np.max(np.abs(fh)))
                slopes.append(np.log2(rel_h / rel))
    worst = float(np.max(rels))
    slope = float(np.median(slopes))
    passed = worst <= 1e-6 and slope >= 1.6
    return CriterionResult(
        "A4 Green inverse",
        passed,
        {"max_rel_residual": worst, "refinement_order": slope},
    )


def _rate_criterion(name: str, model: CuspModel, delta_rel: float, p_abs: float) -> CriterionResult:
    """Sharp-rate reproduction: a converged solve, then the (1, 0) remainder fits A x^p exp(-delta/sqrt(x)) on
    s in [40, 200] with delta = 2 sqrt(lambda) within delta_rel and p = -n/2 + 1/4 within p_abs, the targets
    `analysis.rate_fit` gives."""
    grid = RadialGrid.make(x0=0.05, s_max=34.0, num=4800)
    boundary = analysis.cosine_boundary(model.n, 1e-3)
    fit, (delta0, p0), _, _, u, state = analysis.rate_fit(
        model, grid, boundary, 40.0, 200.0, torus_resolution=16, cutoff=25.0, tol=1e-11, max_iter=30
    )
    residual = state.diagnostics["residual_sup"]
    c_fit, _ = modes.extract_tangent_cone(u, model.n)
    delta_err = abs(fit.delta - delta0) / delta0
    p_err = abs(fit.p - p0)
    details = {"residual": residual, "delta": fit.delta, "delta_rel_err": delta_err, "p": fit.p, "p_err": p_err,
               "tangent_cone_c": c_fit, "iterations": state.iteration}
    return CriterionResult(name, residual <= 1e-7 and delta_err <= delta_rel and p_err <= p_abs, details)


@_timed
def criterion_a5() -> CriterionResult:
    """The sharp rate on the square torus, lambda_1 = pi^2: delta within 2%, p within 0.1."""
    return _rate_criterion("A5 sharp decay rate", square_torus_model(), 0.02, 0.1)


@_timed
def criterion_a6() -> CriterionResult:
    """Constant boundary reproduces the closed-form radial solution."""
    model = square_torus_model()
    grid = RadialGrid.make(x0=0.05, s_max=34.0, num=4000)
    c = 0.2
    beta = -(model.n + 1) * np.log1p(c * grid.x0)
    u, state = modes.picard_solve(
        model,
        {(0, 0): beta},
        grid,
        torus_resolution=8,
        cutoff=9.0,
        tol=1e-12,
        max_iter=40,
    )
    exact = -(model.n + 1) * np.log1p(c * grid.x)
    sup_err = float(np.max(np.abs(u.radial_mean() - exact)))
    c_fit, _ = modes.extract_tangent_cone(u, model.n)
    passed = sup_err <= 1e-7 and abs(c_fit - c) <= 1e-6
    return CriterionResult(
        "A6 tangent cone exactness",
        passed,
        {"sup_err": sup_err, "c_fit": c_fit, "c_err": abs(c_fit - c)},
    )


@_timed
def criterion_a7() -> CriterionResult:
    """Calculus inequality ratios: R1 < 2 with limit 2, R2 < 2 + eps."""
    reports = [
        analysis.lemma43_check(2.0, 0.0, x_max=10.0, eps=1.0),
        analysis.lemma43_check(2.0, -1.4, x_max=10.0, eps=1.0),
        analysis.lemma43_check(5.0, 3.0, x_max=10.0, eps=1.0),
    ]
    passed = all(r.passed for r in reports)
    details = {}
    for r in reports:
        tag = f"c{r.c:g}_k{r.k:g}"
        details[f"{tag}_sup_r1"] = r.sup_r1
        details[f"{tag}_limit"] = r.limit_r1
        details[f"{tag}_sup_r2"] = r.sup_r2
    return CriterionResult("A7 calculus bounds", passed, details)


@_timed
def criterion_a8() -> CriterionResult:
    """Character formula vs finite-difference eigensolver: 0.5% at 128^2
    with observed 2nd-order grid convergence."""
    configs = [
        CuspModel(2, np.eye(2), np.array([[1.0]])),
        CuspModel(2, np.diag([1.0, 2.0]), np.array([[1.0]])),
        CuspModel(2, np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([[0.7]])),
    ]
    rels = []
    orders = []
    for model in configs:
        lam1 = spectrum.first_eigenvalue(model)
        errs = []
        for m in (32, 64, 128):
            fd = spectrum.fd_first_eigenvalue(model, m)
            errs.append(abs(fd - lam1) / lam1)
        rels.append(errs[-1])
        fit = np.polyfit(np.log([32, 64, 128]), np.log(errs), 1)
        orders.append(-fit[0])
    worst_rel = float(np.max(rels))
    order = float(np.min(orders))
    passed = worst_rel <= 5e-3 and order >= 1.7
    return CriterionResult(
        "A8 spectrum oracle",
        passed,
        {"max_rel_err": worst_rel, "min_order": order},
    )


@_timed
def criterion_a9() -> CriterionResult:
    """Geometry suite: metric inverse, cross-section determinant scaling,
    indicial agreement, quadratic smallness of the nonlinearity."""
    model = square_torus_model()
    rng = np.random.default_rng(7)
    # metric . inverse = identity, relative to the summed entry magnitudes
    # (the fiber entries carry exp(phi - 1/x) scalings)
    identity_errs = []
    for _ in range(100):
        zp = rng.normal(size=1) + 1j * rng.normal(size=1)
        p = CuspPoint(zp, x=float(rng.uniform(0.01, 0.9)), theta=float(rng.uniform(0, 2 * np.pi)))
        g = geometry.metric_coefficients(model, p)
        gi = geometry.inverse_metric(model, p)
        err = np.abs(g @ gi - np.eye(2)) / (np.abs(g) @ np.abs(gi) + 1.0)
        identity_errs.append(np.max(err))
    worst_identity = float(np.max(identity_errs))
    # det(g_eps)/eps^2 independent of eps
    p = CuspPoint(np.array([0.3 + 0.2j]), x=0.04)
    dets = []
    for eps in (0.1, 0.05, 0.01):
        m = geometry.cross_section_metric(model, eps, p)
        dets.append(np.linalg.det(m) / eps**2)
    det_spread = float(np.ptp(dets) / abs(dets[0]))
    # indicial agreement on x^p
    grid = RadialGrid.make(x0=0.1, s_max=10.0, num=30000)
    indicial_errs = []
    for pw in (-(model.n + 1), 0.5, 1.0, 2.0, 3.0):
        f = Field.from_radial(grid, grid.x**pw, (4, 4))
        lf = geometry.linearized_apply(model, f).radial_mean()
        target = analysis.barrier_sign(model.n, pw) * grid.x**pw
        interior = grid.interior(2)
        scale = np.max(np.abs(grid.x[interior] ** pw))
        indicial_errs.append(np.max(np.abs(lf[interior] - target[interior])) / scale)
    worst_indicial = float(np.max(indicial_errs))
    # quadratic smallness: sup |M(eps f) - L(eps f)| ~ eps^2
    grid2 = RadialGrid.make(x0=0.05, s_max=12.0, num=400)
    base = Field.from_modes(
        grid2,
        {
            (0, 0): (0.3 * grid2.x**2).astype(complex),
            (1, 0): 0.2 * grid2.x * np.exp(-1.0 / np.sqrt(grid2.x)) + 0j,
            (-1, 0): 0.2 * grid2.x * np.exp(-1.0 / np.sqrt(grid2.x)) + 0j,
        },
        (8, 8),
    )
    sups = []
    eps_list = (1e-2, 1e-3, 1e-4)
    for eps in eps_list:
        q = geometry.quadratic_remainder(model, eps * base)
        sups.append(q.sup_norm(grid2.interior(2)))
    slope = float(np.polyfit(np.log(eps_list), np.log(sups), 1)[0])
    passed = (
        worst_identity <= 1e-10
        and det_spread <= 1e-8
        and worst_indicial <= 1e-6
        and abs(slope - 2.0) <= 0.1
    )
    return CriterionResult(
        "A9 geometry suite",
        passed,
        {
            "identity_err": worst_identity,
            "det_eps_spread": det_spread,
            "indicial_err": worst_indicial,
            "quadratic_slope": slope,
        },
    )


@_timed
def criterion_a10() -> CriterionResult:
    """The sharp rate on the hexagonal torus, lattice columns (1, 0) and
    (1/2, sqrt(3)/2), A = 1.3: lambda_1 = 10.1227, so 2 sqrt(lambda_1) lies
    1.27% above the square torus's 2 pi.  delta within 2e-3, p within 0.1."""
    model = CuspModel(2, np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]]), np.array([[1.3]]))
    return _rate_criterion("A10 hexagonal decay rate", model, 2e-3, 0.1)


ALL_CRITERIA = [
    criterion_a1,
    criterion_a2,
    criterion_a3,
    criterion_a4,
    criterion_a5,
    criterion_a6,
    criterion_a7,
    criterion_a8,
    criterion_a9,
    criterion_a10,
]


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
