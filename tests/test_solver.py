"""Tests for measure-driven initial value problems and the terminal-value
surface solver.

Closed forms used: u' = u against the identity gauge gives e at 1; adding
a single atom of size 0.5 at t = 0.5 multiplies the answer by 1.5; the
linear equation du = p(t) u dg has the g-exponential as its solution; the
surface problem with unit source and identity work gauge is (1 - x^2)/2.
"""

import math
import re
import warnings
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

import displace.gauge as gauge_mod
import displace.solver as solver_mod
from displace.expr import (_over_arrays, _PerRow, as_function, on_arrays,
                           parse)
from displace.gauge import SNAP_RADIUS, Gauge, GaugeError
from displace.solver import (
    IvpProblem,
    IvpSolution,
    SolverError,
    SurfaceProblem,
    solve_ivp,
    solve_surface,
    verify_solution,
)

E = math.e
E_TIMES_1P5 = 4.0774227426885679


def identity_gauge():
    return Gauge.identity((0.0, 1.0))


def kicked_gauge(size=0.5):
    """Identity density plus one atom at t = 0.5."""
    return Gauge((0.0, 1.0), lambda t: 1.0, jumps=((0.5, size),),
                 density_source="1")


def exponential_problem(gauge):
    return IvpProblem(gauge=gauge, rhs=lambda t, u: u, u0=1.0)


# ---------------------------------------------------------------------------
# initial value problems: accuracy against closed forms
# ---------------------------------------------------------------------------

def test_classical_exponential_growth():
    sol = solve_ivp(exponential_problem(identity_gauge()), step=1e-4)
    assert abs(float(sol.us[-1]) - E) <= 1e-3
    assert sol.method == "g-euler"
    assert sol.max_step <= 1e-4 + 1e-12
    assert sol.value(0.0) == 1.0
    assert sol.value(1.0) == float(sol.us[-1])


def test_atom_multiplies_the_state():
    # crossing the atom applies u -> u (1 + 0.5), so u(1) = 1.5 e
    sol = solve_ivp(exponential_problem(kicked_gauge()), step=1e-3)
    assert abs(float(sol.us[-1]) - E_TIMES_1P5) <= 5e-3


def test_jump_record_satisfies_the_update_expression_exactly():
    sol = solve_ivp(exponential_problem(kicked_gauge()), step=1e-3)
    assert len(sol.jumps) == 1
    rec = sol.jumps[0]
    assert rec.tau == 0.5
    # one arithmetic expression, reproducible bit for bit
    assert rec.u_after == rec.u_before + rec.u_before * 0.5


def test_jump_record_fields_are_plain_floats():
    two_atoms = Gauge((0.0, 1.0), lambda t: 1.0,
                      jumps=((0.25, 0.5), (0.5, 0.3)), density_source="1")
    ivp = solve_ivp(exponential_problem(two_atoms), step=1e-2)
    surface = solve_surface(SurfaceProblem(work_gauge=two_atoms,
                                           source=lambda t: 1.0,
                                           terminal_value=0.0), step=1e-2)
    assert len(ivp.jumps) == len(surface.jumps) == 2
    for rec in ivp.jumps + surface.jumps:
        assert {type(rec.tau), type(rec.u_before), type(rec.u_after)} == {float}


def test_mesh_contains_every_jump_position():
    g = Gauge((0.0, 1.0), lambda t: 1.0,
              jumps=((0.25, 0.1), (0.75, 0.2)), density_source="1")
    sol = solve_ivp(exponential_problem(g), step=1e-3)
    ts = set(float(t) for t in sol.ts)
    assert 0.25 in ts and 0.75 in ts
    assert tuple(rec.tau for rec in sol.jumps) == (0.25, 0.75)


def test_zero_rhs_keeps_state_constant_exactly():
    prob = IvpProblem(gauge=kicked_gauge(), rhs=lambda t, u: 0.0, u0=5.0)
    sol = solve_ivp(prob, step=1e-2)
    assert np.all(sol.us == 5.0)


def test_halving_the_step_roughly_halves_the_error():
    prob = exponential_problem(identity_gauge())
    coarse = abs(float(solve_ivp(prob, step=2e-3).us[-1]) - E)
    fine = abs(float(solve_ivp(prob, step=1e-3).us[-1]) - E)
    assert fine / coarse <= 0.6


# The g-exponential oracle: du = p(t) u dg with u(0) = u0 has the solution
# u(t) = u0 exp(integral of p dg_c over [0, t)) * prod over tau < t of
# (1 + p(tau) dg(tau)) (Lopez Pouso & Rodriguez 2015; Frigon & Lopez Pouso
# 2017).  The integral of p against the density is a 20-point
# Gauss-Legendre sum on each piece where the density is smooth, exact to
# rounding here.  Gauge: density source, jumps and flats on [0, 1].
ORACLE_GAUGES = {
    "atoms": ("1 + t", [[0.3, 0.5], [0.7, 0.25]], []),
    "flat": ("2*max(0, abs(t - 0.5) - 0.1)", [[0.2, 0.5], [0.8, 0.25]],
             [[0.4, 0.6]]),
    "atom at a": ("1 + t", [[0.0, 0.4], [0.3, 0.5]], []),
    # the atom at b is never applied: u(1) is the left limit
    "atom at b": ("1 + t", [[0.3, 0.5], [1.0, 0.2]], []),
}
ORACLE_DENSITIES = {"1 + t": lambda t: 1.0 + t,
                    "2*max(0, abs(t - 0.5) - 0.1)":
                    lambda t: 2.0 * max(0.0, abs(t - 0.5) - 0.1)}
# (0.5 + 0.25 t) u is evaluated over whole meshes, cos(t) u per node
ORACLE_RHS = {"(0.5 + 0.25*t)*u": lambda t: 0.5 + 0.25 * t,
              "cos(t)*u": math.cos}


def g_exponential_at_1(density, jumps, p):
    nodes, weights = np.polynomial.legendre.leggauss(20)
    exponent = 0.0
    for lo, hi in ((0.0, 0.4), (0.4, 0.6), (0.6, 1.0)):
        s = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        exponent += 0.5 * (hi - lo) * sum(
            w * p(x) * density(x) for x, w in zip(s.tolist(), weights))
    value = math.exp(exponent)
    for tau, size in jumps:
        if tau < 1.0:
            value *= 1.0 + p(tau) * size
    return value


@pytest.mark.parametrize("rhs_source", ORACLE_RHS)
@pytest.mark.parametrize("gauge_name", ORACLE_GAUGES)
def test_both_euler_methods_are_first_order_against_the_g_exponential(
        gauge_name, rhs_source):
    source, jumps, flats = ORACLE_GAUGES[gauge_name]
    g = Gauge.from_dict({"domain": [0.0, 1.0], "density": source,
                         "jumps": jumps, "flats": flats})
    p = ORACLE_RHS[rhs_source]
    exact = g_exponential_at_1(ORACLE_DENSITIES[source], jumps, p)
    rhs = as_function(parse(rhs_source, {"t", "u"}), "t", "u")
    # cos runs per node, the other rhs over whole meshes
    with (pytest.raises(_PerRow) if rhs_source.startswith("cos")
          else nullcontext()):
        _over_arrays(rhs._expr.ast, {"t": np.zeros(2), "u": np.ones(2)}, np)
    problem = IvpProblem(gauge=g, rhs=rhs, u0=1.0)
    for sweeps in (0, 3):
        steps = [1e-3 / 2 ** k for k in range(5)]
        errors = [abs(float(solve_ivp(problem, h, sweeps).us[-1]) - exact)
                  for h in steps]
        orders = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
        # measured: 0.91-1.16 over these 4 halvings, 1.00 for most cases
        assert all(0.85 <= order <= 1.2 for order in orders), (sweeps, orders)


def test_subinterval_restricts_the_march():
    prob = IvpProblem(gauge=identity_gauge(), rhs=lambda t, u: u, u0=1.0,
                      interval=(0.5, 1.0))
    sol = solve_ivp(prob, step=1e-4)
    assert float(sol.ts[0]) == 0.5
    assert abs(float(sol.us[-1]) - math.exp(0.5)) <= 1e-3


# ---------------------------------------------------------------------------
# residual verification and Picard refinement
# ---------------------------------------------------------------------------

def test_picard_sweeps_drive_the_residual_down():
    prob = exponential_problem(identity_gauge())
    residuals = []
    for sweeps in (0, 1, 2, 3):
        sol = solve_ivp(prob, step=1e-2, picard_sweeps=sweeps)
        residuals.append(verify_solution(prob, sol).max_residual)
    for worse, better in zip(residuals, residuals[1:]):
        assert better <= worse
    assert residuals[-1] <= 0.1 * residuals[0]
    sol = solve_ivp(prob, step=1e-2, picard_sweeps=2)
    assert sol.method == "g-euler+picard"


def test_corrupted_solution_is_flagged():
    prob = exponential_problem(identity_gauge())
    sol = solve_ivp(prob, step=1e-2)
    shifted = IvpSolution(ts=sol.ts, us=sol.us + 0.1, jumps=sol.jumps,
                          method=sol.method, max_step=sol.max_step)
    report = verify_solution(prob, shifted)
    assert report.max_residual >= 0.09


def test_residual_report_shape():
    prob = exponential_problem(kicked_gauge())
    report = verify_solution(prob, solve_ivp(prob, step=1e-3), grid=51)
    payload = report.to_dict()
    assert set(payload) == {"max_residual", "worst_point", "grid"}
    assert payload["grid"] == 51
    assert 0.0 <= payload["worst_point"] <= 1.0
    assert payload["max_residual"] <= 1e-2


def _reference_residual(problem, sol, grid):
    """verify_solution written as one plain per-node loop."""
    g, rhs, mesh, us = problem.gauge, problem.rhs, sol.ts, sol.us
    n = len(mesh)
    dens = [float(g.density(float(t))) for t in mesh]
    atoms = [g.jump_at(float(t)) for t in mesh]
    w_left, w_after = [], []
    for k in range(n):
        t, u_before = float(mesh[k]), float(us[k])
        w = rhs(t, u_before)
        w_left.append(w * dens[k])
        w_after.append(rhs(t, u_before + w * atoms[k]) * dens[k]
                       if atoms[k] > 0.0 else w_left[k])
    S = [0.0]
    for k in range(n - 1):
        inc = 0.5 * (w_after[k] + w_left[k + 1]) * (mesh[k + 1] - mesh[k])
        if atoms[k] > 0.0:
            inc += rhs(float(mesh[k]), float(us[k])) * atoms[k]
        S.append(S[k] + inc)
    worst_r, worst_t = -1.0, float(mesh[0])
    for t in np.linspace(mesh[0], mesh[-1], grid):
        k = int(np.searchsorted(mesh, t))
        if k >= n:
            k = n - 1
        elif k > 0 and abs(mesh[k - 1] - t) <= abs(mesh[k] - t):
            k -= 1
        r = abs(us[k] - problem.u0 - S[k])
        if r > worst_r:
            worst_r, worst_t = float(r), float(mesh[k])
    return worst_r, worst_t


def _reference_picard(problem, ts, us):
    """One Picard sweep: each panel's trapezoid part plus its atom term."""
    g, rhs = problem.gauge, problem.rhs
    dens = [float(g.density(float(t))) for t in ts]
    new, running = [problem.u0], problem.u0
    for k in range(len(ts) - 1):
        t, u = float(ts[k]), float(us[k])
        atom = g.jump_at(t)
        w = rhs(t, u)
        start = u + w * atom
        running += 0.5 * (rhs(t, start) * dens[k]
                          + rhs(float(ts[k + 1]), float(us[k + 1])) * dens[k + 1]
                          ) * (ts[k + 1] - ts[k]) + w * atom
        new.append(running)
    return np.array(new)


def _reference_surface(problem, ts):
    """solve_surface on the mesh ts, written as plain prefix-sum loops."""
    g = problem.work_gauge
    n = len(ts)
    h = [float(problem.source(float(t))) for t in ts]
    dens = [float(g.density(float(t))) for t in ts]
    atoms = [g.jump_at(float(t)) for t in ts]
    H, S = [0.0], [0.0]
    for k in range(n - 1):
        dt = ts[k + 1] - ts[k]
        H.append(H[k] + 0.5 * (h[k] + h[k + 1]) * dt)
    for k in range(n - 1):
        dt = ts[k + 1] - ts[k]
        inc = 0.5 * (H[k] * dens[k] + H[k + 1] * dens[k + 1]) * dt
        if atoms[k] > 0.0:
            inc += H[k] * atoms[k]
        S.append(S[k] + inc)
    C = problem.terminal_value
    us = [C + (S[-1] - s) for s in S[:-1]] + [C]
    jumps = [(float(ts[k]), us[k], us[k] - H[k] * atoms[k])
             for k in range(n - 1) if atoms[k] > 0.0]
    return us, jumps


def test_vectorised_sums_match_plain_loop_references():
    g = Gauge((0.0, 1.0), lambda t: 1.0 + math.sin(7.0 * t) ** 2,
              jumps=((0.125, 0.3), (0.3, 0.05), (0.61, 0.4), (1.0, 0.2)))
    prob = IvpProblem(gauge=g, rhs=lambda t, u: math.sin(u) + t * u, u0=0.7)
    sol = solve_ivp(prob, step=1e-3)
    # grid 401 puts its odd points exactly midway between two nodes, 0.0025
    # between 0.002 and 0.003 first; raised there, the residual at 0.003 is
    # the largest, but a tie takes the left node, so it is never seen
    raised = sol.us.copy()
    raised[3] += 1.0
    tied = IvpSolution(ts=sol.ts, us=raised, jumps=sol.jumps,
                       method=sol.method, max_step=sol.max_step)
    for s, grid in ((sol, 101), (sol, 997), (tied, 401)):
        report = verify_solution(prob, s, grid=grid)
        assert (report.max_residual, report.worst_point) == \
            _reference_residual(prob, s, grid)
    assert report.worst_point == 1.0

    ref = sol.us
    for sweeps in (1, 2, 3):
        swept = solve_ivp(prob, step=1e-3, picard_sweeps=sweeps)
        ref = _reference_picard(prob, sol.ts, ref)
        assert swept.us.tolist() == ref.tolist()

    surface = SurfaceProblem(work_gauge=g,
                             source=lambda t: math.cos(5.0 * t) - 0.2,
                             terminal_value=0.3)
    got = solve_surface(surface, step=1e-3)
    us, jumps = _reference_surface(surface, got.ts)
    assert got.us.tolist() == us
    assert [(r.tau, r.u_before, r.u_after) for r in got.jumps] == jumps


def test_verification_evaluates_rhs_once_per_node_plus_once_per_atom():
    g = Gauge((0.0, 1.0), lambda t: 1.0,
              jumps=((0.25, 0.1), (0.5, 0.2), (1.0, 0.3)), density_source="1")
    calls = []

    def rhs(t, u):
        calls.append(t)
        return -u

    prob = IvpProblem(gauge=g, rhs=rhs, u0=1.0)
    sol = solve_ivp(prob, step=1e-2)
    assert len(sol.jumps) == 2          # the atom at the right end is not applied
    calls.clear()
    verify_solution(prob, sol)
    assert len(calls) == len(sol.ts) + len(sol.jumps)


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_blow_up_names_the_last_good_node():
    prob = IvpProblem(gauge=identity_gauge(), rhs=lambda t, u: u * u, u0=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SolverError) as exc_info:
            solve_ivp(prob, step=1e-3)
    err = exc_info.value
    assert err.t_last is not None and 0.0 < err.t_last < 1.0
    assert math.isfinite(err.u_last)
    assert "last good node" in str(err)


@pytest.mark.parametrize("u0", [math.inf, -math.inf, math.nan])
def test_a_non_finite_initial_value_is_refused_before_the_mesh(u0):
    # the step is too fine for the mesh-node limit: the initial value is
    # refused first, and no node is named as a good one
    prob = IvpProblem(gauge=identity_gauge(), rhs=lambda t, u: u, u0=u0)
    with pytest.raises(SolverError) as exc_info:
        solve_ivp(prob, step=1e-300)
    assert str(exc_info.value) == f"initial value must be finite, got {u0!r}"
    assert exc_info.value.t_last is None


def test_verification_refuses_a_re_integration_that_is_not_finite():
    g = identity_gauge()
    sol = solve_ivp(exponential_problem(g), step=0.01)
    half = IvpProblem(gauge=g, rhs=lambda t, u: math.nan if t > 0.5 else u,
                      u0=1.0)
    with pytest.raises(SolverError, match=re.escape(
            "re-integration is not finite (last good node t = 0.5, u = "
            f"{float(sol.us[50])!r})")):
        verify_solution(half, sol)
    with pytest.raises(SolverError, match="re-integration is not finite"):
        verify_solution(IvpProblem(gauge=g, rhs=lambda t, u: math.inf, u0=1.0),
                        sol)


def test_picard_and_verification_refuse_a_blow_up_the_euler_pass_survives():
    # u' = u^3 from 1.2554 stays finite node by node at step 0.1, but the
    # re-integration along it overflows in the last panel
    prob = IvpProblem(gauge=Gauge.identity(), u0=1.2554,
                      rhs=as_function(parse("u*u*u", {"t", "u"}), "t", "u"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_ivp(prob, step=0.1)
        with pytest.raises(SolverError) as refined:
            solve_ivp(prob, step=0.1, picard_sweeps=1)
        with pytest.raises(SolverError) as verified:
            verify_solution(prob, sol)
    # the sweep names its own state at 0.9, the trapezoid sum along the
    # Euler trajectory; verification the trajectory's value it checks
    ts, us = sol.ts.tolist(), sol.us.tolist()
    state = 1.2554
    for k in range(9):
        state += 0.5 * (us[k] ** 3 + us[k + 1] ** 3) * (ts[k + 1] - ts[k])
    assert (state, us[9]) == (3.087038308643264e+102, 3.9523676703544733e+34)
    for exc, message, u in (
            (refined, "state is no longer finite during refinement", state),
            (verified, "re-integration is not finite", us[9])):
        err = exc.value
        assert (err.t_last, err.u_last) == (0.9, u)
        assert str(err) == f"{message} (last good node t = 0.9, u = {u!r})"


def test_identity_density_is_evaluated_over_whole_meshes():
    ident = Gauge.identity()
    assert on_arrays(ident.density, np.array([0.0, 0.5])).tolist() == [1.0, 1.0]
    same = Gauge.from_dict({"domain": [0, 1], "density": "1"})
    a, b = (solve_surface(SurfaceProblem(work_gauge=g, source=lambda t: t,
                                         terminal_value=0.3), step=1e-3)
            for g in (ident, same))
    assert (a.ts.tobytes(), a.us.tobytes()) == (b.ts.tobytes(), b.us.tobytes())


def test_invalid_step_and_interval():
    prob = exponential_problem(identity_gauge())
    with pytest.raises(SolverError):
        solve_ivp(prob, step=0.0)
    with pytest.raises(SolverError):
        solve_ivp(prob, step=math.inf)
    bad = IvpProblem(gauge=identity_gauge(), rhs=lambda t, u: u, u0=1.0,
                     interval=(0.5, 1.5))
    with pytest.raises(SolverError):
        solve_ivp(bad, step=1e-2)
    backwards = IvpProblem(gauge=identity_gauge(), rhs=lambda t, u: u, u0=1.0,
                           interval=(0.8, 0.2))
    with pytest.raises(SolverError):
        solve_ivp(backwards, step=1e-2)
    for sweeps in (-1, 0.5):
        with pytest.raises(SolverError, match=re.escape(
                "picard_sweeps must be a non-negative integer, "
                f"got {sweeps!r}")):
            solve_ivp(prob, step=1e-2, picard_sweeps=sweeps)
    # a grid of one point compares nothing
    sol = solve_ivp(prob, step=1e-2)
    for grid in (1, 0):
        with pytest.raises(SolverError, match="grid must be at least 2"):
            verify_solution(prob, sol, grid=grid)



@pytest.mark.parametrize("domain, step, taus", [
    ((0.0, 1.0), 0.1, [0.3, 0.5, 1.0]),            # atoms on and off nodes
    ((-1.0, 2.0), 0.25, [-1.0, 0.1, 2.0]),
    ((0.0, 3e-323), 5e-324, [1e-323]),             # subnormal nodes
    # a span of four ulps cut into 45 panels repeats grid values
    ((1.0, 1.0 + 4 * 2.0 ** -52), 1e-17, [1.0 + 2.0 ** -52]),
])
def test_mesh_is_numpys_sorted_union_of_grid_and_atoms(domain, step, taus):
    g = Gauge(domain, lambda t: 1.0, jumps=[(tau, 0.5) for tau in taus])
    a, b = domain
    grid = np.linspace(a, b, max(1, math.ceil((b - a) / step)) + 1)
    expected = np.unique(np.concatenate([grid, taus]))
    assert solver_mod._build_mesh(g, a, b, step).tobytes() == expected.tobytes()


SPIKE = "1 + 200000*max(0, 0.005 - abs(t - 0.015))"


@pytest.mark.parametrize("step", [0.1, 0.01, 0.001])
def test_the_kinks_of_the_density_are_mesh_nodes(step):
    # the spike of mass 5 on (0.01, 0.02) is affine between its kinks
    # 0.01, 0.015 and 0.02, so with them as nodes the trapezoid takes its
    # mass exactly, on a mesh that steps over it as on one that resolves it
    g = Gauge.from_dict({"domain": [0, 1], "density": SPIKE})
    mesh = solver_mod._build_mesh(g, 0.0, 1.0, step)
    # the kink 0.015 - 0.005 = 0.009999999999999998 merges into a node
    # 0.01 where there is one
    for kink in g._kinks:
        assert np.min(np.abs(mesh - kink)) <= SNAP_RADIUS
    sol = solve_ivp(IvpProblem(gauge=g, rhs=lambda t, u: 1.0, u0=0.0), step)
    assert abs(sol.us[-1] - 6.0) <= 1e-9
    surface = solve_surface(SurfaceProblem(
        work_gauge=g, source=lambda t: 1.0, terminal_value=0.0), step)
    # u(0) is the integral of t against g over [0, 1): 1/2 + 5 * 0.015
    assert abs(surface.us[0] - 0.575) <= 1e-9


def test_a_kink_near_a_node_merges_into_it():
    # the kinks 0.5 +- 2e-13 lie within SNAP_RADIUS of the node 0.5, and
    # 0.3 + 1e-9 does not; a gauge without kinks keeps linspace's mesh
    near = ("1 + max(0, 1000000000000*abs(t - 0.5) - 0.2)"
            " + max(0, t - 0.300000001)")
    g = Gauge.from_dict({"domain": [0, 1], "density": near})
    first, *close = g._kinks
    assert first == 0.300000001 and len(close) == 2
    assert all(0.0 < abs(kink - 0.5) <= SNAP_RADIUS for kink in close)
    grid = np.linspace(0.0, 1.0, 11)
    expected = np.insert(grid, 4, first)
    assert solver_mod._build_mesh(g, 0.0, 1.0, 0.1).tobytes() == \
        expected.tobytes()
    plain = Gauge.from_dict({"domain": [0, 1], "density": "1 + t"})
    assert solver_mod._build_mesh(plain, 0.0, 1.0, 0.1).tobytes() == \
        grid.tobytes()


def test_mesh_node_limit_is_inclusive(monkeypatch):
    # 10 panels of 0.1 make 11 nodes; one more panel passes the limit
    monkeypatch.setattr(solver_mod, "MAX_MESH_NODES", 11)
    prob = exponential_problem(identity_gauge())
    assert len(solve_ivp(prob, step=0.1).ts) == 11
    with pytest.raises(SolverError, match=r"step 0\.099 needs 11\.101 mesh "
                                          r"nodes on \[0\.0, 1\.0\]; at most "
                                          r"11 are allowed"):
        solve_ivp(prob, step=0.099)

# ---------------------------------------------------------------------------
# solution container behavior
# ---------------------------------------------------------------------------

def test_value_is_left_continuous_at_jumps():
    sol = solve_ivp(exponential_problem(kicked_gauge()), step=1e-3)
    rec = sol.jumps[0]
    assert sol.value(0.5) == rec.u_before
    # immediately to the right the post-jump branch is in force
    assert abs(sol.value(0.5 + 1e-6) - rec.u_after) <= 1e-4


def test_value_snaps_points_just_past_the_ends_and_refuses_the_rest():
    sol = solve_ivp(exponential_problem(kicked_gauge()), step=1e-3)
    assert sol.value(1.0 + 1e-13) == sol.value(1.0) == float(sol.us[-1])
    assert sol.value(-1e-13) == sol.value(0.0) == 1.0
    for t in (-0.1, 1.1, 1.0 + 1e-9, math.nan, math.inf):
        with pytest.raises(SolverError, match=re.escape(
                f"t = {t!r} outside the domain [0.0, 1.0]")):
            sol.value(t)


def test_csv_repeats_jump_nodes():
    sol = solve_ivp(exponential_problem(kicked_gauge()), step=1e-3)
    lines = sol.to_csv().splitlines()
    assert lines[0] == "t,u"
    at_tau = [line for line in lines if line.startswith("0.5,")]
    assert len(at_tau) == 2
    rec = sol.jumps[0]
    assert float(at_tau[0].split(",")[1]) == rec.u_before
    assert float(at_tau[1].split(",")[1]) == rec.u_after


def test_solution_to_dict_shape():
    sol = solve_ivp(exponential_problem(kicked_gauge()), step=0.25)
    payload = sol.to_dict()
    assert set(payload) == {"method", "max_step", "nodes", "jumps"}
    assert all(len(pair) == 2 for pair in payload["nodes"])
    assert payload["jumps"][0] == {"tau": 0.5,
                                   "u_before": sol.jumps[0].u_before,
                                   "u_after": sol.jumps[0].u_after}


# ---------------------------------------------------------------------------
# terminal-value surface problems
# ---------------------------------------------------------------------------

def test_surface_parabolic_closed_form():
    prob = SurfaceProblem(work_gauge=identity_gauge(),
                          source=lambda t: 1.0, terminal_value=0.0)
    sol = solve_surface(prob, step=1e-3)
    for k in range(11):
        x = k / 10.0
        assert abs(sol.value(x) - 0.5 * (1.0 - x * x)) <= 1e-6
    assert float(sol.us[-1]) == 0.0
    assert sol.method == "terminal"


def test_surface_terminal_value_is_exact():
    prob = SurfaceProblem(work_gauge=identity_gauge(),
                          source=lambda t: 1.0, terminal_value=2.5)
    sol = solve_surface(prob, step=1e-3)
    assert float(sol.us[-1]) == 2.5
    assert abs(sol.value(0.0) - 3.0) <= 1e-6


def test_surface_zero_source_is_flat():
    prob = SurfaceProblem(work_gauge=kicked_gauge(),
                          source=lambda t: 0.0, terminal_value=1.25)
    sol = solve_surface(prob, step=1e-2)
    assert np.all(sol.us == 1.25)
    assert all(rec.u_after == rec.u_before for rec in sol.jumps)


def test_surface_kink_is_the_exact_atom_expression():
    # work gauge atom 0.3 at 0.5 and unit source: the accumulated source
    # at the jump is 0.5, so the kink drops the surface by 0.15
    wg = Gauge((0.0, 1.0), lambda t: 1.0, jumps=((0.5, 0.3),),
               density_source="1")
    prob = SurfaceProblem(work_gauge=wg, source=lambda t: 1.0,
                          terminal_value=0.0)
    sol = solve_surface(prob, step=0.015625)
    rec = sol.jumps[0]
    assert rec.tau == 0.5
    assert abs((rec.u_before - rec.u_after) - 0.15) <= 1e-9
    # the surface never increases when the source is nonnegative
    assert np.all(np.diff(sol.us) <= 1e-15)


def test_surface_on_subinterval():
    prob = SurfaceProblem(work_gauge=identity_gauge(),
                          source=lambda t: 1.0, terminal_value=1.0,
                          interval=(0.25, 0.75))
    sol = solve_surface(prob, step=1e-3)
    # H(x) = x - 1/4, so u(1/4) = 1 + (1/2)^2 / 2 = 1.125
    assert abs(sol.value(0.25) - 1.125) <= 1e-9
    assert float(sol.us[-1]) == 1.0


def test_surface_rejects_non_finite_source():
    prob = SurfaceProblem(work_gauge=identity_gauge(),
                          source=lambda t: math.nan, terminal_value=0.0)
    with pytest.raises(SolverError):
        solve_surface(prob, step=1e-2)
    with pytest.raises(SolverError):
        solve_surface(SurfaceProblem(work_gauge=identity_gauge(),
                                     source=lambda t: 1.0,
                                     terminal_value=0.0), step=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(SolverError, match="terminal value must be finite"):
            solve_surface(SurfaceProblem(work_gauge=identity_gauge(),
                                         source=lambda t: 1.0,
                                         terminal_value=bad), step=1e-2)


# ---------------------------------------------------------------------------
# the gauge's table is the solvers' to leave alone; its density is not
# ---------------------------------------------------------------------------

def test_the_solvers_never_build_the_gauge_table():
    g = Gauge((0.0, 1.0), lambda t: 0.0 if 0.2 < t < 0.4 else 1.0 + t,
              jumps=((0.0, 0.3), (0.5, 0.25), (1.0, 0.5)),
              flats=((0.2, 0.4),))
    problem = IvpProblem(gauge=g, rhs=lambda t, u: 0.5 * u, u0=1.0)
    surface = SurfaceProblem(work_gauge=g, source=lambda t: t,
                             terminal_value=1.0)
    with mock.patch.object(gauge_mod, "_qk21", wraps=gauge_mod._qk21) as spy:
        sol = solve_ivp(problem, step=0.01, picard_sweeps=2)
        verify_solution(problem, sol)
        solve_surface(surface, step=0.01)
        assert spy.call_count == 0
        assert g._ts == [0.0] and g._vals == [0.0]
        g(0.5)
        assert spy.call_count > 0


NEGATIVE_BUMP = "1 - 200000*max(0, 0.005 - abs(t - 0.015))"


@pytest.mark.parametrize("jumps", [[], [[0.5, 0.1]]])
def test_a_mesh_node_where_the_density_is_negative_is_refused(jumps):
    # negative on (0.01, 0.02), between the 17 construction probes; the
    # first node there on a 0.001 mesh is 0.011
    g = Gauge.from_dict({"domain": [0, 1], "density": NEGATIVE_BUMP,
                         "jumps": jumps})
    problem = IvpProblem(gauge=g, rhs=lambda t, u: u, u0=1.0)
    def refused():
        return pytest.raises(GaugeError,
                             match=r"^density is negative at t = 0\.011$")

    with refused():
        solve_ivp(problem, step=0.001)
    with refused():
        solve_surface(SurfaceProblem(work_gauge=g, source=lambda t: 1.0,
                                     terminal_value=0.0), step=0.001)
    fine = solve_ivp(IvpProblem(gauge=Gauge.identity(), rhs=lambda t, u: u,
                                u0=1.0), step=0.001)
    with refused():
        verify_solution(problem, fine)
    # a mesh that steps over the negative part has no node there, but the
    # density's kinks inside the mesh are read too: its lowest point, the
    # kink 0.015, is refused
    unit = Gauge.from_dict({"domain": [0, 1], "density": "1", "jumps": jumps})
    coarse = solve_ivp(IvpProblem(gauge=unit, rhs=problem.rhs, u0=1.0),
                       step=0.1)
    def at_the_kink():
        return pytest.raises(GaugeError,
                             match=r"^density is negative at t = 0\.015$")

    with at_the_kink():
        solve_ivp(problem, step=0.1)
    with at_the_kink():
        solve_surface(SurfaceProblem(work_gauge=g, source=lambda t: 1.0,
                                     terminal_value=0.0), step=0.1)
    with at_the_kink():
        verify_solution(problem, coarse)
