"""Initial and terminal value problems driven by a gauge measure.

solve_ivp integrates du = rhs(t, u) dmu(t) with a gauge-adapted explicit
Euler scheme: the mesh always contains every jump of the gauge, the
continuous part of each panel uses a trapezoid approximation of the
gauge increment, and crossing a jump applies the exact atom update

    u(tau+) = u(tau) + rhs(tau, u(tau)) * atom,

evaluated as that single arithmetic expression so the recorded jump
values satisfy it bit for bit.  Node values are the left limits,
matching the half-open integral convention; the atom at the right
endpoint of the interval, if any, is never applied.  Optional Picard
sweeps re-integrate rhs along the previous trajectory with the
trapezoid rule and the exact atom terms.  Measured against the
g-exponential closed form, sweeps shrink the error constant about 9x
but keep the method first order in the step.  Like verify_solution, a
sweep refuses the first re-integrated value that is not finite.

solve_surface handles the terminal-value problem whose unknown decays
against a work gauge W: given a source h and terminal value C,

    u(x) = C + integral over [x, b) of H dW,   H(x) = integral a..x of h,

computed so that u(b) equals C exactly and each work-gauge jump j at tau
produces the exact kink u(tau+) - u(tau) = -H(tau) * j.

Where a pass over the nodes depends on no earlier step (the density, the
source, and rhs along a trajectory for Picard sweeps and
verify_solution), expr.on_arrays evaluates it at every node.  The
recurrence runs in _EULER, the loop owned here, with the rhs spliced in
by expr._kernel.  The values and errors are those of one call per node,
bit for bit.

The mesh also contains every kink of a piecewise-affine density
(Gauge._kinks) inside it, so that density is affine on every panel and
the trapezoid takes its mass exactly; a kink within SNAP_RADIUS of
another node merges into that node.  The solvers read a gauge's density
and atoms, never its value table, so they integrate no quadrature
panel.  The table's first query is what refuses a density that
integrates below zero between the gauge's construction probes; in its
place, each solver refuses the first mesh node where the density is
below the probes' threshold, with their GaugeError.  A negative stretch
of a piecewise-affine density always holds a node, since its lowest
point is a kink; one of any other density can lie between two nodes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .expr import _kernel, on_arrays
from .gauge import (_NEGATIVE_DENSITY, SNAP_RADIUS, Gauge, _check_count,
                    _negative_density, _snap)
from .serialize import Record, float_csv

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SolverError",
    "IvpProblem",
    "SurfaceProblem",
    "JumpRecord",
    "IvpSolution",
    "ResidualReport",
    "solve_ivp",
    "solve_surface",
    "verify_solution",
]

# The Euler recurrence, the rhs spliced in by expr._kernel wherever RHS
# stands, with p0 the node t and p1 the state u: nodes yields (t,
# continuous weight) of each panel, and each segment is the number of
# panels before an atom node and its atom (0.0 for the panels after the
# last one).  It returns the node values and, once the state is not
# finite, the node it left from.
_EULER = """\
from itertools import islice
from math import isfinite


def _loop(nodes, segments, p1):
    path = []
    append = path.append
    for plain, atom in segments:
        for p0, cont in islice(nodes, plain):
            append(p1)
            p1 = p1 + RHS * cont
            if not isfinite(p1):
                return path, p0
        if atom > 0.0:
            p0, cont = next(nodes)
            append(p1)
            p1 = p1 + RHS * atom
            p1 = p1 + RHS * cont
            if not isfinite(p1):
                return path, p0
    append(p1)
    return path, None
"""
# ten times the largest mesh measured in use (step 1e-6 on a unit domain);
# a finer step is refused before anything is allocated
MAX_MESH_NODES = 10**7


class SolverError(Exception):
    """Bad solver input or a non-finite state during stepping."""

    def __init__(self, message: str, t_last: Optional[float] = None,
                 u_last: Optional[float] = None):
        self.t_last = t_last
        self.u_last = u_last
        if t_last is not None:
            message = f"{message} (last good node t = {t_last!r}, u = {u_last!r})"
        super().__init__(message)


class IvpProblem(Record):
    """du = rhs(t, u) dmu with u(a) = u0, on interval or the gauge domain."""

    gauge: Gauge
    rhs: Callable[[float, float], float]
    u0: float
    interval: Optional[tuple[float, float]] = None


class SurfaceProblem(Record):
    """Terminal-value decay against a work gauge with source h."""

    work_gauge: Gauge
    source: Callable[[float], float]
    terminal_value: float
    interval: Optional[tuple[float, float]] = None


class JumpRecord(Record):
    tau: float
    u_before: float
    u_after: float


class IvpSolution(Record):
    """Mesh solution with left-limit node values and explicit jump records."""

    ts: np.ndarray
    us: np.ndarray
    jumps: tuple[JumpRecord, ...]
    method: str
    max_step: float

    @cached_property
    def _jump_after(self) -> dict:
        return {rec.tau: rec.u_after for rec in self.jumps}

    @cached_property
    def _nodes(self) -> tuple[list[float], list[float]]:
        return self.ts.tolist(), self.us.tolist()

    def value(self, t: float) -> float:
        """Left-continuous, jump-aware linear interpolation."""
        ts, us = self._nodes
        if not ts[0] <= t <= ts[-1]:
            t = _snap(t, ts[0], ts[-1], "t", SolverError)
        i = bisect_right(ts, t) - 1
        if i >= len(ts) - 1:
            return us[-1]
        if t == ts[i]:
            return us[i]
        start = self._jump_after.get(ts[i], us[i])
        frac = (t - ts[i]) / (ts[i + 1] - ts[i])
        return start + frac * (us[i + 1] - start)

    def to_csv(self) -> str:
        """Rows of t,u; jump nodes appear twice, before then after."""
        import numpy as np

        jump_after = self._jump_after
        rows = np.column_stack((self.ts, self.us))
        at = np.flatnonzero(np.isin(self.ts, list(jump_after)))
        if len(at):
            rows = np.insert(rows, at + 1, [[t, jump_after[t]] for t
                                            in self.ts[at].tolist()], axis=0)
        return float_csv(("t", "u"), rows.ravel().tolist())

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "max_step": self.max_step,
            "nodes": [[t, u] for t, u in zip(*self._nodes)],
            "jumps": [rec.to_dict() for rec in self.jumps],
        }


class ResidualReport(Record):
    """Maximum integral-equation residual of a solution over a grid."""

    max_residual: float
    worst_point: float
    grid: int


def _resolve_interval(gauge: Gauge, interval: Optional[tuple[float, float]]
                      ) -> tuple[float, float]:
    ga, gb = gauge.domain
    if interval is None:
        return ga, gb
    a, b = float(interval[0]), float(interval[1])
    if not (ga <= a < b <= gb):
        raise SolverError(
            f"interval [{a!r}, {b!r}] does not sit inside the gauge "
            f"domain [{ga!r}, {gb!r}]")
    return a, b


def _build_mesh(gauge: Gauge, a: float, b: float, step: float) -> np.ndarray:
    import numpy as np

    if not (step > 0.0 and math.isfinite(step)):
        raise SolverError(f"step must be positive and finite, got {step!r}")
    panels = (b - a) / step
    if not panels <= MAX_MESH_NODES - 1:
        raise SolverError(
            f"step {step!r} needs {panels + 1:.6g} mesh nodes on "
            f"[{a!r}, {b!r}]; at most {MAX_MESH_NODES} are allowed")
    n = max(1, int(math.ceil(panels)))
    base = np.linspace(a, b, n + 1)
    taus = [tau for tau, _ in gauge.jumps if a <= tau <= b]
    # np.unique's values without its first-call import of numpy.ma; of
    # two equal values (0.0 and -0.0) the stable sort keeps the first
    mesh = np.concatenate([base, np.asarray(taus, dtype=float)])
    mesh.sort(kind="stable")
    mesh = mesh[np.concatenate(([True], mesh[1:] != mesh[:-1]))]
    kinks = np.array([t for t in gauge._kinks or () if a <= t <= b],
                     dtype=float)
    if kinks.size:
        # a kink within SNAP_RADIUS of a node merges into that node
        i = np.searchsorted(mesh, kinks)
        gap = np.minimum(np.abs(mesh[np.maximum(i - 1, 0)] - kinks),
                         np.abs(mesh[np.minimum(i, len(mesh) - 1)] - kinks))
        kinks = kinks[gap > SNAP_RADIUS]
        mesh = np.insert(mesh, np.searchsorted(mesh, kinks), kinks)
    return mesh


def _mesh_data(gauge: Gauge, mesh: np.ndarray, also: Sequence[float] = (),
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Node densities, panel atoms (none at the last node), widths and the
    indices of the atom nodes, in increasing order.

    A density below _NEGATIVE_DENSITY raises GaugeError at the first such
    point in t order, over the nodes and the points of also.
    """
    import numpy as np

    dens = on_arrays(gauge.density, mesh)
    bad = mesh[dens < _NEGATIVE_DENSITY][:1].tolist()
    bad += [t for t in also if gauge.density(t) < _NEGATIVE_DENSITY]
    if bad:
        raise _negative_density(min(bad))
    atoms = gauge.jumps_on(mesh[:-1])
    return dens, atoms, np.diff(mesh), np.flatnonzero(atoms > 0.0)


def solve_ivp(problem: IvpProblem, step: float,
              picard_sweeps: int = 0) -> IvpSolution:
    """Integrate the measure-driven IVP with the gauge-adapted Euler scheme.

    Args:
        problem: gauge, rhs and initial value.
        step: target mesh width; jump positions and the density's kinks
            are always inserted.
        picard_sweeps: non-negative integer number of re-integrations of rhs
            along the previous trajectory after the Euler pass (trapezoid
            panels plus exact atom terms); measured against the
            g-exponential closed form they shrink the error constant
            about 9x but keep order 1 in the step.

    Raises:
        SolverError: on invalid input, which includes an initial value
            that is not finite (refused before the mesh is built), or
            when the state leaves the finite range, in the Euler pass or
            in a Picard sweep ("during refinement"); the error names the
            last good node with the state there: the Euler pass's, or
            the sweep's own running value, not that of the trajectory it
            re-integrates.
        GaugeError: at the first mesh node (kinks included) where the
            density is negative.
    """
    if not (picard_sweeps >= 0 and picard_sweeps % 1 == 0):
        raise SolverError("picard_sweeps must be a non-negative integer, "
                          f"got {picard_sweeps!r}")
    u0 = float(problem.u0)
    if not math.isfinite(u0):
        raise SolverError(f"initial value must be finite, got {u0!r}")
    import numpy as np

    g = problem.gauge
    rhs = problem.rhs
    a, b = _resolve_interval(g, problem.interval)
    mesh = _build_mesh(g, a, b, step)
    data = dens, atoms, dt, at = _mesh_data(g, mesh)
    conts = (0.5 * (dens[:-1] + dens[1:]) * dt).tolist()
    # the panels before each atom node, and those after the last one
    plain = np.diff(at, prepend=-1, append=len(conts)) - 1
    segments = list(zip(plain.tolist(), atoms[at].tolist() + [0.0]))
    euler = _kernel(rhs, _EULER, 2)
    path, t = euler(zip(mesh.tolist(), conts), segments, u0)
    if t is not None:
        raise SolverError("state is no longer finite",
                          t_last=t, u_last=float(path[-1]))
    us = np.array(path, dtype=float)

    for _ in range(int(picard_sweeps)):
        us = _reintegrate(rhs, mesh, us, data, u0,
                          "state is no longer finite during refinement",
                          sweep=True)

    jumps = _jumps(mesh, us, at,
                   lambda k, u: u + rhs(float(mesh[k]), u) * atoms[k])
    method = "g-euler" if picard_sweeps <= 0 else "g-euler+picard"
    return IvpSolution(ts=mesh, us=us, jumps=jumps, method=method,
                       max_step=float(dt.max()))


def _jumps(mesh: np.ndarray, us: np.ndarray, at: np.ndarray,
           after: Callable[[int, float], float]) -> tuple[JumpRecord, ...]:
    """A JumpRecord at each atom node k of at, u_after = after(k, us[k])."""
    return tuple(JumpRecord(tau=float(mesh[k]), u_before=float(us[k]),
                            u_after=float(after(k, float(us[k]))))
                 for k in at.tolist())


def _running(start: float, left: np.ndarray, right: np.ndarray,
             dt: np.ndarray, jump: np.ndarray | float = 0.0) -> np.ndarray:
    """start, then the running sums of 0.5 * (left + right) * dt + jump."""
    import numpy as np

    return np.concatenate(([start], 0.5 * (left + right) * dt + jump)).cumsum()


def _reintegrate(rhs, mesh: np.ndarray, us: np.ndarray,
                 data: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                 start: float, message: str, *, sweep: bool) -> np.ndarray:
    """start plus the running integral of rhs(t, u(t)) dmu along us.

    rhs is evaluated once per node at the left value and, at an atom
    node, once more at the post-jump state, which starts the panel; the
    atom term is rhs(t_k, u_k) * atom_k.  data is _mesh_data's.  The
    first value that is not finite raises SolverError(message), naming
    the node before it with the running value there when sweep is true
    (a Picard sweep, whose running value is its state), and with us
    there otherwise (verification, which checks us).
    """
    import numpy as np

    dens, atoms, dt, at = data
    w = on_arrays(rhs, mesh, us)
    w_start = w[:-1].copy()
    jump = np.zeros(len(dt))
    for k in at:
        jump[k] = w[k] * atoms[k]
        w_start[k] = rhs(float(mesh[k]), float(us[k]) + jump[k])
    values = _running(start, w_start * dens[:-1], w[1:] * dens[1:], dt, jump)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = int(bad[0]) - 1
        raise SolverError(message, t_last=float(mesh[k]),
                          u_last=float((values if sweep else us)[k]))
    return values


def verify_solution(problem: IvpProblem, solution: IvpSolution,
                    grid: int = 101) -> ResidualReport:
    """Residual of the integral equation u = u0 + integral rhs dmu.

    The right-hand side is re-integrated along the solution with the
    trapezoid rule on the solution's own mesh; the residual is evaluated
    at the mesh node nearest each grid point (the left one on a tie), so
    no interpolation error enters.

    Raises:
        SolverError: when the re-integration is not finite; the error
            names the last node where it is, with the solution's value
            there.
        GaugeError: at the first mesh node, or kink of the density inside
            the mesh, where the density is negative.
    """
    # grid 0 has no point to report, grid 1 only u(a), exact by construction
    _check_count(grid, 2, "grid", SolverError)
    import numpy as np

    g = problem.gauge
    mesh, us = solution.ts, solution.us
    # a solution's mesh need not hold this gauge's kinks, where its density
    # is lowest between two nodes: they are read too
    kinks = [t for t in g._kinks or () if mesh[0] <= t <= mesh[-1]]
    S = _reintegrate(problem.rhs, mesh, us, _mesh_data(g, mesh, kinks), 0.0,
                     "re-integration is not finite", sweep=False)
    residuals = np.abs(us - float(problem.u0) - S)

    ts = np.linspace(mesh[0], mesh[-1], grid)
    k = np.minimum(np.searchsorted(mesh, ts), len(mesh) - 1)
    left = np.maximum(k - 1, 0)
    k = np.where(np.abs(mesh[left] - ts) <= np.abs(mesh[k] - ts), left, k)
    i = int(np.argmax(residuals[k]))
    return ResidualReport(max_residual=float(residuals[k[i]]),
                          worst_point=float(mesh[k[i]]), grid=grid)


def solve_surface(problem: SurfaceProblem, step: float) -> IvpSolution:
    """Solve the terminal-value surface problem against the work gauge.

    Builds H as the running integral of the source, then the running
    work integral S of H, and sets u = C + (S(b) - S(.)), which makes
    u(b) = C exact.  Work-gauge jumps produce kinks computed by the
    exact atom expression u_after = u_before - H(tau) * atom.

    Raises:
        SolverError: on invalid input or a source that is not finite on
            the mesh.
        GaugeError: at the first mesh node (kinks included) where the
            work gauge's density is negative.
    """
    C = float(problem.terminal_value)
    if not math.isfinite(C):
        raise SolverError(f"terminal value must be finite, got {C!r}")
    import numpy as np

    g = problem.work_gauge
    a, b = _resolve_interval(g, problem.interval)
    mesh = _build_mesh(g, a, b, step)
    dens, atoms, dt, at = _mesh_data(g, mesh)

    h_vals = on_arrays(problem.source, mesh)
    if not np.all(np.isfinite(h_vals)):
        raise SolverError("source is not finite on the mesh")
    H = _running(0.0, h_vals[:-1], h_vals[1:], dt)
    Hd = H * dens
    jump = H[:-1] * atoms
    S = _running(0.0, Hd[:-1], Hd[1:], dt, jump)

    us = C + (S[-1] - S)
    us[-1] = C

    return IvpSolution(ts=mesh, us=us,
                       jumps=_jumps(mesh, us, at, lambda k, u: u - jump[k]),
                       method="terminal", max_step=float(dt.max()))
