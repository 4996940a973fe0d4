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
trapezoid rule and the exact atom terms.  For a linear rhs they usually
lower the integral-equation residual of verify_solution; for a
nonlinear rhs a sweep can raise it.

solve_surface handles the terminal-value problem whose unknown decays
against a work gauge W: given a source h and terminal value C,

    u(x) = C + integral over [x, b) of H dW,   H(x) = integral a..x of h,

computed so that u(b) equals C exactly and each work-gauge jump j at tau
produces the exact kink u(tau+) - u(tau) = -H(tau) * j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .gauge import Gauge
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


@dataclass(frozen=True)
class IvpProblem:
    """du = rhs(t, u) dmu with u(a) = u0, on interval or the gauge domain."""

    gauge: Gauge
    rhs: Callable[[float, float], float]
    u0: float
    interval: Optional[tuple[float, float]] = None


@dataclass(frozen=True)
class SurfaceProblem:
    """Terminal-value decay against a work gauge with source h."""

    work_gauge: Gauge
    source: Callable[[float], float]
    terminal_value: float
    interval: Optional[tuple[float, float]] = None


@dataclass(frozen=True)
class JumpRecord(Record):
    tau: float
    u_before: float
    u_after: float


@dataclass(frozen=True)
class IvpSolution:
    """Mesh solution with left-limit node values and explicit jump records."""

    ts: np.ndarray
    us: np.ndarray
    jumps: tuple[JumpRecord, ...]
    method: str
    max_step: float

    @cached_property
    def _jump_after(self) -> dict:
        return {rec.tau: rec.u_after for rec in self.jumps}

    def value(self, t: float) -> float:
        """Left-continuous, jump-aware linear interpolation."""
        import numpy as np

        ts, us = self.ts, self.us
        if t < ts[0] or t > ts[-1]:
            raise SolverError(f"point {t!r} outside the solution interval")
        i = int(np.searchsorted(ts, t, side="right")) - 1
        if i >= len(ts) - 1:
            return float(us[-1])
        if t == ts[i]:
            return float(us[i])
        start = self._jump_after.get(float(ts[i]), float(us[i]))
        frac = (t - ts[i]) / (ts[i + 1] - ts[i])
        return start + frac * (float(us[i + 1]) - start)

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
            "nodes": [[float(t), float(u)] for t, u in zip(self.ts, self.us)],
            "jumps": [rec.to_dict() for rec in self.jumps],
        }


@dataclass(frozen=True)
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
    return mesh[np.concatenate(([True], mesh[1:] != mesh[:-1]))]


def _mesh_data(gauge: Gauge, mesh: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    import numpy as np

    density = gauge.density
    dens = np.array([float(density(t)) for t in mesh.tolist()])
    return dens, gauge.jumps_on(mesh), np.diff(mesh)


def solve_ivp(problem: IvpProblem, step: float,
              picard_sweeps: int = 0) -> IvpSolution:
    """Integrate the measure-driven IVP with the gauge-adapted Euler scheme.

    Args:
        problem: gauge, rhs and initial value.
        step: target mesh width; jump positions are always inserted.
        picard_sweeps: re-integrations of rhs along the previous
            trajectory after the Euler pass (trapezoid panels plus exact
            atom terms); they usually lower the verify_solution residual
            for a linear rhs, but carry no such promise for a nonlinear
            one.

    Raises:
        SolverError: on invalid input or when the state leaves the
            finite range; the error names the last good node.
    """
    import numpy as np

    g = problem.gauge
    rhs = problem.rhs
    a, b = _resolve_interval(g, problem.interval)
    mesh = _build_mesh(g, a, b, step)
    dens, atoms, dt = _mesh_data(g, mesh)
    conts = (0.5 * (dens[:-1] + dens[1:]) * dt).tolist()

    path = []
    u = float(problem.u0)
    for t, atom, cont in zip(mesh.tolist(), atoms.tolist(), conts):
        path.append(u)
        if atom > 0.0:
            u = u + rhs(t, u) * atom
        u = u + rhs(t, u) * cont
        if not math.isfinite(u):
            raise SolverError("state is no longer finite",
                              t_last=t, u_last=float(path[-1]))
    path.append(u)
    us = np.array(path, dtype=float)

    for _ in range(max(0, int(picard_sweeps))):
        new = np.concatenate(
            ([float(problem.u0)], _increments(rhs, mesh, us, dens, atoms, dt))
        ).cumsum()
        bad = np.flatnonzero(~np.isfinite(new))
        if bad.size:
            k = int(bad[0]) - 1
            raise SolverError("state is no longer finite during refinement",
                              t_last=float(mesh[k]), u_last=float(us[k]))
        us = new

    jumps = _jump_records(rhs, mesh, us, atoms)
    method = "g-euler" if picard_sweeps <= 0 else "g-euler+picard"
    max_step = float(dt.max()) if len(dt) else 0.0
    return IvpSolution(ts=mesh, us=us, jumps=jumps, method=method,
                       max_step=max_step)


def _jump_records(rhs, mesh: np.ndarray, us: np.ndarray,
                  atoms: np.ndarray) -> tuple[JumpRecord, ...]:
    import numpy as np

    records = []
    for k in np.flatnonzero(atoms[:-1] > 0.0).tolist():
        t, u_before = float(mesh[k]), float(us[k])
        u_after = float(u_before + rhs(t, u_before) * atoms[k])
        records.append(JumpRecord(tau=t, u_before=u_before,
                                  u_after=u_after))
    return tuple(records)


def _increments(rhs, mesh: np.ndarray, us: np.ndarray, dens: np.ndarray,
                atoms: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Panel increments of the integral of rhs(t, u(t)) dmu along us.

    rhs is evaluated once per node at the left value; at an atom node it
    is evaluated once more at the post-jump state, which starts the
    panel.  Increment k is the trapezoid part over [t_k, t_k+1] plus the
    exact atom term rhs(t_k, u_k) * atom_k.
    """
    import numpy as np

    w = np.array([rhs(t, u) for t, u in zip(mesh.tolist(), us.tolist())],
                 dtype=float)
    w_start = w[:-1].copy()
    jump = np.zeros(len(dt))
    for k in np.flatnonzero(atoms[:-1] > 0.0):
        jump[k] = w[k] * atoms[k]
        w_start[k] = rhs(float(mesh[k]), float(us[k]) + jump[k])
    return 0.5 * (w_start * dens[:-1] + w[1:] * dens[1:]) * dt + jump


def verify_solution(problem: IvpProblem, solution: IvpSolution,
                    grid: int = 101) -> ResidualReport:
    """Residual of the integral equation u = u0 + integral rhs dmu.

    The right-hand side is re-integrated along the solution with the
    trapezoid rule on the solution's own mesh; the residual is evaluated
    at the mesh node nearest each grid point, so no interpolation error
    enters.
    """
    import numpy as np

    g = problem.gauge
    mesh, us = solution.ts, solution.us
    dens, atoms, dt = _mesh_data(g, mesh)
    n = len(mesh)
    S = np.concatenate(
        ([0.0], _increments(problem.rhs, mesh, us, dens, atoms, dt))).cumsum()
    residuals = np.abs(us - float(problem.u0) - S)

    max_residual = -1.0
    worst = float(mesh[0])
    for t in np.linspace(mesh[0], mesh[-1], grid):
        k = int(np.searchsorted(mesh, t))
        if k >= n:
            k = n - 1
        elif k > 0 and abs(mesh[k - 1] - t) <= abs(mesh[k] - t):
            k -= 1
        if residuals[k] > max_residual:
            max_residual = float(residuals[k])
            worst = float(mesh[k])
    return ResidualReport(max_residual=max_residual, worst_point=worst,
                          grid=grid)


def solve_surface(problem: SurfaceProblem, step: float) -> IvpSolution:
    """Solve the terminal-value surface problem against the work gauge.

    Builds H as the running integral of the source, then the running
    work integral S of H, and sets u = C + (S(b) - S(.)), which makes
    u(b) = C exact.  Work-gauge jumps produce kinks computed by the
    exact atom expression u_after = u_before - H(tau) * atom.
    """
    import numpy as np

    g = problem.work_gauge
    a, b = _resolve_interval(g, problem.interval)
    mesh = _build_mesh(g, a, b, step)
    dens, atoms, dt = _mesh_data(g, mesh)

    source = problem.source
    h_vals = np.array([float(source(t)) for t in mesh.tolist()])
    if not np.all(np.isfinite(h_vals)):
        raise SolverError("source is not finite on the mesh")
    H = np.concatenate(([0.0], 0.5 * (h_vals[:-1] + h_vals[1:]) * dt)).cumsum()
    Hd = H * dens
    jump = H[:-1] * atoms[:-1]
    S = np.concatenate(([0.0], 0.5 * (Hd[:-1] + Hd[1:]) * dt + jump)).cumsum()

    C = float(problem.terminal_value)
    us = C + (S[-1] - S)
    us[-1] = C

    records = [JumpRecord(tau=float(mesh[k]), u_before=float(us[k]),
                          u_after=float(us[k] - jump[k]))
               for k in np.flatnonzero(atoms[:-1] > 0.0)]
    max_step = float(dt.max()) if len(dt) else 0.0
    return IvpSolution(ts=mesh, us=us, jumps=tuple(records),
                       method="terminal", max_step=max_step)
