"""Trajectory paths, the graded time mesh, and the weighted path norm.

A path is a remainder field w(t) together with a chart trajectory sigma(t)
sampled on a shared time mesh.  The admissible set A_delta consists of paths
whose remainder decays like delta <t>^-alpha in the strong norm and whose
chart speed obeys the matching weighted bound; the fixed-point construction
lives inside this set.  The path norm combines the weighted supremum of the
remainder with a time-averaged weighted chart speed,

    sup_t ( <t>^alpha strong(w(t))
            + c^-1 t^-1 integral_0^t <t'>^alpha |sigma_dot(t')| dt' ),

with <t> = sqrt(1 + t^2); at t = 0 the average is interpreted as its limit
|sigma_dot(0)|.  Distances between paths use the same formula on componentwise
differences, making the path space a normed space.

The default mesh is uniform with step 0.02 on [0, 4], then geometrically
stretched (ratio 1.06) out to the horizon t = 30, where the backward-integral
weight exp(-1.25 * 30) ~ 5e-17 makes truncation negligible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError
from .grid import PeriodicGrid


def time_mesh(dt_fine: float = 0.02, t_uniform: float = 4.0,
              ratio: float = 1.06, horizon: float = 30.0) -> np.ndarray:
    """Graded mesh: uniform on [0, t_uniform], geometric out to the horizon."""
    if dt_fine <= 0 or t_uniform <= 0 or horizon <= t_uniform or ratio <= 1.0:
        raise ValueError("invalid mesh parameters")
    n_fine = int(round(t_uniform / dt_fine))
    times = [dt_fine * j for j in range(n_fine + 1)]
    t = times[-1]
    step = dt_fine
    while t < horizon:
        step *= ratio
        t = min(t + step, horizon)
        times.append(t)
    return np.array(times)


def mesh_prefix(times: np.ndarray, t_end: float) -> np.ndarray:
    """The mesh times up to t_end (with 1e-12 slack); the mesh starts at 0."""
    out = times[times <= t_end + 1e-12]
    if len(out) == 0 or out[0] != 0.0:
        raise ValueError("sample mesh must start at 0")
    return out


def time_weight(t: np.ndarray, alpha: float) -> np.ndarray:
    """<t>^alpha = (1 + t^2)^(alpha/2)."""
    return (1.0 + np.asarray(t, dtype=float) ** 2) ** (alpha / 2.0)


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at 0.

    The operations are ``scipy.integrate.cumulative_trapezoid(y, x,
    initial=0)``'s, in its order, so the bits are its bits; the chart
    positions written to ``point.json`` depend on them.  ``path_distance``
    keeps its own running integral, which multiplies in another order.
    """
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


@dataclass
class TrajectoryPath:
    """A sampled path (sigma(t), w(t)) on a shared time mesh.

    ``w`` stores one field per row; at n = 256 and the 276 or 487 samples
    of the default and criterion-9 meshes this is 0.6 or 1.0 MB per path,
    which is accepted rather than compressed.  The chart speed is always
    the centered difference of the sampled sigma on the (possibly
    nonuniform) mesh.
    """

    times: np.ndarray
    sigma: np.ndarray
    w: np.ndarray = field(repr=False)
    grid: PeriodicGrid = field(repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        m = len(self.times)
        if self.sigma.shape != (m,) or self.w.shape != (m, self.grid.n):
            raise ValueError("path component shapes do not match the time mesh")

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def sigma_dot(self) -> np.ndarray:
        """Chart speed by centered differences on the mesh."""
        return np.gradient(self.sigma, self.times)

    def w_strong_norms(self) -> np.ndarray:
        return self.grid.strong_norm_values(self.w)

    def admissibility_margins(self, delta: float, alpha: float,
                              c: float) -> dict:
        """Ratios of the weighted bounds actually used (<= 1 is admissible)."""
        envelope = delta / time_weight(self.times, alpha)
        w_ratio = self.w_strong_norms() / envelope
        s_ratio = np.abs(self.sigma_dot()) / (c * envelope)
        return {
            "w_margin": float(np.max(w_ratio)),
            "sigma_dot_margin": float(np.max(s_ratio)),
            "w_worst_time": float(self.times[int(np.argmax(w_ratio))]),
            "sigma_worst_time": float(self.times[int(np.argmax(s_ratio))]),
        }

    def check_admissible(self, delta: float, alpha: float, c: float) -> None:
        """Raise AdmissibilityError at the first time a weighted bound fails."""
        envelope = delta / time_weight(self.times, alpha)
        strongs = self.w_strong_norms()
        bad = np.flatnonzero(strongs > envelope)
        if len(bad) > 0:
            t_bad = float(self.times[bad[0]])
            raise AdmissibilityError(
                f"remainder bound violated at t = {t_bad:.4f}: "
                f"strong norm {strongs[bad[0]]:.3e} > {envelope[bad[0]]:.3e} "
                "(delta too large)",
                offending_time=t_bad,
            )
        speeds = np.abs(self.sigma_dot())
        bad = np.flatnonzero(speeds > c * envelope)
        if len(bad) > 0:
            t_bad = float(self.times[bad[0]])
            raise AdmissibilityError(
                f"chart-speed bound violated at t = {t_bad:.4f}: "
                f"|sigma_dot| {speeds[bad[0]]:.3e} > {c * envelope[bad[0]]:.3e} "
                "(delta too large)",
                offending_time=t_bad,
            )


def path_distance(a: TrajectoryPath, b: TrajectoryPath, alpha: float,
                  c: float) -> float:
    """Path norm of the componentwise difference a - b (shared mesh); see the
    module docstring for the formula."""
    if not np.array_equal(a.times, b.times):
        raise ValueError("paths must share the same time mesh")
    times = a.times
    weights = time_weight(times, alpha)
    w_term = weights * a.grid.strong_norm_values(a.w - b.w)

    speed = np.abs(np.gradient(a.sigma - b.sigma, times))
    integrand = weights * speed
    cumulative = np.concatenate(
        ([0.0], np.cumsum(np.diff(times) * 0.5 * (integrand[1:] + integrand[:-1])))
    )
    s_term = np.empty_like(cumulative)
    s_term[0] = integrand[0]  # the t -> 0 limit of the running average
    s_term[1:] = cumulative[1:] / times[1:]
    return float(np.max(w_term + s_term / c))
