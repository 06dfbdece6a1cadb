"""Reference gradient-flow model: a scalar reaction-diffusion pulse.

The evolution is the negative gradient flow u_t = -E'(u) of the energy

    E(u) = integral( |u_x|^2 / 2 + G(u) ),   G(u) = u^2/2 - u^3/3,

so E'(u) = -u_xx + u - u^2 on the periodic line.  The translates of the
pulse profile

    phi(x) = (3/2) sech^2(x/2),     phi'' = phi - phi^2,

form a one-parameter family of equilibria f(sigma) = phi(. - sigma): the
translation symmetry of E is broken by each individual equilibrium.  The
linearization at f(sigma),

    L(sigma) v = -v_xx + (1 - 2 f(sigma)) v,

annihilates the family tangent (the symmetry zero mode) and has exactly one
negative eigenvalue, so each pulse is an unstable equilibrium with a
one-dimensional unstable direction.

The chart on the symmetry group is the flat global chart sigma in R; the
tangent frame is normalized so the family tangent has unit weak norm, with
scale factor xi = 1 / ||phi'||.  The frame does not turn along the chart, so
a frame coefficient a moves the chart at the velocity a * xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BallViolationError
from .grid import GridField, PeriodicGrid


@dataclass(frozen=True)
class SymmetryPoint:
    """A point on the symmetry-group chart: one translation amount.

    The chart is global and flat, so the distance between two points is the
    difference of their translation amounts.  ``chart_radius`` bounds the
    working neighborhood of the identity.
    """

    scalar: float
    chart_radius: float = 5.0

    def __post_init__(self):
        scalar = float(self.scalar)
        object.__setattr__(self, "scalar", scalar)
        if not math.isfinite(scalar):
            raise ValueError("symmetry coordinates must be finite")
        if abs(scalar) > self.chart_radius:
            raise ValueError(
                f"coordinate {scalar} leaves the chart of radius {self.chart_radius}"
            )

    def distance(self, other: "SymmetryPoint") -> float:
        return abs(self.scalar - other.scalar)


class PulseModel:
    """Concrete pulse model: energy, gradient, linearization, and the family.

    Parameters
    ----------
    grid : PeriodicGrid
        Spatial discretization.  The pulse tails decay like sech^2, so at
        half_length = 20 the periodic wrap-around is ~7e-9 pointwise, below
        every test tolerance used here.
    chart_radius : float
        Radius of the working chart on the translation group.
    delta_ball : float
        Small-ball radius for perturbation fields w; operations that are only
        meaningful perturbatively reject fields with a larger strong norm.
    """

    def __init__(self, grid: PeriodicGrid, chart_radius: float = 5.0,
                 delta_ball: float = 0.5):
        self.grid = grid
        self.chart_radius = float(chart_radius)
        self.delta_ball = float(delta_ball)

        x = grid.x
        sech2 = 1.0 / np.cosh(x / 2.0) ** 2
        self._pulse = 1.5 * sech2
        # phi'(x) = -(3/2) sech^2(x/2) tanh(x/2), evaluated analytically.
        self._pulse_derivative = -1.5 * sech2 * np.tanh(x / 2.0)
        # phi'' = phi - phi^2 exactly (the profile equation).
        self._pulse_second = self._pulse - self._pulse**2

        # Tangent-frame normalization: unit weak norm for the family tangent.
        self.xi = 1.0 / float(grid.weak_norm_values(self._pulse_derivative))
        self._tangent0 = -self.xi * self._pulse_derivative
        self._second0 = (self.xi**2) * self._pulse_second

    # -- symmetry chart helpers -------------------------------------------------
    def symmetry_point(self, sigma: float) -> SymmetryPoint:
        return SymmetryPoint(float(sigma), self.chart_radius)

    @property
    def origin(self) -> SymmetryPoint:
        return self.symmetry_point(0.0)

    # -- static profile -----------------------------------------------------------
    @property
    def profile(self) -> GridField:
        """The pulse equilibrium at the chart origin."""
        return GridField(self._pulse.copy(), self.grid)

    # -- potential ------------------------------------------------------------------
    @staticmethod
    def potential(u: np.ndarray) -> np.ndarray:
        """G(u) = u^2/2 - u^3/3."""
        return u**2 / 2.0 - u**3 / 3.0

    @staticmethod
    def potential_derivative(u: np.ndarray) -> np.ndarray:
        """G'(u) = u - u^2."""
        return u - u**2

    @staticmethod
    def potential_second_derivative(u: np.ndarray) -> np.ndarray:
        """G''(u) = 1 - 2u."""
        return 1.0 - 2.0 * u

    # -- energy and gradient -----------------------------------------------------
    def energy(self, u: GridField) -> float:
        """Trapezoid-quadrature energy on the periodic grid.

        On a periodic uniform grid the trapezoid rule reduces to h * sum.
        """
        du = self.grid.first_derivative_values(u.values)
        density = 0.5 * du**2 + self.potential(u.values)
        return float(self.grid.spacing * np.sum(density))

    def gradient(self, u: GridField) -> GridField:
        """E'(u) = -u_xx + u - u^2; the flow right-hand side is -gradient(u)."""
        lap = self.grid.second_derivative_values(u.values)
        return GridField(-lap + self.potential_derivative(u.values), self.grid)

    def linearized_apply(self, sigma: SymmetryPoint, v: GridField) -> GridField:
        """L(sigma) v = -v_xx + (1 - 2 f(sigma)) v."""
        lap = self.grid.second_derivative_values(v.values)
        fvals = self.family(sigma).values
        return GridField(-lap + (1.0 - 2.0 * fvals) * v.values, self.grid)

    def nonlinearity(self, sigma: SymmetryPoint, w: GridField) -> GridField:
        """The remainder E'(f(sigma)+w) - L(sigma) w.

        Expanding the difference, the second-derivative terms cancel and the
        profile equation phi'' = G'(phi) removes the remaining base-point
        terms in exact arithmetic, leaving

            G'(f + w) - G'(f) - G''(f) w,

        which this implementation evaluates directly: computing the
        cancellation analytically keeps the result free of the (tiny but
        nonzero) discrete stationarity defect of the sampled profile.  For
        the cubic potential used here the result is exactly -w^2.
        """
        self.check_ball(w)
        fvals = self.family(sigma).values
        result = (
            self.potential_derivative(fvals + w.values)
            - self.potential_derivative(fvals)
            - self.potential_second_derivative(fvals) * w.values
        )
        if __debug__:
            defect = self.grid.weak_norm_values(result + w.values**2)
            assert defect <= 1e-12, (
                f"quadratic-remainder identity violated: residual {defect:.3e}"
            )
        return GridField(result, self.grid)

    def check_ball(self, w: GridField) -> None:
        """Raise BallViolationError if w leaves the small ball."""
        sn = w.strong_norm()
        if sn > self.delta_ball:
            raise BallViolationError(
                f"strong norm {sn:.3e} exceeds the small-ball radius "
                f"{self.delta_ball:.3e}"
            )

    # -- the equilibrium family ----------------------------------------------------
    def family(self, sigma: SymmetryPoint) -> GridField:
        """f(sigma) = phi(. - sigma), translated spectrally."""
        return GridField(
            self.grid.shift_values(self._pulse, sigma.scalar), self.grid
        )

    def family_tangent(self, sigma: SymmetryPoint) -> GridField:
        """Unit-weak-norm tangent to the family: -xi * phi'(. - sigma)."""
        return GridField(
            self.grid.shift_values(self._tangent0, sigma.scalar), self.grid
        )

    def family_second(self, sigma: SymmetryPoint) -> GridField:
        """Second derivative of the family along the normalized frame:
        xi^2 * phi''(. - sigma)."""
        return GridField(
            self.grid.shift_values(self._second0, sigma.scalar), self.grid
        )

    # -- measured diagnostics ---------------------------------------------------
    @property
    def c_h(self) -> float:
        """Trivialization bound: the chart velocity a * xi is at most c_h |a|."""
        return self.xi

    def family_bound(self, sigma_samples=None) -> float:
        """c_f: sup over sampled sigma of strong_norm(f) + strong_norm(tangent)
        + strong_norm(second)."""
        if sigma_samples is None:
            sigma_samples = np.linspace(-2.0, 2.0, 9)
        best = 0.0
        for s in sigma_samples:
            pt = self.symmetry_point(float(s))
            total = (
                self.family(pt).strong_norm()
                + self.family_tangent(pt).strong_norm()
                + self.family_second(pt).strong_norm()
            )
            best = max(best, total)
        return best

    def max_profile_slope(self) -> float:
        """sup |phi'|, which bounds the sigma-Lipschitz constant of L(sigma)
        as a multiplication operator (the true supremum is 1/sqrt(3))."""
        return float(np.max(np.abs(self._pulse_derivative)))
