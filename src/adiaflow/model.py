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

The chart on the symmetry group is the flat global chart sigma in R, so a
chart point is a plain float and the distance of two is |sigma - sigma'|; the
tangent frame is normalized so the family tangent has unit weak norm, with
scale factor xi = 1 / ||phi'||.  The frame does not turn along the chart, so
a frame coefficient a moves the chart at the velocity a * xi.
``PulseModel.frame(sigma)`` alone translates the frame (f, d f, d^2 f):
all three rows together, from the rfft coefficients ``frame_hat``.
"""

from __future__ import annotations

import numpy as np

from .errors import BallViolationError
from .grid import GridField, PeriodicGrid


class PulseModel:
    """Concrete pulse model: energy, gradient, linearization, and the family.

    Parameters
    ----------
    grid : PeriodicGrid
        Spatial discretization.  The pulse tails decay like sech^2, so at
        half_length = 20 the periodic wrap-around is ~7e-9 pointwise, below
        every test tolerance used here.
    chart_radius : float
        Radius of the working chart on the translation group: the state
        decomposition refuses chart coordinates beyond it.
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
        with np.errstate(over="ignore"):  # far tails: sech^2 is 0
            sech2 = 1.0 / np.cosh(x / 2.0) ** 2
        pulse = 1.5 * sech2
        # phi'(x) = -(3/2) sech^2(x/2) tanh(x/2), evaluated analytically.
        self._pulse_derivative = -1.5 * sech2 * np.tanh(x / 2.0)

        # Tangent-frame normalization: unit weak norm for the family tangent.
        slope_norm = float(grid.weak_norm_values(self._pulse_derivative))
        if not slope_norm > 0.0:
            raise ValueError(f"a grid spacing of {grid.spacing:g} cannot "
                             f"sample the pulse: its sampled slope has weak "
                             f"norm {slope_norm:g}")
        self.xi = 1.0 / slope_norm
        # The frame at sigma = 0: phi, the unit tangent -xi phi', and
        # xi^2 phi'' with phi'' = phi - phi^2 exactly (the profile equation).
        self._frame0 = np.stack([pulse, -self.xi * self._pulse_derivative,
                                 (self.xi**2) * (pulse - pulse**2)])
        self.frame_hat = np.fft.rfft(self._frame0, axis=-1)
        self.frame_hat.flags.writeable = False

    # -- static profile -----------------------------------------------------------
    @property
    def profile(self) -> GridField:
        """The pulse equilibrium at the chart origin."""
        return GridField(self._frame0[0].copy(), self.grid)

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

    def linearized_apply(self, sigma: float, v: GridField) -> GridField:
        """L(sigma) v = -v_xx + (1 - 2 f(sigma)) v."""
        lap = self.grid.second_derivative_values(v.values)
        fvals = self.family(sigma).values
        return GridField(-lap + (1.0 - 2.0 * fvals) * v.values, self.grid)

    def nonlinearity(self, sigma: float, w: GridField) -> GridField:
        """The remainder E'(f(sigma)+w) - L(sigma) w.

        Expanding the difference, the second-derivative terms cancel and the
        profile equation phi'' = G'(phi) removes the remaining base-point
        terms in exact arithmetic, leaving

            G'(f + w) - G'(f) - G''(f) w,

        which this implementation evaluates directly: computing the
        cancellation analytically keeps the result free of the (tiny but
        nonzero) discrete stationarity defect of the sampled profile.  For
        the cubic potential used here the result is exactly -w^2; the
        ledger's ``nonlinearity-quadratic`` check measures its defect.
        """
        self.check_ball(w)
        fvals = self.family(sigma).values
        result = (
            self.potential_derivative(fvals + w.values)
            - self.potential_derivative(fvals)
            - self.potential_second_derivative(fvals) * w.values
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
    def frame(self, sigma: float) -> np.ndarray:
        """(f, d f, d^2 f) at sigma as one (3, n) array: phi(. - sigma), the
        unit tangent -xi phi'(. - sigma) and xi^2 phi''(. - sigma), translated
        with one phase table and one inverse FFT.  Each row is bitwise
        ``grid.shift_values`` of its base field; sigma = 0 is exact."""
        if sigma == 0.0:
            return self._frame0.copy()
        return self.grid.apply_phases(self.frame_hat,
                                      self.grid.shift_phases(sigma))

    def family(self, sigma: float) -> GridField:
        """f(sigma) = phi(. - sigma), row 0 of ``frame``."""
        return GridField(self.frame(sigma)[0], self.grid)

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
        return max(float(sum(self.grid.strong_norm_values(self.frame(s))))
                   for s in sigma_samples)

    def max_profile_slope(self) -> float:
        """sup |phi'|, which bounds the sigma-Lipschitz constant of L(sigma)
        as a multiplication operator (the true supremum is 1/sqrt(3))."""
        return float(np.max(np.abs(self._pulse_derivative)))
