"""Uniform periodic grid, spectral derivative operators, and grid fields.

The computational domain is [-L, L) sampled at n equispaced points.  All
derivatives are Fourier-spectral: the first- and second-derivative operators
are diagonal in the discrete Fourier basis, and their dense matrix
representations are circulants assembled so that D2 is exactly symmetric and
D exactly antisymmetric entrywise.  Spectral differentiation keeps the
stationarity and zero-mode residuals of smooth profiles at the level required
by the acceptance tolerances, which low-order finite differences cannot reach
at n = 512.

Norm conventions: ``weak_norm`` is the discrete L2 norm sqrt(h * sum v^2)
(the ambient-space norm), ``strong_norm`` is the discrete H1 norm
sqrt(weak^2 + weak(Dv)^2) (the stronger norm on the smoother subspace), with
D the spectral first derivative, which zeroes the Nyquist mode.  The strong
norm is evaluated by Parseval on one rfft, sum_k w_k |vhat_k|^2 with the
weights of ``parseval_weights``; no derivative is formed, and the Nyquist
mode counts in the weak part only, as D's convention says.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

#: The default grid, owned here: ``PeriodicGrid()`` and the configuration's
#: ``model`` section both take it.  The pulse spectrum is down to about
#: e^-125 at the k_max = 40 of 512 points, and between 256, 512 and 1024
#: points the shooting root moves by no more than the transforms' round-off
#: (tests/test_grid_convergence.py).
DEFAULT_N_POINTS = 512
DEFAULT_HALF_LENGTH = 20.0


class PeriodicGrid:
    """Equispaced periodic grid on [-half_length, half_length).

    Parameters
    ----------
    n : int
        Number of samples; must be even and at least 16.
    half_length : float
        Half-width of the periodic domain.
    """

    def __init__(self, n: int = DEFAULT_N_POINTS,
                 half_length: float = DEFAULT_HALF_LENGTH):
        if n < 16 or n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 16, got {n}")
        if not 0 < 2.0 * half_length < np.inf:
            raise ValueError("half_length must be positive, with a finite "
                             "domain width")
        self.n = int(n)
        self.half_length = float(half_length)
        self.spacing = 2.0 * self.half_length / self.n
        self.x = -self.half_length + self.spacing * np.arange(self.n)
        # rfft wavenumbers; the last entry is the Nyquist mode.
        self.wavenumbers = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.spacing)
        # Parseval weights on the interleaved parts of an rfft (see
        # ``parseval_weights``), built once and shared read-only.
        weak = np.full(self.n // 2 + 1, 2.0 * self.spacing / self.n)
        weak[0] *= 0.5
        weak[-1] *= 0.5
        k2 = self.wavenumbers**2
        k2[-1] = 0.0
        self._parseval = (np.repeat(weak, 2), np.repeat(weak * (1.0 + k2), 2))
        for weights in self._parseval:
            weights.setflags(write=False)
        self._dense_cache: dict[str, np.ndarray] = {}

    # -- identity -----------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, PeriodicGrid)
            and other.n == self.n
            and other.half_length == self.half_length
        )

    def __hash__(self):
        return hash((self.n, self.half_length))

    def __repr__(self):
        return f"PeriodicGrid(n={self.n}, half_length={self.half_length})"

    # -- spectral operators on raw arrays ------------------------------------
    def first_derivative_values(self, values: np.ndarray) -> np.ndarray:
        """Spectral first derivative; Nyquist mode is zeroed (odd operator)."""
        vhat = np.fft.rfft(values, axis=-1)
        vhat *= 1j * self.wavenumbers
        vhat[..., -1] = 0.0
        return np.fft.irfft(vhat, self.n, axis=-1)

    def second_derivative_values(self, values: np.ndarray) -> np.ndarray:
        """Spectral second derivative."""
        vhat = np.fft.rfft(values, axis=-1)
        vhat *= -self.wavenumbers**2
        return np.fft.irfft(vhat, self.n, axis=-1)

    def shift_values(self, values: np.ndarray, s) -> np.ndarray:
        """Translate by s via Fourier phases, exact for band-limited fields.

        ``s`` may be a scalar (values is one field) or an array of shifts
        (one output row per shift of a single input field).  The Nyquist mode
        is multiplied by cos(k_nyq * s) so the output stays real.  A zero
        scalar shift is the exact identity, not an FFT round-trip.
        """
        s_arr = np.asarray(s, dtype=float)
        if s_arr.ndim == 0 and s_arr == 0.0:
            return np.array(values, dtype=float, copy=True)
        return self.apply_phases(np.fft.rfft(values, axis=-1),
                                 self.shift_phases(s_arr))

    def shift_phases(self, s) -> np.ndarray:
        """The rfft phase table of a translation by s: exp(-i k s) per mode.

        A scalar s gives one row, an array of shifts one row per shift; the
        Nyquist entry is cos(k_nyq * s) so shifted fields stay real.  Every
        row is bitwise the table of its own scalar shift.  The table is
        filled as cos(k s) - i sin(k s), the value np.exp(-1j * k * s) gives
        without evaluating exp of the zero real parts; subtracting from 0.0
        keeps the zero imaginary parts positive, as np.exp leaves them.
        """
        ks = self.wavenumbers * np.asarray(s, dtype=float)[..., None]
        phase = np.empty(ks.shape, complex)
        np.cos(ks, out=phase.real)
        np.subtract(0.0, np.sin(ks, out=phase.imag), out=phase.imag)
        phase.imag[..., -1] = 0.0
        return phase

    def apply_phases(self, vhat: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """Grid values of the rfft coefficients ``vhat`` times ``phases``."""
        return np.fft.irfft(vhat * phases, self.n, axis=-1)

    # -- norms on raw arrays --------------------------------------------------
    def inner_values(self, u: np.ndarray, v: np.ndarray):
        """Weak (discrete L2) inner product h * sum(u v) along the last axis."""
        return self.spacing * np.sum(u * v, axis=-1)

    def weak_norm_values(self, values: np.ndarray):
        return np.sqrt(self.spacing * np.sum(values**2, axis=-1))

    def strong_norm_values(self, values: np.ndarray):
        """Strong norm along the last axis by Parseval on one rfft:
        sqrt(sum_k w_k |vhat_k|^2) with the strong ``parseval_weights``,
        which count the Nyquist mode without its k^2 (D zeroes it)."""
        parts = np.fft.rfft(np.asarray(values, dtype=float),
                            axis=-1).view(np.float64)
        return np.sqrt(np.square(parts, out=parts) @ self._parseval[1])

    def parseval_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights (weak, strong) with norm^2 = parts . (weights * parts),
        where parts are the interleaved real and imaginary parts of rfft(v),
        ``rfft(v).view(np.float64)``; the arrays are the grid's own and
        read-only.

        By Parseval, h * sum(v^2) = (h / n) * sum_k m_k |vhat_k|^2, where
        rfft stores each conjugate pair once (m_k = 2) and the mean and
        Nyquist modes alone (m_k = 1).  The strong weights add k^2 on every
        mode but the Nyquist one, which ``first_derivative_values`` zeroes.
        """
        return self._parseval

    # -- dense operators ------------------------------------------------------
    def dense_second_derivative(self) -> np.ndarray:
        """Dense spectral second-derivative matrix, symmetric entrywise.

        The circulant column is symmetrized explicitly so that round-off in
        the inverse FFT cannot break entrywise symmetry of the assembled
        operator (orthogonal eigenvectors require an exactly symmetric
        matrix).
        """
        if "d2" not in self._dense_cache:
            e0 = np.zeros(self.n)
            e0[0] = 1.0
            col = self.second_derivative_values(e0)
            col = 0.5 * (col + col[(self.n - np.arange(self.n)) % self.n])
            self._dense_cache["d2"] = scipy.linalg.circulant(col)
        return self._dense_cache["d2"]


@dataclass
class GridField:
    """A real scalar field sampled on a periodic grid.

    ``values`` plays the state u; the weak norm is the ambient-space norm and
    the strong norm the smoother-subspace norm (see module docstring).
    """

    values: np.ndarray
    grid: PeriodicGrid = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"field shape {self.values.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite samples")

    @property
    def n(self) -> int:
        return self.grid.n

    # -- norms and calculus ----------------------------------------------------
    def weak_norm(self) -> float:
        return float(self.grid.weak_norm_values(self.values))

    def strong_norm(self) -> float:
        return float(self.grid.strong_norm_values(self.values))

    def inner(self, other: "GridField | np.ndarray") -> float:
        other_values = other.values if isinstance(other, GridField) else other
        return float(self.grid.inner_values(self.values, other_values))

    def copy(self) -> "GridField":
        return GridField(self.values.copy(), self.grid)


def zero_field(grid: PeriodicGrid) -> GridField:
    return GridField(np.zeros(grid.n), grid)


def smooth_noise(grid: PeriodicGrid, rng: np.random.Generator,
                 cutoff: float) -> np.ndarray:
    """One standard normal draw on the grid, low-passed by exp(-(k/cutoff)^2).

    Each call consumes exactly one draw of ``grid.n`` normals from ``rng``.
    """
    raw = rng.standard_normal(grid.n)
    return np.fft.irfft(
        np.fft.rfft(raw) * np.exp(-((grid.wavenumbers / cutoff) ** 2)), grid.n
    )
