"""Uniform periodic grid, spectral derivative operators, and grid fields.

The computational domain is [-L, L) sampled at n equispaced points, x_j =
h (j - n/2) for j = 0, ..., n - 1, so that x_{-j} = -x_j exactly.  All
derivatives are Fourier-spectral: the first- and second-derivative operators
are diagonal in the discrete Fourier basis, and their dense matrix
representations are circulants assembled so that D2 is exactly symmetric and
D exactly antisymmetric entrywise.  Spectral differentiation keeps the
stationarity and zero-mode residuals of smooth profiles at the level required
by the acceptance tolerances, which low-order finite differences cannot reach
at n = 256.

Norm conventions: ``weak_norm`` is the discrete L2 norm sqrt(h * sum v^2)
(the ambient-space norm), ``strong_norm`` is the discrete H1 norm
sqrt(weak^2 + weak(Dv)^2) (the stronger norm on the smoother subspace), with
D the spectral first derivative, which zeroes the Nyquist mode.  The strong
norm is evaluated by Parseval on one rfft, sum_k w_k |vhat_k|^2 with the
weights of ``parseval_weights``; no derivative is formed, and the Nyquist
mode counts in the weak part only, as D's convention says.

Every transform in the program calls scipy's binding of pocketfft, the
class attributes ``PeriodicGrid.r2c`` and ``c2r``, so patching them swaps
them all: through ``rfft`` and ``irfft``, or from the solver's step kernel.
It runs the C++ code of ``np.fft.rfft`` and ``irfft`` with their scales,
into outputs in their layout (the input's stride order, which sets the
order of later sums), so it gives their bits without numpy's per-call
costs.  Its arguments go by position: input, axes, the inverse's length,
direction, scale (0 none, 2 by 1/n), output, threads.  Its extension module
is loaded from its file, as the ``scipy.fft`` package around it would
import ``scipy.special`` and more (README, Installation).

The grid also owns the other native binding: importing it sets the OpenBLAS
that numpy loaded to one thread, through that library's own
``*_set_num_threads*`` symbol, for the whole process and before the
package's first BLAS call (the package root imports this module).  One
thread gives ``eigh`` and the dense products the same bits on every host,
whatever its cores, and spares a fresh process the cold start of the
thread pool.  A numpy without those symbols (another BLAS build) runs
unpinned; ``blas_info`` reads back what the process runs with.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field

import numpy as np
import scipy
from numpy.lib.stride_tricks import sliding_window_view

#: The default grid, owned here: ``PeriodicGrid()`` and the configuration's
#: ``model`` section both take it.  At its k_max = 20.1 the pulse spectrum,
#: which falls as e^(-pi k), is down to about e^-63, and the narrowest
#: fields the program draws, cutoff-4 ``smooth_noise``, to e^-25; half as
#: many points leave that noise 1.8e-3 at the Nyquist mode.  Between 256,
#: 512 and 1024 points the shooting root moves by no more than the
#: transforms' round-off (tests/test_grid_convergence.py).
DEFAULT_N_POINTS = 256
DEFAULT_HALF_LENGTH = 20.0


def _pocketfft_transforms():
    """``r2c`` and ``c2r`` of scipy's pocketfft extension, from its file."""
    where = os.path.join(os.path.dirname(scipy.__file__), "fft", "_pocketfft")
    spec = importlib.machinery.PathFinder.find_spec("pypocketfft", [where])
    if spec is None:
        raise ImportError(f"no pocketfft extension module in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.r2c, module.c2r


def _pin_openblas():
    """Set the OpenBLAS that numpy loaded to one thread; (its build string,
    its thread-count getter), or None where no library in numpy's wheel
    directory has the OpenBLAS symbols."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    config, get, set_threads = (
                        getattr(lib, f"{prefix}_{name}{suffix}") for name in
                        ("get_config", "get_num_threads", "set_num_threads"))
                except AttributeError:
                    continue
                config.argtypes, config.restype = [], ctypes.c_char_p
                get.argtypes, get.restype = [], ctypes.c_int
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                set_threads(1)
                return config().decode(), get
    return None


_OPENBLAS = _pin_openblas()


def blas_info() -> dict:
    """The build string and thread count of the OpenBLAS numpy loaded, the
    count read back from the library; both None without its symbols."""
    if _OPENBLAS is None:
        return {"config": None, "threads": None}
    config, threads = _OPENBLAS
    return {"config": config, "threads": threads()}


class PeriodicGrid:
    """Equispaced periodic grid on [-half_length, half_length).

    Parameters
    ----------
    n : int
        Number of samples; must be even and at least 16.
    half_length : float
        Half-width of the periodic domain.
    """

    #: The transforms' binding (module docstring), read from the class.
    r2c, c2r = _pocketfft_transforms()

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
        # Centred on index n/2, so that x[-j] = -x[j] bitwise: the reflection
        # x -> -x is j -> -j mod n, and ``spectral.decompose`` splits an
        # operator that commutes with it.  On the default grid these are
        # bitwise the points -L + h j.
        self.x = self.spacing * (np.arange(self.n) - self.n // 2)
        # 2 pi np.fft.rfftfreq(n, spacing); the last is the Nyquist mode.
        self.wavenumbers = 2.0 * np.pi * (np.arange(self.n // 2 + 1)
                                          * (1.0 / (self.n * self.spacing)))
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

    # -- transforms -----------------------------------------------------------
    def rfft(self, values) -> np.ndarray:
        """``np.fft.rfft`` along the last axis, bitwise and in its layout."""
        values = np.asarray(values, dtype=float)
        out = np.empty_like(values, complex,
                            shape=values.shape[:-1] + (self.n // 2 + 1,))
        return PeriodicGrid.r2c(values, (-1,), True, 0, out, 1)

    def irfft(self, vhat) -> np.ndarray:
        """``np.fft.irfft`` to n points along the last axis, likewise."""
        vhat = np.asarray(vhat, dtype=complex)
        out = np.empty_like(vhat, float, shape=vhat.shape[:-1] + (self.n,))
        return PeriodicGrid.c2r(vhat, (-1,), self.n, False, 2, out, 1)

    # -- spectral operators on raw arrays ------------------------------------
    def first_derivative_values(self, values: np.ndarray) -> np.ndarray:
        """Spectral first derivative; Nyquist mode is zeroed (odd operator)."""
        vhat = self.rfft(values)
        vhat *= 1j * self.wavenumbers
        vhat[..., -1] = 0.0
        return self.irfft(vhat)

    def second_derivative_values(self, values: np.ndarray) -> np.ndarray:
        """Spectral second derivative."""
        vhat = self.rfft(values)
        vhat *= -self.wavenumbers**2
        return self.irfft(vhat)

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
        return self.apply_phases(self.rfft(values), self.shift_phases(s_arr))

    def shift_phases(self, s, out: tuple | None = None) -> np.ndarray:
        """The rfft phase table of a translation by s: exp(-i k s) per mode.

        A scalar s gives one row, an array of shifts one row per shift; the
        Nyquist entry is cos(k_nyq * s) so shifted fields stay real.  Every
        row is bitwise the table of its own scalar shift.  The table is
        filled as cos(k s) - i sin(k s), the value np.exp(-1j * k * s) gives
        without evaluating exp of the zero real parts; subtracting from 0.0
        keeps the zero imaginary parts positive, as np.exp leaves them.
        With ``out``, buffers from ``phase_buffers``, the table of a scalar
        s is formed in them, and the returned table is theirs.
        """
        if out is None:
            ks = self.wavenumbers * np.asarray(s, dtype=float)[..., None]
            phase = np.empty(ks.shape, complex)
            real, imag = phase.real, phase.imag
        else:
            ks, phase, real, imag = out
            np.multiply(self.wavenumbers, s, ks)
        np.cos(ks, real)
        np.subtract(0.0, np.sin(ks, imag), imag)
        imag[..., -1] = 0.0
        return phase

    def phase_buffers(self) -> tuple:
        """Buffers for the ``shift_phases`` table of one scalar shift at a
        time, which a caller making many keeps: k s, and the table with
        views of its real and imaginary parts."""
        ks = np.empty(self.n // 2 + 1)
        phase = np.empty(self.n // 2 + 1, complex)
        return ks, phase, phase.real, phase.imag

    def apply_phases(self, vhat: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """Grid values of the rfft coefficients ``vhat`` times ``phases``."""
        return self.irfft(vhat * phases)

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
        parts = self.rfft(values).view(np.float64)
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
            # The circulant as a copy of a strided window view, as
            # scipy.linalg.circulant builds it: row i is col rolled by i.
            self._dense_cache["d2"] = sliding_window_view(
                np.concatenate((col[::-1], col[:0:-1])), self.n)[::-1].copy()
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
    return grid.irfft(
        grid.rfft(raw) * np.exp(-((grid.wavenumbers / cutoff) ** 2)))
