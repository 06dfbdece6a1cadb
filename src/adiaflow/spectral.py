"""Spectrum of the linearized operator: classification, projection, propagation.

The discretized linearization L(sigma) is a dense symmetric matrix (spectral
second derivative plus a multiplication potential).  For the pulse model its
lowest eigenvalues are known in closed form through the solvable
sech^2-potential Schroedinger problem: -d^2/dx^2 - 3 sech^2(x/2) + 1 has
discrete eigenvalues 1 - (3 - k)^2 / 4 for k = 0, 1, 2, i.e. -5/4, 0, 3/4,
with the continuum starting at 1.  The negative mode is the unstable
direction, the zero mode is the symmetry tangent, and everything else decays
under the linear flow exp(-tL) with rate at least ~3/4.

The numerical near-zero eigenvector is replaced by the analytic normalized
family tangent in every projection, which keeps the modulation orthogonality
constraint and the spectral stable range consistent to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ClassificationError
from .grid import GridField, smooth_noise
from .model import PulseModel


@dataclass
class SpectralData:
    """Full eigendecomposition of L(sigma) with mode classification.

    ``eigenvectors`` holds weak-orthonormal columns (h-weighted inner
    product).  ``zero_mode_analytic`` is the normalized family tangent and is
    what projections actually remove along the zero direction.
    """

    base_point: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)
    unstable_indices: np.ndarray
    zero_indices: np.ndarray
    stable_indices: np.ndarray
    zero_mode_analytic: GridField = field(repr=False)
    model: PulseModel = field(repr=False)

    @property
    def grid(self):
        return self.model.grid

    @property
    def unstable_eigenvalue(self) -> float:
        """The single negative eigenvalue of the reference model."""
        return float(self.eigenvalues[self.unstable_indices[0]])

    @property
    def unstable_mode(self) -> np.ndarray:
        """Weak-normalized unstable eigenvector (sech^3-shaped)."""
        return self.eigenvectors[:, self.unstable_indices[0]]

    @property
    def spectral_gap(self) -> float:
        """Smallest stable eigenvalue (decay rate of the stable flow)."""
        return float(np.min(self.eigenvalues[self.stable_indices]))

    @cached_property
    def stable_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvector columns) of the stable range, copied out
        once per decomposition and shared read-only by every caller."""
        lam = self.eigenvalues[self.stable_indices]
        basis = self.eigenvectors[:, self.stable_indices]
        lam.flags.writeable = False
        basis.flags.writeable = False
        return lam, basis


def assemble_operator(model: PulseModel, sigma: float) -> np.ndarray:
    """Dense symmetric matrix of L(sigma) = -D2 + diag(1 - 2 f(sigma)).

    The spectral D2 block is an exactly symmetric circulant and the potential
    is diagonal, so the assembled matrix is symmetric entrywise without any
    post-hoc symmetrization.
    """
    grid = model.grid
    operator = -grid.dense_second_derivative().copy()
    fvals = model.family(sigma).values
    idx = np.arange(grid.n)
    operator[idx, idx] += 1.0 - 2.0 * fvals
    return operator


def operator_norm_diagnostic(spectrum: "SpectralData") -> float:
    """c1: the measured norm of L from the strong norm to the weak norm.

    For a weak-normalized eigenvector e with eigenvalue lam the ratio
    ||L e||_weak / ||e||_strong equals |lam| / sqrt(1 + ||De||_weak^2); the
    diagnostic is the maximum of that ratio over all modes.
    """
    grid = spectrum.grid
    dv = grid.first_derivative_values(spectrum.eigenvectors.T)
    strong_sq = 1.0 + grid.spacing * np.sum(dv**2, axis=-1)
    return float(np.max(np.abs(spectrum.eigenvalues) / np.sqrt(strong_sq)))


def decompose(model: PulseModel, sigma: float,
              gap_threshold: float = 0.1, zero_tol: float = 5e-3) -> SpectralData:
    """Symmetric eigendecomposition of L(sigma) with mode classification.

    Eigenvectors are weak-orthonormalized and deterministically oriented
    (largest-magnitude entry positive).  Classification: eigenvalues below
    -gap_threshold are unstable, those within zero_tol of 0 are zero modes,
    the rest are stable.

    Raises
    ------
    ClassificationError
        Unless there is exactly one zero mode (the translation chart is
        one-dimensional) and one unstable mode, or if an eigenvalue falls in
        the ambiguous band between -gap_threshold and -zero_tol.
    """
    operator = assemble_operator(model, sigma)
    eigenvalues, vectors = np.linalg.eigh(operator)
    grid = model.grid
    # weak orthonormalization: columns come back Euclidean-orthonormal.
    vectors = vectors / np.sqrt(grid.spacing)
    # deterministic orientation
    peak = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[peak, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors = vectors * signs[None, :]

    unstable = np.flatnonzero(eigenvalues < -gap_threshold)
    zero = np.flatnonzero(np.abs(eigenvalues) <= zero_tol)
    ambiguous = np.flatnonzero(
        (eigenvalues >= -gap_threshold) & (eigenvalues < -zero_tol)
    )

    def table(msg):
        head = ", ".join(f"{v:.6g}" for v in eigenvalues[:6])
        return f"{msg} (lowest eigenvalues: {head}, ...)"

    if len(zero) != 1 or len(unstable) != 1:
        raise ClassificationError(table(
            f"expected one zero and one unstable mode, found {len(zero)} "
            f"and {len(unstable)}"
        ))
    if len(ambiguous) > 0:
        raise ClassificationError(
            table("eigenvalue in the ambiguous band below -zero_tol")
        )

    mask = np.ones(grid.n, dtype=bool)
    mask[unstable] = False
    mask[zero] = False
    stable = np.flatnonzero(mask)

    tangent = model.family_tangent(sigma)
    overlap = abs(grid.inner_values(tangent.values, vectors[:, zero[0]]))
    if overlap < 1.0 - 1e-4:
        raise ClassificationError(
            f"numerical zero mode misaligned with the family tangent "
            f"(overlap {overlap:.6f})"
        )

    return SpectralData(
        base_point=float(sigma),
        eigenvalues=eigenvalues,
        eigenvectors=vectors,
        unstable_indices=unstable,
        zero_indices=zero,
        stable_indices=stable,
        zero_mode_analytic=tangent,
        model=model,
    )


def project_stable(spectrum: SpectralData, v: GridField) -> GridField:
    """Remove the analytic zero mode and the unstable mode from v."""
    grid = spectrum.grid
    values = v.values.copy()
    tangent = spectrum.zero_mode_analytic.values
    values -= grid.inner_values(values, tangent) * tangent
    mode = spectrum.unstable_mode
    values -= grid.inner_values(values, mode) * mode
    return GridField(values, grid)


def propagate_stable_batch(spectrum: SpectralData, v: GridField,
                           times: np.ndarray) -> np.ndarray:
    """Rows of exp(-t_j L) P_S v for all sample times at once.

    Each row is the eigenexpansion sum over stable modes of
    exp(-lam_k t_j) <v, e_k> e_k, exact up to the eigendecomposition itself,
    so propagator measurements are not polluted by time-integration error.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("propagation time must be nonnegative")
    grid = spectrum.grid
    lam, basis = spectrum.stable_basis
    coeff = grid.spacing * (basis.T @ v.values)
    weights = np.exp(-times[:, None] * lam[None, :]) * coeff[None, :]
    return weights @ basis.T


def verify_operator_lipschitz(model: PulseModel, sigma: float,
                              sigma_p: float, seed: int = 7) -> float:
    """Measured ratio ||(L(sigma) - L(sigma')) v|| / ||v|| / |sigma - sigma'|.

    The operator difference is multiplication by 2 (f(sigma') - f(sigma)), so
    the ratio is bounded by 2 sup|phi'| as the points approach each other.
    The largest ratio over 8 smooth random probes is reported; d = 0
    returns 0 by convention.
    """
    dist = abs(sigma - sigma_p)
    if dist == 0.0:
        return 0.0
    grid = model.grid
    diff = 2.0 * (model.family(sigma_p).values - model.family(sigma).values)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(8):
        smooth = smooth_noise(grid, rng, 4.0)
        ratio = grid.weak_norm_values(diff * smooth) / grid.weak_norm_values(smooth)
        worst = max(worst, float(ratio))
    return worst / dist


def measure_propagator_constant(spectrum: SpectralData,
                                seed: int = 11) -> tuple[float, float]:
    """Empirical propagator envelope on the stable range.

    Returns (c2, rate): c2 is the supremum over probes and the times
    0, 0.1, ..., 10 of strong_norm(exp(-tL) P_S v) / (exp(-0.7 t) weak_norm(v)),
    and rate is the least-squares slope of log strong_norm over t in [1, 10],
    averaged over probes.  The 20 probes are smooth band-limited noise, as
    rough probes would inflate c2 near t = 0 through the strong/weak norm
    mismatch without changing the decay rate.
    """
    grid = spectrum.grid
    times = np.linspace(0.0, 10.0, 101)
    rng = np.random.default_rng(seed)
    c2 = 0.0
    rates = []
    fit_mask = times >= 1.0
    for _ in range(20):
        raw = smooth_noise(grid, rng, 4.0)
        weak0 = grid.weak_norm_values(raw)
        fields = propagate_stable_batch(spectrum, GridField(raw, grid), times)
        strongs = grid.strong_norm_values(fields)
        c2 = max(c2, float(np.max(strongs / (np.exp(-0.7 * times) * weak0))))
        slope = np.polyfit(times[fit_mask], np.log(strongs[fit_mask]), 1)[0]
        rates.append(float(slope))
    return c2, float(np.mean(rates))
