"""Spectrum of the linearized operator: classification, projection, propagation.

The discretized linearization L(sigma) is a symmetric matrix (spectral
second derivative plus a multiplication potential).  At a base point where
its potential is even, such as sigma = 0 for the even pulse on the centred
grid, L commutes with the reflection x -> -x, and ``decompose`` solves its
even and odd blocks apart; elsewhere it solves the whole matrix.  For the
pulse model its lowest eigenvalues are known in closed form through the
solvable sech^2-potential Schroedinger problem: -d^2/dx^2 - 3 sech^2(x/2) + 1 has
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

#: The classification thresholds of ``decompose`` and of the configuration's
#: ``spectral`` section: eigenvalues below -DEFAULT_GAP_THRESHOLD are
#: unstable, those within DEFAULT_ZERO_TOL of 0 are zero modes.
DEFAULT_GAP_THRESHOLD = 0.1
DEFAULT_ZERO_TOL = 5e-3


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
              gap_threshold: float = DEFAULT_GAP_THRESHOLD,
              zero_tol: float = DEFAULT_ZERO_TOL) -> SpectralData:
    """Symmetric eigendecomposition of L(sigma) with mode classification.

    The eigenpairs come from ``_eigh``: two half-size solves, of the even
    and the odd block, when the assembled matrix equals its reflection
    bitwise, and one dense solve otherwise.  Eigenvectors are
    weak-orthonormalized and deterministically oriented (largest-magnitude
    entry positive).  Classification: eigenvalues below -gap_threshold are
    unstable, those within zero_tol of 0 are zero modes, the rest are
    stable.

    Raises
    ------
    ClassificationError
        Unless there is exactly one zero mode (the translation chart is
        one-dimensional) and one unstable mode, or if an eigenvalue falls in
        the ambiguous band between -gap_threshold and -zero_tol; it
        carries the eigenvalues as ``eigenvalues``.
    """
    eigenvalues, vectors = _eigh(assemble_operator(model, sigma))
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

    def refused(msg, table=True):
        if table:
            head = ", ".join(f"{v:.6g}" for v in eigenvalues[:6])
            msg = f"{msg} (lowest eigenvalues: {head}, ...)"
        error = ClassificationError(msg)
        error.eigenvalues = eigenvalues
        return error

    if len(zero) != 1 or len(unstable) != 1:
        raise refused(
            f"expected one zero and one unstable mode, found {len(zero)} "
            f"and {len(unstable)}"
        )
    if len(ambiguous) > 0:
        raise refused("eigenvalue in the ambiguous band below -zero_tol")

    mask = np.ones(grid.n, dtype=bool)
    mask[unstable] = False
    mask[zero] = False
    stable = np.flatnonzero(mask)

    tangent = GridField(model.frame(sigma)[1], grid)
    overlap = abs(grid.inner_values(tangent.values, vectors[:, zero[0]]))
    if overlap < 1.0 - 1e-4:
        raise refused(
            f"numerical zero mode misaligned with the family tangent "
            f"(overlap {overlap:.6f})", table=False
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


def _eigh(operator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in ascending order and Euclidean-orthonormal eigenvector
    columns of the symmetric n x n ``operator``, n even, as ``np.linalg.eigh``
    gives them.

    Where the operator equals its reflection R, the index map j -> -j mod n
    (x -> -x on the centred grid), entry for entry, it commutes with R and
    is solved on R's two eigenspaces apart.  The even block, of n/2 + 1 rows,
    is the operator on e_0, (e_j + e_-j) / sqrt(2) for 0 < j < n/2 and
    e_n/2, the points R fixes; the odd block, of n/2 - 1 rows, the operator
    on (e_j - e_-j) / sqrt(2).  Each is symmetric entrywise, as the operator
    is.  A dense solve costs about n^3, so the two cost about a quarter of
    one, and each carries the backward error of its half-size problem.  The
    eigenvectors are mapped back with their parity bitwise, and the two
    spectra merged by a stable sort, the even eigenvalue first on a tie.
    """
    n = len(operator)
    half = n // 2
    mirror = -np.arange(n) % n
    # R A R [i, k] = A[-i, -k]: row and column 0 map to themselves, and the
    # rest of the matrix to its reverse in both axes, a view.
    if not (np.array_equal(operator[0], operator[0, mirror])
            and np.array_equal(operator[:, 0], operator[mirror, 0])
            and np.array_equal(operator[1:, 1:], operator[:0:-1, :0:-1])):
        return np.linalg.eigh(operator)
    # With A = R A R, <e_a + e_-a, A (e_b + e_-b)> / 2 = A[a, b] + A[a, -b]
    # for 0 < a, b < n/2; the basis vector e_a of a point a that R fixes
    # takes a factor 1 / sqrt(2) of that sum, which has A[a, b] twice.
    root = np.sqrt(0.5)
    head = operator[:half + 1]
    even = head[:, :half + 1] + head[:, mirror[:half + 1]]
    even[[0, half]] *= root
    even[:, [0, half]] *= root
    odd = head[1:half, 1:half] - head[1:half, mirror[1:half]]
    even_values, even_vectors = np.linalg.eigh(even)
    odd_values, odd_vectors = np.linalg.eigh(odd)
    even_vectors[1:half] *= root
    odd_vectors *= root
    vectors = np.zeros((n, n))
    vectors[:half + 1, :half + 1] = even_vectors
    vectors[half + 1:, :half + 1] = even_vectors[half - 1:0:-1]
    vectors[1:half, half + 1:] = odd_vectors
    vectors[half + 1:, half + 1:] = -odd_vectors[::-1]
    eigenvalues = np.concatenate((even_values, odd_values))
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], vectors[:, order]


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
    Times must be finite and nonnegative.

    The weights exp(-lam_k t_j) c_k, with c_k = <v, e_k>, enter the product
    with the basis with no subnormal among them (``_stable_weights``):
    subnormal operands put numpy's exp and the BLAS product on slow paths.
    Where -t_j lam_k < ln(tiny / |c_k|) - 1, tiny the smallest normal
    double, the weight is below tiny / e, so its exp is skipped and the
    weight left +0.0; after the product with c every weight below tiny is
    flushed to +0.0.  Every kept weight is the plain formula's, including
    a subnormal exp that a large |c_k| lifts back into the normal range.
    A flushed term is below tiny, under half an ulp of any sum above about
    2^53 tiny (2e-292), so it moves no bit of a row whose sums stay above
    that: on the program's fields and horizons (t <= 30) the rows are
    bitwise those of (exp(-t lam) * c) @ basis.T.  Only rows within about
    n * tiny of zero can differ, such as rows whose weights all underflow
    (t > 944 at the gap 3/4).
    """
    times = np.asarray(times, dtype=float)
    refused = ~((times >= 0) & (times < np.inf))
    if np.any(refused):
        raise ValueError("propagation times must be finite and nonnegative, "
                         f"got {times[refused]}")
    grid = spectrum.grid
    lam, basis = spectrum.stable_basis
    coeff = grid.spacing * (basis.T @ v.values)
    return _stable_weights(lam, coeff, times) @ basis.T


def _stable_weights(lam: np.ndarray, coeff: np.ndarray,
                    times: np.ndarray) -> np.ndarray:
    """The weights exp(-t_j lam_k) c_k of ``propagate_stable_batch``, with
    every weight below the smallest normal double set to +0.0; a zero c_k
    skips its whole column and a NaN one keeps it."""
    tiny = np.finfo(float).tiny
    # A kept weight is at most |c_k|; only a skipped entry, still holding
    # its exponent, can overflow in the product with c, and it is zeroed.
    with np.errstate(divide="ignore", over="ignore"):
        floor = np.log(tiny) - 1.0 - np.log(np.abs(coeff))
        weights = np.multiply.outer(-times, lam)
        skip = weights < floor
        np.exp(weights, out=weights, where=~skip)
        weights *= coeff
    skip |= np.abs(weights) < tiny
    weights[skip] = 0.0
    return weights


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
    envelope = np.exp(-0.7 * times)
    for _ in range(20):
        raw = smooth_noise(grid, rng, 4.0)
        weak0 = grid.weak_norm_values(raw)
        fields = propagate_stable_batch(spectrum, GridField(raw, grid), times)
        strongs = grid.strong_norm_values(fields)
        c2 = max(c2, float(np.max(strongs / (envelope * weak0))))
        slope = np.polyfit(times[fit_mask], np.log(strongs[fit_mask]), 1)[0]
        rates.append(float(slope))
    return c2, float(np.mean(rates))
