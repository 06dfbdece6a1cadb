"""Linearized operator: classification, closed-form eigenvalues, semigroup."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adiaflow import spectral
from adiaflow.errors import ClassificationError
from adiaflow.grid import GridField, PeriodicGrid, smooth_noise, zero_field
from adiaflow.model import PulseModel
from adiaflow.paths import time_mesh
from adiaflow.presets import preset_field
from adiaflow.spectral import (
    assemble_operator,
    decompose,
    measure_propagator_constant,
    operator_norm_diagnostic,
    project_stable,
    propagate_stable_batch,
    verify_operator_lipschitz,
)


def _stable_noise(spectrum, grid, seed):
    rng = np.random.default_rng(seed)
    return project_stable(spectrum, GridField(rng.standard_normal(grid.n), grid))


def test_classification_counts(spectrum, grid):
    assert len(spectrum.unstable_indices) == 1
    assert len(spectrum.zero_indices) == 1
    assert len(spectrum.stable_indices) == grid.n - 2
    assert spectrum.zero_mode_analytic


def test_closed_form_eigenvalues(spectrum):
    ev = spectrum.eigenvalues
    assert ev[0] == pytest.approx(-1.25, abs=1e-10)
    assert abs(ev[1]) <= 1e-10
    assert ev[2] == pytest.approx(0.75, abs=1e-6)
    assert spectrum.unstable_eigenvalue == pytest.approx(-1.25, abs=1e-10)
    assert spectrum.spectral_gap == pytest.approx(0.75, abs=1e-6)
    assert np.all(ev[2:] >= 0.745)


def test_near_edge_eigenvalues_pair_up(spectrum):
    ev = spectrum.eigenvalues
    assert ev[3] == pytest.approx(1.0092172, abs=1e-5)
    assert abs(ev[4] - ev[3]) <= 1e-6


def test_unstable_mode_is_the_cubed_secant(spectrum, grid):
    mode = 1.0 / np.cosh(grid.x / 2.0) ** 3
    mode /= grid.weak_norm_values(mode)
    assert abs(grid.inner_values(mode, spectrum.unstable_mode)) >= 1.0 - 1e-8


def test_bound_states_match_the_poschl_teller_closed_forms(spectrum, grid):
    """-d^2 + 1 - 3 sech^2(x/2) is reflectionless Poschl-Teller: its bound
    states are -5/4, 0 and 3/4, the lowest with eigenfunction sech^3(x/2).
    The third state decays like exp(-|x|/2), so on L = 20 its eigenvalue
    carries a wrap error of order exp(-L) (about 2.5e-8)."""
    ev = spectrum.eigenvalues
    assert abs(ev[0] + 1.25) <= 1e-11
    assert abs(ev[1]) <= 1e-11
    assert abs(ev[2] - 0.75) <= 1e-6
    mode = 1.0 / np.cosh(grid.x / 2.0) ** 3
    mode /= grid.weak_norm_values(mode)
    unstable = spectrum.unstable_mode
    unstable = np.sign(grid.inner_values(unstable, mode)) * unstable
    assert np.max(np.abs(unstable - mode)) <= 1e-11


def test_zero_mode_is_the_family_tangent(spectrum, grid, model):
    tangent = model.frame(0.0)[1]
    zero_mode = spectrum.eigenvectors[:, spectrum.zero_indices[0]]
    assert abs(grid.inner_values(zero_mode, tangent)) >= 1.0 - 1e-10


def test_eigenvectors_weak_orthonormal(spectrum, grid):
    vectors = spectrum.eigenvectors
    gram = grid.spacing * (vectors.T @ vectors)
    assert np.max(np.abs(gram - np.eye(vectors.shape[1]))) <= 1e-10


def test_eigen_residual(spectrum, model, grid):
    matrix = assemble_operator(model, 0.0)
    residual = (
        matrix @ spectrum.eigenvectors
        - spectrum.eigenvectors * spectrum.eigenvalues[None, :]
    )
    assert np.max(grid.weak_norm_values(residual.T)) <= 1e-8


def test_assembled_operator_symmetric(model):
    matrix = assemble_operator(model, 0.0)
    assert np.array_equal(matrix, matrix.T)


def test_operator_applied_to_constants(model, grid):
    matrix = assemble_operator(model, 0.0)
    image = matrix @ np.ones(grid.n)
    assert np.max(np.abs(image - (1.0 - 2.0 * model.profile.values))) <= 1e-10


def test_dense_and_spectral_application_agree(model, grid):
    matrix = assemble_operator(model, 0.0)
    rng = np.random.default_rng(3)
    rough = rng.standard_normal(grid.n)
    via_fft = model.linearized_apply(0.0, GridField(rough.copy(), grid))
    assert np.max(np.abs(matrix @ rough - via_fft.values)) <= 1e-10


def test_eigenvalues_do_not_depend_on_the_base_point(spectrum, model):
    shifted = np.linalg.eigvalsh(assemble_operator(model, 0.9))
    assert np.max(np.abs(shifted - spectrum.eigenvalues)) <= 1e-10


def test_decomposition_is_deterministic(spectrum, model):
    again = decompose(model, 0.0)
    assert np.array_equal(again.eigenvalues, spectrum.eigenvalues)
    assert np.array_equal(again.eigenvectors, spectrum.eigenvectors)


@pytest.fixture(scope="module", params=[192, 256, 1024])
def split_case(request):
    """At n points on [-20, 20): the model, the operator at sigma = 0, its
    decomposition and LAPACK's backward-error scale n eps max|lambda|."""
    model = PulseModel(PeriodicGrid(request.param))
    matrix = assemble_operator(model, 0.0)
    split = decompose(model, 0.0)
    scale = (request.param * np.finfo(float).eps
             * np.max(np.abs(split.eigenvalues)))
    return model, matrix, split, scale


def test_the_block_spectra_are_the_dense_spectrum(split_case):
    # Each of the two solves is backward stable for its block, and the
    # dense solve for the whole matrix, so they agree on the scale.
    _, matrix, split, scale = split_case
    dense = np.linalg.eigvalsh(matrix)
    assert np.max(np.abs(split.eigenvalues - dense)) <= scale
    assert np.all(np.diff(split.eigenvalues) >= 0.0)


def test_every_block_eigenpair_has_a_residual_on_the_scale(split_case):
    model, matrix, split, scale = split_case
    # The columns are weak-normalized: sqrt(h) makes them Euclidean units.
    unit = split.eigenvectors * np.sqrt(model.grid.spacing)
    residual = matrix @ unit - unit * split.eigenvalues
    assert np.max(np.linalg.norm(residual, axis=0)) <= scale
    gram = unit.T @ unit
    assert np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-13


def test_the_unstable_mode_is_even_and_the_zero_mode_odd(split_case):
    model, _, split, _ = split_case
    mirror = -np.arange(model.grid.n) % model.grid.n
    mode = split.unstable_mode
    zero = split.eigenvectors[:, split.zero_indices[0]]
    assert np.array_equal(mode[mirror].view(np.uint64), mode.view(np.uint64))
    # Exactly, which is bitwise but for the sign of the zeros at the two
    # points the reflection fixes.
    assert np.array_equal(-zero[mirror], zero)
    assert np.all(zero[[0, model.grid.n // 2]] == 0.0)


def test_an_even_operator_takes_two_half_size_solves(split_case,
                                                      monkeypatch):
    model, _, split, _ = split_case
    n = model.grid.n
    shapes = []
    eigh = np.linalg.eigh

    def spy(matrix, *args, **kwargs):
        shapes.append(matrix.shape)
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    again = decompose(model, 0.0)
    assert shapes == [(n // 2 + 1,) * 2, (n // 2 - 1,) * 2]
    assert np.array_equal(again.eigenvectors, split.eigenvectors)
    # Away from sigma = 0 the potential is not even: one dense solve.
    shapes.clear()
    decompose(model, 0.3)
    assert shapes == [(n, n)]


def test_classification_rejects_misconfigured_bands(model, spectrum):
    with pytest.raises(ClassificationError) as excinfo:
        decompose(model, 0.0, zero_tol=1e-16)
    # The refusal carries the eigenvalues it classified.
    assert np.array_equal(excinfo.value.eigenvalues, spectrum.eigenvalues)
    with pytest.raises(ClassificationError) as excinfo:
        decompose(model, 0.0, gap_threshold=2.0)
    assert np.array_equal(excinfo.value.eigenvalues, spectrum.eigenvalues)


def test_project_stable_annihilates_the_other_channels(spectrum, grid):
    projected = _stable_noise(spectrum, grid, 8)
    again = project_stable(spectrum, projected)
    assert np.max(np.abs(again.values - projected.values)) <= 1e-12
    assert abs(grid.inner_values(projected.values, spectrum.unstable_mode)) <= 1e-12
    # The projector removes the analytic tangent channel exactly; the
    # numerical kernel eigenvector differs from it at the eigensolver's
    # accuracy for a ~1e-13 eigenvalue, so it only vanishes to ~1e-8.
    assert abs(projected.inner(spectrum.zero_mode_analytic)) <= 1e-12
    zero_mode = spectrum.eigenvectors[:, spectrum.zero_indices[0]]
    assert abs(grid.inner_values(projected.values, zero_mode)) <= 1e-8


def test_propagate_stable_identity_decay_and_domain(spectrum, grid):
    # A pure combination of stable eigenvectors reproduces exactly at t = 0;
    # projected noise would differ at the zero-channel mismatch (~1e-9).
    coeffs = np.zeros(len(spectrum.eigenvalues))
    coeffs[spectrum.stable_indices[:40]] = np.random.default_rng(9).standard_normal(40)
    v = GridField(spectrum.eigenvectors @ coeffs, grid)
    times = np.array([0.0, 1.0, 5.0, 10.0])
    block = propagate_stable_batch(spectrum, v, times)
    assert np.max(np.abs(block[0] - v.values)) <= 1e-10
    for row, t in zip(block[1:], times[1:]):
        assert grid.weak_norm_values(row) <= np.exp(-0.745 * t) * v.weak_norm()
    with pytest.raises(ValueError):
        propagate_stable_batch(spectrum, v, np.array([0.0, -0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
def test_propagation_refuses_times_that_are_not_finite_and_nonnegative(
        spectrum, eta_bump, monkeypatch, bad):
    monkeypatch.setattr(spectral.np, "exp",
                        lambda *args, **kwargs: pytest.fail("exp ran"))
    with pytest.raises(ValueError, match=rf"got \[{bad}\]"):
        propagate_stable_batch(spectrum, eta_bump, np.array([0.0, bad, 1.0]))


#: The meshes the program propagates on: Picard's default mesh, the mesh
#: of criterion 9 and the ledger's propagator probe times.
MESHES = (time_mesh(), time_mesh(0.01, 4.0, 1.06, 30.0),
          np.linspace(0.0, 10.0, 101))
TINY = np.finfo(float).tiny


def _plain_weights(spectrum, v, times):
    lam, basis = spectrum.stable_basis
    coeff = spectrum.grid.spacing * (basis.T @ v.values)
    return np.exp(-times[:, None] * lam[None, :]) * coeff[None, :]


def _bumps_and_noise(spectrum, grid, rng, strength):
    """A seed made as the benchmark's constructions make theirs: smooth
    noise plus one to three Gaussian bumps, projected onto the stable range
    and scaled to the given strong norm."""
    modes = np.arange(1, 25)
    noise_hat = np.zeros(grid.n // 2 + 1, dtype=complex)
    noise_hat[modes] = (rng.standard_normal(len(modes))
                        + 1j * rng.standard_normal(len(modes))) / np.sqrt(modes)
    noise = grid.irfft(noise_hat)
    raw = rng.uniform(0.0, 1.0) * noise / np.max(np.abs(noise))
    for _ in range(rng.integers(1, 4)):
        centre, width = rng.uniform(-10.0, 10.0), rng.uniform(0.5, 3.0)
        raw += rng.choice((-1.0, 1.0)) * np.exp(
            -0.5 * ((grid.x - centre) / width) ** 2)
    stable = project_stable(spectrum, GridField(raw, grid))
    return GridField(strength / stable.strong_norm() * stable.values, grid)


SEED_KINDS = ("bump", "construct", "probe", "zero", "mode")


def _every_kind_on_every_mesh(test):
    for k, kind in enumerate(SEED_KINDS):
        for mesh in range(len(MESHES)):
            test = example(kind=kind, mesh=mesh, seed=k, strength=0.9,
                           mode=(0, 100, 253)[mesh],
                           decade=(-100, 100, 306)[mesh])(test)
    return test


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(SEED_KINDS),
       mesh=st.sampled_from(range(len(MESHES))),
       seed=st.integers(0, 2**32 - 1),
       strength=st.floats(0.2, 0.9),
       mode=st.integers(0, 253),
       decade=st.integers(-100, 306))
@_every_kind_on_every_mesh
def test_the_propagator_keeps_every_bit_of_the_plain_formula(
        spectrum, grid, eta_bump, kind, mesh, seed, strength, mode, decade):
    # Fields as the program propagates them (the preset bump, construction
    # seeds at 0.2-0.9 delta, the ledger's probes, the zero field) and one
    # stable eigenvector scaled by 10^decade.
    rng = np.random.default_rng(seed)
    v = {"bump": lambda: eta_bump,
         "construct": lambda: _bumps_and_noise(spectrum, grid, rng,
                                               0.05 * strength),
         "probe": lambda: GridField(smooth_noise(grid, rng, 4.0), grid),
         "zero": lambda: zero_field(grid),
         "mode": lambda: GridField(
             10.0**decade * spectrum.stable_basis[1][:, mode], grid)}[kind]()
    times = MESHES[mesh]
    lam, basis = spectrum.stable_basis
    plain = _plain_weights(spectrum, v, times)
    # The operand is the plain weights with those below the smallest normal
    # double flushed to +0.0, and the rows are the plain product's bits.
    flushed = np.where(np.abs(plain) < TINY, 0.0, plain)
    coeff = grid.spacing * (basis.T @ v.values)
    assert np.array_equal(spectral._stable_weights(lam, coeff, times)
                          .view(np.uint64), flushed.view(np.uint64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = propagate_stable_batch(spectrum, v, times)
    assert np.array_equal(rows.view(np.uint64),
                          (plain @ basis.T).view(np.uint64))


def test_the_propagator_hands_the_product_no_subnormal(spectrum, grid,
                                                       eta_bump, monkeypatch):
    operands = []
    weights = spectral._stable_weights
    monkeypatch.setattr(spectral, "_stable_weights",
                        lambda *args: operands.append(weights(*args))
                        or operands[-1])
    probe = GridField(smooth_noise(grid, np.random.default_rng(11), 4.0), grid)
    for v in (eta_bump, probe):
        for times in MESHES:
            propagate_stable_batch(spectrum, v, times)
            # The plain formula's weights hold subnormals here.
            plain = np.abs(_plain_weights(spectrum, v, times))
            assert np.any((plain > 0.0) & (plain < TINY))
            held = np.abs(operands.pop())
            assert not np.any((held > 0.0) & (held < TINY))


def test_propagate_batch_matches_single_steps(spectrum, grid):
    v = _stable_noise(spectrum, grid, 10)
    times = np.array([0.0, 0.5, 2.0])
    block = propagate_stable_batch(spectrum, v, times)
    assert block.shape == (3, grid.n)
    # Reference: the eigen-expansion sum over stable modes of
    # exp(-lam t) <v, e> e, one mode at a time.
    vectors = spectrum.eigenvectors
    for j, t in enumerate(times):
        expected = np.zeros(grid.n)
        for k in spectrum.stable_indices:
            e = vectors[:, k]
            expected += (np.exp(-spectrum.eigenvalues[k] * t)
                         * grid.inner_values(v.values, e) * e)
        assert np.max(np.abs(block[j] - expected)) <= 1e-12


def test_operator_norm_diagnostic_frozen(spectrum):
    assert operator_norm_diagnostic(spectrum) == pytest.approx(
        246.16748282688997, rel=1e-9
    )


def test_propagator_constant_frozen(spectrum):
    c2, rate = measure_propagator_constant(spectrum, seed=11)
    assert c2 == pytest.approx(2.5243441153774238, rel=1e-9)
    assert rate == pytest.approx(-0.8399376870463342, abs=1e-9)
    assert rate <= -0.7


def test_operator_lipschitz_vanishes_at_zero_separation(model):
    ratio = verify_operator_lipschitz(model, 0.0, 0.0, seed=7)
    assert ratio == 0.0


def test_operator_lipschitz_ratio_saturates_toward_zero_separation(model):
    # As d -> 0, (f(d) - f(0)) / d -> -phi', so the ratio tends to the
    # largest ||2 phi' v|| / ||v|| over the same 8 probes, and by Taylor it
    # lies within d sup|phi''| = 0.75 d of that limit.  Whether it comes
    # from above or below depends on the probes, which are one normal per
    # grid point: from above at 256 points, from below at 512.
    grid = model.grid
    rng = np.random.default_rng(7)
    slope = grid.first_derivative_values(model.profile.values)
    limit = max(float(grid.weak_norm_values(2.0 * slope * v)
                      / grid.weak_norm_values(v))
                for v in [smooth_noise(grid, rng, 4.0) for _ in range(8)])
    separations = np.array([0.4, 0.2, 0.1, 0.05])
    ratios = np.array([verify_operator_lipschitz(model, 0.0, d, seed=7)
                       for d in separations])
    assert ratios[0] == pytest.approx(0.45952970678313754, abs=1e-8)
    distances = np.abs(ratios - limit)
    assert np.all(np.diff(distances) < 0)
    assert np.all(distances <= 0.75 * separations)
    assert np.max(ratios) <= 2.0 * model.max_profile_slope()
