"""Linearized operator: classification, closed-form eigenvalues, semigroup."""

import numpy as np
import pytest

from adiaflow.errors import ClassificationError
from adiaflow.grid import GridField
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
    tangent = model.family_tangent(0.0)
    zero_mode = spectrum.eigenvectors[:, spectrum.zero_indices[0]]
    assert abs(grid.inner_values(zero_mode, tangent.values)) >= 1.0 - 1e-10


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


def test_classification_rejects_misconfigured_bands(model):
    with pytest.raises(ClassificationError):
        decompose(model, 0.0, zero_tol=1e-16)
    with pytest.raises(ClassificationError):
        decompose(model, 0.0, gap_threshold=2.0)


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
        3706.4246396488834, rel=1e-9
    )


def test_propagator_constant_frozen(spectrum):
    c2, rate = measure_propagator_constant(spectrum, seed=11)
    assert c2 == pytest.approx(2.6048199748083665, rel=1e-9)
    assert rate == pytest.approx(-0.9319620783474747, abs=1e-9)
    assert rate <= -0.7


def test_operator_lipschitz_vanishes_at_zero_separation(model):
    ratio = verify_operator_lipschitz(model, 0.0, 0.0, seed=7)
    assert ratio == 0.0


def test_operator_lipschitz_ratio_saturates_toward_zero_separation(model):
    ratios = np.array([
        verify_operator_lipschitz(model, 0.0, d, seed=7)
        for d in (0.4, 0.2, 0.1, 0.05)
    ])
    assert ratios[0] == pytest.approx(0.4690392166, abs=1e-8)
    gaps = np.diff(ratios)
    assert np.all(gaps > 0)
    assert np.all(np.diff(gaps) < 0)
    assert np.max(ratios) <= 2.0 * model.max_profile_slope()
