"""Time meshes, weighted path norms, and admissibility checks."""

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from adiaflow.errors import AdmissibilityError
from adiaflow.paths import (
    TrajectoryPath,
    cumulative_trapezoid,
    mesh_prefix,
    path_distance,
    time_mesh,
    time_weight,
)


@pytest.fixture(scope="module")
def mesh():
    return time_mesh()


def _frozen_path(grid, times, sigma0=0.0):
    """The chart frozen at sigma0 and no remainder."""
    return TrajectoryPath(times=times, sigma=np.full(len(times), sigma0),
                          w=np.zeros((len(times), grid.n)), grid=grid)


def _unit_field_rows(grid, amplitudes):
    base = np.ones(grid.n) / grid.strong_norm_values(np.ones(grid.n))
    return np.asarray(amplitudes)[:, None] * base[None, :]


def test_time_mesh_structure(mesh):
    assert mesh[0] == 0.0
    assert mesh[-1] == 30.0
    assert np.all(np.diff(mesh) > 0)
    steps = np.diff(mesh)
    assert np.max(np.abs(steps[:200] - 0.02)) <= 1e-12
    assert mesh[200] == pytest.approx(4.0, abs=1e-12)
    assert steps[201] / steps[200] == pytest.approx(1.06, rel=1e-9)
    assert steps[205] / steps[204] == pytest.approx(1.06, rel=1e-9)


def test_time_mesh_rejects_bad_parameters():
    with pytest.raises(ValueError):
        time_mesh(ratio=1.0)
    with pytest.raises(ValueError):
        time_mesh(t_uniform=4.0, horizon=3.0)
    with pytest.raises(ValueError):
        time_mesh(dt_fine=-0.01)


def test_mesh_prefix_keeps_the_times_up_to_the_end(mesh):
    prefix = mesh_prefix(mesh, 4.0)
    assert np.array_equal(prefix, mesh[:201])
    # A time within the 1e-12 slack of a mesh time includes it.
    assert np.array_equal(mesh_prefix(mesh, mesh[250] - 5e-13), mesh[:251])
    assert np.array_equal(mesh_prefix(mesh, 1e9), mesh)


def test_mesh_prefix_requires_a_mesh_from_zero(mesh):
    with pytest.raises(ValueError, match="start at 0"):
        mesh_prefix(mesh[1:], 4.0)
    with pytest.raises(ValueError, match="start at 0"):
        mesh_prefix(mesh, -1.0)


def test_time_weight_closed_form():
    t = np.array([0.0, 1.0, 3.0])
    assert np.allclose(time_weight(t, 1.0), np.sqrt(1.0 + t**2), rtol=1e-14)
    assert np.allclose(time_weight(t, 2.0), 1.0 + t**2, rtol=1e-14)
    assert np.allclose(time_weight(t, 0.0), 1.0, rtol=1e-14)


@pytest.mark.parametrize("dt_fine", [0.02, 0.01], ids=["default", "fine"])
def test_cumulative_trapezoid_is_bitwise_scipys(dt_fine):
    """The 276-sample default mesh and criterion 09's 487-sample mesh, with
    a chart speed like the construction's."""
    times = time_mesh(dt_fine)
    speed = 0.04 * time_weight(times, -1.0) * np.cos(0.1 * times + 0.3)
    ours = cumulative_trapezoid(speed, times)
    assert np.array_equal(
        ours, scipy.integrate.cumulative_trapezoid(speed, times, initial=0))
    assert ours[0] == 0.0


@settings(max_examples=50, deadline=None)
@given(steps=st.lists(st.floats(min_value=1e-4, max_value=3.0),
                      min_size=1, max_size=300),
       start=st.floats(min_value=-10.0, max_value=10.0),
       seed=st.integers(0, 2**32 - 1))
def test_cumulative_trapezoid_is_bitwise_scipys_on_any_increasing_mesh(
        steps, start, seed):
    x = start + np.concatenate(([0.0], np.cumsum(steps)))
    y = np.random.default_rng(seed).standard_normal(len(x))
    assert np.array_equal(cumulative_trapezoid(y, x),
                          scipy.integrate.cumulative_trapezoid(y, x,
                                                               initial=0))


def test_path_shape_validation(grid):
    times = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        TrajectoryPath(times=times, sigma=np.zeros(2),
                       w=np.zeros((3, grid.n)), grid=grid)
    with pytest.raises(ValueError):
        TrajectoryPath(times=times, sigma=np.zeros(3),
                       w=np.zeros((3, grid.n - 1)), grid=grid)


def test_sigma_dot_on_linear_chart_motion(grid):
    times = np.array([0.0, 0.5, 1.5, 3.0])
    path = TrajectoryPath(times=times, sigma=0.7 * times,
                          w=np.zeros((4, grid.n)), grid=grid)
    assert np.max(np.abs(path.sigma_dot() - 0.7)) <= 1e-12


def test_w_strong_norms_match_the_grid(grid):
    times = np.array([0.0, 1.0, 2.0])
    path = TrajectoryPath(times=times, sigma=np.zeros(3),
                          w=_unit_field_rows(grid, [0.3, 0.2, 0.1]), grid=grid)
    assert np.allclose(path.w_strong_norms(), [0.3, 0.2, 0.1], rtol=1e-12)


def test_admissibility_margins(grid):
    delta, alpha, c = 0.05, 1.0, 2.0
    times = np.array([0.0, 1.0, 2.0])
    envelope = delta / time_weight(times, alpha)
    path = TrajectoryPath(times=times, sigma=np.zeros(3),
                          w=_unit_field_rows(grid, 0.5 * envelope), grid=grid)
    margins = path.admissibility_margins(delta, alpha, c)
    assert margins["w_margin"] == pytest.approx(0.5, rel=1e-12)
    assert margins["sigma_dot_margin"] == 0.0
    assert margins["w_worst_time"] in times
    path.check_admissible(delta, alpha, c)


def test_remainder_bound_violation_raises(grid):
    delta, alpha, c = 0.05, 1.0, 2.0
    times = np.array([0.0, 1.0, 2.0])
    path = TrajectoryPath(times=times, sigma=np.zeros(3),
                          w=_unit_field_rows(grid, [2.0 * delta, 0.0, 0.0]),
                          grid=grid)
    with pytest.raises(AdmissibilityError) as err:
        path.check_admissible(delta, alpha, c)
    assert err.value.offending_time == 0.0
    assert "delta too large" in str(err.value)


def test_chart_speed_violation_raises(grid):
    delta, alpha, c = 0.05, 1.0, 2.0
    times = np.array([0.0, 1.0, 2.0])
    path = TrajectoryPath(times=times, sigma=np.array([0.0, 1.0, 2.0]),
                          w=np.zeros((3, grid.n)), grid=grid)
    with pytest.raises(AdmissibilityError) as err:
        path.check_admissible(delta, alpha, c)
    assert err.value.offending_time is not None


def test_trivial_path_has_zero_norm(grid, mesh):
    path = _frozen_path(grid, mesh, sigma0=0.4)
    # The nonuniform-mesh chart speed of a constant leaves gradient dust.
    assert path_distance(path, _frozen_path(grid, mesh), 1.0, 2.0) <= 1e-14


def test_path_norm_hand_example(grid):
    # constant remainder amplitude a and frozen chart: the norm is the
    # largest weighted amplitude, attained at the last time.
    times = np.array([0.0, 1.0, 2.0])
    amplitude = 0.01
    path = TrajectoryPath(times=times, sigma=np.zeros(3),
                          w=_unit_field_rows(grid, [amplitude] * 3), grid=grid)
    expected = amplitude * time_weight(times[-1], 1.0)
    assert path_distance(path, _frozen_path(grid, times), 1.0, 2.0) \
        == pytest.approx(expected, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_path_distance_is_a_metric(grid, seed):
    rng = np.random.default_rng(seed)
    times = np.cumsum(np.concatenate(([0.0], rng.uniform(0.1, 1.0, 5))))
    alpha, c = rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0)

    def path(sigma, w):
        return TrajectoryPath(times=times, sigma=sigma, w=w, grid=grid)

    def random_path(scale=1.0):
        return path(scale * rng.normal(0.0, 0.1, len(times)),
                    scale * rng.normal(0.0, 0.01, (len(times), grid.n)))

    a, b = random_path(), random_path()
    # A path near the segment from a to b, where the triangle inequality is
    # close to an equality.
    share, noise = rng.uniform(0.0, 1.0), random_path(rng.uniform(0.0, 0.1))
    m = path(a.sigma + share * (b.sigma - a.sigma) + noise.sigma,
             a.w + share * (b.w - a.w) + noise.w)
    assert path_distance(a, a, alpha, c) == 0.0
    assert path_distance(a, b, alpha, c) == pytest.approx(
        path_distance(b, a, alpha, c), rel=1e-14)
    assert path_distance(a, b, alpha, c) <= (1.0 + 1e-12) * (
        path_distance(a, m, alpha, c) + path_distance(m, b, alpha, c))


def test_path_distance_symmetry_and_mesh_guard(grid, mesh):
    rng = np.random.default_rng(13)
    times = np.array([0.0, 1.0, 2.0])
    w_a = _unit_field_rows(grid, rng.uniform(0.0, 0.01, 3))
    w_b = _unit_field_rows(grid, rng.uniform(0.0, 0.01, 3))
    path_a = TrajectoryPath(times=times, sigma=np.zeros(3), w=w_a, grid=grid)
    path_b = TrajectoryPath(times=times, sigma=np.zeros(3), w=w_b, grid=grid)
    forward = path_distance(path_a, path_b, 1.0, 2.0)
    backward = path_distance(path_b, path_a, 1.0, 2.0)
    assert forward == pytest.approx(backward, rel=1e-14)
    assert path_distance(path_a, path_a, 1.0, 2.0) == 0.0
    other = _frozen_path(grid, mesh)
    with pytest.raises(ValueError):
        path_distance(path_a, other, 1.0, 2.0)
    # Meshes must agree sample for sample, not merely to np.allclose.
    shifted = TrajectoryPath(times=times + 1e-9, sigma=np.zeros(3), w=w_b,
                             grid=grid)
    with pytest.raises(ValueError, match="same time mesh"):
        path_distance(path_a, shifted, 1.0, 2.0)
