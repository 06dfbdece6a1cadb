"""Full gradient flow versus the reduced fixed-point description.

Constructs a manifold point, shoots the correction against the discrete
solver, runs the full flow from the corrected state, and compares: the
extracted chart path against the fixed-point path and the effective chart
dynamics, the extracted remainder against the fixed-point remainder, and
the measured decay envelope against the weighted ball.

Kept to a short horizon so the demo runs in under a minute; the test suite
performs the same comparison to t = 20 with step halving.
"""

import numpy as np

from adiaflow.grid import PeriodicGrid
from adiaflow.manifold import SolutionMapWorkspace, construct_manifold_point
from adiaflow.model import PulseModel
from adiaflow.paths import mesh_prefix
from adiaflow.presets import preset_field
from adiaflow.reference import (
    compare_effective,
    corrected_initial_state,
    evolve_lanes,
    extract_modulated,
    refine_correction,
)
from adiaflow.spectral import decompose

DELTA = 0.05
HORIZON = 8.0


def main() -> None:
    grid = PeriodicGrid()
    model = PulseModel(grid)
    spectrum = decompose(model, model.origin)
    workspace = SolutionMapWorkspace(spectrum)
    eta = preset_field("stable-bump", spectrum)

    point = construct_manifold_point(workspace, eta, delta=DELTA, alpha=1.0,
                                     fixed_point_tol=1e-10, max_iter=30)
    refined = refine_correction(workspace, point, dt=1e-3, probe_time=HORIZON)
    print("shooting refinement of the correction")
    print(f"  fixed-point value  {refined.picard_beta:+.6e}")
    print(f"  refined value      {refined.beta:+.6e}")
    print(f"  difference         {abs(refined.beta - refined.picard_beta):.2e}"
          f"  ({refined.evaluations} solver runs, probe t = {refined.probe_time:.2f})")
    print()

    samples = mesh_prefix(workspace.times, HORIZON)
    start = corrected_initial_state(workspace, point, refined.beta)
    traj = evolve_lanes(model, [start.values], float(samples[-1]), dt=1e-3,
                        sample_times=samples)[0]
    extracted = extract_modulated(model, traj, sigma_guess=point.sigma0)
    comparison = compare_effective(workspace, point, traj, extracted,
                                   delta=DELTA)
    print(f"full solve versus the reduced description to t = {HORIZON}")
    print(f"  sup |chart (effective)  - extracted|  {comparison['sup_sigma_effective']:.2e}")
    print(f"  sup |chart (fixed pt)   - extracted|  {comparison['sup_sigma_fixed_point']:.2e}")
    print(f"  sup strong|remainder difference|      {comparison['sup_w_strong']:.2e}")
    print(f"  weighted decay margin                 {comparison['decay_margin']:.3f}  (<= 1)")
    print(f"  fitted envelope rate                  {comparison['envelope_rate']:.3f}  (<= -0.7)")
    final_gap = grid.strong_norm_values(
        traj.u_samples[-1] - model.profile.values
    )
    print(f"  strong distance to the pulse at t = {HORIZON}: {final_gap:.2e}")


if __name__ == "__main__":
    main()
