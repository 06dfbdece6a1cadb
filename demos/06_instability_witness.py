"""The unstable direction, witnessed in the full flow.

The manifold construction claims that exactly one choice of the unstable
coefficient yields a decaying trajectory.  This demo verifies both halves
dynamically: the corrected state decays for the whole horizon, while
offsetting the coefficient by +-1e-3 sends the extracted unstable
coefficient into exponential growth at the predicted rate 5/4 until the
state leaves the neighborhood — in opposite directions for opposite signs.
"""

from adiaflow.grid import PeriodicGrid
from adiaflow.manifold import SolutionMapWorkspace, construct_manifold_point
from adiaflow.model import PulseModel
from adiaflow.presets import preset_field
from adiaflow.reference import instability_witness, refine_correction
from adiaflow.spectral import decompose

DELTA = 0.05
HORIZON = 12.0


def describe(label: str, witness) -> None:
    escape = {1: "blow-up", -1: "collapse", 0: "none (stayed)"}
    print(f"offset {label}")
    rate = "not fitted" if witness.rate is None else f"{witness.rate:+.4f}"
    print(f"  fitted growth rate     {rate}  (prediction +1.25)")
    print(f"  escape                 {escape[witness.escape_sign]}", end="")
    if witness.escape_time is not None:
        print(f" at t = {witness.escape_time:.2f}")
    else:
        print()
    print(f"  max |coefficient|      {witness.max_coefficient:.3e}")
    print(f"  max remainder margin   {witness.max_remainder_margin:.3f}")
    print()


def main() -> None:
    grid = PeriodicGrid()
    model = PulseModel(grid)
    spectrum = decompose(model, 0.0)
    workspace = SolutionMapWorkspace(spectrum)
    eta = preset_field("stable-bump", spectrum)

    point = construct_manifold_point(workspace, eta, delta=DELTA, alpha=1.0,
                                     fixed_point_tol=1e-10, max_iter=30)
    refined = refine_correction(workspace, point, dt=1e-3,
                                probe_time=HORIZON)
    print(f"corrected unstable coefficient: {refined.beta:+.6e}\n")

    for offset in (0.0, +1e-3, -1e-3):
        witness = instability_witness(workspace, point, refined.beta, offset,
                                      delta=DELTA, t_max=HORIZON)
        describe(f"{offset:+.0e}" if offset else " 0", witness)


if __name__ == "__main__":
    main()
