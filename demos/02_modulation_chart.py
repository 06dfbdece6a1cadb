"""Chart decomposition and the modulation equation.

Any state near the pulse family splits uniquely into a translated pulse plus
a remainder that is weak-orthogonal to the family tangent.  The modulation
solve then determines the chart velocity that keeps the decomposition
orthogonal along a trajectory.  This demo decomposes a perturbed, shifted
pulse, recovers the shift, and inspects the modulation coefficient.  The
model's ``frame(sigma)`` gives the translated pulse, its unit tangent and
its second derivative as the three rows of one array.
"""

import numpy as np

from adiaflow.grid import GridField, PeriodicGrid, smooth_noise
from adiaflow.model import PulseModel
from adiaflow.modulation import decompose_state, solve_modulation


def main() -> None:
    grid = PeriodicGrid()
    model = PulseModel(grid)
    rng = np.random.default_rng(3)

    # A translated pulse plus a small smooth bump, decomposed from a poor
    # initial guess for the chart coordinate.
    smooth = smooth_noise(grid, rng, 3.0)
    bump = 0.02 * smooth / grid.strong_norm_values(smooth)
    state = GridField(model.family(0.8).values + bump, grid)

    sigma, remainder = decompose_state(model, state, 0.2)
    _, tangent, second = model.frame(sigma)
    print("chart decomposition of a shifted, perturbed pulse")
    print(f"  recovered chart coordinate {sigma:+.6f}  (shift was +0.8)")
    print(f"  remainder strong norm      {remainder.strong_norm():.4e}")
    print(f"  orthogonality residual     {abs(remainder.inner(tangent)):.2e}")
    print()

    a = solve_modulation(model, sigma, remainder)
    print("modulation solve at the decomposed point")
    print(f"  coefficient a        {a:+.6e}")
    print(f"  chart velocity       {a * model.xi:+.6e}  (= a * xi)")
    print(f"  coupling <w, d^2 f>  {remainder.inner(second):+.6e}")
    print()

    # The coefficient is quadratically small in the remainder: halving the
    # perturbation quarters a.
    small = GridField(0.5 * remainder.values, grid)
    half = solve_modulation(model, sigma, small)
    print("quadratic smallness of the drive")
    print(f"  a at full remainder  {a:+.6e}")
    print(f"  a at half remainder  {half:+.6e}")
    print(f"  ratio                {a / half:.3f}  (~ 4)")


if __name__ == "__main__":
    main()
