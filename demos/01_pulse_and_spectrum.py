"""The pulse equilibrium and the spectrum of its linearization.

Builds the periodic grid and the reference pulse, verifies that the sampled
profile is stationary for the discrete energy, and decomposes the linearized
operator: one negative (unstable) eigenvalue near -5/4, a one-dimensional
kernel spanned by the translation tangent, and a gapped stable rest starting
at the spectral gap 3/4.
"""

import numpy as np

from adiaflow.grid import PeriodicGrid
from adiaflow.model import PulseModel
from adiaflow.spectral import (
    decompose,
    measure_propagator_constant,
    operator_norm_diagnostic,
)


def main() -> None:
    grid = PeriodicGrid()
    model = PulseModel(grid)

    print("pulse equilibrium")
    print(f"  energy at the pulse        {model.energy(model.profile)!r}")
    print(f"  stationarity defect (weak) {model.gradient(model.profile).weak_norm():.3e}")
    print(f"  chart normalization xi     {model.xi:.15f}  (= sqrt(5/6))")
    print()

    spectrum = decompose(model, 0.0)
    ev = spectrum.eigenvalues
    print("spectrum of the linearized operator")
    print(f"  unstable eigenvalue  {ev[0]:+.12f}   (exact -1.25)")
    print(f"  kernel eigenvalue    {ev[1]:+.3e}")
    print(f"  spectral gap         {ev[2]:+.12f}   (exact 0.75)")
    print(f"  next few             {np.array2string(ev[3:8], precision=6)}")
    sech3 = np.cosh(grid.x / 2.0) ** -3
    sech3 /= grid.weak_norm_values(sech3)
    overlap = abs(grid.inner_values(spectrum.unstable_mode, sech3))
    print(f"  unstable mode overlap with normalized sech^3: {overlap:.12f}")
    print()

    c2, rate = measure_propagator_constant(spectrum)
    print("constants entering the construction")
    print(f"  operator bound     c1 = {operator_norm_diagnostic(spectrum):.1f}")
    print(f"  propagator bound   c2 = {c2:.3f}")
    print(f"  fitted decay rate  {rate:.4f}  (must be <= -0.7)")


if __name__ == "__main__":
    main()
