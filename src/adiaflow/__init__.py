"""Invariant-manifold construction and verification for a gradient-flow
pulse model.

The library builds the center-stable structure around an unstable pulse
equilibrium of the reaction-diffusion gradient flow u_t = u_xx - u + u^2:
spectral decomposition of the linearization, modulation (chart) dynamics,
a contraction-mapping construction of decaying trajectories with their
initial unstable-mode correction, and a full nonlinear solver that
cross-checks every reduced object.

The package root exports nothing but ``__version__``: import names from
the submodules (``adiaflow.manifold``, ``adiaflow.reference``, ...).
Importing it imports ``adiaflow.grid``, which sets the OpenBLAS that numpy
loaded to one thread for the whole process (README, BLAS threads).
"""

import importlib

__version__ = "0.1.0"

importlib.import_module(".grid", __name__)
