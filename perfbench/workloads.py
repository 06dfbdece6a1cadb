"""The three benchmark workloads: inputs made from a seed, the timed
operation, and the checks on its output.

Each workload class says whether its operations spend their time mostly in
dense products on the BLAS threads (``threaded_blas``) rather than in
single-threaded FFT stepping; the benchmark's host-speed kernel does the
same kind of work.  Each workload object offers:

* ``cases()``: an endless iterator of inputs, fixed by the seed;
* ``run(case)``: the operation that is timed;
* ``validate(case, output)``: a problem string, or None when the output is
  correct (never timed);
* ``cleanup(case)``: removes whatever the case left on disk.

All adiaflow functions are looked up on their modules at call time, so a
tracer installed later sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import numpy as np

from adiaflow import cli, manifold, reference
from adiaflow.grid import GridField
from adiaflow.harness import GROWTH_RATE_TOL
from adiaflow.paths import time_mesh
from adiaflow.presets import preset_field
from adiaflow.spectral import project_stable

#: beta* of the stable-bump pipeline as measured when the benchmark was
#: defined; a run passes when its own beta* lies within its own final
#: shooting bracket of this value.
REFERENCE_BETA_STAR = -4.296174866345878e-05

PIPELINE_ARTIFACTS = ("config.json", "ledger.json", "point.json",
                      "traj.csv", "report.json")
SEED_KEYS = ("propagator", "operator_probes", "contraction", "lipschitz",
             "modulation_probes")


class PipelineWorkload:
    """``adiaflow pipeline --preset stable-bump`` in-process.

    The seed sets every ``seeds.*`` entry of the configuration: the ledger
    probes and the contraction pairs change, the shooting problem does not.
    """

    label = "pipeline"
    threaded_blas = False

    def __init__(self, runtime, seed: int, out_root: str):
        values = np.random.default_rng(seed).integers(0, 2**31 - 1, size=5)
        self.overrides = []
        for key, value in zip(SEED_KEYS, values):
            self.overrides += ["--set", f"seeds.{key}={int(value)}"]
        self.out_root = out_root

    def cases(self):
        k = 0
        while True:
            yield os.path.join(self.out_root, f"pipeline-{k}")
            k += 1

    def run(self, out_dir: str):
        log = io.StringIO()
        with contextlib.redirect_stdout(log):
            code = cli.main(self.overrides + [
                "pipeline", "--preset", "stable-bump", "--out", out_dir,
            ])
        return code, log.getvalue()

    def validate(self, out_dir: str, output) -> str | None:
        code, log = output
        if code != 0:
            return f"exit code {code}: {log[-400:]}"
        missing = [name for name in PIPELINE_ARTIFACTS
                   if not os.path.isfile(os.path.join(out_dir, name))]
        if missing:
            return f"missing artifacts {missing}"
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        if not report["passed"]:
            return "report.json records a failed check"
        with open(os.path.join(out_dir, "point.json"), encoding="utf-8") as fh:
            point = json.load(fh)
        beta_star, bracket = point["beta_star"], point["refine"]["bracket"]
        if not abs(beta_star - REFERENCE_BETA_STAR) <= bracket:
            return (f"beta* = {beta_star!r} is more than its bracket "
                    f"{bracket:.3g} from {REFERENCE_BETA_STAR!r}")
        return None

    def cleanup(self, out_dir: str) -> None:
        shutil.rmtree(out_dir, ignore_errors=True)


class ConstructWorkload:
    """Picard construction on random smooth stable seeds.

    Seeds are band-limited noise plus one to three Gaussian bumps, projected
    onto the stable range and scaled to a strong norm of 0.2 to 0.9 delta.
    Cases come in blocks of six in random order: four use the default
    276-sample mesh, with one strength from each quarter of that range, and
    two the 487-sample mesh of criterion 9, with one strength from each half.
    Picard rounds (3 to 5) follow strength, so the blocks keep the mix of
    rounds on each mesh the same from seed to seed, and the per-case median
    does not jump between them.
    """

    label = "construct"
    threaded_blas = True
    delta = 0.05
    fixed_point_tol = 1e-10
    max_iter = 30
    block_meshes = (0, 0, 0, 0, 1, 1)
    noise_modes = 24

    def __init__(self, runtime, seed: int, out_root: str):
        self.rng = np.random.default_rng(seed)
        self.spectrum = runtime.spectrum
        self.grid = runtime.grid
        self.workspaces = (
            runtime.workspace,
            manifold.SolutionMapWorkspace(
                runtime.spectrum, times=time_mesh(0.01, 4.0, 1.06, 30.0)),
        )

    def _seed_field(self, strength: float) -> GridField:
        rng, grid = self.rng, self.grid
        modes = np.arange(1, self.noise_modes + 1)
        spectrum = np.zeros(grid.n // 2 + 1, dtype=complex)
        spectrum[modes] = (rng.standard_normal(len(modes))
                           + 1j * rng.standard_normal(len(modes))) / np.sqrt(modes)
        noise = np.fft.irfft(spectrum, grid.n)
        raw = rng.uniform(0.0, 1.0) * noise / np.max(np.abs(noise))
        for _ in range(rng.integers(1, 4)):
            centre, width = rng.uniform(-10.0, 10.0), rng.uniform(0.5, 3.0)
            raw += rng.choice((-1.0, 1.0)) * np.exp(
                -0.5 * ((grid.x - centre) / width) ** 2)
        stable = project_stable(self.spectrum, GridField(raw, grid))
        return GridField(strength / stable.strong_norm() * stable.values, grid)

    def cases(self):
        meshes = np.asarray(self.block_meshes)
        while True:
            fractions = np.empty(len(meshes))
            for mesh in np.unique(meshes):
                where = np.flatnonzero(meshes == mesh)
                fractions[where] = (self.rng.permutation(len(where))
                                    + self.rng.uniform(size=len(where))) / len(where)
            for k in self.rng.permutation(len(meshes)):
                eta = self._seed_field((0.2 + 0.7 * fractions[k]) * self.delta)
                yield self.workspaces[meshes[k]], eta

    def run(self, case):
        workspace, eta = case
        return manifold.construct_manifold_point(
            workspace, eta, delta=self.delta, alpha=1.0,
            fixed_point_tol=self.fixed_point_tol, max_iter=self.max_iter,
        )

    def validate(self, case, point) -> str | None:
        workspace, eta = case
        if not point.distances[-1] <= self.fixed_point_tol:
            return f"last Picard update {point.distances[-1]:.3e} above tol"
        # One more application moves the path by at most the last update, and
        # the correction is a weak-norm component of the path at t = 0.
        again = workspace.apply_raw(eta.values, point.path.sigma, point.path.w)
        gap = abs(again.correction - point.correction)
        if not gap <= self.fixed_point_tol:
            return f"re-applied map moves the correction by {gap:.3e}"
        return None

    def cleanup(self, case) -> None:
        pass


class WitnessWorkload:
    """Instability witness on the preset bump point with random offsets.

    The point's Picard beta stands in for beta*: the offsets, log-uniform in
    [1e-4, 1e-2], exceed |beta* - beta| (about 1.2e-8) by four orders.
    Cases come in blocks of eight, one offset from each eighth of the
    log-range, four of each sign, so that escape times, and with them case
    times, have the same spread for every seed.
    """

    label = "witness"
    threaded_blas = False
    block = 8

    def __init__(self, runtime, seed: int, out_root: str):
        self.rng = np.random.default_rng(seed)
        cfg = runtime.config
        self.workspace = runtime.workspace
        self.delta, self.alpha = cfg.manifold.delta, cfg.manifold.alpha
        self.dt, self.t_max = cfg.reference.fixed_dt, cfg.reference.witness_horizon
        eta = preset_field("stable-bump", runtime.spectrum)
        self.point = manifold.construct_manifold_point(
            runtime.workspace, eta, delta=self.delta, alpha=self.alpha,
            fixed_point_tol=cfg.manifold.fixed_point_tol,
            max_iter=cfg.manifold.max_iterations,
        )
        self.rate_target = -runtime.workspace.unstable_eigenvalue

    def cases(self):
        signs = np.repeat((1.0, -1.0), self.block // 2)
        while True:
            strata = self.rng.permutation(self.block)
            for stratum, sign in zip(strata, self.rng.permutation(signs)):
                exponent = -4.0 + 2.0 * (stratum + self.rng.uniform()) / self.block
                yield float(sign * 10.0**exponent)

    def run(self, offset: float):
        return reference.instability_witness(
            self.workspace, self.point, self.point.correction, offset,
            delta=self.delta, alpha=self.alpha, dt=self.dt, t_max=self.t_max,
        )

    def validate(self, offset: float, report) -> str | None:
        if report.escape_sign != np.sign(offset):
            return f"offset {offset:.3e} escaped with sign {report.escape_sign}"
        if report.rate is None or not abs(
                report.rate - self.rate_target) <= GROWTH_RATE_TOL:
            return (f"offset {offset:.3e}: growth rate {report.rate} not within "
                    f"{GROWTH_RATE_TOL} of {self.rate_target:.6f}")
        return None

    def cleanup(self, offset: float) -> None:
        pass


WORKLOADS = {
    "pipeline": PipelineWorkload,
    "construct": ConstructWorkload,
    "witness": WitnessWorkload,
}
