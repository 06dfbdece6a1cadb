"""Command-line entry points.

Every subcommand reads the same configuration (defaults, optionally a JSON
file via ``--config``, then ``--set section.key=value`` overrides) and
prints a JSON summary to stdout; file artifacts go wherever ``--out``
points.  Exit codes: 0 success, 1 criterion failure, 2 configuration or
input error, including an unreadable input or an unwritable output.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import ExperimentConfig, load_config
from .errors import AdiaflowError, BallViolationError, ConfigError
from .grid import GridField
from .harness import (
    Runtime,
    build_model,
    build_runtime,
    build_spectrum,
    comparison_checks,
    config_mesh,
    construct_point,
    eigenvalue_table,
    json_text,
    load_field_csv,
    load_trajectory_csv,
    point_entry,
    point_payload,
    read_point,
    refine_point,
    run_assumption_ledger,
    run_full_pipeline,
    scan_corrections,
    solve_fixed_step,
    spectral_constants,
    write_csv,
    write_json,
    write_trajectory_csv,
)
from .manifold import ManifoldPoint, check_input_field
from .modulation import decompose_state, solve_modulation
from .paths import mesh_prefix
from .presets import PRESET_NAMES, preset_field
from .reference import compare_effective, extract_modulated, \
    unstable_coefficient
from .spectral import verify_operator_lipschitz


def _print_json(payload: dict) -> None:
    print(json_text(payload))


def _chart_argument(flag: str, sigma: float, cfg: ExperimentConfig) -> float:
    """A chart coordinate given on the command line, refused unless it is
    finite and inside the chart of radius ``model.chart_radius``."""
    radius = cfg.model.chart_radius
    if not abs(sigma) <= radius:
        raise ConfigError(f"{flag} {sigma:g} must be a finite chart "
                          f"coordinate of magnitude at most {radius:g}")
    return sigma


def _seed(source: str, eta: GridField, runtime: Runtime) -> GridField:
    """A seed from ``source``, refused if it has a tangent or unstable part."""
    try:
        check_input_field(runtime.workspace, eta)
    except ValueError as err:
        raise ConfigError(f"seed from {source!r}: {err}") from err
    return eta


def _eta_argument(spec: str, runtime: Runtime) -> tuple[str, GridField]:
    """Resolve an ``--eta``-style argument to (label, field)."""
    if spec in PRESET_NAMES:
        return spec, preset_field(spec, runtime.spectrum)
    return "file", _seed(spec, load_field_csv(spec, runtime.grid), runtime)


def _construct(source: str, eta: GridField, runtime: Runtime) -> ManifoldPoint:
    """The configured construction over a seed from ``source``; a seed the
    construction refuses as larger than ``manifold.delta`` is an input error."""
    try:
        return construct_point(runtime.config, runtime.workspace, eta)
    except BallViolationError as err:
        raise ConfigError(f"seed from {source!r}: {err}") from err


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _cmd_spectrum(args, cfg: ExperimentConfig) -> int:
    sigma = _chart_argument("--sigma", args.sigma, cfg)
    model = build_model(cfg)
    spectrum = build_spectrum(cfg, model, sigma)
    if args.out:
        header = ["index", "eigenvalue", "kind"]
        write_csv(args.out, header, [
            [row[key] for key in header]
            for row in eigenvalue_table(spectrum, len(spectrum.eigenvalues))])
    _print_json({
        "sigma": sigma,
        **spectral_constants(spectrum, cfg.seeds.propagator),
        "delta0_ratio": verify_operator_lipschitz(
            model, sigma, sigma + 0.3, seed=cfg.seeds.operator_probes
        ),
        "n_unstable": len(spectrum.unstable_indices),
        "n_zero": len(spectrum.zero_indices),
    })
    return 0


def _cmd_modulate(args, cfg: ExperimentConfig) -> int:
    guess = _chart_argument("--sigma-guess", args.sigma_guess, cfg)
    model = build_model(cfg)
    state = load_field_csv(args.state, model.grid)
    sigma, remainder = decompose_state(model, state, guess)
    a = solve_modulation(model, sigma, remainder)
    tangent = model.frame(sigma)[1]
    _print_json({
        "sigma": sigma,
        "a": a,
        "abs_a": abs(a),
        "orthogonality_residual": abs(remainder.inner(tangent)),
        "w_weak_norm": remainder.weak_norm(),
        "w_strong_norm": remainder.strong_norm(),
    })
    return 0


def _cmd_construct(args, cfg: ExperimentConfig) -> int:
    runtime = build_runtime(cfg)
    label, eta = _eta_argument(args.eta, runtime)
    point = _construct(args.eta, eta, runtime)
    refine = refine_point(cfg, runtime.workspace, point) if args.refine \
        else None
    payload = point_payload(runtime, label, point, refine)
    write_json(args.out, payload)
    summary = {key: payload[key] for key in (
        "beta", "beta_star", "correction_strong_norm", "eta_strong_norm",
        "iterations", "contraction_ratios", "margins", "tail_bound",
    )}
    summary["out"] = args.out
    _print_json(summary)
    return 0


def _cmd_scan_phi(args, cfg: ExperimentConfig) -> int:
    try:
        scales = [float(s) for s in args.scales.split(",") if s.strip()]
    except ValueError as err:
        raise ConfigError(f"malformed scales {args.scales!r}: {err}") from err
    if not all(0.0 < s < np.inf for s in scales):
        raise ConfigError(f"every scale must be a positive finite seed size, "
                          f"got {args.scales!r}")
    if len(set(scales)) < 2:
        raise ConfigError(f"a log-log slope needs at least two distinct "
                          f"scales, got {args.scales!r}")
    if max(scales) > cfg.manifold.delta:
        raise ConfigError(f"scale {max(scales):g} exceeds the admissible "
                          f"seed size manifold.delta = "
                          f"{cfg.manifold.delta:g}")
    runtime = build_runtime(cfg)
    label, direction = _eta_argument(args.direction, runtime)
    if direction.strong_norm() == 0.0:
        raise ConfigError("scan direction must be a nonzero field")
    scan = scan_corrections(cfg, runtime.workspace, direction, scales)
    write_csv(args.out, ["scale", "correction", "ratio"], list(zip(
        scan["scales"], scan["corrections"], scan["ratios"])))
    _print_json({
        "direction": label,
        "loglog_slope": scan["loglog_slope"],
        "ratios": scan["ratios"],
        "out": args.out,
    })
    return 0


def _cmd_simulate(args, cfg: ExperimentConfig) -> int:
    if not args.T >= 0.0:
        raise ConfigError(f"requested horizon T = {args.T:g} must be "
                          f"nonnegative")
    preset = args.init in PRESET_NAMES
    # A point file brings its own mesh: read it before checking T.
    payload = None if preset else read_point(args.init, cfg)
    mesh = config_mesh(cfg)
    if args.T > mesh[-1] + 1e-12:
        raise ConfigError(
            f"requested horizon T = {args.T:g} exceeds the mesh horizon "
            f"{mesh[-1]:g}"
        )
    if preset:
        runtime = build_runtime(cfg)
        point = _construct(args.init, preset_field(args.init, runtime.spectrum),
                           runtime)
        start = point.initial_state.values if args.no_refine else \
            refine_point(cfg, runtime.workspace, point).trajectory
        unstable_mode = runtime.workspace.unstable_mode
        sigma0, model = point.sigma0, runtime.model
    else:
        start, unstable_mode = (
            point_entry(args.init, payload, key, cfg.model.n_points)
            for key in ("initial_values", "unstable_mode"))
        sigma0 = float(point_entry(args.init, payload, "sigma0"))
        model = build_model(cfg)
    traj = solve_fixed_step(cfg, model, start, mesh_prefix(mesh, args.T))
    extracted = extract_modulated(model, traj, sigma_guess=sigma0)
    coefficients = unstable_coefficient(model.grid, unstable_mode, sigma0,
                                        extracted.sigma, extracted.w)
    energies = traj.energies(model)
    write_trajectory_csv(args.out, traj, extracted, energies, coefficients)
    m = extracted.n_samples
    _print_json({
        "init": args.init,
        "t_final": float(traj.times[-1]),
        "n_samples": traj.n_samples,
        "n_rows": m,
        "escaped": traj.escaped,
        "escape_sign": traj.stats["escape_sign"],
        "escape_time": traj.stats["escape_time"],
        "final_sigma": extracted.sigma[-1],
        "final_strong_norm_w": extracted.w_strong_norms()[-1],
        "final_energy": energies[m - 1],
        "out": args.out,
    })
    return 0


def _cmd_compare(args, cfg: ExperimentConfig) -> int:
    payload = read_point(args.point, cfg)
    traj = load_trajectory_csv(args.traj, build_model(cfg).grid)
    if not np.array_equal(traj.times, config_mesh(cfg)[:traj.n_samples]):
        raise ConfigError(f"trajectory file {args.traj!r} is not sampled on "
                          f"a prefix of the point's time mesh")
    eta_values = point_entry(args.point, payload, "eta_values",
                             cfg.model.n_points)
    runtime = build_runtime(cfg)
    eta = _seed(args.point, GridField(eta_values, runtime.grid), runtime)
    point = _construct(args.point, eta, runtime)
    extracted = extract_modulated(runtime.model, traj, point.sigma0)
    comparison = compare_effective(runtime.workspace, point, traj, extracted,
                                   delta=cfg.manifold.delta,
                                   alpha=cfg.manifold.alpha)
    checks = comparison_checks(comparison, eta.strong_norm() == 0.0)
    passed = all(check.passed for check in checks)
    report = {
        "point": args.point,
        "traj": args.traj,
        "passed": passed,
        "exit_code": 0 if passed else 1,
        "checks": [check.to_dict() for check in checks],
        "metrics": comparison,
    }
    write_json(args.out, report)
    _print_json(report)
    return 0 if passed else 1


def _print_checks(checks: list) -> None:
    """One PASS/FAIL line per check, with the error of a failed stage."""
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        value = "n/a" if check.value is None else f"{check.value:.6g}"
        error = check.details.get("error")
        print(f"{status} {check.name}: {value} ({check.bound})"
              + (f": {error}" if error else ""))


def _cmd_ledger(args, cfg: ExperimentConfig) -> int:
    report = run_assumption_ledger(cfg)
    if args.out:
        write_json(args.out, report.to_dict())
    _print_checks(report.checks)
    print("ledger " + ("PASSED" if report.passed else "FAILED"))
    return 0 if report.passed else 1


def _cmd_pipeline(args, cfg: ExperimentConfig) -> int:
    out_dir = args.out if args.out else f"runs/{args.preset}"
    report = run_full_pipeline(cfg, eta_preset=args.preset, out_dir=out_dir)
    if not report.ledger_passed:
        print("FAIL assumption-ledger (see ledger.json)")
    _print_checks(report.checks)
    print(f"pipeline {'PASSED' if report.passed else 'FAILED'}: "
          f"artifacts in {out_dir}")
    return report.exit_code


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiaflow",
        description="Invariant-manifold construction and verification for "
                    "a gradient-flow pulse model.",
    )
    parser.add_argument("--config", default=None,
                        help="JSON configuration file")
    parser.add_argument("--set", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", dest="overrides",
                        help="override one configuration entry (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and spectral constants")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--out", default=None, help="CSV of the eigenvalue table")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("modulate", help="decompose a state into chart "
                                        "point plus remainder")
    p.add_argument("--state", required=True, help="x,value CSV of the state")
    p.add_argument("--sigma-guess", type=float, default=0.0)
    p.set_defaults(func=_cmd_modulate)

    p = sub.add_parser("construct", help="fixed point of the solution map")
    p.add_argument("--eta", required=True,
                   help=f"x,value CSV or preset ({', '.join(PRESET_NAMES)})")
    p.add_argument("--refine", action="store_true",
                   help="also shoot the correction against the full solver")
    p.add_argument("--out", default="point.json")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("scan-phi", help="corrections along a ray of seeds")
    p.add_argument("--direction", required=True,
                   help=f"x,value CSV or preset ({', '.join(PRESET_NAMES)})")
    p.add_argument("--scales", required=True,
                   help="comma-separated seed sizes, e.g. 0.04,0.02,0.01")
    p.add_argument("--out", default="scan.csv")
    p.set_defaults(func=_cmd_scan_phi)

    p = sub.add_parser("simulate", help="full solve from a point or preset")
    p.add_argument("--init", required=True,
                   help=f"point.json or preset ({', '.join(PRESET_NAMES)})")
    p.add_argument("--T", type=float, default=30.0)
    p.add_argument("--no-refine", action="store_true",
                   help="skip shooting refinement for preset inits")
    p.add_argument("--out", default="traj.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="reduced dynamics versus a trajectory")
    p.add_argument("--point", required=True)
    p.add_argument("--traj", required=True)
    p.add_argument("--out", default="report.json")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("ledger", help="run every assumption diagnostic")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_ledger)

    p = sub.add_parser("pipeline", help="ledger, construct, solve, compare, "
                                        "witness; write all artifacts")
    p.add_argument("--preset", default="stable-bump", choices=PRESET_NAMES)
    p.add_argument("--out", default=None,
                   help="run directory (default runs/<preset>)")
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        return args.func(args, cfg)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except AdiaflowError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"file error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
