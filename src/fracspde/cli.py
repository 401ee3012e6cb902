"""Command-line surface tying the modules together."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from . import dynamics as dyn
from . import experiments as xp
from . import io as io_mod
from . import noise as noise_mod
from .errors import FracSpdeError, InvalidParameterError
from .fractional import mittag_leffler, solve_caputo_scalar_ode


def _comma_list(cast):
    """argparse type: comma list of `cast` values, empty items skipped."""
    def parse(text: str) -> list:
        return [cast(x) for x in text.split(",") if x.strip()]
    parse.__name__ = f"comma list of {cast.__name__}"  # argparse names it in errors
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracspde",
        description="Fractional SPDE simulator with multiplicative transport noise",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="ensemble worker count (default: FRACSPDE_THREADS or all cores)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the config/base seed"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trajectory from a JSON config")
    p.add_argument("--config", required=True)

    p = sub.add_parser("ensemble", help="Monte-Carlo survival curve for one config")
    p.add_argument("--config", required=True)
    p.add_argument("--runs", type=int, required=True)

    p = sub.add_parser("delay-study", help="blow-up delay across noise levels")
    p.add_argument("--config", required=True)
    p.add_argument("--levels", default="0,2,4", type=_comma_list(int),
                   help="comma list of theta cutoffs N")
    p.add_argument("--runs", type=int, required=True)

    p = sub.add_parser("probe", help="empirical growth-condition probe")
    p.add_argument("--zeta", choices=["fisher", "ks"], required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument(
        "--exponents",
        default=None,
        type=_comma_list(float),
        help="a1,g1,a2,g2,a3,g3,eta (default: the proved values for the model)",
    )

    p = sub.add_parser("dichotomy", help="scalar mean-field blow-up dichotomy")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--x0", required=True, type=_comma_list(float),
                   help="comma list of initial means")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-end", type=float, default=20.0)
    p.add_argument("--threshold", type=float, default=1e6)

    p = sub.add_parser("ode", help="scalar Caputo ODE solve")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--threshold", type=float, default=1e6)
    p.add_argument(
        "--rhs",
        default="fisher",
        type=_parse_rhs,
        help="'fisher' for x^2 - x, or 'linear:<lam>' for lam*x",
    )

    p = sub.add_parser("ml", help="evaluate the Mittag-Leffler function")
    p.add_argument("alpha", type=float)
    p.add_argument("gamma", type=float)
    p.add_argument("z", type=float)

    p = sub.add_parser("noise-audit", help="isotropy matrix and l_inf/l2 ratio")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--b", type=float, default=1.0)
    return parser


def _load_config(args) -> dyn.SimConfig:
    cfg = io_mod.parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _parse_rhs(spec: str):
    if spec == "fisher":
        return lambda x: x * x - x
    if spec.startswith("linear:"):
        lam = float(spec.split(":", 1)[1])
        if not math.isfinite(lam):
            raise argparse.ArgumentTypeError(f"linear rate must be finite, got {lam}")
        return lambda x: lam * x
    raise argparse.ArgumentTypeError(f"unknown rhs {spec!r}; use 'fisher' or 'linear:<lam>'")


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    record = dyn.integrate(cfg)
    paths = io_mod.write_trajectory(record, cfg, args.out)
    print(json.dumps({"config_hash": record.config_hash, "blew_up": record.blew_up,
                      "blowup_time": record.blowup_time,
                      "outputs": {k: str(v) for k, v in paths.items()}}, indent=2))
    return 0


def _cmd_ensemble(args) -> int:
    cfg = _load_config(args)
    curve = xp.ensemble_survival(cfg, args.runs, workers=args.threads)
    paths = io_mod.write_survival([curve], args.out, cfg.config_hash(), cfg.seed)
    n_blown = sum(1 for t in curve.blowup_times if t is not None)
    print(json.dumps({"runs": args.runs, "blown_up": n_blown,
                      "survival_final": float(curve.fraction[-1]),
                      "outputs": {k: str(v) for k, v in paths.items()}}, indent=2))
    return 0


def _cmd_delay_study(args) -> int:
    cfg = _load_config(args)
    result = xp.delay_study(cfg, args.levels, args.runs, workers=args.threads)
    io_mod.write_survival(result.curves, args.out, cfg.config_hash(), cfg.seed)
    paths = io_mod.write_delay_study(result, args.out, cfg.config_hash())
    print(json.dumps({
        "reference_time": result.reference_time,
        "medians": {str(lv.noise_N): (None if np.isinf(lv.median_blowup) else lv.median_blowup)
                    for lv in result.levels},
        "outputs": {k: str(v) for k, v in paths.items()},
    }, indent=2))
    return 0


def _cmd_probe(args) -> int:
    kind = "keller_segel" if args.zeta == "ks" else "fisher"
    names = ["a1", "g1", "a2", "g2", "a3", "g3", "eta"]
    if args.exponents and len(args.exponents) != len(names):
        raise InvalidParameterError(f"--exponents takes {len(names)} values "
                                    f"({','.join(names)}), got {len(args.exponents)}")
    exps = dict(zip(names, args.exponents)) if args.exponents else dict(xp.GROWTH_EXPONENTS[kind])
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    report = xp.probe_hypothesis(kind, exps, args.samples, rng)
    tag = f"probe_{kind}"
    paths = io_mod.write_probe(report, args.out, tag, seed)
    print(json.dumps({
        "zeta": kind, "violations": report.violations,
        "max_ratios": {k: v.max_ratio for k, v in report.conditions.items()},
        "outputs": {k: str(v) for k, v in paths.items()},
    }, indent=2))
    return 0


def _cmd_dichotomy(args) -> int:
    table = xp.fisher_mean_dichotomy(args.beta, args.x0, args.dt, args.t_end, args.threshold)
    print(json.dumps({str(k): v for k, v in table.items()}, indent=2))
    return 0


def _cmd_ode(args) -> int:
    traj = solve_caputo_scalar_ode(
        args.rhs, args.beta, args.x0, args.dt, args.t_end, args.threshold
    )
    tag = f"ode_beta{args.beta:g}"
    paths = io_mod.write_scalar_trajectory(traj, args.out, tag)
    print(json.dumps({"blew_up": traj.blew_up, "blowup_time": traj.blowup_time}))
    print(f"wrote {paths['csv']}", file=sys.stderr)
    return 0


def _cmd_ml(args) -> int:
    print(format(mittag_leffler(args.alpha, args.gamma, args.z), ".15g"))
    return 0


def _cmd_noise_audit(args) -> int:
    theta = noise_mod.make_theta_cutoff(args.N, args.d)
    mat = noise_mod.isotropy_matrix(theta)
    print(json.dumps({
        "d": args.d,
        "N": args.N,
        "n_modes": 2 * theta.n_half,
        "l2_norm": theta.l2_norm,
        "linf_l2_ratio": theta.linf_norm / theta.l2_norm,
        "amplitude_A": noise_mod.amplitude_A(args.b, theta),
        "isotropy_matrix": mat.tolist(),
        "isotropy_target": (args.d - 1) / args.d * theta.l2_norm**2,
    }, indent=2))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "ensemble": _cmd_ensemble,
    "delay-study": _cmd_delay_study,
    "probe": _cmd_probe,
    "dichotomy": _cmd_dichotomy,
    "ode": _cmd_ode,
    "ml": _cmd_ml,
    "noise-audit": _cmd_noise_audit,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FracSpdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
