"""Command line front end.

Four subcommands cover the workflow: `calibrate` searches for the optimal
two-stage design, `oc` evaluates a fixed design, `scan` sweeps the interim
size at a fixed final size and emits CSV for plotting, and `simon` runs the
classical optimal/minimax search as a cross-check.

Exit codes: 0 on success, 2 for configuration or usage errors, 3 when the
requested design region is infeasible.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .calibration import CalibratedDesign, optimal_calibrate, scan
from .config import ConfigError, RunConfig, load_config
from .operating import DesignGrid, OperatingCharacteristics, TwoStageDesign
from .priors import PointMass
from .simon import SimonDesign, simon_search

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _prob(value: float, fmt: str) -> str:
    return f"{value:.6f}" if fmt == "csv" else f"{value:.4f}"


def _size(value: float, fmt: str) -> str:
    return f"{value:.6f}" if fmt == "csv" else f"{value:.2f}"


def _print_design_row(result: CalibratedDesign, fmt: str) -> None:
    d, oc = result.design, result.oc
    fields = [
        ("n1", str(d.n1)),
        ("n2", str(d.n2)),
        ("type_i", _prob(oc.type_i_adjusted, fmt)),
        ("power", _prob(oc.power_adjusted, fmt)),
        ("en_h0", _size(oc.e_n_h0, fmt)),
        ("pce", _prob(oc.pce_p0, fmt)),
    ]
    if fmt == "csv":
        print(",".join(name for name, _ in fields))
        print(",".join(value for _, value in fields))
    else:
        print("  ".join(name for name, _ in fields))
        print("  ".join(value.rjust(len(name)) for name, value in fields))


def cmd_calibrate(config: RunConfig, fmt: str) -> int:
    result = optimal_calibrate(
        config.constraints(),
        config.k,
        config.k_f,
        config.hypotheses(),
        config.analysis_prior(),
        config.power_prior,
    )
    if result is None:
        print(
            "no feasible design: the constraints cannot be calibrated for "
            f"this choice of thresholds (k, k_f) with n2 <= {config.n_max}",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    _print_design_row(result, fmt)
    return EXIT_OK


def _print_oc(
    design: TwoStageDesign, oc: OperatingCharacteristics, stop_possible: bool, fmt: str
) -> None:
    rows = [
        ("n1", str(design.n1)),
        ("n2", str(design.n2)),
        ("type_i_unadjusted", _prob(oc.type_i_unadjusted, fmt)),
        ("type_i_adjusted", _prob(oc.type_i_adjusted, fmt)),
        ("power_unadjusted", _prob(oc.power_unadjusted, fmt)),
        ("power_adjusted", _prob(oc.power_adjusted, fmt)),
        ("futility_erased_type_i", _prob(oc.futility_erased_type_i, fmt)),
        ("futility_erased_power", _prob(oc.futility_erased_power, fmt)),
        ("pce", _prob(oc.pce_p0, fmt)),
        ("en_h0", _size(oc.e_n_h0, fmt)),
        ("en_h1", _size(oc.e_n_h1, fmt)),
        ("branch_h0_efficacy", _prob(oc.branch_h0.efficacy, fmt)),
        ("branch_h0_indecisive", _prob(oc.branch_h0.indecisive, fmt)),
        ("branch_h0_futility", _prob(oc.branch_h0.futility, fmt)),
        ("branch_h1_efficacy", _prob(oc.branch_h1.efficacy, fmt)),
        ("branch_h1_indecisive", _prob(oc.branch_h1.indecisive, fmt)),
        ("branch_h1_futility", _prob(oc.branch_h1.futility, fmt)),
    ]
    if not stop_possible:
        rows.append(("interim_stop_possible", "false"))
    if fmt == "csv":
        print(",".join(name for name, _ in rows))
        print(",".join(value for _, value in rows))
    else:
        width = max(len(name) for name, _ in rows)
        for name, value in rows:
            print(f"{name.ljust(width)}  {value}")


def cmd_oc(config: RunConfig, n1: int, n2: int, fmt: str) -> int:
    if not 1 <= n1 < n2 <= config.n_max:
        print(
            f"usage error: need 1 <= n1 < n2 <= n_max, got n1={n1}, n2={n2}, "
            f"n_max={config.n_max}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    design = TwoStageDesign(n1, n2, config.k, config.k_f)
    grid = DesignGrid(
        (n1, n2),
        config.k,
        config.k_f,
        config.hypotheses(),
        config.analysis_prior(),
        config.power_prior,
    )
    # without a futility count at n1 the interim look can never stop the trial
    stop_possible = grid.y_fut[n1] is not None
    _print_oc(design, grid.oc(n1, n2), stop_possible, fmt)
    return EXIT_OK


def cmd_scan(config: RunConfig, n2: int) -> int:
    if not 1 <= n2 <= config.n_max:
        print(
            f"usage error: need 1 <= n2 <= n_max, got n2={n2}, n_max={config.n_max}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    rows = scan(
        n2,
        config.constraints(),
        config.k,
        config.k_f,
        config.hypotheses(),
        config.analysis_prior(),
        config.power_prior,
    )
    print("n1,power_adj,typeI_adj,pce,en_h0,feasible")
    for row in rows:
        print(
            f"{row.n1},{row.power_adjusted:.6f},{row.type_i_adjusted:.6f},"
            f"{row.pce:.6f},{row.e_n_h0:.6f},{'true' if row.feasible else 'false'}"
        )
    return EXIT_OK


def _print_simon(label: str, design: SimonDesign, fmt: str) -> None:
    fields = [
        ("design", label),
        ("r1", str(design.r1)),
        ("n1", str(design.n1)),
        ("r", str(design.r)),
        ("n2", str(design.n2)),
        ("type_i", _prob(design.alpha_attained, fmt)),
        ("power", _prob(design.power_attained, fmt)),
        ("en_h0", _size(design.e_n_h0, fmt)),
        ("pet", _prob(design.pet_p0, fmt)),
    ]
    if fmt == "csv":
        print(",".join(value for _, value in fields))
    else:
        print("  ".join(f"{name}={value}" for name, value in fields))


def cmd_simon(config: RunConfig, fmt: str) -> int:
    if not isinstance(config.power_prior, PointMass):
        print(
            "usage error: the Simon search requires a point alternative "
            "(power_prior = point <p1>)",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    result = simon_search(
        config.p0, config.power_prior.p, config.alpha, config.beta, config.n_max
    )
    if result is None:
        print(
            f"no feasible Simon design with n2 <= {config.n_max}", file=sys.stderr
        )
        return EXIT_INFEASIBLE
    optimal, minimax = result
    if fmt == "csv":
        print("design,r1,n1,r,n2,type_i,power,en_h0,pet")
    _print_simon("optimal", optimal, fmt)
    _print_simon("minimax", minimax, fmt)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfdesign",
        description="Exact two-stage Bayes factor trial designs with binary endpoints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_format: bool = True) -> None:
        p.add_argument("--config", required=True, help="path to a key = value config file")
        if with_format:
            p.add_argument(
                "--format",
                choices=("table", "csv"),
                default=None,
                help="output format (defaults to the config's output_format)",
            )

    add_common(sub.add_parser("calibrate", help="search for the optimal two-stage design"))

    oc = sub.add_parser("oc", help="operating characteristics of a fixed design")
    add_common(oc)
    oc.add_argument("--n1", type=int, required=True, help="interim sample size")
    oc.add_argument("--n2", type=int, required=True, help="final sample size")

    scan_p = sub.add_parser("scan", help="sweep the interim size at a fixed final size (CSV)")
    add_common(scan_p, with_format=False)
    scan_p.add_argument("--n2", type=int, required=True, help="final sample size")

    add_common(sub.add_parser("simon", help="classical optimal/minimax two-stage search"))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: cannot read '{args.config}': {exc}", file=sys.stderr)
        return EXIT_CONFIG
    fmt = getattr(args, "format", None) or config.output_format

    if args.command == "calibrate":
        return cmd_calibrate(config, fmt)
    if args.command == "oc":
        return cmd_oc(config, args.n1, args.n2, fmt)
    if args.command == "scan":
        return cmd_scan(config, args.n2)
    if args.command == "simon":
        return cmd_simon(config, fmt)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
