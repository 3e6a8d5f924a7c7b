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

from .calibration import optimal_calibrate, scan
from .config import ConfigError, RunConfig, load_config
from .operating import DesignGrid
from .priors import ParameterError, PointMass
from .simon import simon_search

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _fail(message: str, code: int = EXIT_CONFIG) -> int:
    print(message, file=sys.stderr)
    return code


def _model(config: RunConfig) -> tuple:
    """(k, k_f, hypotheses, analysis prior, power prior): the arguments every search shares."""
    return config.k, config.k_f, config.hypotheses(), config.analysis_prior(), config.power_prior


def _prob(value: float, fmt: str) -> str:
    return f"{value:.6f}" if fmt == "csv" else f"{value:.4f}"


def _size(value: float, fmt: str) -> str:
    return f"{value:.6f}" if fmt == "csv" else f"{value:.2f}"


def _print_record(fields: list[tuple[str, str]], fmt: str) -> None:
    """A header line and a value line, comma-separated or aligned under the names."""
    if fmt == "csv":
        print(",".join(name for name, _ in fields))
        print(",".join(value for _, value in fields))
    else:
        print("  ".join(name for name, _ in fields))
        print("  ".join(value.rjust(len(name)) for name, value in fields))


def cmd_calibrate(config: RunConfig, args: argparse.Namespace) -> int:
    result = optimal_calibrate(config.constraints(), *_model(config))
    if result is None:
        return _fail(
            "no feasible design: the constraints cannot be calibrated for "
            f"this choice of thresholds (k, k_f) with n2 <= {config.n_max}",
            EXIT_INFEASIBLE,
        )
    d, oc, fmt = result.design, result.oc, args.format
    _print_record([
        ("n1", str(d.n1)),
        ("n2", str(d.n2)),
        ("type_i", _prob(oc.type_i_adjusted, fmt)),
        ("power", _prob(oc.power_adjusted, fmt)),
        ("en_h0", _size(oc.e_n_h0, fmt)),
        ("pce", _prob(oc.pce_p0, fmt)),
    ], fmt)
    return EXIT_OK


_OC_RATES = (
    "type_i_unadjusted", "type_i_adjusted", "power_unadjusted", "power_adjusted",
    "futility_erased_type_i", "futility_erased_power",
)


def cmd_oc(config: RunConfig, args: argparse.Namespace) -> int:
    n1, n2, fmt = args.n1, args.n2, args.format
    if not 1 <= n1 < n2 <= config.n_max:
        return _fail(
            f"usage error: need 1 <= n1 < n2 <= n_max, got n1={n1}, n2={n2}, "
            f"n_max={config.n_max}"
        )
    grid = DesignGrid((n1, n2), *_model(config))
    oc = grid.oc(n1, n2)
    rows = [("n1", str(n1)), ("n2", str(n2))]
    rows += [(name, _prob(getattr(oc, name), fmt)) for name in _OC_RATES]
    rows += [
        ("pce", _prob(oc.pce_p0, fmt)),
        ("en_h0", _size(oc.e_n_h0, fmt)),
        ("en_h1", _size(oc.e_n_h1, fmt)),
    ]
    rows += [
        (f"branch_{h}_{branch}", _prob(getattr(getattr(oc, f"branch_{h}"), branch), fmt))
        for h in ("h0", "h1") for branch in ("efficacy", "indecisive", "futility")
    ]
    # without a futility count at n1 the interim look can never stop the trial
    if grid.y_fut[n1] is None:
        rows.append(("interim_stop_possible", "false"))
    if fmt == "csv":
        _print_record(rows, fmt)
    else:
        width = max(len(name) for name, _ in rows)
        for name, value in rows:
            print(f"{name.ljust(width)}  {value}")
    return EXIT_OK


def cmd_scan(config: RunConfig, args: argparse.Namespace) -> int:
    n2 = args.n2
    if not 1 <= n2 <= config.n_max:
        return _fail(f"usage error: need 1 <= n2 <= n_max, got n2={n2}, n_max={config.n_max}")
    print("n1,power_adj,typeI_adj,pce,en_h0,feasible")
    for row in scan(n2, config.constraints(), *_model(config)):
        print(
            f"{row.n1},{row.power_adjusted:.6f},{row.type_i_adjusted:.6f},"
            f"{row.pce:.6f},{row.e_n_h0:.6f},{'true' if row.feasible else 'false'}"
        )
    return EXIT_OK


def cmd_simon(config: RunConfig, args: argparse.Namespace) -> int:
    if not isinstance(config.power_prior, PointMass):
        return _fail(
            "usage error: the Simon search requires a point alternative "
            "(power_prior = point <p1>)"
        )
    result = simon_search(
        config.p0, config.power_prior.p, config.alpha, config.beta, config.n_max
    )
    if result is None:
        return _fail(f"no feasible Simon design with n2 <= {config.n_max}", EXIT_INFEASIBLE)
    fmt = args.format
    if fmt == "csv":
        print("design,r1,n1,r,n2,type_i,power,en_h0,pet")
    for label, d in zip(("optimal", "minimax"), result):
        fields = [
            ("design", label),
            ("r1", str(d.r1)),
            ("n1", str(d.n1)),
            ("r", str(d.r)),
            ("n2", str(d.n2)),
            ("type_i", _prob(d.alpha_attained, fmt)),
            ("power", _prob(d.power_attained, fmt)),
            ("en_h0", _size(d.e_n_h0, fmt)),
            ("pet", _prob(d.pet_p0, fmt)),
        ]
        if fmt == "csv":
            print(",".join(value for _, value in fields))
        else:
            print("  ".join(f"{name}={value}" for name, value in fields))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfdesign",
        description="Exact two-stage Bayes factor trial designs with binary endpoints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str, handler, summary: str, with_format: bool = True
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, format=None)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        if with_format:
            p.add_argument(
                "--format",
                choices=("table", "csv"),
                help="output format (defaults to the config's output_format)",
            )
        return p

    command("calibrate", cmd_calibrate, "search for the optimal two-stage design")
    oc = command("oc", cmd_oc, "operating characteristics of a fixed design")
    oc.add_argument("--n1", type=int, required=True, help="interim sample size")
    oc.add_argument("--n2", type=int, required=True, help="final sample size")
    scan_p = command(
        "scan", cmd_scan, "sweep the interim size at a fixed final size (CSV)", with_format=False
    )
    scan_p.add_argument("--n2", type=int, required=True, help="final sample size")
    command("simon", cmd_simon, "classical optimal/minimax two-stage search")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        return _fail(f"config error: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(f"config error: cannot read '{args.config}': {exc}")
    args.format = args.format or config.output_format
    try:
        return args.handler(config, args)
    except ParameterError as exc:  # a library refusal that the parsed config reaches
        return _fail(f"config error: {ConfigError(exc.name, exc.message)}")


if __name__ == "__main__":
    sys.exit(main())
