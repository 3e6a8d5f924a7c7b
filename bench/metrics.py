"""Names, units and meaning of every metric the benchmark reports.

End-to-end metrics come from untraced repetitions.  Per-layer metrics come
from one traced repetition; each names the end-to-end metric it should move
and the workload on which it should move it.  ``BENCHMARK.json`` repeats the
names and units; ``python3 bench/selftest.py`` checks that the two agree.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric this layer metric should move
    on: str  # workload on which it should move it
    span: Optional[str] = None  # span whose calls or time it reads
    # "total_s", "calls" or "self_s" of spans, a tracer "counter", or
    # "derived" (computed in span_values or run.py from several sources)
    kind: str = "total_s"


# setup_s and solve_s are rescaled to a fixed CPU speed (worker.SpeedProbe);
# what remains of the host's speed drift spreads them by a few percent.
# Peak RSS varies only with the order of the cases.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("solve_s", "s", "lower", 0.24),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15),
)

PER_LAYER = (
    PerLayer("setup.import_s", "s", "lower", "setup_s", "shipped", kind="derived"),
    PerLayer("setup.scipy_stats_import_s", "s", "lower", "setup_s", "shipped", kind="derived"),
    PerLayer("config.load_config_s", "s", "lower", "setup_s", "shipped", "config.load_config"),
    PerLayer("cli.main_s", "s", "lower", "solve_s", "shipped", "cli.main"),
    PerLayer(
        "calibration.optimal_calibrate_s", "s", "lower", "solve_s", "search",
        "calibration.optimal_calibrate",
    ),
    PerLayer(
        "calibration.designs_visited", "count", "lower", "solve_s", "search",
        "calibration.DesignGrid.rates", "calls",
    ),
    PerLayer(
        "calibration.columns_pruned", "count", "higher", "solve_s", "search",
        "calibration.columns_pruned", "counter",
    ),
    PerLayer("calibration.scan_s", "s", "lower", "solve_s", "shipped", "calibration.scan"),
    PerLayer("calibration.self_s", "s", "lower", "solve_s", "search", "calibration", "self_s"),
    PerLayer(
        "operating.path_probabilities.calls", "count", "lower", "solve_s", "search",
        "operating.path_probabilities", "calls",
    ),
    PerLayer(
        "operating.path_probabilities_s", "s", "lower", "solve_s", "search",
        "operating.path_probabilities",
    ),
    PerLayer(
        "operating.futility_erased_s", "s", "lower", "solve_s", "search",
        "operating.futility_erased",
    ),
    PerLayer("operating.self_s", "s", "lower", "solve_s", "search", "operating", "self_s"),
    PerLayer("operating.evaluate_s", "s", "lower", "solve_s", "tails", "operating.evaluate"),
    PerLayer(
        "predictive.joint_predictive_matrix.calls", "count", "lower", "solve_s", "search",
        "predictive.joint_predictive_matrix", "calls",
    ),
    PerLayer(
        "predictive.joint_predictive_matrix_s", "s", "lower", "solve_s", "search",
        "predictive.joint_predictive_matrix",
    ),
    PerLayer(
        "predictive.joint_cells", "count", "lower", "peak_rss_mb", "search",
        "predictive.joint_cells", "counter",
    ),
    PerLayer("predictive.cache_hit_ratio", "ratio", "higher", "solve_s", "search", kind="derived"),
    PerLayer("predictive.cache_lookups", "count", "lower", "solve_s", "search", kind="derived"),
    PerLayer(
        "predictive.predictive_vector_s", "s", "lower", "solve_s", "tails",
        "predictive.predictive_vector",
    ),
    PerLayer("predictive.self_s", "s", "lower", "solve_s", "search", "predictive", "self_s"),
    PerLayer(
        "bayesfactor.log_bf01_curve_s", "s", "lower", "solve_s", "tails",
        "bayesfactor.log_bf01_curve",
    ),
    PerLayer("bayesfactor.critical_calls", "count", "lower", "solve_s", "search", kind="derived"),
    PerLayer("bayesfactor.self_s", "s", "lower", "solve_s", "tails", "bayesfactor", "self_s"),
    PerLayer(
        "special.mp_calls", "count", "lower", "solve_s", "tails",
        "special.mpmath.betainc", "calls",
    ),
    PerLayer("special.mp_s", "s", "lower", "solve_s", "tails", "special.mpmath.betainc"),
    PerLayer("special.self_s", "s", "lower", "solve_s", "tails", "special", "self_s"),
    PerLayer("simon.simon_search_s", "s", "lower", "solve_s", "simon", "simon.simon_search"),
    PerLayer(
        "simon.binom_calls", "count", "lower", "solve_s", "simon", "simon.binom_calls", "counter"
    ),
    PerLayer(
        "simon.binom_values", "count", "lower", "solve_s", "simon", "simon.binom_values", "counter"
    ),
    PerLayer("trace.overhead_ratio", "ratio", "lower", "solve_s", "all", kind="derived"),
    PerLayer("error_rate", "ratio", "lower", "solve_s", "all", kind="derived"),
)

# Wrapped functions and the workload on which each must record a call.  A
# zero there means either that a caller reached the function around its
# wrapper or that a later version stopped calling it; run.py reports it and
# the self-test fails on it.
HOME_SPANS = tuple((m.span, m.on) for m in PER_LAYER if m.kind in ("total_s", "calls"))

# The joint-matrix cache reads this when a later version has removed it.
ABSENT = -1.0


def span_values(summary: dict, counters: dict) -> dict:
    """Per-layer values that the traced repetition itself determines."""

    def total(span: str, key: str) -> float:
        return summary.get(span, {}).get(key, 0)

    out = {}
    for m in PER_LAYER:
        if m.kind == "total_s":
            out[m.name] = float(total(m.span, "total_s"))
        elif m.kind == "calls":
            out[m.name] = int(total(m.span, "calls"))
        elif m.kind == "self_s":
            prefix = m.span + "."
            out[m.name] = float(
                sum(v["self_s"] for k, v in summary.items() if k.startswith(prefix))
            )
        elif m.kind == "counter":
            out[m.name] = int(counters.get(m.span, 0))
    out["bayesfactor.critical_calls"] = int(
        total("bayesfactor.critical_efficacy", "calls")
        + total("bayesfactor.critical_futility", "calls")
    )
    if "predictive.cache_hits" in counters:
        hits = counters["predictive.cache_hits"]
        lookups = hits + counters["predictive.cache_misses"]
        out["predictive.cache_lookups"] = int(lookups)
        out["predictive.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    else:
        out["predictive.cache_lookups"] = ABSENT
        out["predictive.cache_hit_ratio"] = ABSENT
    return out


def not_fired(summary: dict, workload: str) -> list:
    """Wrapped functions that recorded no call on their home workload."""
    return [
        span
        for span, home in HOME_SPANS
        if home == workload and summary.get(span, {}).get("calls", 0) == 0
    ]
