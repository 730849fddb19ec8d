"""Metric definitions: the tail rule, the end-to-end units and the layer table."""

from __future__ import annotations

import math

#: End-to-end metrics, all reported on every workload: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "op_cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "success_rate": "ratio",
}

#: Tail samples required beyond the reported percentile.
TAIL_BEYOND = 10

#: Per-layer metrics read off a traced operation: (metric, kind, span names).
#: ``self`` sums self time over the named spans, ``calls`` counts them,
#: ``count`` reads a counter; a trailing ``*`` matches a name prefix.
LAYERS = (
    ("estimation.fit_tlc.calls", "calls", ("estimation.fit_tlc",)),
    ("estimation.fit_tlc.self_s", "self", ("estimation.fit_tlc",)),
    ("estimation.classify_against_schedule.self_s", "self", ("estimation.classify_against_schedule",)),
    ("estimation.detect_override_shift.self_s", "self", ("estimation.detect_override_shift",)),
    ("estimation.attribute_shift.self_s", "self", ("estimation.attribute_shift",)),
    ("reporting.run_audit.self_s", "self", ("reporting.run_audit",)),
    ("dataio.read_episodes.self_s", "self", ("dataio.read_episodes",)),
    ("dataio.read_episodes.rows", "count", ("dataio.read_episodes.rows",)),
    ("dataio.write_episodes.self_s", "self", ("dataio.write_episodes", "dataio.episodes_to_csv")),
    ("dataio.write_episodes.rows", "count", ("dataio.write_episodes.rows",)),
    ("cli.main.self_s", "self", ("cli.main",)),
    ("distributions.rvs.self_s", "self", ("distributions.ShockDistribution.rvs",)),
    ("floors.apply_equity_floor.self_s", "self", ("floors.apply_equity_floor",)),
    ("allocation.allocate.calls", "calls", ("allocation.allocate",)),
    ("allocation.allocate.self_s", "self", ("allocation.allocate",)),
    ("allocation.cap_ordering_report.self_s", "self", ("allocation.cap_ordering_report",)),
    ("allocation.kernel_calls", "count", ("policy.tlc_policy_linear@allocation",)),
    ("configfile.load_config.self_s", "self", ("configfile.load_config", "configfile.parse_config")),
    ("configfile.build.self_s", "self", ("configfile.build_*",)),
    ("policy.tlc_policy_linear.calls", "calls", ("policy.tlc_policy_linear",)),
    ("policy.tlc_policy_linear.self_s", "self", ("policy.tlc_policy_linear",)),
    ("policy.cutoffs.calls", "calls", ("policy.cutoffs",)),
    ("voting.empirical_cap.calls", "calls", ("voting.empirical_cap",)),
    ("voting.empirical_cap.self_s", "self", ("voting.empirical_cap",)),
    ("voting.aggregate_support.self_s", "self", ("voting.aggregate_support",)),
    ("policy.tlc_policy_general.calls", "calls", ("policy.tlc_policy_general",)),
    ("policy.tlc_policy_general.self_s", "self", ("policy.tlc_policy_general",)),
    ("policy.benefit_evals", "count", ("benefit_evals",)),
    ("reporting.render.self_s", "self", ("reporting.render_*", "reporting.classification_csv")),
    ("svgplot.self_s", "self", ("svgplot.*",)),
    ("cli.bytes_written", "count", ("bytes_written",)),
)

#: Metrics of the traced run that are not read off spans.
IMPORTS = {"import.bailrule_s": "bailrule", "import.scipy_s": "scipy", "import.numpy_s": "numpy"}
TRACE = ("trace.overhead_s", "trace.unaccounted_s")


def unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric == "cli.bytes_written" else "count"


def per_layer_names() -> list:
    return list(IMPORTS) + [m for m, _k, _n in LAYERS] + list(TRACE)


def median(values) -> float:
    v = sorted(values)
    n = len(v)
    return 0.5 * (v[(n - 1) // 2] + v[n // 2])


def tail(values) -> tuple:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns (value, percentile, samples beyond).  With n sorted samples the
    (n - 10)-th smallest has exactly 10 above it, which is the nearest-rank
    percentile 100 * (n - 10) / n.  Fewer than 11 samples leave no such
    percentile; the smallest sample is returned then, with its smaller
    count beyond, so the caller can see the rule was not met.
    """
    v = sorted(values)
    rank = max(len(v) - TAIL_BEYOND, 1)
    return v[rank - 1], math.floor(100 * rank / len(v)), len(v) - rank


def _matches(name: str, patterns) -> bool:
    return any(name.startswith(p[:-1]) if p.endswith("*") else name == p for p in patterns)


def layer_values(layers: dict) -> dict:
    """The ``LAYERS`` metrics of one traced operation's summary."""
    out = {}
    for metric, kind, patterns in LAYERS:
        if kind == "self":
            out[metric] = sum(t for n, t in layers["self_s"].items() if _matches(n, patterns))
        elif kind == "calls":
            out[metric] = sum(c for n, c in layers["calls"].items() if _matches(n, patterns))
        else:
            out[metric] = sum(c for n, c in layers["counts"].items() if _matches(n, patterns))
    return out
