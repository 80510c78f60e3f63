"""Metric names, units and how each is computed from a run.

``END_TO_END`` and ``PER_LAYER`` must list exactly the metrics of
``BENCHMARK.json``; the tests hold them to it.
"""

import statistics

from spantrace import KERNELS

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

COUNTS = ("count_box", "count_set_exact", "count_set_at_most", "count_set_any", "count_total")
ENUMERATIONS = ("enumerate_box", "enumerate_set_exact")
SWEEPS = (
    "eq3",
    "eq4",
    "eq5",
    "bijection",
    "oracle",
    "grassmannian-tables",
    "sharpness",
    "partition-function",
)

_BUSY = (("calls", "count", "lower"), ("busy_s", "s", "lower"))
_SELF = _BUSY + (("self_s", "s", "lower"),)


def _per_layer():
    rows = []

    def add(prefix, fields):
        rows.extend((f"{prefix}.{field}", unit, better) for field, unit, better in fields)

    for kernel in KERNELS:
        add("kernels." + kernel, _BUSY)
    rows += [
        ("kernels.above_seam_ratio", "ratio", "lower"),
        ("kernels.distinct_ratio", "ratio", "higher"),
        ("kernels.direct.python_s", "s", "lower"),
        ("kernels.direct.compiled_present", "count", "higher"),
        ("kernels.direct.compiled_speedup", "x", "higher"),
    ]
    for name in COUNTS:
        add("partitions." + name, _SELF)
    for name in ENUMERATIONS:
        add("partitions." + name, _BUSY)
    rows.append(("partitions.enumerate.distinct_ratio", "ratio", "higher"))
    for name in ("betti_upper_bound", "betti_upper_bound_gapless"):
        add("bounds." + name, _SELF)
    for name in ("betti", "poincare"):
        add("grassmannian." + name, _SELF)
    rows.append(("grassmannian.gaussian_binomial.busy_s", "s", "lower"))
    add("bijection.verify_bijection", _SELF)
    for sweep in SWEEPS:
        add(
            "identities." + sweep,
            (("busy_s", "s", "lower"), ("self_s", "s", "lower"), ("checked", "count", "higher")),
        )
    rows += [
        ("oracles.pentagonal_partition_table.busy_s", "s", "lower"),
        ("cli.interpreter_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.main_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()

_FIELDS = {"calls": 0, "busy_s": 1, "self_s": 2}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def end_to_end(setup_s, unit_s, op_s, rss_mb):
    """The end-to-end metrics of an untraced phase: medians of the set-up
    and unit timings, percentiles of the operation latencies."""
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(unit_s),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_p90_ms": statistics.quantiles(op_s, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": rss_mb,
    }


def per_layer(trace, units, kernel_section, probes, overhead_ratio):
    """The per-layer metrics of a traced phase.  Calls, busy and self times
    and checked counts are per unit of work (``trace`` sums ``units``
    units); ratios are over the whole phase."""
    spans, counts = trace["spans"], trace["counts"]

    def calls(*names):
        return sum(spans.get(name, [0])[0] for name in names)

    kernel_calls = calls(*("kernels." + kernel for kernel in KERNELS))
    enumerate_calls = calls(*("partitions." + name for name in ENUMERATIONS))
    main = spans.get("cli.main", [0, 0.0, 0.0])
    special = {
        "kernels.above_seam_ratio": _ratio(counts.get("kernels.above_seam", 0), kernel_calls),
        "kernels.distinct_ratio": _ratio(counts.get("kernels.distinct", 0), kernel_calls),
        "kernels.direct.python_s": kernel_section["python_s"],
        "kernels.direct.compiled_present": int(kernel_section["compiled_present"]),
        "kernels.direct.compiled_speedup": _ratio(kernel_section["python_s"], kernel_section["compiled_s"]),
        "partitions.enumerate.distinct_ratio": _ratio(counts.get("enumerate.distinct", 0), enumerate_calls),
        "cli.interpreter_s": probes["interpreter_s"],
        "cli.import_s": probes["import_s"],
        "cli.main_s": _ratio(main[1], main[0]),
        "trace.overhead_ratio": overhead_ratio,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
            continue
        span, field = name.rsplit(".", 1)
        if field == "checked":
            out[name] = counts.get(name, 0) / units
        else:
            out[name] = spans.get(span, [0, 0.0, 0.0])[_FIELDS[field]] / units
    return out
