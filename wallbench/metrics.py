"""Turns one raw wallbench record into the benchmark's metrics.

The C++ driver (wallbench.cpp) measures and writes raw samples: set-up
times, op times, spans and counters. Everything statistical lives here,
so it is testable without building anything (see test_metrics.py).
"""

import math
import statistics

# Spans that are one call into the execute path of a Plan: their wall
# time minus the fingerprint and the kernel spans is unattributed time.
EXECUTE_SPANS = (
    "dist.execute.fusedmm_a",
    "dist.execute.fusedmm_b",
    "apps.serve.spmmb_execute",
)

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def median(values):
    return statistics.median(values) if values else 0.0


def tail(samples):
    """The highest nearest-rank percentile with at least 10 samples beyond it.

    Returns (percentile, value). With fewer than 21 samples no percentile
    above the median has 10 samples beyond it, so the tail falls back to
    the median: a run that short shows no tail.
    """
    if not samples:
        return 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 11  # 0-based rank with exactly 10 samples above it
    if k < n // 2:
        return 50.0, median(ordered)
    return 100.0 * (k + 1) / n, ordered[k]


def fail_ratio(attempted, failed):
    return failed / attempted if attempted > 0 else 1.0


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval that its child spans cover.

    `spans` is a list of [name, start, end, parent, req] with `parent`
    an index into the list (-1 for a root).
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def end_to_end(raw):
    """End-to-end metrics of an untraced run (values only)."""
    ops = raw["ops_s"]
    _, tail_value = tail(ops)
    ops_per_s = len(ops) / raw["loop_s"] if raw["loop_s"] > 0 else 0.0
    return {
        "setup_s": median(raw["setup_s"]),
        "op_p50_s": median(ops),
        "op_tail_s": tail_value,
        "ops_per_s": ops_per_s,
        "requests_per_s": ops_per_s * raw["requests_per_op"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, names):
    """Per-layer metrics of a traced run, for every name in `names`.

    A metric named after a span (span name + "_s") is the median self
    time of that span's instances; one named after a counter is the
    median of its samples; a few are derived below. A layer the workload
    never enters reads 0.
    """
    spans = raw["spans"]
    selfs = self_times(spans)
    by_span = {}
    for span, self_s in zip(spans, selfs):
        by_span.setdefault(span[0], []).append(self_s)
    by_counter = {}
    for name, value, _ in raw["counters"]:
        by_counter.setdefault(name, []).append(value)

    values = {}
    for name, samples in by_counter.items():
        values[name] = float(median(samples))
    for name, samples in by_span.items():
        values[name + "_s"] = median(samples)

    # Op wall minus the plan check and the kernel spans, per traced op.
    fingerprint = values.get("dist.plan.fingerprint_s", 0.0)
    per_req = {}
    for span in spans:
        if span[0] in EXECUTE_SPANS:
            per_req.setdefault(span[4], 0.0)
            per_req[span[4]] += span[2] - span[1]
    for name, value, req in raw["counters"]:
        if req in per_req and name == "runtime.kernel_spans_s":
            per_req[req] -= value
        elif req in per_req and name == "dist.execute.calls":
            per_req[req] -= value * fingerprint
    values["dist.execute.unattributed_s"] = median(list(per_req.values()))

    if "apps.serve.top_k" in by_span:
        values["apps.serve.app_side_s"] = (
            median(by_span["apps.serve.top_k"])
            - values.get("apps.serve.spmmb_execute_s", 0.0))

    untraced = median(raw["ops_s"])
    overhead = median(raw["traced_ops_s"]) - untraced
    values["trace.overhead_s"] = overhead
    values["trace.overhead_ratio"] = overhead / untraced if untraced else 0.0
    values["trace.ops"] = float(len(raw["traced_ops_s"]))

    return {name: values.get(name, 0.0) for name in names}


def result(raw, specs):
    """The final record: correctness, op counts and the metrics in
    `specs` (BENCHMARK.json entries with a name and a unit)."""
    names = [s["name"] for s in specs]
    if raw["trace"]:
        values = per_layer(raw, names)
    else:
        values = end_to_end(raw)
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}
    return {
        "correct": raw["failed"] == 0 and raw["attempted"] >= 1,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }


def check_result(record, specs):
    """Raise ValueError unless `record` follows the output schema: exactly
    the four keys, whole-number counts, and one finite number with the
    declared unit for every metric in `specs`, and no other metric."""
    if not isinstance(record, dict) or tuple(sorted(record)) != tuple(
            sorted(RESULT_KEYS)):
        raise ValueError("result keys must be exactly %s" % (RESULT_KEYS,))
    if not isinstance(record["correct"], bool):
        raise ValueError("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(record[key], int) or isinstance(record[key], bool):
            raise ValueError(key + " must be a whole number")
    if record["attempted"] < 1 or not 0 <= record["failed"] <= record[
            "attempted"]:
        raise ValueError("need attempted >= 1 and 0 <= failed <= attempted")
    want = {s["name"]: s["unit"] for s in specs}
    got = record["metrics"]
    if not isinstance(got, dict) or set(got) != set(want):
        raise ValueError("metrics must be exactly %s" % sorted(want))
    for name, entry in got.items():
        if set(entry) != {"value", "unit"} or entry["unit"] != want[name]:
            raise ValueError(name + ": needs a value and unit " + want[name])
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise ValueError(name + ": value must be a finite number")
