"""Repository benchmark: one workload per call, one JSON line of results.

Run from the repository root::

    python3 perfbench/run.py --workload modify_direct --seed 1 --seconds 17 --trace 0
    python3 perfbench/run.py --selftest

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` reports the per-layer metrics instead: it measures half the
window untraced, sets up again and measures the other half with the
layer entry points in ``layers.json`` wrapped, then runs the untimed
comparison-count and full-sort passes.  ``--report PATH`` also writes
the detailed result (span counts per name, missing hooks, idle-layer
check) as JSON.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 only when every response was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
BASELINE_SEED = 1


def _load_layers() -> dict:
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of ``values``.

    A weighted mean of all order statistics, the ``i``-th weighted by the
    Beta((n+1)p, (n+1)(1-p)) mass on ((i-1)/n, i/n].  The latency mix is
    a few clusters (one per target and shape), and a single order
    statistic jumps between them from run to run; at p90, which falls
    between the slowest modifications and the full sorts, this estimate
    spreads about half as much as the plain percentile.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    # Weights outside mean +- 12 sd of the Beta law are below 1e-15.
    mean, sd = a / (a + b), math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    lo = max(0, math.floor((mean - 12 * sd) * n))
    hi = min(n, math.ceil((mean + 12 * sd) * n))
    total = 0.0
    prev = _beta_cdf(lo / n, a, b)
    for i in range(lo, hi):
        cdf = _beta_cdf((i + 1) / n, a, b)
        total += (cdf - prev) * xs[i]
        prev = cdf
    return total


def _beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(x, a, b) / a
    return 1.0 - front * _beta_cf(1.0 - x, b, a) / b


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300

    def guard(v: float) -> float:
        return tiny if abs(v) < tiny else v

    c, d = 1.0, 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10000):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 / guard(1.0 + num * d)
            c = guard(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta did not converge at {x}, {a}, {b}")


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float) -> tuple[dict, object]:
    """Set up ``SETUP_REPEATS`` times (median is ``setup_s``), then
    measure one untraced window on the last set-up."""
    setups = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        if i < SETUP_REPEATS - 1:
            workload.close()
    try:
        phase = workload.run(seconds)
    finally:
        workload.close()
    done = len(phase.latencies)
    if done == 0:
        raise RuntimeError("no request completed: " + "; ".join(phase.errors[:3]))
    metrics = {
        "latency_p50_ms": _metric(_quantile(phase.latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": _metric(_quantile(phase.latencies, 0.9) * 1e3, "ms"),
        "throughput_rps": _metric(done / phase.busy, "1/s"),
        "cpu_ms_per_request": _metric(phase.cpu / done * 1e3, "ms"),
        "success_frac": _metric(
            (phase.attempted - phase.failed) / phase.attempted, "fraction"
        ),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
        ),
        "setup_s": _metric(statistics.median(setups), "s"),
    }
    return metrics, phase


def per_layer(workload, seconds: float, layers: dict) -> tuple[dict, list, dict]:
    """Untraced half window, traced half window, then the count passes."""
    import repro
    from spans import Recorder

    half = seconds / 2.0
    workload.setup()
    try:
        plain = workload.run(half)
    finally:
        workload.close()

    recorder = Recorder()
    observed = {"sibling_edges": [], "est_speedup": [], "fallbacks": 0,
                "nodes": 0, "node_hits": 0, "node_modify_from": 0}
    workload.setup()
    cache_before = _cache_counters(recorder)
    recorder.install(layers["hooks"], _wrapper_factory(recorder, observed))
    try:
        traced = workload.run(half, recorder)
    finally:
        recorder.uninstall()
        cache_after = _cache_counters(recorder)
        workload.close()
    phases = [plain, traced]

    n = max(1, len(traced.rids))
    table = recorder.per_request(traced.rids)
    span_calls: dict = {}
    for rid in traced.rids:
        for nm, cell in table[rid].items():
            span_calls[nm] = span_calls.get(nm, 0) + cell[1]

    def layer_calls(layer: str) -> int:
        return sum(c for nm, c in span_calls.items()
                   if nm.split(".")[0] == layer)

    stats = _layer_stats(workload, traced, plain, observed, n,
                         cache_before, cache_after, repro)
    metrics: dict = {}
    for spec in layers["metrics"]:
        name, unit, kind = spec["name"], spec["unit"], spec["kind"]
        if kind == "layer_calls":
            lost = [h["span"] for h in layers["hooks"]
                    if h["span"] in recorder.missing
                    and h["span"].split(".")[0] == spec["layer"]]
        else:
            lost = [s for s in spec.get("needs", spec.get("spans", []))
                    if s in recorder.missing]
        if lost:
            metrics[name] = {"value": None, "unit": unit, "missing": "; ".join(
                recorder.missing[s] for s in lost)}
            continue
        if kind == "self_ms":
            # Median over the requests that reached these spans at all;
            # how many did is in the matching calls metric.
            wanted = set(spec["spans"])
            sums = [
                sum(cell[0] for nm, cell in table[rid].items() if nm in wanted)
                for rid in traced.rids
                if any(nm in wanted for nm in table[rid])
            ]
            value = statistics.median(sums) * 1e3 if sums else 0.0
        elif kind == "span_calls":
            value = sum(span_calls.get(nm, 0) for nm in spec["spans"]) / n
        elif kind == "layer_calls":
            value = layer_calls(spec["layer"]) / n
        else:
            value = stats[name]
        metrics[name] = _metric(value, unit)

    idle = layers["workloads"][workload.name]["idle"]
    violations = {layer: layer_calls(layer) for layer in idle
                  if layer_calls(layer)}
    for layer, calls in violations.items():
        print(f"perfbench: layer {layer} predicted idle on "
              f"{workload.name} but saw {calls} calls", file=sys.stderr)
    detail = {
        "requests_traced": len(traced.rids),
        "requests_untraced": len(plain.rids),
        "span_calls": dict(sorted(span_calls.items())),
        "missing_hooks": recorder.missing,
        "predicted_idle": idle,
        "idle_violations": violations,
    }
    return metrics, phases, detail


def _wrapper_factory(recorder, observed):
    """Build the wrapper for one hook, honouring its ``role``."""

    def segment_name(args, kwargs):
        prefix = kwargs.get("prefix_len", args[4] if len(args) > 4 else None)
        return "sorting.tournament" if prefix == 0 else "core.segment_sort"

    def on_plan(plan, _args, _kwargs):
        observed["sibling_edges"].append(plan.sibling_edges())
        observed["est_speedup"].append(min(plan.est_speedup, 1e6))

    def on_execute(results, _args, _kwargs):
        for node in results.values():
            observed["nodes"] += 1
            observed["fallbacks"] += bool(node.fallback)
            observed["node_hits"] += node.label.startswith("cache-hit")
            observed["node_modify_from"] += node.label.startswith(
                "modify-from-cache")

    def make(hook, original):
        role = hook.get("role")
        if role == "bind_entry":
            def bind(queue, entry, *args, **kwargs):
                recorder.bind_entry(entry)
                return original(queue, entry, *args, **kwargs)
            return bind
        if role == "run_entry":
            timed = recorder.span_wrapper(original, hook["span"])

            def run_entry(service, entry, *args, **kwargs):
                rid = recorder.entry_rid(entry)
                try:
                    waited = time.monotonic() - entry.submitted_at
                except (AttributeError, TypeError) as exc:
                    recorder.missing.setdefault(
                        "serve.queue_wait", f"no admission time: {exc!r}")
                else:
                    recorder.event("serve.queue_wait", max(0.0, waited), rid)
                recorder.enter_as_root(rid)
                try:
                    return timed(service, entry, *args, **kwargs)
                finally:
                    recorder.leave_root()
            return run_entry
        if role == "segment_or_full_sort":
            return recorder.span_wrapper(original, segment_name)
        if role == "plan":
            return recorder.span_wrapper(original, hook["span"], on_plan)
        if role == "execute_plan":
            return recorder.span_wrapper(original, hook["span"], on_execute)
        return recorder.span_wrapper(original, hook["span"])

    return make


def _cache_counters(recorder) -> dict:
    try:
        from repro.cache import get_cache

        cache = get_cache()
        return cache.counters() if cache is not None else {}
    except (ImportError, AttributeError) as exc:
        recorder.missing.setdefault("cache.counters", repr(exc))
        return {}


def _layer_stats(workload, traced, plain, observed, n, before, after, repro):
    """Count metrics, the reference-engine comparison counts, the
    full-sort speed-up and the tracing overhead."""
    def delta(key):
        return (after.get(key, 0) - before.get(key, 0)) / n

    labels = traced.labels
    if labels:
        hit_ratio = sum(l.startswith("cache-hit") for l in labels) / len(labels)
        modify_from = sum(l.startswith("modify-from-cache")
                          for l in labels) / len(labels)
    elif observed["nodes"]:
        hit_ratio = observed["node_hits"] / observed["nodes"]
        modify_from = observed["node_modify_from"] / observed["nodes"]
    else:
        hit_ratio = modify_from = 0.0

    counts = repro.ComparisonStats()
    rows = 0
    modify_s = full_s = 0.0
    reference = repro.ExecutionConfig(engine="reference")
    for table, label, columns in workload.sample_pairs():
        repro.modify_sort_order(table, columns, stats=counts, config=reference)
        rows += len(table.rows)
        if label in ("full", "case0"):
            continue
        t0 = time.perf_counter()
        repro.modify_sort_order(table, columns)
        t1 = time.perf_counter()
        repro.modify_sort_order(table, columns, method="full_sort")
        t2 = time.perf_counter()
        modify_s += t1 - t0
        full_s += t2 - t1

    common = min(len(plain.latencies), len(traced.latencies))
    if workload.name == "serve_hot" or common == 0:
        overhead = (statistics.fmean(traced.latencies)
                    / statistics.fmean(plain.latencies)) - 1.0
    else:
        overhead = (sum(traced.latencies[:common])
                    / sum(plain.latencies[:common])) - 1.0

    sib = observed["sibling_edges"]
    return {
        "serve.coalesced_frac": traced.coalesced / n,
        "serve.executions_per_request": traced.executions / n,
        "cache.hit_ratio": hit_ratio,
        "cache.modify_from_frac": modify_from,
        "cache.spills_per_request": delta("spills"),
        "cache.evictions_per_request": delta("evictions"),
        "cache.rehydrates_per_request": delta("rehydrates"),
        "cache.resident_mb": after.get("bytes_resident", 0) / 2.0 ** 20,
        "plan.sibling_edges_per_batch": statistics.fmean(sib) if sib else 0.0,
        "plan.fallbacks": observed["fallbacks"] / n,
        "plan.est_speedup": (statistics.median(observed["est_speedup"])
                             if observed["est_speedup"] else 0.0),
        "core.row_cmp_per_row": counts.row_comparisons / rows,
        "core.column_cmp_per_row": counts.column_comparisons / rows,
        "core.ovc_cmp_per_row": counts.ovc_comparisons / rows,
        "core.speedup_vs_full_sort": full_s / modify_s,
        "trace.overhead_frac": overhead,
    }


def _prepare_process(tmp_dir: str) -> None:
    """Keep every file inside the checkout and the program on defaults."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.makedirs(tmp_dir, exist_ok=True)
    tempfile.tempdir = tmp_dir
    sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv=None) -> int:
    layers = _load_layers()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(layers["workloads"]))
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=17.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write the detailed result here")
    parser.add_argument("--selftest", action="store_true",
                        help="check the output checker and the case mix")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro package under {ROOT}/src",
              file=sys.stderr)
        return 2
    tmp_dir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    _prepare_process(tmp_dir)
    try:
        return _run(args, layers, tmp_dir)
    finally:
        if "repro" in sys.modules:  # close the cache before its spill dir goes
            sys.modules["repro"].reset_cache()
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_dir))
        except OSError:
            pass


def _run(args, layers, tmp_dir: str) -> int:
    import checker
    import inputs
    from workloads import WORKLOADS

    checker.selftest()
    inputs.check_case_mix()
    if args.selftest:
        _check_benchmark_file(layers)
        print("perfbench selftest: ok", file=sys.stderr)
        return 0

    kind = WORKLOADS[args.workload]
    check = checker.OutputChecker(kind.live_sources)
    workload = kind(args.seed, check, tmp_dir)
    if args.trace:
        metrics, phases, detail = per_layer(workload, args.seconds, layers)
    else:
        metrics, phase = end_to_end(workload, args.seconds)
        phases, detail = [phase], {}
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = not check.mismatches
    for message in check.mismatches[:10]:
        print(f"perfbench: wrong output: {message}", file=sys.stderr)
    for phase in phases:
        for message in phase.errors[:10]:
            print(f"perfbench: request failed: {message}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.report:
        report = dict(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, **detail)
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=False)
            fh.write("\n")
    print(json.dumps(result))
    return 0 if correct else 1


def _check_benchmark_file(layers: dict) -> None:
    """BENCHMARK.json and layers.json must name the same metrics and
    workloads."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [m["name"] for m in bench["per_layer"]]
    if names != [m["name"] for m in layers["metrics"]]:
        raise AssertionError("BENCHMARK.json per_layer differs from layers.json")
    if [w["name"] for w in bench["workloads"]] != list(layers["workloads"]):
        raise AssertionError("BENCHMARK.json workloads differ from layers.json")


if __name__ == "__main__":
    sys.exit(main())
