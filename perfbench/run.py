#!/usr/bin/env python3
"""The repository benchmark: builds the perfbench binary, runs one workload
and prints its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The binary (perfbench, built from this
directory's CMakeLists.txt into $CARGO_TARGET_DIR or .bench_build) measures
and prints raw samples; this script turns them into the metrics named in
BENCHMARK.json and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. A machine record line precedes the result.
Exit status: 0 when every output check passed, 1 when a check failed, 2
when the benchmark could not run. README.md explains every metric.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Span category -> layer. Categories are the first half of a span name: the
# benchmark's own spans use the layer itself, the library's spans use its
# subsystem ("executor/run", "sched.private/clustering", ...).
LAYER_OF_CATEGORY = {
    "graph": "graph",
    "congest": "congest",
    "executor": "congest",
    "simulator": "congest",
    "sched": "sched",
    "sched.shared": "sched",
    "sched.private": "sched",
    "clustering": "sched",
    "rand_sharing": "sched",
    "verify": "verify",
    "analysis": "analysis",
    "service": "service",
}
LAYERS = ("graph", "congest", "sched", "verify", "analysis", "service")

# The sample timing one operation of each workload, traced and untraced --
# what telemetry.overhead_frac compares -- and the sample naming which
# operation of a batch it timed (None: the workload repeats one operation).
OPERATION_SAMPLES = {
    "flood_large": ("run_s", None),
    "flood_faulty": ("run_s", None),
    "das_batch": ("problem_s", "problem_key"),
    "service_stream": ("serve_serial_s", "serve_key"),
}

# Per message the engine writes a staging lane entry and a CSR arena entry,
# header plus W payload words each, and reads both back: 2 * (4 + 8W) bytes
# written and read, plus 12 bytes of routing (dest and edge lanes) -- a
# computed figure that ignores cache misses.
def bytes_per_message(width_words):
    return 20 + 16 * width_words


class BenchError(Exception):
    """The benchmark cannot produce a result (exit status 2)."""


# --------------------------------------------------------------------------
# Arithmetic
# --------------------------------------------------------------------------

def valid_name(name):
    """Metric and workload names: a letter or digit, then at most 63 of
    [A-Za-z0-9_.-]."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def median(xs):
    if not xs:
        raise BenchError("median of no samples")
    return statistics.median(xs)


def mean(xs):
    if not xs:
        raise BenchError("mean of no samples")
    return sum(xs) / len(xs)


def fastest(times):
    """The run's representative time for a repeated operation: its fastest
    sample. On a shared host the speed of the same work swings by up to
    1.7x between spells of a second or more; other tenants only ever slow a
    sample down, and a run of many short samples meets at least one quiet
    spell, so the minimum is what repeats from run to run."""
    if not times:
        raise BenchError("fastest of no samples")
    return min(times)


def keyed_fastest(times, keys):
    """{key: fastest sample} for samples of several distinct operations
    (keys[i] names the operation times[i] timed)."""
    if len(times) != len(keys):
        raise BenchError("samples and keys of unequal length")
    best = {}
    for t, k in zip(times, keys):
        best[k] = min(t, best.get(k, t))
    if not best:
        raise BenchError("fastest of no samples")
    return best


def batch_time(times, keys, only=None):
    """Time of one pass over a batch of distinct operations: the sum of each
    operation's fastest sample (over the keys in `only`, if given)."""
    best = keyed_fastest(times, keys)
    chosen = best if only is None else only
    return sum(best[k] for k in chosen)


def nearest_rank(xs, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it. Returns (value, sample count)."""
    if not xs:
        raise BenchError("percentile of no samples")
    if not 0 < pct <= 100:
        raise BenchError("percentile outside (0, 100]")
    ordered = sorted(xs)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered)


def fail_frac(attempted, failed):
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise BenchError("no operation attempted")
    if not 0 <= failed <= attempted:
        raise BenchError("failed count outside [0, attempted]")
    return failed / attempted


def nest(spans):
    """Parent index of every span (None for roots), from interval nesting.

    spans: list of (start, duration). A span's parent is the innermost span
    whose interval contains it. Spans that finish first are recorded first,
    so among spans with equal intervals the later one is the outer one.
    """
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i][0], -(spans[i][0] + spans[i][1]), -i))
    parents = [None] * len(spans)
    stack = []
    for i in order:
        end = spans[i][0] + spans[i][1]
        while stack and spans[stack[-1]][0] + spans[stack[-1]][1] < end:
            stack.pop()
        parents[i] = stack[-1] if stack else None
        stack.append(i)
    return parents


def union_length(intervals):
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans, parents):
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, p in enumerate(parents):
        if p is not None:
            children[p].append(i)
    out = []
    for i, (start, dur) in enumerate(spans):
        covered = union_length(
            (spans[c][0], spans[c][0] + spans[c][1]) for c in children[i])
        out.append(dur - covered)
    return out


def layer_ledger(raw_spans, window):
    """Self time per layer and the time no span covers, in the span clock's
    unit. raw_spans: [category, name, start, duration, id]. The self times
    and the uncovered time add up to `window`, the traced wall time."""
    spans = [(s[2], s[3]) for s in raw_spans]
    parents = nest(spans)
    selfs = self_times(spans, parents)
    ledger = {layer: 0 for layer in LAYERS}
    for s, t in zip(raw_spans, selfs):
        layer = LAYER_OF_CATEGORY.get(s[0])
        if layer is None:
            raise BenchError("span category %r has no layer" % s[0])
        ledger[layer] += t
    roots = [(a, a + d) for (a, d), p in zip(spans, parents) if p is None]
    uncovered = window - union_length(roots)
    return ledger, uncovered


def span_total(raw_spans, category, name):
    return sum(s[3] for s in raw_spans if s[0] == category and s[1] == name)


# --------------------------------------------------------------------------
# Raw measurements -> metrics
# --------------------------------------------------------------------------

def derive(raw):
    """All metrics one run measured, end-to-end and per layer."""
    S, V, M = raw["samples"], raw["values"], raw["machine"]
    w = raw["workload"]
    m = {
        "setup_s": fastest(S["setup_s"]),
        "peak_rss_mib": raw["peak_rss_mib"],
        "fail_frac": fail_frac(raw["attempted"], raw["failed"]),
        "graph.gen_s": median(S["graph_gen_s"]),
        "machine.nproc": M["nproc"],
        "machine.llc_mib": M["llc_mib"],
        "machine.ram_mib": M["ram_mib"],
    }
    if w in ("flood_large", "flood_faulty"):
        messages = V["messages"]
        m.update({
            "msgs_per_s": messages / fastest(S["run_s"]),
            "msgs_per_s_serial": messages / fastest(S["run_serial_s"]),
            "problems_per_s": 1.0 / fastest(S["run_s"]),
            "congest.run_s": median(S["run_s"]),
            "congest.run_serial_s": median(S["run_serial_s"]),
            "congest.warmup_s": median(S["warmup_s"]),
            "congest.schedule_build_s": median(S["schedule_build_s"]),
            "congest.big_rounds": V["big_rounds"],
            "congest.events": V["events"],
            "congest.messages": messages,
            "congest.msgs_per_big_round": messages / V["big_rounds"],
            "congest.bytes_moved": messages * bytes_per_message(V["width_words"]),
            "congest.working_set_mib": V["working_set_mib"],
            "congest.working_set_llc_ratio":
                V["working_set_mib"] / M["llc_mib"] if M["llc_mib"] > 0 else 0.0,
            "congest.hot_path_allocs": V["hot_path_allocs"],
        })
        if w == "flood_faulty":
            m.update({
                "fault.attempts": V["fault_attempts"],
                "fault.retransmissions": V["fault_retransmissions"],
                "fault.lost": V["fault_lost"],
                "fault.delivered_ratio": V["fault_delivered"] / V["fault_attempts"],
                "fault.stretch": V["big_rounds"] / V["reliable_big_rounds"],
            })
    elif w == "das_batch":
        # Each problem of the batch is timed by its fastest pass; rates are
        # the batch's work over the batch's time.
        # A problem's re-executions all move the same messages.
        batch_messages = sum(dict(zip(S["run_key"], S["exec_messages"])).values())
        m.update({
            "problems_per_s":
                len(set(S["problem_key"])) / batch_time(S["problem_s"], S["problem_key"]),
            "msgs_per_s":
                batch_messages / batch_time(S["run_s"], S["run_key"]),
            "msgs_per_s_serial":
                batch_messages / batch_time(S["run_serial_s"], S["run_key"]),
            "len_ratio_shared": mean(S["len_ratio_shared"]),
            "len_ratio_private": mean(S["len_ratio_private"]),
            "precompute_ratio": mean(S["precompute_ratio"]),
            "congest.run_s": mean(S["run_s"]),
            "congest.run_serial_s": mean(S["run_serial_s"]),
            "congest.big_rounds": V["big_rounds"],
            "congest.events": V["events"],
            "congest.messages": V["messages"],
            "congest.msgs_per_big_round": V["messages"] / V["big_rounds"],
            "sched.solo_s": mean(S["solo_s"]),
            "sched.shared_s": mean(S["shared_s"]),
            "sched.private_s": mean(S["private_s"]),
            "sched.congestion": V["congestion"],
            "sched.dilation": V["dilation"],
            "sched.precompute_rounds": V["precompute_rounds"],
            "sched.schedule_rounds_shared": V["schedule_rounds_shared"],
            "sched.schedule_rounds_private": V["schedule_rounds_private"],
            "sched.min_coverage": V["min_coverage"],
            "sched.uncovered_nodes": V["uncovered_nodes"],
            "verify.check_s": mean(S["check_s"]),
            "verify.errors": V["verify_errors"],
        })
        traced = V["traced_problems"]
        if raw["trace"] and traced > 0:
            spans = raw["spans"]
            for stage in ("clustering", "rand_sharing", "compute_delays",
                          "build_schedule", "execute"):
                m["sched.%s_s" % stage] = (
                    span_total(spans, "sched.private", stage) * 1e-6 / traced)
            m["sched.sim_big_rounds"] = V["sim_big_rounds"] / traced
    elif w == "service_stream":
        # Each stream of the batch is timed by its fastest serve; rates are
        # the batch's work over the batch's time. The daemon runs its
        # executors serially, so both message rates read the serial serve.
        completed = V["completed"]
        serve_s = batch_time(S["serve_serial_s"], S["serve_key"])
        m.update({
            "problems_per_s": completed / serve_s,
            "msgs_per_s": V["messages"] / serve_s,
            "msgs_per_s_serial": V["messages"] / serve_s,
            "congest.big_rounds": V["big_rounds"],
            "congest.messages": V["messages"],
            "congest.msgs_per_big_round": V["messages"] / V["big_rounds"],
            "service.stream_gen_s": median(S["stream_gen_s"]),
            "service.cache_hit_rate":
                V["cache_hits"] / (V["cache_hits"] + V["cache_misses"]),
            "service.profiles_static": V["profiles_static"],
            "service.profiles_executed": V["profiles_executed"],
            "service.executions": V["executions"],
            "service.jobs_per_cohort": completed / V["executions"],
            "service.deferrals": V["deferrals"],
            "service.gate_rejections": V["gate_rejections"],
            "service.requeues_verify": V["requeues_verify"],
            "service.peak_queue_depth": V["peak_queue_depth"],
        })
        p50, count = nearest_rank(raw["latency_ticks"], 50)
        p99, _ = nearest_rank(raw["latency_ticks"], 99)
        m.update({"latency_p50_ticks": p50, "latency_p99_ticks": p99,
                  "latency_samples": count})
        serves = V["traced_serves"]
        if raw["trace"] and serves > 0:
            spans = raw["spans"]
            serve_s = mean(S["serve_serial_s"])
            profile_s = V["profile_s"] / serves
            gate_s = span_total(spans, "verify", "check_schedule") * 1e-6 / serves
            execute_s = span_total(spans, "executor", "run") * 1e-6 / serves
            m.update({
                "jobs_per_s": completed / batch_time(S["base_serve_serial_s"],
                                                     S["base_serve_key"]),
                "service.serve_s": serve_s,
                "service.profile_s": profile_s,
                "service.execute_s": execute_s,
                "verify.gate_s": gate_s,
                "service.compose_self_s": serve_s - profile_s - gate_s - execute_s,
                "analysis.analyze_s": V["analyze_s"],
            })
    else:
        raise BenchError("unknown workload %r" % w)

    if raw["trace"]:
        op, key = OPERATION_SAMPLES[w]
        if key:
            # The operations both halves ran, each by its fastest sample.
            common = set(S[key]) & set(S["base_" + key])
            traced_s = batch_time(S[op], S[key], common)
            base_s = batch_time(S["base_" + op], S["base_" + key], common)
        else:
            traced_s, base_s = fastest(S[op]), fastest(S["base_" + op])
        m["telemetry.overhead_frac"] = traced_s / base_s - 1.0
        ledger, uncovered = layer_ledger(raw["spans"], raw["window_us"])
        if abs(sum(ledger.values()) + uncovered - raw["window_us"]) > 1000:
            raise BenchError("layer self times do not add up to the traced wall time")
        for layer, t in ledger.items():
            m["%s.self_s" % layer] = t * 1e-6
        m["trace.uncovered_s"] = uncovered * 1e-6
        m["trace.wall_s"] = raw["window_us"] * 1e-6
    return m


def select(measured, spec, trace):
    """The metrics BENCHMARK.json lists for this mode, with their units. An
    end-to-end metric must be measured and non-zero; a per-layer metric of a
    layer the workload does not touch reads 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    known = {e["name"] for e in spec["end_to_end"]} | {e["name"] for e in spec["per_layer"]}
    unknown = sorted(set(measured) - known)
    if unknown:
        raise BenchError("metrics missing from BENCHMARK.json: %s" % ", ".join(unknown))
    out = {}
    for entry in wanted:
        name = entry["name"]
        if not valid_name(name):
            raise BenchError("invalid metric name %r" % name)
        value = measured.get(name)
        if value is None:
            if not trace:
                raise BenchError("end-to-end metric %s not measured" % name)
            value = 0
        if not trace and not value > 0:
            raise BenchError("end-to-end metric %s is %r" % (name, value))
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def result(raw, spec):
    metrics = select(derive(raw), spec, bool(raw["trace"]))
    correct = raw["failed"] == 0 and all(raw["checks"].values()) and bool(raw["checks"])
    return {"correct": correct, "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


# --------------------------------------------------------------------------
# Build and run
# --------------------------------------------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no dasched sources next to perfbench/ (expected src/)")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError("build step failed: %s" % " ".join(cmd))
    return os.path.join(out_dir, "perfbench")


def run_binary(binary, args, trace_out):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("perfbench exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed nothing")
    return json.loads(lines[-1])


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        if args.seconds <= 0 or args.seed < 0:
            raise BenchError("--seconds must be positive and --seed non-negative")
        out_dir = build_dir()
        binary = build(out_dir)
        trace_out = None
        if args.trace:
            os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
            trace_out = os.path.join(out_dir, "traces",
                                     "%s-%d.trace.json" % (args.workload, args.seed))
        raw = run_binary(binary, args, trace_out)
        res = result(raw, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print("machine: " + json.dumps(raw["machine"], sort_keys=True))
    if trace_out:
        print("trace: " + os.path.relpath(trace_out, ROOT))
    for name, ok in sorted(raw["checks"].items()):
        if not ok:
            print("check failed: " + name)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
