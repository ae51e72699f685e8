#!/usr/bin/env python3
"""Track executor throughput across commits: the bench trajectory.

BENCH_TRAJECTORY.json (committed at the repo root) is an append-only series
of throughput measurements extracted from the engineering bench reports:

  e13  bench_e13_message_hotpath  --report BENCH_e13.json
       serial message throughput of the zero-allocation hot path (E13.b)
  e14  bench_e14_profiler_overhead --report BENCH_e14.json
       unprofiled vs profiled throughput and the overhead bound (E14.b)
  e15  bench_e15_scale_sweep      --report BENCH_e15.json
       serial throughput of the largest ladder rung the sweep ran (E15.a)
  e16  bench_e16_service          --report BENCH_e16.json
       serial service throughput at the highest arrival rate the ladder ran
       (E16.a), plus jobs/s, latency percentiles and the cache hit rate
  e17  bench_e17_static_admission --report BENCH_e17.json
       serial jobs/s under static admission at the highest arrival rate the
       ladder ran (E17.a), plus the executed-mode jobs/s and the cold-start
       profiling speedup (certificates vs solo execution)
  e18  bench_e18_bytes_per_message --report BENCH_e18.json
       serial throughput of the width-1 rung of the payload-width ladder
       (E18.a), plus the compact bytes/message ledger per width

Each entry records its bench id, the headline serial messages/s, and a
machine key (platform + cpu count + build type), so entries are only ever
compared against entries from the same bench on a comparable machine and
build configuration.

Subcommands:
  record  --bench REPORT.json [--bench ...] [--trajectory BENCH_TRAJECTORY.json]
          [--label LABEL]
      Append one entry per report to the trajectory file (creates it if
      missing). The bench id is detected from the report's tables.
  check   --bench REPORT.json [--bench ...] [--trajectory BENCH_TRAJECTORY.json]
          [--tolerance 0.10]
      Compare each report against the committed trajectory. Fails (exit 1)
      when a report's headline serial throughput regressed more than
      --tolerance (default 10%) against the best prior entry of the SAME
      bench with a matching machine key, or when the report's own verdict
      columns (identity, <= 10% profiler overhead, zero-alloc) say NO. The
      threshold is applied per bench: each report is only ever measured
      against its own baseline series. With no matching machine key the
      throughput comparison is skipped (CI runners and dev boxes do not
      share baselines) but the verdicts still gate.
  self-test
      Run the built-in unit checks on synthetic data.

The CI perf-smoke job runs `check` on every push; `record` is run manually
when a perf-relevant change lands, and the updated trajectory is committed
with it (docs/PERFORMANCE.md, "Tracking the trajectory").
"""

import argparse
import datetime
import json
import os
import platform
import sys

SCHEMA = "dasched.bench_trajectory.v1"


def machine_key(report):
    # The build type comes from the report (stamped by the bench binary at
    # compile time), not from this process: Release and RelWithDebInfo hot
    # paths differ by ~20%, so they must never share a throughput baseline.
    return {
        "platform": f"{platform.system()}-{platform.machine()}",
        "cpu_count": os.cpu_count() or 0,
        "build": report.get("meta", {}).get("build_type", "unknown"),
    }


def same_machine(a, b):
    return (
        a.get("platform") == b.get("platform")
        and a.get("cpu_count") == b.get("cpu_count")
        and a.get("build") == b.get("build")
    )


def load_json(path):
    with open(path) as f:
        return json.load(f)


def find_table(report, prefix, required=True):
    for t in report.get("tables", []):
        if t["title"].startswith(prefix):
            return t
    if required:
        raise SystemExit(f"report has no table starting with {prefix!r}")
    return None


def cell(table, row_key, column, key_column=None):
    cols = table["columns"]
    if key_column is not None:
        key_idx = cols.index(key_column)
    else:
        key_idx = cols.index("engine") if "engine" in cols else 0
    for row in table["rows"]:
        if row[key_idx] == row_key:
            return row[cols.index(column)]
    raise SystemExit(f"table {table['title']!r} has no row {row_key!r}")


def detect_bench(report):
    """Bench id from the tables the report carries (title prefixes are the
    stable contract; meta.bench is a binary path and varies by build dir)."""
    for bench_id, prefix in (("e13", "E13."), ("e14", "E14."), ("e15", "E15."),
                             ("e16", "E16."), ("e17", "E17."), ("e18", "E18.")):
        if find_table(report, prefix, required=False) is not None:
            return bench_id
    raise SystemExit("report carries no recognized E13..E18 table")


# --- Per-bench extraction: one trajectory entry from one report. Every
# entry carries `messages_per_sec_serial`, the headline metric the
# regression check compares. ---


def extract_e13(report, label):
    thr = find_table(report, "E13.b")
    return {
        "bench": "e13",
        "messages_per_sec_serial": float(cell(thr, "1", "messages/s",
                                              key_column="threads")),
    }


def extract_e14(report, label):
    thr = find_table(report, "E14.b")
    off = float(cell(thr, "profiler off", "messages/s"))
    return {
        "bench": "e14",
        "messages_per_sec_serial": off,
        # Kept for continuity with the seed entries' field names.
        "messages_per_sec_off": off,
        "messages_per_sec_on": float(cell(thr, "profiler on", "messages/s")),
        "overhead_pct": float(cell(thr, "profiler on", "overhead %")),
    }


def extract_e15(report, label):
    ladder = find_table(report, "E15.a")
    cols = ladder["columns"]
    if not ladder["rows"]:
        raise SystemExit("E15.a ladder is empty")
    # The headline rung is the largest n the sweep ran (rows are emitted in
    # ascending n; --max-n trims from the top).
    top = max(ladder["rows"], key=lambda r: int(r[cols.index("n")]))
    return {
        "bench": "e15",
        "messages_per_sec_serial": float(top[cols.index("messages/s")]),
        "ladder_top_n": int(top[cols.index("n")]),
        "ladder_top_messages": int(top[cols.index("messages")]),
        "peak_rss_mib": float(top[cols.index("peak RSS MiB")]),
    }


def extract_e16(report, label):
    ladder = find_table(report, "E16.a")
    cols = ladder["columns"]
    if not ladder["rows"]:
        raise SystemExit("E16.a ladder is empty")
    # The headline rung is the highest arrival rate the ladder ran (rows are
    # emitted in ascending rate; --max-rate trims from the top).
    top = max(ladder["rows"], key=lambda r: float(r[cols.index("rate")]))
    return {
        "bench": "e16",
        "messages_per_sec_serial": float(top[cols.index("messages/s")]),
        "arrival_rate": float(top[cols.index("rate")]),
        "jobs_per_sec": float(top[cols.index("jobs/s")]),
        "jobs_completed": int(top[cols.index("completed")]),
        "latency_p50_ticks": int(top[cols.index("p50")]),
        "latency_p99_ticks": int(top[cols.index("p99")]),
        "cache_hit_rate": float(top[cols.index("hit rate")]),
    }


def extract_e17(report, label):
    ladder = find_table(report, "E17.a")
    cols = ladder["columns"]
    if not ladder["rows"]:
        raise SystemExit("E17.a ladder is empty")
    # The headline rung is the highest arrival rate the ladder ran. E17 has no
    # messages/s column: the comparison metric for this series is end-to-end
    # jobs/s under static admission (the mode the service defaults to).
    top = max(ladder["rows"], key=lambda r: float(r[cols.index("rate")]))
    return {
        "bench": "e17",
        "messages_per_sec_serial": float(top[cols.index("jobs/s (st)")]),
        "arrival_rate": float(top[cols.index("rate")]),
        "jobs_per_sec_static": float(top[cols.index("jobs/s (st)")]),
        "jobs_per_sec_executed": float(top[cols.index("jobs/s (ex)")]),
        "profile_speedup": float(top[cols.index("speedup")]),
        "static_profiles": int(top[cols.index("static")]),
    }


def extract_e18(report, label):
    ladder = find_table(report, "E18.a")
    cols = ladder["columns"]
    if not ladder["rows"]:
        raise SystemExit("E18.a width ladder is empty")
    # The headline rung is width 1, the family the compact lanes accelerate
    # most; the full bytes/message ledger rides along per width.
    return {
        "bench": "e18",
        "messages_per_sec_serial": float(cell(ladder, "1", "messages/s",
                                              key_column="width")),
        "bytes_per_message": {
            row[cols.index("width")]: int(row[cols.index("B/msg")])
            for row in ladder["rows"]
        },
        "fixed_bytes_per_message": int(
            ladder["rows"][0][cols.index("fixed B/msg")]),
    }


EXTRACTORS = {"e13": extract_e13, "e14": extract_e14, "e15": extract_e15,
              "e16": extract_e16, "e17": extract_e17, "e18": extract_e18}


def extract_entry(report, label):
    bench_id = detect_bench(report)
    entry = {
        "label": label,
        "date": datetime.date.today().isoformat(),
        "machine": machine_key(report),
    }
    entry.update(EXTRACTORS[bench_id](report, label))
    return entry


def serial_metric(entry):
    # Seed-era e14 entries predate `messages_per_sec_serial`.
    v = entry.get("messages_per_sec_serial", entry.get("messages_per_sec_off"))
    return None if v is None else float(v)


# --- Per-bench hard verdicts: the report's own columns, independent of any
# baseline. ---


def verdicts_e13(report):
    failures = []
    audit = find_table(report, "E13.a")
    cols = audit["columns"]
    for row in audit["rows"]:
        if int(row[cols.index("run")]) >= 2 and row[cols.index("zero-alloc")] != "yes":
            failures.append(f"E13.a: steady-state run allocated: {row}")
    thr = find_table(report, "E13.b")
    cols = thr["columns"]
    for row in thr["rows"]:
        if row[cols.index("identical")] != "yes":
            failures.append(
                f"E13.b: threads={row[cols.index('threads')]} diverged from serial")
    return failures


def verdicts_e14(report):
    failures = []
    identity = find_table(report, "E14.a")
    for column in ("identical", "profiler agrees"):
        if cell(identity, "profiler on", column) != "yes":
            failures.append(f"E14.a: profiled run not {column!r}")
    thr = find_table(report, "E14.b")
    if cell(thr, "profiler on", "within 10%") != "yes":
        failures.append(
            f"E14.b: profiler overhead {cell(thr, 'profiler on', 'overhead %')}% "
            "exceeds 10%"
        )
    audit = find_table(report, "E14.c")
    cols = audit["columns"]
    for row in audit["rows"]:
        if int(row[cols.index("run")]) >= 2 and row[cols.index("zero-alloc")] != "yes":
            failures.append(f"E14.c: steady-state run allocated: {row}")
    return failures


def verdicts_e15(report):
    failures = []
    ladder = find_table(report, "E15.a")
    cols = ladder["columns"]
    for row in ladder["rows"]:
        if row[cols.index("identical")] != "yes":
            failures.append(
                f"E15.a: n={row[cols.index('n')]} threaded results diverged "
                "from serial")
    return failures


def verdicts_e16(report):
    failures = []
    ladder = find_table(report, "E16.a")
    cols = ladder["columns"]
    total_hits = 0
    for row in ladder["rows"]:
        rate = row[cols.index("rate")]
        if row[cols.index("verified")] != "yes":
            failures.append(
                f"E16.a: rate={rate} admitted jobs did not all verify and "
                "complete")
        if row[cols.index("identical")] != "yes":
            failures.append(
                f"E16.a: rate={rate} threaded service trajectories diverged "
                "from serial")
        total_hits += int(row[cols.index("cache hits")])
    # Repeat tenants must actually exercise the profile cache; an all-miss
    # ladder means the cache key or lookup broke.
    if ladder["rows"] and total_hits == 0:
        failures.append("E16.a: profile cache never hit across the ladder")
    return failures


def verdicts_e17(report):
    failures = []
    ladder = find_table(report, "E17.a")
    cols = ladder["columns"]
    for row in ladder["rows"]:
        rate = row[cols.index("rate")]
        if row[cols.index("identical")] != "yes":
            failures.append(
                f"E17.a: rate={rate} static-admission trajectory diverged or "
                "fell back to execution")
        if int(row[cols.index("static")]) != int(row[cols.index("misses")]):
            failures.append(
                f"E17.a: rate={rate} static admission did not cover every "
                "cache miss")
    return failures


def verdicts_e18(report):
    failures = []
    ladder = find_table(report, "E18.a")
    cols = ladder["columns"]
    for row in ladder["rows"]:
        width = row[cols.index("width")]
        if row[cols.index("zero-alloc")] != "yes":
            failures.append(f"E18.a: width={width} steady-state run allocated")
        if row[cols.index("identical")] != "yes":
            failures.append(
                f"E18.a: width={width} threaded result diverged from serial")
        if int(row[cols.index("B/msg")]) >= int(row[cols.index("fixed B/msg")]):
            failures.append(
                f"E18.a: width={width} compact layout moves no fewer bytes "
                "than the fixed layout")
    return failures


VERDICTS = {"e13": verdicts_e13, "e14": verdicts_e14, "e15": verdicts_e15,
            "e16": verdicts_e16, "e17": verdicts_e17, "e18": verdicts_e18}


def check_verdicts(report):
    return VERDICTS[detect_bench(report)](report)


def load_trajectory(path):
    if not os.path.exists(path):
        return {"schema": SCHEMA, "entries": []}
    doc = load_json(path)
    if doc.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc


def cmd_record(args):
    doc = load_trajectory(args.trajectory)
    for bench_path in args.bench:
        report = load_json(bench_path)
        entry = extract_entry(report, args.label)
        doc["entries"].append(entry)
        print(f"recorded {entry['bench']} {entry['label']!r}: "
              f"{serial_metric(entry):.0f} msg/s serial")
    with open(args.trajectory, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"-> {args.trajectory} ({len(doc['entries'])} entries)")
    return 0


def check(report, doc, tolerance):
    """Returns a list of failure strings (empty = pass)."""
    failures = check_verdicts(report)

    current = extract_entry(report, "current")
    bench_id = current["bench"]
    here = current["machine"]
    # The per-bench threshold: only prior entries of the SAME bench on the
    # same machine key form the baseline series.
    peers = [e for e in doc.get("entries", [])
             if e.get("bench") == bench_id and same_machine(e["machine"], here)
             and serial_metric(e) is not None]
    if not peers:
        print(f"[{bench_id}] no prior trajectory entries for machine {here}; "
              "skipping the throughput comparison")
        return failures

    best = max(peers, key=serial_metric)
    floor = serial_metric(best) * (1.0 - tolerance)
    now = serial_metric(current)
    print(f"[{bench_id}] serial throughput: {now:.0f} msg/s "
          f"(best prior on this machine: {serial_metric(best):.0f} "
          f"[{best['label']}], floor at -{tolerance:.0%}: {floor:.0f})")
    if now < floor:
        failures.append(
            f"{bench_id}: throughput regression: {now:.0f} msg/s is more than "
            f"{tolerance:.0%} below the best prior entry "
            f"{serial_metric(best):.0f} ({best['label']})"
        )

    # e15 additionally gates on peak RSS at the top ladder rung, so memory
    # wins are pinned the same way throughput wins are. Only rungs of the
    # same size are comparable (--max-n reduced ladders never gate against
    # the full one), and lower is better: regression = more than `tolerance`
    # above the smallest prior footprint on this machine.
    rss_now = current.get("peak_rss_mib")
    if bench_id == "e15" and rss_now is not None:
        rss_peers = [e for e in peers
                     if e.get("peak_rss_mib") is not None
                     and e.get("ladder_top_n") == current.get("ladder_top_n")]
        if rss_peers:
            leanest = min(rss_peers, key=lambda e: float(e["peak_rss_mib"]))
            ceiling = float(leanest["peak_rss_mib"]) * (1.0 + tolerance)
            print(f"[e15] peak RSS at n={current.get('ladder_top_n')}: "
                  f"{rss_now:.1f} MiB (best prior on this machine: "
                  f"{float(leanest['peak_rss_mib']):.1f} [{leanest['label']}], "
                  f"ceiling at +{tolerance:.0%}: {ceiling:.1f})")
            if rss_now > ceiling:
                failures.append(
                    f"e15: peak RSS regression: {rss_now:.1f} MiB is more "
                    f"than {tolerance:.0%} above the best prior entry "
                    f"{float(leanest['peak_rss_mib']):.1f} "
                    f"({leanest['label']})"
                )
        else:
            print(f"[e15] no prior peak-RSS entries for "
                  f"n={current.get('ladder_top_n')} on this machine; "
                  "skipping the RSS comparison")
    return failures


def cmd_check(args):
    doc = load_trajectory(args.trajectory)
    failures = []
    for bench_path in args.bench:
        failures.extend(check(load_json(bench_path), doc, args.tolerance))
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print("bench trajectory check passed")
    return 1 if failures else 0


# --- Self-test on synthetic data. ---


def synthetic_e14(off_mps, overhead_pct, zero_alloc="yes", identical="yes"):
    on_mps = off_mps / (1.0 + overhead_pct / 100.0)
    return {
        "schema": "dasched.run_report.v1",
        "meta": {"build_type": "Release"},
        "tables": [
            {
                "title": "E14.a -- profiled vs unprofiled identity",
                "columns": ["engine", "messages", "big-rounds", "max load",
                            "identical", "profiler agrees"],
                "rows": [
                    ["profiler off", "100", "10", "5", "baseline", "-"],
                    ["profiler on", "100", "10", "5", identical, identical],
                ],
            },
            {
                "title": "E14.b -- profiler overhead",
                "columns": ["engine", "ms/run", "messages/s", "overhead %",
                            "within 10%"],
                "rows": [
                    ["profiler off", "10.0", f"{off_mps:.0f}", "0.0", "baseline"],
                    ["profiler on", "11.0", f"{on_mps:.0f}",
                     f"{overhead_pct:.1f}",
                     "yes" if overhead_pct <= 10.0 else "NO"],
                ],
            },
            {
                "title": "E14.c -- steady-state allocation audit",
                "columns": ["run", "messages", "cells", "allocs/run",
                            "hot-path allocs", "zero-alloc"],
                "rows": [
                    ["1", "100", "50", "999", "72", "warm-up"],
                    ["2", "100", "50", "0",
                     "0" if zero_alloc == "yes" else "7", zero_alloc],
                ],
            },
        ],
    }


def synthetic_e13(serial_mps, zero_alloc="yes", identical="yes"):
    return {
        "schema": "dasched.run_report.v1",
        "meta": {"build_type": "Release"},
        "tables": [
            {
                "title": "E13.a -- steady-state allocation audit",
                "columns": ["run", "messages", "allocs/run", "hot-path allocs",
                            "zero-alloc"],
                "rows": [
                    ["1", "100", "999", "72", "warm-up"],
                    ["2", "100", "0",
                     "0" if zero_alloc == "yes" else "7", zero_alloc],
                ],
            },
            {
                "title": "E13.b -- message throughput",
                "columns": ["threads", "ms/run", "messages/s", "speedup",
                            "identical"],
                "rows": [
                    ["1", "10.0", f"{serial_mps:.0f}", "1.00", "yes"],
                    ["4", "9.0", f"{serial_mps * 1.1:.0f}", "1.10", identical],
                ],
            },
        ],
    }


def synthetic_e15(serial_mps, identical="yes", top_n=1_000_000,
                  rss=20_000.0):
    return {
        "schema": "dasched.run_report.v1",
        "meta": {"build_type": "Release"},
        "tables": [
            {
                "title": "E15.a -- scale ladder",
                "columns": ["n", "dir edges", "T", "big-rounds", "messages",
                            "serial ms", "messages/s", "x2 speedup",
                            "x4 speedup", "identical", "peak RSS MiB"],
                "rows": [
                    ["1000", "6000", "8", "107", "4800000", "300.0",
                     f"{serial_mps * 1.5:.0f}", "1.0", "0.8", "yes", "150.0"],
                    [f"{top_n}", "4000000", "2", "101", "800000000",
                     "80000.0", f"{serial_mps:.0f}", "1.0", "0.8", identical,
                     f"{rss:.1f}"],
                ],
            },
        ],
    }


def synthetic_e16(serial_mps, verified="yes", identical="yes", cache_hits=40):
    return {
        "schema": "dasched.run_report.v1",
        "meta": {"build_type": "Release"},
        "tables": [
            {
                "title": "E16.a -- service arrival ladder",
                "columns": ["rate", "jobs", "admitted", "completed", "rejected",
                            "deferrals", "cache hits", "hit rate", "p50", "p99",
                            "serial ms", "jobs/s", "messages/s", "verified",
                            "identical"],
                "rows": [
                    ["0.50", "48", "48", "48", "0", "0", f"{cache_hits // 2}",
                     "0.750", "5", "9", "120.0", "400.0",
                     f"{serial_mps * 0.8:.0f}", "yes", "yes"],
                    ["2.00", "190", "190", "190", "0", "3", f"{cache_hits}",
                     "0.950", "5", "9", "400.0", "475.0", f"{serial_mps:.0f}",
                     verified, identical],
                ],
            },
        ],
    }


def synthetic_e18(w1_mps, zero_alloc="yes", identical="yes", w1_bytes=36):
    return {
        "schema": "dasched.run_report.v1",
        "meta": {"build_type": "Release"},
        "tables": [
            {
                "title": "E18.a -- bytes per message across payload widths",
                "columns": ["width", "family", "messages", "B/msg",
                            "fixed B/msg", "saved %", "ms/run", "messages/s",
                            "hot-path allocs", "zero-alloc", "identical"],
                "rows": [
                    ["1", "gossip/token", "1500000", f"{w1_bytes}", "128",
                     "71.9", "60.0", f"{w1_mps:.0f}",
                     "0" if zero_alloc == "yes" else "7", zero_alloc, "yes"],
                    ["5", "MST edge record", "1500000", "100", "128", "21.9",
                     "90.0", f"{w1_mps * 0.7:.0f}", "0", "yes", identical],
                ],
            },
        ],
    }


def synthetic_e17(jobs_per_sec_static, identical="yes", static_covers=True):
    misses = 8
    return {
        "schema": "dasched.run_report.v1",
        "meta": {"build_type": "Release"},
        "tables": [
            {
                "title": "E17.a -- cold-start profiling, static vs executed",
                "columns": ["rate", "jobs", "misses", "static", "executed",
                            "profile ms (st)", "profile ms (ex)", "speedup",
                            "jobs/s (st)", "jobs/s (ex)", "identical"],
                "rows": [
                    ["0.50", "48", f"{misses}", f"{misses}", f"{misses}",
                     "0.40", "1.20", "3.0", f"{jobs_per_sec_static * 0.9:.1f}",
                     f"{jobs_per_sec_static * 0.8:.1f}", "yes"],
                    ["2.00", "190", f"{misses}",
                     f"{misses if static_covers else misses - 2}", f"{misses}",
                     "0.40", "1.20", "3.0", f"{jobs_per_sec_static:.1f}",
                     f"{jobs_per_sec_static * 0.85:.1f}", identical],
                ],
            },
        ],
    }


def self_test():
    me = machine_key(synthetic_e14(1.0, 0.0))
    elsewhere = {"platform": "Plan9-mips", "cpu_count": 1, "build": "Release"}
    baseline = {
        "schema": SCHEMA,
        "entries": [
            {
                # A seed-era e14 entry without messages_per_sec_serial: the
                # legacy field must still feed the comparison.
                "label": "seed", "date": "2026-01-01", "machine": me,
                "bench": "e14",
                "messages_per_sec_off": 1_000_000.0,
                "messages_per_sec_on": 950_000.0, "overhead_pct": 5.0,
            },
            {
                "label": "seed", "date": "2026-01-01", "machine": me,
                "bench": "e13", "messages_per_sec_serial": 2_000_000.0,
            },
            {
                "label": "seed", "date": "2026-01-01", "machine": me,
                "bench": "e15", "messages_per_sec_serial": 500_000.0,
                "ladder_top_n": 1_000_000, "peak_rss_mib": 20_000.0,
            },
            {
                "label": "seed", "date": "2026-01-01", "machine": me,
                "bench": "e16", "messages_per_sec_serial": 100_000.0,
                "arrival_rate": 2.0,
            },
            {
                "label": "seed", "date": "2026-01-01", "machine": me,
                "bench": "e17", "messages_per_sec_serial": 400.0,
                "arrival_rate": 2.0, "profile_speedup": 3.0,
            },
            {
                "label": "seed", "date": "2026-01-01", "machine": me,
                "bench": "e18", "messages_per_sec_serial": 1_000_000.0,
            },
        ],
    }

    # Bench detection from tables.
    assert detect_bench(synthetic_e13(1.0)) == "e13"
    assert detect_bench(synthetic_e14(1.0, 0.0)) == "e14"
    assert detect_bench(synthetic_e15(1.0)) == "e15"
    assert detect_bench(synthetic_e16(1.0)) == "e16"
    assert detect_bench(synthetic_e17(1.0)) == "e17"
    assert detect_bench(synthetic_e18(1.0)) == "e18"

    # e14: unchanged behavior against a legacy-field baseline.
    assert check(synthetic_e14(990_000, 5.0), baseline, 0.10) == []
    assert check(synthetic_e14(905_000, 5.0), baseline, 0.10) == []  # at floor
    fails = check(synthetic_e14(800_000, 5.0), baseline, 0.10)
    assert any("regression" in f for f in fails), fails
    fails = check(synthetic_e14(990_000, 14.0), baseline, 0.10)
    assert any("overhead" in f for f in fails), fails
    fails = check(synthetic_e14(990_000, 5.0, zero_alloc="NO"), baseline, 0.10)
    assert any("allocated" in f for f in fails), fails
    fails = check(synthetic_e14(990_000, 5.0, identical="NO"), baseline, 0.10)
    assert any("E14.a" in f for f in fails), fails

    # e13: its own series -- 1.9M is fine against its 2M baseline even though
    # the e14 baseline is 1M.
    assert check(synthetic_e13(1_900_000), baseline, 0.10) == []
    fails = check(synthetic_e13(1_700_000), baseline, 0.10)
    assert any("e13: throughput regression" in f for f in fails), fails
    fails = check(synthetic_e13(1_900_000, zero_alloc="NO"), baseline, 0.10)
    assert any("E13.a" in f for f in fails), fails
    fails = check(synthetic_e13(1_900_000, identical="NO"), baseline, 0.10)
    assert any("E13.b" in f for f in fails), fails

    # e15: headline metric is the largest rung; identity gates.
    assert check(synthetic_e15(480_000), baseline, 0.10) == []
    fails = check(synthetic_e15(400_000), baseline, 0.10)
    assert any("e15: throughput regression" in f for f in fails), fails
    fails = check(synthetic_e15(480_000, identical="NO"), baseline, 0.10)
    assert any("E15.a" in f for f in fails), fails
    entry = extract_entry(synthetic_e15(480_000), "x")
    assert entry["ladder_top_n"] == 1_000_000, entry
    assert entry["peak_rss_mib"] == 20_000.0, entry

    # e15 RSS gate: lower is better, >10% above the leanest prior entry of
    # the same rung fails; a smaller rung (reduced CI ladder) never gates.
    assert check(synthetic_e15(480_000, rss=21_900.0), baseline, 0.10) == []
    fails = check(synthetic_e15(480_000, rss=23_000.0), baseline, 0.10)
    assert any("peak RSS regression" in f for f in fails), fails
    assert check(synthetic_e15(480_000, top_n=100_000, rss=99_999.0),
                 baseline, 0.10) == []

    # e16: headline metric is the highest-rate rung; verification, identity,
    # and a live cache all gate.
    assert check(synthetic_e16(95_000), baseline, 0.10) == []
    fails = check(synthetic_e16(80_000), baseline, 0.10)
    assert any("e16: throughput regression" in f for f in fails), fails
    fails = check(synthetic_e16(95_000, verified="NO"), baseline, 0.10)
    assert any("verify" in f for f in fails), fails
    fails = check(synthetic_e16(95_000, identical="NO"), baseline, 0.10)
    assert any("diverged" in f for f in fails), fails
    fails = check(synthetic_e16(95_000, cache_hits=0), baseline, 0.10)
    assert any("cache never hit" in f for f in fails), fails
    entry = extract_entry(synthetic_e16(95_000), "x")
    assert entry["arrival_rate"] == 2.0 and entry["jobs_per_sec"] == 475.0, entry

    # e17: headline metric is static-admission jobs/s at the highest rate;
    # identity and full static coverage of the misses both gate.
    assert check(synthetic_e17(390.0), baseline, 0.10) == []
    fails = check(synthetic_e17(300.0), baseline, 0.10)
    assert any("e17: throughput regression" in f for f in fails), fails
    fails = check(synthetic_e17(390.0, identical="NO"), baseline, 0.10)
    assert any("diverged" in f for f in fails), fails
    fails = check(synthetic_e17(390.0, static_covers=False), baseline, 0.10)
    assert any("cover every cache miss" in f for f in fails), fails
    entry = extract_entry(synthetic_e17(390.0), "x")
    assert entry["profile_speedup"] == 3.0 and entry["arrival_rate"] == 2.0, entry

    # e18: headline is the width-1 rung; zero-alloc, identity, and the
    # compact-beats-fixed bytes ledger all gate.
    assert check(synthetic_e18(950_000), baseline, 0.10) == []
    fails = check(synthetic_e18(800_000), baseline, 0.10)
    assert any("e18: throughput regression" in f for f in fails), fails
    fails = check(synthetic_e18(950_000, zero_alloc="NO"), baseline, 0.10)
    assert any("allocated" in f for f in fails), fails
    fails = check(synthetic_e18(950_000, identical="NO"), baseline, 0.10)
    assert any("diverged" in f for f in fails), fails
    fails = check(synthetic_e18(950_000, w1_bytes=128), baseline, 0.10)
    assert any("no fewer bytes" in f for f in fails), fails
    entry = extract_entry(synthetic_e18(950_000), "x")
    assert entry["bytes_per_message"] == {"1": 36, "5": 100}, entry
    assert entry["fixed_bytes_per_message"] == 128, entry

    # A foreign machine key skips the throughput comparison but keeps verdicts.
    foreign = {"schema": SCHEMA, "entries": [dict(baseline["entries"][0],
                                                  machine=elsewhere)]}
    assert check(synthetic_e14(1.0, 5.0), foreign, 0.10) == []
    # Same box, different build configuration: never compared.
    other_build = {"schema": SCHEMA, "entries": [dict(
        baseline["entries"][0], machine=dict(me, build="RelWithDebInfo"))]}
    assert check(synthetic_e14(1.0, 5.0), other_build, 0.10) == []
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("record", "check"):
        p = sub.add_parser(name)
        p.add_argument("--bench", action="append", default=None,
                       help="bench report(s) to read; repeatable "
                            "(default: BENCH_e14.json)")
        p.add_argument("--trajectory", default="BENCH_TRAJECTORY.json",
                       help="trajectory file (default: %(default)s)")
    sub.choices["record"].add_argument("--label", default="dev",
                                       help="entry label, e.g. a short commit id")
    sub.choices["check"].add_argument("--tolerance", type=float, default=0.10,
                                      help="allowed fractional regression "
                                           "per bench (default: %(default)s)")
    sub.add_parser("self-test")

    args = parser.parse_args()
    if getattr(args, "bench", None) is None and args.command != "self-test":
        args.bench = ["BENCH_e14.json"]
    if args.command == "record":
        return cmd_record(args)
    if args.command == "check":
        return cmd_check(args)
    return self_test()


if __name__ == "__main__":
    sys.exit(main())
