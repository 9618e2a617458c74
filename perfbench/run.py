#!/usr/bin/env python3
"""Repository benchmark for the FDP simulator.

Builds perfbench/ (which links the simulator library from src/
unchanged) in Release, runs one workload for a fixed host time, checks
that its simulated output is correct, and prints the metrics as the
last line of standard output:

    python3 perfbench/run.py --workload stream-1c --seed 0 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
runs untraced and traced reps side by side and prints the per-layer
metrics. Lines before the last one are a human-readable report; the
traced run's full report, including the layer metrics that exist on one
workload only, is also written to <build dir>/reports/. See
perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

# Seed 0 selects the calibrated per-benchmark seeds of spec_suite.cc;
# the pinned references apply to it only.
CALIBRATED_SEED = 0
# The benchmark binary must end within this many seconds of the build.
RUN_DEADLINE_S = 160.0

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class SpecError(Exception):
    """BENCHMARK.json breaks the benchmark contract."""


# ---------------------------------------------------------------------
# Statistics helpers


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def iqr_share(values):
    """Distance between the first and third quartiles as a share of the
    median, as statistics.quantiles(values, n=4) gives the quartiles."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def ratio(num, den):
    """num / den, or None when the base is zero (the metric is then
    absent, never reported as 0)."""
    if den == 0:
        return None
    return num / den


# ---------------------------------------------------------------------
# Name validation


def validate_spec(spec):
    """Check BENCHMARK.json against the benchmark contract; raise
    SpecError naming the first violation."""
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        raise SpecError("top-level keys must be exactly %s" % sorted(keys))
    cmd = spec["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32
            or not all(isinstance(c, str) and 0 < len(c) <= 200
                       for c in cmd)):
        raise SpecError("command must be 1..32 strings of <= 200 chars")
    paths = spec["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        raise SpecError("paths must list 1..16 directories")
    for p in paths:
        if (not isinstance(p, str) or not PATH_RE.match(p)
                or p.startswith("/") or ".." in p.split("/")):
            raise SpecError("bad path %r" % (p,))
    for c in cmd:
        if c.startswith("/") or ".." in c.split("/"):
            raise SpecError("command argument %r leaves the repo" % c)
    secs = spec["run_seconds"]
    if not isinstance(secs, int) or isinstance(secs, bool) \
            or not 1 <= secs <= 60:
        raise SpecError("run_seconds must be a whole number in 1..60")

    seen = set()

    def check_name(name):
        if not isinstance(name, str) or not NAME_RE.match(name):
            raise SpecError("bad name %r" % (name,))
        if name in seen:
            raise SpecError("name %r used twice" % name)
        seen.add(name)

    wl = spec["workloads"]
    if not isinstance(wl, list) or not 2 <= len(wl) <= 8:
        raise SpecError("workloads must list 2..8 entries")
    for w in wl:
        if set(w) != {"name", "why"}:
            raise SpecError("a workload has exactly name and why")
        check_name(w["name"])
        why = w["why"]
        if not isinstance(why, str) or not 0 < len(why) <= 200 \
                or "\n" in why:
            raise SpecError("workload %s: why must be one line of "
                            "<= 200 chars" % w["name"])

    def check_metrics(key, lo, hi, with_bound):
        ms = spec[key]
        if not isinstance(ms, list) or not lo <= len(ms) <= hi:
            raise SpecError("%s must list %d..%d metrics" % (key, lo, hi))
        want = {"name", "unit", "better"} | ({"bound"} if with_bound
                                             else set())
        for m in ms:
            if set(m) != want:
                raise SpecError("%s metric keys must be %s"
                                % (key, sorted(want)))
            check_name(m["name"])
            if not isinstance(m["unit"], str) or not UNIT_RE.match(
                    m["unit"]):
                raise SpecError("bad unit %r" % (m["unit"],))
            if m["better"] not in ("higher", "lower"):
                raise SpecError("better must be higher or lower")
            if with_bound:
                b = m["bound"]
                if isinstance(b, bool) or not isinstance(
                        b, (int, float)) or not 0 < b <= 0.25:
                    raise SpecError("bound of %s must be in (0, 0.25]"
                                    % m["name"])

    check_metrics("end_to_end", 1, 16, True)
    check_metrics("per_layer", 1, 128, False)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" \
            or setup[0]["better"] != "lower":
        raise SpecError("end_to_end needs setup_s in s, lower is better")


def load_spec():
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    validate_spec(spec)
    return spec


# ---------------------------------------------------------------------
# Metrics


def best_pass_rate(insts, walls, variants):
    """Simulated instructions per host second of the fastest pass over
    every variant: rep r ran variant r % variants, and each variant
    counts with its fastest rep. The rep work is deterministic, so
    slower reps of the same variant measure host interference, not the
    simulator."""
    best = {}
    for r, (i, w) in enumerate(zip(insts, walls)):
        v = r % variants
        if v not in best or w < best[v][1]:
            best[v] = (i, w)
    if len(best) < variants:
        raise ValueError("a run must cover every variant")
    return sum(i for i, _ in best.values()) / sum(
        w for _, w in best.values())


def end_to_end_metrics(raw):
    """The end-to-end metrics of one untraced run (see README.md)."""
    return {
        "sim_minsts_per_s": best_pass_rate(
            raw["rep_insts"], raw["rep_wall_s"], raw["variants"]) / 1e6,
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "sim_ipc": raw["sim_ipc"],
        "sim_bpki": raw["sim_bpki"],
        "pass_frac": 1.0 - raw["failed"] / raw["attempted"],
    }


def layer_metrics(raw):
    """Per-layer metrics of a traced run: (metrics defined on every
    workload, metrics of layers this workload alone exercises)."""
    t = raw["traced"]
    reps = len(t["wall_s"])
    busy_ns = t["busy_s"] * 1e9
    layers = t["layers"]
    c = t["counts"]
    kinst = c["insts"] / 1000.0

    def calls(layer):
        return layers[layer]["calls"]

    def per_call(layer):
        return ratio(layers[layer]["self_ns"], calls(layer))

    def share(layer):
        return layers[layer]["self_ns"] / busy_ns

    m = {}
    m["cpu.step_calls"] = calls("cpu") / reps
    m["cpu.self_ns_per_step"] = per_call("cpu")
    m["cpu.share"] = share("cpu")
    m["cpu.rob_full_frac"] = ratio(c["rob_full_cycles"], c["cycles"])
    m["workload.next_calls"] = calls("workload") / reps
    m["workload.ns_per_next"] = per_call("workload")
    m["workload.share"] = share("workload")
    m["mem.access_calls"] = calls("mem") / reps
    m["mem.self_ns_per_access"] = per_call("mem")
    m["mem.share"] = share("mem")
    m["mem.l1_miss_ratio"] = ratio(c["l1_misses"], c["demand_accesses"])
    m["mem.l2_miss_ratio"] = ratio(c["l2_misses"],
                                   c["l2_hits"] + c["l2_misses"])
    m["mem.mshr_stalls_pki"] = ratio(c["mshr_stalls"], kinst)
    m["mem.mshr_merges_pki"] = ratio(c["mshr_merges"], kinst)
    m["mem.pref_drops_pki"] = ratio(c["pref_drops"], kinst)
    m["mem.avg_miss_cycles"] = ratio(c["demand_miss_cycles"],
                                     c["demand_miss_fills"])
    m["prefetch.observe_calls"] = calls("prefetch") / reps
    m["prefetch.ns_per_observe"] = per_call("prefetch")
    m["prefetch.share"] = share("prefetch")
    m["prefetch.candidates_per_observe"] = ratio(
        t["prefetch_candidates"], calls("prefetch"))
    m["prefetch.ns_per_observe_isolated"] = (
        t["isolated"]["ns_per_observe"]
        if t["isolated"]["observes"] > 0 else None)
    m["prefetch.accuracy"] = ratio(c["pref_used"], c["pref_sent"])
    m["prefetch.lateness"] = ratio(c["pref_late"], c["pref_used"])
    m["prefetch.sent_pki"] = ratio(c["pref_sent"], kinst)
    levels = c["level_buckets"]
    m["core.intervals"] = c["intervals"] / reps
    m["core.mean_level"] = ratio(
        sum((i + 1) * n for i, n in enumerate(levels)), sum(levels))
    m["core.lru_insert_frac"] = ratio(c["insert_buckets"][0],
                                      sum(c["insert_buckets"]))
    m["core.pollution"] = ratio(c["pollution_misses"], c["demand_misses"])
    m["dram.bus_util"] = ratio(c["bus_busy_cycles"],
                               c["bus_capacity_cycles"])
    m["dram.row_hit_ratio"] = ratio(
        c["row_hits"],
        c["row_hits"] + c["row_conflicts"] + c["row_empties"])
    m["dram.promotions"] = c["promotions"] / reps
    m["dram.queued_mean"] = ratio(c["queued_sum"], c["queued_samples"])
    m["sim.events_serviced"] = c["events_serviced"] / reps
    m["sim.events_per_kinst"] = ratio(c["events_serviced"], kinst)
    m["sim.ns_per_event"] = ratio(layers["sim"]["self_ns"],
                                  c["events_serviced"])
    m["sim.share"] = share("sim")
    m["other.share"] = 1.0 - sum(share(l) for l in layers)
    m["trace_overhead"] = median(t["wall_s"]) / median(raw["rep_wall_s"])
    m["tracer.ns_per_span"] = t["span_cost_ns"]

    # Layers one workload alone exercises.
    x = {}
    workload = raw["workload"]
    if workload == "replay-ghb":
        x["trace.next_calls"] = m["workload.next_calls"]
        x["trace.ns_per_next"] = m["workload.ns_per_next"]
        x["trace.share"] = m["workload.share"]
        x["trace.bytes_per_op"] = raw["extras"]["trace.bytes_per_op"]
    if workload == "frfcfs-mix8":
        x["dram.low_tier_drops"] = c["low_tier_drops"] / reps
        x["mc.cross_pollution_pki"] = ratio(c["cross_pollution"], kinst)
        x["mc.ipc_min_over_max"] = ratio(c["core_ipc_min"],
                                         c["core_ipc_max"])
    if raw["sweep"]:
        sw = raw["sweep"]
        x["harness.cells"] = len(sw[0]["cell_s"])
        x["harness.pool_util"] = median(
            [sum(r["cell_s"]) / (r["workers"] * r["cell_phase_s"])
             for r in sw])
        x["harness.cell_s_max_over_median"] = median(
            [max(r["cell_s"]) / median(r["cell_s"]) for r in sw])
        x["harness.warm_share"] = median(
            [r["warm_s"] / r["wall_s"] for r in sw])
        x["snap.capture_ms"] = 1e3 * sum(r["capture_s"] for r in sw) / sum(
            r["captures"] for r in sw)
        x["snap.restore_ms"] = 1e3 * sum(r["restore_s"] for r in sw) / sum(
            r["restores"] for r in sw)
        x["snap.image_bytes"] = sw[0]["image_bytes"] / sw[0]["captures"]
        x["snap.share"] = share("snap")
    return m, x


def check_references(raw):
    """Compare the first rep's records with the pinned references of
    the calibrated seed. Returns a check dict, or None off that seed."""
    if raw["seed"] != CALIBRATED_SEED:
        return None
    with open(REFERENCE_PATH) as f:
        refs = json.load(f)
    want = refs.get(raw["workload"])
    ok = want == raw["records"]
    detail = ""
    if not ok:
        if want is None:
            detail = "no pinned reference"
        else:
            for w, g in zip(want, raw["records"]):
                if w != g:
                    detail = "first difference at " + w["name"]
                    break
            else:
                detail = "record count differs"
    return {"name": "pinned-reference", "ok": ok, "detail": detail}


def write_reference(raw):
    """Pin the first rep's records for the calibrated seed (one record
    per line, so a re-pin diffs record by record)."""
    refs = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as f:
            refs = json.load(f)
    refs[raw["workload"]] = raw["records"]
    blocks = []
    for workload in sorted(refs):
        lines = ",\n".join("  " + json.dumps(r) for r in refs[workload])
        blocks.append(" %s: [\n%s\n ]" % (json.dumps(workload), lines))
    with open(REFERENCE_PATH, "w") as f:
        f.write("{\n" + ",\n".join(blocks) + "\n}\n")


def finish(raw, spec, trace):
    """Build the result object from the binary's raw line."""
    checks = list(raw["checks"])
    attempted = raw["attempted"]
    failed = raw["failed"]
    ref = check_references(raw)
    if ref is not None:
        checks.append(ref)
        if not ref["ok"]:
            # Every run of the rep derives from the pinned output.
            failed = attempted
    raw = dict(raw, failed=failed)
    report = {}
    if trace:
        metrics, extra = layer_metrics(raw)
        declared = spec["per_layer"]
        report = dict(metrics, **extra)
    else:
        metrics = end_to_end_metrics(raw)
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise SpecError("computed metrics %s do not match BENCHMARK.json"
                        % sorted(set(names) ^ set(metrics)))
    absent = sorted(n for n, v in metrics.items() if v is None)
    if absent:
        raise SpecError("metrics with a zero base: %s" % absent)
    out = {
        "correct": failed == 0 and all(c["ok"] for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    return out, checks, report


# ---------------------------------------------------------------------
# Build and run


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build(bdir):
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs,
                    "--target", "fdp_perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "fdp_perfbench")


def run_binary(binary, args, workdir, deadline):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", workdir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_report(raw, checks, report):
    print("perfbench: workload=%s seed=%d variants=%d reps=%d "
          "simulated instructions per rep=%d"
          % (raw["workload"], raw["seed"], raw["variants"],
             len(raw["rep_wall_s"]), raw["rep_insts"][0]))
    rates = [i / w / 1e6 for i, w in zip(raw["rep_insts"],
                                         raw["rep_wall_s"])]
    if len(rates) >= 2:
        print("perfbench: rep rate median %.4g Minsts/s, quartile spread "
              "%.3f of the median, min %.4g, max %.4g over %d reps"
              % (median(rates), iqr_share(rates), min(rates), max(rates),
                 len(rates)))
    for c in checks:
        print("perfbench: check %-26s %s %s"
              % (c["name"], "ok" if c["ok"] else "FAILED", c["detail"]))
    if "traced" in raw:
        t = raw["traced"]
        print("perfbench: shares are of %.3f busy thread-s over %d traced "
              "reps (untraced rep median %.3f s, traced %.3f s)"
              % (t["busy_s"], len(t["wall_s"]), median(raw["rep_wall_s"]),
                 median(t["wall_s"])))
        for name in sorted(report):
            print("perfbench: %-36s %.6g" % (name, report[name]))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=CALIBRATED_SEED)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="pin this run's records as the workload's "
                    "reference (calibrated seed only)")
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error("unknown workload %r" % args.workload)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.write_reference and args.seed != CALIBRATED_SEED:
        ap.error("--write-reference pins the calibrated seed (0) only")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    bdir = build_dir()
    binary = build(bdir)
    workdir = os.path.join(bdir, "work")
    os.makedirs(workdir, exist_ok=True)
    raw = run_binary(binary, args, workdir,
                     time.monotonic() + RUN_DEADLINE_S)
    if raw is None:
        # A fatal or a crash: every run counts as failed.
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    if args.write_reference:
        write_reference(raw)
    out, checks, report = finish(raw, spec, bool(args.trace))
    if args.trace:
        rdir = os.path.join(os.path.dirname(bdir), "reports")
        os.makedirs(rdir, exist_ok=True)
        with open(os.path.join(rdir, "%s-seed%d-trace.json"
                               % (args.workload, args.seed)), "w") as f:
            json.dump({"raw": raw, "checks": checks, "metrics": report},
                      f, indent=1, sort_keys=True)
    print_report(raw, checks, report)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
