#!/usr/bin/env python3
"""ExtDict repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the driver (perfbench/CMakeLists.txt
compiles the library from ../src with its own build rules) into
.bench_build/perfbench, runs one workload of perfbench/config.json on inputs
generated from the seed, checks every output, and prints the metrics as the
last line of standard output:

    {"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
measured untraced. With --trace 1 they are its per_layer metrics: the run
measures an untraced pass and a traced pass (spans around every call into a
layer, written to .bench_build/traces/) and reports the tracing overhead as
the difference. The lines before the last one are details: the host and
build fingerprint, every output check, and each rung of the rate ladder.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"

# Candidate tail percentiles, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
# End-to-end time metrics whose traced-minus-untraced difference is the
# tracing overhead.
OVERHEAD_METRICS = ("lasso_iter_cpu_ms", "pca_iter_cpu_ms", "alg2_iter_cpu_ms",
                    "serve_cpu_us.light", "serve_cpu_us.heavy")
# The latency tail each rung reports and its latency limit judges. p99 over
# all rounds is printed for every rung too.
TAIL = 90.0
# The driver's OpenMP settings: the measured phases run on one thread (the
# driver raises it for set-up), and idle team threads sleep rather than
# spin, so the CPU time of the process counts work only.
DRIVER_ENV = {"OMP_NUM_THREADS": "1", "OMP_WAIT_POLICY": "passive"}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- statistics

def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (rounded
    first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p / 100.0 * n, 6)))


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - rank(n, p)


def supported_percentile(n, want=PERCENTILES[-1]):
    """The highest candidate percentile, at most `want`, with at least ten
    samples beyond it; None when not even the median has."""
    best = None
    for p in PERCENTILES:
        if p <= want and beyond(n, p) >= 10:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile; values may hold math.inf."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def tail(values, p):
    """The p-th percentile, or the highest candidate below it that the
    sample supports (the median when none does)."""
    return percentile(values, supported_percentile(len(values), p) or 50.0)


def latencies(rung):
    """Per-request latency in due order; a failed, lost or unsent request
    (-1 in the raw data) is infinitely late."""
    return [v if v >= 0 else math.inf for v in rung["latency_ms"]]


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------- open loop

def segment_verdict(seg):
    """One rung in one round: its latency, how late the generator ran, how
    much the backlog grew between mid-run and the last arrival, as a share
    of the arrivals in between, and the served rate: the replies after the
    first over the span from the first reply to the last, so the first
    reply's latency does not count against a short segment."""
    lat = latencies(seg)
    late = seg["lateness_ms"] or [0.0]
    failed = sum(1 for v in lat if math.isinf(v))
    return {
        "p50_ms": percentile(lat, 50), "p90_ms": tail(lat, TAIL),
        "failed": failed,
        "lateness_p50_ms": percentile(late, 50),
        "lateness_p99_ms": tail(late, 99.0), "lateness_max_ms": max(late),
        "backlog_growth": (seg["outstanding_end"] - seg["outstanding_mid"])
                          / (seg["count"] / 2),
        "served_per_s": (len(lat) - failed - 1) / seg["reply_span_s"]
                        if seg["reply_span_s"] > 0 else 0.0,
    }


def rung_summaries(segments, load, backlog_growth_limit):
    """Per rung, in ladder order, its figures over the rung's rounds.

    Every round repeats the same work: the same rate, the same dictionary
    sizes and the same extensions, on a fresh deployment where the workload
    extends. The latencies, the open-loop figures and the verdict judge the
    median round: a rung meets the latency limit when its median round's
    p90 does and no request failed in any round. It is flagged when the
    median round's generator lag p99 or backlog growth passes its limit.
    `server_cpu_us` is the server's CPU time over all rounds per request
    answered, unscaled."""
    out = []
    for rung in load["rungs"]:
        segs = [s for s in segments if s["name"] == rung["name"]]
        verdicts = [segment_verdict(s) for s in segs]
        mid = lambda key: statistics.median(v[key] for v in verdicts)
        pooled = [v for s in segs for v in latencies(s)]
        pooled_p = supported_percentile(len(pooled), 99.0) or 50.0
        summary = {
            "rung": rung["name"], "rate": rung["rate"], "rounds": len(segs),
            "sent": sum(s["count"] for s in segs),
            "failed": sum(v["failed"] for v in verdicts),
            "p50_ms": mid("p50_ms"), "p90_ms": mid("p90_ms"),
            "p90_limit_ms": load["p90_limit_ms"],
            # Not gated: all rounds pooled, at the highest percentile up to
            # p99 that the pooled sample supports.
            "pooled_tail": {"percentile": pooled_p,
                            "ms": percentile(pooled, pooled_p)},
            "lateness_p50_ms": mid("lateness_p50_ms"),
            "lateness_p99_ms": mid("lateness_p99_ms"),
            "lateness_max_ms": max(v["lateness_max_ms"] for v in verdicts),
            "backlog_growth": mid("backlog_growth"),
            "served_per_s": mid("served_per_s"),
            "server_cpu_us": server_cpu_us(segs),
            "per_round_p90_ms": [v["p90_ms"] for v in verdicts],
            "per_round_backlog_growth": [v["backlog_growth"]
                                         for v in verdicts],
            "per_round_outstanding": [[s["outstanding_mid"],
                                       s["outstanding_end"]] for s in segs],
        }
        flags = []
        if summary["lateness_p99_ms"] > load["lateness_limit_ms"]:
            flags.append("generator lagged")
        if summary["backlog_growth"] > backlog_growth_limit:
            flags.append("backlog grew")
        summary["flags"] = flags
        summary["meets_slo"] = (
            summary["p90_ms"] <= load["p90_limit_ms"]
            and summary["failed"] == 0 and not flags)
        out.append(summary)
    return out


def server_cpu_us(segments):
    """CPU time of the server side of the process (the process's less the
    senders') over the segments, in microseconds per request answered."""
    answered = sum(1 for s in segments for v in s["latency_ms"] if v >= 0)
    return 1e6 * sum(s["server_cpu_s"] for s in segments) / max(1, answered)


def merged(segments, name):
    """All segments of one rung as one: per-request lists concatenated."""
    segs = [s for s in segments if s["name"] == name]
    if not segs:
        raise BenchError(f"no rung named {name}")
    out = {"cache_hits": sum(s["cache_hits"] for s in segs)}
    for key in ("latency_ms", "queue_ms", "encode_ms", "batch_columns"):
        out[key] = [v for s in segs for v in s[key]]
    return out


# ----------------------------------------------------------------- metrics

def learn_figure(rounds, key):
    """A learning time: its median within each round, averaged over the
    rounds. Each round has the same time budget, so this weighs every
    stretch of the run alike; pooling the samples would weigh fast
    stretches, which fit more calls, more."""
    return statistics.fmean(statistics.median(r[key]) for r in rounds)


def probes(raw):
    """Every speed probe reading of a run: before each set-up, before each
    round's learning and serving slices, and between timed learning
    calls."""
    return raw["setup_probe"] + [q for p in raw["passes"]
                                 for r in p["learn"] for q in r["probes"]]


def speed_scale(raw, reference_probe_ms):
    """Reference speed over this run's speed: `reference_probe_ms` over the
    median probe reading of the run (the sum of its two kernels' times). On
    the reference host a vCPU runs at a few speeds up to about 1.5x apart,
    and which one changes every few seconds; the median ignores the odd
    reading that a moment's contention slowed (perfbench/README.md)."""
    return reference_probe_ms / statistics.median(
        p["core_ms"] + p["l3_ms"] for p in probes(raw))


def pass_metrics(raw, pass_, scale):
    """End-to-end metrics of one measured pass; CPU times are multiplied
    by `scale`, memory is not."""
    learn = pass_["learn"]
    serve = lambda name: server_cpu_us(
        [s for s in pass_["serve"] if s["name"] == name])
    return {
        "setup_s": scale * statistics.median(raw["setup_cpu_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "lasso_iter_cpu_ms": scale * learn_figure(learn, "lasso_iter_cpu_ms"),
        "pca_iter_cpu_ms": scale * learn_figure(learn, "pca_iter_cpu_ms"),
        "alg2_iter_cpu_ms": scale * learn_figure(learn, "alg2_iter_cpu_ms"),
        "serve_cpu_us.light": scale * serve("light"),
        "serve_cpu_us.heavy": scale * serve("heavy"),
    }


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            spans.append(json.loads(line))
    return spans


def span_durations(spans):
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["end_us"] - s["start_us"])
    return by_name


def layer_metrics(raw, spans, scale):
    """Per-layer metrics of a traced run: times from spans, exact counts
    from the driver, serving figures from the traced pass's replies."""
    counts = raw["counts"]
    layers = raw["layers"]
    dur = span_durations(spans)

    def med_us(name):
        if name not in dur:
            raise BenchError(f"traced run recorded no {name} span")
        return statistics.median(dur[name])

    m, l = layers["gemv_t_shape"]
    gemv_flops = 2.0 * m * l
    traced = raw["passes"][1]
    heavy = merged(traced["serve"], "heavy")
    light = merged(traced["serve"], "light")
    misses = [(q, e, b) for q, e, b in zip(heavy["queue_ms"], heavy["encode_ms"],
                                           heavy["batch_columns"]) if b > 0]
    ok_light = [v for v in light["latency_ms"] if v >= 0]
    overhead = [lat - q - e for lat, q, e in
                zip(ok_light, light["queue_ms"], light["encode_ms"])]
    # The timed (and traced) solves run a fixed number of iterations.
    lasso_iters = counts["solvers.lasso_timed_iters"]
    pca_iters = counts["solvers.pca_timed_iters"]
    out = {
        "la.gemv_t_gflops": gemv_flops / med_us("la.gemv_t") / 1e3,
        "la.gemv_t_flop_per_byte": gemv_flops / (8.0 * (m * l + m + l)),
        "la.gram_s": med_us("la.gram") / 1e6,
        "la.spmv_ms": (med_us("la.spmv") + med_us("la.spmv_t")) / 1e3,
        "sparsecoding.encode_all_s": med_us("sparsecoding.encode_all") / 1e6,
        "sparsecoding.encode_us": med_us("sparsecoding.encode"),
        "sparsecoding.projection_share":
            med_us("la.gemv_t") / med_us("sparsecoding.encode"),
        "sparsecoding.flops_per_signal": counts["sparsecoding.flops_per_signal"],
        "sparsecoding.atoms_per_signal": counts["sparsecoding.atoms_per_signal"],
        "core.gram_apply_ms": med_us("core.gram_apply") / 1e3,
        "core.dense_apply_ms": med_us("core.dense_apply") / 1e3,
        "core.apply_speedup":
            med_us("core.dense_apply") / med_us("core.gram_apply"),
        "core.flops_per_apply": counts["core.flops_per_apply"],
        "core.transformation_error": layers["transformation_error"],
        "solvers.lasso_iters": counts["solvers.lasso_iters"],
        "solvers.pca_iters": counts["solvers.pca_iters"],
        "solvers.lasso_ms_per_iter":
            med_us("solvers.lasso_solve") / 1e3 / lasso_iters,
        "solvers.pca_ms_per_iter":
            med_us("solvers.power_method") / 1e3 / pca_iters,
        "dist.update_flops_per_iter": counts["dist.update_flops_per_iter"],
        "dist.max_rank_words_per_iter": counts["dist.max_rank_words_per_iter"],
        "dist.measured_over_model":
            statistics.median(layers["measured_over_model"]),
        "serve.queue_ms_p50": median_or_zero([q for q, _, _ in misses]),
        "serve.encode_ms_p50": median_or_zero([e for _, e, _ in misses]),
        "serve.batch_columns_mean":
            statistics.fmean(b for _, _, b in misses) if misses else 0.0,
        "serve.cache_hit_ratio":
            heavy["cache_hits"] / max(1, len(heavy["queue_ms"])),
        "serve.registry_extend_ms": med_us("serve.registry_extend") / 1e3,
        "net.overhead_ms_p50": median_or_zero(overhead),
        "net.bytes_per_request": counts["net.bytes_per_request"],
        "trace.spans": float(raw["spans"]),
    }
    untraced = pass_metrics(raw, raw["passes"][0], scale)
    with_spans = pass_metrics(raw, traced, scale)
    for name in OVERHEAD_METRICS:
        out["trace.overhead." + name] = with_spans[name] - untraced[name]
    return out


# ------------------------------------------------------------ exact counts

def files_digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()[:16]


def check_counts_repeat(counts, workload, seed, driver_digest):
    """Exact counts must repeat on every run of one seed with one driver
    build and configuration. The first run of a seed records them under
    .bench_build/counts; later runs compare against the record and add
    counts it lacks."""
    record = BUILD_ROOT / "counts" / driver_digest / f"{workload}-{seed}.json"
    previous = json.loads(record.read_text()) if record.exists() else {}
    differ = {k: (previous[k], v) for k, v in counts.items()
              if k in previous and previous[k] != v}
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({**counts, **previous}, sort_keys=True))
    return {"name": "exact counts repeat across runs of this seed",
            "ok": not differ,
            "detail": f"{len(previous)} recorded, differing: {differ}"}


# ------------------------------------------------------------- fingerprint

def cgroup_cpu_quota():
    v2 = Path("/sys/fs/cgroup/cpu.max")
    if v2.exists():
        return v2.read_text().strip()
    quota = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota.exists() and period.exists():
        return f"{quota.read_text().strip()} {period.read_text().strip()}"
    return "unknown"


def cpu_ticks():
    """Aggregate CPU ticks from /proc/stat (user, nice, system, idle,
    iowait, irq, softirq, steal), or None where it is not available."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests between two
    cpu_ticks() readings: a busy host shows here."""
    if before is None or after is None or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else None


def source_commit():
    """The git commit when the checkout is a repository, else a digest of
    the sources the driver is built from."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE, ROOT / "CMakeLists.txt"):
        files = sorted(base.rglob("*")) if base.is_dir() else [base]
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def fingerprint(host, load_before, ticks_before, readings, scale):
    core = [p["core_ms"] for p in readings]
    l3 = [p["l3_ms"] for p in readings]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": cgroup_cpu_quota(),
        "load_before": load_before,
        "load_after": list(os.getloadavg()),
        "cpu_steal_share": steal_share(ticks_before, cpu_ticks()),
        "speed_probe": {"readings": len(readings),
                        "core_ms": [min(core), statistics.median(core),
                                    max(core)],
                        "l3_ms": [min(l3), statistics.median(l3), max(l3)]},
        "speed_scale": scale,
        "omp_max_threads": host["omp_max_threads"],
        "omp_setup_threads": host["omp_setup_threads"],
        "omp_env": {**{k: v for k, v in os.environ.items()
                       if k.startswith(("OMP_", "GOMP_"))}, **DRIVER_ENV},
        "compiler": host["compiler"],
        "build_type": host["build_type"],
        "march_native": host["march_native"],
        "sender_priority_raised": host["sender_priority_raised"],
        "commit": source_commit(),
    }


# -------------------------------------------------------------------- run

def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError("the extdict sources (src/) are not in this checkout")
    log = sys.stderr
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log, timeout=300)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j",
                    str(os.cpu_count() or 1)],
                   check=True, stdout=log, stderr=log, timeout=850)


def run_driver(args, out_path, spans_path):
    cmd = [str(DRIVER), "--config", str(HERE / "config.json"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_path)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=170,
                   env={**os.environ, **DRIVER_ENV})
    return json.loads(out_path.read_text())


def declared(benchmark, key):
    return [m["name"] for m in benchmark[key]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "config.json").read_text())
    if args.workload not in config["workloads"]:
        raise BenchError(f"unknown workload {args.workload}")
    load = config["workloads"][args.workload]["load"]
    backlog_limit = config["backlog_growth_limit"]

    load_before = list(os.getloadavg())
    build()
    ticks_before = cpu_ticks()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_path = BUILD_ROOT / "results" / f"{tag}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path = None
    if args.trace:
        spans_path = BUILD_ROOT / "traces" / f"{tag}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
    raw = run_driver(args, out_path, spans_path)

    scale = speed_scale(raw, config["reference_probe_ms"])
    checks = list(raw["checks"])
    checks.append(check_counts_repeat(raw["counts"], args.workload, args.seed,
                                      files_digest(DRIVER,
                                                   HERE / "config.json")))
    if args.trace:
        metrics = layer_metrics(raw, read_spans(spans_path), scale)
        names, units = declared(benchmark, "per_layer"), benchmark["per_layer"]
    else:
        metrics = pass_metrics(raw, raw["passes"][0], scale)
        names, units = declared(benchmark, "end_to_end"), benchmark["end_to_end"]
    missing = sorted(set(names) ^ set(metrics))
    if missing:
        raise BenchError(f"computed and declared metrics differ: {missing}")

    print(json.dumps({"fingerprint": fingerprint(raw["host"], load_before,
                                                 ticks_before, probes(raw),
                                                 scale)}))
    for check in checks:
        print(json.dumps({"check": check}))
    for pass_ in raw["passes"]:
        for rung in rung_summaries(pass_["serve"], load, backlog_limit):
            print(json.dumps({"traced": pass_["traced"], **rung}))
    print(json.dumps({"counts": raw["counts"]}))

    requests = sum(r["count"] for p in raw["passes"] for r in p["serve"])
    failed = sum(1 for p in raw["passes"] for r in p["serve"]
                 for v in r["latency_ms"] if v < 0)
    solves = sum(len(r[k]) for p in raw["passes"] for r in p["learn"]
                 for k in ("lasso_s", "pca_s", "alg2_s"))
    result = {
        "correct": all(c["ok"] for c in checks),
        "attempted": requests + solves,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
