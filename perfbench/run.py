#!/usr/bin/env python3
"""The repository benchmark: the real csq_serve and csq_cli on three workloads.

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first run builds csq_serve,
csq_cli and the benchmark's helpers from source (perfbench/CMakeLists.txt,
Release) into .bench_build (or $CARGO_TARGET_DIR). Workload parameters live
in perfbench/workloads.json; the reason for each workload is its `why` in
BENCHMARK.json.

--trace 0 measures the end-to-end metrics with tracing off. Every workload
reports every metric, each meaning the same thing for the user:

  cpu_us_per_request         CPU time (user + system) the binary under
                             test spends per request, run in parallel.
                             serve-*: the server at the shipping default
                             --workers 2, over every line it answered in
                             the round; cli-panel: the panel at 4 threads,
                             one panel cell counting as one request.
  serial_cpu_us_per_request  the same single-threaded: the --workers 0
                             reference server; the panel at 1 thread.
  setup_s                    serve-*: spawn until the first ping is
                             answered plus warm-up; cli-panel: a minimal
                             4-thread csq_cli run. The median of every
                             spawn in the run.
  peak_rss_mb                peak resident memory of the binary under test.

The CPU costs are medians of per-round values. Wall-clock figures are
printed beside them, not reported: on the shared host this benchmark was
sized on, the CPUs a run is given change from minute to minute, and with
them the wall-clock figures by more than any useful bound; the CPU cost
of the same work moves less. They are throughput_rps and
serial_throughput_rps (serve-*: closed-loop ok responses/s of the measured
and the reference server, median over rounds; cli-panel: panel cells/s
at 4 and 1 threads), latency_p50_us, latency_p95_us and latency_p99_us
with their sample count (serve-*: open-loop latency from scheduled send
to response over every round, a failed request counting as infinitely
late; cli-panel: wall time of one Fig 4 csq_cli sweep at the default of
one thread), failed_ratio, panel_s, panel_serial_s, figures_s, and the
servers' cache hit and shed counts.

So are three readings of the shared host: host_spin_ms,
the median time of a fixed CPU loop run once a round (how fast the host
ran); steal_pct, the share of CPU time the hypervisor took from this
machine during the run (/proc/stat); and on serve-*, late_p99_us, the
generator's lateness (how promptly the host woke sleeping threads).
--out keeps them; --compare prints them and warns when host_spin_ms or
late_p99_us differs by more than 25% or steal_pct by more than one point,
since then the timings differ by the host's load as well as by the code.

--trace 1 is the separate traced run: it runs both serve flows at reduced
size for the servers' own counter dumps, the panel with --metrics for the
pool counters, and perfbench_replay, which replays the same generated
inputs through each src/ module; it prints every per-layer metric.
trace.overhead_ratio is the only one that depends on --workload. Shed
ratios, the cold cache hit ratio and the worker handoff cost (pooled
minus inline call) are printed, not reported: on a healthy run the first
two are 0, and the handoff is a difference that can be.

Every run checks its outputs: each serve response must equal, byte for
byte, the serial reference server's answer to the same line, once per
request id; the servers' counters must balance; serve-cold must see no
cache hit, since its configs are distinct; the 4-thread panel CSV
must equal the 1-thread one and every figure sweep its 1-thread output.
The last line of stdout is one JSON object {correct, attempted, failed,
metrics}.

    python3 perfbench/run.py ... --out result.json   # keep result + fingerprint
    python3 perfbench/run.py --compare base.json head.json
    python3 -m unittest discover -s perfbench -p 'test_*.py'

--compare refuses (exit 3) to compare results whose host/build
fingerprints differ.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402

ROOT = os.path.dirname(HERE)
with open(os.path.join(HERE, "workloads.json")) as f:
    SPEC = json.load(f)
WORKLOADS = SPEC["workloads"]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# --------------------------------------------------------------------------
# Build and fingerprint

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    for need in ("src/CMakeLists.txt", "tools/csq_serve.cc", "tools/csq_cli.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError("not a source checkout: %s is missing" % need)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "build.log")
    with open(logfile, "a") as lf:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            if subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                              stdout=lf, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError("cmake configure failed, see " + logfile)
        if subprocess.run(["cmake", "--build", out, "-j", "4"],
                          stdout=lf, stderr=subprocess.STDOUT).returncode != 0:
            raise BenchError("build failed, see " + logfile)
    return {name: os.path.join(out, name)
            for name in ("csq_serve", "csq_cli", "perfbench_client", "perfbench_replay")}


def fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    with open(os.path.join(build_dir(), "build_info.json")) as f:
        info = json.load(f)
    fp = {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0))}
    fp.update(info)
    return fp


def host_spin_ms():
    """Wall time of a fixed CPU loop, in ms (see host_spin_ms above)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(200000):
        x += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def printed_tail(sample, q):
    """A tail percentile printed beside the metrics, or None when fewer
    than ten samples lie beyond it."""
    try:
        return checks.tail_percentile(sample, q)
    except ValueError:
        return None


# --------------------------------------------------------------------------
# Process helpers

def run_timed(argv, workdir, stdin_data=None):
    """Run argv; return (wall seconds, stdout bytes, exit code, peak RSS KiB,
    CPU seconds). stderr goes to a file in workdir."""
    with open(os.path.join(workdir, "stderr.log"), "ab") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdin=subprocess.PIPE if stdin_data else subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=err)
        if stdin_data:
            p.stdin.write(stdin_data)
            p.stdin.close()
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, out, p.returncode, usage.ru_maxrss, usage.ru_utime + usage.ru_stime


def read_lines(path):
    with open(path) as f:
        return f.read().splitlines()


# --------------------------------------------------------------------------
# Serve workloads

def serve_lines(name, seed, part, count):
    p = WORKLOADS[name]
    if name == "serve-cold":
        return gen.cold_lines(seed, part, p["warm_requests"] + count)
    return gen.hot_lines(seed, part, p["hot_configs"], count)


def server_argv(bins, name, workers, journal, dump):
    flags = [f.replace("{journal}", journal) for f in WORKLOADS[name]["server_flags"]]
    i = flags.index("--workers")
    flags[i + 1] = str(workers)
    return [bins["csq_serve"]] + flags + ["--metrics=" + dump]


def drive(bins, workdir, tag, lines_file, argv, warm, n_open, rate, n_closed, window, seed,
          setup_reps, journal):
    """Run perfbench_client against one server; return its summary plus
    the response lines and the open-loop (index, latency ns, late ns) rows."""
    prefix = os.path.join(workdir, tag)
    cmd = [bins["perfbench_client"], "--lines", lines_file, "--warm", str(warm),
           "--open", str(n_open), "--rate", str(rate), "--closed", str(n_closed),
           "--window", str(window), "--seed", str(seed), "--setup-reps", str(setup_reps),
           "--unlink", journal, "--out", prefix, "--"] + argv
    with open(os.path.join(workdir, "stderr.log"), "ab") as err:
        rc = subprocess.run(cmd, stdout=err, stderr=err).returncode
    if rc != 0:
        raise BenchError("perfbench_client failed (exit %d), see %s/stderr.log" % (rc, workdir))
    with open(prefix + ".json") as f:
        summary = json.load(f)
    summary["responses"] = read_lines(prefix + ".responses")
    summary["lat"] = []
    with open(prefix + ".lat") as f:
        for row in f:
            idx, lat, late = row.split()
            summary["lat"].append((idx, int(lat), int(late)))
    if os.path.exists(journal):
        os.unlink(journal)
    return summary


def check_round(main, ref, total, notes):
    """Correctness of one round: the measured responses against the serial
    reference, and both servers' exit codes and counter balance. Returns
    (failed request ids, correct)."""
    correct = True
    expected = {}
    for line in ref["responses"]:
        rid = checks.response_id(line)
        if rid is None or rid in expected or '"ok":true' not in line:
            correct = False
            notes.append("serial reference gave a bad, failed or duplicate response: "
                         + line[:120])
        expected.setdefault(rid, line)
    if len(expected) != total:
        correct = False
        notes.append("serial reference answered %d of %d requests" % (len(expected), total))
    report = checks.check_responses(expected, main["responses"])
    failed = checks.failed_ids(report)
    correct = correct and checks.responses_correct(report)
    for cause in ("missing", "duplicate", "mismatch", "shed", "unknown"):
        if report[cause]:
            notes.append("%d %s response(s), e.g. %s"
                         % (len(report[cause]), cause, str(report[cause][0])[:120]))
    for tag, run in (("measured", main), ("reference", ref)):
        if run["exit_code"] != 0:
            correct = False
            notes.append("%s server exited with %d" % (tag, run["exit_code"]))
            if tag == "measured":
                failed.add("exit")
        for problem in checks.counter_balance(run["dump"], total + 1):  # + set-up ping
            correct = False
            notes.append("%s server counters: %s" % (tag, problem))
    return failed, correct


def serve_flow(bins, name, seed, seconds, workdir):
    """One serve workload in rounds. Each round forks a fresh measured
    server (--workers 2) for set-up, open loop and closed loop, then a
    serial reference server (--workers 0) over the same lines. Throughputs
    and CPU costs are medians over the rounds, the latency percentiles are
    over every open-loop sample, set-up the median of all spawns."""
    p = WORKLOADS[name]
    rounds = p["rounds"]
    rate = p["open_loop_rate_rps"]
    window = p["closed_loop_window"]
    warm = p["warm_requests"]
    n_open = max(500, int(round(rate * p["open_loop_share"] * seconds / rounds)))
    n_closed = max(window, int(round(
        p["closed_loop_nominal_rps"] * p["closed_loop_share"] * seconds / rounds)))
    total = warm + n_open + n_closed
    journal = os.path.join(workdir, "journal.ndjson")
    notes = []
    correct = True
    failed = 0
    per_round = {k: [] for k in ("cpu", "serial_cpu", "tput", "serial", "late", "spin")}
    lat_us = []
    setup_s, rss = [], []
    dumps = []
    for r in range(rounds):
        per_round["spin"].append(host_spin_ms())
        lines = serve_lines(name, seed, r, n_open + n_closed)
        assert len(lines) == total
        lines_file = os.path.join(workdir, "round%d.ndjson" % r)
        with open(lines_file, "w") as f:
            f.write("\n".join(lines) + "\n")
        runs = {}
        for tag, workers, w, o, c, reps in (("main", 2, warm, n_open, n_closed, p["setup_reps"]),
                                            ("ref", 0, 0, 0, total, 1)):
            dump = os.path.join(workdir, "%s%d.metrics.json" % (tag, r))
            runs[tag] = drive(bins, workdir, "%s%d" % (tag, r), lines_file,
                              server_argv(bins, name, workers, journal, dump), w, o, rate, c,
                              window, seed * 1000 + r, reps, journal)
            with open(dump) as f:
                runs[tag]["dump"] = checks.parse_metrics_dump(f.read())
        main, ref = runs["main"], runs["ref"]
        bad, ok = check_round(main, ref, total, notes)
        failed += len(bad)
        correct = correct and ok
        lat_us += [l / 1e3 if idx not in bad and l >= 0 else math.inf
                   for idx, l, _ in main["lat"]]
        per_round["cpu"].append(main["cpu_s"] * 1e6 / (total + 1))  # + set-up ping
        per_round["serial_cpu"].append(ref["cpu_s"] * 1e6 / (total + 1))
        per_round["tput"].append(main["closed_ok"] / main["closed_s"])
        per_round["serial"].append(ref["closed_ok"] / ref["closed_s"])
        per_round["late"].append(checks.percentile([max(0, x) / 1e3 for _, _, x in main["lat"]],
                                                   0.99))
        setup_s += main["setup_s"]
        rss.append(main["maxrss_kb"])
        dumps.append(main["dump"])
        if r == 0:
            first_lines = lines_file

    metrics = {
        "cpu_us_per_request": statistics.median(per_round["cpu"]),
        "serial_cpu_us_per_request": statistics.median(per_round["serial_cpu"]),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": max(rss) / 1024.0,
    }

    def total_of(key):
        return sum(int(d.get(key, 0)) for d in dumps)
    received = max(1, total_of("serve.requests.received"))
    hits, misses = total_of("serve.cache.hits"), total_of("serve.cache.misses")
    if name == "serve-cold" and hits:
        correct = False
        notes.append("%d cache hit(s) on distinct configs" % hits)
    extra = {
        "throughput_rps": statistics.median(per_round["tput"]),
        "serial_throughput_rps": statistics.median(per_round["serial"]),
        "latency_p50_us": checks.percentile(lat_us, 0.5),
        "latency_p95_us": printed_tail(lat_us, 0.95),
        "latency_p99_us": printed_tail(lat_us, 0.99),
        "samples": "%d per round x %d rounds = %d" % (n_open, rounds, len(lat_us)),
        "late_p99_us": statistics.median(per_round["late"]),
        "host_spin_ms": statistics.median(per_round["spin"]),
        "cache_hits": hits,
        "cache_hit_ratio": hits / max(1, hits + misses),
        "shed": total_of("serve.requests.shed"),
        "shed_ratio": total_of("serve.requests.shed") / received,
        "fsyncs_per_1k": 1000.0 * total_of("durable.journal.fsyncs") / received,
        "dump": {k: total_of(k) for k in set().union(*dumps)},
        "lines_file": first_lines,
    }
    return metrics, rounds * total, failed, correct, notes, extra


# --------------------------------------------------------------------------
# cli-panel

def panel_argv(bins, seed, threads, extra=()):
    p = WORKLOADS["cli-panel"]
    return ([bins["csq_cli"], "sweep", "--policy", ",".join(gen.PANEL_POLICIES)]
            + p["panel_flags"] + ["--seed", str(seed), "--threads", str(threads), "--csv"]
            + list(extra))


def figure_argvs(bins, seed, threads, extra=()):
    return [[bins["csq_cli"], "sweep"] + a + ["--csv", "--threads", str(threads)] + list(extra)
            for a in gen.figure_sweeps(seed)]


def cli_setup(bins, workdir):
    p = WORKLOADS["cli-panel"]
    walls = []
    for _ in range(p["setup_reps"]):
        argv = [a.replace("{threads}", str(p["threads"])) for a in p["setup_command"]]
        wall, _, rc, _, _ = run_timed([bins["csq_cli"]] + argv, workdir)
        if rc != 0:
            raise BenchError("csq_cli set-up command failed with exit %d" % rc)
        walls.append(wall)
    return statistics.median(walls)


def cli_flow(bins, seed, seconds, workdir):
    p = WORKLOADS["cli-panel"]
    setup_s = cli_setup(bins, workdir)
    figures = figure_argvs(bins, seed, p["threads"])
    # Reference figure outputs, single-threaded, untimed.
    reference = []
    for argv in figure_argvs(bins, seed, 1):
        _, out, rc, _, _ = run_timed(argv, workdir)
        if rc != 0:
            raise BenchError("reference figure sweep failed with exit %d" % rc)
        reference.append(out)
    rounds = max(2, int(round(seconds / p["round_seconds"])))
    # Latency samples: the first figure curve (Fig 4, shorts and longs of
    # mean 1) at csq_cli's default of one thread, `reps` times a round.
    latency_argv = figure_argvs(bins, seed, 1)[0]
    reps = p["latency_reps_per_round"]

    attempted = 0
    failed = 0
    notes = []
    panel_s, serial_s, panel_cpu, serial_cpu, figures_s, lat_us, rss = [], [], [], [], [], [], []
    spin = []
    cells = len(gen.PANEL_POLICIES) * int(p["panel_flags"][p["panel_flags"].index("--points") + 1])

    def timed(argv, ref):
        nonlocal attempted, failed
        wall, out, rc, r, cpu = run_timed(argv, workdir)
        attempted += 1
        rss.append(r)
        if ref is not None and (rc != 0 or out != ref):
            failed += 1
            notes.append("%s: exit %d, output %s the 1-thread reference"
                         % (" ".join(argv[1:8]), rc, "matches" if out == ref else "differs from"))
        return wall, out, rc, cpu

    for _ in range(rounds):
        spin.append(host_spin_ms())
        w4, csv4, rc4, cpu4 = timed(panel_argv(bins, seed, p["threads"]), None)
        w1, _, _, cpu1 = timed(panel_argv(bins, seed, 1), csv4 if rc4 == 0 else None)
        panel_s.append(w4)
        serial_s.append(w1)
        panel_cpu.append(cpu4 * 1e6 / cells)
        serial_cpu.append(cpu1 * 1e6 / cells)
        if rc4 != 0 or csv4.count(b"\n") != cells + 1:
            failed += 1
            notes.append("the %d-thread panel exited %d with %d lines"
                         % (p["threads"], rc4, csv4.count(b"\n")))
        figures_s.append(sum(timed(argv, ref)[0] for argv, ref in zip(figures, reference)))
        lat_us += [timed(latency_argv, reference[0])[0] * 1e6 for _ in range(reps)]
    metrics = {
        "cpu_us_per_request": statistics.median(panel_cpu),
        "serial_cpu_us_per_request": statistics.median(serial_cpu),
        "setup_s": setup_s,
        "peak_rss_mb": max(rss) / 1024.0,
    }
    extra = {
        "throughput_rps": cells / statistics.median(panel_s),
        "serial_throughput_rps": cells / statistics.median(serial_s),
        "latency_p50_us": checks.percentile(lat_us, 0.5),
        "latency_p95_us": printed_tail(lat_us, 0.95),
        "latency_p99_us": printed_tail(lat_us, 0.99),
        "samples": "%d per round x %d rounds = %d" % (reps, rounds, len(lat_us)),
        "panel_s": statistics.median(panel_s),
        "panel_serial_s": statistics.median(serial_s),
        "figures_s": statistics.median(figures_s),
        "host_spin_ms": statistics.median(spin),
        "rounds": rounds,
    }
    return metrics, attempted, failed, failed == 0, notes, extra


# --------------------------------------------------------------------------
# Traced run: per-layer metrics

def traced(bins, workload, seed, seconds, workdir):
    small = max(4.0, seconds / 4.0)
    m = {}
    attempted = failed = 0
    correct = True
    notes = []
    flows = {}
    for name, short in (("serve-cold", "cold"), ("serve-hot-journaled", "hot")):
        sub = os.path.join(workdir, short)
        os.makedirs(sub)
        _, a, f, c, n, extra = serve_flow(bins, name, seed, small, sub)
        attempted, failed, correct = attempted + a, failed + f, correct and c
        notes += n
        flows[short] = extra
        m["gen.late_p99_us." + short] = extra["late_p99_us"]
        log("  %s: cache hit ratio %.6g (%d hits), shed ratio %.6g (%d shed)"
            % (name, extra["cache_hit_ratio"], extra["cache_hits"], extra["shed_ratio"],
               extra["shed"]))
    m["serve.cache_hit_ratio"] = flows["hot"]["cache_hit_ratio"]
    m["durable.fsyncs_per_1k"] = flows["hot"]["fsyncs_per_1k"]
    cold = flows["cold"]["dump"]
    solves = max(1, int(cold.get("qbd.solve.calls", 0)))
    m["qbd.fi_iterations_per_solve"] = int(cold.get("qbd.fi.iterations", 0)) / solves
    m["linalg.pattern_mults_per_solve"] = int(cold.get("qbd.kernel.pattern_mults", 0)) / solves
    m["linalg.dense_mults_per_solve"] = int(cold.get("qbd.kernel.dense_mults", 0)) / solves

    pool_dump = os.path.join(workdir, "pool.metrics.json")
    p = WORKLOADS["cli-panel"]
    _, _, rc, _, _ = run_timed(panel_argv(bins, seed, p["threads"],
                                       ["--metrics=" + pool_dump]), workdir)
    attempted += 1
    if rc != 0:
        failed += 1
        correct = False
        notes.append("panel with --metrics exited with %d" % rc)
    with open(pool_dump) as f:
        pool = checks.parse_metrics_dump(f.read())
    m["pool.grant_ratio"] = (int(pool.get("pool.channel.grants", 0))
                             / max(1, int(pool.get("pool.channel.requests", 0))))
    m["pool.suspends_per_task"] = (int(pool.get("pool.workers.suspended", 0))
                                   / max(1, int(pool.get("pool.tasks.executed", 0))))

    overhead = {"serve-cold": "cold", "serve-hot-journaled": "hot"}.get(workload, "none")
    wall, out, rc, _, _ = run_timed(
        [bins["perfbench_replay"], "--cold", flows["cold"]["lines_file"],
         "--hot", flows["hot"]["lines_file"],
         "--hot-configs", str(WORKLOADS["serve-hot-journaled"]["hot_configs"]),
         "--journal", os.path.join(workdir, "replay.journal"), "--threads", str(p["threads"]),
         "--overhead", overhead],
        workdir)
    if rc != 0:
        raise BenchError("perfbench_replay failed with exit %d" % rc)
    m.update(json.loads(out.decode().strip().splitlines()[-1]))
    log("  serve handoff (pooled - inline call, p50): %.6g us"
        % (m["serve.pool_call_us"] - m["serve.inline_call_us"]))

    if workload == "cli-panel":
        # csq_cli --trace=file against no tracing, same figure sweeps and
        # panel, alternating; ratio of the medians.
        trace_file = os.path.join(workdir, "cli.trace.json")
        plain, traced_walls = [], []
        for _ in range(3):
            for on, sink in ((False, plain), (True, traced_walls)):
                extra = ["--trace=" + trace_file] if on else []
                total = 0.0
                for argv in (figure_argvs(bins, seed, p["threads"], extra)
                             + [panel_argv(bins, seed, p["threads"], extra)]):
                    wall, _, rc, _, _ = run_timed(argv, workdir)
                    attempted += 1
                    if rc != 0:
                        failed += 1
                        correct = False
                    total += wall
                sink.append(total)
        m["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain)
    return m, attempted, failed, correct, notes


# --------------------------------------------------------------------------

# Figures printed beside the metrics of an untraced run, with their units.
PRINTED = (("throughput_rps", "1/s"), ("serial_throughput_rps", "1/s"),
           ("latency_p50_us", "us"), ("latency_p95_us", "us"), ("latency_p99_us", "us"),
           ("panel_s", "s"), ("panel_serial_s", "s"), ("figures_s", "s"),
           ("late_p99_us", "us"), ("cache_hits", "count"), ("cache_hit_ratio", "ratio"),
           ("shed", "count"), ("shed_ratio", "ratio"), ("fsyncs_per_1k", "count"),
           ("host_spin_ms", "ms"))


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    diff = checks.fingerprint_mismatch(a["fingerprint"], b["fingerprint"])
    if diff:
        log("refusing to compare: fingerprints differ on " + ", ".join(diff))
        for k in diff:
            log("  %s: %r vs %r" % (k, a["fingerprint"].get(k), b["fingerprint"].get(k)))
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        log("refusing to compare different workloads or trace modes")
        return 3
    host_a, host_b = a.get("host", {}), b.get("host", {})
    for k in sorted(set(host_a) & set(host_b)):
        va, vb = host_a[k], host_b[k]
        log("host %-27s %14.6g -> %14.6g" % (k, va, vb))
        if abs(vb - va) > 1.0 if k == "steal_pct" else va > 0 and abs(vb / va - 1.0) > 0.25:
            log("warning: the host ran differently for the two results; timings differ"
                " by its load as well as by the code")
    spec, _ = load_units()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for name, entry in a["result"]["metrics"].items():
        if name not in b["result"]["metrics"]:
            continue
        va, vb = entry["value"], b["result"]["metrics"][name]["value"]
        if va == 0:
            log("%-32s %14.6g -> %14.6g  no ratio: the base is 0" % (name, va, vb))
            continue
        ratio = vb / va
        line = "%-32s %14.6g -> %14.6g  x%.4f" % (name, va, vb, ratio)
        m = bounds.get(name)
        if m:
            change = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
            if change > m["bound"]:
                worse += 1
                line += "  worse than its bound %.2f" % m["bound"]
        log(line)
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=SPEC["default_seed"])
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the result with its fingerprint here")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    try:
        spec, units = load_units()
        bins = build()
        fp = fingerprint()
        workdir = os.path.join(build_dir(), "run-%s-%d" % (args.workload, os.getpid()))
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        ticks0 = cpu_ticks()
        try:
            if args.trace:
                host = {"host_spin_ms": statistics.median(host_spin_ms() for _ in range(5))}
                metrics, attempted, failed, correct, notes = traced(
                    bins, args.workload, args.seed, args.seconds, workdir)
                names = [m["name"] for m in spec["per_layer"]]
            else:
                flow = cli_flow if args.workload == "cli-panel" else (
                    lambda b, s, t, w: serve_flow(b, args.workload, s, t, w))
                metrics, attempted, failed, correct, notes, extra = flow(
                    bins, args.seed, args.seconds, workdir)
                names = [m["name"] for m in spec["end_to_end"]]
                host = {k: extra[k] for k in ("host_spin_ms", "late_p99_us") if k in extra}
                log("%s seed %d: %s samples"
                    % (args.workload, args.seed, extra["samples"]))
                for k, unit in PRINTED:
                    if extra.get(k) is not None:
                        log("  %-24s %.6g %s" % (k, extra[k], unit))
            ticks1 = cpu_ticks()
            if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
                host["steal_pct"] = 100.0 * (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
                log("  %-24s %.6g" % ("steal_pct", host["steal_pct"]))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 2
    missing = [n for n in names if n not in metrics]
    if missing:
        print("perfbench: metrics not measured: " + ", ".join(missing), file=sys.stderr)
        return 2
    metrics = {n: metrics[n] for n in names}
    for note in notes:
        log("CHECK FAILED: " + note)
    log("  %-32s %.6g ratio" % ("failed_ratio", failed / max(1, attempted)))
    for n in names:
        log("  %-32s %.6g %s" % (n, metrics[n], units[n]))
    log("fingerprint: " + json.dumps(fp, sort_keys=True))
    line = result_line(correct, attempted, failed, metrics, units)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       "fingerprint": fp, "host": host, "result": json.loads(line)},
                      f, indent=1)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
