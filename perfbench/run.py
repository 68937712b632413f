#!/usr/bin/env python3
"""Wall-clock benchmark of the Starlink bridge.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-clean --seed 1 --seconds 10 --trace 0

Workloads (perfbench/README.md has the details and every metric's formula):

  sim-clean         six paper directions, round-robin, one-shard ShardEngine
  sim-chaos         the same under 25 % loss + seeded fault schedules, with
                    metrics, flight recorder and registry pinning on
  live-slp-bonjour  `starlinkd serve --transport=os --case slp-to-bonjour`
                    driven by one closed-loop SLP client over real sockets

The first run in a checkout builds the libraries, `starlinkd` and the
benchmark binary (slbench) into .bench_build/ (CMake, perfbench/CMakeLists.txt).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Exit 0 only when every correctness check passed; exit 77 (no result) when
the live workload cannot run because loopback multicast is unusable.
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
LOGS = os.path.join(BUILD_ROOT, "logs")
TRACES = os.path.join(BUILD_ROOT, "traces")
SLBENCH = os.path.join(BUILD, "slbench")
STARLINKD = os.path.join(BUILD, "tools", "starlinkd")

WORKLOADS = ("sim-clean", "sim-chaos", "live-slp-bonjour")
# Exit code of starlinkd for a net.* failure; a port clash says
# net.bind-conflict (tools/daemon_smoke.sh retries on the same pair).
NET_LAYER_EXIT = 17
SKIP_EXIT = 77
LIVE_SETUP_ROUNDS = 5
MDLS = ("SLP", "DNS", "SSDP", "HTTP")
# Per-layer rows (names or name prefixes) a workload does not cross: they
# read 0 there. Any other declared row a run fails to produce is an error.
NOT_CROSSED = {
    "sim": ("live.peer_wait_ms", "live.translation_ms", "net.os.other_ms"),
    "live": ("engine.parse_span_ns", "engine.compose_span_ns", "engine.translation_logic_ns",
             "net.send_ns", "engine.span_self_ns", "engine.other_ns",
             "engine.traced_wall_us_per_lookup", "alloc.", "protocols.", "harness_",
             "engine.translation_ms_p50.", "net.sim.", "bridge.registry_load_ms",
             "shard.first_deploy_ms", "host."),
}

# Derived per-layer rows, printed with their values in a traced run.
FORMULAS = (
    "harness_us_per_lookup = (protocols.native_lookup_us.slp + .bonjour + .upnp) / 3",
    "harness_share = harness_us_per_lookup / untraced wall_us_per_lookup",
    "engine.other_ns = engine.traced_wall_us_per_lookup * 1000 - engine.span_self_ns"
    " - harness_us_per_lookup * 1000",
    "net.os.other_ms = mean client lookup ms - live.translation_ms",
)

# Processes this run started; every exit path kills and reaps them.
CHILDREN = []


class BenchError(Exception):
    """A failure that ends the run without a result."""


def log_path(name):
    os.makedirs(LOGS, exist_ok=True)
    return os.path.join(LOGS, name)


def stop_children():
    for proc in list(CHILDREN):
        if proc.poll() is None:
            proc.kill()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass


def untrack(proc):
    if proc in CHILDREN:
        CHILDREN.remove(proc)


def on_signal(signum, _frame):
    stop_children()
    sys.exit(128 + signum)


def build():
    """Configures (once) and builds slbench and the daemon from source."""
    for needed in ("src", "tools", "models", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"not a Starlink checkout: {needed} is missing in {ROOT}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    with open(log_path("build.log"), "a") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            rc = subprocess.call(["cmake", "-S", "perfbench", "-B", BUILD,
                                  "-DCMAKE_BUILD_TYPE=Release"] + generator,
                                 stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError(f"cmake configure failed; see {out.name}")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        rc = subprocess.call(["cmake", "--build", BUILD, "-j", jobs,
                              "--target", "slbench", "starlinkd"],
                             stdout=out, stderr=subprocess.STDOUT)
        if rc != 0:
            raise BenchError(f"build failed; see {out.name}")


def run_slbench(args, log_name, timeout):
    """Runs slbench; returns (exit code, parsed JSON report or None)."""
    with open(log_path(log_name), "w") as err:
        proc = subprocess.Popen([SLBENCH] + args, stdout=subprocess.PIPE, stderr=err, text=True)
        CHILDREN.append(proc)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        finally:
            untrack(proc)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


# -- sim workloads ------------------------------------------------------------


def run_sim(workload, seed, seconds, trace):
    args = ["sim", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--models", "models"]
    if trace:
        os.makedirs(TRACES, exist_ok=True)
        args += ["--trace-out", os.path.join(TRACES, f"{workload}-seed{seed}.json")]
    rc, report = run_slbench(args, f"{workload}-seed{seed}-trace{int(trace)}.log",
                             timeout=seconds + 60)
    if report is None:
        raise BenchError(f"slbench exited {rc} without a report; see {LOGS}")
    return report


# -- live workload ------------------------------------------------------------


class Daemon:
    """One `starlinkd serve --transport=os` process and its stdout lines."""

    def __init__(self, port_base, metrics_port, log):
        cmd = [STARLINKD, "serve", "--transport=os", "--case", "slp-to-bonjour",
               "--with-peers", "--processing-ms", "0", "--port-base", str(port_base),
               "--max-seconds", "170"]
        if metrics_port:
            cmd += ["--metrics-port", str(metrics_port)]
        self.port_base = port_base
        self.metrics_port = metrics_port
        self.lines = []
        self.ready = threading.Event()
        self.spawned = time.perf_counter()
        self.ready_at = None
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True)
        CHILDREN.append(self.proc)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            if self.ready_at is None and "starlinkd[os]: ready" in line:
                self.ready_at = time.perf_counter()
                self.ready.set()
            self.lines.append(line.rstrip("\n"))
        self.ready.set()  # EOF: the daemon died before (or after) ready

    def wait_ready(self, timeout=30):
        self.ready.wait(timeout)
        return self.ready_at is not None

    def peak_rss_mib(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def scrape(self):
        with socket.create_connection(("127.0.0.1", self.metrics_port), timeout=5) as conn:
            conn.sendall(b"GET /metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n")
            chunks = []
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        response = b"".join(chunks).decode()
        head, _, body = response.partition("\r\n\r\n")
        if not head.startswith("HTTP/1.1 200"):
            raise BenchError("metrics scrape failed: " + head.splitlines()[0])
        return body

    def stop(self):
        """SIGTERM; returns (exit code, shutdown line)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rc = self.proc.wait()
        self.reader.join(timeout=5)
        untrack(self.proc)
        shutdown = [line for line in self.lines if "starlinkd[os]: shutdown" in line]
        return rc, (shutdown[-1] if shutdown else "")

    def sessions(self):
        return [line for line in self.lines if line.startswith("session #")]


def start_daemon(rng, metrics, log):
    """Starts a daemon on a random port base, retrying on a port clash."""
    for _ in range(8):
        port_base = rng.randrange(20000, 40000)
        daemon = Daemon(port_base, port_base + 99 if metrics else 0, log)
        if daemon.wait_ready():
            return daemon
        rc, _ = daemon.stop()
        log.flush()
        with open(log.name) as text:
            if rc == NET_LAYER_EXIT and "net.bind-conflict" in text.read():
                continue
        raise BenchError(f"daemon did not start (exit {rc}); see {log.name}")
    raise BenchError("no free port base after 8 attempts")


def generate(daemon, seconds, max_lookups, tag, seed, trace_out=None):
    args = ["live-gen", "--port-base", str(daemon.port_base), "--seconds", str(seconds)]
    if max_lookups:
        args += ["--max-lookups", str(max_lookups)]
    if trace_out:
        args += ["--trace-out", trace_out]
    rc, report = run_slbench(args, f"live-gen-seed{seed}-{tag}.log", timeout=seconds + 30)
    if rc == SKIP_EXIT:
        raise SkipWorkload("loopback multicast unusable on this host")
    if report is None:
        raise BenchError(f"live generator exited {rc} without a report")
    return report


class SkipWorkload(Exception):
    pass


def check_shutdown(daemon, lookups, failures):
    """Stops the daemon and checks its coded, complete shutdown."""
    rc, shutdown = daemon.stop()
    if rc != 0:
        failures.append(f"live: daemon exited {rc} on SIGTERM")
    if "uncoded=0" not in shutdown:
        failures.append("live: shutdown line missing or uncoded aborts: " + shutdown)
    sessions = daemon.sessions()
    if len(sessions) != lookups:
        failures.append(f"live: daemon served {len(sessions)} sessions for {lookups} lookups")
    match = re.search(r"(\d+) sessions \((\d+) completed", shutdown)
    return (int(match.group(1)), int(match.group(2))) if match else (len(sessions), 0)


def metric_sum(text, name, label=""):
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and line[len(name):len(name) + 1] in ("{", " ") and label in line:
            total += float(line.rsplit(" ", 1)[1])
    return total


def metric_by_label(text, name, key):
    values = {}
    for line in text.splitlines():
        match = re.match(re.escape(name) + r"\{(.*)\} (\S+)$", line)
        if match:
            label = re.search(key + r'="([^"]*)"', match.group(1))
            if label:
                values[label.group(1)] = values.get(label.group(1), 0.0) + float(match.group(2))
    return values


def live_layers(before, after, gen, sessions, metrics):
    """Per-layer rows of a traced live run from two /metrics scrapes."""
    lookups = gen["metrics"]["lookups"]

    def delta(name, label=""):
        return metric_sum(after, name, label) - metric_sum(before, name, label)

    codec_ns = 0.0
    for mdl in MDLS:
        label = f'protocol="{mdl}"'
        parse = delta("starlink_codec_parse_ns_sum", label)
        compose = delta("starlink_codec_compose_ns_sum", label)
        metrics[f"mdl.parse_ns.{mdl}"] = parse / lookups
        metrics[f"mdl.compose_ns.{mdl}"] = compose / lookups
        codec_ns += parse + compose
    metrics["mdl.bytes_in_per_lookup"] = delta("starlink_codec_parse_bytes_total") / lookups
    metrics["live.bridge_cpu_us_per_lookup"] = codec_ns / lookups / 1000.0
    # The bridge waits on the mDNS peer in the state with the longest dwell.
    dwell_sum = metric_by_label(after, "starlink_engine_state_dwell_ms_sum", "state")
    dwell_before = metric_by_label(before, "starlink_engine_state_dwell_ms_sum", "state")
    dwell_count = metric_by_label(after, "starlink_engine_state_dwell_ms_count", "state")
    count_before = metric_by_label(before, "starlink_engine_state_dwell_ms_count", "state")
    waits = {s: (dwell_sum[s] - dwell_before.get(s, 0.0),
                 dwell_count.get(s, 0.0) - count_before.get(s, 0.0)) for s in dwell_sum}
    wait_state = max(waits, key=lambda s: waits[s][0]) if waits else None
    metrics["live.peer_wait_ms"] = (waits[wait_state][0] / waits[wait_state][1]
                                    if wait_state and waits[wait_state][1] else 0.0)
    translation = delta("starlink_engine_translation_ms_sum")
    windows = delta("starlink_engine_translation_ms_count")
    metrics["live.translation_ms"] = translation / windows if windows else 0.0
    metrics["net.os.other_ms"] = gen["metrics"]["mean_ms"] - metrics["live.translation_ms"]
    metrics["telemetry.recorder_reserved_kib"] = \
        metric_sum(after, "starlink_telemetry_recorder_reserved_bytes") / 1024.0
    metrics["engine.retransmits_per_lookup"] = delta("starlink_engine_retransmits_total") / lookups
    # Session lines: "session #N: completed in=2 out=2 model=v1 [cause=.. code=..]".
    fields = [dict(re.findall(r"(\w+)=(\S+)", line)) for line in sessions]
    metrics["engine.bridge_sessions_per_lookup"] = len(fields) / lookups
    metrics["engine.messages_in_per_lookup"] = sum(int(f.get("in", 0)) for f in fields) / lookups
    metrics["engine.messages_out_per_lookup"] = sum(int(f.get("out", 0)) for f in fields) / lookups
    return [f["code"] for f in fields if "code" in f]


def abort_rows(codes, declared, metrics):
    """engine.aborts.<code> counts for the declared codes, the rest as other."""
    prefix = "engine.aborts."
    known = {name[len(prefix):] for name in declared if name.startswith(prefix)} - {"other"}
    for code in known:
        metrics[prefix + code] = float(codes.count(code))
    metrics[prefix + "other"] = float(sum(1 for code in codes if code not in known))


def run_live(seed, seconds, trace, declared, log):
    rng = random.Random(seed)
    failures = []
    metrics = {}
    if not trace:
        # Set-up rounds: spawn -> ready line -> first successful lookup. The
        # daemon's start-up is CPU work and is rescaled to the reference
        # host speed by the calibration the generator times right after it
        # (bench_common.hpp, hostScale); the first lookup is mostly timer
        # wait and stays as measured.
        setup = []
        for round_no in range(LIVE_SETUP_ROUNDS):
            daemon = start_daemon(rng, False, log)
            gen = generate(daemon, seconds, 1, f"setup{round_no}", seed)
            failures += gen["failures"]
            setup.append(gen["metrics"]["host_scale"] * (daemon.ready_at - daemon.spawned)
                         + gen["metrics"]["first_lookup_s"])
            check_shutdown(daemon, 1, failures)
        metrics["setup_s"] = statistics.median(setup)

    # Measured run: no metrics listener (the untraced configuration).
    daemon = start_daemon(rng, False, log)
    gen = generate(daemon, seconds / 2 if trace else seconds, 0, "measure", seed)
    failures += gen["failures"]
    rss = daemon.peak_rss_mib()
    lookups = int(gen["metrics"]["lookups"])
    sessions, completed = check_shutdown(daemon, lookups, failures)
    discovered = gen["metrics"]["discovered"]
    attempted, failed = lookups, lookups - int(discovered)
    if not trace:
        metrics.update({
            "wall_us_per_lookup": gen["metrics"]["wall_s"] * 1e6 / lookups,
            "lookup_ms_p50": gen["metrics"]["lookup_ms_p50"],
            "lookups_per_s": discovered / gen["metrics"]["wall_s"],
            "discovered_frac": discovered / lookups,
            "completed_frac": completed / sessions if sessions else 0.0,
            "peak_rss_mib": rss,
        })
        return {"failures": failures, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    # Traced run: a daemon with /metrics, scraped before and after.
    traced = start_daemon(rng, True, log)
    before = traced.scrape()
    os.makedirs(TRACES, exist_ok=True)
    tgen = generate(traced, seconds / 2, 0, "traced", seed,
                    os.path.join(TRACES, f"live-slp-bonjour-seed{seed}.json"))
    after = traced.scrape()
    failures += tgen["failures"]
    tlookups = int(tgen["metrics"]["lookups"])
    session_lines = traced.sessions()
    check_shutdown(traced, tlookups, failures)
    attempted += tlookups
    failed += tlookups - int(tgen["metrics"]["discovered"])
    codes = live_layers(before, after, tgen, session_lines, metrics)
    abort_rows(codes, declared, metrics)
    if "common.unclassified" in codes:
        failures.append("live: an abort escaped the error taxonomy (Unclassified)")
    metrics["lookup_ms_p99"] = gen["metrics"]["lookup_ms_p99"]
    untraced_ms = gen["metrics"]["mean_ms"]
    metrics["telemetry.tracing_overhead_pct"] = \
        100.0 * (tgen["metrics"]["mean_ms"] - untraced_ms) / untraced_ms
    return {"failures": failures, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- result -------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
            spec = json.load(spec_file)
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        build()
        if args.workload == "live-slp-bonjour":
            names = [m["name"] for m in declared]
            with open(log_path(f"live-daemon-seed{args.seed}-trace{args.trace}.log"), "w") as log:
                report = run_live(args.seed, args.seconds, bool(args.trace), names, log)
        else:
            report = run_sim(args.workload, args.seed, args.seconds, bool(args.trace))
    except SkipWorkload as skip:
        print(f"perfbench: {args.workload} skipped: {skip}", file=sys.stderr)
        return SKIP_EXIT
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        stop_children()

    failures = report["failures"]
    not_crossed = NOT_CROSSED["live" if args.workload.startswith("live") else "sim"]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name in report["metrics"]:
            value = report["metrics"][name]
        elif name.startswith(not_crossed):
            value = 0.0
        else:
            print(f"perfbench: {args.workload} produced no value for {name}", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": metric["unit"]}
    for name, metric in metrics.items():
        print(f"{args.workload:18s} {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    if args.trace:
        for formula in FORMULAS:
            print(f"{args.workload:18s} {formula}")
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    result = {"correct": not failures, "attempted": int(report["attempted"]),
              "failed": int(report["failed"]), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
