#!/usr/bin/env python3
"""The REDS benchmark: one workload run, printed as metrics.

    python3 redsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. Builds the `redsbench` workload
binary (this directory's Cargo package) and the `reds_serve` binary from
source, runs the workload, checks every output against an in-process
reference, and prints one line per metric followed, as the last line of
standard output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
measured through the public entry points only; with `--trace 1` they
are the per-layer ones, from timing wrappers around the public traits
of each layer. Build output and scratch files go to $CARGO_TARGET_DIR
(default `.bench_build`).
"""

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workload parameters. `cases` datasets are drawn from the seed and
# each timed round runs every one of them, so a run's median does not
# hang on a single simulated design.
WORKLOADS = {
    "inmem-forest-prim": {"kind": "pipeline", "l": 100_000, "cases": 4, "cache_mib": 0},
    "ooc-gbdt-prim": {"kind": "pipeline", "l": 250_000, "cases": 3, "cache_mib": 8},
    # Open loop: predict_batch of 256 rows on one connection, two to the
    # forest for one to the SVM, and one BestInterval discover
    # (L = 10^4) in every 50 requests on the other. The closed-loop
    # capacity of this mix (`redsbench loadgen --closed 1`) is ~390
    # requests/s on a 2-core AVX2+FMA Xeon, but swings by a third with
    # the load of other guests on a shared host; at half of it, a slow
    # spell pushes the server into queueing and the median predict
    # latency doubles, so the rate stays near a third.
    "serve-mixed": {"kind": "serve", "rate": 120, "every": 50},
}

# What the paper's section 7 bound O(M (N log N + L log L + L/alpha))
# predicts for the log-log slope of each stage in L (N, M fixed).
PAPER_SLOPES = {
    "slope.fit": "0 (N log N: fit does not see L)",
    "slope.label": "1 (labeling is linear in L)",
    "slope.sort": "~1.1 (L log L: presort or spill/merge)",
    "slope.search": "1 (L/alpha: peeling)",
    "slope.discover": "between 1 and 1.1",
}

SETUP_REPEATS = 3
SERVE_SETUP_REPEATS = 9
CHILD_TIMEOUT = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the workload binary and the server; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        raise BenchError("the REDS sources are missing: run from the root of a checkout")
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (
        (os.path.join(HERE, "Cargo.toml"), []),
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "reds-serve", "--bin", "reds_serve"]),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    return os.path.join(release, "redsbench"), os.path.join(release, "reds_serve")


def child_env():
    env = dict(os.environ)
    env["REDS_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def run_json(cmd, env):
    """Runs a subcommand of the workload binary; returns its last stdout line as JSON."""
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if done.returncode != 0:
        raise BenchError("%s failed:\n%s" % (" ".join(cmd[:2]), done.stderr.strip()))
    return json.loads(done.stdout.strip().splitlines()[-1])


def p50(summary):
    return summary["p50"] if summary else None


def machine_facts(bench_bin, env):
    facts = run_json([bench_bin, "machine"], env)
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    facts["rustc"] = rustc.stdout.strip()
    return facts


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    return fields[7], sum(fields)


def pipeline_run(bench_bin, name, wl, seed, seconds, trace, scratch, env):
    common = ["--workload", name, "--seed", str(seed), "--cases", str(wl["cases"]), "--l", str(wl["l"])]
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        run_json([bench_bin, "setup", "--seed", str(seed), "--cases", str(wl["cases"])], env)
        setup.append(time.perf_counter() - t0)
    cmd = [bench_bin, "pipeline"] + common + [
        "--cache-mib", str(wl["cache_mib"]),
        "--seconds", str(seconds),
        "--scratch", scratch,
        "--trace", "1" if trace else "0",
    ]
    if wl["cache_mib"]:
        # The in-memory reference of the out-of-core workload runs in
        # its own process, so its memory stays out of the measured one.
        ref = run_json([bench_bin, "reference"] + common, env)
        cmd += ["--expect", ",".join(ref["digests"])]
    res = run_json(cmd, env)
    out = {"attempted": res["attempted"], "failed": res["failed"], "errors": res["errors"]}
    if trace:
        out["layers"] = res["layers"]
    else:
        out["metrics"] = {
            "setup_s": statistics.median(setup),
            "discover_s": p50(res["discover_s"]),
            "peak_rss_mib": res["peak_rss_mib"],
            "predict_p50_ms": p50(res["predict_ms"]),
        }
        out["detail"] = {"discover_s": res["discover_s"], "predict_ms": res["predict_ms"]}
    return out


def vm_hwm_mib(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def request(addr, line, timeout=60.0):
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=timeout) as s:
        s.sendall(line.encode() + b"\n")
        data = b""
        while not data.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    return json.loads(data.decode())


class Server:
    """A reds_serve process serving the forest (default) and the SVM."""

    def __init__(self, serve_bin, art_dir, env):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                serve_bin,
                "--model", os.path.join(art_dir, "forest.redsart"),
                "--load", "svm=" + os.path.join(art_dir, "svm.redsart"),
                "--addr", "127.0.0.1:0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening on "):
                raise BenchError("reds_serve did not start: %r" % line)
            self.addr = line.split()[-1]
            reply = request(self.addr, '{"id":1,"cmd":"info"}')
            if reply.get("ok") is not True:
                raise BenchError("reds_serve info failed: %r" % reply)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - t0

    def stop(self):
        if self.proc.poll() is None:
            try:
                request(self.addr, '{"id":2,"cmd":"shutdown"}', timeout=10.0)
            except (OSError, ValueError, AttributeError):
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def serve_run(bench_bin, serve_bin, wl, seed, seconds, trace, scratch, env):
    art_dir = os.path.join(scratch, "artifacts")
    run_json([bench_bin, "prep-serve", "--seed", str(seed), "--dir", art_dir], env)
    setup = []
    for _ in range(SERVE_SETUP_REPEATS - 1):
        server = Server(serve_bin, art_dir, env)
        setup.append(server.ready_s)
        server.stop()
    server = Server(serve_bin, art_dir, env)
    setup.append(server.ready_s)
    try:
        res = run_json(
            [
                bench_bin, "loadgen",
                "--addr", server.addr,
                "--dir", art_dir,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--rate", str(wl["rate"]),
                "--every", str(wl["every"]),
                "--trace", "1" if trace else "0",
            ],
            env,
        )
        peak = vm_hwm_mib(server.proc.pid)
    finally:
        server.stop()
    out = {"attempted": res["attempted"], "failed": res["failed"], "errors": res["errors"]}
    if trace:
        layers = dict(res["layers"])
        late = res["late_ms"] or {}
        layers["loadgen.late_p99_ms"] = late.get("p99") if late.get("p99") is not None else late.get("tail", 0.0)
        layers["loadgen.sent"] = res["sent"]
        layers["serve.too_busy"] = res["too_busy"]
        layers["serve.errors"] = res["error_replies"]
        layers["serve.predict_p99_ms"] = (res["predict_ms"] or {}).get("p99")
        out["layers"] = layers
    else:
        out["metrics"] = {
            "setup_s": statistics.median(setup),
            "discover_s": p50(res["discover_ms"]) / 1e3 if res["discover_ms"] else None,
            "peak_rss_mib": peak,
            "predict_p50_ms": p50(res["predict_ms"]),
        }
        out["detail"] = {
            "discover_ms": res["discover_ms"],
            "predict_ms": res["predict_ms"],
            "late_ms": res["late_ms"],
            "offered_rps": res["offered_rps"],
            "achieved_rps": res["achieved_rps"],
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        bench_bin, serve_bin = build()
        env = child_env()
        wl = WORKLOADS[args.workload]
        scratch = os.path.join(target_dir(), "redsbench-scratch", "%s-%d" % (args.workload, os.getpid()))
        os.makedirs(scratch, exist_ok=True)
        try:
            facts = machine_facts(bench_bin, env)
            steal0, total0 = cpu_ticks()
            if wl["kind"] == "pipeline":
                out = pipeline_run(bench_bin, args.workload, wl, args.seed, args.seconds, args.trace, scratch, env)
            else:
                out = serve_run(bench_bin, serve_bin, wl, args.seed, args.seconds, args.trace, scratch, env)
            # Time the hypervisor gave to other guests: timings of runs
            # with a high share are not comparable with quiet ones.
            steal1, total1 = cpu_ticks()
            facts["cpu_steal_pct"] = 100.0 * (steal1 - steal0) / max(total1 - total0, 1)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log("redsbench: %s" % e)
        sys.exit(1)

    print("# machine: " + json.dumps(facts, sort_keys=True))
    print("# workload: %s, seed %d, %s s, trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    for err in out["errors"]:
        print("# failure: " + err)
    names = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    source = out["layers"] if args.trace else out["metrics"]
    metrics = {}
    for name, unit in names:
        value = source.get(name)
        if value is None:
            if args.trace:
                value = 0.0  # the layer is idle on this workload
            else:
                log("redsbench: metric %s was not measured" % name)
                sys.exit(1)
        metrics[name] = {"value": value, "unit": unit}
        note = "   [paper: %s]" % PAPER_SLOPES[name] if name in PAPER_SLOPES else ""
        print("%-32s %16.6f %s%s" % (name, value, unit, note))
    # The error rate is reported through "attempted" and "failed", not as
    # a metric: it is 0 on a healthy build, and metrics must never be 0.
    print("%-32s %16.6f ratio   [%d failed of %d attempted]" % (
        "error_rate", out["failed"] / max(out["attempted"], 1), out["failed"], out["attempted"]))
    if not args.trace:
        print("# samples: " + json.dumps(out["detail"], sort_keys=True))
    result = {
        "correct": out["failed"] == 0 and out["attempted"] > 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
