#!/usr/bin/env python3
"""End-to-end MOSAIC benchmark: the command named in BENCHMARK.json.

    python3 mosaicbench/run.py --workload clip_suite --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The first run configures and
builds mosaic_bench (mosaicbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR or .bench_build; later runs only re-check the build.

--trace 0 runs the workload once with span recording off and prints every
end-to-end metric. --trace 1 runs it untraced and then traced, prints
every per-layer metric (self time per layer, work counts) and the tracing
overhead: the traced minus the untraced end-to-end metrics. The spans of
the traced run are written to .bench_out/ when it ends.

The report goes to stdout; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. Any build failure,
mosaic_bench crash or missing metric exits non-zero without printing that line.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("clip_suite", "chip_mixed", "serve_open")
# Traced metrics compare the traced run with the untraced one.
OVERHEAD_OF = ("setup_s", "throughput_per_s", "latency_p50_ms",
               "latency_tail_ms")
BENCH_TIMEOUT_S = 170


def fail(message):
    print("mosaicbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def child_env():
    """Keep compiler and mosaic_bench temporaries inside the checkout."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=child_env()).returncode


def build():
    """Configure once, then build mosaic_bench; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "mosaicbench-build.log")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log) != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("configure failed (is this a MOSAIC source checkout?)")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", out, "-j", jobs, "--target",
                   "mosaic_bench"], log) != 0:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail("build failed; log in " + log)
    return os.path.join(out, "mosaic_bench")


def source_stamp():
    """Git sha when available, and a hash of the sources that were built."""
    sha = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "mosaicbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_sha": sha or "unavailable",
            "source_sha256": digest.hexdigest()[:16]}


def run_bench(binary, args, trace, spans_out=None):
    work = os.path.join(ROOT, ".bench_work",
                        "%s-%d-t%d" % (args.workload, os.getpid(), trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--work-dir", work]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail("mosaic_bench timed out after %d s" % BENCH_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("mosaic_bench exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def metric_block(spec, source, fill_zero=False):
    """Select the BENCHMARK.json metrics from a mosaic_bench result."""
    out = {}
    for m in spec:
        name = m["name"]
        if name in source:
            value = source[name]["value"]
        elif fill_zero:
            value = 0  # the workload bypasses this layer: nothing measured
        else:
            fail("mosaic_bench did not report end-to-end metric " + name)
        if value is None:
            fail("metric %s is not finite" % name)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = build()
    stamp = source_stamp()

    untraced = run_bench(binary, args, 0)
    results = [untraced]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, "spans-%s-seed%d.json" %
                             (args.workload, args.seed))
        traced = run_bench(binary, args, 1, spans)
        results.append(traced)
        layer = dict(traced["layer"])
        for name in OVERHEAD_OF:
            base = untraced["e2e"][name]["value"]
            value = traced["e2e"][name]["value"]
            layer["trace.overhead_pct." + name] = {
                "value": 100.0 * (value - base) / base if base else 0.0,
                "unit": "%"}
        metrics = metric_block(bench["per_layer"], layer, fill_zero=True)
        bypassed = sorted(m["name"] for m in bench["per_layer"]
                          if m["name"] not in layer)
        print("per-layer metrics this workload bypasses (reported as 0): " +
              (", ".join(bypassed) or "none"))
    else:
        metrics = metric_block(bench["end_to_end"], untraced["e2e"])

    final = results[-1]
    final_stamp = dict(final["stamp"], **stamp)
    print("stamp: " + json.dumps(final_stamp, sort_keys=True))
    for name, m in sorted(metrics.items()):
        print("metric %s = %.6g %s" % (name, m["value"], m["unit"]))
    for r in results:
        for what in r["check_failures"]:
            print("CHECK FAILED: " + what)
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": int(final["attempted"]),
        "failed": int(final["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
