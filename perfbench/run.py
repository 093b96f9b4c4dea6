#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload is-ckpt --seed 1 --seconds 20 --trace 0

The OCaml driver (perfbench/perfbench.ml) is built with dune into
$CARGO_TARGET_DIR (default _build), then run once for the given workload.
Its stdout is passed through; the last line is the JSON result.  This
wrapper checks that the result names exactly the metrics BENCHMARK.json
declares for the mode, and exits non-zero when the build fails, the
checkout is incomplete, or the driver reports a failed check.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError as e:
        return fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the root of a full checkout (dune-project and lib/ missing)")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    # no shared dune cache: build only inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", build_dir, "--profile", "release",
             "./perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")
    if build.returncode != 0:
        return fail("build failed")

    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s", 1)
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return fail(f"{args.workload}: a correctness, roundtrip or determinism check failed", 1)

    result = json.loads(lines[-1])
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != declared:
        return fail(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ declared)}", 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
