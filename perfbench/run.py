#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Two release builds of the `perfbench`
package are kept side by side under the cargo target directory
(`$CARGO_TARGET_DIR`, else `.bench_build`): a plain one for the untraced
run and one with `--features telemetry` for the traced run. Both are
brought up to date on every call, so the first call builds both and later
calls only check them. Build output goes to standard error; the benchmark's
own output, whose last line is the JSON result, goes to standard output.
The exit code is the benchmark's, or cargo's when a build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
VARIANTS = {0: ("plain", []), 1: ("traced", ["--features", "telemetry"])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=sorted(VARIANTS))
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binaries = {}
    for trace, (name, features) in VARIANTS.items():
        target_dir = os.path.join(target, "perfbench-" + name)
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
             "--manifest-path", MANIFEST, "--target-dir", target_dir] + features,
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            print(f"run.py: building the {name} benchmark failed", file=sys.stderr)
            return build.returncode or 1
        binaries[trace] = os.path.join(target_dir, "release", "perfbench")

    sys.stdout.flush()
    bench = subprocess.run([
        binaries[args.trace],
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(target, "perfbench-traces"),
    ])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
