#!/usr/bin/env python3
"""Builds and runs the deepsurf benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload surface --seed 1 --seconds 20 --trace 0

The first run configures and builds the library and the perfbench binary
(Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that is unset; later runs rebuild only what changed. Build output goes to
standard error. The binary's output follows on standard output, its last
line the JSON result; the exit code is the binary's (0 = every check
passed, 1 = a check failed, with the result line, or the inputs differ
from their recorded fingerprint, without one; 2 = usage, build or set-up
error; 3 = the result does not carry the metrics BENCHMARK.json
declares).

The inputs of every (workload, seed, seconds) listed in fingerprints.tsv
must match their recorded fingerprint. To record them anew, after a
deliberate change to the generators:

    python3 perfbench/run.py --record-fingerprints --seeds 0-31 --seconds 20
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.tsv")
WORKLOADS = ["surface", "serve_longtail", "serve_churn"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configures (once) and builds the binary; returns its path or None."""
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            return None
    return os.path.join(bdir, "perfbench")


def load_fingerprints():
    table = {}
    if os.path.exists(FINGERPRINTS):
        with open(FINGERPRINTS) as f:
            for line in f:
                if line.startswith("#") or not line.strip():
                    continue
                workload, seed, seconds, recorded = line.rstrip("\n").split("\t")
                table[(workload, int(seed), float(seconds))] = recorded
    return table


def record(binary, seeds, seconds):
    table = load_fingerprints()
    for workload in WORKLOADS:
        for seed in seeds:
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0",
                 "--fingerprint-only"],
                stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
            lines = [l for l in out.stdout.splitlines()
                     if l.startswith("fingerprint: ") and "forms=" in l]
            if out.returncode != 0 or len(lines) != 1:
                sys.stderr.write(out.stdout)
                return 2
            fields = lines[0].split()
            table[(workload, seed, float(seconds))] = " ".join(fields[4:])
    with open(FINGERPRINTS, "w") as f:
        f.write("# workload\tseed\tseconds\tfingerprint "
                "(python3 perfbench/run.py --record-fingerprints)\n")
        for (workload, seed, secs), line in sorted(table.items()):
            f.write(f"{workload}\t{seed}\t{secs:g}\t{line}\n")
    print(f"recorded {len(seeds) * len(WORKLOADS)} fingerprints "
          f"in {FINGERPRINTS}")
    return 0


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record-fingerprints", action="store_true",
                   help="record the fingerprints of --seeds for every "
                        "workload at --seconds")
    p.add_argument("--seeds", default="0-31")
    args = p.parse_args()
    if not args.record_fingerprints and args.workload is None:
        p.error("--workload is required")

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        sys.stderr.write("run.py: build failed\n")
        return 2
    if args.record_fingerprints:
        return record(binary, parse_seeds(args.seeds), args.seconds)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
    expected = load_fingerprints().get(
        (args.workload, args.seed, float(args.seconds)))
    if expected is not None:
        cmd += ["--expect-fingerprint", expected]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: no result within {RUN_TIMEOUT_S} s\n")
        return 2
    sys.stdout.write(out.stdout)
    sys.stdout.flush()
    if out.returncode not in (0, 1):
        return out.returncode

    declared = declared_metrics(args.trace)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return out.returncode or 2  # no result line (fingerprint mismatch)
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if declared is not None and got != declared:
        sys.stderr.write("run.py: reported metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(declared) - set(got))}, "
                         f"extra {sorted(set(got) - set(declared))}, "
                         "or their units\n")
        return 3
    return out.returncode


if __name__ == "__main__":
    sys.exit(main())
