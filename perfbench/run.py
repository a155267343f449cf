#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>] [--trace <0|1>]

Run it from the root of a checkout. It builds the Go program in this
directory from the checkout's sources (cached under .bench_build/, keyed
by a digest of every Go source), runs it, and relays its output. The last
line printed is the program's JSON result. The exit code is non-zero when
the build fails, the run fails, or the outputs fail the correctness gate.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["borg-replay", "alibaba-fleet", "stream-durable", "http-ingest"]


def sources():
    """Every file the build reads from the checkout."""
    out = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                out.append(os.path.join(dirpath, name))
    return out


def source_digest():
    h = hashlib.sha256()
    for path in sources():
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build(digest):
    """Build the program once per source digest; return the binary's path."""
    binary = os.path.join(BUILD, "bin", "perfbench-" + digest[:16])
    if os.path.exists(binary):
        return binary
    env = dict(os.environ)
    # Everything the toolchain writes stays under .bench_build: its caches,
    # temporary files and telemetry counters (kept in the config dir).
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTMPDIR": os.path.join(BUILD, "gotmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-buildvcs=false",
        "GOWORK": "off",
    })
    for d in ("bin", "gocache", "gomodcache", "gotmp", "config"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    tmp = binary + ".tmp"
    subprocess.run(["go", "build", "-o", tmp, "."], cwd=BENCH, env=env, check=True,
                   stdout=sys.stderr)
    os.replace(tmp, binary)
    return binary


def commit(digest):
    """The checked-out commit when there is a git repository, else the
    source digest."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "source-" + digest[:16]


def run_one(binary, args, workload, rev):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(BUILD, "out"), "--commit", rev]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "go.mod")) and os.path.isdir(os.path.join(ROOT, "internal"))):
        print("perfbench: no waterwise sources beside perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    try:
        digest = source_digest()
        binary = build(digest)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed:", e, file=sys.stderr)
        return 2
    rev = commit(digest)

    if args.workload != "all":
        code, out = run_one(binary, args, args.workload, rev)
        sys.stdout.write(out)
        return code

    # Every workload in turn; the combined result names each metric
    # <workload>/<metric>.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        print("== " + w, flush=True)
        code, out = run_one(binary, args, w, rev)
        lines = out.rstrip("\n").split("\n")
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        worst = max(worst, code)
        try:
            res = json.loads(lines[-1])
        except (ValueError, IndexError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][w + "/" + name] = m
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
