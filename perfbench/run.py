#!/usr/bin/env python3
"""Wall-clock benchmark of ParSecureML-rs: secure training and serving.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --suite [--seconds <s>]

The first form builds the benchmark binary (``perfbench/Cargo.toml``, into
``$CARGO_TARGET_DIR``, default ``.bench_build``), runs one workload and
prints a human-readable report followed by one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; ``setup_s`` is the median over
``SETUP_REPEATS`` fresh set-up-only processes plus the measured run. With
``--trace 1`` they are the per-layer ones.

``--suite`` runs every workload, untraced and traced, under the default
seed and under the held-out second seed, and prints one table per seed.
See ``perfbench/README.md`` for the workloads and every metric.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ["train-cnn-mnist", "train-mlp-fresh", "serve-mixed"]
DEFAULT_SEED = 1
SECOND_SEED = 7
SETUP_REPEATS = 6
# Every run must finish within this many seconds (the build excluded).
RUN_LIMIT_S = 170

# Gated end-to-end metric -> (better, info key holding its sample count).
END_TO_END = {
    "setup_s": ("lower", None),
    "throughput_per_s": ("higher", "throughput_samples"),
    "latency_ms_p50": ("lower", "latency_samples"),
    "latency_ms_p75": ("lower", "latency_samples"),
    "peak_rss_mb": ("lower", None),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    if proc.returncode != 0:
        fail("build failed")
    return target / "release" / "psml-perfbench"


def invoke(binary, args, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time")
    scratch = ROOT / ".perfbench_scratch"
    try:
        proc = subprocess.run([str(binary), *args, "--scratch", str(scratch)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} timed out")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(args)} printed nothing (exit {proc.returncode})")
    return json.loads(lines[-1])


def git_commit():
    """Commit of the checkout, read from its git directory: a loose or
    packed ref, in a clone or a worktree. "unknown" outside git."""
    git = ROOT / ".git"
    try:
        if git.is_file():  # a worktree: ".git" names the real directory
            git = (ROOT / git.read_text().strip().removeprefix("gitdir: ")).resolve()
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        common = git / "commondir"  # a worktree's branches live in the main repo
        if common.is_file():
            git = (git / common.read_text().strip()).resolve()
            if (git / ref).is_file():
                return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def run_one(binary, workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            probe = invoke(binary, [*common, "--trace", "0", "--setup-only"], deadline)
            if not probe["correct"]:
                return probe, setups
            setups.append(probe["metrics"]["setup_s"]["value"])
    res = invoke(binary, [*common, "--trace", "1" if trace else "0"], deadline)
    if res["correct"] and not trace:
        setups.append(res["metrics"]["setup_s"]["value"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return res, setups


def report(workload, seed, res, setups, trace):
    """Prints the run in readable form: every metric by name with its unit,
    direction and sample count, then the remaining run facts."""
    info = res.get("info", {})
    info["git_commit"] = git_commit()
    print(f"# {workload} seed={seed} trace={int(trace)} correct={res['correct']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    print("# env " + json.dumps({k: info.get(k) for k in
                                 ("nproc", "host_caps", "host_workers", "git_commit")}))
    rows = []
    for name, m in res["metrics"].items():
        better, key = END_TO_END.get(name, (None, None))
        samples = len(setups) if name == "setup_s" else info.get(key) if key else None
        rows.append((name, m["value"], m["unit"], better, samples))
    printed = set(res["metrics"])
    rows += [(st["name"], st["value"], st["unit"], st["better"], st["samples"])
             for st in info.get("stats", []) if st["name"] not in printed]
    for name, value, unit, better, samples in rows:
        extra = f"  better={better}" if better else ""
        extra += f"  samples={samples}" if samples is not None else ""
        print(f"{name:34s} {value:>16.6g} {unit}{extra}")
    rest = {k: v for k, v in info.items() if k not in ("host_caps", "stats")}
    print("# info " + json.dumps(rest))


def suite(binary, seconds):
    ok = True
    for seed in (DEFAULT_SEED, SECOND_SEED):
        for workload in WORKLOADS:
            for trace in (False, True):
                res, setups = run_one(binary, workload, seed, seconds, trace)
                report(workload, seed, res, setups, trace)
                ok &= bool(res["correct"])
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite", action="store_true")
    args = ap.parse_args()
    if not args.suite and args.workload is None:
        fail("--workload or --suite is required")
    binary = build()
    if args.suite:
        sys.exit(0 if suite(binary, args.seconds) else 1)
    res, setups = run_one(binary, args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, res, setups, bool(args.trace))
    line = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    sys.exit(0 if res["correct"] else 1)


if __name__ == "__main__":
    main()
