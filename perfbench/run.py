#!/usr/bin/env python3
"""Builds the dCat benchmark from source and runs one workload.

    python3 perfbench/run.py --workload line-mix --seed 1 --seconds 25 --trace 0

Prints every metric by name with its unit, a `meta` line (nproc, compiler,
build type, commit, seed) and, as the last line, the JSON result
{"correct", "attempted", "failed", "metrics"}. Exits non-zero when the build
fails, the program is missing, or any correctness gate fails.

    python3 perfbench/run.py --self-test        # the benchmark's own tests
    python3 perfbench/run.py --pin SEED ...     # print digest pin lines

The build tree is $CARGO_TARGET_DIR (default .bench_build) under the
checkout root.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("line-mix", "ctl-replay", "churn-fleet")
# The seed claims are developed on. Held-out seeds are run only to confirm
# a claim, never while tuning a change.
DEFAULT_SEED = 1
HELD_OUT_SEEDS = (101, 202, 303)
PINS = BENCH_DIR / "pinned_digests.txt"
# Leaves headroom under the three-minute limit on one run.
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def checkout_env():
    """The environment for every child: temporary files stay in the build
    tree, inside the checkout."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=checkout_env()).returncode != 0:
                log.close()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed (full log: {log_path})", 1)
    return out / target


def cmake_cache(out):
    values = {}
    try:
        for line in (out / "CMakeCache.txt").read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.partition("=")
                values[key.split(":")[0]] = value
    except OSError:
        pass
    return values


def compiler_version(compiler):
    try:
        first = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                               timeout=10).stdout.splitlines()
        return first[0] if first else compiler
    except (OSError, subprocess.SubprocessError):
        return compiler


def commit():
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if result.returncode == 0:
            return result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the program and benchmark sources, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(out, args):
    cache = cmake_cache(out)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seeds": list(HELD_OUT_SEEDS),
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "compiler": compiler_version(cache.get("CMAKE_CXX_COMPILER", "c++")),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "commit": commit(),
        "source_digest": source_digest(),
    }


def run(args):
    binary = build("dcat_perfbench")
    out = build_dir()
    command = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}", f"--pins={PINS}"]
    if args.trace == 1:
        spans = out / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        command.append(f"--spans={spans}")
    try:
        result = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                                env=checkout_env())
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(result.stderr)
    lines = result.stdout.rstrip("\n").splitlines()
    try:
        outcome = json.loads(lines[-1])
        if set(outcome) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except (IndexError, ValueError) as error:
        print(result.stdout)
        die(f"no result line from the benchmark ({error}); exit code {result.returncode}", 1)
    meta = metadata(out, args)
    results = out / "results"
    results.mkdir(exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": outcome}, indent=1) + "\n")
    print("\n".join(lines[:-1]))
    print("meta " + json.dumps(meta, sort_keys=True))
    print(lines[-1])
    sys.exit(result.returncode if result.returncode != 0 or outcome["correct"] else 1)


def self_test():
    binary = build("perfbench_test")
    sys.exit(subprocess.run([str(binary)], env=checkout_env()).returncode)


def pin(seeds):
    binary = build("dcat_perfbench")
    for workload in WORKLOADS:
        for seed in seeds:
            result = subprocess.run([str(binary), f"--workload={workload}", f"--seed={seed}",
                                     "--seconds=1", "--trace=0", "--digest-only"],
                                    capture_output=True, text=True, env=checkout_env())
            digest = [l.split()[1] for l in result.stdout.splitlines() if l.startswith("digest ")]
            if result.returncode != 0 or not digest:
                print(result.stdout, result.stderr, file=sys.stderr)
                die(f"cannot pin {workload} seed {seed}", 1)
            print(f"{workload} {seed} {digest[0]}", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--pin", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if args.pin:
        pin(args.pin)
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in 1..3600")
    run(args)


if __name__ == "__main__":
    main()
