#!/usr/bin/env python3
"""Build and run the LTC runtime benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` crate (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it, checks that its result line carries
exactly the metrics `BENCHMARK.json` declares for the run's mode, and prints
that line last. Full result records and span files land in `perfbench/out/`.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
# Inputs of the build whose contents identify the code under test.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench"]
SKIP_DIRS = {"out", "target", ".bench_build", "__pycache__"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCE_ROOTS:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files.append(path)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def command_output(argv, **kwargs):
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30, **kwargs)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_commit():
    # Only a checkout that is itself a git work tree has a commit; never let
    # git search the directories above the checkout.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return command_output(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env) or "unknown"


def target_cpu():
    flags = os.environ.get("RUSTFLAGS", "") + " " + os.environ.get("CARGO_ENCODED_RUSTFLAGS", "")
    for token in flags.replace("\x1f", " ").split():
        if token.startswith("target-cpu="):
            return token.split("=", 1)[1]
    return "default"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The result line's problems against the contract; empty when valid."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["the last line is not JSON"]
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["the result must have exactly correct, attempted, failed and metrics"]
    problems = []
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    want = declared_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}"
        )
    for name, metric in got.items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{name} has no numeric value")
        elif name in want and metric.get("unit") != want[name]:
            problems.append(f"{name} has unit {metric.get('unit')}, BENCHMARK.json says {want[name]}")
    return problems


def main():
    args = sys.argv[1:]
    trace = None
    for flag, value in zip(args, args[1:]):
        if flag == "--trace":
            trace = value == "1"
    if trace is None:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    for needed in ("BENCHMARK.json", os.path.join("crates", "core", "Cargo.toml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if built.returncode != 0:
        fail("build failed")

    env.update(
        PERFBENCH_RUSTC=command_output(["rustc", "--version"]) or "unknown",
        PERFBENCH_TARGET_CPU=target_cpu(),
        PERFBENCH_GIT_COMMIT=git_commit(),
        PERFBENCH_SOURCE_DIGEST=source_digest(),
    )
    binary = os.path.join(target_dir, "release", "perfbench")
    argv = [binary] + args + ["--out", os.path.join(HERE, "out")]
    try:
        done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    problems = check_result(lines[-1], trace)
    if problems:
        fail("; ".join(problems) + f" (exit code {done.returncode})", done.returncode or 3)
    # A failed output check still reports its result, then exits non-zero.
    print(lines[-1], flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
