#!/usr/bin/env python3
"""Build and run the TeNDaX keystroke-path benchmark.

    python3 perfbench/run.py --workload <lan_party|corpus_meta> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (its own Cargo
package, path-depending on the engine crates) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload.
The last line of standard output is the result object; the line before
it is the run context. Trace files and scratch data go to
`perfbench/out/`.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lan_party", "corpus_meta")
# What the measured program is built from, for the source digest.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench/Cargo.toml",
           "perfbench/Cargo.lock", "perfbench/src")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=30)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unavailable: not a git checkout"
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        return head.stdout.strip() if head.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable: git not found"


def source_digest():
    h = hashlib.sha256()
    for entry in SOURCES:
        p = ROOT / entry
        files = [p] if p.is_file() else sorted(
            f for f in p.rglob("*") if f.is_file() and "target" not in f.relative_to(p).parts)
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                             timeout=60, cwd=ROOT)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seed >= 2**64:
        return fail("--seed must fit in a u64")

    # The benchmark builds the engine from the repository's sources; a
    # directory holding only the benchmark cannot run it.
    if not (ROOT / "crates").is_dir() or not (ROOT / "Cargo.toml").is_file():
        return fail(f"engine sources not found under {ROOT}; run from a repository checkout")

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr, env=env, cwd=ROOT)
    if build.returncode != 0:
        return fail("build failed")

    env["PERFBENCH_GIT_COMMIT"] = git_commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    env["PERFBENCH_RUSTC"] = rustc_version()
    sys.stdout.flush()
    run = subprocess.run(
        [str(target / "release" / "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--out-dir", str(HERE / "out")],
        env=env, cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
