#!/usr/bin/env python3
"""Build and run the fuiov benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, into $CARGO_TARGET_DIR or
`.bench_build/`), runs it, and prints two JSON lines: the run record
(host, build and settings) and, last, the result object with exactly the
keys `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when
the build fails, the run fails or times out, or an output check fails.
Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def run_bounded(cmd, timeout, **kw):
    """Runs `cmd` in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    code, _ = run_bounded(cmd, BUILD_TIMEOUT_S, cwd=ROOT, env=env, stdout=sys.stderr)
    if code != 0:
        sys.exit(f"perfbench: build failed (exit {code})")
    return Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        return out.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return None


def source_digest():
    """SHA-256 over the sources the binary is built from: the commit id
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for d in ("crates", "vendor", "perfbench"):
        files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file() and "target" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def codegen():
    flags = os.environ.get("RUSTFLAGS")
    if flags is None:
        cfg = ROOT / ".cargo" / "config.toml"
        flags = cfg.read_text() if cfg.is_file() else ""
    return "native" if re.search(r"target-cpu\s*=\s*native", flags) else "portable"


def host_record(env):
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        commit = first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "rustc": first_line(["rustc", "-V"]),
        "commit": commit,
        "source_sha256": source_digest(),
        "codegen": codegen(),
        "env": {k: env.get(k) for k in ("FUIOV_THREADS", "FUIOV_SIMD", "FUIOV_HISTORY_BUDGET",
                                        "RUSTFLAGS", "MALLOC_ARENA_MAX")},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    env["CARGO_TARGET_DIR"] = str(Path(env["CARGO_TARGET_DIR"]).resolve())
    binary = build(env)

    # One malloc arena per core: the FL server spawns its worker threads
    # afresh every round, and with glibc's default arena count the peak
    # RSS then depends on which arenas those threads happened to get.
    env["MALLOC_ARENA_MAX"] = "2"
    # History spill segments go to the temp dir: keep them in the checkout.
    tmp = Path(env["CARGO_TARGET_DIR"]) / "perfbench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    trace_out = Path(env["CARGO_TARGET_DIR"]) / f"perfbench-trace-{args.workload}-{args.seed}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", str(trace_out)]
    try:
        code, out = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"perfbench: run exited {code} without a result")

    record = result.pop("record")
    record["host"] = host_record(env)
    if args.trace == "1":
        record["trace_file"] = str(trace_out)
    print(json.dumps({"run_record": record}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    sys.exit(code)


if __name__ == "__main__":
    main()
