#!/usr/bin/env python3
"""Absolute benchmark gate at tiny scale.

Builds perfbench exactly as ``perfbench/run.py`` does (release, offline, into
``$CARGO_TARGET_DIR``, default ``.bench_build``), then runs every workload
listed in ``BENCHMARK.json`` twice, each time in its own process, with
``--scale tiny --seed 7 --seconds 1 --trace 0``.

The compared metrics are the end-to-end metrics of ``BENCHMARK.json`` except
the host-dependent ones (``setup_s``, ``host_ms_per_sim_s``, ``peak_rss_mb``).
They are sim-time latencies and message and byte counts, which repeat exactly
for a seed, so any difference is a real change.  The gate fails (exit code 1)
when:

- a run reports ``correct: false`` or ``failed > 0``;
- the two processes disagree on any compared metric;
- any compared metric differs from the committed baseline
  ``scripts/perfbench_tiny.json``, better or worse.

Usage:
    python3 scripts/check_perfbench.py [--update]

``--update`` rewrites the baseline from the fresh runs instead of checking;
it refuses runs that failed or disagreed.  Run it after an intentional change
to a compared metric and commit the result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "scripts" / "perfbench_tiny.json"
RUN_ARGS = ["--scale", "tiny", "--seed", "7", "--seconds", "1", "--trace", "0"]
HOST_METRICS = {"setup_s", "host_ms_per_sim_s", "peak_rss_mb"}
RUN_TIMEOUT_S = 170


def build(env: dict) -> Path:
    """Build perfbench the way perfbench/run.py does; return the binary."""
    target = Path(env["CARGO_TARGET_DIR"])
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
        stdout=sys.stderr, env=env, check=True,
    )
    return target / "release" / "perfbench"


def run(binary: Path, workload: str, env: dict) -> dict:
    """One perfbench process; its last stdout line is the JSON result."""
    out = subprocess.run(
        [str(binary), "--workload", workload, *RUN_ARGS],
        capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(f"check_perfbench: {workload} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from fresh runs instead of checking")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] if m["name"] not in HOST_METRICS]
    workloads = [w["name"] for w in spec["workloads"]]

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    binary = build(env)

    problems: list[str] = []
    fresh: dict[str, dict[str, float]] = {}
    for w in workloads:
        first, second = run(binary, w, env), run(binary, w, env)
        for i, r in enumerate((first, second), 1):
            if r.get("correct") is not True or r.get("failed", 1) > 0:
                problems.append(f"{w} run {i}: correct={r.get('correct')} "
                                f"failed={r.get('failed')}")
        metrics = {}
        for name in names:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{w}.{name}: the two processes disagree ({a} vs {b})")
            metrics[name] = a
        fresh[w] = metrics

    if args.update:
        if problems:
            print("check_perfbench: refusing to record a broken run as the baseline:")
            for p in problems:
                print(f"  - {p}")
            return 1
        BASELINE.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        print(f"check_perfbench: wrote {BASELINE}")
        return 0

    baseline = json.loads(BASELINE.read_text())
    for w in workloads:
        for name in names:
            value, ref = fresh[w][name], baseline.get(w, {}).get(name)
            if value != ref:
                problems.append(f"{w}.{name}: {value} differs from the baseline {ref}; "
                                f"if the change is intended, refresh it with --update")
            print(f"  {w:18} {name:20} {value:>14.6g}  baseline {ref}")

    if problems:
        print("check_perfbench: FAILED")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(f"check_perfbench: OK ({len(workloads)} workloads x 2 processes, "
          f"{len(names)} metrics each)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
