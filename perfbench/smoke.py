"""Smoke test of the benchmark harness at tiny sizes (a few seconds).

    python3 perfbench/smoke.py

For every workload, shrunk: both trace modes emit every named metric, the
run is correct with no failures or violations, and the fingerprint repeats
across two runs with the same seed.  Also checks that the benchmark refuses
to run, without printing a result, where the program's sources are missing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import shutil
import subprocess
import sys

import run

TINY = {
    "sparse78-lazy": {"rounds": 60, "seeds": 2, "burn_in": 500},
    "churn100-checked": {"nodes": 20, "rounds": 20},
    "cli-contacts": {"duration_s": 10, "contact_files": 2, "seeds_per_file": 2},
}


def measure_quietly(workload, seed: int, trace: bool, workdir) -> tuple:
    """run.measure with stdout captured: (result, fingerprint lines)."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            result = run.measure(workload, seed, 0.0, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    fingerprints = [line for line in buffer.getvalue().splitlines() if line.startswith("fingerprint")]
    return result, fingerprints


def check_workloads(workdir) -> None:
    table = run.workload_table()
    if set(TINY) != set(table):
        raise AssertionError(f"tiny sizes cover {sorted(TINY)}, workloads are {sorted(table)}")
    for name, workload in table.items():
        tiny = dataclasses.replace(workload, **TINY[name])
        seen = []
        for trace, wanted in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result, fingerprints = measure_quietly(tiny, 7, trace, workdir)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise AssertionError(f"{name} trace={trace}: {result}")
            names = {m.name for m in wanted}
            if set(result["metrics"]) != names:
                raise AssertionError(
                    f"{name} trace={trace}: metrics {sorted(result['metrics'])} != {sorted(names)}"
                )
            if trace and result["metrics"]["analysis.violations"]["value"] != 0:
                raise AssertionError(f"{name}: invariant violations")
            seen.append(fingerprints)
        if len(seen[0]) != 1 or seen[0] != seen[1]:
            raise AssertionError(f"{name}: fingerprints do not repeat: {seen}")
        print(f"ok {name}: {seen[0][0].split()[-1][:16]}")


def check_refuses_without_sources(workdir) -> None:
    bare = workdir / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sparse78-lazy", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError(f"ran without sources: {proc.returncode} {proc.stdout!r}")
    print("ok refuses to run without the program's sources")


def main() -> int:
    problem = run.import_program()
    if problem:
        print(f"smoke: {problem}", file=sys.stderr)
        return 2
    workdir = run.ROOT / run.WORK_DIR / f"smoke-{os.getpid()}"
    try:
        check_workloads(workdir)
        check_refuses_without_sources(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
