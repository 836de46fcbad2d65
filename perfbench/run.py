"""Benchmark of the retrainer sweep harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) repeatedly, each
repetition in a fresh worker process, for as many repetitions as fit in S
seconds (at least three; one pair when traced), and prints a readable summary
followed, as the last stdout line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end medians over the
repetitions (``sweep_rel``, ``cpu_rel``, ``peak_rss_mb``, ``setup_s``). With
``--trace 1`` each repetition is a pair of workers, one untraced and one
traced, and the metrics are the per-layer medians over the pairs, with the
tracing overhead. ``attempted`` counts result rows (one per policy, kappa and
seed, plus the oracle's row per kappa); ``failed`` counts rows that raised or
failed the correctness gate, so ``error_rate = failed / attempted``.

``sweep_rel`` and ``cpu_rel`` are the timed part's wall and CPU seconds
divided by the wall seconds of a fixed reference computation (``reference_s``)
that this process runs just before and just after each untraced worker.
``setup_s`` is the worker's set-up time scaled the same way, times ``REF_S``:
the seconds it would take where the reference takes ``REF_S``. A shared
2-vCPU virtual machine can run 20-45 % slower for minutes at a time; the
reference slows with it, so the scaling cancels that drift. The raw
``sweep_s``, ``cpu_s`` and ``setup_wall_s``, too noisy there to bound, are
printed and kept in the run record.

The run's record (environment, every repetition, the last results CSVs and
trace spans) is written under ``perfbench/work/``. Runs of one workload and
trace mode share that directory, so run them one at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

from workloads import WORKLOADS  # noqa: E402  (this file's directory is on sys.path)

END_TO_END = {"sweep_rel": "ratio", "cpu_rel": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
# printed with the end-to-end metrics, not declared: see the module docstring
RAW = {"sweep_s": "s", "cpu_s": "s", "setup_wall_s": "s", "ref_s": "s"}
# about what reference_s takes on the 2.1 GHz Xeon vCPU the benchmark was built on
REF_S = 0.3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_REPS = 3
# Start no repetition that could push the run past this many seconds.
RUN_LIMIT_S = 150.0


class WorkerFailed(RuntimeError):
    pass


_REF_X = np.linspace(0.0, 1.0, 400_000)


def reference_s() -> float:
    """Wall seconds of a fixed mix of interpreted and array work (about 0.3 s
    on a 2.1 GHz Xeon vCPU). It never touches the program, so nothing a change
    to the program does can speed it up or slow it down."""
    t0 = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    for _ in range(30):
        total += float(np.exp(-_REF_X * _REF_X).sum())
    return time.perf_counter() - t0


def _commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(nproc: int, worker_env: dict) -> dict:
    return {
        "commit": _commit(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "threads": {var: worker_env.get(var) for var in THREAD_VARS},
    }


def run_worker(workload: str, seed: int, trace: int, work: Path, env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace), "--work", str(work),
    ]
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _unit(name: str) -> str:
    if any(part.endswith("_s") for part in name.split(".")):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def summarize_plain(reps: list[dict]) -> tuple[dict, list[str]]:
    metrics, lines = {}, []
    for name, unit in {**END_TO_END, **RAW}.items():
        values = [r[name] for r in reps]
        if name in END_TO_END:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        lines.append(
            f"  {name:<12} median {statistics.median(values):.4f} {unit}   max {max(values):.4f} {unit}   (n={len(values)})"
        )
    return metrics, lines


def summarize_traced(pairs: list[tuple[dict, dict]]) -> tuple[dict, list[str]]:
    per_pair = []
    for plain, traced in pairs:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["sweep_s"] - plain["sweep_s"]
        per_pair.append(layers)
    metrics, lines = {}, []
    for name in per_pair[0]:
        value = statistics.median([p[name] for p in per_pair])
        metrics[name] = {"value": value, "unit": _unit(name)}
        lines.append(f"  {name:<34} {value:.6g} {_unit(name)}")
    lines.append(f"  (medians over n={len(pairs)} untraced/traced pairs)")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "retrainer" / "__init__.py").is_file():
        print(f"no retrainer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, str(nproc))
    work = HERE / "work" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S + 20.0
    reps = []
    try:
        while True:
            rep_start = time.perf_counter()
            ref_before = reference_s()
            plain = run_worker(args.workload, args.seed, 0, work, env, deadline)
            plain["ref_s"] = (ref_before + reference_s()) / 2
            plain["sweep_rel"] = plain["sweep_s"] / plain["ref_s"]
            plain["cpu_rel"] = plain["cpu_s"] / plain["ref_s"]
            plain["setup_s"] = plain["setup_wall_s"] * REF_S / plain["ref_s"]
            if args.trace:
                reps.append((plain, run_worker(args.workload, args.seed, 1, work, env, deadline)))
            else:
                reps.append(plain)
            now = time.perf_counter()
            # stop before a repetition as long as the last would overrun the run
            next_end = now + (now - rep_start) - start
            enough = len(reps) >= (1 if args.trace else MIN_REPS)
            if (enough and next_end > args.seconds) or next_end > RUN_LIMIT_S:
                break
    except WorkerFailed as exc:
        print(f"{args.workload} seed={args.seed}: {exc}", file=sys.stderr)
        return 1

    records = [r for rep in reps for r in (rep if args.trace else (rep,))]
    attempted = sum(r["rows_expected"] for r in records)
    failed = sum(r["failed"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    digests = {r["csv_sha256"] for r in records}
    if len(digests) != 1:
        # same inputs must give byte-identical results, traced or not
        failures.append(f"results CSVs differ between repetitions: {sorted(map(str, digests))}")
        failed = attempted
    if args.trace:
        metrics, lines = summarize_traced(reps)
    else:
        metrics, lines = summarize_plain(reps)

    env_record = environment(nproc, env)
    env_record["numpy"] = records[0]["numpy"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (work / "run.json").write_text(
        json.dumps({"args": vars(args), "env": env_record, "reps": reps, "result": result}, indent=1)
    )

    mode = "traced pairs" if args.trace else "repetitions"
    print(f"{args.workload} seed={args.seed}: {len(reps)} {mode}, each worker a fresh process")
    print("\n".join(lines))
    print(f"  {'error_rate':<12} {failed / attempted:.4g}   ({failed} of {attempted} result rows failed)")
    for message in failures[:10]:
        print(f"  FAILED {message}")
    print("env " + json.dumps(env_record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
