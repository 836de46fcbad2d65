"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --work DIR

Set-up (imports, generating and writing inputs) is timed from the first statement.
The timed part is ``run_sweep`` plus writing its results CSV. The correctness
gate runs after it, untimed. The last stdout line is a JSON record of the
repetition. Run by ``run.py``; not meant to be run by hand except to debug.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import retrainer  # noqa: E402
from retrainer import (  # noqa: E402
    Strategy,
    make_policy,
    optimize_offline,
    replay_policy,
    results_from_csv,
    run_sweep,
    strategy_cost,
    validate_strategy,
)
from retrainer import harness  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

DETECTORS = ("adwin", "ddm")


def _capture_calibrations(captured: dict):
    """Keep each policy ``optimize_offline`` returns, keyed by (family, kappa),
    so the gate can replay it; the calibration itself is untouched."""
    original = getattr(harness, "optimize_offline", None)
    if original is None:
        return

    def capture(family, c):
        policy = original(family, c)
        captured[(family, float(c.kappa[0]))] = policy
        return policy

    harness.optimize_offline = capture


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_rows(cfg, rows, costs, captured) -> list[str]:
    """One message per failed row: reachability, re-pricing, oracle bound and
    (non-detector policies) replay on the online matrix."""
    on_start, on_end = cfg.t_offline + 1, cfg.t_online
    specs = {spec.name: spec for spec in cfg.policies}
    online = {}
    failures = []
    for row in rows:
        where = f"{row['policy']} kappa={row['kappa']}"
        kappa = row["kappa"]
        if kappa not in online:
            online[kappa] = costs.cost_matrix(on_start, on_end, kappa)
        c = online[kappa]
        served = np.array([int(s) for s in row["strategy"].split("|")], dtype=np.int64)
        strategy = Strategy(on_start, on_end, served)
        problem = validate_strategy(strategy)
        if problem is None and not _close(strategy_cost(strategy, c), row["strategy_cost"]):
            problem = f"strategy re-prices to {strategy_cost(strategy, c)!r}, reported {row['strategy_cost']!r}"
        if problem is None and row["oracle_cost"] > row["strategy_cost"] and not _close(
            row["oracle_cost"], row["strategy_cost"]
        ):
            problem = f"oracle cost {row['oracle_cost']!r} exceeds policy cost {row['strategy_cost']!r}"
        name = row["policy"]
        if problem is None and name not in DETECTORS and name != "oracle":
            spec = specs[name]
            if not spec.optimize:
                policy = make_policy(name, **spec.params)
            elif (name, kappa) in captured:
                policy = captured[(name, kappa)]
            else:  # calibration is deterministic: redo it if the sweep bypassed the capture
                policy = optimize_offline(name, costs.cost_matrix(0, cfg.t_offline, kappa))
            replayed = replay_policy(policy, c)
            if not np.array_equal(replayed.served_by, served):
                problem = f"replay gives {replayed}, online loop gave {row['strategy']}"
        if problem is not None:
            failures.append(f"{where}: {problem}")
    return failures


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(retrainer.__file__).resolve().parents:
        print(f"retrainer was imported from {retrainer.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    cfg, cost_cache = workload.setup(args.seed, work)
    results_csv = work / f"results-trace{args.trace}.csv"
    expected_rows = len(cfg.kappas) * (1 + len(cfg.policies))
    captured: dict = {}
    _capture_calibrations(captured)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    setup_s = t0 - T_START
    error = None
    try:
        results = run_sweep(cfg, cost_cache=cost_cache)
        harness.results_to_csv(results, results_csv)
    except Exception as exc:  # a failed sweep is reported as failed rows, not a crash
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    sweep_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    peak_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    if tracer is not None:
        tracer.uninstall()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_wall_s": setup_s,
        "sweep_s": sweep_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "rows_expected": expected_rows,
        "numpy": np.__version__,
    }
    if error is not None:
        record.update(rows=0, failed=expected_rows, failures=[error], csv_sha256=None)
    else:
        rows = results_from_csv(results_csv)
        (seed,) = cfg.seeds
        failures = check_rows(cfg, rows, cost_cache[seed][2], captured)
        failed = len(failures) + max(0, expected_rows - len(rows))
        if len(rows) != expected_rows:
            failures.append(f"{len(rows)} result rows, expected {expected_rows}")
        digest = hashlib.sha256(results_csv.read_bytes()).hexdigest()
        if args.seed == DEFAULT_SEED and digest != workload.pinned_sha256:
            # the pin covers the whole file, so no row can be trusted
            failures.append(f"results sha256 {digest} differs from the pinned {workload.pinned_sha256}")
            failed = expected_rows
        record.update(rows=len(rows), failed=min(failed, expected_rows), failures=failures[:10], csv_sha256=digest)
    if tracer is not None:
        tracer.write(work / "spans.csv")
        record["layers"] = tracer.metrics(sweep_s)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
