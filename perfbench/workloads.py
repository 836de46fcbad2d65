"""The benchmark's workloads: how each builds its sweep from a seed.

Each ``setup`` returns the run config and the ``cost_cache`` dict handed to
``run_sweep``. The cache starts empty, so the sweep is cold; it is what lets
the correctness gate re-price every row afterwards without recomputing a
single staleness entry. ``retrainer`` is imported inside the set-up
functions, so ``run.py`` can read the workload names without importing the
program. Why each workload exists, and which planned change
should move it, is written down in README.md next to this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0

ALL_POLICIES = [
    {"name": "threshold", "params": "optimize"},
    {"name": "cumulative", "params": "optimize"},
    {"name": "periodic", "params": "optimize"},
    {"name": "never"},
    {"name": "markov"},
    {"name": "adwin", "params": {"delta": 0.002}},
    {"name": "ddm", "params": {"min_samples": 30}},
]


def _covcon_sweep(seed: int, work: Path):
    from retrainer import RunConfig

    raw = {
        "stream": {
            "dataset": "covcon",
            "n_batches": 30,
            "batch_size": 1000,
            "queries_per_batch": 100,
            "query_mode": "D",
            "seed": 0,
        },
        "t_offline": 7,
        "t_online": 29,
        "kappas": [1, 5, 20, 46, 100],
        "policies": ALL_POLICIES,
        "model": {"kind": "forest", "n_trees": 25, "max_depth": 8},
        "seeds": [seed],
    }
    path = work / "config.json"
    path.write_text(json.dumps(raw, indent=2))
    return RunConfig.load(path), {}


def _csv_long_logistic(seed: int, work: Path):
    from retrainer import RunConfig, StreamSpec, generate_stream, save_stream_csv

    n_batches = 240
    spec = StreamSpec(dataset="covcon", n_batches=n_batches, batch_size=200, queries_per_batch=1, seed=seed)
    data, _ = generate_stream(spec)
    path = work / "stream.csv"
    save_stream_csv(path, data, [])  # plain data rows: the loader re-batches and samples queries
    raw = {
        "stream": {"dataset": "csv", "path": str(path), "n_batches": n_batches},
        "t_offline": 79,
        "t_online": 239,
        "kappas": [1, 5, 20],
        "policies": ALL_POLICIES[:5],
        "model": {"kind": "logistic"},
        "seeds": [seed],
    }
    return RunConfig.from_dict(raw), {}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], tuple]
    # sha256 of the results CSV at DEFAULT_SEED, as the code at commit 7660ed7 writes it
    pinned_sha256: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("covcon-sweep", _covcon_sweep, "b8a599fe85f625379dabfac56905a38114aa00ec535a4f0e2d18fb59b96a74f3"),
        Workload("csv-long-logistic", _csv_long_logistic, "6d85e2bd1b3fb9cb2d387d13f0f4f5bd2f6b96d11fdb2248a9fb60f5b9cef287"),
    )
}
