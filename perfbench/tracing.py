"""In-process span tracing around the public callables of each retrainer module.

The harness imports functions by name (``from .policies import run_policy``),
so each callable is wrapped in the namespace where it is looked up, not where
it is defined. A wrapper records one span per call: name, start, end, the
index of the enclosing span, and optionally a count and a tag derived from the
call's arguments or result. Nothing reads the program's private attributes.

Per-bit detector updates (``AdwinDetector.update``) are deliberately not
wrapped: they run hundreds of thousands of times per sweep, and wrapping them
would distort the very loop being measured. ``DriftDetectorPolicy.decide`` is
wrapped instead, once per batch.
"""

from __future__ import annotations

import csv
import functools
import time

LAYERS = ("models", "staleness", "costmatrix", "oracle", "policies", "detectors", "harness", "datagen")

# Span names whose presence under a cache-backed call means the call computed.
_MISS_CHILDREN = {"BaseClassifier.predict", "costmatrix.rbf_weights"}
_CACHED_CALLS = {"StreamCosts.errors", "StreamCosts.query_weight"}


class Tracer:
    """Records spans in memory while installed; ``uninstall`` restores the
    original callables."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, count, tag]
        self.layer_of: dict[str, str] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, layer: str, count=None, tag=None) -> None:
        """Wrap ``owner.attr``; a callable the code no longer has is skipped,
        so its metrics read 0 and its time shows as unattributed."""
        original = owner.__dict__.get(attr)
        if original is None:
            return
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            if tag is not None:
                span[5] = tag(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self.layer_of[name] = layer
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        from retrainer import costmatrix, harness, models, oracle, policies

        w = self.wrap
        w(harness, "run_policy", "policies", count=lambda a, k, r: r.end - r.start + 1)
        w(harness, "optimize_offline", "policies", tag=lambda a, k, r: a[0])
        w(harness, "oracle_strategy", "oracle")
        w(harness, "evaluate_prequential", "harness")
        w(harness, "load_csv_stream", "harness", count=lambda a, k, r: sum(b.size for b in r[0]))
        w(harness, "generate_stream", "datagen", count=lambda a, k, r: sum(b.size for b in r[0] + r[1]))
        w(harness, "strategy_cost", "costmatrix")
        w(harness, "results_to_csv", "harness", count=lambda a, k, r: len(a[0]))
        w(policies, "replay_policy", "policies", count=lambda a, k, r: a[1].n)
        w(policies, "strategy_cost", "costmatrix")
        w(oracle, "memoize_dp", "oracle", count=lambda a, k, r: a[0].n)
        w(costmatrix, "fit_model", "models", count=lambda a, k, r: len(a[0].X))
        w(costmatrix, "rbf_weights", "staleness", count=lambda a, k, r: len(a[0]) * len(a[1]))
        w(costmatrix.StreamCosts, "errors", "costmatrix")
        w(costmatrix.StreamCosts, "query_weight", "costmatrix")
        w(costmatrix.StreamCosts, "query_predictions", "costmatrix")
        w(costmatrix.StreamCosts, "staleness_matrix", "costmatrix", count=lambda a, k, r: r.shape[0])
        w(models.BaseClassifier, "predict", "models", count=lambda a, k, r: len(a[1]))
        w(
            policies.DriftDetectorPolicy,
            "decide",
            "detectors",
            count=lambda a, k, r: len(k["errors"]),
            tag=lambda a, k, r: a[0].name,
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "count", "tag"])
            writer.writerows(self.spans)

    def metrics(self, sweep_s: float) -> dict:
        """Per-layer metrics of the recorded spans; ``sweep_s`` is the traced
        wall time the spans fall in."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        has_child, missed = set(), set()
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
                has_child.add(parent)
                if name in _MISS_CHILDREN:
                    missed.add(parent)

        incl: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        counted: dict[str, int] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        calibrate = dict.fromkeys(("threshold", "cumulative", "periodic"), 0.0)
        detector_s = dict.fromkeys(("adwin", "ddm"), 0.0)
        cache_calls = cache_hits = cells = dp_cells = 0
        root_s = 0.0
        for i, (name, start, end, parent, count, tag) in enumerate(spans):
            dur = end - start
            own = dur - child_s[i]
            incl[name] = incl.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            if count is not None:
                counted[name] = counted.get(name, 0) + count
            layer_self[self.layer_of[name]] += own
            if parent < 0:
                root_s += dur
            if name == "harness.optimize_offline":
                calibrate[tag] += dur
            elif name == "DriftDetectorPolicy.decide":
                detector_s[tag] += dur
            elif name in _CACHED_CALLS:
                cache_calls += 1
                cache_hits += i not in missed
            elif name == "StreamCosts.staleness_matrix" and i in has_child and count:
                cells += count * (count - 1) // 2
            elif name == "oracle.memoize_dp" and count:
                dp_cells += count * (count + 1) // 2

        return {
            "models.fit_s": incl.get("costmatrix.fit_model", 0.0),
            "models.fits": calls.get("costmatrix.fit_model", 0),
            "models.fit_points": counted.get("costmatrix.fit_model", 0),
            "models.predict_s": incl.get("BaseClassifier.predict", 0.0),
            "models.predict_calls": calls.get("BaseClassifier.predict", 0),
            "models.predicted_points": counted.get("BaseClassifier.predict", 0),
            "staleness.kernel_s": incl.get("costmatrix.rbf_weights", 0.0),
            "staleness.kernel_entries": counted.get("costmatrix.rbf_weights", 0),
            "costmatrix.assemble_s": self_s.get("StreamCosts.staleness_matrix", 0.0),
            "costmatrix.cells": cells,
            "costmatrix.cache_hit_ratio": cache_hits / cache_calls if cache_calls else 1.0,
            "oracle.dp_s": incl.get("oracle.memoize_dp", 0.0),
            "oracle.dp_cells": dp_cells,
            **{f"policies.calibrate_s.{fam}": s for fam, s in calibrate.items()},
            "policies.replays": calls.get("policies.replay_policy", 0),
            "policies.replay_steps": counted.get("policies.replay_policy", 0),
            "policies.loop_s": self_s.get("harness.run_policy", 0.0),
            "policies.decisions": counted.get("harness.run_policy", 0),
            "detectors.adwin_s": detector_s["adwin"],
            "detectors.ddm_s": detector_s["ddm"],
            "detectors.bits": counted.get("DriftDetectorPolicy.decide", 0),
            "harness.csv_read_s": incl.get("harness.load_csv_stream", 0.0),
            "harness.csv_rows_read": counted.get("harness.load_csv_stream", 0),
            "harness.csv_write_s": incl.get("harness.results_to_csv", 0.0),
            "harness.csv_rows_written": counted.get("harness.results_to_csv", 0),
            "harness.prequential_s": self_s.get("harness.evaluate_prequential", 0.0),
            "harness.query_predictions": calls.get("StreamCosts.query_predictions", 0),
            "datagen.generate_s": incl.get("harness.generate_stream", 0.0),
            "datagen.points": counted.get("harness.generate_stream", 0),
            **{f"{layer}.self_s": s for layer, s in layer_self.items()},
            "trace.sweep_s": sweep_s,
            "trace.unattributed_s": sweep_s - root_s,
            "trace.spans": len(spans),
        }
