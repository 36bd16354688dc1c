"""In-memory spans around calls into scaleshift's layers, and the per-layer
metrics derived from them.

The program is not edited: :func:`instrument` swaps wrapped functions into
the module attributes its callers look up at call time (for example
``scaleshift.detect.robust_css``) and puts the originals back on exit.  Only
the traced run installs the wrappers; the timed run calls the program as is.
"""
from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

# A span with one of these names starts a new detection; its descendants
# share its detection id.
DETECTION_ROOTS = ("cli.main", "bench.run_detection")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    detection: int | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; nesting follows the call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._detections = 0
        self.origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        detection = parent.detection if parent else None
        if name in DETECTION_ROOTS:
            self._detections += 1
            detection = self._detections
        sp = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=float("nan"),
            parent=parent.id if parent else None,
            detection=detection,
            attrs=dict(attrs),
        )
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.attrs["error"] = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def to_json(self) -> list[dict]:
        """Spans with times in seconds since the tracer was created."""
        return [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start - self.origin,
                "end": s.end - self.origin,
                "parent": s.parent,
                "detection": s.detection,
                "attrs": s.attrs,
            }
            for s in self.spans
        ]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans.

    Overlapping children are counted once, and child time outside the
    parent's interval is ignored.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children[s.id]):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out[s.id] = (s.end - s.start) - covered
    return out


# --------------------------------------------------------------------------
# what each wrapped call records about its result

def _scan_attrs(trace):
    return {
        "kind": trace.estimator.kind,
        "n": int(trace.source_length),
        "degenerate": len(trace.degenerate_prefixes),
    }


def _pipeline_attrs(result):
    return {
        "reversed": bool(result.reversed_applied),
        "fallback": bool(result.constant_prefix_fallback),
    }


def _ingest_attrs(ts):
    return {"rows": int(ts.values.size)}


def _gen_attrs(generated):
    return {"samples": int(generated[0].size)}


def _study_attrs(report):
    grid_points = len({row.grid_label for row in report.rows})
    return {
        "trials": int(report.trials) * grid_points,
        "failures": sum(len(row.failures) for row in report.rows),
    }


# (module, attribute the caller looks up, span name, attrs from the result)
PATCH_POINTS = (
    ("cli", "main", "cli.main", None),
    ("cli", "ingest_csv", "cli.ingest_csv", _ingest_attrs),
    ("cli", "preprocess", "cli.preprocess", None),
    ("cli", "robust_css", "css.robust_css", _scan_attrs),
    ("cli", "classical_css", "css.classical_css", None),
    ("cli", "detect_with_orientation", "detect.detect_with_orientation", _pipeline_attrs),
    ("cli", "icss_detect", "detect.icss_detect", None),
    ("cli", "ols_detect", "detect.ols_detect", None),
    ("detect", "robust_css", "css.robust_css", _scan_attrs),
    ("detect", "detect_orientation", "css.detect_orientation", None),
    ("detect", "constant_prefix_check", "css.constant_prefix_check", None),
    ("detect", "icss_detect", "detect.icss_detect", None),
    ("detect", "ols_detect", "detect.ols_detect", None),
    ("bench", "run_mae_study", "bench.run_mae_study", _study_attrs),
    ("bench", "run_detection", "bench.run_detection", None),
    ("bench", "detect_with_orientation", "detect.detect_with_orientation", _pipeline_attrs),
    ("bench", "classical_css", "css.classical_css", None),
    ("bench", "icss_detect", "detect.icss_detect", None),
    ("bench", "ols_detect", "detect.ols_detect", None),
    ("bench", "gen_stable_series", "simulate.gen_stable_series", _gen_attrs),
    ("bench", "gen_mixture_series", "simulate.gen_mixture_series", _gen_attrs),
    ("simulate", "gen_stable_series", "simulate.gen_stable_series", _gen_attrs),
    ("simulate", "gen_mixture_series", "simulate.gen_mixture_series", _gen_attrs),
)


def _wrap(fn, tracer: Tracer, name: str, attrs_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                sp.attrs.update(attrs_of(result))
            return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, package):
    """Wrap every patch point that ``package`` still has; restore on exit.

    A patch point the program no longer has is skipped, so the benchmark
    keeps running after a refactor moves a call; the metrics fed by that
    point then read 0.
    """
    saved = []
    try:
        for mod_name, attr, name, attrs_of in PATCH_POINTS:
            module = getattr(package, mod_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(fn, tracer, name, attrs_of))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# --------------------------------------------------------------------------
# per-layer metrics

def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one pass, from its spans (see README.md)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(*names):
        return sum(s.end - s.start for n in names for s in by_name[n])

    def total_self(name):
        return sum(own[s.id] for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    scans = by_name["css.robust_css"]
    scans_of = {k: [s for s in scans if s.attrs.get("kind") == k] for k in ("bmid", "qcv")}
    scan_s = {k: sum(s.end - s.start for s in v) for k, v in scans_of.items()}
    prefixes = {k: sum(s.attrs.get("n", 1) - 1 for s in v) for k, v in scans_of.items()}
    pipelines = by_name["detect.detect_with_orientation"]
    detections = len(by_name["detect.icss_detect"]) + len(by_name["detect.ols_detect"])
    gen = ("simulate.gen_stable_series", "simulate.gen_mixture_series")
    gen_s = total(*gen)
    samples = sum(attr_sum(n, "samples") for n in gen)
    return {
        "css.bmid_scan_s": scan_s["bmid"],
        "estimators.bmid_ns_per_prefix": 1e9 * _ratio(scan_s["bmid"], prefixes["bmid"]),
        "css.qcv_scan_s": scan_s["qcv"],
        "estimators.qcv_ns_per_prefix": 1e9 * _ratio(scan_s["qcv"], prefixes["qcv"]),
        "css.robust_scans": len(scans),
        "css.prefix_estimates": sum(prefixes.values()),
        "css.scans_per_detection": _ratio(len(scans), len(pipelines)),
        "css.degenerate_prefixes": attr_sum("css.robust_css", "degenerate"),
        "css.orientation_s": total("css.detect_orientation", "css.constant_prefix_check"),
        "css.classical_s": total("css.classical_css"),
        "css.reversed_frac": _ratio(sum(s.attrs.get("reversed", False) for s in pipelines), detections),
        "css.fallback_frac": _ratio(sum(s.attrs.get("fallback", False) for s in pipelines), detections),
        "detect.pipeline_self_s": total_self("detect.detect_with_orientation"),
        "detect.icss_s": total("detect.icss_detect"),
        "detect.ols_s": total("detect.ols_detect"),
        "detect.detections": detections,
        "cli.ingest_s": total("cli.ingest_csv"),
        "cli.preprocess_s": total("cli.preprocess"),
        "cli.output_s": total_self("cli.main"),
        "cli.rows_ingested": attr_sum("cli.ingest_csv", "rows"),
        "simulate.gen_s": gen_s,
        "simulate.samples": samples,
        "simulate.ns_per_sample": 1e9 * _ratio(gen_s, samples),
        "bench.study_self_s": total_self("bench.run_mae_study"),
        "bench.trials": attr_sum("bench.run_mae_study", "trials"),
        "bench.failures": attr_sum("bench.run_mae_study", "failures"),
    }


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    """Metric-wise median over passes; counts repeat, so they pass through
    as whole numbers."""
    out = {}
    for k in per_pass[0]:
        values = [m[k] for m in per_pass]
        ints = all(isinstance(v, int) for v in values)
        out[k] = statistics.median_low(values) if ints else statistics.median(values)
    return out
