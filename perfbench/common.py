"""Shared pieces of the benchmark: workload definitions, estimators,
span tracing, machine metadata and dataset digests.

Everything here is stdlib-only and imports nothing from ``repro`` at
module level, so the parent process, the job children and the tests can
all load it cheaply.
"""

from __future__ import annotations

import hashlib
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

WORKLOADS = ("save-churn", "stream-dense", "query")

#: The seed the pinned digests in ``digests.json`` were captured with,
#: and a second seed kept for hold-out checks of a claimed gain.
DEFAULT_SEED = 1
HOLDOUT_SEED = 2

#: The 13 registered analyses, in registry order.  Fixed here (not read
#: from the registry) so the per-layer metric names stay stable.
ANALYSES = (
    "clientbehavior",
    "colocation",
    "coverage",
    "distance",
    "paths",
    "querymix",
    "regional_rtt",
    "rssac",
    "rtt",
    "stability",
    "trafficshift",
    "variability",
    "zonemd_audit",
)

#: Workload shapes.  ``save-churn`` spans the whole campaign window at a
#: sparse cadence so ~35 distinct zone versions make transfer sealing
#: the largest layer; ``stream-dense`` is a short fault-free window at a
#: dense cadence, where the epoch engine and chunk sealing dominate and
#: only a handful of zone versions exist.
SHAPES: Dict[str, Dict[str, object]] = {
    "save-churn": {
        "scenario": "default",
        "overlays": (),
        "world": {"ring_scale": 0.1},
        "platform": {
            "interval_scale": 48.0,
            "campaign_start": "2023-07-03",
            "campaign_end": "2023-12-24",
        },
    },
    "stream-dense": {
        "scenario": "default",
        "overlays": ("no-faults",),
        "world": {"ring_scale": 0.3},
        "platform": {
            "interval_scale": 4.0,
            "campaign_start": "2023-11-01",
            "campaign_end": "2023-11-03",
        },
        "checkpoint_every": 4,
    },
}
#: ``query`` serves the dataset ``save-churn``'s scenario saves.
SHAPES["query"] = SHAPES["save-churn"]


def study_config(workload: str, seed: int):
    """The :class:`StudyConfig` of *workload*: the registered scenario
    (plus overlays) with a bench-sized overlay folded on, so the resize
    shows in the scenario fingerprint.  The workload seed is the study
    seed."""
    from repro.scenarios import compose
    from repro.scenarios.registry import Overlay

    shape = SHAPES[workload]
    resize = Overlay(
        name=f"perfbench-{workload}",
        world=dict(shape["world"]),
        platform=dict(shape["platform"]),
    )
    scenario = compose(shape["scenario"], list(shape["overlays"]))
    return scenario.with_overlay(resize).study_config(seed=seed)


def request_order(seed: int, salt: str) -> List[str]:
    """A seeded permutation of the analyses: the order of one cold round
    or one burst pass.  Same seed and salt, same order."""
    order = list(ANALYSES)
    random.Random(f"{seed}:{salt}").shuffle(order)
    return order


# --- estimators -------------------------------------------------------------


def best_of(values: Iterable[float]) -> float:
    """The smallest sample: the gated estimator.  Noise on this machine
    only ever adds time, so the minimum over short units spread through
    a run is the steadiest figure (medians drift with neighbours)."""
    values = list(values)
    if not values:
        raise ValueError("best_of needs at least one sample")
    return min(values)


def distribution(values: Sequence[float]) -> Dict[str, float]:
    """Information-only summary: n, min, median, p99, max and the
    quartile spread relative to the median."""
    values = sorted(values)
    if not values:
        return {"n": 0}
    out = {
        "n": len(values),
        "min": values[0],
        "median": statistics.median(values),
        "p99": values[min(len(values) - 1, int(0.99 * len(values)))],
        "max": values[-1],
    }
    out["iqr_share"] = iqr_share(values)
    return out


def iqr_share(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives
    the quartiles; 0 for fewer than two samples."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


# --- spans ------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: name, start, end and parent per span.

    Disabled tracers record nothing and cost one attribute check, so the
    timed (untraced) code path can share the traced one.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    def begin(self, name: str) -> Optional[int]:
        if not self.enabled:
            return None
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span["id"]

    def end(self, span_id: Optional[int]) -> None:
        if span_id is None:
            return
        if not self._stack or self._stack[-1] != span_id:
            raise RuntimeError(f"span {span_id} closed out of order")
        self._stack.pop()
        span = self.spans[span_id]
        span["end"] = time.perf_counter()
        span["rss_mb"] = peak_rss_mb()

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that records a span per
        call (traced runs only; the timed runs never patch anything)."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.id: Optional[int] = None

    def __enter__(self) -> "_SpanContext":
        self.id = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.id)


def duration(span: Dict[str, object]) -> float:
    return float(span["end"]) - float(span["start"])


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[int, float]:
    """Span id -> duration minus the part of its interval covered by its
    children (overlapping children are merged, not double-counted)."""
    children: Dict[int, List[Dict[str, object]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(int(span["parent"]), []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = _covered(
            [(float(c["start"]), float(c["end"])) for c in children.get(int(span["id"]), [])],
            float(span["start"]),
            float(span["end"]),
        )
        out[int(span["id"])] = duration(span) - covered
    return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def total_by_name(spans: Sequence[Dict[str, object]], name: str) -> float:
    return sum(duration(s) for s in spans if s["name"] == name)


def self_by_name(spans: Sequence[Dict[str, object]], name: str) -> float:
    selfs = self_times(spans)
    return sum(selfs[int(s["id"])] for s in spans if s["name"] == name)


def coverage(spans: Sequence[Dict[str, object]], lo: float, hi: float) -> float:
    """Share of [lo, hi] covered by top-level spans."""
    if hi <= lo:
        return 0.0
    top = [(float(s["start"]), float(s["end"])) for s in spans if s["parent"] is None]
    return _covered(top, lo, hi) / (hi - lo)


# --- machine metadata -------------------------------------------------------


def peak_rss_mb() -> float:
    """This process's peak RSS so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of another live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop.  Sampled through a run and
    recorded as information only: it shows when a run was taken during
    a noisy period; the figures are never divided by it."""
    started = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - started


def machine_metadata(calibration: Sequence[float]) -> Dict[str, object]:
    import numpy

    return {
        "cpus_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "calibration_loop_s": {
            "best": min(calibration) if calibration else None,
            "median": statistics.median(calibration) if calibration else None,
            "n": len(calibration),
        },
    }


# --- digests ----------------------------------------------------------------


def tree_digest(directory: Path) -> str:
    """sha256 over every file of a dataset directory (relative path and
    bytes, in sorted path order)."""
    directory = Path(directory)
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


def src_dir(root: Path) -> Path:
    """The checkout's ``src`` directory; exits when it is missing, so a
    directory holding only the benchmark fails without a result."""
    src = Path(root) / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}/repro", file=sys.stderr)
        raise SystemExit(2)
    return src
