"""One benchmark run: set-up, a closed loop of ops with checks, and its metrics.

The loop has one client: each op starts after the previous op and its checks
have returned. It runs whole cycles of the workload's op kinds, at least
``panel`` ops, until ``seconds`` have passed. Errors and the op-count metrics
are taken over ops ``0..panel-1`` only, so they repeat exactly for a seed.

A shared host's speed drifts by about 10% over minutes, mostly for every
kernel together (a 400x400 matmul as much as a solve), so op times are
reported in units of a reference computation, two fixed dense SVDs timed
right after each op: the quotient keeps what the program costs and drops most
of what the host did meanwhile. Wall times go to the record, ungated.
"""

import glob
import math
import os
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from . import tracing
from .workloads import Checks

MIB = 1024.0 * 1024.0
# square and cache-resident, short-fat and spilling L2: the two kinds of dense
# SVD the workloads spend their time in, ~25 and ~75 ms on a 2-core x86_64 VM
REF_SHAPES = ((300, 300), (100, 5000))


@dataclass
class Phase:
    """What one closed loop of ops produced."""

    seconds: list[float] = field(default_factory=list)  # successful timed ops only
    ref_seconds: list[float] = field(default_factory=list)  # the reference after each
    rel_error: dict[int, float] = field(default_factory=dict)
    digests: dict[int, str] = field(default_factory=dict)
    peaks: list[float] = field(default_factory=list)
    attempted: int = 0
    errors: list[str] = field(default_factory=list)


class Reference:
    """Fixed dense SVDs, the unit that op times are reported in."""

    def __init__(self, reps: int) -> None:
        self.reps = reps
        gen = np.random.default_rng(0)
        self.mats = [gen.random(shape) for shape in REF_SHAPES]

    def seconds(self) -> float:
        """Median over ``reps`` of the wall time of one SVD of each matrix."""
        times = []
        for _ in range(self.reps):
            t0 = time.perf_counter()
            for a in self.mats:
                np.linalg.svd(a, full_matrices=False)
            times.append(time.perf_counter() - t0)
        return float(np.median(times))


def _attempt(w, checks: Checks, phase: Phase, i: int, measure_peak: bool = False) -> float | None:
    """Run op ``i``, check it, and record the outcome in ``phase``; its wall
    time when it passed, else None."""
    phase.attempted += 1
    if measure_peak:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
    t0 = time.perf_counter()
    try:
        out = w.op(i)
        elapsed = time.perf_counter() - t0
        if measure_peak:
            phase.peaks.append((tracemalloc.get_traced_memory()[1] - base) / MIB)
        rel = w.check(checks, i, out)
        digest = w.digest(out)
        if w.identical_ops and phase.digests:
            checks.require("records_match", digest == phase.digests[min(phase.digests)])
    except Exception:  # noqa: BLE001 - a failed op is counted, and the loop goes on
        phase.errors.append(f"op {i}: {traceback.format_exc(limit=3)}")
        return None
    phase.rel_error[i] = rel
    phase.digests[i] = digest
    return elapsed


def timed_setup(w) -> tuple[object, float]:
    t0 = time.perf_counter()
    a = w.setup()
    return a, time.perf_counter() - t0


def closed_loop(
    w, checks: Checks, seconds: float, tracer=None, setup_times=None, ref: Reference | None = None
) -> Phase:
    """Ops until ``seconds`` pass; the first cycle warms up and is not timed.
    With ``setup_times``, the set-up is also repeated at even intervals between
    ops until it holds ``w.setup_reps`` samples, so its median spans the run
    like the op times do. With ``ref``, the reference is timed after each
    timed op."""
    phase = Phase()
    cycle = len(w.kinds)
    start = time.perf_counter()
    i = 0
    while i < cycle + w.panel or i % cycle or time.perf_counter() < start + seconds:
        while (
            setup_times is not None
            and len(setup_times) < w.setup_reps
            and time.perf_counter() >= start + len(setup_times) * seconds / w.setup_reps
        ):
            setup_times.append(timed_setup(w)[1])
        if tracer is not None:
            tracer.op = i
        elapsed = _attempt(w, checks, phase, i)
        if elapsed is not None and i >= cycle:
            phase.seconds.append(elapsed)
            if ref is not None:
                phase.ref_seconds.append(ref.seconds())
        i += 1
    while setup_times is not None and len(setup_times) < w.setup_reps:
        setup_times.append(timed_setup(w)[1])
    return phase


def tail(seconds: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond): the highest percentile with >= 10 ops
    above it, but not below p75, which runs of fewer than 40 ops would give."""
    ordered = sorted(seconds)
    n = len(ordered)
    j = max(n - 11, math.ceil(0.75 * n) - 1)
    return ordered[j], 100.0 * (j + 1) / n, n - 1 - j


def _median(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def _compare(checks: Checks, name: str, a: Phase, b: Phase) -> None:
    """Every op index both phases completed gave bit-identical output."""
    for i in sorted(a.digests.keys() & b.digests.keys()):
        checks.require(name, a.digests[i] == b.digests[i], f"op {i}")


def run(w, seed: int, seconds: float, trace: bool, workdir):
    """One run of workload ``w``: ``(metrics, details, tracer or None)``."""
    checks = Checks()
    w.prepare(seed, workdir)
    try:
        a, setup0 = timed_setup(w)
        w.reference(a)

        if trace:
            plain = closed_loop(w, checks, seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                w.setup()  # traced once, so ingest shows as a span too
                traced = closed_loop(w, checks, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            # re-runs every op, and tracing must not change a single bit of any output
            _compare(checks, "trace_identical", plain, traced)
            phases = [plain, traced]
        else:
            setup_times = [setup0]
            timed = closed_loop(w, checks, seconds, setup_times=setup_times, ref=Reference(w.ref_reps))
            # peak memory in a separate pass, so tracemalloc does not slow the timed ops;
            # its op 0 is also the end-of-run re-run that must repeat op 0 bit for bit
            again = Phase()
            tracemalloc.start()
            try:
                for i in range(len(w.kinds)):
                    _attempt(w, checks, again, i, measure_peak=True)
            finally:
                tracemalloc.stop()
            _compare(checks, "deterministic_rerun", timed, again)
            phases = [timed, again]
    finally:
        w.cleanup()

    attempted = sum(p.attempted for p in phases)
    errors = [e for p in phases for e in p.errors]
    details = {
        "ops": len(phases[0].seconds),
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
        "checks_ran": dict(checks.ran),
    }
    if trace:
        plain_p50 = _median(plain.seconds)
        traced_p50 = _median(traced.seconds)
        metrics = tracing.layer_metrics(tracer, w.panel)
        metrics["trace.overhead_s"] = traced_p50 - plain_p50
        metrics["trace.spans_per_op"] = sum(isinstance(s.op, int) for s in tracer.spans) / max(
            traced.attempted, 1
        )
        details["untraced_op_s_p50"] = plain_p50
        details["traced_op_s_p50"] = traced_p50
        details["dominant_self_s"] = tracing.dominant_spans(tracer)
    else:
        tracer = None
        ratios = [s / r for s, r in zip(timed.seconds, timed.ref_seconds)]
        value, pct, beyond = tail(ratios) if ratios else (0.0, 0.0, 0)
        metrics = {
            "setup_s": _median(setup_times),
            "op_ref_p50": _median(ratios),
            "op_ref_tail": value,
            "rel_error_p50": _median(v for i, v in timed.rel_error.items() if i < w.panel),
            "peak_mb": max(again.peaks, default=0.0),
            "ok_frac": (attempted - len(errors)) / attempted,
        }
        details["op_s_p50"] = _median(timed.seconds)
        details["op_s_tail"] = tail(timed.seconds)[0] if timed.seconds else 0.0
        details["ref_s_p50"] = _median(timed.ref_seconds)
        details["op_seconds"] = timed.seconds
        details["ref_seconds"] = timed.ref_seconds
        details["tail_percentile"] = pct
        details["tail_ops_beyond"] = beyond
        details["setup_reps"] = w.setup_reps
    return metrics, details, tracer


def openblas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, read through its C API."""
    import ctypes

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None
