"""Study benchmark: the paper's study end to end, on three workloads.

    python3 studybench/run.py --workload clean --seed 1 --seconds 35 --trace 0

Runs studies of one workload back to back for ``--seconds`` (at least
``MIN_ITERATIONS`` of them), checks every output, and prints a table of
metrics followed by one JSON line::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics over the iterations (see
``FASTEST``).  ``--trace 1`` runs untraced iterations for half the time,
then one iteration with every layer's entry points wrapped, and reports
the per-layer table instead.  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"studybench: no repro package under {SRC}; run it from a checkout of the repository")
sys.path.insert(0, str(SRC))

from repro.core.evaluation import evaluate_study  # noqa: E402
from repro.core.stages import STAGE_ORDER  # noqa: E402

import workloads as wl  # noqa: E402
from layers import LayerTimer, Slot  # noqa: E402

DEFAULT_SEED = 1
MIN_ITERATIONS = 3
#: set-ups timed after each iteration besides its own, for ``setup_s``.
#: With only the iterations' own set-ups (5 on ``hostile``), the fastest
#: spread by 16% over five seeds; with these, by 9% (NOTES.md).
EXTRA_SETUPS = 5
#: scratch space for checkpoint directories, inside the checkout.
WORKDIR = ROOT / ".studybench-work"

#: (name, unit) of the end-to-end metrics, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("study_s", "s"),
    ("probes_per_s", "probes/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("delivered_probe_share", "ratio"),
    ("abi_precision", "ratio"),
    ("abi_recall", "ratio"),
    ("cbi_precision", "ratio"),
    ("cbi_recall", "ratio"),
    ("pin_accuracy", "ratio"),
    ("vpi_recall", "ratio"),
)

#: (name, unit) of the per-layer metrics of a traced run.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("world.resolve_path.calls", "count"),
    ("world.resolve_path.self_s", "s"),
    ("traceroute.trace.calls", "count"),
    ("traceroute.realize.self_s", "s"),
    ("traceroute.probe_rng.self_s", "s"),
    ("traceroute.hops_per_probe", "hops"),
    ("faults.hop_suppressed.calls", "count"),
    ("faults.hop_suppressed.self_s", "s"),
    ("faults.suppressed_share", "ratio"),
    ("campaign.left_cloud.calls", "count"),
    ("campaign.left_cloud.self_s", "s"),
    ("campaign.left_cloud_share", "ratio"),
    ("executor.self_s", "s"),
    ("executor.wait_s", "s"),
    ("executor.worker_busy_s", "s"),
    ("executor.shard_attempts", "count"),
    ("executor.retries", "count"),
    ("executor.quarantined", "count"),
    ("checkpoint.put.calls", "count"),
    ("checkpoint.put.self_s", "s"),
    ("checkpoint.finalize.self_s", "s"),
    ("checkpoint.open.self_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.replayed_shards", "count"),
    ("stages.save.calls", "count"),
    ("stages.save.self_s", "s"),
    ("stages.load.calls", "count"),
    ("stages.load.self_s", "s"),
    ("stages.bytes", "bytes"),
    ("adapt.admit.calls", "count"),
    ("adapt.admit.self_s", "s"),
    ("adapt.deferred", "count"),
    ("adapt.recovery.self_s", "s"),
    ("adapt.reprobes", "count"),
    ("adapt.recovered", "count"),
    ("borders.ingest.calls", "count"),
    ("borders.ingest.self_s", "s"),
    ("borders.with_border_share", "ratio"),
    ("annotate.calls", "count"),
    ("annotate.self_s", "s"),
    ("annotate.per_probe", "calls/probe"),
    ("annotate.miss_rate", "ratio"),
    ("bgp.lookup.calls", "count"),
    ("bgp.lookup.self_s", "s"),
    ("bgp.lpm_probes_per_lookup", "ratio"),
    *((f"stage.{name}_s", "s") for name in STAGE_ORDER),
    ("setup.build_world_s", "s"),
    ("setup.study_init_s", "s"),
    ("traced.study_s", "s"),
    ("unattributed_s", "s"),
    ("tracing_overhead_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# the iteration loop and its output checks
# ----------------------------------------------------------------------


class Checked:
    """Runs iterations of one workload and checks each one's outputs."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        #: digest every iteration must reproduce (the first run's).
        self.digest: Optional[str] = None
        #: an uninterrupted study of the same inputs (``crash-resume`` only),
        #: run here so that no iteration's timing or trace includes it.
        self.reference: Optional[str] = (
            wl.reference_digest(workload, seed) if workload == "crash-resume" else None
        )
        self.cancelled_at: Optional[Tuple[str, int]] = None

    def run(self, timer: Optional[LayerTimer] = None) -> Optional[wl.Sample]:
        """One checked iteration; ``None`` (and counted failed) on any failure."""
        self.attempted += 1
        gc.collect()  # the previous iteration's garbage is not this one's cost
        try:
            sample = wl.run_once(self.workload, self.seed, self.workdir, timer)
            self._check(sample)
        except Exception:  # a failed study is a result, not a crash
            traceback.print_exc()
            self.failed += 1
            return None
        return sample

    def _check(self, sample: wl.Sample) -> None:
        if self.digest is None:
            self.digest = sample.digest
        elif sample.digest != self.digest:
            raise AssertionError(f"digest {sample.digest} differs from the first run's {self.digest}")
        if self.reference is None:
            return
        if sample.digest != self.reference:
            raise AssertionError(
                f"resumed digest {sample.digest} differs from the uninterrupted study's {self.reference}"
            )
        if self.cancelled_at is None:
            self.cancelled_at = sample.cancelled_at
        elif sample.cancelled_at != self.cancelled_at:
            raise AssertionError(f"cancelled at {sample.cancelled_at}, first run at {self.cancelled_at}")


def measure(sample: wl.Sample, slowdown: float) -> Dict[str, float]:
    """The end-to-end values of one iteration (``peak_rss_mb`` is per run).

    Timings are divided by ``slowdown``, how much slower than usual the
    host ran around the study (see ``FASTEST``).
    """
    delivered, lost = wl.delivered_and_lost(sample.result)
    ev = evaluate_study(sample.world, sample.result)
    study_s = sample.study_s / slowdown
    return {
        "setup_s": sample.setup_s / slowdown,
        "study_s": study_s,
        "probes_per_s": delivered / study_s,
        "cpu_s": sample.cpu_s / slowdown,
        "delivered_probe_share": _ratio(delivered, delivered + lost),
        "abi_precision": ev.borders.abi_precision,
        "abi_recall": ev.borders.abi_recall,
        "cbi_precision": ev.borders.cbi_precision,
        "cbi_recall": ev.borders.cbi_recall,
        "pin_accuracy": ev.pinning.accuracy,
        "vpi_recall": ev.vpi.recall_of_detectable,
    }


def run_loop(checked: Checked, seconds: float, minimum: int) -> List[Dict[str, float]]:
    """Iterate until ``seconds`` have passed and ``minimum`` iterations ran.

    Keeps only each iteration's numbers, so memory does not grow with the
    number of iterations and ``peak_rss_mb`` stays comparable.  The host's
    slowdown is measured between iterations; set-ups are divided by the
    one just before them, and the study by the mean of that and the next.
    """
    rows: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    reference_s()  # right after start-up the first call reads up to 1.4x slow
    before = reference_s() / REFERENCE_S
    while checked.attempted < minimum or time.perf_counter() < deadline:
        extra = min(
            wl.set_up_only(checked.workload, checked.seed, checked.workdir)
            for _ in range(EXTRA_SETUPS)
        )
        sample = checked.run()
        after = reference_s() / REFERENCE_S
        if sample is not None:
            row = measure(sample, (before + after) / 2)
            row["setup_s"] = min(sample.setup_s, extra) / before
            row["wall_study_s"] = sample.study_s
            rows.append(row)
            print(f"  iteration {checked.attempted}: setup_s={min(sample.setup_s, extra):.4f} "
                  f"study_s={sample.study_s:.3f} cpu_s={sample.cpu_s:.3f} "
                  f"slowdown={before:.3f}/{after:.3f}", flush=True)
        before = after
    return rows


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


#: Seconds ``reference_s`` takes on the host NOTES.md describes, at its
#: usual speed.
REFERENCE_S = 0.015
REFERENCE_ITEMS = 2000


def reference_s() -> float:
    """Seconds of a fixed reference task: the fastest of 5 runs.

    The task is shaped like the probe path -- it seeds ``random.Random``
    from a ``repr``, draws from it and fills a dict -- but calls no code of
    the program, so only the host's speed moves it.
    """
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        table = {}
        for i in range(REFERENCE_ITEMS):
            table[i & 255, i] = random.Random(repr(("reference", i))).random()
        sorted(table.values())
        best = min(best, time.perf_counter() - start)
    return best


#: Timings are the fastest of a run, at the host's usual speed.  The host
#: runs up to 1.45x slower for stretches of a second to several minutes
#: (NOTES.md), longer than a run, so each iteration's times are first
#: divided by the host's slowdown around them (``run_loop``); taking the
#: fastest iteration then damps the shorter stretches the correction misses.
FASTEST = ("setup_s", "study_s", "cpu_s")
HIGHEST = ("probes_per_s",)


def end_to_end(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """One value per metric over a run's iterations (see ``FASTEST``)."""
    out: Dict[str, float] = {}
    for name, _unit in END_TO_END:
        if name == "peak_rss_mb":
            out[name] = wl.peak_rss_mb()
            continue
        values = [row[name] for row in rows]
        if name in FASTEST:
            out[name] = min(values)
        elif name in HIGHEST:
            out[name] = max(values)
        else:
            out[name] = statistics.median(values)
    return out


def per_layer(
    timer: LayerTimer, sample: wl.Sample, untraced_study_s: float
) -> Dict[str, float]:
    """The per-layer table of one traced iteration."""

    def slot(name: str) -> Slot:
        return timer.slots.get(name) or Slot()

    def span_total(category: str, key: str) -> float:
        return sum(r.counter(key) for r in sample.spans if r.category == category)

    shards = [r for r in sample.spans if r.category == "shard"]
    fresh = [r for r in shards if not r.counter("resumed")]
    trace, ingest, annotate = slot("traceroute.trace"), slot("borders.ingest"), slot("annotate")
    hops, left = slot("faults.hop_suppressed"), slot("campaign.left_cloud")
    hits = span_total("study", "annotation_cache_hits")
    misses = span_total("study", "annotation_cache_misses")
    out: Dict[str, float] = {
        "world.resolve_path.calls": slot("world.resolve_path").calls,
        "world.resolve_path.self_s": slot("world.resolve_path").self_s,
        "traceroute.trace.calls": trace.calls,
        # trace() minus resolve_path, probe_rng and fault hashing: _realize.
        "traceroute.realize.self_s": trace.self_s,
        "traceroute.probe_rng.self_s": slot("traceroute.probe_rng").self_s,
        "traceroute.hops_per_probe": _ratio(trace.tally, trace.calls),
        "faults.hop_suppressed.calls": hops.calls,
        "faults.hop_suppressed.self_s": hops.self_s,
        "faults.suppressed_share": _ratio(hops.tally, hops.calls),
        "campaign.left_cloud.calls": left.calls,
        "campaign.left_cloud.self_s": left.self_s,
        "campaign.left_cloud_share": _ratio(left.tally, left.calls),
        "executor.self_s": slot("executor.run").self_s + slot("executor.trace_shard").self_s,
        "executor.wait_s": slot("executor.wait").self_s,
        "executor.worker_busy_s": sum(r.counter("worker_seconds") for r in fresh),
        "executor.shard_attempts": sum(r.counter("attempts", 1.0) for r in fresh),
        "executor.retries": span_total("campaign", "retries"),
        "executor.quarantined": span_total("campaign", "quarantined"),
        "checkpoint.put.calls": slot("checkpoint.put").calls,
        "checkpoint.put.self_s": slot("checkpoint.put").self_s,
        "checkpoint.finalize.self_s": slot("checkpoint.finalize").self_s,
        "checkpoint.open.self_s": slot("checkpoint.open").self_s,
        "checkpoint.bytes": sample.store_bytes.get("journals", 0),
        "checkpoint.replayed_shards": span_total("campaign", "resumed"),
        "stages.save.calls": slot("stages.save").calls,
        "stages.save.self_s": slot("stages.save").self_s,
        "stages.load.calls": slot("stages.load").calls,
        "stages.load.self_s": slot("stages.load").self_s,
        "stages.bytes": sample.store_bytes.get("stages", 0),
        "adapt.admit.calls": slot("adapt.admit").calls,
        "adapt.admit.self_s": slot("adapt.admit").self_s,
        "adapt.deferred": span_total("study", "governor_deferred"),
        "adapt.recovery.self_s": slot("adapt.recovery").self_s,
        "adapt.reprobes": timer.reprobes,
        "adapt.recovered": span_total("study", "recovered_probes"),
        "borders.ingest.calls": ingest.calls,
        "borders.ingest.self_s": ingest.self_s,
        "borders.with_border_share": _ratio(ingest.tally, ingest.calls),
        "annotate.calls": annotate.calls,
        "annotate.self_s": annotate.self_s,
        "annotate.per_probe": _ratio(annotate.calls, ingest.calls),
        "annotate.miss_rate": _ratio(misses, hits + misses),
        "bgp.lookup.calls": slot("bgp.lookup").calls,
        "bgp.lookup.self_s": slot("bgp.lookup").self_s,
        "bgp.lpm_probes_per_lookup": _ratio(
            span_total("study", "bgp_lpm_probes"), span_total("study", "bgp_lpm_lookups")
        ),
    }
    for name in STAGE_ORDER:
        out[f"stage.{name}_s"] = slot(f"stage.{name}").self_s
    out["setup.build_world_s"] = sample.build_world_s
    out["setup.study_init_s"] = sample.study_init_s
    out["traced.study_s"] = sample.study_s
    out["unattributed_s"] = sample.study_s - timer.attributed_s
    out["tracing_overhead_s"] = sample.study_s - untraced_study_s
    return out


# ----------------------------------------------------------------------


def _print_table(title: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {units[name]}")


def _result(checked: Checked, metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"derives the study and fault-plan seeds (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="how long to keep running iterations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer table of a traced iteration")
    args = parser.parse_args(argv)
    try:
        wl.study_config(args.workload, args.seed)
    except ValueError as exc:
        parser.error(str(exc))

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        checked = Checked(args.workload, args.seed, workdir)
        if not args.trace:
            rows = run_loop(checked, args.seconds, MIN_ITERATIONS)
            if not rows:
                print("studybench: every iteration failed", file=sys.stderr)
                return 1
            units = dict(END_TO_END)
            metrics = end_to_end(rows)
            _print_table(
                f"{args.workload}: {len(rows)} iterations, seed {args.seed}",
                {**metrics, "lost_probe_share": 1.0 - metrics["delivered_probe_share"]},
                {**units, "lost_probe_share": "ratio"},
            )
        else:
            rows = run_loop(checked, args.seconds / 2, 1)
            timer = LayerTimer()
            traced = checked.run(timer)
            if not rows or traced is None:
                print("studybench: no untraced or traced iteration succeeded", file=sys.stderr)
                return 1
            units = dict(PER_LAYER)
            metrics = per_layer(timer, traced, statistics.median(r["wall_study_s"] for r in rows))
            _print_table(f"{args.workload}: per-layer table of one traced iteration, seed {args.seed}",
                         metrics, units)
        print(_result(checked, metrics, units))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
