"""Self-tests of the study benchmark: ``python3 -m pytest studybench -q``."""

from __future__ import annotations

import json
import math
import multiprocessing
from pathlib import Path

import pytest

import run  # puts the checkout's src/ on sys.path
import layers
import workloads as wl
from layers import ENTRY_POINTS, LayerTimer
from repro.measure.metrics import StudyMetrics

SEED = 3


def _current() -> dict:
    attrs = {(owner, attr): vars(owner)[attr] for _name, owner, attr in ENTRY_POINTS}
    attrs[(StudyMetrics, "stage")] = vars(StudyMetrics)["stage"]
    return attrs


def test_wrappers_keep_the_digest_and_restore_every_original(tmp_path: Path) -> None:
    originals = _current()
    untraced = wl.run_once("clean", SEED, tmp_path)
    timer = LayerTimer()
    with timer:
        assert all(_current()[key] is not fn for key, fn in originals.items())
    assert _current() == originals
    traced = wl.run_once("clean", SEED, tmp_path, timer=timer)
    assert traced.digest == untraced.digest
    assert _current() == originals
    assert timer.slots["traceroute.trace"].calls > 0
    row = run.measure(untraced, slowdown=1.0)
    assert list(run.end_to_end([row])) == [name for name, _unit in run.END_TO_END]
    assert set(run.per_layer(timer, traced, untraced.study_s)) == set(dict(run.PER_LAYER))


def test_self_times_and_unattributed_sum_to_the_traced_study_time(tmp_path: Path) -> None:
    checked = run.Checked("crash-resume", SEED, tmp_path)
    timer = LayerTimer()
    sample = checked.run(timer)
    assert sample is not None and checked.failed == 0
    table = run.per_layer(timer, sample, untraced_study_s=sample.study_s)
    probing = {f"stage.{name}" for name in layers.PROBING_STAGES}
    self_times = sum(slot.self_s for name, slot in timer.slots.items() if name not in probing)
    assert math.isclose(self_times + table["unattributed_s"], sample.study_s, rel_tol=1e-9)
    assert 0 <= table["unattributed_s"] <= 0.1 * sample.study_s


def test_unwrapped_probe_path_fails_the_attribution_check(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setattr(layers, "ENTRY_POINTS", ())  # only the stages stay wrapped
    timer = LayerTimer()
    sample = wl.run_once("clean", SEED, tmp_path, timer=timer)
    table = run.per_layer(timer, sample, untraced_study_s=sample.study_s)
    assert table["unattributed_s"] > 0.1 * sample.study_s


def test_cancel_sink_stops_crash_resume_at_the_same_shard(tmp_path: Path) -> None:
    checked = run.Checked("crash-resume", SEED, tmp_path)
    first, second = checked.run(LayerTimer()), checked.run(LayerTimer())
    assert checked.failed == 0, "digest or cancel point moved between runs"
    assert first is not None and second is not None
    assert first.cancelled_at == second.cancelled_at == (wl.CANCEL_LABEL, wl.CANCEL_SHARD)
    replayed = [
        sum(r.counter("resumed") for r in s.spans if r.category == "campaign")
        for s in (first, second)
    ]
    assert replayed == [wl.CANCEL_SHARD + 1] * 2
    assert first.digest == checked.reference


def _report_restored(conn, originals) -> None:  # runs in a forked child
    conn.send(_current() == originals)
    conn.close()


def test_forked_pool_workers_run_the_original_functions() -> None:
    originals = _current()
    ctx = multiprocessing.get_context("fork")
    parent_end, child_end = ctx.Pipe()
    with LayerTimer():
        child = ctx.Process(target=_report_restored, args=(child_end, originals))
        child.start()
        restored = parent_end.recv()
        child.join(timeout=30)
    assert child.exitcode == 0
    assert restored


def test_hostile_refuses_more_workers_than_cpus(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    assert wl.study_config("hostile", SEED).workers == wl.HOSTILE_WORKERS
    monkeypatch.setattr(wl, "nproc", lambda: wl.HOSTILE_WORKERS - 1)
    with pytest.raises(ValueError):
        wl.study_config("hostile", SEED)
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "hostile", "--seconds", "1"])
    assert exc.value.code != 0
    assert '"correct"' not in capsys.readouterr().out


def test_seed_derives_study_and_fault_seeds() -> None:
    one, two = wl.study_config("hostile", 1), wl.study_config("hostile", 2)
    assert one == wl.study_config("hostile", 1)
    assert one.seed != two.seed
    assert one.fault_plan.seed != two.fault_plan.seed


def test_metric_names_and_units_match_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
