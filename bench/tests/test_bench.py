"""Tests of the benchmark itself: its inputs, its correctness gate and its
tracing.  Run with `python3 -m pytest bench/tests` from the repository root.

They use shrunken item tables (monkeypatched) so they finish in seconds.
"""

import json
import signal
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import negabench
import run
import workloads
from spans import Tracer

BENCH = Path(__file__).resolve().parents[1]


@pytest.fixture
def small_tables(monkeypatch):
    monkeypatch.setattr(workloads, "ROUNDTRIP_SHAPES", (("G4K", 2), ("H4K2", 1)))
    monkeypatch.setattr(workloads, "SWEEP_SHAPES",
                        (("G4K", 1, 2), ("H8K2", 1, 2), ("F2RS", 2, 2),
                         ("F2RS_SET", 2, 2), ("F2RS_ORBIT", 2, 2)))
    monkeypatch.setattr(workloads, "LEMMA_SHAPES", (("S1", 1, 2, 2), ("S4", 1, 2, 1)))
    monkeypatch.setattr(workloads, "TABLE1_KS", (1,))


def _inputs(workload, seed, tmp_path):
    return [(i.id, i.params) for i in workloads.build_items(workload, seed, tmp_path)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs_but_not_amount_of_work(workload, tmp_path):
    a = _inputs(workload, 11, tmp_path)
    assert a == _inputs(workload, 11, tmp_path)
    b = _inputs(workload, 12, tmp_path)
    assert [i for i, _ in a] == [i for i, _ in b]
    assert [p for _, p in a] != [p for _, p in b]


def test_roundtrip_large_draws_fixed_weights(tmp_path):
    for seed in range(5):
        items = workloads.build_items("roundtrip-large", seed, tmp_path)
        gen = {i.id: i.params.split() for i in items if i.id.startswith("gen ")}
        g4k = [v for flag, v in zip(gen["gen G4K k=5"], gen["gen G4K k=5"][1:])
               if flag == "--gamma"]
        assert [v.count("1") for v in g4k] == [5, 5]


def test_clean_roundtrip_passes(small_tables, tmp_path):
    items = workloads.build_items("roundtrip-large", 3, tmp_path)
    assert len(items) == 8
    res = run.run_pass(items)
    assert res.failures == []
    assert run.run_pass(items, reference=res.digests).failures == []


def test_tampered_record_raises_failed_ratio(small_tables, tmp_path):
    items = workloads.build_items("roundtrip-large", 3, tmp_path)
    gen = items[0]
    record = tmp_path / "G4K-k2.json"

    def gen_then_tamper():
        result = gen.call()
        data = json.loads(record.read_text())
        first = data["tt_hex"][0]
        data["tt_hex"] = ("1" if first == "0" else "0") + data["tt_hex"][1:]
        record.write_text(json.dumps(data))
        return result

    tampered = [workloads.Item(gen.id, gen.params, gen_then_tamper, gen.check), *items[1:]]
    res = run.run_pass(tampered)
    failed = {f.split(":")[0] for f in res.failures}
    assert {"verify G4K k=2", "dual G4K k=2", "spectrum G4K k=2"} <= failed
    assert len(res.failures) / len(items) > 0


def test_pins_catch_changed_output(small_tables, tmp_path):
    items = workloads.build_items("claims-suite", 3, tmp_path)
    wrong = {i.id: "0" * 64 for i in items}
    res = run.run_pass(items, reference=wrong)
    assert len(res.failures) == len(items)
    assert all("digest" in f for f in res.failures)


def test_failed_check_fails_the_item():
    bad = workloads.report_outcome({"passed": False, "checks": [
        {"name": "bent", "passed": True, "elapsed_ms": 1.0},
        {"name": "negabent", "passed": False, "elapsed_ms": 2.0}]})
    assert not bad.ok and "negabent" in bad.note


@pytest.mark.parametrize("workload", ["sweep-small", "claims-suite", "roundtrip-large"])
def test_counts_repeat_and_tracing_changes_no_results(workload, small_tables, tmp_path):
    items = workloads.build_items(workload, 4, tmp_path)
    untraced = run.run_pass(items)
    original = negabench.core.characteristic_function
    tracer = Tracer()
    tracer.install()
    try:
        assert negabench.constructions.characteristic_function is not original
        traced = [run.run_pass(items, untraced.digests, tracer) for _ in range(2)]
    finally:
        tracer.uninstall()
    assert negabench.constructions.characteristic_function is original
    assert negabench.oracle.characteristic_function is original
    assert tracer.missing == []
    for p in traced:
        assert p.failures == []
        assert p.digests == untraced.digests
    layers, unsteady = run.per_layer(traced)
    assert unsteady == []
    for name in ("spectra.butterfly_points", "core.unpacked_bytes",
                 "spectra.distinct_input_ratio", "oracle.checks_run"):
        assert traced[0].layers[name] == traced[1].layers[name] > 0
    assert layers["oracle.checks_failed"] == 0
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["per_layer"]} <= set(layers)


def test_tail_percentile():
    assert run.tail([float(i) for i in range(10)]) is None
    assert run.tail([float(i) for i in range(1, 23)]) == (54, 12.0)
    pct, value = run.tail([float(i) for i in range(1, 311)])
    assert pct == 96 and sum(1 for x in range(1, 311) if x > value) >= 10


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_item_is_scaled_to_the_reference_speed(small_tables, tmp_path):
    items = workloads.build_items("sweep-small", 2, tmp_path)
    before = signal.getsignal(signal.SIGALRM)
    res = run.run_pass(items)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(res.scales) == len(res.latencies_s) == len(items)
    assert all(k > 0 for k in res.scales)
    assert 0 < res.wall_ref_s and 0 < res.wall_s
