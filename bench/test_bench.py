"""Tests of the benchmark itself: its committed references, its seeded
corpora, its tracer and its output contract.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import subprocess
import sys
import time
from itertools import islice, repeat
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run as R  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

# Entries re-verified per pool kind; the full pools were verified when
# make_refs.py recorded them.
SAMPLE = {"bridges": 25, "evals": 3, "classify": 3, "cli": 1}


@pytest.fixture(scope="module")
def mods():
    return W.import_mmlab()


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_references_hold_by_independent_route(name, mods):
    """A seeded sample of every pool kind: the recomputed output passes the
    workload's independent route and hashes to the committed reference."""
    pool = W.load_pool(name)
    assert set(pool) == set(W.BLOCKS[name])
    if name == "cli":
        W.write_cli_inputs(pool)
    rng = random.Random(name)
    for kind, entries in pool.items():
        for e in rng.sample(entries, SAMPLE[name]):
            out = R.run_cli_subprocess(e) if name == "cli" else W.run_item(name, mods, e)
            W.verify(name, mods, e, out)
            assert W.digest(W.canonical(name, mods, e, out)) == e["ref"], (kind, e)


def test_cli_in_process_matches_subprocess(mods):
    pool = W.load_pool("cli")
    W.write_cli_inputs(pool)
    for kind in ("ort", "exit1", "exit2"):
        e = pool[kind][0]
        assert R.run_cli_inprocess(mods, e) == R.run_cli_subprocess(e)


def test_corpus_is_seeded_and_keeps_block_composition():
    pool = W.load_pool("evals")
    n = 10 * len(W.BLOCKS["evals"])
    first = [W.digest(e) for e in islice(W.corpus("evals", pool, 7), n)]
    again = [W.digest(e) for e in islice(W.corpus("evals", pool, 7), n)]
    other = [W.digest(e) for e in islice(W.corpus("evals", pool, 8), n)]
    assert first == again and first != other
    block = len(W.BLOCKS["evals"])
    for i in range(0, n, block):
        kinds = sorted(e["kind"] for e in islice(W.corpus("evals", pool, 7), i, i + block))
        assert kinds == sorted(W.BLOCKS["evals"])


def test_tracer_nesting_counts_and_restore(mods, monkeypatch):
    monkeypatch.setattr(T, "SPANS", T.SPANS + [("polynomials", "no_such_function")])
    original = mods.polynomials.q1
    entry = W.load_pool("bridges")["g5"][0]
    tr = T.Tracer()
    tr.install(mods)
    try:
        assert mods.polynomials.q1 is not original
        out = W.run_bridges(mods, entry)
    finally:
        tr.uninstall()
    assert mods.polynomials.q1 is original
    W.verify_bridges(mods, entry, out)
    s = tr.summary()
    assert s["absent"] == ["polynomials.no_such_function"]
    spans = s["spans"]
    assert spans["polynomials.q1"]["calls"] == 1
    assert spans["polynomials.bracket"]["calls"] == 2 ** 5
    # q1 walks all 3^5 transversals once each; q1_avoiding re-walks them.
    assert spans["multimatroids.Carrier.transversals"]["yielded"] == 2 * 3 ** 5
    for name in ("polynomials.q1", "polynomials.global_interlace"):
        assert 0 < spans[name]["self_s"] < spans[name]["incl_s"]
    hits = s["ratios"]["multimatroids.Multimatroid._rank.hit_ratio"]
    assert hits["base"] == spans["multimatroids.Multimatroid._rank"]["calls"]
    # q1 misses on each of the 3^5 transversals; q1_avoiding only re-reads them.
    assert hits["base"] - hits["numerator"] == 3 ** 5
    metrics = R.layer_metrics(s)
    assert "polynomials.no_such_function.self_s" not in metrics
    assert metrics["multimatroids.Multimatroid._rank.hit_ratio"][0] == hits["value"]


def _cli_entry(stdout: bytes) -> dict:
    return {"kind": "k", "ref": W.digest(W.cli_result_bytes(0, stdout))}


def test_timed_run_goes_on_until_ten_items_beyond_p90():
    outcomes = R.Outcomes("cli")
    lat, _, overrun = R.timed(None, lambda e: (0, b"ok"), repeat(_cli_entry(b"ok")),
                              1e-3, outcomes)
    assert R.beyond_p90(lat) >= R.MIN_BEYOND_P90 and overrun > 0
    assert outcomes.attempted == len(lat) and outcomes.failures == []


def test_pauses_run_once_each_inside_a_lengthened_window():
    outcomes = R.Outcomes("cli")
    calls = []
    lat, wall, _ = R.timed(None, lambda e: (0, b"ok"), repeat(_cli_entry(b"ok")), 0.05,
                           outcomes, pauses=[lambda: calls.append(time.sleep(0.05))] * 3)
    assert len(calls) == 3 and wall >= 0.05 + 3 * 0.05
    assert outcomes.attempted == len(lat) and outcomes.failures == []


def test_speed_meter_ticks_at_most_once_per_interval_and_trims():
    speed = R.SpeedMeter(every=3600)
    speed.tick()
    speed.tick()
    assert len(speed.samples) == 1 and gc.isenabled()
    speed.samples = [0.0] + [0.002] * 18 + [1.0]
    assert speed.mean_s() == pytest.approx(0.002)
    assert speed.scale() == pytest.approx(R.REF_S / 0.002)


def test_outputs_are_checked_as_they_come():
    outcomes = R.Outcomes("cli")
    entries = [_cli_entry(b"ok"), _cli_entry(b"other"), _cli_entry(b"ok")]
    kept: list = []
    outcomes.run(None, lambda e: (0, b"ok"), entries[:2])
    assert outcomes.attempted == 2 and len(outcomes.failures) == 1
    outcomes.run(None, lambda e: (0, b"ok"), entries[2:], keep=kept)
    assert len(kept) == 1 and len(outcomes.failures) == 1
    outcomes.check(None, kept)
    assert kept == [] and len(outcomes.failures) == 1


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "classify",
                           "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = _last_json(proc.stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {n: v["unit"] for n, v in res["metrics"].items()}


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "bridges",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
