"""mmlab benchmark: one workload per run, end-to-end metrics or traced
per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload bridges --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

The workloads, metrics and why each was chosen are described in
bench/METRICS.md.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it print
the run record and every metric by name with its unit.  With --trace 1 the
run also writes bench/out/trace-<workload>.json (per-name span summary) and
bench/out/spans-<workload>.bin (every span).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPEATS = 5
# A timed run goes on past --seconds until this many items lie beyond p90.
MIN_BEYOND_P90 = 10
# Corpus blocks (BLOCKS[name]) that a traced run replays, once untraced and
# once traced: a fixed amount of work, so that counts do not depend on speed.
TRACE_BLOCKS = {"bridges": 100, "evals": 3, "classify": 5, "cli": 8}
PROBE_ROUNDS = 5
IMPORT_PROBES = 5
# The host's speed drifts: the same items run up to a third faster or slower
# from one minute to the next, and a pure-Python kernel drifts with them.  A
# run times reference_kernel() every REF_EVERY_S seconds between items and
# scales its times by REF_S / (the mean kernel time), which expresses them at
# the speed where the kernel takes REF_S (its mean over ten minutes on the
# 2-CPU virtual machine the benchmark was tuned on).  The speed switches
# between a fast and a slow level within seconds, so the kernel times are
# two-humped: their mean follows the share of time spent at each level, as
# the item latencies do, where their median jumps from hump to hump.
REF_S = 1.68e-3
REF_EVERY_S = 0.2
# Share of the kernel times cut from each end before the mean is taken.
REF_TRIM = 0.05

# Per-layer metrics read from span summaries: span name -> fields reported.
LAYER_SPANS = {
    "fields.rank_of_vectors": ("calls", "self_s"),
    "fields.rref": ("self_s",),
    "fields.null_space": ("self_s",),
    "multimatroids.cycle_space_avoiding": ("self_s",),
    "multimatroids.Multimatroid._rank": ("calls", "self_s"),
    "multimatroids.Multimatroid.restrict": ("calls", "self_s"),
    "multimatroids.Multimatroid.minor": ("calls", "self_s"),
    "matroids.Matroid.minor": ("calls", "self_s"),
    "multimatroids.is_tight": ("calls", "self_s"),
    "multimatroids.is_multimatroid": ("self_s",),
    "multimatroids.Multimatroid.circuits": ("self_s",),
    "matroids.Matroid.rank_of": ("calls", "self_s"),
    "matroids.Matroid.circuits": ("self_s",),
    "multimatroids.isomorphic": ("self_s",),
    "polynomials.q1": ("self_s",),
    "polynomials.q1_avoiding": ("self_s",),
    "polynomials.interlace": ("self_s",),
    "polynomials.global_interlace": ("self_s",),
    "polynomials.bracket": ("calls", "self_s"),
    "polynomials.shifted_power_sum": ("self_s",),
    "isotropic.Graph.nullity_mask": ("calls", "self_s"),
    "isotropic.from_graph": ("self_s",),
    "isotropic.ort_via_eulerian": ("self_s",),
    "orienting.orienting_from_seed": ("self_s",),
    "isotropic.isotropic_multimatroid": ("self_s",),
    "isotropic.z_quaternary": ("self_s",),
    "orienting.orienting_transversals": ("calls", "self_s"),
    "orienting._transition_eval": ("calls", "self_s"),
    "orienting._q1_eval": ("self_s",),
    "orienting.evaluation_suite": ("incl_s",),
    "catalog.classify_binary_tight3": ("incl_s",),
    "catalog.has_minor": ("self_s",),
    "catalog.is_strongly_binary": ("self_s",),
    "catalog.tight_extension": ("self_s",),
    "serialize.mm_from_dict": ("self_s",),
    "serialize.poly_to_dict": ("self_s",),
}
# Counts kept by the tracer -> the wrapped name that keeps them.
LAYER_COUNTS = {"fields.rank_of_vectors.vectors": "fields.rank_of_vectors",
                "fields.rank_of_vectors.gf4_calls": "fields.rank_of_vectors",
                "matroids.Matroid.built": "matroids.Matroid.__init__"}
LAYER_YIELDS = ("multimatroids.Carrier.transversals",
                "multimatroids.Carrier.near_transversals")


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99), interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def reference_kernel():
    """Fixed pure-Python work of the kinds mmlab does: small tuples and
    frozensets hashed into a dict, and Fraction sums.  About 2 ms."""
    counts: dict[frozenset, int] = {}
    acc = Fraction(0)
    for i in range(1500):
        key = frozenset((i % 7, i % 11, i % 13))
        counts[key] = counts.get(key, 0) + i
        if i % 10 == 0:
            acc += Fraction(i, i % 9 + 1)
    return len(counts), acc


class SpeedMeter:
    """Times reference_kernel() at most once every `every` seconds, with the
    cyclic garbage collector paused so that the kernel never collects the
    program's garbage.  Times measured in the same stretch are multiplied by
    scale() to express them at the reference speed."""

    def __init__(self, every: float = REF_EVERY_S):
        self.every = every
        self.samples: list[float] = []
        self._due = 0.0

    def tick(self) -> None:
        perf = time.perf_counter
        if perf() < self._due:
            return
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf()
        reference_kernel()
        self.samples.append(perf() - t0)
        if enabled:
            gc.enable()
        self._due = perf() + self.every

    def mean_s(self) -> float:
        """Mean kernel time, with REF_TRIM of the samples cut from each end."""
        v = sorted(self.samples)
        cut = int(len(v) * REF_TRIM)
        return statistics.fmean(v[cut:len(v) - cut])

    def scale(self) -> float:
        return REF_S / self.mean_s()


# -- run record ----------------------------------------------------------------


def git_commit() -> str:
    """HEAD commit read from the .git directory, or "unknown" outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, counts: dict) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu_model(), "commit": git_commit(),
            **counts}


# -- executing items -----------------------------------------------------------------


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli_subprocess(e: dict) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "mmlab", *W.cli_argv(e)],
                          cwd=ROOT, env=cli_env(), capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


def run_cli_inprocess(m: W.Mods, e: dict) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = m.cli.main(W.cli_argv(e))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue().encode()


def executor(name: str, m: W.Mods, in_process: bool):
    if name != "cli":
        return lambda e: W.run_item(name, m, e)
    if in_process:
        return lambda e: run_cli_inprocess(m, e)
    return run_cli_subprocess


class Outcomes:
    """Items attempted so far and the failures among them.  Each output is
    reduced to its digest and compared with the reference right after its
    latency is taken, outside the latency, so no output outlives its item."""

    def __init__(self, name: str):
        self.name = name
        self.attempted = 0
        self.failures: list[str] = []

    def _record(self, m: W.Mods, e: dict, out, err) -> None:
        if err is None:
            try:
                got = W.digest(W.canonical(self.name, m, e, out))
            except Exception as exc:  # a malformed output is a failure
                err = exc
            else:
                if got != e["ref"]:
                    err = f"digest {got} != reference {e['ref']}"
        if err is not None:
            self.failures.append(f"{e['kind']} {W.digest(e)}: {err!r}")

    def run(self, m: W.Mods, execute, entries, stop=None, keep=None,
            speed: SpeedMeter | None = None) -> list[float]:
        """Run entries in order (until `stop(latencies)` is true, when given)
        and return their latencies in seconds.  With a `keep` list, outputs
        are appended to it instead, for a later `check`.  With a `speed`
        meter, it ticks before each item, outside the latency."""
        perf = time.perf_counter
        lat = []
        for e in entries:
            if speed is not None:
                speed.tick()
            t0 = perf()
            try:
                out, err = execute(e), None
            except Exception as exc:  # counted as a failed item, never skipped
                out, err = None, exc
            lat.append(perf() - t0)
            self.attempted += 1
            if keep is not None and err is None:
                keep.append((e, out))
            else:
                self._record(m, e, out, err)
            out = None
            if stop is not None and stop(lat):
                break
        return lat

    def check(self, m: W.Mods, kept: list) -> None:
        for e, out in kept:
            self._record(m, e, out, None)
        kept.clear()


# -- phases ----------------------------------------------------------------------------


def setup(name: str, seed: int, outcomes: Outcomes):
    """Import mmlab afresh, load the pool, build the seeded corpus and warm
    up on one entry of each kind (the cli workload: one subprocess)."""
    t0 = time.perf_counter()
    m = W.import_mmlab()
    pool = W.load_pool(name)
    if name == "cli":
        W.write_cli_inputs(pool)
        warm = [pool["catalog"][0]]
    else:
        warm = [entries[0] for entries in pool.values()]
    stream = W.corpus(name, pool, seed)
    outcomes.run(m, executor(name, m, in_process=False), warm)
    return time.perf_counter() - t0, m, stream


def beyond_p90(lat: list[float]) -> int:
    if len(lat) < 2:
        return 0
    p90 = percentile(lat, 90)
    return sum(x > p90 for x in lat)


def timed(m: W.Mods, execute, stream, seconds: float, outcomes: Outcomes,
          speed: SpeedMeter | None = None, pauses=()):
    """Closed loop with one client: the next item starts when the previous
    one returns.  Runs for `seconds`, then on until MIN_BEYOND_P90 items lie
    beyond the p90, so that the p90 always rests on that many.  Each of
    `pauses` is called once, between items, at evenly spaced points of the
    window, which is lengthened by the time they take."""
    perf = time.perf_counter
    start = perf()
    deadline = start + seconds
    pending = list(pauses)
    marks = [start + seconds * (i + 1) / (len(pending) + 1) for i in range(len(pending))]

    def stop(lat):
        nonlocal deadline
        if pending and perf() >= marks[0]:
            t0 = perf()
            pending.pop(0)()
            took = perf() - t0
            deadline += took
            marks[:] = [t + took for t in marks[1:]]
        return perf() >= deadline and not pending and beyond_p90(lat) >= MIN_BEYOND_P90

    lat = outcomes.run(m, execute, stream, stop, speed=speed)
    return lat, perf() - start, max(0.0, perf() - deadline)


def end_to_end(args, outcomes: Outcomes) -> tuple[dict, dict]:
    """The first set-up provides the modules and corpus that are timed.  The
    other set-ups run spread over the timed window, so that set-up time and
    item latencies see the same machine speed, and the same scale applies."""
    speed = SpeedMeter()
    setups = []
    setup_failures = 0

    def one_setup():
        nonlocal setup_failures
        before = len(outcomes.failures)
        s, m, stream = setup(args.workload, args.seed, outcomes)
        setups.append(s)
        setup_failures += len(outcomes.failures) - before
        return m, stream

    speed.tick()
    m, stream = one_setup()
    execute = executor(args.workload, m, in_process=False)
    lat, wall, overrun = timed(m, execute, stream, args.seconds, outcomes, speed,
                               pauses=[one_setup] * (SETUP_REPEATS - 1))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    passed = len(lat) - (len(outcomes.failures) - setup_failures)
    raw = {"items_per_s": passed / sum(lat),
           "item_ms_p50": statistics.median(lat) * 1e3,
           "item_ms_p90": percentile(lat, 90) * 1e3,
           "setup_s": statistics.median(setups)}
    k = speed.scale()
    metrics = {
        "items_per_s": (raw["items_per_s"] / k, "1/s"),
        "item_ms_p50": (raw["item_ms_p50"] * k, "ms"),
        "item_ms_p90": (raw["item_ms_p90"] * k, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (raw["setup_s"] * k, "s"),
    }
    counts = {"timed_items": len(lat), "items_beyond_p90": beyond_p90(lat),
              "setup_runs": SETUP_REPEATS, "timed_wall_s": wall,
              "overrun_s": overrun, "ref_samples": len(speed.samples),
              "ref_ms_mean": speed.mean_s() * 1e3,
              "speed_scale": k, "unscaled": raw}
    return metrics, counts


def cli_probe(seed: int) -> dict:
    """Interpreter start-up plus import, and per-kind subprocess latency
    medians over a few seeded rounds of the cli corpus."""
    env = cli_env()
    imports = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mmlab.cli"], cwd=ROOT, env=env,
                       check=True, timeout=60)
        imports.append(time.perf_counter() - t0)
    pool = W.load_pool("cli")
    W.write_cli_inputs(pool)
    stream = W.corpus("cli", pool, seed)
    by_kind: dict[str, list[float]] = {}
    for _ in range(PROBE_ROUNDS * len(W.BLOCKS["cli"])):
        e = next(stream)
        t0 = time.perf_counter()
        run_cli_subprocess(e)
        by_kind.setdefault(e["kind"], []).append(time.perf_counter() - t0)
    out = {"cli.import_ms": (statistics.median(imports) * 1e3, "ms")}
    for kind in W.BLOCKS["cli"]:
        out[f"cli.{kind}.ms_p50"] = (statistics.median(by_kind[kind]) * 1e3, "ms")
    return out


def layer_metrics(summary: dict) -> dict:
    spans = summary["spans"]
    out = {}
    for span, fields in LAYER_SPANS.items():
        if span in spans:
            for f in fields:
                out[f"{span}.{f}"] = (spans[span][f], "count" if f == "calls" else "s")
    for key, source in LAYER_COUNTS.items():
        if source not in summary["absent"]:
            out[key] = (summary["counts"].get(key, 0), "count")
    for gen in LAYER_YIELDS:
        if gen in spans:
            out[f"{gen}.yielded"] = (spans[gen]["yielded"], "count")
    for name, ratio in summary["ratios"].items():
        out[name] = (ratio["value"], "ratio")
    return out


def traced(args, outcomes: Outcomes) -> tuple[dict, dict]:
    """Run TRACE_BLOCKS[name] blocks of the corpus untraced, then the same
    items traced; the ratio of their latency sums, each scaled by its own
    phase's speed, is the tracing overhead.
    The amount of work is fixed, whatever --seconds and the machine's speed."""
    name = args.workload
    _, m, stream = setup(name, args.seed, outcomes)
    execute = executor(name, m, in_process=True)
    entries = list(islice(stream, TRACE_BLOCKS[name] * len(W.BLOCKS[name])))
    speed_plain, speed_traced = SpeedMeter(), SpeedMeter()
    lat_plain = outcomes.run(m, execute, entries, speed=speed_plain)
    # The traced outputs are checked once the tracer is removed, so that the
    # check's own calls into mmlab make no spans.
    kept: list = []
    tr = T.Tracer()
    tr.install(m)
    try:
        lat_traced = outcomes.run(m, execute, entries, keep=kept, speed=speed_traced)
    finally:
        tr.uninstall()
    outcomes.check(m, kept)
    overhead = (sum(lat_traced) * speed_traced.scale()
                / (sum(lat_plain) * speed_plain.scale())) - 1
    summary = tr.summary()
    metrics = layer_metrics(summary)
    metrics.update(cli_probe(args.seed))
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    W.OUT.mkdir(exist_ok=True)
    n_spans = tr.write_spans(W.OUT / f"spans-{name}.bin")
    counts = {"traced_items": len(entries), "spans": n_spans,
              "absent": summary["absent"]}
    with open(W.OUT / f"trace-{name}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": run_record(args, counts), "summary": summary,
                   "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}},
                  fh, indent=1, sort_keys=True)
    return metrics, counts


# -- entry point -----------------------------------------------------------------------------


def run_one(args) -> int:
    outcomes = Outcomes(args.workload)
    if args.trace:
        metrics, counts = traced(args, outcomes)
    else:
        metrics, counts = end_to_end(args, outcomes)
    attempted = outcomes.attempted
    failed = len(outcomes.failures)
    record = run_record(args, counts)
    print("record " + json.dumps(record, sort_keys=True))
    for msg in outcomes.failures[:20]:
        print(f"FAILED {msg}")
    for n, (v, u) in metrics.items():
        print(f"{n} {v:.6g} {u}")
    print(f"failed_frac {failed / max(attempted, 1):.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process so that its peak RSS
    is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for n, v in res["metrics"].items():
            merged["metrics"][f"{name}.{n}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "mmlab" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no mmlab sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
