"""Golden check of the evals output bytes.

Replays the first entries of each kind in the benchmark's committed evals
pool (bench/refs/evals.json) through the benchmark's own item runner and
canonical form, and compares each digest with the one recorded there.  The
pool is only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
PER_KIND = 20


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    w = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(w)
    for name in w.MODULES:  # Mods reads the loaded modules; nothing is reloaded
        importlib.import_module(f"mmlab.{name}")
    return w


W = load_workloads()
ENTRIES = [e for entries in W.load_pool("evals").values() for e in entries[:PER_KIND]]


@pytest.mark.parametrize("entry", ENTRIES,
                         ids=[f"{e['kind']}-{i % PER_KIND}" for i, e in enumerate(ENTRIES)])
def test_evals_output_matches_reference_digest(entry):
    m = W.Mods()
    out = W.run_evals(m, entry)
    assert W.digest(W.canon_evals(m, out)) == entry["ref"]
