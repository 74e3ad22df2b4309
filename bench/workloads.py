"""Workload definitions: reference pools, seeded corpora, item runners and
output canonicalization.

Every workload draws its items from a committed pool (``refs/<name>.json``)
whose inputs and reference output digests were produced by ``make_refs.py``.
A run's ``--seed`` picks which pool entries are used and in what order; the
program under test only ever sees the generated inputs.  Items are drawn in
fixed-composition blocks (one block = one draw per slot of ``BLOCKS[name]``),
so that every seed runs the same mix of input sizes and the throughput of two
seeds differs only by which inputs of each size were drawn.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
OUT = HERE / "out"

MODULES = ("fields", "matroids", "multimatroids", "polynomials", "isotropic",
           "orienting", "catalog", "serialize", "cli")

WORKLOADS = ("bridges", "evals", "classify", "cli")

# Block composition per workload: one block draws one pool entry per listed
# kind, in a seeded order.  The shares put each workload's p50 and p90 inside
# a cluster of similar items rather than on the edge between two clusters, so
# that they do not jump between clusters from one seed to the next.
BLOCKS = {
    "bridges": ["g5"] * 4 + ["g6"],
    "evals": ["g4"] * 8 + ["g5"] * 2,
    "classify": ["ext3", "zq3", "ext4", "cls3_gf2", "cls3_gf4", "zq4"]
                + ["cls4_gf2", "cls4_gf4"] * 4 + ["cls5_gf2", "cls5_gf4"] * 2,
    "cli": ["poly", "ort", "ort_threads1", "evals", "tight", "minors",
            "classify", "tutte", "catalog", "extend", "exit1", "exit2"],
}


class Mods:
    """The mmlab modules, looked up by attribute at call time so that the
    tracer's wrappers (installed on the module namespaces) are seen."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, sys.modules[f"mmlab.{name}"])


def import_mmlab() -> Mods:
    """Import mmlab from scratch (dropping any loaded copy) and return its
    modules."""
    for key in [k for k in sys.modules if k == "mmlab" or k.startswith("mmlab.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    for name in MODULES:
        importlib.import_module(f"mmlab.{name}")
    return Mods()


# -- encodings -----------------------------------------------------------------


def graph_slots(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u, n)]


def graph_edges(n: int, mask: int) -> list[tuple[int, int]]:
    return [e for i, e in enumerate(graph_slots(n)) if (mask >> i) & 1]


def graph_text(n: int, mask: int) -> str:
    return "\n".join([str(n)] + [f"{u} {v}" for u, v in graph_edges(n, mask)]) + "\n"


def label(e) -> str:
    return f"{e[0] + 1}{'abcd'[e[1]]}"


def labels(elems) -> list[str]:
    return [label(e) for e in sorted(elems)]


def coeffs(p) -> list[str]:
    return [str(c) for c in p.coeffs]


def digest(obj) -> str:
    """Reference digest of a canonical output (bytes hash as-is)."""
    if not isinstance(obj, bytes):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(obj).hexdigest()[:16]


# -- pools and corpora -----------------------------------------------------------


def load_pool(name: str) -> dict[str, list[dict]]:
    with open(REFS / f"{name}.json", encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    pool: dict[str, list[dict]] = {}
    for e in entries:
        pool.setdefault(e["kind"], []).append(e)
    return pool


def corpus(name: str, pool: dict[str, list[dict]], seed: int):
    """Endless seeded stream of pool entries in fixed-composition blocks.
    Each kind is dealt from its own shuffled deck, reshuffled when used up,
    so a kind repeats an entry only after every entry of it was drawn."""
    rng = random.Random(f"{name}:{seed}")
    decks: dict[str, list[dict]] = {k: [] for k in pool}
    block = list(BLOCKS[name])
    while True:
        rng.shuffle(block)
        for kind in block:
            deck = decks[kind]
            if not deck:
                deck.extend(pool[kind])
                rng.shuffle(deck)
            yield deck.pop()


# -- bridges -----------------------------------------------------------------------


def run_bridges(m: Mods, e: dict):
    n = e["n"]
    g = m.isotropic.Graph(n, graph_edges(n, e["mask"]))
    z = m.isotropic.from_graph(g, validate=False).multimatroid
    base = m.polynomials.q1(z)
    avoided = m.polynomials.q1_avoiding(z, m.multimatroids.transversal_slot(z, 2))
    inter = m.polynomials.interlace(g)
    glob = m.polynomials.global_interlace(g)
    total = m.polynomials.Polynomial.zero()
    for size in range(n + 1):
        for sub in combinations(range(n), size):
            idx = {v: i for i, v in enumerate(sub)}
            h = m.isotropic.Graph(size, [(idx[u], idx[v]) for u, v in g.edges
                                         if u in idx and v in idx])
            br = m.polynomials.bracket(h)
            total = total + m.polynomials.shifted_power_sum(dict(enumerate(br.coeffs)), -2)
    return base, avoided, inter, glob, total


def canon_bridges(m: Mods, out) -> dict:
    base, avoided, inter, glob, total = out
    return {"q1": coeffs(base), "q1_avoiding": coeffs(avoided),
            "interlace": coeffs(inter), "global_interlace": coeffs(glob),
            "bracket_sum": coeffs(total)}


# -- evals ---------------------------------------------------------------------------


def run_evals(m: Mods, e: dict):
    n = e["n"]
    g = m.isotropic.Graph(n, graph_edges(n, e["mask"]))
    build = m.isotropic.from_graph(g, validate=False)
    z = build.multimatroid
    brute = m.orienting.orienting_transversals(z)
    eulerian = m.isotropic.ort_via_eulerian(g)
    seeded = m.orienting.orienting_from_seed(z, build.block_transversal(3))
    report = m.orienting.evaluation_suite(z, tuple(map(tuple, e["t"])))
    return brute, eulerian, seeded, report


def canon_evals(m: Mods, out) -> dict:
    brute, eulerian, seeded, report = out
    return {"brute": [labels(t) for t in brute],
            "eulerian": [labels(t) for t in eulerian],
            "seeded": [labels(t) for t in seeded],
            "report": report.to_dict()}


# -- classify --------------------------------------------------------------------------


def _matrix(m: Mods, spec):
    field, rows, cols, lo, hi = spec
    return m.fields.GFMatrix(field, rows, cols, lo, hi)


def run_classify(m: Mods, e: dict):
    kind = e["kind"]
    a = _matrix(m, e["matrix"])
    if kind.startswith("cls"):
        z = m.isotropic.isotropic_multimatroid(a, validate=True).multimatroid
        return m.catalog.classify_binary_tight3(z)
    if kind.startswith("zq"):
        return m.isotropic.z_quaternary(m.matroids.Matroid.from_matrix(a))
    z = m.isotropic.pair_multimatroid(a)
    return m.catalog.is_strongly_binary(z), m.catalog.tight_extension(z)


def canon_classify(m: Mods, kind: str, out) -> dict:
    if kind.startswith("cls"):
        return out.to_dict()
    if kind.startswith("zq"):
        z = out.multimatroid
        return {"mm": m.serialize.mm_to_dict(z),
                "d": z.nullity(out.block_transversal(3))}
    cert, ext = out
    return {"cert": None if cert is None else
            {"matrix": cert.matrix.to_entries(), "basis": labels(cert.basis)},
            "ext": None if ext is None else m.serialize.mm_to_dict(ext)}


# -- cli ----------------------------------------------------------------------------------


def cli_input_path(e: dict) -> Path:
    return OUT / "cli-inputs" / f"{e['kind']}-{e['index']}{e['suffix']}"


def write_cli_inputs(pool: dict[str, list[dict]]) -> None:
    (OUT / "cli-inputs").mkdir(parents=True, exist_ok=True)
    for entries in pool.values():
        for e in entries:
            if e.get("input") is not None:
                cli_input_path(e).write_text(e["input"], encoding="utf-8")


def cli_argv(e: dict) -> list[str]:
    path = str(cli_input_path(e))
    return [path if a == "{input}" else a for a in e["argv"]]


def cli_result_bytes(code: int, stdout: bytes) -> bytes:
    return f"exit {code}\n".encode() + stdout


# -- dispatch ---------------------------------------------------------------------------


def run_item(name: str, m: Mods, e: dict):
    if name == "bridges":
        return run_bridges(m, e)
    if name == "evals":
        return run_evals(m, e)
    return run_classify(m, e)


def canonical(name: str, m: Mods, e: dict, out):
    if name == "bridges":
        return canon_bridges(m, out)
    if name == "evals":
        return canon_evals(m, out)
    if name == "classify":
        return canon_classify(m, e["kind"], out)
    return cli_result_bytes(*out)


# -- independent routes ---------------------------------------------------------------
# Each verifier checks a workload's outputs against an identity or a second
# route that does not share the code path being measured.  make_refs.py runs
# them on every pool entry before recording its digest; the tests re-run them.


def _shift(m: Mods, p, s: int):
    return m.polynomials.shifted_power_sum(dict(enumerate(p.coeffs)), s)


def verify_bridges(m: Mods, e: dict, out) -> None:
    base, avoided, inter, glob, total = out
    assert glob == _shift(m, base, -2), "global interlace != q1 shifted by -2"
    assert inter == _shift(m, avoided, -1), "interlace != q1_avoiding shifted by -1"
    assert total == glob, "bracket sum != global interlace"
    q3, qm1 = inter(3), inter(-1)
    assert qm1 != 0 and q3 % abs(qm1) == 0 and (q3 // abs(qm1)) % 2 == 1, \
        "interlace odd-cofactor identity fails"


def verify_evals(m: Mods, e: dict, out) -> None:
    brute, eulerian, seeded, report = out
    assert brute == eulerian == seeded, "orienting routes disagree"
    assert report.passed, "evaluation identity fails"
    assert all(i.odd_factor % 2 == 1 for i in report.identities
               if i.odd_factor is not None), "odd cofactor is even"
    n = e["n"]
    g = m.isotropic.Graph(n, graph_edges(n, e["mask"]))
    z = m.isotropic.from_graph(g, validate=False).multimatroid
    t = frozenset(map(tuple, e["t"]))
    disjoint = sum(1 for y in brute if t.isdisjoint(y))
    assert disjoint == 2 ** z.nullity(t), "disjoint orienting count != 2^nullity"


def verify_classify(m: Mods, e: dict, out) -> None:
    kind = e["kind"]
    if kind.startswith("cls"):
        d = out.to_dict()
        assert len({d["binary"], *d["tests"].values()}) == 1, "votes split"
        if e["matrix"][0] == 2:
            assert d["binary"], "GF(2) isotropic build classified non-binary"
        return
    a = _matrix(m, e["matrix"])
    if kind.startswith("zq"):
        mat = m.matroids.Matroid.from_matrix(a)
        d = out.multimatroid.nullity(out.block_transversal(3))
        assert mat.tutte(-1, -1) == (-1) ** mat.size * (-2) ** d, "Tutte bridge fails"
        t33 = mat.tutte(3, 3)
        assert t33 % 2 ** d == 0 and (t33 // 2 ** d) % 2 == 1, "odd cofactor fails"
        return
    cert, ext = out
    assert cert is not None and ext is not None, "GF(2) pair must extend"
    n = a.rows
    f = m.fields
    ident = f.GFMatrix.identity(f.GF2, n)
    big = ident.hstack(cert.matrix).hstack(cert.matrix.add(ident))
    cols = ([(v, cert.basis[v][1]) for v in range(n)]
            + [(v, 1 - cert.basis[v][1]) for v in range(n)]
            + [(v, 2) for v in range(n)])
    expected = m.multimatroids.Multimatroid(
        m.multimatroids.Carrier.uniform(n, 3),
        matroid=m.matroids.Matroid(cols, matrix=big))
    assert m.multimatroids.same_rank_oracle(ext, expected), \
        "extension differs from the three-block build"


def verify_cli(m: Mods, e: dict, code: int, stdout: bytes) -> None:
    kind = e["kind"]
    want = {"exit1": 1, "exit2": 2}.get(kind, 0)
    assert code == want, f"exit {code}, expected {want}"
    if kind == "exit1":
        assert stdout == b"", "exit 1 must leave stdout empty"
        return
    text = stdout.decode()
    assert text.endswith("\n") and text.count("\n") == 1, "one JSON line expected"
    obj = json.loads(text)
    if kind == "exit2":
        assert set(obj) == {"error"} and set(obj["error"]) == {"code", "message"}
    elif kind in ("ort", "ort_threads1"):
        g = m.isotropic.parse_graph(e["input"])
        want_ts = [labels(t) for t in m.isotropic.ort_via_eulerian(g)]
        assert obj == {"count": len(want_ts), "transversals": want_ts}, \
            "ort differs from the Eulerian route"
    elif kind == "poly" and e["argv"][1] == "interlace":
        g = m.isotropic.parse_graph(e["input"])
        z = m.isotropic.from_graph(g, validate=False).multimatroid
        avoided = m.polynomials.q1_avoiding(z, m.multimatroids.transversal_slot(z, 2))
        assert obj["coeffs"] == coeffs(_shift(m, avoided, -1)), \
            "interlace differs from the q1_avoiding bridge"
    elif kind == "classify":
        assert len({obj["binary"], *obj["tests"].values()}) == 1, "votes split"
    elif kind == "evals":
        assert obj["pass"], "evaluation identity fails"


def verify(name: str, m: Mods, e: dict, out) -> None:
    if name == "cli":
        verify_cli(m, e, *out)
    else:
        {"bridges": verify_bridges, "evals": verify_evals,
         "classify": verify_classify}[name](m, e, out)
