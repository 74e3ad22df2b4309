"""Regenerate the benchmark's reference pools (``refs/<workload>.json``).

Usage, from the repository root:

    python3 bench/make_refs.py [WORKLOAD ...]

Each pool entry holds one generated input and the digest of the output the
current code produces for it.  Before a digest is recorded the output is
checked by the workload's independent route (``workloads.verify``); an entry
whose output fails that check stops the script.  Inputs come from a fixed
generator seed, so rerunning on unchanged code rewrites identical files.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run as R  # noqa: E402
import workloads as W  # noqa: E402

GENERATOR_SEED = 20261017

POOL_SIZES = {
    "bridges": {"g5": 3000, "g6": 750},
    "evals": {"g4": 300, "g5": 150},
    "classify": {k: 80 for k in ("cls3_gf2", "cls3_gf4", "cls4_gf2", "cls4_gf4",
                                 "cls5_gf2", "cls5_gf4", "zq3", "zq4", "ext3", "ext4")},
    "cli": {k: 8 for k in W.BLOCKS["cli"]},
}


def random_mask(rng: random.Random, n: int, loops: bool) -> int:
    p = rng.choice((0.25, 0.5, 0.75))
    mask = 0
    for i, (u, v) in enumerate(W.graph_slots(n)):
        if (loops or u != v) and rng.random() < p:
            mask |= 1 << i
    return mask


def distinct(make, count: int, attempts: int):
    """Up to `count` distinct values of make(); small input spaces yield
    fewer."""
    seen, out = set(), []
    for _ in range(attempts):
        if len(out) == count:
            break
        v = make()
        key = json.dumps(v, sort_keys=True)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def symmetric(rng, field: int, n: int) -> list[list[int]]:
    vals = (0, 1) if field == 2 else (0, 1, 2, 3)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.choice((0, 1)) if i == j else rng.choice(vals)
    return a


def conj_symmetric(rng, n: int) -> list[list[int]]:
    conj = {0: 0, 1: 1, 2: 3, 3: 2}
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = rng.choice((0, 1))
        for j in range(i + 1, n):
            a[i][j] = rng.choice((0, 1, 2, 3))
            a[j][i] = conj[a[i][j]]
    return a


def standard_form(rng, field: int, n: int) -> list[list[int]]:
    r = rng.randint(0, n)
    vals = (0, 1) if field == 2 else (0, 1, 2, 3)
    return [[int(j == i) for j in range(r)] + [rng.choice(vals) for _ in range(n - r)]
            for i in range(r)]


def pack(field: int, entries: list[list[int]], cols: int) -> list:
    lo = [sum((e & 1) << j for j, e in enumerate(row)) for row in entries]
    hi = [sum((e >> 1) << j for j, e in enumerate(row)) for row in entries]
    return [field, len(entries), cols, lo, hi]


# -- generators -----------------------------------------------------------------------


def gen_bridges(rng, sizes):
    out = []
    for kind, n in (("g5", 5), ("g6", 6)):
        for mask in distinct(lambda: random_mask(rng, n, True), sizes[kind], 100000):
            out.append({"kind": kind, "n": n, "mask": mask})
    return out


def gen_evals(rng, sizes):
    out = []
    for kind, n in (("g4", 4), ("g5", 5)):
        def make():
            return (random_mask(rng, n, False),
                    [[c, rng.randrange(3)] for c in range(n)])
        for mask, t in distinct(make, sizes[kind], 100000):
            out.append({"kind": kind, "n": n, "mask": mask, "t": t})
    return out


def gen_classify(rng, sizes):
    out = []
    for kind in sizes:
        n = int(kind[-1]) if kind.startswith(("zq", "ext")) else int(kind[3])
        if kind.startswith("cls"):
            field = 2 if kind.endswith("gf2") else 4
            make = (lambda: pack(2, symmetric(rng, 2, n), n)) if field == 2 else \
                (lambda: pack(4, conj_symmetric(rng, n), n))
        elif kind.startswith("zq"):
            make = lambda: pack(4, standard_form(rng, 4, n), n)  # noqa: E731
        else:
            make = lambda: pack(2, symmetric(rng, 2, n), n)  # noqa: E731
        for mat in distinct(make, sizes[kind], 20000):
            out.append({"kind": kind, "matrix": mat})
    return out


def _mm_text(m, z) -> str:
    return json.dumps(m.serialize.mm_to_dict(z), sort_keys=True) + "\n"


def gen_cli(rng, sizes, m):
    """Small seeded inputs for every verb, plus a malformed input (exit 1)
    and a domain error (exit 2)."""
    out = []

    def add(kind, argv, text=None, suffix=""):
        out.append({"kind": kind, "index": sum(e["kind"] == kind for e in out),
                    "argv": argv, "input": text, "suffix": suffix})

    def iso(field, n):
        a = symmetric(rng, 2, n) if field == 2 else conj_symmetric(rng, n)
        mat = m.fields.GFMatrix(*pack(field, a, n))
        return m.isotropic.isotropic_multimatroid(mat, validate=False).multimatroid

    for i in range(sizes["poly"]):
        which = ("q1", "interlace", "global-interlace", "bracket")[i % 4]
        if which == "q1":
            g = m.isotropic.Graph(4, W.graph_edges(4, random_mask(rng, 4, True)))
            z = m.isotropic.from_graph(g, validate=False).multimatroid
            add("poly", ["poly", "q1", "--mm", "{input}"], _mm_text(m, z), ".mm.json")
        else:
            add("poly", ["poly", which, "--graph", "{input}"],
                W.graph_text(5, random_mask(rng, 5, True)), ".graph")
    for i in range(sizes["ort"]):
        text = W.graph_text(6, random_mask(rng, 6, False))
        add("ort", ["ort", "--graph", "{input}"], text, ".graph")
        add("ort_threads1", ["--threads", "1", "ort", "--graph", "{input}"], text, ".graph")
    for i in range(sizes["evals"]):
        t = ",".join(f"{c + 1}{'abc'[rng.randrange(3)]}" for c in range(4))
        add("evals", ["evals", "--graph", "{input}", "--transversal", t],
            W.graph_text(4, random_mask(rng, 4, False)), ".graph")
    for i in range(sizes["tight"]):
        if i % 2:
            z = iso(rng.choice((2, 4)), 3)
        else:
            ents = [[rng.randrange(2) for _ in range(6)] for _ in range(rng.randint(1, 5))]
            cols = [(c, s) for c in range(3) for s in range(2)]
            mat = m.fields.GFMatrix(*pack(2, ents, 6))
            z = m.multimatroids.Multimatroid(m.multimatroids.Carrier.uniform(3, 2),
                                             matroid=m.matroids.Matroid(cols, matrix=mat))
        add("tight", ["tight", "--mm", "{input}"], _mm_text(m, z), ".mm.json")
    for i in range(sizes["minors"]):
        add("minors", ["minors", "--mm", "{input}", "--pattern", "h33"],
            _mm_text(m, iso(4, 4)), ".mm.json")
    for i in range(sizes["classify"]):
        add("classify", ["classify", "--mm", "{input}"],
            _mm_text(m, iso(2 if i % 2 else 4, 3 + i % 3 // 2)), ".mm.json")
    for i in range(sizes["tutte"]):
        n = rng.randint(4, 6)
        mat = m.fields.GFMatrix(*pack(2, standard_form(rng, 2, n), n))
        x, y = rng.choice(("-1", "0", "2", "1/2", "3")), rng.choice(("-1", "2", "1/3"))
        add("tutte", ["tutte", "--matroid", "{input}", "--x", x, "--y", y],
            m.fields.format_gfmat(mat), ".gfmat")
    names = ("list",) + tuple(m.catalog.FIXTURE_NAMES)
    for i in range(sizes["catalog"]):
        name = names[i % len(names)]
        add("catalog", ["catalog", "list"] if name == "list" else ["catalog", "dump", name])
    for i in range(sizes["extend"]):
        a = m.fields.GFMatrix(*pack(2, symmetric(rng, 2, 3), 3))
        add("extend", ["extend", "--mm", "{input}"],
            _mm_text(m, m.isotropic.pair_multimatroid(a)), ".mm.json")
    for i in range(sizes["exit1"]):
        text = _mm_text(m, iso(2, 3))
        add("exit1", ["tight", "--mm", "{input}"], text[:rng.randrange(1, len(text) - 2)],
            ".mm.json")
    while sum(e["kind"] == "exit2" for e in out) < sizes["exit2"]:
        g = m.isotropic.Graph(4, W.graph_edges(4, random_mask(rng, 4, False)))
        z = m.isotropic.from_graph(g, validate=False).multimatroid
        ort = set(m.orienting.orienting_transversals(z))
        bad = [t for t in z.carrier.transversals() if t not in ort]
        if bad:
            t = bad[rng.randrange(len(bad))]
            add("exit2", ["ort", "--graph", "{input}", "--via", "fast",
                          "--seed", ",".join(W.labels(t))],
                m.isotropic.format_graph(g), ".graph")
    return out


def build(name: str) -> list[dict]:
    m = W.import_mmlab()
    rng = random.Random(f"{name}:{GENERATOR_SEED}")
    sizes = POOL_SIZES[name]
    if name == "cli":
        entries = gen_cli(rng, sizes, m)
        pool: dict[str, list[dict]] = {}
        for e in entries:
            pool.setdefault(e["kind"], []).append(e)
        W.write_cli_inputs(pool)
    else:
        entries = {"bridges": gen_bridges, "evals": gen_evals,
                   "classify": gen_classify}[name](rng, sizes)
    for e in entries:
        if name == "cli":
            out = R.run_cli_subprocess(e)
        else:
            out = W.run_item(name, m, e)
        try:
            W.verify(name, m, e, out)
        except AssertionError as exc:
            raise SystemExit(f"{name}: independent route fails on {e}: {exc}")
        e["ref"] = W.digest(W.canonical(name, m, e, out))
    return entries


def main(argv: list[str]) -> None:
    names = argv or list(W.WORKLOADS)
    W.REFS.mkdir(exist_ok=True)
    for name in names:
        entries = build(name)
        with open(W.REFS / f"{name}.json", "w", encoding="utf-8") as fh:
            fh.write('{"generator_seed": %d, "entries": [\n' % GENERATOR_SEED)
            fh.write(",\n".join(json.dumps(e, sort_keys=True, separators=(",", ":"))
                                for e in entries))
            fh.write("\n]}\n")
        print(f"{name}: {len(entries)} entries", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
