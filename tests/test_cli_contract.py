"""Property test of the CLI contract on random and mutated inputs.

main() runs on .mm.json, .graph and .gfmat texts (valid ones, then mutated at
the JSON, line or character level) under random verbs and flags.  Whatever
the input, the exit code is 0, 1 or 2; exit 1 leaves stdout empty and
writes one "mmlab:" line to stderr; exit 2 prints exactly one error object;
and no exception escapes main().
"""

import contextlib
import copy
import io
import json
import random
import re
import sys

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_standard_form, random_symmetric
from mmlab import catalog, serialize
from mmlab.cli import main
from mmlab.errors import MalformedInput
from mmlab.fields import GF2, GF4, GFMatrix
from mmlab.isotropic import Graph, format_graph, from_graph, isotropic_multimatroid
from mmlab.matroids import Matroid
from mmlab.multimatroids import Carrier, Multimatroid, dual_pair

JUNK = [0, 1, 2, 3, 5, -1, 2.5, "2", "x", "", True, None, [], {}, [[0, 0]], [1, 2]]
RATIONALS = ["1", "-1", "2", "1/2", "-3/4", "0", "0.5", "x"]


def run(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def random_mm_dict(rng: random.Random) -> dict:
    pick = rng.randrange(4)
    if pick == 0:
        return serialize.mm_to_dict(catalog.fixture(rng.choice(catalog.FIXTURE_NAMES)))
    if pick == 1:
        g = random_graph(rng, rng.randint(1, 3), loops=True)
        z = from_graph(g, validate=False).multimatroid
        if rng.random() < 0.5:
            z = Multimatroid(z.carrier, circuits=z.circuits(), validate=False)
        return serialize.mm_to_dict(z)
    if pick == 2:
        return serialize.mm_to_dict(
            dual_pair(random_standard_form(rng, rng.choice((GF2, GF4)), rng.randint(1, 3))))
    sizes = [rng.randint(1, 6) for _ in range(rng.randint(0, 3))]
    circuits = [[[c, rng.randrange(k)] for c, k in enumerate(sizes) if rng.random() < 0.5]
                for _ in range(rng.randint(0, 2))]
    return {"order": len(sizes), "class_sizes": sizes, "kind": "circuits",
            "circuits": [c for c in circuits if c]}


def mutate_json(rng: random.Random, node):
    """Replace, drop or add one entry somewhere inside node."""
    if isinstance(node, dict) and node and rng.random() < 0.7:
        key = rng.choice(sorted(node))
        if rng.random() < 0.2:
            del node[key]
        else:
            node[key] = mutate_json(rng, node[key])
        return node
    if isinstance(node, list) and node and rng.random() < 0.7:
        i = rng.randrange(len(node))
        node[i] = mutate_json(rng, node[i])
        return node
    if isinstance(node, dict) and rng.random() < 0.3:
        node[rng.choice(["order", "kind", "extra"])] = junk(rng)
        return node
    return junk(rng)


def junk(rng: random.Random):
    """A fresh copy of a JUNK entry: a later mutation edits lists and dicts in
    place, and a shared entry would carry that edit into the next example."""
    return copy.deepcopy(rng.choice(JUNK))


def mutate_text(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    pick = rng.randrange(4)
    if pick == 0 and lines:
        i = rng.randrange(len(lines))
        toks = lines[i].split() or [""]
        toks[rng.randrange(len(toks))] = rng.choice(["x", "-1", "7", "1.5", "", "a", "0 0"])
        lines[i] = " ".join(toks)
    elif pick == 1 and lines:
        del lines[rng.randrange(len(lines))]
    elif pick == 2:
        lines.insert(rng.randint(0, len(lines)), rng.choice(["1 2 3", "#", "field 3", "0 1"]))
    else:
        return text[:rng.randint(0, len(text))]
    return "\n".join(lines) + "\n"


def random_gfmat(rng: random.Random) -> str:
    field = rng.choice((GF2, GF4))
    rows, cols = rng.randint(0, 3), rng.randint(1, 5)
    syms = "01" if field == GF2 else "01ab"
    body = [" ".join(rng.choice(syms) for _ in range(cols)) for _ in range(rows)]
    return "\n".join([f"field {field}", f"{rows} {cols}"] + body) + "\n"


def random_label(rng: random.Random) -> str:
    return f"{rng.randint(0, 4)}{rng.choice('abcdz')}"


def mm_argv(rng: random.Random) -> list:
    verb = rng.choice(["poly", "ort", "evals", "tight", "minors", "classify", "extend"])
    argv = [verb] + (["q1"] if verb == "poly" else []) + ["--mm", "-"]
    if verb == "ort":
        argv += ["--via", rng.choice(["brute", "fast"])]
        if rng.random() < 0.3:
            argv += ["--seed", ",".join(random_label(rng) for _ in range(rng.randint(1, 3)))]
    if verb == "evals" and rng.random() < 0.3:
        argv += ["--transversal", ",".join(random_label(rng) for _ in range(3))]
    if verb == "minors":
        argv += ["--pattern", rng.choice(catalog.FIXTURE_NAMES)]
    return argv


def graph_argv(rng: random.Random) -> list:
    verb = rng.choice(["poly", "ort", "evals", "tight", "minors", "classify"])
    argv = [verb]
    if verb == "poly":
        argv.append(rng.choice(["q1", "interlace", "global-interlace", "bracket"]))
    argv += ["--graph", "-"]
    if verb == "ort":
        argv += ["--via", rng.choice(["brute", "eulerian", "fast"])]
    if verb == "minors":
        argv += ["--pattern", "h33"]
    return argv


def mangle_flags(rng: random.Random, argv: list, pick: int) -> list:
    """Flag and verb damage for picks 1-4 and 6; other picks leave argv as
    is.  Pick 6 drops the input flag and its value."""
    if pick == 1:
        return ["--threads", rng.choice(["-1", "0", "1", "2", "x"])] + argv
    if pick == 2:
        return argv + ["--threads", "2"]
    if pick == 3:
        return argv + [rng.choice(["--via", "--bogus", "extra", "--mm"])]
    if pick == 4:
        return [rng.choice(["bogus", "catalog", "-h-"])] + argv[1:]
    if pick == 6:
        i = next(i for i, a in enumerate(argv) if a in ("--mm", "--graph", "--matroid"))
        return argv[:i] + argv[i + 2:]
    return argv


@given(st.randoms(use_true_random=False), st.integers(0, 2),
       st.sampled_from((0, 0, 1, 2)), st.integers(0, 15))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_contract_on_random_and_mutated_inputs(rng, fmt, mutations, damage):
    if fmt == 0:
        obj = random_mm_dict(rng)
        for _ in range(mutations):
            obj = mutate_json(rng, obj)
        text = json.dumps(obj)
        argv = mm_argv(rng)
    else:
        if fmt == 1:
            text = format_graph(random_graph(rng, rng.randint(0, 4),
                                             loops=rng.random() < 0.5))
            argv = graph_argv(rng)
        else:
            text = random_gfmat(rng)
            argv = ["tutte", "--matroid", "-", f"--x={rng.choice(RATIONALS)}",
                    f"--y={rng.choice(RATIONALS)}"]
        for _ in range(mutations):
            text = mutate_text(rng, text)
    if damage == 5:
        text = mutate_text(rng, text)
    argv = mangle_flags(rng, argv, damage)

    code, out, err = run(argv, text)
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
        assert out.endswith("\n") and out.count("\n") == 1
    elif code == 1:
        assert out == ""
        assert err.startswith("mmlab: ") and err.count("\n") == 1
    else:
        assert out.count("\n") == 1
        assert set(json.loads(out)) == {"error"}


@pytest.mark.parametrize("argv, fixture, code", [
    (["classify", "--mm", "-"], "s1", "NotTriple"),
    (["extend", "--mm", "-"], "h33", "GroundMismatch"),
    (["ort", "--mm", "-", "--via", "fast"], "s1", "UnknownElement"),
    (["ort", "--mm", "-", "--via", "fast", "--seed", "1c,2c,3c"], "s1", "UnknownElement"),
    # the suite rejects the carrier before it reads the transversal
    (["evals", "--mm", "-", "--transversal", "1c,2a,3a"], "s1", "NotBinaryTight3"),
    (["evals", "--mm", "-", "--transversal", "1d,2a,3a"], "P3", "UnknownElement"),
])
def test_carrier_shape_failures_exit_2(argv, fixture, code):
    # a carrier of the wrong class size is a domain failure: one error
    # object on stdout, nothing on stderr, elements named by their labels;
    # P3 is the binary tight 3-matroid of the path on three vertices
    z = from_graph(Graph(3, [(0, 1), (1, 2)])).multimatroid if fixture == "P3" \
        else catalog.fixture(fixture)
    text = json.dumps(serialize.mm_to_dict(z))
    exit_code, out, err = run(argv, text)
    assert (exit_code, err) == (2, "")
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["code"] == code
    assert not re.search(r"\(\d+, \d+\)", error["message"])


def well_formed_mm(rng: random.Random) -> Multimatroid:
    """A random multimatroid that passes the semi-axioms: order 0-4, class
    sizes 1-4, sheltered over GF(2) or GF(4) (a random matrix, or an
    isotropic build, which is tight with class size 3) or given by a circuit
    list (a sheltered one's circuits, or a random family the semi-axioms
    accept)."""
    n = rng.randint(0, 4)
    kind = rng.randrange(4)
    if kind == 0:
        return isotropic_multimatroid(random_symmetric(rng, GF2, n), validate=False).multimatroid
    k = rng.randint(1, 4)
    carrier = Carrier([k if rng.random() < 0.7 else rng.randint(1, 4) for _ in range(n)])
    ground = carrier.elements()
    if kind == 3:
        while True:
            family = [frozenset((c, rng.randrange(j)) for c, j in enumerate(carrier.class_sizes)
                                if rng.random() < 0.4) for _ in range(rng.randint(0, 3))]
            try:
                return Multimatroid(carrier, circuits=[c for c in family if c])
            except MalformedInput:  # nested, or no elimination within a transversal
                continue
    field = rng.choice((GF2, GF4))
    mat = GFMatrix.from_entries(field, [[rng.randrange(field) for _ in ground]
                                        for _ in range(rng.randint(0, 4))], cols=len(ground))
    rng.shuffle(ground)
    z = Multimatroid(carrier, matroid=Matroid(ground, matrix=mat))
    return Multimatroid(carrier, circuits=z.circuits()) if kind == 2 else z


MM_VERBS = [["poly", "q1"], ["ort"], ["ort", "--via", "fast"], ["evals"], ["tight"],
            ["minors", "--pattern", "h33"], ["classify"], ["extend"]]


@given(st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_well_formed_input_never_exits_1(rng):
    # every --mm verb, plus a seed and a reference transversal of
    # well-formed labels that may name no element of the carrier
    z = well_formed_mm(rng)
    text = json.dumps(serialize.mm_to_dict(z))
    labels = ",".join(f"{c + 1}{rng.choice('abcd')}" for c in range(z.order + rng.randint(0, 1)))
    for verb in MM_VERBS + [["ort", "--via", "fast", "--seed", labels],
                            ["evals", "--transversal", labels]]:
        argv = verb + ["--mm", "-"]
        code, out, err = run(argv, text)
        event(f"{verb[0]} exit {code}")
        assert code in (0, 2) and err == "", (argv, text, err)
        assert out.count("\n") == 1
        obj = json.loads(out)
        if code == 2:
            assert set(obj) == {"error"}
            assert not re.search(r"\(-?\d+, -?\d+\)", obj["error"]["message"]), (argv, text, obj)
