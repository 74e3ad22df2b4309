import io
import json
import subprocess
import sys

import pytest

from mmlab import catalog, serialize
from mmlab.cli import main
from mmlab.polynomials import q1


def run_cli(argv, stdin_text=None, capsys=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


GRAPH_K2 = "2\n0 1\n"
U24_GFMAT = "field 4\n2 4\n1 0 1 1\n0 1 1 a\n"


@pytest.fixture
def k2_file(tmp_path):
    p = tmp_path / "k2.graph"
    p.write_text(GRAPH_K2)
    return str(p)


@pytest.fixture
def u24_file(tmp_path):
    p = tmp_path / "u24.gfmat"
    p.write_text(U24_GFMAT)
    return str(p)


@pytest.fixture
def h33_file(tmp_path):
    p = tmp_path / "h33.mm.json"
    p.write_text(json.dumps(serialize.mm_to_dict(catalog.fixture("h33"))))
    return str(p)


def test_poly_q1_h33(h33_file, capsys):
    code = main(["poly", "q1", "--mm", h33_file])
    out, _ = capsys.readouterr()
    assert code == 0
    data = json.loads(out)
    assert data == {"coeffs": ["18", "9"], "var": "y"}
    assert sum(int(c) for c in data["coeffs"]) == 27
    assert out.endswith("\n") and not out[:-1].endswith("\n")


def test_poly_graph_routes(k2_file, capsys):
    code = main(["poly", "interlace", "--graph", k2_file])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out) == {"coeffs": ["0", "2"], "var": "y"}
    for which in ("global-interlace", "bracket"):
        assert main(["poly", which, "--graph", k2_file]) == 0
        capsys.readouterr()


def test_ort_graph(k2_file, capsys):
    code = main(["ort", "--graph", k2_file])
    out, _ = capsys.readouterr()
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert data["transversals"] == [["1a", "2b"], ["1b", "2a"], ["1c", "2c"]]


def test_ort_routes_agree(k2_file, capsys):
    outs = []
    for via in ("brute", "eulerian"):
        code = main(["ort", "--graph", k2_file, "--via", via])
        out, _ = capsys.readouterr()
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_ort_fast_rejects_a_tight_3_matroid_that_is_not_binary(capsys, monkeypatch):
    # the coset route printed 31 transversals here, with exit 0; brute force
    # finds one
    dump = json.dumps(serialize.mm_to_dict(catalog.fixture("z-u24-3")))
    code, out, err = run_cli(["ort", "--mm", "-", "--via", "fast"], dump, capsys, monkeypatch)
    assert code == 2 and err == ""
    assert json.loads(out)["error"]["code"] == "NotBinaryTight3"
    code, out, _ = run_cli(["ort", "--mm", "-"], dump, capsys, monkeypatch)
    assert code == 0
    assert json.loads(out)["transversals"] == [["1c", "2c", "3c", "4c"]]


def test_evals_verb(k2_file, capsys):
    code = main(["evals", "--graph", k2_file])
    out, _ = capsys.readouterr()
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["ort_count"] == 3


def test_evals_explicit_transversal(k2_file, capsys):
    code = main(["evals", "--graph", k2_file, "--transversal", "1b,2c"])
    out, _ = capsys.readouterr()
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["transversal"] == ["1b", "2c"]


def test_tight_verb_exit_codes(h33_file, capsys):
    code = main(["tight", "--mm", h33_file])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out) == {"multimatroid": True, "tight": True}


def test_tight_witness(capsys, monkeypatch):
    dump = json.dumps(serialize.mm_to_dict(catalog.fixture("s2")))
    code, out, _ = run_cli(["tight", "--mm", "-"], dump, capsys, monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["multimatroid"] is True and data["tight"] is False
    assert "witness" in data


def test_tight_builds_one_minor_per_near_transversal(h33_file, capsys, cross_check_calls):
    # the order-one minors of the 27 near-transversals, their loops read
    # from the circuits of z, one table per missing class: no Multimatroid
    # is built
    loops_at, minors = cross_check_calls
    assert main(["tight", "--mm", h33_file]) == 0
    assert json.loads(capsys.readouterr()[0]) == {"multimatroid": True, "tight": True}
    assert loops_at == [0, 1, 2]
    assert minors == []


def test_tight_builds_only_the_parsed_matroid(h33_file, capsys, matroids_built):
    assert main(["tight", "--mm", h33_file]) == 0
    assert json.loads(capsys.readouterr()[0]) == {"multimatroid": True, "tight": True}
    assert len(matroids_built) == 1


def test_minors_verb(capsys, monkeypatch):
    dump = json.dumps(serialize.mm_to_dict(catalog.fixture("z-u24-3")))
    code, out, _ = run_cli(["minors", "--mm", "-", "--pattern", "h33"],
                           dump, capsys, monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["found"] is True
    assert len(data["contract"]) == 1


def test_classify_verb(h33_file, capsys):
    code = main(["classify", "--mm", h33_file])
    out, _ = capsys.readouterr()
    assert code == 0
    data = json.loads(out)
    assert data["binary"] is False
    assert data["tests"]["even_skew_pairs"] is False


def test_classify_validation_failure_exit_2(capsys, monkeypatch):
    dump = json.dumps(serialize.mm_to_dict(catalog.fixture("s2")))
    # s2 is a 2-matroid: classification wants class size 3, a domain failure
    code, out, err = run_cli(["classify", "--mm", "-"], dump, capsys, monkeypatch)
    assert code == 2 and err == ""
    assert json.loads(out)["error"]["code"] == "NotTriple"
    # a genuinely non-tight 3-carrier fails validation with exit 2
    from mmlab.multimatroids import Carrier, Multimatroid
    loose = Multimatroid(Carrier.uniform(2, 3),
                         circuits=[frozenset({(0, 0), (1, 0)})])
    dump2 = json.dumps(serialize.mm_to_dict(loose))
    code, out, err = run_cli(["classify", "--mm", "-"], dump2, capsys, monkeypatch)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "NotTight"


def test_tutte_verb(u24_file, capsys):
    code = main(["tutte", "--matroid", u24_file, "--x", "-1", "--y", "-1"])
    out, _ = capsys.readouterr()
    assert code == 0 and out == '"-2"\n'
    # rank-sum oracle: 1/4 - 2 + 6 + 4 + 1
    code = main(["tutte", "--matroid", u24_file, "--x", "1/2", "--y", "2"])
    out, _ = capsys.readouterr()
    assert code == 0 and json.loads(out) == "37/4"


def test_tutte_negative_rational_as_separate_value(u24_file, capsys):
    code = main(["tutte", "--matroid", u24_file, "--x=-1/2", "--y=-2/3"])
    want, _ = capsys.readouterr()
    assert code == 0
    code = main(["tutte", "--matroid", u24_file, "--x", "-1/2", "--y", "-2/3"])
    out, err = capsys.readouterr()
    assert code == 0 and out == want and err == ""


def test_tutte_rejects_floats(u24_file, capsys):
    code = main(["tutte", "--matroid", u24_file, "--x", "0.5", "--y", "1"])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and "0.5" in err


def test_catalog_list_and_dump(capsys):
    code = main(["catalog", "list"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["fixtures"] == list(catalog.FIXTURE_NAMES)
    code = main(["catalog", "dump", "s5"])
    out, _ = capsys.readouterr()
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "circuits" and data["order"] == 4


def test_catalog_dump_round_trip(capsys, monkeypatch):
    for name in catalog.FIXTURE_NAMES:
        code = main(["catalog", "dump", name])
        dump, _ = capsys.readouterr()
        assert code == 0
        code, out, _ = run_cli(["poly", "q1", "--mm", "-"], dump, capsys,
                               monkeypatch)
        assert code == 0
        direct = serialize.poly_to_dict(q1(catalog.fixture(name)))
        assert json.loads(out) == direct


def test_extend_verb(capsys, monkeypatch):
    dump = json.dumps(serialize.mm_to_dict(catalog.fixture("s2")))
    code, out, _ = run_cli(["extend", "--mm", "-"], dump, capsys, monkeypatch)
    assert code == 0
    assert json.loads(out) == {"extension": None}
    dump = json.dumps(serialize.mm_to_dict(catalog.fixture("s5")))
    code, out, _ = run_cli(["extend", "--mm", "-"], dump, capsys, monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["extension"]["order"] == 4
    assert data["extension"]["kind"] == "circuits"


def test_outputs_are_reproducible(k2_file, capsys):
    main(["evals", "--graph", k2_file])
    first, _ = capsys.readouterr()
    main(["evals", "--graph", k2_file])
    second, _ = capsys.readouterr()
    assert first == second


def test_malformed_inputs_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("not a graph\n")
    assert main(["ort", "--graph", str(bad)]) == 1
    capsys.readouterr()
    assert main(["ort", "--graph", str(tmp_path / "missing.graph")]) == 1
    capsys.readouterr()
    badjson = tmp_path / "bad.mm.json"
    badjson.write_text("{not json")
    assert main(["poly", "q1", "--mm", str(badjson)]) == 1
    capsys.readouterr()
    not_utf8 = tmp_path / "latin.mm.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    assert main(["tight", "--mm", str(not_utf8)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("mmlab: cannot read ") and err.count("\n") == 1


def test_huge_vertex_count_is_too_large(tmp_path, capsys):
    # rejected before a per-vertex list is allocated
    huge = tmp_path / "huge.graph"
    huge.write_text("10000000000000000000\n")
    code = main(["poly", "interlace", "--graph", str(huge)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)["error"] == {
        "code": "TooLarge", "message": "graph: size 10000000000000000000 exceeds bound 65536"}


def test_max_order_env_guard(k2_file, capsys, monkeypatch):
    monkeypatch.setenv("MMLAB_MAX_ORDER", "1")
    code = main(["ort", "--graph", k2_file])
    out, _ = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["error"]["code"] == "TooLarge"


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "mmlab", "catalog", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["fixtures"][0] == "s1"


def test_threads_flag(k2_file, capsys):
    code = main(["--threads", "2", "ort", "--graph", k2_file])
    out, _ = capsys.readouterr()
    assert code == 0 and json.loads(out)["count"] == 3


@pytest.mark.parametrize("value", ["0", "-3"])
def test_threads_below_one_is_malformed(k2_file, capsys, value):
    code = main(["--threads", value, "ort", "--graph", k2_file])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("mmlab: ") and err.count("\n") == 1


def _mm_file(tmp_path, obj) -> str:
    p = tmp_path / "in.mm.json"
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.mark.parametrize("obj", [
    {"order": "x", "class_sizes": [2], "kind": "circuits", "circuits": []},
    {"order": 2, "class_sizes": [True, 2], "kind": "circuits", "circuits": []},
    {"order": 2, "class_sizes": [1, 2], "kind": "circuits",
     "circuits": [[[True, False]]]},
    {"order": 2, "class_sizes": [2.7, "2"], "kind": "circuits", "circuits": []},
    {"order": 2.0, "class_sizes": [2, 2], "kind": "circuits", "circuits": []},
    {"order": 1, "class_sizes": [2], "kind": "sheltered", "columns": [[0, 0], [0, 1]],
     "matrix": {"field": 2, "rows": 1.0, "cols": 2, "entries": [["1", "0"]]}},
    {"order": 1, "class_sizes": [2], "kind": "circuits", "circuits": 3},
], ids=["order_not_int", "bool_class_size", "bool_element", "float_string_class_size",
        "float_order", "float_matrix_rows", "circuits_not_a_list"])
def test_mm_json_boundary_exit_1(tmp_path, capsys, obj):
    code = main(["poly", "q1", "--mm", _mm_file(tmp_path, obj)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("mmlab: ") and err.count("\n") == 1


def test_ort_routes_agree_on_a_degenerate_carrier(tmp_path, capsys):
    # the coset route printed no transversals here, with exit 0
    obj = {"order": 2, "kind": "circuits", "class_sizes": [2, 1], "circuits": [[[0, 1]]]}
    path = _mm_file(tmp_path, obj)
    outs = []
    for argv in (["ort"], ["ort", "--via", "fast", "--seed", "1a,2a"]):
        code = main(argv + ["--mm", path])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[1])["error"]["code"] == "Degenerate"


def test_q1_rejects_class_size_above_bound(tmp_path, capsys):
    obj = {"order": 2, "class_sizes": [5, 5], "kind": "circuits", "circuits": []}
    code = main(["poly", "q1", "--mm", _mm_file(tmp_path, obj)])
    out, _ = capsys.readouterr()
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["code"] == "TooLarge"


@pytest.mark.parametrize("argv", [
    ["ort"], ["ort", "--via", "fast"], ["tight"], ["minors", "--pattern", "h33"],
], ids=["ort", "ort_fast", "tight", "minors"])
def test_enumerations_reject_class_size_above_bound(tmp_path, capsys, argv):
    # `tight` printed a witness with a slot past "d" here and crashed
    obj = {"order": 3, "class_sizes": [3, 4, 5], "kind": "circuits",
           "circuits": [[[0, 2], [1, 3], [2, 4]], [[0, 1]]]}
    code = main(argv + ["--mm", _mm_file(tmp_path, obj)])
    out, _ = capsys.readouterr()
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out)["error"]["code"] == "TooLarge"


@pytest.mark.parametrize("argv", [
    ["ort", "--via", "nope", "--graph", "{k2}"],
    ["bogus"],
    ["ort", "--graph", "{k2}", "--threads", "2"],
    ["--threads", "x", "catalog", "list"],
    [],
    ["poly", "interlace"],
    ["poly", "global-interlace", "--mm", "{h33}"],
    ["poly", "bracket"],
    ["ort", "--mm", "{h33}", "--via", "eulerian"],
    ["ort", "--graph", "{k2}", "--seed", "9z"],
    ["ort", "--via", "fast", "--seed", "0a,2c,3c", "--mm", "{h33}"],
    ["ort", "--via", "fast", "--seed", "\u00b2a,2c,3c", "--mm", "{h33}"],
], ids=["unknown_choice", "unknown_verb", "misplaced_threads", "threads_not_int",
        "no_verb", "interlace_without_graph", "global_interlace_from_mm",
        "bracket_without_graph", "eulerian_from_mm", "seed_without_fast",
        "seed_class_zero", "seed_non_ascii_digit"])
def test_usage_errors_exit_1(k2_file, h33_file, capsys, argv):
    files = {"{k2}": k2_file, "{h33}": h33_file}
    code = main([files.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("mmlab: ") and err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out, _ = capsys.readouterr()
    assert exc.value.code == 0 and out.startswith("usage: mmlab")
