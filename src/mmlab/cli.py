"""Command-line front end.

Every run is reproducible: the same inputs and flags produce byte-identical
output.  Success prints JSON (keys sorted, single trailing newline) and
exits 0; domain validation failures exit 2 with a machine-readable error
object; malformed input exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import catalog, isotropic, orienting, polynomials, serialize
from .errors import DECIMAL, MalformedInput, MMLabError, UnknownElement, decimal
from .matroids import Matroid
from .multimatroids import (Multimatroid, element_label, near_transversal_scan,
                            parse_element_label)

_RATIONAL = re.compile(f"^{DECIMAL}(/[1-9][0-9]*)?$")


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}")


def _parse_rational(text: str) -> Fraction:
    if not _RATIONAL.match(text.strip()):
        raise MalformedInput(f"not an integer or p/q rational: {text!r}")
    return Fraction(text.strip())


def _load_mm(path: str) -> Multimatroid:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"bad JSON in {path}: {exc}")
    return serialize.mm_from_dict(data)


def _load_graph(path: str) -> isotropic.Graph:
    return isotropic.parse_graph(_read_text(path))


def _load_matroid(path: str) -> Matroid:
    from .fields import parse_gfmat
    return Matroid.from_matrix(parse_gfmat(_read_text(path)))


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _labels(elems) -> list[str]:
    return [element_label(e) for e in sorted(elems)]


def _mm_from_args(args) -> Multimatroid:
    if getattr(args, "mm", None):
        return _load_mm(args.mm)
    if getattr(args, "graph", None):
        g = _load_graph(args.graph)
        return isotropic.from_graph(g, validate=False).multimatroid
    raise MalformedInput("need --mm or --graph")


def _parse_transversal(text: str):
    elems = [parse_element_label(tok) for tok in text.split(",") if tok.strip()]
    return tuple(sorted(elems))


def _cmd_poly(args) -> None:
    if args.which == "q1":
        z = _mm_from_args(args)
        poly = polynomials.q1(z)
    else:
        if not args.graph:
            raise MalformedInput(f"poly {args.which} needs --graph")
        g = _load_graph(args.graph)
        fn = {"interlace": polynomials.interlace,
              "global-interlace": polynomials.global_interlace,
              "bracket": polynomials.bracket}[args.which]
        poly = fn(g)
    _emit(serialize.poly_to_dict(poly))


def _cmd_ort(args) -> None:
    if args.seed is not None and args.via != "fast":
        raise MalformedInput("--seed needs --via fast")
    if args.via == "eulerian":
        if not args.graph:
            raise MalformedInput("--via eulerian needs --graph")
        ts = isotropic.ort_via_eulerian(_load_graph(args.graph))
    else:
        z = _mm_from_args(args)
        if args.via == "fast":
            seed = _parse_transversal(args.seed) if args.seed else \
                tuple((c, 2) for c in range(z.order))
            short = [e for e in seed if not z.carrier.contains(e)]
            if short and not args.seed:  # the default seed, named by its label
                raise UnknownElement(f"default seed element {element_label(short[0])} "
                                     "is not a carrier element; pass --seed")
            ts = orienting.orienting_from_seed(z, seed)
        else:
            ts = orienting.orienting_transversals(z)
    _emit({"count": len(ts), "transversals": [_labels(t) for t in ts]})


def _cmd_evals(args) -> None:
    z = _mm_from_args(args)
    if args.transversal:
        t = _parse_transversal(args.transversal)
    else:
        t = tuple((c, 0) for c in range(z.order))
    report = orienting.evaluation_suite(z, t)
    _emit(report.to_dict())


def _cmd_tight(args) -> None:
    z = _mm_from_args(args)
    excess, loose = near_transversal_scan(z, "is_multimatroid")
    out = {"multimatroid": excess is None}
    if excess is not None:
        s, x1, x2 = excess
        out["witness"] = {"subtransversal": _labels(s),
                          "elements": [element_label(x1), element_label(x2)]}
        out["tight"] = None
    else:
        out["tight"] = loose is None
        if loose is not None:
            s, miss = loose
            out["witness"] = {"subtransversal": _labels(s),
                              "missing_class": miss + 1}
    _emit(out)


def _cmd_minors(args) -> None:
    z = _mm_from_args(args)
    pattern = catalog.fixture(args.pattern)
    hit = catalog.has_minor(z, pattern)
    if hit is None:
        _emit({"found": False, "pattern": args.pattern})
        return
    x, witness = hit
    _emit({"found": True, "pattern": args.pattern,
           "contract": _labels(x),
           "isomorphism": {element_label(k): element_label(v)
                           for k, v in sorted(witness.items())}})


def _cmd_classify(args) -> None:
    z = _mm_from_args(args)
    report = catalog.classify_binary_tight3(z)
    _emit(report.to_dict())


def _cmd_tutte(args) -> None:
    m = _load_matroid(args.matroid)
    x = _parse_rational(args.x)
    y = _parse_rational(args.y)
    value = m.tutte(x, y)
    _emit(serialize.fraction_str(value))


def _cmd_catalog(args) -> None:
    if args.action == "list":
        _emit({"fixtures": list(catalog.FIXTURE_NAMES)})
        return
    if not args.name:
        raise MalformedInput("catalog dump needs a fixture name")
    z = catalog.fixture(args.name)
    _emit(serialize.mm_to_dict(z))


def _cmd_extend(args) -> None:
    z = _mm_from_args(args)
    ext = catalog.tight_extension(z)
    _emit({"extension": None if ext is None else serialize.mm_to_dict(ext)})


class _Parser(argparse.ArgumentParser):
    """Usage errors are malformed input: exit 1 and one stderr line."""

    def error(self, message):
        raise MalformedInput(" ".join(message.split()))

    def _parse_optional(self, arg_string):
        # a negative rational such as -1/2 is a value, never an option
        if _RATIONAL.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mmlab",
        description="Exact computations with multimatroids: transition "
                    "polynomial evaluations, orienting transversals, and "
                    "excluded-minor classification.")
    parser.add_argument("--threads", type=decimal, default=os.cpu_count() or 1,
                        help="worker cap, at least 1; enumeration is serial, so "
                             "output and speed are the same at any value")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("poly", help="polynomial computations")
    p.add_argument("which", choices=["q1", "interlace", "global-interlace",
                                     "bracket"])
    p.add_argument("--mm", help=".mm.json file or -")
    p.add_argument("--graph", help=".graph file or -")
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("ort", help="orienting transversals")
    p.add_argument("--mm")
    p.add_argument("--graph")
    p.add_argument("--via", choices=["brute", "eulerian", "fast"],
                   default="brute")
    p.add_argument("--seed", help="seed transversal for --via fast, "
                                  "e.g. 1c,2c,3c")
    p.set_defaults(func=_cmd_ort)

    p = sub.add_parser("evals", help="evaluation identity report")
    p.add_argument("--mm")
    p.add_argument("--graph")
    p.add_argument("--transversal", help="reference transversal, e.g. 1a,2b")
    p.set_defaults(func=_cmd_evals)

    p = sub.add_parser("tight", help="multimatroid and tightness check")
    p.add_argument("--mm")
    p.add_argument("--graph")
    p.set_defaults(func=_cmd_tight)

    p = sub.add_parser("minors", help="fixture minor scan")
    p.add_argument("--mm")
    p.add_argument("--graph")
    p.add_argument("--pattern", required=True, choices=list(catalog.FIXTURE_NAMES))
    p.set_defaults(func=_cmd_minors)

    p = sub.add_parser("classify", help="binarity classification of a tight "
                                        "3-matroid")
    p.add_argument("--mm")
    p.add_argument("--graph")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("tutte", help="two-variable rank polynomial value")
    p.add_argument("--matroid", required=True, help=".gfmat file or -")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_tutte)

    p = sub.add_parser("catalog", help="fixture catalog")
    p.add_argument("action", choices=["list", "dump"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("extend", help="tight extension search")
    p.add_argument("--mm")
    p.set_defaults(func=_cmd_extend)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise MalformedInput(f"--threads must be at least 1, got {args.threads}")
        args.func(args)
        return 0
    except MalformedInput as exc:
        sys.stderr.write(f"mmlab: {exc}\n")
        return 1
    except MMLabError as exc:
        _emit({"error": {"code": exc.code, "message": str(exc)}})
        return 2


if __name__ == "__main__":
    sys.exit(main())
