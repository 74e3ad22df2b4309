"""Span tracer for mmlab, installed from outside the package.

The tracer replaces selected functions and methods with timing wrappers.  A
module-level function is replaced at every mmlab module namespace that binds
it (``orienting`` imports ``is_tight`` by name, for example); a method is
replaced on its class.  A name that does not exist in the code under test is
recorded as absent and skipped.

Each call of a wrapped function is one span: name, start, end and the span
that was open in the same thread when it began.  Spans are kept in per-thread
arrays and summarised when tracing stops; self time is a span's duration
minus the durations of its direct children.  Generator functions are counted
by the items they yield, attributed to the span open when the generator was
created.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from array import array
from collections import defaultdict

# (module, qualified name) of every function timed as a span.
SPANS = [
    ("fields", "rank_of_vectors"), ("fields", "rref"), ("fields", "null_space"),
    ("matroids", "Matroid.rank_of"), ("matroids", "Matroid.minor"),
    ("matroids", "Matroid.circuits"),
    ("multimatroids", "Multimatroid._rank"),
    ("multimatroids", "Multimatroid._rank_circuits"),
    ("multimatroids", "Multimatroid.restrict"),
    ("multimatroids", "Multimatroid.delete"),
    ("multimatroids", "Multimatroid.minor"),
    ("multimatroids", "Multimatroid.circuits"),
    ("multimatroids", "is_multimatroid"), ("multimatroids", "is_tight"),
    ("multimatroids", "tight_quick"), ("multimatroids", "isomorphic"),
    ("multimatroids", "cycle_space_avoiding"),
    ("polynomials", "q1"), ("polynomials", "q1_avoiding"),
    ("polynomials", "interlace"), ("polynomials", "global_interlace"),
    ("polynomials", "bracket"), ("polynomials", "shifted_power_sum"),
    ("isotropic", "Graph.nullity_mask"), ("isotropic", "from_graph"),
    ("isotropic", "ort_via_eulerian"), ("isotropic", "isotropic_multimatroid"),
    ("isotropic", "z_quaternary"),
    ("orienting", "orienting_transversals"), ("orienting", "orienting_from_seed"),
    ("orienting", "_transition_eval"), ("orienting", "_q1_eval"),
    ("orienting", "evaluation_suite"),
    ("catalog", "classify_binary_tight3"), ("catalog", "has_minor"),
    ("catalog", "is_strongly_binary"), ("catalog", "tight_extension"),
    ("serialize", "mm_from_dict"), ("serialize", "poly_to_dict"),
    ("cli", "main"),
]
# Generator functions, counted by items yielded.
GENERATORS = [("multimatroids", "Carrier.transversals"),
              ("multimatroids", "Carrier.near_transversals")]
# Constructors, counted by calls.
CONSTRUCTORS = [("matroids", "Matroid.__init__", "matroids.Matroid.built")]

# Children whose presence under a Multimatroid._rank span means the rank was
# computed rather than found in a cache.
RANK_KERNELS = ("fields.rank_of_vectors", "matroids.Matroid.rank_of",
                "multimatroids.Multimatroid._rank_circuits")


class _Buffer:
    """Spans of one thread: parallel arrays indexed by span number."""

    __slots__ = ("stack", "start", "end", "parent", "name", "gens", "counts")

    def __init__(self):
        self.stack: list[int] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("H")
        self.gens: list[tuple[int, int, int]] = []  # (generator, parent span, yielded)
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------------

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = _Buffer()
            self._buffers.append(buf)
            return buf

    def _span(self, k: int, fn, pre=None, post=None):
        get, perf = self._buffer, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            b = get()
            if pre is not None:
                args = pre(b, args)
            stack = b.stack
            i = len(b.start)
            b.parent.append(stack[-1] if stack else -1)
            b.name.append(k)
            b.end.append(0.0)
            stack.append(i)
            b.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                b.end[i] = perf()
                stack.pop()
            if post is not None:
                post(b, result)
            return result
        return wrapper

    def _generator(self, k: int, fn):
        get = self._buffer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            b = get()
            parent = b.stack[-1] if b.stack else -1
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                b.gens.append((k, parent, n))
        return wrapper

    def _counter(self, key: str, fn):
        get = self._buffer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            get().counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------------

    def install(self, mods) -> None:
        """Wrap every listed name in the given modules (attributes of `mods`
        named after the mmlab modules)."""
        loaded = [getattr(mods, name) for name in vars(mods)]

        def resolve(module, qualname):
            owner = getattr(mods, module, None)
            parts = qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            if owner is None or parts[-1] not in vars(owner):
                self.absent.append(f"{module}.{qualname}")
                return None, None
            return owner, vars(owner)[parts[-1]]

        def replace(owner, attr, original, wrapper):
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
                return
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

        extra = {
            "fields.rank_of_vectors": (_count_vectors, None),
            "orienting.orienting_transversals": (None, _count_found),
        }
        for module, qualname in SPANS:
            owner, fn = resolve(module, qualname)
            if fn is None:
                continue
            name = f"{module}.{qualname}"
            self.names.append(name)
            pre, post = extra.get(name, (None, None))
            replace(owner, qualname.split(".")[-1], fn,
                    self._span(len(self.names) - 1, fn, pre, post))
        for module, qualname in GENERATORS:
            owner, fn = resolve(module, qualname)
            if fn is None:
                continue
            self.names.append(f"{module}.{qualname}")
            replace(owner, qualname.split(".")[-1], fn,
                    self._generator(len(self.names) - 1, fn))
        for module, qualname, key in CONSTRUCTORS:
            owner, fn = resolve(module, qualname)
            if fn is not None:
                replace(owner, qualname.split(".")[-1], fn, self._counter(key, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- summaries --------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, plus the nesting-derived
        counts the layer metrics use."""
        names = self.names
        index = {n: i for i, n in enumerate(names)}
        calls = [0] * len(names)
        incl = [0.0] * len(names)
        self_s = [0.0] * len(names)
        rank_k = index.get("multimatroids.Multimatroid._rank", -1)
        minor_k = index.get("multimatroids.Multimatroid.minor", -1)
        has_minor_k = index.get("catalog.has_minor", -1)
        ort_k = index.get("orienting.orienting_transversals", -1)
        trans_k = index.get("multimatroids.Carrier.transversals", -1)
        kernels = {index[n] for n in RANK_KERNELS if n in index}
        rank_misses = minors_in_has_minor = ort_tested = 0
        counts: dict[str, int] = defaultdict(int)
        yielded = [0] * len(names)
        for b in self._buffers:
            n = len(b.start)
            child = array("d", bytes(8 * n))
            missed = bytearray(n)
            for i, (p, k, s, e) in enumerate(zip(b.parent, b.name, b.start, b.end)):
                calls[k] += 1
                incl[k] += e - s
                if p >= 0:
                    child[p] += e - s
                    pk = b.name[p]
                    if pk == rank_k and k in kernels:
                        missed[p] = 1
                    elif pk == has_minor_k and k == minor_k:
                        minors_in_has_minor += 1
            for i, (k, s, e) in enumerate(zip(b.name, b.start, b.end)):
                self_s[k] += e - s - child[i]
                if k == rank_k and missed[i]:
                    rank_misses += 1
            for k, p, y in b.gens:
                calls[k] += 1
                yielded[k] += y
                if k == trans_k and p >= 0 and b.name[p] == ort_k:
                    ort_tested += y
            for key, v in b.counts.items():
                counts[key] += v
        # Ratios derived from nesting, each with its base.
        ratios = {}
        if rank_k >= 0:
            ratios["multimatroids.Multimatroid._rank.hit_ratio"] = (
                calls[rank_k] - rank_misses, calls[rank_k])
        if has_minor_k >= 0 and minor_k >= 0:
            ratios["catalog.has_minor.minors_per_call"] = (
                minors_in_has_minor, calls[has_minor_k])
        if ort_k >= 0 and trans_k >= 0:
            ratios["orienting.orienting_transversals.yield_ratio"] = (
                counts["orienting.orienting_transversals.found"], ort_tested)
        return {
            "spans": {n: {"calls": calls[i], "incl_s": incl[i], "self_s": self_s[i],
                          "yielded": yielded[i]} for i, n in enumerate(names)},
            "counts": dict(counts),
            "ratios": {n: {"numerator": a, "base": b, "value": a / b if b else 0.0}
                       for n, (a, b) in ratios.items()},
            "absent": list(self.absent),
        }

    def write_spans(self, path) -> int:
        """Write every span (name, start, end, parent) to `path`: one JSON
        header line, then per thread the raw start/end (f64), parent (i32)
        and name (u16) arrays.  Returns the span count."""
        header = {"names": self.names,
                  "threads": [len(b.start) for b in self._buffers],
                  "arrays": ["start:f64", "end:f64", "parent:i32", "name:u16"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for b in self._buffers:
                for arr in (b.start, b.end, b.parent, b.name):
                    arr.tofile(fh)
        return sum(header["threads"])


def _count_vectors(b: _Buffer, args):
    if len(args) < 2:
        return args
    field, vectors = args[0], list(args[1])
    b.counts["fields.rank_of_vectors.vectors"] += len(vectors)
    if field == 4:
        b.counts["fields.rank_of_vectors.gf4_calls"] += 1
    return (field, vectors) + tuple(args[2:])


def _count_found(b: _Buffer, result):
    b.counts["orienting.orienting_transversals.found"] += len(result)
