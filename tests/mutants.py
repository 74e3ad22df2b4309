"""Mutation check for the exact kernels (standard library only).

Copies the repository to a temporary directory, then applies one `ast`
mutation at a time to the kernel functions (or classes) listed in KERNELS
and runs the fast test files in TEST_FILES on the mutated copy, in one
sequential pytest subprocess per mutant.  A mutant is killed when that run fails (or times
out), and survives when it passes.  Each survivor should be listed in
EQUIVALENT with a one-line reason, or be killed by a new test.

Mutations, inside each kernel function and the functions nested in it (for a
kernel class, inside each of its methods):
  - swap ^ and |, << and >>, < and <=, > and >= (also in augmented
    assignments);
  - add or subtract one from an integer constant of absolute value at most 2;
  - replace one statement by `pass` (docstrings are left alone).

Usage, from the repository root:

    python3 tests/mutants.py            # every mutant, about 4 s each
    python3 tests/mutants.py --list     # the mutants, without running them
    python3 tests/mutants.py --only fields.rref

Exits 1 when a mutant survives that EQUIVALENT does not list.  pytest does
not collect this file (it is not named test_*.py).
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KERNELS = {
    "fields": ("_echelon", "_reduce_gf4", "rref", "contract_columns", "_doubled",
               "_with_a_multiple", "leaf_nullities", "circuit_picks"),
    "multimatroids": ("Multimatroid.bases", "Multimatroid.nullity_histogram", "_table_indices",
                      "_rank_table_index", "_closure_masks", "_closures_of_steps",
                      "_nullity_table", "_slot_masks",
                      "_order_one_minor_loops",
                      "near_transversal_scan", "tight_quick", "_masks", "_skew_pair_counts",
                      "odd_skew_pair", "_cycle_space", "_rank_table", "same_rank_oracle",
                      "check_iso_bounds", "isomorphic"),
    "matroids": ("minimal_sets",),
    "orienting": ("_DeletionTables",),
    "catalog": ("_minor_histograms", "has_minor", "tight_extension"),
    "polynomials": ("_toggle_histogram", "bracket"),
}
TEST_FILES = ("tests/test_fields.py", "tests/test_walk.py", "tests/test_matroids.py",
              "tests/test_multimatroids.py", "tests/test_isotropic.py", "tests/test_orienting.py",
              "tests/test_oracle_routes.py", "tests/test_catalog.py", "tests/test_polynomials.py")
TIMEOUT_S = 300

SWAPS = {ast.BitXor: ast.BitOr, ast.BitOr: ast.BitXor,
         ast.LShift: ast.RShift, ast.RShift: ast.LShift,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}

# Survivors that no test can kill, with the reason each leaves every output
# unchanged.  Keys are mutant ids as printed by --list.
EQUIVALENT = {
    "fields._echelon+11:19 Lt->LtE":
        "r = lo ^ b equals lo only for b = 0, and no basis vector is zero",
    "fields._reduce_gf4+6:12 BitOr->BitXor":
        "the two bits of the coefficient sit at different positions",
    "fields._reduce_gf4+14:8 BitOr->BitXor":
        "the two bits of the coefficient sit at different positions",
    "fields.rref+11:23 BitOr->BitXor":
        "x has at most n bits, so the sentinel bit 1 << n is clear in it",
    "fields.contract_columns+14:19 Lt->LtE":
        "as in _echelon: no basis vector is zero",
    "fields.contract_columns+17:53 0->1":
        "the first entry of the fallback triple is sliced off",
    "fields.contract_columns+17:53 0->-1":
        "the first entry of the fallback triple is sliced off",
    "fields.contract_columns+19:17 BitOr->BitXor":
        "the part shifted down sits at p and above, the kept part below p",
    "fields.contract_columns+20:17 BitOr->BitXor":
        "the part shifted down sits at p and above, the kept part below p",
    "fields.contract_columns+19:48 1->2":
        "the mask then also keeps bit p, a pivot row, which the reduction left zero",
    "fields.contract_columns+20:48 1->2":
        "the mask then also keeps bit p, a pivot row, which the reduction left zero",
    "fields._doubled+11:29 BitOr->BitXor":
        "1 and 1 << 2w are different bits for w > 0, and at w = 0 the other factor is 0",
    "fields._doubled+15:15 BitOr->BitXor":
        "the two halves of the a-multiple sit in different planes",
    "fields._doubled+17:13 BitOr->BitXor":
        "lo has at most w bits, below hi << w",
    "fields._with_a_multiple+8:11 Lt->LtE":
        "as in _echelon: no basis vector is zero",
    "fields.leaf_nullities+20:19 Lt->LtE":
        "as in _echelon: no basis vector is zero",
    "fields.circuit_picks+27:16 BitOr->BitXor":
        "a candidate is shifted above the tag block, so its tag bit is clear",
    "fields.circuit_picks+30:23 Lt->LtE":
        "as in _echelon: no basis vector is zero",
    "multimatroids._rank_table_index+2:24 0->-1":
        "a start of -1 shifts every position by minus the table's length, which negative "
        "indexing undoes",
    "multimatroids._skew_pair_counts+7:12 BitOr->BitXor":
        "a slot both subtransversals hold leaves one element or none in its class, no pair",
    "multimatroids._skew_pair_counts+8:16 BitOr->BitXor":
        "a union of two subtransversals meets a class at most twice, so the two terms never "
        "both hold",
    "multimatroids._skew_pair_counts+8:21 BitOr->BitXor":
        "with slot 0 in the union at most one of slots 1 and 2 is, so | and ^ agree",
    "multimatroids._cycle_space+17:16 BitOr->BitXor":
        "m is not in the space, so its coset is disjoint from it",
    "multimatroids.isomorphic+5:4 drop `if sorted(z1.carrier.class_sizes) != sor`":
        "an early exit: the class invariants carry the class sizes, and unequal ones end "
        "the search",
    "multimatroids.isomorphic+6:8 drop `return None`":
        "an early exit: the class invariants carry the class sizes, and unequal ones end "
        "the search",
    "multimatroids.isomorphic+9:4 drop `if sorted(map(len, cs1)) != sorted(map(l`":
        "an early exit: the element invariants fix the multiset of circuit lengths",
    "multimatroids.isomorphic+10:8 drop `return None`":
        "an early exit: the element invariants fix the multiset of circuit lengths",
    "multimatroids.isomorphic+23:4 drop `if sorted(inv1) != sorted(inv2):`":
        "an early exit: each class maps onto an unused class of equal invariant, so the "
        "search finds no map",
    "multimatroids.isomorphic+24:8 drop `return None`":
        "an early exit: each class maps onto an unused class of equal invariant, so the "
        "search finds no map",
    "multimatroids.isomorphic+47:16 drop `if any((einv1[c1, s] != einv2[c2, perm[s`":
        "a pruning: an isomorphism keeps each element's invariant, so no cut branch maps",
    "multimatroids.isomorphic+48:20 drop `continue`":
        "a pruning: an isomorphism keeps each element's invariant, so no cut branch maps",
    "multimatroids.isomorphic+56:8 drop `return False`":
        "assign's result is only tested for truth, and None is false too",
    "catalog.has_minor+33:4 drop `return None`":
        "falling off the end returns None too",
    # tight_extension: forcing that goes through leaves the three completions
    # of every near-transversal at {m, m, m+1}.  Unit steps, the exclusion and
    # tightness then hold at every subtransversal, and two slots of a class
    # hold its minimum, as at most one raises.  Local exchange never failed
    # after forcing either: not on any rank table of order 1-3 (all of them)
    # nor on 4967 sampled tables of order 4, perturbed real ones among them.
    "catalog.tight_extension+27:19 0->1":
        "every entry is written before it is read: forcing reads slots 0 and 1 of earlier "
        "transversals, the minima later entries",
    "catalog.tight_extension+27:19 0->-1":
        "every entry is written before it is read: forcing reads slots 0 and 1 of earlier "
        "transversals, the minima later entries",
    "catalog.tight_extension+36:16 drop `if abs(va - vb) > 1:`":
        "the near-transversal between va and vb then has a step of 2, which the unit-step "
        "check refuses",
    "catalog.tight_extension+37:20 drop `return None`":
        "the near-transversal between va and vb then has a step of 2, which the unit-step "
        "check refuses",
    "catalog.tight_extension+36:34 1->2":
        "the near-transversal between va and vb then has a step of 2, which the unit-step "
        "check refuses",
    "catalog.tight_extension+39:8 drop `if len(wants) > 1:`":
        "a forced value one class does not want leaves that class's near-transversal off "
        "{m, m, m+1}, which the unit-step, exclusion or tightness check refuses",
    "catalog.tight_extension+40:12 drop `return None`":
        "a forced value one class does not want leaves that class's near-transversal off "
        "{m, m, m+1}, which the unit-step, exclusion or tightness check refuses",
    "catalog.tight_extension+39:24 1->2":
        "a forced value one class does not want leaves that class's near-transversal off "
        "{m, m, m+1}, which the unit-step, exclusion or tightness check refuses",
    "catalog.tight_extension+45:51 2->3":
        "after forcing two slots of a class hold its minimum",
    "catalog.tight_extension+45:51 2->1":
        "after forcing two slots of a class hold its minimum",
    "catalog.tight_extension+52:8 drop `for c, d in enumerate(code):`":
        "unit steps, the exclusion and tightness hold after forcing, and local exchange "
        "never failed there",
    "catalog.tight_extension+53:12 drop `if d == 0:`":
        "unit steps, the exclusion and tightness hold after forcing, and local exchange "
        "never failed there",
    "catalog.tight_extension+53:20 0->-1":
        "unit steps, the exclusion and tightness hold after forcing, and local exchange "
        "never failed there",
    "catalog.tight_extension+55:16 drop `if any((step not in (0, 1) for step in s`":
        "unit steps hold after forcing",
    "catalog.tight_extension+56:20 drop `return None`":
        "unit steps hold after forcing",
    "catalog.tight_extension+57:16 drop `if steps.count(1) > 1:`":
        "the exclusion holds after forcing",
    "catalog.tight_extension+58:20 drop `return None`":
        "the exclusion holds after forcing",
    "catalog.tight_extension+57:31 1->2":
        "the exclusion holds after forcing, and no step is 2",
    "catalog.tight_extension+57:36 1->2":
        "the exclusion holds after forcing",
    "catalog.tight_extension+59:16 drop `if 1 in steps:`":
        "tightness holds after forcing, and local exchange never failed there",
    "catalog.tight_extension+60:20 drop `raising.append(i + (steps.index(1) + 1) `":
        "local exchange never failed after forcing",
    "catalog.tight_extension+61:16 drop `if code.count(0) == 1:`":
        "tightness holds after forcing",
    "catalog.tight_extension+62:20 drop `return None`":
        "tightness holds after forcing",
    "catalog.tight_extension+61:32 0->-1":
        "tightness holds after forcing",
    "catalog.tight_extension+61:38 1->0":
        "tightness holds after forcing",
    "catalog.tight_extension+63:8 drop `for a, b in combinations(raising, 2):`":
        "local exchange never failed after forcing",
    "catalog.tight_extension+64:12 drop `if null[a + b - i] != n + 2:`":
        "local exchange never failed after forcing",
    "catalog.tight_extension+65:16 drop `return None`":
        "local exchange never failed after forcing",
    "matroids.minimal_sets+5:19 LtE->Lt":
        "the candidates are deduplicated, so no kept set equals a later one",
    "orienting._DeletionTables+22:32 1->2":
        "the ok-masks have k bits, so translation entries from 2^k up go unread",
    "orienting._DeletionTables+41:54 Gt->GtE":
        "t == p never reaches the shift: that slot is skipped",
    "orienting._DeletionTables+42:16 BitOr->BitXor":
        "each slot's bits are masked to that slot, so they are disjoint",
    "polynomials._toggle_histogram+11:52 1->2":
        "no leaf has nullity n + 1, and shifted_power_sum skips a zero count",
    "polynomials.bracket+5:52 1->2":
        "no leaf has nullity n + 1, and Polynomial drops a trailing zero",
}


def _code_nodes(node: ast.AST):
    """node and the nodes below it, breadth first, leaving out annotations
    (never evaluated here, as every module imports annotations lazily)."""
    queue = [node]
    while queue:
        node = queue.pop(0)
        yield node
        queue.extend(child for name, child in ast.iter_fields(node)
                     if name not in ("annotation", "returns") and isinstance(child, ast.AST))
        queue.extend(child for name, children in ast.iter_fields(node)
                     if isinstance(children, list) for child in children
                     if isinstance(child, ast.AST))


def _sites(fn: ast.FunctionDef):
    """(description, apply) for every mutation inside fn, in a fixed walk
    order; apply() edits the tree in place.  A description starts with the
    line (relative to the def) and column of the mutated node."""
    out = []

    def where(node) -> str:
        return f"+{node.lineno - fn.lineno}:{node.col_offset}"

    for node in _code_nodes(fn):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            new = SWAPS[type(node.op)]
            out.append((f"{where(node)} {type(node.op).__name__}->{new.__name__}",
                        lambda node=node, new=new: setattr(node, "op", new())))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    new = SWAPS[type(op)]

                    def swap(node=node, i=i, new=new):
                        node.ops[i] = new()
                    out.append((f"{where(node)} {type(op).__name__}->{new.__name__}", swap))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and abs(node.value) <= 2):
            for step in (1, -1):
                out.append((f"{where(node)} {node.value}->{node.value + step}",
                            lambda node=node, step=step: setattr(node, "value",
                                                                 node.value + step)))
        for field in ("body", "orelse"):
            stmts = getattr(node, field, None)
            if not isinstance(stmts, list):
                continue
            for i, stmt in enumerate(stmts):
                if not isinstance(stmt, ast.stmt) or isinstance(stmt, ast.Pass):
                    continue
                if (i == 0 and isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str)):
                    continue  # a docstring
                first = ast.unparse(stmt).splitlines()[0][:40]

                def drop(stmts=stmts, i=i):
                    stmts[i] = ast.copy_location(ast.Pass(), stmts[i])
                out.append((f"{where(stmt)} drop `{first}`", drop))
    return out


def mutants(root: Path, module: str, name: str) -> list[str]:
    """The ids of every mutant of module.name in the tree at root."""
    tree = ast.parse((root / "src" / "mmlab" / f"{module}.py").read_text())
    ids = [f"{module}.{name}{desc}" for desc, _ in _sites(_function(tree, name))]
    assert len(set(ids)) == len(ids), "two mutants share an id"
    return ids


def _function(tree: ast.Module, name: str) -> ast.FunctionDef | ast.ClassDef:
    """The function or class named name, or Class.method for a method."""
    node = tree
    for part in name.split("."):
        node = next((n for n in node.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == part), None)
        if node is None:
            raise SystemExit(f"no function or class {name}")
    return node


def mutated_source(root: Path, module: str, name: str, index: int) -> str:
    """The source of module in the tree at root with mutant `index` of
    function name applied."""
    tree = ast.parse((root / "src" / "mmlab" / f"{module}.py").read_text())
    _sites(_function(tree, name))[index][1]()
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def run_tests(copy: Path) -> bool:
    """True when the test files pass on the copy."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        # a fixed hypothesis seed draws the same examples for every mutant,
        # and the first failing one kills it unshrunk (tests/conftest.py)
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               "--hypothesis-seed=0", "--hypothesis-profile=no-shrink",
                               *TEST_FILES], cwd=copy, env=env,
                              timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--list", action="store_true", help="print the mutant ids and stop")
    p.add_argument("--only", help="one kernel, as module.function or module.Class.method")
    args = p.parse_args(argv)
    targets = [(m, f) for m, fs in KERNELS.items() for f in fs
               if args.only in (None, f"{m}.{f}")]
    if args.list:
        for m, f in targets:
            print("\n".join(mutants(ROOT, m, f)))
        return 0
    survived, unlisted, total = [], [], 0
    # SIGTERM as SystemExit: subprocess.run then kills the running pytest and
    # the temporary copy is removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        if not run_tests(copy):
            print("the unmutated tests fail; nothing to measure")
            return 1
        # the ids and the mutants both come from the copy, which holds the
        # unmutated module whenever they are read, whatever happens to ROOT
        for m, f in targets:
            target = copy / "src" / "mmlab" / f"{m}.py"
            original = target.read_text()
            ids = mutants(copy, m, f)
            total += len(ids)
            for i, mid in enumerate(ids):
                target.write_text(mutated_source(copy, m, f, i))
                start = time.perf_counter()
                killed = not run_tests(copy)
                target.write_text(original)
                verdict = "killed" if killed else \
                    "equivalent" if mid in EQUIVALENT else "SURVIVED"
                print(f"{verdict:10} {time.perf_counter() - start:5.1f}s  {mid}", flush=True)
                if not killed:
                    survived.append(mid)
                    if mid not in EQUIVALENT:
                        unlisted.append(mid)
    print(f"{total} mutants: {total - len(survived)} killed, {len(survived)} survived, "
          f"{len(survived) - len(unlisted)} of them listed as equivalent")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
