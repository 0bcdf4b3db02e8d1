"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

All tolerances are exact (bit-exact scalar equality); nothing is deferred
to later calibration.  Two clauses are mathematically unattainable and are
implemented faithfully and left red, each failing with its blocking
analysis in the assertion message:

* criterion 1's mutation clause: several single-coefficient +1 mutations
  of sl2/nambu4 remain genuine (3-)Lie algebras (sl2's [e,f] -> 2h mutant
  is sl2 with e, f rescaled; the nambu4 mutations scale diagonal entries
  of the symmetric matrix characterizing 4-dimensional fundamental-
  identity brackets), so no correct validator can reject them;
* criterion 4's violation clause: the comultiplication sends index 0 to
  (0,0) and i to i0 + 0i, so every basis column of its iterate is a fully
  symmetric tensor and NO permutation, first-entry-moving or otherwise,
  changes it.  The first-entry-fixing invariance (the part the
  construction actually relies on) holds and stays green.
"""

import copy
import random
import time
from fractions import Fraction
from itertools import permutations

from helpers import BUNDLED, algebra, kit, tsd_pair
from tsdlink.algebra import builtin_algebra, dump_algebra, load_algebra, validate_algebra
from tsdlink.braiding import check_braiding
from tsdlink.braids import parse_braid_word
from tsdlink.fields import RATIONALS
from tsdlink.invariant import (
    check_framed_braid_relations,
    markov_report,
    parse_fixture_file,
    trace_invariant,
)
from tsdlink.braids import FramedBraidWord
from tsdlink.tensor import SparseTensor, delta_n, permute
from tsdlink.tsd import check_tsd_properties

from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures" / "invariants.tsv"


def _line(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {label}: {status}{suffix}")


def test_criterion_1_axiom_validators():
    start = time.monotonic()
    jacobi_specs = [
        algebra("sl2"),
        algebra("so3"),
        algebra("heisenberg3"),
        builtin_algebra("abelian", dim=1),
        builtin_algebra("abelian", dim=2),
        builtin_algebra("abelian", dim=3),
        builtin_algebra("abelian", dim=4),
    ]
    ok = True
    for spec in jacobi_specs:
        ok = ok and validate_algebra(spec).passed
    nambu_report = validate_algebra(algebra("nambu4"))
    filippov = [r for r in nambu_report.results if r.name == "filippov"][0]
    ok = ok and filippov.ok and filippov.detail == "1024 5-tuples"
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _line(1, "axiom validators", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_1_every_mutation_rejected():
    undetected = []
    for name in ("sl2", "nambu4"):
        doc = dump_algebra(algebra(name))
        for bpos, bracket in enumerate(doc["brackets"]):
            for vpos, term in enumerate(bracket["value"]):
                mutated = copy.deepcopy(doc)
                mterm = mutated["brackets"][bpos]["value"][vpos]
                mterm["coeff"] = str(Fraction(mterm["coeff"]) + 1)
                report = validate_algebra(load_algebra(mutated))
                if report.passed:
                    undetected.append((name, tuple(bracket["args"]), term["idx"]))
                else:
                    failure = report.failures[0]
                    assert failure.witness is not None
    _line(1, "every single-coefficient mutation rejected", not undetected, f"undetected: {undetected}")
    assert not undetected, (
        "unattainable as stated: these +1 mutants still satisfy the defining "
        f"identities and are genuine (3-)Lie algebras, so no correct validator "
        f"can reject them: {undetected}.  sl2 (2,3)->2h is sl2 with e, f "
        "rescaled by sqrt(2); the nambu4 mutants scale diagonal entries of the "
        "symmetric matrix characterizing fundamental-identity 3-brackets on "
        "k^4.  Axiom-breaking mutations are all rejected with witnesses "
        "(tests/test_algebra.py::test_mutation_detection_landscape)."
    )


def test_criterion_2_tsd_suite():
    start = time.monotonic()
    ok = True
    details = []
    for name, dim in BUNDLED:
        report = check_tsd_properties(tsd_pair(name, dim))
        ok = ok and report.passed
        checks = {r.name.split("[")[0] for r in report.results}
        required = {"tsd", "tsd-tilde", "coalgebra-morphism", "reversibility", "mixed"}
        if algebra(name, dim).arity == 2:
            required |= {"q-self-distributive", "tsd-is-nested-q"}
        ok = ok and required <= checks
        # both reversibility leg orders must be present and pass
        rev = [r for r in report.results if r.name.startswith("reversibility")]
        ok = ok and len(rev) == 4 and all(r.ok for r in rev)
        details.append(f"{name}{dim or ''}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _line(2, "tsd suite", ok, f"{', '.join(details)}; {elapsed:.1f}s")
    assert ok
    assert elapsed < 30.0


def test_criterion_3_braiding_suite():
    start = time.monotonic()
    ok = True
    for name, dim in [("abelian", 1), ("heisenberg3", None), ("so3", None), ("sl2", None), ("nambu4", None)]:
        report = check_braiding(kit(name, dim))
        ok = ok and report.passed
        by_name = {r.name: r for r in report.results}
        expected_columns = (algebra(name, dim).dim + 1) ** 6
        ok = ok and by_name["ybe"].detail == f"{expected_columns} columns"
        relations = check_framed_braid_relations(kit(name, dim), n=3)
        ok = ok and relations.passed
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _line(3, "braiding suite", ok, f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 120.0


def test_criterion_4_first_entry_fixing_invariance():
    ok = True
    for d in (1, 2, 3, 4):
        for n in (3, 4):
            for tail in permutations(range(1, n)):
                perm = (0,) + tail
                for i in range(d + 1):
                    t = delta_n(SparseTensor.basis((i,), RATIONALS), n)
                    ok = ok and permute(t, perm) == t
    _line(4, "first-entry-fixing permutations fix the comultiplication", ok)
    assert ok


def test_criterion_4_violating_permutation_exists():
    witnesses = []
    for d in (1, 2, 3, 4):
        for n in (3, 4):
            for perm in permutations(range(n)):
                if perm[0] == 0:
                    continue
                for i in range(d + 1):
                    t = delta_n(SparseTensor.basis((i,), RATIONALS), n)
                    if permute(t, perm) != t:
                        witnesses.append((d, n, perm, i))
    _line(4, "some first-entry-moving permutation violates", bool(witnesses))
    assert witnesses, (
        "unattainable as stated: the comultiplication maps index 0 to (0,0) "
        "and index i to i(x)0 + 0(x)i, so every basis column of the iterated "
        "comultiplication is a fully symmetric tensor; the exhaustive search "
        "over all first-entry-moving permutations (n in {3,4}, d in 1..4) "
        "found no violation, hence it is cocommutative and no witness exists."
    )


def _independent_cycle_count(tokens: list[tuple[int, int]], n: int) -> int:
    """Cycle count of the closure permutation, by direct transposition walk."""
    perm = list(range(n))
    for index, exp in tokens:
        for _ in range(abs(exp) % 2):
            perm[index - 1], perm[index] = perm[index], perm[index - 1]
    seen = [False] * n
    cycles = 0
    for i in range(n):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def test_criterion_5_abelian_closed_form():
    rng = random.Random(424242)
    ok = True
    checked = 0
    for d in (1, 2):
        k = kit("abelian", d)
        for _ in range(20):
            n = rng.randint(1, 3)
            tokens = []
            sigma_tokens = []
            for _ in range(rng.randint(0, 6)):
                if n > 1 and rng.random() < 0.7:
                    i, e = rng.randint(1, n - 1), rng.choice([1, -1, 2, -2])
                    tokens.append(f"s{i}^{e}")
                    sigma_tokens.append((i, e))
                else:
                    tokens.append(f"t{rng.randint(1, n)}^{rng.choice([1, -1, 2])}")
            word = parse_braid_word(" ".join(tokens), n)
            cycles = _independent_cycle_count(sigma_tokens, n)
            value = trace_invariant(k, word).value
            ok = ok and value == (d + 1) ** (2 * cycles)
            checked += 1
    _line(5, "abelian closed-form oracle", ok, f"{checked} random framed words")
    assert ok


def test_closed_form_every_bundled_algebra():
    # beside criterion 5: the trace counts components on every bundled algebra,
    # since it reads only the degree-preserving part of each generator
    rng = random.Random(515151)
    ok = True
    checked = 0
    for name, dim in BUNDLED:
        d = algebra(name, dim).dim
        for _ in range(6):
            n = rng.randint(1, 2 if name == "nambu4" else 3)
            tokens = [f"t{rng.randint(1, n)}^{rng.choice([1, -1, 2])}"]
            sigma_tokens = []
            for _ in range(rng.randint(0, 4) if n > 1 else 0):
                i, e = rng.randint(1, n - 1), rng.choice([1, -1, 2, -2, 3])
                tokens.append(f"s{i}^{e}")
                sigma_tokens.append((i, e))
            rng.shuffle(tokens)
            word = parse_braid_word(" ".join(tokens), n)
            cycles = _independent_cycle_count(sigma_tokens, n)
            ok = ok and trace_invariant(kit(name, dim), word).value == (d + 1) ** (2 * cycles)
            checked += 1
    _line(5, "closed form (d+1)^(2c) on every bundled algebra", ok, f"{checked} random framed words")
    assert ok


def test_criterion_6_invariance_harness():
    start = time.monotonic()
    ok = True
    details = []
    for name in ("sl2", "nambu4"):
        for text, n in (("s1 s1 s1", 2), ("s1 s2^-1 s1", 3)):
            report = markov_report(
                kit(name), parse_braid_word(text, n), trials=50, seed=20260808, moves=6, stabilize="off"
            )
            ok = ok and report.all_equal and report.relations.passed
            details.append(f"{name} {text!r}: {report.verdict()}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _line(6, "invariance harness", ok, f"{elapsed:.1f}s")
    for detail in details:
        print(f"  {detail}")
    assert ok
    assert elapsed < 120.0


def test_criterion_7_regression_fixtures():
    records = parse_fixture_file(FIXTURES.read_text())
    assert len(records) == 7
    ok = True
    for name, word_text, framings, value_text in records:
        algebra_name = name.split("-")[0]
        k = kit(algebra_name)
        word = parse_braid_word(word_text, len(framings))
        word = FramedBraidWord(word.strands, framings, word.letters)
        value = trace_invariant(k, word).value
        ok = ok and value == k.field.parse(value_text)
    _line(7, "regression fixtures reproduced bit-exactly", ok, f"{len(records)} fixtures")
    assert ok


def test_criterion_8_stabilization_report():
    verdicts = {}
    for mode in ("plain", "compensated"):
        for name, text, n in (("sl2", "s1 s1 s1", 2), ("nambu4", "s1 s1", 2)):
            report_a = markov_report(kit(name), parse_braid_word(text, n), trials=3, seed=31, moves=2, stabilize=mode)
            report_b = markov_report(kit(name), parse_braid_word(text, n), trials=3, seed=31, moves=2, stabilize=mode)
            flags_a = [t.equal for t in report_a.trials]
            flags_b = [t.equal for t in report_b.trials]
            assert flags_a == flags_b, "stabilization report must be deterministic for a fixed seed"
            assert [t.value for t in report_a.trials] == [t.value for t in report_b.trials]
            verdicts[(mode, name)] = "equal" if all(flags_a) else "unequal"
    _line(8, "stabilization report deterministic", True, str(verdicts))
    # verdicts are emitted, not asserted: the convention is an open question
    for (mode, name), verdict in verdicts.items():
        print(f"  stabilize={mode} {name}: traces {verdict}")
