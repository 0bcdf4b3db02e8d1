import copy
import dataclasses
import json
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from helpers import BUNDLED, algebra, filippov_full_scan
from tsdlink.algebra import (
    AlgebraError,
    builtin_algebra,
    bracket2,
    bracket3,
    dump_algebra,
    load_algebra,
    validate_algebra,
)
from tsdlink.fields import RATIONALS, PrimeField


def _eps(perm):
    """Sign of a permutation given as a tuple of distinct integers."""
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_builtin_so3():
    spec = algebra("so3")
    assert bracket2(spec, {1: 1}, {2: 1}) == {3: 1}
    assert bracket2(spec, {2: 1}, {3: 1}) == {1: 1}
    assert bracket2(spec, {3: 1}, {1: 1}) == {2: 1}


def test_builtin_nambu4_epsilon_tensor():
    # expand epsilon_{abcd} by hand: the four sorted brackets
    spec = algebra("nambu4")
    assert bracket3(spec, {1: 1}, {2: 1}, {3: 1}) == {4: 1}
    assert bracket3(spec, {1: 1}, {2: 1}, {4: 1}) == {3: -1}
    assert bracket3(spec, {1: 1}, {3: 1}, {4: 1}) == {2: 1}
    assert bracket3(spec, {2: 1}, {3: 1}, {4: 1}) == {1: -1}


def test_builtin_abelian_empty_structure():
    spec = builtin_algebra("abelian", dim=2, arity=2)
    assert spec.structure == {}
    assert bracket2(spec, {1: 1}, {2: 1}) == {}


def test_builtin_unknown():
    with pytest.raises(AlgebraError):
        builtin_algebra("su5")
    with pytest.raises(AlgebraError):
        builtin_algebra("abelian", dim=0)
    with pytest.raises(AlgebraError):
        builtin_algebra("sl2", dim=3)


def test_bracket2_examples():
    sl2 = algebra("sl2")
    # basis order (h, e, f)
    assert bracket2(sl2, {1: 1}, {2: 1}) == {2: 2}
    assert bracket2(sl2, {2: 1}, {1: 1}) == {2: -2}
    so3 = algebra("so3")
    assert bracket2(so3, {1: 1, 2: 1}, {2: 1}) == {3: 1}


def test_bracket3_skew():
    spec = algebra("nambu4")
    assert bracket3(spec, {2: 1}, {1: 1}, {3: 1}) == {4: -1}
    assert bracket3(spec, {1: 1}, {1: 1}, {3: 1}) == {}


def test_bracket_arity_mismatch():
    with pytest.raises(AlgebraError):
        bracket2(algebra("nambu4"), {1: 1}, {2: 1})
    with pytest.raises(AlgebraError):
        bracket3(algebra("sl2"), {1: 1}, {2: 1}, {3: 1})
    with pytest.raises(AlgebraError):
        bracket2(algebra("sl2"), {5: 1}, {2: 1})


def test_bracket2_antisymmetry_random():
    rng = random.Random(5)
    for name in ("heisenberg3", "so3", "sl2"):
        spec = algebra(name)
        for _ in range(25):
            x = {i: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in range(1, spec.dim + 1)}
            y = {i: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in range(1, spec.dim + 1)}
            xy = bracket2(spec, x, y)
            yx = bracket2(spec, y, x)
            assert xy == {i: -c for i, c in yx.items()}


def test_bracket3_sign_under_s3_random():
    spec = algebra("nambu4")
    rng = random.Random(6)
    for _ in range(15):
        vecs = [
            {i: Fraction(rng.randint(-3, 3)) for i in range(1, 5)}
            for _ in range(3)
        ]
        base = bracket3(spec, *vecs)
        for perm in permutations(range(3)):
            expected = {i: _eps(perm) * c for i, c in base.items()}
            assert bracket3(spec, *(vecs[p] for p in perm)) == expected


def test_validate_all_builtins():
    for name, dim in BUNDLED:
        report = validate_algebra(algebra(name, dim))
        assert report.passed, report.failures


def test_validate_nambu4_against_independent_epsilon_oracle():
    """Brute-force Filippov with a self-contained epsilon-tensor bracket."""

    def dense_bracket(x, y, z):
        # [e_a, e_b, e_c] = eps_{abcd} e_d, expanded trilinearly
        out = [0] * 4
        for a, b, c in product(range(1, 5), repeat=3):
            coeff = x[a - 1] * y[b - 1] * z[c - 1]
            if coeff == 0 or len({a, b, c}) != 3:
                continue
            (d,) = set(range(1, 5)) - {a, b, c}
            out[d - 1] += coeff * _eps((a, b, c, d))
        return out

    def unit(i):
        v = [0] * 4
        v[i - 1] = 1
        return v

    for xs in product(range(1, 5), repeat=5):
        x1, x2, x3, x4, x5 = (unit(i) for i in xs)
        lhs = dense_bracket(dense_bracket(x1, x2, x3), x4, x5)
        rhs = [
            a + b + c
            for a, b, c in zip(
                dense_bracket(dense_bracket(x1, x4, x5), x2, x3),
                dense_bracket(x1, dense_bracket(x2, x4, x5), x3),
                dense_bracket(x1, x2, dense_bracket(x3, x4, x5)),
            )
        ]
        assert lhs == rhs, xs


def _mutate(doc, bracket_pos, value_pos, delta=1):
    doc = copy.deepcopy(doc)
    term = doc["brackets"][bracket_pos]["value"][value_pos]
    term["coeff"] = str(Fraction(term["coeff"]) + delta)
    return doc


def test_mutated_sl2_detected_with_witness():
    # [h,e] = 3e instead of 2e
    doc = dump_algebra(algebra("sl2"))
    assert doc["brackets"][0]["args"] == [1, 2]
    mutated = load_algebra(_mutate(doc, 0, 0))
    report = validate_algebra(mutated)
    assert not report.passed
    failure = report.failures[0]
    assert failure.name == "jacobi"
    assert failure.witness == (1, 2, 3)
    # [[h,e],f] + [[e,f],h] + [[f,h],e] = 3h + 0 - 2h = h
    assert failure.residual == {1: 1}


def test_mutation_detection_landscape():
    """Every axiom-breaking +1 mutation is rejected with a witness.

    Some single-coefficient mutations of the bundled algebras remain
    genuine (3-)Lie algebras and so cannot be rejected: scaling the h
    coefficient of [e,f] gives sl2 back with e, f rescaled by sqrt(2), and
    the stored nambu4 coefficients are the diagonal of the symmetric
    matrix that characterizes 4-dimensional 3-brackets satisfying the
    fundamental identity.  The expected undetected sets are frozen here;
    everything else must fail with a witness and residual.
    """
    still_valid = {
        "sl2": {((2, 3), 1)},
        "nambu4": {((1, 2, 3), 4), ((1, 2, 4), 3), ((1, 3, 4), 2), ((2, 3, 4), 1)},
    }
    for name in ("sl2", "nambu4"):
        doc = dump_algebra(algebra(name))
        undetected = set()
        for bpos, bracket in enumerate(doc["brackets"]):
            for vpos, term in enumerate(bracket["value"]):
                report = validate_algebra(load_algebra(_mutate(doc, bpos, vpos)))
                if report.passed:
                    undetected.add((tuple(bracket["args"]), term["idx"]))
                else:
                    failure = report.failures[0]
                    assert failure.witness is not None and failure.residual
        assert undetected == still_valid[name]


def test_sl2_rescaling_mutant_is_isomorphic_to_sl2():
    # [e,f] = 2h with [h,e] = 2e, [h,f] = -2f is sl2 under e' = sqrt(2) e,
    # f' = sqrt(2) f; verify Jacobi directly on all 27 basis triples.
    doc = dump_algebra(algebra("sl2"))
    assert doc["brackets"][2]["args"] == [2, 3]
    mutant = load_algebra(_mutate(doc, 2, 0))
    for i, j, k in product(range(1, 4), repeat=3):
        total = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            inner = bracket2(mutant, {x: 1}, {y: 1})
            for idx, c in bracket2(mutant, inner, {z: 1}).items():
                total[idx] = total.get(idx, 0) + c
        assert all(v == 0 for v in total.values()), (i, j, k)


def test_load_algebra_schema_errors():
    doc = dump_algebra(algebra("nambu4"))

    bad = copy.deepcopy(doc)
    bad["brackets"][0]["args"] = [1, 1, 2]
    with pytest.raises(AlgebraError, match="strictly increasing"):
        load_algebra(bad)

    bad = copy.deepcopy(doc)
    bad["brackets"][0]["args"] = [1, 2, 9]
    with pytest.raises(AlgebraError, match="out of range"):
        load_algebra(bad)

    bad = copy.deepcopy(doc)
    bad["brackets"].append(copy.deepcopy(bad["brackets"][0]))
    with pytest.raises(AlgebraError, match="duplicate"):
        load_algebra(bad)

    bad = copy.deepcopy(doc)
    bad["brackets"][0]["args"] = [1, 2]
    with pytest.raises(AlgebraError, match="expected 3 indices"):
        load_algebra(bad)

    bad = copy.deepcopy(doc)
    del bad["field"]
    with pytest.raises(AlgebraError, match="missing key"):
        load_algebra(bad)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: doc.update(brackets=5), "brackets must be a list"),
        (lambda doc: doc.update(brackets=[5]), "brackets must be a list"),
        (lambda doc: doc["brackets"][0].update(value=[3]), "value must be a list"),
        (lambda doc: doc["brackets"][0].update(value=3), "value must be a list"),
        (lambda doc: doc.update(arity=2.0), "arity must be 2 or 3, got 2.0"),
        (lambda doc: doc.update(dim=True), "dim must be a positive integer, got True"),
        (lambda doc: doc["brackets"][0].update(args=[True, 2]), r"args \[True, 2\]: index out of range"),
        (lambda doc: doc["brackets"][0]["value"][0].update(idx=True), "value index True out of range"),
    ],
    ids=[
        "brackets-int", "bracket-entry-int", "value-term-int", "value-int",
        "arity-float", "dim-bool", "args-bool", "idx-bool",
    ],
)
def test_load_algebra_rejects_malformed_brackets(edit, message):
    doc = dump_algebra(algebra("sl2"))
    edit(doc)
    with pytest.raises(AlgebraError, match=message):
        load_algebra(doc)


def test_dump_load_round_trip_all_builtins():
    for name, dim in BUNDLED:
        spec = algebra(name, dim)
        again = load_algebra(json.loads(json.dumps(dump_algebra(spec))))
        assert again.structure == spec.structure
        assert again.basis == spec.basis
        assert again.field == spec.field


def test_bundled_json_documents():
    # expected brackets written out here, so that a typo in a bundled document fails
    from importlib import resources

    root = resources.files("tsdlink").joinpath("algebras")
    nambu4 = {}
    for key in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
        (d,) = set(range(1, 5)) - set(key)
        nambu4[key] = {d: _eps(key + (d,))}
    expected = {
        "abelian1": (2, ("e1",), {}),
        "abelian2": (2, ("e1", "e2"), {}),
        "heisenberg3": (2, ("e1", "e2", "e3"), {(1, 2): {3: 1}}),
        "so3": (2, ("e1", "e2", "e3"), {(1, 2): {3: 1}, (1, 3): {2: -1}, (2, 3): {1: 1}}),
        "sl2": (2, ("h", "e", "f"), {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}}),
        "nambu4": (3, ("e1", "e2", "e3", "e4"), nambu4),
    }
    assert nambu4 == {(1, 2, 3): {4: 1}, (1, 2, 4): {3: -1}, (1, 3, 4): {2: 1}, (2, 3, 4): {1: -1}}
    for name, (arity, basis, structure) in expected.items():
        loaded = load_algebra(json.loads(root.joinpath(f"{name}.json").read_text()))
        assert (loaded.name, loaded.arity, loaded.dim, loaded.basis) == (name, arity, len(basis), basis)
        assert (loaded.field, loaded.structure) == (RATIONALS, structure), name


@pytest.mark.parametrize("p", [None, 2, 3, 7, 10007], ids=["Q", "F2", "F3", "F7", "F10007"])
def test_named_builtins_are_canonical_over_every_field(p):
    # no stored coefficient is zero, so a dump loads back to the same structure
    field = RATIONALS if p is None else PrimeField(p)
    for name in ("heisenberg3", "so3", "sl2", "nambu4"):
        spec = builtin_algebra(name, field=field)
        assert spec.field == field
        assert all(c != field.zero for coeffs in spec.structure.values() for c in coeffs.values()), name
        assert all(spec.structure.values()), name
        assert load_algebra(json.loads(json.dumps(dump_algebra(spec)))).structure == spec.structure, name
    if p == 2:  # [h,e] = 2e and [h,f] = -2f vanish
        assert builtin_algebra("sl2", field=field).structure == {(2, 3): {1: 1}}


def test_prime_field_algebra_validates():
    spec = builtin_algebra("sl2", field=PrimeField(7))
    report = validate_algebra(spec)
    assert report.passed
    assert bracket2(spec, {1: 1}, {3: 1}) == {3: 5}  # -2 mod 7


def test_validation_mark_follows_spec_content():
    from tsdlink.tsd import make_tsd_pair

    spec = builtin_algebra("sl2")
    make_tsd_pair(spec)  # validates and marks the spec
    spec.structure[(1, 2)] = {2: 3}
    assert not validate_algebra(spec).passed
    with pytest.raises(AlgebraError, match="jacobi"):
        make_tsd_pair(spec)


def test_passing_validation_is_not_repeated(monkeypatch):
    import tsdlink.algebra as algebra_module
    from tsdlink.tsd import make_tsd_pair

    mutant = builtin_algebra("sl2")
    mutant.structure[(1, 2)] = {2: 3}
    assert not validate_algebra(mutant).passed
    assert getattr(mutant, "_validated", None) is None  # a failing report marks nothing
    spec = builtin_algebra("sl2")
    assert validate_algebra(spec).passed
    calls = []
    monkeypatch.setattr(algebra_module, "validate_algebra", lambda s: calls.append(s) or validate_algebra(s))
    make_tsd_pair(spec)
    assert calls == []


@pytest.mark.parametrize("field", [None, PrimeField(10007)], ids=["Q", "F10007"])
def test_filippov_orbit_representatives_match_full_scan(field):
    # every coefficient c_abc^l of nambu4 moved by 1, the absent ones included
    spec = builtin_algebra("nambu4", field=field)
    one, add = spec.field.one, spec.field.add
    failed = 0
    for key, l in product(sorted(spec.structure), range(1, spec.dim + 1)):
        structure = {k: dict(v) for k, v in spec.structure.items()}
        structure[key][l] = add(structure[key].get(l, spec.field.zero), one)
        mutant = dataclasses.replace(spec, structure=structure)
        report = validate_algebra(mutant)
        want = filippov_full_scan(mutant)
        filippov = report.results[-1]
        assert filippov.name == "filippov"
        if want is None:
            assert filippov.ok and filippov.detail == "1024 5-tuples"
            continue
        failed += 1
        assert (filippov.witness, list(filippov.residual.items())) == (want[0], list(want[1].items()))
    assert failed == 12  # the four diagonal moves stay 3-Lie (see the mutation landscape)
