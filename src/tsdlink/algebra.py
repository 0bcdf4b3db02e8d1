"""Structure-constant presentations of Lie algebras and 3-Lie algebras.

Brackets are stored only on strictly increasing basis-index tuples
(1-based); every other ordering is recovered from the sign of the sorting
permutation and repeated indices give zero.  Antisymmetry / total
skew-symmetry is therefore structural and cannot be violated by data, so
the validators only have to check the Jacobi identity (arity 2) or the
Filippov identity (arity 3), exhaustively over basis tuples -- complete by
multilinearity.

Vectors of L are sparse 1-based index -> scalar maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations, product
from pathlib import Path

from .fields import Field, RATIONALS, _accumulate

BUILTIN_NAMES = ("abelian", "heisenberg3", "so3", "sl2", "nambu4")


class AlgebraError(ValueError):
    """Malformed algebra document or ill-typed bracket arguments."""


@dataclass
class AlgebraSpec:
    name: str
    arity: int
    dim: int
    field: Field
    basis: tuple[str, ...]
    # sorted 1-based index tuple -> {basis index: coefficient}
    structure: dict[tuple[int, ...], dict[int, object]]

    def bracket_basis(self, indices: tuple[int, ...]) -> dict[int, object]:
        """Bracket of basis vectors in any order, via the permutation sign."""
        key, sign = _sort_with_sign(indices)
        if sign == 0:
            return {}
        coeffs = self.structure.get(key)
        if not coeffs:
            return {}
        if sign == 1:
            return coeffs
        neg = self.field.neg
        return {i: neg(c) for i, c in coeffs.items()}


def _sort_with_sign(indices: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple, returning the permutation sign (0 on repeats)."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return tuple(idx), 0
    return tuple(idx), sign


def _check_vector(spec: AlgebraSpec, v: dict) -> None:
    for i in v:
        if not 1 <= i <= spec.dim:
            raise AlgebraError(f"vector index {i} out of range 1..{spec.dim}")


def bracket2(spec: AlgebraSpec, x: dict, y: dict) -> dict:
    """Bilinear antisymmetric extension of the structure constants."""
    if spec.arity != 2:
        raise AlgebraError(f"bracket2 on arity-{spec.arity} algebra")
    _check_vector(spec, x)
    _check_vector(spec, y)
    field = spec.field
    out: dict = {}
    for i, xc in x.items():
        for j, yc in y.items():
            coeffs = spec.bracket_basis((i, j))
            if coeffs:
                _accumulate(out, coeffs, field, field.mul(xc, yc))
    return out


def bracket3(spec: AlgebraSpec, x: dict, y: dict, z: dict) -> dict:
    """Trilinear totally skew extension of the structure constants."""
    if spec.arity != 3:
        raise AlgebraError(f"bracket3 on arity-{spec.arity} algebra")
    for v in (x, y, z):
        _check_vector(spec, v)
    field = spec.field
    out: dict = {}
    for i, xc in x.items():
        for j, yc in y.items():
            cxy = field.mul(xc, yc)
            for k, zc in z.items():
                coeffs = spec.bracket_basis((i, j, k))
                if coeffs:
                    _accumulate(out, coeffs, field, field.mul(cxy, zc))
    return out


# --------------------------------------------------------------------------
# Validation


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    witness: object = None
    residual: object = None

    def __str__(self):
        status = "PASS" if self.ok else "FAIL"
        msg = f"{self.name}: {status}"
        if self.detail:
            msg += f" ({self.detail})"
        if not self.ok and self.witness is not None:
            msg += f" witness={self.witness} residual={self.residual}"
        return msg


@dataclass
class ValidationReport:
    results: list[CheckResult] = dataclass_field(default_factory=list)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]

    @property
    def passed(self) -> bool:
        return not self.failures

    def add(self, result: CheckResult) -> None:
        self.results.append(result)

    def lines(self) -> list[str]:
        return [str(r) for r in self.results]


def _unit(spec: AlgebraSpec, i: int) -> dict:
    return {i: spec.field.one}


def _jacobi_residual(spec: AlgebraSpec, i: int, j: int, k: int) -> dict:
    x, y, z = (_unit(spec, t) for t in (i, j, k))
    field = spec.field
    out: dict = {}
    _accumulate(out, bracket2(spec, bracket2(spec, x, y), z), field)
    _accumulate(out, bracket2(spec, bracket2(spec, y, z), x), field)
    _accumulate(out, bracket2(spec, bracket2(spec, z, x), y), field)
    return out


def _filippov_residual(spec: AlgebraSpec, xs: tuple[int, ...]) -> dict:
    # [[x1,x2,x3],x4,x5] - [[x1,x4,x5],x2,x3] - [x1,[x2,x4,x5],x3] - [x1,x2,[x3,x4,x5]]
    x1, x2, x3, x4, x5 = (_unit(spec, t) for t in xs)
    field = spec.field
    out: dict = {}
    _accumulate(out, bracket3(spec, bracket3(spec, x1, x2, x3), x4, x5), field)
    minus_one = field.neg(field.one)
    _accumulate(out, bracket3(spec, bracket3(spec, x1, x4, x5), x2, x3), field, minus_one)
    _accumulate(out, bracket3(spec, x1, bracket3(spec, x2, x4, x5), x3), field, minus_one)
    _accumulate(out, bracket3(spec, x1, x2, bracket3(spec, x3, x4, x5)), field, minus_one)
    return out


def validate_algebra(spec: AlgebraSpec) -> ValidationReport:
    """Exhaustive basis-tuple check of the defining identity.

    Arity 2: Jacobi over all d^3 triples.  Arity 3: the Filippov
    (fundamental) identity, in the derivation form
    [[x1,x2,x3],x4,x5] = [[x1,x4,x5],x2,x3] + [x1,[x2,x4,x5],x3]
    + [x1,x2,[x3,x4,x5]], over all d^5 tuples.  Its residual changes sign
    under a permutation of (x1, x2, x3) or of (x4, x5) and vanishes on a
    repeated index, so it is evaluated where x1 < x2 < x3 and x4 < x5
    only: the first failing tuple in product order is such a one.
    Antisymmetry is structural and reported as vacuously checked.  A
    passing report marks the spec's content as validated, which
    ``ensure_validated`` reads.
    """
    report = ValidationReport()
    skew_name = "antisymmetry" if spec.arity == 2 else "skew-symmetry"
    report.add(CheckResult(skew_name, True, "structural (sorted-tuple storage)"))
    d = spec.dim
    if spec.arity == 2:
        count = 0
        for i, j, k in product(range(1, d + 1), repeat=3):
            count += 1
            residual = _jacobi_residual(spec, i, j, k)
            if residual:
                report.add(CheckResult("jacobi", False, witness=(i, j, k), residual=residual))
                return report
        report.add(CheckResult("jacobi", True, f"{count} triples"))
    else:
        basis = range(1, d + 1)
        for head, tail in product(combinations(basis, 3), combinations(basis, 2)):
            xs = head + tail
            residual = _filippov_residual(spec, xs)
            if residual:
                report.add(CheckResult("filippov", False, witness=xs, residual=residual))
                return report
        report.add(CheckResult("filippov", True, f"{d**5} 5-tuples"))
    object.__setattr__(spec, "_validated", _fingerprint(spec))
    return report


def _fingerprint(spec: AlgebraSpec) -> tuple:
    """Everything validation reads, so a mark made before an edit goes stale."""
    structure = tuple(sorted((key, tuple(sorted(coeffs.items()))) for key, coeffs in spec.structure.items()))
    return spec.arity, spec.dim, spec.field, structure


def ensure_validated(spec: AlgebraSpec) -> None:
    """Raise unless the spec satisfies its defining identity.

    Memoized on the spec's content by ``validate_algebra``: an edit to its
    structure constants after a successful validation triggers a new one.
    """
    if getattr(spec, "_validated", None) == _fingerprint(spec):
        return
    report = validate_algebra(spec)
    if not report.passed:
        failure = report.failures[0]
        raise AlgebraError(
            f"algebra {spec.name!r} fails {failure.name} at {failure.witness}: residual {failure.residual}"
        )


# --------------------------------------------------------------------------
# Loading and builtins


def _integer(value) -> bool:
    """A JSON integer: ``true`` and ``2.0`` are not arities, dimensions or indices."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_algebra(document: dict) -> AlgebraSpec:
    """Build an AlgebraSpec from a parsed JSON document.

    Schema: {"name": str, "field": {"kind": "rational"} | {"kind": "prime",
    "p": int}, "arity": 2|3, "dim": int, "basis": [str, ...], "brackets":
    [{"args": [i, j(, k)], "value": [{"idx": l, "coeff": "p/q"}, ...]}, ...]}
    with 1-based strictly increasing args; omitted tuples mean zero.
    Validation of the defining identity is NOT run here.
    """
    if not isinstance(document, dict):
        raise AlgebraError("algebra document must be a JSON object")
    try:
        name = document["name"]
        arity = document["arity"]
        dim = document["dim"]
        basis = document["basis"]
        brackets = document["brackets"]
        field = Field.from_descriptor(document["field"])
    except KeyError as e:
        raise AlgebraError(f"algebra document missing key {e.args[0]!r}") from None
    if not _integer(arity) or arity not in (2, 3):
        raise AlgebraError(f"arity must be 2 or 3, got {arity!r}")
    if not _integer(dim) or dim < 1:
        raise AlgebraError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(basis, list) or len(basis) != dim or not all(isinstance(b, str) for b in basis):
        raise AlgebraError(f"basis must list {dim} labels")
    if not isinstance(brackets, list) or not all(isinstance(entry, dict) for entry in brackets):
        raise AlgebraError("brackets must be a list of {args, value} objects")
    structure: dict[tuple[int, ...], dict[int, object]] = {}
    for entry in brackets:
        args = entry.get("args")
        if not isinstance(args, list) or len(args) != arity:
            raise AlgebraError(f"bracket args {args!r}: expected {arity} indices")
        if any(not _integer(a) or not 1 <= a <= dim for a in args):
            raise AlgebraError(f"bracket args {args!r}: index out of range 1..{dim}")
        if any(args[i] >= args[i + 1] for i in range(arity - 1)):
            raise AlgebraError(
                f"bracket args {args!r} must be strictly increasing "
                "(repeats are a zero bracket; other orders follow by sign)"
            )
        key = tuple(args)
        if key in structure:
            raise AlgebraError(f"duplicate bracket tuple {args!r}")
        value = entry.get("value", [])
        if not isinstance(value, list) or not all(isinstance(term, dict) for term in value):
            raise AlgebraError(f"bracket {args!r}: value must be a list of {{idx, coeff}} objects")
        coeffs: dict[int, object] = {}
        for term in value:
            idx = term.get("idx")
            if not _integer(idx) or not 1 <= idx <= dim:
                raise AlgebraError(f"bracket value index {idx!r} out of range 1..{dim}")
            _accumulate(coeffs, {idx: field.parse(str(term.get("coeff")))}, field)
        if coeffs:
            structure[key] = coeffs
    return AlgebraSpec(str(name), arity, dim, field, tuple(basis), structure)


def load_algebra_file(path) -> AlgebraSpec:
    text = Path(path).read_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as e:
        raise AlgebraError(f"{path}: invalid JSON ({e})") from None
    except ValueError:  # an integer with more digits than sys.get_int_max_str_digits()
        raise AlgebraError(f"{path}: number too long: an integer has more digits than Python converts") from None
    return load_algebra(document)


def dump_algebra(spec: AlgebraSpec) -> dict:
    """Inverse of load_algebra (canonical document form)."""
    return {
        "name": spec.name,
        "field": spec.field.descriptor(),
        "arity": spec.arity,
        "dim": spec.dim,
        "basis": list(spec.basis),
        "brackets": [
            {
                "args": list(key),
                "value": [
                    {"idx": i, "coeff": spec.field.render(c).split(" mod ")[0]}
                    for i, c in sorted(coeffs.items())
                ],
            }
            for key, coeffs in sorted(spec.structure.items())
        ],
    }


def builtin_algebra(name: str, dim: int | None = None, arity: int = 2, field: Field | None = None) -> AlgebraSpec:
    """Named example algebras.

    abelian(dim, arity): zero bracket on k^dim.
    heisenberg3: [e1,e2] = e3.
    so3: [e1,e2] = e3, [e2,e3] = e1, [e3,e1] = e2.
    sl2: basis (h, e, f) with [h,e] = 2e, [h,f] = -2f, [e,f] = h.
    nambu4: [e_a,e_b,e_c] = epsilon_{abcd} e_d on k^4.
    """
    field = field or RATIONALS
    one = field.one
    neg = field.neg
    two = field.from_int(2)
    if name == "abelian":
        if dim is None or dim < 1 or arity not in (2, 3):
            raise AlgebraError("abelian needs dim >= 1 and arity in {2, 3}")
        return AlgebraSpec(f"abelian{dim}", arity, dim, field, tuple(f"e{i}" for i in range(1, dim + 1)), {})
    if dim is not None:
        raise AlgebraError(f"{name} does not take a dimension")
    if name == "heisenberg3":
        return AlgebraSpec("heisenberg3", 2, 3, field, ("e1", "e2", "e3"), {(1, 2): {3: one}})
    if name == "so3":
        return AlgebraSpec(
            "so3",
            2,
            3,
            field,
            ("e1", "e2", "e3"),
            {(1, 2): {3: one}, (2, 3): {1: one}, (1, 3): {2: neg(one)}},
        )
    if name == "sl2":
        return AlgebraSpec(
            "sl2",
            2,
            3,
            field,
            ("h", "e", "f"),
            {(1, 2): {2: two}, (1, 3): {3: neg(two)}, (2, 3): {1: one}},
        )
    if name == "nambu4":
        structure: dict[tuple[int, ...], dict[int, object]] = {}
        for key in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
            (l,) = set(range(1, 5)) - set(key)
            _, sign = _sort_with_sign(key + (l,))
            structure[key] = {l: one if sign == 1 else neg(one)}
        return AlgebraSpec("nambu4", 3, 4, field, ("e1", "e2", "e3", "e4"), structure)
    raise AlgebraError(f"unknown builtin algebra {name!r}; known: {', '.join(BUILTIN_NAMES)}")
