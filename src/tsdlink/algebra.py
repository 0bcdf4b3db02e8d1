"""Structure-constant presentations of Lie algebras and 3-Lie algebras.

Brackets are stored only on strictly increasing basis-index tuples
(1-based); every other ordering is recovered from the sign of the sorting
permutation and repeated indices give zero.  Antisymmetry / total
skew-symmetry is therefore structural and cannot be violated by data, so
validation checks one identity, the fundamental identity of an n-Lie
algebra (Jacobi at arity 2, Filippov at arity 3), with one multilinear
``bracket``, exhaustively over basis tuples -- complete by
multilinearity.

Vectors of L are sparse 1-based index -> scalar maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from functools import reduce
from importlib import resources
from itertools import combinations, product
from operator import getitem
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


def bracket(spec: AlgebraSpec, *vectors: dict) -> dict:
    """Multilinear skew extension of the structure constants: [v1, ..., vn] for arity n."""
    if len(vectors) != spec.arity:
        raise AlgebraError(f"{len(vectors)}-vector bracket on arity-{spec.arity} algebra")
    for v in vectors:
        _check_vector(spec, v)
    field = spec.field
    out: dict = {}
    for indices in product(*vectors):
        coeffs = spec.bracket_basis(indices)
        if coeffs:
            _accumulate(out, coeffs, field, reduce(field.mul, map(getitem, vectors, indices)))
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


def _fundamental_residual(spec: AlgebraSpec, xs: tuple[int, ...]) -> dict:
    """[[x1..xn], y1..y(n-1)] - sum_i [x1..[xi, y1..y(n-1)]..xn] on the basis vectors xs = (x.., y..)."""
    n, field = spec.arity, spec.field
    head, tail = [{t: field.one} for t in xs[:n]], [{t: field.one} for t in xs[n:]]
    out: dict = {}
    _accumulate(out, bracket(spec, bracket(spec, *head), *tail), field)
    minus_one = field.neg(field.one)
    for i in range(n):
        inner = bracket(spec, head[i], *tail)
        _accumulate(out, bracket(spec, *head[:i], inner, *head[i + 1 :]), field, minus_one)
    return out


# per arity: the structural check, the defining identity and what its scan covers
_REPORT_NAMES = {2: ("antisymmetry", "jacobi", "triples"), 3: ("skew-symmetry", "filippov", "5-tuples")}


def validate_algebra(spec: AlgebraSpec) -> ValidationReport:
    """Exhaustive basis-tuple check of the fundamental identity.

    One identity for both arities, that of Filippov's n-Lie algebras:
    [[x1..xn], y1..y(n-1)] = sum_i [x1..[xi, y1..y(n-1)]..xn] on all
    d^(2n-1) basis tuples.  At n = 2 it is the Jacobi identity, whose
    residual is the cyclic sum, accumulated as [[x,y],z] + [[z,x],y] +
    [[y,z],x]; at n = 3 it is the Filippov identity.

    The residual changes sign under a permutation of (x1..xn) or of
    (y1..y(n-1)) and vanishes on a repeated index, so it is evaluated
    where x1 < .. < xn and y1 < .. < y(n-1) only (C(d,2)*d triples
    instead of d^3 at n = 2).  Sorting the x's and the y's of a failing
    tuple gives a failing tuple no later in product order, so the first
    failure of this scan is the first of the full product scan.
    Antisymmetry is structural and reported as vacuously checked.  A
    passing report marks the spec's content as validated, which
    ``ensure_validated`` reads.
    """
    skew, identity, tuples = _REPORT_NAMES[spec.arity]
    report = ValidationReport()
    report.add(CheckResult(skew, True, "structural (sorted-tuple storage)"))
    n, basis = spec.arity, range(1, spec.dim + 1)
    for head, tail in product(combinations(basis, n), combinations(basis, n - 1)):
        xs = head + tail
        residual = _fundamental_residual(spec, xs)
        if residual:
            report.add(CheckResult(identity, False, witness=xs, residual=residual))
            return report
    report.add(CheckResult(identity, True, f"{spec.dim ** (2 * n - 1)} {tuples}"))
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
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise AlgebraError(f"{path}: not UTF-8 ({e.reason} at byte {e.start})") from None
    except json.JSONDecodeError as e:
        raise AlgebraError(f"{path}: invalid JSON ({e})") from None
    except RecursionError:
        raise AlgebraError(f"{path}: invalid JSON (nested deeper than the parser recurses)") from None
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


def bundled_document(filename: str) -> dict | None:
    """The parsed bundled document ``algebras/<filename>``, or None when there is none."""
    path = resources.files("tsdlink").joinpath("algebras").joinpath(filename)
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None


def builtin_algebra(name: str, dim: int | None = None, arity: int = 2, field: Field | None = None) -> AlgebraSpec:
    """Named example algebras over ``field`` (ℚ by default); all but abelian are the bundled documents.

    abelian(dim, arity): zero bracket on k^dim.
    heisenberg3: [e1,e2] = e3.
    so3: [e1,e2] = e3, [e2,e3] = e1, [e3,e1] = e2.
    sl2: basis (h, e, f) with [h,e] = 2e, [h,f] = -2f, [e,f] = h.
    nambu4: [e_a,e_b,e_c] = epsilon_{abcd} e_d on k^4.
    """
    field = field or RATIONALS
    if name == "abelian":
        if dim is None or dim < 1 or arity not in (2, 3):
            raise AlgebraError("abelian needs dim >= 1 and arity in {2, 3}")
        return AlgebraSpec(f"abelian{dim}", arity, dim, field, tuple(f"e{i}" for i in range(1, dim + 1)), {})
    if dim is not None:
        raise AlgebraError(f"{name} does not take a dimension")
    if name not in BUILTIN_NAMES:
        raise AlgebraError(f"unknown builtin algebra {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    return load_algebra({**bundled_document(f"{name}.json"), "field": field.descriptor()})
