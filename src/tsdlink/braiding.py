"""Yang-Baxter braiding, its inverse, and the framing twist on X^2.

The braiding acts on two adjacent pairs (X^2)(x)(X^2): the last two inputs
are comultiplied into three legs each, the first legs exit as the new
leading pair, and the remaining legs feed two copies of the ternary map
applied to the old leading pair.  The inverse runs the same layout through
the reversing partner; the twist comultiplies both members of one pair and
recombines them through two ternary maps.

All four operators are materialized at construction and the inverse
identities (braiding . inverse = identity, twist . twist-inverse =
identity) are asserted then and there, so a wrong leg route fails fast
instead of corrupting invariants downstream.  The leg routes of the
inverse operators are path-dependent (see tsd module docstring): the
reversing partner of the ternary path equals the map after a swap of its
last two inputs, so its undo identities carry the outer legs in straight
rather than reversed order.

On X^(2n) a generator is one padded step (see the tensor module) over the
table of a power of the braiding or the twist, which ``power`` memoizes
once per kit under its name and exponent; nothing is stored for the other
legs.  The leg permutation of each table, its degree-preserving part, is
extracted by the first trace that uses it, which asserts the filtration
that ``check_braiding`` reports as ``filtration``.  A braid word is one
word of padded steps (``word_operator``), and every kit identity is a pair
of braid words (``relation``), compared once per kit.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from functools import lru_cache, partial

from .algebra import AlgebraSpec, CheckResult, ValidationReport
from .braids import parse_braid_word
from .tensor import (
    SparseOperator,
    compose_chain,
    degree_raise,
    delta_op,
    leg_permutation,
    tensor_chain,
)
from .tsd import TsdPair, compare, make_tsd_pair

# (x, y, z1, z2, z3, w1, w2, w3) -> (z1, w1, x, z2, w2, y, z3, w3):
# first legs of the last two inputs exit in front; remaining legs pair up
# with x and y for the two ternary-map factors.
_BRAIDING_ROUTE = (2, 5, 0, 3, 6, 1, 4, 7)

# (x1, x2, x3, y1, y2, y3, z, w) -> (z, y2, x2, w, y3, x3, x1, y1):
# binary-path inverse; each reversing-map factor sees (old-pair member,
# y-leg, x-leg), outer legs reversed.
_BRAIDING_INV_ROUTE_BIN = (6, 2, 5, 7, 1, 4, 0, 3)

# (x1, x2, x3, y1, y2, y3, z, w) -> (z, x2, y2, w, x3, y3, x1, y1):
# ternary-path inverse; outer legs in straight order.
_BRAIDING_INV_ROUTE_TER = (6, 1, 4, 7, 2, 5, 0, 3)

# (x1, x2, x3, y1, y2, y3) -> (x1, x2, y2, y1, x3, y3): twist layout.
_TWIST_ROUTE = (0, 1, 4, 3, 2, 5)

# (x1, x2, x3, y1, y2, y3) -> (x1, y2, x2, y1, y3, x3): binary twist inverse.
_TWIST_INV_ROUTE_BIN = (0, 2, 5, 3, 1, 4)


@dataclass(eq=False)
class BraidingKit:
    pair: TsdPair
    braiding: SparseOperator       # X^4 -> X^4
    braiding_inv: SparseOperator   # X^4 -> X^4
    twist: SparseOperator          # X^2 -> X^2
    twist_inv: SparseOperator      # X^2 -> X^2
    # memo keyed ("pow", name, e), ("perm", name, e) and ("relation", n, lhs, rhs)
    cache: dict = dataclass_field(default_factory=dict, repr=False)

    @property
    def algebra(self) -> AlgebraSpec:
        return self.pair.algebra

    @property
    def dim(self) -> int:
        return self.pair.dim

    @property
    def field(self):
        return self.pair.field


def _routed(pair: TsdPair, outer: list, route: tuple, inner: list) -> SparseOperator:
    """(outer factors) . route . (inner factors), materialized."""
    perm = SparseOperator.permutation(route, pair.dim, pair.field)
    return compose_chain([tensor_chain(outer), perm, tensor_chain(inner)]).materialized()


def build_braiding(pair: TsdPair) -> SparseOperator:
    one1, d3 = SparseOperator.identity(1, pair.dim, pair.field), delta_op(3, pair.dim, pair.field)
    return _routed(pair, [one1, one1, pair.op, pair.op], _BRAIDING_ROUTE, [one1, one1, d3, d3])


def build_braiding_inverse(pair: TsdPair) -> SparseOperator:
    one1, d3 = SparseOperator.identity(1, pair.dim, pair.field), delta_op(3, pair.dim, pair.field)
    route = _BRAIDING_INV_ROUTE_BIN if pair.algebra.arity == 2 else _BRAIDING_INV_ROUTE_TER
    op = _routed(pair, [pair.rev, pair.rev, one1, one1], route, [d3, d3, one1, one1])
    _assert_inverse("braiding", build_braiding(pair), op)
    return op


def build_twist(pair: TsdPair) -> SparseOperator:
    d3 = delta_op(3, pair.dim, pair.field)
    return _routed(pair, [pair.op, pair.op], _TWIST_ROUTE, [d3, d3])


def build_twist_inverse(pair: TsdPair) -> SparseOperator:
    d3 = delta_op(3, pair.dim, pair.field)
    # binary path: its own leg layout; ternary path: the twist layout run
    # through the reversing partner (the map after a swap, which undoes it)
    route = _TWIST_INV_ROUTE_BIN if pair.algebra.arity == 2 else _TWIST_ROUTE
    op = _routed(pair, [pair.rev, pair.rev], route, [d3, d3])
    _assert_inverse("twist", build_twist(pair), op)
    return op


def _assert_inverse(name: str, forward: SparseOperator, backward: SparseOperator) -> None:
    identity = SparseOperator.identity(forward.in_rank, forward.dim, forward.field)
    for label, composite in (
        (f"{name}-inverse . {name}", backward.compose(forward)),
        (f"{name} . {name}-inverse", forward.compose(backward)),
    ):
        witness = composite.diff_witness(identity)
        if witness is not None:
            idx, residual = witness
            raise RuntimeError(
                f"construction bug: {label} != identity at column {idx}; residual {residual}"
            )


def make_braiding_kit(source: AlgebraSpec | TsdPair) -> BraidingKit:
    pair = source if isinstance(source, TsdPair) else make_tsd_pair(source)
    return BraidingKit(
        pair,
        build_braiding(pair),
        build_braiding_inverse(pair),
        build_twist(pair),
        build_twist_inverse(pair),
    )


# --------------------------------------------------------------------------
# Padded generators, shared by the property checks, the framed-braid
# relations and the trace


def power(kit: BraidingKit, name: str, exponent: int) -> SparseOperator:
    """kit.<name> ("braiding" or "twist") to a power (of the inverse if negative), as one step.

    Memoized per kit under ("pow", name, e) with the powers it is squared from: O(log |e|) operators.
    """
    sign = 1 if exponent >= 0 else -1
    unit = getattr(kit, name if sign > 0 else f"{name}_inv")
    if not exponent:
        return SparseOperator.identity(unit.in_rank, kit.dim, kit.field)
    if ("pow", name, sign) not in kit.cache:  # a generator not one step on all its legs is materialized once
        whole = len(unit.steps) == 1 and unit.steps[0][1:] == (1, kit.dim**unit.in_rank, 0)
        kit.cache[("pow", name, sign)] = unit if whole else unit.materialized()
    unit = op = kit.cache[("pow", name, sign)]
    prefix = 1
    for bit in bin(abs(exponent))[3:]:
        prefix = 2 * prefix + (bit == "1")
        key = ("pow", name, sign * prefix)
        if key not in kit.cache:
            op = op.compose(op)
            kit.cache[key] = (unit.compose(op) if bit == "1" else op).materialized()
        op = kit.cache[key]
    return op


def padded_power(kit: BraidingKit, name: str, exponent: int, strand: int, n: int) -> SparseOperator:
    """kit.<name>^exponent (nonzero) on the legs of strand `strand` onward, of n strands: the step of ``power``.

    Its trace marker is the kit's one lazy extractor of the step's leg permutation, under ("perm", name, exponent).
    """
    base = power(kit, name, exponent)
    perm = kit.cache.get(("perm", name, exponent))
    if perm is None:
        perm = kit.cache[("perm", name, exponent)] = lru_cache(maxsize=None)(partial(leg_permutation, base))
    return SparseOperator.padded(base.steps[0][0], perm, base.in_rank, 2 * (strand - 1), 2 * n, kit.dim, kit.field)


def word_operator(kit: BraidingKit, letters, n: int) -> SparseOperator:
    """The operator of braid letters (kind, index, exp), read left to right, on X^(2n).

    One word of padded steps; no letters make the empty word.  A letter
    s_i^e is one step of R^e from |e| = 4 on, where squaring first saves a
    composition, else |e| steps of R^(+-1) (column entries then keep the
    order of the product of generators); t_i^f is one step of theta^f.
    """
    ops = []
    for kind, index, exp in letters:
        if kind == "s" and abs(exp) < 4:
            ops.extend([padded_power(kit, "braiding", 1 if exp > 0 else -1, index, n)] * abs(exp))
        else:
            ops.append(padded_power(kit, "braiding" if kind == "s" else "twist", exp, index, n))
    return compose_chain([*ops, SparseOperator.identity(2 * n, kit.dim, kit.field)])


def relation(kit: BraidingKit, name: str, n: int, lhs: str, rhs: str) -> CheckResult:
    """Whether the braid words lhs and rhs act alike on X^(2n), reported under `name`.

    The result is memoized per kit by the pair of word texts, so an identity
    that two checks share under two names is scanned once.
    """
    key = ("relation", n, lhs, rhs)
    result = kit.cache.get(key)
    if result is None:
        sides = (word_operator(kit, _letters(text, n), n) for text in (lhs, rhs))
        result = kit.cache[key] = compare(name, *sides)
    return replace(result, name=name)


@lru_cache(maxsize=None)
def _letters(text: str, n: int) -> tuple:
    """The letters of a relation word, parsed once per process."""
    return parse_braid_word(text, n).letters


# --------------------------------------------------------------------------
# Braiding property checks


def _check_filtration(kit: BraidingKit) -> CheckResult:
    """R, R^-1, theta and theta^-1 never raise the L-degree (what the trace asserts in leg_permutation)."""
    generators = (kit.braiding, kit.braiding_inv, kit.twist, kit.twist_inv)
    for label, op in zip(("braiding", "braiding-inverse", "twist", "twist-inverse"), generators):
        if witness := degree_raise(op):
            return CheckResult("filtration", False, label, witness, {witness[1]: op.column(witness[0])[witness[1]]})
    return CheckResult("filtration", True, f"{sum(op.dim ** op.in_rank for op in generators)} columns")


def check_braiding(kit: BraidingKit) -> ValidationReport:
    """Braid equation, inverse identities, filtration, slide identities, far commutation.

    Far commutation on X^8 swaps steps on disjoint legs; ``diff_witness``
    proves it per leg without a key.  The filtration check asserts what the
    trace relies on: each generator is its degree-preserving part plus
    terms of strictly lower L-degree.
    """
    report = ValidationReport()
    report.add(relation(kit, "ybe", 3, "s1 s2 s1", "s2 s1 s2"))
    report.add(relation(kit, "braiding-invertible", 2, "s1^-1 s1", ""))
    report.add(relation(kit, "twist-invertible", 1, "t1^-1 t1", ""))
    report.add(_check_filtration(kit))
    report.add(relation(kit, "slide-under", 2, "s1 t1", "t2 s1"))
    report.add(relation(kit, "slide-over", 2, "s1 t2", "t1 s1"))
    report.add(relation(kit, "far-commutation", 4, "s1 s3", "s3 s1"))
    return report
