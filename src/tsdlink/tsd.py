"""Ternary self-distributive operators on X = k (+) L and their checks.

Two construction paths share one comultiplication (index 0 grouplike,
indices >= 1 primitive):

* binary path (arity-2 algebra): the ternary map sends
  (a,x)(x)(b,y)(x)(c,z) to (abc, bcx + c[x,y] + b[x,z] + [[x,y],z]), a
  nesting of the binary map (a,x)(x)(b,y) |-> (ab, bx + [x,y]); its
  reversing partner nests (ab, bx - [x,y]).
* ternary path (arity-3 algebra): (a,x)(x)(b,y)(x)(c,z) |->
  (abc, bcx + [x,y,z]).

On both paths the reversing partner is the same map with its
single-bracket terms negated (c[x,y] and b[x,z]; [x,y,z]), which on the
ternary path equals the map after the swap of its last two inputs.

Every identity checked here is an exact operator equality, evaluated on
all basis columns.  Sweedler bookkeeping is pinned by explicit leg routes;
this is where implementations silently diverge, so each route is written
once, as the labelled leg layout it encodes (``tensor.layout``).

The slot order of the reversibility identity depends on the path: with
the reversing partner applied outside, the binary path needs the legs of
the outer pair in reversed order (..., z-leg, y-leg) while the ternary
path needs straight order (..., y-leg, z-leg); the other order provably
fails (it leaves a 2[x,y,z] residue).  The same per-path choice propagates
to the braiding and twist inverses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraSpec, CheckResult, ValidationReport, AlgebraError, bracket, ensure_validated
from .tensor import (
    SparseOperator,
    compose_chain,
    counit_op,
    delta_op,
    layout,
    tensor_chain,
)

# Distribute the three legs of the last two inputs across the three
# ternary-map factors.  Also the tensor-coalgebra shuffle
# "x1 x2 x3 y1 y2 y3 z1 z2 z3 -> x1 y1 z1 x2 y2 z2 x3 y3 z3".
INTERLEAVE_9 = layout("x y z u1 u2 u3 v1 v2 v3 -> x u1 v1 y u2 v2 z u3 v3")


@dataclass
class TsdPair:
    """A validated algebra with its ternary map and reversing partner."""

    algebra: AlgebraSpec
    op: SparseOperator        # X^3 -> X
    rev: SparseOperator       # X^3 -> X
    path: str                 # "binary-composed" | "ternary"

    @property
    def dim(self) -> int:
        return self.algebra.dim + 1

    @property
    def field(self):
        return self.algebra.field


def _embed(coeffs: dict) -> dict:
    """L-vector (1-based sparse map) as a rank-1 tensor column."""
    return {(i,): c for i, c in coeffs.items()}


def _ternary_map(spec: AlgebraSpec, sign) -> SparseOperator:
    """X^3 -> X on basis columns, with every term of exactly one bracket scaled by sign.

    Those terms are c[x,y] and b[x,z] on the binary path and [x,y,z] on the
    ternary path.  sign is one for build_T and minus one for build_T_tilde.
    """
    field = spec.field
    one = field.one

    def col(idx: tuple) -> dict:
        i, j, k = idx
        if i == 0:
            return {(0,): one} if j == 0 and k == 0 else {}
        if j == 0 and k == 0:
            return {(i,): one}
        if spec.arity == 2 and j and k:
            return _embed(bracket(spec, bracket(spec, {i: one}, {j: one}), {k: one}))
        if spec.arity == 3 and not (j and k):
            return {}
        # the single bracket: [x,y,z], or c[x,y] or b[x,z] (one of j, k is zero)
        single = spec.bracket_basis((i, j, k) if spec.arity == 3 else (i, j or k))
        return _embed({l: field.mul(sign, c) for l, c in single.items()})

    return SparseOperator(3, 1, spec.dim + 1, field, col)


def build_T(spec: AlgebraSpec) -> SparseOperator:
    """The ternary self-distributive operator X^3 -> X on basis columns."""
    ensure_validated(spec)
    return _ternary_map(spec, spec.field.one)


def build_T_tilde(spec: AlgebraSpec) -> SparseOperator:
    """The reversing partner of build_T: its single-bracket terms negated."""
    ensure_validated(spec)
    return _ternary_map(spec, spec.field.neg(spec.field.one))


def build_q(spec: AlgebraSpec) -> SparseOperator:
    """Binary self-distributive map (a,x)(x)(b,y) |-> (ab, bx + [x,y])."""
    if spec.arity != 2:
        raise AlgebraError("binary self-distributive map needs an arity-2 algebra")
    ensure_validated(spec)
    field = spec.field
    one = field.one
    dim = spec.dim + 1

    def col(idx: tuple) -> dict:
        i, j = idx
        if i == 0:
            return {(0,): one} if j == 0 else {}
        if j == 0:
            return {(i,): one}
        return _embed(spec.bracket_basis((i, j)))

    return SparseOperator(2, 1, dim, field, col)


def make_tsd_pair(spec: AlgebraSpec) -> TsdPair:
    ensure_validated(spec)
    path = "binary-composed" if spec.arity == 2 else "ternary"
    return TsdPair(spec, build_T(spec), build_T_tilde(spec), path)


# --------------------------------------------------------------------------
# Property checks (exact operator identities)

CHECK_NAMES = ("tsd", "tsd-tilde", "coalgebra-morphism", "reversibility", "mixed", "q-self-distributive")


def compare(name: str, lhs: SparseOperator, rhs: SparseOperator) -> CheckResult:
    """Check lhs == rhs on every basis column; on failure report the first witness."""
    witness = lhs.diff_witness(rhs)
    if witness is None:
        return CheckResult(name, True, f"{lhs.dim ** lhs.in_rank} columns")
    idx, residual = witness
    return CheckResult(name, False, witness=idx, residual=residual)


def _identities(pair: TsdPair, which: set):
    """(name, lhs, rhs) for every selected identity, in report order.

    The structural leaves (the identity, the comultiplications, the counit,
    the 9-leg interleave and the expansion of the last two inputs) are built
    once here, so the identities of one sweep share their rows.
    """
    dim, field, op, rev = pair.dim, pair.field, pair.op, pair.rev
    one1 = SparseOperator.identity(1, dim, field)
    d2, d3 = delta_op(2, dim, field), delta_op(3, dim, field)
    eps = counit_op(dim, field)
    route = SparseOperator.permutation(INTERLEAVE_9, dim, field)
    expand = tensor_chain([one1, one1, one1, d3, d3])

    def lhs(outer, inner):
        """outer(inner(x, y, z), u, v): the left side of the self-distributivity diagram."""
        return outer.compose(tensor_chain([inner, one1, one1]))

    def rhs(outer, inner):
        """outer(inner(x, u1, v1), inner(y, u2, v2), inner(z, u3, v3)), with u and v comultiplied into three legs."""
        return compose_chain([outer, tensor_chain([inner, inner, inner]), route, expand])

    if "tsd" in which:
        yield "tsd", lhs(op, op), rhs(op, op)
    if "tsd-tilde" in which:
        yield "tsd-tilde", lhs(rev, rev), rhs(rev, rev)
    if "coalgebra-morphism" in which:
        # the ternary map intertwines the (iterated) comultiplications and counits
        d3_cubed, eps3 = tensor_chain([d3, d3, d3]), tensor_chain([eps, eps, eps])
        for label, m in (("", op), ("~", rev)):
            yield f"coalgebra-morphism{label}", d3.compose(m), compose_chain([tensor_chain([m, m, m]), route, d3_cubed])
            yield f"counit-compat{label}", eps.compose(m), eps3
    if "reversibility" in which:
        # undoing with the reversing partner recovers x . eps(y) eps(z), for
        # both Sweedler leg orders and with the two maps exchanged;
        # cocommutativity makes the two leg orders agree, and the check
        # documents that
        expand2, target = tensor_chain([one1, d2, d2]), tensor_chain([one1, eps, eps])
        # def-legs feed the second legs to the inner map, proof-legs the first;
        # the binary path takes the outer pair in reversed order (module docstring)
        routes = (
            ("x y1 y2 z1 z2 -> x y2 z2 z1 y1", "x y1 y2 z1 z2 -> x y1 z1 z2 y2")
            if pair.algebra.arity == 2
            else ("x y1 y2 z1 z2 -> x y2 z2 y1 z1", "x y1 y2 z1 z2 -> x y1 z1 y2 z2")
        )
        for order, legs in zip(("def-legs", "proof-legs"), routes):
            perm = SparseOperator.permutation(layout(legs), dim, field)
            for maps, outer, inner in (("rev.fwd", rev, op), ("fwd.rev", op, rev)):
                yield f"reversibility[{maps},{order}]", compose_chain([lhs(outer, inner), perm, expand2]), target
    if "mixed" in which:
        # mixed distributivity, (x, y, z) reading: a(b(x,y,z), u, v) against b
        # outside and a distributed inside
        for name, a, b in (("mixed[fwd-outer]", op, rev), ("mixed[rev-outer]", rev, op)):
            yield name, lhs(a, b), rhs(b, a)
    if "q-self-distributive" in which:
        q = build_q(pair.algebra)
        nested = q.compose(tensor_chain([q, one1]))
        swap = SparseOperator.permutation(layout("x y z1 z2 -> x z1 y z2"), dim, field)
        expand_last = tensor_chain([one1, one1, d2])
        yield "q-self-distributive", nested, compose_chain([q, tensor_chain([q, q]), swap, expand_last])
        yield "tsd-is-nested-q", op, nested


def check_tsd_properties(pair: TsdPair, which=None) -> ValidationReport:
    """Run the requested identity checks (all applicable ones by default)."""
    if which is None:
        which = set(CHECK_NAMES) if pair.algebra.arity == 2 else set(CHECK_NAMES) - {"q-self-distributive"}
    else:
        which = set(which)
        unknown = which - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown tsd checks: {sorted(unknown)}")
        if "q-self-distributive" in which and pair.algebra.arity != 2:
            raise AlgebraError("q-self-distributive requires an arity-2 algebra")
    report = ValidationReport()
    for name, lhs, rhs in _identities(pair, which):
        report.add(compare(name, lhs, rhs))
    return report
