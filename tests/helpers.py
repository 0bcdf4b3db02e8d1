"""Shared cached builders so the suite constructs each kit once."""

from __future__ import annotations

from functools import cache
from itertools import product

from tsdlink import builtin_algebra, make_braiding_kit, make_tsd_pair
from tsdlink.algebra import _filippov_residual
from tsdlink.fields import _accumulate
from tsdlink.tensor import SparseOperator, iter_indices

# (name, dim) pairs of the bundled algebras
BUNDLED = (
    ("abelian", 1),
    ("abelian", 2),
    ("heisenberg3", None),
    ("so3", None),
    ("sl2", None),
    ("nambu4", None),
)


@cache
def algebra(name, dim=None, arity=2):
    if name == "abelian":
        return builtin_algebra(name, dim=dim, arity=arity)
    return builtin_algebra(name)


@cache
def tsd_pair(name, dim=None, arity=2):
    return make_tsd_pair(algebra(name, dim, arity))


@cache
def kit(name, dim=None, arity=2):
    return make_braiding_kit(tsd_pair(name, dim, arity))


def padded_reference(kit, base, strand, n):
    """identity (x) base (x) identity on X^(2n), built with SparseOperator.tensor."""
    left = 2 * (strand - 1)
    right = 2 * n - left - base.in_rank
    op = base
    if left:
        op = SparseOperator.identity(left, kit.dim, kit.field).tensor(op)
    if right:
        op = op.tensor(SparseOperator.identity(right, kit.dim, kit.field))
    return op


def same_columns(a, b):
    """Equal columns with equal entry order (the order failure residuals print in)."""
    return all(list(a.column(i).items()) == list(b.column(i).items()) for i in iter_indices(a.dim, a.in_rank))


def full_scan_witness(a, b):
    """diff_witness by a walk over every column of X^(in_rank): (idx, a(idx) - b(idx)) or None."""
    for idx in iter_indices(a.dim, a.in_rank):
        mine, theirs = a.column(idx), b.column(idx)
        if mine != theirs:
            _accumulate(mine, {k: a.field.neg(v) for k, v in theirs.items()}, a.field)
            return idx, mine
    return None


def filippov_full_scan(spec):
    """The first 5-tuple in product order where the Filippov identity fails, with its residual, or None."""
    for xs in product(range(1, spec.dim + 1), repeat=5):
        residual = _filippov_residual(spec, xs)
        if residual:
            return xs, residual
    return None


class CountingRows:
    """The rows of a step, counting the lookups a key run makes."""

    def __init__(self, rows):
        self.rows, self.lookups = rows, 0

    def __getitem__(self, loc):
        self.lookups += 1
        return self.rows[loc]
