"""Sparse exact linear algebra on tensor powers of X = k (+) L.

The basis of X is indexed 0..d: index 0 is the distinguished basis vector
(1, 0) (grouplike for the comultiplication), and index i >= 1 is (0, e_i)
for the i-th basis vector of L.  A rank-m tensor is a map from m-tuples of
basis indices to nonzero scalars; rank 0 tensors (empty tuple key) hold a
bare scalar.  A vector of X is simply a rank-1 tensor.

Operators X^(in_rank) -> X^(out_rank) are stored column-sparsely: the
column of a basis multi-index is itself a sparse tensor.  Columns are
computed on first use, so nothing materializes entries that nothing asks
for, and the trace streams column by column.  One rule says which columns
are kept: a composite (``compose``, ``compose_chain``) recomputes its
columns on every request and keeps none, a leaf map or tensor product
keeps each column it computes, and a materialized operator holds all.

An operator that acts on a few consecutive legs of a large tensor power
(a braid generator on X^(2n)) is a ``LegLocalOperator``: its only stored
entries are the ``leg_table`` of the small operator, applied to the legs'
digits of a base-(d+1) integer key, and composing two of one rank
concatenates their steps.  Its trace reads no entry: the degree-preserving
part of each step (see ``degree_raise``) is a permutation of its legs
(``leg_permutation``), and the trace is dim ** (cycles of their
composite).  ``tensor``/``tensor_chain`` build the kit's operators and the
TSD identities.

Permutations act in the push convention: applying ``perm`` routes input
factor i to output slot perm[i] (0-based).  Every leg-routing table in the
higher layers is written in this one convention.

Tensors and operators are immutable by contract; column dicts returned by
``SparseOperator.column`` are shared and must not be mutated.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from .braids import cycle_count
from .fields import Field, _accumulate, require_same_field


class SparseTensor:
    """Element of X^(rank), as a sparse multi-index -> scalar map."""

    __slots__ = ("rank", "entries", "field")

    def __init__(self, rank: int, entries: dict, field: Field):
        self.rank = rank
        self.entries = entries
        self.field = field

    @classmethod
    def basis(cls, idx: tuple, field: Field) -> "SparseTensor":
        return cls(len(idx), {idx: field.one}, field)

    def is_zero(self) -> bool:
        return not self.entries

    def coefficient(self, idx: tuple):
        return self.entries.get(idx, self.field.zero)

    def scaled(self, c) -> "SparseTensor":
        if c == self.field.zero:
            return SparseTensor(self.rank, {}, self.field)
        mul = self.field.mul
        return SparseTensor(self.rank, {k: mul(c, v) for k, v in self.entries.items()}, self.field)

    def plus(self, other: "SparseTensor") -> "SparseTensor":
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        out = dict(self.entries)
        _accumulate(out, other.entries, self.field)
        return SparseTensor(self.rank, out, self.field)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseTensor)
            and self.rank == other.rank
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self.entries.items())))

    def __repr__(self):
        terms = " + ".join(
            f"{self.field.render(v)}*b{''.join(map(str, k))}" for k, v in sorted(self.entries.items())
        )
        return f"<rank-{self.rank} tensor: {terms or '0'}>"


def vector(coeffs: dict, field: Field) -> SparseTensor:
    """Rank-1 tensor from a basis-index -> scalar map (zeros dropped)."""
    return SparseTensor(1, {(i,): c for i, c in coeffs.items() if c != field.zero}, field)


def delta_n(x: SparseTensor, n: int) -> SparseTensor:
    """Iterated comultiplication of a vector of X, as a rank-n tensor.

    Linear extension of index 0 |-> (0,...,0) and index i |-> the sum of
    the n placements of i among zeros.  n = 1 is the identity.
    """
    if x.rank != 1:
        raise ValueError("delta_n takes a rank-1 tensor")
    if n < 1:
        raise ValueError(f"delta_n needs n >= 1, got {n}")
    out: dict = {}
    field = x.field
    for (i,), c in x.entries.items():
        if i == 0:
            _accumulate(out, {(0,) * n: c}, field)
        else:
            for pos in range(n):
                idx = (0,) * pos + (i,) + (0,) * (n - 1 - pos)
                _accumulate(out, {idx: c}, field)
    return SparseTensor(n, out, field)


def counit(x: SparseTensor):
    """Scalar-part projection (coefficient of the index-0 basis vector)."""
    if x.rank != 1:
        raise ValueError("counit takes a rank-1 tensor")
    return x.entries.get((0,), x.field.zero)


def permute(t: SparseTensor, perm: Sequence[int]) -> SparseTensor:
    """Push input factor i to output slot perm[i] (0-based bijection)."""
    if sorted(perm) != list(range(t.rank)):
        raise ValueError(f"perm {perm!r} is not a bijection on 0..{t.rank - 1}")
    out = {}
    for idx, v in t.entries.items():
        new = [0] * t.rank
        for i, slot in enumerate(perm):
            new[slot] = idx[i]
        out[tuple(new)] = v
    return SparseTensor(t.rank, out, t.field)


def iter_indices(dim: int, rank: int) -> Iterator[tuple]:
    return product(range(dim), repeat=rank)


class SparseOperator:
    """Linear map X^(in_rank) -> X^(out_rank), stored column-sparsely.

    ``dim`` is the number of basis indices of X (d + 1).  Absent columns
    are zero.  Each column is kept once computed (see ``_Composite`` for
    the operators that keep none).
    """

    __slots__ = ("in_rank", "out_rank", "dim", "field", "_fn", "_cols")

    def __init__(self, in_rank: int, out_rank: int, dim: int, field: Field, fn: Callable[[tuple], dict]):
        self.in_rank = in_rank
        self.out_rank = out_rank
        self.dim = dim
        self.field = field
        self._fn = fn
        self._cols: dict = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_columns(cls, in_rank: int, out_rank: int, dim: int, field: Field, columns: dict) -> "SparseOperator":
        op = cls(in_rank, out_rank, dim, field, lambda idx: columns.get(idx, {}))
        op._cols = columns
        return op

    @classmethod
    def identity(cls, rank: int, dim: int, field: Field) -> "SparseOperator":
        one = field.one
        return cls(rank, rank, dim, field, lambda idx: {idx: one})

    @classmethod
    def zero(cls, in_rank: int, out_rank: int, dim: int, field: Field) -> "SparseOperator":
        return cls(in_rank, out_rank, dim, field, lambda idx: {})

    @classmethod
    def permutation(cls, perm: Sequence[int], dim: int, field: Field) -> "SparseOperator":
        rank = len(perm)
        if sorted(perm) != list(range(rank)):
            raise ValueError(f"perm {perm!r} is not a bijection on 0..{rank - 1}")
        perm = tuple(perm)
        one = field.one

        def col(idx: tuple) -> dict:
            new = [0] * rank
            for i, slot in enumerate(perm):
                new[slot] = idx[i]
            return {tuple(new): one}

        return cls(rank, rank, dim, field, col)

    # -- column access and action ------------------------------------------

    def column(self, idx: tuple) -> dict:
        """Image of the basis vector at idx.  Shared dict: do not mutate."""
        col = self._cols.get(idx)
        if col is None:
            col = self._cols[idx] = self._fn(idx)
        return col

    def apply_entries(self, entries: dict) -> dict:
        out: dict = {}
        field = self.field
        one = field.one
        for idx, c in entries.items():
            col = self.column(idx)
            if col:
                _accumulate(out, col, field, None if c == one else c)
        return out

    def apply(self, t: SparseTensor) -> SparseTensor:
        if t.rank != self.in_rank:
            raise ValueError(f"rank mismatch: operator takes rank {self.in_rank}, tensor has rank {t.rank}")
        require_same_field(self.field, t.field)
        return SparseTensor(self.out_rank, self.apply_entries(t.entries), self.field)

    # -- algebra -------------------------------------------------------------

    def compose(self, other: "SparseOperator") -> "SparseOperator":
        """self after other (self . other), a composite that keeps no column."""
        if other.out_rank != self.in_rank:
            raise ValueError(
                f"rank mismatch in composition: inner produces rank {other.out_rank}, outer takes rank {self.in_rank}"
            )
        require_same_field(self.field, other.field)
        return _Composite(
            other.in_rank,
            self.out_rank,
            self.dim,
            self.field,
            lambda idx: self.apply_entries(other.column(idx)),
        )

    def tensor(self, other: "SparseOperator") -> "SparseOperator":
        """Tensor-factor Kronecker product; in/out ranks add."""
        require_same_field(self.field, other.field)
        if self.dim != other.dim:
            raise ValueError("operators act on different X")
        k = self.in_rank
        mul = self.field.mul

        def col(idx: tuple) -> dict:
            a = self.column(idx[:k])
            if not a:
                return {}
            b = other.column(idx[k:])
            if not b:
                return {}
            return {ia + ib: mul(va, vb) for ia, va in a.items() for ib, vb in b.items()}

        return SparseOperator(self.in_rank + other.in_rank, self.out_rank + other.out_rank, self.dim, self.field, col)

    def trace(self):
        """Sum of diagonal entries."""
        if self.in_rank != self.out_rank:
            raise ValueError("trace needs in_rank == out_rank")
        return self._diagonal_sum()

    def _diagonal_sum(self):
        """The trace, streamed column by column."""
        total = self.field.zero
        add = self.field.add
        for idx in iter_indices(self.dim, self.in_rank):
            v = self.column(idx).get(idx)
            if v is not None:
                total = add(total, v)
        return total

    def materialized(self) -> "SparseOperator":
        cols = {idx: self.column(idx) for idx in iter_indices(self.dim, self.in_rank)}
        cols = {idx: col for idx, col in cols.items() if col}
        return SparseOperator.from_columns(self.in_rank, self.out_rank, self.dim, self.field, cols)

    # -- comparison ----------------------------------------------------------

    def diff_witness(self, other: "SparseOperator"):
        """First basis column where the two operators differ, or None.

        Returns (idx, residual) with residual = self(idx) - other(idx).
        """
        if (self.in_rank, self.out_rank, self.dim) != (other.in_rank, other.out_rank, other.dim):
            raise ValueError("operators have different shapes")
        field = self.field
        for idx in iter_indices(self.dim, self.in_rank):
            a = self.column(idx)
            b = other.column(idx)
            if a != b:
                residual = dict(a)
                _accumulate(residual, {k: field.neg(v) for k, v in b.items()}, field)
                return idx, residual
        return None


class _Composite(SparseOperator):
    """The result of ``compose``: every column request recomputes the column.

    A composite's columns are read once per comparison or materialization,
    so keeping them would only hold memory; its factors keep their own.
    """

    __slots__ = ()

    def column(self, idx: tuple) -> dict:
        """Image of the basis vector at idx, computed afresh."""
        return self._fn(idx)


def compose_chain(ops: Iterable[SparseOperator]) -> SparseOperator:
    """Compose a left-to-right chain: [A, B, C] -> A . B . C (C applied first)."""
    ops = list(ops)
    if not ops:
        raise ValueError("empty composition")
    out = ops[-1]
    for op in reversed(ops[:-1]):
        out = op.compose(out)
    return out


def degree_raise(op: SparseOperator):
    """The first (column, output) of op that raises the L-degree, or None.

    The L-degree of a basis tuple is its number of nonzero indices.  Without
    such an entry op is filtered: gr(op), its degree-preserving part, plus
    terms of lower degree.
    """
    for idx in iter_indices(op.dim, op.in_rank):
        for out in op.column(idx):
            if out.count(0) < idx.count(0):
                return idx, out
    return None


def leg_table(base: SparseOperator) -> tuple:
    """A square operator on X^k as rows over the integer keys of its legs.

    The key of an index tuple is its value in base dim, first leg most
    significant, so row ``loc`` is the column of the loc-th index tuple in
    ``iter_indices`` order: ``rows[loc] = ((out_loc - loc, value), ...)``.
    """
    if base.in_rank != base.out_rank:
        raise ValueError("a leg table needs in_rank == out_rank")
    keys = {idx: loc for loc, idx in enumerate(iter_indices(base.dim, base.in_rank))}
    zero = base.field.zero
    return tuple(
        tuple((keys[out] - loc, v) for out, v in base.column(idx).items() if v != zero)
        for idx, loc in keys.items()
    )


def leg_permutation(base: SparseOperator) -> tuple:
    """gr(base), the degree-preserving part of a square operator, as a leg permutation.

    The permutation (push convention) is read off the columns with index 1
    on one leg.  A base that raises the L-degree, or whose gr is not that
    permutation with unit coefficients in every column, is a construction bug.
    """
    if witness := degree_raise(base):
        raise RuntimeError(f"construction bug: column {witness[0]} has output {witness[1]} of higher L-degree")
    rank, one = base.in_rank, base.field.one
    perm = []
    for leg in range(rank):
        outs = [out for out in base.column((0,) * leg + (1,) + (0,) * (rank - leg - 1)) if out.count(0) == rank - 1]
        # anything else fails the column check below
        perm.append(outs[0].index(1) if len(outs) == 1 and 1 in outs[0] else leg)
    for idx in iter_indices(base.dim, rank):
        image = [0] * rank
        for i, slot in enumerate(perm):
            image[slot] = idx[i]
        gr = {out: v for out, v in base.column(idx).items() if out.count(0) == idx.count(0)}
        if gr != {tuple(image): one}:
            raise RuntimeError(
                f"construction bug: column {idx} has degree-preserving part {gr}, not leg permutation {tuple(perm)}"
            )
    return tuple(perm)


@lru_cache(maxsize=None)
def _codec(dim: int, rank: int) -> tuple:
    """(hi, lo, split): the index tuple of key k is hi[k // split] + lo[k % split]."""
    low = rank // 2
    return list(iter_indices(dim, rank - low)), list(iter_indices(dim, low)), dim**low


def _run_steps(steps: tuple, field: Field, key: int) -> tuple:
    """The image of the basis vector of an integer key: (key, c, None) for one term, else (_, _, dict)."""
    one = field.one
    # one term (key, c) until a row has more than one entry, then a dict
    c, cur = one, None
    for rows, stride, width in steps:
        if cur is None:
            row = rows[key // stride % width]
            if len(row) == 1:
                delta, v = row[0]
                key += delta * stride
                c = v if c == one else field.mul(c, v)
                continue
            cur = {key + delta * stride: v if c == one else field.mul(c, v) for delta, v in row}
            continue
        nxt: dict = {}
        for key, c in cur.items():
            for delta, v in rows[key // stride % width]:
                out = key + delta * stride
                if c != one:
                    v = field.mul(c, v)
                prev = nxt.get(out)
                if prev is None:
                    nxt[out] = v
                else:
                    s = field.add(prev, v)
                    if s == field.zero:
                        del nxt[out]
                    else:
                        nxt[out] = s
        cur = nxt
    return key, c, cur


class LegLocalOperator(SparseOperator):
    """A word of leg-local steps on X^rank, identity on every leg a step skips.

    Each step ``(rows, stride, width)`` applies a ``leg_table`` to the
    ``width = dim**k`` keys of k consecutive legs whose lowest leg has place
    value ``stride``.  A column encodes its index tuple once, runs every step
    on the integer keys, and decodes the image once.  Columns are never
    cached: the tables are the only stored entries.

    ``perms`` holds, step for step, ``(offset, perm)``: the step's first leg
    and a memoized function returning the ``leg_permutation`` of its table,
    which only the trace reads.  gr is multiplicative on filtered steps and
    the diagonal is degree-preserving, so tr(A_1 ... A_m) = tr(gr A_1 ...
    gr A_m), the trace of a permutation of the legs: dim ** (its cycles).
    """

    __slots__ = ("steps", "perms")

    def __init__(self, rank: int, dim: int, field: Field, steps: tuple, perms: tuple):
        super().__init__(rank, rank, dim, field, None)  # ``column`` is overridden
        self.steps = steps  # in the order they are applied
        self.perms = perms

    def column(self, idx: tuple) -> dict:
        """Image of the basis vector at idx, computed afresh: columns are never cached."""
        dim = self.dim
        key = 0
        for i in idx:
            key = key * dim + i
        key, c, cur = _run_steps(self.steps, self.field, key)
        hi, lo, split = _codec(dim, len(idx))
        if cur is None:
            return {hi[key // split] + lo[key % split]: c}
        return {hi[key // split] + lo[key % split]: v for key, v in cur.items()}

    @classmethod
    def padded(cls, rows: tuple, perm, legs: int, offset: int, rank: int, dim: int, field: Field) -> LegLocalOperator:
        """The table ``rows`` of a legs-leg operator on legs offset.. of X^rank; ``perm()`` is its leg permutation."""
        if not 0 <= offset <= rank - legs:
            raise ValueError(f"{legs} legs from leg {offset} do not fit in rank {rank}")
        return cls(rank, dim, field, ((rows, dim ** (rank - offset - legs), dim**legs),), ((offset, perm),))

    def compose(self, other: SparseOperator) -> SparseOperator:
        """self . other; two leg-local words of one rank concatenate their steps."""
        if isinstance(other, LegLocalOperator) and (other.in_rank, other.dim) == (self.in_rank, self.dim):
            require_same_field(self.field, other.field)
            steps, perms = other.steps + self.steps, other.perms + self.perms
            return LegLocalOperator(self.in_rank, self.dim, self.field, steps, perms)
        return super().compose(other)

    def _diagonal_sum(self):
        """dim ** (cycles of the composite leg permutation of the steps): O(steps * legs)."""
        slots = list(range(self.in_rank))  # slots[s]: the leg whose digit is at slot s
        for offset, perm in self.perms:
            moved = slots[offset:]
            for i, slot in enumerate(perm()):
                slots[offset + slot] = moved[i]
        return self.field.from_int(self.dim ** cycle_count(s + 1 for s in slots))


def tensor_chain(ops: Iterable[SparseOperator]) -> SparseOperator:
    ops = list(ops)
    if not ops:
        raise ValueError("empty tensor product")
    out = ops[0]
    for op in ops[1:]:
        out = out.tensor(op)
    return out


def delta_op(n: int, dim: int, field: Field) -> SparseOperator:
    """The iterated comultiplication X -> X^(n) as an operator."""
    if n < 1:
        raise ValueError(f"delta_op needs n >= 1, got {n}")

    def col(idx: tuple) -> dict:
        return delta_n(SparseTensor.basis(idx, field), n).entries

    return SparseOperator(1, n, dim, field, col)


def counit_op(dim: int, field: Field) -> SparseOperator:
    """The counit X -> X^(0) (rank-0 tensors are scalars)."""
    one = field.one

    def col(idx: tuple) -> dict:
        return {(): one} if idx == (0,) else {}

    return SparseOperator(1, 0, dim, field, col)
