"""Sparse exact linear algebra on tensor powers of X = k (+) L.

The basis of X is indexed 0..d: index 0 is the distinguished basis vector
(1, 0) (grouplike for the comultiplication), and index i >= 1 is (0, e_i)
for the i-th basis vector of L.  A rank-m tensor is a map from m-tuples of
basis indices to nonzero scalars; rank 0 tensors (empty tuple key) hold a
bare scalar.  A vector of X is simply a rank-1 tensor.

Operators X^(in_rank) -> X^(out_rank) are words of steps on integer keys.
The key of an index tuple is its value in base dim (first leg most
significant), so keys run in ``iter_indices`` order.  A step ``(rows,
stride, width, shift)`` acts on the k consecutive legs whose lowest leg
has place value ``stride``: ``width = dim**k`` and ``rows[loc] =
((out_loc - loc, value), ...)`` is the image of the legs' digits ``loc``.
A step from k to k' legs moves the legs above it by ``shift = stride *
(dim**k' - width)``; a square step has shift 0.  ``_run_steps`` is the one
loop that applies a word to a key.

A leaf map (a column function, a permutation, the comultiplication, the
counit) is one step whose rows are computed on first use and kept;
``identity`` is the empty word.  ``compose`` concatenates words; ``tensor``
runs the left factor's steps past the right factor's input legs, then the
right factor's steps.  Nothing else stores entries: a column encodes its
index once, runs the steps and decodes once; a comparison runs both words
key by key and decodes only the first differing key; ``materialized`` runs
every key into one step.

A word of square steps is the identity on the legs no step touches, so a
comparison or a key-sum trace runs on the touched legs alone
(``_touched_legs``): A (x) 1 = B (x) 1 if and only if A = B, and
tr(A (x) 1) = tr(A) * dim ** (untouched legs).  A word with a step that
changes the rank keeps every leg.  Before any key, a comparison of two
words of square steps, each on at least one leg, lists for every leg the
steps on it in word order (``_leg_sequences``); if every leg sees the same
list in both words, they differ only by swaps of steps on disjoint legs,
which commute, and are equal.  That proves the framed-braid twist
commutations and the twist pushes past a crossing of other strands; the
braid relation, the adjacent pushes and every word with a rank-changing or
zero-leg step are scanned.

A braid generator on X^(2n) is one step of the kit's table on the legs of
its strands (``padded``), marked with its first leg and a memoized
extractor of its ``leg_permutation``, the degree-preserving part of the
table (see ``degree_raise``).  The trace of a word whose every step is
marked reads no entry: it is dim ** (cycles of the composite permutation).

Permutations act in the push convention: applying ``perm`` routes input
factor i to output slot perm[i] (0-based), and ``_push`` is the one function
that applies it.  The higher layers write every leg route as a labelled
layout, such as ``"x y z1 z2 -> x z1 y z2"``, which ``layout`` turns into
that permutation; no other module spells a route as numbers.

Tensors and operators are immutable by contract.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import itemgetter
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


def layout(text: str) -> tuple:
    """The permutation of a labelled leg layout such as ``"x y z1 z2 -> x z1 y z2"``, in the push convention.

    Entry i is the output slot of the i-th input label.  Both sides must
    list the same distinct labels.
    """
    src, arrow, dst = text.partition("->")
    src, dst = src.split(), dst.split()
    if not arrow or len(set(src)) != len(src) or sorted(src) != sorted(dst):
        raise ValueError(f"leg layout {text!r} does not list the same distinct labels on both sides")
    return tuple(dst.index(label) for label in src)


def _push(perm: Sequence[int], rank: int) -> Callable[[Sequence], tuple]:
    """The map idx -> the tuple with idx[i] in slot perm[i]: the push convention, for a bijection on 0..rank-1."""
    if sorted(perm) != list(range(rank)):
        raise ValueError(f"perm {perm!r} is not a bijection on 0..{rank - 1}")
    # the item of slot s is idx[perm.index(s)]; an itemgetter of one index returns no tuple
    return itemgetter(*map(perm.index, range(rank))) if rank > 1 else tuple


def permute(t: SparseTensor, perm: Sequence[int]) -> SparseTensor:
    """Push input factor i to output slot perm[i] (0-based bijection)."""
    push = _push(perm, t.rank)
    return SparseTensor(t.rank, {push(idx): v for idx, v in t.entries.items()}, t.field)


def iter_indices(dim: int, rank: int) -> Iterator[tuple]:
    return product(range(dim), repeat=rank)


# --------------------------------------------------------------------------
# The key-space kernel


def _encode(idx, dim: int) -> int:
    """The integer key of an index tuple: its value in base dim, first leg most significant."""
    key = 0
    for i in idx:
        key = key * dim + i
    return key


@lru_cache(maxsize=None)
def _codec(dim: int, rank: int) -> tuple:
    """(hi, lo, split): the index tuple of key k is hi[k // split] + lo[k % split].

    Kept per shape (dim, rank), not per algebra, and left unbounded: an entry
    holds at most 2 * dim ** ceil(rank / 2) tuples, and a process uses few shapes.
    """
    low = rank // 2
    return list(iter_indices(dim, rank - low)), list(iter_indices(dim, low)), dim**low


def _decode(key: int, dim: int, rank: int) -> tuple:
    hi, lo, split = _codec(dim, rank)
    return hi[key // split] + lo[key % split]


class _Rows(dict):
    """The rows of a leaf map, each computed from its column function on first use and kept."""

    __slots__ = ("fn", "dim", "in_rank", "zero")

    def __init__(self, fn: Callable[[tuple], dict], dim: int, in_rank: int, zero):
        self.fn, self.dim, self.in_rank, self.zero = fn, dim, in_rank, zero

    def __missing__(self, loc: int) -> tuple:
        dim, zero = self.dim, self.zero
        column = self.fn(_decode(loc, dim, self.in_rank))
        row = self[loc] = tuple((_encode(out, dim) - loc, v) for out, v in column.items() if v != zero)
        return row


def _run_steps(steps: tuple, field: Field, key: int) -> tuple:
    """The image of the basis vector of an integer key: (key, c, None) for one term, else (_, _, dict)."""
    one = field.one
    # one term (key, c) until a row has more than one entry, then a dict
    c, cur = one, None
    for rows, stride, width, shift in steps:
        if cur is None:
            row = rows[key // stride % width]
            if shift:
                key += key // (stride * width) * shift
            if len(row) == 1:
                delta, v = row[0]
                key += delta * stride
                c = v if c == one else field.mul(c, v)
                continue
            cur = {key + delta * stride: v if c == one else field.mul(c, v) for delta, v in row}
            continue
        nxt: dict = {}
        for key, c in cur.items():
            row = rows[key // stride % width]
            if shift:
                key += key // (stride * width) * shift
            for delta, v in row:
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


def _image(run: tuple) -> dict:
    """The image a ``_run_steps`` result stands for, as a key -> value dict."""
    key, c, cur = run
    return {key: c} if cur is None else cur


@lru_cache(maxsize=None)
def _step_legs(dim: int, rank: int, stride: int, width: int) -> range:
    """The places of the legs a square step of X^rank acts on.

    A place counts legs from the last (place p has value dim**p).
    """
    place = {dim**p: p for p in range(rank + 1)}
    return range(place[stride], place[stride] + place[width])


def _touched_legs(dim: int, rank: int, words: tuple) -> tuple:
    """The places of the legs the words' steps act on, and the words re-strided onto those legs.

    The compacted key holds the touched legs in the same order.  A word
    with a step that changes the rank gets every leg and its own steps.
    """
    if any(shift for steps in words for *_, shift in steps):
        return tuple(range(rank)), words
    touched = set()
    for steps in words:
        for _, stride, width, _ in steps:
            touched.update(_step_legs(dim, rank, stride, width))
    places = tuple(sorted(touched))
    stride_of = {dim**p: dim**j for j, p in enumerate(places)}
    words = tuple(tuple((rows, stride_of[stride], width, 0) for rows, stride, width, _ in steps) for steps in words)
    return places, words


def _leg_sequences(dim: int, rank: int, steps: tuple):
    """For each touched place, the steps on that leg in word order, each as (id(rows), stride, width).

    None if a step changes the rank or acts on no leg: the per-leg
    sequences then do not determine the word up to commuting steps.
    """
    seqs: dict = {}
    for rows, stride, width, shift in steps:
        if shift or width == 1:
            return None
        for p in _step_legs(dim, rank, stride, width):
            seqs.setdefault(p, []).append((id(rows), stride, width))
    return seqs


class SparseOperator:
    """Linear map X^(in_rank) -> X^(out_rank): a word of steps on integer keys.

    ``dim`` is the number of basis indices of X (d + 1).  ``steps`` run in
    order (see the module docstring); ``perms`` holds, step for step, the
    ``(offset, perm)`` marker of a padded kit generator, or None.  The
    constructor makes the one-step leaf of a column function
    ``fn(idx) -> {out_idx: value}``, whose rows are computed on first use.
    """

    __slots__ = ("in_rank", "out_rank", "dim", "field", "steps", "perms")

    def __init__(self, in_rank: int, out_rank: int, dim: int, field: Field, fn: Callable[[tuple], dict]):
        width = dim**in_rank
        self.in_rank, self.out_rank, self.dim, self.field = in_rank, out_rank, dim, field
        self.steps = ((_Rows(fn, dim, in_rank, field.zero), 1, width, dim**out_rank - width),)
        self.perms = (None,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, rank: int, dim: int, field: Field) -> "SparseOperator":
        """The empty word."""
        return _word(rank, rank, dim, field, (), ())

    @classmethod
    def permutation(cls, perm: Sequence[int], dim: int, field: Field) -> "SparseOperator":
        push, one = _push(perm, len(perm)), field.one
        return cls(len(perm), len(perm), dim, field, lambda idx: {push(idx): one})

    @classmethod
    def padded(cls, rows, perm, legs: int, offset: int, rank: int, dim: int, field: Field) -> "SparseOperator":
        """The square table ``rows`` of a legs-leg operator on legs offset.. of X^rank.

        The step is marked ``(offset, perm)``: ``perm()`` is the leg
        permutation of the table, which only the trace reads.
        """
        if not 0 <= offset <= rank - legs:
            raise ValueError(f"{legs} legs from leg {offset} do not fit in rank {rank}")
        step = (rows, dim ** (rank - offset - legs), dim**legs, 0)
        return _word(rank, rank, dim, field, (step,), ((offset, perm),))

    # -- column access and action ------------------------------------------

    def column(self, idx: tuple) -> dict:
        """Image of the basis vector at idx, a fresh dict."""
        hi, lo, split = _codec(self.dim, self.out_rank)
        image = _image(_run_steps(self.steps, self.field, _encode(idx, self.dim)))
        return {hi[key // split] + lo[key % split]: v for key, v in image.items()}

    def apply(self, t: SparseTensor) -> SparseTensor:
        if t.rank != self.in_rank:
            raise ValueError(f"rank mismatch: operator takes rank {self.in_rank}, tensor has rank {t.rank}")
        require_same_field(self.field, t.field)
        field, one = self.field, self.field.one
        out: dict = {}
        for idx, c in t.entries.items():
            _accumulate(out, self.column(idx), field, None if c == one else c)
        return SparseTensor(self.out_rank, out, field)

    # -- algebra -------------------------------------------------------------

    def compose(self, other: "SparseOperator") -> "SparseOperator":
        """self after other (self . other): other's steps, then self's."""
        return compose_chain([self, other])

    def tensor(self, other: "SparseOperator") -> "SparseOperator":
        """Tensor-factor Kronecker product; in/out ranks add.

        The left factor's steps run first, past the right factor's input
        legs, so column entries come out left-factor-major.  The product
        carries no trace markers.
        """
        require_same_field(self.field, other.field)
        if self.dim != other.dim:
            raise ValueError("operators act on different X")
        scale = self.dim**other.in_rank
        steps = tuple((rows, stride * scale, width, shift * scale) for rows, stride, width, shift in self.steps)
        steps += other.steps
        in_rank, out_rank = self.in_rank + other.in_rank, self.out_rank + other.out_rank
        return _word(in_rank, out_rank, self.dim, self.field, steps, (None,) * len(steps))

    def trace(self):
        """Sum of diagonal entries: over the keys of the touched legs unless every step is a marked kit generator.

        Then gr is multiplicative on the filtered steps and the diagonal is
        degree-preserving, so tr(A_1 ... A_m) = tr(gr A_1 ... gr A_m), the
        trace of a permutation of the legs: dim ** (its cycles).
        """
        if self.in_rank != self.out_rank:
            raise ValueError("trace needs in_rank == out_rank")
        field = self.field
        if all(self.perms):
            slots = list(range(self.in_rank))  # slots[s]: the leg whose digit is at slot s
            for offset, perm in self.perms:
                perm = perm()
                legs = slice(offset, offset + len(perm))
                slots[legs] = _push(perm, len(perm))(slots[legs])
            return field.from_int(self.dim ** cycle_count(s + 1 for s in slots))
        places, (steps,) = _touched_legs(self.dim, self.in_rank, (self.steps,))
        total = field.zero
        for key in range(self.dim ** len(places)):
            v = _image(_run_steps(steps, field, key)).get(key)
            if v is not None:
                total = field.add(total, v)
        return field.mul(total, field.from_int(self.dim ** (self.in_rank - len(places))))

    def materialized(self) -> "SparseOperator":
        """The operator as one step that holds every row."""
        width = self.dim**self.in_rank
        rows = tuple(
            tuple((out - key, v) for out, v in _image(_run_steps(self.steps, self.field, key)).items())
            for key in range(width)
        )
        step = (rows, 1, width, self.dim**self.out_rank - width)
        return _word(self.in_rank, self.out_rank, self.dim, self.field, (step,), (None,))

    # -- comparison ----------------------------------------------------------

    def diff_witness(self, other: "SparseOperator"):
        """First basis column where the two operators differ, or None.

        Returns (idx, residual) with residual = self(idx) - other(idx).
        Two words of square steps, each on at least one leg, are equal
        without a key visited when every leg sees the same steps in the same
        order in both (``_leg_sequences``): steps on disjoint legs commute,
        and by the projection lemma of trace monoids such words are the same
        product in another order.  This proves the framed-braid twist
        commutations and the twist pushes on strands the crossing does not
        touch.  Every other pair (the braid relation, the adjacent pushes,
        a rank-changing or a zero-leg step) is scanned: the images are
        compared in key space on the legs that the steps of either word
        touch (``_touched_legs``); only the first differing key is decoded,
        with index 0 on every untouched leg.  That is the first failing
        column in ``iter_indices`` order, and the residual is read off the
        full columns.
        """
        if (self.in_rank, self.out_rank, self.dim) != (other.in_rank, other.out_rank, other.dim):
            raise ValueError("operators have different shapes")
        dim, rank, field = self.dim, self.in_rank, self.field
        seqs = _leg_sequences(dim, rank, self.steps)
        if seqs is not None and seqs == _leg_sequences(dim, rank, other.steps):
            return None
        places, (mine, theirs) = _touched_legs(dim, rank, (self.steps, other.steps))
        for key in range(dim ** len(places)):
            a, b = _run_steps(mine, field, key), _run_steps(theirs, field, key)
            if a != b and _image(a) != _image(b):
                idx = [0] * rank
                for digit, p in zip(_decode(key, dim, len(places)), reversed(places)):
                    idx[rank - 1 - p] = digit
                idx = tuple(idx)
                residual = self.column(idx)
                _accumulate(residual, {k: field.neg(v) for k, v in other.column(idx).items()}, field)
                return idx, residual
        return None


def _word(in_rank: int, out_rank: int, dim: int, field: Field, steps: tuple, perms: tuple) -> SparseOperator:
    op = object.__new__(SparseOperator)
    op.in_rank, op.out_rank, op.dim, op.field, op.steps, op.perms = in_rank, out_rank, dim, field, steps, perms
    return op


def compose_chain(ops: Iterable[SparseOperator]) -> SparseOperator:
    """Compose a left-to-right chain: [A, B, C] -> A . B . C (C applied first).

    One pass: the ranks and fields are checked pair by pair and the steps
    concatenated once, so a word of m letters costs O(m).
    """
    ops = list(ops)
    if not ops:
        raise ValueError("empty composition")
    for outer, inner in zip(ops, ops[1:]):
        if inner.out_rank != outer.in_rank:
            raise ValueError(
                f"rank mismatch in composition: inner produces rank {inner.out_rank}, outer takes rank {outer.in_rank}"
            )
        require_same_field(outer.field, inner.field)
    word = ops[::-1]
    steps = tuple(step for op in word for step in op.steps)
    perms = tuple(marker for op in word for marker in op.perms)
    return _word(word[0].in_rank, ops[0].out_rank, ops[0].dim, ops[0].field, steps, perms)


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
        # None: not one output, with index 1 on one leg
        perm.append(outs[0].index(1) if len(outs) == 1 and 1 in outs[0] else None)
    if set(perm) != set(range(rank)):
        raise RuntimeError(
            f"construction bug: the one-leg columns of gr give slots {tuple(perm)}, not a leg permutation"
        )
    push = _push(perm, rank)
    for idx in iter_indices(base.dim, rank):
        gr = {out: v for out, v in base.column(idx).items() if out.count(0) == idx.count(0)}
        if gr != {push(idx): one}:
            raise RuntimeError(
                f"construction bug: column {idx} has degree-preserving part {gr}, not leg permutation {tuple(perm)}"
            )
    return tuple(perm)


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
