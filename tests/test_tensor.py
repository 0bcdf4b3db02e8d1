import random
from functools import partial
from itertools import permutations

import pytest

from helpers import CountingRows, full_scan_witness
from tsdlink.fields import RATIONALS, PrimeField
from tsdlink.tensor import (
    SparseOperator,
    _touched_legs,
    SparseTensor,
    compose_chain,
    counit,
    counit_op,
    delta_n,
    delta_op,
    iter_indices,
    layout,
    permute,
    vector,
)

F = RATIONALS


def test_delta3_general_element():
    # (a, x) with a = 5, x = e1 + e2 on d = 2
    x = vector({0: 5, 1: 1, 2: 1}, F)
    t = delta_n(x, 3)
    expected = {(0, 0, 0): 5}
    for i in (1, 2):
        for pos in range(3):
            idx = [0, 0, 0]
            idx[pos] = i
            expected[tuple(idx)] = 1
    assert t.entries == expected


def test_delta2_grouplike():
    assert delta_n(vector({0: 1}, F), 2).entries == {(0, 0): 1}


def test_delta4_primitive():
    t = delta_n(vector({1: 1}, F), 4)
    assert t.entries == {
        (1, 0, 0, 0): 1,
        (0, 1, 0, 0): 1,
        (0, 0, 1, 0): 1,
        (0, 0, 0, 1): 1,
    }


def test_delta_errors():
    with pytest.raises(ValueError):
        delta_n(vector({0: 1}, F), 0)
    with pytest.raises(ValueError):
        delta_n(SparseTensor(2, {(0, 0): 1}, F), 2)


def test_counit():
    assert counit(vector({0: 5, 1: 1, 2: 1}, F)) == 5
    assert counit(vector({1: 1}, F)) == 0
    assert counit(vector({0: 1}, F)) == 1


def test_permute_identity_and_swap():
    t = SparseTensor(2, {(0, 1): 1}, F)
    assert permute(t, (0, 1)) == t
    assert permute(t, (1, 0)).entries == {(1, 0): 1}


def test_permute_interleave_nine():
    # push routing of the nine-factor interleave on a labeled simple tensor
    t = SparseTensor(9, {tuple(range(1, 10)): 1}, F)
    perm = (0, 3, 6, 1, 4, 7, 2, 5, 8)
    out = permute(t, perm)
    assert out.entries == {(1, 4, 7, 2, 5, 8, 3, 6, 9): 1}


def test_permute_rejects_non_bijection():
    with pytest.raises(ValueError):
        permute(SparseTensor(2, {(0, 0): 1}, F), (0, 0))


def test_layout_is_the_push_permutation_of_its_labels():
    assert layout("x y z1 z2 -> x z1 y z2") == (0, 2, 1, 3)
    assert layout("x y z u1 u2 u3 v1 v2 v3 -> x u1 v1 y u2 v2 z u3 v3") == (0, 3, 6, 1, 4, 7, 2, 5, 8)
    t = SparseTensor(4, {(1, 2, 3, 4): 1}, F)
    assert permute(t, layout("a b c d -> d a c b")).entries == {(4, 1, 3, 2): 1}


@pytest.mark.parametrize(
    "text",
    [
        "x y y -> x y y",  # a repeated label
        "x y z -> x y w",  # a label on one side only
        "x y z -> x y",  # sides of different lengths
        "x y -> x y x",
        "x y z",  # no arrow
    ],
)
def test_malformed_layout_is_rejected(text):
    with pytest.raises(ValueError, match="leg layout"):
        layout(text)


@pytest.mark.parametrize(
    "text,dim",
    [
        ("x y z1 z2 -> x z1 y z2", 3),
        ("x y1 y2 z1 z2 -> x y2 z2 z1 y1", 3),
        ("x1 x2 x3 y1 y2 y3 z w -> z y2 x2 w y3 x3 x1 y1", 2),
        ("x y z u1 u2 u3 v1 v2 v3 -> x u1 v1 y u2 v2 z u3 v3", 2),
    ],
)
def test_layout_and_its_reverse_compose_to_the_identity(text, dim):
    src, dst = text.split("->")
    forward = SparseOperator.permutation(layout(text), dim, F)
    backward = SparseOperator.permutation(layout(f"{dst} -> {src}"), dim, F)
    identity = SparseOperator.identity(forward.in_rank, dim, F)
    assert forward.compose(backward).diff_witness(identity) is None
    assert backward.compose(forward).diff_witness(identity) is None
    assert forward.diff_witness(identity) is not None


def test_op_apply_trivial():
    identity = SparseOperator.identity(2, 3, F)
    t = SparseTensor(2, {(1, 2): 7}, F)
    assert identity.apply(t) == t
    zero = SparseOperator(2, 2, 3, F, lambda idx: {})
    assert zero.apply(t).is_zero()
    single = SparseOperator(1, 1, 2, F, lambda idx: {(1,): 1} if idx == (0,) else {})
    assert single.apply(vector({0: 2}, F)).entries == {(1,): 2}


def test_op_compose():
    identity = SparseOperator.identity(1, 2, F)
    up = SparseOperator(1, 1, 2, F, lambda idx: {(1,): 1} if idx == (0,) else {})
    down = SparseOperator(1, 1, 2, F, lambda idx: {(0,): 1} if idx == (1,) else {})
    assert up.compose(identity).diff_witness(up) is None
    swap = SparseOperator.permutation((1, 0), 2, F)
    assert swap.compose(swap).diff_witness(SparseOperator.identity(2, 2, F)) is None
    both = up.compose(down)
    assert both.column((1,)) == {(1,): 1}
    assert both.column((0,)) == {}


def test_leaf_computes_each_column_once():
    calls = []
    leaf = SparseOperator(1, 1, 2, F, lambda idx: calls.append(idx) or {idx: 1})
    identity = SparseOperator.identity(1, 2, F)
    for op in (leaf, leaf.compose(identity), identity.compose(leaf), compose_chain([identity, leaf, identity])):
        assert op.column((1,)) == op.column((1,)) == {(1,): 1}
    for product in (leaf.tensor(identity), identity.tensor(leaf)):
        assert product.column((1, 1)) == product.column((1, 1)) == {(1, 1): 1}
    assert calls == [(1,)]  # every operator above shares the leaf's one row


def test_op_tensor():
    id1 = SparseOperator.identity(1, 2, F)
    assert id1.tensor(id1).diff_witness(SparseOperator.identity(2, 2, F)) is None
    up = SparseOperator(1, 1, 2, F, lambda idx: {(1,): 1} if idx == (0,) else {})
    keep = SparseOperator(1, 1, 2, F, lambda idx: {(0,): 1} if idx == (0,) else {})
    assert up.tensor(keep).column((0, 0)) == {(1, 0): 1}
    # (A (x) id) applied to t (x) s acts factorwise
    t = SparseTensor(2, {(0, 1): 3}, F)
    assert up.tensor(id1).apply(t).entries == {(1, 1): 3}


def test_op_trace_examples():
    assert SparseOperator.identity(2, 2, F).trace() == 4
    assert SparseOperator.permutation((1, 0), 2, F).trace() == 2
    assert SparseOperator(2, 2, 2, F, lambda idx: {}).trace() == 0


def _random_operator(rng, rank, dim, field, out_rank=None):
    out_rank = rank if out_rank is None else out_rank
    cols = {}
    for idx in iter_indices(dim, rank):
        col = {}
        for _ in range(rng.randint(0, 2)):
            out_idx = tuple(rng.randrange(dim) for _ in range(out_rank))
            col[out_idx] = field.from_int(rng.randint(-3, 3))
        cols[idx] = {k: v for k, v in col.items() if v != field.zero}
    return SparseOperator(rank, out_rank, dim, field, lambda idx: cols.get(idx, {}))


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(11)])
def test_trace_cyclicity_random(field):
    rng = random.Random(17)
    for _ in range(20):
        a = _random_operator(rng, 2, 3, field)
        b = _random_operator(rng, 2, 3, field)
        assert a.compose(b).trace() == b.compose(a).trace()


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(11)])
@pytest.mark.parametrize("ranks", [(1, 2, 2, 1), (2, 0, 1, 3), (0, 1, 2, 2), (3, 1, 1, 0)], ids=str)
def test_rank_changing_steps(field, ranks):
    # A: X^a -> X^a', B: X^b -> X^b', in ranks (a, a', b, b'), some of them 0
    rng = random.Random(sum(ranks))
    dim = 3
    a_in, a_out, b_in, b_out = ranks
    a, b = _random_operator(rng, a_in, dim, field, a_out), _random_operator(rng, b_in, dim, field, b_out)
    product = a.tensor(b)
    for i in iter_indices(dim, a_in):
        for j in iter_indices(dim, b_in):
            want = [(ia + ib, field.mul(va, vb)) for ia, va in a.column(i).items() for ib, vb in b.column(j).items()]
            assert list(product.column(i + j).items()) == want, (i, j)
    # a word that changes the rank three times, the counit on its last leg last
    inner = _random_operator(rng, 2, dim, field, a_in + b_in)
    drop = SparseOperator.identity(a_out + b_out - 1, dim, field).tensor(counit_op(dim, field))
    word = compose_chain([drop, product, inner])
    assert (word.in_rank, word.out_rank) == (2, a_out + b_out - 1)
    flat = word.materialized()
    assert len(flat.steps) == 1
    for idx in iter_indices(dim, 2):
        column = word.column(idx)
        assert list(flat.column(idx).items()) == list(column.items()), idx
        expected = drop.apply(product.apply(SparseTensor(a_in + b_in, inner.column(idx), field)))
        assert column == expected.entries, idx


def test_coassociativity():
    for dim in (2, 3, 4):
        d2 = delta_op(2, dim, F)
        one = SparseOperator.identity(1, dim, F)
        left = d2.tensor(one).compose(d2)
        right = one.tensor(d2).compose(d2)
        assert left.diff_witness(right) is None
        assert left.diff_witness(delta_op(3, dim, F)) is None


def test_counit_laws():
    for dim in (2, 4):
        d2 = delta_op(2, dim, F)
        one = SparseOperator.identity(1, dim, F)
        eps = counit_op(dim, F)
        left = eps.tensor(one).compose(d2)
        right = one.tensor(eps).compose(d2)
        assert left.diff_witness(one) is None
        assert right.diff_witness(one) is None


def test_delta_fixed_by_first_entry_fixing_permutations():
    for dim in (2, 5):
        for n in (3, 4):
            dn = delta_op(n, dim, F)
            for perm in permutations(range(1, n)):
                full = (0,) + perm
                shuffled = SparseOperator.permutation(full, dim, F).compose(dn)
                assert shuffled.diff_witness(dn) is None, (dim, n, full)


def test_rank_mismatch_errors():
    with pytest.raises(ValueError):
        SparseOperator.identity(2, 2, F).apply(SparseTensor(1, {(0,): 1}, F))
    with pytest.raises(ValueError):
        SparseOperator.identity(2, 2, F).compose(SparseOperator.identity(1, 2, F))
    with pytest.raises(ValueError):
        SparseOperator(1, 2, 2, F, lambda idx: {}).trace()


def test_prime_field_entries_stay_reduced():
    f5 = PrimeField(5)
    a = SparseTensor(1, {(0,): 3}, f5)
    b = SparseTensor(1, {(0,): 4}, f5)
    assert a.plus(b).entries == {(0,): 2}
    # 3 + 2 = 0 mod 5: entry disappears
    assert a.plus(SparseTensor(1, {(0,): 2}, f5)).entries == {}


def _planted(rng, table, field):
    """A copy of a square table with one entry changed: a value moved by 1, or a new entry."""
    rows = list(table)
    loc = rng.randrange(len(rows))
    row = list(rows[loc])
    if row and rng.random() < 0.5:
        delta, v = row[0]
        row[0] = (delta, field.add(v, field.one))
    else:
        row.append((rng.randrange(len(rows)) - loc, field.one))
    rows[loc] = tuple(row)
    return tuple(rows)


# (legs, offset) of each padded step of X^6, applied right to left
_LEG_SETS = {
    "legs-1-2": [(2, 1)],
    "legs-2-4-overlapping": [(2, 2), (2, 3), (1, 2)],
    "legs-0-1-and-4-5": [(2, 0), (2, 4), (2, 0)],
    "legs-0-3-5": [(1, 0), (1, 3), (1, 5)],
    "legs-1-and-3-5": [(3, 3), (1, 1)],
    "every-leg": [(3, 0), (3, 3), (2, 2)],
}


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(10007)], ids=["Q", "F10007"])
@pytest.mark.parametrize("legs", list(_LEG_SETS.values()), ids=list(_LEG_SETS))
def test_leg_restricted_compare_matches_full_scan(field, legs):
    rng = random.Random(len(legs) * 31 + legs[0][1])
    dim, rank = 3, 6
    ops = [_random_operator(rng, k, dim, field) for k, _ in legs]
    tables = [op.materialized().steps[0][0] for op in ops]

    def word(tables):
        return compose_chain(
            [SparseOperator.padded(t, None, k, offset, rank, dim, field) for t, (k, offset) in zip(tables, legs)]
        )

    assert word(tables).diff_witness(word(tables)) is None
    # the word built by tensor padding carries no trace markers: its trace sums the touched legs' keys
    identity = partial(SparseOperator.identity, dim=dim, field=field)
    unmarked = compose_chain(
        [identity(offset).tensor(op).tensor(identity(rank - offset - k)) for op, (k, offset) in zip(ops, legs)]
    )
    total = field.zero
    for idx in iter_indices(dim, rank):
        total = field.add(total, unmarked.column(idx).get(idx, field.zero))
    assert unmarked.trace() == total
    planted = 0
    for trial in range(6):
        changed = list(tables)
        at = trial % len(tables)
        changed[at] = _planted(rng, tables[at], field)
        a, b = word(changed), word(tables)
        got, want = a.diff_witness(b), full_scan_witness(a, b)
        assert got == want
        if want is not None:
            planted += 1
            assert list(got[1].items()) == list(want[1].items())
    assert planted  # the planted entries show


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(10007)], ids=["Q", "F10007"])
def test_rank_changing_word_compares_on_every_leg(field):
    # X^3 -> X^4 -> X^3: a comultiplication on the last leg, a table on legs 0-1, the counit on the last leg
    rng = random.Random(5)
    dim = 3
    one = SparseOperator.identity(2, dim, field)
    lift = one.tensor(delta_op(2, dim, field))
    drop = SparseOperator.identity(3, dim, field).tensor(counit_op(dim, field))
    table = _random_operator(rng, 2, dim, field).materialized().steps[0][0]

    def word(table):
        return compose_chain([drop, SparseOperator.padded(table, None, 2, 0, 4, dim, field), lift])

    a, b = word(_planted(rng, table, field)), word(table)
    assert _touched_legs(dim, 3, (a.steps, b.steps))[0] == (0, 1, 2)
    assert a.diff_witness(b) == full_scan_witness(a, b) is not None
    assert list(a.diff_witness(b)[1].items()) == list(full_scan_witness(a, b)[1].items())
    assert word(table).diff_witness(b) is None


def _legs_word(letters, rank, dim, field):
    """compose_chain of (table, legs, offset) padded steps: the last letter is applied first."""
    return compose_chain([SparseOperator.padded(t, None, k, offset, rank, dim, field) for t, k, offset in letters])


def _disjoint(x, y):
    (_, k, i), (_, m, j) = x, y
    return i + k <= j or j + m <= i


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(10007)], ids=["Q", "F10007"])
def test_words_equal_up_to_disjoint_swaps_prove_without_a_key(field):
    rng = random.Random(41 if field is RATIONALS else 43)
    dim, rank = 3, 6
    swapped = scanned = 0
    for _ in range(12):
        tables = {k: CountingRows(_random_operator(rng, k, dim, field).materialized().steps[0][0]) for k in (1, 2, 3)}
        letters = []
        for _ in range(rng.randint(2, 5)):
            k = rng.choice((1, 2, 3))
            letters.append((tables[k], k, rng.randrange(rank - k + 1)))
        a = _legs_word(letters, rank, dim, field)

        def lookups():
            return sum(t.lookups for t in tables.values())

        # swaps of adjacent steps on disjoint legs: the same per-leg sequences, no key visited
        reordered = list(letters)
        for _ in range(6):
            at = rng.randrange(len(reordered) - 1)
            if _disjoint(reordered[at], reordered[at + 1]):
                reordered[at], reordered[at + 1] = reordered[at + 1], reordered[at]
                swapped += reordered != letters
        b = _legs_word(reordered, rank, dim, field)
        before = lookups()
        assert a.diff_witness(b) is None
        assert lookups() == before
        assert full_scan_witness(a, b) is None
        # a swap of overlapping steps, or a table moved to another offset: scanned, as the full scan finds
        variants = []
        for at in range(len(letters) - 1):
            if not _disjoint(letters[at], letters[at + 1]) and letters[at] != letters[at + 1]:
                variants.append(letters[:at] + [letters[at + 1], letters[at]] + letters[at + 2 :])
        at = rng.randrange(len(letters))
        t, k, offset = letters[at]
        moved = rng.choice([o for o in range(rank - k + 1) if o != offset])
        variants.append(letters[:at] + [(t, k, moved)] + letters[at + 1 :])
        for variant in variants:
            b = _legs_word(variant, rank, dim, field)
            before = lookups()
            got = a.diff_witness(b)
            assert lookups() > before
            want = full_scan_witness(a, b)
            assert got == want
            if want is not None:
                scanned += 1
                assert list(got[1].items()) == list(want[1].items())
    assert swapped and scanned


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(10007)], ids=["Q", "F10007"])
def test_same_per_leg_letters_in_another_order_or_place_are_scanned(field):
    rng = random.Random(47)
    dim, rank = 3, 6
    t, u = (CountingRows(_random_operator(rng, 2, dim, field).materialized().steps[0][0]) for _ in range(2))
    pairs = [
        # one table on legs 0-1 and 1-2: each leg sees it once per step it is under, at another stride
        ([(t, 2, 0), (t, 2, 1)], [(t, 2, 1), (t, 2, 0)]),
        # two tables on overlapping legs: leg 2 sees (t, u) against (u, t)
        ([(t, 2, 1), (u, 2, 2)], [(u, 2, 2), (t, 2, 1)]),
    ]
    for left, right in pairs:
        a, b = _legs_word(left, rank, dim, field), _legs_word(right, rank, dim, field)
        got, want = a.diff_witness(b), full_scan_witness(a, b)
        assert want is not None
        assert got == want and list(got[1].items()) == list(want[1].items())
    # X^4 -> X^3: the table on legs 1-2 then the counit on leg 3, against the counit then the
    # table on legs 0-1; the per-place letters agree, but the counit moves the table's legs
    drop = SparseOperator.identity(3, dim, field).tensor(counit_op(dim, field))
    a = compose_chain([drop, SparseOperator.padded(t, None, 2, 1, 4, dim, field)])
    b = compose_chain([SparseOperator.padded(t, None, 2, 0, 3, dim, field), drop])
    got, want = a.diff_witness(b), full_scan_witness(a, b)
    assert want is not None
    assert got == want and list(got[1].items()) == list(want[1].items())
    # a scalar step on no leg is seen by no leg's sequence
    scalar = CountingRows((((0, field.from_int(2)),),))
    plain = _legs_word([(t, 2, 1)], rank, dim, field)
    scaled = compose_chain([plain, SparseOperator.padded(scalar, None, 0, 3, rank, dim, field)])
    got = scaled.diff_witness(plain)
    assert scalar.lookups
    want = full_scan_witness(scaled, plain)
    assert want is not None
    assert got == want and list(got[1].items()) == list(want[1].items())
