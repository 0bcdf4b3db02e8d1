import dataclasses
import io
import re

import pytest

from helpers import BUNDLED, algebra, kit, padded_reference, same_columns, tsd_pair
from tsdlink import braiding as braiding_module
from tsdlink.braiding import (
    BraidingKit,
    build_braiding,
    build_braiding_inverse,
    build_twist,
    build_twist_inverse,
    check_braiding,
    make_braiding_kit,
    padded_power,
    power,
)
from tsdlink.braids import parse_braid_word
from tsdlink.cli import run_cli
from tsdlink.invariant import check_framed_braid_relations, trace_invariant
from tsdlink.tensor import (
    SparseOperator,
    compose_chain,
    delta_op,
    iter_indices,
    layout,
    leg_permutation,
    tensor_chain,
)
from tsdlink.tsd import TsdPair, _identities, build_T_tilde, compare

# frozen by the dense oracle (see test_oracle.py); basis order (b0, h, e, f)
SL2_BRAIDING_COLUMN_2030 = {(3, 0, 2, 0): 1, (0, 0, 1, 0): 1}
SL2_TWIST_COLUMN_23 = {(2, 3): 1, (1, 0): 1, (0, 1): -1}


def test_abelian_braiding_is_pair_swap():
    k = kit("abelian", 2)
    for idx in iter_indices(3, 4):
        expected = (idx[2], idx[3], idx[0], idx[1])
        assert k.braiding.column(idx) == {expected: 1}
        assert k.braiding_inv.column(idx) == {expected: 1}


def test_abelian_twist_is_identity():
    k = kit("abelian", 2)
    identity = SparseOperator.identity(2, 3, k.field)
    assert k.twist.diff_witness(identity) is None
    assert k.twist_inv.diff_witness(identity) is None


def test_grouplike_columns():
    for name, dim in BUNDLED:
        k = kit(name, dim)
        assert k.braiding.column((0, 0, 0, 0)) == {(0, 0, 0, 0): 1}
        assert k.braiding_inv.column((0, 0, 0, 0)) == {(0, 0, 0, 0): 1}
        assert k.twist.column((0, 0)) == {(0, 0): 1}


def test_sl2_frozen_braiding_column():
    assert kit("sl2").braiding.column((2, 0, 3, 0)) == SL2_BRAIDING_COLUMN_2030


def test_sl2_twist_differs_from_identity_with_frozen_column():
    k = kit("sl2")
    assert k.twist.diff_witness(SparseOperator.identity(2, 4, k.field)) is not None
    assert k.twist.column((2, 3)) == SL2_TWIST_COLUMN_23


def test_braiding_restricted_to_grouplike_is_permutation():
    # all-b0 columns of every bundled braiding form the pair-swap pattern
    for name, dim in BUNDLED:
        k = kit(name, dim)
        assert k.braiding.column((0,) * 4) == {(0,) * 4: 1}


@pytest.mark.parametrize("name,dim", BUNDLED)
def test_check_braiding_passes(name, dim):
    report = check_braiding(kit(name, dim))
    assert report.passed, [str(r) for r in report.failures]
    names = [r.name for r in report.results]
    assert "ybe" in names and "slide-under" in names and "slide-over" in names


def test_far_commutation_guard():
    report = check_braiding(kit("abelian", 2))
    far = [r for r in report.results if r.name == "far-commutation"][0]
    assert far.ok and "columns" in far.detail
    # no size guard: far commutation on X^8 runs for every kit, proved per leg without a key
    for name, columns in (("sl2", 4**8), ("nambu4", 5**8)):
        far = [r for r in check_braiding(kit(name)).results if r.name == "far-commutation"][0]
        assert far.ok and far.detail == f"{columns} columns"


def test_checks_share_padded_crossings(monkeypatch):
    k = make_braiding_kit(tsd_pair("sl2"))  # fresh kit: empty cache
    sides, padded = {}, []

    def recording_compare(label, a, b):
        sides[label] = a.steps + b.steps
        return compare(label, a, b)

    def recording_padded_power(kit, name, exponent, strand, n):
        padded.append((name, exponent, padded_power(kit, name, exponent, strand, n)))
        return padded[-1][2]

    monkeypatch.setattr(braiding_module, "compare", recording_compare)
    monkeypatch.setattr(braiding_module, "padded_power", recording_padded_power)
    check_braiding(k)
    check_framed_braid_relations(k)
    # the braid equation and the relations cross through one rows object: the kit's braiding, not a copy
    crossings = [
        rows
        for label, steps in sides.items()
        if label != "braiding-invertible"
        for rows, _, width, _ in steps
        if width == k.dim**4
    ]
    assert crossings and all(rows is k.braiding.steps[0][0] for rows in crossings)
    trace_invariant(k, parse_braid_word("s1 s2^-1 t3^2", 3))
    # each padded generator is one step that holds the table of its power
    keys = {(name, e) for name, e, _ in padded}
    assert keys == {("braiding", 1), ("braiding", -1), ("twist", 1), ("twist", -1), ("twist", 2)}
    assert all(len(op.steps) == 1 and op.steps[0][0] is power(k, name, e).steps[0][0] for name, e, op in padded)
    assert all(op.in_rank <= 4 for op in k.cache.values() if isinstance(op, SparseOperator))


@pytest.mark.parametrize("name", ["sl2", "nambu4"])
def test_braid_equation_is_compared_once_per_kit(name, monkeypatch):
    # ybe and braid-relation[s1,s2] on three strands are the same pair of words
    k = make_braiding_kit(tsd_pair(name))  # fresh kit: empty cache
    s1, s2 = (padded_power(k, "braiding", 1, i, 3) for i in (1, 2))
    pair = (compose_chain([s1, s2, s1]).steps, compose_chain([s2, s1, s2]).steps)
    calls = []
    diff_witness = SparseOperator.diff_witness

    def counting_diff_witness(self, other):
        calls.append((self.steps, other.steps) == pair)
        return diff_witness(self, other)

    monkeypatch.setattr(SparseOperator, "diff_witness", counting_diff_witness)
    braiding = check_braiding(k)
    relations = check_framed_braid_relations(k, 3)
    assert sum(calls) == 1
    ybe = [r for r in braiding.results if r.name == "ybe"]
    braid = [r for r in relations.results if r.name == "braid-relation[s1,s2]"]
    assert [(r.ok, r.detail) for r in ybe] == [(r.ok, r.detail) for r in braid] == [(True, f"{k.dim**6} columns")]


def test_relation_words_are_parsed_once_per_process(monkeypatch):
    warm = make_braiding_kit(tsd_pair("sl2"))
    check_braiding(warm)
    check_framed_braid_relations(warm)
    calls = []

    def counting_parse(text, n):
        calls.append(text)
        return parse_braid_word(text, n)

    monkeypatch.setattr(braiding_module, "parse_braid_word", counting_parse)
    k = make_braiding_kit(tsd_pair("sl2"))  # fresh kit: empty cache
    assert check_braiding(k).passed and check_framed_braid_relations(k).passed
    assert calls == []


def test_check_path_builds_no_graded_tables():
    k = make_braiding_kit(tsd_pair("so3"))  # fresh kit: empty cache
    check_braiding(k)
    check_framed_braid_relations(k)
    builders = {key[1:]: f for key, f in k.cache.items() if key[0] == "perm"}
    assert set(builders) == {("braiding", 1), ("braiding", -1), ("twist", 1), ("twist", -1)}
    assert all(f.cache_info().currsize == 0 for f in builders.values())
    trace_invariant(k, parse_braid_word("s1 s1", 2))
    assert [key for key, f in builders.items() if f.cache_info().currsize] == [("braiding", 1)]
    assert builders[("braiding", 1)].cache_info().currsize == 1


def _tampered_braiding(k, tamper):
    columns = {idx: dict(k.braiding.column(idx)) for idx in iter_indices(k.dim, 4)}
    tamper(columns)
    braiding = SparseOperator(4, 4, k.dim, k.field, lambda idx: columns.get(idx, {}))
    return dataclasses.replace(k, braiding=braiding, cache={})


def test_filtration_failure_is_reported_and_blocks_the_trace():
    k = make_braiding_kit(tsd_pair("sl2"))
    tampered = _tampered_braiding(k, lambda columns: columns[(0, 0, 0, 1)].update({(1, 1, 0, 0): 1}))  # degree 1 -> 2
    result = [r for r in check_braiding(tampered).results if r.name == "filtration"][0]
    assert (result.ok, result.detail) == (False, "braiding")
    assert (result.witness, result.residual) == (((0, 0, 0, 1), (1, 1, 0, 0)), {(1, 1, 0, 0): 1})
    with pytest.raises(RuntimeError, match=r"construction bug: column \(0, 0, 0, 1\) has output \(1, 1, 0, 0\)"):
        trace_invariant(tampered, parse_braid_word("s1", 2))
    report = check_braiding(k)
    assert [r.detail for r in report.results if r.name == "filtration"] == ["544 columns"]


def _swap_e_f_outputs(columns):
    # gr maps (0,0,0,2) to (0,3,0,0) and (0,0,0,3) to (0,2,0,0): a permutation of keys, not of legs
    for idx, out in (((0, 0, 0, 2), (0, 2, 0, 0)), ((0, 0, 0, 3), (0, 3, 0, 0))):
        del columns[idx][out]
        columns[idx][(0, 5 - out[1], 0, 0)] = 1


@pytest.mark.parametrize(
    "tamper,column,residual",
    [
        (lambda columns: columns.update({(0, 0, 0, 0): {(0, 0, 0, 0): 2}}), (0, 0, 0, 0), {(0, 0, 0, 0): 2}),
        (_swap_e_f_outputs, (0, 0, 0, 2), {(0, 3, 0, 0): 1}),
    ],
    ids=["coefficient-2", "key-permutation"],
)
def test_filtered_braiding_whose_gr_is_no_leg_permutation_blocks_the_trace(tamper, column, residual):
    # the filtration line fails on the column the trace refuses, with gr of that column as residual
    tampered = _tampered_braiding(make_braiding_kit(tsd_pair("sl2")), tamper)
    result = [r for r in check_braiding(tampered).results if r.name == "filtration"]
    assert [(r.ok, r.detail, r.witness, r.residual) for r in result] == [(False, "braiding", column, residual)]
    with pytest.raises(RuntimeError, match=rf"construction bug: column {re.escape(str(column))} has degree-preserving"):
        trace_invariant(tampered, parse_braid_word("s1", 2))


def test_filtered_braiding_whose_one_leg_columns_give_no_leg_permutation_blocks_the_trace():
    # gr maps (0,0,0,1) to (0,2,0,0): no leg of the permutation for the last leg
    k = make_braiding_kit(tsd_pair("sl2"))
    tampered = _tampered_braiding(k, lambda columns: columns.update({(0, 0, 0, 1): {(0, 2, 0, 0): 1}}))
    result = [r for r in check_braiding(tampered).results if r.name == "filtration"]
    assert [(r.ok, r.detail, r.witness, r.residual) for r in result] == [(False, "braiding", (2, 3, 0, None), None)]
    message = "construction bug: the one-leg columns of gr give slots (2, 3, 0, None), not a leg permutation"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        trace_invariant(tampered, parse_braid_word("s1", 2))


@pytest.mark.parametrize("name,n", [("sl2", 2), ("sl2", 3), ("nambu4", 2)])
def test_padded_generators_match_tensor_padding(name, n):
    k = kit(name)
    for strand in range(1, n):
        for sign, base in ((1, k.braiding), (-1, k.braiding_inv)):
            op = padded_power(k, "braiding", sign, strand, n)
            assert same_columns(padded_reference(k, base, strand, n), op), (strand, sign)
    for strand in range(1, n + 1):
        for exp in (1, -1, 2):
            base = power(k, "twist", exp)
            op = padded_power(k, "twist", exp, strand, n)
            assert same_columns(padded_reference(k, base, strand, n), op), (strand, exp)


def _tampered_pair(name, flip="nested"):
    """Pair whose forward map has one term's sign flipped."""
    from test_tsd import _sign_flipped_T

    spec = algebra(name)
    if spec.arity == 2:
        bad_T = _sign_flipped_T(spec, flip)
    else:
        from tsdlink.tsd import build_T

        good = build_T(spec)
        field = spec.field

        def col(idx):
            i, j, k = idx
            base = good.column(idx)
            if flip == "bracket" and i > 0 and j > 0 and k > 0:
                return {l: field.neg(c) for l, c in base.items()}
            if flip == "bcx" and i > 0 and j == 0 and k == 0:
                return {l: field.neg(c) for l, c in base.items()}
            return base

        bad_T = SparseOperator(3, 1, spec.dim + 1, field, col)
    return TsdPair(spec, bad_T, build_T_tilde(spec))


@pytest.mark.parametrize(
    "name,flip",
    [
        ("sl2", "bcx"),
        ("sl2", "cxy"),
        ("sl2", "bxz"),
        ("sl2", "nested"),
        ("nambu4", "bcx"),
        ("nambu4", "bracket"),
    ],
)
def test_sign_flip_breaks_ybe_or_reversibility(name, flip):
    pair = _tampered_pair(name, flip)
    braiding = build_braiding(pair)
    one2 = SparseOperator.identity(2, pair.dim, pair.field)
    left = braiding.tensor(one2)
    right = one2.tensor(braiding)
    lhs = left.compose(right).compose(left)
    rhs = right.compose(left).compose(right)
    ybe_holds = lhs.diff_witness(rhs) is None
    try:
        build_braiding_inverse(pair)
        invertible_by_displayed_formula = True
    except RuntimeError:
        invertible_by_displayed_formula = False
    assert not (ybe_holds and invertible_by_displayed_formula)


def test_inverse_assertion_failure_message():
    pair = _tampered_pair("nambu4", "bracket")
    with pytest.raises(RuntimeError, match="construction bug"):
        build_braiding_inverse(pair)


def test_kit_build_scans_one_inverse_identity_per_generator(monkeypatch):
    # inverse . forward = identity is asserted once for R and once for theta; over a field a
    # square left inverse is a right inverse, so the other order is never scanned
    calls = []
    original = SparseOperator.diff_witness
    monkeypatch.setattr(SparseOperator, "diff_witness", lambda self, other: calls.append(1) or original(self, other))
    braiding_module.make_braiding_kit(tsd_pair("sl2"))
    assert len(calls) == 2


def test_a_kit_is_its_tsd_pair_and_hashes_by_identity():
    pair = tsd_pair("sl2")
    k = make_braiding_kit(pair)
    assert isinstance(k, TsdPair) and (k.algebra, k.op, k.rev) == (pair.algebra, pair.op, pair.rev)
    assert [name for name, value in vars(BraidingKit).items() if isinstance(value, property)] == []
    twin = dataclasses.replace(k)
    assert twin != k and len({k, twin, k}) == 2
    assert make_braiding_kit(k).op is k.op  # a kit is a pair a kit can be built from


@pytest.mark.parametrize("name", ["sl2", "nambu4"])
def test_leg_permutation_reads_each_column_once(name, monkeypatch):
    # the four one-leg columns give the permutation; one scan then asserts filtration and gr together
    k, reads = kit(name), []
    column = SparseOperator.column
    monkeypatch.setattr(SparseOperator, "column", lambda self, idx: reads.append(idx) or column(self, idx))
    assert leg_permutation(k.braiding) == (2, 3, 0, 1)
    assert len(reads) == k.dim**4 + 4 and len(set(reads)) == k.dim**4


# (algebra, route, swapped entries, failing lines): a route of R or theta with two entries
# swapped that the kit build, the inverse identities and the framed-braid relations accept,
# since the undo map builds a matching inverse; the counit projections tie it back to T
TWIST_ROUTE = "x1 x2 x3 y1 y2 y3 -> x1 x2 y2 y1 x3 y3"
BRAIDING_ROUTE = "x y z1 z2 z3 w1 w2 w3 -> z1 w1 x z2 w2 y z3 w3"
ROUTE_MUTANTS = [
    ("sl2", TWIST_ROUTE, (1, 5), ["twist-counit[first]", "twist-counit[second]"]),
    ("sl2", TWIST_ROUTE, (2, 4), ["twist-counit[first]", "twist-counit[second]"]),
    ("nambu4", BRAIDING_ROUTE, (3, 7), ["braiding-counit[front]"]),
    ("nambu4", BRAIDING_ROUTE, (4, 6), ["braiding-counit[front]"]),
]


@pytest.mark.parametrize(
    "name,route,swap,failing", ROUTE_MUTANTS, ids=["sl2-twist-1-5", "sl2-twist-2-4", "nambu4-R-3-7", "nambu4-R-4-6"]
)
def test_check_fails_a_route_whose_inverse_matches(name, route, swap, failing, monkeypatch):
    def mutated(text):
        perm = list(layout(text))
        if text == route:
            i, j = swap
            perm[i], perm[j] = perm[j], perm[i]
        return tuple(perm)

    monkeypatch.setattr(braiding_module, "layout", mutated)
    out = io.StringIO()
    assert run_cli(["check", name], out=out) == 1
    assert [line.split(":")[0] for line in out.getvalue().splitlines() if ": FAIL" in line] == failing


def test_twist_inverse_standalone():
    pair = tsd_pair("so3")
    twist = build_twist(pair)
    twist_inv = build_twist_inverse(pair)
    identity = SparseOperator.identity(2, pair.dim, pair.field)
    assert twist.compose(twist_inv).diff_witness(identity) is None
    assert twist_inv.compose(twist).diff_witness(identity) is None


# Each inverse and reversibility left side as a layout of its own per path:
# on the binary path the outer map takes its last two inputs reversed, on the
# ternary path straight.  The undo map builds the inverses from the forward
# routes, so a wrong forward route gives a wrong pair that still inverts; a
# few such routes pass every check of the sweep, and only independent
# layouts like these (or the dense oracle) tell them apart.
PER_PATH_LAYOUTS = {
    2: {
        "braiding-inverse": "x1 x2 x3 y1 y2 y3 z w -> z y2 x2 w y3 x3 x1 y1",
        "twist-inverse": "x1 x2 x3 y1 y2 y3 -> x1 y2 x2 y1 y3 x3",
        "def-legs": "x y1 y2 z1 z2 -> x y2 z2 z1 y1",
        "proof-legs": "x y1 y2 z1 z2 -> x y1 z1 z2 y2",
    },
    3: {
        "braiding-inverse": "x1 x2 x3 y1 y2 y3 z w -> z x2 y2 w x3 y3 x1 y1",
        "twist-inverse": "x1 x2 x3 y1 y2 y3 -> x1 x2 y2 y1 x3 y3",
        "def-legs": "x y1 y2 z1 z2 -> x y2 z2 y1 z1",
        "proof-legs": "x y1 y2 z1 z2 -> x y1 z1 y2 z2",
    },
}


@pytest.mark.parametrize("name", ["sl2", "nambu4"])
def test_undo_map_constructions_match_the_per_path_layouts(name):
    # R^-1, theta^-1 and the reversibility left sides built from TsdPair.undoing
    # equal the per-path constructions column for column, in entry order
    k = kit(name)
    pair, dim, field = k, k.dim, k.field
    layouts = PER_PATH_LAYOUTS[pair.algebra.arity]
    one1, d2, d3 = SparseOperator.identity(1, dim, field), delta_op(2, dim, field), delta_op(3, dim, field)

    def routed(outer, text, inner):
        perm = SparseOperator.permutation(layout(text), dim, field)
        return compose_chain([tensor_chain(outer), perm, tensor_chain(inner)])

    rev = pair.rev
    braiding_inv = routed([rev, rev, one1, one1], layouts["braiding-inverse"], [d3, d3, one1, one1])
    assert same_columns(braiding_inv, k.braiding_inv)
    assert same_columns(routed([rev, rev], layouts["twist-inverse"], [d3, d3]), k.twist_inv)
    expand2 = tensor_chain([one1, d2, d2])
    sides = {label: lhs for label, lhs, _ in _identities(pair, {"reversibility"})}
    assert len(sides) == 4
    for order in ("def-legs", "proof-legs"):
        for maps, outer, inner in (("rev.fwd", rev, pair.op), ("fwd.rev", pair.op, rev)):
            lhs = routed([outer.compose(tensor_chain([inner, one1, one1]))], layouts[order], [expand2])
            assert same_columns(lhs, sides[f"reversibility[{maps},{order}]"]), (maps, order)
