import dataclasses
import random
import re
import sys
import time

import pytest

from helpers import BUNDLED, CountingRows, full_scan_witness, kit, padded_reference, same_columns, tsd_pair
from tsdlink.braids import FramedBraidWord, cycle_count, normalize, parse_braid_word, underlying_permutation
from tsdlink import braiding as braiding_module
from tsdlink.fields import PrimeField
from tsdlink.invariant import (
    DimensionCapError,
    check_framed_braid_relations,
    fixture_line,
    markov_report,
    parse_fixture_file,
    representation,
    trace_invariant,
)
from tsdlink.braiding import make_braiding_kit, padded_power, power
from tsdlink.tensor import SparseOperator, iter_indices
from tsdlink.tsd import compare


def test_empty_word_is_identity():
    k = kit("sl2")
    op = representation(k, parse_braid_word("", 1))
    assert op.diff_witness(SparseOperator.identity(2, 4, k.field)) is None


def test_single_twist_word_is_the_twist():
    k = kit("sl2")
    op = representation(k, normalize(parse_braid_word("t1", 1)))
    assert op.diff_witness(k.twist) is None


def test_representation_requires_normalized():
    k = kit("sl2")
    with pytest.raises(ValueError, match="normalize"):
        representation(k, parse_braid_word("t1 s1", 2))


def test_abelian_representation_is_block_permutation():
    k = kit("abelian", 1)
    word = parse_braid_word("s1 s2^-1 s1", 3)
    op = representation(k, normalize(word))
    perm = underlying_permutation(word)
    # strand i's pair of factors moves to strand perm[i]'s slots
    for idx in iter_indices(2, 6):
        pairs = [(idx[2 * i], idx[2 * i + 1]) for i in range(3)]
        out = [None] * 3
        for i, pair in enumerate(pairs):
            out[perm[i] - 1] = pair
        expected = tuple(v for pair in out for v in pair)
        assert op.column(idx) == {expected: 1}


def test_representation_concatenation_homomorphism():
    k = kit("so3")
    rng = random.Random(11)
    for _ in range(5):
        letters1 = " ".join(rng.choice(["s1", "s1^-1", "s2", "s2^-1"]) for _ in range(rng.randint(1, 3)))
        letters2 = " ".join(rng.choice(["s1", "s1^-1", "s2", "s2^-1"]) for _ in range(rng.randint(1, 3)))
        w1 = parse_braid_word(letters1, 3)
        w2 = parse_braid_word(letters2, 3)
        combined = parse_braid_word(letters1 + " " + letters2, 3)
        lhs = representation(k, combined)
        rhs = representation(k, w1).compose(representation(k, w2))
        assert lhs.diff_witness(rhs) is None


def test_trace_examples():
    assert trace_invariant(kit("abelian", 1), parse_braid_word("", 1)).value == 4
    assert trace_invariant(kit("abelian", 1), parse_braid_word("s1 s1", 2)).value == 16
    assert trace_invariant(kit("abelian", 2), parse_braid_word("s1 s1", 2)).value == 81


def test_kink_cancellation():
    k = kit("sl2")
    with_kinks = trace_invariant(k, parse_braid_word("t1 t1^-1 s1", 2))
    without = trace_invariant(k, parse_braid_word("s1", 2))
    assert with_kinks.value == without.value


def test_abelian_closed_form_random_words():
    rng = random.Random(2024)
    for d in (1, 2):
        k = kit("abelian", d)
        for _ in range(20):
            n = rng.randint(1, 3)
            tokens = []
            for _ in range(rng.randint(0, 6)):
                if n > 1 and rng.random() < 0.7:
                    tokens.append(f"s{rng.randint(1, n - 1)}^{rng.choice([1, -1, 2])}")
                else:
                    tokens.append(f"t{rng.randint(1, n)}^{rng.choice([1, -1, 2])}")
            word = parse_braid_word(" ".join(tokens), n)
            cycles = cycle_count(underlying_permutation(word))
            assert trace_invariant(k, word).value == (d + 1) ** (2 * cycles)


def test_framing_probe_reproducible():
    k = kit("sl2")
    values = [trace_invariant(k, FramedBraidWord(1, (f,), ())).value for f in range(-2, 3)]
    # frozen by the dense oracle; distinctness is reported, not assumed
    assert values == [16, 16, 16, 16, 16]
    assert len(set(values)) == 1  # observed collapse, recorded


def test_dimension_cap():
    # the trace reads no column, so no operator dimension is refused: 5^10 here
    assert trace_invariant(kit("nambu4"), parse_braid_word("s1", 5)).value == 390625
    # only a number past Python's int-to-str limit is refused: the operator dimension or a framing
    limit = sys.get_int_max_str_digits()
    k = kit("sl2")
    assert trace_invariant(k, FramedBraidWord(1, (1 - 10**limit,), ())).value == 16
    for word, name in (
        (FramedBraidWord(3572, (0,) * 3572, ()), "operator dimension 4^7144"),
        (FramedBraidWord(1, (-(10**limit),), ()), "a framing"),
    ):
        with pytest.raises(DimensionCapError, match=f"^{re.escape(name)} has more than {limit} digits"):
            trace_invariant(k, word)


def test_prime_field_pipeline_matches_rational_mod_p():
    from tsdlink.algebra import builtin_algebra

    p = 10007
    k_mod = make_braiding_kit(builtin_algebra("sl2", field=PrimeField(p)))
    k_rat = kit("sl2")
    for text, n in [("s1 s1 s1", 2), ("s1^-1", 2)]:
        word = parse_braid_word(text, n)
        rational = trace_invariant(k_rat, word).value
        modular = trace_invariant(k_mod, word).value
        assert modular == rational % p


def test_framed_braid_relations(monkeypatch):
    for name in ("so3", "sl2"):
        report = check_framed_braid_relations(kit(name), n=3)
        assert report.passed, [str(r) for r in report.failures]
    # memoized per kit: a second sweep compares nothing and reports the same results
    k = kit("so3")
    first = check_framed_braid_relations(k, n=3)
    calls = []

    def counting_compare(*args):
        calls.append(args[0])
        return compare(*args)

    monkeypatch.setattr(braiding_module, "compare", counting_compare)
    second = check_framed_braid_relations(k, n=3)
    assert second == first and second.results
    assert calls == []


@pytest.mark.parametrize("name", ["sl2", "nambu4"])
def test_framed_braid_relations_on_five_strands(name):
    # 33 relations on X^10; each compares its two words on the legs they touch
    start = time.perf_counter()
    report = check_framed_braid_relations(make_braiding_kit(tsd_pair(name)), n=5)
    assert time.perf_counter() - start < 30
    assert len(report.results) == 33
    assert report.passed, [str(r) for r in report.failures]


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("name", ["sl2", "nambu4"])
def test_disjoint_leg_relations_prove_without_a_key(name, n, monkeypatch):
    # the kit's generator tables count the keys each relation runs through them
    counted = dataclasses.replace(kit(name), cache={})
    tables = []
    for label, base in (("braiding+", counted.braiding), ("twist+", counted.twist)):
        counted.cache[("table", label)] = CountingRows(base.materialized().steps[0][0])
        counted.cache[("perm", label)] = None
        tables.append(counted.cache[("table", label)])
    visited = {}

    def counting_compare(label, a, b):
        before = sum(t.lookups for t in tables)
        result = compare(label, a, b)
        visited[label] = sum(t.lookups for t in tables) - before
        return result

    monkeypatch.setattr(braiding_module, "compare", counting_compare)
    report = check_framed_braid_relations(counted, n=n)
    assert report.passed, [str(r) for r in report.failures]
    disjoint = {f"twist-commute[t{i},t{j}]" for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    disjoint |= {f"twist-push[t{i},s{j}]" for i in range(1, n + 1) for j in range(1, n) if i not in (j, j + 1)}
    assert len(disjoint) == {3: 5, 5: 22}[n]
    # the braid relations and the adjacent pushes still run keys
    assert len(visited) == len(report.results)
    assert {label for label, keys in visited.items() if not keys} == disjoint


def test_tampered_twist_witness_on_non_adjacent_strands():
    # sl2 twist with the sign of one lower-degree entry flipped: (1, 2) -> 2 (2, 0) - 2 (0, 2)
    k = make_braiding_kit(tsd_pair("sl2"))
    columns = {idx: dict(k.twist.column(idx)) for idx in iter_indices(k.dim, 2)}
    columns[(1, 2)][(2, 0)] = k.field.neg(columns[(1, 2)][(2, 0)])
    twist = SparseOperator.from_columns(2, 2, k.dim, k.field, columns)
    tampered = dataclasses.replace(k, twist=twist, cache={})
    # t1 t3 acts on legs {0, 1, 4, 5} of X^6; its witness has index 0 on legs 2 and 3
    lhs = padded_power(tampered, "twist", 1, 1, 3).compose(padded_power(tampered, "twist", 1, 3, 3))
    rhs = padded_power(k, "twist", 1, 1, 3).compose(padded_power(k, "twist", 1, 3, 3))
    got, want = lhs.diff_witness(rhs), full_scan_witness(lhs, rhs)
    assert got == want
    assert list(got[1].items()) == list(want[1].items())
    assert got[0][2:4] == (0, 0)
    # the relation itself holds for any twist: steps on disjoint legs commute
    report = check_framed_braid_relations(tampered, n=3)
    assert [r.ok for r in report.results if r.name == "twist-commute[t1,t3]"] == [True]
    assert len(report.failures) == 4
    for r in report.failures:  # the twist pushes on adjacent strands, each on 4 of the 6 legs
        i, j = map(int, re.fullmatch(r"twist-push\[t(\d),s(\d)\]", r.name).groups())
        image = j + 1 if i == j else j if i == j + 1 else i
        sigma = padded_power(tampered, "braiding", 1, j, 3)
        twist_i, twist_image = (padded_power(tampered, "twist", 1, s, 3) for s in (i, image))
        idx, residual = full_scan_witness(twist_i.compose(sigma), sigma.compose(twist_image))
        assert (r.witness, list(r.residual.items())) == (idx, list(residual.items()))


def test_normalize_preserves_represented_operator():
    # letterwise operator of the raw word == operator of its normal form;
    # this is the oracle that pins the twist-push convention
    from tsdlink.braiding import _padded
    from tsdlink.tensor import compose_chain

    k = kit("sl2")
    for text, n in [("t1 s1", 2), ("t2 s1 t1", 2), ("t1^2 s1^-1 t2^-1", 2), ("s1 t3 s2^-1 t1^2", 3)]:
        word = parse_braid_word(text, n)
        ops = []
        for kind, index, exp in word.letters:
            if kind == "s":
                gen = padded_power(k, "braiding", 1 if exp > 0 else -1, index, n)
                ops.extend([gen] * abs(exp))
            else:
                ops.append(_padded(k, f"tw{exp}", power(k, "twist", exp), index, n))
        letterwise = compose_chain(ops)
        assert letterwise.diff_witness(representation(k, normalize(word))) is None, text


@pytest.mark.parametrize(
    "name,text,n",
    [
        ("sl2", "s1 s2^-1 s1^2 t1 t2^-2", 3),
        ("sl2", "s2^-1 s1 t3^3", 3),
        ("nambu4", "s1^-1 t1 t2^-1 s1", 2),
    ],
)
def test_representation_matches_tensor_padding(name, text, n):
    from tsdlink.tensor import compose_chain, tensor_chain

    k = kit(name)
    word = normalize(parse_braid_word(text, n))
    ops = []
    for kind, index, exp in word.letters:
        base = k.braiding if exp > 0 else k.braiding_inv
        ops.extend([padded_reference(k, base, index, n)] * abs(exp))
    ops.append(tensor_chain([power(k, "twist", f) for f in word.framings]))
    assert same_columns(compose_chain(ops), representation(k, word)), text


@pytest.mark.parametrize("name,dim", BUNDLED)
def test_graded_trace_matches_column_trace(name, dim):
    # the trace reads only the degree-preserving rows; the columns read every row
    k = kit(name, dim)
    rng = random.Random(97 + 13 * BUNDLED.index((name, dim)))
    for _ in range(4):
        n = rng.randint(1, 2 if name == "nambu4" else 3)
        tokens = [f"t{rng.randint(1, n)}^{rng.choice([1, -1, 2, -3])}" for _ in range(rng.randint(0, 2))]
        if n > 1:
            tokens += [f"s{rng.randint(1, n - 1)}^{rng.choice([1, -1, 2, -2, 4, -5])}" for _ in range(rng.randint(1, 3))]
        rng.shuffle(tokens)
        op = representation(k, normalize(parse_braid_word(" ".join(tokens), n)))
        # a step that is no kit generator sends the trace through the columns
        mixed = op.compose(padded_reference(k, k.twist, rng.randint(1, n), n))
        assert not all(mixed.perms)
        for word in (op, mixed):
            full = k.field.zero
            for idx in iter_indices(k.dim, 2 * n):
                v = word.column(idx).get(idx)
                if v is not None:
                    full = k.field.add(full, v)
            assert word.trace() == full, tokens


def test_normalize_two_pushes_frozen_framings():
    # "t2 s1 t1" normalizes to s1 with framings (2,0); cross-checked above
    word = normalize(parse_braid_word("t2 s1 t1", 2))
    assert word.framings == (2, 0)


def test_markov_report_trials_equal():
    report = markov_report(kit("sl2"), parse_braid_word("s1 s1 s1", 2), trials=8, seed=5, moves=5)
    assert report.all_equal and report.passed
    assert report.base.value == 16
    assert len(report.trials) == 8
    assert all(t.value == 16 for t in report.trials)
    assert report.relations.passed


def test_markov_report_deterministic():
    a = markov_report(kit("sl2"), parse_braid_word("s1", 2), trials=4, seed=9, moves=4)
    b = markov_report(kit("sl2"), parse_braid_word("s1", 2), trials=4, seed=9, moves=4)
    assert [t.value for t in a.trials] == [t.value for t in b.trials]
    assert [t.word for t in a.trials] == [t.word for t in b.trials]


def test_markov_report_stabilize_modes():
    base = parse_braid_word("s1", 2)
    for mode in ("plain", "compensated"):
        rep = markov_report(kit("sl2"), base, trials=3, seed=11, moves=2, stabilize=mode)
        assert all(t.word.strands == 3 for t in rep.trials)
        # verdicts are reported, never asserted; report stays deterministic
        again = markov_report(kit("sl2"), base, trials=3, seed=11, moves=2, stabilize=mode)
        assert [t.value for t in rep.trials] == [t.value for t in again.trials]
        assert rep.passed  # relations hold; stabilization equality not required


def test_fixture_line_round_trip():
    line = fixture_line("sl2-trefoil", "s1 s1 s1", (0, 0), "16")
    records = parse_fixture_file("# comment\n" + line + "\n")
    assert records == [("sl2-trefoil", "s1 s1 s1", (0, 0), "16")]
