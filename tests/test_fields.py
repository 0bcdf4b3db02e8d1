import random
from fractions import Fraction

import pytest

from tsdlink.fields import Field, FieldError, PrimeField, RATIONALS


def test_parse_canonical_reduction():
    assert RATIONALS.parse("2/4") == Fraction(1, 2)
    assert RATIONALS.render(RATIONALS.parse("2/4")) == "1/2"


def test_parse_zero_case():
    assert RATIONALS.parse("0/5") == 0
    assert RATIONALS.render(RATIONALS.parse("0/5")) == "0"


def test_parse_integral_is_int():
    v = RATIONALS.parse("6/3")
    assert v == 2 and isinstance(v, int)


def test_prime_parse_modular_reduction():
    f7 = PrimeField(7)
    assert f7.parse("-3") == 4


def test_prime_parse_fraction_literal():
    f7 = PrimeField(7)
    assert f7.parse("3/2") == f7.mul(3, f7.inv(2))


def test_parse_errors():
    with pytest.raises(FieldError):
        RATIONALS.parse("1/0")
    with pytest.raises(FieldError):
        RATIONALS.parse("a/b")
    with pytest.raises(FieldError):
        RATIONALS.parse("1.5")
    with pytest.raises(FieldError):
        PrimeField(6)
    with pytest.raises(FieldError):
        PrimeField(7).parse("1/0")
    with pytest.raises(FieldError, match="malformed modulus"):
        PrimeField(7).parse("1 mod x")
    with pytest.raises(FieldError, match="different modulus"):
        PrimeField(7).parse("1 mod 11")


def test_prime_moduli_are_decided_exactly():
    # Miller-Rabin with the prime bases 2..41 is deterministic below psi_13; psi_12 fools the bases 2..37
    psi_12, psi_13 = 399_165_290_221 * 798_330_580_441, 3_317_044_064_679_887_385_961_981
    assert psi_12 == 318_665_857_834_031_151_167_461
    for p in (2, 7, 10007, 2**61 - 1, 2**64 - 59):
        assert PrimeField(p).p == p
    with pytest.raises(FieldError, match=f"^modulus is not prime: {psi_12}$"):
        PrimeField(psi_12)
    for p in (psi_13, 2**127 - 1):
        with pytest.raises(FieldError, match=f"^modulus too large: primality is decided only below {psi_13}$"):
            PrimeField(p)


def test_number_past_the_int_str_limit_in_a_literal():
    for field, kind in ((RATIONALS, "rational"), (PrimeField(7), "prime-field")):
        with pytest.raises(FieldError, match=f"^number too long in {kind} literal '1/9{{5000}}'$"):
            field.parse("1/" + "9" * 5000)


def test_arith_examples():
    assert RATIONALS.add(RATIONALS.parse("1/2"), RATIONALS.parse("1/3")) == Fraction(5, 6)
    f7 = PrimeField(7)
    assert f7.inv(3) == 5
    assert f7.mul(3, 5) == f7.one


def test_div_and_inv():
    assert RATIONALS.div(1, 2) == Fraction(1, 2)
    assert RATIONALS.inv(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(FieldError):
        RATIONALS.div(1, 0)
    with pytest.raises(FieldError):
        PrimeField(7).inv(0)


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(7), PrimeField(10007)])
def test_field_axioms_random(field):
    rng = random.Random(8)

    def rand():
        if field.kind == "prime":
            return rng.randrange(field.p)
        return field.div(field.from_int(rng.randint(-30, 30)), field.from_int(rng.choice([1, 1, 2, 3, 5])))

    for _ in range(100):
        a, b, c = rand(), rand(), rand()
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero
        assert field.mul(a, field.one) == a
        if b != field.zero:
            assert field.mul(field.div(a, b), b) == a


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(13)])
def test_render_parse_round_trip(field):
    rng = random.Random(21)
    for _ in range(100):
        if field.kind == "prime":
            a = rng.randrange(field.p)
        else:
            a = field.div(field.from_int(rng.randint(-50, 50)), field.from_int(rng.randint(1, 12)))
        assert field.parse(field.render(a)) == a


def test_descriptor_round_trip():
    for field in (RATIONALS, PrimeField(31)):
        assert Field.from_descriptor(field.descriptor()) == field
    with pytest.raises(FieldError):
        Field.from_descriptor({"kind": "galois"})
