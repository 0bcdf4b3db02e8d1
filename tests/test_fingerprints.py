"""Operator fingerprints: exact images of a seeded vector under R^k and theta^f.

The trace invariant reads only the degree-preserving part of each
generator, so it cannot see the bracket terms (ROADMAP item 3).  These
fixtures pin them instead.  `tests/fixtures/fingerprints.tsv` holds, for
sl2 and nambu4, the images of a fixed seeded vector under R^k on X^4
(k = 1, 2, 3) and under theta^f on X^2 (f = -1, 1, 2), computed once by
the dense oracle (`matvec`; theta^-1 by exact elimination).  Each line is
``algebra<TAB>operator<TAB>power<TAB>image``, the image written as
space-separated ``digits:value`` terms in index order.  The nambu4 twist
is the identity, so its theta lines repeat the seeded vector.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from dense_oracle import DenseOracle, matvec, solve
from helpers import algebra, kit
from test_braiding import _tampered_pair
from tsdlink.braiding import build_braiding, power
from tsdlink.tensor import SparseTensor, iter_indices

FINGERPRINTS = Path(__file__).parent / "fixtures" / "fingerprints.tsv"
POWERS = {"R": (4, (1, 2, 3)), "theta": (2, (-1, 1, 2))}
TAMPERED = [("sl2", "bcx"), ("sl2", "cxy"), ("sl2", "bxz"), ("sl2", "nested"), ("nambu4", "bcx"), ("nambu4", "bracket")]


def seeded_vector(dim: int, rank: int) -> dict:
    """About a third of the basis tuples of X^rank, with small rational coefficients."""
    rng = random.Random(1000 * dim + rank)
    coefficients = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))
    return {idx: rng.choice(coefficients) for idx in iter_indices(dim, rank) if rng.random() < 1 / 3}


def read_fingerprints() -> dict:
    records = {}
    for line in FINGERPRINTS.read_text().splitlines():
        if line and not line.startswith("#"):
            name, operator, exp, image = line.split("\t")
            field = algebra(name).field
            terms = (term.split(":") for term in image.split())
            records[name, operator, int(exp)] = {tuple(map(int, digits)): field.parse(v) for digits, v in terms}
    return records


def format_line(name: str, operator: str, exp: int, image: dict) -> str:
    terms = " ".join(f"{''.join(map(str, idx))}:{v}" for idx, v in sorted(image.items()))
    return "\t".join([name, operator, str(exp), terms])


def oracle_images(name: str) -> dict:
    """Fingerprints of one algebra from the dense oracle."""
    oracle = DenseOracle(algebra(name))
    out = {}
    for operator, matrix in (("R", oracle.braiding_matrix()), ("theta", oracle.twist_matrix())):
        rank, exps = POWERS[operator]
        keys = list(iter_indices(oracle.dim, rank))
        start = [Fraction(0)] * len(keys)
        for idx, c in seeded_vector(oracle.dim, rank).items():
            start[oracle._flat(idx)] = Fraction(c)
        for exp in exps:
            vec = start
            for _ in range(abs(exp)):
                vec = matvec(matrix, vec) if exp > 0 else solve(matrix, vec)
            out[operator, exp] = {idx: v for idx, v in zip(keys, vec) if v != 0}
    return out


def sparse_image(op, rank: int):
    k = op.dim
    return op.apply(SparseTensor(rank, seeded_vector(k, rank), op.field)).entries


@pytest.mark.parametrize("name", ["sl2", "nambu4"])
def test_fingerprints_reproduced_by_oracle_and_sparse_pipeline(name):
    frozen = {key[1:]: image for key, image in read_fingerprints().items() if key[0] == name}
    assert set(frozen) == {(op, e) for op, (_, exps) in POWERS.items() for e in exps}
    assert oracle_images(name) == frozen
    k = kit(name)
    for (operator, exp), image in frozen.items():
        op = power(k, "braiding" if operator == "R" else "twist", exp)
        assert sparse_image(op, POWERS[operator][0]) == image, (operator, exp)


@pytest.mark.parametrize("name,flip", TAMPERED)
def test_tampered_braiding_changes_an_R_fingerprint(name, flip):
    frozen = read_fingerprints()
    braiding = build_braiding(_tampered_pair(name, flip))
    vec = SparseTensor(4, seeded_vector(braiding.dim, 4), braiding.field)
    images = []
    for _ in range(3):
        vec = braiding.apply(vec)
        images.append(vec.entries)
    assert any(image != frozen[name, "R", k] for k, image in enumerate(images, 1))
