"""Independent dense-matrix oracle for the braiding, twist and traces.

Deliberately separate implementation path from the package: pairs (a, xs)
with dense coefficient lists, its own antisymmetrized structure tensor,
its own three-summand comultiplication legs, and full (dim^m x dim^m)
matrices multiplied entry by entry.  Used to compute the frozen fixture
values once and to cross-check the sparse pipeline column for column.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class DenseOracle:
    def __init__(self, spec):
        self.spec = spec
        self.d = spec.dim
        self.dim = spec.dim + 1
        self.arity = spec.arity
        # fully antisymmetrized structure tensor: index tuple -> dense vector
        self.table = {}
        for key, coeffs in spec.structure.items():
            base = [Fraction(0)] * self.d
            for idx, c in coeffs.items():
                base[idx - 1] = Fraction(c)
            for perm in permutations(range(self.arity)):
                tup = tuple(key[p] for p in perm)
                sign = _perm_sign(perm)
                self.table[tup] = base if sign == 1 else [-c for c in base]

    # -- pair arithmetic ----------------------------------------------------

    def zero_vec(self):
        return [Fraction(0)] * self.d

    def bracket(self, *vecs):
        out = self.zero_vec()
        for idx in product(range(1, self.d + 1), repeat=self.arity):
            coeff = Fraction(1)
            for slot, i in enumerate(idx):
                coeff *= vecs[slot][i - 1]
                if coeff == 0:
                    break
            if coeff == 0:
                continue
            entry = self.table.get(idx)
            if entry:
                for k in range(self.d):
                    out[k] += coeff * entry[k]
        return out

    def T(self, p1, p2, p3):
        (a, x), (b, y), (c, z) = p1, p2, p3
        scalar = a * b * c
        vec = [b * c * xi for xi in x]
        if self.arity == 2:
            for k, v in enumerate(self.bracket(x, y)):
                vec[k] += c * v
            for k, v in enumerate(self.bracket(x, z)):
                vec[k] += b * v
            for k, v in enumerate(self.bracket(self.bracket(x, y), z)):
                vec[k] += v
        else:
            for k, v in enumerate(self.bracket(x, y, z)):
                vec[k] += v
        return scalar, vec

    def T_tilde(self, p1, p2, p3):
        (a, x), (b, y), (c, z) = p1, p2, p3
        if self.arity == 3:
            return self.T(p1, p3, p2)
        scalar = a * b * c
        vec = [b * c * xi for xi in x]
        for k, v in enumerate(self.bracket(x, y)):
            vec[k] -= c * v
        for k, v in enumerate(self.bracket(x, z)):
            vec[k] -= b * v
        for k, v in enumerate(self.bracket(self.bracket(x, y), z)):
            vec[k] += v
        return scalar, vec

    # -- comultiplication legs ------------------------------------------------

    def unit_pair(self):
        return (Fraction(1), self.zero_vec())

    def basis_pair(self, i):
        if i == 0:
            return self.unit_pair()
        vec = self.zero_vec()
        vec[i - 1] = Fraction(1)
        return (Fraction(0), vec)

    def delta3_legs(self, pair):
        a, x = pair
        e = self.unit_pair()
        return [
            ((a, list(x)), e, e),
            (e, (Fraction(0), list(x)), e),
            (e, e, (Fraction(0), list(x))),
        ]

    def pair_coeffs(self, pair):
        a, x = pair
        out = {}
        if a != 0:
            out[0] = a
        for i, c in enumerate(x, start=1):
            if c != 0:
                out[i] = c
        return out

    # -- dense matrices --------------------------------------------------------

    def _column_from_terms(self, terms, rank):
        column = {}
        for factors in terms:
            coeff_maps = [self.pair_coeffs(p) for p in factors]
            if any(not m for m in coeff_maps):
                continue
            for combo in product(*(m.items() for m in coeff_maps)):
                idx = tuple(i for i, _ in combo)
                val = Fraction(1)
                for _, c in combo:
                    val *= c
                column[idx] = column.get(idx, Fraction(0)) + val
        return {k: v for k, v in column.items() if v != 0}

    def braiding_matrix(self):
        """R: column at (i1..i4) is sum over legs of z1 (x) w1 (x) T(x,z2,w2) (x) T(y,z3,w3)."""
        n = self.dim**4
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for col_idx in product(range(self.dim), repeat=4):
            p1, p2, p3, p4 = (self.basis_pair(i) for i in col_idx)
            terms = []
            for z_legs in self.delta3_legs(p3):
                for w_legs in self.delta3_legs(p4):
                    terms.append(
                        (
                            z_legs[0],
                            w_legs[0],
                            self.T(p1, z_legs[1], w_legs[1]),
                            self.T(p2, z_legs[2], w_legs[2]),
                        )
                    )
            col = self._flat(col_idx)
            for idx, val in self._column_from_terms(terms, 4).items():
                matrix[self._flat(idx)][col] = val
        return matrix

    def twist_matrix(self):
        """theta: column is sum over legs of T(x1,x2,y2) (x) T(y1,x3,y3)."""
        n = self.dim**2
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for col_idx in product(range(self.dim), repeat=2):
            p1, p2 = (self.basis_pair(i) for i in col_idx)
            terms = []
            for x_legs in self.delta3_legs(p1):
                for y_legs in self.delta3_legs(p2):
                    terms.append(
                        (
                            self.T(x_legs[0], x_legs[1], y_legs[1]),
                            self.T(y_legs[0], x_legs[2], y_legs[2]),
                        )
                    )
            col = self._flat(col_idx)
            for idx, val in self._column_from_terms(terms, 2).items():
                matrix[self._flat(idx)][col] = val
        return matrix

    def twist_inverse_matrix(self):
        """theta^-1 (binary path): T~(x1,y2,x2) (x) T~(y1,y3,x3)."""
        if self.arity != 2:
            raise ValueError("printed twist inverse is for the binary path")
        n = self.dim**2
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for col_idx in product(range(self.dim), repeat=2):
            p1, p2 = (self.basis_pair(i) for i in col_idx)
            terms = []
            for x_legs in self.delta3_legs(p1):
                for y_legs in self.delta3_legs(p2):
                    terms.append(
                        (
                            self.T_tilde(x_legs[0], y_legs[1], x_legs[1]),
                            self.T_tilde(y_legs[0], y_legs[2], x_legs[2]),
                        )
                    )
            col = self._flat(col_idx)
            for idx, val in self._column_from_terms(terms, 2).items():
                matrix[self._flat(idx)][col] = val
        return matrix

    def _flat(self, idx):
        out = 0
        for i in idx:
            out = out * self.dim + i
        return out

    def column(self, matrix, idx):
        """Sparse view of one matrix column, keyed by multi-index tuples."""
        rank = 0
        size = len(matrix)
        while self.dim**rank < size:
            rank += 1
        col = self._flat(idx)
        out = {}
        for row in range(size):
            v = matrix[row][col]
            if v != 0:
                digits = []
                r = row
                for _ in range(rank):
                    digits.append(r % self.dim)
                    r //= self.dim
                out[tuple(reversed(digits))] = v
        return out


def matvec(matrix, vec):
    n = len(matrix)
    out = [Fraction(0)] * n
    for j, vj in enumerate(vec):
        if vj == 0:
            continue
        for i in range(n):
            mij = matrix[i][j]
            if mij != 0:
                out[i] += mij * vj
    return out


def product_trace(matrices, size):
    """Trace of matrices[0] . matrices[1] . ... applied right to left."""
    total = Fraction(0)
    for j in range(size):
        vec = [Fraction(0)] * size
        vec[j] = Fraction(1)
        for m in reversed(matrices):
            vec = matvec(m, vec)
        total += vec[j]
    return total


def oracle_trace(spec, crossing_exponents, framings):
    """Trace of the represented word on <= 2 strands, single generator.

    crossing_exponents: list of +-1 (each a power of the crossing on
    strands (1,2)); framings: per-strand twist exponents.  Covers every
    fixture word (unknots, trefoil, Hopf link) without padding logic.
    """
    oracle = DenseOracle(spec)
    n = len(framings)
    if n == 1:
        if crossing_exponents:
            raise ValueError("one strand admits no crossings")
        theta = oracle.twist_matrix()
        f = framings[0]
        if f >= 0:
            mats = [theta] * f
        else:
            mats = [oracle.twist_inverse_matrix()] * (-f)
        size = oracle.dim**2
        if not mats:
            return Fraction(size)
        return product_trace(mats, size)
    if n != 2:
        raise ValueError("oracle covers one- and two-strand words")
    if any(e != 1 for e in crossing_exponents):
        raise ValueError("oracle covers positive crossings only")
    if any(framings):
        raise ValueError("oracle fixture words have zero framings")
    braiding = oracle.braiding_matrix()
    size = oracle.dim**4
    return product_trace([braiding] * len(crossing_exponents), size)


def solve(matrix, vec):
    """The x with matrix . x = vec for an invertible matrix, by exact Gauss-Jordan elimination."""
    n = len(matrix)
    rows = [list(matrix[i]) + [Fraction(vec[i])] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[n] for row in rows]
