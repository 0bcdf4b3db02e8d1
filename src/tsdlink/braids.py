"""Framed braid words: parsing, normal form, and seeded rewriting.

Grammar (whitespace-separated tokens): ``("s"|"t") index ["^" exponent]``.
``s i`` is the crossing generator on strands (i, i+1) and needs
1 <= i <= n-1; ``t i`` is the full ribbon twist of strand i and needs
1 <= i <= n.  A word reads LEFT to RIGHT as composition factors of the
group element, and the represented operator applies the framing twists
first (they sit at the right end of the composition).

Normal form keeps the crossing letters verbatim and accumulates all twist
content into the framing vector, by pushing every t-letter rightward past
the crossings with the semidirect relation: moving t_i past s_j (either
sign) turns it into t_{tau_j(i)}, tau_j the transposition (j, j+1).

Rewriting (``random_markov_equivalent``) applies trace-preserving moves to
the flattened letter sequence: braid relations, far commutations, free
insertion/cancellation, twist pushes, whole-word conjugation, and (only on
request) one of two EXPERIMENTAL stabilization conventions.  Every run is
seed-deterministic and returns a replayable move log.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, NamedTuple


class BraidSyntaxError(ValueError):
    """Malformed braid word (carries the offending token position)."""


class Letter(NamedTuple):
    kind: str   # "s" | "t"
    index: int  # 1-based strand / generator index
    exp: int    # nonzero


@dataclass(frozen=True)
class FramedBraidWord:
    strands: int
    framings: tuple[int, ...]
    letters: tuple[Letter, ...]

    @property
    def is_normalized(self) -> bool:
        return all(letter.kind == "s" for letter in self.letters)

    def word_text(self) -> str:
        parts = []
        for kind, index, exp in self.letters:
            parts.append(f"{kind}{index}" if exp == 1 else f"{kind}{index}^{exp}")
        return " ".join(parts)

    def __str__(self):
        frame = ",".join(map(str, self.framings))
        return f"<{self.word_text() or '(empty)'} | framings ({frame}) | {self.strands} strands>"


_TOKEN = re.compile(r"^([st])(\d+)(?:\^(-?\d+))?$")


def parse_braid_word(text: str, strands: int) -> FramedBraidWord:
    """Parse a word; twist letters are kept in sequence (not yet normalized)."""
    if strands < 1:
        raise BraidSyntaxError(f"strand count must be >= 1, got {strands}")
    if strands > sys.maxsize:  # not formatted: it may have more digits than Python prints
        raise BraidSyntaxError("strand count is larger than a tuple can hold")
    letters: list[Letter] = []
    pos = 0
    for token in text.split():
        pos = text.index(token, pos)
        m = _TOKEN.match(token)
        if not m:
            raise BraidSyntaxError(f"bad token {token!r} at position {pos}")
        try:
            kind, index, exp = m.group(1), int(m.group(2)), int(m.group(3)) if m.group(3) else 1
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise BraidSyntaxError(f"number too long in {token!r} at position {pos}") from None
        limit = strands - 1 if kind == "s" else strands
        if not 1 <= index <= limit:
            raise BraidSyntaxError(
                f"index out of range in {token!r} at position {pos}: need 1 <= i <= {limit}"
            )
        if exp != 0:
            letters.append(Letter(kind, index, exp))
        pos += len(token)
    return FramedBraidWord(strands, (0,) * strands, tuple(letters))


def normalize(word: FramedBraidWord) -> FramedBraidWord:
    """Push every twist letter to the framing vector; idempotent.

    Scanning right to left, a twist letter t_i crossing the crossing-letter
    suffix picks up one transposition tau_j per unit of each exponent.
    """
    framings = list(word.framings)
    crossings: list[Letter] = []
    suffix_perm = list(range(word.strands + 1))  # 1-based positions
    for letter in reversed(word.letters):
        if letter.kind == "s":
            crossings.append(letter)
            if letter.exp % 2:
                j = letter.index
                after = suffix_perm[j], suffix_perm[j + 1]
                suffix_perm[j], suffix_perm[j + 1] = after[1], after[0]
        else:
            framings[suffix_perm[letter.index] - 1] += letter.exp
    return FramedBraidWord(word.strands, tuple(framings), tuple(reversed(crossings)))


def underlying_permutation(word: FramedBraidWord) -> list[int]:
    """Image of each strand (1-based list) under the crossing letters."""
    perm = list(range(word.strands + 1))
    for letter in word.letters:
        if letter.kind == "s" and letter.exp % 2:
            j = letter.index
            perm[j], perm[j + 1] = perm[j + 1], perm[j]
    return perm[1:]


def cycle_count(perm: Iterable[int]) -> int:
    perm = list(perm)
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j] - 1
    return cycles


# --------------------------------------------------------------------------
# Seeded trace-preserving rewriting


@dataclass(frozen=True)
class MoveRecord:
    kind: str
    pos: int
    data: tuple = ()


@dataclass
class MarkovTrace:
    seed: int
    moves: list[MoveRecord] = dataclass_field(default_factory=list)


def _atoms(word: FramedBraidWord) -> list[Letter]:
    """Flatten to exponent +-1 letters, framings as trailing twist letters."""
    out: list[Letter] = []
    for kind, index, exp in word.letters:
        step = 1 if exp > 0 else -1
        out.extend(Letter(kind, index, step) for _ in range(abs(exp)))
    for i, f in enumerate(word.framings, start=1):
        if f:
            step = 1 if f > 0 else -1
            out.extend(Letter("t", i, step) for _ in range(abs(f)))
    return out


def _tau(j: int, i: int) -> int:
    if i == j:
        return j + 1
    if i == j + 1:
        return j
    return i


def _apply_move(atoms: list[Letter], strands: int, move: MoveRecord) -> tuple[list[Letter], int]:
    """Apply one move; returns (new atoms, new strand count)."""
    kind, p, data = move.kind, move.pos, move.data
    out = list(atoms)
    if kind == "braid-relation":
        a, b = out[p], out[p + 1]
        out[p], out[p + 1], out[p + 2] = b, a, b
        return out, strands
    if kind == "far-commutation":
        out[p], out[p + 1] = out[p + 1], out[p]
        return out, strands
    if kind == "cancel":
        del out[p : p + 2]
        return out, strands
    if kind == "insert":
        letter = Letter(*data)
        out[p:p] = [letter, Letter(letter.kind, letter.index, -letter.exp)]
        return out, strands
    if kind == "t-push":
        t, s = out[p], out[p + 1]
        out[p], out[p + 1] = s, Letter("t", _tau(s.index, t.index), t.exp)
        return out, strands
    if kind == "t-push-left":
        s, t = out[p], out[p + 1]
        out[p], out[p + 1] = Letter("t", _tau(s.index, t.index), t.exp), s
        return out, strands
    if kind == "conjugate":
        letter = Letter(*data)
        return [letter] + out + [Letter(letter.kind, letter.index, -letter.exp)], strands
    if kind == "stabilize-plain":
        out.append(Letter("s", strands, data[0]))
        return out, strands + 1
    if kind == "stabilize-compensated":
        out.append(Letter("s", strands, data[0]))
        out.append(Letter("t", strands + 1, -data[0]))
        return out, strands + 1
    raise ValueError(f"unknown move kind {kind!r}")


def _candidate_moves(atoms: list[Letter], strands: int, rng: random.Random) -> list[MoveRecord]:
    sites: list[MoveRecord] = []
    n = len(atoms)
    for p in range(n - 2):
        a, b, c = atoms[p], atoms[p + 1], atoms[p + 2]
        if (
            a.kind == b.kind == c.kind == "s"
            and a.exp == b.exp == c.exp
            and a.index == c.index
            and abs(a.index - b.index) == 1
        ):
            sites.append(MoveRecord("braid-relation", p))
    for p in range(n - 1):
        a, b = atoms[p], atoms[p + 1]
        if a.kind == "s" and b.kind == "s" and abs(a.index - b.index) >= 2:
            sites.append(MoveRecord("far-commutation", p))
        if a.kind == b.kind and a.index == b.index and a.exp == -b.exp:
            sites.append(MoveRecord("cancel", p))
        if a.kind == "t" and b.kind == "s":
            sites.append(MoveRecord("t-push", p))
        if a.kind == "s" and b.kind == "t":
            sites.append(MoveRecord("t-push-left", p))
    for _ in range(2):  # a couple of seeded insertion/conjugation proposals
        letter = _random_letter(strands, rng)
        sites.append(MoveRecord("insert", rng.randint(0, n), letter))
        sites.append(MoveRecord("conjugate", 0, _random_letter(strands, rng)))
    return sites


def _random_letter(strands: int, rng: random.Random) -> tuple:
    if strands >= 2 and rng.random() < 0.6:
        return ("s", rng.randint(1, strands - 1), rng.choice((1, -1)))
    return ("t", rng.randint(1, strands), rng.choice((1, -1)))


def random_markov_equivalent(
    word: FramedBraidWord,
    seed: int,
    moves: int,
    stabilize: str = "off",
) -> tuple[FramedBraidWord, MarkovTrace]:
    """Seeded sequence of trace-preserving rewrites; replayable log.

    When ``stabilize`` is "plain" or "compensated" one stabilization move
    (EXPERIMENTAL: the framing compensation convention is an open
    question) is appended after the seeded moves and the strand count
    grows by one.
    """
    if moves < 0:
        raise ValueError("moves must be >= 0")
    if stabilize not in ("off", "plain", "compensated"):
        raise ValueError(f"stabilize must be off|plain|compensated, got {stabilize!r}")
    rng = random.Random(seed)
    atoms = _atoms(word)
    strands = word.strands
    log = MarkovTrace(seed)
    for _ in range(moves):
        sites = _candidate_moves(atoms, strands, rng)
        if not sites:
            break
        move = rng.choice(sites)
        atoms, strands = _apply_move(atoms, strands, move)
        log.moves.append(move)
    if stabilize != "off":
        move = MoveRecord(f"stabilize-{stabilize}", len(atoms), (rng.choice((1, -1)),))
        atoms, strands = _apply_move(atoms, strands, move)
        log.moves.append(move)
    return FramedBraidWord(strands, (0,) * strands, tuple(atoms)), log


def replay(word: FramedBraidWord, log: MarkovTrace) -> FramedBraidWord:
    """Re-apply a move log to its seed word; reproduces the rewritten word."""
    atoms = _atoms(word)
    strands = word.strands
    for move in log.moves:
        atoms, strands = _apply_move(atoms, strands, move)
    return FramedBraidWord(strands, (0,) * strands, tuple(atoms))
