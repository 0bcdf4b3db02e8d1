"""Framed braid group representation on X^(2n) and the trace invariant.

Each strand occupies a pair of tensor factors.  A crossing generator on
strands (i, i+1) acts by the braiding on legs 2(i-1) .. 2i+1; a framing
twist on strand i acts by the twist on that strand's pair.  A normalized
word maps to one word of padded steps (see the tensor module): its
crossing letters composed left to right, applied after one twist^(t_i)
step per framed strand; the empty braid word is the empty word of steps.
The trace of that operator is the link invariant; it is dim ** (cycles of
the composite leg permutation of its steps), which is exact because every
generator is filtered (see the tensor module), and it reads no column.

Generator powers and their leg permutations (built in the braiding
module) are memoized per kit, so repeated traces (the Markov harness) and
the braiding checks never rebuild them.
The defining relations of the framed braid group are pairs of braid words
(``braiding.relation``), each compared once per kit.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

from .algebra import ValidationReport
from .braiding import BraidingKit, relation, word_operator
from .braids import FramedBraidWord, MarkovTrace, normalize, random_markov_equivalent
from .tensor import SparseOperator


class DimensionCapError(RuntimeError):
    """A refused size: a kit past ``--cap``, or a printed number past Python's int-to-str limit."""


@dataclass
class InvariantResult:
    value: object
    value_text: str
    algebra: str
    word: FramedBraidWord
    strands: int
    operator_dim: int


def representation(kit: BraidingKit, word: FramedBraidWord) -> SparseOperator:
    """The operator on X^(2n) represented by a normalized framed word.

    One word of padded steps (``word_operator``): the crossing letters left
    to right, after one twist letter t_i^(f_i) per framed strand.
    """
    if not word.is_normalized:
        raise ValueError("word is not normalized; call normalize() first")
    # the last letter is applied first; strand 1's twist first keeps column
    # entries in the order of the product twist^(f_1) (x) ... (x) twist^(f_n)
    twists = [("t", strand, f) for strand, f in reversed(list(enumerate(word.framings, 1))) if f]
    return word_operator(kit, [*word.letters, *twists], word.strands)


def trace_invariant(kit: BraidingKit, word: FramedBraidWord) -> InvariantResult:
    """Exact trace of the represented operator (the link invariant).

    It reads no column, so no dimension is capped.  DimensionCapError refuses a word whose
    operator dimension (a bound on the value over Q) or a framing has more digits than Python prints.
    """
    word = normalize(word)
    operator_dim = kit.dim ** (2 * word.strands)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit, as before Python 3.10.7
    framing = max(map(abs, word.framings), default=0)
    for name, number in ((f"operator dimension {kit.dim}^{2 * word.strands}", operator_dim), ("a framing", framing)):
        if limit and number.bit_length() > 3 * limit and number >= 10**limit:  # 2^(3L) < 10^L
            raise DimensionCapError(f"{name} has more than {limit} digits, more than Python prints")
    value = representation(kit, word).trace()
    return InvariantResult(
        value=value,
        value_text=kit.field.render(value),
        algebra=kit.algebra.name,
        word=word,
        strands=word.strands,
        operator_dim=operator_dim,
    )


# --------------------------------------------------------------------------
# Defining relations of the framed braid group, as operator identities


def check_framed_braid_relations(kit: BraidingKit, n: int = 3) -> ValidationReport:
    """Braid relation, twist commutations and twist-crossing pushes on X^(2n).

    The twist commutations, and the twist pushes past a crossing of two
    other strands, have sides that are the same steps on disjoint legs in
    another order; ``diff_witness`` proves them from the steps on each leg
    without a key.  The braid relations and the pushes past a crossing of
    the twisted strand are scanned on the legs their steps touch.
    """
    report = ValidationReport()
    for i in range(1, n - 1):
        words = f"s{i} s{i + 1} s{i}", f"s{i + 1} s{i} s{i + 1}"
        report.add(relation(kit, f"braid-relation[s{i},s{i + 1}]", n, *words))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            report.add(relation(kit, f"twist-commute[t{i},t{j}]", n, f"t{i} t{j}", f"t{j} t{i}"))
    for i in range(1, n + 1):
        for j in range(1, n):
            image = j + 1 if i == j else j if i == j + 1 else i
            report.add(relation(kit, f"twist-push[t{i},s{j}]", n, f"t{i} s{j}", f"s{j} t{image}"))
    return report


# --------------------------------------------------------------------------
# Markov harness


@dataclass
class TrialResult:
    seed: int
    word: FramedBraidWord
    log: MarkovTrace
    value: object
    value_text: str
    equal: bool


@dataclass
class MarkovReport:
    algebra: str
    base: InvariantResult
    trials: list[TrialResult]
    relations: ValidationReport
    stabilize: str

    @property
    def all_equal(self) -> bool:
        return all(t.equal for t in self.trials)

    @property
    def passed(self) -> bool:
        # Stabilization equality is reported, never asserted.
        return self.relations.passed and (self.stabilize != "off" or self.all_equal)

    def verdict(self) -> str:
        equal = sum(t.equal for t in self.trials)
        kind = "stabilized " if self.stabilize != "off" else ""
        return f"{equal}/{len(self.trials)} {kind}trials matched the base trace"

    def lines(self) -> list[str]:
        out = [
            f"base trace ({self.algebra}, {self.base.word.word_text() or 'empty'} "
            f"| framings {self.base.word.framings}): {self.base.value_text}",
        ]
        for t in self.trials:
            status = "equal" if t.equal else "UNEQUAL"
            out.append(
                f"  trial seed={t.seed} moves={len(t.log.moves)} strands={t.word.strands}: "
                f"{t.value_text} [{status}]"
            )
        out.append(self.verdict())
        out.extend(self.relations.lines())
        return out


def markov_report(
    kit: BraidingKit,
    word: FramedBraidWord,
    trials: int,
    seed: int,
    moves: int = 6,
    stabilize: str = "off",
) -> MarkovReport:
    """Seeded rewriting trials with exact trace comparison.

    Also checks the framed-braid-group defining relations as operator
    identities on three strands (memoized per kit).  With stabilization
    requested, each trial gains a strand; those traces are reported but
    never asserted equal.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    base_word = normalize(word)
    base = trace_invariant(kit, base_word)
    master = random.Random(seed)
    results: list[TrialResult] = []
    for _ in range(trials):
        sub_seed = master.randrange(2**32)
        rewritten, log = random_markov_equivalent(base_word, sub_seed, moves, stabilize=stabilize)
        value = trace_invariant(kit, rewritten).value
        results.append(
            TrialResult(sub_seed, rewritten, log, value, kit.field.render(value), value == base.value)
        )
    relations = check_framed_braid_relations(kit, n=3)
    return MarkovReport(kit.algebra.name, base, results, relations, stabilize)


# --------------------------------------------------------------------------
# Regression fixture lines: name<TAB>word<TAB>framings<TAB>value


def fixture_line(name: str, word_text: str, framings: tuple[int, ...], value_text: str) -> str:
    return "\t".join([name, word_text, ",".join(map(str, framings)), value_text])


def parse_fixture_file(text: str) -> list[tuple[str, str, tuple[int, ...], str]]:
    records = []
    for line in text.splitlines():
        line = line.strip("\n")
        if not line or line.startswith("#"):
            continue
        name, word_text, framings, value_text = line.split("\t")
        framing_tuple = tuple(int(f) for f in framings.split(",")) if framings else ()
        records.append((name, word_text, framing_tuple, value_text))
    return records
