"""Seeded op lists for the benchmark workloads, and the check of each output.

An op is one `tsdlink` command line.  A workload is a list of rounds; every
round has the same mix of op classes, and the seed chooses only the details
inside each class, so that runs with different seeds measure the same mix.
Expected values come from the benchmark itself, never from the program:
every trace invariant computed here equals (d+1)^(2c), where c is the number
of cycles of the braid word's underlying permutation (ROADMAP open item 3).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import asdict, dataclass
from pathlib import Path

WORKLOADS = ("invariant", "markov", "check")

# d + 1 basis indices of X = k (+) L for the algebras traced here.
X_DIM = {"sl2": 4, "nambu4": 5}

BUNDLED = ("abelian1", "abelian2", "heisenberg3", "so3", "sl2", "nambu4")
PRIME = 10007
# Trials per markov command on 2 and on 3 strands.  The trace of a rewritten
# 3-strand word takes from 0.06 s to 1 s depending on the rewriting seed, so
# with more 3-strand trials a handful of words would decide a run's speed.
MARKOV_TRIALS = {2: 5, 3: 1}
MARKOV_MOVES = 6

# Rounds generated per workload; a run cycles through them.
ROUNDS = 8

_CHECK_LINE = re.compile(r"^\S.*: PASS( \(.*\))?$")
_COLUMNS = re.compile(r"\((\d+) columns\)$")


@dataclass(frozen=True)
class Op:
    kind: str                # invariant | markov | check | reject
    label: str               # op class, for reports
    field: str               # "Q" or "F_p" of the algebra the op runs on
    argv: tuple[str, ...]
    expect: str = ""         # invariant value, or the witness a rejection names
    columns: int = 0         # basis columns traced; check ops report their own


def word_text(letters) -> str:
    return " ".join(f"s{i}" if e == 1 else f"s{i}^{e}" for i, e in letters)


def closed_form(algebra: str, strands: int, letters) -> str:
    """(d+1)^(2c): c = cycles of the permutation the crossings induce."""
    perm = list(range(strands))
    for i, e in letters:
        if e % 2:
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
    seen, cycles = set(), 0
    for start in range(strands):
        if start not in seen:
            cycles += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = perm[j]
    return str(X_DIM[algebra] ** (2 * cycles))


def invariant_op(algebra: str, strands: int, letters, framings, tag: str = "") -> Op:
    argv = ["--format", "json", "invariant", algebra, "--strands", str(strands), "--word", word_text(letters)]
    if any(framings):
        argv.append("--framings=" + ",".join(map(str, framings)))
    return Op(
        "invariant",
        f"{algebra} {strands}-strand{tag}",
        "Q",
        tuple(argv),
        closed_form(algebra, strands, letters),
        X_DIM[algebra] ** (2 * strands),
    )


def _signed(rng: random.Random, indices) -> list[tuple[int, int]]:
    return [(i, rng.choice((1, -1))) for i in indices]


def _one_twist(rng: random.Random, strands: int) -> tuple[int, ...]:
    framings = [0] * strands
    framings[rng.randrange(strands)] = rng.choice((1, -1))
    return tuple(framings)


# The ROADMAP "State" words (9.2 s / 553 MB and 4.7 s / 176 MB there).
ANCHORS = (
    ("nambu4", ((1, 1), (2, 1), (3, 1))),
    ("sl2", ((1, 1), (2, -1), (3, 1), (2, 1))),
)


def _anchor_variant(rng: random.Random) -> list[tuple[int, int]]:
    """A seeded sl2 4-strand word of the same shape, and about the same
    cost, as the sl2 "State" word."""
    a, b, c = rng.sample((1, 2, 3), 3)
    sign = rng.choice((1, -1))
    return [(a, sign), (b, -sign), (c, sign), (b, sign)]


def invariant_round(rng: random.Random, n: int) -> list[Op]:
    """Two 4-strand words, each followed by three 3-strand words.

    The 4-strand words are the nambu4 "State" word and, in alternate
    rounds, the sl2 "State" word or a seeded sl2 word of the same shape.
    The nambu4 word, the slowest op, is the same in every round; it carries
    no framing, since on nambu4 a framing block adds about 150 MB to the
    553 MB the padded generators already take.  Each 3-strand word is s1, s1^-1, s2,
    s2^-1 in a seeded order with one seeded twist, so that the seed changes
    the value but hardly the cost; four of the six are on nambu4, so that
    the median op (`latency_p50_s`) falls inside the nambu4 3-strand class.
    """
    (big, big_letters), (sl2, sl2_letters) = ANCHORS
    if n % 2:
        second = invariant_op(sl2, 4, _anchor_variant(rng), (0, 0, 0, 0))
    else:
        second = invariant_op(sl2, 4, sl2_letters, (0, 0, 0, 0), " State")
    ops = []
    for first in (invariant_op(big, 4, big_letters, (0, 0, 0, 0), " State"), second):
        ops.append(first)
        for algebra in ("nambu4", "sl2", "nambu4"):
            small = rng.sample([(1, 1), (1, -1), (2, 1), (2, -1)], 4)
            ops.append(invariant_op(algebra, 3, small, _one_twist(rng, 3)))
    return ops


def markov_round(rng: random.Random) -> list[Op]:
    """Criterion-6 inputs, every command with its own seed, in a seeded
    order: `s1 s1 s1` on 2 strands three times on sl2 and five times on
    nambu4, so that the median op falls inside the nambu4 2-strand class,
    and `s1 s2^-1 s1` on 3 strands once on each algebra."""
    inputs = [("sl2", 2, [(1, 1)] * 3)] * 3 + [("nambu4", 2, [(1, 1)] * 3)] * 5
    inputs += [("sl2", 3, [(1, 1), (2, -1), (1, 1)]), ("nambu4", 3, [(1, 1), (2, -1), (1, 1)])]
    rng.shuffle(inputs)
    return [markov_op(algebra, strands, letters, rng.randrange(2**31)) for algebra, strands, letters in inputs]


def markov_op(algebra: str, strands: int, letters, seed: int) -> Op:
    argv = (
        "--format", "json", "markov", algebra, "--strands", str(strands), "--word", word_text(letters),
        "--trials", str(MARKOV_TRIALS[strands]), "--moves", str(MARKOV_MOVES), "--seed", str(seed),
        "--stabilize", "off",
    )
    return Op(
        "markov",
        f"{algebra} {strands}-strand",
        "Q",
        argv,
        closed_form(algebra, strands, letters),
        (MARKOV_TRIALS[strands] + 1) * X_DIM[algebra] ** (2 * strands),
    )


def write_documents(work: Path) -> dict[str, Path]:
    """F_p twins of sl2 and nambu4, and a Jacobi-violating sl2 ([h,e] = 3e)."""
    # Imported per call: every set-up imports tsdlink afresh.
    from tsdlink.algebra import builtin_algebra, dump_algebra
    from tsdlink.fields import PrimeField

    docs = {name: dump_algebra(builtin_algebra(name, field=PrimeField(PRIME))) for name in ("sl2", "nambu4")}
    mutant = dump_algebra(builtin_algebra("sl2"))
    mutant["name"] = "sl2-mutant"
    (bracket,) = [b for b in mutant["brackets"] if b["args"] == [1, 2]]
    bracket["value"] = [{"idx": 2, "coeff": "3"}]
    docs["sl2-mutant"] = mutant
    work.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


def check_round(rng: random.Random, docs: dict[str, Path]) -> list[Op]:
    """`check ALG --property all` on every bundled algebra and both F_p twins,
    plus the mutant, which must be rejected with witness (1, 2, 3)."""
    ops = [check_op(name, "Q") for name in BUNDLED]
    ops += [check_op(name, f"F_{PRIME}", docs[name]) for name in ("sl2", "nambu4")]
    ops.append(reject_op(docs["sl2-mutant"]))
    rng.shuffle(ops)
    return ops


def check_op(name: str, field: str, path: Path | None = None) -> Op:
    return Op("check", f"check {name}", field, ("check", str(path or name), "--property", "all"))


def reject_op(path: Path) -> Op:
    return Op("reject", f"reject {path.stem}", "Q", ("check", str(path), "--property", "all"), "(1, 2, 3)")


def generate(workload: str, seed: int, work: Path) -> list[list[Op]]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "invariant":
        return [invariant_round(rng, n) for n in range(ROUNDS)]
    if workload == "markov":
        return [markov_round(rng) for _ in range(ROUNDS)]
    if workload == "check":
        docs = write_documents(work)
        return [check_round(rng, docs) for _ in range(ROUNDS)]
    raise ValueError(f"unknown workload {workload!r}")


def ops_digest(rounds: list[list[Op]], work: Path) -> str:
    """sha256 of the generated op list, independent of where it was written."""
    text = json.dumps([[asdict(op) for op in ops] for ops in rounds]).replace(str(work), "<work>")
    return hashlib.sha256(text.encode()).hexdigest()


def verify(op: Op, code: int, out: str, err: str) -> tuple[bool, int]:
    """(output correct, basis columns the op traced or checked)."""
    if op.kind == "reject":
        lines = err.splitlines()
        return code == 2 and not out and len(lines) == 1 and op.expect in lines[0], 0
    if code != 0 or err:
        return False, 0
    if op.kind == "check":
        lines = out.splitlines()
        if not lines or not all(_CHECK_LINE.match(line) for line in lines):
            return False, 0
        return True, sum(int(m.group(1)) for line in lines if (m := _COLUMNS.search(line)))
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return False, 0
    ok = doc.get("passed") is True and not doc.get("failures") and doc.get("value") == op.expect
    return ok, op.columns
