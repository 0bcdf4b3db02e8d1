"""Failure texts of tampered pairs and kits, byte for byte.

Equality of dicts ignores entry order, but a failure line prints its
residual in entry order, so this fixture pins both the witness and the
order.  Regenerate it only when a failure text is meant to change:

    PYTHONPATH=src python tests/test_failures.py > tests/fixtures/failures.txt
"""

from __future__ import annotations

import sys
from pathlib import Path

from helpers import tsd_pair
from test_braiding import _swap_e_f_outputs, _tampered_braiding, _tampered_pair
from tsdlink.braiding import build_braiding_inverse, build_twist_inverse, check_braiding, make_braiding_kit
from tsdlink.braids import parse_braid_word
from tsdlink.invariant import check_framed_braid_relations, trace_invariant
from tsdlink.tsd import check_tsd_properties

FIXTURE = Path(__file__).parent / "fixtures" / "failures.txt"

PAIRS = (("sl2", "bcx"), ("sl2", "cxy"), ("sl2", "bxz"), ("sl2", "nested"), ("nambu4", "bcx"), ("nambu4", "bracket"))

# (label, algebra, tamper of the braiding's columns)
KITS = (
    ("degree-raise", "sl2", lambda columns: columns[(0, 0, 0, 1)].update({(1, 1, 0, 0): 1})),
    ("coefficient-2", "sl2", lambda columns: columns.update({(0, 0, 0, 0): {(0, 0, 0, 0): 2}})),
    ("key-permutation", "sl2", _swap_e_f_outputs),
    ("lower-degree-term", "nambu4", lambda columns: columns[(1, 2, 3, 0)].update({(1, 2, 0, 0): 1})),
)

TRACE_WORD = "s1 s2^-1 t3^2"


def _outcome(fn) -> str:
    try:
        return f"ok {fn()}"
    except RuntimeError as e:
        return f"error {e}"


def failure_text() -> str:
    lines = []
    for name, flip in PAIRS:
        pair = _tampered_pair(name, flip)
        lines.append(f"## pair {name} {flip}")
        lines.extend(check_tsd_properties(pair).lines())
        lines.append("braiding-inverse: " + _outcome(lambda: build_braiding_inverse(pair).in_rank))
        lines.append("twist-inverse: " + _outcome(lambda: build_twist_inverse(pair).in_rank))
    for label, name, tamper in KITS:
        kit = _tampered_braiding(make_braiding_kit(tsd_pair(name)), tamper)
        lines.append(f"## kit {name} {label}")
        lines.extend(check_braiding(kit).lines())
        lines.extend(check_framed_braid_relations(kit).lines())
        word = parse_braid_word(TRACE_WORD, 3)
        lines.append(f"trace {TRACE_WORD}: " + _outcome(lambda: trace_invariant(kit, word).value_text))
    return "".join(f"{line}\n" for line in lines)


def test_failure_texts_match_fixture():
    assert failure_text() == FIXTURE.read_text()


if __name__ == "__main__":
    sys.stdout.write(failure_text())
