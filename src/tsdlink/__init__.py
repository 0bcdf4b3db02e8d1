"""Exact-arithmetic self-distributive braiding operators and framed link invariants.

Builds ternary self-distributive structures on X = k (+) L from the
structure constants of a Lie algebra or a 3-Lie algebra, derives the
associated Yang-Baxter braiding and framing twist, verifies every
defining identity as an exact operator equality, and computes the trace
invariant of framed links presented as framed braid words.
"""

from .algebra import (
    AlgebraError,
    AlgebraSpec,
    CheckResult,
    ValidationReport,
    bracket,
    builtin_algebra,
    dump_algebra,
    load_algebra,
    load_algebra_file,
    validate_algebra,
)
from .braiding import (
    BraidingKit,
    build_braiding,
    build_braiding_inverse,
    build_twist,
    build_twist_inverse,
    check_braiding,
    make_braiding_kit,
)
from .braids import (
    BraidSyntaxError,
    FramedBraidWord,
    Letter,
    MarkovTrace,
    MoveRecord,
    cycle_count,
    normalize,
    parse_braid_word,
    random_markov_equivalent,
    replay,
    underlying_permutation,
)
from .fields import Field, FieldError, PrimeField, RationalField, RATIONALS
from .invariant import (
    DimensionCapError,
    InvariantResult,
    MarkovReport,
    check_framed_braid_relations,
    fixture_line,
    markov_report,
    parse_fixture_file,
    representation,
    trace_invariant,
)
from .tensor import (
    SparseOperator,
    SparseTensor,
    counit,
    counit_op,
    delta_n,
    delta_op,
    permute,
    vector,
)
from .tsd import TsdPair, build_q, build_T, build_T_tilde, check_tsd_properties, make_tsd_pair

__version__ = "0.1.0"
