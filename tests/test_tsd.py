import pytest

import tsdlink.tsd as tsd_module
from helpers import BUNDLED, algebra, same_columns, tsd_pair
from tsdlink.algebra import AlgebraError, builtin_algebra
from tsdlink.fields import RATIONALS, PrimeField
from tsdlink.tensor import SparseOperator, iter_indices
from tsdlink.tsd import INTERLEAVE_9, TsdPair, build_q, build_T, build_T_tilde, check_tsd_properties, make_tsd_pair

F = RATIONALS


def test_build_T_sl2_columns():
    T = build_T(algebra("sl2"))
    # basis order (b0, h, e, f); c [x,y] term: [e,f] = h
    assert T.column((2, 3, 0)) == {(1,): 1}
    assert T.column((0, 0, 0)) == {(0,): 1}
    assert T.column((2, 0, 0)) == {(2,): 1}
    # columns with scalar-part first slot and vector elsewhere vanish
    assert T.column((0, 2, 0)) == {}
    assert T.column((0, 0, 3)) == {}
    # nested bracket column: [[h,e],f] = 2[e,f] = 2h
    assert T.column((1, 2, 3)) == {(1,): 2}


def test_build_T_ternary_unit_law():
    T = build_T(algebra("nambu4"))
    # (a,x)(x)(1,0)(x)(1,0) -> (a,x) on every basis vector
    for i in range(5):
        assert T.column((i, 0, 0)) == {(i,): 1}
    assert T.column((1, 2, 3)) == {(4,): 1}
    assert T.column((1, 2, 0)) == {}
    assert T.column((0, 2, 3)) == {}


def test_build_T_tilde_sign_structure():
    Tt = build_T_tilde(algebra("sl2"))
    assert Tt.column((2, 3, 0)) == {(1,): -1}
    assert Tt.column((2, 0, 3)) == {(1,): -1}
    assert Tt.column((1, 2, 3)) == {(1,): 2}  # double-bracket keeps its sign

    Tt3 = build_T_tilde(algebra("nambu4"))
    assert Tt3.column((1, 2, 3)) == {(4,): -1}


def test_abelian_degeneracy():
    spec = builtin_algebra("abelian", dim=2)
    T = build_T(spec)
    Tt = build_T_tilde(spec)
    for idx in iter_indices(3, 3):
        col = T.column(idx)
        assert len(col) <= 1
        assert col == Tt.column(idx)


def test_build_q_columns():
    q = build_q(algebra("sl2"))
    assert q.column((0, 0)) == {(0,): 1}
    assert q.column((2, 0)) == {(2,): 1}
    assert q.column((0, 2)) == {}
    assert q.column((2, 3)) == {(1,): 1}
    with pytest.raises(AlgebraError):
        build_q(algebra("nambu4"))


@pytest.mark.parametrize("name,dim", BUNDLED)
def test_all_properties_pass(name, dim):
    report = check_tsd_properties(tsd_pair(name, dim))
    assert report.passed, [str(r) for r in report.failures]


def test_check_selection_and_errors():
    pair = tsd_pair("nambu4")
    report = check_tsd_properties(pair, ["tsd", "reversibility"])
    assert report.passed
    names = {r.name.split("[")[0] for r in report.results}
    assert names == {"tsd", "reversibility"}
    with pytest.raises(AlgebraError):
        check_tsd_properties(pair, ["q-self-distributive"])
    with pytest.raises(ValueError):
        check_tsd_properties(pair, ["frobenius"])


@pytest.mark.parametrize("name", ["sl2", "nambu4"])
def test_sweep_builds_each_structural_leaf_once(name, monkeypatch):
    # every identity of one sweep shares the interleave and Delta_3 leaves
    routes, deltas = [], []
    permutation, delta_op = SparseOperator.permutation, tsd_module.delta_op

    def counting_permutation(perm, dim, field):
        routes.append(tuple(perm))
        return permutation(perm, dim, field)

    def counting_delta_op(n, dim, field):
        deltas.append(n)
        return delta_op(n, dim, field)

    monkeypatch.setattr(SparseOperator, "permutation", staticmethod(counting_permutation))
    monkeypatch.setattr(tsd_module, "delta_op", counting_delta_op)
    assert check_tsd_properties(tsd_pair(name)).passed
    assert routes.count(INTERLEAVE_9) == 1
    assert deltas.count(3) == 1


@pytest.mark.parametrize("name", ["sl2", "nambu4"])
def test_sweep_materializes_each_shared_middle_once(name, monkeypatch):
    # tsd and mixed[fwd-outer] share the middle word of T, tsd-tilde and mixed[rev-outer] that of T~
    calls = []
    materialized = SparseOperator.materialized

    def counting_materialized(self):
        calls.append(self.in_rank)
        return materialized(self)

    monkeypatch.setattr(SparseOperator, "materialized", counting_materialized)
    pair = tsd_pair(name)
    assert check_tsd_properties(pair).passed
    assert calls == [5, 5]
    rhs = {label: side for label, _, side in tsd_module._identities(pair, {"tsd", "tsd-tilde", "mixed"})}
    assert rhs["tsd"].steps[0] is rhs["mixed[fwd-outer]"].steps[0]
    assert rhs["tsd-tilde"].steps[0] is rhs["mixed[rev-outer]"].steps[0]
    assert rhs["tsd"].steps[0] is not rhs["tsd-tilde"].steps[0]
    for which in (["tsd"], ["tsd-tilde"], ["mixed"]):
        calls.clear()
        assert check_tsd_properties(pair, which).passed
        assert calls == []


def test_counit_compatibility_reported():
    report = check_tsd_properties(tsd_pair("sl2"), ["coalgebra-morphism"])
    assert report.passed
    assert any(r.name.startswith("counit-compat") for r in report.results)


def _sign_flipped_T(spec, flip):
    """Forward map with one term's sign flipped, built from the closed formula."""
    from tsdlink.algebra import bracket

    field = spec.field
    one = field.one
    neg = field.neg
    dim = spec.dim + 1
    signs = {"bcx": one, "cxy": one, "bxz": one, "nested": one}
    signs[flip] = neg(one)

    def col(idx):
        i, j, k = idx
        if i == 0:
            return {(0,): one} if j == 0 and k == 0 else {}
        out = {}
        ei = {i: one}
        if j == 0 and k == 0:
            return {(i,): signs["bcx"]}
        if j > 0 and k == 0:
            coeffs = spec.bracket_basis((i, j))
            return {(l,): field.mul(signs["cxy"], c) for l, c in coeffs.items()}
        if j == 0 and k > 0:
            coeffs = spec.bracket_basis((i, k))
            return {(l,): field.mul(signs["bxz"], c) for l, c in coeffs.items()}
        coeffs = bracket(spec, bracket(spec, ei, {j: one}), {k: one})
        return {(l,): field.mul(signs["nested"], c) for l, c in coeffs.items()}

    return SparseOperator(3, 1, dim, field, col)


@pytest.mark.parametrize("flip", ["cxy", "bxz", "nested"])
def test_sign_flip_breaks_tsd_with_witness(flip):
    spec = algebra("sl2")
    tampered = TsdPair(spec, _sign_flipped_T(spec, flip), build_T_tilde(spec))
    report = check_tsd_properties(tampered, ["tsd"])
    assert not report.passed
    failure = report.failures[0]
    assert failure.witness is not None
    assert failure.residual


@pytest.mark.parametrize("flip,residual", [("cxy", {(1,): 8}), ("bxz", {(1,): 8}), ("nested", {(1,): -8})])
def test_sign_flip_breaks_mixed_with_frozen_witness(flip, residual):
    spec = algebra("sl2")
    tampered = TsdPair(spec, _sign_flipped_T(spec, flip), build_T_tilde(spec))
    report = check_tsd_properties(tampered, ["mixed"])
    assert [(r.name, r.ok) for r in report.results] == [("mixed[fwd-outer]", False), ("mixed[rev-outer]", True)]
    failure = report.failures[0]
    assert (failure.witness, failure.residual) == ((1, 0, 2, 1, 3), residual)


def test_tsd_equals_nested_q_columnwise():
    for name in ("heisenberg3", "so3", "sl2"):
        spec = algebra(name)
        q = build_q(spec)
        one1 = SparseOperator.identity(1, spec.dim + 1, spec.field)
        nested = q.compose(q.tensor(one1))
        assert build_T(spec).diff_witness(nested) is None


def test_ternary_rev_is_forward_after_swap():
    # the reversing partner equals the map after the swap of its last two
    # inputs, column by column and in entry order, over Q and F_10007
    for field in (F, PrimeField(10007)):
        spec = builtin_algebra("nambu4", field=field)
        swap = SparseOperator.permutation((0, 2, 1), 5, field)
        assert same_columns(build_T_tilde(spec), build_T(spec).compose(swap)), field


@pytest.mark.parametrize("name", ["sl2", "so3", "heisenberg3"])
def test_undoing_swaps_the_last_two_inputs_on_the_binary_path(name):
    # column (i, j, k) of the undo map is column (i, k, j) of the map, in entry order
    pair = tsd_pair(name)
    for m in (pair.op, pair.rev):
        undo = pair.undoing(m)
        for i, j, k in iter_indices(pair.dim, 3):
            assert list(undo.column((i, j, k)).items()) == list(m.column((i, k, j)).items()), (i, j, k)


def test_undoing_is_the_map_itself_on_the_ternary_path():
    pair = tsd_pair("nambu4")
    for m in (pair.op, pair.rev):
        assert pair.undoing(m) is m


def test_arity3_abelian_path():
    spec = builtin_algebra("abelian", dim=1, arity=3)
    pair = make_tsd_pair(spec)
    assert pair.undoing(pair.op) is pair.op
    assert check_tsd_properties(pair).passed
    assert pair.op.diff_witness(pair.rev) is None
