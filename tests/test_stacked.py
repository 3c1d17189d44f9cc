"""The level data and the stacked stages give, bit for bit, what one mode at a time gives.

``reference`` holds the one-mode versions of ``mode_table`` (a level table
and a C stack), ``epsilon``,
``apply_Q``, ``apply_A``, the norms, ``wronskian_residuals``,
``verify_lemma_suite`` and ``hs_norms``, with the arithmetic the package used
before it evaluated each level once and checked a level's modes as one stack.
Every value is compared by its bytes.
"""

import numpy as np
import pytest

import reference
from qsolidtorus.analysis import hs_norms
from qsolidtorus.families import CoefficientFamily, WeightFamily, default_families
from qsolidtorus.parametrix import RhsPair, WeightedSeq, apply_A, apply_Q, random_rhs
from qsolidtorus.solutions import (
    DEFAULT_RULE,
    BoundaryRule,
    build_solution,
    epsilon,
    stack,
    verify_lemma_suite,
    wronskian_residuals,
)
from qsolidtorus.transfer import Levels, ModeIndex

TABLE_RULE = BoundaryRule({2: (0.1, 1.0)})

CASES = [
    *((default_families(), DEFAULT_RULE, k, (0, 1, -1, 3, -3, 32, -32)) for k in (16, 128, 1024)),
    *((reference.TABULATED, DEFAULT_RULE, k, (0, 1, -1, 2, -2, 5)) for k in (16, 128)),
    (default_families(), TABLE_RULE, 64, (0, 2, -2, 3, -3)),
]


def same(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def same_report(got, want) -> bool:
    """Equal reports, with every float compared by its bytes (a NaN equals a NaN of the same bits)."""
    if type(got) is not type(want) or got.mode != want.mode:
        return False
    if hasattr(want, "checks"):
        return got.checks == want.checks and same(got.worst, want.worst)
    dicts = ("hs", "bounds", "pass_flags")
    scalars = ("eps", "s_n", "s_n1", "tau", "ratio", "proxy")
    return all(
        sorted(getattr(got, d)) == sorted(getattr(want, d))
        and same([getattr(got, d)[key] for key in sorted(getattr(want, d))], [v for _, v in sorted(getattr(want, d).items())])
        for d in dicts
    ) and all(same(getattr(got, s), getattr(want, s)) for s in scalars)


def stack_rhs(rs) -> RhsPair:
    """Right-hand sides of one level as one, along a leading mode axis, as solve stacks them."""
    n = rs[0].r2.level
    return RhsPair(
        WeightedSeq(np.array([r.r1.values for r in rs]), n + 1),
        WeightedSeq(np.array([r.r2.values for r in rs]), n),
        np.array([r.q0 for r in rs]),
    )


def check_against_one_mode(sols, rs, w, c, stacked: bool):
    """Every stage on ``sols`` (as one stack, or one at a time) against the one-mode references."""
    if stacked:
        st = stack(sols)
        r = stack_rhs(rs)
        res = apply_Q(st, r)
        back = apply_A(st, res.h_g, res.h_f)
        norms = (r.norm(st.table), res.norm(st.table), res.h_g.norm(st.table), back.r1.norm(st.table))
        lemmas = verify_lemma_suite(st) if st.mode.m.all() else None
        hs = hs_norms(st, w, c) if st.mode.m.all() else None
        wr = wronskian_residuals(st)
    for j, (sol, rj) in enumerate(zip(sols, rs)):
        want = reference.apply_Q(sol, rj)
        want_back = reference.apply_A(sol.table, sol.mode, want.h_g, want.h_f)
        want_norms = (
            reference.norm_rhs(rj, sol.table),
            reference.norm_result(want, sol.table),
            reference.norm_seq(want.h_g, sol.table),
            reference.norm_seq(want_back.r1, sol.table),
        )
        if not stacked:
            res_j = apply_Q(sol, rj)
            back_j = apply_A(sol, res_j.h_g, res_j.h_f)
            got = (res_j.h_g.values, res_j.h_f.values, res_j.beta, res_j.boundary_residual, res_j.boundary_tol)
            got_back = (back_j.r1.values, back_j.r2.values, back_j.q0)
            got_norms = (rj.norm(sol.table), res_j.norm(sol.table), res_j.h_g.norm(sol.table), back_j.r1.norm(sol.table))
            got_lemma, got_hs, got_wr = verify_lemma_suite(sol), hs_norms(sol, w, c), wronskian_residuals(sol)
        else:
            got = (res.h_g.values[j], res.h_f.values[j], res.beta[j], res.boundary_residual[j], res.boundary_tol[j])
            got_back = (back.r1.values[j], back.r2.values[j], back.q0[j])
            got_norms = tuple(v[j] for v in norms)
            got_lemma = lemmas[j] if lemmas is not None else verify_lemma_suite(sol)
            got_hs = hs[j] if hs is not None else hs_norms(sol, w, c)
            got_wr = wr[j]
        mode = sol.mode
        assert all(map(same, got, (want.h_g.values, want.h_f.values, want.beta, want.boundary_residual, want.boundary_tol))), mode
        assert all(map(same, got_back, (want_back.r1.values, want_back.r2.values, want_back.q0))), mode
        assert all(map(same, got_norms, want_norms)), mode
        assert same_report(got_lemma, reference.verify_lemma_suite(sol)), mode
        assert same_report(got_hs, reference.hs_norms(sol, w, c)), mode
        assert same(got_wr, reference.wronskian_residuals(sol)), mode


@pytest.mark.parametrize("families, rule, k_max, ms", CASES)
@pytest.mark.parametrize("n", [0, 4])
def test_stacked_stages_equal_one_mode_at_a_time(families, rule, k_max, ms, n):
    w, c = families
    rng = np.random.default_rng(k_max + n)
    levels = Levels(w, c, k_max)
    sols = [build_solution(ModeIndex(m, n), levels, rule=rule) for m in ms]
    for sol in sols:
        want, want_C = reference.mode_table(sol.mode, w, c, k_max)
        alone = Levels(w, c, k_max)
        for table in (sol.table, alone.table(n)):
            assert all(same(getattr(table, f), getattr(want, f)) for f in ("an", "an1", "c1", "c2", "prefix"))
        for C in (levels.C(sol.mode), alone.C(sol.mode)):
            assert same(C, want_C), sol.mode
        want_eps = reference.epsilon(sol.mode, w)
        for eps in (sol.eps, epsilon(sol.mode, alone)):
            assert same((eps.value, eps.tail), (want_eps.value, want_eps.tail)), sol.mode
    rs = [random_rhs(sol.mode, k_max, rng) for sol in sols]
    nonzero = [j for j, m in enumerate(ms) if m != 0]
    # each mode alone (m = 0 included), the m != 0 modes as one stack, and a stack of one
    check_against_one_mode(sols, rs, w, c, stacked=False)
    check_against_one_mode([sols[j] for j in nonzero], [rs[j] for j in nonzero], w, c, stacked=True)
    check_against_one_mode(sols[-1:], rs[-1:], w, c, stacked=True)


def test_an_overflowing_row_leaves_the_other_rows_alone():
    """At K = 256, m = 8192 squares tau past the float range; its rows fail, and only its rows.

    pytest turns every RuntimeWarning into an error here, so the stack also
    shows that no stage warns on the overflowing row.
    """
    w, c = default_families()
    rng = np.random.default_rng(5)
    sols = [build_solution(ModeIndex(m, 0), Levels(w, c, 256)) for m in (1, 8192, 3)]
    rs = [random_rhs(sol.mode, 256, rng) for sol in sols]
    hs = hs_norms(stack(sols), w, c)
    assert [rep.all_finite for rep in hs] == [True, False, True]
    check_against_one_mode(sols, rs, w, c, stacked=True)


def test_a_stack_that_holds_m_zero_is_rejected():
    """The m = 0 checks differ from the m != 0 ones, so hs_norms and the lemma suite take m = 0 only alone."""
    w, c = default_families()
    levels = Levels(w, c, 16)
    st = stack([build_solution(ModeIndex(m, 0), levels) for m in (0, 1)])
    for check in (lambda: hs_norms(st, w, c), lambda: verify_lemma_suite(st)):
        with pytest.raises(ValueError, match="stack holds m = 0 at level n=0"):
            check()


def test_levels_evaluate_each_row_once(monkeypatch):
    """One Levels object evaluates each (family, level, index, length) once for every m and both neighbours."""
    w, c = default_families()
    seen = []
    for cls, name in ((WeightFamily, "a"), (CoefficientFamily, "c")):
        def counted(self, *args, _orig=getattr(cls, name), _name=name):
            k = args[-1]
            seen.append((_name, *args[:-1], np.size(k) if np.ndim(k) else ("k", int(k))))
            return _orig(self, *args)

        monkeypatch.setattr(cls, name, counted)
    levels = Levels(w, c, 32)
    for n in (0, 1, 2):
        for m in (0, 1, -1, 7):
            build_solution(ModeIndex(m, n), levels)
    assert len(seen) == len(set(seen))
    # a_1 on the window serves level 0 as a_{n+1} and level 1 as a_n
    assert seen.count(("a", 1, 33)) == 1
