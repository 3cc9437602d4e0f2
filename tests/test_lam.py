import pytest
from hypothesis import given, settings, strategies as st

from llinf import generate
from llinf.errors import LLinfError
from llinf.lam import (
    DepthFlags, SimReport, check_labc, embed_cbv, embed_girard,
    find_beta_redexes, lbeta_step, simulate_cbv, simulate_girard,
)
from llinf.surface import parse_lambda_program, parse_program
from llinf.terms import graph_bisimilar, substitute
from llinf.wellform import check_llinf


def lparse(text):
    g, _ = parse_lambda_program(text)
    return g


SELF_ABS = "def M = \\x. M ; root M"
SELF_ARG = "def M = x M ; root M"


def test_flags_parse():
    assert DepthFlags.parse("101") == DepthFlags(1, 0, 1)
    with pytest.raises(ValueError):
        DepthFlags.parse("12")


@pytest.mark.parametrize("flags,accepted", [
    ("100", True), ("001", False), ("000", False), ("110", True),
])
def test_check_self_abstraction(flags, accepted):
    g = lparse(SELF_ABS)
    assert check_labc(g, DepthFlags.parse(flags)).accepted == accepted


@pytest.mark.parametrize("flags,accepted", [
    ("001", True), ("100", False), ("000", False), ("011", True),
])
def test_check_self_argument(flags, accepted):
    g = lparse(SELF_ARG)
    assert check_labc(g, DepthFlags.parse(flags)).accepted == accepted


def test_finite_terms_wellformed_everywhere():
    g = lparse("def T = (\\x. x x) (\\y. y) ; root T")
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                assert check_labc(g, DepthFlags(a, b, c)).accepted


def test_check_reports_the_first_loop_in_preorder():
    # two inductive loops under flags 011; a breadth-first numbering
    # would report B's, the depth-first search the check keeps meets C's
    g = lparse("def T = (C d) B ; def C = \\x. C ; def B = \\y. B ; root T")
    rep = check_labc(g, DepthFlags.parse("011"))
    assert rep.cycle == ("\\x. C", "\\x. C")


def test_boxes_rejected():
    g = parse_program("def T = !x ; root T")
    with pytest.raises(LLinfError):
        check_labc(g, DepthFlags(0, 0, 0))


def test_lbeta_basic():
    g = lparse("def B = (\\x. x) y ; root B")
    out = lbeta_step(g, DepthFlags(0, 0, 0), 0)
    assert graph_bisimilar(out, lparse("def R = y ; root R"))
    assert lbeta_step(g, DepthFlags(0, 0, 0), 1) is None


def test_lbeta_omega_self_reproduces():
    om = lparse("def O = (\\x. x x) (\\x. x x) ; root O")
    out = lbeta_step(om, DepthFlags(0, 0, 0), 0)
    assert graph_bisimilar(out, om)


def test_lbeta_depth_under_argument_flag():
    g = lparse("def A = x ((\\y. y) z) ; root A")
    flags = DepthFlags(0, 0, 1)
    assert find_beta_redexes(g, flags, 0) == []
    out = lbeta_step(g, flags, 1)
    assert graph_bisimilar(out, lparse("def R = x z ; root R"))


def test_embed_girard_shapes():
    dd = lparse("def D = \\x. x x ; root D")
    assert graph_bisimilar(embed_girard(dd, 0),
                           parse_program("def E = \\!x. x !x ; root E"))
    v = lparse("def V = x ; root V")
    assert graph_bisimilar(embed_girard(v, 0), parse_program("def E = x ; root E"))
    cyc = lparse(SELF_ARG)
    assert graph_bisimilar(embed_girard(cyc, 1),
                           parse_program("def E = x #E ; root E"))


def test_embed_girard_requires_wellformed():
    with pytest.raises(LLinfError):
        embed_girard(lparse(SELF_ARG), 0)  # cycle crosses no flagged position


def test_embed_cbv_shapes():
    i = lparse("def I = \\x. x ; root I")
    assert graph_bisimilar(embed_cbv(i, 0, 0),
                           parse_program("def E = \\!x. !x ; root E"))
    assert graph_bisimilar(embed_cbv(i, 1, 0),
                           parse_program("def E = \\!x. #x ; root E"))
    yz = lparse("def A = y z ; root A")
    assert graph_bisimilar(embed_cbv(yz, 0, 0),
                           parse_program("def E = (\\!w. w) (y !z) ; root E"))
    assert graph_bisimilar(embed_cbv(yz, 1, 1),
                           parse_program("def E = (\\#w. w) (y #z) ; root E"))


def test_embedding_wellformation_lemma():
    # each free variable maps to the box pattern selected by the flag
    for a in (0, 1):
        kind = "ind" if a == 0 else "coind"
        g = lparse("def T = \\x. x y (z z) ; root T")
        e = embed_girard(g, a)
        env = {v: kind for v in sorted(e.free_vars())}
        assert check_llinf(env, e).accepted
    cyc = lparse(SELF_ARG)
    e = embed_girard(cyc, 1)
    assert check_llinf({"x": "coind"}, e).accepted
    for a in (0, 1):
        for b in (0, 1):
            g = lparse("def T = \\x. x y (z z) ; root T")
            e = embed_cbv(g, a, b)
            kind = "ind" if b == 0 else "coind"
            env = {v: kind for v in sorted(e.free_vars())}
            assert check_llinf(env, e).accepted, (a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([0, 1]))
def test_embedding_commutes_with_substitution(seed, a):
    g = generate.random_lambda(seed)
    free = sorted(g.free_vars())
    if not free:
        return
    x = free[0]
    n = generate.random_lambda(seed + 1)
    left = embed_girard(substitute(g, x, n), a)
    right = substitute(embed_girard(g, a), x, embed_girard(n, a))
    assert graph_bisimilar(left, right)


def test_simulate_girard_examples():
    simple = lparse("def B = (\\x. x) y ; root B")
    assert simulate_girard(simple, 0, 1).ok
    om = lparse("def O = (\\x. x x) (\\x. x x) ; root O")
    assert simulate_girard(om, 0, 5).ok
    cyc = lparse("def M = x ((\\y. y) M) ; root M")
    assert simulate_girard(cyc, 1, 3).ok


def test_simulations_take_a_step_at_flag_depth_70():
    # the redex sits under 70 arguments, at flag depth 70 in lambda-001
    g = lparse("def M = " + "f (" * 70 + "(\\x. x) y" + ")" * 70
               + " ; root M ; flags 001")
    assert lbeta_step(g, DepthFlags(0, 0, 1), 70) is not None
    for rep in (simulate_girard(g, 1, 3), simulate_cbv(g, 0, 1, 3)):
        assert rep == SimReport(True, 1, "source term is normal")


def test_simulate_cbv_rejects_a_term_that_is_not_pure_lambda():
    # the redex under the box is one no flag-depth search reaches
    g = parse_program("def M = y #((\\x. x) z) ; root M")
    with pytest.raises(LLinfError, match="contains a box"):
        simulate_cbv(g, 0, 1, 3)


def test_simulate_cbv_all_flag_pairs():
    om = lparse("def O = (\\x. x x) (\\x. x x) ; root O")
    for a in (0, 1):
        for b in (0, 1):
            rep = simulate_cbv(om, a, b, 4)
            assert rep.ok, (a, b, rep.detail)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([0, 1]))
def test_simulate_girard_random(seed, a):
    g = generate.random_lambda(seed)
    rep = simulate_girard(g, a, 6)
    assert rep.ok, rep.detail


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]))
def test_simulate_cbv_random(seed, ab):
    g = generate.random_lambda(seed)
    rep = simulate_cbv(g, ab[0], ab[1], 6)
    assert rep.ok, rep.detail


def test_simulate_girard_regular():
    for seed in range(5):
        g = generate.random_regular_001(seed)
        assert check_labc(g, DepthFlags(0, 0, 1)).accepted
        rep = simulate_girard(g, 1, 4)
        assert rep.ok, rep.detail
