import pytest
from hypothesis import given, settings, strategies as st

import graph_oracles
from llinf import generate, lam
from llinf.errors import BudgetExceededError, LLinfError
from llinf.lam import (
    DepthFlags, SimReport, check_labc, embed_cbv, embed_girard,
    find_beta_redexes, lbeta_step, simulate_cbv, simulate_girard,
)
from llinf.surface import format_graph, parse_lambda_program, parse_program
from llinf.terms import (
    App, Box, IND, LIN, Lam, TermGraph, Var, graph_bisimilar, substitute,
)
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


# a redex under 2 000 arguments, at flag depth 2 000 in lambda-001, whose
# contractum is a second redex at the same depth: two source steps
DEEP_001 = ("def M = " + "f (" * 2000 + "(\\x. x) ((\\x. x) y)" + ")" * 2000
            + " ; root M ; flags 001")


def test_simulations_search_once_per_step_at_flag_depth_2000(monkeypatch):
    plain = lam.find_beta_redexes
    depths = []
    monkeypatch.setattr(lam, "find_beta_redexes",
                        lambda g, flags, d: depths.append(d) or plain(g, flags, d))
    g = lparse(DEEP_001)
    for simulate in (lambda: simulate_girard(g, 1, 5),
                     lambda: simulate_cbv(g, 0, 1, 5)):
        depths.clear()
        assert simulate() == SimReport(True, 2, "source term is normal")
        assert depths == [2000, 2000]


def test_simulate_girard_checks_completeness_below_height_48(monkeypatch):
    # the image of `x y` under 60 abstractions becomes a redex whose
    # source is no redex; a check to height 48 would not see it
    binders = "".join(f"\\x{i}. " for i in range(60))
    g = lparse(f"def M = {binders}x0 y ; root M")
    assert simulate_girard(g, 0, 3) == SimReport(True, 0, "source term is normal")
    planted = parse_program(
        "def M = " + binders.replace("\\", "\\!") + "(\\!z. z) !y ; root M")
    monkeypatch.setattr(lam, "embed_girard", lambda g, a: planted)
    rep = simulate_girard(g, 0, 3)
    assert not rep.ok and rep.steps == 0
    assert "is the image of no source redex" in rep.detail


def test_require_pure_lambda_visits_each_node_once(monkeypatch):
    b = Var("x")
    for _ in range(16):
        b = App(b, b)
    g = TermGraph({"M": b}, "M")
    plain = lam.children
    visits = []
    monkeypatch.setattr(lam, "children", lambda n: visits.append(n) or plain(n))
    lam.require_pure_lambda(g)
    assert len(visits) == 17


def test_require_pure_lambda_names_the_first_definition():
    # B reaches the plain abstraction A already walked, and the box on
    # its argument side before the inductive abstraction
    ident = Lam(LIN, "x", Var("x"))
    bad = App(App(ident, Lam(IND, "x", Var("x"))), Box(IND, Var("z")))
    g = TermGraph({"A": App(Var("y"), ident), "B": bad, "C": Box(IND, ident)},
                  "A")
    with pytest.raises(LLinfError, match="^definition 'B' contains a box;"):
        lam.require_pure_lambda(g)
    g = TermGraph({"A": App(Var("y"), ident), "C": bad.fn}, "A")
    with pytest.raises(LLinfError,
                       match="^definition 'C' contains a non-plain abstraction$"):
        lam.require_pure_lambda(g)


@pytest.mark.parametrize("ab", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_embed_cbv_matches_the_fresh_name_oracle(ab):
    graphs = [generate.random_lambda(seed) for seed in range(40)]
    graphs += [generate.random_regular_001(seed) for seed in range(5)]
    graphs.append(lparse("def A = (\\w1. w1 w3) (y (w z)) ; def B = v A ; "
                         "root B"))
    for g in graphs:
        if check_labc(g, DepthFlags(ab[0], 0, ab[1])):
            assert format_graph(embed_cbv(g, *ab)) \
                == format_graph(graph_oracles.embed_cbv(g, *ab))


def test_simulations_embed_and_check_each_reduct_once(monkeypatch):
    # one embedding and one well-formation check per step, plus one for
    # the source: the embedding a step lands on is the next step's target
    calls = []
    for name in ("embed_girard", "embed_cbv", "check_labc"):
        plain = getattr(lam, name)
        monkeypatch.setattr(lam, name, lambda *args, name=name, plain=plain:
                            calls.append(name) or plain(*args))
    om = lparse("def O = (\\x. x x) (\\x. x x) ; root O")
    for simulate, embed in ((lambda: simulate_girard(om, 0, 10), "embed_girard"),
                            (lambda: simulate_cbv(om, 0, 0, 10), "embed_cbv")):
        calls.clear()
        assert simulate() == SimReport(True, 10)
        assert calls.count(embed) == 11 and calls.count("check_labc") == 11
        assert len(calls) == 22


@pytest.mark.parametrize("text", ["def D = h D ; root D",
                                  "def D = (\\x. x) (h D) ; root D"])
def test_simulations_reject_an_ill_formed_source_before_searching(text):
    # D's loop crosses only argument sides, which lambda-000 does not
    # count; the second D has a redex whose depth-0 region is infinite
    g = lparse(text)
    with pytest.raises(LLinfError, match="not well-formed in lambda-000"):
        simulate_cbv(g, 0, 0, 3)
    with pytest.raises(LLinfError, match="not well-formed in lambda-000"):
        simulate_girard(g, 0, 3)


def test_a_lambda_search_past_its_budget_raises_the_evaluators_message():
    # lambda-000 counts no crossing, so the depth-1 region of M is infinite
    g = lparse("def M = (\\x. x) M ; root M")
    with pytest.raises(BudgetExceededError) as info:
        lbeta_step(g, DepthFlags(0, 0, 0), 1, 50)
    assert str(info.value) == "traversal exceeded 50 nodes (ill-formed input?)"


def _nest(n, outer, inner="(\\x. x) y"):
    """``inner`` under ``n`` copies of ``outer``, whose ``_`` it fills."""
    for i in range(n):
        inner = outer.replace("_", inner).replace("@", f"v{i}")
    return lparse(f"def M = {inner} ; root M")


def _search_corpus():
    """Pure lambda graphs for the searches: random finite terms, random
    cyclic 001 shapes, hand-written loops, redexes 30 crossings deep on
    each side, and a body whose subterms are shared objects."""
    yield from (generate.random_lambda(("eq", i), 6 + i % 20)
                for i in range(300))
    yield from (generate.random_regular_001(seed) for seed in range(40))
    for text in (SELF_ABS, SELF_ARG, "def D = (\\x. x) (h D) ; root D",
                 "def D = \\z. (\\y. y) (z D) ; root D",
                 "def T = (C d) B ; def C = \\x. C ; def B = \\y. B ; root T",
                 "def T = (C ((\\z. z) d)) B ; def C = \\x. (\\w. w) C ; "
                 "def B = \\y. B ((\\u. u) y) ; root T",
                 "def T = (\\x. T) (T (\\y. y) T) ; root T"):
        yield lparse(text)
    yield _nest(30, "f (_)")
    yield _nest(30, "(_) a")
    yield _nest(30, "\\@. _")
    redex = App(Lam(LIN, "x", Var("x")), Var("y"))
    inner = App(redex, Lam(LIN, "z", App(redex, Var("z"))))
    yield TermGraph({"M": App(App(inner, redex), App(Var("f"), inner))}, "M")


def _least_depth_oracle(g, flags):
    """The first redex at the least flag depth that holds one, searched
    depth by depth: a least-depth path to a node repeats no node, so no
    depth past the number of nodes needs a search."""
    for d in range(check_labc(g, flags).states + 1):
        found = graph_oracles.find_beta_redexes(g, flags, d)
        if found:
            return found[0], d
    return None, None


def test_beta_redex_searches_match_the_flag_walk_oracle():
    corpus = list(_search_corpus())
    diffs, accepted = [], 0
    for flags in map(DepthFlags.parse, ("000", "001", "010", "011",
                                        "100", "101", "110", "111")):
        for i, g in enumerate(corpus):
            if not check_labc(g, flags):
                continue
            accepted += 1
            if lam._leftmost_source_redex(g, flags) \
                    != _least_depth_oracle(g, flags):
                diffs.append((str(flags), i, "least"))
            for d in range(5):
                if find_beta_redexes(g, flags, d) \
                        != graph_oracles.find_beta_redexes(g, flags, d):
                    diffs.append((str(flags), i, d))
    assert accepted > 2000
    assert not diffs, f"{len(diffs)} differences, first {diffs[:5]}"
