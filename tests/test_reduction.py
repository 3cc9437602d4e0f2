import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import graph_oracles
from llinf import (
    cli, encodings, generate, metrics, properties, reduction, terms,
)
from llinf.errors import BudgetExceededError, InvalidPositionError, LLinfError
from llinf.reduction import (
    Redex, classify, contract, eval_lbl, find_deadlock, find_redexes,
    format_step, has_any_redex, level_at, redexes_within_depth,
    level_key, run_lbl_trace, step_at_levelset, step_lbl, _admissible,
    _first_redex, _shallow_size,
)
from llinf.terms import (
    App, Box, Lam, Ref, TermGraph, Var,
    alpha_equal, equal_at_depth, graph_bisimilar,
    project_depth, _scan_body,
)
from llinf.surface import format_graph, format_node
from conftest import flip_applied, parse


def test_find_redex_simple():
    g = parse("def A = (\\x. x) y ; root A")
    rs = find_redexes(g, 0)
    assert len(rs) == 1
    assert rs[0] == Redex((), "", "linear")


def test_find_redex_normal_form(identity):
    assert find_redexes(identity, 0) == []
    assert not has_any_redex(identity)


def test_find_redexes_nonconf(ex):
    rs = find_redexes(ex["nonconf"], 1)
    assert rs[0].kind == "coinductive" and rs[0].level == ""
    assert any(r.depth >= 1 for r in rs)


def test_redex_levels_and_order():
    g = parse("def A = !((\\x. x) u) (#((\\y. y) w)) ((\\z. z) v) ; root A")
    rs = find_redexes(g, 1)
    assert [r.level for r in rs] == ["", "i", "c"]
    # level key orders i before c at equal depth, depth first overall
    assert rs[0].position == ("arg",)


def test_contract_linear():
    g = parse("def A = (\\x. x) y ; root A")
    out = contract(g, find_redexes(g, 0)[0])
    assert out.root_body() == Var("y")


def test_contract_coinductive_k():
    g = parse("def A = (\\#x. \\#y. x) (#(\\q. q)) ; root A")
    out = contract(g, find_redexes(g, 0)[0])
    want = parse("def W = \\#y. \\q. q ; root W")
    assert graph_bisimilar(out, want)


def test_contract_inductive_omega(ex):
    om = ex["omega_ind"]
    out = contract(om, find_redexes(om, 0)[0])
    assert graph_bisimilar(out, om)


def test_contract_invalid_position():
    g = parse("def A = (\\x. x) y ; root A")
    with pytest.raises(InvalidPositionError):
        contract(g, Redex(("fn",), "", "linear"))
    with pytest.raises(InvalidPositionError):
        contract(g, Redex((), "", "coinductive"))


def test_contract_unshares_shared_definition():
    # the root and the boxed sibling share D; contracting the root copy
    # must leave the sibling alone
    defs = {
        "D": App(Lam("lin", "x", Var("x")), Var("y")),
        "A": App(Var("u"), Box("coind", Ref("D"))),
    }
    g = TermGraph({**defs, "R": App(Ref("D"), Box("coind", Ref("D")))}, "R")
    rs = find_redexes(g, 1)
    top = [r for r in rs if r.position == ("fn",)]
    out = contract(g, top[0])
    want_defs = {
        "D": App(Lam("lin", "x", Var("x")), Var("y")),
        "W": App(Var("y"), Box("coind", Ref("D"))),
    }
    want = TermGraph(want_defs, "W")
    assert graph_bisimilar(out, want)


def test_level_at():
    g = parse("def A = !(#(x y)) ; root A")
    assert level_at(g, ("box", "box", "fn")) == "ic"


def test_step_at_levelset_none(identity):
    assert step_at_levelset(identity, "any") is None


def test_step_at_levelset_even_odd(ex):
    m, L, P = ex["nonconf"], ex["nonconf_L"], ex["nonconf_P"]
    g = m
    seen_L = False
    for i in range(8):
        g = step_at_levelset(g, "even")
        assert g is not None
        if equal_at_depth(g, L, 1):
            seen_L = True
            break
    assert seen_L
    g = m
    seen_P = False
    for i in range(8):
        g = step_at_levelset(g, "odd")
        assert g is not None
        if equal_at_depth(g, P, 1):
            seen_P = True
            break
    assert seen_P


def test_step_at_levelset_exact_and_depth(ex):
    m = ex["nonconf"]
    stepped = step_at_levelset(m, ("depth", 1))
    assert stepped is not None
    assert equal_at_depth(stepped, m, 0)
    assert step_at_levelset(m, ("exact", "c")) is not None


def _redex_under(n):
    """``f (f (... ((\\x. x) y) ...))`` with ``n`` applications of f."""
    return parse("def M = " + "f (" * n + "(\\x. x) y" + ")" * n + " ; root M")


def test_classify_and_step_lbl_see_a_redex_under_70_applications():
    g = _redex_under(70)
    assert classify(g) == "reducible"
    _, r = step_lbl(g)
    assert r.position == ("arg",) * 70


def test_step_at_levelset_finds_a_redex_under_70_applications():
    assert step_at_levelset(_redex_under(70), "any") is not None
    # the same redex one depth down, under a coinductive box
    g = parse("def M = c #(" + "f (" * 70 + "(\\x. x) y" + ")" * 70
              + ") ; root M")
    want = parse("def M = c #(" + "f (" * 70 + "y" + ")" * 70 + ") ; root M")
    assert format_graph(step_at_levelset(g, "odd")) == format_graph(want)
    assert step_at_levelset(g, "even") is None


def test_random_single_step_finds_a_redex_under_40_applications():
    import random
    stepped, r = properties.random_single_step(_redex_under(40),
                                               random.Random(0))
    assert r == Redex(("arg",) * 40, "", "linear")
    want = parse("def M = " + "f (" * 40 + "y" + ")" * 40 + " ; root M")
    assert format_graph(stepped) == format_graph(want)


def test_step_at_levelset_sees_a_node_at_both_parities():
    # R lies at depth 1 and at depth 2; only the depth-2 copy is even
    g = parse("def R = (\\x. x) y ; def T = a #R #(#R) ; root T")
    want = parse("def R = (\\x. x) y ; def T = a #R #(#y) ; root T")
    assert format_graph(step_at_levelset(g, "even")) == format_graph(want)
    assert format_graph(step_at_levelset(g, ("depth", 2))) == format_graph(want)
    assert step_at_levelset(g, ("depth", 0)) is None
    assert step_at_levelset(g, ("exact", "cc")) is not None


LEVELSET_SPECS = ["any", "even", "odd"] + [("depth", n) for n in range(4)] + [
    ("exact", w) for w in ("", "i", "c", "ic", "ci", "cc", "ii")]


def test_step_at_levelset_matches_the_height_capped_oracle():
    """On the counterexamples, the ill-formed rho among them, and on
    generated terms, every spec contracts the redex the first match in
    the height-64 list contracts, or finds none where it finds none."""
    from llinf.encodings import counterexamples
    graphs = list(counterexamples().values())
    graphs += [generate.random_term(("levelset", seed), system, 24,
                                    require_redex=True)[1]
               for system in ("llinf", "4s") for seed in range(300)]
    for g in graphs:
        for spec in LEVELSET_SPECS:
            got = step_at_levelset(g, spec)
            want = graph_oracles.step_at_levelset(g, spec)
            assert (got and format_graph(got)) == (
                want and format_graph(want)), (format_graph(g), spec)


def test_step_lbl_leftmost_outermost():
    g = parse("def A = (\\x. x) ((\\y. y) z) ; root A")
    out = step_lbl(g)
    assert out is not None
    g2, rec = out
    assert rec.position == ()
    assert graph_bisimilar(g2, parse("def B = (\\y. y) z ; root B"))


def test_step_lbl_descends():
    g = parse("def A = #((\\x. x) y) ; root A")
    g2, rec = step_lbl(g)
    assert rec.depth == 1
    assert graph_bisimilar(g2, parse("def B = #y ; root B"))


def test_step_lbl_normal(identity):
    assert step_lbl(identity) is None


def test_step_lbl_prefix_admissibility():
    # a redex at level "" and one at level "i": only the outer is
    # admissible first
    g = parse("def A = ((\\x. x) u) (!((\\y. y) w)) ; root A")
    _, rec = step_lbl(g)
    assert rec.level == ""


def test_eval_lbl_identity(identity):
    _, tree, stats = eval_lbl(identity, 3, 1)
    assert stats.outcome == "normalized"
    assert stats.steps_per_depth == {0: 0, 1: 0, 2: 0, 3: 0}


def test_eval_lbl_deadlock():
    g = parse("def D = (\\!x. x) (#y) ; root D")
    _, _, stats = eval_lbl(g, 1, 10)
    assert stats.outcome == "stuck"
    assert "coinductive box" in stats.detail


def test_eval_lbl_fuel():
    om = parse("def O = (\\!x. x !x) (!(\\!x. x !x)) ; root O")
    _, _, stats = eval_lbl(om, 0, 5)
    assert stats.outcome == "fuel-exhausted"
    assert stats.steps_per_depth[0] == 5


def test_eval_lbl_productive_stream():
    from llinf import encodings
    g = encodings.scott_encode(
        encodings.BINARY, encodings.stream_tree("", "01"), "coalgebra")
    _, tree, stats = eval_lbl(g, 3, 10)
    assert stats.outcome == "normalized"


def test_classify(ex, identity):
    assert classify(identity) == "normal"
    assert classify(parse("def A = (\\x. x) y ; root A")) == "reducible"
    assert classify(ex["deadlock"]) == "deadlocked"
    assert classify(ex["cyclic"]) == "normal"
    assert classify(ex["nonNF_N"]) == "reducible"
    assert classify(ex["nonNF_L"]) == "reducible"


def test_classify_open_mismatch_is_not_deadlock():
    # an abstraction argument can never become a box, even when open
    g = parse("def A = (\\!x. x) (\\y. y) ; root A")
    assert classify(g) == "deadlocked"
    # a free-variable argument might be anything: normal, not deadlocked
    g2 = parse("def A = (\\!x. x) y ; root A")
    assert classify(g2) == "normal"


def _nested(k, redex):
    """``f (f (... redex))`` with ``k`` applications of ``f``."""
    return parse("def M = " + "f (" * k + redex + ")" * k + " ; root M")


def test_classify_decides_on_the_graph():
    # the applications put each redex at height 70, past the oracle's 64
    assert classify(_nested(70, "(\\x. x) y")) == "reducible"
    assert classify(_nested(70, "(\\!x. x) #y")) == "deadlocked"
    assert graph_oracles.classify(_nested(70, "(\\x. x) y")) == "normal"


def test_classify_agrees_with_the_height_capped_oracle():
    """Every bundled example and generated term lies within the
    oracle's height 64, where the two classifications agree."""
    graphs = [g for _, (g, _) in sorted(cli._example_expectations().items())]
    graphs += [_nested(k, redex) for k in (0, 1, 60) for redex in (
        "(\\x. x) y", "(\\!x. x) #y", "(#(\\z. z)) (\\w. w)")]
    graphs += [generate.random_term(("classify", seed), system, size)[1]
               for system in ("llinf", "4s") for seed in range(40)
               for size in (12, 30)]
    verdicts = set()
    for g in graphs:
        want = graph_oracles.classify(g)
        assert classify(g) == want, format_graph(g)
        verdicts.add(want)
    assert verdicts == {"normal", "reducible", "deadlocked"}


def test_find_deadlock_kind_mismatch_only_for_eval(ex):
    assert find_deadlock(ex["nonNF_P"], max_depth=2) is None
    assert find_deadlock(ex["nonNF_P"], max_depth=2,
                         include_box_heads=True) is not None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["llinf", "4s"]))
def test_level_correctness_random(seed, system):
    _, g = generate.random_term(seed, system, 24, require_redex=True)
    # a depth past every coinductive box of a term of this size
    for r in find_redexes(g, 24)[:6]:
        assert level_at(g, r.position) == r.level
        n = r.depth
        stepped = contract(g, r)
        for m in range(n):
            assert equal_at_depth(g, stepped, m)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_lbl_diamond_random(seed):
    import random
    _, g = generate.random_term(seed, "4s", 24, require_redex=True)
    got = properties.lbl_diamond_case(g, random.Random(str(seed)))
    assert got is None or got is True


def test_eval_certificate_lower_depths_final():
    # after eval to depth d, continuing deeper never disturbs depths <= d
    _, g = generate.random_term(101, "4s", 30, require_redex=True)
    g1, _, stats = eval_lbl(g, 1, 500)
    assert stats.outcome == "normalized"
    g2, _, stats2 = eval_lbl(g1, 3, 500)
    assert stats2.outcome == "normalized"
    assert stats2.steps_per_depth[0] == 0 and stats2.steps_per_depth[1] == 0
    assert equal_at_depth(g1, g2, 1)


# ----- frontier evaluation against the whole-graph loop -----------------------

def _whole_graph_eval(g, depth, fuel, budget):
    """The whole-graph level-by-level loop, kept as the oracle: every
    step re-walks the depth-<=d region from the root and contracts on
    the whole graph.  Returns (outcome, steps, stuck position, trace,
    final graph)."""
    steps = {}
    trace = []                        # (redex, graph after the step)
    for d in range(depth + 1):
        steps[d] = 0
        while True:
            redexes = redexes_within_depth(g, d, budget)
            if not redexes:
                break
            assert all(r.depth == d for r in redexes)
            if steps[d] >= fuel:
                return "fuel-exhausted", steps, None, trace, g
            r = _admissible(redexes)[0]
            g = contract(g, r)
            steps[d] += 1
            trace.append((r, g))
        dead = find_deadlock(g, max_depth=d, budget=budget)
        if dead is not None:
            return "stuck", steps, dead[0], trace, g
    return "normalized", steps, None, trace, g


# several boxes at one depth: step order across boxes, deadlock position
FRONTIER_CASES = {
    "two boxes": "def T = (#((\\x. x) a)) (#((\\y. y) b)) ; root T",
    "level before preorder":
        "def T = (#((\\x. x) a)) (!(#((\\y. y) b))) ; root T",
    "local level after box level":
        "def T = (#(!((\\x. x) a))) (!(#((\\y. y) b))) ; root T",
    "deadlock in second box":
        "def T = (#a) (#((\\!x. x) (#y))) ; root T",
    "two deadlocks": "def T = (#((\\!x. x) (#y))) (#((\\#z. z) (!w))) ; root T",
    "box made by a step":
        "def T = (#((\\#x. #((\\q. q) x)) #((\\y. y) b))) (#((\\z. z) c)) ; root T",
    "shared contents": "def S = (\\x. x) a ; def T = (#S) (!(#S)) ; root T",
    # evaluation stops at the depth-0 deadlock; step_lbl fires the redex below
    "deadlock above a redex":
        "def T = c ((\\!x. x) (#y)) (#((\\z. z) w)) ; root T",
}


def _gate_corpus():
    for name, text in FRONTIER_CASES.items():
        yield name, parse(text), 3, 40
    for name, g in sorted(encodings.counterexamples().items()):
        yield name, g, 3, 40
    for a in (0, 1):
        yield f"fixpoint({a})", encodings.fixpoint(a), 3, 40
    for prefix, cycle in (("", "01"), ("1", "0"), ("01", "110"), ("", "1")):
        yield f"bit_flip {prefix}({cycle})", flip_applied(prefix, cycle), 12, 200
    for system in ("llinf", "4s"):
        for seed in range(40):
            _, g = generate.random_term(("gate", seed), system, 26)
            yield f"{system}:{seed}", g, 3, 200


def _assert_valid(g):
    """``g`` passes full validation, and the caches it carries equal
    freshly computed ones."""
    full = TermGraph(g.defs, g.root)
    if g._fvs is not None:
        assert g._fvs == full.def_free_vars()
    for name, refs in (g._refs or {}).items():
        assert refs == _scan_body(g.defs[name]).refs
    if g._names is not None:
        assert g._names == full.all_names()


def _as_graph(g, node):
    """``node``, a node over ``g``'s definitions, as the root body of a
    graph of its own, validated in full."""
    name = terms.fresh_name("box", g.all_names())
    return TermGraph({**g.defs, name: node}, name)


def _checked_contract(monkeypatch):
    """Make every frontier step check its result: the stepped box's
    node, made a graph's root body, passes full validation.  Production
    builds it unchecked (``contract``'s results are checked against the
    oracle's, validated in full, by ``_assert_contract_matches_oracle``)."""
    plain = reduction._contract_at

    def checked(g, node, r, names):
        out = plain(g, node, r, names)
        _as_graph(g, out)
        return out

    monkeypatch.setattr(reduction, "_contract_at", checked)


@pytest.mark.parametrize("g,depth,fuel", [
    pytest.param(g, depth, fuel, id=name.replace(" ", "_"))
    for name, g, depth, fuel in _gate_corpus()])
def test_frontier_matches_whole_graph_loop(monkeypatch, g, depth, fuel):
    _checked_contract(monkeypatch)
    budget = 3_000      # the region of rho is infinite
    try:
        want = _whole_graph_eval(g, depth, fuel, budget)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            eval_lbl(g, depth, fuel, budget)
        return
    outcome, steps, stuck, trace, gwant = want
    seen = []
    names = set(g.all_names())
    reduction._frontier_eval(
        g, g.root_body(), depth, fuel, budget, names,
        lambda boxes, redex: seen.append((redex, reduction._with_root_body(
            g, reduction._whole(g, boxes), names))))
    gout, tree, stats = eval_lbl(g, depth, fuel, budget)
    for h in [h for _, h in seen] + [gout]:     # derive validates nothing
        _assert_valid(h)
    assert stats.outcome == outcome
    assert stats.steps_per_depth == steps
    assert stats.stuck_position == stuck
    assert ([format_step(i, r) for i, (r, _) in enumerate(seen)]
            == [format_step(i, r) for i, (r, _) in enumerate(trace)])
    for (_, h), (_, hwant) in zip(seen, trace):
        assert graph_bisimilar(h, hwant)
    assert alpha_equal(tree, project_depth(gwant, depth, budget))
    assert graph_bisimilar(gout, gwant)
    _, tree2, stats2, records = run_lbl_trace(g, depth, fuel, budget)
    assert records == [r for r, _ in seen]
    assert format_node(tree2) == format_node(tree) and stats2 == stats


def test_frontier_keeps_untouched_boxes():
    # only boxes a step changed are plugged back: a normal cyclic term
    # comes back as it went in, and an untouched box keeps its reference
    g = parse("def M = y #M ; root M")
    gout, _, stats = eval_lbl(g, 8, 10)
    assert gout is g and stats.fuel_consumed == 0
    g = parse("def S = y #S ; def T = (#((\\x. x) a)) (#S) ; root T")
    gout, tree, _ = eval_lbl(g, 8, 10)
    assert gout.defs["S"] == g.defs["S"]
    assert gout.root_body() == App(Box("coind", Var("a")),
                                   Box("coind", Ref("S")))
    assert alpha_equal(tree, project_depth(gout, 8))


# a coinductive tree: the depth-d region holds 8^d boxes
BRANCHING = "def T = \\f. f" + " (#T)" * 8 + " ; root T"


def test_frontier_budget_bounds_the_boxes(monkeypatch):
    # the frontier is charged to the budget as a whole: each box stays
    # small, but their number is bounded by the budget, not by 2^depth
    plain = reduction._Box
    opened = [0]

    def counting(*args):
        # the end-of-depth walk opens every box but the whole input's
        opened[0] += 1
        assert opened[0] <= 2_001, "boxes opened past the budget"
        return plain(*args)

    monkeypatch.setattr(reduction, "_Box", counting)
    g = parse(BRANCHING)
    with pytest.raises(BudgetExceededError):
        _whole_graph_eval(g, 25, 10, 2_000)
    with pytest.raises(BudgetExceededError):
        eval_lbl(g, 25, 10, 2_000)
    opened[0] = 0
    _, tree, stats = eval_lbl(g, 2, 10, 2_000)
    assert stats.outcome == "normalized" and opened[0] == 1 + 8 + 64
    assert alpha_equal(tree, project_depth(g, 2, 2_000))


def test_a_deadlock_wins_over_the_boxes_opened_past_the_budget():
    # at the end of depth 1, the eight boxes A opens for depth 2 pass
    # budgets 23-29 before B's deadlock is reached: the walk still
    # searches B, so evaluation stops stuck at depth 1; from budget 23 the
    # deadlock wins over the depth-3 projection's budget error
    g = parse("def M = x #A #B ; def A = y #u #u #u #u #u #u #u #u ; "
              "def B = (\\!z. z) #w ; root M ;")
    want = {}
    for budget in range(1, 41):
        if budget <= 4:
            want[budget] = f"traversal exceeded {budget} nodes"
        elif budget <= 6:
            want[budget] = f"evaluated region exceeds {budget} nodes"
        elif budget <= 22:
            # A's 17 nodes pass its share, budget - 6, as it is queued
            want[budget] = f"traversal exceeded {budget} nodes"
        else:
            want[budget] = ("stuck", ("arg", "box"),
                            "inductive abstraction applied to a coinductive box")
    for evaluate in (eval_lbl, run_lbl_trace):
        got = {}
        for budget in want:
            try:
                _, tree, stats = evaluate(g, 3, 100, budget)[:3]
            except BudgetExceededError as exc:
                got[budget] = str(exc).split(" (")[0]
            else:
                # the depth-3 region is 35 nodes
                assert (tree is None) == (budget < 35), budget
                got[budget] = stats.outcome, stats.stuck_position, stats.detail
        assert got == want, evaluate.__name__


def test_evaluation_builds_no_graph_per_box_or_step(monkeypatch):
    """Boxes and steps are nodes over the input's definitions: the only
    graph an evaluation builds is the result that ``_whole`` plugs
    together, and its pruned copy."""
    plain = TermGraph.__init__
    built = [0]

    def counting(self, *args, **kwargs):
        built[0] += 1
        plain(self, *args, **kwargs)

    branching = parse("def T = (#T) (#T) ; root T")
    flip = flip_applied("", "01")
    monkeypatch.setattr(TermGraph, "__init__", counting)
    for depth in (6, 10):       # 2^depth boxes, no step
        built[0] = 0
        gout, _, _ = eval_lbl(branching, depth, 10)
        assert gout is branching and built[0] == 0
    counts = []
    for depth in (8, 16):       # a step in every box
        built[0] = 0
        _, _, stats = eval_lbl(flip, depth, 1_000)
        assert stats.outcome == "normalized" and stats.fuel_consumed > depth
        counts.append(built[0])
    assert counts[0] == counts[1] <= 2, counts


def test_decode_builds_no_graph_per_constructor(monkeypatch):
    """Decoding evaluates each constructor as a node over the input's
    definitions: it builds no graph, prunes none and projects none."""
    calls = {}

    def counting(owner, name):
        plain = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return plain(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    flip = flip_applied("", "01")
    for owner, name in ((TermGraph, "__init__"), (TermGraph, "pruned"),
                        (terms, "project_depth"), (reduction, "project_depth")):
        counting(owner, name)
    for bound in (16, 48):
        res = encodings.scott_decode(flip, encodings.BINARY, "coalgebra", bound)
        assert res.word() == "10" * (bound // 2)
    assert calls == {}, calls


def test_frontier_step_cost_is_linear(monkeypatch):
    # nodes visited by every traversal grow with the output, not with its
    # square: the whole-graph loop visits 3.2x as many at depth 32 as at 16
    plain = reduction.walk
    visited = [0]

    def counting(*args, **kwargs):
        for item in plain(*args, **kwargs):
            visited[0] += 1
            yield item

    monkeypatch.setattr(reduction, "walk", counting)
    counts = {}
    for depth in (16, 32):
        visited[0] = 0
        _, _, stats = eval_lbl(flip_applied("", "01"), depth, 1000)
        assert stats.outcome == "normalized"
        counts[depth] = visited[0]
    assert counts[32] <= 2.2 * counts[16], counts


def _outcome(fn, *args):
    """``fn(*args)``, or the message of the BudgetExceededError it raises."""
    try:
        return fn(*args)
    except BudgetExceededError as exc:
        return str(exc)


def _first_of_sorted_scan(g, budget):
    return (redexes_within_depth(g, 0, budget) or [None])[0]


def _region_nodes(g, budget):
    return sum(1 for _ in reduction.walk(g, max_depth=0, budget=budget))


def _assert_first_redex_on_fresh(g, budget):
    # the first search of a queued box finds the same redex as the sorted
    # scan, runs out of budget exactly where the scan does, and charges
    # the nodes of the region the scan walks
    n = _outcome(_region_nodes, g, budget)
    budgets = {1, 2, budget} | ({n - 1, n} if isinstance(n, int) else set())
    for b in sorted(budgets - {0}):
        got = _outcome(_first_redex, g, g.root_body(), b)
        want = _outcome(_first_of_sorted_scan, g, b)
        assert got == (want if isinstance(want, str) else (want, n)), b


@pytest.mark.parametrize("g,depth,fuel", [
    pytest.param(g, depth, fuel, id=name.replace(" ", "_"))
    for name, g, depth, fuel in _gate_corpus()])
def test_first_redex_matches_the_sorted_scan(monkeypatch, g, depth, fuel):
    budget = 3_000
    _assert_first_redex_on_fresh(g, budget)
    stepped = []
    plain_step = reduction._contract_at

    def recorded_step(g, node, r, names):
        out = plain_step(g, node, r, names)
        stepped.extend((node, out))
        return out

    monkeypatch.setattr(reduction, "_contract_at", recorded_step)
    try:
        # a step hook turns the memo off: every box takes its own steps
        boxes, _ = reduction._frontier_eval(g, g.root_body(), depth, fuel,
                                            budget, set(g.all_names()),
                                            lambda boxes, r: None)
    except BudgetExceededError:
        boxes = []
    for b in boxes:
        if not b.steps:
            _assert_first_redex_on_fresh(_as_graph(g, b.node), budget)
    for node in stepped:
        # the box's node searched over g's definitions, against the
        # sorted scan of the node made a graph's root body
        h = _as_graph(g, node)
        want = _outcome(_first_of_sorted_scan, h, budget)
        n = _outcome(_region_nodes, h, budget)
        # the charge after a step is the oracle's count: never more than
        # a walk of the region visits, and as many when no reference is met
        charge = _shallow_size(node, math.inf)
        if isinstance(want, str):
            assert _outcome(_first_redex, g, node, budget) == want
        else:
            assert _first_redex(g, node, budget) == (want, n)
            # a search after a step charges the larger of that count and
            # the nodes it visits, which a walk of the region visits too
            r, searched = _first_redex(g, node, budget, whole=False)
            assert r == want and charge <= searched <= n
        assert charge == graph_oracles.shallow_size(h)
        assert isinstance(n, str) or charge <= n
        assert _scan_body(node).refs or charge == n


@pytest.mark.parametrize("g,depth,fuel", [
    pytest.param(g, depth, fuel, id=name.replace(" ", "_"))
    for name, g, depth, fuel in _gate_corpus()])
def test_shallow_size_matches_the_recursive_count(g, depth, fuel):
    want = graph_oracles.shallow_size(g)
    assert _shallow_size(g.root_body(), math.inf) == want
    # past the budget the walk stops, with a count past it
    for budget in range(want + 2):
        got = _shallow_size(g.root_body(), budget)
        assert got == want if want <= budget else budget < got <= want


def test_shallow_size_stops_past_the_budget_on_a_shared_tree():
    # 2^41 - 1 nodes as a tree, 41 as a graph: the walk stops within a
    # spine of the budget
    node = Var("y")
    for _ in range(40):
        node = App(node, node)
    assert 1_000 < _shallow_size(node, 1_000) <= 1_041


def _old_level_key(level):
    return (level.count("c"), tuple(0 if ch == "i" else 1 for ch in level))


def test_level_key_orders_levels_as_the_tuple_key():
    words = ["".join(w) for n in range(9) for w in itertools.product("ic", repeat=n)]
    assert len(words) == 511
    assert sorted(words, key=level_key) == sorted(words, key=_old_level_key)
    # so the first redex in order is admissible: a proper prefix sorts first
    assert all(level_key(w[:k]) < level_key(w) for w in words
               for k in range(len(w)))


def test_queued_box_is_charged_its_whole_region():
    # the root body has 4 nodes and its redex is at the root, but with
    # the reference unfolded the depth-0 region has 9
    g = parse("def S = \\y. y y y ; def T = (\\x. x) S ; root T")
    with pytest.raises(BudgetExceededError, match="traversal exceeded 8 nodes"):
        eval_lbl(g, 0, 10, 8)
    assert eval_lbl(g, 0, 10, 9)[2].outcome == "normalized"


# each step doubles the argument at level i, and a redex at level
# epsilon is always there: only the charge for the stepped body stops it
DOUBLING = ("def R = (\\!g. \\!a. g !g !(a a)) !(\\!g. \\!a. g !g !(a a)) "
            "!(\\z. z) ; root R")


def test_doubling_body_exceeds_the_budget():
    g = parse(DOUBLING)
    # few enough steps that the evaluation ends even without the charge
    # (then the projection of the result stops it, with another message)
    with pytest.raises(BudgetExceededError, match="traversal exceeded 2000"):
        eval_lbl(g, 0, 24, 2_000)
    with pytest.raises(BudgetExceededError, match="traversal exceeded 20000"):
        eval_lbl(g, 0, 1000, 20_000)


# ----- one pass per contraction against the separate-pass oracle -------------

def _twin(g):
    """A copy of ``g`` with its caches, so that two routes given copies
    start from the same caches."""
    h = TermGraph(g.defs, g.root, _validate=False)
    h._fvs = g._fvs
    h._refs = None if g._refs is None else dict(g._refs)
    return h


def _assert_contract_matches_oracle(g, r):
    """``contract`` and the oracle agree on ``g`` and ``r``: the same
    graph and caches, or the same ``InvalidPositionError``.  Returns
    the contracted graph or None."""
    try:
        want = graph_oracles.contract(_twin(g), r)
    except InvalidPositionError as exc:
        with pytest.raises(InvalidPositionError) as got:
            contract(_twin(g), r)
        assert str(got.value) == str(exc)
        return None
    h = _twin(g)
    assert (reduction._contract_at(h, h.root_body(), r, set(h.all_names()))
            == want.root_body())
    out = contract(_twin(g), r)
    assert out.root == want.root and out.defs == want.defs
    # the oracle's caches are computed afresh by full validation
    assert out._fvs == want._fvs
    assert out._refs == {name: want.refs_of(name) for name in want.defs}
    assert out.all_names() == want.all_names()
    assert out.referenced() == want.referenced()
    assert set(out.reachable_defs()) == set(out.defs)
    return out


CONTRACT_CASES = {
    # inductive and coinductive redexes that copy or drop their argument
    "! copies": "def D = \\q. q ; def T = (\\!x. x (x (!x))) !(D (\\y. y)) ; root T",
    "# copies": "def T = (\\#x. \\z. x (#x) z) #(\\y. y w) ; root T",
    "! drops": "def D = \\q. q ; def T = (\\!x. \\y. y) !D ; root T",
    "# drops under a box": "def D = \\q. q ; def T = c !((\\#x. \\y. y) #(D D)) ; root T",
    "renames apart": "def T = \\y. (\\x. \\y. x y) (y u) ; root T",
    # a spine down to the redex that crosses references
    "spine through refs": "def F = \\b. b D ; def D = \\a. w ((\\x. x x) a) ; "
                          "def T = F (#D) ; root T",
    "siblings on both sides": "def D = \\q. q ; def T = D (\\y. (\\x. x D) y) ; "
                              "root T",
    "shared root": "def T = (\\x. x) (#T) ; root T",
    # contracta that are bare references
    "argument is a ref": "def D = \\q. q ; def T = (\\x. x) D ; root T",
    "body is a ref": "def D = \\q. q ; def T = y ((\\x. D) z) ; root T",
    "boxed ref": "def D = \\q. q ; def T = (\\#x. x) #D ; root T",
    # the root keeps its name and references, but the parsed graph is
    # not pruned
    "unused definition": "def U = \\u. u ; def T = (\\x. x) y ; root T",
}

BAD_POSITIONS = [
    Redex(("fn",), "", "linear"), Redex((), "", "coinductive"),
    Redex(("body",), "", "linear"), Redex(("fn", "fn"), "", "linear"),
    Redex(("arg", "box"), "", "linear"), Redex(("zz",), "", "linear"),
    Redex(("fn", "body", "arg", "body", "zz"), "", "linear"),
    Redex(("fn", "body", "arg"), "", "linear"),
]


def _oracle_corpus():
    for name, text in CONTRACT_CASES.items():
        yield name, parse(text)
    for name, g in sorted(encodings.counterexamples().items()):
        yield name, g
    for system in ("llinf", "4s"):
        for seed in range(30):
            _, g = generate.random_term(("oracle", seed), system, 26,
                                        require_redex=True)
            yield f"{system}:{seed}", g


@pytest.mark.parametrize("name,g", list(_oracle_corpus()))
def test_one_pass_contract_matches_the_oracle(name, g):
    """Every redex at depths 0-2, on the graph and on the graphs its
    first steps reach, and positions that hold no redex of the kind."""
    for _ in range(4):
        redexes = _outcome(redexes_within_depth, g, 2, 3_000)
        if isinstance(redexes, str):    # an infinite region (rho)
            break
        for r in redexes + BAD_POSITIONS:
            _assert_contract_matches_oracle(g, r)
        if not redexes:
            break
        g = _assert_contract_matches_oracle(g, redexes[0])


def test_one_pass_contract_matches_the_oracle_on_frontier_boxes(
        monkeypatch):
    """The steps the frontier evaluator takes on stream programs, each on
    a box's node over the input's definitions: made a graph's root body,
    the node before the step contracts as the oracle says, and to the
    node after it, up to the names of renamed binders."""
    steps = []
    plain_step = reduction._contract_at

    def recorded_step(g, node, r, names):
        out = plain_step(g, node, r, names)
        steps.append((g, node, out, r))
        return out

    monkeypatch.setattr(reduction, "_contract_at", recorded_step)
    for prefix, cycle in (("", "01"), ("1", "0"), ("01", "110")):
        g = flip_applied(prefix, cycle)
        # a step hook turns the memo off: every box takes its own steps
        reduction._frontier_eval(g, g.root_body(), 6, 500, 100_000,
                                 set(g.all_names()), lambda boxes, r: None)
    monkeypatch.undo()      # the oracle check contracts too
    for g, before, after, r in steps:
        out = _assert_contract_matches_oracle(_as_graph(g, before), r)
        assert graph_bisimilar(out, _as_graph(g, after))
    assert len(steps) > 150, len(steps)


def test_contract_error_messages():
    g = parse(CONTRACT_CASES["spine through refs"])
    with pytest.raises(InvalidPositionError, match=(
            "^selector 'zz' does not apply at fn.body.arg.body$")):
        contract(g, BAD_POSITIONS[6])
    with pytest.raises(InvalidPositionError, match=(
            "^position fn.body.arg holds no redex, not a linear redex$")):
        contract(g, BAD_POSITIONS[7])


def test_one_scan_per_step_on_the_argument(monkeypatch):
    """On graphs whose caches are filled, a frontier step scans nothing
    but the redex's argument, at most once."""
    scanned = []
    plain_scan = terms._scan_body
    monkeypatch.setattr(terms, "_scan_body",
                        lambda node: scanned.append(node) or plain_scan(node))
    plain_step = reduction._contract_at
    counts = []

    def counted_step(g, node, r, names):
        at = reduction._descend(g, node, r.position)[1]
        f = g.resolve(at.fn)
        value = at.arg if f.kind == "lin" else g.resolve(at.arg).body
        before = len(scanned)
        out = plain_step(g, node, r, names)
        assert all(n is value for n in scanned[before:])
        counts.append(len(scanned) - before)
        return out

    monkeypatch.setattr(reduction, "_contract_at", counted_step)
    for g in (flip_applied("01", "110"), parse(CONTRACT_CASES["! copies"]),
              parse(CONTRACT_CASES["argument is a ref"])):
        g.referenced(), g.all_names(), g.def_free_vars()
        assert eval_lbl(g, 6, 500)[2].outcome == "normalized"
    assert max(counts) == 1 and 0 in counts and len(counts) > 50


def test_step_lbl_takes_depth_0_from_the_first_redex_search(monkeypatch, ex):
    """``step_lbl`` picks the redex the per-depth scan would, and scans
    by depth only from depth 1 on."""
    plain = reduction.find_redexes
    depths = []
    monkeypatch.setattr(reduction, "find_redexes",
                        lambda g, d, budget=100_000:
                        depths.append(d) or plain(g, d, budget))
    graphs = [parse("def T = y (#((\\x. x) z)) ; root T"),
              parse(FRONTIER_CASES["deadlock above a redex"])]
    assert step_lbl(graphs[1])[1] == Redex(("arg", "box"), "c", "linear")
    graphs += [g for _, g in sorted(ex.items())]
    graphs += [generate.random_term(("step_lbl", seed), system, 26)[1]
               for system in ("llinf", "4s") for seed in range(20)]

    def by_depth(g):
        # the earlier loop: one sorted scan per depth from depth 0
        if not has_any_redex(g):
            return None
        for d in range(257):
            redexes = plain(g, d, 3_000)
            if redexes:
                return _admissible(redexes)[0]
        raise AssertionError("no redex found")

    for g in graphs:
        got = _outcome(lambda: (step_lbl(g, budget=3_000) or (None, None))[1])
        assert got == _outcome(by_depth, g)
    assert 0 not in depths and 1 in depths


def test_step_lbl_finds_a_redex_under_300_boxes():
    g = parse("def M = " + "#(" * 300 + "(\\x. x) y" + ")" * 300 + " ; root M")
    _, r = step_lbl(g)
    assert r == Redex(("box",) * 300, "c" * 300, "linear")
    assert r.depth == 300


def test_step_lbl_searches_once_under_2000_boxes(monkeypatch):
    # the graph gives the redex's depth, so one walk of that region finds it
    plain = reduction.find_redexes
    depths = []
    monkeypatch.setattr(reduction, "find_redexes",
                        lambda g, d, budget=100_000:
                        depths.append(d) or plain(g, d, budget))
    g = parse("def M = " + "#(" * 2000 + "(\\x. x) y" + ")" * 2000 + " ; root M")
    _, r = step_lbl(g)
    assert r == Redex(("box",) * 2000, "c" * 2000, "linear")
    assert depths == [2000]
    # the budget error is the one of the depth-2000 region's walk
    with pytest.raises(BudgetExceededError, match="exceeded 1500 nodes"):
        step_lbl(g, budget=1_500)
    assert depths == [2000, 2000]


def test_step_lbl_on_a_graph_without_redexes_needs_no_budget(rho):
    # the depth-0 region of rho is infinite, but it holds no redex
    assert step_lbl(rho, budget=10) is None


# a step at every depth renames a binder, under a root that a definition
# references, so evaluation names the result's root anew
RENAMING = "def m = (\\x. \\y. y x) y ; def n = c m (#n) ; root n"


def _renaming_calls():
    """Each entry point that draws fresh names, as a function from a
    graph to what a command would print from its result."""
    def printed(fn):
        try:
            return fn()
        except LLinfError as exc:
            return f"{type(exc).__name__}: {exc}"

    def first(g):
        return format_graph(contract(g, redexes_within_depth(g, 1)[0]))

    def lbl(g):
        out = step_lbl(g)
        return out and (format_graph(out[0]), out[1])

    def levelset(g):
        out = step_at_levelset(g, "any")
        return out and format_graph(out)

    def evaluated(g):
        out, tree, stats = eval_lbl(g, 2, 50)
        return out.root, format_node(tree), stats

    def traced(g):
        _, tree, stats, records = run_lbl_trace(g, 2, 50)
        return format_node(tree), stats, [format_step(i, r)
                                          for i, r in enumerate(records)]

    def decoded(g):
        res = encodings.scott_decode(g, encodings.BINARY, "coalgebra", 4)
        return str(res.tree), res.complete

    def substituted(g):
        return format_graph(terms.substitute(g, "y", terms.graph_of(Var("x"))))

    calls = [first, lbl, levelset, evaluated, traced,
             lambda g: metrics.weight_trace(g, 1), decoded, substituted]
    return [lambda g, fn=fn: printed(lambda: fn(g)) for fn in calls]


def test_fresh_names_do_not_depend_on_earlier_calls():
    """The names a call draws are a function of its input alone: every
    entry point that renames prints the same result however often, and
    after whichever other calls, it runs on one parsed graph."""
    calls = _renaming_calls()
    cases = [
        # evaluation: the new root's name and the tree
        (RENAMING, 3, ("n1", "c (\\y1. y1 y) #(c (\\y2. y2 y) "
                             "#(c (\\y3. y3 y) #<cut>))")),
        (format_graph(flip_applied("1", "0")), 6, ("0(1(1(1(...))))", False)),
    ]
    for text, call, want in cases:
        fresh = [fn(parse(text)) for fn in calls]
        assert fresh[call][:2] == want
        g = parse(text)
        order = list(range(len(calls)))
        for i in order + order + order[::-1]:
            assert calls[i](g) == fresh[i], i


# ---------------------------------------------------------------------------
# the type-dispatched walk and depth projection against their oracles

def _traversal_corpus():
    """The bundled examples, the graphs of the two reduction corpora
    above (generated terms of both systems among them), and the graphs
    two depths of evaluation reach from the first."""
    from llinf.cli import _example_expectations
    for name, (g, _) in sorted(_example_expectations().items()):
        yield f"example {name}", g
    for name, g, _, _ in _gate_corpus():
        yield f"gate {name}", g
        out = _outcome(eval_lbl, g, 2, 40, 3_000)
        if not isinstance(out, str) and out[0] is not g:
            yield f"gate {name} evaluated", out[0]
    for name, g in _oracle_corpus():
        yield f"oracle {name}", g


TRAVERSAL_CORPUS = [pytest.param(g, id=name.replace(" ", "_"))
                    for name, g in _traversal_corpus()]
# the max_depth of the walks compared
WALK_BOUNDS = [None, 0, 1, 2]


def _walk_run(walk, g, budget, **bounds):
    """The yields of ``walk`` as (node identity, link, level), and the
    message of the BudgetExceededError that ends it, or None."""
    got = []
    try:
        for node, at, level in walk(g, budget=budget, **bounds):
            got.append((id(node), at, level))
    except BudgetExceededError as exc:
        return got, str(exc)
    return got, None


def _starts(g):
    """Where the walks start: the default root body, a reference to each
    definition, and a few nodes inside the root's unfolding."""
    inner = [node for node, _, _ in itertools.islice(
        graph_oracles.walk(g, max_height=6), 1, 30, 7)]
    return [None] + [Ref(name) for name in sorted(g.defs)] + inner


@pytest.mark.parametrize("g", TRAVERSAL_CORPUS)
def test_walk_matches_the_pattern_matching_oracle(g):
    for start in _starts(g):
        for max_depth in WALK_BOUNDS:
            bounds = dict(start=start, max_depth=max_depth)
            want = _walk_run(graph_oracles.walk, g, 400, **bounds)
            assert _walk_run(reduction.walk, g, 400, **bounds) == want
            if want[1] is not None:
                continue
            # the budget runs out at the same node, with the same message
            n = len(want[0])
            for budget in {max(n - 1, 1), n}:
                got = _walk_run(reduction.walk, g, budget, **bounds)
                assert got == _walk_run(graph_oracles.walk, g, budget,
                                        **bounds)
                assert (got[1] is None) == (budget == n)


def _positions(tree):
    """Positions of a finite tree, its ``Cut`` leaves left out: the
    nodes a depth projection visits to build it."""
    n = 0
    todo = [tree]
    while todo:
        node = todo.pop()
        if type(node) is not terms.Cut:
            n += 1
            todo += terms.children(node)
    return n


def _assert_same_sharing(g, got, want):
    """``got`` and ``want`` share the same subtrees of ``g``'s bodies,
    position by position, and build every other node anew."""
    ours = set()
    todo = list(g.defs.values())
    while todo:
        node = todo.pop()
        ours.add(id(node))
        todo += terms.children(node)
    todo = [(got, want)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        assert id(a) not in ours and id(b) not in ours
        todo += zip(terms.children(a), terms.children(b))


@pytest.mark.parametrize("g", TRAVERSAL_CORPUS)
def test_project_depth_matches_the_rebuild_oracle(g):
    for depth in range(4):
        want = _outcome(graph_oracles.project_depth, g, depth, 2_000)
        got = _outcome(project_depth, g, depth, 2_000)
        assert got == want
        if isinstance(want, str):
            continue
        _assert_same_sharing(g, got, want)
        # the budget runs out at the same node, with the same message
        n = _positions(want)
        for budget in {max(n - 1, 1), n}:
            got = _outcome(project_depth, g, depth, budget)
            assert got == _outcome(graph_oracles.project_depth, g, depth,
                                   budget)
            assert isinstance(got, str) == (budget < n)
