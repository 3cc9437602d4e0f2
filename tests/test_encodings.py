import itertools

import pytest

import graph_oracles
from llinf import reduction, wellform
from llinf.cli import _example_expectations
from llinf.errors import BudgetExceededError
from llinf.encodings import (
    BINARY, EPSILON, EncodingError, FIN, INFTY, FiniteTree,
    Signature, bit_flip, fixpoint, guarded_fixpoint,
    parse_signature_spec, parse_stream_spec, representability_harness,
    scott_decode, scott_encode, selector, spec_word, stream_identity,
    stream_tree, tuple_term, word_tree,
)
from llinf.terms import (
    App, Box, Lam, Ref, TermGraph, Var, COIND, IND,
    equal_at_depth, graph_bisimilar, import_defs,
)
from conftest import flip_applied, parse


def test_signature_validation():
    with pytest.raises(EncodingError):
        Signature((("f", 1), ("f", 2)))
    sig = Signature((("f", 2), ("g", 0)))
    assert sig.arity("f") == 2 and sig.index("g") == 1


def test_parse_stream_spec():
    assert parse_stream_spec("01") == word_tree("01")
    assert parse_stream_spec("0(10)") == stream_tree("0", "10")
    with pytest.raises(EncodingError):
        parse_stream_spec("0()")


def test_parse_signature_spec():
    sig = parse_signature_spec("sig tree { node/2, leaf/0 }")
    assert sig == Signature((("node", 2), ("leaf", 0)))
    with pytest.raises(EncodingError):
        parse_signature_spec("sig broken { node2 }")


def test_spec_word():
    assert spec_word(word_tree("01"), 8) == "01" + EPSILON
    assert spec_word(stream_tree("1", "10"), 5) == "11010"


def test_encode_hand_shapes():
    e = scott_encode(BINARY, word_tree(""), "algebra")
    assert graph_bisimilar(
        e, parse("def E = \\!a. \\!b. \\!c. c ; root E"))
    e0 = scott_encode(BINARY, word_tree("0"), "algebra")
    assert graph_bisimilar(
        e0,
        parse("def E = \\!a. \\!b. \\!c. a !(\\!a. \\!b. \\!c. c) ; root E"))
    s = scott_encode(BINARY, stream_tree("", "0"), "coalgebra")
    assert graph_bisimilar(
        s, parse("def S = \\!a. \\!b. \\!c. a #S ; root S"))


def test_algebra_round_trip_all_short_words():
    for n in range(0, 5):
        for bits in itertools.product("01", repeat=n):
            w = "".join(bits)
            enc = scott_encode(BINARY, word_tree(w), "algebra")
            dec = scott_decode(enc, BINARY, "algebra", 32)
            assert dec.complete and dec.word() == w + EPSILON


@pytest.mark.parametrize("spec", ["(0)", "(1)", "(01)", "1(0)", "01(10)", "(110)"])
def test_coalgebra_round_trip(spec):
    tree = parse_stream_spec(spec)
    enc = scott_encode(BINARY, tree, "coalgebra")
    dec = scott_decode(enc, BINARY, "coalgebra", 12)
    assert dec.word() == spec_word(tree, 12)


def test_encodings_wellformed():
    fin = scott_encode(BINARY, word_tree("010"), "algebra")
    assert wellform.check_llinf({}, fin).accepted
    assert wellform.check_ll4s({}, fin).accepted
    inf = scott_encode(BINARY, stream_tree("0", "10"), "coalgebra")
    assert wellform.check_llinf({}, inf).accepted
    assert wellform.check_ll4s({}, inf).accepted


def test_general_signature_tree():
    sig = Signature((("node", 2), ("leaf", 0)))
    t = FiniteTree("node", (FiniteTree("leaf"), FiniteTree("node", (
        FiniteTree("leaf"), FiniteTree("leaf")))))
    enc = scott_encode(sig, t, "algebra")
    dec = scott_decode(enc, sig, "algebra", 16)
    assert dec.tree == t and dec.complete
    assert str(dec.tree) == "node(leaf,node(leaf,leaf))"
    assert str(scott_decode(enc, sig, "algebra", 2).tree) == "node(leaf,node(...,...))"


def test_decode_shape_mismatch(identity):
    with pytest.raises(EncodingError):
        scott_decode(identity, BINARY, "algebra", 4)


def test_arity_mismatch():
    with pytest.raises(EncodingError):
        scott_encode(BINARY, FiniteTree("0", ()), "algebra")


def test_decode_bound_cuts():
    enc = scott_encode(BINARY, stream_tree("", "1"), "coalgebra")
    dec = scott_decode(enc, BINARY, "coalgebra", 3)
    assert not dec.complete and dec.word() == "111"


# ----- combinators ------------------------------------------------------------

def _apply(*graphs_and_nodes):
    defs = {}
    parts = []
    for item in graphs_and_nodes:
        if isinstance(item, TermGraph):
            parts.append(Ref(import_defs(defs, item)))
        else:
            parts.append(item)
    term = parts[0]
    for p in parts[1:]:
        term = App(term, p)
    defs["apply"] = term
    return TermGraph(defs, "apply").pruned()


def test_fixpoint_unrolls_in_two_steps():
    f = parse("def F = \\!v. \\u. u ; root F")
    for a, kind in ((0, IND), (1, COIND)):
        y = fixpoint(a)
        defs = {}
        yroot = import_defs(defs, y)
        froot = import_defs(defs, f)
        defs["start"] = App(Ref(yroot), Box(IND, Ref(froot)))
        g = TermGraph(defs, "start").pruned()
        wdefs = dict(defs)
        wdefs["want"] = App(Ref(froot), Box(kind, Ref("start")))
        want = TermGraph(wdefs, "want").pruned()
        cur = g
        for _ in range(2):
            cur, _rec = reduction.step_lbl(cur)
        assert graph_bisimilar(cur, want)
        assert equal_at_depth(cur, want, 2)


def test_fixpoint_wellformation():
    assert wellform.check_llinf({}, fixpoint(0)).accepted
    assert wellform.check_llinf({}, fixpoint(1)).accepted
    assert not wellform.check_ll4s({}, fixpoint(0)).accepted


def test_guarded_fixpoint_three_steps():
    x = guarded_fixpoint()
    n = parse("def N = \\#w. \\z. z ; root N")
    defs = {}
    xroot = import_defs(defs, x)
    nroot = import_defs(defs, n)
    defs["start"] = App(App(Ref(xroot), Ref(nroot)), Box(COIND, Ref(nroot)))
    g = TermGraph(defs, "start").pruned()
    wdefs = dict(defs)
    wdefs["want"] = App(Ref(nroot), Box(COIND, Ref("start")))
    want = TermGraph(wdefs, "want").pruned()
    cur = g
    for i in range(3):
        out = reduction.step_lbl(cur)
        assert out is not None
        cur, rec = out
        assert rec.depth == 0
    assert graph_bisimilar(cur, want)
    # and not one step earlier
    assert wellform.check_ll4s({}, x).accepted


def test_selector_law():
    sel = selector(BINARY)
    branches = [parse("def N0 = \\!t. u !t ; root N0"),
                parse("def N1 = \\!t. w !t ; root N1"),
                parse("def Ne = \\q. q ; root Ne")]
    enc = scott_encode(BINARY, word_tree("01"), "algebra")
    tail = scott_encode(BINARY, word_tree("1"), "algebra")
    defs = {}
    parts = [Ref(import_defs(defs, sel)), Ref(import_defs(defs, enc))]
    for b in branches:
        parts.append(Box(IND, Ref(import_defs(defs, b))))
    term = parts[0]
    for p in parts[1:]:
        term = App(term, p)
    defs["run"] = term
    g = TermGraph(defs, "run").pruned()
    gout, _, stats = reduction.eval_lbl(g, 0, 100)
    assert stats.outcome == "normalized"
    # branch zero receives the boxed encoding of the tail "1"
    wdefs = {}
    troot = import_defs(wdefs, tail)
    wdefs["want"] = App(Var("u"), Box(IND, Ref(troot)))
    assert graph_bisimilar(gout, TermGraph(wdefs, "want"))


def test_selector_epsilon_branch():
    sel = selector(BINARY)
    ne = parse("def Ne = \\q. q ; root Ne")
    enc = scott_encode(BINARY, word_tree(""), "algebra")
    defs = {}
    parts = [Ref(import_defs(defs, sel)), Ref(import_defs(defs, enc)),
             Box(IND, parse("def N0 = \\!t. u !t ; root N0").root_body()),
             Box(IND, parse("def N1 = \\!t. w !t ; root N1").root_body()),
             Box(IND, Ref(import_defs(defs, ne)))]
    term = parts[0]
    for p in parts[1:]:
        term = App(term, p)
    defs["run"] = term
    g = TermGraph(defs, "run").pruned()
    gout, _, stats = reduction.eval_lbl(g, 0, 100)
    assert stats.outcome == "normalized"
    assert graph_bisimilar(gout, ne)


def test_tuple_projection():
    i = parse("def I = \\x. x ; root I")
    tup = tuple_term([i])
    proj = parse("def P = \\!z. z ; root P")
    g = _apply(tup, proj)
    cur = g
    for _ in range(2):
        cur, _ = reduction.step_lbl(cur)
    assert graph_bisimilar(cur, i)


# ----- counterexample regressions ----------------------------------------------

def test_nonnf_family(ex):
    assert wellform.check_llinf({}, ex["nonNF"]).accepted
    assert reduction.classify(ex["nonNF_N"]) == "reducible"
    assert reduction.classify(ex["nonNF_L"]) == "reducible"
    for nm in ("nonNF_N", "nonNF_L"):
        gout, _, stats = reduction.eval_lbl(ex[nm], 2, 50)
        assert stats.outcome == "normalized"
        assert equal_at_depth(gout, ex["nonNF_P"], 2)


def test_nonconf_targets_differ(ex):
    assert not equal_at_depth(ex["nonconf_L"], ex["nonconf_P"], 1)
    assert equal_at_depth(ex["nonconf_L"], ex["nonconf_P"], 0)


def test_deadlock_classifies(ex):
    assert reduction.classify(ex["deadlock"]) == "deadlocked"


def test_rho_rejected(ex):
    assert wellform.infer_env("llinf", ex["rho"]) is None


# ----- representability ---------------------------------------------------------

def test_stream_identity_representable():
    v = representability_harness(
        stream_identity(), BINARY, [stream_tree("", "01")],
        stream_tree("", "01"), [INFTY], INFTY, depth=6)
    assert v.ok, v.detail


def test_bit_flip_representable():
    flip = bit_flip()
    assert wellform.check_ll4s({}, flip).accepted
    v = representability_harness(
        flip, BINARY, [stream_tree("", "0")], stream_tree("", "1"),
        [INFTY], INFTY, depth=4)
    assert v.ok, (v.got, v.want, v.detail)
    v2 = representability_harness(
        flip, BINARY, [stream_tree("01", "10")], stream_tree("10", "01"),
        [INFTY], INFTY, depth=6)
    assert v2.ok


def test_finite_head_function():
    # \s. s !(\!t. enc "0") !(\!t. enc "1") !(enc "") keeps the head symbol
    sel = selector(BINARY)
    defs = {}
    sroot = import_defs(defs, sel)
    e0 = import_defs(defs, scott_encode(BINARY, word_tree("0"), "algebra"))
    e1 = import_defs(defs, scott_encode(BINARY, word_tree("1"), "algebra"))
    ee = import_defs(defs, scott_encode(BINARY, word_tree(""), "algebra"))
    body = App(App(App(App(Ref(sroot), Var("s")),
                       Box(IND, Lam(IND, "t", Ref(e0)))),
                   Box(IND, Lam(IND, "t", Ref(e1)))),
               Box(IND, Ref(ee)))
    defs["mf"] = Lam("lin", "s", body)
    mf = TermGraph(defs, "mf").pruned()
    v = representability_harness(
        mf, BINARY, [word_tree("1")], word_tree("1"), [FIN], FIN, depth=8)
    assert v.ok, (v.got, v.want)


def test_harness_lets_fuel_exhaustion_propagate(ex):
    # omega_ind never reaches a constructor: no verdict, a budget error
    with pytest.raises(BudgetExceededError, match="fuel exhausted"):
        representability_harness(ex["omega_ind"], BINARY, [], word_tree("0"),
                                 [], INFTY, depth=4, fuel=50)


def test_harness_mismatch_reported():
    flip = bit_flip()
    v = representability_harness(
        flip, BINARY, [stream_tree("", "0")], stream_tree("", "0"),
        [INFTY], INFTY, depth=4)
    assert not v.ok


# ----- decoding evaluates each distinct contents once ----------------------------

TREE_SIG = parse_signature_spec("sig t { node/2, leaf/0 }")


def _decoded(decode, g, sig, mode, bound, fuel=2_000):
    try:
        res = decode(g, sig, mode, bound, fuel)
    except (EncodingError, BudgetExceededError) as exc:
        return type(exc), str(exc)
    return res.word(), str(res.tree), res.complete


def _assert_decodes_as_oracle(g, sig, mode, bounds, fuel=2_000):
    for bound in bounds:
        got = _decoded(scott_decode, g, sig, mode, bound, fuel)
        assert got == _decoded(graph_oracles.scott_decode, g, sig, mode,
                               bound, fuel), (mode, bound)


def _bits(most):
    return ["".join(b) for n in range(most + 1)
            for b in itertools.product("01", repeat=n)]


@pytest.mark.parametrize("prefix", _bits(2))
def test_stream_decode_matches_the_oracle(prefix):
    for cycle in _bits(3)[1:]:
        enc = scott_encode(BINARY, stream_tree(prefix, cycle), "coalgebra")
        for g in (enc, flip_applied(prefix, cycle)):
            _assert_decodes_as_oracle(g, BINARY, "coalgebra", (0, 1, 7, 40))


def test_algebra_and_tree_decode_match_the_oracle():
    for w in _bits(3):
        enc = scott_encode(BINARY, word_tree(w), "algebra")
        _assert_decodes_as_oracle(enc, BINARY, "algebra", (0, 2, 32))
        _assert_decodes_as_oracle(enc, TREE_SIG, "algebra", (8,))
        _assert_decodes_as_oracle(enc, BINARY, "coalgebra", (8,))
    leaf = FiniteTree("leaf")
    t = FiniteTree("node", (leaf, FiniteTree("node", (leaf, leaf))))
    enc = scott_encode(TREE_SIG, t, "algebra")
    _assert_decodes_as_oracle(enc, TREE_SIG, "algebra", (0, 1, 2, 16))


@pytest.mark.parametrize("name", sorted(_example_expectations()))
def test_examples_decode_as_the_oracle(name):
    # fixpoint_ind's term grows with each step, and at the default fuel a
    # decode of it takes seconds
    g, _ = _example_expectations()[name]
    for mode in ("algebra", "coalgebra"):
        _assert_decodes_as_oracle(g, BINARY, mode, (4,), fuel=200)


def test_fuel_exhaustion_decodes_as_the_oracle(ex):
    got = _decoded(scott_decode, ex["omega_ind"], BINARY, "algebra", 4)
    assert got[0] is BudgetExceededError
    _assert_decodes_as_oracle(ex["omega_ind"], BINARY, "algebra", (4,))


# node(leaf, node(leaf, node(D, D))): the contents of `leaf` is read
# twice, and D applies an inductive abstraction to a coinductive box
REPEAT_THEN_DEADLOCK = r"""
def t = \!n. \!l. n #leaf #u ;
def leaf = \!n. \!l. l ;
def u = \!n. \!l. n #leaf #w ;
def w = \!n. \!l. n #d #d ;
def d = (\!x. x) #leaf ;
root t ;
"""


def test_a_repeated_contents_then_a_deadlock(monkeypatch):
    g = parse(REPEAT_THEN_DEADLOCK)
    evaluated = []
    frontier_eval = reduction._frontier_eval

    def counted(graph, node, *args):
        evaluated.append(node)
        return frontier_eval(graph, node, *args)

    monkeypatch.setattr(reduction, "_frontier_eval", counted)
    assert str(scott_decode(g, TREE_SIG, "coalgebra", 3).tree) == (
        "node(leaf,node(leaf,node(...,...)))")
    assert evaluated == [g.defs[name] for name in ("t", "leaf", "u", "w")]
    with pytest.raises(EncodingError, match="evaluation deadlocked: "
                       "inductive abstraction applied to a coinductive box"):
        scott_decode(g, TREE_SIG, "coalgebra", 4)
    monkeypatch.undo()
    _assert_decodes_as_oracle(g, TREE_SIG, "coalgebra", (3, 4, 40))


def test_a_regular_stream_is_evaluated_once_per_state(monkeypatch):
    # bit_flip on 01(110): the root and at most one contents per state of
    # the input, however many constructors are read
    evals = steps = 0
    frontier_eval = reduction._frontier_eval

    def counted(*args):
        nonlocal evals, steps
        boxes, stats = frontier_eval(*args)
        evals += 1
        steps += stats.fuel_consumed
        return boxes, stats

    monkeypatch.setattr(reduction, "_frontier_eval", counted)
    seen = []
    for bound in (16, 48):
        evals = steps = 0
        word = scott_decode(flip_applied("01", "110"), BINARY, "coalgebra",
                            bound).word()
        assert word == spec_word(stream_tree("10", "001"), bound)
        seen.append((evals, steps))
    assert seen[0] == seen[1]
    assert seen[0][0] <= 1 + len("01") + len("110")
