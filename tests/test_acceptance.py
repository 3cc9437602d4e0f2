"""Acceptance suite: one test per criterion, each at its stated size and
tolerance, printing one line per criterion."""

import itertools
import random

from click.testing import CliRunner

from llinf import (
    encodings, generate, lam, metrics, properties, reduction, wellform,
)
from llinf.cli import main as cli_main
from llinf.encodings import (
    BINARY, EPSILON, INFTY, bit_flip, counterexamples, fixpoint,
    guarded_fixpoint, representability_harness, scott_decode, scott_encode,
    selector, spec_word, stream_tree, tuple_term, word_tree,
)
from llinf.terms import (
    App, Box, Lam, Ref, TermGraph, Var, COIND, IND,
    equal_at_depth, graph_bisimilar, import_defs,
)


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_checker_fidelity():
    """The basic cyclic term is accepted, the unguarded one rejected with
    an inductive-only loop in the trace."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("cyc.lli", "w") as fh:
            fh.write("def M = y #M ;\nroot M ;\n")
        with open("rho.lli", "w") as fh:
            fh.write("def N = N (\\x. x) ;\nroot N ;\n")
        ok = runner.invoke(cli_main,
                           ["check", "--system", "llinf", "--env", "!y", "cyc.lli"])
        assert ok.exit_code == 0 and "accepted" in ok.output
        bad = runner.invoke(cli_main,
                            ["check", "--system", "llinf", "--env", "", "rho.lli"])
        assert bad.exit_code == 1
        assert "inductive loop" in bad.output
        assert "loop:" in bad.output  # the rejection trace shows the cycle
    _report(1, "cyclic term accepted under !y; unguarded term rejected "
               "with inductive-only loop trace")


def test_criterion_2_subject_reduction():
    """1000 randomized single steps (500 per system, size <= 40) preserve
    well-formation; 0 failures allowed."""
    failures = 0
    for system in ("llinf", "4s"):
        for i in range(500):
            rng = random.Random(f"c2-{system}-{i}")
            env, g = generate.random_term(("c2", system, i), system, 40,
                                          require_redex=True)
            stepped, _ = properties.random_single_step(g, rng)
            if stepped is None:
                failures += 1
                continue
            if system == "llinf":
                ok = bool(wellform.check_llinf(env, stepped))
            else:
                ok = any(bool(wellform.check_ll4s(d, stepped))
                         for d in wellform.preceding_variants(env))
            if not ok:
                failures += 1
    assert failures == 0
    _report(2, "1000/1000 randomized single steps preserve well-formation "
               "(4S up to the environment order)")


NUM_4S = 200


def _terms_4s():
    for i in range(NUM_4S):
        yield generate.random_term(("c34", i), "4s", 40, require_redex=True)[1]


def test_criterion_3_weight_laws():
    """200 generated 4S terms: every depth-n step strictly decreases twei
    at n, leaves lower components unchanged, never increases df at m <= 3;
    projection metrics agree with the graph-fixpoint oracle exactly."""
    failures = 0
    for i, g in enumerate(_terms_4s()):
        rng = random.Random(f"c3-{i}")
        ok = properties.weight_laws_case(g, rng)
        if ok is False:
            failures += 1
        if not properties.oracle_agreement_case(g):
            failures += 1
    assert failures == 0
    _report(3, f"{NUM_4S} 4S terms: weight decrease/df non-increase hold and "
               "metrics match the independent oracle exactly")


def test_criterion_4_normalisation():
    """The same 200 terms normalise at depths 0..3 with steps-per-depth
    bounded by the total weight at stage start; fuel never binds."""
    fuel = 100_000
    failures = 0
    for g in _terms_4s():
        cur = g
        for d in range(4):
            bound = metrics.twei(cur, d)
            steps = 0
            while True:
                redexes = reduction.redexes_within_depth(cur, d)
                if not redexes:
                    break
                cur = reduction.contract(cur, reduction._admissible(redexes)[0])
                steps += 1
                if steps > bound:
                    break
            if steps > bound:
                failures += 1
                break
        else:
            _, _, stats = reduction.eval_lbl(g, 3, fuel)
            if stats.outcome != "normalized" or stats.fuel_consumed >= fuel:
                failures += 1
    assert failures == 0
    _report(4, f"{NUM_4S} 4S terms normalise at depths 0..3 within the "
               "per-depth weight bound; fuel never binds")


def test_criterion_5_strong_confluence():
    """100 4S terms: two independent randomized admissible strategies to
    depth 2 agree on the depth-2 projection."""
    failures = 0
    for i in range(100):
        _, g = generate.random_term(("c5", i), "4s", 40, require_redex=True)
        r1 = random.Random(f"c5a-{i}")
        r2 = random.Random(f"c5b-{i}")
        h1 = properties.randomized_normalize(g, 2, r1)
        h2 = properties.randomized_normalize(g, 2, r2)
        if not equal_at_depth(h1, h2, 2):
            failures += 1
    assert failures == 0
    _report(5, "100/100 pairs of randomized admissible strategies agree at "
               "depth 2")


def test_criterion_6_non_confluence():
    """Even- and odd-depth strategies reach the two targets (depth-1
    agreement within 8 steps); the targets differ at depth 1; a bounded
    join search finds no common reduct."""
    ex = counterexamples()
    m, L, P = ex["nonconf"], ex["nonconf_L"], ex["nonconf_P"]

    def reaches(pred, target):
        g = m
        for _ in range(8):
            g = reduction.step_at_levelset(g, pred)
            if g is None:
                return False
            if equal_at_depth(g, target, 1):
                return True
        return False

    assert reaches("even", L)
    assert reaches("odd", P)
    assert not equal_at_depth(L, P, 1)
    assert not properties.bounded_join_search(L, P)
    _report(6, "even/odd strategies reach the two targets within 8 steps; "
               "targets differ at depth 1; 6-step join search fails")


def test_criterion_7_fixpoints():
    """Exact step counts: the guarded fixpoint unrolls in exactly 3
    level-by-level steps, the inductive/coinductive ones in exactly 2."""
    n = TermGraph({"N": Lam(COIND, "w", Lam("lin", "z", Var("z")))}, "N")

    defs = {}
    xroot = import_defs(defs, guarded_fixpoint())
    nroot = import_defs(defs, n)
    defs["start"] = App(App(Ref(xroot), Ref(nroot)), Box(COIND, Ref(nroot)))
    g = TermGraph(defs, "start").pruned()
    wdefs = dict(defs)
    wdefs["want"] = App(Ref(nroot), Box(COIND, Ref("start")))
    want = TermGraph(wdefs, "want").pruned()
    cur = g
    for step in range(3):
        assert not graph_bisimilar(cur, want)  # not earlier than 3
        cur, rec = reduction.step_lbl(cur)
        assert rec.depth == 0
    assert graph_bisimilar(cur, want)

    f = TermGraph({"F": Lam(IND, "v", Lam("lin", "u", Var("u")))}, "F")
    for a, kind in ((0, IND), (1, COIND)):
        defs = {}
        yroot = import_defs(defs, fixpoint(a))
        froot = import_defs(defs, f)
        defs["start"] = App(Ref(yroot), Box(IND, Ref(froot)))
        g = TermGraph(defs, "start").pruned()
        wdefs = dict(defs)
        wdefs["want"] = App(Ref(froot), Box(kind, Ref("start")))
        want = TermGraph(wdefs, "want").pruned()
        cur = g
        for step in range(2):
            assert not graph_bisimilar(cur, want)
            cur, _ = reduction.step_lbl(cur)
        assert graph_bisimilar(cur, want)
        assert equal_at_depth(cur, want, 2)
    _report(7, "guarded fixpoint unrolls in exactly 3 steps; boxed "
               "fixpoints in exactly 2, observed at depth 2")


def test_criterion_8_perfect_simulation():
    """100 random finite lambda terms (<= 20 nodes) and 10 regular
    argument-coinductive terms: 10 paired steps round-trip through the
    Girard-style embedding; the call-by-value one shows the exact
    two-steps-per-step ratio."""
    failures = 0
    for i in range(100):
        g = generate.random_lambda(("c8", i), size=14)
        a = i % 2
        if not lam.simulate_girard(g, a, 10):
            failures += 1
        if not lam.simulate_cbv(g, a, (i // 2) % 2, 10):
            failures += 1
    for i in range(10):
        g = generate.random_regular_001(("c8r", i))
        if not lam.simulate_girard(g, 1, 10):
            failures += 1
    assert failures == 0
    _report(8, "110 simulation runs: one-for-one Girard steps and exact "
               "2:1 call-by-value steps, with bisimilar round-trips")


def test_criterion_9_encodings():
    """Scott round-trips on all binary words of length <= 6 and on
    10 eventually periodic streams at bound 16; the selector and tuple
    laws; the bit-flip demo at depth 4."""
    count = 0
    for n in range(7):
        for bits in itertools.product("01", repeat=n):
            w = "".join(bits)
            enc = scott_encode(BINARY, word_tree(w), "algebra")
            dec = scott_decode(enc, BINARY, "algebra", 40)
            assert dec.complete and dec.word() == w + EPSILON
            count += 1
    assert count == 127

    streams = ["(0)", "(1)", "(01)", "(10)", "0(1)", "1(0)", "01(10)",
               "(110)", "11(010)", "(0011)"]
    for spec in streams:
        tree = encodings.parse_stream_spec(spec)
        enc = scott_encode(BINARY, tree, "coalgebra")
        dec = scott_decode(enc, BINARY, "coalgebra", 16)
        assert dec.word() == spec_word(tree, 16), spec

    # selector law on both constructor branches and the end marker
    from conftest import parse
    sel = selector(BINARY)
    tail = scott_encode(BINARY, word_tree("1"), "algebra")
    defs = {}
    parts = [Ref(import_defs(defs, sel)),
             Ref(import_defs(defs, scott_encode(BINARY, word_tree("01"), "algebra")))]
    for branch in ("def N0 = \\!t. u !t ; root N0",
                   "def N1 = \\!t. w !t ; root N1",
                   "def Ne = \\q. q ; root Ne"):
        parts.append(Box(IND, Ref(import_defs(defs, parse(branch)))))
    term = parts[0]
    for p in parts[1:]:
        term = App(term, p)
    defs["run"] = term
    gout, _, stats = reduction.eval_lbl(TermGraph(defs, "run").pruned(), 0, 200)
    assert stats.outcome == "normalized"
    wdefs = {}
    troot = import_defs(wdefs, tail)
    wdefs["want"] = App(Var("u"), Box(IND, Ref(troot)))
    assert graph_bisimilar(gout, TermGraph(wdefs, "want"))

    i = parse("def I = \\x. x ; root I")
    tup = tuple_term([i])
    defs = {}
    parts = [Ref(import_defs(defs, tup)),
             Ref(import_defs(defs, parse("def P = \\!z. z ; root P")))]
    defs["run"] = App(parts[0], parts[1])
    cur = TermGraph(defs, "run").pruned()
    for _ in range(2):
        cur, _ = reduction.step_lbl(cur)
    assert graph_bisimilar(cur, i)

    v = representability_harness(
        bit_flip(), BINARY, [stream_tree("", "0")], stream_tree("", "1"),
        [INFTY], INFTY, depth=4)
    assert v.ok, (v.got, v.want, v.detail)
    _report(9, "127 finite round-trips, 10 stream round-trips at bound 16, "
               "selector/tuple laws, bit-flip representable at depth 4")


def test_criterion_10_counterexample_regression():
    """The non-normalising reducts classify reducible and reach the
    common reduct at depth 2; the deadlock term classifies deadlocked."""
    ex = counterexamples()
    assert reduction.classify(ex["nonNF_N"]) == "reducible"
    assert reduction.classify(ex["nonNF_L"]) == "reducible"
    for nm in ("nonNF_N", "nonNF_L"):
        gout, _, stats = reduction.eval_lbl(ex[nm], 2, 100)
        assert stats.outcome == "normalized"
        assert equal_at_depth(gout, ex["nonNF_P"], 2)
    assert reduction.classify(ex["deadlock"]) == "deadlocked"
    _report(10, "non-normalising reducts classify reducible and reach the "
                "common reduct at depth 2; the kind-mismatch term deadlocks")
