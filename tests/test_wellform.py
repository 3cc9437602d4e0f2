import bisect
import hashlib
import math
import random
from dataclasses import astuple
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from llinf import generate, reduction, wellform
from llinf.encodings import bit_flip, counterexamples, fixpoint, guarded_fixpoint
from llinf.terms import (
    App, Box, Lam, Ref, TermGraph, Var, COIND, IND,
    children, fresh_name, rebuild, remake,
)
from llinf.wellform import (
    INF, check, check_ll4s, check_llinf, env_precedes, infer_env, occurrences,
    preceding_variants, _inductive_cycle, _sccs,
)
from llinf.terms import substitute
from conftest import flip_applied, parse
import graph_oracles


# ----- the running examples -------------------------------------------------

def test_accepts_basic_cyclic_term(cyclic_term):
    rep = check_llinf({"y": "ind"}, cyclic_term)
    assert rep.accepted
    assert rep.states >= 3
    assert rep.loops  # the cycle is justified by a coinductive crossing


def test_rejects_unguarded(rho):
    rep = check_llinf({}, rho)
    assert not rep.accepted
    assert "inductive loop" in rep.reason
    assert rep.cycle  # the loop is reported


def test_axiom():
    assert check_llinf({"x": "lin"}, parse("def V = x ; root V")).accepted


def test_linear_variable_must_be_used():
    rep = check_llinf({"x": "lin"}, parse("def V = \\w. w ; root V"))
    assert not rep.accepted


def test_linear_variable_single_use():
    rep = check_llinf({"x": "lin"}, parse("def V = x x ; root V"))
    assert not rep.accepted
    assert "both sides" in rep.reason


def test_linear_variable_not_under_box():
    rep = check_llinf({"x": "lin"}, parse("def V = !x ; root V"))
    assert not rep.accepted
    assert "box" in rep.reason


def test_unbound_variable_rejected():
    assert not check_llinf({}, parse("def V = x ; root V")).accepted


def test_ind_and_coind_are_permissive_llinf():
    g = parse("def V = x (!x) (#x) ; root V")
    assert check_llinf({"x": "ind"}, g).accepted
    assert check_llinf({"x": "coind"}, g).accepted


def test_4s_guarded_fixpoint_accepted():
    assert check_ll4s({}, guarded_fixpoint()).accepted


def test_4s_rejects_coinductive_k():
    # \#x. \#y. x uses its coinductively bound variable outside any box
    k = parse("def K = \\#x. \\#y. x ; root K")
    rep = check_ll4s({}, k)
    assert not rep.accepted
    assert "coinductive" in rep.reason
    assert check_llinf({}, k).accepted


def test_4s_rejects_mixed_inductive_binding():
    g = parse("def A = \\!x. x !x ; root A")
    rep = check_ll4s({}, g)
    assert not rep.accepted
    assert check_llinf({}, g).accepted


def test_4s_fixpoints():
    assert check_llinf({}, fixpoint(0)).accepted
    assert check_llinf({}, fixpoint(1)).accepted
    assert not check_ll4s({}, fixpoint(0)).accepted
    assert check_ll4s({}, bit_flip()).accepted


def test_4s_dup_variable_not_under_box():
    g = parse("def A = \\!x. !(x) ; root A")
    # single boxed occurrence: ind-one, accepted
    assert check_ll4s({}, g).accepted
    g2 = parse("def A = \\!x. u x !(x) ; root A")
    rep = check_ll4s({"u": "dup"}, g2)
    assert not rep.accepted


def test_4s_ind1_exactly_once():
    g = parse("def A = \\!x. u !(x) !(x) ; root A")
    assert not check_ll4s({"u": "dup"}, g).accepted


def test_4s_ind1_not_under_two_boxes():
    g = parse("def A = \\!x. !(!(x)) ; root A")
    assert not check_ll4s({}, g).accepted


def test_bad_pattern_kinds_raise():
    with pytest.raises(ValueError):
        check_llinf({"x": "dup"}, parse("def V = x ; root V"))


def test_weakening_unused_nonlinear_ok(cyclic_term, identity):
    assert check_llinf({"y": "ind", "unused": "coind"}, cyclic_term).accepted
    assert check_ll4s({"unused": "dup", "u2": "any"}, identity).accepted


# ----- occurrences -----------------------------------------------------------

def test_occurrences_cyclic(cyclic_term):
    occ = occurrences(cyclic_term, "y")
    # the head occurrence is linear; all deeper ones sit under coinductive
    # boxes, and the cycle pumps infinitely many of them
    assert occ.linear == 1
    assert occ.ind_one == 0
    assert occ.under_coind
    assert occ.infinite
    assert occ.coind == math.inf


def test_occurrences_lambda_body(identity):
    occ = occurrences(identity, "x", identity.root_body().body)
    assert (occ.linear, occ.ind_one, occ.under_coind, occ.infinite) == \
        (1, 0, False, False)


def test_occurrences_mixed():
    g = parse("def B = x !x ; root B")
    occ = occurrences(g, "x")
    assert (occ.linear, occ.ind_one, occ.under_coind, occ.infinite) == \
        (1, 1, False, False)


def test_occurrences_shadowing():
    g = parse("def B = x (\\x. x) ; root B")
    occ = occurrences(g, "x")
    assert occ.total == 1


def test_occurrences_deeper_ind():
    g = parse("def B = !(!(x)) ; root B")
    occ = occurrences(g, "x")
    assert occ.deeper_ind == 1 and occ.total == 1


# ----- the SCC pass against its oracles ---------------------------------------

def _occurrence_corpus():
    """Generated terms of both systems, each also applied to itself (one
    node reached by two edges) or on a cycle through its root (unguarded,
    or under an inductive or a coinductive box), the counterexamples, the
    fixpoints and bit_flip."""
    named = dict(counterexamples())
    named.update(bit_flip=bit_flip(), guarded_fixpoint=guarded_fixpoint(),
                 fixpoint_ind=fixpoint(0), fixpoint_coind=fixpoint(1))
    graphs = [named[k] for k in sorted(named)]
    for system in ("llinf", "4s"):
        for i in range(200):
            g = generate.random_term((i, "occ"), system, 10 + i % 120)[1]
            top = [App(Ref(g.root), Ref(g.root)),
                   App(Ref(g.root), Ref("Top")),
                   Box(IND, App(Ref(g.root), Ref("Top"))),
                   Box(COIND, App(Ref(g.root), Ref("Top")))][i % 4]
            graphs += [g, TermGraph({**g.defs, "Top": top}, "Top")]
    return graphs


def _binders(g):
    """Every abstraction of every definition of ``g``."""
    for body in g.defs.values():
        todo = [body]
        while todo:
            n = todo.pop()
            if isinstance(n, Lam):
                yield n
            if isinstance(n, App):
                todo += (n.fn, n.arg)
            elif isinstance(n, (Lam, Box)):
                todo.append(n.body)


def test_occurrences_match_the_multipass_oracle():
    cases = 0
    for g in _occurrence_corpus():
        queries = [(x, None) for x in sorted(g.free_vars())]
        queries += [(lam.name, lam.body) for lam in _binders(g)]
        for x, node in queries:
            assert astuple(occurrences(g, x, node)) == \
                graph_oracles.occurrences(g, x, node), (x, node)
            cases += 1
    assert cases >= 10_000


def _counting_root_sweeps(monkeypatch):
    """Calls to the root sweep and to the body pass, whatever the caller:
    the sweep's arguments, and each body pass's graph and result."""
    sweeps = []
    passes = []
    real_sweep = wellform._root_sweep
    real_pass = wellform.body_pass

    def sweep(g, bodies):
        sweeps.append((g, bodies))
        return real_sweep(g, bodies)

    def body_pass(g):
        passes.append((g, real_pass(g)))
        return passes[-1][1]

    monkeypatch.setattr(wellform, "_root_sweep", sweep)
    monkeypatch.setattr(wellform, "body_pass", body_pass)
    return sweeps, passes


def _spine(n):
    """``a0 (a1 (... (a{n-1} u)))``, through the parser."""
    return parse("def S = " + "".join(f"a{i} (" for i in range(n)) + "u"
                 + ")" * n + " ; root S ;")


@pytest.mark.parametrize("n", [10, 200])
def test_infer_env_sweeps_the_root_once(monkeypatch, n):
    """One body pass, read by the sweep and by the check."""
    sweeps, passes = _counting_root_sweeps(monkeypatch)
    g = _spine(n)
    assert infer_env("llinf", g) == \
        {**{f"a{i}": "lin" for i in range(n)}, "u": "lin"}
    assert len(sweeps) == 1 and len(passes) == 1
    assert sweeps[0][0] is g and sweeps[0][1] is passes[0][1]


def test_check_makes_no_root_sweep(monkeypatch):
    graphs = _occurrence_corpus()[::10]
    envs = [(system, infer_env(system, g), g)
            for g in graphs for system in ("llinf", "4s")]
    sweeps, passes = _counting_root_sweeps(monkeypatch)
    for system, env, g in envs:
        check(system, env or {}, g)
    assert sweeps == []
    assert [g for g, _ in passes] == [g for _, _, g in envs]
    assert sum(env is not None for _, env, _ in envs) >= 10


def test_binder_on_a_cycle_entered_at_its_definition():
    """``D``'s cycle holds the binder of ``x`` and is entered at ``D``,
    where no ``x`` is free: the root's one ``x`` stays linear."""
    g = parse("def R = x D ; def D = \\x. x D ; root R ;")
    assert astuple(occurrences(g, "x")) == (1, 0, 0, 0)
    assert astuple(occurrences(g, "x")) == graph_oracles.occurrences(g, "x")
    boxed = parse("def R = x #D ; def D = \\x. x #D ; root R ;")
    for system in ("llinf", "4s"):
        # without a box on the cycle the check rejects what inference picks
        assert infer_env(system, g) is None
        assert check(system, {"x": "lin"}, g).reason.startswith("inductive loop")
        assert infer_env(system, boxed) == {"x": "lin"}


def test_binder_on_a_cycle_shared_with_the_root():
    """A body node shared by the root definition and a binder's body on a
    cycle: the root's counts follow its own position, not the binder's."""
    w = App(Var("v"), Ref("D"))
    g = TermGraph({"D": Lam("lin", "v", w), "E": w}, "E")
    assert astuple(occurrences(g, "v")) == (1, 0, 0, 0) == \
        graph_oracles.occurrences(g, "v")


def test_occurrences_only_at_the_root_or_a_binders_body():
    g = parse("def B = \\x. x !(\\y. y x) ; root B ;")
    lam_x = g.root_body()
    lam_y = lam_x.body.arg.body
    assert occurrences(g, "x").total == 0
    assert occurrences(g, "x", Ref("B")).total == 0
    assert astuple(occurrences(g, "x", lam_x.body)) == (1, 1, 0, 0)
    assert astuple(occurrences(g, "y", lam_y.body)) == (1, 0, 0, 0)
    for x, node in [("x", lam_x.body.arg), ("x", lam_y.body),
                    ("y", lam_x.body), ("x", parse("def C = x ; root C").root_body())]:
        with pytest.raises(ValueError):
            occurrences(g, x, node)


# ----- deep inference --------------------------------------------------------

def test_infer_env_on_a_deep_spine(monkeypatch):
    """2 000 arguments, every one of them linear, in one root sweep."""
    sweeps, passes = _counting_root_sweeps(monkeypatch)
    n = 2_000
    assert infer_env("4s", _spine(n)) == \
        {**{f"a{i}": "lin" for i in range(n)}, "u": "lin"}
    assert len(sweeps) == len(passes) == 1


def test_infer_env_rejects_a_deep_binder_chain():
    """``\\x0. ... \\x1999. x0``: the path of the rejection runs
    through all 2 001 states, each environment printed in full."""
    n = 2_000
    g = parse("def L = " + " ".join(f"\\x{i}." for i in range(n))
              + " x0 ; root L ;")
    assert infer_env("llinf", g) is None
    lines = ["rejected: linear variable 'x1' is unused"]
    names = []
    for k in range(n + 1):
        # ten binders are longer than the 45 characters a line shows
        txt = "".join(f"\\x{i}. " for i in range(k, min(n, k + 10))) + "x0"
        if len(txt) > 48:
            txt = txt[:45] + "..."
        lines.append(f"  at {', '.join(names) or chr(0x2205)} |- {txt}")
        bisect.insort(names, f"x{k}")
    assert check("llinf", {}, g).summary() == "\n".join(lines)


def _closure(succ):
    """For each vertex, the vertices it reaches by one edge or more."""
    reach = []
    for v in range(len(succ)):
        seen, todo = set(), list(succ[v])
        while todo:
            w = todo.pop()
            if w not in seen:
                seen.add(w)
                todo.extend(succ[w])
        reach.append(seen)
    return reach


def _random_digraph(rng):
    """Successor lists with self-loops and duplicate edges."""
    n = rng.randrange(1, 14)
    p = rng.choice([0.05, 0.15, 0.3])
    return [[w for w in range(n) for _ in range(rng.choice([1, 1, 2]))
             if rng.random() < p] for _ in range(n)]


def test_sccs_are_mutual_reachability_classes_sinks_first():
    rng = random.Random("sccs")
    for _ in range(400):
        succ = _random_digraph(rng)
        reach = _closure(succ)
        comps = _sccs(succ)
        assert sorted(v for comp in comps for v in comp) == list(range(len(succ)))
        for comp in comps:
            v = comp[0]
            assert set(comp) == {v} | {w for w in reach[v] if v in reach[w]}
        pos = {v: i for i, comp in enumerate(comps) for v in comp}
        for v, outs in enumerate(succ):
            assert all(pos[w] <= pos[v] for w in outs)


def test_inductive_cycle_is_a_closed_inductive_walk():
    rng = random.Random("inductive-cycle")
    found = 0
    for _ in range(400):
        succ = _random_digraph(rng)
        out_edges = [[(w, rng.random() < 0.3) for w in outs] for outs in succ]
        inductive = [[w for w, mc in outs if not mc] for outs in out_edges]
        acyclic = all(v not in r for v, r in enumerate(_closure(inductive)))
        cyc = _inductive_cycle(out_edges)
        assert (cyc is None) == acyclic
        assert cyc == graph_oracles.inductive_cycle(out_edges)
        if cyc is not None:
            found += 1
            assert cyc[0] == cyc[-1]
            assert all((b, False) in out_edges[a] for a, b in zip(cyc, cyc[1:]))
    assert 50 < found < 350


def test_one_loop_per_cyclic_component():
    """The loops of every accepted check against the cyclic components
    of its state graph, which the oracle check returns."""
    looped = acyclic = 0
    for g in _occurrence_corpus()[::6]:
        for system in ("llinf", "4s"):
            env = infer_env(system, g)
            if env is None:
                continue
            rep = check(system, env, g)
            _, out_edges = graph_oracles.check(system, env, g)
            succ = [[c for c, _ in edges] for edges in out_edges]
            reach = _closure(succ)
            cyclic = {frozenset(w for w in reach[v] if v in reach[w])
                      for v in range(len(succ)) if v in reach[v]}
            assert len(rep.loops) == len(cyclic)
            assert sorted(loop["size"] for loop in rep.loops) == \
                sorted(len(c) for c in cyclic)
            looped += bool(rep.loops)
            acyclic += rep.loops == ()
    assert looped >= 10
    assert acyclic >= 10


# ----- the check and the root sweep against their oracles ---------------------

def _check_corpus():
    """The occurrence corpus with ``bit_flip`` applied to streams, each
    graph under its inferred environment in both systems and under
    environments that make every free variable linear, inductive or
    arbitrary."""
    graphs = _occurrence_corpus()
    graphs += [flip_applied(prefix, cycle) for prefix, cycle in
               [("", "0"), ("", "01"), ("1", "10"), ("0110", "1"), ("", "0011")]]
    for g in graphs:
        free = sorted(g.free_vars())
        for system in ("llinf", "4s"):
            wide = "ind" if system == "llinf" else "any"
            envs = [infer_env(system, g) or {}, dict.fromkeys(free, "lin"),
                    dict.fromkeys(free, wide)]
            for env in envs:
                yield system, env, g


def test_check_matches_the_frozenset_oracle():
    verdicts = {}
    looped = 0
    for system, env, g in _check_corpus():
        rep = check(system, env, g)
        want, _ = graph_oracles.check(system, env, g)
        assert rep == want, (system, env)
        verdict = "loop" if rep.cycle else rep.accepted
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        looped += bool(rep.loops)
    assert min(verdicts.values()) >= 50, verdicts
    assert looped >= 50


# ----- the verdict does not depend on the names of binders --------------------

def _rename_binders_apart(g):
    """``g`` with every binder renamed to a name used nowhere else, and
    the binders' old names.  Binders never scope across definitions, so
    each body is renamed on its own."""
    used = set(g.all_names())
    old = set()

    def visit(node, scope):
        if type(node) is Var:
            return Var(scope.get(node.name, node.name)), None
        if type(node) is Lam:
            old.add(node.name)
            new = fresh_name("r", used)
            used.add(new)
            return (partial(Lam, node.kind, new),
                    [(node.body, {**scope, node.name: new})])
        return partial(remake, node), [(c, scope) for c in children(node)]

    renamed = TermGraph({name: rebuild(body, {}, visit)
                         for name, body in g.defs.items()}, g.root)
    return renamed, sorted(old)


@pytest.mark.parametrize("system,env,text,reason", [
    ("llinf", {"x": "lin"}, "\\x. x", "linear variable 'x' is unused"),
    ("4s", {"x": "ind1"}, "\\x. x", "ind-one variable 'x' is unused"),
    ("llinf", {"z": "lin", "w": "lin"}, "\\z. z w",
     "linear variable 'z' is unused"),
])
def test_a_binder_shadowing_a_strict_variable_leaves_it_unused(
        system, env, text, reason):
    g = parse(f"def m = {text} ; root m")
    assert check(system, env, g).reason == reason
    rep = check(system, env, _rename_binders_apart(g)[0])
    assert not rep.accepted and rep.reason.endswith("is unused")


@pytest.mark.parametrize("system", ["llinf", "4s"])
def test_verdict_is_the_same_on_binders_renamed_apart(system):
    """Under the inferred environment extended with a strict variable
    named like a binder, a term and its binders renamed apart get the
    same verdict, and the oracle agrees."""
    strict = ["lin"] if system == "llinf" else ["lin", "ind1"]
    cases = shadowed = 0
    for seed in range(40):
        _, g = generate.random_term(("renamed", seed), system, 16)
        env = infer_env(system, g)
        renamed, binders = _rename_binders_apart(g)
        assert check(system, env, renamed).accepted
        for x in binders:
            for kind in strict:
                wider = {**env, x: kind}
                rep = check(system, wider, g)
                assert rep.accepted == check(system, wider, renamed).accepted
                assert rep == graph_oracles.check(system, wider, g)[0]
                cases += 1
                shadowed += type(g.root_body()) is Lam \
                    and g.root_body().name == x
    assert cases >= 100 and shadowed >= 10, (cases, shadowed)


def _sweep(g):
    return wellform._root_sweep(g, wellform.body_pass(g))


def test_root_sweep_matches_the_tarjan_oracle():
    """The root sweep against the product-graph oracle, and the free
    variables of the definitions against the round-robin fixpoint."""
    seen = set()
    for _, _, g in _check_corpus():
        if id(g) not in seen:
            seen.add(id(g))
            assert _sweep(g) == graph_oracles.root_sweep(g)
            assert g.def_free_vars() == graph_oracles.def_free_vars(g)
    assert len(seen) >= 800


def test_random_definition_systems_match_both_oracles():
    """Root sweeps and free-variable sets of random systems of references
    under mixed boxes and binders, against the product-graph sweep and
    the round-robin fixpoint."""
    rng = random.Random("definition systems")
    seen = cyclic = 0
    for _ in range(3_000):
        g = graph_oracles.random_defs(rng)
        if g is None:
            continue
        counts = _sweep(g)
        assert counts == graph_oracles.root_sweep(g)
        assert counts.keys() == g.free_vars()
        assert g.def_free_vars() == graph_oracles.def_free_vars(g)
        seen += 1
        cyclic += any(INF in c for c in counts.values())
    assert seen >= 2_000 and cyclic >= 300


def _with_unreached(g):
    """``g`` with two definitions its root does not reach, each with free
    variables and references of its own: ``U0 = x !U1 R`` and
    ``U1 = \\y. y #(q U0)``, with ``R`` the root, ``x`` a free variable
    of the root if it has one, and ``q`` new."""
    used = set(g.all_names())
    u0, u1, q, y = (fresh_name(base, used) for base in ("U", "Unr", "q", "y"))
    x = min(g.free_vars(), default=q)
    return TermGraph({
        **g.defs,
        u0: App(App(Var(x), Box(IND, Ref(u1))), Ref(g.root)),
        u1: Lam("lin", y, App(Var(y), Box(COIND, App(Var(q), Ref(u0))))),
    }, g.root)


class _Reads(dict):
    """A dict that records the keys it is subscripted with."""

    def __init__(self, d):
        super().__init__(d)
        self.keys_read = set()

    def __getitem__(self, key):
        self.keys_read.add(key)
        return super().__getitem__(key)


def test_unreachable_definitions_are_summarised_but_not_swept():
    """The body pass summarises every definition, the sweep reads the
    summaries of the reachable ones only and changes none, and the root
    sweep, the occurrence counts and inference match their oracles."""
    rng = random.Random("unreached")
    graphs = _occurrence_corpus()[::4] + [graph_oracles.random_defs(rng)
                                          for _ in range(300)]
    inferred = 0
    for g in filter(None, graphs):
        g = _with_unreached(g)
        bodies = wellform.body_pass(g)
        assert bodies.summary.keys() == g.defs.keys()
        before = {name: (dict(counts), list(refs))
                  for name, (counts, refs) in bodies.summary.items()}
        read = _Reads(bodies.summary)
        counts = wellform._root_sweep(g, bodies._replace(summary=read))
        assert read.keys_read == set(g.reachable_defs()) < g.defs.keys()
        assert bodies.summary == before
        assert counts == graph_oracles.root_sweep(g)
        queries = [(x, None) for x in sorted(g.all_names() - g.defs.keys())]
        queries += [(lam.name, lam.body) for lam in _binders(g)]
        for x, node in queries:
            assert astuple(occurrences(g, x, node)) == \
                graph_oracles.occurrences(g, x, node), (x, node)
        for system in ("llinf", "4s"):
            env = infer_env(system, g)
            assert env == graph_oracles.infer_env(system, g)
            inferred += env is not None
    assert inferred >= 100


def _sweep_graphs(monkeypatch):
    """The successor lists of each graph the root sweep gives ``_sccs``."""
    graphs = []
    real = wellform._sccs

    def spy(succ):
        graphs.append(succ)
        return real(succ)

    monkeypatch.setattr(wellform, "_sccs", spy)
    return graphs


def test_a_root_sweep_state_is_a_definition_at_a_class(monkeypatch):
    graphs = _occurrence_corpus()
    swept = _sweep_graphs(monkeypatch)
    for g in graphs:
        _sweep(g)
        assert len(swept[-1]) <= 4 * len(g.defs)
    assert len(swept) == len(graphs)


def test_one_definition_entered_at_every_class(monkeypatch):
    g = parse("def R = D !D !(!(!D)) #(!D) ; def D = x (\\x. x) !x #x ; root R ;")
    swept = _sweep_graphs(monkeypatch)
    counts = _sweep(g)
    assert [len(succ) for succ in swept] == [5]   # R, and D at each class
    assert counts == {"x": (1, 2, 3, 6)} == graph_oracles.root_sweep(g)


def _chain(n, cycle=False, leaf_first=False):
    """``def D{i} = a{i} #D{i+1}``, the last one ``u`` or back to ``D0``."""
    defs = [f"def D{i} = a{i} #D{i + 1} ;" for i in range(n)]
    defs.append(f"def D{n} = a{n} #D0 ;" if cycle else f"def D{n} = u ;")
    if leaf_first:
        defs.reverse()
    return parse("\n".join(defs) + "\nroot D0 ;")


@pytest.mark.parametrize("leaf_first", [False, True])
@pytest.mark.parametrize("cycle", [False, True])
def test_chains_and_cycles_of_definitions(monkeypatch, cycle, leaf_first):
    """A chain of references is forward-only in the order the sweep finds
    its states, whatever the order of the declarations, so ``_sccs``
    makes no search; a cycle gets a Tarjan pass."""
    n = 300
    g = _chain(n, cycle, leaf_first)
    swept = _sweep_graphs(monkeypatch)
    counts = _sweep(g)
    assert counts == graph_oracles.root_sweep(g)
    (succ,) = swept
    assert len(succ) == (n + 2 if cycle else n + 1)     # D0 twice on the cycle
    assert all(v < w for v, row in enumerate(succ) for w in row) == (not cycle)
    deep = INF if cycle else 1
    want = {"a0": (1, 0, 0, INF if cycle else 0)}
    want.update({f"a{i}": (0, 0, 0, deep) for i in range(1, n + 1)})
    if not cycle:
        want["u"] = (0, 0, 0, 1)
        del want[f"a{n}"]
    assert counts == want


def test_a_diamond_of_definitions_counts_every_reference_path():
    """``D{i}`` references ``D{i+1}`` twice, so ``D{i}`` is reached by
    2^i paths: the counts are exact integers past 2^53, and a class no
    state counts stays 0 however many paths reach the state."""
    n = 64
    g = parse("\n".join([f"def D{i} = x #D{i + 1} #D{i + 1} ;" for i in range(n)]
                        + [f"def D{n} = y ;", "root D0 ;"]))
    counts = _sweep(g)
    assert counts == {"x": (1, 0, 0, 2**n - 2), "y": (0, 0, 0, 2**n)}
    assert all(type(k) is int for c in counts.values() for k in c)
    assert counts == graph_oracles.root_sweep(g)
    assert infer_env("llinf", g) == {"x": "ind", "y": "ind"}
    assert infer_env("4s", g) == {"x": "any", "y": "coind"}


def test_a_deep_binder_chain_keeps_its_pinned_summary():
    """The 2 001-state rejection of ``\\x0. ... \\x1999. x0`` prints
    12.4 MB, pinned by its SHA-256."""
    n = 2_000
    g = parse("def L = " + " ".join(f"\\x{i}." for i in range(n))
              + " x0 ; root L ;")
    rep = check("llinf", {}, g)
    text = rep.summary()
    assert (rep.states, len(text)) == (n + 1, 12_403_438)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "f052796737d734d53c287289bf63c851968f670b2fd4644da5926676e1a8f092"


def test_forward_only_digraphs_are_acyclic_without_a_search():
    """Every edge from a lower to a higher index: each state is its own
    component, highest first, as the oracle's components are, and no
    non-coinductive cycle exists."""
    rng = random.Random("forward")
    for _ in range(400):
        n = rng.randrange(1, 30)
        p = rng.choice([0.05, 0.2, 0.5])
        succ = [[w for w in range(v + 1, n) for _ in range(rng.choice([1, 1, 2]))
                 if rng.random() < p] for v in range(n)]
        comps = _sccs(succ)
        assert comps == [[v] for v in reversed(range(n))]
        assert sorted(comps) == sorted(graph_oracles.tarjan(succ))
        out_edges = [[(w, rng.random() < 0.3) for w in outs] for outs in succ]
        assert _inductive_cycle(out_edges) is None
        assert graph_oracles.inductive_cycle(out_edges) is None


# ----- inference and the environment order ----------------------------------

def test_infer_env_examples(cyclic_term, identity):
    assert infer_env("llinf", cyclic_term) == {"y": "ind"}
    assert infer_env("llinf", identity) == {}
    assert infer_env("4s", identity) == {}
    assert infer_env("4s", parse("def C = x z ; root C")) == \
        {"x": "lin", "z": "lin"}
    assert infer_env("llinf", parse("def N = N (\\x. x) ; root N")) is None


def test_infer_env_4s_kinds():
    assert infer_env("4s", parse("def A = x x ; root A")) == {"x": "dup"}
    assert infer_env("4s", parse("def A = !x ; root A")) == {"x": "ind1"}
    assert infer_env("4s", parse("def A = #(x x) ; root A")) == {"x": "coind"}
    assert infer_env("4s", parse("def A = x !x ; root A")) == {"x": "any"}


def test_env_precedes():
    assert env_precedes({"x": "ind1"}, {"x": "dup"})
    assert env_precedes({"x": "ind1", "y": "lin"}, {"x": "ind1", "y": "lin"})
    assert not env_precedes({"x": "lin"}, {"x": "dup"})
    assert not env_precedes({"x": "dup"}, {"x": "ind1"})
    assert not env_precedes({"x": "ind1"}, {"y": "dup"})
    variants = list(preceding_variants({"x": "ind1", "y": "coind"}))
    assert {"x": "dup", "y": "coind"} in variants
    assert len(variants) == 2


# ----- stability properties ---------------------------------------------------

def _unfold_once(g):
    def go(node):
        match node:
            case Ref(name):
                return g.defs[name]
            case App(f, a):
                return App(go(f), go(a))
            case Lam(k, x, b):
                return Lam(k, x, go(b))
            case Box(k, b):
                return Box(k, go(b))
            case _:
                return node

    return TermGraph({**g.defs, "_u": go(g.root_body())}, "_u",
                     _validate=False).pruned()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["llinf", "4s"]))
def test_acceptance_stable_under_unfolding(seed, system):
    env, g = generate.random_term(seed, system, 20)
    assert check(system, env, g).accepted
    assert check(system, env, _unfold_once(g)).accepted


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["llinf", "4s"]))
def test_wellformed_projection_stays_finite(seed, system):
    _, g = generate.random_term(seed, system, 24)
    from llinf.terms import project_depth
    for d in range(5):
        project_depth(g, d)  # must not hit the budget


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["llinf", "4s"]))
def test_subject_reduction_random(seed, system):
    env, g = generate.random_term(seed, system, 24, require_redex=True)
    # a depth past every coinductive box of a term of this size
    redexes = reduction.find_redexes(g, 32)
    stepped = reduction.contract(g, redexes[seed % len(redexes)])
    if system == "llinf":
        assert check_llinf(env, stepped).accepted
    else:
        assert any(check_ll4s(d, stepped).accepted
                   for d in preceding_variants(env))


# ----- substitution lemmas as executable properties ---------------------------

def _gen_under(seed, system, kinds, size=14):
    gen = generate.TermGen(seed, system)
    env = {v: generate._Entry(k, k not in ("lin", "ind1"))
           for v, k in kinds.items()}
    body = gen.gen(env, size)
    defs = dict(gen.defs)
    if isinstance(body, Ref):
        body = defs[body.name]
    defs["H"] = body
    return TermGraph(defs, "H").pruned()


@pytest.mark.parametrize("seed", range(6))
def test_substitution_lemma_linear_llinf(seed):
    # judgments Gamma,x,!Theta,#Xi |- M and Delta,!Theta,#Xi |- N give
    # Gamma,Delta,!Theta,#Xi |- M[x := N]
    m = _gen_under((seed, "m"), "llinf",
                   {"x": "lin", "g1": "lin", "t": "ind", "c": "coind"})
    n = _gen_under((seed, "n"), "llinf", {"d1": "lin", "t": "ind", "c": "coind"})
    assert check_llinf({"x": "lin", "g1": "lin", "t": "ind", "c": "coind"}, m).accepted
    assert check_llinf({"d1": "lin", "t": "ind", "c": "coind"}, n).accepted
    out = substitute(m, "x", n)
    assert check_llinf({"g1": "lin", "d1": "lin", "t": "ind", "c": "coind"},
                       out).accepted


@pytest.mark.parametrize("seed", range(6))
def test_substitution_lemma_inductive_llinf(seed):
    m = _gen_under((seed, "m"), "llinf", {"x": "ind", "g1": "lin", "t": "ind"})
    n = _gen_under((seed, "n"), "llinf", {"t": "ind"})
    out = substitute(m, "x", n)
    assert check_llinf({"g1": "lin", "t": "ind"}, out).accepted


@pytest.mark.parametrize("seed", range(6))
def test_substitution_lemma_coinductive_llinf(seed):
    # the boxed variable of M is substituted by a term whose variables
    # are all coinductively bound
    m = _gen_under((seed, "m"), "llinf", {"x": "ind", "g1": "lin", "c": "coind"})
    n = _gen_under((seed, "n"), "llinf", {"c": "coind"})
    out = substitute(m, "x", n)
    assert check_llinf({"g1": "lin", "c": "coind"}, out).accepted


@pytest.mark.parametrize("seed", range(6))
def test_substitution_lemma_linear_4s(seed):
    kinds_m = {"x": "lin", "u1": "ind1", "t": "dup", "c": "coind", "a": "any"}
    kinds_n = {"p1": "lin", "t": "dup", "c": "coind", "a": "any"}
    m = _gen_under((seed, "m"), "4s", kinds_m)
    n = _gen_under((seed, "n"), "4s", kinds_n)
    out = substitute(m, "x", n)
    rep = check_ll4s({"u1": "ind1", "p1": "lin", "t": "dup", "c": "coind",
                      "a": "any"}, out)
    assert rep.accepted, rep.reason


@pytest.mark.parametrize("seed", range(6))
def test_substitution_lemma_dup_4s(seed):
    # a duplicable variable substituted by N turns N's linear variables
    # duplicable in the conclusion
    m = _gen_under((seed, "m"), "4s", {"x": "dup", "t": "dup", "c": "coind"})
    n = _gen_under((seed, "n"), "4s", {"f1": "lin", "c": "coind"})
    out = substitute(m, "x", n)
    rep = check_ll4s({"t": "dup", "f1": "dup", "c": "coind"}, out)
    assert rep.accepted, rep.reason


@pytest.mark.parametrize("seed", range(6))
def test_substitution_lemma_ind1_4s(seed):
    m = _gen_under((seed, "m"), "4s", {"x": "ind1", "t": "dup", "c": "coind"})
    n = _gen_under((seed, "n"), "4s", {"f1": "lin", "c": "coind"})
    out = substitute(m, "x", n)
    rep = check_ll4s({"t": "dup", "f1": "ind1", "c": "coind"}, out)
    assert rep.accepted, rep.reason


@pytest.mark.parametrize("seed", range(6))
def test_substitution_lemma_coind_4s(seed):
    m = _gen_under((seed, "m"), "4s", {"x": "coind", "c": "coind", "a": "any"})
    n = _gen_under((seed, "n"), "4s", {"c": "any", "a": "any"})
    out = substitute(m, "x", n)
    rep = check_ll4s({"c": "coind", "a": "any"}, out)
    assert rep.accepted, rep.reason


@pytest.mark.parametrize("seed", range(6))
def test_substitution_lemma_any_4s(seed):
    m = _gen_under((seed, "m"), "4s", {"x": "any", "a": "any", "t": "dup"})
    n = _gen_under((seed, "n"), "4s", {"a": "any"})
    out = substitute(m, "x", n)
    rep = check_ll4s({"a": "any", "t": "dup"}, out)
    assert rep.accepted, rep.reason
