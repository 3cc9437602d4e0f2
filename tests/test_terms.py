import dataclasses
import sys
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from llinf import generate, metrics, terms
from llinf.lam import DepthFlags, check_labc
from llinf.errors import (
    BudgetExceededError, CaptureError, DefinitionError, GuardednessError,
)
from llinf.terms import (
    App, Box, Cut, CUT, Lam, Ref, TermGraph, Var,
    COIND, IND, LIN,
    alpha_equal, canonical_string, derive, equal_at_depth, graph_bisimilar,
    project_depth,
    subst_in_body, substitute, _scan_body,
)
from conftest import parse
import graph_oracles
from graph_oracles import truncate_tree, unfold_height


def test_parse_cyclic_term(cyclic_term):
    body = cyclic_term.root_body()
    assert body == App(Var("y"), Box("coind", Ref("M")))


def test_parse_identity(identity):
    assert identity.root_body() == Lam("lin", "x", Var("x"))


def test_bare_reference_is_unguarded():
    with pytest.raises(GuardednessError) as err:
        parse("def X = X ; root X")
    assert "X" in str(err.value)


def test_reference_chain_unguarded():
    with pytest.raises(GuardednessError):
        TermGraph({"A": Ref("B"), "B": App(Var("x"), Ref("A"))}, "A")


def test_capture_freedom_enforced():
    # E has x free; a reference to E under a binder for x is capture
    with pytest.raises(CaptureError):
        TermGraph({"D": Lam("lin", "x", Ref("E")), "E": Var("x")}, "D")


def test_project_depth_cyclic(cyclic_term):
    tree = project_depth(cyclic_term, 1)
    assert tree == App(Var("y"), Box("coind", App(Var("y"), Box("coind", CUT))))
    assert project_depth(cyclic_term, 0) == App(Var("y"), Box("coind", CUT))


def test_project_depth_boxed_root():
    g = parse("def B = #(\\x. x) ; root B")
    assert project_depth(g, 0) == Box("coind", CUT)


def test_project_depth_budget(rho):
    with pytest.raises(BudgetExceededError):
        project_depth(rho, 0, budget=10_000)


def test_unfold_height(cyclic_term, identity, rho):
    assert unfold_height(cyclic_term, 2) == App(Var("y"), Box("coind", CUT))
    assert unfold_height(identity, 10) == Lam("lin", "x", Var("x"))
    assert unfold_height(rho, 2) == App(App(CUT, CUT), Lam("lin", "x", CUT))


def test_unfold_coherence(cyclic_term, rho):
    for g in (cyclic_term, rho):
        for h in range(5):
            assert unfold_height(g, h) == truncate_tree(unfold_height(g, h + 3), h)


def test_equal_at_depth_same_tree(cyclic_term):
    other = parse("def K = y #K ; root K")
    assert equal_at_depth(cyclic_term, other, 5)


def test_equal_at_depth_alpha(identity):
    assert equal_at_depth(identity, parse("def J = \\w. w ; root J"), 0)


def test_equal_at_depth_discriminates(ex):
    assert equal_at_depth(ex["nonconf_L"], ex["nonconf_P"], 0)
    assert not equal_at_depth(ex["nonconf_L"], ex["nonconf_P"], 1)


def test_canonical_string_renders_references_by_name():
    def node(kind=IND, x="x", box=COIND, leaf=Ref("D"), free="u"):
        return Lam(kind, x, App(App(Var(x), Box(box, leaf)), Var(free)))

    key = canonical_string(node())
    assert key == r"\ind @ @ b0 c# r:D f:u"
    assert canonical_string(node(x="y")) == key
    for other in (node(leaf=Ref("E")), node(free="v"), node(box=IND),
                  node(kind=COIND), node(leaf=Var("D"))):
        assert canonical_string(other) != key
    # trees without references render as before, and so alpha_equal and
    # equal_at_depth decide as before
    tree = Lam(LIN, "x", Lam(IND, "y", App(
        App(Var("x"), Box(COIND, Var("y"))),
        Lam(COIND, "x", Box(IND, App(Var("x"), Var("z")))))))
    assert canonical_string(tree) == (
        r"\lin \ind @ @ b0 c# b1 \coind i# @ b2 f:z")
    assert canonical_string(Box(COIND, CUT)) == "c# ?"


def test_bisimilar_unfolding(cyclic_term):
    unfolded = parse("def M = y #(y #M) ; root M")
    assert graph_bisimilar(cyclic_term, unfolded)
    assert not graph_bisimilar(cyclic_term, parse("def M = y #(#M) ; root M"))


def test_bisimilar_fixpoint_carriers():
    from llinf.encodings import fixpoint
    assert not graph_bisimilar(fixpoint(0), fixpoint(1))


def test_bisimilar_is_equivalence(cyclic_term, identity):
    graphs = [cyclic_term, identity, parse("def M = y #M ; root M")]
    for g in graphs:
        assert graph_bisimilar(g, g)
    assert graph_bisimilar(cyclic_term, graphs[2])
    assert graph_bisimilar(graphs[2], cyclic_term)


def test_free_vars(cyclic_term, identity):
    assert cyclic_term.free_vars() == {"y"}
    assert identity.free_vars() == set()
    assert parse("def A = \\#x. x z ; root A").free_vars() == {"z"}


def test_validation_fills_the_caches_of_its_scans(monkeypatch):
    """A validated graph answers its reference and name queries without
    scanning a body again, with what an unvalidated copy computes."""
    g = parse("def F = \\b. b (#G) ; def G = \\y. F (#G) y ; def T = F c ; "
              "root T")
    lazy = TermGraph(g.defs, g.root, _validate=False)
    want = (lazy.all_names(), lazy.referenced(), lazy.reachable_defs(),
            {n: lazy.refs_of(n) for n in g.defs}, lazy.def_free_vars())
    scanned = []
    monkeypatch.setattr(terms, "_scan_body", scanned.append)
    assert (g.all_names(), g.referenced(), g.reachable_defs(),
            {n: g.refs_of(n) for n in g.defs}, g.def_free_vars()) == want
    assert not scanned


def _forward_only(succ):
    return all(v < w for v, row in enumerate(succ) for w in row)


@pytest.mark.parametrize("leaf_first", [False, True])
@pytest.mark.parametrize("cycle", [False, True])
def test_free_vars_of_chains_and_cycles(monkeypatch, cycle, leaf_first):
    """``def D{i} = a{i} #D{i+1}``, ending in ``u`` or back at ``D0``.
    Declared root-first, a chain's reference graph is forward-only, and
    ``_sccs`` makes no search; declared leaf-first, or on a cycle, it
    gets a Tarjan pass.  The sets match the round-robin oracle."""
    n = 200
    defs = [f"def D{i} = a{i} #D{i + 1} ;" for i in range(n)]
    defs.append(f"def D{n} = a{n} #D0 ;" if cycle else f"def D{n} = u ;")
    if leaf_first:
        defs.reverse()
    graphs = []
    real = terms._sccs

    def spy(succ):
        graphs.append(succ)
        return real(succ)

    monkeypatch.setattr(terms, "_sccs", spy)
    g = parse("\n".join(defs) + "\nroot D0 ;")
    assert len(graphs) == 1
    assert _forward_only(graphs[0]) == (not cycle and not leaf_first)
    fvs = g.def_free_vars()
    names = [f"a{i}" for i in range(n + 1)]
    for i in range(n + 1):
        want = names if cycle else names[i:n] + ["u"]
        assert fvs[f"D{i}"] == frozenset(want)
    assert fvs == graph_oracles.def_free_vars(g)
    # one frozenset per component: all of a cycle's definitions share it
    assert len({id(s) for s in fvs.values()}) == (1 if cycle else n + 1)


def test_substitute_variable(identity):
    g = parse("def V = x ; root V")
    assert graph_bisimilar(substitute(g, "x", identity), identity)


def test_substitute_cyclic(cyclic_term, identity):
    got = substitute(cyclic_term, "y", identity)
    want = parse("def D = (\\x. x) #D ; root D")
    assert graph_bisimilar(got, want)


def test_substitute_absent(identity):
    assert graph_bisimilar(substitute(identity, "y", identity), identity)


def test_substitute_avoids_capture():
    g = parse("def F = \\z. y ; root F")
    n = parse("def N = z ; root N")
    got = substitute(g, "y", n)
    # the binder must have been renamed away from the free z
    body = got.root_body()
    assert isinstance(body, Lam) and body.name != "z"
    assert got.free_vars() == {"z"}


def test_substitute_free_var_law():
    g = parse("def A = x (y #A) ; root A")
    n = parse("def N = w w2 ; root N")
    got = substitute(g, "x", n)
    assert got.free_vars() == {"y", "w", "w2"}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["llinf", "4s"]))
def test_substitution_commutes_with_projection(seed, system):
    env, g = generate.random_term(seed, system, 18)
    free = sorted(g.free_vars())
    if not free:
        return
    x = free[0]
    n = parse("def N = \\q. q ; root N")
    d = 2
    left = project_depth(substitute(g, x, n), d)

    def subst_tree(t):
        match t:
            case Var(v):
                return n.root_body() if v == x else t
            case Lam(k, v, b):
                return t if v == x else Lam(k, v, subst_tree(b))
            case App(f, a):
                return App(subst_tree(f), subst_tree(a))
            case Box(k, b):
                return Box(k, subst_tree(b))
            case Cut():
                return t
        raise AssertionError

    right = subst_tree(project_depth(g, d))
    assert alpha_equal(left, right)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["llinf", "4s"]))
def test_unfold_coherence_random(seed, system):
    _, g = generate.random_term(seed, system, 20)
    assert unfold_height(g, 3) == truncate_tree(unfold_height(g, 6), 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_bisimilar_implies_equal_at_depth(seed):
    _, g = generate.random_term(seed, "4s", 16)
    unfolded = TermGraph(
        {**g.defs, "_u": _unfold_once(g)}, "_u", _validate=False).pruned()
    assert graph_bisimilar(g, unfolded)
    for d in range(3):
        assert equal_at_depth(g, unfolded, d)


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

    return go(g.root_body())


def _derive_cases():
    """(graph, name, body): the inputs :func:`derive`'s callers make, on
    generated graphs of both systems.  The name is the root when no
    definition references it, and a name fresh in the graph; the body
    is a definition body, a box's contents, or a body applied to a box
    of the root body."""
    for system in ("llinf", "4s"):
        for seed in range(20):
            _, base = generate.random_term(("derive", seed), system, 26)
            names = ["fresh_def"]
            if base.root not in base.referenced():
                names.append(base.root)
            bodies = []
            for body in base.defs.values():
                bodies += [body, App(body, Box(COIND, base.root_body()))]
                todo = [body]
                while todo:
                    n = todo.pop()
                    if type(n) is Box:
                        bodies.append(base.resolve(n.body))
                    todo += terms.children(n)
            for name in names:
                for body in bodies:
                    yield base, name, body


def test_derive_agrees_with_full_validation():
    """derive checks nothing: on the inputs its callers make, its result
    passes full validation and carries caches equal to fresh ones."""
    cases = 0
    for base, name, body in _derive_cases():
        g = TermGraph(base.defs, base.root).pruned()    # caches of its own
        g.referenced()
        defs = {**g.defs, name: body}
        full = TermGraph(defs, name)
        out = derive(g, name, body)
        assert out.root == name and out.defs == defs
        assert out.def_free_vars() == full.def_free_vars()
        assert out._refs == {n: full.refs_of(n) for n in defs}
        assert out.all_names() == full.all_names()
        cases += 1
    assert cases > 500, cases


def test_validation_rejects_bodies_no_step_makes():
    """A new body that references an undefined name, uses a definition
    name as a variable, is a bare reference, or puts a reference beneath
    a binder free in it, fails where terms enter, in :class:`TermGraph`.
    No step makes one, so :func:`derive` does not look for them."""
    for system in ("llinf", "4s"):
        for seed in range(20):
            _, g = generate.random_term(("derive", seed), system, 26)
            fvs = g.def_free_vars()
            some_def = min(g.defs)
            for body in g.defs.values():
                cases = [
                    (App(body, Ref("undefined")), DefinitionError),
                    (App(body, Var(some_def)), DefinitionError),
                    (Ref(some_def), GuardednessError),
                ]
                cases += [(Lam(LIN, min(fv), App(body, Ref(d))), CaptureError)
                          for d, fv in sorted(fvs.items()) if fv][:2]
                for bad, error in cases:
                    with pytest.raises(error):
                        TermGraph({**g.defs, "fresh_def": bad}, "fresh_def")


def _subst_reference(g, body, x, replacement):
    """Substitution in three recursive passes (free variables of the
    replacement, renaming binders apart, substituting), as it was before
    one pass did all three: the oracle for :func:`subst_in_body`."""
    avoid = g.node_free_vars(replacement)
    used = set(g.all_names()) | avoid

    def rename_free(node, old, new):
        match node:
            case Var(v):
                return Var(new) if v == old else node
            case Lam(k, v, b):
                return node if v == old else Lam(k, v, rename_free(b, old, new))
            case App(f, a):
                return App(rename_free(f, old, new), rename_free(a, old, new))
            case Box(k, b):
                return Box(k, rename_free(b, old, new))
        return node

    def apart(node):
        match node:
            case Lam(k, v, b):
                if v in avoid:
                    v2 = terms.fresh_name(v, used)
                    used.add(v2)
                    return Lam(k, v2, apart(rename_free(b, v, v2)))
                return Lam(k, v, apart(b))
            case App(f, a):
                return App(apart(f), apart(a))
            case Box(k, b):
                return Box(k, apart(b))
        return node

    def go(n):
        match n:
            case Var(v):
                return replacement if v == x else n
            case Lam(k, v, b):
                return n if v == x else Lam(k, v, go(b))
            case App(f, a):
                return App(go(f), go(a))
            case Box(k, b):
                return Box(k, go(b))
        return n

    return go(apart(body))


def test_subst_in_body_matches_three_pass_reference():
    renamed = 0
    for system in ("llinf", "4s"):
        for seed in range(20):
            _, g = generate.random_term(("subst", seed), system, 30)
            for body in g.defs.values():
                scan = _scan_body(body)
                names = sorted(scan.names)
                for x in names[:3]:
                    for ys in ([names[-1]], names[:2], ["q"]):
                        repl = Var(ys[0]) if len(ys) == 1 else App(*map(Var, ys))
                        h = TermGraph(g.defs, g.root)
                        outs = [subst_in_body(h, body, x, repl,
                                              set(h.all_names())),
                                _subst_reference(TermGraph(g.defs, g.root),
                                                 body, x, repl)]
                        assert outs[0] == outs[1]
                        renamed += not _scan_body(outs[0]).names <= {*names, *ys}
    assert renamed > 50


def _deep_body(shape, n=5_000):
    """A body ``n`` nodes deep: nested lambdas, an application spine, or
    nested boxes alternately inductive and coinductive."""
    leaf = App(App(Var("y"), Var("x")), Ref("D"))
    if shape == "lambdas":
        body = Lam(LIN, "x", leaf)
        for i in range(n):
            body = Lam(LIN, f"x{i}", body)
    elif shape == "spine":
        body = leaf
        for i in range(n):
            body = App(body, Var(f"a{i}"))
    else:
        body = Lam(LIN, "x", leaf)
        for i in range(n):
            body = Box(IND if i % 2 else COIND, body)
    return TermGraph({"main": body, "D": Lam(LIN, "w", Var("w"))}, "main")


@pytest.mark.parametrize("shape", ["lambdas", "spine", "boxes"])
def test_deep_bodies_need_no_recursion(shape):
    """Validation, free variables, derive and substitution on bodies
    5 000 nodes deep, built without the parser."""
    n = 5_000
    g = _deep_body(shape, n)
    body = g.root_body()
    if shape == "spine":
        free = {"x", "y"} | {f"a{i}" for i in range(n)}
        repl, free_after = Var("z"), free - {"y"} | {"z"}
    else:
        free, repl, free_after = {"y"}, Var("x"), {"x"}
    assert g.def_free_vars()["main"] == free
    assert g.node_free_vars(body) == free
    assert derive(g, "main2", body).def_free_vars()["main2"] == free
    out = subst_in_body(g, body, "y", repl, set(g.all_names()))
    assert _scan_body(out).free == free_after


@pytest.mark.parametrize("shape", ["lambdas", "spine"])
def test_deep_lambda_terms_check_without_recursion(shape):
    """The pure-calculus cycle check on bodies 20 000 nodes deep, built
    without the parser, leaves the recursion limit alone."""
    g = _deep_body(shape, 20_000)
    limit = sys.getrecursionlimit()
    rep = check_labc(g, DepthFlags(0, 0, 0))
    assert rep.accepted
    assert rep.states == {"lambdas": 20_007, "spine": 40_006}[shape]
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("shape,m,size,weight", [
    # 5 001 lambdas, the leaf's 2 applications, 2 variables and D's 2 nodes
    ("lambdas", 0, 5_007, 5_005),
    # 5 000 applications and arguments on the spine, then the leaf
    ("spine", 0, 10_006, 5_004),
    # 2 500 coinductive boxes: the leaf \x. y x D is at depth 2 500
    ("boxes", 0, 1, 0),
    ("boxes", 2_500, 7, 5),
])
def test_deep_bodies_metrics_need_no_recursion(shape, m, size, weight):
    """The metrics on bodies 5 000 nodes deep, built without the parser."""
    g = _deep_body(shape)
    assert metrics.size_at(g, m) == size
    assert metrics.wei(g, 2, m) == weight
    assert metrics.df(g, m) == 1
    assert metrics.twei(g, m) == weight


def test_fresh_name_takes_the_smallest_unused_suffix():
    assert terms.fresh_name("x", set()) == "x1"
    assert terms.fresh_name("x12", {"x1", "x2", "x4"}) == "x3"
    assert terms.fresh_name("7", {"v1"}) == "v2"


def test_rebuild_maps_children_in_order_and_shares_unchanged_subtrees():
    tree = Lam(LIN, "x", App(App(Var("x"), Box(IND, Var("y"))), Var("z")))
    seen = []

    def visit(node, depth):
        seen.append((type(node).__name__, depth))
        if type(node) is Var and node.name == "z":
            return Var("w"), None
        return (lambda *kids: terms.remake(node, *kids),
                [(c, depth + 1) for c in terms.children(node)])

    out = terms.rebuild(tree, 0, visit)
    assert out == Lam(LIN, "x", App(App(Var("x"), Box(IND, Var("y"))), Var("w")))
    assert out.body.fn is tree.body.fn
    assert seen == [("Lam", 0), ("App", 1), ("App", 2), ("Var", 3), ("Box", 3),
                    ("Var", 4), ("Var", 2)]


def _alpha_pairs():
    """Finite trees from generated terms of both systems, each paired
    with its successor, with itself with every binder renamed apart, with
    itself with every binder renamed to one name (which captures
    whenever a variable lies beneath a binder other than its own), and
    with itself with the kinds of its abstractions, or of its boxes,
    changed."""
    def renamed(tree, name_of):
        count = iter(range(10**9))

        def visit(node, scope):
            match node:
                case Var(x):
                    return (Var(scope[x]) if x in scope else node), None
                case Lam(k, x, b):
                    y = name_of(next(count))
                    return (lambda body: Lam(k, y, body)), [(b, {**scope, x: y})]
            return (lambda *kids: terms.remake(node, *kids),
                    [(c, scope) for c in terms.children(node)])

        return terms.rebuild(tree, {}, visit)

    def rekinded(tree, cls):
        other = {LIN: IND, IND: COIND, COIND: LIN if cls is Lam else IND}

        def visit(node, ctx):
            if type(node) is not cls:
                return (lambda *kids: terms.remake(node, *kids),
                        [(c, ctx) for c in terms.children(node)])
            if cls is Lam:
                return partial(Lam, other[node.kind], node.name), [(node.body, ctx)]
            return partial(Box, other[node.kind]), [(node.body, ctx)]

        return terms.rebuild(tree, None, visit)

    trees = []
    for system in ("llinf", "4s"):
        for seed in range(100):
            _, g = generate.random_term(("alpha", seed), system, 24)
            trees += [project_depth(g, d, 5_000) for d in range(3)]
    for t, u in zip(trees, trees[1:]):
        yield t, u
        yield t, renamed(t, lambda i: f"r{i}")
        yield t, renamed(t, lambda i: "r")
        yield renamed(t, lambda i: "r"), renamed(u, lambda i: "r")
        yield t, rekinded(t, Lam)
        yield t, rekinded(t, Box)


def test_alpha_equal_matches_the_recursive_oracle():
    from graph_oracles import alpha_equal as oracle
    verdicts = Counter()
    for t, u in _alpha_pairs():
        got = alpha_equal(t, u)
        assert got == oracle(t, u), (t, u)
        assert alpha_equal(u, t) == got
        verdicts[got] += 1
    assert sum(verdicts.values()) > 2_000 and min(verdicts.values()) > 500, verdicts


# the node classes: frozen, with their dataclass fields, whatever
# constructor writes their slots
NODES = [
    (Var("x"), {"name": "x"}),
    (App(Var("f"), Var("a")), {"fn": Var("f"), "arg": Var("a")}),
    (Lam(LIN, "x", Var("x")), {"kind": LIN, "name": "x", "body": Var("x")}),
    (Box(COIND, Ref("M")), {"kind": COIND, "body": Ref("M")}),
    (Ref("M"), {"name": "M"}),
]


@pytest.mark.parametrize("node,values", NODES,
                         ids=[type(node).__name__ for node, _ in NODES])
def test_nodes_stay_immutable(node, values):
    cls = type(node)
    names = tuple(values)
    assert cls.__match_args__ == names
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, Var("z"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.extra = 1
    assert {name: getattr(node, name) for name in names} == values
    # keyword construction, and the dataclass helper that uses it
    assert cls(**values) == node
    assert dataclasses.replace(node, **values) == node
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls()
    assert hash(cls(**values)) == hash(node)
    assert repr(node) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in values.items()) + ")"
