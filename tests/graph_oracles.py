"""Oracles and helpers over graphs and finite trees.

* Occurrence counting and the inductive-cycle search as separate graph
  passes (reverse reachability, a cycle test, a topological order, a
  memoised path count, a depth-first search): the earlier production
  route, kept as the oracle of the single SCC pass in
  :mod:`llinf.wellform`.
* The well-formation check with a frozenset of the whole environment
  as each state's key and two Tarjan passes over every state graph: the
  earlier production route, kept as the oracle of the interned
  environments and the acyclic shortcut of :mod:`llinf.wellform`.
* The root sweep over the product of the body positions with the box
  classes, with a Tarjan pass over every product graph, and the free
  variables of the definitions as a round-robin fixpoint over their
  reference sets: the earlier production routes, kept as the oracles of
  the path count over (definition, class) states in
  :func:`llinf.wellform._root_sweep`, of the per-definition pass over
  the reference graph in :func:`llinf.terms._solve_fvs`, and of
  environment inference from that sweep and the check above.
* Alpha-equivalence and printing by structural recursion: the earlier
  production route, kept as the oracle of the iterative passes in
  :mod:`llinf.terms` and :mod:`llinf.surface`.
* The recursive-descent parser, its line-tracking tokenizer and the
  reference-resolving pass after it: the earlier production front end,
  kept as the oracle of the scanner and parser loop in
  :mod:`llinf.surface` (which also rejects boxes in lambda files).
* A contraction step in separate passes (the position rewritten by
  structural recursion along its path, the substitution alone, and a
  full validation of the new graph): the oracle of the substitution,
  descent and path copy of ``reduction._contract_at``, which
  :func:`llinf.reduction.contract` makes on the root body and the
  frontier evaluator on a box's node, and of the unchecked
  :func:`llinf.terms.derive` after it, with caches computed afresh.
* The preorder walk of the unfolding by class patterns and
  ``g.resolve`` per child, and the depth projection through
  :func:`llinf.terms.rebuild` with a ``remake`` per node: the earlier
  production routes, kept as the oracles of the type-dispatched loops of
  :func:`llinf.reduction.walk` and :func:`llinf.terms.project_depth`.
* The flag-counted walk of a pure lambda graph, a loop of its own with
  the depth as an int, and the beta redexes it reaches at one depth:
  the earlier production route, kept as the oracle of
  :func:`llinf.lam.find_beta_redexes`, which reads the flags as level
  marks of :func:`llinf.reduction.walk`.
* The evaluator's charge for a stepped root body, its nodes above its
  coinductive boxes with references as leaves, by structural recursion:
  the oracle of the walk in :func:`llinf.reduction._shallow_size`.
* Scott decoding that evaluates the contents of every box it reads
  back, repeats included: the earlier production route, kept as the
  oracle of :func:`llinf.encodings.scott_decode`, which evaluates each
  distinct contents once.
* The classification of a term by walks of its unfolding to height
  64, first for a redex and then for an application that can never
  fire: the earlier production route, kept as the oracle of
  :func:`llinf.reduction.classify`, which decides on the graph.
* Redex enumeration by a walk of the unfolding to height 64, and the
  level-set strategy that contracts the first redex of that list whose
  level satisfies a predicate: the earlier production route, kept as
  the oracle of :func:`llinf.reduction.step_at_levelset`, which decides
  the redex's depth on the graph and searches that depth's region.
* The call-by-value embedding drawing each application's ``w`` name
  with its own ``fresh_name`` probe from ``w1``: the earlier production
  route, kept as the oracle of :func:`llinf.lam.embed_cbv`, which draws
  them from one running counter.
* Height-bounded unfolding and truncation, for coherence checks.
* Random systems of several definitions that reference each other under
  boxes and binders, cycles included, for the passes over the reference
  graph.
"""

import re
from functools import partial

from llinf import lam, reduction
from llinf.reduction import level_depth
from llinf.encodings import DecodeResult, FiniteTree
from llinf.errors import (
    BudgetExceededError, CaptureError, DefinitionError, EncodingError,
    InvalidPositionError, LLinfError, SurfaceSyntaxError,
)
from llinf.terms import (
    App, Box, Cut, CUT, Lam, Node, Ref, TermGraph, Var, IND, LIN, COIND,
    ARG, BODY, BOXED, FN, DEFAULT_BUDGET,
    children, fresh_name, rebuild, remake, subst_in_body, _scan_body,
)
from llinf.wellform import (
    CheckReport, INF, KINDS, LLINF, _CLS_LIN, _Fail, _describe, body_pass,
)

_UNIT = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _shift(cls, boxkind):
    """The class of a position under one more box of ``boxkind``: no box,
    one inductive box, two or more, or any coinductive one."""
    if boxkind == COIND:
        return 3
    return min(cls + 1, 2) if cls < 3 else 3


def occurrences(g: TermGraph, x: str, node: Node = None) -> tuple:
    """The four class counts of ``wellform.occurrences`` as a tuple."""
    start_node = g.resolve(node if node is not None else g.root_body())
    start = (id(start_node), _CLS_LIN)
    nodes = {start: start_node}
    edges = {}
    todo = [start]
    while todo:
        key = todo.pop()
        if key in edges:
            continue
        n = nodes[key]
        cls = key[1]
        outs = []
        match n:
            case Var(_):
                pass
            case Lam(_, v, b):
                if v != x:
                    outs.append((g.resolve(b), cls))
            case App(f, a):
                outs.append((g.resolve(f), cls))
                outs.append((g.resolve(a), cls))
            case Box(k, b):
                outs.append((g.resolve(b), _shift(cls, k)))
        keys = []
        for child, ccls in outs:
            ck = (id(child), ccls)
            nodes.setdefault(ck, child)
            keys.append(ck)
            if ck not in edges:
                todo.append(ck)
        edges[key] = keys

    def is_target(key, cls):
        n = nodes[key]
        return key[1] == cls and isinstance(n, Var) and n.name == x

    counts = []
    for cls in range(4):
        targets = {k for k in edges if is_target(k, cls)}
        if not targets:
            counts.append(0)
            continue
        relevant = _coreachable(edges, targets)
        if start not in relevant:
            counts.append(0)
            continue
        if _has_cycle(edges, relevant):
            counts.append(INF)
            continue
        memo = {}

        def npaths(key):
            if key in memo:
                return memo[key]
            total = 1 if key in targets else 0
            total += sum(npaths(c) for c in edges[key] if c in relevant)
            memo[key] = total
            return total

        # children first, so each npaths call finds its children memoised
        for key in reversed(_topo(edges, relevant)):
            npaths(key)
        counts.append(memo.get(start, 1 if start in targets else 0))
    return tuple(counts)


def _coreachable(edges, targets):
    rev = {k: [] for k in edges}
    for k, outs in edges.items():
        for c in outs:
            rev[c].append(k)
    seen = set(targets)
    todo = list(targets)
    while todo:
        k = todo.pop()
        for p in rev[k]:
            if p not in seen:
                seen.add(p)
                todo.append(p)
    return seen


def _has_cycle(edges, relevant):
    color = {}
    for root in relevant:
        if color.get(root):
            continue
        stack = [(root, iter([c for c in edges[root] if c in relevant]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                if color.get(child) == 1:
                    return True
                if not color.get(child):
                    color[child] = 1
                    stack.append((child, iter([c for c in edges[child] if c in relevant])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


def _topo(edges, relevant):
    color = {}
    order = []
    for root in relevant:
        if color.get(root):
            continue
        stack = [(root, iter([c for c in edges[root] if c in relevant]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                if not color.get(child):
                    color[child] = 1
                    stack.append((child, iter([c for c in edges[child] if c in relevant])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                order.append(node)
                stack.pop()
    order.reverse()
    return order


def inductive_cycle(out_edges):
    """The first cycle over non-coinductive edges that a depth-first
    search from states 0, 1, ... meets, closed (first == last), or None."""
    n = len(out_edges)
    color = [0] * n
    stack_pos = {}
    for root in range(n):
        if color[root]:
            continue
        path = [root]
        iters = [iter([c for c, mc in out_edges[root] if not mc])]
        color[root] = 1
        stack_pos[root] = 0
        while iters:
            try:
                child = next(iters[-1])
            except StopIteration:
                done = path.pop()
                iters.pop()
                color[done] = 2
                del stack_pos[done]
                continue
            if color[child] == 1:
                return path[stack_pos[child]:] + [child]
            if color[child] == 0:
                color[child] = 1
                stack_pos[child] = len(path)
                path.append(child)
                iters.append(iter([c for c, mc in out_edges[child] if not mc]))
    return None


def tarjan(succ):
    """Strongly connected components, sinks first (Tarjan 1972,
    iterative): roots and edges in order, each component in stack-pop
    order.  No shortcut for acyclic graphs."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def _cyclic(comp, succ):
    return len(comp) > 1 or comp[0] in succ[comp[0]]


def _merge(m, other):
    """Add the class counts of ``other`` into ``m``; returns ``m``."""
    for v, c in other.items():
        got = m.get(v)
        m[v] = c if got is None else (got[0] + c[0], got[1] + c[1],
                                      got[2] + c[2], got[3] + c[3])
    return m


def root_sweep(g: TermGraph) -> dict:
    """The results of ``wellform._root_sweep`` by path counting on the
    product of the definition bodies with the 4-class box automaton: a
    state is a position in a body tree with a class, and only references
    merge states.  A Tarjan pass runs over every product graph, acyclic
    or not, and every state's map is kept to the end.  A ``Lam(v)``
    state drops ``v``; a cyclic component makes each nonzero class
    infinite and drops every name bound by an abstraction inside it."""
    start = g.root_body()
    nodes = [start]
    classes = [_CLS_LIN]
    roots = {(g.root, _CLS_LIN): 0}
    succ = []
    for i, n in enumerate(nodes):
        cls = classes[i]
        t = type(n)
        if t is App:
            outs = ((n.fn, cls), (n.arg, cls))
        elif t is Lam:
            outs = ((n.body, cls),)
        elif t is Box:
            outs = ((n.body, _shift(cls, n.kind)),)
        else:
            outs = ()
        row = []
        for child, ccls in outs:
            if type(child) is Ref:
                key = (child.name, ccls)
                j = roots.get(key)
                if j is not None:
                    row.append(j)
                    continue
                roots[key] = len(nodes)
                child = g.defs[child.name]
            row.append(len(nodes))
            nodes.append(child)
            classes.append(ccls)
        succ.append(row)

    maps = [None] * len(succ)
    for comp in tarjan(succ):
        if _cyclic(comp, succ):
            members = set(comp)
            total = {}
            bound = set()
            for i in comp:
                n = nodes[i]
                if type(n) is Var:
                    _merge(total, {n.name: _UNIT[classes[i]]})
                elif type(n) is Lam:
                    bound.add(n.name)
                for j in succ[i]:
                    if j not in members:
                        _merge(total, maps[j])
            pumped = {v: tuple(INF if k else 0 for k in c)
                      for v, c in total.items() if v not in bound}
            for i in comp:
                maps[i] = pumped
            continue
        i = comp[0]
        n = nodes[i]
        if type(n) is Var:
            m = {n.name: _UNIT[classes[i]]}
        else:
            m = {}
            for j in succ[i]:
                _merge(m, maps[j])
            if type(n) is Lam:
                m.pop(n.name, None)
        maps[i] = m
    return maps[0]


def solve_fvs(scans) -> dict:
    """Free variables of every definition: the least fixpoint over the
    reference sets of the scanned bodies, one round over all of them at
    a time until none grows."""
    fvs = {name: set(s.free) for name, s in scans.items()}
    changed = True
    while changed:
        changed = False
        for name, s in scans.items():
            got = fvs[name]
            size = len(got)
            got.update(*[fvs[r] for r in s.refs])
            changed |= len(got) != size
    return {name: frozenset(s) for name, s in fvs.items()}


def def_free_vars(g: TermGraph) -> dict:
    """``g.def_free_vars()`` from :func:`solve_fvs`."""
    return solve_fvs({name: _scan_body(body) for name, body in g.defs.items()})


def random_defs(rng):
    """A graph of one to six definitions in a random order, with a random
    root, or None when the draw breaks capture-freedom.  Bodies mix
    applications, abstractions of the three kinds and boxes of both
    kinds over variables and references to any definition, so reference
    cycles and references under boxes and binders are common.  A
    variable is a free name, a binder in scope or, now and then, a
    binder name out of scope."""
    names = [f"D{i}" for i in range(rng.randrange(1, 7))]
    free, binders = ("a", "b", "c"), ("x", "y")

    def body(size, scope):
        if size <= 1:
            r = rng.random()
            if r < 0.4:
                return Ref(rng.choice(names))
            return Var(rng.choice(binders if r < 0.45 else free + scope))
        r = rng.random()
        if r < 0.4:
            left = rng.randrange(1, size)
            return App(body(left, scope), body(size - left, scope))
        if r < 0.65:
            x = rng.choice(binders)
            return Lam(rng.choice([LIN, IND, COIND]), x,
                       body(size - 1, scope + (x,)))
        return Box(rng.choice([IND, COIND]), body(size - 1, scope))

    defs = {}
    for name in rng.sample(names, len(names)):
        b = body(rng.randrange(1, 12), ())
        defs[name] = Box(rng.choice([IND, COIND]), b) if type(b) is Ref else b
    try:
        return TermGraph(defs, rng.choice(names))
    except CaptureError:
        return None


def _split_sides(bodies, env, f, a, strict_kinds):
    words = {"lin": "linear", "ind1": "ind-one"}
    free_f = bodies.free[id(f)]
    free_a = bodies.free[id(a)]
    env_f = {}
    env_a = {}
    for v, k in env.items():
        if k in strict_kinds:
            in_f = v in free_f
            in_a = v in free_a
            if in_f and in_a:
                raise _Fail(f"{words[k]} variable {v!r} occurs in both sides "
                            "of an application")
            if not in_f and not in_a:
                raise _Fail(f"{words[k]} variable {v!r} is unused")
            (env_f if in_f else env_a)[v] = k
        else:
            env_f[v] = k
            env_a[v] = k
    return env_f, env_a


def _expand_llinf(bodies, node, env):
    match node:
        case Var(x):
            k = env.get(x)
            if k is None:
                raise _Fail(f"free variable {x!r} has no pattern in the environment")
            for v, kv in env.items():
                if v != x and kv == "lin":
                    raise _Fail(f"linear variable {v!r} is unused")
            return []
        case App(f, a):
            env_f, env_a = _split_sides(bodies, env, f, a, ("lin",))
            return [(f, env_f, False), (a, env_a, False)]
        case Lam(k, x, b):
            if env.get(x) == "lin":
                raise _Fail(f"linear variable {x!r} is unused")
            bind = {LIN: "lin", IND: "ind", COIND: "coind"}[k]
            env2 = dict(env)
            env2[x] = bind
            return [(b, env2, False)]
        case Box(k, b):
            for v, kv in env.items():
                if kv == "lin":
                    raise _Fail(f"linear variable {v!r} cannot occur under a box")
            return [(b, env, k == COIND)]
    raise TypeError(f"unexpected node {node!r}")


def _expand_ll4s(bodies, node, env):
    match node:
        case Var(x):
            k = env.get(x)
            if k is None:
                raise _Fail(f"free variable {x!r} has no pattern in the environment")
            if k == "coind":
                raise _Fail(
                    f"coinductive variable {x!r} occurs outside every coinductive box")
            if k == "ind1":
                raise _Fail(
                    f"ind-one variable {x!r} occurs outside its inductive box")
            for v, kv in env.items():
                if v == x:
                    continue
                if kv == "lin":
                    raise _Fail(f"linear variable {v!r} is unused")
                if kv == "ind1":
                    raise _Fail(f"ind-one variable {v!r} is unused")
            return []
        case App(f, a):
            env_f, env_a = _split_sides(bodies, env, f, a, ("lin", "ind1"))
            return [(f, env_f, False), (a, env_a, False)]
        case Lam(_, x, _) if env.get(x) == "lin":
            raise _Fail(f"linear variable {x!r} is unused")
        case Lam(_, x, _) if env.get(x) == "ind1":
            raise _Fail(f"ind-one variable {x!r} is unused")
        case Lam("lin", x, b):
            env2 = dict(env)
            env2[x] = "lin"
            return [(b, env2, False)]
        case Lam("coind", x, b):
            env2 = dict(env)
            env2[x] = "coind"
            return [(b, env2, False)]
        case Lam("ind", x, b):
            linear, ind_one, deeper_ind, coind = bodies.own[(id(b), x)]
            if coind > 0 or deeper_ind > 0:
                raise _Fail(
                    f"inductively bound {x!r} occurs under a coinductive box "
                    "or under more than one inductive box")
            if ind_one == 0:
                bind = "dup"
            elif linear == 0 and ind_one == 1:
                bind = "ind1"
            else:
                raise _Fail(
                    f"inductively bound {x!r} occurs both outside and inside "
                    "inductive boxes")
            env2 = dict(env)
            env2[x] = bind
            return [(b, env2, False)]
        case Box("ind", b):
            env2 = {}
            for v, kv in env.items():
                if kv == "lin":
                    raise _Fail(f"linear variable {v!r} cannot occur under a box")
                if kv == "dup":
                    continue  # duplicable variables may not enter boxes
                env2[v] = "lin" if kv == "ind1" else kv
            return [(b, env2, False)]
        case Box("coind", b):
            env2 = {}
            for v, kv in env.items():
                if kv == "lin":
                    raise _Fail(f"linear variable {v!r} cannot occur under a box")
                if kv == "ind1":
                    raise _Fail(
                        f"ind-one variable {v!r} cannot occur under a coinductive box")
                if kv == "dup":
                    continue
                env2[v] = "any" if kv == "coind" else kv
            return [(b, env2, True)]
    raise TypeError(f"unexpected node {node!r}")


def check(system: str, env: dict, g: TermGraph):
    """``wellform.check`` with a fresh dict per state, keyed by a
    frozenset of it, and with two Tarjan passes: one over the
    non-coinductive edges for an inductive loop, one over all edges for
    the loops of an accepted derivation.  Returns the report and the
    state graph as lists of ``(successor, coinductive)`` pairs."""
    bad = set(env.values()) - KINDS[system]
    if bad:
        raise ValueError(f"pattern kinds {sorted(bad)} are not valid for {system}")
    expand = _expand_llinf if system == LLINF else _expand_ll4s
    bodies = body_pass(g)

    def state_key(node, env):
        return (id(node), frozenset(env.items()))

    root_node = g.resolve(g.root_body())
    keys = {state_key(root_node, env): 0}
    info = [(root_node, dict(env))]
    out_edges = [None]
    parent = [None]
    todo = [0]
    failure = None
    while todo:
        idx = todo.pop()
        node, st_env = info[idx]
        try:
            children = expand(bodies, node, st_env)
        except _Fail as f:
            failure = (idx, f.reason)
            break
        edges = []
        for child, cenv, mc in children:
            child = g.resolve(child)
            key = state_key(child, cenv)
            cidx = keys.get(key)
            if cidx is None:
                cidx = len(info)
                keys[key] = cidx
                info.append((child, cenv))
                out_edges.append(None)
                parent.append(idx)
                todo.append(cidx)
            edges.append((cidx, mc))
        out_edges[idx] = edges

    if failure is not None:
        idx, reason = failure
        path = []
        while idx is not None:
            node, st_env = info[idx]
            path.append(_describe(node, st_env))
            idx = parent[idx]
        path.reverse()
        return CheckReport(False, system, reason=reason,
                           failure_path=tuple(path), states=len(info)), out_edges

    cycle = inductive_cycle(out_edges)
    if cycle is not None:
        return CheckReport(
            False, system,
            reason="inductive loop: a cycle of the derivation crosses no "
                   "coinductive box",
            cycle=tuple(_describe(*info[i]) for i in cycle),
            states=len(info)), out_edges

    succ = [[c for c, _ in edges] for edges in out_edges]
    loops = []
    for comp in tarjan(succ):
        if not _cyclic(comp, succ):
            continue
        members = set(comp)
        v = next(v for v in comp
                 if any(mc and c in members for c, mc in out_edges[v]))
        loops.append({"size": len(comp),
                      "coinductive_crossing": _describe(*info[v])})
    return CheckReport(True, system, states=len(info),
                       loops=tuple(loops)), out_edges


def infer_env(system: str, g: TermGraph):
    """``wellform.infer_env`` with the kinds picked from the counts of
    :func:`root_sweep` and the verdict of :func:`check`."""
    env = {}
    for x, counts in sorted(root_sweep(g).items()):
        lin, ind1, ind2, co = counts
        if counts == (1, 0, 0, 0):
            env[x] = "lin"
        elif system == LLINF:
            env[x] = "ind"
        elif ind1 == ind2 == co == 0:
            env[x] = "dup"
        elif counts == (0, 1, 0, 0):
            env[x] = "ind1"
        elif lin == ind1 == ind2 == 0:
            env[x] = "coind"
        else:
            env[x] = "any"
    return env if check(system, env, g)[0].accepted else None


def _rewrite_at(g: TermGraph, node, path, edit, done=()):
    """``node`` with the node ``n`` at ``path`` below it replaced by
    ``edit(n)``, references along the path inlined, by structural
    recursion; ``done`` is the part of the path already descended."""
    node = g.resolve(node)
    if len(done) == len(path):
        return edit(node)
    sel = path[len(done)]

    def down(child):
        return _rewrite_at(g, child, path, edit, done + (sel,))

    match node:
        case App(f, a) if sel == FN:
            return App(down(f), a)
        case App(f, a) if sel == ARG:
            return App(f, down(a))
        case Lam(kind, x, b) if sel == BODY:
            return Lam(kind, x, down(b))
        case Box(kind, b) if sel == BOXED:
            return Box(kind, down(b))
    raise InvalidPositionError(f"selector {sel!r} does not apply at "
                               f"{'.'.join(done) or '<root>'}")


def contract(g: TermGraph, redex) -> TermGraph:
    """One contraction in separate passes, its result validated in full
    and its caches computed afresh; see the module docstring."""
    path = redex.position
    names = set(g.all_names())

    def beta(node):
        kind = reduction.redex_kind_at(g, node)
        if kind != redex.kind:
            raise InvalidPositionError(
                f"position {'.'.join(path) or '<root>'} holds "
                f"{kind or 'no redex'}, not a {redex.kind} redex")
        f = g.resolve(node.fn)
        if f.kind == LIN:
            value = node.arg
        else:
            value = g.resolve(node.arg).body
        # keep definition bodies guarded
        return g.resolve(subst_in_body(g, f.body, f.name, value, names))

    new_body = _rewrite_at(g, g.root_body(), path, beta)
    root = g.root
    if root in g.referenced():
        # the old root is shared; give the rewritten unfolding a new name
        root = fresh_name(root, names)
    return TermGraph({**g.defs, root: new_body}, root).pruned()


def walk(g: TermGraph, *, start=None, max_height=None, max_depth=None,
         budget=DEFAULT_BUDGET):
    """Preorder traversal of the unfolding, yielding (node, at, level).

    The walk starts at ``start``, a node over ``g``'s definitions, by
    default ``g``'s root body; paths and levels are relative to it.
    ``at`` is the node's parent link: ``()`` at the start, else the pair
    (parent's link, selector); :func:`path_of` turns it into a path, so
    a walk builds no path it does not need.  ``max_height`` bounds the
    path length; ``max_depth`` stops descent into coinductive boxes
    beyond the bound (the box node itself is still yielded).  References
    are transparent.
    """
    if start is None:
        start = g.root_body()
    stack = [(g.resolve(start), (), "", 0)]
    visited = 0
    while stack:
        node, at, level, height = stack.pop()
        visited += 1
        if visited > budget:
            raise BudgetExceededError(
                f"traversal exceeded {budget} nodes (ill-formed input?)")
        yield node, at, level
        if max_height is not None and height >= max_height:
            continue
        height += 1
        match node:
            case App(f, a):
                stack.append((g.resolve(a), (at, ARG), level, height))
                stack.append((g.resolve(f), (at, FN), level, height))
            case Lam(_, _, b):
                stack.append((g.resolve(b), (at, BODY), level, height))
            case Box("ind", b):
                stack.append((g.resolve(b), (at, BOXED), level + "i", height))
            case Box("coind", b):
                if max_depth is None or level_depth(level) < max_depth:
                    stack.append((g.resolve(b), (at, BOXED), level + "c",
                                  height))


def lwalk(g: TermGraph, flags, max_depth, budget=DEFAULT_BUDGET):
    """Preorder traversal with flag-counted depth, not descending past
    ``max_depth``; yields (node, parent link, depth)."""
    stack = [(g.resolve(g.root_body()), (), 0)]
    visited = 0
    while stack:
        node, at, depth = stack.pop()
        visited += 1
        if visited > budget:
            raise BudgetExceededError(f"traversal exceeded {budget} nodes")
        yield node, at, depth
        match node:
            case App(f, a):
                if depth + flags.c <= max_depth:
                    stack.append((g.resolve(a), (at, ARG), depth + flags.c))
                if depth + flags.b <= max_depth:
                    stack.append((g.resolve(f), (at, FN), depth + flags.b))
            case Lam(_, _, b):
                if depth + flags.a <= max_depth:
                    stack.append((g.resolve(b), (at, BODY), depth + flags.a))


def find_beta_redexes(g: TermGraph, flags, depth: int, budget=DEFAULT_BUDGET):
    """Beta redexes at exactly the given flag depth, leftmost-outermost."""
    out = []
    for node, at, d in lwalk(g, flags, depth, budget):
        if d == depth and isinstance(node, App) \
                and isinstance(g.resolve(node.fn), Lam):
            out.append(reduction.Redex(reduction.path_of(at), "", "linear"))
    return out


def classify(g: TermGraph, height=64) -> str:
    """'normal', 'reducible', or 'deadlocked' within the height; a redex
    wins over an application that can never fire."""
    nodes = [node for node, _, _ in walk(g, max_height=height)]
    if any(reduction.redex_kind_at(g, node) for node in nodes):
        return "reducible"
    if any(type(node) is App and reduction._never_fires(g, node, True)
           for node in nodes):
        return "deadlocked"
    return "normal"


def find_redexes(g: TermGraph, height_bound=64, budget=DEFAULT_BUDGET):
    """All redexes within the height bound, ordered by level depth, then
    level (i before c), then leftmost-outermost position."""
    found = [reduction.Redex(reduction.path_of(at), level, kind)
             for node, at, level in walk(g, max_height=height_bound,
                                         budget=budget)
             if (kind := reduction.redex_kind_at(g, node))]
    found.sort(key=lambda r: reduction.level_key(r.level))
    return found


def level_predicate(spec):
    """A level predicate: 'any', 'even', 'odd', ('depth', n) or
    ('exact', word)."""
    match spec:
        case "any":
            return lambda lv: True
        case "even":
            return lambda lv: level_depth(lv) % 2 == 0
        case "odd":
            return lambda lv: level_depth(lv) % 2 == 1
        case ("depth", n):
            return lambda lv: level_depth(lv) == n
        case ("exact", word):
            return lambda lv: lv == word
    raise ValueError(f"unknown level predicate {spec!r}")


def step_at_levelset(g: TermGraph, spec, height_bound=64,
                     budget=DEFAULT_BUDGET):
    """Contract the first redex within the height bound whose level
    satisfies the predicate, or return None."""
    predicate = level_predicate(spec)
    for r in find_redexes(g, height_bound, budget):
        if predicate(r.level):
            return reduction.contract(g, r)
    return None


def embed_cbv(g: TermGraph, a: int, b: int) -> TermGraph:
    """The ``a0b`` call-by-value embedding, one ``fresh_name`` per
    application."""
    rep = lam.check_labc(g, lam.DepthFlags(a, 0, b))
    if not rep:
        raise LLinfError(f"input is not well-formed in lambda-{a}0{b}: {rep.reason}")
    akind, bkind = (COIND if a else IND), (COIND if b else IND)
    used = set(g.all_names())

    def visit(node, ctx):
        match node:
            case Var(_) | Ref(_):
                return node, None
            case App(f, x):
                w = fresh_name("w", used)
                used.add(w)
                return (lambda fn, arg: App(Lam(akind, w, Var(w)),
                                            App(fn, Box(bkind, arg))),
                        [(f, ctx), (x, ctx)])
            case Lam(_, v, body):
                return (lambda bd: Lam(bkind, v, Box(akind, bd))), [(body, ctx)]
        raise TypeError(f"unexpected node {node!r}")

    return TermGraph({name: rebuild(body, None, visit)
                      for name, body in g.defs.items()}, g.root)


def project_depth(g: TermGraph, depth: int, budget: int = DEFAULT_BUDGET) -> Node:
    """The sub-tree of the unfolding holding every node at depth <= depth.

    Contents of coinductive boxes sitting at the depth bound are replaced
    by ``Cut``.  Terminates whenever the bounded region is finite; raises
    :class:`BudgetExceededError` after visiting ``budget`` nodes otherwise.
    Iterative: the region of an ill-formed preterm can be an arbitrarily
    deep spine.
    """
    visited = 0

    def visit(node, rd):
        nonlocal visited
        visited += 1
        if visited > budget:
            raise BudgetExceededError(
                f"depth-{depth} region exceeds {budget} nodes "
                "(preterm is not well-formed)")
        node = g.resolve(node)
        t = type(node)
        if t is Var:
            return node, None
        if t is Box and node.kind == COIND:
            if rd == 0:
                return Box(COIND, CUT), None
            rd -= 1
        elif t is Cut:
            raise TypeError(f"unexpected node {node!r}")
        return partial(remake, node), [(child, rd) for child in children(node)]

    return rebuild(g.root_body(), depth, visit)


def shallow_size(g: TermGraph) -> int:
    """Nodes of the root body above its coinductive boxes, the boxes
    included; a reference is a leaf."""
    def count(node):
        match node:
            case App(f, a):
                return 1 + count(f) + count(a)
            case Lam(_, _, b) | Box("ind", b):
                return 1 + count(b)
        return 1

    return count(g.root_body())


def scott_decode(g: TermGraph, sig, mode: str, bound: int, fuel: int = 2_000,
                 budget=DEFAULT_BUDGET) -> DecodeResult:
    """Read back up to ``bound`` constructors, evaluating the contents of
    each box read, with the errors of the production decoder."""
    boxkind = IND if mode == "algebra" else COIND
    names = set(g.all_names())
    complete = True

    def peel(node, remaining):
        nonlocal complete
        node = g.resolve(node)
        if not isinstance(node, Box) or node.kind != boxkind:
            raise EncodingError(
                "shape mismatch: child is not wrapped in the "
                f"{'inductive' if boxkind == IND else 'coinductive'} box")
        if remaining < 1:
            complete = False
            return FiniteTree("..."), None
        boxes, stats = reduction._frontier_eval(g, g.resolve(node.body), 0,
                                                fuel, budget, names)
        if stats.outcome == "fuel-exhausted":
            raise BudgetExceededError(
                f"evaluation fuel exhausted: {stats.detail}")
        if stats.outcome == "stuck":
            raise EncodingError(f"evaluation deadlocked: {stats.detail}")
        node = g.resolve(boxes[0].node)
        binders = []
        while isinstance(node, Lam) and node.kind == IND:
            binders.append(node.name)
            node = g.resolve(node.body)
        if len(binders) != len(sig.symbols):
            raise EncodingError(
                f"shape mismatch: expected {len(sig.symbols)} case binders, "
                f"found {len(binders)}")
        args = []
        while isinstance(node, App):
            args.append(node.arg)
            node = g.resolve(node.fn)
        args.reverse()
        if not isinstance(node, Var) or node.name not in binders:
            raise EncodingError("shape mismatch: head is not a case binder")
        sym = sig.names()[len(binders) - 1 - binders[::-1].index(node.name)]
        if len(args) != sig.arity(sym):
            raise EncodingError(
                f"shape mismatch: {sym!r} applied to {len(args)} children, "
                f"arity is {sig.arity(sym)}")
        return ((lambda *kids: FiniteTree(sym, kids)),
                [(arg, remaining - 1) for arg in args])

    tree = rebuild(Box(boxkind, g.root_body()), bound, peel)
    return DecodeResult(tree, complete)


def _height_visit(resolve):
    def visit(node, height):
        if height <= 0:
            return CUT, None
        node = resolve(node)
        if type(node) is Ref:
            raise TypeError(f"unexpected node {node!r}")
        return partial(remake, node), [(c, height - 1) for c in children(node)]

    return visit


def unfold_height(g: TermGraph, height: int) -> Node:
    """Tree of all unfolding nodes at path length < height, ``Cut`` below.

    Always terminates: each unfolding step crosses a constructor, so the
    number of nodes above any fixed height is finite.
    """
    return rebuild(g.root_body(), height, _height_visit(g.resolve))


def truncate_tree(tree: Node, height: int) -> Node:
    """Height-truncation of a finite tree."""
    return rebuild(tree, height, _height_visit(lambda node: node))


def alpha_equal(t1: Node, t2: Node) -> bool:
    """Alpha-equivalence of finite trees (de Bruijn comparison)."""
    def go(a, b, ea, eb, lvl):
        match (a, b):
            case (Cut(), Cut()):
                return True
            case (Var(x), Var(y)):
                ia, ib = ea.get(x), eb.get(y)
                if ia is None and ib is None:
                    return x == y
                return ia == ib
            case (App(f1, a1), App(f2, a2)):
                return go(f1, f2, ea, eb, lvl) and go(a1, a2, ea, eb, lvl)
            case (Lam(k1, x, b1), Lam(k2, y, b2)):
                if k1 != k2:
                    return False
                ea2 = dict(ea)
                eb2 = dict(eb)
                ea2[x] = lvl
                eb2[y] = lvl
                return go(b1, b2, ea2, eb2, lvl + 1)
            case (Box(k1, b1), Box(k2, b2)):
                return k1 == k2 and go(b1, b2, ea, eb, lvl)
            case _:
                return False

    return go(t1, t2, {}, {}, 0)


def format_node(node: Node) -> str:
    """Render one body (or truncated tree) in the surface grammar."""
    def atom(n):
        s = go(n)
        return s if isinstance(n, (Var, Ref, Cut)) else f"({s})"

    def appfactor(n):
        # application arguments: atoms and boxed atoms need no parens
        if isinstance(n, Box):
            return go(n)
        return atom(n)

    def go(n):
        match n:
            case Var(x):
                return x
            case Ref(name):
                return name
            case Cut():
                return "<cut>"
            case Lam(k, x, b):
                marker = {LIN: "", IND: "!", COIND: "#"}[k]
                return f"\\{marker}{x}. {go(b)}"
            case App(f, a):
                fs = go(f) if isinstance(f, (App, Box)) else atom(f)
                return f"{fs} {appfactor(a)}"
            case Box(k, b):
                return ("!" if k == IND else "#") + atom(b)
        raise TypeError(f"unexpected node {n!r}")

    return go(node)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|//[^\n]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<digits>[0-9]+)
      | (?P<punct>[\\!#.();=])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"def", "root", "flags"}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}:{self.text!r}@{self.line}:{self.col}"


def _tokenize(text):
    tokens = []
    pos = 0
    line = 1
    linestart = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SurfaceSyntaxError(
                f"unexpected character {text[pos]!r}",
                line, pos - linestart + 1)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(),
                                 line, m.start() - linestart + 1))
        nl = text.count("\n", pos, m.end())
        if nl:
            line += nl
            linestart = text.rfind("\n", pos, m.end()) + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - linestart + 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def err(self, message, tok=None):
        tok = tok or self.peek()
        raise SurfaceSyntaxError(message, tok.line, tok.col)

    def expect(self, text):
        t = self.next()
        if t.text != text:
            self.err(f"expected {text!r}, found {t.text or 'end of input'!r}", t)
        return t

    def expect_ident(self, what="identifier"):
        t = self.next()
        if t.kind != "ident" or t.text in _KEYWORDS:
            self.err(f"expected {what}, found {t.text or 'end of input'!r}", t)
        return t.text

    # term := lambda | application of factors
    def parse_term(self, lambdas_only=False):
        t = self.peek()
        if t.text == "\\":
            return self.parse_lambda(lambdas_only)
        factors = [self.parse_factor(lambdas_only)]
        while True:
            t = self.peek()
            if t.kind == "ident" and t.text not in _KEYWORDS:
                factors.append(self.parse_factor(lambdas_only))
            elif t.text == "(" or (t.text in ("!", "#") and not lambdas_only):
                factors.append(self.parse_factor(lambdas_only))
            elif t.text == "\\":
                # a trailing lambda extends maximally to the right
                factors.append(self.parse_lambda(lambdas_only))
                break
            else:
                break
        term = factors[0]
        for f in factors[1:]:
            term = App(term, f)
        return term

    def parse_lambda(self, lambdas_only):
        self.expect("\\")
        kind = LIN
        t = self.peek()
        if t.text == "!":
            if lambdas_only:
                self.err("only plain abstractions are allowed here")
            self.next()
            kind = IND
        elif t.text == "#":
            if lambdas_only:
                self.err("only plain abstractions are allowed here")
            self.next()
            kind = COIND
        name = self.expect_ident("bound variable")
        self.expect(".")
        body = self.parse_term(lambdas_only)
        return Lam(kind, name, body)

    def parse_factor(self, lambdas_only):
        t = self.peek()
        if t.text == "!":
            self.next()
            return Box(IND, self.parse_atom(lambdas_only))
        if t.text == "#":
            self.next()
            return Box(COIND, self.parse_atom(lambdas_only))
        return self.parse_atom(lambdas_only)

    def parse_atom(self, lambdas_only):
        t = self.peek()
        if t.text == "(":
            self.next()
            term = self.parse_term(lambdas_only)
            self.expect(")")
            return term
        if t.kind == "ident" and t.text not in _KEYWORDS:
            self.next()
            return Var(t.text)  # refs resolved after all defs are known
        self.err(f"expected a term, found {t.text or 'end of input'!r}")

    def parse_program(self, lambdas_only=False):
        defs = {}
        order = []
        root = None
        flags = None
        while True:
            t = self.peek()
            if t.text == "def":
                self.next()
                name = self.expect_ident("definition name")
                if name in defs:
                    self.err(f"duplicate definition {name!r}", t)
                self.expect("=")
                defs[name] = self.parse_term(lambdas_only)
                order.append(name)
                self.expect(";")
            elif t.text == "root":
                self.next()
                root = self.expect_ident("root name")
                if self.peek().text == ";":
                    self.next()
            elif t.text == "flags":
                self.next()
                tok = self.next()
                if tok.kind != "digits" or not re.fullmatch(r"[01]{3}", tok.text):
                    self.err("flags must be three binary digits", tok)
                flags = tuple(int(ch) for ch in tok.text)
                if self.peek().text == ";":
                    self.next()
            elif t.kind == "eof":
                break
            else:
                self.err(
                    f"expected 'def' or 'root', found {t.text or 'end of input'!r}")
        if root is None:
            self.err("missing 'root' clause")
        if root not in defs:
            raise DefinitionError(f"root {root!r} is not defined")
        defs = {name: _resolve_idents(body, set(defs)) for name, body in defs.items()}
        return defs, root, flags


def _resolve_idents(node, defnames):
    match node:
        case Var(x):
            return Ref(x) if x in defnames else node
        case App(f, a):
            return App(_resolve_idents(f, defnames), _resolve_idents(a, defnames))
        case Lam(k, x, b):
            if x in defnames:
                raise DefinitionError(
                    f"bound variable {x!r} collides with a definition name")
            return Lam(k, x, _resolve_idents(b, defnames))
        case Box(k, b):
            return Box(k, _resolve_idents(b, defnames))
    return node


def parse_program(text: str) -> TermGraph:
    """Parse a full program into a validated term graph."""
    defs, root, flags = _Parser(text).parse_program()
    if flags is not None:
        raise SurfaceSyntaxError("'flags' is only meaningful in lambda files")
    return TermGraph(defs, root)


def parse_term(text: str) -> TermGraph:
    """Parse a bare closed-form term (no definitions) into a graph."""
    p = _Parser(text)
    term = p.parse_term()
    if p.peek().kind != "eof":
        p.err("trailing input after term")
    return TermGraph({"main": term}, "main")


def parse_lambda_program(text: str):
    """Parse a pure-lambda program; returns ``(graph, flags_or_None)``."""
    defs, root, flags = _Parser(text).parse_program(lambdas_only=True)
    return TermGraph(defs, root), flags
