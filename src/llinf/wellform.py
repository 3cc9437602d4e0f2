"""Well-formation for the full and the 4S systems, with environment inference.

Both judgments are mixed formal systems: all rules are inductive except
the coinductive-box rule.  A preterm is a term when it has a derivation
in which every infinite branch crosses the coinductive rule infinitely
often.  On regular graphs the candidate derivation is syntax-directed
and deterministic (application splitting and the choice between the two
inductive-binder rules are resolved by occurrence analysis), so the
derivation's state space is the finite set of (subterm, environment)
pairs.  Acceptance then reduces to two checks over that state graph:

* no state fails a side condition, and
* every cycle crosses a coinductive-box edge, i.e. the subgraph of
  non-coinductive edges is acyclic.

Occurrences are counted by one pass over the bodies (``body_pass``),
the only walk of definition bodies here.  It gives the free variables of
every node, to split an application's environment; the counts of each
binder's own name in its body, to pick the 4S inductive-binder rule; and
a summary of each definition's free occurrences and references, by the
boxes above them.  Inference counts every variable at once
(``_root_sweep``): by capture-freedom a definition's own counts do not
depend on where it is entered (Courcelle, "Fundamental properties of
infinite trees", 1983), so the root's counts are each definition's own,
entered at a box class, times the number of reference paths from the
root that enter it there.

Every cycle and order question here goes through one routine,
``terms._sccs``, which emits strongly connected components sinks first
and which also solves the free variables of the definitions.  The
graphs number their states in the order they are found, so a graph
whose every edge leads to a higher number is acyclic; ``_sccs`` then
returns the states highest first and makes no search, and only other
graphs get an iterative Tarjan pass.  The root sweep counts the paths
to its (definition, class) states over the components, sources first.
The check takes the components of its state graph once: an inductive
loop lies inside a cyclic component, so it is looked for there only,
and the same components give the per-loop witnesses; the exact loop a
rejection reports comes from a separate search over the non-coinductive
edges, made only then, which ``lam.check_labc`` also uses for the pure
calculi.

The check's environments are interned (hash-consing: Filliâtre and
Conchon, "Type-safe modular hash-consing", 2006): a state is a node and
the id of its environment's contents, and an application whose
environment holds no variable of a strict kind passes it to both sides
as it is.

Pattern kinds:

==========  =======================  ==================================
kind        full system              4S system
==========  =======================  ==================================
``lin``     exactly one occurrence,  same
            outside all boxes
``ind``     unrestricted             --
``coind``   unrestricted             occurrences under >= 1 coinductive
                                     box
``dup``     --                       any number of occurrences, all
                                     outside boxes
``ind1``    --                       exactly one occurrence, under
                                     exactly one inductive box
``any``     --                       unrestricted
==========  =======================  ==================================
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import LLinfError
from .terms import (
    App, Box, Lam, Node, Ref, TermGraph, Var,
    COIND, IND,
    _cyclic, _sccs,
)
from . import surface

LLINF = "llinf"
LL4S = "4s"

KINDS = {
    LLINF: frozenset({"lin", "ind", "coind"}),
    LL4S: frozenset({"lin", "dup", "ind1", "coind", "any"}),
}

INF = math.inf


@dataclass(frozen=True)
class OccSummary:
    """Free occurrences of one variable, classified by enclosing boxes.

    Counts may be ``math.inf`` when a cycle pumps unboundedly many
    occurrences of the class.
    """

    linear: object      # no enclosing box
    ind_one: object     # exactly one inductive box, no coinductive
    deeper_ind: object  # >= 2 inductive boxes, no coinductive
    coind: object       # >= 1 coinductive box

    @property
    def under_coind(self) -> bool:
        return self.coind > 0

    @property
    def total(self):
        return self.linear + self.ind_one + self.deeper_ind + self.coind

    @property
    def infinite(self) -> bool:
        return self.total == INF


_CLS_LIN, _CLS_IND1, _CLS_IND2, _CLS_COIND = range(4)
# [class of entry][class within the body] -> class from the entry: a
# coinductive box on either side wins, inductive boxes add up to two
_ENTER = ((0, 1, 2, 3), (1, 2, 2, 3), (2, 2, 2, 3), (3, 3, 3, 3))


def occurrences(g: TermGraph, x: str, node: Node = None) -> OccSummary:
    """Classified free-occurrence counts of ``x`` at the root of ``g``,
    or in the body of a binder of ``x``.

    Both come from one :func:`body_pass`.  ``node`` is ``None`` or the
    root body for the root, where :func:`_root_sweep` sums the counts
    over the definitions entered at each box class; otherwise it must be
    the ``body`` of an abstraction of ``x`` in a definition of ``g``.
    Any other node raises ``ValueError``: the counts of a free variable
    of an arbitrary subterm are not computed.
    """
    bodies = body_pass(g)
    if node is None or g.resolve(node) is g.root_body():
        counts = _root_sweep(g, bodies).get(x, (0, 0, 0, 0))
    else:
        counts = bodies.own.get((id(node), x))
        if counts is None:
            raise ValueError(
                f"node is neither the root nor the body of a binder of {x!r}")
    return OccSummary(*counts)


def _root_sweep(g: TermGraph, bodies) -> dict:
    """Map from each free variable of the root to its 4-class counts.

    A state is a definition entered at a box class, starting from the
    root at ``lin``; its successors are the definition's references in
    ``bodies``, each entered at the class its boxes compose with the
    state's.  By capture-freedom no name bound above a reference is free
    in the referenced definition, so a definition counts the same
    wherever it is entered: the root's counts are each state's own
    counts, moved to the classes they compose to, times the number of
    reference paths from the root to the state.  The components are
    taken sources first, and a cyclic one gives its states, and so every
    state below, infinitely many paths.
    """
    summary = bodies.summary
    states = [(g.root, _CLS_LIN)]   # grows while it is read
    index = {states[0]: 0}
    succ = []
    for name, cls in states:
        enter = _ENTER[cls]
        row = []
        for ref, c in summary[name][1]:
            key = (ref, enter[c])
            j = index.get(key)
            if j is None:
                j = index[key] = len(states)
                states.append(key)
            row.append(j)
        succ.append(row)
    paths = [0] * len(states)
    paths[0] = 1
    for comp in reversed(_sccs(succ)):
        if _cyclic(comp, succ):
            for i in comp:
                paths[i] = INF
        for i in comp:
            p = paths[i]
            for j in succ[i]:
                paths[j] += p
    total = {}
    for (name, cls), p in zip(states, paths):
        enter = _ENTER[cls]
        for v, counts in summary[name][0].items():
            got = total.get(v)
            if got is None:
                got = total[v] = [0, 0, 0, 0]
            for c, k in enumerate(counts):
                if k:       # a zero stays zero: never INF * 0
                    got[enter[c]] += k * p
    return {v: tuple(k) for v, k in total.items()}


class BodyPass(NamedTuple):
    """What :func:`body_pass` finds in the definition bodies of a graph."""

    free: dict      # id(node) -> free variables of the node's unfolding
    own: dict       # (id(binder's body), binder's name) -> the name's 4-class
                    # counts in that body
    summary: dict   # definition name -> (free name -> its 4-class counts,
                    # [(referenced name, class)]), classed as if entered
                    # at ``lin``, in preorder, function side first


def body_pass(g: TermGraph) -> BodyPass:
    """One iterative pass over each definition body of ``g``; references
    are not followed.

    A reference's free variables are its definition's.  A binder counts
    the occurrences of its own name in its body tree, classified by the
    boxes between: by capture-freedom no definition referenced beneath
    the binder has the name free, so these are all its occurrences in
    the unfolding, and they are finitely many.  A definition's summary
    classes its free occurrences and its references alike, by the boxes
    above them.
    """
    def_fvs = g.def_free_vars()
    free = {}
    own = {}
    summary = {}
    scope = {}      # name -> [c_lin, c_ind1, c_ind2, c_coind, ind, coind]
                    # per binder of the name in scope, innermost last
    for name, body in g.defs.items():
        counts = {}
        refs = []
        todo = [(body, 0, 0)]   # (node, inductive boxes, coinductive boxes)
        while todo:
            n, ind, co = todo.pop()
            t = type(n)
            if ind < 0:         # leaving n: its children are done
                if t is App:
                    f = free[id(n.fn)]
                    a = free[id(n.arg)]
                    if len(a) > len(f):
                        f, a = a, f
                    free[id(n)] = f if a <= f else f | a
                elif t is Box:
                    free[id(n)] = free[id(n.body)]
                else:
                    binders = scope[n.name]
                    rec = binders.pop()
                    if not binders:
                        del scope[n.name]
                    own[(id(n.body), n.name)] = tuple(rec[:4])
                    got = free[id(n.body)]
                    free[id(n)] = got - {n.name} if n.name in got else got
                continue
            if t is Var:
                binders = scope.get(n.name)
                if binders:
                    rec = binders[-1]
                    if co > rec[5]:
                        rec[_CLS_COIND] += 1
                    else:
                        rec[min(ind - rec[4], _CLS_IND2)] += 1
                else:
                    counts.setdefault(n.name, [0, 0, 0, 0])[
                        _CLS_COIND if co else min(ind, _CLS_IND2)] += 1
                free[id(n)] = frozenset((n.name,))
            elif t is Ref:
                refs.append((n.name, _CLS_COIND if co else min(ind, _CLS_IND2)))
                free[id(n)] = def_fvs[n.name]
            elif t is App:
                todo.append((n, -1, 0))
                todo.append((n.arg, ind, co))
                todo.append((n.fn, ind, co))
            elif t is Lam:
                scope.setdefault(n.name, []).append([0, 0, 0, 0, ind, co])
                todo.append((n, -1, 0))
                todo.append((n.body, ind, co))
            elif t is Box:
                todo.append((n, -1, 0))
                if n.kind == COIND:
                    todo.append((n.body, ind, co + 1))
                else:
                    todo.append((n.body, ind + 1, co))
            else:
                raise TypeError(f"not a node: {n!r}")
        summary[name] = ({v: tuple(k) for v, k in counts.items()}, refs)
    return BodyPass(free, own, summary)


# ---------------------------------------------------------------------------
# the checker

@dataclass
class CheckReport:
    """Outcome of a well-formation check.

    On acceptance, ``states`` is the number of distinct (subterm,
    environment) states of the derivation and ``loops`` describes each
    strongly connected component together with a coinductive crossing
    justifying its cycles.  On rejection, ``failure_path`` leads from the
    root judgment to the violated side condition, or ``cycle`` lists an
    inductive-only loop.
    """

    accepted: bool
    system: str
    reason: str = ""
    failure_path: tuple = ()
    cycle: tuple = ()
    states: int = 0
    loops: tuple = ()

    def __bool__(self):
        return self.accepted

    def summary(self) -> str:
        if self.accepted:
            return f"accepted ({self.states} states, {len(self.loops)} loops)"
        lines = [f"rejected: {self.reason}"]
        for step in self.failure_path:
            lines.append(f"  at {step}")
        if self.cycle:
            lines.append("  loop:")
            for step in self.cycle:
                lines.append(f"    {step}")
        return "\n".join(lines)


class _Fail(LLinfError):
    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


def _describe(node, env):
    txt = surface.format_prefix(node, 49)
    if len(txt) > 48:
        txt = txt[:45] + "..."
    return f"{surface.format_environment(env) or chr(0x2205)} |- {txt}"


_STRICT = {LLINF: frozenset({"lin"}), LL4S: frozenset({"lin", "ind1"})}
_WORD = {"lin": "linear", "ind1": "ind-one"}   # strict kinds in messages
_BOX_RENAME = {IND: {"ind1": "lin"}, COIND: {"coind": "any"}}


class _Envs:
    """The environments of one check, interned.

    An environment is an index into ``dicts``; each rule that derives
    one adds a dict.  An application passes its environment on as it is
    to both sides when it holds no strict variable (a variable of a kind
    used exactly once: ``lin``, and ``ind1`` in 4S), and to the side
    that takes all of them otherwise.  ``content`` ids key the
    derivation states: equal environments share one, whatever route
    built them.  A state still reads the dict it was found with, whose
    order decides which variable a failure names: each rule scans its
    environment in order and names the first variable that breaks it.
    """

    def __init__(self, strict_kinds):
        self.kinds = strict_kinds
        self.dicts = []
        self.content = []
        self.strict = []        # index -> whether a variable has a strict kind
        self._contents = {}     # frozenset of items -> content id

    def add(self, d):
        self.dicts.append(d)
        self.content.append(self._contents.setdefault(
            frozenset(d.items()), len(self._contents)))
        self.strict.append(not self.kinds.isdisjoint(d.values()))
        return len(self.dicts) - 1

    def strict_vars(self, e):
        """The (name, kind) pairs of ``e`` with a strict kind, in order."""
        if not self.strict[e]:
            return ()
        kinds = self.kinds
        return [(v, k) for v, k in self.dicts[e].items() if k in kinds]

    def extend(self, e, name, kind):
        d = self.dicts[e]
        if d.get(name) == kind:
            return e
        d = dict(d)
        d[name] = kind
        return self.add(d)

    def restrict(self, e, box_kind):
        """``e`` under a 4S box: duplicable variables dropped, ``ind1``
        made linear under an inductive box and ``coind`` made ``any``
        under a coinductive one.  The caller checks the strict kinds."""
        rename = _BOX_RENAME[box_kind]
        d = self.dicts[e]
        kept = {v: rename.get(k, k) for v, k in d.items() if k != "dup"}
        return e if kept == d else self.add(kept)

    def split(self, e, free_f, free_a):
        """The environments of an application's function and argument:
        a variable of a strict kind goes to the one side where it is
        free, any other variable to both."""
        if not self.strict[e]:
            return e, e
        kinds = self.kinds
        d = self.dicts[e]
        env_f = {}
        env_a = {}
        for v, k in d.items():
            if k in kinds:
                in_f = v in free_f
                if in_f == (v in free_a):
                    raise _Fail(f"{_WORD[k]} variable {v!r} occurs in both sides "
                                "of an application" if in_f
                                else f"{_WORD[k]} variable {v!r} is unused")
                (env_f if in_f else env_a)[v] = k
            else:
                env_f[v] = env_a[v] = k
        return (e if len(env_f) == len(d) else self.add(env_f),
                e if len(env_a) == len(d) else self.add(env_a))


def _app_premises(bodies, envs, node, e):
    env_f, env_a = envs.split(e, bodies.free[id(node.fn)], bodies.free[id(node.arg)])
    return (node.fn, env_f), (node.arg, env_a)


def _expand_llinf(bodies, envs, node, e):
    """The premises of the rule for ``node`` under environment ``e``, as
    (child, environment) pairs."""
    t = type(node)
    if t is App:
        return _app_premises(bodies, envs, node, e)
    if t is Lam:
        if envs.dicts[e].get(node.name) == "lin":
            # the binder shadows it: nothing below can use it
            raise _Fail(f"linear variable {node.name!r} is unused")
        return ((node.body, envs.extend(e, node.name, node.kind)),)
    if t is Box:
        for v, _ in envs.strict_vars(e):
            raise _Fail(f"linear variable {v!r} cannot occur under a box")
        return ((node.body, e),)
    if t is Var:
        x = node.name
        if x not in envs.dicts[e]:
            raise _Fail(f"free variable {x!r} has no pattern in the environment")
        for v, _ in envs.strict_vars(e):
            if v != x:
                raise _Fail(f"linear variable {v!r} is unused")
        return ()
    raise TypeError(f"unexpected node {node!r}")


def _expand_ll4s(bodies, envs, node, e):
    t = type(node)
    if t is App:
        return _app_premises(bodies, envs, node, e)
    if t is Lam:
        x, b, bind = node.name, node.body, node.kind
        k = envs.dicts[e].get(x)
        if k in envs.kinds:
            # the binder shadows it: nothing below can use it
            raise _Fail(f"{_WORD[k]} variable {x!r} is unused")
        if bind == IND:
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
        return ((b, envs.extend(e, x, bind)),)
    if t is Box:
        for v, k in envs.strict_vars(e):
            if k == "lin":
                raise _Fail(f"linear variable {v!r} cannot occur under a box")
            if node.kind == COIND:
                raise _Fail(
                    f"ind-one variable {v!r} cannot occur under a coinductive box")
        return ((node.body, envs.restrict(e, node.kind)),)
    if t is Var:
        x = node.name
        k = envs.dicts[e].get(x)
        if k is None:
            raise _Fail(f"free variable {x!r} has no pattern in the environment")
        if k == "coind":
            raise _Fail(
                f"coinductive variable {x!r} occurs outside every coinductive box")
        if k == "ind1":
            raise _Fail(
                f"ind-one variable {x!r} occurs outside its inductive box")
        for v, kv in envs.strict_vars(e):
            if v != x:
                raise _Fail(f"{_WORD[kv]} variable {v!r} is unused")
        return ()
    raise TypeError(f"unexpected node {node!r}")


def check(system: str, env: dict, g: TermGraph, bodies=None) -> CheckReport:
    """Decide the well-formation judgment ``env |- g`` for one system.
    ``bodies`` is the :func:`body_pass` of ``g``, made here when not
    given."""
    bad = set(env.values()) - KINDS[system]
    if bad:
        raise ValueError(f"pattern kinds {sorted(bad)} are not valid for {system}")
    if bodies is None:
        bodies = body_pass(g)
    expand = _expand_llinf if system == LLINF else _expand_ll4s
    envs = _Envs(_STRICT[system])
    content = envs.content
    defs = g.defs

    root = g.resolve(g.root_body())
    e = envs.add(dict(env))
    nodes = [root]      # state -> its subterm
    at = [e]            # state -> its environment
    succ = [None]       # state -> its premises' states
    parent = [None]     # state -> the state that found it
    index = {(id(root), content[e]): 0}

    def describe(i):
        return _describe(nodes[i], envs.dicts[at[i]])

    todo = [0]
    while todo:
        i = todo.pop()
        try:
            premises = expand(bodies, envs, nodes[i], at[i])
        except _Fail as f:
            path = []
            while i is not None:
                path.append(describe(i))
                i = parent[i]
            return CheckReport(False, system, reason=f.reason,
                               failure_path=tuple(reversed(path)),
                               states=len(nodes))
        row = []
        for child, e in premises:
            if type(child) is Ref:
                child = defs[child.name]
            key = (id(child), content[e])
            j = index.get(key)
            if j is None:
                j = index[key] = len(nodes)
                nodes.append(child)
                at.append(e)
                succ.append(None)
                parent.append(i)
                todo.append(j)
            row.append(j)
        succ[i] = row

    loops = [comp for comp in _sccs(succ) if _cyclic(comp, succ)]
    if not loops:
        return CheckReport(True, system, states=len(nodes))
    crossing = [type(n) is Box and n.kind == COIND for n in nodes]
    if _inductive_loop(loops, succ, crossing):
        cycle = _inductive_cycle([[(j, crossing[i]) for j in row]
                                  for i, row in enumerate(succ)])
        return CheckReport(
            False, system,
            reason="inductive loop: a cycle of the derivation crosses no "
                   "coinductive box",
            cycle=tuple(map(describe, cycle)), states=len(nodes))
    return CheckReport(True, system, states=len(nodes),
                       loops=_loop_witness(loops, succ, crossing, describe))


def _inductive_loop(comps, succ, crossing):
    """Whether the non-coinductive edges inside one of the components
    ``comps`` close a cycle.  Any cycle lies inside one component.  Its
    states are taken in index order, so that when only coinductive edges
    lead back the components' own pass makes no search."""
    for comp in comps:
        members = sorted(comp)
        local = {v: k for k, v in enumerate(members)}
        inner = [() if crossing[v] else [local[w] for w in succ[v] if w in local]
                 for v in members]
        if any(_cyclic(c, inner) for c in _sccs(inner)):
            return True
    return False


def _inductive_cycle(out_edges):
    """A closed walk (first state == last) over non-coinductive edges,
    or None when those edges form no cycle.

    The walk is the cycle a depth-first search from states 0, 1, ... in
    edge order meets first: from the least state that reaches a cycle,
    follow each state's first edge to a state that reaches one until a
    state repeats.
    """
    succ = [[c for c, mc in edges if not mc] for edges in out_edges]
    live = [False] * len(succ)   # reaches a cycle
    for comp in _sccs(succ):
        hit = _cyclic(comp, succ) or any(live[w] for w in succ[comp[0]])
        for v in comp:
            live[v] = hit
    v = next((v for v, hit in enumerate(live) if hit), None)
    if v is None:
        return None
    walk, seen = [], {}
    while v not in seen:
        seen[v] = len(walk)
        walk.append(v)
        v = next(w for w in succ[v] if live[w])
    return walk[seen[v]:] + [v]


def _loop_witness(loops, succ, crossing, describe):
    """Per cyclic component of an accepted derivation's state graph, its
    size and its first state with a coinductive edge inside: every cycle
    of an accepted derivation crosses one."""
    witness = []
    for comp in loops:
        members = set(comp)
        v = next(v for v in comp if crossing[v] and succ[v][0] in members)
        witness.append({"size": len(comp), "coinductive_crossing": describe(v)})
    return tuple(witness)


def check_llinf(env: dict, g: TermGraph) -> CheckReport:
    return check(LLINF, env, g)


def check_ll4s(env: dict, g: TermGraph) -> CheckReport:
    return check(LL4S, env, g)


# ---------------------------------------------------------------------------
# environment inference and the precedence order

def infer_env(system: str, g: TermGraph):
    """Least-committal environment accepting the term, or None.

    Kinds are picked per variable from its occurrence summary (linear
    preferred, then the most specific 4S kind), then verified by a full
    check.  One :func:`body_pass` serves the sweep and the check.
    """
    bodies = body_pass(g)
    counts = _root_sweep(g, bodies)
    env = {}
    for x in sorted(g.free_vars()):
        occ = OccSummary(*counts[x])
        if occ.total == 1 and occ.linear == 1:
            env[x] = "lin"
        elif system == LLINF:
            env[x] = "ind"
        elif occ.ind_one == 0 and occ.deeper_ind == 0 and occ.coind == 0:
            env[x] = "dup"
        elif (occ.linear, occ.ind_one, occ.deeper_ind, occ.coind) == (0, 1, 0, 0):
            env[x] = "ind1"
        elif occ.linear == 0 and occ.ind_one == 0 and occ.deeper_ind == 0:
            env[x] = "coind"
        else:
            env[x] = "any"
    return env if check(system, env, g, bodies) else None


def env_precedes(gamma: dict, delta: dict) -> bool:
    """True iff ``delta`` replaces some ind-one patterns of ``gamma`` by
    duplicable patterns (the environment order of the 4S system)."""
    if set(gamma) != set(delta):
        return False
    for x, k in gamma.items():
        dk = delta[x]
        if dk == k:
            continue
        if k == "ind1" and dk == "dup":
            continue
        return False
    return True


def preceding_variants(gamma: dict):
    """All environments Delta with ``env_precedes(gamma, delta)``."""
    ind1 = [x for x, k in gamma.items() if k == "ind1"]
    for mask in range(1 << len(ind1)):
        d = dict(gamma)
        for i, x in enumerate(ind1):
            if mask >> i & 1:
                d[x] = "dup"
        yield d
