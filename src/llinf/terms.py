"""Regular infinitary preterms as finite systems of guarded equations.

A preterm is built from seven constructors: variables, applications,
three kinds of abstraction (linear ``\\x``, inductive ``\\!x``, coinductive
``\\#x``) and two kinds of box (inductive ``!M``, coinductive ``#M``).
Possibly infinite preterms are represented here by a :class:`TermGraph`:
a finite map from definition names to bodies, where bodies may contain
``Ref`` back-references.  The denoted (infinite) tree is the unfolding
of the root definition.

Three structural invariants are checked where terms enter (reduction
keeps them by construction, see :func:`derive`):

* every referenced name is defined exactly once;
* no definition body is a bare reference, so every reference cycle
  crosses at least one constructor (guardedness);
* no reference occurs beneath a binder whose bound name is free in the
  referenced body (capture-freedom).

Capture-freedom gives a global property used throughout the package:
free variables of a definition are free in the whole unfolding, and a
binder never scopes across a definition boundary.

The depth of a position is the number of coinductive boxes above it;
inductive boxes do not count.
"""

from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import NamedTuple

from .errors import (
    BudgetExceededError,
    CaptureError,
    DefinitionError,
    GuardednessError,
)

# Abstraction / box kinds.
LIN = "lin"
IND = "ind"
COIND = "coind"

# Position selectors (paths through the unfolding; Ref crossings are
# transparent and contribute no selector).
FN = "fn"
ARG = "arg"
BODY = "body"
BOXED = "box"

DEFAULT_BUDGET = 100_000


class _Hashed:
    """Stands for a value whose hash is already known."""

    __slots__ = ("h",)

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def _tree_item(v):
    return v if isinstance(v, (Tree, tuple)) else repr(v)


class Tree:
    """``==``, ``hash`` and ``repr`` of a frozen dataclass tree with the
    results of the dataclass-generated methods, without recursion.

    A field holds a leaf, a tree or a tuple of them; ``__match_args__``
    names the fields, as the dataclass decorator makes it.  Subclasses
    are decorated with ``eq=False, repr=False`` so that these methods
    are the ones used.
    """

    __slots__ = ()

    def _fields(self):
        return [getattr(self, f) for f in self.__match_args__]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if isinstance(a, Tree):
                if b.__class__ is not a.__class__:
                    return False
                todo += zip(a._fields(), b._fields())
            elif type(a) is tuple and type(b) is tuple:
                if len(a) != len(b):
                    return False
                todo += zip(a, b)
            elif not a == b:
                return False
        return True

    def __hash__(self):
        # hash((f1, f2, ...)) only reads hash() of each field, so a tuple
        # of _Hashed child hashes gives the same value
        def visit(v, _):
            if isinstance(v, Tree):
                parts = v._fields()
            elif type(v) is tuple:
                parts = v
            else:
                return hash(v), None
            return (lambda *hs: hash(tuple(map(_Hashed, hs)))), \
                [(p, None) for p in parts]

        return rebuild(self, None, visit)

    def __repr__(self):
        out = []
        todo = [self]       # literal chunks, and trees and tuples to expand
        while todo:
            v = todo.pop()
            if type(v) is str:
                out.append(v)
                continue
            if isinstance(v, Tree):
                chunks = [f"{type(v).__qualname__}("]
                for i, (f, x) in enumerate(zip(v.__match_args__, v._fields())):
                    chunks += (f"{', ' if i else ''}{f}=", _tree_item(x))
                chunks.append(")")
            else:
                chunks = ["("]
                for i, x in enumerate(v):
                    chunks += (", " if i else "", _tree_item(x))
                chunks.append(",)" if len(v) == 1 else ")")
            todo += reversed(chunks)
        return "".join(out)


_node = dataclass(frozen=True, eq=False, repr=False)


@_node
class Node(Tree):
    """Base class of preterm tree nodes."""

    __slots__ = ()


@_node
class Var(Node):
    __slots__ = ("name",)
    name: str

    def __init__(self, name):
        _var_name(self, name)


@_node
class App(Node):
    __slots__ = ("fn", "arg")
    fn: Node
    arg: Node

    def __init__(self, fn, arg):
        _app_fn(self, fn)
        _app_arg(self, arg)


@_node
class Lam(Node):
    """Abstraction; ``kind`` is one of ``lin``, ``ind``, ``coind``."""

    __slots__ = ("kind", "name", "body")
    kind: str
    name: str
    body: Node

    def __init__(self, kind, name, body):
        _lam_kind(self, kind)
        _lam_name(self, name)
        _lam_body(self, body)


@_node
class Box(Node):
    """Box; ``kind`` is ``ind`` or ``coind``."""

    __slots__ = ("kind", "body")
    kind: str
    body: Node

    def __init__(self, kind, body):
        _box_kind(self, kind)
        _box_body(self, body)


@_node
class Ref(Node):
    __slots__ = ("name",)
    name: str

    def __init__(self, name):
        _ref_name(self, name)


# The constructors above write each slot through its member descriptor,
# where the generated ones call object.__setattr__, which looks the
# field up by name; assignment still raises FrozenInstanceError.
_var_name = Var.name.__set__
_app_fn = App.fn.__set__
_app_arg = App.arg.__set__
_lam_kind = Lam.kind.__set__
_lam_name = Lam.name.__set__
_lam_body = Lam.body.__set__
_box_kind = Box.kind.__set__
_box_body = Box.body.__set__
_ref_name = Ref.name.__set__


@_node
class Cut(Node):
    """Truncation marker in finite approximants (never occurs in graphs)."""

    __slots__ = ()


CUT = Cut()


def children(node: Node) -> tuple:
    """The child nodes of ``node``, function side first."""
    t = type(node)
    if t is App:
        return (node.fn, node.arg)
    return (node.body,) if t is Lam or t is Box else ()


def remake(node: Node, *kids) -> Node:
    """``node`` with the given children, or ``node`` itself when they are
    its own, so that unchanged subtrees stay shared."""
    t = type(node)
    if t is App:
        f, a = kids
        return node if f is node.fn and a is node.arg else App(f, a)
    if t is Lam:
        (b,) = kids
        return node if b is node.body else Lam(node.kind, node.name, b)
    if t is Box:
        (b,) = kids
        return node if b is node.body else Box(node.kind, b)
    return node


_BUILD = object()       # marks in rebuild's stack where a node is built


def rebuild(root, ctx, visit):
    """Map a tree bottom-up with an explicit stack instead of recursion.

    ``visit(node, ctx)`` runs on each node in preorder and returns either
    ``(value, None)``, the node's value, or ``(build, [(child, child_ctx),
    ...])``: the children are then mapped in order, and ``build`` applied
    to their values gives the node's value.  Returns the root's value.
    """
    vals = []
    builds = []         # (build, number of children) of the visited nodes
    todo = [(root, ctx)]
    while todo:
        item = todo.pop()
        if item is _BUILD:
            build, n = builds.pop()
            at = len(vals) - n
            vals[at:] = [build(*vals[at:])]
            continue
        value, kids = visit(*item)
        if kids is None:
            vals.append(value)
        else:
            builds.append((value, len(kids)))
            todo.append(_BUILD)
            todo += reversed(kids)
    return vals[0]


class TermGraph:
    """An immutable system of named, guarded equations plus a root name."""

    __slots__ = ("defs", "root", "_fvs", "_refs", "_referenced", "_names")

    def __init__(self, defs, root, _validate=True):
        self.defs = dict(defs)
        self.root = root
        self._fvs = None
        self._refs = None
        self._referenced = None
        self._names = None
        if _validate:
            _validate_graph(self)

    def root_body(self) -> Node:
        return self.defs[self.root]

    def resolve(self, node: Node) -> Node:
        """Chase Ref indirections (at most one step: bodies are never refs)."""
        while isinstance(node, Ref):
            node = self.defs[node.name]
        return node

    def def_free_vars(self):
        """Free variables of each definition's unfolding (cached), solved
        in one pass over the components of the reference graph, sinks
        first (:func:`_solve_fvs`)."""
        if self._fvs is None:
            self._fvs = _solve_fvs({name: _scan_body(body)
                                    for name, body in self.defs.items()})
        return self._fvs

    def free_vars(self) -> frozenset:
        return self.def_free_vars()[self.root]

    def node_free_vars(self, node: Node) -> frozenset:
        """Free variables of an arbitrary subterm of this graph."""
        scan = _scan_body(node)
        return _scan_fvs(scan.refs, scan.free, self.def_free_vars())

    def refs_of(self, name) -> frozenset:
        """Names referenced by the body of definition ``name`` (cached;
        validation fills the cache)."""
        if self._refs is None:
            self._refs = {}
        got = self._refs.get(name)
        if got is None:
            got = self._refs[name] = _scan_body(self.defs[name]).refs
        return got

    def referenced(self) -> frozenset:
        """Names referenced by the body of some definition (cached)."""
        if self._referenced is None:
            self._referenced = frozenset().union(*map(self.refs_of, self.defs))
        return self._referenced

    def all_names(self) -> frozenset:
        """Every identifier in use: definition names plus variable names
        (cached; validation fills the cache).  A call that names binders
        or definitions anew reserves them in a set of its own, made from
        this one."""
        if self._names is None:
            names = set(self.defs)
            for body in self.defs.values():
                names |= _scan_body(body).names
            self._names = frozenset(names)
        return self._names

    def reachable_defs(self):
        """Names of definitions reachable from the root, in discovery
        order, from the reference sets of :meth:`refs_of`."""
        seen = []
        seen_set = set()
        todo = [self.root]
        while todo:
            name = todo.pop()
            if name in seen_set:
                continue
            seen_set.add(name)
            seen.append(name)
            todo.extend(sorted(self.refs_of(name), reverse=True))
        return seen

    def pruned(self) -> "TermGraph":
        """Drop definitions unreachable from the root (the caches of the
        definitions carry over); ``self`` when every definition is
        reachable."""
        keep = set(self.reachable_defs())
        if len(keep) == len(self.defs):
            return self
        out = TermGraph({n: b for n, b in self.defs.items() if n in keep},
                        self.root, _validate=False)
        if self._fvs is not None:
            out._fvs = {n: self._fvs[n] for n in out.defs}
        if self._refs is not None:
            out._refs = {n: r for n, r in self._refs.items() if n in keep}
        return out

    def __repr__(self):
        return f"TermGraph(root={self.root!r}, defs={sorted(self.defs)})"


def graph_of(node: Node, name="main", extra_defs=None) -> TermGraph:
    """Wrap a (Ref-free or Ref-using) body node as a graph."""
    defs = dict(extra_defs) if extra_defs else {}
    defs[name] = node
    return TermGraph(defs, name)


def free_vars(g: TermGraph) -> frozenset:
    return g.free_vars()


# ---------------------------------------------------------------------------
# validation

class _Scan(NamedTuple):
    """What one pass over a body tree finds (:func:`_scan_body`)."""

    refs: frozenset     # names of the definitions referenced
    names: set          # variable and binder names
    free: set           # free variables, not counting those of references
    guards: list        # (ref, names bound above it) per reference, in preorder


def _scan_body(node) -> _Scan:
    """One iterative preorder pass over a body tree; references are not
    followed."""
    refs = set()
    names = set()       # binder names; the free variables join at the end
    free = set()
    guards = []
    bound = {}          # binder name -> number of its binders above the visit
    todo = [node]
    while todo:
        n = todo.pop()
        t = type(n)
        if t is App:
            todo.append(n.arg)
            todo.append(n.fn)
        elif t is Var:
            if n.name not in bound:
                free.add(n.name)
        elif t is Lam:
            v = n.name
            names.add(v)
            bound[v] = bound.get(v, 0) + 1
            todo.append(v)          # leaves the binder's scope
            todo.append(n.body)
        elif t is str:
            if bound[n] == 1:
                del bound[n]
            else:
                bound[n] -= 1
        elif t is Box:
            todo.append(n.body)
        elif t is Ref:
            refs.add(n.name)
            guards.append((n.name, frozenset(bound)))
        elif t is not Cut:
            raise TypeError(f"not a node: {n!r}")
    # a bound variable's name is its binder's
    return _Scan(frozenset(refs), names | free, free, guards)


def _scan_fvs(refs, free, fvs) -> frozenset:
    """``free`` plus the free variables ``fvs`` of the definitions in
    ``refs``, none of which is bound above its reference (capture-freedom)."""
    return frozenset(free.union(*[fvs[r] for r in refs]))


def _solve_fvs(scans) -> dict:
    """Free variables of every definition, one pass over the components
    of the reference graph of the scanned bodies, sinks first: a
    component's definitions share the union of their bodies' free
    variables and their successors' sets."""
    names = list(scans)
    at = {name: i for i, name in enumerate(names)}
    # a self-reference adds nothing; left out, a root-first system needs no search
    succ = [[at[r] for r in s.refs if r != name] for name, s in scans.items()]
    fvs = [s.free for s in scans.values()]     # the body's own until solved
    for comp in _sccs(succ):
        got = frozenset().union(*[fvs[i] for i in comp],
                                *[fvs[j] for i in comp for j in succ[i]])
        for i in comp:
            fvs[i] = got
    return dict(zip(names, fvs))


def _sccs(succ):
    """Strongly connected components of the graph on ``0..len(succ)-1``
    with successor lists ``succ``, each emitted after every component it
    reaches.

    A graph whose every edge goes from a lower to a higher index is
    acyclic: its components are its states, highest first, and no
    search is made.  Otherwise Tarjan's pass (1972, iterative) takes
    roots and edges in order and emits each component's states in
    stack-pop order.
    """
    n = len(succ)
    if all(v < w for v, row in enumerate(succ) for w in row):
        return [[v] for v in range(n - 1, -1, -1)]
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
    """Whether the component ``comp`` of :func:`_sccs` holds a cycle."""
    return len(comp) > 1 or comp[0] in succ[comp[0]]


def _validate_graph(g):
    if g.root not in g.defs:
        raise DefinitionError(f"root {g.root!r} is not defined")
    scans = {}
    for name, body in g.defs.items():
        if not isinstance(body, Node):
            raise DefinitionError(f"definition {name!r} is not a term")
        scans[name] = _scan_body(body)
        for ref in scans[name].refs:
            if ref not in g.defs:
                raise DefinitionError(
                    f"definition {name!r} references undefined {ref!r}")
    # Guardedness: a bare-reference body would let a reference cycle cross
    # zero constructors.
    for name, body in g.defs.items():
        if isinstance(body, Ref):
            chain = [name]
            cur = body
            while isinstance(cur, Ref) and cur.name not in chain:
                chain.append(cur.name)
                cur = g.defs[cur.name]
            if isinstance(cur, Ref):
                chain.append(cur.name)
            raise GuardednessError(
                "unguarded definition: " + " -> ".join(chain), cycle=chain)
    # Variable and definition names share the surface namespace; keeping
    # them disjoint makes printing/parsing a faithful round trip.
    for name, scan in scans.items():
        clash = scan.names & g.defs.keys()
        if clash:
            raise DefinitionError(
                f"variable {sorted(clash)[0]!r} in definition {name!r} "
                "collides with a definition name")
    g._fvs = fvs = _solve_fvs(scans)
    g._refs = {name: scan.refs for name, scan in scans.items()}
    g._names = frozenset(g.defs).union(*[scan.names for scan in scans.values()])
    for name, scan in scans.items():
        for ref, bound in scan.guards:
            bad = bound & fvs[ref]
            if bad:
                binder = min(bad)
                raise CaptureError(
                    f"in definition {name!r}, reference to {ref!r} occurs "
                    f"beneath binder {binder!r} which is free in {ref!r}",
                    binder=binder, ref=ref)


def derive(g: TermGraph, name, body) -> TermGraph:
    """``g`` with root ``name`` defined as ``body``, built unchecked from
    ``g``'s caches and one scan of ``body``.

    Precondition: ``body`` is made from ``g``'s bodies by
    capture-avoiding steps, so that its references lead to ``g``'s
    definitions, none beneath a binder free in it; ``name`` is ``g``'s
    unreferenced root, or a name fresh in ``g``.  The result is then
    valid, and the other definitions keep their caches.
    """
    scan = _scan_body(body)
    fvs = g.def_free_vars()
    out = TermGraph({**g.defs, name: body}, name, _validate=False)
    out._fvs = {**fvs, name: _scan_fvs(scan.refs, scan.free, fvs)}
    out._refs = {**(g._refs or {}), name: scan.refs}
    return out


# ---------------------------------------------------------------------------
# finite approximants

def project_depth(g: TermGraph, depth: int, budget: int = DEFAULT_BUDGET) -> Node:
    """The sub-tree of the unfolding holding every node at depth <= depth.

    Contents of coinductive boxes sitting at the depth bound are replaced
    by ``Cut``.  Terminates whenever the bounded region is finite; raises
    :class:`BudgetExceededError` after visiting ``budget`` nodes otherwise.
    Iterative: the region of an ill-formed preterm can be an arbitrarily
    deep spine.  Subtrees it leaves unchanged are shared with the graph's
    bodies, as :func:`remake` shares them.
    """
    defs = g.defs
    vals = []           # values of the visited subtrees
    todo = [(g.root_body(), depth)]
    visited = 0
    while todo:
        n, rd = todo.pop()
        if rd is None:
            # rebuild n from its children's values
            if type(n) is App:
                a = vals.pop()
                f = vals.pop()
                vals.append(n if f is n.fn and a is n.arg else App(f, a))
            else:
                b = vals.pop()
                if b is n.body:
                    vals.append(n)
                elif type(n) is Lam:
                    vals.append(Lam(n.kind, n.name, b))
                else:
                    vals.append(Box(n.kind, b))
            continue
        # visit n; rd is the depth left below it
        visited += 1
        if visited > budget:
            raise BudgetExceededError(
                f"depth-{depth} region exceeds {budget} nodes "
                "(preterm is not well-formed)")
        while type(n) is Ref:
            n = defs[n.name]
        t = type(n)
        if t is App:
            todo.append((n, None))
            todo.append((n.arg, rd))
            todo.append((n.fn, rd))
        elif t is Lam or t is Box:
            if t is Box and n.kind == COIND:
                if not rd:
                    vals.append(Box(COIND, CUT))
                    continue
                rd -= 1
            todo.append((n, None))
            todo.append((n.body, rd))
        elif t is Cut:
            raise TypeError(f"unexpected node {n!r}")
        else:
            vals.append(n)
    return vals[0]


# ---------------------------------------------------------------------------
# equality

def canonical_string(tree: Node) -> str:
    """Canonical (alpha-invariant) rendering of a finite tree, in prefix
    form: a bound variable is named by the number of binders above its
    own, and a reference by its name, not followed, so a node over a
    graph's definitions is rendered up to its references."""
    parts = []
    bound = {}      # binder name -> levels of its binders above the visit
    level = 0       # binders above the visit
    todo = [tree]
    while todo:
        n = todo.pop()
        t = type(n)
        if t is App:
            parts.append("@")
            todo.append(n.arg)
            todo.append(n.fn)
        elif t is Var:
            levels = bound.get(n.name)
            parts.append(f"b{levels[-1]}" if levels else f"f:{n.name}")
        elif t is Lam:
            parts.append(f"\\{n.kind}")
            bound.setdefault(n.name, []).append(level)
            level += 1
            todo.append((n.name,))      # leaves the binder's scope
            todo.append(n.body)
        elif t is tuple:
            bound[n[0]].pop()
            level -= 1
        elif t is Box:
            parts.append(f"{n.kind[0]}#")
            todo.append(n.body)
        elif t is Ref:
            parts.append(f"r:{n.name}")
        elif t is Cut:
            parts.append("?")
        else:
            raise TypeError(f"unexpected node {n!r}")
    return " ".join(parts)


def alpha_equal(t1: Node, t2: Node) -> bool:
    """Alpha-equivalence of finite trees."""
    return canonical_string(t1) == canonical_string(t2)


def equal_at_depth(g1: TermGraph, g2: TermGraph, depth: int,
                   budget: int = DEFAULT_BUDGET) -> bool:
    """Observational equality: alpha-equal depth projections."""
    return alpha_equal(project_depth(g1, depth, budget),
                       project_depth(g2, depth, budget))


def _debruijn(g):
    """Per-definition de Bruijn conversion (binders never cross defs)."""
    def visit(node, scope):
        env, lvl = scope
        t = type(node)
        if t is Var:
            i = env.get(node.name)
            return (("fv", node.name) if i is None else ("bv", lvl - 1 - i)), None
        if t is App:
            return ((lambda f, a: ("app", f, a)),
                    [(node.fn, scope), (node.arg, scope)])
        if t is Lam:
            return ((lambda b, k=node.kind: ("lam", k, b)),
                    [(node.body, ({**env, node.name: lvl}, lvl + 1))])
        if t is Box:
            return (lambda b, k=node.kind: ("box", k, b)), [(node.body, scope)]
        if t is Ref:
            return ("ref", node.name), None
        raise TypeError(f"unexpected node {node!r}")

    return {name: rebuild(body, ({}, 0), visit)
            for name, body in g.defs.items()}


def graph_bisimilar(g1: TermGraph, g2: TermGraph) -> bool:
    """Alpha-bisimilarity of the denoted regular trees.

    Decided by a memoised pairwise traversal of the de Bruijn forms:
    a revisited pair is assumed equal, which is sound for the greatest
    fixpoint.  State space is finite since each side ranges over the
    (finitely many) subterms of its converted definitions.
    """
    d1 = _debruijn(g1)
    d2 = _debruijn(g2)

    def resolve(d, n):
        while n[0] == "ref":
            n = d[n[1]]
        return n

    seen = set()
    todo = [(d1[g1.root], d2[g2.root])]
    while todo:
        a, b = todo.pop()
        a = resolve(d1, a)
        b = resolve(d2, b)
        key = (id(a), id(b))
        if key in seen:
            continue
        seen.add(key)
        if a[0] != b[0]:
            return False
        match a[0]:
            case "bv" | "fv":
                if a != b:
                    return False
            case "app":
                todo.append((a[1], b[1]))
                todo.append((a[2], b[2]))
            case "lam":
                if a[1] != b[1]:
                    return False
                todo.append((a[2], b[2]))
            case "box":
                if a[1] != b[1]:
                    return False
                todo.append((a[2], b[2]))
    return True


# ---------------------------------------------------------------------------
# substitution

def fresh_name(base, used):
    """``base`` without its trailing digits plus the smallest suffix
    ``1, 2, ...`` giving a name not in ``used``."""
    base = base.rstrip("0123456789") or "v"
    return next(name for name in map(f"{base}{{}}".format, count(1))
                if name not in used)


def _subst(node, x, arg, avoid, used):
    """``node`` with ``arg`` for the free ``x``, and the binders in
    ``avoid`` renamed to names fresh in ``used``, in preorder; one
    iterative pass that shares the subtrees it leaves unchanged."""
    vals = []           # values of the visited subtrees
    todo = [(node, {})]
    while todo:
        n, ctx = todo.pop()
        t = type(n)
        if type(ctx) is dict:
            # visit n; ctx maps each binder name in scope that is renamed,
            # or that shadows x or a renamed binder, to its new name
            if t is Var:
                v = ctx.get(n.name)
                if v is None:
                    vals.append(arg if n.name == x else n)
                else:
                    vals.append(n if v == n.name else Var(v))
            elif t is App:
                todo.append((n, None))
                todo.append((n.arg, ctx))
                todo.append((n.fn, ctx))
            elif t is Lam:
                v = n.name
                if v in avoid:
                    v = fresh_name(v, used)
                    used.add(v)
                    ctx = {**ctx, n.name: v}
                elif v == x or v in ctx:
                    ctx = {**ctx, v: v}
                todo.append((n, v))
                todo.append((n.body, ctx))
            elif t is Box:
                todo.append((n, None))
                todo.append((n.body, ctx))
            elif t is Ref:
                vals.append(n)
            else:
                raise TypeError(f"unexpected node {n!r}")
        elif t is App:
            # rebuild n from its children's values
            a = vals.pop()
            f = vals.pop()
            vals.append(n if f is n.fn and a is n.arg else App(f, a))
        else:
            b = vals.pop()
            if t is Box:
                vals.append(n if b is n.body else Box(n.kind, b))
            else:       # ctx is the binder's new name
                vals.append(n if b is n.body and ctx == n.name
                            else Lam(n.kind, ctx, b))
    return vals[0]


def subst_in_body(g: TermGraph, body: Node, x: str, replacement: Node,
                  names: set) -> Node:
    """Capture-avoiding substitution inside one body tree.

    Binders named like a free variable of ``replacement`` are renamed
    apart, in preorder, to names not in ``names``, the names the caller
    reserves; the new names and the free variables of ``replacement``
    are added to it.  ``replacement`` may reference definitions; by
    capture-freedom no referenced definition has ``x`` free when the
    body lies beneath an ``x`` binder, so the pass stops at references.
    Subtrees it leaves unchanged are shared with ``body``, and a result
    that would be a bare reference is the referenced body instead.
    Nothing is checked.
    """
    if type(body) is Var and body.name == x:
        body = replacement
        x = None            # nothing is left to substitute
    if type(body) is Ref:
        body = g.defs[body.name]
        x = None            # by capture-freedom, x is not free in it
    if x is not None and type(body) is not Var:
        avoid = g.node_free_vars(replacement)
        names |= avoid
        body = _subst(body, x, replacement, avoid, names)
    return body


def import_defs(target_defs: dict, src: TermGraph):
    """Copy ``src``'s reachable definitions into ``target_defs``.

    Definition names are renamed apart on collision.  Returns the name of
    the imported root.
    """
    reach = src.reachable_defs()
    rename = {}
    used = set(target_defs)
    for body in target_defs.values():
        used |= _scan_body(body).names
    used |= src.all_names() - set(src.defs)
    for name in reach:
        if name in used:
            new = fresh_name(name, used)
        else:
            new = name
        rename[name] = new
        used.add(new)

    def fix(node, _):
        if type(node) is Ref:
            return Ref(rename[node.name]), None
        return partial(remake, node), [(c, None) for c in children(node)]

    for name in reach:
        target_defs[rename[name]] = rebuild(src.defs[name], None, fix)
    return rename[src.root]


def substitute(g: TermGraph, x: str, n: TermGraph) -> TermGraph:
    """The graph denoting ``M[x := N]``.

    Applied across every definition reachable from the root in which
    ``x`` is free; ``n``'s definitions are imported (renamed apart).
    When ``x`` is not free the input graph is returned unchanged.
    """
    fvs = g.def_free_vars()
    if all(x not in fvs[name] for name in g.reachable_defs()):
        return g

    defs = dict(g.defs)
    n_root = import_defs(defs, n)
    # Inline the root body at occurrence sites: definition bodies must
    # never become bare references.
    replacement = defs[n_root]

    tmp = TermGraph(defs, g.root, _validate=False)
    names = set(tmp.all_names())
    new_defs = {}
    for name, body in defs.items():
        if name in g.defs and x in fvs.get(name, frozenset()):
            new_defs[name] = subst_in_body(tmp, body, x, replacement, names)
        else:
            new_defs[name] = body
    return TermGraph(new_defs, g.root).pruned()
