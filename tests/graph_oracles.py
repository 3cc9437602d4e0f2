"""Oracles and helpers over graphs and finite trees.

* Occurrence counting and the inductive-cycle search as separate graph
  passes (reverse reachability, a cycle test, a topological order, a
  memoised path count, a depth-first search): the earlier production
  route, kept as the oracle of the single SCC pass in
  :mod:`llinf.wellform`.
* Alpha-equivalence and printing by structural recursion: the earlier
  production route, kept as the oracle of the iterative passes in
  :mod:`llinf.terms` and :mod:`llinf.surface`.
* Height-bounded unfolding and truncation, for coherence checks.
"""

from functools import partial

from llinf.terms import (
    App, Box, Cut, CUT, Lam, Node, Ref, TermGraph, Var, IND, LIN, COIND,
    children, rebuild, remake,
)
from llinf.wellform import INF, _CLS_LIN, _shift


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
