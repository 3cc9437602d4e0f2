"""Occurrence counting and the inductive-cycle search as separate graph
passes (reverse reachability, a cycle test, a topological order, a
memoised path count, a depth-first search): the earlier production
route, kept as the oracle of the single SCC pass in
:mod:`llinf.wellform`."""

from llinf.terms import App, Box, Lam, Node, TermGraph, Var
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
