"""Parametrised size, weight, and duplicability factor, plus the total
weight and weight traces along reductions.

The three metrics are defined by depth-indexed equations over trees.
At index 0 a coinductive box contributes nothing (size and weight 0,
factor 1); crossing a coinductive box shifts the index down by one;
inductive boxes multiply the weight by the parameter ``n`` and are
transparent otherwise.  The total weight at depth ``n`` instantiates the
weight parameter with the duplicability factor:

    twei_n(M) = wei_{df_n(M), n}(M)

and is the termination measure of the 4S system: a depth-``n`` step
strictly decreases ``twei_n`` and leaves ``twei_m`` (m < n) unchanged,
while ``df_m`` never increases.

The default implementations recurse over the finite depth projection
(truncation markers contribute the neutral element); an independent
implementation computes the same equations directly on the cyclic graph
with (node, index) memoisation and serves as a cross-check oracle.
"""

from dataclasses import dataclass, field

from .errors import MetricsUndefinedError
from .terms import (
    App, Box, Cut, Lam, Node, TermGraph, Var,
    DEFAULT_BUDGET, project_depth,
)
from . import reduction, wellform


# ---------------------------------------------------------------------------
# projection-based implementations (the default route)

def _nfo_tree(tree: Node, x: str) -> int:
    """Free occurrences of ``x`` in a finite tree, at every index."""
    match tree:
        case Var(y):
            return 1 if y == x else 0
        case Lam(_, y, b):
            return 0 if y == x else _nfo_tree(b, x)
        case App(f, a):
            return _nfo_tree(f, x) + _nfo_tree(a, x)
        case Box(_, b):
            return _nfo_tree(b, x)
        case Cut():
            return 0
    raise TypeError(f"unexpected tree node {tree!r}")


def _size_tree(tree: Node, i: int) -> int:
    match tree:
        case Cut():
            return 0
        case Var(_):
            return 1 if i == 0 else 0
        case App(f, a):
            return _size_tree(f, i) + _size_tree(a, i) + (1 if i == 0 else 0)
        case Lam(_, _, b):
            return _size_tree(b, i) + (1 if i == 0 else 0)
        case Box("ind", b):
            return _size_tree(b, i) + (1 if i == 0 else 0)
        case Box("coind", b):
            return 0 if i == 0 else _size_tree(b, i - 1)
    raise TypeError(f"unexpected tree node {tree!r}")


def _wei_tree(tree: Node, n: int, i: int) -> int:
    match tree:
        case Cut():
            return 0
        case Var(_):
            return 1 if i == 0 else 0
        case App(f, a):
            return _wei_tree(f, n, i) + _wei_tree(a, n, i)
        case Lam(_, _, b):
            return _wei_tree(b, n, i) + (1 if i == 0 else 0)
        case Box("ind", b):
            w = _wei_tree(b, n, i)
            return n * w if i == 0 else w
        case Box("coind", b):
            return 0 if i == 0 else _wei_tree(b, n, i - 1)
    raise TypeError(f"unexpected tree node {tree!r}")


def _df_tree(tree: Node, i: int) -> int:
    match tree:
        case Cut() | Var(_):
            return 1
        case App(f, a):
            return max(_df_tree(f, i), _df_tree(a, i))
        case Lam("ind", x, b):
            if i == 0:
                return max(_nfo_tree(b, x), _df_tree(b, 0))
            return _df_tree(b, i)
        case Lam(_, _, b):
            return _df_tree(b, i)
        case Box("ind", b):
            return _df_tree(b, i)
        case Box("coind", b):
            return 1 if i == 0 else _df_tree(b, i - 1)
    raise TypeError(f"unexpected tree node {tree!r}")


def size_at(g: TermGraph, m: int, budget=DEFAULT_BUDGET) -> int:
    """Number of symbol occurrences at depth ``m`` of the unfolding."""
    return _size_tree(project_depth(g, m + 1, budget), m)


def wei(g: TermGraph, n: int, m: int, budget=DEFAULT_BUDGET) -> int:
    """Parametrised weight at depth ``m`` with box multiplier ``n``."""
    return _wei_tree(project_depth(g, m + 1, budget), n, m)


def df(g: TermGraph, m: int, budget=DEFAULT_BUDGET) -> int:
    """Duplicability factor at depth ``m``: the largest number of free
    occurrences an inductive abstraction at that depth binds."""
    return _df_tree(project_depth(g, m + 1, budget), m)


def twei(g: TermGraph, n: int, budget=DEFAULT_BUDGET) -> int:
    """Total weight at depth ``n``: weight with the duplicability factor
    as multiplier.  Strictly decreases along depth-``n`` steps of 4S
    terms."""
    return wei(g, df(g, n, budget), n, budget)


# ---------------------------------------------------------------------------
# graph-fixpoint oracle (independent cross-check route)

_IN_PROGRESS = object()


def _graph_metric(g, start_index, combine):
    """Memoised (node, index) recursion on the cyclic graph itself.

    Any recursion revisiting an in-progress (node, index) pair witnesses
    a cycle crossing no coinductive box, on which the equations have no
    finite solution.
    """
    memo = {}

    def go(node, i):
        node = g.resolve(node)
        key = (id(node), i)
        val = memo.get(key)
        if val is _IN_PROGRESS:
            raise MetricsUndefinedError(
                "metric equations have no solution: a cycle crosses no "
                "coinductive box")
        if val is not None:
            return val
        memo[key] = _IN_PROGRESS
        val = combine(node, i, go)
        memo[key] = val
        return val

    return go(g.root_body(), start_index)


def size_at_oracle(g: TermGraph, m: int) -> int:
    def combine(node, i, go):
        match node:
            case Var(_):
                return 1 if i == 0 else 0
            case App(f, a):
                return go(f, i) + go(a, i) + (1 if i == 0 else 0)
            case Lam(_, _, b):
                return go(b, i) + (1 if i == 0 else 0)
            case Box("ind", b):
                return go(b, i) + (1 if i == 0 else 0)
            case Box("coind", b):
                return 0 if i == 0 else go(b, i - 1)
        raise TypeError(f"unexpected node {node!r}")

    return _graph_metric(g, m, combine)


def wei_oracle(g: TermGraph, n: int, m: int) -> int:
    def combine(node, i, go):
        match node:
            case Var(_):
                return 1 if i == 0 else 0
            case App(f, a):
                return go(f, i) + go(a, i)
            case Lam(_, _, b):
                return go(b, i) + (1 if i == 0 else 0)
            case Box("ind", b):
                return n * go(b, i) if i == 0 else go(b, i)
            case Box("coind", b):
                return 0 if i == 0 else go(b, i - 1)
        raise TypeError(f"unexpected node {node!r}")

    return _graph_metric(g, m, combine)


def df_oracle(g: TermGraph, m: int) -> int:
    def combine(node, i, go):
        match node:
            case Var(_):
                return 1
            case App(f, a):
                return max(go(f, i), go(a, i))
            case Lam("ind", x, b):
                d = go(b, i)
                if i == 0:
                    occ = wellform.occurrences(g, x, b)
                    if occ.infinite:
                        raise MetricsUndefinedError(
                            f"nfo({x}) is infinite; duplicability undefined")
                    return max(occ.total, d)
                return d
            case Lam(_, _, b):
                return go(b, i)
            case Box("ind", b):
                return go(b, i)
            case Box("coind", b):
                return 1 if i == 0 else go(b, i - 1)
        raise TypeError(f"unexpected node {node!r}")

    return _graph_metric(g, m, combine)


def twei_oracle(g: TermGraph, n: int) -> int:
    return wei_oracle(g, df_oracle(g, n), n)


# ---------------------------------------------------------------------------
# weight traces

@dataclass
class WeightStep:
    depth: int
    before: tuple
    after: tuple


@dataclass
class WeightTrace:
    depth_bound: int
    steps: list = field(default_factory=list)
    verdict: str = "pass"                 # | "fail" | "not-applicable"
    detail: str = ""

    def __bool__(self):
        return self.verdict == "pass"


def weight_trace(g: TermGraph, depth_bound: int, fuel: int = 10_000,
                 budget=DEFAULT_BUDGET) -> WeightTrace:
    """Run level-by-level evaluation to the depth bound, recording the
    total-weight vector around every step.

    The verdict is ``pass`` when each depth-``n`` step strictly decreases
    component ``n`` and leaves components below ``n`` unchanged; inputs
    rejected by the 4S checker yield ``not-applicable``.
    """
    env = wellform.infer_env(wellform.LL4S, g)
    if env is None:
        return WeightTrace(depth_bound, verdict="not-applicable",
                           detail="input is not well-formed in the 4S system")
    trace = WeightTrace(depth_bound)

    def vector(graph):
        return tuple(twei(graph, m, budget) for m in range(depth_bound + 1))

    cur = [g, vector(g)]

    def on_step(graph, redex):
        before = cur[1]
        after = vector(graph)
        n = redex.depth
        step = WeightStep(n, before, after)
        trace.steps.append(step)
        if not after[n] < before[n]:
            trace.verdict = "fail"
            trace.detail = (f"step at depth {n} did not decrease twei_{n}: "
                            f"{before[n]} -> {after[n]}")
        elif after[:n] != before[:n]:
            trace.verdict = "fail"
            trace.detail = (f"step at depth {n} changed a lower component: "
                            f"{before[:n]} -> {after[:n]}")
        cur[0] = graph
        cur[1] = after

    _, _, stats = reduction.eval_lbl(g, depth_bound, fuel, budget, on_step=on_step)
    if stats.outcome != "normalized" and trace.verdict == "pass":
        trace.verdict = "fail"
        trace.detail = f"evaluation outcome was {stats.outcome}: {stats.detail}"
    return trace
