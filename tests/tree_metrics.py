"""The metrics by structural recursion on depth projections, and weight
traces that measure the whole graph after every step: the earlier
production route, kept as the oracle of :mod:`llinf.metrics`."""

from llinf import reduction, wellform
from llinf.metrics import WeightStep, WeightTrace
from llinf.terms import (
    App, Box, Cut, Lam, Node, TermGraph, Var, DEFAULT_BUDGET, project_depth,
)


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
    return _size_tree(project_depth(g, m + 1, budget), m)


def wei(g: TermGraph, n: int, m: int, budget=DEFAULT_BUDGET) -> int:
    return _wei_tree(project_depth(g, m + 1, budget), n, m)


def df(g: TermGraph, m: int, budget=DEFAULT_BUDGET) -> int:
    return _df_tree(project_depth(g, m + 1, budget), m)


def twei(g: TermGraph, n: int, budget=DEFAULT_BUDGET) -> int:
    return wei(g, df(g, n, budget), n, budget)


def weight_steps(g: TermGraph, depth_bound: int, fuel: int = 10_000,
                 budget=DEFAULT_BUDGET):
    """Every step's ``(depth, before, after)`` vectors, each vector
    measured on the whole graph rebuilt after the step, and the stats."""
    def vector(graph):
        return tuple(twei(graph, m, budget) for m in range(depth_bound + 1))

    steps = []
    cur = [vector(g)]
    names = set(g.all_names())

    def on_step(boxes, redex):
        after = vector(reduction._with_root_body(
            g, reduction._whole(g, boxes), names))
        steps.append(WeightStep(redex.depth, cur[0], after))
        cur[0] = after

    _, stats = reduction._frontier_eval(g, g.root_body(), depth_bound, fuel,
                                        budget, names, on_step)
    return steps, stats


def weight_trace(g: TermGraph, depth_bound: int, fuel: int = 10_000,
                 budget=DEFAULT_BUDGET) -> WeightTrace:
    """The verdict of :func:`llinf.metrics.weight_trace` on the steps of
    :func:`weight_steps`."""
    if wellform.infer_env(wellform.LL4S, g) is None:
        return WeightTrace(depth_bound, verdict="not-applicable",
                           detail="input is not well-formed in the 4S system")
    trace = WeightTrace(depth_bound)
    trace.steps, stats = weight_steps(g, depth_bound, fuel, budget)
    for step in trace.steps:
        n, before, after = step.depth, step.before, step.after
        if not after[n] < before[n]:
            trace.verdict = "fail"
            trace.detail = (f"step at depth {n} did not decrease twei_{n}: "
                            f"{before[n]} -> {after[n]}")
        elif after[:n] != before[:n]:
            trace.verdict = "fail"
            trace.detail = (f"step at depth {n} changed a lower component: "
                            f"{before[:n]} -> {after[:n]}")
    if stats.outcome != "normalized" and trace.verdict == "pass":
        trace.verdict = "fail"
        trace.detail = f"evaluation outcome was {stats.outcome}: {stats.detail}"
    return trace
