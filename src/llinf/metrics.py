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
strictly decreases ``twei_n`` and leaves ``twei_m`` (m < n) unchanged.
That ``df_m`` never increases is an open law: the bench suites still
check it, and on one admissible depth-1 step of a generated 4S term
(``weight_laws:4s:35`` at seed 5) ``df_3`` rises from 1 to 2, by this
pass and by the oracle alike.

Production computes every metric from one iterative pass over the
unfolding down to depth ``D+1`` (:func:`weight_profile`), which gives,
for every index ``m <= D``, ``size_m``, ``df_m`` and the number of
weight-carrying symbols under ``k`` inductive boxes of depth ``m``;
``wei_{n,m}`` is then a polynomial in ``n``.  An independent
implementation computes the same equations directly on the cyclic graph
with (node, index) memoisation and serves as a cross-check oracle.
Weight traces run on the frontier evaluator and profile the whole term
after each step.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import BudgetExceededError, MetricsUndefinedError
from .terms import (
    App, Box, Lam, Ref, TermGraph, Var,
    IND,
    DEFAULT_BUDGET,
)
from . import reduction, wellform


# ---------------------------------------------------------------------------
# the weight profile (the production route)

class WeightProfile(NamedTuple):
    """Per-index sums of one region, indices ``0 .. top``."""

    size: list      # size[m]: symbol occurrences at depth m
    df: list        # df[m]: duplicability factor at depth m
    h: list         # h[m][k]: variables and abstractions at depth m
                    # under k inductive boxes of that depth
    visited: int    # nodes of the depth-(top+1) region

    def wei(self, n: int, m: int) -> int:
        return sum(c * n ** k for k, c in enumerate(self.h[m]))

    def twei(self, m: int) -> int:
        return self.wei(self.df[m], m)


_UNBOUND = object()


def weight_profile(g: TermGraph, top: int, budget=DEFAULT_BUDGET,
                   start=None) -> WeightProfile:
    """One iterative preorder pass over the depth-``(top+1)`` region of
    the unfolding (the nodes :func:`~llinf.terms.project_depth` at
    ``top+1`` visits), building no tree.  The unfolding is that of
    ``start``, a node over ``g``'s definitions, by default ``g``'s root
    body.

    ``nfo`` of an inductive abstraction at depth ``m`` counts the
    occurrences its binder binds at depth ``m`` or ``m+1``: those of the
    depth-``(m+1)`` projection.  Raises :class:`BudgetExceededError`
    once the region passes ``budget`` nodes.
    """
    size = [0] * (top + 1)
    df = [1] * (top + 1)
    h = [[] for _ in range(top + 1)]
    defs = g.defs
    # binder name -> its innermost binder in scope: [depth, occurrences]
    # for an inductive abstraction at depth <= top, None for any other
    scope = {}
    if start is None:
        start = g.root_body()
    todo = [(start, 0, 0)]      # (node, depth, inductive boxes)
    visited = 0
    while todo:
        node, d, k = todo.pop()
        if node is None:                # leaves the scope of binder d
            binder = scope[d]
            if binder is not None and binder[1] > df[binder[0]]:
                df[binder[0]] = binder[1]
            if k is _UNBOUND:
                del scope[d]
            else:
                scope[d] = k
            continue
        t = type(node)
        if t is Ref:
            node = defs[node.name]      # bodies are never references
            t = type(node)
        visited += 1
        if visited > budget:
            raise BudgetExceededError(
                f"depth-{top + 1} region exceeds {budget} nodes "
                "(preterm is not well-formed)")
        if t is Box:
            if node.kind == IND:
                if d <= top:
                    size[d] += 1
                todo.append((node.body, d, k + 1))
            elif d <= top:
                todo.append((node.body, d + 1, 0))
            continue
        if d <= top:
            size[d] += 1
            if t is not App:
                hd = h[d]
                if k < len(hd):
                    hd[k] += 1
                else:
                    hd.extend([0] * (k - len(hd)))
                    hd.append(1)
        if t is App:
            todo.append((node.arg, d, k))
            todo.append((node.fn, d, k))
        elif t is Var:
            binder = scope.get(node.name)
            if binder and d - binder[0] <= 1:
                binder[1] += 1
        elif t is Lam:
            x = node.name
            todo.append((None, x, scope.get(x, _UNBOUND)))
            scope[x] = [d, 0] if node.kind == IND and d <= top else None
            todo.append((node.body, d, k))
        else:
            raise TypeError(f"unexpected node {node!r}")
    return WeightProfile(size, df, h, visited)


def size_at(g: TermGraph, m: int, budget=DEFAULT_BUDGET) -> int:
    """Number of symbol occurrences at depth ``m`` of the unfolding."""
    return weight_profile(g, m, budget).size[m]


def wei(g: TermGraph, n: int, m: int, budget=DEFAULT_BUDGET) -> int:
    """Parametrised weight at depth ``m`` with box multiplier ``n``."""
    return weight_profile(g, m, budget).wei(n, m)


def df(g: TermGraph, m: int, budget=DEFAULT_BUDGET) -> int:
    """Duplicability factor at depth ``m``: the largest number of free
    occurrences an inductive abstraction at that depth binds."""
    return weight_profile(g, m, budget).df[m]


def twei(g: TermGraph, n: int, budget=DEFAULT_BUDGET) -> int:
    """Total weight at depth ``n``: weight with the duplicability factor
    as multiplier.  Strictly decreases along depth-``n`` steps of 4S
    terms."""
    return weight_profile(g, n, budget).twei(n)


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


def df_oracle(g: TermGraph, m: int, own=None) -> int:
    """``df_m`` on the graph.  ``own`` is the :func:`~llinf.wellform.body_pass`
    table of ``g``'s occurrence counts per (binder body, name); it is
    computed when not given."""
    if own is None:
        own = wellform.body_pass(g).own

    def combine(node, i, go):
        match node:
            case Var(_):
                return 1
            case App(f, a):
                return max(go(f, i), go(a, i))
            case Lam("ind", x, b):
                d = go(b, i)
                if i == 0:
                    return max(sum(own[(id(b), x)]), d)
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


def _weight_steps(g: TermGraph, depth_bound: int, fuel: int, budget):
    """Level-by-level evaluation to the depth bound with the total-weight
    vector around every step.  Returns the :class:`WeightStep` list and
    the evaluation's stats.

    After each step the term it reached (:func:`reduction._whole`) is
    profiled once, to the depth bound, so the budget bounds the
    depth-``(depth_bound+1)`` region of every term along the evaluation.
    """
    def vector(root=None):
        profile = weight_profile(g, depth_bound, budget, root)
        return tuple(map(profile.twei, range(depth_bound + 1)))

    first = vector()
    steps = []

    def on_step(boxes, r):
        steps.append(WeightStep(r.depth, steps[-1].after if steps else first,
                                vector(reduction._whole(g, boxes))))

    _, stats = reduction._frontier_eval(g, g.root_body(), depth_bound, fuel,
                                        budget, set(g.all_names()), on_step)
    return steps, stats


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
    trace.steps, stats = _weight_steps(g, depth_bound, fuel, budget)
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
