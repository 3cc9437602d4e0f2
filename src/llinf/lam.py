"""The eight pure infinitary lambda calculi and their two embeddings.

A flag triple ``(a, b, c)`` fixes where depth increases: crossing an
abstraction body when ``a = 1``, the function side of an application
when ``b = 1``, and the argument side when ``c = 1``.  Well-formation
again demands that every infinite branch (here: every cycle of a regular
graph) cross a depth-increasing position infinitely often.

Pure lambda graphs reuse the term-graph representation with plain
(``lin``-tagged) abstractions and no boxes.

Two translations into the boxed calculus are provided: the one in
Girard style for flags ``00a`` (argument boxed, abstraction re-kinded)
which simulates each beta step by exactly one step, and the
call-by-value style one for flags ``a0b`` (application guarded by an
identity redex of kind ``a``, abstraction body boxed with kind ``a``,
argument boxed with kind ``b``) which needs exactly two.
"""

from dataclasses import dataclass
from functools import partial

from .errors import BudgetExceededError, LLinfError
from .terms import (
    App, Box, Lam, Ref, TermGraph, Var,
    ARG, BODY, BOXED, FN,
    COIND, IND, LIN,
    DEFAULT_BUDGET, children, fresh_name, graph_bisimilar, rebuild,
)
from .reduction import (
    Redex, contract, find_redexes, has_any_redex, level_at, path_of,
)
from .wellform import CheckReport, _inductive_cycle
from . import surface


@dataclass(frozen=True)
class DepthFlags:
    a: int  # abstraction bodies
    b: int  # function side of applications
    c: int  # argument side of applications

    @classmethod
    def parse(cls, text: str) -> "DepthFlags":
        if len(text) != 3 or any(ch not in "01" for ch in text):
            raise ValueError(f"flags must be three binary digits, got {text!r}")
        return cls(*(int(ch) for ch in text))

    def __str__(self):
        return f"{self.a}{self.b}{self.c}"


def _box_kind(bit):
    return COIND if bit else IND


def require_pure_lambda(g: TermGraph):
    for name, body in g.defs.items():
        todo = [body]
        while todo:
            n = todo.pop()
            if type(n) is Box:
                raise LLinfError(
                    f"definition {name!r} contains a box; not a pure lambda term")
            if type(n) is Lam and n.kind != LIN:
                raise LLinfError(
                    f"definition {name!r} contains a non-plain abstraction")
            todo.extend(children(n))


def check_labc(g: TermGraph, flags: DepthFlags) -> CheckReport:
    """Well-formation for the calculus selected by the flags.

    No environment is needed (variables are unrestricted); acceptance is
    purely the cycle discipline: every cycle of the term graph must cross
    a depth-increasing position.
    """
    require_pure_lambda(g)
    # number the nodes in preorder, function side first: the numbering
    # fixes which loop a rejection reports
    idx = {}
    nodes = []
    outs = []
    todo = [g.resolve(g.root_body())]
    while todo:
        node = todo.pop()
        if id(node) in idx:
            continue
        idx[id(node)] = len(nodes)
        nodes.append(node)
        match node:
            case App(f, a):
                out = ((g.resolve(f), flags.b == 1), (g.resolve(a), flags.c == 1))
            case Lam(_, _, b):
                out = ((g.resolve(b), flags.a == 1),)
            case _:
                out = ()
        outs.append(out)
        todo.extend(child for child, _ in reversed(out))
    edges = [[(idx[id(child)], deep) for child, deep in out] for out in outs]

    cyc = _inductive_cycle(edges)
    if cyc is not None:
        desc = tuple(surface.format_prefix(nodes[i], 48) for i in cyc)
        return CheckReport(
            False, f"lambda-{flags}",
            reason="inductive loop: a cycle crosses no depth-increasing position",
            cycle=desc, states=len(nodes))
    return CheckReport(True, f"lambda-{flags}", states=len(nodes))


def lwalk(g: TermGraph, flags: DepthFlags, max_depth, budget=DEFAULT_BUDGET):
    """Preorder traversal with flag-counted depth, not descending past
    ``max_depth``; yields (node, parent link, depth) as
    :func:`~llinf.reduction.walk` does."""
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


def find_beta_redexes(g: TermGraph, flags: DepthFlags, depth: int,
                      budget=DEFAULT_BUDGET):
    """Beta redexes at exactly the given flag depth, leftmost-outermost."""
    out = []
    for node, at, d in lwalk(g, flags, depth, budget):
        if d == depth and isinstance(node, App) \
                and isinstance(g.resolve(node.fn), Lam):
            out.append(Redex(path_of(at), "", "linear"))
    return out


def lbeta_step(g: TermGraph, flags: DepthFlags, depth: int,
               budget=DEFAULT_BUDGET):
    """Contract the leftmost beta redex at the given depth, or None."""
    redexes = find_beta_redexes(g, flags, depth, budget)
    if not redexes:
        return None
    return contract(g, redexes[0])


# ---------------------------------------------------------------------------
# embeddings

def _map_defs(g, visit):
    return TermGraph({name: rebuild(body, None, visit)
                      for name, body in g.defs.items()}, g.root)


def embed_girard(g: TermGraph, a: int) -> TermGraph:
    """Girard-style embedding of the ``00a`` calculus.

    Arguments are boxed and abstractions re-kinded, both with the kind
    selected by ``a``; one source step maps to one target step.
    """
    rep = check_labc(g, DepthFlags(0, 0, a))
    if not rep:
        raise LLinfError(f"input is not well-formed in lambda-00{a}: {rep.reason}")
    kind = _box_kind(a)
    lamkind = COIND if a else IND

    def visit(node, ctx):
        match node:
            case Var(_) | Ref(_):
                return node, None
            case App(f, x):
                return ((lambda fn, arg: App(fn, Box(kind, arg))),
                        [(f, ctx), (x, ctx)])
            case Lam(_, v, b):
                return partial(Lam, lamkind, v), [(b, ctx)]
        raise TypeError(f"unexpected node {node!r}")

    return _map_defs(g, visit)


def embed_cbv(g: TermGraph, a: int, b: int) -> TermGraph:
    """Call-by-value-style embedding of the ``a0b`` calculus.

    Each application is wrapped in an identity redex of kind ``a``; the
    abstraction body is boxed with kind ``a`` (so crossing an abstraction
    costs depth exactly when ``a = 1``) and arguments with kind ``b``.
    One source step maps to exactly two target steps.
    """
    rep = check_labc(g, DepthFlags(a, 0, b))
    if not rep:
        raise LLinfError(f"input is not well-formed in lambda-{a}0{b}: {rep.reason}")
    akind = _box_kind(a)
    bkind = _box_kind(b)
    alam = COIND if a else IND
    blam = COIND if b else IND
    used = set(g.all_names())

    def visit(node, ctx):
        match node:
            case Var(_) | Ref(_):
                return node, None
            case App(f, x):
                w = fresh_name("w", used)
                used.add(w)
                return (lambda fn, arg: App(Lam(alam, w, Var(w)),
                                            App(fn, Box(bkind, arg))),
                        [(f, ctx), (x, ctx)])
            case Lam(_, v, body):
                return (lambda b: Lam(blam, v, Box(akind, b))), [(body, ctx)]
        raise TypeError(f"unexpected node {node!r}")

    return _map_defs(g, visit)


def girard_image_path(path):
    out = []
    for sel in path:
        if sel == FN:
            out.append(FN)
        elif sel == ARG:
            out.extend((ARG, BOXED))
        else:
            out.append(BODY)
    return tuple(out)


def girard_source_path(path):
    """Inverse of the Girard position map; None when not an image."""
    out = []
    i = 0
    while i < len(path):
        sel = path[i]
        if sel == FN:
            out.append(FN)
            i += 1
        elif sel == ARG:
            if i + 1 >= len(path) or path[i + 1] != BOXED:
                return None
            out.append(ARG)
            i += 2
        elif sel == BODY:
            out.append(BODY)
            i += 1
        else:
            return None
    return tuple(out)


def cbv_image_paths(path):
    """Positions of the two target redexes simulating a source step:
    the application image (inner redex) and its identity wrapper."""
    wrapper = []
    for sel in path:
        if sel == FN:
            wrapper.extend((ARG, FN))
        elif sel == ARG:
            wrapper.extend((ARG, ARG, BOXED))
        else:
            wrapper.extend((BODY, BOXED))
    return tuple(wrapper) + (ARG,), tuple(wrapper)


# ---------------------------------------------------------------------------
# simulation checking

_WINDOW = 24    # height of simulate_girard's completeness check


@dataclass
class SimReport:
    ok: bool
    steps: int
    detail: str = ""

    def __bool__(self):
        return self.ok


def _leftmost_source_redex(g, flags):
    """The leftmost beta redex at the least flag depth that holds one,
    with that depth, or ``(None, None)`` when ``g``, a pure lambda graph,
    is normal.  On such a graph :func:`~llinf.reduction.has_any_redex`
    is exactly "has a beta redex", which lies at a finite flag depth,
    where the search by depth ends."""
    if not has_any_redex(g):
        return None, None
    d = 0
    while not (rs := find_beta_redexes(g, flags, d)):
        d += 1
    return rs[0], d


def simulate_girard(g: TermGraph, a: int, steps: int) -> SimReport:
    """Run paired steps and verify the perfect-simulation properties.

    Each source step at depth ``n`` must map to one target step at depth
    ``n`` landing on the embedding of the source reduct; conversely every
    redex of the embedded term must be the image of a source redex
    (checked within height ``_WINDOW`` of the source term).
    """
    flags = DepthFlags(0, 0, a)
    kind = "coinductive" if a else "inductive"
    done = 0
    for _ in range(steps):
        target = embed_girard(g, a)
        src_paths = {r.position for r in find_redexes(g, _WINDOW)}
        for tr in find_redexes(target, 2 * _WINDOW):
            back = girard_source_path(tr.position)
            if back is None:
                return SimReport(False, done,
                                 f"target redex at {tr.position} is not an image")
            if len(back) <= _WINDOW and back not in src_paths:
                return SimReport(False, done,
                                 f"target redex maps back to {back}, "
                                 "which is not a source redex")
        src, depth = _leftmost_source_redex(g, flags)
        if src is None:
            return SimReport(True, done, "source term is normal")
        g2 = contract(g, src)
        image = Redex(girard_image_path(src.position), "", kind)
        tlevel = level_at(target, image.position)
        # flag depth counts coinductive crossings exactly when a = 1, so
        # the image level's depth must equal the source step's depth
        if tlevel.count("c") != depth:
            return SimReport(False, done,
                             f"image step level {tlevel!r} does not match depth {depth}")
        t2 = contract(target, image)
        if not graph_bisimilar(t2, embed_girard(g2, a)):
            return SimReport(False, done, "image step does not land on the "
                                          "embedding of the source reduct")
        g = g2
        done += 1
    return SimReport(True, done)


def simulate_cbv(g: TermGraph, a: int, b: int, steps: int) -> SimReport:
    """Run paired steps for the two-step (imperfect) simulation."""
    require_pure_lambda(g)      # steps keep it pure
    flags = DepthFlags(a, 0, b)
    done = 0
    for _ in range(steps):
        src, depth = _leftmost_source_redex(g, flags)
        if src is None:
            return SimReport(True, done, "source term is normal")
        g2 = contract(g, src)
        target = embed_cbv(g, a, b)
        inner_path, wrapper_path = cbv_image_paths(src.position)
        # both image steps sit at the source step's depth: abstraction
        # crossings cost a box of kind a, argument crossings kind b
        for p in (inner_path, wrapper_path):
            lv = level_at(target, p)
            if lv.count("c") != depth:
                return SimReport(False, done,
                                 f"image step at level {lv!r} is not at "
                                 f"depth {depth}")
        inner = Redex(inner_path, "", "coinductive" if b else "inductive")
        t1 = contract(target, inner)
        wrapper = Redex(wrapper_path, "", "coinductive" if a else "inductive")
        t2 = contract(t1, wrapper)
        if not graph_bisimilar(t2, embed_cbv(g2, a, b)):
            return SimReport(False, done, "two image steps do not land on the "
                                          "embedding of the source reduct")
        g = g2
        done += 1
    return SimReport(True, done)
