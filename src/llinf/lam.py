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
from itertools import count

from .errors import LLinfError
from .terms import (
    App, Box, Lam, Ref, TermGraph, Var,
    ARG, BODY, BOXED, FN,
    COIND, IND, LIN,
    DEFAULT_BUDGET, children, graph_bisimilar, rebuild,
)
from .reduction import (
    Redex, _graph_nodes, contract, level_at, path_of, redex_kind_at, walk,
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

    @property
    def marks(self):
        """What crossing into a function side, an argument side and an
        abstraction body adds to a level (:func:`~llinf.reduction.walk`):
        a ``c`` where the flag says depth increases."""
        return "c" * self.b, "c" * self.c, "c" * self.a


def _box_kind(bit):
    return COIND if bit else IND


def require_pure_lambda(g: TermGraph):
    seen = set()        # each node once, however many paths reach it
    for name, body in g.defs.items():
        todo = [body]
        while todo:
            n = todo.pop()
            if id(n) in seen:
                continue
            seen.add(id(n))
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
    fn_mark, arg_mark, body_mark = flags.marks
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
                out = ((g.resolve(f), fn_mark), (g.resolve(a), arg_mark))
            case Lam(_, _, b):
                out = ((g.resolve(b), body_mark),)
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


def find_beta_redexes(g: TermGraph, flags: DepthFlags, depth: int,
                      budget=DEFAULT_BUDGET):
    """Beta redexes at exactly the given flag depth, leftmost-outermost:
    those a :func:`~llinf.reduction.walk` with the flags' marks reaches
    at a level of ``depth`` ``c``s."""
    return [Redex(path_of(at), "", "linear")
            for node, at, level in walk(g, max_depth=depth, marks=flags.marks,
                                        budget=budget)
            if len(level) == depth and type(node) is App
            and type(g.resolve(node.fn)) is Lam]


def lbeta_step(g: TermGraph, flags: DepthFlags, depth: int,
               budget=DEFAULT_BUDGET):
    """Contract the leftmost beta redex at the given depth, or None."""
    redexes = find_beta_redexes(g, flags, depth, budget)
    if not redexes:
        return None
    return contract(g, redexes[0])


# ---------------------------------------------------------------------------
# embeddings

def _map_defs(g, flags, visit):
    """Rebuild each definition body of ``g`` with ``visit``, once ``g``
    is a well-formed term of the calculus the flags select."""
    rep = check_labc(g, flags)
    if not rep:
        raise LLinfError(f"input is not well-formed in lambda-{flags}: {rep.reason}")
    return TermGraph({name: rebuild(body, None, visit)
                      for name, body in g.defs.items()}, g.root)


def embed_girard(g: TermGraph, a: int) -> TermGraph:
    """Girard-style embedding of the ``00a`` calculus.

    Arguments are boxed and abstractions re-kinded, both with the kind
    selected by ``a``; one source step maps to one target step.
    """
    kind = _box_kind(a)

    def visit(node, ctx):
        match node:
            case Var(_) | Ref(_):
                return node, None
            case App(f, x):
                return ((lambda fn, arg: App(fn, Box(kind, arg))),
                        [(f, ctx), (x, ctx)])
            case Lam(_, v, b):
                return partial(Lam, kind, v), [(b, ctx)]
        raise TypeError(f"unexpected node {node!r}")

    return _map_defs(g, DepthFlags(0, 0, a), visit)


def embed_cbv(g: TermGraph, a: int, b: int) -> TermGraph:
    """Call-by-value-style embedding of the ``a0b`` calculus.

    Each application is wrapped in an identity redex of kind ``a``; the
    abstraction body is boxed with kind ``a`` (so crossing an abstraction
    costs depth exactly when ``a = 1``) and arguments with kind ``b``.
    One source step maps to exactly two target steps.
    """
    akind = _box_kind(a)
    bkind = _box_kind(b)
    used = set(g.all_names())
    # the names fresh_name("w", ...) would draw, one after another
    fresh = (w for w in map("w{}".format, count(1)) if w not in used)

    def visit(node, ctx):
        match node:
            case Var(_) | Ref(_):
                return node, None
            case App(f, x):
                w = next(fresh)
                return (lambda fn, arg: App(Lam(akind, w, Var(w)),
                                            App(fn, Box(bkind, arg))),
                        [(f, ctx), (x, ctx)])
            case Lam(_, v, body):
                return (lambda b: Lam(bkind, v, Box(akind, b))), [(body, ctx)]
        raise TypeError(f"unexpected node {node!r}")

    return _map_defs(g, DepthFlags(a, 0, b), visit)


def girard_image_path(path):
    """The target position of a source position: an argument side also
    crosses the box around the argument."""
    return tuple(s for sel in path
                 for s in ((ARG, BOXED) if sel == ARG else (sel,)))


_CBV_IMAGE = {FN: (ARG, FN), ARG: (ARG, ARG, BOXED), BODY: (BODY, BOXED)}


def cbv_image_paths(path):
    """Positions of the two target redexes simulating a source step:
    the application image (inner redex) and its identity wrapper."""
    wrapper = tuple(s for sel in path for s in _CBV_IMAGE[sel])
    return wrapper + (ARG,), wrapper


# ---------------------------------------------------------------------------
# simulation checking

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
    is normal.  That depth is the least flag depth of a redex node of the
    graph (:func:`~llinf.reduction._graph_nodes` with the flags' marks),
    so one search at it finds the redex."""
    for node, d in _graph_nodes(g, flags.marks):
        if redex_kind_at(g, node):
            return find_beta_redexes(g, flags, d)[0], d
    return None, None


def _girard_mismatch(g: TermGraph, target: TermGraph):
    """Why ``target`` fails as the Girard image of ``g``, or None.  One
    pass over each definition body of ``g`` beside its image finds a
    node that is not the image of the source node beside it, or a target
    redex whose source node is not a redex, at any position."""
    seen = set()
    todo = [(body, target.defs[name]) for name, body in g.defs.items()]
    while todo:
        s, t = todo.pop()
        if (id(s), id(t)) in seen:
            continue
        seen.add((id(s), id(t)))
        match s, t:
            case App(f, x), App(tf, Box(_, tx)):
                if redex_kind_at(target, t) and not redex_kind_at(g, s):
                    return (f"target redex {surface.format_prefix(t, 48)} "
                            "is the image of no source redex")
                todo += (f, tf), (x, tx)
            case Lam(_, _, b), Lam(_, _, tb):
                todo.append((b, tb))
            case (Var(v), Var(w)) | (Ref(v), Ref(w)) if v == w:
                pass
            case _:
                return (f"target node {surface.format_prefix(t, 48)} "
                        f"is not the image of {surface.format_prefix(s, 48)}")
    return None


def _simulate(g, flags, embed, image_redexes, mismatch, steps):
    """Run up to ``steps`` leftmost source steps of ``g`` in the calculus
    of the flags, each beside its image steps on ``embed(g)``.

    ``image_redexes(position)`` lists the target redexes that simulate a
    source step there, in order, and ``mismatch(g, target)``, if given,
    says why ``target`` is not the image of ``g``.  The source is
    embedded once before the first search, so an ill-formed source is
    rejected before any search, and the embedding a step's images must
    land on is the next step's target: one embedding per step, plus
    one.  Each image redex must sit at the source step's depth, read on
    the target before any image step.
    """
    target = embed(g)
    done = 0
    for _ in range(steps):
        if mismatch and (why := mismatch(g, target)):
            return SimReport(False, done, why)
        src, depth = _leftmost_source_redex(g, flags)
        if src is None:
            return SimReport(True, done, "source term is normal")
        g2 = contract(g, src)
        images = image_redexes(src.position)
        # flag depth counts the crossings the embedding boxes
        # coinductively, so an image level's depth is the source depth
        for image in images:
            lv = level_at(target, image.position)
            if lv.count("c") != depth:
                return SimReport(False, done, f"image step at level {lv!r} "
                                              f"is not at depth {depth}")
        t2 = target
        for image in images:
            t2 = contract(t2, image)
        target = embed(g2)
        if not graph_bisimilar(t2, target):
            return SimReport(False, done, "image steps do not land on the "
                                          "embedding of the source reduct")
        g = g2
        done += 1
    return SimReport(True, done)


def simulate_girard(g: TermGraph, a: int, steps: int) -> SimReport:
    """Check the perfect simulation (:func:`_simulate`): each source step
    at depth ``n`` maps to one target step at depth ``n``, and every
    redex of each embedded term is the image of a source redex, at every
    position (:func:`_girard_mismatch`)."""
    kind = "coinductive" if a else "inductive"
    return _simulate(g, DepthFlags(0, 0, a), lambda h: embed_girard(h, a),
                     lambda p: (Redex(girard_image_path(p), "", kind),),
                     _girard_mismatch, steps)


def simulate_cbv(g: TermGraph, a: int, b: int, steps: int) -> SimReport:
    """Check the two-step simulation (:func:`_simulate`): each source
    step at depth ``n`` maps to the inner redex, then its identity
    wrapper, both at depth ``n``."""
    def image_redexes(p):
        inner, wrapper = cbv_image_paths(p)
        return (Redex(inner, "", "coinductive" if b else "inductive"),
                Redex(wrapper, "", "coinductive" if a else "inductive"))

    return _simulate(g, DepthFlags(a, 0, b), lambda h: embed_cbv(h, a, b),
                     image_redexes, None, steps)
