"""Scott encodings of free (co)algebras, the combinator library, the
counterexample suite, and the representability harness.

A constructor tree over a signature ``f_1 < ... < f_n`` is encoded as a
case-analysis abstraction::

    enc(f_m(t_1, ..., t_p)) = \\!y_1. ... \\!y_n. y_m [t_1] ... [t_p]

with children wrapped in inductive boxes for elements of the free
algebra (finite data) and in coinductive boxes for elements of the free
coalgebra (streams and other infinite trees).  Infinite regular trees
are encoded as cyclic graphs, one definition per distinct subtree.

Decoding is lazy and constructor-by-constructor: normalise depth 0 of
the candidate, match the case-analysis shape, and decode the boxed
children the same way.  Each constructor is evaluated as a node over the
input's definitions, so decoding builds no graph, and each distinct box
contents once, so a regular stream costs one evaluation per state.
"""

import re
from dataclasses import dataclass

from .errors import BudgetExceededError, EncodingError
from .terms import (
    App, Box, Lam, Node, Ref, TermGraph, Tree, Var,
    COIND, IND, LIN,
    DEFAULT_BUDGET, fresh_name, graph_of, import_defs, rebuild,
)
from . import reduction


@dataclass(frozen=True)
class Signature:
    """Totally ordered function symbols with arities."""

    symbols: tuple

    def __post_init__(self):
        seen = set()
        for name, arity in self.symbols:
            if name in seen:
                raise EncodingError(f"duplicate symbol {name!r}")
            if arity < 0:
                raise EncodingError(f"negative arity for {name!r}")
            seen.add(name)

    def names(self):
        return [name for name, _ in self.symbols]

    def arity(self, sym):
        for name, arity in self.symbols:
            if name == sym:
                return arity
        raise EncodingError(f"unknown symbol {sym!r}")

    def index(self, sym):
        for i, (name, _) in enumerate(self.symbols):
            if name == sym:
                return i
        raise EncodingError(f"unknown symbol {sym!r}")


EPSILON = "e"


def alphabet_signature(alphabet: str) -> Signature:
    """Unary symbols for each letter plus the nullary end marker.

    The letters must be distinct, in ``[0-9A-Za-z]`` and not the end
    marker: the letters a stream spec can hold."""
    for ch in alphabet:
        if ch == EPSILON or not re.fullmatch("[0-9A-Za-z]", ch):
            raise EncodingError(
                f"alphabet letter {ch!r} is not one of [0-9A-Za-z] "
                f"other than the end marker {EPSILON!r}")
    return Signature(tuple((ch, 1) for ch in alphabet) + ((EPSILON, 0),))


BINARY = alphabet_signature("01")


@dataclass(frozen=True, eq=False, repr=False)
class FiniteTree(Tree):
    """A constructor tree; ``==``, ``hash`` and ``repr`` need no
    recursion (:class:`~llinf.terms.Tree`)."""

    sym: str
    children: tuple = ()

    def __str__(self):
        out = []
        todo = [self]
        while todo:
            t = todo.pop()
            if type(t) is str:
                out.append(t)
                continue
            out.append(t.sym)
            if t.children:
                first, *rest = t.children
                todo.append(")")
                for child in reversed(rest):
                    todo += (child, ",")
                todo += (first, "(")
        return "".join(out)


@dataclass(frozen=True)
class RegularTree:
    """A regular infinite tree as a guarded system over a signature:
    each state maps to a symbol and a tuple of successor states."""

    states: tuple          # ((state, sym, (succ, ...)), ...)
    root: str

    def as_dict(self):
        return {s: (sym, succs) for s, sym, succs in self.states}


def word_tree(word: str) -> FiniteTree:
    """Finite word as a chain of unary symbols ending in the marker."""
    tree = FiniteTree(EPSILON)
    for ch in reversed(word):
        tree = FiniteTree(ch, (tree,))
    return tree


def stream_tree(prefix: str, cycle: str) -> RegularTree:
    """Eventually periodic word ``prefix . cycle^omega`` as a regular tree."""
    if not cycle:
        raise EncodingError("the periodic part of a stream must be nonempty")
    states = []
    symbols = prefix + cycle
    for i, ch in enumerate(symbols):
        if i < len(symbols) - 1:
            succ = f"s{i + 1}"
        else:
            succ = f"s{len(prefix)}"
        states.append((f"s{i}", ch, (succ,)))
    return RegularTree(tuple(states), "s0")


_SIG_RE = re.compile(
    r"^\s*sig\s+([A-Za-z_][A-Za-z0-9_]*)\s*\{\s*(.*?)\s*\}\s*$", re.S)


def parse_signature_spec(text: str) -> Signature:
    """Parse ``sig NAME { f/2, g/0, ... }`` into a signature."""
    m = _SIG_RE.match(text)
    if not m:
        raise EncodingError(f"bad signature spec {text!r}")
    symbols = []
    body = m.group(2)
    if body:
        for item in body.split(","):
            item = item.strip()
            sm = re.fullmatch(r"([A-Za-z0-9_']+)\s*/\s*([0-9]+)", item)
            if not sm:
                raise EncodingError(f"bad symbol declaration {item!r}")
            symbols.append((sm.group(1), int(sm.group(2))))
    return Signature(tuple(symbols))


_STREAM_RE = re.compile(r"^([0-9A-Za-z]*)(?:\(([0-9A-Za-z]+)\))?$")


def parse_stream_spec(text: str):
    """``"u"`` is the finite word u; ``"u(v)"`` is u followed by v
    repeated forever."""
    m = _STREAM_RE.match(text.strip())
    if not m:
        raise EncodingError(f"bad stream spec {text!r}")
    prefix, cycle = m.group(1), m.group(2)
    if cycle is None:
        return word_tree(prefix)
    return stream_tree(prefix, cycle)


def spec_word(spec, bound: int) -> str:
    """The word (or its length-``bound`` prefix) denoted by a spec built
    from unary symbols; finite words end with the marker symbol."""
    match spec:
        case FiniteTree():
            out = []
            t = spec
            while t.sym != EPSILON:
                if len(t.children) != 1:
                    raise EncodingError("not a word-shaped tree")
                out.append(t.sym)
                t = t.children[0]
                if len(out) > bound:
                    return "".join(out[:bound])
            return "".join(out) + EPSILON
        case RegularTree():
            d = spec.as_dict()
            out = []
            state = spec.root
            while len(out) < bound:
                sym, succs = d[state]
                if sym == EPSILON:
                    return "".join(out) + EPSILON
                out.append(sym)
                state = succs[0]
            return "".join(out)
    raise TypeError(f"not a tree spec: {spec!r}")


# ---------------------------------------------------------------------------
# encoding and decoding

def _branch_names(sig):
    return [f"y_{name}" for name in sig.names()]


def _case_body(sig, sym, child_nodes, boxkind):
    ys = _branch_names(sig)
    body = Var(ys[sig.index(sym)])
    for child in child_nodes:
        body = App(body, Box(boxkind, child))
    for y in reversed(ys):
        body = Lam(IND, y, body)
    return body


def scott_encode(sig: Signature, spec, mode: str) -> TermGraph:
    """Scott encoding of a tree over the signature.

    ``mode`` is ``algebra`` (children in inductive boxes; finite trees
    only) or ``coalgebra`` (children in coinductive boxes; finite trees
    or regular systems).
    """
    if mode == "algebra":
        boxkind = IND
        if not isinstance(spec, FiniteTree):
            raise EncodingError("free-algebra elements are finite trees")
    elif mode == "coalgebra":
        boxkind = COIND
    else:
        raise ValueError(f"unknown mode {mode!r}")

    match spec:
        case FiniteTree():
            def enc(t, ctx):
                if len(t.children) != sig.arity(t.sym):
                    raise EncodingError(
                        f"symbol {t.sym!r} expects {sig.arity(t.sym)} children, "
                        f"got {len(t.children)}")
                return (lambda *kids: _case_body(sig, t.sym, kids, boxkind),
                        [(child, ctx) for child in t.children])

            return graph_of(rebuild(spec, None, enc), "enc")
        case RegularTree():
            d = spec.as_dict()
            defs = {}
            for state, (sym, succs) in d.items():
                if len(succs) != sig.arity(sym):
                    raise EncodingError(
                        f"state {state!r}: symbol {sym!r} expects "
                        f"{sig.arity(sym)} children, got {len(succs)}")
                defs[f"enc_{state}"] = _case_body(
                    sig, sym, [Ref(f"enc_{s}") for s in succs], boxkind)
            return TermGraph(defs, f"enc_{spec.root}")
    raise TypeError(f"not a tree spec: {spec!r}")


@dataclass
class DecodeResult:
    tree: object          # FiniteTree, with '...' leaves where cut off
    complete: bool
    detail: str = ""

    def word(self):
        parts = []
        t = self.tree
        while True:
            if t.sym == "...":
                return "".join(parts)
            if not t.children:
                return "".join(parts) + (EPSILON if t.sym == EPSILON else t.sym)
            parts.append(t.sym)
            t = t.children[0]


def scott_decode(g: TermGraph, sig: Signature, mode: str, bound: int,
                 fuel: int = 2_000, budget=DEFAULT_BUDGET) -> DecodeResult:
    """Evaluate lazily and read back up to ``bound`` constructors.

    Each constructor is evaluated to its depth-0 normal form as a node
    over ``g``'s definitions: first the root body, then the contents of
    the box of each child read back.  Each distinct contents is
    evaluated once per call: what it reads back is kept under the
    evaluator's contents key.  Raises :class:`EncodingError` when
    a normal form does not have the case-analysis shape or the
    evaluation deadlocks, and :class:`BudgetExceededError` when the
    evaluation runs out of fuel, as it does when the evaluator runs out
    of budget; a failed evaluation is not kept.
    """
    boxkind = IND if mode == "algebra" else COIND
    # one set for every constructor: a child can hold binders that the
    # steps of an earlier constructor renamed
    names = set(g.all_names())
    # contents key -> (symbol, children); a contents is the root body, a
    # definition or the body of a box in the children here: it stays alive
    read = {}
    complete = True

    def peel(node, remaining):
        # node is a child of a decoded constructor, or the root body in
        # a box of the kind a child has
        nonlocal complete
        node = g.resolve(node)
        if not isinstance(node, Box) or node.kind != boxkind:
            raise EncodingError(
                "shape mismatch: child is not wrapped in the "
                f"{'inductive' if boxkind == IND else 'coinductive'} box")
        if remaining < 1:
            complete = False
            return FiniteTree("..."), None
        contents = g.resolve(node.body)
        key = reduction._shallow_key(contents)
        if key in read:
            sym, args = read[key]
            return ((lambda *kids: FiniteTree(sym, kids)),
                    [(arg, remaining - 1) for arg in args])
        boxes, stats = reduction._frontier_eval(g, contents, 0, fuel, budget,
                                                names)
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
        read[key] = sym, args
        return ((lambda *kids: FiniteTree(sym, kids)),
                [(arg, remaining - 1) for arg in args])

    tree = rebuild(Box(boxkind, g.root_body()), bound, peel)
    return DecodeResult(tree, complete)


# ---------------------------------------------------------------------------
# combinators

def identity(kind=LIN) -> Node:
    return Lam(kind, "x", Var("x"))


def fixpoint(a: int) -> TermGraph:
    """The fixpoint combinator built from inductive self-application.

    Unrolls in two steps: applied to ``!F`` it reaches
    ``F box_a(Y !F)`` where ``box_a`` is the inductive box for ``a = 0``
    and the coinductive box for ``a = 1``.
    """
    boxkind = COIND if a else IND
    carrier = Lam(IND, "x", Lam(IND, "y", App(
        Var("y"),
        Box(boxkind, App(App(Var("x"), Box(IND, Var("x"))), Box(IND, Var("y")))))))
    defs = {
        "Ycarrier": carrier,
        "Y": App(Ref("Ycarrier"), Box(IND, Ref("Ycarrier"))),
    }
    return TermGraph(defs, "Y")


def guarded_fixpoint() -> TermGraph:
    """The guarded fixpoint of the 4S fragment.

    ``X F #F`` reduces in exactly three level-by-level steps to
    ``F #(X F #F)``: the functional is taken twice, once bare and once
    boxed.
    """
    carrier = Lam(COIND, "x", Lam(LIN, "y", Lam(COIND, "z", App(
        Var("y"),
        Box(COIND, App(App(App(Var("x"), Box(COIND, Var("x"))), Var("z")),
                       Box(COIND, Var("z"))))))))
    defs = {
        "Xcarrier": carrier,
        "X": App(Ref("Xcarrier"), Box(COIND, Ref("Xcarrier"))),
    }
    return TermGraph(defs, "X")


def selector(sig: Signature) -> TermGraph:
    """Case-analysis driver: feeds the boxed branches to an encoding."""
    ys = _branch_names(sig)
    body = Var("x")
    for y in ys:
        body = App(body, Box(IND, Var(y)))
    for y in reversed(ys):
        body = Lam(IND, y, body)
    return graph_of(Lam(LIN, "x", body), "select")


def tuple_term(components) -> TermGraph:
    """``\\x. x !M_1 ... !M_n``; the projection picks a component."""
    defs = {}
    body = Var("x")
    for comp in components:
        root = import_defs(defs, comp)
        body = App(body, Box(IND, Ref(root)))
    tup = Lam(LIN, "x", body)
    name = fresh_name("tuple", set(defs))
    defs[name] = tup
    return TermGraph(defs, name).pruned()


# ---------------------------------------------------------------------------
# the counterexample library

def counterexamples() -> dict:
    """The recurring example terms, as named graphs.

    * ``nonNF``: the term reducing (infinitarily) to two non-normal
      reducts ``nonNF_N`` and ``nonNF_L`` with common reduct ``nonNF_P``;
    * ``nonconf`` / ``nonconf_partner``: the mutual pair whose even- and
      odd-layer contractions diverge towards ``nonconf_L`` and
      ``nonconf_P``, which cannot be joined;
    * ``deadlock``: an inductive abstraction applied to a coinductive
      box;
    * ``rho``: the unguarded self-application with no well-formation
      derivation;
    * ``cyclic_term``: the basic well-formed cyclic term ``M = y #M``;
    * ``omega_ind``: the inductive self-application loop.
    """
    i_lin = identity()
    i_co = identity(COIND)
    k_co = Lam(COIND, "x", Lam(COIND, "y", Var("x")))

    out = {}
    out["nonNF"] = TermGraph(
        {"M": Box(COIND, App(Ref("M"), App(i_lin, i_lin)))}, "M")
    out["nonNF_N"] = TermGraph(
        {"N": Box(COIND, App(Box(COIND, App(Ref("N"), App(i_lin, i_lin))), i_lin))},
        "N")
    out["nonNF_L"] = TermGraph(
        {"L": Box(COIND, App(Box(COIND, App(Ref("L"), i_lin)), App(i_lin, i_lin)))},
        "L")
    out["nonNF_P"] = TermGraph(
        {"P": Box(COIND, App(Box(COIND, App(Ref("P"), i_lin)), i_lin))}, "P")

    pair = {
        "M": App(App(k_co, Box(COIND, Ref("N"))), Box(COIND, k_co)),
        "N": App(App(k_co, Box(COIND, Ref("M"))), Box(COIND, i_co)),
    }
    out["nonconf"] = TermGraph(pair, "M")
    out["nonconf_partner"] = TermGraph(dict(pair), "N")
    out["nonconf_L"] = TermGraph(
        {"L": App(App(k_co, Box(COIND, Ref("L"))), Box(COIND, i_co))}, "L")
    out["nonconf_P"] = TermGraph(
        {"P": App(App(k_co, Box(COIND, Ref("P"))), Box(COIND, k_co))}, "P")

    out["deadlock"] = graph_of(
        App(Lam(IND, "x", Var("x")), Box(COIND, i_lin)), "main")
    out["rho"] = TermGraph({"N": App(Ref("N"), i_lin)}, "N")
    out["cyclic"] = TermGraph(
        {"M": App(Var("y"), Box(COIND, Ref("M")))}, "M")
    omega = Lam(IND, "x", App(Var("x"), Box(IND, Var("x"))))
    out["omega_ind"] = graph_of(App(omega, Box(IND, omega)), "main")
    return out


# ---------------------------------------------------------------------------
# representability

FIN = "fin"
INFTY = "inf"


@dataclass
class HarnessVerdict:
    ok: bool
    got: str = ""
    want: str = ""
    detail: str = ""

    def __bool__(self):
        return self.ok


def representability_harness(mf: TermGraph, sig: Signature, inputs,
                             expected, kinds, out_kind, depth: int,
                             fuel: int = 2_000) -> HarnessVerdict:
    """Apply a candidate function term to encoded inputs, evaluate, and
    compare the decoded output prefix against the expected spec.

    ``kinds`` assigns ``fin``/``inf`` to each input (finite data encode
    into the free algebra, streams into the free coalgebra), ``out_kind``
    does the same for the result, and ``depth`` is the number of output
    constructors compared.  A decoding that runs out of fuel or budget
    raises :class:`BudgetExceededError` instead of giving a verdict.
    """
    if len(inputs) != len(kinds):
        raise ValueError("one kind is needed per input")
    defs = {}
    root = import_defs(defs, mf)
    term = Ref(root)
    for spec, kind in zip(inputs, kinds):
        mode = "algebra" if kind == FIN else "coalgebra"
        enc = scott_encode(sig, spec, mode)
        enc_root = import_defs(defs, enc)
        term = App(term, Ref(enc_root))
    if isinstance(term, Ref):  # zero inputs: keep the body guarded
        term = defs[term.name]
    name = fresh_name("apply", set(defs))
    defs[name] = term
    applied = TermGraph(defs, name).pruned()

    mode = "algebra" if out_kind == FIN else "coalgebra"
    try:
        got = scott_decode(applied, sig, mode, depth, fuel)
    except EncodingError as exc:
        return HarnessVerdict(False, detail=str(exc))
    got_word = got.word()
    want_word = spec_word(expected, depth)
    # compare up to the shorter observed prefix
    n = min(len(got_word), len(want_word))
    if got_word[:n] != want_word[:n] or not got_word:
        return HarnessVerdict(False, got=got_word, want=want_word,
                              detail="decoded output differs from expectation")
    return HarnessVerdict(True, got=got_word, want=want_word)


# ---------------------------------------------------------------------------
# demo stream functions

def stream_identity() -> TermGraph:
    return graph_of(Lam(LIN, "s", Var("s")), "ident")


def bit_flip() -> TermGraph:
    """The causal stream function flipping every bit of a binary stream.

    Built from the guarded fixpoint: the recursive functional receives
    the boxed recursor, cases on the input stream, emits the flipped
    head, and re-applies the recursor to the tail under the coinductive
    box.
    """
    branch0 = Lam(COIND, "t", _case_body(
        BINARY, "1", [App(Var("r"), Var("t"))], COIND))
    branch1 = Lam(COIND, "t", _case_body(
        BINARY, "0", [App(Var("r"), Var("t"))], COIND))
    branch_end = _case_body(BINARY, EPSILON, [], COIND)
    functional = Lam(COIND, "r", Lam(LIN, "s", App(
        App(App(Var("s"), Box(IND, branch0)), Box(IND, branch1)),
        Box(IND, branch_end))))

    defs = {}
    x_root = import_defs(defs, guarded_fixpoint())
    defs["flipstep"] = functional
    defs["flip"] = App(App(Ref(x_root), Ref("flipstep")),
                       Box(COIND, Ref("flipstep")))
    return TermGraph(defs, "flip").pruned()
