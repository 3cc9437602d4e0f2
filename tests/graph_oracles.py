"""Oracles and helpers over graphs and finite trees.

* Occurrence counting and the inductive-cycle search as separate graph
  passes (reverse reachability, a cycle test, a topological order, a
  memoised path count, a depth-first search): the earlier production
  route, kept as the oracle of the single SCC pass in
  :mod:`llinf.wellform`.
* Alpha-equivalence and printing by structural recursion: the earlier
  production route, kept as the oracle of the iterative passes in
  :mod:`llinf.terms` and :mod:`llinf.surface`.
* The recursive-descent parser, its line-tracking tokenizer and the
  reference-resolving pass after it: the earlier production front end,
  kept as the oracle of the scanner and parser loop in
  :mod:`llinf.surface` (which also rejects boxes in lambda files).
* A contraction step in separate passes (the position rewritten by
  ``reduction._rewrite``, the substitution alone, a ``derive`` given a
  fresh scan of the new root body, and ``pruned()`` every time): the
  earlier production route, kept as the oracle of the one pass that
  :func:`llinf.reduction.contract` makes.
* Height-bounded unfolding and truncation, for coherence checks.
"""

import re
from functools import partial

from llinf import reduction
from llinf.errors import (
    DefinitionError, InvalidPositionError, SurfaceSyntaxError,
)
from llinf.terms import (
    App, Box, Cut, CUT, Lam, Node, Ref, TermGraph, Var, IND, LIN, COIND,
    children, derive, fresh_name, rebuild, remake, subst_in_body, _scan_body,
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


def contract(g: TermGraph, redex) -> TermGraph:
    """One contraction in separate passes; see the module docstring."""
    path = redex.position

    def beta(node):
        kind = reduction.redex_kind_at(g, node)
        if kind != redex.kind:
            raise InvalidPositionError(
                f"position {'.'.join(path) or '<root>'} holds "
                f"{kind or 'no redex'}, not a {redex.kind} redex")
        f = g.resolve(node.fn)
        if f.kind == LIN:
            value = node.arg
        else:
            value = g.resolve(node.arg).body
        # keep definition bodies guarded
        return g.resolve(subst_in_body(g, f.body, f.name, value)[0])

    new_body = reduction._rewrite(g, {path: beta})
    root = g.root
    if root in g.referenced():
        # the old root is shared; give the rewritten unfolding a new name
        root = fresh_name(root, g.all_names())
    return derive(g, root, new_body, _scan_body(new_body)).pruned()


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


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|//[^\n]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<digits>[0-9]+)
      | (?P<punct>[\\!#.();=])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"def", "root", "flags"}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}:{self.text!r}@{self.line}:{self.col}"


def _tokenize(text):
    tokens = []
    pos = 0
    line = 1
    linestart = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SurfaceSyntaxError(
                f"unexpected character {text[pos]!r}",
                line, pos - linestart + 1)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(),
                                 line, m.start() - linestart + 1))
        nl = text.count("\n", pos, m.end())
        if nl:
            line += nl
            linestart = text.rfind("\n", pos, m.end()) + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - linestart + 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def err(self, message, tok=None):
        tok = tok or self.peek()
        raise SurfaceSyntaxError(message, tok.line, tok.col)

    def expect(self, text):
        t = self.next()
        if t.text != text:
            self.err(f"expected {text!r}, found {t.text or 'end of input'!r}", t)
        return t

    def expect_ident(self, what="identifier"):
        t = self.next()
        if t.kind != "ident" or t.text in _KEYWORDS:
            self.err(f"expected {what}, found {t.text or 'end of input'!r}", t)
        return t.text

    # term := lambda | application of factors
    def parse_term(self, lambdas_only=False):
        t = self.peek()
        if t.text == "\\":
            return self.parse_lambda(lambdas_only)
        factors = [self.parse_factor(lambdas_only)]
        while True:
            t = self.peek()
            if t.kind == "ident" and t.text not in _KEYWORDS:
                factors.append(self.parse_factor(lambdas_only))
            elif t.text == "(" or (t.text in ("!", "#") and not lambdas_only):
                factors.append(self.parse_factor(lambdas_only))
            elif t.text == "\\":
                # a trailing lambda extends maximally to the right
                factors.append(self.parse_lambda(lambdas_only))
                break
            else:
                break
        term = factors[0]
        for f in factors[1:]:
            term = App(term, f)
        return term

    def parse_lambda(self, lambdas_only):
        self.expect("\\")
        kind = LIN
        t = self.peek()
        if t.text == "!":
            if lambdas_only:
                self.err("only plain abstractions are allowed here")
            self.next()
            kind = IND
        elif t.text == "#":
            if lambdas_only:
                self.err("only plain abstractions are allowed here")
            self.next()
            kind = COIND
        name = self.expect_ident("bound variable")
        self.expect(".")
        body = self.parse_term(lambdas_only)
        return Lam(kind, name, body)

    def parse_factor(self, lambdas_only):
        t = self.peek()
        if t.text == "!":
            self.next()
            return Box(IND, self.parse_atom(lambdas_only))
        if t.text == "#":
            self.next()
            return Box(COIND, self.parse_atom(lambdas_only))
        return self.parse_atom(lambdas_only)

    def parse_atom(self, lambdas_only):
        t = self.peek()
        if t.text == "(":
            self.next()
            term = self.parse_term(lambdas_only)
            self.expect(")")
            return term
        if t.kind == "ident" and t.text not in _KEYWORDS:
            self.next()
            return Var(t.text)  # refs resolved after all defs are known
        self.err(f"expected a term, found {t.text or 'end of input'!r}")

    def parse_program(self, lambdas_only=False):
        defs = {}
        order = []
        root = None
        flags = None
        while True:
            t = self.peek()
            if t.text == "def":
                self.next()
                name = self.expect_ident("definition name")
                if name in defs:
                    self.err(f"duplicate definition {name!r}", t)
                self.expect("=")
                defs[name] = self.parse_term(lambdas_only)
                order.append(name)
                self.expect(";")
            elif t.text == "root":
                self.next()
                root = self.expect_ident("root name")
                if self.peek().text == ";":
                    self.next()
            elif t.text == "flags":
                self.next()
                tok = self.next()
                if tok.kind != "digits" or not re.fullmatch(r"[01]{3}", tok.text):
                    self.err("flags must be three binary digits", tok)
                flags = tuple(int(ch) for ch in tok.text)
                if self.peek().text == ";":
                    self.next()
            elif t.kind == "eof":
                break
            else:
                self.err(
                    f"expected 'def' or 'root', found {t.text or 'end of input'!r}")
        if root is None:
            self.err("missing 'root' clause")
        if root not in defs:
            raise DefinitionError(f"root {root!r} is not defined")
        defs = {name: _resolve_idents(body, set(defs)) for name, body in defs.items()}
        return defs, root, flags


def _resolve_idents(node, defnames):
    match node:
        case Var(x):
            return Ref(x) if x in defnames else node
        case App(f, a):
            return App(_resolve_idents(f, defnames), _resolve_idents(a, defnames))
        case Lam(k, x, b):
            if x in defnames:
                raise DefinitionError(
                    f"bound variable {x!r} collides with a definition name")
            return Lam(k, x, _resolve_idents(b, defnames))
        case Box(k, b):
            return Box(k, _resolve_idents(b, defnames))
    return node


def parse_program(text: str) -> TermGraph:
    """Parse a full program into a validated term graph."""
    defs, root, flags = _Parser(text).parse_program()
    if flags is not None:
        raise SurfaceSyntaxError("'flags' is only meaningful in lambda files")
    return TermGraph(defs, root)


def parse_term(text: str) -> TermGraph:
    """Parse a bare closed-form term (no definitions) into a graph."""
    p = _Parser(text)
    term = p.parse_term()
    if p.peek().kind != "eof":
        p.err("trailing input after term")
    return TermGraph({"main": term}, "main")


def parse_lambda_program(text: str):
    """Parse a pure-lambda program; returns ``(graph, flags_or_None)``."""
    defs, root, flags = _Parser(text).parse_program(lambdas_only=True)
    return TermGraph(defs, root), flags
