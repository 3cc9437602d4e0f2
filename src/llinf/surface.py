"""Surface syntax: parsing and printing of term programs.

Grammar (UTF-8 text)::

    program := (def NAME = term ;)* root NAME ;
    term    := VAR | term term | \\VAR. term | \\!VAR. term | \\#VAR. term
             | ! atom | # atom | NAME | ( term )

Application is left-associative, a lambda body extends maximally to the
right, and ``!``/``#`` bind exactly one atom.  Identifiers that match a
defined name parse as references; all others are variables.  Lambda
files (pure lambda calculus) use the same shape plus an optional
``flags abc ;`` clause and permit only plain ``\\VAR.`` abstractions.

Environments for the command line are comma-separated patterns:
``x`` linear, ``!x`` inductive (ind-one in the 4S system), ``#x``
coinductive, ``^x`` duplicable, ``*x`` arbitrary.
"""

import re

from .errors import DefinitionError, SurfaceSyntaxError
from .terms import (
    App, Box, Cut, Lam, Node, Ref, TermGraph, Var,
    COIND, IND, LIN,
)

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


# ---------------------------------------------------------------------------
# printing

_LAM_MARKS = {LIN: "", IND: "!", COIND: "#"}
# the nodes printed without parentheses as box contents, as application
# arguments, and as the function side of an application
_BARE_BOXED = {Var, Ref, Cut}
_BARE_ARG = _BARE_BOXED | {Box}
_BARE_FN = _BARE_ARG | {App}


def _chunks(node: Node):
    """The text of ``node`` in the surface grammar, chunk by chunk."""
    todo = [node]
    while todo:
        n = todo.pop()
        t = type(n)
        if t is str:
            yield n
        elif t is Var or t is Ref:
            yield n.name
        elif t is Cut:
            yield "<cut>"
        elif t is Lam:
            yield f"\\{_LAM_MARKS[n.kind]}{n.name}. "
            todo.append(n.body)
        elif t is App:
            a = n.arg
            todo += (a,) if type(a) in _BARE_ARG else (")", a, "(")
            todo.append(" ")
            f = n.fn
            todo += (f,) if type(f) in _BARE_FN else (")", f, "(")
        elif t is Box:
            yield "!" if n.kind == IND else "#"
            b = n.body
            todo += (b,) if type(b) in _BARE_BOXED else (")", b, "(")
        else:
            raise TypeError(f"unexpected node {n!r}")


def format_node(node: Node) -> str:
    """Render one body (or truncated tree) in the surface grammar."""
    return "".join(_chunks(node))


def format_prefix(node: Node, width: int) -> str:
    """The first ``width`` characters of :func:`format_node`, rendering
    no more of ``node`` than they need."""
    out = []
    size = 0
    for chunk in _chunks(node):
        out.append(chunk)
        size += len(chunk)
        if size >= width:
            break
    return "".join(out)[:width]


def format_graph(g: TermGraph) -> str:
    """Render a graph as a parseable program (reachable defs only)."""
    lines = []
    for name in g.reachable_defs():
        lines.append(f"def {name} = {''.join(_chunks(g.defs[name]))} ;")
    lines.append(f"root {g.root} ;")
    return "\n".join(lines) + "\n"


def format_lambda_graph(g: TermGraph, flags=None) -> str:
    out = format_graph(g)
    if flags is not None:
        out += "flags {}{}{} ;\n".format(*flags)
    return out


# ---------------------------------------------------------------------------
# environments

def parse_environment(text: str, system: str) -> dict:
    """Parse the comma-separated environment syntax for one system.

    ``!x`` means the inductive pattern in the full system and the
    ind-one pattern in the 4S system.
    """
    env = {}
    text = text.strip()
    if not text:
        return env
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise SurfaceSyntaxError("empty environment entry")
        mark = ""
        if item[0] in "!#^*":
            mark = item[0]
            item = item[1:].strip()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", item):
            raise SurfaceSyntaxError(f"bad environment variable {item!r}")
        if item in env:
            raise SurfaceSyntaxError(f"variable {item!r} bound twice in environment")
        if mark == "":
            kind = "lin"
        elif mark == "!":
            kind = "ind" if system == "llinf" else "ind1"
        elif mark == "#":
            kind = "coind"
        elif mark == "^":
            kind = "dup"
        else:
            kind = "any"
        env[item] = kind
    return env


def format_environment(env: dict) -> str:
    marks = {"lin": "", "ind": "!", "ind1": "!", "coind": "#",
             "dup": "^", "any": "*"}
    return ", ".join(f"{marks[k]}{x}" for x, k in sorted(env.items()))
