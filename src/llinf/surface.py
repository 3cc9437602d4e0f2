"""Surface syntax: parsing and printing of term programs.

Grammar (UTF-8 text)::

    program := (def NAME = term ;)* root NAME ;
    term    := VAR | term term | \\VAR. term | \\!VAR. term | \\#VAR. term
             | ! atom | # atom | NAME | ( term )

Application is left-associative, a lambda body extends maximally to the
right, and ``!``/``#`` bind exactly one atom.  Identifiers that match a
defined name parse as references; all others are variables.  Lambda
files (pure lambda calculus) use the same shape plus an optional
``flags abc ;`` clause, with no boxes and only plain ``\\VAR.``
abstractions.

The front end is one ``findall`` of the token texts and one parser loop
over an explicit stack.  Only error messages need token offsets, so a
syntax error scans the text again with them.  The printer emits chunks
from an explicit stack, so nesting depth is bounded by memory only.

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

# the tokens; blanks and ``//`` comments between them are skipped
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_TOKEN = rf"{_IDENT_RE.pattern}|[0-9]+|[\\!#.();=]"
_SKIP = r"\s+|//[^\n]*"
# any other character is a one-character token; only the token is a
# group, so skipped text reads as ""
_TOKEN_TEXT_RE = re.compile(rf"{_SKIP}|({_TOKEN}|\S)")

_KEYWORDS = {"def", "root", "flags"}
_MARKS = {"!": IND, "#": COIND}


def _syntax_error(text, offset, message):
    """The error at ``offset`` of ``text``, with its 1-based line and column."""
    line = text.count("\n", 0, offset) + 1
    return SurfaceSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


class _Parser:
    def __init__(self, text):
        self.text = text
        # the token texts, then "" for the end of input; a character no
        # token starts with is a token, which no rule of the grammar takes
        self.toks = toks = [*filter(None, _TOKEN_TEXT_RE.findall(text)), ""]
        self.i = 0
        self.idents = set(filter(_IDENT_RE.match, set(toks))) - _KEYWORDS
        # the identifier after each ``def`` names a definition, and every
        # occurrence of it parses as a reference
        self.refs = {b for a, b in zip(toks, toks[1:])
                     if a == "def" and b in self.idents}
        self.clash = None  # the first binder named like a definition

    def err(self, message, at=None):
        """Raise ``message`` at token ``at``, the current one by default,
        or ``unexpected character`` at the first token of the text that
        is no token of the grammar."""
        offsets = []
        for m in _TOKEN_TEXT_RE.finditer(self.text):
            token = m[1]
            if not token:
                continue
            if not re.fullmatch(_TOKEN, token):
                raise _syntax_error(self.text, m.start(),
                                    f"unexpected character {token!r}")
            offsets.append(m.start())
        offsets.append(len(self.text))
        raise _syntax_error(self.text, offsets[self.i if at is None else at],
                            message)

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text):
        found = self.next()
        if found != text:
            self.err(f"expected {text!r}, found {found or 'end of input'!r}",
                     self.i - 1)

    def expect_ident(self, what):
        text = self.next()
        if text not in self.idents:
            self.err(f"expected {what}, found {text or 'end of input'!r}",
                     self.i - 1)
        return text

    def term(self, marks):
        """The term from the current token on; ``marks`` maps the box
        marks allowed in it to their kinds.

        One loop over a stack of open frames: the whole term, a
        parenthesis, or a lambda body.  A frame is ``[closer,
        application so far, pending box mark]``, with ``closer`` None,
        ``")"`` or the lambda's ``(kind, name)``.  A finished atom is
        boxed by the pending mark and applied to the frame's application.
        """
        toks, idents, refs = self.toks, self.idents, self.refs
        i = self.i
        stack = []
        frame = [None, None, None]
        while True:
            text = toks[i]
            if text in idents:
                node = Ref(text) if text in refs else Var(text)
                i += 1
            elif text == "(":
                stack.append(frame)
                frame = [")", None, None]
                i += 1
                continue
            elif frame[2] is None and text == "\\":
                lam = LIN
                mark = toks[i + 1]
                if mark in _MARKS:
                    if not marks:
                        self.err("only plain abstractions are allowed here", i + 1)
                    lam = _MARKS[mark]
                    i += 1
                name = toks[i + 1]
                if name not in idents:
                    self.err("expected bound variable, found "
                             f"{name or 'end of input'!r}", i + 1)
                if toks[i + 2] != ".":
                    self.err(f"expected '.', found {toks[i + 2] or 'end of input'!r}",
                             i + 2)
                i += 3
                if name in refs and self.clash is None:
                    self.clash = name
                stack.append(frame)
                frame = [(lam, name), None, None]
                continue
            elif frame[2] is None and text in marks:
                frame[2] = marks[text]
                i += 1
                continue
            elif frame[1] is None or frame[2] is not None:
                self.err(f"expected a term, found {text or 'end of input'!r}", i)
            else:
                # this token ends the frame's term (a lambda body's term
                # ends with the term that holds it)
                closer, node, _ = frame
                if closer is None:
                    self.i = i
                    return node
                if closer == ")":
                    if text != ")":
                        self.err(f"expected ')', found {text or 'end of input'!r}", i)
                    i += 1
                else:
                    node = Lam(*closer, node)
                frame = stack.pop()
            if frame[2] is not None:
                node = Box(frame[2], node)
                frame[2] = None
            frame[1] = node if frame[1] is None else App(frame[1], node)

    def program(self, lambdas_only=False):
        marks = {} if lambdas_only else _MARKS
        defs = {}
        root = flags = None
        while self.toks[self.i]:
            at = self.i
            text = self.next()
            if text == "def":
                name = self.expect_ident("definition name")
                if name in defs:
                    self.err(f"duplicate definition {name!r}", at)
                self.expect("=")
                defs[name] = self.term(marks)
                self.expect(";")
            elif text == "root":
                root = self.expect_ident("root name")
                if self.toks[self.i] == ";":
                    self.i += 1
            elif text == "flags":
                if not lambdas_only:
                    self.err("'flags' is only meaningful in lambda files", at)
                digits = self.next()
                if not re.fullmatch(r"[01]{3}", digits):
                    self.err("flags must be three binary digits", self.i - 1)
                flags = tuple(int(ch) for ch in digits)
                if self.toks[self.i] == ";":
                    self.i += 1
            else:
                self.err(f"expected 'def' or 'root', found {text!r}", at)
        if root is None:
            self.err("missing 'root' clause")
        if root not in defs:
            raise DefinitionError(f"root {root!r} is not defined")
        if self.clash is not None:
            raise DefinitionError(
                f"bound variable {self.clash!r} collides with a definition name")
        return defs, root, flags


def parse_program(text: str) -> TermGraph:
    """Parse a full program into a validated term graph."""
    defs, root, _ = _Parser(text).program()
    return TermGraph(defs, root)


def parse_term(text: str) -> TermGraph:
    """Parse a bare closed-form term (no definitions) into a graph."""
    p = _Parser(text)
    term = p.term(_MARKS)
    if p.toks[p.i]:
        p.err("trailing input after term")
    return TermGraph({"main": term}, "main")


def parse_lambda_program(text: str):
    """Parse a pure-lambda program; returns ``(graph, flags_or_None)``."""
    defs, root, flags = _Parser(text).program(lambdas_only=True)
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

# pattern mark -> kind, per system; and kind -> mark
_PATTERNS = {
    "llinf": {"": "lin", "!": "ind", "#": "coind"},
    "4s": {"": "lin", "!": "ind1", "#": "coind", "^": "dup", "*": "any"},
}
_PATTERN_MARKS = {k: m for kinds in _PATTERNS.values() for m, k in kinds.items()}


def parse_environment(text: str, system: str) -> dict:
    """Parse the comma-separated environment syntax for one system.

    ``!x`` means the inductive pattern in the full system and the
    ind-one pattern in the 4S system; ``^x`` and ``*x`` exist in 4S only.
    """
    env = {}
    kinds = _PATTERNS[system]
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
        if not _IDENT_RE.fullmatch(item):
            raise SurfaceSyntaxError(f"bad environment variable {item!r}")
        if item in env:
            raise SurfaceSyntaxError(f"variable {item!r} bound twice in environment")
        if mark not in kinds:
            raise SurfaceSyntaxError(
                f"pattern {mark}{item} has no kind in {system}")
        env[item] = kinds[mark]
    return env


def format_environment(env: dict) -> str:
    return ", ".join(f"{_PATTERN_MARKS[k]}{x}" for x, k in sorted(env.items()))
