"""Stack safety: no routine in the library recurses on term depth.

Deep inputs are built here as trees, and as text for the parser.
"""

import ast
import dataclasses
import sys
from pathlib import Path

import pytest

from llinf import encodings, generate, lam, reduction, surface, terms, wellform
from llinf.terms import (
    App, Box, Lam, Ref, TermGraph, Var, BODY, COIND, LIN,
    alpha_equal, canonical_string, equal_at_depth, graph_bisimilar, graph_of,
    import_defs, project_depth,
)
from graph_oracles import truncate_tree, unfold_height

DEPTH = 5_000


def _lams(leaf, base="x", n=DEPTH):
    """``leaf`` under ``n`` linear binders named ``base0``, ``base1``, ..."""
    body = leaf
    for i in range(n):
        body = Lam(LIN, f"{base}{i}", body)
    return body


def _redex_graph():
    return graph_of(_lams(App(Lam(LIN, "v", Var("v")), Var("z"))))


def _spine():
    """An application spine ``DEPTH`` nodes deep with a boxed argument
    every other step and a reference at the head."""
    body = Ref("D")
    for i in range(DEPTH):
        body = App(body, Box(COIND, Var(f"a{i}")) if i % 2 else Var(f"a{i}"))
    return TermGraph({"main": body, "D": Lam(LIN, "w", Var("w"))}, "main")


def _eval():
    _, tree, stats = reduction.eval_lbl(_redex_graph(), 0, 10)
    assert stats.steps_per_depth == {0: 1}
    assert canonical_string(tree) == canonical_string(_lams(Var("z")))


def _contract():
    out = reduction.contract(
        _redex_graph(), reduction.Redex((BODY,) * DEPTH, "", "linear"))
    assert canonical_string(out.root_body()) == canonical_string(_lams(Var("z")))


def _alpha_equal():
    leaf = App(Var("x0"), Var("z"))
    assert alpha_equal(_lams(leaf), _lams(App(Var("y0"), Var("z")), "y"))
    assert not alpha_equal(_lams(leaf), _lams(App(Var("y1"), Var("z")), "y"))


def _canonical_string():
    assert canonical_string(_lams(Var("x0"))).count("\\lin") == DEPTH
    text = canonical_string(project_depth(_spine(), 0))
    assert text.startswith("@ " * DEPTH) and text.count("c# ?") == DEPTH // 2


def _equal_at_depth():
    assert equal_at_depth(graph_of(_lams(Var("x7"))),
                          graph_of(_lams(Var("y7"), "y")), 0)


def _graph_bisimilar():
    assert graph_bisimilar(_spine(), _spine())
    assert not graph_bisimilar(graph_of(_lams(Var("x0"))),
                               graph_of(_lams(Var("y1"), "y")))


def _unfold_height():
    tree = unfold_height(TermGraph({"M": App(Var("y"), Box(COIND, Ref("M")))},
                                   "M"), DEPTH)
    assert canonical_string(tree).count("#") == DEPTH // 2


def _truncate_tree():
    tree = truncate_tree(_lams(Var("x0")), DEPTH - 1)
    assert canonical_string(tree).endswith("?")


def _import_defs():
    defs = {"D": Var("q")}
    root = import_defs(defs, _spine())
    assert root == "main" and set(defs) == {"D", "D1", "main"}
    TermGraph(defs, root)


def _format_node():
    text = surface.format_node(_lams(Var("z")))
    assert text.startswith("\\x4999. \\x4998.") and text.endswith(". z")


def _format_graph():
    text = surface.format_graph(_spine())
    assert text.startswith("def main = D a0 #a1 a2 #a3")


def _embed_girard():
    out = lam.embed_girard(graph_of(_lams(App(Var("x0"), Var("z")))), 0)
    assert surface.format_node(out.root_body()).endswith("x0 !z")


def _embed_cbv():
    out = lam.embed_cbv(graph_of(_lams(App(Var("x0"), Var("z")))), 0, 0)
    assert "!((\\!w1. w1) (x0 !z))" in surface.format_node(out.root_body())


def _scott_decode():
    sig = encodings.BINARY
    g = encodings.scott_encode(sig, encodings.stream_tree("", "01"), "coalgebra")
    res = encodings.scott_decode(g, sig, "coalgebra", DEPTH)
    assert res.word() == "01" * (DEPTH // 2) and not res.complete
    assert str(res.tree).startswith("0(1(0(")


def _scott_encode():
    g = encodings.scott_encode(encodings.BINARY,
                               encodings.word_tree("01" * (DEPTH // 2)),
                               "algebra")
    assert surface.format_graph(g).count("y_0 !") == DEPTH // 2


def _node_methods():
    a, b = _lams(Var("z")), _lams(Var("z"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != _lams(Var("y")) and a != _lams(Var("z"), "y")
    text = repr(a)
    assert text.startswith("Lam(kind='lin', name='x4999', body=Lam(")
    assert text.endswith("body=Var(name='z'))" + ")" * (DEPTH - 1))


def _finite_tree_methods():
    word = "01" * (DEPTH // 2)
    a, b = encodings.word_tree(word), encodings.word_tree(word)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != encodings.word_tree(word[:-1] + "0")
    assert repr(a).startswith("FiniteTree(sym='0', children=(FiniteTree(")


DEEP_CASES = {f.__name__[1:]: f for f in [
    _eval, _contract, _alpha_equal, _canonical_string, _equal_at_depth,
    _graph_bisimilar, _unfold_height, _truncate_tree, _import_defs,
    _format_node, _format_graph, _embed_girard, _embed_cbv, _scott_decode,
    _scott_encode, _node_methods, _finite_tree_methods,
]}


@pytest.mark.parametrize("name", sorted(DEEP_CASES))
def test_deep_input_needs_no_recursion(name):
    """Each routine on a term 5 000 levels deep, built without the
    parser, under the default recursion limit."""
    assert sys.getrecursionlimit() <= 1_000 < DEPTH
    DEEP_CASES[name]()


def _generated_twin(value, classes):
    """``value`` rebuilt from classes whose ``==``, ``hash`` and ``repr``
    the dataclass decorator generates (shallow trees only)."""
    if isinstance(value, terms.Tree):
        cls = type(value)
        if cls not in classes:
            classes[cls] = dataclasses.make_dataclass(
                cls.__qualname__, [(f, object) for f in cls.__match_args__],
                frozen=True)
        return classes[cls](*(_generated_twin(getattr(value, f), classes)
                              for f in cls.__match_args__))
    if type(value) is tuple:
        return tuple(_generated_twin(v, classes) for v in value)
    return value


def test_tree_methods_match_the_generated_ones():
    """On generated terms and constructor trees, ``==``, ``hash`` and
    ``repr`` give what the dataclass-generated methods give."""
    classes = {}
    trees = []
    for system in ("llinf", "4s"):
        for seed in range(15):
            _, g = generate.random_term(("methods", seed), system, 30)
            trees += g.defs.values()
    trees += [encodings.word_tree("0110"), encodings.FiniteTree("..."),
              encodings.FiniteTree("f", (encodings.word_tree("1"),
                                         encodings.FiniteTree("e")))]
    twins = [_generated_twin(t, classes) for t in trees]
    for t, tw in zip(trees, twins):
        assert repr(t) == repr(tw)
        assert hash(t) == hash(tw)
    for i in range(len(trees)):
        for j in range(i, min(i + 5, len(trees))):
            assert (trees[i] == trees[j]) == (twins[i] == twins[j])
            assert (trees[i] != trees[j]) == (twins[i] != twins[j])
    assert any(trees[i] == trees[j] and trees[i] is not trees[j]
               for i in range(len(trees)) for j in range(i))
    assert (Var("x") == Ref("x")) is False and (Var("x") == "x") is False


def _program(body):
    return f"def M = {body} ;\nroot M ;\n"


def _deep_boxes():
    marks = ["!#"[i % 2] for i in range(DEPTH)]
    return "".join(m + "(" for m in marks[:-1]) + marks[-1] + "y" + ")" * (DEPTH - 1)


def _deep_lambdas():
    marks = ("", "!", "#")
    return "".join(f"\\{marks[i % 3]}x{i}. " for i in range(DEPTH)) + "x0"


def _deep_parentheses():
    """``((a0 a1) a2) ...``: printed without its parentheses."""
    return "(" * DEPTH + "a0" + "".join(f" a{i})" for i in range(1, DEPTH + 1))


def _deep_arguments():
    """``a0 (a1 (... (a4999 u)))``."""
    return ("".join(f"a{i} (" for i in range(DEPTH - 1))
            + f"a{DEPTH - 1} u" + ")" * (DEPTH - 1))


DEEP_TEXTS = {f.__name__[6:]: f for f in [
    _deep_boxes, _deep_lambdas, _deep_parentheses, _deep_arguments]}


@pytest.mark.parametrize("name", sorted(DEEP_TEXTS))
def test_deep_text_round_trips_through_the_parser(name):
    """Text nested 5 000 levels deep goes through ``parse_program``,
    ``format_graph`` and ``parse_program`` again under the default
    recursion limit, and prints the same text both times."""
    assert sys.getrecursionlimit() <= 1_000 < DEPTH
    text = _program(DEEP_TEXTS[name]())
    printed = surface.format_graph(surface.parse_program(text))
    assert surface.format_graph(surface.parse_program(printed)) == printed
    if name == "parentheses":
        assert printed == _program(" ".join(f"a{i}" for i in range(DEPTH + 1)))
    else:
        assert printed == text


def test_check_rejects_a_deep_unused_binder_chain():
    """``\\x1999. ... \\x0. z`` under ``{z: lin}``: every binder is unused,
    so the check rejects at the outermost one, describing each state
    of the path from a bounded prefix of its subterm."""
    rep = wellform.check("llinf", {"z": "lin"}, graph_of(_lams(Var("z"), n=2_000)))
    assert not rep.accepted
    assert rep.reason == "linear variable 'x1999' is unused"
    assert len(rep.failure_path) == 2_001
    assert rep.failure_path[0] == "z |- \\x1999. \\x1998. \\x1997. \\x1996. \\x1995. \\x199..."
    assert rep.failure_path[-1].endswith("|- z")


# ---------------------------------------------------------------------------
# no recursion by name

SRC = Path(__file__).resolve().parent.parent / "src" / "llinf"

# Recursion on term depth stays only in the metric oracle that the
# bench's metrics-oracle suite checks against, and in the generators,
# whose depth their size bounds.
ALLOWED = {
    ("metrics", "_graph_metric"),
    ("generate", "TermGen"), ("generate", "random_lambda"),
}


def _self_calls(tree):
    """(outermost definition, function) for each function in ``tree`` that
    calls itself by name, or as a method of ``self``."""
    out = []

    def visit(node, top):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                owner = top or child.name
                if isinstance(child, ast.FunctionDef):
                    for call in ast.walk(child):
                        if not isinstance(call, ast.Call):
                            continue
                        f = call.func
                        if (isinstance(f, ast.Name) and f.id == child.name
                                or isinstance(f, ast.Attribute)
                                and f.attr == child.name
                                and isinstance(f.value, ast.Name)
                                and f.value.id == "self"):
                            out.append((owner, child.name))
                            break
                visit(child, owner)

    visit(tree, None)
    return out


def test_no_function_in_src_calls_itself():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for owner, fn in _self_calls(ast.parse(path.read_text())):
            if (path.stem, owner) not in ALLOWED:
                found.append(f"{path.stem}.{owner}: {fn}")
    assert not found, found


def test_the_recursion_guard_finds_self_calls():
    src = ("def f(n):\n    return f(n - 1)\n"
           "def g(t):\n    def go(n):\n        return go(n)\n    return go(t)\n"
           "class C:\n    def m(self):\n        return self.m()\n"
           "def h(t):\n    return t.h()\n")
    assert _self_calls(ast.parse(src)) == [("f", "f"), ("g", "go"), ("C", "m")]
