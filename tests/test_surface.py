import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from llinf import generate
from llinf.errors import DefinitionError, SurfaceSyntaxError
from llinf.surface import (
    format_environment, format_graph, format_node, parse_environment,
    parse_lambda_program, parse_program, parse_term,
)
from llinf.terms import App, Box, Lam, Var, graph_bisimilar


def test_application_left_associative():
    g = parse_term("x y z")
    assert g.root_body() == App(App(Var("x"), Var("y")), Var("z"))


def test_lambda_body_extends_right():
    g = parse_term("\\x. x y")
    assert g.root_body() == Lam("lin", "x", App(Var("x"), Var("y")))


def test_box_binds_one_atom():
    g = parse_term("! x y")
    assert g.root_body() == App(Box("ind", Var("x")), Var("y"))
    g2 = parse_term("!(x y)")
    assert g2.root_body() == Box("ind", App(Var("x"), Var("y")))


def test_marked_abstractions():
    g = parse_term("\\!x. \\#y. x")
    assert g.root_body() == Lam("ind", "x", Lam("coind", "y", Var("x")))


def test_syntax_error_position():
    with pytest.raises(SurfaceSyntaxError) as err:
        parse_program("def M = (x ; root M")
    assert err.value.line == 1
    assert err.value.col is not None


def test_flags_in_a_term_file_is_placed_at_its_token():
    """A term file takes no flags clause: the error names the line and
    column of ``flags``, before the rest of the text is read."""
    for text, at in [("def M = x ;\nroot M ;\nflags 101 ;\n", (3, 1)),
                     ("def M = x ;  flags 1 ;\ndef ;", (1, 14)),
                     ("  flags 001 ; def M = x ; root N ;", (1, 3))]:
        with pytest.raises(SurfaceSyntaxError,
                           match="'flags' is only meaningful in lambda files") as err:
            parse_program(text)
        assert (err.value.line, err.value.col) == at
    assert parse_lambda_program("def M = \\x. x ; root M ; flags 101 ;")[1] == (1, 0, 1)


def test_duplicate_definition():
    with pytest.raises(SurfaceSyntaxError):
        parse_program("def M = x ; def M = y ; root M")


def test_missing_root():
    with pytest.raises(DefinitionError):
        parse_program("def M = x ; root K")


def test_root_semicolon_optional():
    assert parse_program("def M = x ; root M").root == "M"
    assert parse_program("def M = x ; root M ;").root == "M"


def test_cut_rendering(cyclic_term):
    from llinf.terms import project_depth
    assert format_node(project_depth(cyclic_term, 0)) == "y #<cut>"


def test_environment_syntax():
    env = parse_environment("x, !y, #z, ^w, *v", "4s")
    assert env == {"x": "lin", "y": "ind1", "z": "coind", "w": "dup", "v": "any"}
    assert parse_environment("!y", "llinf") == {"y": "ind"}
    assert parse_environment("", "llinf") == {}
    with pytest.raises(SurfaceSyntaxError):
        parse_environment("x, x", "llinf")


@pytest.mark.parametrize("text", ["^x", "*x", "y, ^x"])
def test_environment_marks_without_a_kind_in_llinf(text):
    with pytest.raises(SurfaceSyntaxError, match="has no kind in llinf"):
        parse_environment(text, "llinf")
    parse_environment(text, "4s")


def test_environment_round_trip():
    env = {"a": "lin", "b": "coind", "c": "dup"}
    assert parse_environment(format_environment(env), "4s") == env


def test_lambda_program_flags():
    g, flags = parse_lambda_program("def T = \\x. x ; root T ; flags 001 ;")
    assert flags == (0, 0, 1)
    with pytest.raises(SurfaceSyntaxError):
        parse_lambda_program("def T = \\!x. x ; root T")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["llinf", "4s"]))
def test_print_parse_round_trip(seed, system):
    _, g = generate.random_term(seed, system, 24)
    reparsed = parse_program(format_graph(g))
    assert graph_bisimilar(g, reparsed)


def test_print_parse_round_trip_examples(ex):
    for name, g in ex.items():
        assert graph_bisimilar(g, parse_program(format_graph(g))), name


def _printed_nodes():
    """Definition bodies and depth projections of generated terms of both
    systems, and pure lambda terms with their two embeddings."""
    from llinf import lam
    from llinf.terms import project_depth
    for system in ("llinf", "4s"):
        for seed in range(150):
            _, g = generate.random_term(("print", seed), system, 10 + seed % 50)
            yield from g.defs.values()
            yield from (project_depth(g, d, 5_000) for d in range(3))
    for seed in range(100):
        g = generate.random_lambda(seed)
        yield from g.defs.values()
        for image in (lam.embed_girard(g, seed % 2), lam.embed_cbv(g, 1, seed % 2)):
            yield from image.defs.values()


def test_printer_matches_the_recursive_oracle():
    from graph_oracles import format_node as oracle
    from llinf.surface import format_prefix
    n = 0
    for node in _printed_nodes():
        want = oracle(node)
        assert format_node(node) == want
        for width in (0, 1, 7, 48, 49, len(want), len(want) + 5):
            assert format_prefix(node, width) == want[:width]
        n += 1
    assert n > 1_500


# ---------------------------------------------------------------------------
# parity with the recursive-descent oracle

# words of the token soups, with their weights: names, keywords, marks,
# binders, parentheses, digits, a comment, blanks, and two characters
# no token starts with
_SOUP = {"x": 6, "y": 4, "M": 4, "N": 3, "f'": 1, "_a": 1, "def": 1,
         "root": 1, "flags": 1, "!": 4, "#": 4, "\\x.": 3, "\\!y.": 2,
         "\\#x.": 2, "\\M.": 2, "\\G0.": 1, "\\": 1, ".": 1, "(": 5,
         ")": 5, "!(": 2, "#(": 2, ";": 1, "=": 1, "0": 1, "001": 1, "12": 1,
         "// c\n": 1, "\n": 1, "\t": 1, "$": 0.3, "é": 0.3}


def _soups(n=4_000):
    """Seeded token soups: bare, or wrapped in a definition, a root clause
    and (for lambda files) a flags clause, so that many of them parse."""
    rng = random.Random(8)
    words, weights = list(_SOUP), list(_SOUP.values())
    for _ in range(n):
        soup = "".join(w + rng.choice(["", " ", " ", "\n"]) for w in
                       rng.choices(words, weights, k=rng.randrange(12)))
        wrap = rng.random()
        if wrap < 0.4:
            soup = f"def M = {soup} ;\nroot M ;\n"
        elif wrap < 0.6:
            # a binder named like a definition may come before or after
            # one in the soup: the first in the text is reported
            other = rng.choice(["x", "N"])
            defs = [f"def N = {soup} ;", f"def M = \\{other}. {other} ;"]
            rng.shuffle(defs)
            soup = " ".join(defs) + "\nroot N ; flags 001 ;\n"
        yield soup


# texts at the edges of the scanner: blanks and comments at the end of
# the input, characters no token starts with, Unicode blanks, line ends
# and non-ASCII letters and digits, empty and comment-only inputs, and
# an error placed after 5 000 definitions
_EDGES = [
    "def M = \\x. x ;\nroot M ;\nflags 101\t",
    "def M = x ;\nroot M ; // c",
    "def M = x ; // c",
    "// é\ndef M = x ; root M ;",
    "'", "/", "x/y", "def M = x/y ; root M ;", "def M = x' ; root M ; /",
    "def\u00a0M = x\u2028y ;\r\nroot M ;\r\n",
    "def M = \\x.\u00a0x\u2028;\u2028root M\u00a0;",
    "λx", "1x", "def M = λx ; root M ;", "def M = 1x ; root M ;",
    "def M = \\x. x ; root M ; flags ٠٠١ ;",
    "def M = \\x. x ; root M ; flags ²01 ;",
    "", "// a\n// b", "// only a comment",
    "".join(f"def D{k} = \\x. x D{k + 1} ;\n" for k in range(5_000))
    + "def D5000 = y ;\nroot D0 ;\ndef E = (y ;\n",
]


def _parity_texts():
    """Printed programs (the bundled examples, generated terms of both
    systems, lambda programs), each with two one-word mutations, the
    token soups, then the edge texts."""
    from llinf import encodings
    from llinf.surface import format_lambda_graph
    printed = [format_graph(g) for g in encodings.counterexamples().values()]
    printed += [format_graph(g) for g in (
        encodings.bit_flip(), encodings.fixpoint(0), encodings.guarded_fixpoint())]
    for system in ("llinf", "4s"):
        printed += [format_graph(generate.random_term(
            ("parse", seed), system, 10 + seed % 50)[1]) for seed in range(150)]
    printed += [format_lambda_graph(generate.random_lambda(seed),
                                    (seed % 2, 0, seed // 2 % 2))
                for seed in range(150)]
    yield from printed
    rng = random.Random(9)
    for text in printed * 2:
        words = text.split(" ")
        words[rng.randrange(len(words))] = rng.choices(
            list(_SOUP), list(_SOUP.values()))[0]
        yield " ".join(words)
    yield from _soups()
    yield from _EDGES


def _outcome(entry, text):
    """The ``repr`` of defs, root and flags, or the error's class, message,
    line and column."""
    try:
        out = entry(text)
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "col", None))
    g, flags = out if isinstance(out, tuple) else (out, None)
    return ("ok", repr(g.defs), g.root, repr(flags))


def _box_in_lambda_file(new, old):
    """Lambda files now reject a box where a term starts.  Up to that
    mark both parsers read alike, so the oracle took the box and failed
    later in the text, or not at all."""
    if new[0] != "SurfaceSyntaxError" or not re.match(
            r"expected a term, found '[!#]'", new[1]):
        return False
    return old[0] != "SurfaceSyntaxError" or old[2:] > new[2:]


def _flags_in_term_file(new, old):
    """Term files now reject a flags clause at its token.  Up to that
    token both parsers read alike, so the oracle took the clause and
    failed later in the text, on the definitions once the text was read,
    or with the same message and no place."""
    flags = "'flags' is only meaningful in lambda files"
    if new[0] != "SurfaceSyntaxError" or not new[1].startswith(flags + " ("):
        return False
    if old[0] == "SurfaceSyntaxError" and old[2] is None:
        return old[1] == flags
    return old[0] == "DefinitionError" or (
        old[0] == "SurfaceSyntaxError" and old[2:] > new[2:])


def test_parser_matches_the_recursive_oracle():
    import graph_oracles as oracle
    entries = [(parse_program, oracle.parse_program),
               (parse_term, oracle.parse_term),
               (parse_lambda_program, oracle.parse_lambda_program)]
    n = boxes_skipped = flags_skipped = 0
    kinds = set()
    for text in _parity_texts():
        for entry, old_entry in entries:
            new, old = _outcome(entry, text), _outcome(old_entry, text)
            if (new != old and entry is parse_lambda_program
                    and _box_in_lambda_file(new, old)):
                boxes_skipped += 1
                continue
            if new != old and entry is parse_program and _flags_in_term_file(new, old):
                flags_skipped += 1
                continue
            assert new == old, text
            kinds.add(new[0])
            n += 1
    assert boxes_skipped > 0 and flags_skipped > 0 and n > 10_000
    assert {"ok", "SurfaceSyntaxError", "DefinitionError"} <= kinds
