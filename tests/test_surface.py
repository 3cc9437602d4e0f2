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
