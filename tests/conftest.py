import pytest

from llinf import encodings, surface
from llinf.terms import App, Ref, TermGraph, import_defs


@pytest.fixture(scope="session")
def ex():
    return encodings.counterexamples()


def parse(text):
    return surface.parse_program(text)


def flip_applied(prefix, cycle):
    """``bit_flip`` applied to the stream ``prefix (cycle)^ω``."""
    defs = {}
    f = import_defs(defs, encodings.bit_flip())
    s = import_defs(defs, encodings.scott_encode(
        encodings.BINARY, encodings.stream_tree(prefix, cycle), "coalgebra"))
    defs["main"] = App(Ref(f), Ref(s))
    return TermGraph(defs, "main")


@pytest.fixture
def cyclic_term():
    return parse("def M = y #M ; root M")


@pytest.fixture
def rho():
    return parse("def N = N (\\x. x) ; root N")


@pytest.fixture
def identity():
    return parse("def I = \\x. x ; root I")
