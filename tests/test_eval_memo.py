"""``eval_lbl`` normalises each distinct box contents once per call.

What it returns must be what taking every step returns.  The oracle is
``run_lbl_trace``: a step hook turns the memo off, so it takes every
step.  Both are compared on what a command prints from them.
``scott_decode`` reads each distinct contents once per call, under the
same key.
"""

import itertools

import pytest

import graph_oracles
from llinf import cli, encodings, generate, reduction, terms
from llinf.encodings import (
    BINARY, scott_decode, scott_encode, stream_tree, word_tree,
)
from llinf.errors import BudgetExceededError, EncodingError
from llinf.reduction import eval_lbl, run_lbl_trace
from llinf.surface import format_graph, format_node
from conftest import flip_applied, parse


def _evaluation(evaluate, g, depth, fuel, budget):
    """What a command prints from an evaluation: the result graph and
    tree (None past the budget, after a deadlock), the steps per depth,
    the fuel consumed, the outcome, the stuck position and the detail;
    or the message of its budget error."""
    try:
        out, tree, stats = evaluate(g, depth, fuel, budget)[:3]
    except BudgetExceededError as exc:
        return str(exc)
    return (format_graph(out), None if tree is None else format_node(tree),
            stats.steps_per_depth, stats.fuel_consumed, stats.outcome,
            stats.stuck_position, stats.detail)


def _least_budget(g, depth, fuel, budget):
    """The least budget at which the evaluation raises no budget error,
    or None when it raises one at ``budget``."""
    def passes(b):
        try:
            eval_lbl(g, depth, fuel, b)
        except BudgetExceededError:
            return False
        return True

    if not passes(budget):
        return None
    lo, hi = 0, budget          # the evaluation fails at lo, passes at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


def _assert_as_every_step(g, depth, fuel, budget):
    """``eval_lbl`` prints what ``run_lbl_trace`` prints at ``fuel`` and
    ``budget``, at the fuels S-1, S and S+1 around each depth's step
    total S, and at the budgets N-1 and N around the least budget N
    that suffices."""
    want = _evaluation(run_lbl_trace, g, depth, fuel, budget)
    assert _evaluation(eval_lbl, g, depth, fuel, budget) == want
    cases = set()
    if not isinstance(want, str):
        for total in set(want[2].values()):
            cases |= {(f, budget) for f in (total - 1, total, total + 1)
                      if f >= 0}
    n = _least_budget(g, depth, fuel, budget)
    if n is not None:
        cases |= {(fuel, n - 1), (fuel, n)}
    for f, b in sorted(cases):
        assert (_evaluation(eval_lbl, g, depth, f, b)
                == _evaluation(run_lbl_trace, g, depth, f, b)), (f, b)


def _examples():
    for name, (g, _) in sorted(cli._example_expectations().items()):
        for depth in range(7):
            yield f"{name}:{depth}", g, depth


def _generated():
    for system in ("llinf", "4s"):
        for seed in range(40):
            _, g = generate.random_term(("memo", seed), system, 26)
            yield f"{system}:{seed}", g, 3


def _streams():
    # every prefix of at most 2 bits and cycle of at most 3: by depth 6
    # the stream has reached a state it was in before, and one prefix
    # goes on to depth 40
    words = ["".join(w) for n in range(4)
             for w in itertools.product("01", repeat=n)]
    for prefix in (w for w in words if len(w) <= 2):
        for cycle in words[1:]:
            for depth in (6, 40) if prefix == "01" else (6,):
                yield (f"flip:{prefix}({cycle}):{depth}",
                       flip_applied(prefix, cycle), depth)


@pytest.mark.parametrize("g,depth", [
    pytest.param(g, depth, id=name)
    for name, g, depth in itertools.chain(_examples(), _generated(),
                                          _streams())])
def test_eval_prints_what_every_step_prints(g, depth):
    _assert_as_every_step(g, depth, 100, 3_000)


def _counting_steps(monkeypatch):
    count = [0]
    plain = reduction._contract_at

    def counted(*args):
        count[0] += 1
        return plain(*args)

    monkeypatch.setattr(reduction, "_contract_at", counted)
    return count


def test_a_regular_stream_takes_the_same_steps_at_any_depth(monkeypatch):
    # 01(110) has five states: each is normalised once, however deep the
    # evaluation goes, and the steps it would take are still counted
    count = _counting_steps(monkeypatch)
    g = flip_applied("01", "110")
    calls = {}
    for depth in (16, 48):
        count[0] = 0
        _, _, stats = eval_lbl(g, depth, 1_000)
        assert stats.outcome == "normalized"
        assert stats.fuel_consumed == 9 * (depth + 1)
        calls[depth] = count[0]
    assert calls[16] == calls[48] == 45, calls


# two boxes at every depth, a step in each; in the first the step is
# inside an inductive box, so the heap takes the second box's step first
ORDERED = "def T = c #(!((\\x. x) T)) #((\\x. x) T) ; root T"


def test_fuel_running_out_after_reuse_leaves_the_stepped_partial_tree(
        monkeypatch):
    # at depth 2 every box holds a kept contents, but 4 steps are past a
    # fuel of 3: the memo would leave the last box in queue order
    # unstepped, taking every step leaves the last one in heap order
    g = parse(ORDERED)
    assert (reduction._levels(g, g.root_body(), 2, 3, 3_000,
                              set(g.all_names()), None, {}) is None)
    want = _evaluation(run_lbl_trace, g, 2, 3, 3_000)
    count = _counting_steps(monkeypatch)
    got = _evaluation(eval_lbl, g, 2, 3, 3_000)
    assert got == want
    assert got[1] == ("c #(!(c #(!(c #<cut> #<cut>)) #(c #<cut> #<cut>))) "
                      "#(c #(!((\\x. x) (c #<cut> #<cut>))) #(c #<cut> #<cut>))")
    assert got[2:5] == ({0: 0, 1: 2, 2: 3}, 5, "fuel-exhausted")
    # 2 steps at depth 1, then the depth is done again with every step
    assert count[0] == 2 + 2 + 3
    # with the fuel to spare the depth-2 boxes take their kept forms
    count[0] = 0
    assert eval_lbl(g, 2, 4)[2].steps_per_depth == {0: 0, 1: 2, 2: 4}
    assert count[0] == 2


# a step at every depth renames a binder of the same contents
RENAMING = "def m = (\\x. \\y. y x) y ; def n = c m (#n) ; root n"


def test_a_contents_whose_steps_rename_is_never_reused(monkeypatch):
    count = _counting_steps(monkeypatch)
    g = parse(RENAMING)
    got = _evaluation(eval_lbl, g, 3, 50, 3_000)
    assert count[0] == got[3] == 4
    assert got == _evaluation(run_lbl_trace, g, 3, 50, 3_000)
    assert got[1] == ("c (\\y1. y1 y) #(c (\\y2. y2 y) #(c (\\y3. y3 y) "
                      "#(c (\\y4. y4 y) #<cut>)))")


def test_a_kept_charge_past_a_later_share_is_stepped_again(monkeypatch):
    # each state of 01(110) charges 45 nodes; the share of a box shrinks
    # by 6 a depth, and at budget 284 depth 40 leaves it 44, so the box
    # is stepped again and runs out of budget as taking every step does;
    # the error names the budget given, not the share
    g = flip_applied("01", "110")
    want = "traversal exceeded 284 nodes (ill-formed input?)"
    assert _evaluation(run_lbl_trace, g, 40, 1_000, 284) == want
    count = _counting_steps(monkeypatch)
    assert _evaluation(eval_lbl, g, 40, 1_000, 284) == want
    assert count[0] == 45        # it runs out on the walk as it is queued
    count[0] = 0
    assert eval_lbl(g, 40, 1_000, 285)[2].outcome == "normalized"
    assert count[0] == 45


# ----- one contents key: no evaluation path compares or renders whole trees

# each constructor doubles the tree under one shared node
SHARED = (r"def G = \#a. \!y_0. \!y_1. \!y_e. y_0 #(G #(a a)) ; "
          r"def main = G #z ; root main ;")


def _nest(n):
    """The word ``0^n`` as a literal nest of ``n`` coinductive boxes."""
    return scott_encode(BINARY, word_tree("0" * n), "coalgebra")


def _decoded(decode, g, bound):
    try:
        res = decode(g, BINARY, "coalgebra", bound, 100)
    except (EncodingError, BudgetExceededError) as exc:
        return type(exc), str(exc)
    return res.word(), str(res.tree), res.complete


def _key_corpus():
    for prefix in ("", "0", "1", "00", "01", "10", "11"):
        for cycle in ("0", "1", "01", "10", "11", "011", "110", "100"):
            stream = stream_tree(prefix, cycle)
            yield scott_encode(BINARY, stream, "coalgebra"), 6, 40
            yield flip_applied(prefix, cycle), 6, 40
    yield _nest(200), 200, 201
    yield parse(SHARED), 12, 12


def test_eval_and_decode_neither_compare_nor_render_whole_trees(monkeypatch):
    corpus = list(_key_corpus())
    want = [(_evaluation(run_lbl_trace, g, depth, 100, 3_000),
             _decoded(graph_oracles.scott_decode, g, bound))
            for g, depth, bound in corpus]

    def forbidden(*args):
        raise AssertionError("a whole tree was compared or rendered")

    monkeypatch.setattr(terms.Tree, "__eq__", forbidden)
    for module in (terms, encodings):
        monkeypatch.setattr(module, "canonical_string", forbidden,
                            raising=False)
    got = [(_evaluation(eval_lbl, g, depth, 100, 3_000),
            _decoded(scott_decode, g, bound))
           for g, depth, bound in corpus]
    monkeypatch.undo()
    assert got == want


def test_a_deep_literal_nest_decodes_in_full():
    res = scott_decode(_nest(4_000), BINARY, "coalgebra", 5_000)
    assert res.complete and res.word() == "0" * 4_000 + "e"


def test_decode_keys_read_nodes_linear_in_the_nest(monkeypatch):
    # one key per contents, each rendering the contents' six nodes above
    # its box (the end marker's four), however deep the nest below it
    plain = reduction._shallow_key
    calls = nodes = 0

    def counted(node):
        nonlocal calls, nodes
        key = plain(node)
        calls += 1
        nodes += len(key.split(" "))
        return key

    monkeypatch.setattr(reduction, "_shallow_key", counted)
    read = {}
    for n in (1_000, 2_000, 4_000):
        calls = nodes = 0
        scott_decode(_nest(n), BINARY, "coalgebra", n + 1)
        read[n] = calls, nodes
    assert read == {n: (n + 1, 6 * n + 4) for n in read}
