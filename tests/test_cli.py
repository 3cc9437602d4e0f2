import importlib
import os
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import llinf
from llinf.cli import main
from llinf.surface import parse_program

CYCLIC = "def M = y #M ;\nroot M ;\n"
RHO = "def N = N (\\x. x) ;\nroot N ;\n"
DEAD = "def D = (\\!x. x) (#(\\y. y)) ;\nroot D ;\n"
LAM = "def T = \\x. T ;\nroot T ;\nflags 100 ;\n"
OMEGA = "def O = (\\!x. x !x) (!(\\!x. x !x)) ;\nroot O ;\n"
# A holds eight boxes, and B applies an inductive abstraction to a
# coinductive box, which can never fire
SHARE = ("def M = x #A #B ; def A = y #u #u #u #u #u #u #u #u ; "
         "def B = (\\!z. z) #w ; root M ;")
DOUBLING = ("def R = (\\!g. \\!a. g !g !(a a)) !(\\!g. \\!a. g !g !(a a)) "
            "!(\\z. z) ;\nroot R ;\n")


def run(args, files=None):
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, text in (files or {}).items():
            with open(name, "wb" if isinstance(text, bytes) else "w") as fh:
                fh.write(text)
        return runner.invoke(main, args)


def test_check_accept():
    r = run(["check", "--system", "llinf", "--env", "!y", "cyc.lli"],
            {"cyc.lli": CYCLIC})
    assert r.exit_code == 0
    assert "accepted" in r.output


def test_check_reject_shows_loop():
    r = run(["check", "--system", "llinf", "--env", "", "rho.lli"],
            {"rho.lli": RHO})
    assert r.exit_code == 1
    assert "inductive loop" in r.output


def test_check_infer():
    r = run(["check", "--system", "llinf", "--infer", "cyc.lli"],
            {"cyc.lli": CYCLIC})
    assert r.exit_code == 0
    assert "!y" in r.output


def test_check_infer_rejects_a_term_no_environment_accepts():
    r = run(["check", "--infer", "rho.lli"], {"rho.lli": RHO})
    assert r.exit_code == 1
    assert r.output == "rejected: no environment accepts this term\n"


def test_check_4s_rejects_an_ind_one_variable_outside_its_box():
    r = run(["check", "--system", "4s", "--env", "!x", "x.lli"],
            {"x.lli": "def M = x ; root M ;"})
    assert r.exit_code == 1
    assert r.output == ("rejected: ind-one variable 'x' occurs outside its "
                        "inductive box\n  at !x |- x\n")


def test_check_infer_with_an_env_is_a_usage_error():
    # the inferred environment would replace the one given, silently
    r = run(["check", "--infer", "--env", "x", "cyc.lli"], {"cyc.lli": CYCLIC})
    assert r.exit_code == 3
    assert r.output == "error: --env and --infer exclude each other\n"
    # an empty --env gives no environment
    r = run(["check", "--infer", "--env", "", "cyc.lli"], {"cyc.lli": CYCLIC})
    assert r.exit_code == 0
    assert "!y" in r.output


def test_check_options_of_the_other_file_kind_are_usage_errors():
    # each was dropped, and the check ran without it
    for args, name, text, error in [
            (["--flags", "001", "--env", "!y"], "c.lli", CYCLIC,
             "--flags applies to lambda files only"),
            (["--flags", "100", "--env", "!y"], "t.lam", LAM,
             "--env applies to term files only"),
            (["--infer"], "t.lam", LAM, "--infer applies to term files only"),
            (["--system", "4s"], "t.lam", LAM,
             "--system applies to term files only"),
            (["--system", "llinf"], "t.lam", LAM,
             "--system applies to term files only")]:
        r = run(["check", *args, name], {name: text})
        assert (r.exit_code, r.output) == (3, f"error: {error}\n"), args
    # before the file is read
    r = run(["check", "--flags", "001", "missing.lli"])
    assert r.output == "error: --flags applies to lambda files only\n"
    # an empty --env gives no environment
    r = run(["check", "--env", "", "t.lam"], {"t.lam": LAM})
    assert r.exit_code == 0


def test_check_lambda_flags():
    r = run(["check", "lam.lam"], {"lam.lam": LAM})
    assert r.exit_code == 0
    r = run(["check", "--flags", "001", "lam.lam"], {"lam.lam": LAM})
    assert r.exit_code == 1


def test_a_command_that_reads_a_file_warns_of_nothing(tmp_path):
    """Under ``python -X dev`` (resource warnings shown) ``check --infer``
    writes nothing to stderr: the file it reads is closed."""
    path = tmp_path / "m.lli"
    path.write_text(CYCLIC)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(llinf.__file__))}
    out = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "llinf.cli", "check", "--infer", str(path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "accepted with !y\n", "")


def test_parse_error_exit_code():
    r = run(["check", "bad.lli"], {"bad.lli": "def M = ( ; root M"})
    assert r.exit_code == 3


def test_lambda_file_rejects_a_box():
    r = run(["check", "box.lam"], {"box.lam": "def M = !x ; root M ; flags 001 ;"})
    assert r.exit_code == 3
    assert isinstance(r.exception, SystemExit)
    assert r.output == "error: expected a term, found '!' (line 1, column 9)\n"


def test_eval_deadlock_exit():
    r = run(["eval", "--depth", "1", "--fuel", "10", "dead.lli"],
            {"dead.lli": DEAD})
    assert r.exit_code == 1
    assert "deadlocked at" in r.output


def test_eval_fuel_exit():
    r = run(["eval", "--depth", "0", "--fuel", "4", "om.lli"],
            {"om.lli": OMEGA})
    assert r.exit_code == 2


def test_eval_normalizes():
    r = run(["eval", "--depth", "1", "--fuel", "50", "t.lli"],
            {"t.lli": "def T = #((\\x. x) y) ;\nroot T ;\n"})
    assert r.exit_code == 0
    assert "#y" in r.output
    assert "normalized" in r.output


def test_trace_tab_separated():
    r = run(["trace", "--depth", "1", "--fuel", "50", "t.lli"],
            {"t.lli": "def T = (\\x. x) (#((\\q. q) y)) ;\nroot T ;\n"})
    assert r.exit_code == 0
    lines = [ln for ln in r.output.splitlines() if "\t" in ln]
    assert lines[0].split("\t") == ["0", "", "0", "linear", ""]
    assert lines[1].split("\t") == ["1", "c", "1", "linear", "box"]


def test_trace_budget_exit():
    r = run(["trace", "--depth", "1", "--budget", "2", "t.lli"],
            {"t.lli": "def T = (\\x. x) (#((\\q. q) y)) ;\nroot T ;\n"})
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert "error: traversal exceeded 2 nodes" in r.output


def test_eval_branching_budget_exit():
    # 2^d boxes at depth d: the region passes the default budget near
    # depth 14, long before depth 25
    r = run(["eval", "--depth", "25", "t.lli"],
            {"t.lli": "def T = \\f. f (#T) (#T) ;\nroot T ;\n"})
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert "error: evaluated region exceeds 100000 nodes" in r.output


@pytest.mark.parametrize("args", [["eval", "--depth", "3", "--fuel", "50"],
                                  ["trace", "--depth", "2", "--fuel", "50"]])
def test_rho_budget_exit(args):
    # the depth-0 region of the spine is infinite: the budget, not the
    # memory, has to stop the first search
    r = run(args + ["rho.lli"], {"rho.lli": RHO})
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert "error: traversal exceeded 100000 nodes" in r.output


def test_doubling_body_budget_exit():
    r = run(["eval", "--depth", "0", "--budget", "20000", "r.lli"],
            {"r.lli": DOUBLING})
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert "error: traversal exceeded 20000 nodes" in r.output


def test_a_budget_error_past_depth_0_names_the_budget_given():
    # at depth 1 A's 17 nodes pass its share of the budget, 4 nodes
    r = run(["eval", "--depth", "3", "--budget", "10", "t.lli"],
            {"t.lli": SHARE})
    assert r.exit_code == 2
    assert r.output == ("error: traversal exceeded 10 nodes "
                        "(ill-formed input?)\n")


@pytest.mark.parametrize("budget", range(23, 36))
def test_a_deadlock_wins_over_the_projections_budget_error(budget):
    # evaluation stops stuck at depth 1, below the depth asked for; the
    # depth-3 region is 35 nodes, so below budget 35 no tree is printed
    args = ["--depth", "3", "--budget", str(budget), "t.lli"]
    r = run(["eval"] + args, {"t.lli": SHARE})
    tree = "x #(y #u #u #u #u #u #u #u #u) #((\\!z. z) #w)\n"
    assert r.exit_code == 1
    assert r.output == ((tree if budget >= 35 else "")
                        + "outcome: stuck (steps per depth: 0:0 1:0)\n"
                        "deadlocked at arg.box: inductive abstraction "
                        "applied to a coinductive box\n")
    r = run(["trace"] + args, {"t.lli": SHARE})
    assert r.exit_code == 1
    assert r.output == ("outcome: stuck\n"
                        "deadlocked at arg.box: inductive abstraction "
                        "applied to a coinductive box\n")


@pytest.mark.parametrize("name, code, reason", [
    ("deadlock", 1, "deadlocked at ε: inductive abstraction applied to a "
                    "coinductive box"),
    ("omega_ind", 2, "fuel exhausted while normalising depth 0"),
], ids=["deadlock", "omega_ind"])
def test_trace_and_eval_say_why_evaluation_stopped(name, code, reason):
    program = run(["examples", name]).output
    for cmd in ("eval", "trace"):
        r = run([cmd, "--depth", "3", "t.lli"], {"t.lli": program})
        assert r.exit_code == code
        *_, outcome, last = r.output.splitlines()
        assert outcome.startswith("outcome: ")
        assert last == reason


def test_weight_table():
    r = run(["weight", "--depths", "0..2", "id.lli"],
            {"id.lli": "def I = \\x. x ;\nroot I ;\n"})
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert lines[0] == "depth\tsize\tdf\ttwei"
    assert lines[1] == "0\t2\t1\t2"


def test_weight_budget_exit():
    r = run(["weight", "--depths", "0..2", "--budget", "2", "id.lli"],
            {"id.lli": "def I = \\x. x x ;\nroot I ;\n"})
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert "error: depth-1 region exceeds 2 nodes" in r.output


@pytest.mark.parametrize("depths", ["x..2", "1.5", "2..", "-1..1", "-1", "3..1"])
def test_weight_bad_depths_usage_exit(depths):
    r = run(["weight", "--depths", depths, "id.lli"],
            {"id.lli": "def I = \\x. x ;\nroot I ;\n"})
    assert r.exit_code == 3
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert r.output.count("\n") == 1 and r.output.startswith("error: --depths")


# ---------------------------------------------------------------------------
# usage errors, click's own included, exit 3

TERM = "def T = #((\\x. x) y) ;\nroot T ;\n"


@pytest.mark.parametrize("args", [
    ["eval", "--depth", "x", "t.lli"],
    ["no-such-command", "t.lli"],
    ["eval", "t.lli", "extra"],
    ["eval", "--no-such-option", "t.lli"],
    ["eval"],
    ["eval", "--depth", "-1", "t.lli"],
    ["eval", "--budget", "-3", "t.lli"],
    ["bench", "--count", "-1"],
    ["bench", "--size", "1"],
    ["bench", "--size", "2", "--count", "3"],
], ids=" ".join)
def test_usage_errors_exit_3(args):
    r = run(args, {"t.lli": TERM})
    assert r.exit_code == 3, r.output
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert "Error: " in r.output


# command -> its arguments but the one drawn; a repeated option takes its
# last value
_BASE = {"eval": ["eval"], "trace": ["trace"], "weight": ["weight"],
         "decode": ["decode"], "embed": ["embed"],
         "bench": ["bench", "--count", "1", "--size", "8"]}
# (command, option) -> (least, greatest) valid value
_INT_OPTIONS = {
    ("eval", "--depth"): (0, None), ("eval", "--fuel"): (0, None),
    ("eval", "--budget"): (1, None),
    ("trace", "--depth"): (0, None), ("trace", "--fuel"): (0, None),
    ("trace", "--budget"): (1, None),
    ("weight", "--budget"): (1, None),
    ("decode", "--bound"): (0, None), ("decode", "--fuel"): (0, None),
    ("embed", "--a"): (0, 1), ("embed", "--b"): (0, 1),
    ("bench", "--count"): (1, None), ("bench", "--size"): (3, None),
}
_VALUES = st.one_of(st.integers(-3, 4).map(str),
                    st.sampled_from(["x", "1.5", "", "1e3", "0..2", "- 1"]))


def _expected_exit(value, lo, hi):
    """3 for a value that is not an integer or out of range, else None
    (any code but 3)."""
    try:
        n = int(value)
    except ValueError:
        return 3
    return 3 if n < lo or (hi is not None and n > hi) else None


@settings(max_examples=60, deadline=None)
@given(option=st.sampled_from(sorted(_INT_OPTIONS)), value=_VALUES,
       extra=st.sampled_from([[], ["extra"], ["--no-such-option"]]))
def test_cli_option_values_exit_with_the_documented_code(option, value, extra):
    cmd, name = option
    lo, hi = _INT_OPTIONS[option]
    path = "t.lam" if cmd == "embed" else "t.lli"
    args = _BASE[cmd] + [name, value] + extra + ([] if cmd == "bench" else [path])
    r = run(args, {"t.lli": TERM, "t.lam": "def D = \\x. x x ;\nroot D ;\n"})
    assert "Traceback" not in r.output
    assert r.exception is None or isinstance(r.exception, SystemExit), (
        repr(r.exception))
    want = 3 if extra else _expected_exit(value, lo, hi)
    if want is None:
        assert r.exit_code in (0, 1, 2), r.output
    else:
        assert r.exit_code == want, r.output


@settings(max_examples=40, deadline=None)
@given(lo=st.integers(-2, 4), hi=st.integers(-2, 4), single=st.booleans())
def test_weight_depths_exit_with_the_documented_code(lo, hi, single):
    depths = str(lo) if single else f"{lo}..{hi}"
    r = run(["weight", "--depths", depths, "t.lli"], {"t.lli": TERM})
    if lo < 0 or (not single and hi < lo):
        assert r.exit_code == 3, r.output
        assert r.output.startswith("error: --depths")
    else:
        assert r.exit_code == 0, r.output
        assert len(r.output.splitlines()) == 2 + (0 if single else hi - lo)


# check's --env and --flags: entries of a mark and a name, and any text
_ENV_ENTRIES = st.lists(st.tuples(st.sampled_from(["", "!", "#", "^", "*"]),
                                  st.sampled_from(["x", "y", "M", "1a", ""])),
                        max_size=3)
_ENV_TEXT = st.text(" ,!#^*xy1", max_size=6)
_FLAGS = st.none() | st.text("01x ", max_size=4)
_MARKS = {"llinf": "!#", "4s": "!#^*"}


def _check_exit(system, entries, text, flags, name):
    """3 for a lambda file given a non-empty ``--env`` or without valid
    flags (given, or in the file's clause when none are given), for a
    term file given ``--flags``, and for a term file whose environment
    has an empty entry, a bad name, a name bound twice or a mark with
    no kind in the system; else None (0 or 1).  ``text`` is the
    ``--env`` value, the entries joined by ", "; blank text is the
    empty environment."""
    if name.endswith(".lam"):
        if text:
            return 3
        if not flags:
            return None if name == "flags.lam" else 3
        return None if re.fullmatch("[01]{3}", flags) else 3
    if flags is not None:
        return 3
    if entries is None or not text.strip():
        return None
    names = [n for _, n in entries]
    ok = (all(re.fullmatch("[A-Za-z_][A-Za-z0-9_']*", n) for n in names)
          and len(set(names)) == len(names)
          and all(m in _MARKS[system] for m, _ in entries))
    return None if ok else 3


@settings(max_examples=80, deadline=None)
@given(system=st.sampled_from(["llinf", "4s"]),
       env=_ENV_ENTRIES | _ENV_TEXT, flags=_FLAGS,
       name=st.sampled_from(["t.lli", "t.lam", "flags.lam"]))
@example(system="llinf", env=[("", "")], flags=None, name="t.lli")
@example(system="llinf", env=[("", ""), ("", "")], flags=None, name="t.lli")
def test_check_options_exit_with_the_documented_code(system, env, flags, name):
    entries = env if isinstance(env, list) else None
    text = env if entries is None else ", ".join(m + n for m, n in entries)
    args = ["check", f"--env={text}"]
    args += [f"--system={system}"] if name.endswith(".lli") else []
    args += [] if flags is None else [f"--flags={flags}"]
    r = run(args + [name], {"t.lli": CYCLIC, "t.lam": "def T = \\x. T ;\nroot T ;\n",
                            "flags.lam": LAM})
    assert "Traceback" not in r.output
    assert r.exception is None or isinstance(r.exception, SystemExit), (
        repr(r.exception))
    want = _check_exit(system, entries, text, flags, name)
    if want is None:
        assert r.exit_code in ((0, 1, 3) if entries is None and name == "t.lli"
                               else (0, 1)), r.output
    else:
        assert r.exit_code == want, r.output
        assert r.output.startswith("error: ")


def test_embed_output_parses():
    r = run(["embed", "--which", "girard", "--a", "0", "d.lam"],
            {"d.lam": "def D = \\x. x x ;\nroot D ;\n"})
    assert r.exit_code == 0
    assert "\\!x. x !x" in r.output


def test_decode_under_a_signature_prints_a_tree():
    tree = ("def t = \\!n. \\!l. n #leaf #u ; def leaf = \\!n. \\!l. l ; "
            "def u = \\!n. \\!l. n #leaf #w ; def w = \\!n. \\!l. n #d #d ; "
            "def d = (\\!x. x) #leaf ; root t ;")
    args = ["decode", "--mode", "coalgebra", "--bound", "3", "t.lli"]
    r = run(args + ["--sig", "sig t { node/2, leaf/0 }"], {"t.lli": tree})
    assert r.exit_code == 0
    assert r.output == "node(leaf,node(leaf,node(...,...)))\n"
    r = run(args + ["--sig", "sig t { node/2"], {"t.lli": tree})
    assert r.exit_code == 3
    assert r.output == "error: bad signature spec 'sig t { node/2'\n"


def test_encode_decode_round_trip():
    r = run(["encode", "--mode", "algebra", "011"])
    assert r.exit_code == 0
    r2 = run(["decode", "--mode", "algebra", "enc.lli"], {"enc.lli": r.output})
    assert r2.exit_code == 0
    assert r2.output.strip() == "011e"


@pytest.mark.parametrize("alphabet,spec", [
    ("00", "0"), ("0e", "0e"), ("a/", "a"), ("", "0"), ("01", "0e1"),
    ("ab", "a(c)"), ("01", "01("),
])
def test_encode_bad_alphabet_or_spec_exits_3(alphabet, spec):
    r = run(["encode", "--alphabet", alphabet, "--mode", "coalgebra", spec])
    assert r.exit_code == 3, r.output
    assert isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert r.output.startswith("error: ")


def test_encode_letters_of_a_spec_parse_back():
    r = run(["encode", "--alphabet", "aZ9", "--mode", "coalgebra", "a(Z9)"])
    assert r.exit_code == 0, r.output
    assert "y_9" in r.output
    r2 = run(["decode", "--alphabet", "aZ9", "--mode", "coalgebra", "--bound",
              "5", "s.lli"], {"s.lli": r.output})
    assert (r2.exit_code, r2.output) == (0, "aZ9Z9\n")


_SPEC = re.compile(r"([0-9A-Za-z]*)(?:\(([0-9A-Za-z]+)\))?")


def _encode_exit(alphabet, mode, spec):
    """0 for distinct letters of [0-9A-Za-z] other than ``e`` and a spec
    of those letters (a finite one in the algebra), else 3."""
    m = _SPEC.fullmatch(spec.strip())
    ok = (len(set(alphabet)) == len(alphabet)
          and all(re.fullmatch("[0-9A-Za-z]", ch) and ch != "e" for ch in alphabet)
          and m is not None and set(spec.strip()) - set("()") <= set(alphabet)
          and (mode == "coalgebra" or m.group(2) is None))
    return 0 if ok else 3


# well-formed alphabets and specs, and any text over their characters
_ALPHABETS = st.one_of(
    st.lists(st.sampled_from("01aZ9"), max_size=4, unique=True).map("".join),
    st.text("01aZe/( ", max_size=4))
_SPECS = st.one_of(
    st.tuples(st.text("01aZ", max_size=4),
              st.text("01aZ", min_size=1, max_size=3) | st.none()).map(
        lambda pc: pc[0] + (f"({pc[1]})" if pc[1] else "")),
    st.text("01aZe/( )", max_size=7))


@settings(max_examples=80, deadline=None)
@given(alphabet=_ALPHABETS, mode=st.sampled_from(["algebra", "coalgebra"]),
       spec=_SPECS)
def test_encode_exits_with_the_documented_code(alphabet, mode, spec):
    r = run(["encode", "--alphabet", alphabet, "--mode", mode, "--", spec])
    assert "Traceback" not in r.output
    assert r.exception is None or isinstance(r.exception, SystemExit), (
        repr(r.exception))
    assert r.exit_code == _encode_exit(alphabet, mode, spec), r.output
    if r.exit_code == 0:
        parse_program(r.output)


_EXAMPLES = ["bit_flip", "cyclic", "deadlock", "fixpoint_coind", "fixpoint_ind",
             "guarded_fixpoint", "nonNF", "nonNF_L", "nonNF_N", "nonNF_P",
             "nonconf", "nonconf_L", "nonconf_P", "omega_ind", "rho"]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(_EXAMPLES + ["rho2", "RHO", "bitflip", "é", "x y"]),
       run_flag=st.booleans())
def test_examples_exit_with_the_documented_code(name, run_flag):
    r = run(["examples"] + (["--run"] if run_flag else []) + [name])
    assert "Traceback" not in r.output
    assert r.exception is None or isinstance(r.exception, SystemExit), (
        repr(r.exception))
    if name in _EXAMPLES:
        assert r.exit_code == 0, r.output
        assert r.output.splitlines()[-1].startswith("// documented verdict: ")
        parse_program(r.output)
    else:
        assert r.exit_code == 3, r.output
        assert r.output.startswith(f"error: unknown example {name!r}")


def test_split_failures_name_the_kind_in_words():
    # an application finds the unused strict variable, as a binder would
    files = {"m.lli": "def m = \\y. y w ; root m ;\n"}
    r = run(["check", "--env", "z,w", "m.lli"], files)
    assert r.exit_code == 1
    assert r.output.startswith("rejected: linear variable 'z' is unused\n")
    r = run(["check", "--system", "4s", "--env", "!z,w", "m.lli"], files)
    assert r.exit_code == 1
    assert r.output.startswith("rejected: ind-one variable 'z' is unused\n")


@pytest.mark.parametrize("module,name,args", [
    ("reduction", "eval_lbl", ["eval", "c.lli"]),
    ("wellform", "check", ["check", "c.lli"]),
])
def test_internal_errors_exit_4_without_a_traceback(monkeypatch, module,
                                                     name, args):
    def broken(*_args, **_kwargs):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr(importlib.import_module(f"llinf.{module}"), name,
                        broken)
    r = run(args, {"c.lli": CYCLIC})
    assert r.exit_code == 4
    assert isinstance(r.exception, SystemExit)
    assert r.output == "internal error: RuntimeError: invariant broken\n"


def test_examples_with_an_empty_name_exit_3():
    for args in (["examples", ""], ["examples", "--run", ""]):
        r = run(args)
        assert r.exit_code == 3, r.output
        assert r.output == "error: unknown example ''; try 'examples'\n"


def test_examples_list_names_every_example():
    r = run(["examples"])
    assert [line.split("\t")[0] for line in r.output.splitlines()] == _EXAMPLES


def test_examples_listing_and_run():
    r = run(["examples"])
    assert r.exit_code == 0
    assert "nonconf" in r.output
    r2 = run(["examples", "deadlock"])
    assert r2.exit_code == 0
    assert "deadlocked" in r2.output
    r3 = run(["examples", "--run"])
    assert r3.exit_code == 0, r3.output
    assert "FAIL" not in r3.output


def test_bench_deterministic():
    args = ["bench", "--seed", "2", "--count", "6", "--system", "4s",
            "--size", "20"]
    r1 = run(args)
    r2 = run(args)
    assert r1.exit_code == 0, r1.output
    assert r1.output == r2.output


def test_bench_metrics_file():
    runner = CliRunner()
    with runner.isolated_filesystem():
        r = runner.invoke(main, ["bench", "--seed", "2", "--count", "4",
                                 "--system", "4s", "--size", "18",
                                 "--metrics-out", "m.tsv"])
        assert r.exit_code == 0, r.output
        with open("m.tsv") as fh:
            table = fh.read().splitlines()
        assert table[0] == "index\tdepth\tsize\tdf\ttwei"
        assert len(table) == 1 + 4 * 3


@pytest.fixture(scope="module")
def flip_program():
    from llinf.surface import format_graph
    from conftest import flip_applied
    return format_graph(flip_applied("", "01"))


def test_eval_prints_deep_stream_prefixes(flip_program):
    r = run(["eval", "--depth", "200", "s.lli"], {"s.lli": flip_program})
    assert r.exit_code == 0, r.output
    tree, outcome = r.output.splitlines()
    assert tree.count("#(") == 200 and tree.endswith("#<cut>" + ")" * 200)
    assert tree.startswith("\\!y_0. \\!y_1. \\!y_e. y_1 #("
                           "\\!y_0. \\!y_1. \\!y_e. y_0 #(")
    assert outcome == ("outcome: normalized (steps per depth: "
                       + " ".join(f"{d}:9" for d in range(201)) + ")")


def test_decode_exits_2_when_the_fuel_runs_out():
    # fuel exhaustion is exit code 2 in decode, as in eval
    prog = run(["examples", "omega_ind"]).output
    for cmd in (["eval", "--depth", "0"],
                ["decode", "--mode", "coalgebra", "--bound", "4"]):
        r = run(cmd + ["o.lli"], {"o.lli": prog})
        assert r.exit_code == 2, r.output
        assert "fuel exhausted" in r.output and "Traceback" not in r.output
    assert r.output.startswith("error: evaluation fuel exhausted: ")


def test_decode_deep_stream_prefix(flip_program):
    r = run(["decode", "--mode", "coalgebra", "--bound", "1200", "s.lli"],
            {"s.lli": flip_program})
    assert r.exit_code == 0, r.output
    assert r.output == "10" * 600 + "\n"


# ---------------------------------------------------------------------------
# every input ends in a documented exit code

DEEP = 5_000
DEEP_BOXES = f"def M = {'!(#(' * (DEEP // 2)}y{'))' * (DEEP // 2)} ;\nroot M ;\n"
DEEP_PARENS = f"def M = {'(' * DEEP}y{')' * DEEP} ;\nroot M ;\n"
FLAGS = "flags 001 ;\n"

# deep lambdas and deep application spines stay out: checking them is
# quadratic in their depth
CLI_COMMANDS = [
    ["check"],
    ["check", "--infer", "--system", "llinf"],
    ["check", "--infer", "--system", "4s"],
    ["eval", "--depth", "2", "--fuel", "30", "--budget", "2000"],
    ["trace", "--depth", "2", "--fuel", "30", "--budget", "2000"],
    ["weight", "--depths", "0..2", "--budget", "2000"],
    ["embed", "--which", "cbv", "--a", "1"],
    ["decode", "--mode", "coalgebra", "--bound", "4", "--fuel", "30"],
]

# single tokens and short phrases, so that many soups parse
_WORDS = ["def", "root", "flags", "M", "N", "x", "y", "\\", "!", "#", ".",
          "(", ")", ";", "=", "001", "7", "// c", "$", "é",
          "!x", "#y", "(x y)", "\\x.", "\\!y.", "x y", "#(M)", "!(\\x. x)"]


@st.composite
def _cli_programs(draw):
    """A token soup, often inside a definition and a root clause, saved
    as a term file or as a lambda file with a flags clause; now and then
    with a few raw bytes put in."""
    words = draw(st.lists(st.sampled_from(_WORDS), max_size=10))
    text = "".join(w + draw(st.sampled_from(["", " ", "\n"])) for w in words)
    if draw(st.booleans()):
        text = f"def M = {text} ;\nroot M ;\n"
    name = draw(st.sampled_from(["p.lli", "p.lam"]))
    data = (text + FLAGS if name == "p.lam" else text).encode()
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data, name


def _assert_documented_exit(args, name, text):
    r = run(args + [name], {name: text})
    assert r.exit_code in (0, 1, 2, 3), r.output
    assert r.exception is None or isinstance(r.exception, SystemExit), (
        repr(r.exception))
    assert "Traceback" not in r.output


@pytest.mark.parametrize("args", CLI_COMMANDS, ids=" ".join)
@settings(max_examples=40, deadline=None)
@given(program=_cli_programs())
def test_cli_exits_with_a_documented_code(args, program):
    text, name = program
    _assert_documented_exit(args, name, text)


@pytest.mark.parametrize("args", CLI_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("deep", ["boxes", "parentheses"])
@pytest.mark.parametrize("name", ["p.lli", "p.lam"])
def test_cli_exits_with_a_documented_code_on_deep_input(args, deep, name):
    text = DEEP_BOXES if deep == "boxes" else DEEP_PARENS
    _assert_documented_exit(args, name, text + FLAGS if name == "p.lam" else text)


@pytest.mark.parametrize("args", [["check", "--infer"], ["weight"], ["eval"]],
                         ids=" ".join)
def test_deep_boxes_run_to_the_end(args):
    r = run(args + ["deep.lli"], {"deep.lli": DEEP_BOXES})
    assert r.exit_code == 0, r.output


def test_text_that_is_not_utf8_is_a_usage_error():
    r = run(["check", "p.lli"], {"p.lli": b"def M = \xff ;\nroot M ;\n"})
    assert r.exit_code == 3
    assert isinstance(r.exception, SystemExit)
    assert r.output.startswith("error: 'utf-8' codec can't decode byte 0xff")
