"""Command-line front end.

Exit codes: 0 success / accepted / normalized; 1 rejected, mismatch, or
deadlock; 2 fuel or budget exhaustion; 3 usage or parse errors, click's
own included (an option value that is not a number or out of its range,
an unknown command or option, a missing or extra argument); 4 an
internal error, a fault of the program, reported on one line of stderr
as ``internal error: <type>: <message>`` with no traceback.
"""

import contextlib
import sys

import click
from click.core import ParameterSource

from .errors import BudgetExceededError, LLinfError, SurfaceSyntaxError
from . import (
    encodings, generate, lam, metrics, reduction, surface, terms, wellform,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_EXHAUSTED = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_graph(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        _fail(EXIT_USAGE, str(exc))
    try:
        if path.endswith(".lam"):
            g, flags = surface.parse_lambda_program(text)
            return g, flags
        return surface.parse_program(text), None
    except LLinfError as exc:
        _fail(EXIT_USAGE, str(exc))


class _Main(click.Group):
    """The command group.  Click's usage errors, its own and its
    commands', exit with ``EXIT_USAGE`` rather than click's 2, which here
    means fuel or budget exhaustion.  A command that runs out of budget
    (:class:`~llinf.errors.BudgetExceededError`) exits with
    ``EXIT_EXHAUSTED``.  Any other exception a command raises, but
    click's own and an interrupt, is an internal error and exits with
    ``EXIT_INTERNAL``."""

    def make_context(self, info_name, args, parent=None, **extra):
        with _usage_exit():
            return super().make_context(info_name, args, parent, **extra)

    def invoke(self, ctx):
        try:
            with _usage_exit():
                return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise       # Exit and Abort subclass RuntimeError
        except BudgetExceededError as exc:
            _fail(EXIT_EXHAUSTED, str(exc))
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(EXIT_INTERNAL)


@contextlib.contextmanager
def _usage_exit():
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_USAGE
        raise


_NATURAL = click.IntRange(min=0)    # depths, fuel, bounds
_POSITIVE = click.IntRange(min=1)   # budgets, counts


@click.group(cls=_Main)
def main():
    """Tools for the linear infinitary lambda calculus and its
    terminating 4S fragment."""


@main.command()
@click.option("--system", type=click.Choice(["llinf", "4s"]), default="llinf",
              show_default=True)
@click.option("--env", "env_text", default="", help="comma-separated patterns")
@click.option("--flags", "flags_text", default=None,
              help="three binary digits (lambda files only)")
@click.option("--infer", is_flag=True, help="infer the environment instead")
@click.argument("path")
def check(system, env_text, flags_text, infer, path):
    """Decide well-formation of the program in PATH."""
    if infer and env_text:
        _fail(EXIT_USAGE, "--env and --infer exclude each other")
    # an option the file's kind does not read is refused, not dropped
    lambdas = path.endswith(".lam")
    if flags_text is not None and not lambdas:
        _fail(EXIT_USAGE, "--flags applies to lambda files only")
    if lambdas:
        source = click.get_current_context().get_parameter_source("system")
        for option, given in (("--env", env_text), ("--infer", infer),
                              ("--system",
                               source is ParameterSource.COMMANDLINE)):
            if given:
                _fail(EXIT_USAGE, f"{option} applies to term files only")
    g, file_flags = _load_graph(path)
    if lambdas:
        try:
            flags = lam.DepthFlags.parse(flags_text) if flags_text else None
        except ValueError as exc:
            _fail(EXIT_USAGE, str(exc))
        if flags is None and file_flags is not None:
            flags = lam.DepthFlags(*file_flags)
        if flags is None:
            _fail(EXIT_USAGE, "lambda files need --flags or a flags clause")
        report = lam.check_labc(g, flags)
    elif infer:
        env = wellform.infer_env(system, g)
        if env is None:
            click.echo("rejected: no environment accepts this term")
            sys.exit(EXIT_NEGATIVE)
        click.echo(f"accepted with {surface.format_environment(env) or 'empty environment'}")
        sys.exit(EXIT_OK)
    else:
        try:
            env = surface.parse_environment(env_text, system)
        except SurfaceSyntaxError as exc:
            _fail(EXIT_USAGE, str(exc))
        report = wellform.check(system, env, g)
    click.echo(report.summary())
    sys.exit(EXIT_OK if report.accepted else EXIT_NEGATIVE)


@main.command("eval")
@click.option("--depth", default=2, show_default=True, type=_NATURAL)
@click.option("--fuel", default=1000, show_default=True, type=_NATURAL)
@click.option("--budget", default=terms.DEFAULT_BUDGET, show_default=True,
              type=_POSITIVE)
@click.argument("path")
def eval_cmd(depth, fuel, budget, path):
    """Evaluate level by level and print the depth projection."""
    g, _ = _load_graph(path)
    _, tree, stats = reduction.eval_lbl(g, depth, fuel, budget)
    if tree is not None:    # None: stuck, with a projection past the budget
        click.echo(surface.format_node(tree))
    steps = " ".join(f"{d}:{n}" for d, n in sorted(stats.steps_per_depth.items()))
    click.echo(f"outcome: {stats.outcome} (steps per depth: {steps})")
    _stopped(stats)


def _stopped(stats):
    """Print why an evaluation that did not normalise stopped, and exit
    with the code of its outcome."""
    if stats.outcome == "normalized":
        sys.exit(EXIT_OK)
    if stats.outcome == "stuck":
        pos = ".".join(stats.stuck_position) or "ε"
        click.echo(f"deadlocked at {pos}: {stats.detail}")
        sys.exit(EXIT_NEGATIVE)
    click.echo(stats.detail)
    sys.exit(EXIT_EXHAUSTED)


@main.command()
@click.option("--depth", default=2, show_default=True, type=_NATURAL)
@click.option("--fuel", default=1000, show_default=True, type=_NATURAL)
@click.option("--budget", default=terms.DEFAULT_BUDGET, show_default=True,
              type=_POSITIVE)
@click.option("--human", is_flag=True)
@click.argument("path")
def trace(depth, fuel, budget, human, path):
    """Print one line per level-by-level step."""
    g, _ = _load_graph(path)
    _, _, stats, records = reduction.run_lbl_trace(g, depth, fuel, budget)
    for i, rec in enumerate(records):
        click.echo(reduction.format_step(i, rec, human))
    click.echo(f"outcome: {stats.outcome}")
    _stopped(stats)


@main.command()
@click.option("--depths", default="0..2", show_default=True,
              help="range like 0..3 or a single depth")
@click.option("--budget", default=terms.DEFAULT_BUDGET, show_default=True,
              type=_POSITIVE)
@click.argument("path")
def weight(depths, budget, path):
    """Print size, duplicability factor, and total weight per depth."""
    g, _ = _load_graph(path)
    lo, dots, hi = depths.partition("..")
    try:
        span = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        _fail(EXIT_USAGE,
              f"--depths {depths!r} is not a depth or a range like 0..3")
    if span.start < 0:
        _fail(EXIT_USAGE, f"--depths {depths!r} starts below depth 0")
    if not span:
        _fail(EXIT_USAGE, f"--depths {depths!r} ends below its start")
    click.echo("depth\tsize\tdf\ttwei")
    p = metrics.weight_profile(g, span[-1], budget)
    for m in span:
        click.echo(f"{m}\t{p.size[m]}\t{p.df[m]}\t{p.twei(m)}")
    sys.exit(EXIT_OK)


@main.command()
@click.option("--which", type=click.Choice(["girard", "cbv"]), default="girard",
              show_default=True)
@click.option("--a", "a_bit", default=0, type=click.IntRange(0, 1))
@click.option("--b", "b_bit", default=0, type=click.IntRange(0, 1))
@click.argument("path")
def embed(which, a_bit, b_bit, path):
    """Translate a lambda file into the boxed calculus."""
    g, _ = _load_graph(path)
    try:
        if which == "girard":
            out = lam.embed_girard(g, a_bit)
        else:
            out = lam.embed_cbv(g, a_bit, b_bit)
    except LLinfError as exc:
        _fail(EXIT_NEGATIVE, str(exc))
    click.echo(surface.format_graph(out), nl=False)
    sys.exit(EXIT_OK)


@main.command()
@click.option("--alphabet", default="01", show_default=True)
@click.option("--mode", type=click.Choice(["algebra", "coalgebra"]),
              default="algebra", show_default=True)
@click.argument("spec")
def encode(alphabet, mode, spec):
    """Print the Scott encoding of a word spec like 01 or 01(10)."""
    try:
        sig = encodings.alphabet_signature(alphabet)
        tree = encodings.parse_stream_spec(spec)
        g = encodings.scott_encode(sig, tree, mode)
    except LLinfError as exc:
        _fail(EXIT_USAGE, str(exc))
    click.echo(surface.format_graph(g), nl=False)
    sys.exit(EXIT_OK)


@main.command()
@click.option("--alphabet", default="01", show_default=True)
@click.option("--sig", "sig_text", default=None,
              help="general signature like 'sig t { node/2, leaf/0 }'")
@click.option("--mode", type=click.Choice(["algebra", "coalgebra"]),
              default="algebra", show_default=True)
@click.option("--bound", default=16, show_default=True, type=_NATURAL)
@click.option("--fuel", default=2000, show_default=True, type=_NATURAL)
@click.argument("path")
def decode(alphabet, sig_text, mode, bound, fuel, path):
    """Evaluate the program in PATH and decode its Scott-encoded value."""
    g, _ = _load_graph(path)
    try:
        sig = (encodings.parse_signature_spec(sig_text) if sig_text
               else encodings.alphabet_signature(alphabet))
    except encodings.EncodingError as exc:
        _fail(EXIT_USAGE, str(exc))
    try:
        res = encodings.scott_decode(g, sig, mode, bound, fuel)
    except encodings.EncodingError as exc:
        _fail(EXIT_NEGATIVE, str(exc))
    if sig_text:
        click.echo(str(res.tree))
    else:
        click.echo(res.word())
    sys.exit(EXIT_OK)


def _example_expectations():
    """Name -> (graph, documented verdict)."""
    ex = encodings.counterexamples()
    out = {
        "cyclic": (ex["cyclic"], "accepted"),
        "rho": (ex["rho"], "rejected"),
        "nonNF": (ex["nonNF"], "accepted"),
        "nonNF_N": (ex["nonNF_N"], "reducible"),
        "nonNF_L": (ex["nonNF_L"], "reducible"),
        "nonNF_P": (ex["nonNF_P"], "accepted"),
        "nonconf": (ex["nonconf"], "accepted"),
        "nonconf_L": (ex["nonconf_L"], "accepted"),
        "nonconf_P": (ex["nonconf_P"], "accepted"),
        "deadlock": (ex["deadlock"], "deadlocked"),
        "omega_ind": (ex["omega_ind"], "accepted"),
        "fixpoint_ind": (encodings.fixpoint(0), "accepted"),
        "fixpoint_coind": (encodings.fixpoint(1), "accepted"),
        "guarded_fixpoint": (encodings.guarded_fixpoint(), "accepted-4s"),
        "bit_flip": (encodings.bit_flip(), "accepted-4s"),
    }
    return out


def _run_example(name, g, verdict):
    if verdict == "accepted":
        env = wellform.infer_env("llinf", g)
        return env is not None
    if verdict == "accepted-4s":
        env = wellform.infer_env("4s", g)
        return env is not None
    if verdict == "rejected":
        return wellform.infer_env("llinf", g) is None
    if verdict in ("reducible", "deadlocked", "normal"):
        return reduction.classify(g) == verdict
    return False


@main.command()
@click.option("--run", is_flag=True, help="re-check every documented verdict")
@click.argument("name", required=False)
def examples(run, name):
    """List the bundled example terms, print one, or re-check them all."""
    table = _example_expectations()
    if name is not None:
        if name not in table:
            _fail(EXIT_USAGE, f"unknown example {name!r}; try 'examples'")
        g, verdict = table[name]
        click.echo(surface.format_graph(g), nl=False)
        click.echo(f"// documented verdict: {verdict}")
        sys.exit(EXIT_OK)
    failures = 0
    for nm in sorted(table):
        g, verdict = table[nm]
        if run:
            ok = _run_example(nm, g, verdict)
            # every example must also survive a print/parse round trip
            reparsed = surface.parse_program(surface.format_graph(g))
            ok = ok and terms.graph_bisimilar(g, reparsed)
            click.echo(f"{nm}\t{verdict}\t{'ok' if ok else 'FAIL'}")
            failures += 0 if ok else 1
        else:
            click.echo(f"{nm}\t{verdict}")
    sys.exit(EXIT_NEGATIVE if failures else EXIT_OK)


@main.command()
@click.option("--seed", default=1, show_default=True)
@click.option("--count", default=50, show_default=True, type=_POSITIVE)
@click.option("--system", type=click.Choice(["llinf", "4s"]), default="4s",
              show_default=True)
# below size 3 the generator finds no term with a redex
@click.option("--size", default=26, show_default=True,
              type=click.IntRange(min=3))
@click.option("--metrics-out", "metrics_out", default=None,
              help="write a per-term metrics table to this file")
def bench(seed, count, system, size, metrics_out):
    """Generate random terms and run the property suites on them."""
    import io

    from . import properties

    results = properties.run_suites(seed=seed, count=count, system=system,
                                    size=size)
    rows = []
    for name, (passed, failed, notes) in sorted(results.items()):
        status = "ok" if failed == 0 else "FAIL"
        click.echo(f"{name}\t{passed} passed\t{failed} failed\t{status}")
        for note in notes:
            click.echo(f"  {note}")
        rows.append((name, passed, failed))
    joinable = properties.nonconf_joinability_expected_failure()
    click.echo("nonconf-joinability\texpected-failure\t"
               + ("ok" if joinable == "expected-failure" else "FAIL"))

    if metrics_out:
        buf = io.StringIO()
        buf.write("index\tdepth\tsize\tdf\ttwei\n")
        for i in range(count):
            _, g = generate.random_term((seed, i), system, size)
            p = metrics.weight_profile(g, 2)
            for m in range(3):
                buf.write(f"{i}\t{m}\t{p.size[m]}\t{p.df[m]}\t{p.twei(m)}\n")
        with open(metrics_out, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        click.echo(f"metrics written to {metrics_out}")

    bad = sum(failed for _, _, failed in rows)
    sys.exit(EXIT_NEGATIVE if bad or joinable != "expected-failure" else EXIT_OK)


if __name__ == "__main__":
    main()
