"""The four workloads: seeded inputs, jobs, and the check of each job.

A job is one closed-loop request: the library calls that one ``llinf``
CLI invocation makes (``eval``, ``decode``, ``check --infer`` plus
``weight``, or one ``bench`` case), made in-process so that interpreter
start-up does not swamp millisecond jobs.  Jobs call the library through
module attributes (``reduction.eval_lbl``, never a name imported from
it), so the traced run sees every call.

Inputs come only from ``--seed``.  Job sizes follow a fixed uniform
schedule, so every seed gets the same size mix and the percentiles stay
steady from seed to seed; the seed picks the inputs of each size and
the run order.
"""

import random
from dataclasses import dataclass

from llinf import (
    encodings, generate, lam, metrics, properties, reduction, surface, terms,
    wellform,
)
from llinf.terms import App, Box, Ref, TermGraph, Var

import reference as ref

FUEL = 1000                  # `llinf eval` default
DECODE_FUEL = 2000           # `llinf decode` default
# 15 stream jobs, evenly spaced in depth: the median and the
# nearest-rank p90 over 15 jobs are the 8th and the 14th, single jobs of
# mid and near-full depth.  A pass costs about 15 x 0.3 s, so the 100
# jobs a run needs fit in a few passes.
STREAM_JOBS = 15
DEEP_NESTING = (100, 600)


@dataclass
class Job:
    """One request.  ``run`` makes the library calls and returns what the
    CLI would print from; ``check`` returns None when that output is
    right, else ``(category, message)``."""

    key: str
    run: object
    check: object
    size: int = 0
    known_failure: str = None   # a failure category kept visible on purpose


def _strata(n, lo, hi):
    """A fixed, uniform size schedule: the midpoints of ``n`` equal
    strata of [lo, hi], with the last pinned to ``hi``.  Sizes do not
    depend on the seed, so every seed gets the same size mix."""
    out = [lo + round((hi - lo) * (k + 0.5) / n) for k in range(n)]
    out[-1] = hi
    return out


def _stream_spec(rng, k):
    """Prefix of 0..3 bits and cycle of 1..4 bits.  The lengths follow
    ``k`` (longer streams make every step dearer), the bits the seed."""
    prefix = "".join(rng.choice("01") for _ in range(k % 4))
    cycle = "".join(rng.choice("01") for _ in range(1 + k // 4 % 4))
    return prefix, cycle


def _encoded(prefix, cycle):
    return encodings.scott_encode(
        encodings.BINARY, encodings.stream_tree(prefix, cycle), "coalgebra")


def _flip_applied(flip, prefix, cycle):
    """``bit_flip`` applied to an encoded stream, as a graph."""
    defs = {}
    f = terms.import_defs(defs, flip)
    s = terms.import_defs(defs, _encoded(prefix, cycle))
    defs["main"] = App(Ref(f), Ref(s))
    return TermGraph(defs, "main")


def _wrong(message):
    return ("wrong", message)


# ---------------------------------------------------------------------------
# stream_eval and stream_decode

def _stream_eval_job(text, depth, prefix, cycle):
    def run():
        g = surface.parse_program(text)
        _, tree, stats = reduction.eval_lbl(g, depth, FUEL, terms.DEFAULT_BUDGET)
        return stats, tree, surface.format_node(tree)

    def check(out):
        stats, tree, printed = out
        if stats.outcome == "fuel-exhausted":
            return ("fuel", stats.detail)
        if stats.outcome != "normalized":
            return _wrong(f"outcome {stats.outcome}: {stats.detail}")
        bits = ref.flip(ref.stream_word(prefix, cycle, depth + 1))
        if not ref.alpha_equal(ref.unfold({"t": tree}, "t"),
                               ref.scott_stream(bits)):
            return _wrong(f"depth-{depth} tree is not the stream {bits}")
        if not printed:
            return _wrong("empty printout")
        return None

    return Job(f"eval:{prefix}({cycle}):{depth}", run, check, size=depth)


def _stream_decode_job(text, bound, prefix, cycle):
    def run():
        g = surface.parse_program(text)
        res = encodings.scott_decode(g, encodings.alphabet_signature("01"),
                                     "coalgebra", bound, DECODE_FUEL)
        return res.word()

    def check(word):
        want = ref.flip(ref.stream_word(prefix, cycle, bound))
        return None if word == want else _wrong(f"decoded {word}, want {want}")

    return Job(f"decode:{prefix}({cycle}):{bound}", run, check, size=bound)


def build_stream(seed, decode):
    rng = random.Random(f"{'stream_decode' if decode else 'stream_eval'}:{seed}")
    if decode:
        sizes = _strata(STREAM_JOBS, 8, 64)
    else:
        sizes = _strata(STREAM_JOBS, 1, 32)
    flip = encodings.bit_flip()
    jobs = []
    for k, n in enumerate(sizes):
        prefix, cycle = _stream_spec(rng, k)
        text = surface.format_graph(_flip_applied(flip, prefix, cycle))
        make = _stream_decode_job if decode else _stream_eval_job
        jobs.append(make(text, n, prefix, cycle))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# analyse

# Verdicts of the counterexample library.  The full system's are the
# ones `llinf examples` documents; the 4S ones follow from 4S rejecting
# the coinductive K (which the non-confluent pair is built from) and
# inductive self-application (which omega_ind loops on).
COUNTEREXAMPLE_VERDICTS = [
    ("cyclic", "llinf", True), ("rho", "llinf", False),
    ("nonNF", "llinf", True), ("nonNF_P", "llinf", True),
    ("nonconf", "llinf", True), ("nonconf_L", "llinf", True),
    ("nonconf_P", "llinf", True), ("omega_ind", "llinf", True),
    ("rho", "4s", False), ("omega_ind", "4s", False),
    ("nonconf", "4s", False), ("nonconf_partner", "4s", False),
    ("nonconf_L", "4s", False), ("nonconf_P", "4s", False),
]


def _analyse_job(key, text, system, accepted, table_ref=None, size=0,
                 known_failure=None):
    """`llinf check --system S --infer` and, on accepted programs,
    `llinf weight --depths 0..2`; each command parses the file itself."""
    cache = {}

    def run():
        g = surface.parse_program(text)
        env = wellform.infer_env(system, g)
        if env is None:
            return False, None
        surface.format_environment(env)
        if table_ref is None:
            return True, None
        g = surface.parse_program(text)
        return True, [(metrics.size_at(g, m), metrics.df(g, m),
                       metrics.twei(g, m)) for m in range(3)]

    def check(out):
        got, table = out
        if got != accepted:
            return _wrong(f"{system} verdict {got}, known {accepted}")
        if table_ref is not None:
            if "table" not in cache:
                cache["table"] = table_ref()
            if table != cache["table"]:
                return _wrong(f"weight table {table}, reference {cache['table']}")
        return None

    return Job(key, run, check, size=size, known_failure=known_failure)


def _lambda_job(key, text, accepted, embedding, size):
    """`llinf check` on a lambda file, then `llinf embed` and
    `llinf check --infer` on the printed image."""
    def run():
        g, flags = surface.parse_lambda_program(text)
        f = lam.DepthFlags(*flags)
        if not lam.check_labc(g, f):
            return False, None
        if embedding == "girard":
            image = lam.embed_girard(g, f.c)
        else:
            image = lam.embed_cbv(g, f.a, f.c)
        shown = surface.format_graph(image)
        return True, wellform.infer_env("llinf", surface.parse_program(shown))

    def check(out):
        got, env = out
        if got != accepted:
            return _wrong(f"lambda verdict {got}, known {accepted}")
        if got and env is None:
            return _wrong(f"{embedding} image rejected by the full system")
        return None

    return Job(key, run, check, size=size)


def _table_of(g):
    return lambda: ref.weight_table(g.defs, g.root)


def _deep_program(rng, n):
    """``u`` under ``n`` seeded boxes; the text is written here, since
    the printer itself recurses per nesting level."""
    marks = [rng.choice("!#") for _ in range(n)]
    node = Var("u")
    for m in reversed(marks):
        node = Box(terms.IND if m == "!" else terms.COIND, node)
    text = ("def D = " + "".join(f"{m}(" for m in marks) + "u"
            + ")" * n + " ;\nroot D ;\n")
    return text, {"D": node}


def build_analyse(seed):
    # The counts make the percentiles depend little on the seed: at 112
    # jobs, the Python calls made by the median job spread by 0.20
    # (quartile distance over median, 12 seeds); at 292, by 0.07.  At
    # 292 the host-corrected p90 still spread by 0.18 over 10 seeds, with
    # the same seeds fast or slow under two hash orders, so the counts
    # were doubled again (566 jobs).
    rng = random.Random(f"analyse:{seed}")
    jobs = []
    # generated terms, accepted under their environment by construction
    for system in ("llinf", "4s"):
        for i, size in enumerate(_strata(132, 20, 400)):
            _, g = generate.random_term((seed, "analyse", system, i), system, size)
            jobs.append(_analyse_job(f"gen:{system}:{i}", surface.format_graph(g),
                                     system, True, _table_of(g), size))
    # generated bodies on a self-referencing cycle with no coinductive box
    for system in ("llinf", "4s"):
        for i, size in enumerate(_strata(30, 20, 100)):
            _, g = generate.random_term((seed, "cycle", system, i), system, size)
            defs = dict(g.defs)
            body = defs[g.root]
            shape = rng.randrange(3)
            if shape == 0:
                defs["Loop"] = App(body, Ref("Loop"))
            elif shape == 1:
                defs["Loop"] = App(Ref("Loop"), body)
            else:
                defs["Loop"] = Box(terms.IND, App(body, Ref("Loop")))
            text = surface.format_graph(TermGraph(defs, "Loop"))
            jobs.append(_analyse_job(f"loop:{system}:{i}", text, system, False,
                                     size=size))
    # the counterexample library and the fixpoint combinators
    ex = encodings.counterexamples()
    ex["fixpoint_ind"] = encodings.fixpoint(0)
    ex["fixpoint_coind"] = encodings.fixpoint(1)
    verdicts = COUNTEREXAMPLE_VERDICTS + [
        ("fixpoint_ind", "llinf", True), ("fixpoint_coind", "llinf", True)]
    for name, system, accepted in verdicts:
        g = ex[name]
        jobs.append(_analyse_job(f"example:{system}:{name}", surface.format_graph(g),
                                 system, accepted, _table_of(g) if accepted else None,
                                 len(g.defs)))
    # bit_flip, alone and applied to streams
    flip = encodings.bit_flip()
    for system in ("llinf", "4s"):
        jobs.append(_analyse_job(f"flip:{system}", surface.format_graph(flip),
                                 system, True, _table_of(flip), len(flip.defs)))
    for i in range(8):
        g = _flip_applied(flip, *_stream_spec(rng, 5 * i))
        jobs.append(_analyse_job(f"flip-applied:{i}", surface.format_graph(g),
                                 "4s", True, _table_of(g), len(g.defs)))
    # pure lambda programs: finite ones check under every flag triple the
    # embeddings take; the cyclic 001 shapes need a depth-increasing
    # argument side (flags 001 and 101) and fail under 000
    for i, size in enumerate(_strata(96, 10, 60)):
        g = generate.random_lambda((seed, "lam", i), size)
        flags = rng.choice([(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)])
        embedding = "girard" if flags[0] == 0 and rng.random() < 0.5 else "cbv"
        jobs.append(_lambda_job(f"lam:{i}", surface.format_lambda_graph(g, flags),
                                True, embedding, size))
    for i in range(48):
        g = generate.random_regular_001((seed, "reg", i))
        flags = rng.choice([(0, 0, 0), (0, 0, 1), (1, 0, 1)])
        embedding = "girard" if flags[0] == 0 else "cbv"
        jobs.append(_lambda_job(f"reg:{i}", surface.format_lambda_graph(g, flags),
                                flags[2] == 1, embedding, len(g.defs)))
    # deep nesting: the parser recurses per level, so the deeper ones
    # raise RecursionError today (a known defect kept visible)
    for i, n in enumerate(_strata(72, *DEEP_NESTING)):
        text, defs = _deep_program(rng, n)
        jobs.append(_analyse_job(
            f"deep:{i}:{n}", text, "llinf", True,
            lambda defs=defs: ref.weight_table(defs, "D"), n,
            known_failure="RecursionError"))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# suites

def _case_job(key, call, size):
    def check(ok):
        return _wrong(f"law case returned {ok}") if ok is False else None

    return Job(key, call, check, size=size)


def _trace_job(key, g, bound, size):
    def run():
        return metrics.weight_trace(g, bound)

    def check(trace):
        if trace.verdict != "pass":
            return _wrong(f"weight trace {trace.verdict}: {trace.detail}")
        return None

    return Job(key, run, check, size=size)


def build_suites(seed):
    # As in analyse, the counts are set for steady percentiles: at half
    # of them, the Python calls made by the p90 job spread by 0.074 over
    # 10 seeds; at these, by 0.04.
    rng = random.Random(f"suites:{seed}")
    jobs = []

    def term(kind, system, i, size):
        return generate.random_term((seed, "suites", kind, system, i), system,
                                    size, require_redex=True)

    def rng_for(key):
        return random.Random(str((seed, key)))

    kinds = [
        ("subject_reduction", "llinf"), ("subject_reduction", "4s"),
        ("weight_laws", "4s"), ("oracle_agreement", "4s"),
        ("joinability", "4s"), ("lbl_diamond", "llinf"), ("lbl_diamond", "4s"),
    ]
    for kind, system in kinds:
        count = 40 if kind == "lbl_diamond" else 80
        for i, size in enumerate(_strata(count, 16, 40)):
            env, g = term(kind, system, i, size)
            key = f"{kind}:{system}:{i}"
            if kind == "subject_reduction":
                call = (lambda env=env, g=g, system=system, key=key:
                        properties.subject_reduction_case(system, env, g,
                                                          rng_for(key)))
            elif kind == "oracle_agreement":
                call = lambda g=g: properties.oracle_agreement_case(g)
            else:
                call = (lambda g=g, kind=kind, key=key:
                        getattr(properties, f"{kind}_case")(g, rng_for(key)))
            jobs.append(_case_job(key, call, size))
    for i, size in enumerate(_strata(40, 16, 40)):
        _, g = term("weight_trace", "4s", i, size)
        jobs.append(_trace_job(f"weight_trace:4s:{i}", g, 1 + i % 2, size))
    flip = encodings.bit_flip()
    for bound in range(4):
        for j in range(4):
            g = _flip_applied(flip, *_stream_spec(rng, 5 * j + bound)).pruned()
            jobs.append(_trace_job(f"weight_trace:flip:{bound}:{j}", g, bound,
                                   100 + bound))
    rng.shuffle(jobs)
    return jobs


def final_checks(workload):
    """Checks made once per run, after the timed loop."""
    if workload != "suites":
        return []
    verdict = properties.nonconf_joinability_expected_failure()
    if verdict != "expected-failure":
        return [f"nonconf joinability: {verdict}"]
    return []


BUILDERS = {
    "stream_eval": lambda seed: build_stream(seed, decode=False),
    "stream_decode": lambda seed: build_stream(seed, decode=True),
    "analyse": build_analyse,
    "suites": build_suites,
}
