"""Randomised property suites shared by the bench command and the tests.

Each suite draws seeded random terms from the per-system generators and
checks one dynamic law: preservation of well-formation under single
steps, the weight/duplicability laws of the 4S fragment, the diamond
property of level-by-level reduction, and joinability of independent
admissible strategies.  One more 4S suite compares the weight profile
with the graph-fixpoint oracles.
"""

import random

from .terms import TermGraph, canonical_string, equal_at_depth, project_depth
from . import generate, metrics, reduction, wellform

LAW_DEPTH = 3           # depths the weight laws and the oracles are checked to
STRATEGY_DEPTH = 2      # depths the strategies are compared to
JOIN_DEPTH = 3          # depths the join search fires redexes at and compares


def random_single_step(g, rng):
    """Contract one redex chosen uniformly from those down to
    ``LAW_DEPTH``."""
    redexes = reduction.find_redexes(g, LAW_DEPTH)
    if not redexes:
        return None, None
    r = rng.choice(redexes)
    return reduction.contract(g, r), r


def subject_reduction_case(system, env, g, rng):
    """One random step preserves well-formation (for the 4S system, up
    to replacing ind-one patterns by duplicable ones)."""
    stepped, r = random_single_step(g, rng)
    if stepped is None:
        return None
    if system == "llinf":
        return bool(wellform.check(system, env, stepped))
    return any(bool(wellform.check_ll4s(d, stepped))
               for d in wellform.preceding_variants(env))


def weight_laws_case(g, rng):
    """One random step obeys the decrease laws: twei strictly drops at
    the step depth, is untouched below it, and df never increases."""
    redexes = reduction.find_redexes(g, LAW_DEPTH)
    if not redexes:
        return None
    r = rng.choice(redexes)
    n = r.depth
    before = metrics.weight_profile(g, LAW_DEPTH)
    after = metrics.weight_profile(reduction.contract(g, r), LAW_DEPTH)
    before_t = [before.twei(m) for m in range(LAW_DEPTH + 1)]
    after_t = [after.twei(m) for m in range(LAW_DEPTH + 1)]
    if not after_t[n] < before_t[n]:
        return False
    if after_t[:n] != before_t[:n]:
        return False
    if any(a > b for a, b in zip(after.df, before.df)):
        return False
    return True


def oracle_agreement_case(g):
    """The weight profile agrees exactly with the graph-fixpoint
    oracle on size, df and twei at every depth to ``LAW_DEPTH``.

    Each oracle value is computed once: one body pass serves every
    depth's df, and twei is compared as ``wei_{n,m}`` at the oracle's
    ``n = df_m``.  Once the df comparison has passed, that is also the
    profile's df, so this one ``wei`` comparison is the twei comparison.
    """
    p = metrics.weight_profile(g, LAW_DEPTH)
    own = wellform.body_pass(g).own
    for m in range(LAW_DEPTH + 1):
        if p.size[m] != metrics.size_at_oracle(g, m):
            return False
        n = metrics.df_oracle(g, m, own)
        if p.df[m] != n or p.twei(m) != metrics.wei_oracle(g, n, m):
            return False
    return True


def _admissible_at(g, depth):
    return reduction._admissible(reduction.find_redexes(g, depth))


def lbl_diamond_case(g, rng):
    """Two distinct admissible redexes join in at most one further
    admissible step on each side."""
    depth = STRATEGY_DEPTH
    adm = _admissible_at(g, depth)
    if len(adm) < 2:
        return None
    r1, r2 = rng.sample(adm, 2)
    g1 = reduction.contract(g, r1)
    g2 = reduction.contract(g, r2)
    side1 = [g1] + [reduction.contract(g1, r) for r in _admissible_at(g1, depth)]
    side2 = [g2] + [reduction.contract(g2, r) for r in _admissible_at(g2, depth)]
    probe = depth + 2
    keys1 = {canonical_string(project_depth(h, probe)) for h in side1}
    keys2 = {canonical_string(project_depth(h, probe)) for h in side2}
    return bool(keys1 & keys2)


def randomized_normalize(g, depth, rng):
    """Normalise depths 0..depth firing uniformly random admissible
    redexes; any such strategy is admissible level-by-level."""
    for d in range(depth + 1):
        spent = 0
        while True:
            redexes = reduction.find_redexes(g, d)
            if not redexes:
                break
            adm = reduction._admissible(redexes)
            r = rng.choice(adm)
            g = reduction.contract(g, r)
            spent += 1
            if spent > 5000:
                raise RuntimeError("randomized strategy exceeded its fuel")
    return g


def joinability_case(g, rng):
    """Two independent randomized admissible strategies agree on the
    depth projection (strong confluence at desk scale)."""
    r1 = random.Random(rng.random())
    r2 = random.Random(rng.random())
    h1 = randomized_normalize(g, STRATEGY_DEPTH, r1)
    h2 = randomized_normalize(g, STRATEGY_DEPTH, r2)
    return equal_at_depth(h1, h2, STRATEGY_DEPTH)


def bounded_join_search(g1: TermGraph, g2: TermGraph):
    """Breadth-first search for a common reduct.

    Only redexes at depth <= ``JOIN_DEPTH`` are fired (deeper steps
    cannot change the compared projection).  Returns True when some
    reduct of each side agrees at that depth.
    """
    def close(g):
        seen = {}
        frontier = [g]
        key0 = canonical_string(project_depth(g, JOIN_DEPTH + 2))
        seen[key0] = g
        for _ in range(6):
            nxt = []
            for h in frontier:
                for r in reduction.find_redexes(h, JOIN_DEPTH):
                    h2 = reduction.contract(h, r)
                    key = canonical_string(project_depth(h2, JOIN_DEPTH + 2))
                    if key not in seen:
                        seen[key] = h2
                        nxt.append(h2)
                if len(seen) > 4000:
                    return seen
            frontier = nxt
            if not frontier:
                break
        return seen

    side1 = close(g1)
    side2 = close(g2)
    obs1 = {canonical_string(project_depth(h, JOIN_DEPTH)) for h in side1.values()}
    obs2 = {canonical_string(project_depth(h, JOIN_DEPTH)) for h in side2.values()}
    return bool(obs1 & obs2)


def nonconf_joinability_expected_failure():
    """The bounded join search on the non-confluence targets must fail."""
    from . import encodings
    ex = encodings.counterexamples()
    joined = bounded_join_search(ex["nonconf_L"], ex["nonconf_P"])
    return "unexpected-join" if joined else "expected-failure"


# name, draw tag, needs a redex, 4S only, case(system, env, graph, rng)
_SUITES = (
    ("subject-reduction", "sr", True, False, subject_reduction_case),
    ("weight-decrease", "wl", True, True,
     lambda system, env, g, rng: weight_laws_case(g, rng)),
    ("metrics-oracle", "or", False, True,
     lambda system, env, g, rng: oracle_agreement_case(g)),
    ("joinability", "join", True, True,
     lambda system, env, g, rng: joinability_case(g, rng)),
    ("lbl-diamond", "dia", True, False,
     lambda system, env, g, rng: lbl_diamond_case(g, rng)),
)


def run_suites(seed=1, count=50, system="4s", size=26):
    """Run every applicable suite; returns name -> (passed, failed, notes)."""
    results = {}
    for name, tag, needs_redex, only_4s, case in _SUITES:
        if only_4s and system != "4s":
            continue
        passed = failed = 0
        notes = []
        for i in range(count):
            rng = random.Random(str((seed, name, i)))
            try:
                env, g = generate.random_term((seed, tag, i), system, size,
                                              require_redex=needs_redex)
                ok = case(system, env, g, rng)
            except Exception as exc:  # a crash is a failure with a note
                ok = False
                notes.append(f"case {i} raised {type(exc).__name__}: {exc}")
            if ok is None:
                continue
            if ok:
                passed += 1
            else:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"case {i} failed (seed {seed})")
        results[name] = (passed, failed, notes)
    return results
