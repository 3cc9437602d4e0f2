"""Seeded random generators of well-formed terms, one per system.

Terms are produced together with an environment under which they check.
Construction follows the judgment rules directly (linear and ind-one
bindings are threaded as use-exactly-once obligations, boxes transform
the environment the way the box rules do), so rejection sampling is
never needed.

Two further disciplines are baked in:

* every application head is either a kind-matched redex abstraction or
  a variable that is never substituted during reduction (a free variable
  or the binder of an abstraction that is never applied), so generated
  terms and all their reducts are deadlock-free;
* occurrences of redex-bound variables avoid head position, which is
  what keeps the first discipline stable under substitution.
"""

import random

from .terms import (
    App, Box, Lam, Ref, TermGraph, Var,
    COIND, IND, LIN, import_defs,
)
from .reduction import has_any_redex
from . import encodings

LLINF = "llinf"
LL4S = "4s"


class _Entry:
    __slots__ = ("kind", "headable")

    def __init__(self, kind, headable):
        self.kind = kind
        self.headable = headable


class TermGen:
    def __init__(self, seed, system):
        self.rng = random.Random(str(seed))
        self.system = system
        self.counter = 0
        self.defs = {}

    # -- names ---------------------------------------------------------

    def fresh(self, base="x"):
        self.counter += 1
        return f"{base}{self.counter}"

    # -- environments ---------------------------------------------------

    def _surface_kinds(self):
        # kinds whose variables may occur at an unboxed position
        return ("lin", "ind", "coind") if self.system == LLINF \
            else ("lin", "dup", "any")

    def _usable(self, env):
        ok = self._surface_kinds()
        return [v for v, e in env.items() if e.kind in ok]

    def _headable(self, env):
        ok = self._surface_kinds()
        return [v for v, e in env.items() if e.kind in ok and e.headable]

    def _obligations(self, env):
        lins = [v for v, e in env.items() if e.kind == "lin"]
        ind1s = [v for v, e in env.items() if e.kind == "ind1"]
        return lins, ind1s

    def _box_env(self, env, boxkind):
        # mirrors the box rules of the selected system; callers never put
        # linear obligations at a box
        if self.system == LLINF:
            return {v: e for v, e in env.items() if e.kind != "lin"}
        out = {}
        for v, e in env.items():
            k = e.kind
            if k in ("lin", "dup"):
                continue
            if boxkind == IND:
                out[v] = _Entry("lin" if k == "ind1" else k, e.headable)
            else:
                if k == "ind1":
                    continue
                out[v] = _Entry("any" if k == "coind" else k, e.headable)
        return out

    # -- minimal closers -------------------------------------------------

    def closed_value(self):
        x = self.fresh()
        return Lam(LIN, x, Var(x))

    def _spine(self, env, args):
        """Apply a never-substituted head to the given arguments, keeping
        substitutable variables out of head position."""
        heads = self._headable(env)
        if heads:
            term = Var(self.rng.choice(heads))
        else:
            # package the arguments under a fresh never-applied binder
            s = self.fresh("s")
            term = Var(s)
            for a in args:
                term = App(term, a)
            return Lam(LIN, s, term)
        for a in args:
            term = App(term, a)
        return term

    def closer(self, env):
        """Smallest term discharging the pending obligations under env."""
        lins, ind1s = self._obligations(env)
        if not lins and not ind1s:
            usable = self._usable(env)
            if usable and self.rng.random() < 0.5:
                return Var(self.rng.choice(usable))
            return self.closed_value()
        args = [Var(v) for v in lins]
        if ind1s:
            benv = self._box_env(env, IND)
            args.append(Box(IND, self._spine(benv, [Var(v) for v in ind1s])))
        return self._spine(env, args)

    # -- generation -------------------------------------------------------

    def gen(self, env, budget):
        lins, ind1s = self._obligations(env)
        if budget <= 2:
            return self.closer(env)
        weights = []

        def add(tag, w):
            if w > 0:
                weights.append((tag, w))

        add("redex", 5)
        add("neutral", 4 if self._headable(env) else 0)
        add("lam", 3)
        boxable = not lins
        add("boxind", 2 if boxable else 0)
        add("boxcoind", 2 if boxable and not ind1s else 0)
        add("stream", 1 if not lins and not ind1s else 0)
        add("close", 1)
        total = sum(w for _, w in weights)
        pick = self.rng.random() * total
        for tag, w in weights:
            pick -= w
            if pick <= 0:
                break
        match tag:
            case "redex":
                return self.redex(env, budget)
            case "neutral":
                return self.neutral(env, budget)
            case "lam":
                return self.lam_value(env, budget)
            case "boxind":
                return Box(IND, self.gen(self._box_env(env, IND), budget - 1))
            case "boxcoind":
                return Box(COIND, self.gen(self._box_env(env, COIND), budget - 1))
            case "stream":
                return self.stream_leaf()
            case _:
                return self.closer(env)

    def split_obligations(self, env, sides):
        """Route each linear/ind-one variable to one of ``sides`` envs;
        all other kinds are shared."""
        outs = [dict() for _ in range(sides)]
        for v, e in env.items():
            if e.kind in ("lin", "ind1"):
                outs[self.rng.randrange(sides)][v] = e
            else:
                for o in outs:
                    o[v] = e
        return outs

    def redex(self, env, budget):
        kind = self.rng.choice((LIN, IND, IND, COIND, COIND))
        bw = (budget - 2) // 2
        if kind == LIN:
            env_f, env_a = self.split_obligations(env, 2)
            x = self.fresh()
            env_f2 = dict(env_f)
            env_f2[x] = _Entry("lin", False)
            body = self.gen(env_f2, bw)
            arg = self.gen(env_a, bw)
            return App(Lam(LIN, x, body), arg)
        if kind == IND:
            # ind-one obligations may enter the inductive box; linear ones
            # must stay on the function side
            env_f, env_a = self.split_obligations(env, 2)
            for v in [v for v, e in env_a.items() if e.kind == "lin"]:
                env_f[v] = env_a.pop(v)
            x = self.fresh()
            bindkind = self.rng.choice(("dup", "ind1")) \
                if self.system == LL4S else "ind"
            env_f2 = dict(env_f)
            env_f2[x] = _Entry(bindkind, False)
            body = self.gen(env_f2, bw)
            arg = self.gen(self._box_env(env_a, IND), bw)
            return App(Lam(IND, x, body), Box(IND, arg))
        # coinductive: no obligation may cross into the box
        env_f = dict(env)
        env_a = {v: e for v, e in env.items() if e.kind not in ("lin", "ind1")}
        x = self.fresh()
        env_f2 = dict(env_f)
        env_f2[x] = _Entry("coind", False)
        body = self.gen(env_f2, bw)
        arg = self.gen(self._box_env(env_a, COIND), bw)
        return App(Lam(COIND, x, body), Box(COIND, arg))

    def neutral(self, env, budget):
        head = self.rng.choice(self._headable(env))
        head_entry = env[head]
        rest = {v: e for v, e in env.items()
                if not (v == head and e.kind == "lin")}
        nargs = self.rng.choice((1, 1, 2))
        envs = self.split_obligations(rest, nargs)
        term = Var(head)
        bw = max(2, (budget - 1) // nargs)
        for e in envs:
            term = App(term, self.gen(e, bw))
        return term

    def lam_value(self, env, budget):
        """An abstraction in value position: it is never applied, so its
        variable may safely head applications."""
        x = self.fresh()
        if self.system == LLINF:
            kind = self.rng.choice((LIN, IND, COIND))
            bind = {LIN: "lin", IND: "ind", COIND: "coind"}[kind]
        else:
            kind = self.rng.choice((LIN, IND, IND, COIND))
            bind = {LIN: "lin", IND: self.rng.choice(("dup", "ind1")),
                    COIND: "coind"}[kind]
        env2 = dict(env)
        env2[x] = _Entry(bind, bind in ("dup", "any", "ind", "coind"))
        return Lam(kind, x, self.gen(env2, budget - 1))

    def stream_leaf(self):
        """A closed cyclic subterm: the coalgebra encoding of a random
        eventually periodic binary word."""
        bits = "01"
        prefix = "".join(self.rng.choice(bits)
                         for _ in range(self.rng.randrange(0, 3)))
        cycle = "".join(self.rng.choice(bits)
                        for _ in range(self.rng.randrange(1, 3)))
        enc = encodings.scott_encode(
            encodings.BINARY, encodings.stream_tree(prefix, cycle), "coalgebra")
        root = import_defs(self.defs, enc)
        return Ref(root)

    def toplevel_env(self):
        env = {}
        if self.system == LLINF:
            env["u"] = _Entry("ind", True)
            env["w"] = _Entry("coind", True)
        else:
            env["u"] = _Entry("dup", True)
            env["w"] = _Entry("any", True)
            if self.rng.random() < 0.4:
                env["q"] = _Entry("coind", False)
        return env

    def term(self, size):
        env = self.toplevel_env()
        body = self.gen(env, size)
        defs = dict(self.defs)
        if isinstance(body, Ref):  # a lone stream leaf: keep the body guarded
            body = defs[body.name]
        name = f"G{self.counter}"
        self.counter += 1
        defs[name] = body
        g = TermGraph(defs, name).pruned()
        plain_env = {v: e.kind for v, e in env.items()}
        return plain_env, g


def random_term(seed, system, size=30, require_redex=False):
    """One random well-formed term with its environment."""
    for attempt in range(50):
        gen = TermGen((seed, attempt), system)
        env, g = gen.term(size)
        if not require_redex or has_any_redex(g):
            return env, g
    raise RuntimeError("generator failed to produce a term with a redex")


# ---------------------------------------------------------------------------
# pure lambda terms

def random_lambda(seed, size=14):
    """A random finite pure lambda term (free variables allowed)."""
    rng = random.Random(str(seed))
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"v{counter[0]}"

    def gen(scope, budget):
        if budget <= 1:
            if scope and rng.random() < 0.8:
                return Var(rng.choice(scope))
            return Var(rng.choice(("f", "g")))
        r = rng.random()
        if r < 0.35:
            x = fresh()
            return Lam(LIN, x, gen(scope + [x], budget - 1))
        if r < 0.75:
            bw = (budget - 1) // 2
            return App(gen(scope, max(1, bw)), gen(scope, max(1, bw)))
        if r < 0.9 and scope:
            return Var(rng.choice(scope))
        # plant a beta redex
        x = fresh()
        bw = (budget - 2) // 2
        return App(Lam(LIN, x, gen(scope + [x], max(1, bw))),
                   gen(scope, max(1, bw)))

    return TermGraph({"T": gen([], size)}, "T")


def random_regular_001(seed):
    """A random regular (cyclic) term of the argument-coinductive
    calculus: every cycle passes through argument position."""
    rng = random.Random(str(seed))
    x = "h"
    shapes = []
    # D = h D
    shapes.append(lambda: TermGraph({"D": App(Var(x), Ref("D"))}, "D"))
    # D = h (g D)
    shapes.append(lambda: TermGraph(
        {"D": App(Var(x), App(Var("g"), Ref("D")))}, "D"))
    # D = (\y. y) (h D): a redex above the cycle
    shapes.append(lambda: TermGraph(
        {"D": App(Lam(LIN, "y", Var("y")), App(Var(x), Ref("D")))}, "D"))
    # D = h ((\y. y) D): a redex inside argument position
    shapes.append(lambda: TermGraph(
        {"D": App(Var(x), App(Lam(LIN, "y", Var("y")), Ref("D")))}, "D"))
    # D = \z. z (h D): binder on the cycle
    shapes.append(lambda: TermGraph(
        {"D": Lam(LIN, "z", App(Var("z"), App(Var(x), Ref("D"))))}, "D"))
    return shapes[rng.randrange(len(shapes))]()
