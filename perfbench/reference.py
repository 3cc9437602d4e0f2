"""Independent references for checking job outputs.

Nothing here calls into ``llinf``: the only things read from it are the
node classes of a term graph (``Var``, ``App``, ``Lam``, ``Box``, ``Ref``,
``Cut``), which are its data format.  Trees are converted into plain
tuples and every traversal is iterative, so deeply nested inputs never
hit the interpreter's recursion limit inside a check.

Own tree format::

    ("var", name) | ("app", fn, arg) | ("lam", kind, name, body)
    | ("box", kind, body) | ("cut",)

with kinds ``lin``/``ind``/``coind`` as in the program's data.
"""

from llinf.terms import App, Box, Cut, Lam, Ref, Var

CUT = ("cut",)


def unfold(defs, root, depth=None):
    """Own tuple tree of the unfolding of ``defs[root]``.

    Contents of coinductive boxes sitting at the depth bound become
    ``CUT``; ``depth=None`` means unbounded (for trees without ``Ref``).
    """
    out = []
    work = [("go", defs[root], depth)]
    while work:
        op = work.pop()
        if op[0] != "go":
            tag, arity, extra = op
            kids = out[len(out) - arity:]
            del out[len(out) - arity:]
            out.append((tag, *extra, *kids))
            continue
        _, node, rd = op
        while isinstance(node, Ref):
            node = defs[node.name]
        if isinstance(node, Var):
            out.append(("var", node.name))
        elif isinstance(node, Cut):
            out.append(CUT)
        elif isinstance(node, App):
            work.append(("app", 2, ()))
            work.append(("go", node.arg, rd))
            work.append(("go", node.fn, rd))
        elif isinstance(node, Lam):
            work.append(("lam", 1, (node.kind, node.name)))
            work.append(("go", node.body, rd))
        elif isinstance(node, Box):
            if node.kind == "coind" and rd is not None:
                if rd == 0:
                    out.append(("box", "coind", CUT))
                    continue
                rd = rd - 1
            work.append(("box", 1, (node.kind,)))
            work.append(("go", node.body, rd))
        else:
            raise TypeError(f"unexpected node {node!r}")
    return out[0]


def tokens(tree):
    """Preorder token list with bound variables as de Bruijn indices.

    Two own trees are alpha-equal exactly when their token lists are
    equal (every constructor has a fixed arity, so preorder is
    unambiguous).
    """
    toks = []
    work = [(tree, {}, 0)]
    while work:
        t, env, lvl = work.pop()
        tag = t[0]
        if tag == "var":
            i = env.get(t[1])
            toks.append(("bv", lvl - 1 - i) if i is not None else ("fv", t[1]))
        elif tag == "cut":
            toks.append(("cut",))
        elif tag == "app":
            toks.append(("app",))
            work.append((t[2], env, lvl))
            work.append((t[1], env, lvl))
        elif tag == "lam":
            toks.append(("lam", t[1]))
            inner = dict(env)
            inner[t[2]] = lvl
            work.append((t[3], inner, lvl + 1))
        else:
            toks.append(("box", t[1]))
            work.append((t[2], env, lvl))
    return toks


def alpha_equal(a, b):
    return tokens(a) == tokens(b)


# ---------------------------------------------------------------------------
# Scott-encoded streams

def flip(word):
    return word.translate(str.maketrans("01", "10"))


def stream_word(prefix, cycle, n):
    """First ``n`` letters of ``prefix . cycle^omega``."""
    reps = n // len(cycle) + 1
    return (prefix + cycle * reps)[:n]


def scott_stream(bits):
    """Depth-``len(bits) - 1`` projection of a Scott-encoded binary
    stream: ``\\!y_0. \\!y_1. \\!y_e. y_b #(rest)``, the last box cut."""
    t = CUT
    for b in reversed(bits):
        body = ("app", ("var", f"y_{b}"), ("box", "coind", t))
        for y in ("y_e", "y_1", "y_0"):
            body = ("lam", "ind", y, body)
        t = body
    return t


# ---------------------------------------------------------------------------
# the metric equations, on own trees

def _fold(tree, index, step):
    """Iterative post-order fold; ``step(node, i)`` returns the
    ``(child, child_index)`` list and a function of the child values."""
    vals = []
    work = [(False, tree, index)]
    while work:
        done, node, x = work.pop()
        if done:
            combine, n = x
            kids = vals[len(vals) - n:] if n else []
            del vals[len(vals) - n:]
            vals.append(combine(kids))
            continue
        kids, combine = step(node, x)
        work.append((True, node, (combine, len(kids))))
        for kid in reversed(kids):
            work.append((False, *kid))
    return vals[0]


def _const(v):
    return lambda _: v


def size(tree, m):
    def step(t, i):
        top = 1 if i == 0 else 0
        match t[0]:
            case "cut":
                return [], _const(0)
            case "var":
                return [], _const(top)
            case "app":
                return [(t[1], i), (t[2], i)], lambda v: v[0] + v[1] + top
            case "lam":
                return [(t[3], i)], lambda v: v[0] + top
        if t[1] == "ind":
            return [(t[2], i)], lambda v: v[0] + top
        if i == 0:
            return [], _const(0)
        return [(t[2], i - 1)], lambda v: v[0]

    return _fold(tree, m, step)


def wei(tree, n, m):
    def step(t, i):
        top = 1 if i == 0 else 0
        match t[0]:
            case "cut":
                return [], _const(0)
            case "var":
                return [], _const(top)
            case "app":
                return [(t[1], i), (t[2], i)], lambda v: v[0] + v[1]
            case "lam":
                return [(t[3], i)], lambda v: v[0] + top
        if t[1] == "ind":
            return [(t[2], i)], lambda v: n * v[0] if i == 0 else v[0]
        if i == 0:
            return [], _const(0)
        return [(t[2], i - 1)], lambda v: v[0]

    return _fold(tree, m, step)


def free_occurrences(tree, x):
    def step(t, _):
        match t[0]:
            case "var":
                return [], _const(1 if t[1] == x else 0)
            case "cut":
                return [], _const(0)
            case "app":
                return [(t[1], 0), (t[2], 0)], sum
            case "lam":
                if t[2] == x:
                    return [], _const(0)
                return [(t[3], 0)], sum
        return [(t[2], 0)], sum

    return _fold(tree, 0, step)


def dup_factor(tree, m):
    def step(t, i):
        match t[0]:
            case "cut" | "var":
                return [], _const(1)
            case "app":
                return [(t[1], i), (t[2], i)], max
            case "lam":
                if t[1] == "ind" and i == 0:
                    occ = free_occurrences(t[3], t[2])
                    return [(t[3], 0)], lambda v: max(occ, v[0])
                return [(t[3], i)], lambda v: v[0]
        if t[1] == "ind":
            return [(t[2], i)], lambda v: v[0]
        if i == 0:
            return [], _const(1)
        return [(t[2], i - 1)], lambda v: v[0]

    return _fold(tree, m, step)


def weight_table(defs, root, depths=range(3)):
    """``(size, df, twei)`` per depth, each computed on the depth-(m+1)
    unfolding, where truncation markers count as the neutral element."""
    rows = []
    for m in depths:
        tree = unfold(defs, root, m + 1)
        d = dup_factor(tree, m)
        rows.append((size(tree, m), d, wei(tree, d, m)))
    return rows
