"""Redex discovery, contraction, level-set strategies, and productive
level-by-level evaluation.

Basic reduction has three rules, one per abstraction kind::

    (\\x. M) N    ->  M[x := N]
    (\\!x. M) !N  ->  M[x := N]
    (\\#x. M) #N  ->  M[x := N]

A redex occurrence carries the level (word over ``{i, c}``) of the boxes
crossed on the path to it; its depth is the number of ``c`` symbols.
Level-by-level reduction fires a redex at level ``s`` only when the term
is normal at every proper prefix of ``s``; evaluation normalises depth
0, then depth 1, and so on, which is what makes productive terms print
their output depth by depth.
"""

import heapq
from dataclasses import dataclass, field

from .errors import BudgetExceededError, InvalidPositionError
from .terms import (
    App, Box, Lam, Node, Ref, TermGraph,
    ARG, BODY, BOXED, FN,
    COIND, IND, LIN,
    DEFAULT_BUDGET,
    derive, fresh_name, project_depth, subst_in_body,
)

NO_MARKS = ("", "", "")     # what the sides and bodies add to a level
LINEAR = "linear"
INDUCTIVE = "inductive"
COINDUCTIVE = "coinductive"

_LEVEL_DIGITS = str.maketrans("ic", "01")


def level_depth(level: str) -> int:
    """Depth of a level word = number of coinductive crossings."""
    return level.count("c")


def level_key(level: str):
    """Sort key: by depth, then lexicographically (i < c, prefixes first)."""
    return level.count("c"), level.translate(_LEVEL_DIGITS)


@dataclass(frozen=True)
class Redex:
    position: tuple
    level: str
    kind: str

    @property
    def depth(self) -> int:
        return level_depth(self.level)


@dataclass
class EvalStats:
    steps_per_depth: dict = field(default_factory=dict)
    outcome: str = "normalized"          # | "fuel-exhausted" | "stuck"
    stuck_position: tuple = None
    detail: str = ""

    @property
    def fuel_consumed(self) -> int:
        return sum(self.steps_per_depth.values())


def _exceeded(budget) -> BudgetExceededError:
    return BudgetExceededError(
        f"traversal exceeded {budget} nodes (ill-formed input?)")


def walk(g: TermGraph, *, start=None, max_depth=None, marks=NO_MARKS,
         budget=DEFAULT_BUDGET):
    """Preorder traversal of the unfolding, yielding (node, at, level).

    The walk starts at ``start``, a node over ``g``'s definitions, by
    default ``g``'s root body; paths and levels are relative to it.
    ``at`` is the node's parent link: ``()`` at the start, else the pair
    (parent's link, selector); :func:`path_of` turns it into a path, so
    a walk builds no path it does not need.  Crossing into a box adds
    ``i`` or ``c`` to the level, by its kind, and crossing into a
    function side, an argument side or an abstraction body adds the
    letter ``marks`` holds for it, ``""`` or ``"c"``: by default none
    (:data:`NO_MARKS`), as in the boxed calculus.  ``max_depth`` stops
    descent across a crossing that would put more ``c``s than the bound
    in the level (the node it leaves is still yielded).  References are
    transparent.
    """
    fn_mark, arg_mark, body_mark = marks
    fn_up, arg_up, body_up = map(len, marks)
    defs = g.defs
    # no walk within its budget reaches a depth past it
    limit = budget if max_depth is None else max_depth
    stack = [(g.root_body() if start is None else start, (), "", 0)]
    visited = 0
    while stack:
        node, at, level, depth = stack.pop()   # depth: level's c's
        while type(node) is Ref:
            node = defs[node.name]
        visited += 1
        if visited > budget:
            raise _exceeded(budget)
        yield node, at, level
        t = type(node)
        if t is App:
            if depth + arg_up <= limit:
                stack.append((node.arg, (at, ARG), level + arg_mark,
                              depth + arg_up))
            if depth + fn_up <= limit:
                stack.append((node.fn, (at, FN), level + fn_mark,
                              depth + fn_up))
        elif t is Lam or t is Box:
            if t is Lam:
                sel, mark, up = BODY, body_mark, body_up
            elif node.kind == IND:
                sel, mark, up = BOXED, "i", 0
            else:
                sel, mark, up = BOXED, "c", 1
            if depth + up <= limit:
                stack.append((node.body, (at, sel), level + mark,
                              depth + up))


def path_of(at) -> tuple:
    """The path of a parent link yielded by :func:`walk`."""
    sels = []
    while at:
        at, sel = at
        sels.append(sel)
    return tuple(reversed(sels))


def redex_kind_at(g: TermGraph, node: Node):
    """The basic-reduction kind this application matches, or None."""
    if type(node) is not App:
        return None
    return _redex_kind(g.resolve(node.fn), g.resolve(node.arg))


def _redex_kind(f: Node, a: Node):
    """The basic-reduction kind of ``f`` applied to ``a``, both with
    their references resolved, or None."""
    if type(f) is not Lam:
        return None
    if f.kind == LIN:
        return LINEAR
    if type(a) is Box and a.kind == f.kind:
        return INDUCTIVE if f.kind == IND else COINDUCTIVE
    return None


def find_redexes(g: TermGraph, max_depth, budget=DEFAULT_BUDGET):
    """All redexes in the region down to ``max_depth`` (finite on
    terms), ordered by level depth, then level (i before c), then
    leftmost-outermost position."""
    found = [Redex(path_of(at), level, kind)
             for node, at, level in walk(g, max_depth=max_depth, budget=budget)
             if (kind := redex_kind_at(g, node))]
    # stable: preorder breaks ties between equal levels
    found.sort(key=lambda r: level_key(r.level))
    return found


# The benchmark's tracer wraps the enumerator under this name as well as
# under its own, so the name stays bound to the same function.
redexes_within_depth = find_redexes


def _shallow_size(node: Node, budget) -> int:
    """Nodes of the tree ``node`` above its coinductive boxes, the boxes
    included; a reference counts as one node and is not followed.  Once
    the count passes ``budget``, the walk stops and returns what it has."""
    n = 0
    todo = [node]
    while todo and n <= budget:
        node = todo.pop()
        while True:         # down the function sides, arguments stacked
            n += 1
            t = type(node)
            if t is App:
                todo.append(node.arg)
                node = node.fn
            elif t is Lam or (t is Box and node.kind == IND):
                node = node.body
            else:
                break
    return n


def _shallow_key(node: Node) -> str:
    """A key that ``==`` trees share when their coinductive boxes at
    depth 0 hold the same objects: the nodes :func:`_shallow_size`
    counts, in prefix form with their names, and each such box's
    contents by its reference's name, or by identity.  It costs those
    nodes, however deep the boxes' contents are.  Equal keys mean ``==``
    trees while the objects the keys name are alive, so a key kept past
    the tree must keep the tree alive."""
    parts = []
    todo = [node]
    while todo:
        n = todo.pop()
        t = type(n)
        if t is App:
            parts.append("@")
            todo += n.arg, n.fn
        elif t is Lam:
            parts.append(f"\\{n.kind}:{n.name}")
            todo.append(n.body)
        elif t is Box:
            if n.kind == IND:
                parts.append("!")
                todo.append(n.body)
            elif type(n.body) is Ref:
                parts.append(f"#r:{n.body.name}")
            else:
                parts.append(f"#{id(n.body)}")
        else:
            parts.append(f"{t.__name__}:{n.name}")
    return " ".join(parts)


def _first_redex(g: TermGraph, node: Node, budget, whole=True):
    """``find_redexes(g, 0, budget)[0]`` for the unfolding of
    ``node``, a node over ``g``'s definitions, or None when there is
    none, found without collecting or sorting the others, and the nodes
    charged against ``budget``.

    At depth 0 every level is ``i^k``, so the first redex is one with
    the least ``k``, and preorder breaks ties.  With ``whole`` the search
    visits the depth-0 region as :func:`walk` does and raises
    :class:`BudgetExceededError` where it would; the charge is the nodes
    it visited.  Otherwise it skips every subtree at or below the best
    ``k`` found so far and stops at a redex with ``k = 0``; the region
    is then charged by :func:`_shallow_size` instead, which never counts
    more than a walk visits, and the charge is the larger of that count
    and the nodes the search visited.  Either way the call raises
    exactly when its charge passes ``budget``.  Only the winner's path
    is built, from parent links.
    """
    charge = 0 if whole else _shallow_size(node, budget)
    if charge > budget:
        raise _exceeded(budget)
    best = None                 # (parent link, k, kind) of the first redex
    best_k = float("inf")
    defs = g.defs
    while type(node) is Ref:
        node = defs[node.name]
    stack = [(node, (), 0)]
    visited = 0
    while stack:
        node, at, k = stack.pop()
        if k >= best_k and not whole:
            continue
        visited += 1
        if visited > budget:
            raise _exceeded(budget)
        t = type(node)
        if t is App:
            f = node.fn
            while type(f) is Ref:
                f = defs[f.name]
            a = node.arg
            while type(a) is Ref:
                a = defs[a.name]
            if k < best_k and type(f) is Lam:
                kind = _redex_kind(f, a)
                if kind:
                    best = at, k, kind
                    best_k = k
                    if not k and not whole:
                        break
            stack.append((a, (at, ARG), k))
            stack.append((f, (at, FN), k))
        elif t is Lam or (t is Box and node.kind == IND):
            b = node.body
            while type(b) is Ref:
                b = defs[b.name]
            if t is Lam:
                stack.append((b, (at, BODY), k))
            else:
                stack.append((b, (at, BOXED), k + 1))
    charge = max(charge, visited)
    if best is None:
        return None, charge
    at, k, kind = best
    return Redex(path_of(at), "i" * k, kind), charge


def _graph_nodes(g: TermGraph, marks=NO_MARKS):
    """Each node of the unfolding of ``g``'s root body (references
    resolved: the nodes of the reachable definitions) with the least
    depth of each parity it occurs at, so at most twice, shallower
    depths first; a node's first yield is at its least depth.  A child
    lies one depth down where crossing into it adds a ``c`` to the level
    (:func:`walk`, with the same ``marks``): by default, a coinductive
    box's contents.  Each depth is drained before the next."""
    fn_mark, arg_mark, body_mark = marks
    seen = set()
    depth, todo, below = 0, [g.root_body()], []
    while todo:
        n = g.resolve(todo.pop())
        key = id(n), depth & 1
        if key not in seen:
            seen.add(key)
            yield n, depth
            t = type(n)
            if t is App:
                (below if fn_mark else todo).append(n.fn)
                (below if arg_mark else todo).append(n.arg)
            elif t is Lam:
                (below if body_mark else todo).append(n.body)
            elif t is Box:
                (below if n.kind == COIND else todo).append(n.body)
        if not todo:
            depth, todo, below = depth + 1, below, []


def has_any_redex(g: TermGraph) -> bool:
    """Whether the unfolding contains a redex anywhere, decided on the
    graph (:func:`_graph_nodes`)."""
    return any(redex_kind_at(g, n) for n, _ in _graph_nodes(g))


def _descend(g: TermGraph, node: Node, path):
    """The spine of ``path`` below ``node``, a node over ``g``'s
    definitions, and the node the path reaches.  The spine lists the
    ``(node, selector)`` pairs along the path; its nodes and the node
    reached have their references resolved.  :func:`_plug` copies a
    spine back over a new node."""
    spine = []
    node = g.resolve(node)
    for sel in path:
        t = type(node)
        if t is App and (sel == FN or sel == ARG):
            child = node.fn if sel == FN else node.arg
        elif (t is Lam and sel == BODY) or (t is Box and sel == BOXED):
            child = node.body
        else:
            raise InvalidPositionError(
                f"selector {sel!r} does not apply at "
                f"{'.'.join(path[:len(spine)]) or '<root>'}")
        spine.append((node, sel))
        node = g.resolve(child)
    return spine, node


def _plug(spine, node: Node) -> Node:
    """The top of ``spine`` (:func:`_descend`) with ``node`` at its
    bottom: the nodes along it are copied, references along it inlined,
    and the subtrees beside it are shared (path copying)."""
    for n, sel in reversed(spine):
        if sel == FN:
            node = App(node, n.arg)
        elif sel == ARG:
            node = App(n.fn, node)
        elif type(n) is Lam:
            node = Lam(n.kind, n.name, node)
        else:
            node = Box(n.kind, node)
    return node


def level_at(g: TermGraph, path) -> str:
    """Level of the position reached by ``path`` from the root."""
    spine, _ = _descend(g, g.root_body(), path)
    return "".join("i" if n.kind == IND else "c"
                   for n, sel in spine if sel == BOXED)


def _contract_at(g: TermGraph, node: Node, redex: Redex, names: set) -> Node:
    """``node``, a node over ``g``'s definitions, with the redex at
    ``redex.position`` below it contracted: one
    :func:`~llinf.terms.subst_in_body` substitutes in the abstraction's
    body, renaming binders apart from ``names``, and :func:`_plug` copies
    the spine down to the redex back over the result.  ``g``'s
    definitions are not written."""
    path = redex.position
    spine, at = _descend(g, node, path)
    kind = redex_kind_at(g, at)
    if kind != redex.kind:
        raise InvalidPositionError(
            f"position {'.'.join(path) or '<root>'} holds "
            f"{kind or 'no redex'}, not a {redex.kind} redex")
    f = g.resolve(at.fn)
    value = at.arg if f.kind == LIN else g.resolve(at.arg).body
    return _plug(spine, subst_in_body(g, f.body, f.name, value, names))


def _with_root_body(g: TermGraph, body: Node, names: set) -> TermGraph:
    """``g`` with ``body``, made from ``g``'s bodies by steps, as its
    root body, pruned; the root is named anew, with a name not in
    ``names``, which keeps it, when a definition references the old
    one.  ``g`` itself comes back when ``body`` is its root body."""
    if body is g.root_body():
        return g
    root = g.root
    if root in g.referenced():
        root = fresh_name(root, names)
        names.add(root)
    return derive(g, root, body).pruned()


def contract(g: TermGraph, redex: Redex) -> TermGraph:
    """Contract one redex occurrence of ``g``'s root body
    (:func:`_contract_at`), with fresh names drawn apart from ``g``'s.
    The result is built unchecked by :func:`~llinf.terms.derive`, and
    pruned."""
    names = set(g.all_names())
    return _with_root_body(g, _contract_at(g, g.root_body(), redex, names),
                           names)


# ---------------------------------------------------------------------------
# strategies

def step_at_levelset(g: TermGraph, spec, budget=DEFAULT_BUDGET):
    """Contract the first redex, in :func:`find_redexes` order, whose
    level matches ``spec``: 'any', 'even', 'odd', ('depth', n) or
    ('exact', word); or return None.

    The redex's depth is decided on the graph (:func:`_graph_nodes`):
    the least depth of a redex node for 'any', the least of that parity
    for 'even' and 'odd', and ``n`` or the word's depth otherwise,
    provided some redex node of its parity lies no deeper.  One search
    of that depth's region then finds the redex."""
    match spec:
        case "any" | "even" | "odd":
            depth = word = None
        case ("depth", depth):
            word = None
        case ("exact", word):
            depth = level_depth(word)
        case _:
            raise ValueError(f"unknown level predicate {spec!r}")
    parity = {"even": 0, "odd": 1}.get(spec) if depth is None else depth % 2
    least = next((d for n, d in _graph_nodes(g)
                  if parity in (None, d % 2) and redex_kind_at(g, n)), None)
    depth = least if depth is None else depth
    if least is None or least > depth:
        return None
    for r in find_redexes(g, depth, budget):
        if r.depth == depth and word in (None, r.level):
            return contract(g, r)
    return None


def _admissible(redexes):
    levels = {r.level for r in redexes}
    return [r for r in redexes
            if not any(r.level[:k] in levels for k in range(len(r.level)))]


def step_lbl(g: TermGraph, budget=DEFAULT_BUDGET):
    """One level-by-level step: the leftmost admissible redex at the
    outermost non-normal level.  Returns (graph, redex) or None.

    The first redex in :func:`level_key` order is admissible: every
    proper prefix of its level sorts before it.  Its depth is the least
    depth of a redex node (:func:`_graph_nodes`), so one search of that
    depth's region finds it.  Regions nest, so that search exceeds
    ``budget`` exactly when a search of some region up to it would."""
    d = next((d for n, d in _graph_nodes(g) if redex_kind_at(g, n)), None)
    if d is None:
        return None
    r = (find_redexes(g, d, budget)[0] if d
         else _first_redex(g, g.root_body(), budget)[0])
    return contract(g, r), r


def _never_fires(g: TermGraph, node: App, box_heads=False):
    """Why the application ``node`` can never fire, or None.

    Always flagged (the shapes are stable under further reduction and
    substitution): an inductive/coinductive abstraction whose argument
    is an abstraction or a box of the other kind.  A closed application
    whose head is a box is reported only with ``box_heads``: such
    subterms are inert but legitimate (the non-normalising examples
    carry one at every depth), so evaluation must not halt on them.
    """
    defs = g.defs
    f = node.fn
    while type(f) is Ref:
        f = defs[f.name]
    if type(f) is Box:
        if box_heads and not g.node_free_vars(node):
            return "application head is a box"
    elif type(f) is Lam and f.kind != LIN:
        a = node.arg
        while type(a) is Ref:
            a = defs[a.name]
        if type(a) is Box and a.kind != f.kind:
            want = "inductive" if f.kind == IND else "coinductive"
            got = "inductive" if a.kind == IND else "coinductive"
            return f"{want} abstraction applied to a {got} box"
        if type(a) is Lam:
            return "boxed argument expected but the argument is an abstraction"
    return None


def find_deadlock(g: TermGraph, *, max_depth=None, budget=DEFAULT_BUDGET,
                  include_box_heads=False):
    """The path of the first application in a :func:`walk` of ``g``
    that can never fire (:func:`_never_fires`, box heads on request) and
    the reason, or None.  No caller in the package is left: it stays as
    the tests' oracle of the evaluator's deadlock walk and as a span of
    the benchmark's tracer."""
    for node, at, level in walk(g, max_depth=max_depth, budget=budget):
        if type(node) is App and (
                why := _never_fires(g, node, include_box_heads)):
            return path_of(at), why
    return None


# ---------------------------------------------------------------------------
# frontier evaluation

@dataclass
class _Box:
    """The contents of one coinductive box, evaluated as a node over the
    input's definitions.  The node evaluation starts from is the box at
    the empty position."""

    path: tuple             # position of the contents in the whole unfolding
    level: str              # level of the contents
    node: Node              # the contents, references resolved
    parent: int = -1        # index of the enclosing box
    at: tuple = ()          # position of the box node in the parent's contents
    steps: int = 0          # steps taken in the contents, or counted as taken
    # while the memo of _frontier_eval normalises the contents:
    queued: tuple = None    # (_shallow_key, contents) as it was queued
    peak: int = 0           # the most any search charged against the budget
    drew: bool = False      # whether a step drew a fresh name


def _frontier_eval(g, node, depth, fuel, budget, names, on_step=None):
    """Level-by-level evaluation of ``node``, a node over ``g``'s
    definitions and the box at the empty position, one box at a time.

    Depth ``d`` of its unfolding is depth 0 of the contents of the boxes
    reached by crossing ``d`` coinductive boxes; completed depths are
    final, so those contents are normalised each on its own, as a node
    over ``g``'s definitions, which no step writes: a step rewrites a
    box's node (:func:`_contract_at`), renaming binders apart from
    ``names``, and no graph is built.  Steps are taken in the order of
    :func:`find_redexes` on the whole unfolding: a heap holds
    each box's first redex (:func:`_first_redex`) keyed by its whole
    level, then by box preorder, and after a step only the stepped box
    is searched again, up to its first redex.  Once depth ``d`` is
    normal, one walk of each box reports the first application that can
    never fire and, below the last depth, opens the boxes of depth
    ``d+1``.  The budget bounds every
    state of the depth-``d`` region.  A box gets what the region above
    the frontier and a node for every other frontier box leave: its
    whole region is walked against that share when the box is queued,
    and after each step the stepped node's nodes above its coinductive
    boxes (:func:`_shallow_size`) are charged against it.  Calls
    ``on_step(boxes, redex)`` after each step, with the redex at its
    whole-term position and level; :func:`_whole` plugs ``boxes`` into
    the term the step reached.  Returns ``(boxes, stats)``.

    Without ``on_step``, each distinct contents is normalised once per
    call (Michie's memo functions).  When a box normalises and its steps
    drew no fresh name, its normal form, its step count and the largest
    charge it made are kept under the :func:`_shallow_key` of its
    contents as queued.  A box queued later under the same key takes the
    kept normal form and counts its steps instead of taking them,
    provided they fit the fuel left at its depth and the charge fits its
    share: its contents are ``==``, and the steps would draw no name
    either, so they would reach the same tree, and the other boxes'
    steps keep their order.  Where the fuel runs out, the partial state
    depends on how the heap interleaves every box's steps, so an
    evaluation that runs out of fuel at a depth where a box took a kept
    normal form is done again with every step taken.  Evaluating depth 0
    alone opens one box and keeps nothing.
    """
    if on_step is None and depth:
        start = frozenset(names)
        out = _levels(g, node, depth, fuel, budget, names, None, {})
        if out is not None:
            return out
        names.intersection_update(start)
    return _levels(g, node, depth, fuel, budget, names, on_step, None)


def _levels(g, node, depth, fuel, budget, names, on_step, kept):
    """The evaluation of :func:`_frontier_eval`.  ``kept`` is None for
    no memo, or a dict from the :func:`_shallow_key` of a contents to
    ``(normal form, steps, largest charge)``; each box's ``queued``
    keeps the objects its key names alive for the call.  Returns None
    when the fuel runs out at a depth where a box took a kept normal form.

    The end-of-depth walk charges the region above the next frontier a
    node per node visited and a node per box opened; past ``budget`` it
    opens no more, but searches on, so an application that can never
    fire wins over the :class:`BudgetExceededError` raised at the end.
    Its walk of each box never passes the box's share ``left``: a
    search under the same share has already visited the same region,
    the whole search made when an unstepped box was queued, or the last
    search of a stepped box, which found no redex and so pruned
    nothing; and a kept normal form is taken only when its largest
    charge fits the share."""
    stats = EvalStats(steps_per_depth={})
    boxes = [_Box((), "", node)]
    frontier = [0]
    used = 0
    heap = []

    def push(i, whole):
        # box i's first redex, keyed as in the whole term: by level, then
        # by box preorder (local preorder decides within the box)
        b = boxes[i]
        try:
            r, charge = _first_redex(g, b.node, left, whole)
        except BudgetExceededError:
            raise _exceeded(budget) from None
        if r is not None:
            heapq.heappush(heap, (level_key(b.level + r.level), i, r))
        if b.queued is not None:
            b.peak = max(b.peak, charge)
            if r is None and b.steps and not b.drew:
                kept[b.queued[0]] = b.node, b.steps, b.peak

    for d in range(depth + 1):
        left = budget - used - len(frontier) + 1
        stats.steps_per_depth[d] = 0
        reused = False
        for i in frontier:
            b = boxes[i]
            if kept is not None:
                key = _shallow_key(b.node)
                hit = kept.get(key)
                if (hit is not None and hit[2] <= left
                        and stats.steps_per_depth[d] + hit[1] <= fuel):
                    # take the kept normal form, counting its steps
                    b.node, b.steps = hit[0], hit[1]
                    stats.steps_per_depth[d] += hit[1]
                    reused = True
                    continue
                b.queued = key, b.node
            push(i, True)
        while heap:
            if stats.steps_per_depth[d] >= fuel:
                if reused:
                    return None
                stats.outcome = "fuel-exhausted"
                stats.detail = f"fuel exhausted while normalising depth {d}"
                return boxes, stats
            _, i, r = heapq.heappop(heap)
            b = boxes[i]
            drawn = len(names)
            b.node = _contract_at(g, b.node, r, names)
            b.steps += 1
            b.drew = b.drew or len(names) != drawn
            stats.steps_per_depth[d] += 1
            push(i, False)
            if on_step is not None:
                on_step(boxes, Redex(b.path + r.position, b.level + r.level,
                                     r.kind))
        opened, over = [], False
        for i in frontier:
            b = boxes[i]
            for node, at, level in walk(g, start=b.node, max_depth=0,
                                        budget=left):
                t = type(node)
                if t is App and (why := _never_fires(g, node)):
                    stats.outcome = "stuck"
                    stats.stuck_position = b.path + path_of(at)
                    stats.detail = why
                    return boxes, stats
                if d < depth and not over:
                    used += 1
                    if t is Box and node.kind == COIND:
                        path = path_of(at)
                        opened.append(len(boxes))
                        boxes.append(_Box(b.path + path + (BOXED,),
                                          b.level + level + "c",
                                          g.resolve(node.body), i, path))
                    over = used + len(opened) > budget
        if over:
            raise BudgetExceededError(
                f"evaluated region exceeds {budget} nodes (ill-formed input?)")
        frontier = opened
    return boxes, stats


def _whole(g, boxes):
    """The root node after :func:`_frontier_eval` from ``g``'s root
    body, over ``g``'s definitions: the contents of each box that a step
    changed, or that holds such a box, plugged back into a copy of its
    parent's node (:func:`_plug`), children before parents; ``boxes`` is
    not written.

    Other boxes keep their original nodes, so the parts of the input no
    step touched keep their sharing, and ``g``'s root body itself comes
    back when no step was taken.  Contents are inlined, not referenced:
    they may mention variables bound above the box."""
    plugged = {}        # box index -> its contents with changed boxes plugged
    for i in range(len(boxes) - 1, 0, -1):
        b = boxes[i]
        if i in plugged:
            node = plugged.pop(i)
        elif b.steps:
            node = b.node
        else:
            continue
        spine, _ = _descend(g, plugged.get(b.parent, boxes[b.parent].node),
                            b.at)
        plugged[b.parent] = _plug(spine, Box(COIND, node))
    return plugged.get(0, boxes[0].node)


def eval_lbl(g: TermGraph, depth: int, fuel: int, budget=DEFAULT_BUDGET):
    """Level-by-level evaluation: normalise depth 0, then 1, ... ``depth``.

    Spends at most ``fuel`` steps per depth.  On outcome ``normalized``
    the returned tree is the depth projection of every continuation of
    the reduction: completed depths can never reacquire a redex, so
    they are never revisited and a step costs what its box costs, not
    what the output printed so far costs.  Contents that recur are
    normalised once (the memo of :func:`_frontier_eval`); the steps a
    recurring contents would take are counted as taken, so the tree,
    its names, the stats and any budget error are those that taking
    every step gives, as :func:`run_lbl_trace` does.  Raises
    :class:`BudgetExceededError` once the depth-bounded region passes
    ``budget`` nodes, unless evaluation stopped stuck: a deadlock wins
    over the projection's budget error, and the tree is then None.
    Returns ``(graph, tree, stats)``; the graph is ``g`` itself when no
    step was taken, and boxes no step changed keep their nodes.
    """
    return _evaluate(g, depth, fuel, budget, None)


def run_lbl_trace(g: TermGraph, depth: int, fuel: int, budget=DEFAULT_BUDGET):
    """Evaluate as :func:`eval_lbl` does, taking every step, and return
    the list of contracted redexes alongside the result."""
    records = []
    return (*_evaluate(g, depth, fuel, budget,
                       lambda boxes, r: records.append(r)), records)


def _evaluate(g, depth, fuel, budget, on_step):
    """:func:`eval_lbl`, calling ``on_step`` as :func:`_frontier_eval` does."""
    names = set(g.all_names())
    boxes, stats = _frontier_eval(g, g.root_body(), depth, fuel, budget, names,
                                  on_step)
    g = _with_root_body(g, _whole(g, boxes), names)
    try:
        return g, project_depth(g, depth, budget), stats
    except BudgetExceededError:
        if stats.outcome != "stuck":
            raise
        return g, None, stats


def classify(g: TermGraph) -> str:
    """'normal', 'reducible', or 'deadlocked', decided on the graph in
    one pass over the nodes of its reachable definitions
    (:func:`_graph_nodes`), with no bound on height or depth.

    Redexes take priority: a term that still reduces is reducible even
    if an unusable application (:func:`_never_fires`, box heads
    included) is already visible."""
    dead = False
    for n, _ in _graph_nodes(g):
        if type(n) is App:
            if redex_kind_at(g, n):
                return "reducible"
            dead = dead or _never_fires(g, n, True) is not None
    return "deadlocked" if dead else "normal"


def format_step(index: int, r: Redex, human=False) -> str:
    level = r.level or ("ε" if human else "")
    pos = ".".join(r.position) or ("ε" if human else "")
    if human:
        return (f"step {index}: level {level}, depth {r.depth}, "
                f"{r.kind} redex at {pos}")
    return f"{index}\t{level}\t{r.depth}\t{r.kind}\t{pos}"
