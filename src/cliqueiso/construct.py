"""Constructive isolating sets of size at most floor(n/(k+1)).

For every connected graph other than the complete graph on k vertices (and, at
k = 2, the 5-cycle) an isolating set within that bound exists, and this module
builds one.  The paper's induction runs on pieces of the input: masks over the
host graph's vertices, in the host's labels, driven by one explicit work
stack.  Each step pops a piece, picks a pivot v inside its first k-clique that
has a neighbour outside the clique, removes N[v], classifies the residual
components by shape (general, complete-on-k, 5-cycle; ``exception_kind``) and
by which neighbours of v they attach to, and fires one rule:

* no k-clique at all, or a dominating pivot: immediate answers;
* no exceptional residual component: keep v, push every component;
* some exceptional component attached to a single neighbour x: take x, finish
  the 5-cycles hanging off x with one far vertex each, push the rest
  (tag Case2);
* every exceptional component attached to at least two neighbours: excise one
  exceptional component together with one attachment vertex x and split on the
  shape of the piece containing v (tags Case1_Sub1..3), where the complete and
  5-cycle shapes bottom out in small finite constructions that are verified
  before being returned.

Each case of the proof is one function: ``_case_single_link`` is Case 2 and
``_case_multi_link`` holds Case 1 with its three subcases.  Both read the
piece containing v off that one split: it is all that is left but the
components attached to x alone, so no step splits twice.

Each rule returns its tag, the vertices it adds to the set as a mask, and the
child pieces, which are pushed in reverse, so the trace is in pre-order and
the steps of every piece form one contiguous run.  The set is the union of the
steps.  A step is kept as a (tag, chosen mask) pair; ``TraceStep`` objects,
with the chosen vertices as a sorted tuple, are built only for the public
results.

Every choice (clique, pivot, attachment, cycle labeling) takes the smallest
index available, so the output is a pure function of the input.

Every step is checked against the paper's budget: what it chooses and every
child piece lie inside its piece, and each chosen vertex is paid for by k + 1
vertices of the piece that no child keeps, (k+1)·|chosen| <= |piece| −
Σ|child|.  By induction over the piece tree, a piece's set (its step's chosen
vertices and its children's sets) then lies inside the piece and has at most
⌊(|piece| − Σ|child|)/(k+1)⌋ + Σ⌊|child|/(k+1)⌋ <= ⌊|piece|/(k+1)⌋ vertices,
since ⌊a⌋ + ⌊b⌋ <= ⌊a + b⌋.  So the root's set lies within the bound, and
only its isolation is tested at the end.  The structural facts each rule
relies on are checked as well.  No check is an ``assert``, so all of them
still run under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .cliques import find_in_mask, isolates
from .graph import (
    FIVE_CYCLE,
    K_CLIQUE,
    NONE,
    ExceptionKind,
    Graph,
    VertexSet,
    bits,
    classify_exception,
    component_masks,
    exception_kind,
    require_k,
    set_of,
)

# A residual component: (mask, excluded shape, link mask over N(pivot)).
_Entry = tuple[int, ExceptionKind, int]


class BranchTag(Enum):
    """Which rule produced a step of the construction."""

    BASE_SMALL = "BaseSmall"
    NO_CLIQUE = "NoClique"
    DOMINATING_VERTEX = "DominatingVertex"
    NO_EXCEPTIONAL = "NoExceptional"
    CASE1_SUB1 = "Case1_Sub1"
    CASE1_SUB2 = "Case1_Sub2"
    CASE1_SUB3 = "Case1_Sub3"
    CASE2 = "Case2"


# The members under plain module names, as graph.py binds ExceptionKind's:
# every step returns one, and each attribute lookup on the enum costs time.
BASE_SMALL = BranchTag.BASE_SMALL
NO_CLIQUE = BranchTag.NO_CLIQUE
DOMINATING_VERTEX = BranchTag.DOMINATING_VERTEX
NO_EXCEPTIONAL = BranchTag.NO_EXCEPTIONAL
CASE1_SUB1 = BranchTag.CASE1_SUB1
CASE1_SUB2 = BranchTag.CASE1_SUB2
CASE1_SUB3 = BranchTag.CASE1_SUB3
CASE2 = BranchTag.CASE2


# One step of the trace: the rule's tag and the vertices it added to the set,
# as a mask.
_Record = tuple[BranchTag, int]
# What a rule returns: its record's two fields, then the child pieces.
_Fired = tuple[BranchTag, int, list[int]]


@dataclass(frozen=True)
class TraceStep:
    """One fired rule and the vertices it added to the set directly.

    The union of ``chosen`` over a result's whole trace equals the result set.
    """

    tag: BranchTag
    chosen: tuple[int, ...]


@dataclass(frozen=True)
class BoundResult:
    """A verified isolating set together with its size guarantee and trace.

    ``depth`` is the depth of the piece tree the work stack walked: the most
    pieces above any step, 0 when the root piece is the only one.
    """

    set: VertexSet
    bound: int
    trace: tuple[TraceStep, ...]
    depth: int


@dataclass(frozen=True)
class ComponentResult:
    """Per-component outcome: a forced optimal set for the two exceptional
    shapes, or a constructed bounded set for everything else.  All labels are
    the host graph's."""

    vertices: VertexSet
    exception: ExceptionKind
    set: VertexSet
    result: BoundResult | None


_PER_COMPONENT = "bounded_sets_per_component or bound --per-component"


class ExceptionalGraphError(ValueError):
    """The input is one of the two shapes the bound excludes."""

    def __init__(self, kind: ExceptionKind, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def _fact(ok: bool, message: str) -> None:
    """Raise on a broken invariant; unlike ``assert``, survives ``python -O``."""
    if not ok:
        raise AssertionError(message)


def _far(adj: Sequence[int], mask: int, y: int) -> int:
    """The lowest vertex of ``mask`` outside N[y], as a one-bit mask; on a
    5-cycle through y, the lower of the two vertices at distance two."""
    far = mask & ~(adj[y] | 1 << y)
    return far & -far


def _linkage(adj: Sequence[int], piece: int, k: int, v: int) -> tuple[list[_Entry], bool]:
    """(component mask, excluded shape, link mask over N(v)) per residual
    component, after checking that each touches N(v), and whether any
    component is exceptional."""
    nv = adj[v] & piece
    out = []
    special = False
    for cm in component_masks(adj, piece & ~(nv | (1 << v))):
        links = 0
        rest = nv
        while rest:
            low = rest & -rest
            rest ^= low
            if adj[low.bit_length() - 1] & cm:
                links |= low
        _fact(links != 0, "every residual component touches N(pivot)")
        kind = exception_kind(adj, cm, k)
        special = special or kind is not NONE
        out.append((cm, kind, links))
    return out, special


def bounded_isolating_set(g: Graph, k: int) -> BoundResult:
    """An isolating set of size at most floor(n/(k+1)) for a connected,
    non-exceptional graph, or the empty set for the 0-vertex graph.

    Raises ``ExceptionalGraphError`` (carrying the kind) for the two excluded
    shapes and ``ValueError`` for input with two or more components; both
    messages point to the per-component route.  Every step is checked against
    the bound's budget as it fires, and the final set's isolation is verified
    before it is returned.  The construction uses no recursion, so input size
    never meets Python's recursion limit.
    """
    kind = classify_exception(g, k)
    if kind is not NONE:
        raise ExceptionalGraphError(
            kind,
            f"the floor(n/(k+1)) bound excludes this graph (shape: {kind.value}); "
            f"its forced optimal set is available via {_PER_COMPONENT}",
        )
    if len(component_masks(g.adj, g.full_mask)) > 1:
        raise ValueError(f"graph is disconnected; use {_PER_COMPONENT}")
    return _result(g.n, k, construct_mask(g.adj, g.full_mask, k))


def bounded_sets_per_component(g: Graph, k: int) -> list[ComponentResult]:
    """Apply the construction to every component.

    The two exceptional shapes get their forced optimal sets instead: a single
    vertex for the complete graph on k vertices, two vertices at distance two
    for the 5-cycle at k = 2.
    """
    require_k(k)
    adj = g.adj
    out = []
    for cm in component_masks(adj, g.full_mask):
        kind = exception_kind(adj, cm, k)
        if kind is NONE:
            res = _result(cm.bit_count(), k, construct_mask(adj, cm, k))
            out.append(ComponentResult(set_of(cm), kind, res.set, res))
            continue
        forced = cm & -cm
        if kind is FIVE_CYCLE:
            forced |= _far(adj, cm, forced.bit_length() - 1)
        out.append(ComponentResult(set_of(cm), kind, set_of(forced), None))
    return out


def _result(n: int, k: int, built: tuple[int, list[_Record], int]) -> BoundResult:
    d, trace, depth = built
    steps = tuple(TraceStep(tag, tuple(bits(chosen))) for tag, chosen in trace)
    return BoundResult(set=set_of(d), bound=n // (k + 1), trace=steps, depth=depth)


def construct_mask(adj: Sequence[int], root: int, k: int) -> tuple[int, list[_Record], int]:
    """The work stack behind ``bounded_isolating_set``, on the root piece
    ``root``: the verified set as a mask, the trace as (tag, chosen mask)
    pairs and the depth of the piece tree.

    The caller has already ruled out a disconnected root and the two excluded
    shapes; the empty root is the 0-vertex graph.  A disconnected root is not
    refused here, but at k = 1 one of the checks always fails on it.  Raises
    ``AssertionError`` naming the rule and the piece when a step breaks the
    bound's budget.
    """
    d = 0
    deepest = 0
    trace: list[_Record] = []
    stack = [(root, 0)]
    while stack:
        piece, depth = stack.pop()
        if depth > deepest:
            deepest = depth
        tag, chosen, children = _step(adj, piece, k)
        trace.append((tag, chosen))
        outside = chosen & ~piece
        left = piece.bit_count()
        for child in reversed(children):
            outside |= child & ~piece
            left -= child.bit_count()
            stack.append((child, depth + 1))
        if outside or (k + 1) * chosen.bit_count() > left:
            raise AssertionError(
                f"the {tag.value} step on the piece {_describe(piece)} must stay inside it "
                "and spend k + 1 of its vertices per chosen vertex"
            )
        d |= chosen
    if not isolates(adj, root, d, k):
        raise AssertionError("construction broke its own guarantee; this is a bug")
    return d, trace, deepest


def _describe(piece: int) -> str:
    low = (piece & -piece).bit_length() - 1
    return f"of {piece.bit_count()} vertices from vertex {low}"


def _step(adj: Sequence[int], piece: int, k: int) -> _Fired:
    """Fire the rule that applies to one piece."""
    if piece.bit_count() <= 2:
        if find_in_mask(adj, piece, k) is None:
            return BASE_SMALL, 0, []
        # connected, non-exceptional, n <= 2 with a k-clique forces k = 1 on an edge
        _fact(k == 1 and piece.bit_count() == 2, "a small piece with a k-clique is an edge")
        return BASE_SMALL, piece & -piece, []

    clique = find_in_mask(adj, piece, k)
    if clique is None:
        return NO_CLIQUE, 0, []

    pivot = -1
    outer = piece & ~clique
    rest = clique
    while rest:
        low = rest & -rest
        rest ^= low
        if adj[low.bit_length() - 1] & outer:
            pivot = low.bit_length() - 1
            break
    _fact(pivot >= 0, "a connected non-complete piece has a clique vertex with an outer neighbour")
    vb = 1 << pivot

    if (adj[pivot] & piece) | vb == piece:
        return DOMINATING_VERTEX, vb, []

    entries, special = _linkage(adj, piece, k, pivot)
    if not special:
        return NO_EXCEPTIONAL, vb, [cm for cm, _, _ in entries]

    exceptional = [entry for entry in entries if entry[1] is not NONE]
    for _, _, lk in exceptional:
        if lk.bit_count() == 1:
            return _case_single_link(adj, piece, k, pivot, entries, lk.bit_length() - 1)
    return _case_multi_link(adj, piece, k, pivot, entries, exceptional[0])


def _excise(
    adj: Sequence[int],
    piece: int,
    k: int,
    pivot: int,
    xb: int,
    cut: int,
    entries: list[_Entry],
) -> tuple[int, ExceptionKind, list[int]]:
    """Drop x and the cut from the piece.  Returns the part holding the pivot,
    its excluded shape and the general components that hang on x alone, in
    residual order.  No second split is needed: the residual components are
    pairwise non-adjacent and each touches N(pivot), so the pivot's part is
    everything left but the components linked to x alone, and each of those
    stands apart."""
    gv = piece & ~(xb | cut)
    x_only = []
    for cm, kind, lk in entries:
        if lk == xb:
            gv &= ~cm
            if kind is NONE:
                x_only.append(cm)
            else:
                _fact(cm & ~cut == 0, "components hanging only on x are general here")
    gv_kind = exception_kind(adj, gv, k)
    if gv_kind is K_CLIQUE:
        # x alone breaks it: the part is exactly N[pivot] minus x
        nv_closed = (adj[pivot] & piece) | 1 << pivot
        _fact(gv == nv_closed & ~xb, "a complete pivot side is N[pivot] minus x")
    return gv, gv_kind, x_only


def _case_single_link(
    adj: Sequence[int],
    piece: int,
    k: int,
    pivot: int,
    entries: list[_Entry],
    x: int,
) -> _Fired:
    """Some exceptional residual component hangs on the single neighbour x."""
    xb = 1 << x
    direct = xb
    cut = 0
    for cm, kind, lk in entries:
        if lk == xb and kind is not NONE:
            cut |= cm
            if kind is FIVE_CYCLE:
                # finish a hanging 5-cycle: one vertex opposite its contact with x
                contact = adj[x] & cm
                direct |= _far(adj, cm, (contact & -contact).bit_length() - 1)

    gv, gv_kind, children = _excise(adj, piece, k, pivot, xb, cut, entries)
    if gv_kind is FIVE_CYCLE:
        direct |= _far(adj, gv, pivot)
    elif gv_kind is NONE:
        children = [gv] + children
    return CASE2, direct, children


def _case_multi_link(
    adj: Sequence[int],
    piece: int,
    k: int,
    pivot: int,
    entries: list[_Entry],
    picked: _Entry,
) -> _Fired:
    """Every exceptional residual component attaches to at least two
    neighbours of the pivot; excise the first one plus one attachment x, then
    split on the shape of the part holding the pivot: general (Case1_Sub1),
    complete on k vertices (Case1_Sub2) or, at k = 2, a 5-cycle (Case1_Sub3)."""
    h_mask, h_kind, h_links = picked
    _fact(h_links.bit_count() >= 2, "the excised component has two attachments")

    xb = h_links & -h_links
    x = xb.bit_length() - 1

    contact = adj[x] & h_mask
    _fact(contact != 0, "x is linked to the excised component")
    yb = contact & -contact
    y = yb.bit_length() - 1
    # a complete part is broken by y alone; a 5-cycle also needs a far vertex
    y2b = 0 if h_kind is K_CLIQUE else _far(adj, h_mask, y)

    gv, gv_kind, x_only = _excise(adj, piece, k, pivot, xb, h_mask, entries)
    if gv_kind is NONE:
        # Subcase 1: the pivot-side piece is pushed as-is
        return CASE1_SUB1, yb | y2b, [gv] + x_only

    vb = 1 << pivot
    if gv_kind is K_CLIQUE:
        # Subcase 2: the pivot side is N[pivot] minus x, a k-clique, and the
        # construction bottoms out in finite patterns
        if h_kind is K_CLIQUE:
            shield = yb
            d_pp = xb
        else:
            # k = 2, excised component is a 5-cycle: shield y, the chosen far
            # vertex and that vertex's two cycle neighbours
            shield = yb | y2b | (adj[y2b.bit_length() - 1] & h_mask)
            d_pp = xb | y2b

        c_y = find_in_mask(adj, (h_mask | gv) & ~(vb | shield), k)
        if c_y is None:
            return CASE1_SUB2, d_pp, x_only

        cy_gv = c_y & gv
        cy_h = c_y & h_mask
        _fact(cy_gv != 0 and cy_h != 0, "a clique inside the leftover must straddle both sides")
        zb = cy_gv & -cy_gv
        zone = gv | c_y  # within N[z]: z sees all of gv and all of c_y

        if x_only:
            gz_mask = piece & ~zone
            _fact(len(component_masks(adj, gz_mask)) == 1, "the remainder is connected")
            _fact(exception_kind(adj, gz_mask, k) is NONE, "the remainder is not exceptional")
            return CASE1_SUB2, zb, [gz_mask]

        # No x-only pieces: the whole piece is gv + x + the excised component.
        n = piece.bit_count()
        if h_kind is K_CLIQUE:
            _fact(n == 2 * k + 1, "two k-cliques and x make up the piece")
            if zone.bit_count() >= k + 2:
                d = zb
            else:
                _fact(zone.bit_count() == k + 1 and cy_h.bit_count() == 1, "the overlap is one vertex")
                if k >= 3:
                    d = cy_h
                else:
                    # five vertices around a cycle with a chord somewhere
                    w = -1
                    for u in bits(piece):
                        if (adj[u] & piece).bit_count() >= 3:
                            w = u
                            break
                    _fact(w >= 0, "a non-cycle on five vertices has a degree-3 vertex")
                    d = 1 << w
        else:
            _fact(k == 2 and n == 8, "an edge, x and a 5-cycle make up the piece")
            _fact(cy_h.bit_count() == 1, "the leftover edge meets the 5-cycle once")
            d = yb | cy_h

        _fact(isolates(adj, piece, d, k), "terminal pattern must isolate")
        return CASE1_SUB2, d, []

    # Subcase 3: k = 2 and the pivot side is a 5-cycle: cut out its three far
    # vertices and push what is left, unless what is left is itself a 5-cycle,
    # which bottoms out in a two-vertex pattern
    _fact(k == 2, "a 5-cycle pivot side needs k = 2")
    around = adj[pivot] & gv
    _fact(around.bit_count() == 2, "the pivot has two cycle neighbours")
    v1b = around & -around
    v2b = (adj[v1b.bit_length() - 1] & gv) & ~vb
    _fact(v2b.bit_count() == 1, "the cycle continues past v1")
    v3b = (adj[v2b.bit_length() - 1] & gv) & ~v1b
    _fact(v3b.bit_count() == 1, "the cycle continues past v2")
    v4b = around ^ v1b
    _fact((adj[v3b.bit_length() - 1] & gv) == v2b | v4b, "the cycle closes")

    rest_mask = piece & ~(v2b | v3b | v4b)
    _fact(len(component_masks(adj, rest_mask)) == 1, "removing the far arc keeps one piece")

    if exception_kind(adj, rest_mask, k) is FIVE_CYCLE:
        # Only possible when the excised component is a single edge and
        # nothing hangs on x, leaving eight vertices in total.
        _fact(
            piece.bit_count() == 8 and h_mask.bit_count() == 2 and not x_only,
            "a 5-cycle remainder leaves eight vertices",
        )
        d = vb | v1b
        _fact(isolates(adj, piece, d, k), "terminal pattern must isolate")
        return CASE1_SUB3, d, []

    return CASE1_SUB3, v3b, [rest_mask]
