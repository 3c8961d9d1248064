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

Each rule returns its tag, the vertices it adds to the set and the child
pieces, which are pushed in reverse, so the trace is in pre-order and the
steps of every piece form one contiguous run.  The set is the union of the
steps.  A step is kept as a (tag, chosen) pair, whose size does not grow with
the piece; ``TraceStep`` objects are built only for the public results.

Every choice (clique, pivot, attachment, cycle labeling) takes the smallest
index available, so the output is a pure function of the input.  The final set
is always verified; with ``check=True`` every piece is verified as well.  The
structural facts each rule relies on are always checked.  No check is an
``assert``, so all of them still run under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .cliques import find_in_mask
from .graph import (
    FIVE_CYCLE,
    K_CLIQUE,
    NONE,
    ExceptionKind,
    Graph,
    VertexSet,
    bits,
    classify_exception,
    closed_mask,
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


# One step of the trace: the rule's tag and the vertices it added to the set.
_Record = tuple[BranchTag, tuple[int, ...]]
# What a rule returns: its record's two fields, then the child pieces.
_Fired = tuple[BranchTag, tuple[int, ...], list[int]]


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


def _isolates(adj: Sequence[int], piece: int, d: int, k: int) -> bool:
    """True iff deleting N[d] leaves the piece without a k-clique."""
    return find_in_mask(adj, piece & ~closed_mask(adj, d), k) is None


def _far(adj: Sequence[int], mask: int, y: int) -> int:
    """The lowest vertex of ``mask`` outside N[y], as a one-bit mask; on a
    5-cycle through y, the lower of the two vertices at distance two."""
    far = mask & ~(adj[y] | 1 << y)
    return far & -far


def _linkage(adj: Sequence[int], piece: int, k: int, v: int) -> list[_Entry]:
    """(component mask, excluded shape, link mask over N(v)) per residual
    component."""
    nv = adj[v] & piece
    out = []
    for cm in component_masks(adj, piece & ~(nv | (1 << v))):
        links = 0
        rest = nv
        while rest:
            low = rest & -rest
            rest ^= low
            if adj[low.bit_length() - 1] & cm:
                links |= low
        out.append((cm, exception_kind(adj, cm, k), links))
    return out


def bounded_isolating_set(g: Graph, k: int, *, check: bool = False) -> BoundResult:
    """An isolating set of size at most floor(n/(k+1)) for a connected,
    non-exceptional graph.

    Raises ``ExceptionalGraphError`` (carrying the kind) for the two excluded
    shapes and ``ValueError`` for disconnected input; both messages point to
    the per-component route.  The result is verified before it is returned;
    ``check=True`` additionally verifies every piece the work stack handled,
    which is what the test suite runs with.  The construction uses no
    recursion, so input size never meets Python's recursion limit.
    """
    kind = classify_exception(g, k)
    if kind is not NONE:
        raise ExceptionalGraphError(
            kind,
            f"the floor(n/(k+1)) bound excludes this graph (shape: {kind.value}); "
            f"its forced optimal set is available via {_PER_COMPONENT}",
        )
    comps = component_masks(g.adj, g.full_mask)
    return _result(g.n, k, construct_mask(g.adj, comps, k, check))


def bounded_sets_per_component(g: Graph, k: int, *, check: bool = False) -> list[ComponentResult]:
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
            res = _result(cm.bit_count(), k, construct_mask(adj, [cm], k, check))
            out.append(ComponentResult(set_of(cm), kind, res.set, res))
            continue
        forced = cm & -cm
        if kind is FIVE_CYCLE:
            forced |= _far(adj, cm, forced.bit_length() - 1)
        out.append(ComponentResult(set_of(cm), kind, set_of(forced), None))
    return out


def _result(n: int, k: int, built: tuple[int, list[_Record], int]) -> BoundResult:
    d, trace, depth = built
    steps = tuple(TraceStep(tag, chosen) for tag, chosen in trace)
    return BoundResult(set=set_of(d), bound=n // (k + 1), trace=steps, depth=depth)


def construct_mask(
    adj: Sequence[int], comps: list[int], k: int, check: bool = False
) -> tuple[int, list[_Record], int]:
    """The work stack behind ``bounded_isolating_set``, on a non-exceptional
    graph whose components are ``comps``: the verified set as a mask, the
    trace as (tag, chosen) pairs and the depth of the piece tree.

    Raises ``ValueError`` unless ``comps`` is a single component; the caller
    has already ruled out the two excluded shapes.
    """
    if len(comps) != 1:
        raise ValueError(f"graph is disconnected; use {_PER_COMPONENT}")
    root = comps[0]
    d = 0
    deepest = 0
    trace: list[_Record] = []
    records: list[tuple[int, int]] = []  # (piece, depth) of each step, with check
    stack = [(root, 0)]
    while stack:
        piece, depth = stack.pop()
        deepest = max(deepest, depth)
        if check:
            if len(component_masks(adj, piece)) != 1 or exception_kind(adj, piece, k) is not NONE:
                raise AssertionError(
                    f"the piece {_describe(piece)} must be connected and non-exceptional"
                )
            records.append((piece, depth))
        tag, chosen, children = _step(adj, piece, k)
        trace.append((tag, chosen))
        for u in chosen:
            d |= 1 << u
        for child in reversed(children):
            stack.append((child, depth + 1))
    if check:
        _check_piece_sets(adj, k, records, trace)
    if d & ~root or d.bit_count() > root.bit_count() // (k + 1) or not _isolates(adj, root, d, k):
        raise AssertionError("construction broke its own guarantee; this is a bug")
    return d, trace, deepest


def _describe(piece: int) -> str:
    low = (piece & -piece).bit_length() - 1
    return f"of {piece.bit_count()} vertices from vertex {low}"


def _check_piece_sets(
    adj: Sequence[int], k: int, records: list[tuple[int, int]], trace: list[_Record]
) -> None:
    """Each piece's steps form a contiguous pre-order run; walking the trace
    backwards folds every finished run into its parent's, deepest first, and
    checks that each piece's set lies inside it, isolates it and keeps
    within floor(|piece|/(k+1))."""
    done: list[tuple[int, int]] = []  # (depth, set) of runs not yet folded
    for (piece, depth), (_, chosen) in zip(reversed(records), reversed(trace)):
        d = 0
        for u in chosen:
            d |= 1 << u
        while done and done[-1][0] > depth:
            d |= done.pop()[1]
        if (
            d & ~piece
            or d.bit_count() > piece.bit_count() // (k + 1)
            or not _isolates(adj, piece, d, k)
        ):
            raise AssertionError(
                f"the set built for the piece {_describe(piece)} must isolate it "
                "within floor(n/(k+1))"
            )
        done.append((depth, d))


def _step(adj: Sequence[int], piece: int, k: int) -> _Fired:
    """Fire the rule that applies to one piece."""
    if piece.bit_count() <= 2:
        if find_in_mask(adj, piece, k) is None:
            return BranchTag.BASE_SMALL, (), []
        # connected, non-exceptional, n <= 2 with a k-clique forces k = 1 on an edge
        _fact(k == 1 and piece.bit_count() == 2, "a small piece with a k-clique is an edge")
        return BranchTag.BASE_SMALL, ((piece & -piece).bit_length() - 1,), []

    clique = find_in_mask(adj, piece, k)
    if clique is None:
        return BranchTag.NO_CLIQUE, (), []

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
        return BranchTag.DOMINATING_VERTEX, (pivot,), []

    entries = _linkage(adj, piece, k, pivot)
    _fact(all(lk for _, _, lk in entries), "every residual component touches N(pivot)")

    exceptional = [entry for entry in entries if entry[1] is not NONE]
    if not exceptional:
        return BranchTag.NO_EXCEPTIONAL, (pivot,), [cm for cm, _, _ in entries]

    for _, _, lk in exceptional:
        if lk.bit_count() == 1:
            return _case_single_link(adj, piece, k, pivot, entries, lk.bit_length() - 1)
    return _case_multi_link(adj, piece, k, pivot, entries, exceptional[0])


def _excise(
    adj: Sequence[int],
    piece: int,
    pivot: int,
    xb: int,
    cut: int,
    entries: list[_Entry],
) -> tuple[int, list[int]]:
    """Drop x and the cut from the piece.  Returns the component holding the
    pivot and the general components that hang on x alone, in residual
    order, after checking that nothing else is left apart."""
    vb = 1 << pivot
    star_comps = component_masks(adj, piece & ~(xb | cut))
    gv = next(cm for cm in star_comps if cm & vb)
    _fact(((adj[pivot] & piece) | vb) & ~xb & ~gv == 0, "N[pivot] minus x stays in one piece")
    rest = [cm for cm in star_comps if not cm & vb]
    x_only = [cm for cm, kind, lk in entries if lk == xb and kind is NONE]
    _fact(
        sorted(rest) == sorted(x_only),
        "after the excision only the x-only general components remain apart",
    )
    return gv, x_only


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

    gv, children = _excise(adj, piece, pivot, xb, cut, entries)
    gv_kind = exception_kind(adj, gv, k)
    if gv_kind is K_CLIQUE:
        # x alone breaks it: the piece is exactly N[pivot] minus x
        nv_closed = (adj[pivot] & piece) | 1 << pivot
        _fact(gv == nv_closed & ~xb, "a complete pivot side is N[pivot] minus x")
    elif gv_kind is FIVE_CYCLE:
        direct |= _far(adj, gv, pivot)
    else:
        children = [gv] + children
    return BranchTag.CASE2, tuple(bits(direct)), children


def _case_multi_link(
    adj: Sequence[int],
    piece: int,
    k: int,
    pivot: int,
    entries: list[_Entry],
    picked: _Entry,
) -> _Fired:
    """Every exceptional residual component attaches to at least two
    neighbours of the pivot; excise the first one plus one attachment."""
    h_mask, h_kind, h_links = picked
    _fact(h_links.bit_count() >= 2, "the excised component has two attachments")

    xb = h_links & -h_links
    x = xb.bit_length() - 1
    _fact(
        all(kind is NONE for _, kind, lk in entries if lk == xb),
        "components hanging only on x are general here",
    )

    contact = adj[x] & h_mask
    _fact(contact != 0, "x is linked to the excised component")
    y = (contact & -contact).bit_length() - 1
    # a complete part is broken by y alone; a 5-cycle also needs a far vertex
    y2b = 0 if h_kind is K_CLIQUE else _far(adj, h_mask, y)
    d_prime = 1 << y | y2b

    gv, x_only = _excise(adj, piece, pivot, xb, h_mask, entries)
    gv_kind = exception_kind(adj, gv, k)
    if gv_kind is NONE:
        # Subcase 1: the pivot-side piece is pushed as-is
        return BranchTag.CASE1_SUB1, tuple(bits(d_prime)), [gv] + x_only
    if gv_kind is K_CLIQUE:
        return _pivot_side_clique(adj, piece, k, pivot, x, h_mask, h_kind, y, y2b, gv, x_only)
    return _pivot_side_cycle(adj, piece, k, pivot, h_mask, y, gv, x_only)


def _pivot_side_clique(
    adj: Sequence[int],
    piece: int,
    k: int,
    pivot: int,
    x: int,
    h_mask: int,
    h_kind: ExceptionKind,
    y: int,
    y2b: int,
    gv: int,
    x_only: list[int],
) -> _Fired:
    """The piece containing the pivot is itself a k-clique, so it equals
    N[pivot] minus x and the construction bottoms out in finite patterns."""
    n = piece.bit_count()
    vb = 1 << pivot
    xb = 1 << x
    _fact(gv == ((adj[pivot] & piece) | vb) & ~xb, "a complete pivot side is N[pivot] minus x")

    if h_kind is K_CLIQUE:
        shield = 1 << y
        d_pp = xb
    else:
        # k = 2, excised component is a 5-cycle: shield y, the chosen far
        # vertex and that vertex's two cycle neighbours
        shield = (1 << y) | y2b | (adj[(y2b.bit_length() - 1)] & h_mask)
        d_pp = xb | y2b

    leftover = ((xb | h_mask | gv) & ~(vb | xb | shield))
    c_y = find_in_mask(adj, leftover, k)

    if c_y is None:
        return BranchTag.CASE1_SUB2, tuple(bits(d_pp)), x_only

    cy_gv = c_y & gv
    cy_h = c_y & h_mask
    _fact(cy_gv != 0 and cy_h != 0, "a clique inside the leftover must straddle both sides")
    zb = cy_gv & -cy_gv
    z = zb.bit_length() - 1
    zone = gv | c_y  # within N[z]: z sees all of gv and all of c_y

    if x_only:
        gz_mask = piece & ~zone
        _fact(len(component_masks(adj, gz_mask)) == 1, "the remainder is connected")
        _fact(exception_kind(adj, gz_mask, k) is NONE, "the remainder is not exceptional")
        return BranchTag.CASE1_SUB2, (z,), [gz_mask]

    # No x-only pieces: the whole piece is gv + x + the excised component.
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
        d = (1 << y) | cy_h

    _fact(_isolates(adj, piece, d, k), "terminal pattern must isolate")
    return BranchTag.CASE1_SUB2, tuple(bits(d)), []


def _pivot_side_cycle(
    adj: Sequence[int],
    piece: int,
    k: int,
    pivot: int,
    h_mask: int,
    y: int,
    gv: int,
    x_only: list[int],
) -> _Fired:
    """k = 2 and the piece containing the pivot is a 5-cycle: cut out the
    three far cycle vertices and push what is left, unless what is left is
    itself a 5-cycle, which bottoms out in a two-vertex pattern."""
    _fact(k == 2, "a 5-cycle pivot side needs k = 2")
    vb = 1 << pivot

    around = adj[pivot] & gv
    _fact(around.bit_count() == 2, "the pivot has two cycle neighbours")
    v1b = around & -around
    v1 = v1b.bit_length() - 1
    v2b = (adj[v1] & gv) & ~vb
    _fact(v2b.bit_count() == 1, "the cycle continues past v1")
    v2 = v2b.bit_length() - 1
    v3b = (adj[v2] & gv) & ~v1b
    _fact(v3b.bit_count() == 1, "the cycle continues past v2")
    v3 = v3b.bit_length() - 1
    v4b = around ^ v1b
    _fact((adj[v3] & gv) == v2b | v4b, "the cycle closes")

    rest_mask = piece & ~(v2b | v3b | v4b)
    _fact(len(component_masks(adj, rest_mask)) == 1, "removing the far arc keeps one piece")

    if exception_kind(adj, rest_mask, k) is FIVE_CYCLE:
        # Only possible when the excised component is a single edge and
        # nothing hangs on x, leaving eight vertices in total.
        _fact(
            piece.bit_count() == 8 and h_mask.bit_count() == 2 and not x_only,
            "a 5-cycle remainder leaves eight vertices",
        )
        d = vb | v3b if adj[v3] >> y & 1 else vb | v1b
        _fact(_isolates(adj, piece, d, k), "terminal pattern must isolate")
        return BranchTag.CASE1_SUB3, tuple(bits(d)), []

    return BranchTag.CASE1_SUB3, (v3,), [rest_mask]
