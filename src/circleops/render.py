"""Deterministic SVG drawings of circled planar trees.

The layout is a tidy layered drawing: the root edge enters from below, every
vertex sits one layer above its parent, leaf tips and childless vertices get
consecutive horizontal slots, and an inner vertex is centred over its
children.  Each circle is drawn as the convex hull of its region (the
positions of the vertices it encloses plus the curves of the circles directly
inside it) offset outwards by a fixed margin, so nested circles are nested
curves by construction.  The offset hull is computed in three steps: hull the
region, offset each hull corner by the margin corners in its normal cone, and
hull those candidates.  White circles are dashed and labelled, black circles
are solid.

Aesthetics are secondary to determinism: the same term always produces
byte-identical SVG.  ``clearance_violations`` checks the drawing
geometrically, curve against curve and curve against edge, against the
combinatorial nesting structure of the term.  It prepares each curve's sides
and bounding box once, then decides the relation of two curves in three
steps: nested when every vertex of one is strictly inside the other,
disjoint when their boxes are apart, and otherwise by scanning every pair of
sides for a crossing.  An edge whose box is apart from a curve's crosses it
nowhere and has both endpoints outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circled import Black, White
from .trees import Leaf, Node


# Geometry.  Deeply nested circles grow by one margin per level, so very deep
# nestings can outgrow a slot or a layer.
_SLOT_WIDTH = 100.0
_LAYER_HEIGHT = 80.0
_CROSSING_STRETCH = 0.5
_MARGIN = 14.0
_CORNER_SAMPLES = 16
_STEP = 2 * math.pi / _CORNER_SAMPLES
# The margin offsets, at half-step angles: they keep hull corners off the
# vertical edge lines, so curve/edge crossings stay transversal.
_CORNERS = tuple(
    (_MARGIN * math.cos((i + 0.5) * _STEP), _MARGIN * math.sin((i + 0.5) * _STEP))
    for i in range(_CORNER_SAMPLES)
)
_PAD = 30.0
_STROKE_WIDTH = 1.5
_VERTEX_RADIUS = 3.0
_FONT_SIZE = 12.0


@dataclass(frozen=True)
class LayoutNode:
    """A drawn point of the tree: the root tip, a vertex, or a leaf tip."""

    x: float
    y: float
    kind: str


@dataclass(frozen=True)
class LayoutEdge:
    """An edge between two node ids, with the circles crossing it in order."""

    src: int
    dst: int
    crossings: tuple


@dataclass(frozen=True)
class CircleCurve:
    """A closed convex curve for one circle of the term."""

    kind: White | Black
    points: tuple
    parent: int | None


@dataclass(frozen=True)
class Layout:
    nodes: tuple
    edges: tuple
    curves: tuple
    regions: tuple


class _Edge:
    __slots__ = ("src", "dst", "crossings")

    def __init__(self, src: int):
        self.src = src
        self.dst = None
        self.crossings = []


def layout_config(c) -> Layout:
    """Lay out a circled tree; node 0 is the root tip below the root edge."""
    kinds = ["root"]
    ys = [0.0]
    children: dict[int, list[int]] = {0: []}
    edges: list[_Edge] = []
    circles: list[dict] = []

    def new_node(kind: str, edge: _Edge) -> int:
        # An edge is stretched by its crossing load, so stacked circles on
        # one edge always have room for their growing curve radii.
        nid = len(kinds)
        kinds.append(kind)
        ys.append(
            ys[edge.src]
            + _LAYER_HEIGHT * (1 + _CROSSING_STRETCH * len(edge.crossings))
        )
        children[nid] = []
        children[edge.src].append(nid)
        edge.dst = nid
        return nid

    def walk(term, edge: _Edge, stack):
        if isinstance(term, Leaf):
            if stack:
                cid, grafts = stack[-1]
                edge.crossings.append(cid)
                walk(next(grafts), edge, stack[:-1])
            else:
                new_node("leaf", edge)
        elif isinstance(term, Node):
            nid = new_node("vertex", edge)
            for cid, _ in stack:
                circles[cid]["vertices"].add(nid)
            for child in term.children:
                e = _Edge(nid)
                edges.append(e)
                walk(child, e, stack)
        else:
            cid = len(circles)
            circles.append({
                "kind": term.kind,
                "parent": stack[-1][0] if stack else None,
                "vertices": set(),
            })
            edge.crossings.append(cid)
            walk(term.content, edge, stack + ((cid, iter(term.grafts)),))

    root_edge = _Edge(0)
    edges.append(root_edge)
    walk(c, root_edge, ())

    # Tidy x positions: DFS slots for childless nodes, means above them.
    xs = [0.0] * len(kinds)
    slot = [0]

    def place(nid: int):
        if not children[nid]:
            xs[nid] = slot[0] * _SLOT_WIDTH
            slot[0] += 1
        else:
            for child in children[nid]:
                place(child)
            xs[nid] = sum(xs[ch] for ch in children[nid]) / len(children[nid])

    place(root_edge.dst)
    xs[0] = xs[root_edge.dst]

    nodes = tuple(
        LayoutNode(xs[n], ys[n], kinds[n]) for n in range(len(kinds))
    )

    def anchor(cid: int):
        # A circle around a bare edge segment: centre it between its two
        # crossing marks on that edge.
        for e in edges:
            if e.crossings.count(cid) == 2:
                total = len(e.crossings) + 1
                lo = (e.crossings.index(cid) + 1) / total
                hi = (len(e.crossings) - list(reversed(e.crossings)).index(cid)) / total
                t = (lo + hi) / 2
                a, b = nodes[e.src], nodes[e.dst]
                return (a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        raise ValueError(f"circle {cid} has no region to anchor a curve on")

    # Circles are numbered in preorder, so a circle's children come after it
    # and their curves are built, from the last circle back, before its own.
    region_points = [
        [(nodes[v].x, nodes[v].y) for v in sorted(info["vertices"])]
        for info in circles
    ]
    curve_points = [()] * len(circles)
    for cid in reversed(range(len(circles))):
        curve_points[cid] = _offset_hull(region_points[cid] or [anchor(cid)])
        parent = circles[cid]["parent"]
        if parent is not None:
            region_points[parent].extend(curve_points[cid])

    curves = tuple(
        CircleCurve(info["kind"], curve_points[cid], info["parent"])
        for cid, info in enumerate(circles)
    )
    regions = tuple(frozenset(info["vertices"]) for info in circles)
    layout_edges = tuple(
        LayoutEdge(e.src, e.dst, tuple(e.crossings)) for e in edges
    )
    return Layout(nodes, layout_edges, curves, regions)


# --- plane geometry ----------------------------------------------------------------

def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


_EPS = 1e-7
_HULL_EPS = 1e-6


def convex_hull(points) -> tuple:
    """Counterclockwise hull without the repeated endpoint (monotone chain).

    Near-collinear corners are dropped so the result has no micro-edges.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= _HULL_EPS:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= _HULL_EPS:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def _offset_hull(pts) -> tuple:
    """The hull of pts offset by every margin corner, from few candidates.

    That hull is the Minkowski sum of the hull of pts and the corner polygon,
    and p + s is one of its vertices only where the normal cones of p and s
    overlap.  So each hull vertex p of pts is offset only by the corners
    whose angle lies in p's cone, between the outward normals of its two
    sides, widened by one sample step on each side: with the bare cones,
    convex_hull drops other near-collinear corners on some drawings.  A hull
    of one or two points keeps every corner.
    """
    hull = convex_hull(pts)
    n = len(hull)
    if n <= 2:
        return convex_hull(
            [(x + ox, y + oy) for x, y in hull for ox, oy in _CORNERS]
        )
    # normals[j] is the angle of the outward normal of the side into hull[j],
    # in sample steps, so that corner i lies at i.
    normals = []
    for j in range(n):
        (x, y), (wx, wy) = hull[j - 1], hull[j]
        normals.append(math.atan2(x - wx, wy - y) / _STEP - 0.5)
    cands = []
    for j in range(n):
        lo = normals[j]
        hi = lo + (normals[(j + 1) % n] - lo) % _CORNER_SAMPLES
        x, y = hull[j]
        for i in range(math.ceil(lo) - 1, math.floor(hi) + 2):
            ox, oy = _CORNERS[i % _CORNER_SAMPLES]
            cands.append((x + ox, y + oy))
    return convex_hull(cands)


# Shapes whose boxes are more than _BOX_SLACK apart are disjoint, and an edge
# whose box is that far from a curve's crosses it nowhere and has both ends
# outside it.  In exact arithmetic any gap would do: two segments can cross,
# and a point can lie inside a polygon, only where their boxes meet.  In
# floats a ``_cross`` of points within D of each other is off by at most about
# 2**-50 * D**2, below 1e-9 for the drawings layout_config makes (they span
# under a thousand units at six white circles), so far below _EPS; as a
# distance, each value is exact for its points moved by about 2**-52 * D,
# under 1e-12 units.  One unit, a hundredth of a slot, is some twelve orders
# of magnitude more room than that.
_BOX_SLACK = 1.0


class _Shape:
    """A polygon prepared for the clearance tests, once per curve.

    ``sides`` holds (x, y, dx, dy, tol) per side: its start, its direction and
    the margin by which a point must lie to its left to count as strictly
    inside.  Every test evaluates ``_cross`` as dx * (py - y) - dy * (px - x),
    the same operations in the same order.  ``box`` is (min x, min y, max x,
    max y), or None for no points.
    """

    __slots__ = ("points", "sides", "box")

    def __init__(self, points):
        self.points = points
        sides = []
        for i in range(len(points)):
            (x, y), (wx, wy) = points[i], points[(i + 1) % len(points)]
            dx, dy = wx - x, wy - y
            sides.append((x, y, dx, dy, _EPS * max(math.hypot(dx, dy), 1.0)))
        self.sides = tuple(sides)
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        self.box = (min(xs), min(ys), max(xs), max(ys)) if points else None


def _apart(box, other) -> bool:
    return (
        box[2] + _BOX_SLACK < other[0]
        or other[2] + _BOX_SLACK < box[0]
        or box[3] + _BOX_SLACK < other[1]
        or other[3] + _BOX_SLACK < box[1]
    )


def _inside(p, shape: _Shape) -> bool:
    """Strict interior test for a counterclockwise convex polygon."""
    # A shape of fewer than three points contains nothing.
    if len(shape.points) < 3:
        return False
    px, py = p
    for x, y, dx, dy, tol in shape.sides:
        if dx * (py - y) - dy * (px - x) <= tol:
            return False
    return True


def _segments_cross(p, q, r, s) -> bool:
    # Proper crossing only: each segment separates the other's endpoints.
    d1 = _cross(p, q, r)
    d2 = _cross(p, q, s)
    d3 = _cross(r, s, p)
    d4 = _cross(r, s, q)
    return (
        (d1 > _EPS) != (d2 > _EPS)
        and (d1 < -_EPS) != (d2 < -_EPS)
        and (d3 > _EPS) != (d4 > _EPS)
        and (d3 < -_EPS) != (d4 < -_EPS)
    )


def _segment_crossings(a, b, shape: _Shape) -> int:
    """Transversal crossings of segment ab with a convex polygon boundary.

    Clips the segment against the polygon's half-planes; the crossing count
    is how many ends of the clipped parameter interval are interior to the
    segment.  Vertex grazings do not count as crossings.
    """
    t0, t1 = 0.0, 1.0
    for x, y, dx, dy, _ in shape.sides:
        f0 = dx * (a[1] - y) - dy * (a[0] - x)
        f1 = dx * (b[1] - y) - dy * (b[0] - x)
        if f0 < 0 and f1 < 0:
            return 0
        if f0 < 0:
            t0 = max(t0, f0 / (f0 - f1))
        elif f1 < 0:
            t1 = min(t1, f0 / (f0 - f1))
    if t0 >= t1 - 1e-9:
        return 0
    return (t0 > 1e-9) + (t1 < 1 - 1e-9)


def _relation(p: _Shape, q: _Shape) -> str:
    """'crossing', 'nested_pq' (p inside q), 'nested_qp', or 'disjoint'."""
    # Containment first.  When every vertex of p is strictly inside q, each
    # clears every side of q by more than _EPS, in the very _cross values
    # _segments_cross compares with _EPS, so no pair of sides counts as a
    # crossing and the scan would also answer nested_pq (and the same for q).
    if all(_inside(v, q) for v in p.points):
        return "nested_pq"
    if all(_inside(v, p) for v in q.points):
        return "nested_qp"
    if _apart(p.box, q.box):
        return "disjoint"
    # The scan decides what is left: neither curve inside the other, and
    # boxes within _BOX_SLACK of each other.
    pts, qts = p.points, q.points
    for i in range(len(pts)):
        for j in range(len(qts)):
            if _segments_cross(
                pts[i], pts[(i + 1) % len(pts)], qts[j], qts[(j + 1) % len(qts)]
            ):
                return "crossing"
    if any(_inside(v, q) for v in pts) or any(_inside(v, p) for v in qts):
        return "crossing"
    return "disjoint"


def _ancestors(curves, cid: int) -> set:
    out = set()
    parent = curves[cid].parent
    while parent is not None:
        out.add(parent)
        parent = curves[parent].parent
    return out


def clearance_violations(layout: Layout) -> tuple:
    """Geometric defects of a drawing, as human-readable strings.

    Checks that every pair of curves is nested or disjoint exactly as the
    term nests the circles, and that every edge meets every curve in exactly
    the crossings recorded during layout, with its endpoints on the correct
    sides.  An empty result certifies an intersection-free drawing.
    """
    out = []
    curves = layout.curves
    shapes = [_Shape(curve.points) for curve in curves]
    ancestors = [_ancestors(curves, cid) for cid in range(len(curves))]
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            rel = _relation(shapes[i], shapes[j])
            if i in ancestors[j]:
                want = "nested_qp"
            elif j in ancestors[i]:
                want = "nested_pq"
            else:
                want = "disjoint"
            if rel != want:
                out.append(f"curves {i} and {j}: expected {want}, got {rel}")
    for e in layout.edges:
        a = (layout.nodes[e.src].x, layout.nodes[e.src].y)
        b = (layout.nodes[e.dst].x, layout.nodes[e.dst].y)
        box = (min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1]))
        for cid, shape in enumerate(shapes):
            far = _apart(box, shape.box)
            for nid, p in ((e.src, a), (e.dst, b)):
                want_in = nid in layout.regions[cid]
                if (not far and _inside(p, shape)) != want_in:
                    side = "inside" if want_in else "outside"
                    out.append(
                        f"node {nid} should be {side} curve {cid}"
                    )
            want = e.crossings.count(cid)
            got = 0 if far else _segment_crossings(a, b, shape)
            if got != want:
                out.append(
                    f"edge {e.src}->{e.dst} crosses curve {cid}"
                    f" {got} times, expected {want}"
                )
    return tuple(out)


# --- SVG ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(c) -> str:
    """Render a circled tree to a standalone SVG document."""
    return render_layout(layout_config(c))


def render_layout(layout: Layout) -> str:
    pts = [(n.x, n.y) for n in layout.nodes]
    for curve in layout.curves:
        pts.extend(curve.points)
    min_x = min(x for x, _ in pts)
    max_x = max(x for x, _ in pts)
    min_y = min(y for _, y in pts)
    max_y = max(y for _, y in pts)
    width = (max_x - min_x) + 2 * _PAD
    height = (max_y - min_y) + 2 * _PAD

    def at(p):
        # Flip: layout y grows upward, SVG y grows downward.
        return (p[0] - min_x + _PAD, (max_y - p[1]) + _PAD)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}"'
        f' height="{_fmt(height)}"'
        f' viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<g stroke="black" stroke-width="{_fmt(_STROKE_WIDTH)}" fill="none">',
    ]
    for e in layout.edges:
        (x1, y1) = at((layout.nodes[e.src].x, layout.nodes[e.src].y))
        (x2, y2) = at((layout.nodes[e.dst].x, layout.nodes[e.dst].y))
        lines.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}"'
            f' x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
        )
    for n in layout.nodes:
        if n.kind == "vertex":
            (cx, cy) = at((n.x, n.y))
            lines.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}"'
                f' r="{_fmt(_VERTEX_RADIUS)}" fill="black"/>'
            )
    for curve in layout.curves:
        path = " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in map(at, curve.points))
        dash = ' stroke-dasharray="6 4"' if isinstance(curve.kind, White) else ""
        lines.append(f'<path d="M {path} Z"{dash}/>')
        if isinstance(curve.kind, White):
            top = max(curve.points, key=lambda p: (p[1], -p[0]))
            (tx, ty) = at(top)
            lines.append(
                f'<text x="{_fmt(tx)}" y="{_fmt(ty - 6)}" fill="black"'
                f' stroke="none" font-family="monospace"'
                f' font-size="{_fmt(_FONT_SIZE)}"'
                f' text-anchor="middle">{curve.kind.label}</text>'
            )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
