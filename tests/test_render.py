import math
import random
import sys
from pathlib import Path

from circleops.circled import BLACK, White, parse_config, random_config, underlying
from circleops.render import (
    _BOX_SLACK,
    _inside,
    _relation,
    _segment_crossings,
    _Shape,
    clearance_violations,
    convex_hull,
    layout_config,
    render_svg,
)
from circleops.trees import LEAF, parse_tree

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import digests  # noqa: E402

# Six vertices, five circles: two nested on the left branch, three on the
# right branch where the outer pair encloses the same region.
FIVE_CIRCLES = (
    "({w4 {w5 (| (| |)) / (|) | |} / | | |}"
    " {w1 {w2 {w3 (| | |) / (| |) | |} / | | | |} / | | | |})"
)


# --- plane geometry ------------------------------------------------------------

SQUARE = ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0))


def test_convex_hull_drops_interior_and_collinear_points():
    pts = list(SQUARE) + [(2.0, 2.0), (2.0, 0.0), (4.0, 2.0)]
    assert convex_hull(pts) == SQUARE


def test_point_in_convex_is_strict():
    square = _Shape(SQUARE)
    assert _inside((2.0, 2.0), square)
    assert not _inside((5.0, 2.0), square)
    assert not _inside((4.0, 2.0), square)


def test_segment_polygon_crossing_counts():
    square = _Shape(SQUARE)
    assert _segment_crossings((-1.0, 2.0), (5.0, 2.0), square) == 2
    assert _segment_crossings((2.0, 2.0), (5.0, 2.0), square) == 1
    assert _segment_crossings((1.0, 1.0), (3.0, 3.0), square) == 0
    assert _segment_crossings((-1.0, 5.0), (5.0, 5.0), square) == 0


def test_polygon_relation_cases():
    square = _Shape(SQUARE)
    inner, far, shifted, diamond, tall, wide = map(_Shape, (
        ((1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)),
        ((10.0, 0.0), (14.0, 0.0), (14.0, 4.0), (10.0, 4.0)),
        ((2.0, 2.0), (6.0, 2.0), (6.0, 6.0), (2.0, 6.0)),
        ((2.0, -3.0), (7.0, 2.0), (2.0, 7.0), (-3.0, 2.0)),
        # tall and wide: crossing sides, and no vertex of either inside the other
        ((1.0, -2.0), (3.0, -2.0), (3.0, 6.0), (1.0, 6.0)),
        ((-2.0, 1.0), (6.0, 1.0), (6.0, 3.0), (-2.0, 3.0)),
    ))
    assert _relation(inner, square) == "nested_pq"
    assert _relation(square, inner) == "nested_qp"
    assert _relation(square, diamond) == "nested_pq"
    assert _relation(diamond, square) == "nested_qp"
    assert _relation(square, far) == "disjoint"
    assert _relation(square, shifted) == "crossing"
    assert _relation(tall, wide) == "crossing"
    assert _relation(wide, tall) == "crossing"


def test_near_boxes_are_decided_by_the_scan():
    # The diamonds' boxes share [1, 2] x [1, 2] but the diamonds do not meet.
    a = _Shape(((2.0, 0.0), (0.0, 2.0), (-2.0, 0.0), (0.0, -2.0)))
    b = _Shape(((3.0, 1.0), (5.0, 3.0), (3.0, 5.0), (1.0, 3.0)))
    assert _relation(a, b) == "disjoint"
    assert _relation(b, a) == "disjoint"
    square = _Shape(SQUARE)
    near = _Shape(tuple((x + 4.0 + _BOX_SLACK / 2, y) for x, y in SQUARE))
    touching = _Shape(tuple((x + 4.0, y) for x, y in SQUARE))
    assert _relation(square, near) == "disjoint"
    assert _relation(near, square) == "disjoint"
    assert _relation(square, touching) == "disjoint"


def test_polygons_with_fewer_than_three_points():
    # A point or a segment contains nothing, but can lie inside a polygon.
    square = _Shape(SQUARE)
    point, far_point = _Shape(((2.0, 2.0),)), _Shape(((9.0, 9.0),))
    assert _relation(point, square) == "nested_pq"
    assert _relation(square, point) == "nested_qp"
    assert _relation(far_point, square) == "disjoint"
    assert _relation(_Shape(((2.0, 2.0), (6.0, 2.0))), square) == "crossing"


# The scan-first relation, kept as the reference _relation must match.

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _strictly_inside(p, poly):
    if len(poly) < 3:
        return False
    for i in range(len(poly)):
        v, w = poly[i], poly[(i + 1) % len(poly)]
        length = math.hypot(w[0] - v[0], w[1] - v[1])
        if _cross(v, w, p) <= 1e-7 * max(length, 1.0):
            return False
    return True


def _sides_cross(p, q, r, s):
    d1, d2 = _cross(p, q, r), _cross(p, q, s)
    d3, d4 = _cross(r, s, p), _cross(r, s, q)
    eps = 1e-7
    return ((d1 > eps) != (d2 > eps) and (d1 < -eps) != (d2 < -eps)
            and (d3 > eps) != (d4 > eps) and (d3 < -eps) != (d4 < -eps))


def _scan_relation(p, q):
    for i in range(len(p)):
        for j in range(len(q)):
            if _sides_cross(p[i], p[(i + 1) % len(p)], q[j], q[(j + 1) % len(q)]):
                return "crossing"
    if all(_strictly_inside(v, q) for v in p):
        return "nested_pq"
    if all(_strictly_inside(v, p) for v in q):
        return "nested_qp"
    if any(_strictly_inside(v, q) for v in p) or any(
        _strictly_inside(v, p) for v in q
    ):
        return "crossing"
    return "disjoint"


def test_relation_matches_the_scan_on_the_seeded_drawings():
    pairs = 0
    for c in digests.render_configs():
        curves = layout_config(c).curves
        for i in range(len(curves)):
            for j in range(i + 1, len(curves)):
                p, q = curves[i].points, curves[j].points
                assert _relation(_Shape(p), _Shape(q)) == _scan_relation(p, q), str(c)
                pairs += 1
    assert pairs > 1000


# The all-corner construction, kept as the reference the curves must match:
# every region point (the anchor of an empty region) offset by all 16 corners.

def _all_corner_hull(pts):
    step = 2 * math.pi / 16
    angles = [(i + 0.5) * step for i in range(16)]
    return convex_hull([
        (x + 14.0 * math.cos(a), y + 14.0 * math.sin(a))
        for x, y in pts
        for a in angles
    ])


def _region_points(lay, cid):
    pts = [(lay.nodes[v].x, lay.nodes[v].y) for v in sorted(lay.regions[cid])]
    for child in lay.curves:
        if child.parent == cid:
            pts.extend(child.points)
    if pts:
        return pts
    e = next(e for e in lay.edges if e.crossings.count(cid) == 2)
    total = len(e.crossings) + 1
    lo = (e.crossings.index(cid) + 1) / total
    hi = (len(e.crossings) - list(reversed(e.crossings)).index(cid)) / total
    t = (lo + hi) / 2
    a, b = lay.nodes[e.src], lay.nodes[e.dst]
    return [(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))]


def _assert_curves_match_the_reference(c):
    lay = layout_config(c)
    for cid, curve in enumerate(lay.curves):
        assert curve.points == _all_corner_hull(_region_points(lay, cid)), str(c)
    return lay


def test_curves_match_the_all_corner_hull_on_the_seeded_drawings():
    curves = 0
    for c in digests.render_configs():
        curves += len(_assert_curves_match_the_reference(c).curves)
    assert curves > 1000


def test_one_point_region_keeps_every_corner():
    lay = _assert_curves_match_the_reference(parse_config("{w1 | / |}"))
    assert len(lay.curves[0].points) == 16


def test_two_point_regions():
    # A vertical pair, and a diagonal one: (| (|)) centres its root vertex
    # between a leaf and a vertex.
    for text in ["{w1 ((|)) / |}", "{w1 (| (|)) / | |}"]:
        lay = _assert_curves_match_the_reference(parse_config(text))
        assert len(lay.regions[0]) == 2
        assert clearance_violations(lay) == ()


def test_collinear_chain_drops_its_middle_vertices():
    lay = _assert_curves_match_the_reference(parse_config("{w1 ((((|)))) / |}"))
    pts = _region_points(lay, 0)
    assert len(pts) == 4 and len(convex_hull(pts)) == 2
    assert clearance_violations(lay) == ()


def test_six_whites_stacked_on_one_edge():
    text = "|"
    for label in range(6, 0, -1):
        text = f"{{w{label} | / {text}}}"
    lay = _assert_curves_match_the_reference(parse_config(text))
    assert len(lay.curves) == 6 and lay.regions == (frozenset(),) * 6
    assert clearance_violations(lay) == ()


# --- layout ---------------------------------------------------------------------

def test_layout_of_bare_edge():
    lay = layout_config(LEAF)
    assert [n.kind for n in lay.nodes] == ["root", "leaf"]
    assert len(lay.edges) == 1 and lay.curves == ()
    assert lay.nodes[0].x == lay.nodes[1].x
    assert lay.nodes[0].y < lay.nodes[1].y


def test_layout_centres_parent_over_children():
    lay = layout_config(parse_tree("(| |)"))
    vertex = next(n for n in lay.nodes if n.kind == "vertex")
    tips = [n for n in lay.nodes if n.kind == "leaf"]
    assert vertex.x == sum(t.x for t in tips) / 2


def test_identity_circle_on_corolla_draws_one_labelled_curve():
    lay = layout_config(parse_config("{w1 (| |) / | |}"))
    assert len(lay.curves) == 1
    curve = lay.curves[0]
    assert curve.kind == White(1) and curve.parent is None
    vertex = next(n for n in lay.nodes if n.kind == "vertex")
    assert _inside((vertex.x, vertex.y), _Shape(curve.points))
    assert clearance_violations(lay) == ()


def test_concentric_circles_on_bare_edge_nest():
    lay = layout_config(parse_config("{w1 {w2 | / |} / |}"))
    assert len(lay.curves) == 2
    outer, inner = lay.curves
    assert outer.parent is None and inner.parent == 0
    assert lay.regions == (frozenset(), frozenset())
    assert _relation(_Shape(inner.points), _Shape(outer.points)) == "nested_pq"
    # both wrap the middle of the lone edge, away from its endpoints
    a, b = lay.nodes
    mid = ((a.x + b.x) / 2, (a.y + b.y) / 2)
    for curve in lay.curves:
        assert _inside(mid, _Shape(curve.points))
    assert clearance_violations(lay) == ()


def test_edge_records_crossings_in_order():
    lay = layout_config(parse_config("{w1 {w2 | / |} / |}"))
    assert lay.edges[0].crossings == (0, 1, 1, 0)


def test_five_circle_example_lays_out_without_intersections():
    c = parse_config(FIVE_CIRCLES)
    assert str(underlying(c)) == "(((|) (| |)) ((| |) | |))"
    lay = layout_config(c)
    assert len(lay.curves) == 5
    roots = [i for i, k in enumerate(lay.curves) if k.parent is None]
    assert len(roots) == 2
    assert clearance_violations(lay) == ()


def test_clearance_on_every_small_configuration():
    from circleops.circled import enumerate_configs

    for text in ["|", "(|)", "(| |)"]:
        t = parse_tree(text)
        for k in (1, 2):
            for c in enumerate_configs(t, k):
                assert clearance_violations(layout_config(c)) == (), str(c)


def test_clearance_on_random_configurations():
    trees = [LEAF, parse_tree("(|)"), parse_tree("(| |)"),
             parse_tree("((|))"), parse_tree("((|) |)")]
    rng = random.Random(417)
    for i in range(150):
        c = random_config(rng, trees[i % len(trees)], 1 + i % 3)
        assert clearance_violations(layout_config(c)) == (), str(c)


# --- SVG ------------------------------------------------------------------------

def test_svg_is_deterministic_and_well_formed():
    svg = render_svg(parse_config(FIVE_CIRCLES))
    assert svg == render_svg(parse_config(FIVE_CIRCLES))
    assert svg.startswith('<?xml version="1.0"')
    assert svg.endswith("</svg>\n")
    assert svg.count("<path") == 5
    assert svg.count("stroke-dasharray") == 5
    assert svg.count("<text") == 5


def test_svg_black_circles_are_solid_and_unlabelled():
    c = parse_config("{w1 {b ((|) |) / | |} / | |}")
    lay = layout_config(c)
    assert [curve.kind for curve in lay.curves] == [White(1), BLACK]
    svg = render_svg(c)
    assert svg.count("<path") == 2
    assert svg.count("stroke-dasharray") == 1
    assert svg.count("<text") == 1
    assert ">1</text>" in svg


def test_svg_draws_all_edges_and_vertices():
    svg = render_svg(parse_tree("((|) |)"))
    assert svg.count("<line") == 4
    assert svg.count('fill="black"') == 2
