"""Deterministic ASCII and SVG pictures of walks and Dyck paths.

Walks render on the unit grid with dimension 0 vertical and dimension 1
horizontal; types with more than two dimensions are rejected.  Dyck
paths render as timeline zig-zags (step index horizontal, height
vertical).  Output is byte-stable: fixed header, fixed number
formatting, no timestamps.

A picture's size grows with the area of its bounding box, not with the
length of the walk, so pictures over MAX_RENDER_POINTS grid points are
refused with GuardExceeded before any drawing.
"""

from typing import TYPE_CHECKING

from .oracle import GuardExceeded
from .walks import Walk, WalkType, prefix_heights, validate

if TYPE_CHECKING:  # only for annotations, so that render --type loads no bijections
    from .bijections import DyckPath

GRID_UNIT = 40
MARGIN = 30
EDGE_OFFSET = 0.1  # perpendicular shift, in grid units, per repeated traversal

# A grid point is one 60-byte circle of SVG.  On a 2-core Xeon guest the
# CLI draws a 500 x 500 box, at the guard, as 15 MiB of SVG in 0.16 s and
# 73 MiB of peak RSS, or as 2 MiB of ASCII in 0.06 s and 34 MiB; both
# grow with the number of grid points.
MAX_RENDER_POINTS = 250_000


def walk_vertices(walk: Walk, walk_type: WalkType) -> list:
    """Lattice points visited by the walk, starting at the origin."""
    if len(walk_type.dims) > 2:
        raise ValueError(
            f"type {walk_type} has {len(walk_type.dims)} dimensions; "
            "only walks with at most 2 can be drawn"
        )
    violation = validate(walk, walk_type)
    if violation is not None:
        raise ValueError(
            f"walk is invalid at step {violation.step_index}: {violation.reason}"
        )
    return [(x, y) for y, x in [(0, 0)] + prefix_heights(walk, 2)]


def _bounds(points: list) -> tuple:
    """(xmin, xmax, ymin, ymax) of the points and the baseline, within the guard."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points] + [0]  # keep the baseline in frame
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    columns, rows = xmax - xmin + 1, ymax - ymin + 1
    if columns * rows > MAX_RENDER_POINTS:
        raise GuardExceeded(
            f"the picture spans {columns} x {rows} = {columns * rows} grid points, "
            f"over the guard of {MAX_RENDER_POINTS}"
        )
    return xmin, xmax, ymin, ymax


def render_walk_ascii(walk: Walk, walk_type: WalkType) -> str:
    points = walk_vertices(walk, walk_type)
    xmin, xmax, ymin, ymax = _bounds(points)
    ncols = (xmax - xmin) * 4 + 1
    nrows = (ymax - ymin) * 2 + 1
    canvas = [[" "] * ncols for _ in range(nrows)]

    def cell(x: int, y: int) -> tuple:
        return (ymax - y) * 2, (x - xmin) * 4

    for x in range(xmin, xmax + 1):
        for y in range(ymin, ymax + 1):
            row, col = cell(x, y)
            canvas[row][col] = "."
    baseline_row, _ = cell(xmin, 0)
    for col in range(ncols):
        if canvas[baseline_row][col] == " ":
            canvas[baseline_row][col] = "="

    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        row1, col1 = cell(x1, y1)
        row2, col2 = cell(x2, y2)
        if row1 == row2:  # horizontal step
            left = min(col1, col2)
            for col in (left + 1, left + 2, left + 3):
                canvas[row1][col] = "-"
            canvas[row1][col2 - 1 if col2 > col1 else col2 + 1] = ">" if col2 > col1 else "<"
        else:  # vertical step
            mid = (row1 + row2) // 2
            canvas[mid][col1] = "^" if row2 < row1 else "v"

    for point in points:
        row, col = cell(*point)
        canvas[row][col] = "+"
    end_row, end_col = cell(*points[-1])
    start_row, start_col = cell(*points[0])
    canvas[end_row][end_col] = "*"
    canvas[start_row][start_col] = "o"
    return "\n".join("".join(row).rstrip() for row in canvas) + "\n"


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _svg_picture(points: list, dots: tuple = ()) -> str:
    """An SVG of arrows along the points over their grid and baseline.

    The dots are lattice points marked with a filled circle.
    """
    xmin, xmax, ymin, ymax = _bounds(points)
    width = (xmax - xmin) * GRID_UNIT + 2 * MARGIN
    height = (ymax - ymin) * GRID_UNIT + 2 * MARGIN

    def px(x: float) -> float:
        return MARGIN + (x - xmin) * GRID_UNIT

    def py(y: float) -> float:
        return MARGIN + (ymax - y) * GRID_UNIT

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<defs>",
        '<marker id="arrow" viewBox="0 0 8 8" refX="7" refY="4" markerWidth="6" '
        'markerHeight="6" orient="auto-start-reverse">',
        '<path d="M0,0 L8,4 L0,8 z" fill="#1f4e9c"/>',
        "</marker>",
        "</defs>",
    ]
    for x in range(xmin, xmax + 1):
        for y in range(ymin, ymax + 1):
            lines.append(
                f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="1.50" fill="#b9b9b9"/>'
            )
    # Double dashed baseline along height 0.
    for shift in (-2.0, 2.0):
        lines.append(
            f'<line x1="{_fmt(px(xmin) - 10)}" y1="{_fmt(py(0) + shift)}" '
            f'x2="{_fmt(px(xmax) + 10)}" y2="{_fmt(py(0) + shift)}" '
            'stroke="#444444" stroke-width="1.20" stroke-dasharray="6 4"/>'
        )
    # Repeated traversals of one unit edge are shifted sideways.
    seen = {}
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        edge = ((x1, y1), (x2, y2)) if (x1, y1) <= (x2, y2) else ((x2, y2), (x1, y1))
        count = seen.get(edge, 0)
        seen[edge] = count + 1
        dx, dy = x2 - x1, y2 - y1
        ox, oy = -dy * EDGE_OFFSET * count, dx * EDGE_OFFSET * count
        lines.append(
            f'<line x1="{_fmt(px(x1 + ox))}" y1="{_fmt(py(y1 + oy))}" '
            f'x2="{_fmt(px(x2 + ox))}" y2="{_fmt(py(y2 + oy))}" '
            'stroke="#1f4e9c" stroke-width="2.00" marker-end="url(#arrow)"/>'
        )
    for x, y in dots:
        lines.append(
            f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3.00" fill="#1f4e9c"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_walk_svg(walk: Walk, walk_type: WalkType) -> str:
    return _svg_picture(walk_vertices(walk, walk_type), dots=((0, 0),))


def render_dyck_ascii(path: "DyckPath") -> str:
    if path.length == 0:
        return "(empty path)\n"
    heights = [0] + path.heights()
    top = _bounds(list(enumerate(heights)))[3]
    rows = []
    for level in range(top, 0, -1):
        # A step between heights level - 1 and level draws on this row.
        row = ""
        for start, end in zip(heights, heights[1:]):
            row += ("/" if end > start else "\\") if max(start, end) == level else " "
        rows.append(row.rstrip())
    rows.append("-" * path.length)
    return "\n".join(rows) + "\n"


def render_dyck_svg(path: "DyckPath") -> str:
    return _svg_picture(list(enumerate([0] + path.heights())))
