"""Deterministic SVG rendering of the polygon underlying a log datum.

Same datum and options in -> byte-identical SVG out: no timestamps, no
randomness, fixed attribute order.  Lattice y points up, SVG y points down,
so coordinates are flipped once here.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass

from .logdatum import LogDatum, polygon

_MARGIN = 1  # lattice units of padding around the bounding box
# The lattice-point grid draws one circle per point of the padded bounding
# box, so its size grows with the box's area; 10**5 points make an SVG of
# about 4 MB.
MAX_LATTICE_POINTS = 10**5


@dataclass(frozen=True)
class RenderSpec:
    scale: int = 40
    label_edges: bool = False
    show_lattice_points: bool = False

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")


def render_svg(S: LogDatum, spec: RenderSpec = RenderSpec()) -> str:
    verts = polygon(S)
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    min_x, max_x = min(xs) - _MARGIN, max(xs) + _MARGIN
    min_y, max_y = min(ys) - _MARGIN, max(ys) + _MARGIN
    if spec.show_lattice_points:
        count = (max_x - min_x + 1) * (max_y - min_y + 1)
        if count > MAX_LATTICE_POINTS:
            raise ValueError(
                f"the bounding box holds {count} lattice points; "
                f"at most {MAX_LATTICE_POINTS} can be drawn"
            )

    def px(pt: tuple[float, float]) -> tuple[float, float]:
        return ((pt[0] - min_x) * spec.scale, (max_y - pt[1]) * spec.scale)

    width = (max_x - min_x) * spec.scale
    height = (max_y - min_y) * spec.scale
    root = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(width),
            "height": str(height),
            "viewBox": f"0 0 {width} {height}",
        },
    )

    if spec.show_lattice_points:
        grid = ET.SubElement(root, "g", {"fill": "#bbbbbb"})
        for gx in range(min_x, max_x + 1):
            for gy in range(min_y, max_y + 1):
                cx, cy = px((gx, gy))
                ET.SubElement(
                    grid,
                    "circle",
                    {"cx": str(cx), "cy": str(cy), "r": str(spec.scale * 0.04)},
                )

    points = " ".join(f"{px(v)[0]},{px(v)[1]}" for v in verts)
    ET.SubElement(
        root,
        "polygon",
        {
            "points": points,
            "fill": "#dce8f5",
            "stroke": "#1f3f66",
            "stroke-width": str(spec.scale * 0.05),
        },
    )

    dots = ET.SubElement(root, "g", {"fill": "#1f3f66"})
    for v in verts:
        cx, cy = px(v)
        ET.SubElement(
            dots,
            "circle",
            {"cx": str(cx), "cy": str(cy), "r": str(spec.scale * 0.08)},
        )

    if spec.label_edges:
        labels = ET.SubElement(
            root,
            "g",
            {
                "font-family": "monospace",
                "font-size": str(spec.scale * 0.3),
                "fill": "#333333",
            },
        )
        for i, edge in enumerate(S.edges):
            start = verts[i]
            cx, cy = px((start[0] + edge.e[0] / 2, start[1] + edge.e[1] / 2))
            text = ET.SubElement(
                labels,
                "text",
                {"x": str(cx), "y": str(cy - spec.scale * 0.12)},
            )
            text.text = f"e{i + 1}={edge.e} nu={edge.nu}"

    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(
        root, encoding="unicode"
    )
