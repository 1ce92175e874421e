"""Minimal deterministic SVG bird's-eye-view plots of ground-truth vs detected
boxes in the camera x-z plane. Hand-rolled so byte-identical output is easy to
guarantee across platforms.
"""

from __future__ import annotations

from .evaluation import Detection, GroundTruth

_GT_STYLE = 'fill="none" stroke="#c62828" stroke-width="0.25"'
_DET_STYLE = 'fill="none" stroke="#1565c0" stroke-width="0.25" stroke-dasharray="0.8,0.5"'
_X_RANGE, _Z_RANGE = (-30.0, 30.0), (0.0, 70.0)  # m; synthetic objects lie in |x| <= 18, z <= 55


def _polygon(points, style: str) -> str:
    coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in points)
    return f'  <polygon points="{coords}" {style} />'


def bev_svg(gts: list[GroundTruth], dets: list[Detection]) -> str:
    """Render GT boxes (solid red) and detections (dashed blue) as an SVG
    string. The viewport is metric: x right, z up the page."""
    x0, x1 = _X_RANGE
    z0, z1 = _Z_RANGE
    width, height = x1 - x0, z1 - z0

    def to_page(x: float, z: float) -> tuple[float, float]:
        return x - x0, z1 - z  # flip so larger z is higher on the page

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}" '
        f'width="{width * 10:g}" height="{height * 10:g}">',
        f'  <rect x="0" y="0" width="{width:g}" height="{height:g}" fill="#fafafa" />',
    ]
    for gt in gts:
        lines.append(_polygon([to_page(x, z) for x, z in gt.box.bev_corners()], _GT_STYLE))
    for det in dets:
        lines.append(_polygon([to_page(x, z) for x, z in det.box.bev_corners()], _DET_STYLE))
    # legend
    lines.append(f'  <rect x="1" y="1" width="16" height="6" fill="#ffffff" stroke="#888888" stroke-width="0.1" />')
    lines.append(f'  <line x1="2" y1="3" x2="6" y2="3" stroke="#c62828" stroke-width="0.25" />')
    lines.append('  <text x="7" y="3.8" font-size="2">ground truth</text>')
    lines.append(f'  <line x1="2" y1="5.5" x2="6" y2="5.5" stroke="#1565c0" stroke-width="0.25" stroke-dasharray="0.8,0.5" />')
    lines.append('  <text x="7" y="6.3" font-size="2">detections</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
