"""Static report emission: per-event hangar layout frames (SVG) and a
self-contained HTML report with cost breakdown, schedule tables, the frame
gallery, and a presence-interval timeline.

Coordinate convention: origin bottom-left; the open-front exit edge is the
max-Y side and is drawn at the top of each frame.
"""

from __future__ import annotations

import html
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .core import Instance, Kind, Solution, delays
from . import validator

COLOR_STATIC = "#3b6fb5"      # parked
COLOR_ARRIVING = "#3ba15f"    # rolls in at this frame
COLOR_DEPARTING = "#c9453b"   # rolls out at this frame
COLOR_HALO = "#9aa7b5"

SCALE = 8.0   # px per meter
MARGIN = 24.0


@dataclass(frozen=True)
class FrameSpec:
    time: float
    parked: tuple[tuple[str, tuple[float, float, float, float]], ...]
    arriving: tuple[str, ...]
    departing: tuple[str, ...]


def frame_times(solution: Solution) -> list[float]:
    """{0} plus every distinct movement-event time of accepted aircraft."""
    times = {0.0}
    for a in solution.assignments:
        if a.accept:
            times.add(round(a.roll_in, 9))
            times.add(round(a.roll_out, 9))
    return sorted(times)


def build_frames(instance: Instance, solution: Solution) -> list[FrameSpec]:
    by_id = solution.by_id()
    frames = []
    for t in frame_times(solution):
        parked = []
        arriving = []
        departing = []
        for spec in instance.all_aircraft():
            asg = by_id[spec.id]
            if not asg.accept:
                continue
            if asg.roll_in - 1e-9 <= t <= asg.roll_out + 1e-9:
                parked.append((spec.id, (asg.x, asg.y, spec.width, spec.length)))
                if abs(t - asg.roll_in) <= 1e-9 and spec.kind is Kind.FUTURE:
                    arriving.append(spec.id)
                if abs(t - asg.roll_out) <= 1e-9:
                    departing.append(spec.id)
        frames.append(FrameSpec(time=t, parked=tuple(parked),
                                arriving=tuple(arriving), departing=tuple(departing)))
    return frames


def _svg_y(y_m: float, height_m: float) -> float:
    return MARGIN + (height_m - y_m) * SCALE


def frame_svg(instance: Instance, frame: FrameSpec) -> str:
    h = instance.hangar
    width_px = 2 * MARGIN + h.hw * SCALE
    height_px = 2 * MARGIN + h.hl * SCALE
    buf = h.buffer

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px:.0f}" '
        f'height="{height_px:.0f}" viewBox="0 0 {width_px:.0f} {height_px:.0f}">',
        f'<rect x="0" y="0" width="{width_px:.0f}" height="{height_px:.0f}" fill="#ffffff"/>',
        # hangar walls; the open front (max Y) is dashed
        f'<rect x="{MARGIN:.1f}" y="{MARGIN:.1f}" width="{h.hw * SCALE:.1f}" '
        f'height="{h.hl * SCALE:.1f}" fill="#f4f6f8" stroke="#222222" stroke-width="2"/>',
        f'<line x1="{MARGIN:.1f}" y1="{MARGIN:.1f}" x2="{MARGIN + h.hw * SCALE:.1f}" '
        f'y2="{MARGIN:.1f}" stroke="#ffffff" stroke-width="3"/>',
        f'<line x1="{MARGIN:.1f}" y1="{MARGIN:.1f}" x2="{MARGIN + h.hw * SCALE:.1f}" '
        f'y2="{MARGIN:.1f}" stroke="#666666" stroke-width="2" stroke-dasharray="8 6"/>',
        f'<text x="{MARGIN + h.hw * SCALE / 2:.1f}" y="{MARGIN - 8:.1f}" '
        f'font-size="11" text-anchor="middle" fill="#666666">open front (exit)</text>',
        f'<text x="{MARGIN:.1f}" y="{height_px - 6:.1f}" font-size="12" '
        f'fill="#222222">t = {frame.time:.2f} h</text>',
    ]
    for aid, (x, y, w, l) in frame.parked:
        if aid in frame.arriving:
            color = COLOR_ARRIVING
        elif aid in frame.departing:
            color = COLOR_DEPARTING
        else:
            color = COLOR_STATIC
        hx = MARGIN + (x - buf) * SCALE
        hy = _svg_y(y + l + buf, h.hl)
        parts.append(
            f'<rect x="{hx:.1f}" y="{hy:.1f}" width="{(w + 2 * buf) * SCALE:.1f}" '
            f'height="{(l + 2 * buf) * SCALE:.1f}" fill="none" stroke="{COLOR_HALO}" '
            f'stroke-width="1" stroke-dasharray="4 3"/>')
        rx = MARGIN + x * SCALE
        ry = _svg_y(y + l, h.hl)
        parts.append(
            f'<rect x="{rx:.1f}" y="{ry:.1f}" width="{w * SCALE:.1f}" '
            f'height="{l * SCALE:.1f}" fill="{color}" fill-opacity="0.85" '
            f'stroke="#10233c" stroke-width="1"/>')
        parts.append(
            f'<text x="{rx + w * SCALE / 2:.1f}" y="{ry + l * SCALE / 2 + 4:.1f}" '
            f'font-size="12" text-anchor="middle" fill="#ffffff">{html.escape(aid)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def draw_frames(instance: Instance, solution: Solution) -> list[tuple[FrameSpec, str]]:
    """Every frame of a feasible plan, with its SVG."""
    return [(frame, frame_svg(instance, frame)) for frame in build_frames(instance, solution)]


def render_frames(checked: validator.ValidationReport,
                  drawn: Optional[list[tuple[FrameSpec, str]]], out_dir) -> list[Path]:
    """One SVG per frame; file names `frame_<k>_<time>.svg`.  ``checked`` is
    the plan's validation report and ``drawn`` its ``draw_frames``, None for
    an infeasible plan.  An infeasible plan raises ``validator.Infeasible``
    and writes nothing."""
    if not checked.feasible:
        raise validator.Infeasible(checked)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, (frame, svg) in enumerate(drawn):
        path = out_dir / f"frame_{k:03d}_{frame.time:.2f}.svg"
        path.write_text(svg, encoding="utf-8")
        paths.append(path)
    return paths


def timeline_svg(instance: Instance, solution: Solution) -> str:
    """Gantt-style presence intervals of accepted aircraft."""
    by_id = solution.by_id()
    accepted = [a for a in instance.all_aircraft() if by_id[a.id].accept]
    if not accepted:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="400" height="40">'
                '<text x="10" y="25" font-size="12">no accepted aircraft</text></svg>\n')
    t_end = max(by_id[a.id].roll_out for a in accepted)
    t_end = max(t_end, 1.0)
    width, row_h, label_w = 640.0, 22.0, 70.0
    height = 30.0 + row_h * len(accepted)
    sx = (width - label_w - 20.0) / t_end
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
             f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">']
    for i, spec in enumerate(accepted):
        asg = by_id[spec.id]
        y = 10.0 + i * row_h
        x0 = label_w + asg.roll_in * sx
        x1 = label_w + asg.roll_out * sx
        color = COLOR_STATIC if spec.kind is Kind.CURRENT else COLOR_ARRIVING
        parts.append(f'<text x="4" y="{y + 13:.1f}" font-size="11">{html.escape(spec.id)}</text>')
        parts.append(f'<rect x="{x0:.1f}" y="{y:.1f}" width="{max(x1 - x0, 1.0):.1f}" '
                     f'height="16" fill="{color}" fill-opacity="0.8"/>')
        parts.append(f'<text x="{x1 + 4:.1f}" y="{y + 13:.1f}" font-size="9" '
                     f'fill="#555555">{asg.roll_in:.1f}-{asg.roll_out:.1f}h</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_report(instance: Instance, solution: Solution,
                  checked: validator.ValidationReport,
                  drawn: Optional[list[tuple[FrameSpec, str]]], out_file) -> Path:
    """Single self-contained HTML report (inline SVG, no external resources).
    The cost table comes from ``checked``, the plan's validation report, and
    the frame gallery from ``drawn``, its ``draw_frames``; an infeasible plan
    gets the table but no gallery, and its ``drawn`` may be None."""
    cost = checked.cost
    by_id = solution.by_id()
    accepted = [(a, by_id[a.id]) for a in instance.all_aircraft() if by_id[a.id].accept]
    rejected = [a for a in instance.future if not by_id[a.id].accept]

    rows_acc = "\n".join(
        f"<tr><td>{html.escape(s.id)}</td><td>{s.kind.value}</td>"
        f"<td>({asg.x:.1f}, {asg.y:.1f})</td>"
        f"<td>{asg.roll_in:.2f}</td><td>{asg.roll_out:.2f}</td>"
        + "<td>{:.2f}</td><td>{:.2f}</td></tr>".format(*delays(s, asg.roll_in, asg.roll_out))
        for s, asg in accepted)
    rows_rej = "\n".join(
        f"<tr><td>{html.escape(s.id)}</td><td>{s.p_rej:.0f}</td></tr>"
        for s in rejected)

    gallery = []
    if checked.feasible:
        gallery = [f"<figure><figcaption>t = {frame.time:.2f} h</figcaption>{svg}</figure>"
                   for frame, svg in drawn]
    gallery_html = "\n".join(gallery) if gallery else "<p>(no layout frames: plan infeasible or empty)</p>"

    doc = f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Hangar plan report: {html.escape(solution.instance_label or instance.label)}</title>
<style>
body {{ font-family: sans-serif; margin: 24px; color: #1b2733; }}
table {{ border-collapse: collapse; margin: 12px 0; }}
td, th {{ border: 1px solid #b9c3cc; padding: 4px 10px; font-size: 13px; }}
th {{ background: #eef2f5; }}
figure {{ display: inline-block; margin: 8px; }}
figcaption {{ font-size: 12px; color: #555; }}
</style>
</head>
<body>
<h1>Hangar plan: {html.escape(solution.instance_label or instance.label)}</h1>
<p>Provenance: {solution.provenance.value}</p>
<h2>Cost breakdown</h2>
<table>
<tr><th>Rejection</th><th>Arrival delay</th><th>Departure delay</th><th>Positioning</th><th>Total</th></tr>
<tr><td>{cost.rejection:.3f}</td><td>{cost.arrival_delay:.3f}</td>
<td>{cost.departure_delay:.3f}</td><td>{cost.positioning:.3f}</td>
<td>{cost.total:.3f}</td></tr>
</table>
<h2>Accepted aircraft</h2>
<table>
<tr><th>id</th><th>kind</th><th>position</th><th>roll-in (h)</th><th>roll-out (h)</th>
<th>arrival delay (h)</th><th>departure delay (h)</th></tr>
{rows_acc}
</table>
<h2>Rejected requests</h2>
<table>
<tr><th>id</th><th>rejection penalty</th></tr>
{rows_rej}
</table>
<h2>Schedule timeline</h2>
{timeline_svg(instance, solution)}
<h2>Layout evolution</h2>
{gallery_html}
</body>
</html>
"""
    out_file = Path(out_file)
    out_file.parent.mkdir(parents=True, exist_ok=True)
    out_file.write_text(doc, encoding="utf-8")
    return out_file
