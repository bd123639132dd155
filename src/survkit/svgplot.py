"""Hand-rolled SVG line charts: no external assets, byte-deterministic."""

from __future__ import annotations

PALETTE = ["#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#d68910", "#2c3e50"]
WIDTH, HEIGHT = 720, 480


def _fmt(v):
    return f"{v:.2f}"


def _text(s):
    """`s` as XML character data."""
    return str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def svg_line_chart(series, title=""):
    """Render labeled (xs, ys) series as a WIDTH x HEIGHT SVG of S(t) on t.

    series: list of (label, xs, ys). Axes cover the data range (y forced to
    include [0, 1] for survival curves when within bounds).
    """
    margin_l, margin_r, margin_t, margin_b = 60, 150, 40, 50
    plot_w = WIDTH - margin_l - margin_r
    plot_h = HEIGHT - margin_t - margin_b

    all_x = [float(x) for _, xs, _ in series for x in xs]
    all_y = [float(y) for _, _, ys in series for y in ys]
    if not all_x:
        raise ValueError("nothing to plot")
    x_min, x_max = min(all_x), max(all_x)
    y_min, y_max = min(0.0, min(all_y)), max(1.0, max(all_y))
    if x_max == x_min:
        x_max = x_min + 1.0

    def sx(x):
        return margin_l + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y):
        return margin_t + (y_max - y) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_text(title)}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{_fmt(margin_l)}" y1="{_fmt(margin_t)}" x2="{_fmt(margin_l)}" '
        f'y2="{_fmt(margin_t + plot_h)}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_fmt(margin_l)}" y1="{_fmt(margin_t + plot_h)}" '
        f'x2="{_fmt(margin_l + plot_w)}" y2="{_fmt(margin_t + plot_h)}" stroke="black"/>'
    )
    for i in range(5):
        xv = x_min + (x_max - x_min) * i / 4
        yv = y_min + (y_max - y_min) * i / 4
        parts.append(
            f'<text x="{_fmt(sx(xv))}" y="{_fmt(margin_t + plot_h + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.1f}</text>'
        )
        parts.append(
            f'<text x="{_fmt(margin_l - 8)}" y="{_fmt(sy(yv) + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.2f}</text>'
        )
    parts.append(
        f'<text x="{_fmt(margin_l + plot_w / 2)}" y="{_fmt(HEIGHT - 10)}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">t</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt(margin_t + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_fmt(margin_t + plot_h / 2)})">S(t)</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(sx(float(x)))},{_fmt(sy(float(y)))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = margin_t + 16 * i
        parts.append(
            f'<line x1="{_fmt(margin_l + plot_w + 10)}" y1="{_fmt(ly)}" '
            f'x2="{_fmt(margin_l + plot_w + 30)}" y2="{_fmt(ly)}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(margin_l + plot_w + 35)}" y="{_fmt(ly + 4)}" '
            f'font-family="sans-serif" font-size="11">{_text(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
