"""repro.observability.dashboard — the ``repro top`` live text dashboard.

Renders a :class:`~repro.observability.serving.HealthSnapshot` document
(live object or previously exported JSON) into a fixed-width ANSI
terminal dashboard: SLO policy status with fast/slow burn rates,
sketch-backed latency quantiles, throughput, recommendation mix,
resource gauges (RSS + per-component live bytes), kernel counters, and
cache hit rates.

Everything here is plain string formatting: no curses, no third-party
TUI.  The refresh loop simply re-prints the dashboard behind an ANSI
clear (``ESC[2J ESC[H``), which degrades gracefully when piped to a
file (``--once`` in CI produces a clean single frame).
"""

from __future__ import annotations

import json
import pathlib

#: ANSI clear-screen + cursor-home prefix used by the refresh loops.
ANSI_CLEAR = "\x1b[2J\x1b[H"

_RESET = "\x1b[0m"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_RED = "\x1b[31m"
_GREEN = "\x1b[32m"
_YELLOW = "\x1b[33m"


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{_RESET}" if color else text


def human_bytes(n) -> str:
    """``1536`` -> ``'1.5 KiB'`` (fixed 4-significant rendering)."""
    n = float(n or 0)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(n)} B"
            return f"{n:.1f} {unit}"
        n /= 1024.0
    return f"{n:.1f} TiB"  # pragma: no cover - unreachable


def _fmt_ms(seconds) -> str:
    if seconds is None:
        return "-"
    return f"{float(seconds) * 1000.0:.1f}ms"


def _bar(fraction: float, width: int = 20) -> str:
    """A ``[#####-----]`` gauge for a 0..1 fraction (clamped)."""
    fraction = min(1.0, max(0.0, float(fraction)))
    filled = int(round(fraction * width))
    return "#" * filled + "-" * (width - filled)


def load_snapshot(path) -> dict:
    """Read a health-snapshot JSON document written by ``repro monitor``."""
    path = pathlib.Path(path)
    document = json.loads(path.read_text())
    if not isinstance(document, dict):
        raise ValueError(f"{path} does not contain a health snapshot")
    return document


def render_top(snapshot: dict, *, color: bool = False, width: int = 78) -> str:
    """Render one dashboard frame from a health-snapshot ``dict``.

    Accepts both a live ``HealthSnapshot.as_dict()`` and a re-loaded
    export; every section degrades to a placeholder when its data is
    missing, so old snapshots (pre-SLO schema) still render.
    """
    lines: list[str] = []
    rule = "=" * width
    thin = "-" * width

    build = snapshot.get("build") or {}
    head = (
        f"repro top — v{build.get('version', '?')}"
        f" @ {build.get('git_sha', 'unknown')}"
    )
    stamp = snapshot.get("generated_at", "-")
    pad = max(1, width - len(head) - len(stamp))
    lines.append(_paint(head, _BOLD, color) + " " * pad + _paint(stamp, _DIM, color))
    lines.append(rule)

    # -- throughput / latency -------------------------------------------
    uptime = float(snapshot.get("uptime_s") or 0.0)
    n_requests = int(snapshot.get("n_requests") or 0)
    n_series = int(snapshot.get("n_series") or 0)
    rps = n_requests / uptime if uptime > 0 else 0.0
    sps = n_series / uptime if uptime > 0 else 0.0
    lines.append(
        f"uptime {uptime:8.1f}s   requests {n_requests:6d} ({rps:6.1f}/s)"
        f"   series {n_series:6d} ({sps:6.1f}/s)"
    )
    latency = snapshot.get("latency") or {}
    # Older exports carried the lifetime quantiles as ``sketch_p50`` /
    # ``sketch_p99`` beside rolling-window ones; today ``p50``/``p99``
    # are the lifetime sketch.
    lines.append(
        "request latency   "
        f"p50 {_fmt_ms(latency.get('sketch_p50', latency.get('p50'))):>9}  "
        f"p95 {_fmt_ms(latency.get('p95')):>9}  "
        f"p99 {_fmt_ms(latency.get('sketch_p99', latency.get('p99'))):>9}  "
        f"max {_fmt_ms(latency.get('max')):>9}"
    )
    lines.append(thin)

    # -- SLO policies ---------------------------------------------------
    slo = snapshot.get("slo")
    lines.append(_paint("SLO", _BOLD, color))
    if not slo:
        lines.append("  (slo tracking disabled)")
    else:
        lines.append(
            f"  {'policy':<14} {'objective':<34} {'burn f/s':>12} "
            f"{'budget':>7} {'state':>6}"
        )
        for policy in slo.get("policies", ()):
            alerting = bool(policy.get("alerting"))
            state = "ALERT" if alerting else "ok"
            state = _paint(
                state, _RED if alerting else _GREEN, color
            )
            remaining = policy.get("budget_remaining")
            lines.append(
                f"  {policy.get('policy', '?'):<14} "
                f"{policy.get('objective', '')[:34]:<34} "
                f"{float(policy.get('fast_burn') or 0.0):5.1f}/"
                f"{float(policy.get('slow_burn') or 0.0):5.1f} "
                f"{'' if remaining is None else format(float(remaining), '6.1%'):>7} "
                f"{state:>6}"
            )
        n_alerts = int(slo.get("n_alerts") or 0)
        sketch = slo.get("latency_sketch") or {}
        lines.append(
            f"  events {int(slo.get('n_events') or 0):7d}   "
            f"alerts fired {n_alerts:4d}   "
            f"per-series p50 {_fmt_ms(sketch.get('p50'))} / "
            f"p99 {_fmt_ms(sketch.get('p99'))}"
        )
        slices = slo.get("slices") or {}
        worst = sorted(
            slices.items(),
            key=lambda kv: -sum((kv[1].get("bad") or {}).values()),
        )[:4]
        for key, row in worst:
            bad = sum((row.get("bad") or {}).values())
            lines.append(
                f"    slice {key:<24} n {int(row.get('n') or 0):6d}  "
                f"errors {int(row.get('errors') or 0):4d}  bad {bad:5d}  "
                f"p99 {_fmt_ms(row.get('p99'))}"
            )
    lines.append(thin)

    # -- resources ------------------------------------------------------
    resources = snapshot.get("resources") or {}
    process = resources.get("process") or {}
    lines.append(_paint("RESOURCES", _BOLD, color))
    rss = process.get("rss_bytes")
    hwm = process.get("hwm_bytes")
    if rss is not None:
        frac = float(rss) / float(hwm) if hwm else 0.0
        lines.append(
            f"  rss {human_bytes(rss):>10}  hwm {human_bytes(hwm):>10}  "
            f"[{_bar(frac)}]"
        )
    accounts = resources.get("accounts") or {}
    for name in sorted(accounts):
        row = accounts[name]
        lines.append(
            f"  {name:<16} {human_bytes(row.get('bytes')):>10} live  "
            f"peak {human_bytes(row.get('peak_bytes')):>10}  "
            f"items {int(row.get('items') or 0):6d}"
        )
    bank_resident = (accounts.get("series_bank") or {}).get("bytes") or 0
    bank_disk = (accounts.get("series_bank_disk") or {}).get("bytes") or 0
    if bank_disk:
        # Out-of-core banks: make the resident-vs-spilled split explicit
        # (the accounts above show it only as two unrelated rows).
        total = bank_resident + bank_disk
        lines.append(
            f"  bank storage: {human_bytes(bank_resident)} resident / "
            f"{human_bytes(bank_disk)} on disk  "
            f"[{_bar(bank_resident / total if total else 0.0)}]"
        )
    kernels = resources.get("kernels") or {}
    if kernels:
        lines.append(
            f"  {'kernel':<22} {'calls':>7} {'moved':>10} "
            f"{'chunks':>7} {'scratch':>8}"
        )
        for name in sorted(kernels):
            row = kernels[name]
            lines.append(
                f"  {name:<22} {int(row.get('calls') or 0):7d} "
                f"{human_bytes(row.get('bytes_moved')):>10} "
                f"{int(row.get('chunks') or 0):7d} "
                f"{int(row.get('scratch_allocations') or 0):8d}"
            )
    backends = snapshot.get("backends") or {}
    if backends:
        rendered = "  ".join(
            f"{name}={int(stats.get('batches') or 0)}"
            for name, stats in sorted(backends.items())
        )
        lines.append(f"  backend decisions: {rendered}")
    lines.append(thin)

    # -- caches / mix / alerts ------------------------------------------
    lines.append(_paint("CACHES & MIX", _BOLD, color))
    for name, stats in sorted((snapshot.get("caches") or {}).items()):
        if not stats:
            continue
        rate = stats.get("hit_rate")
        extra = (
            f"  bytes {human_bytes(stats['bytes']):>10}"
            if "bytes" in stats
            else ""
        )
        lines.append(
            f"  {name:<16} hit rate "
            f"{'' if rate is None else format(float(rate), '6.1%'):>7}  "
            f"hits {int(stats.get('hits') or 0):6d}  "
            f"misses {int(stats.get('misses') or 0):6d}{extra}"
        )
    mix = (snapshot.get("recommendation_mix") or {}).get("fractions") or {}
    if mix:
        rendered = "  ".join(
            f"{name} {float(frac):.0%}"
            for name, frac in sorted(mix.items(), key=lambda kv: -kv[1])
        )
        lines.append(f"  mix: {rendered}")
    alerts = snapshot.get("alerts") or {}
    hot = {k: v for k, v in alerts.items() if v}
    if hot:
        rendered = "  ".join(f"{k}={v}" for k, v in sorted(hot.items()))
        lines.append("  " + _paint(f"alerts: {rendered}", _YELLOW, color))
    else:
        lines.append("  alerts: none")
    drift = snapshot.get("drift")
    if drift:
        report = drift.get("report") or {}
        lines.append(
            f"  drift: psi {float(report.get('max_psi') or 0.0):.3f}  "
            f"ks {float(report.get('max_ks') or 0.0):.3f}  "
            f"alerting {bool(report.get('triggered'))}"
        )
    lines.append(rule)
    return "\n".join(lines)

