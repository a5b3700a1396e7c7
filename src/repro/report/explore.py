"""Plain-text and JSON rendering of design-space sweeps.

§5-style sensitivity tables over :mod:`repro.explore` results: one
table per axis (CPI and the stall columns per instruction against the
stock 11/780), the overlapped-decode claim check, and the
machine-readable ``EXPLORE.json`` document CI archives.
"""

from __future__ import annotations


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, int) and value % 1024 == 0 and value >= 1024:
        return f"{value // 1024}K"
    return str(value)


def render_axis(table: dict) -> str:
    """One axis's sensitivity table."""
    lines = [
        f"EXPLORE - sensitivity to {table['axis']} "
        "(per-instruction cycles; * = stock 11/780)",
        f"{'value':>10s} {'CPI':>7s} {'read':>7s} {'r-stall':>8s} "
        f"{'write':>7s} {'w-stall':>8s} {'ib-stall':>8s} "
        f"{'decode':>7s}",
    ]
    for row in table["rows"]:
        marker = "*" if row["is_default"] else " "
        lines.append(
            f"{_fmt_value(row['value']):>9s}{marker} {row['cpi']:7.2f} "
            f"{row['read_per_instruction']:7.2f} "
            f"{row['rstall_per_instruction']:8.2f} "
            f"{row['write_per_instruction']:7.2f} "
            f"{row['wstall_per_instruction']:8.2f} "
            f"{row['ibstall_per_instruction']:8.2f} "
            f"{row['decode_cycles_per_instruction']:7.2f}")
    return "\n".join(lines)


def render_decode_claim(claim: dict) -> str:
    """The §5 overlapped-decode check, rendered."""
    if claim is None:
        return ""
    lines = [
        "EXPLORE - §5 overlapped decode (\"could save one cycle on "
        "each non-PC-changing instruction\")",
        f"  decode cycles, stock machine:      "
        f"{claim['baseline_decode_cycles']:10d}",
        f"  decode cycles, overlapped decode:  "
        f"{claim['overlapped_decode_cycles']:10d}",
        f"  non-PC-changing dispatches:        "
        f"{claim['non_pc_changing_dispatches']:10d}",
        f"  decode cycles saved:               "
        f"{claim['cycles_saved']:10d}"
        f"  ({claim['cycles_saved_per_instruction']:.3f}/instruction)",
        f"  CPI {claim['baseline_cpi']:.2f} -> "
        f"{claim['overlapped_cpi']:.2f}",
        f"  one cycle per non-PC-changing instruction: "
        f"{'EXACT' if claim['ok'] else 'MISMATCH'}",
    ]
    return "\n".join(lines)


def render_points(result) -> str:
    """The enumerated points and their cache status (``--points``)."""
    lines = [f"EXPLORE - {result.spec.name}: "
             f"{len(result.points)} points x "
             f"{len(result.spec.workloads)} workloads"]
    for entry in result.points:
        composite = entry.get("composite")
        suffix = ""
        if composite is not None:
            n = composite["instructions_measured"] or 1
            classified = sum(c for cols in composite["cells"].values()
                             for c in cols.values())
            spent = classified - composite["decode"]["overlapped_decodes"]
            suffix = f"  CPI {spent / n:.2f}"
        lines.append(f"  {entry['label']}{suffix}")
    return "\n".join(lines)


def render_sensitivity(report: dict, stats: dict = None) -> str:
    """The full sweep report."""
    header = [f"EXPLORE - spec '{report['spec']}' ({report['mode']}), "
              f"{report['instructions']} instructions/workload, "
              f"seed {report['seed']}, "
              f"{len(report['workloads'])} workloads"]
    if stats:
        header.append(
            f"  {stats['points']} points, {stats['tasks']} tasks: "
            f"{stats['simulated']} simulated in {stats.get('runs', '?')} "
            f"runs, {stats['cached']} from the store "
            f"({stats['seconds']:.1f}s)")
    parts = ["\n".join(header)]
    parts.extend(render_axis(table) for table in report["axes"])
    claim = render_decode_claim(report.get("decode_claim"))
    if claim:
        parts.append(claim)
    return "\n\n".join(parts)


def explore_json(result, report: dict, meta: dict = None) -> dict:
    """Shape a sweep into the machine-readable EXPLORE.json document."""
    points = []
    for entry in result.points:
        point = entry["point"]
        points.append({
            "label": entry["label"],
            "overrides": dict(point.overrides),
            "instructions": point.instructions,
            "seed": point.seed,
            "composite": entry["composite"],
            "workloads": {
                name: {
                    "cycles": record["cycles"],
                    "instructions_measured":
                        record["instructions_measured"],
                    "histogram": record["histogram"],
                }
                for name, record in entry["records"].items()
            },
        })
    return {
        "meta": dict(meta or {}),
        "spec": {
            "name": result.spec.name,
            "mode": result.spec.mode,
            "instructions": result.spec.instructions,
            "seed": result.spec.seed,
            "workloads": list(result.spec.workloads),
            "axes": [{"name": axis.name, "values": list(axis.values)}
                     for axis in result.spec.axes],
        },
        "stats": result.stats,
        "sensitivity": report,
        "points": points,
    }
