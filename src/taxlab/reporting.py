"""Byte-stable report emission: identical inputs produce identical files."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Sequence

from .protocol import REPORT_FIELDS, ComplexityReport


def sorted_rows(reports: Sequence[ComplexityReport]) -> list[dict]:
    """Report rows by (mechanism, m, n), the order both formats emit."""
    return sorted((r.row() for r in reports),
                  key=lambda row: (row["mechanism"], row["m"], row["n"]))


def reports_to_csv(reports: Sequence[ComplexityReport]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=REPORT_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in sorted_rows(reports):
        out = dict(row)
        out["valid"] = "true" if row["valid"] else "false"
        writer.writerow(out)
    return buf.getvalue()


def reports_to_json(reports: Sequence[ComplexityReport]) -> str:
    return json.dumps(sorted_rows(reports), indent=2, sort_keys=True) + "\n"


def write_text(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def emit_report(reports: Sequence[ComplexityReport], out_dir: Path) -> list[Path]:
    """CSV plus pretty JSON, deterministic bytes."""
    if not reports:
        raise ValueError("emit_report needs at least one report")
    out_dir = Path(out_dir)
    csv_path = out_dir / "reports.csv"
    json_path = out_dir / "reports.json"
    write_text(csv_path, reports_to_csv(reports))
    write_text(json_path, reports_to_json(reports))
    return [csv_path, json_path]


def audit_rows_to_csv(mechanism: str, rows) -> str:
    """Deviation-audit rows; the deviation id names the whole scenario
    (opponent behavior plus the player's own deviation index)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["mechanism", "player", "valuation", "deviation",
                     "truthful_utility", "deviating_utility", "gap"])
    for row in sorted(rows, key=lambda r: (r.player, r.valuation, r.opponent, r.deviation)):
        writer.writerow([
            mechanism, row.player, row.valuation,
            f"opp={row.opponent};own={row.deviation}",
            str(row.truthful_utility), str(row.deviating_utility), str(row.gap),
        ])
    return buf.getvalue()
