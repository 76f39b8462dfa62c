"""``python -m benchmarks.e2e compare A.json B.json``: B judged against A.

One row per (workload, end-to-end metric) with each side's median and
quartiles and a verdict against the metric's bound:

* ``improved`` / ``regressed`` — B's median is better / worse than A's by
  more than the bound (simulated metrics have bound 0: any change counts);
* ``unchanged`` — within the bound;
* ``unresolved`` — not regressed, but the run-to-run spread of either side
  (quartile distance over median) is wider than the bound, so a difference
  of that size could not have been seen — unless every round of B beats
  every round of A, which decides it anyway.

Exit status 1 on any regression or a higher ``failed_share``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

Row = Tuple[str, str, str, str, str, str]


def _iqr_share(entry: Dict[str, Any]) -> float:
    if "q1" not in entry or not entry["median"]:
        return 0.0
    return abs(entry["q3"] - entry["q1"]) / abs(entry["median"])


def verdict(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """B's entry for one metric judged against A's, by A's direction and bound."""
    bound = a["bound"]
    sign = -1.0 if a["better"] == "lower" else 1.0
    base, new = a["median"], b["median"]
    if base == new:
        return "unchanged"
    gain = sign * (new - base) / abs(base) if base else sign * (new - base)
    if gain < -bound:
        return "regressed"
    if max(_iqr_share(a), _iqr_share(b)) > bound:
        # Too noisy to see the bound, unless every round of B beats every one of A.
        apart = b["max"] < a["min"] if a["better"] == "lower" else b["min"] > a["max"]
        if not apart:
            return "unresolved"
    return "improved" if gain > bound else "unchanged"


def _cell(entry: Dict[str, Any]) -> str:
    text = f"{entry['median']:.6g}"
    if "q1" in entry:
        text += f" [{entry['q1']:.6g}, {entry['q3']:.6g}] n={entry['n']}"
    return text


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[Row], bool]:
    """Rows of the comparison table and whether anything regressed."""
    rows: List[Row] = []
    regressed = False
    for workload, base in a["workloads"].items():
        new = b["workloads"].get(workload)
        if new is None:
            rows.append((workload, "-", "-", "-", "-", "missing in B"))
            regressed = True
            continue
        for name, a_entry in base["end_to_end"].items():
            b_entry = new["end_to_end"].get(name)
            if b_entry is None:
                rows.append((workload, name, a_entry["unit"], _cell(a_entry), "-",
                             "missing in B"))
                regressed = True
                continue
            outcome = verdict(a_entry, b_entry)
            regressed |= outcome == "regressed"
            rows.append((workload, name, a_entry["unit"], _cell(a_entry),
                         _cell(b_entry), outcome))
    return rows, regressed


def main(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    rows, regressed = compare(a, b)
    header: Row = ("workload", "metric", "unit", "A median [q1, q3]",
                   "B median [q1, q3]", "verdict")
    widths = [max(len(row[i]) for row in (header, *rows)) for i in range(len(header))]
    for row in (header, *rows):
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if regressed else 0
