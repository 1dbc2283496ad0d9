"""Compare two ``run.py --out`` files metric by metric.

Usage::

    python benchmarks/e2e/compare.py A.json B.json

For every (end-to-end metric, workload) it prints both medians and
quartiles, the change of B against A, and a verdict from the bounds in
BENCHMARK.json:

* ``within``     — B is no worse than A by more than the bound;
* ``regressed``  — B is worse than A by more than the bound;
* ``unresolved`` — A's or B's own spread (interquartile range over
  median) exceeds the bound, so the runs cannot tell, unless every rep
  of B reads better than every rep of A.

``failed_frac`` has no bound: any failed rep in B is ``regressed``.
Exits 1 when any verdict is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> str:
    """The verdict for one metric: A is the baseline, B the change."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((a["q3"] - a["q1"]) / a["median"],
                 (b["q3"] - b["q1"]) / b["median"])
    if spread > bound:
        every_rep_better = all(sign * (y - x) < 0
                               for x in a["values"] for y in b["values"])
        return "within" if every_rep_better else "unresolved"
    return "regressed" if worse_by > bound else "within"


def compare(a: Dict[str, Any], b: Dict[str, Any],
            metrics: List[Dict[str, Any]]) -> List[List[str]]:
    """Rows of ``[workload, metric, unit, A, B, change, verdict]``."""
    rows = []
    for w in a["workloads"]:
        ea = a["workloads"][w]["end_to_end"]
        eb = b["workloads"].get(w, {}).get("end_to_end", {})
        for m in metrics:
            name = m["name"]
            if name not in ea or name not in eb:
                rows.append([w, name, m["unit"], _fmt(ea.get(name)),
                             _fmt(eb.get(name)), "", "unresolved"])
                continue
            change = eb[name]["median"] / ea[name]["median"] - 1.0
            rows.append([w, name, m["unit"], _fmt(ea[name]), _fmt(eb[name]),
                         f"{change:+.1%}",
                         verdict(ea[name], eb[name], m["better"],
                                 m["bound"])])
        failed = eb.get("failed_frac", {"median": 1.0})["median"]
        rows.append([w, "failed_frac", "ratio",
                     f"{ea['failed_frac']['median']:.3g}", f"{failed:.3g}",
                     "", "regressed" if failed > 0 else "within"])
    return rows


def _fmt(m: Optional[Dict[str, Any]]) -> str:
    if m is None:
        return "missing"
    return f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(a, b, spec["end_to_end"])
    header = ["workload", "metric", "unit", "A median [q1, q3]",
              "B median [q1, q3]", "change", "verdict"]
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(wd) for c, wd in zip(row, widths)))
    bad = [r for r in rows if r[-1] != "within"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
