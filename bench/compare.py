"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 bench/compare.py OLD NEW

OLD and NEW are each a result file written by ``bench/run.py`` or a
directory of them, such as a copy of ``.bench_results/`` made on the
parent commit.  Files are grouped by workload and trace mode.  A side
with several runs of a workload is summarized by their per-run values;
a side with a single run by that run's samples.

For every workload and metric the table shows both medians, quartiles,
sample counts, the change of the median (positive = worse) and a verdict:

- ``regressed``: the new median is worse than the old by more than the bound;
- ``improved``: the new median is better by more than the bound;
- ``unchanged``: the change is within the bound;
- ``unresolved``: either side's spread (q3 - q1) / median is wider than
  the bound, unless every new value is better, or every new value is
  worse, than every old one.

Per-layer metrics have no bound and get no verdict.  Exits 1 if any
metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_side(path: Path) -> dict[tuple[str, int], list[dict]]:
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for f in files:
        record = json.loads(f.read_text())
        runs[(record["workload"], record["trace"])].append(record)
    return runs


def values(records: list[dict], metric: str) -> list[float]:
    found = [r["metrics"][metric] for r in records if metric in r["metrics"]]
    if len(found) == 1:
        return found[0]["samples"]
    return [m["value"] for m in found]


def stats(v: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
    return statistics.median(v), q1, q3


def verdict(old: list[float], new: list[float], better: str, bound: float) -> tuple[float, str]:
    """Signed relative change of the median (positive = worse) and the verdict."""
    sign = 1.0 if better == "lower" else -1.0
    (om, oq1, oq3), (nm, nq1, nq3) = stats(old), stats(new)
    worse = sign * (nm - om) / abs(om) if om else 0.0
    spread = max((oq3 - oq1) / abs(om) if om else 0.0, (nq3 - nq1) / abs(nm) if nm else 0.0)
    if bound is None:
        return worse, "-"
    if spread > bound:
        if max(sign * x for x in new) < min(sign * x for x in old):
            return worse, "improved"
        if min(sign * x for x in new) > max(sign * x for x in old):
            return worse, "regressed"
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    if worse < -bound:
        return worse, "improved"
    return worse, "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    old, new = load_side(Path(argv[0])), load_side(Path(argv[1]))
    regressed = False
    print(f"{'workload':14s} {'metric':32s} {'old median [q1, q3] n':38s} "
          f"{'new median [q1, q3] n':38s} {'change':>8s}  verdict")
    for key in sorted(old.keys() & new.keys()):
        workload, trace = key
        for m in spec["per_layer" if trace else "end_to_end"]:
            a, b = values(old[key], m["name"]), values(new[key], m["name"])
            if not a or not b:
                continue
            change, label = verdict(a, b, m["better"], m.get("bound"))
            regressed |= label == "regressed"
            cells = []
            for v in (a, b):
                med, q1, q3 = stats(v)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {len(v)}")
            print(f"{workload:14s} {m['name']:32s} {cells[0]:38s} {cells[1]:38s} "
                  f"{change:+8.1%}  {label}")
    for key in sorted(old.keys() ^ new.keys()):
        print(f"{key[0]} trace {key[1]}: results on one side only")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
