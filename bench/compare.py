"""Compare two sets of result files: parent commit against change.

::

    python -m bench.compare --parent out/parent --change out/change

Each argument is a directory of ``python -m bench`` result files (or the
files themselves).  One row per (workload, metric) gives each side's median
and quartiles over its runs and a verdict, using the directions and bounds of
``BENCHMARK.json``:

``regressed``
    the change's median is worse than the parent's by more than the bound —
    exit status 1;
``unresolved``
    the run-to-run spread (interquartile range over median, the wider side)
    exceeds the bound, so a move of the bound's size could hide in it —
    unless every run of one side beats every run of the other, which settles
    it as ``improved`` or ``regressed``;
``improved``
    the change's median is better by more than the parent's own spread;
``unchanged``
    anything else.

Per-layer metrics carry no bound; they are listed as ``reported``.  Every
ratio printed is change over parent: the base is the parent's median.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

from bench import ROOT


def load(paths: list[Path]) -> dict[tuple[str, bool], dict[str, list[float]]]:
    """``(workload, traced) -> metric -> values``, one value per result file."""
    files: list[Path] = []
    for path in paths:
        files.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    values: dict[tuple[str, bool], dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for file in files:
        document = json.loads(file.read_text())
        if "metrics" not in document or "workload" not in document:
            continue  # e.g. a trace file sitting in the same directory
        key = (document["workload"], bool(document.get("traced")))
        for name, metric in document["metrics"].items():
            values[key][name].append(float(metric["value"]))
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> str:
    """See the module docstring."""
    if bound is None:
        return "reported"
    sign = 1.0 if better == "lower" else -1.0  # worse = larger, after the sign
    p = [sign * v for v in parent]
    c = [sign * v for v in change]
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    scale = abs(pm) or 1.0
    worse_by = (cm - pm) / scale
    spread = max((p3 - p1) / scale, (c3 - c1) / (abs(cm) or 1.0))
    if min(c) > max(p):
        return "regressed" if worse_by > bound else "unchanged"
    if max(c) < min(p):
        return "improved"
    if spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if -worse_by > (p3 - p1) / scale and -worse_by > 0:
        return "improved"
    return "unchanged"


def compare(parent_paths: list[Path], change_paths: list[Path]) -> tuple[list[dict], bool]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: (m["better"], m.get("bound")) for m in declared["end_to_end"]}
    rules.update({m["name"]: (m["better"], None) for m in declared["per_layer"]})
    parent, change = load(parent_paths), load(change_paths)
    rows: list[dict] = []
    for key in sorted(set(parent) & set(change)):
        for name in parent[key]:
            if name not in change[key] or name not in rules:
                continue
            better, bound = rules[name]
            p, c = parent[key][name], change[key][name]
            rows.append({
                "workload": key[0] + (" (traced)" if key[1] else ""), "metric": name,
                "parent": quartiles(p), "change": quartiles(c), "runs": (len(p), len(c)),
                "better": better, "bound": bound, "verdict": verdict(p, c, better, bound),
            })
    return rows, any(row["verdict"] == "regressed" for row in rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.compare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    rows, regressed = compare(args.parent, args.change)
    if not rows:
        parser.error("the two sets share no (workload, metric)")
    print(f"{'workload':28s} {'metric':38s} {'parent q1/median/q3':>36s} "
          f"{'change q1/median/q3':>36s} {'change/parent':>14s} {'bound':>6s}  verdict")
    def side(q: tuple[float, float, float]) -> str:
        return "/".join(f"{v:.5g}" for v in q)

    for row in rows:
        base = row["parent"][1]
        ratio = f"{row['change'][1] / base:.4f}" if base else "n/a"
        bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
        print(f"{row['workload']:28s} {row['metric']:38s} {side(row['parent']):>36s} "
              f"{side(row['change']):>36s} {ratio:>14s} {bound:>6s}  {row['verdict']}"
              f" ({row['better']} is better; runs {row['runs'][0]}+{row['runs'][1]})")
    print("ratios: change median over parent median (base: parent)")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
