"""Per-workload, per-metric diff of two sets of results files.

    python3 perfbench/diff.py BASE NEW

BASE and NEW are each a results file written by perfbench/run.py or a
directory of them (one file per seed, say).  Files are grouped by workload
and trace flag; each metric is compared by its median over a group.  An
end-to-end metric whose NEW median is worse than BASE by more than its
bound in BENCHMARK.json is a regression; with four or more files a side,
a metric whose run-to-run spread (interquartile range over median) exceeds
the bound on either side is reported as unresolved instead.  Per-layer
metrics, and the other values a results file keeps (op_tail_ms, the
per-layer seconds), have no bound and are listed with their change only.

Times are read at a reference core speed (speed.py), so the raw seconds
are compared too: `raw.work_raw_s` against `wall_s` and `raw.setup_raw_s`
against `setup_s`.  A raw ratio (new over base) that differs from the
converted ratio by more than the metric's bound is flagged UNRESOLVED:
either the machine's speed moved between the two sides, or the change
moved the speed kernel as well as the program, and the converted figure
then hides part of it.  Run the two sides alternately and compare again.

Exit status: 0 no regression, 1 a regression or an incorrect run, 2 usage.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A converted end-to-end metric -> the raw seconds it is read from.
RAW_OF = {"wall_s": "work_raw_s", "setup_s": "setup_raw_s"}


def load(path: Path) -> dict[tuple[str, int], list[dict]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups: dict[tuple[str, int], list[dict]] = {}
    for f in files:
        record = json.loads(f.read_text(encoding="utf-8"))
        if "workload" in record and "metrics" in record:
            groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def spread(values: list[float]) -> float | None:
    if len(values) < 4:
        return None
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else None


def raw_median(record: dict, key: str) -> float | None:
    xs = record.get("raw", {}).get(key)
    return statistics.median(xs) if xs else None


def value(record: dict, name: str) -> float:
    if name in record["metrics"]:
        return record["metrics"][name]["value"]
    return record["all_values"][name]


def compare(base: list[dict], new: list[dict], specs: dict) -> tuple[list[str], bool]:
    lines, bad = [], False
    changes = {}
    for side, records in (("base", base), ("new", new)):
        wrong = [r["facts"]["seed"] for r in records if not r["correct"]]
        if wrong:
            lines.append(f"  {side}: incorrect output at seeds {wrong}")
            bad = True
    # The result-line metrics first, then the results files' other values.
    names = [n for n in base[0]["metrics"] if n in new[0]["metrics"]]
    names += sorted(n for n in base[0]["all_values"]
                    if n in new[0]["all_values"] and n not in names)
    for name in names:
        b = [value(r, name) for r in base]
        n = [value(r, name) for r in new]
        mb, mn = statistics.median(b), statistics.median(n)
        unit = base[0]["metrics"][name]["unit"] if name in base[0]["metrics"] else ""
        change = changes[name] = (mn - mb) / mb if mb else 0.0
        spec = specs.get(name)
        verdict = ""
        if spec is not None and "bound" in spec:
            worse = change if spec["better"] == "lower" else -change
            spreads = [s for s in (spread(b), spread(n)) if s is not None]
            if spreads and max(spreads) > spec["bound"]:
                verdict = f"unresolved (spread {max(spreads):.1%} > bound {spec['bound']:.0%})"
            elif worse > spec["bound"]:
                verdict = f"REGRESSION (bound {spec['bound']:.0%})"
                bad = True
            else:
                verdict = f"ok (bound {spec['bound']:.0%})"
        lines.append(f"  {name:44} {unit:6} {mb:12.6g} -> {mn:12.6g}  {change:+7.1%}  {verdict}")
    for name, key in RAW_OF.items():
        b = [raw_median(r, key) for r in base]
        n = [raw_median(r, key) for r in new]
        if name not in changes or None in b + n:
            continue
        mb, mn = statistics.median(b), statistics.median(n)
        change = (mn - mb) / mb
        gap = (1 + change) / (1 + changes[name]) - 1
        verdict = f"{name} {changes[name]:+.1%}"
        if name in specs and abs(gap) > specs[name]["bound"]:
            verdict += (f"; UNRESOLVED (raw and converted differ by {gap:+.1%} "
                        f"> bound {specs[name]['bound']:.0%})")
        lines.append(f"  {'raw.' + key:44} {'s':6} {mb:12.6g} -> {mn:12.6g}  "
                     f"{change:+7.1%}  {verdict}")
    return lines, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    any_bad = False
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        print(f"{workload} ({'per-layer, traced' if trace else 'end-to-end'}): "
              f"{len(base.get(key, []))} base / {len(new.get(key, []))} new files")
        if key not in base or key not in new:
            print("  only on one side; not compared")
            continue
        lines, bad = compare(base[key], new[key], specs)
        print("\n".join(lines))
        any_bad |= bad
    return 1 if any_bad else 0


if __name__ == "__main__":
    sys.exit(main())
