"""topomonoid benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Every repetition runs in a fresh interpreter (perfbench/child.py, or a
CLI process under perfbench/cli_child.py for cli-cold), so the package's
module-level caches start cold, as they do for every user process.
Repetitions run one at a time, closed loop, until S seconds of
repetitions have elapsed.  Times are read at a reference core speed
(perfbench/speed.py).

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a
traced run, whose traced repetitions alternate with untraced ones as the
base of the tracing overhead.  A results file with the raw samples and
the run facts is written to --out, by default perfbench/results/.  See
perfbench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import speed  # noqa: E402
from tracer import TARGET_NAMES  # noqa: E402

SETUP_SAMPLES = 5      # set-up timings per run: the repetitions' own, topped up
MIN_REPS = 3           # timed repetitions per run, however short --seconds is
# Every child is killed once the run has lasted --seconds plus this margin,
# which covers the repetition still running at --seconds and the set-ups.
BUDGET_MARGIN_S = 150


class BenchError(RuntimeError):
    """The benchmark could not measure: no source, a crashed or hung child."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- run facts -----------------------------------------------------------------


def git_commit(root: Path) -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> list[float] | None:
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def run_facts(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "commit": git_commit(ROOT),
        "loadavg_start": loadavg(),
    }


# -- children ----------------------------------------------------------------------


class Runner:
    """Starts children one at a time, each within what is left of the run budget."""

    def __init__(self, budget_s: float):
        self.budget_s = budget_s
        self.deadline = time.monotonic() + budget_s
        # A fixed hash seed makes set iteration, and so the traced call
        # counts, repeat exactly from run to run.
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        """The finished child and its wall time in seconds."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run budget of {self.budget_s}s exhausted")
        t = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{' '.join(argv[1:])} outlived the run budget "
                             f"of {self.budget_s}s") from None
        return proc, time.perf_counter() - t

    def child_json(self, workload: str, seed: int, mode: str):
        proc, _ = self.spawn([sys.executable, str(HERE / "child.py"), workload,
                              "--seed", str(seed), "--mode", mode])
        lines = proc.stdout.strip().splitlines()
        try:
            if proc.returncode == 0:
                return json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            pass
        raise BenchError(f"child {workload} {mode} exited {proc.returncode} without a "
                         f"result:\n{proc.stderr[-2000:]}")

    def cli_command(self, argv: str, trace: bool) -> tuple[int, str, dict]:
        """(exit code, stdout, speed record) of one CLI process.  The record's
        wall_s is the process's wall time read at the reference speed."""
        flags = ["--trace"] if trace else []
        proc, wall = self.spawn([sys.executable, str(HERE / "cli_child.py"), *flags,
                                 *argv.split()])
        lines = proc.stderr.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise BenchError(f"cli {argv} left no speed record:\n{proc.stderr[-2000:]}") from None
        record["raw_s"] = wall
        record["wall_s"] = speed.reference_time(wall, record["samples"], record["speed_factor"])
        return proc.returncode, proc.stdout, record


# -- one repetition per workload --------------------------------------------------


def repetition(runner: Runner, workload: str, seed: int, trace: bool) -> dict:
    """One repetition: {work_s, work_raw_s, ops, ops_s, lat, attempted, failed,
    problems, rss_mb, ...}, with the tracer's summary under "trace"."""
    if workload != "cli-cold":
        return runner.child_json(workload, seed, "trace" if trace else "run")
    rep = {"work_s": 0.0, "work_raw_s": 0.0, "ops": 0, "lat": [], "attempted": 0,
           "failed": 0, "problems": [], "rss_mb": 0.0, "commands": {}}
    imports, traces = [], []
    for name, argv in child.cli_cycle(seed):
        code, out, record = runner.cli_command(argv, trace)
        rep["work_s"] += record["wall_s"]
        rep["work_raw_s"] += record["raw_s"]
        rep["ops"] += 1
        rep["lat"].append(record["wall_s"])
        rep["attempted"] += 1
        rep["rss_mb"] = max(rep["rss_mb"], record["rss_mb"])
        rep["commands"].setdefault(name, []).append(record["wall_s"])
        imports.append(record["import_s"])
        if trace:
            traces.append(record["trace"])
        if code != 0 or out != child.cli_expected(name):
            rep["failed"] += 1
            rep["problems"].append(f"{argv}: exit {code} or stdout differs")
    rep["ops_s"] = rep["work_s"]
    rep["import_s"] = statistics.median(imports)
    if trace:
        rep["trace"] = merge_traces(traces)
    return rep


def merge_traces(traces: list[dict]) -> dict:
    """Sum the tracer summaries of a cycle's CLI processes into one."""
    functions = {
        name: {key: sum(tr["functions"][name][key] for tr in traces)
               for key in ("calls", "self_s", "total_s")}
        for name in TARGET_NAMES}
    counters = {key: sum(tr[key] for tr in traces) for key in (
        "letters_applied", "sym_apply_from_apply_word", "undecidable", "attributed_s")}
    notes = sorted({n for tr in traces for n in tr["notes"]})
    return dict(counters, functions=functions, notes=notes)


# -- metrics ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no such percentile exists and the maximum is
    reported, with percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(reps: list[dict], setups: list[float]) -> tuple[dict, dict]:
    lat = [x for r in reps for x in r["lat"]]
    tail_value, tail_pct, n = tail(lat)
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "wall_s": statistics.median(r["work_s"] for r in reps),
        "ops_per_s": sum(r["ops"] for r in reps) / sum(r["ops_s"] for r in reps),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * tail_value,
    }
    detail = {"op_tail_percentile": tail_pct, "op_samples": n, "reps": len(reps),
              "setup_samples": len(setups)}
    return values, detail


def per_layer(traced: list[dict], base: list[dict]) -> tuple[dict, dict]:
    """Per-layer values of one repetition.

    Counts come from the first traced repetition; they must repeat exactly,
    and any that do not are listed.  Times are medians over the traced
    repetitions, in seconds and as shares of the traced wall time.
    BENCHMARK.json lists the shares: they move far less with the machine's
    speed than seconds do, and the results file keeps the seconds.
    """
    first = traced[0]["trace"]
    values = {}

    def med(fn):
        return statistics.median(fn(r) for r in traced)

    for name in TARGET_NAMES:
        values[f"{name}.calls"] = first["functions"][name]["calls"]
        for key in ("self", "total"):
            values[f"{name}.{key}_s"] = med(
                lambda r: r["trace"]["functions"][name][f"{key}_s"])
            values[f"{name}.{key}_share"] = med(
                lambda r: r["trace"]["functions"][name][f"{key}_s"] / r["work_raw_s"])
    letters = first["letters_applied"]
    values["vitali.letters_applied"] = letters
    values["vitali.undecidable"] = first["undecidable"]
    values["vitali.sym_apply_per_letter"] = (
        first["sym_apply_from_apply_word"] / letters if letters else 0.0)
    values["trace.wall_s"] = med(lambda r: r["work_s"])
    values["trace.overhead_ratio"] = values["trace.wall_s"] / statistics.median(
        r["work_s"] for r in base)
    values["trace.unattributed_s"] = med(
        lambda r: r["work_raw_s"] - r["trace"]["attributed_s"])
    values["trace.unattributed_share"] = med(
        lambda r: 1 - r["trace"]["attributed_s"] / r["work_raw_s"])
    values["cli.import_s"] = med(lambda r: r["import_s"])
    unstable = sorted(
        name for name in TARGET_NAMES
        if len({r["trace"]["functions"][name]["calls"] for r in traced}) > 1)
    detail = {"traced_reps": len(traced), "notes": first["notes"],
              "calls_differ_between_reps": unstable,
              "untraced_work_s": [r["work_s"] for r in base]}
    return values, detail


# -- measuring ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "topomonoid" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    runner = Runner(seconds + BUDGET_MARGIN_S)
    # Untimed: compiles the bytecode a user's installed package already has.
    runner.child_json("cli-cold", seed, "setup")
    reps, traced = [], []
    start = time.monotonic()
    if trace:
        # Untraced and traced repetitions alternate, so the overhead ratio
        # compares repetitions run under the same machine conditions.
        while len(traced) < 2 or time.monotonic() - start < seconds:
            reps.append(repetition(runner, workload, seed, False))
            traced.append(repetition(runner, workload, seed, True))
    else:
        while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
            reps.append(repetition(runner, workload, seed, False))
    setup_reps = [r for r in reps + traced if "setup_s" in r]
    while len(setup_reps) < SETUP_SAMPLES:
        setup_reps.append(runner.child_json(workload, seed, "setup"))
    setups = [r["setup_s"] for r in setup_reps]
    checked = reps + traced
    result = {
        "attempted": sum(r["attempted"] for r in checked),
        "failed": sum(r["failed"] for r in checked),
        "problems": sorted({p for r in checked for p in r["problems"]}),
        "measured_s": time.monotonic() - start,
    }
    if trace:
        result["values"], result["detail"] = per_layer(traced, reps)
    else:
        result["values"], result["detail"] = end_to_end(reps, setups)
    result["raw"] = {
        "setup_s": setups,
        "setup_raw_s": [r["setup_raw_s"] for r in setup_reps],
        "work_s": [r["work_s"] for r in reps],
        "work_raw_s": [r["work_raw_s"] for r in reps],
        "traced_work_s": [r["work_s"] for r in traced],
        "rss_mb": [r["rss_mb"] for r in reps],
        "undecidable": [r["undecidable"] for r in checked if "undecidable" in r],
        "commands_s": [r["commands"] for r in reps if "commands" in r],
    }
    return result


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="results file (default perfbench/results/...)")
    args = p.parse_args(argv)

    facts = run_facts(args.seed)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    facts["loadavg_end"] = loadavg()

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    line = {"correct": result["failed"] == 0 and not result["problems"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}

    out = args.out or HERE / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    record = {"schema_version": 1, "workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "facts": facts, **line,
              "error_rate": result["failed"] / result["attempted"],
              "measured_s": result["measured_s"],
              "problems": result["problems"], "detail": result["detail"],
              "all_values": result["values"], "raw": result["raw"]}
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in result["problems"][:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
