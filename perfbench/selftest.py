"""Tests of the benchmark itself (not collected by the package's pytest run).

    python3 perfbench/selftest.py

Covers the tracer's self-time arithmetic, its binding-site coverage, the
per-workload call coverage of small traced runs, the repeatability of
call counts, the correctness gates (including that they catch a dropped
rule and a perturbed set operator), the metric aggregation and the diff.
Each traced or mutated run happens in its own interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import diff  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracer import TARGET_NAMES, Tracer, self_time  # noqa: E402

# Small traced runs, one per workload, each in a fresh interpreter; cli-cold
# runs its real cycle of traced CLI processes.
SMALL_TRACED = {
    "verify-default": "child.verify_work(child.verify_inputs(0, corpus_size=30))",
    "rewrite-sweep": "child.sweep_work(child.sweep_inputs(0, max_len=3))",
    "eval-cold": "child.eval_work(child.eval_inputs(0, n_sets=300))",
}

SCRIPT_HEAD = f"""
import json, sys
sys.path.insert(0, {str(HERE)!r})
import child
child.import_package()
"""

TRACED_SCRIPT = SCRIPT_HEAD + """
from tracer import Tracer
tracer = Tracer()
tracer.install()
{work}
print(json.dumps(tracer.summary()))
"""

VITALI = [n for n in TARGET_NAMES if n.startswith("vitali.")]
REALSETS = [n for n in TARGET_NAMES if n.startswith("realsets.")]

# Names each workload must call at least once, and names it must not call.
COVERAGE = {
    "verify-default": ([n for n in TARGET_NAMES if n != "cli.main"], ["cli.main"]),
    "rewrite-sweep": (["rewrite.normalize", "kinds.infer_kind", "monoid.enumerate_monoid",
                       "rewrite.completion_check"], VITALI + REALSETS),
    "eval-cold": (["vitali.apply_word", "vitali.sym_apply", "vitali.sym_subset"] + REALSETS,
                  ["rewrite.normalize", "kinds.infer_kind", "monoid.enumerate_monoid"]),
    "cli-cold": (["cli.main", "rewrite.normalize", "monoid.enumerate_monoid",
                  "vitali.apply_word", "vitali.distinguish", "poset.proved_relation",
                  "poset.corpus_relation"], ["verify.run_verify"]),
}


def python(script: str) -> str:
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONHASHSEED="0"), timeout=300)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr[-3000:])
    return proc.stdout.strip().splitlines()[-1]


def traced_summary(workload: str) -> dict:
    if workload == "cli-cold":
        rep = run.repetition(run.Runner(300), workload, 0, trace=True)
        if rep["problems"]:
            raise AssertionError(rep["problems"])
        return rep["trace"]
    return json.loads(python(TRACED_SCRIPT.format(work=SMALL_TRACED[workload])))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        self.assertEqual(self_time(10.0, [3.0, 4.0]), 3.0)
        self.assertEqual(self_time(2.5, []), 2.5)

    def test_nested_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def leaf():
            clock.now += 2.0

        def mid():
            clock.now += 1.0
            wleaf()
            wleaf()
            clock.now += 0.5

        def top():
            wmid()
            clock.now += 3.0

        wleaf = tracer.wrap("realsets.leaf", leaf)
        wmid = tracer.wrap("vitali.mid", mid)
        wtop = tracer.wrap("verify.top", top)
        clock.now += 7.0  # outside any span: unattributed
        wtop()
        s = tracer.summary()
        edges = {(n, p): (c, d, st) for n, p, c, d, st in s["edges"]}
        self.assertEqual(edges[("realsets.leaf", "vitali.mid")], (2, 4.0, 4.0))
        self.assertEqual(edges[("vitali.mid", "verify.top")], (1, 5.5, 1.5))
        self.assertEqual(edges[("verify.top", "<root>")], (1, 8.5, 3.0))
        self.assertEqual(s["attributed_s"], 8.5)
        self.assertEqual(sum(st for *_, st in s["edges"]), s["attributed_s"])
        self.assertEqual(clock.now - s["attributed_s"], 7.0)

    def test_recursion_counts_total_once(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def rec(n):
            clock.now += 1.0
            if n:
                wrec(n - 1)

        wrec = tracer.wrap("vitali.rec", rec)
        wrec(2)
        fn = tracer.summary()["functions"]
        self.assertEqual(fn.get("vitali.rec"), {"calls": 3, "self_s": 3.0, "total_s": 3.0})

    def test_undecidable_counted_once_at_outermost_vitali_span(self):
        class Undecidable(Exception):
            pass

        tracer = Tracer(FakeClock())
        tracer._undecidable_type = Undecidable

        def inner():
            raise Undecidable("x")

        winner = tracer.wrap("vitali.inner", inner)
        wouter = tracer.wrap("vitali.outer", lambda: winner())
        for _ in range(3):
            with self.assertRaises(Undecidable):
                wouter()
        self.assertEqual(tracer.undecidable, 3)
        self.assertEqual(tracer.summary()["functions"]["vitali.outer"]["calls"], 3)

    def test_letters_applied_skips_constants(self):
        tracer = Tracer(FakeClock())
        wrapped = tracer.wrap("vitali.apply_word", lambda w, s: s)
        wrapped("kc0", None)
        wrapped("1", None)
        self.assertEqual(tracer.letters_applied, 2)


class SpeedTest(unittest.TestCase):
    def test_factor_is_nominal_over_trimmed_mean_duration(self):
        nominal = speed.NOMINAL_S
        self.assertAlmostEqual(speed.speed_factor([nominal] * 5), 1.0)
        self.assertAlmostEqual(speed.speed_factor([2 * nominal] * 5), 0.5)
        # one outlier in ten is trimmed away
        self.assertAlmostEqual(speed.speed_factor([nominal] * 9 + [100 * nominal]), 1.0)
        with self.assertRaises(ValueError):
            speed.speed_factor([])

    def test_reference_time_drops_kernel_time_and_rescales(self):
        sampler = speed.Sampler(clock=FakeClock())
        k = speed.NOMINAL_S
        sampler.samples = [(1.0, 2 * k), (2.0, 2 * k), (9.0, k)]
        ref, factor = sampler.reference(0.0, 3.0)
        self.assertAlmostEqual(factor, 0.5)
        self.assertAlmostEqual(ref, 3.0 * 0.5 - 2 * speed.SAMPLE_COST_S)
        ref, factor = sampler.reference(4.0, 5.0)  # no sample inside: whole process
        self.assertAlmostEqual(ref, 1.0 * speed_factor_all(sampler))

    def test_slow_kernel_outlier_stays_program_time(self):
        sampler = speed.Sampler(clock=FakeClock())
        k = speed.NOMINAL_S
        sampler.samples = [(float(t), k) for t in range(1, 10)] + [(9.5, 50 * k)]
        ref, factor = sampler.reference(0.0, 10.0)
        self.assertAlmostEqual(factor, 1.0)
        self.assertAlmostEqual(ref, 10.0 - 10 * speed.SAMPLE_COST_S)

    def test_kernel_cannot_start_a_garbage_collection(self):
        out = python(f"""
import gc, sys
sys.path.insert(0, {str(HERE)!r})
import speed
gc.disable()
before = gc.get_count()
for _ in range(100):
    speed.kernel()
print(before == gc.get_count())
""")
        self.assertEqual(out, "True")

    def test_sampler_samples_while_working(self):
        out = python(f"""
import sys, time
sys.path.insert(0, {str(HERE)!r})
import speed
s = speed.Sampler()
s.start()
t = time.process_time()
while time.process_time() - t < 0.2:
    pass
s.stop()
print(len(s.samples))
""")
        self.assertGreaterEqual(int(out), 10)


def speed_factor_all(sampler):
    return speed.speed_factor([d for _, d in sampler.samples])


class BindingSiteTest(unittest.TestCase):
    def test_every_binding_is_wrapped(self):
        out = python(SCRIPT_HEAD + """
from tracer import Tracer
import topomonoid
from topomonoid import poset, realsets, rewrite, verify, vitali
Tracer().install()
w = lambda f: getattr(f, "__wrapped_by_perfbench__", False)
print(json.dumps([w(verify.apply_word), w(poset.apply_word), w(vitali.apply_word),
                  w(topomonoid.apply_word), w(vitali.closure), w(realsets._LETTER_OPS["k"]),
                  w(rewrite.infer_kind), w(verify.normalize)]))
""")
        self.assertEqual(json.loads(out), [True] * 8)

    def test_missing_function_reports_zero_with_note(self):
        out = python(SCRIPT_HEAD + """
import tracer
tracer.TARGETS = tracer.TARGETS + (("kinds", ("no_such_function",)), ("gone", ("f",)))
t = tracer.Tracer()
t.install()
print(json.dumps(t.summary()))
""")
        summary = json.loads(out)
        self.assertTrue(any("no_such_function" in n for n in summary["notes"]))
        self.assertTrue(any("topomonoid.gone" in n for n in summary["notes"]))
        self.assertEqual(summary["functions"]["kinds.infer_kind"]["calls"], 0)


class CoverageTest(unittest.TestCase):
    def test_workload_coverage(self):
        for workload, (called, not_called) in COVERAGE.items():
            with self.subTest(workload=workload):
                fns = traced_summary(workload)["functions"]
                self.assertEqual([n for n in called if fns[n]["calls"] == 0], [])
                self.assertEqual([n for n in not_called if fns[n]["calls"] != 0], [])

    def test_call_counts_repeat_exactly(self):
        for workload in ("eval-cold", "rewrite-sweep"):
            with self.subTest(workload=workload):
                a, b = traced_summary(workload), traced_summary(workload)
                calls = lambda s: {n: r["calls"] for n, r in s["functions"].items()}
                self.assertEqual(calls(a), calls(b))
                self.assertEqual(a["letters_applied"], b["letters_applied"])


GATE_SCRIPT = SCRIPT_HEAD + """
{mutation}
inputs = child.{inputs}
result = child.{work}(inputs)
attempted, failed, problems, _ = child.{check}(inputs, result)
print(json.dumps([attempted, failed, problems]))
"""

DROP_BASE_RULE = """
from topomonoid import rules
rules.BASE = rules.AxiomSystem("BASE", tuple(r for r in rules.BASE.rules if r.lhs != "kid"),
                               rules.BASE.schemas)
"""

PERTURB_CLOSURE = """
from topomonoid import realsets
_closure = realsets.closure
def closure(s):
    out = _closure(s)
    return realsets.union(out, realsets.point(100)) if not out.is_empty() else out
realsets.closure = closure
realsets._LETTER_OPS["k"] = closure
"""


def gate(inputs: str, work: str, check: str, mutation: str = "") -> list:
    return json.loads(python(GATE_SCRIPT.format(
        mutation=mutation, inputs=inputs, work=work, check=check)))


class GateTest(unittest.TestCase):
    SWEEP = ("sweep_inputs(0, max_len=3)", "sweep_work", "sweep_check")
    EVAL = ("eval_inputs(1, n_sets=150)", "eval_work", "eval_check")

    def test_sweep_gate_passes_and_catches_a_dropped_rule(self):
        attempted, failed, problems = gate(*self.SWEEP)
        self.assertEqual((failed, problems), (0, []))
        self.assertEqual(attempted, 2 * 156 + 9)
        attempted, failed, problems = gate(*self.SWEEP, mutation=DROP_BASE_RULE)
        self.assertGreater(failed, 0)
        self.assertTrue(any("BASE normal forms" in p for p in problems))

    def test_eval_gate_passes_and_catches_a_perturbed_operator(self):
        attempted, failed, problems = gate(*self.EVAL)
        self.assertEqual((attempted, failed, problems), (1500, 0, []))
        attempted, failed, problems = gate(*self.EVAL, mutation=PERTURB_CLOSURE)
        self.assertGreater(failed, 0)

    def test_verify_gate_passes(self):
        attempted, failed, problems = gate(
            "verify_inputs(0, corpus_size=30)", "verify_work", "verify_check")
        self.assertEqual((attempted, failed, problems), (13, 0, []))

    def test_cli_expected_outputs_are_committed(self):
        import child
        for name, _argv in child.CLI_COMMANDS:
            self.assertTrue(child.cli_expected(name).strip(), name)


class MetricsTest(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        xs = list(range(1, 101))
        value, pct, n = run.tail(xs)
        self.assertEqual((value, n), (90, 100))
        self.assertEqual(sum(x > value for x in xs), 10)
        self.assertEqual(pct, 90.0)
        self.assertEqual(run.tail([3, 1, 2]), (3, 100.0, 3))

    def fake_traced(self):
        functions = {n: {"calls": 1, "self_s": 0.1, "total_s": 0.2} for n in TARGET_NAMES}
        trace = {"functions": functions, "letters_applied": 10,
                 "sym_apply_from_apply_word": 5, "undecidable": 0,
                 "attributed_s": 0.9, "notes": []}
        return {"work_s": 1.0, "work_raw_s": 1.0, "import_s": 0.05, "trace": trace}

    def test_metric_names_match_benchmark_json(self):
        spec = run.load_spec()
        rep = {"work_s": 2.0, "ops": 4, "ops_s": 1.0, "lat": [0.25] * 4,
               "rss_mb": 30.0}
        e2e, _ = run.end_to_end([rep], [0.1])
        self.assertEqual([m["name"] for m in spec["end_to_end"] if m["name"] not in e2e], [])
        layer, detail = run.per_layer([self.fake_traced()], [{"work_s": 0.5, "work_raw_s": 0.5}])
        self.assertEqual([m["name"] for m in spec["per_layer"] if m["name"] not in layer], [])
        self.assertEqual(layer["trace.overhead_ratio"], 2.0)
        self.assertEqual(layer["vitali.sym_apply_per_letter"], 0.5)
        self.assertAlmostEqual(layer["trace.unattributed_share"], 0.1)
        self.assertAlmostEqual(layer["cli.main.self_share"], 0.1)

    def test_merge_sums_a_cli_cycle(self):
        traces = [self.fake_traced()["trace"] for _ in range(6)]
        traces[0]["notes"] = ["a note"]
        merged = run.merge_traces(traces)
        self.assertEqual(merged["functions"]["cli.main"]["calls"], 6)
        self.assertAlmostEqual(merged["functions"]["cli.main"]["self_s"], 0.6)
        self.assertEqual((merged["letters_applied"], merged["notes"]), (60, ["a note"]))

    def test_run_budget_follows_the_run_length(self):
        runner = run.Runner(300 + run.BUDGET_MARGIN_S)
        self.assertGreater(runner.deadline - run.time.monotonic(), 300)


class DiffTest(unittest.TestCase):
    def record(self, seed, value, correct=True, raw=None):
        return {"workload": "eval-cold", "trace": 0, "facts": {"seed": seed},
                "correct": correct,
                "metrics": {"wall_s": {"value": value, "unit": "s"}},
                "all_values": {"wall_s": value, "op_tail_ms": 2 * value},
                "raw": {"work_raw_s": [value if raw is None else raw] * 3}}

    def test_regression_beyond_bound(self):
        spec = {"wall_s": {"name": "wall_s", "better": "lower", "bound": 0.1}}
        base = [self.record(0, 1.0)]
        lines, bad = diff.compare(base, [self.record(0, 1.05)], spec)
        self.assertFalse(bad)
        lines, bad = diff.compare(base, [self.record(0, 1.2)], spec)
        self.assertTrue(bad)
        self.assertIn("REGRESSION", lines[0])
        self.assertIn("op_tail_ms", lines[1])
        lines, bad = diff.compare(base, [self.record(0, 1.0, correct=False)], spec)
        self.assertTrue(bad)

    def test_raw_change_hidden_by_the_conversion_is_flagged(self):
        spec = {"wall_s": {"name": "wall_s", "better": "lower", "bound": 0.1}}
        base = [self.record(0, 1.0)]
        lines, _ = diff.compare(base, [self.record(0, 1.02, raw=1.05)], spec)
        self.assertIn("raw.work_raw_s", lines[-1])
        self.assertNotIn("UNRESOLVED", lines[-1])
        lines, bad = diff.compare(base, [self.record(0, 1.0, raw=1.3)], spec)
        self.assertIn("UNRESOLVED", lines[-1])
        self.assertFalse(bad)

    def test_files_round_trip(self):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            for side, value in (("a", 1.0), ("b", 0.5)):
                Path(tmp, side).mkdir()
                Path(tmp, side, "r.json").write_text(json.dumps(self.record(0, value)))
            self.assertEqual(diff.main([str(Path(tmp, "a")), str(Path(tmp, "b"))]), 0)


if __name__ == "__main__":
    unittest.main()
