"""Per-layer spans recorded from outside the topomonoid package.

`Tracer.install` replaces every binding of each target function -- the
module attribute where it is defined, every module that imported it by
name (``verify.apply_word``, ``poset.apply_word``, ...) and module-level
dict tables such as ``realsets._LETTER_OPS`` -- with a wrapper that
records one span per call.

Spans are aggregated per (name, parent name) as they close, so hundreds of
thousands of calls cost a few dict entries.  A span's self time is its
duration minus the durations of its direct child spans; the spans with no
wrapped parent hang off a root frame, so the self times of all spans plus
the root's unattributed time add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "topomonoid"
ROOT_FRAME = "<root>"

# module -> public functions wrapped in the traced run.  The layers, bottom
# to top: realsets, vitali, kinds/rewrite, monoid, poset/corpus, verify, cli.
TARGETS = (
    ("realsets", ("closure", "interior", "complement", "second_category",
                  "frontier", "union", "intersect", "is_subset")),
    ("vitali", ("sym_apply", "apply_word", "sym_equal", "sym_subset",
                "sym_union", "sym_intersect", "distinguish")),
    ("kinds", ("infer_kind",)),
    ("rewrite", ("normalize", "validate_rules", "validate_schemas",
                 "completion_check")),
    ("monoid", ("enumerate_monoid",)),
    ("corpus", ("build_corpus", "random_tame")),
    ("poset", ("proved_relation", "corpus_relation")),
    ("verify", ("run_verify", "check_cardinalities", "check_even_figure",
                "check_distinctness", "check_vitali_table",
                "check_property_suites", "check_rule_validation",
                "check_completion", "check_poset", "check_parity",
                "check_rewrite_semantics")),
    ("cli", ("main",)),
)

TARGET_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS for fn in fns)


def self_time(duration: float, child_durations) -> float:
    """Time a span spent outside its direct children."""
    return duration - sum(child_durations)


class Tracer:
    """Span aggregation for one process.  Not thread-safe: the package is
    single-threaded and so is every benchmark child."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # (name, parent) -> [calls, duration_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}
        # name -> summed duration of its outermost spans (recursion counted once)
        self.outer: dict[str, float] = {}
        self._depth: dict[str, int] = {}
        self._stack = [[ROOT_FRAME, 0.0]]  # frames: [name, child_duration_s]
        self.letters_applied = 0
        self.undecidable = 0
        self.notes: list[str] = []
        self._undecidable_type = None

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        clock = self.clock
        stack = self._stack
        edges = self.edges
        outer = self.outer
        depth = self._depth
        count_letters = name == "vitali.apply_word"
        in_vitali = name.startswith("vitali.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_letters:
                self.letters_applied += sum(ch not in "01" for ch in args[0])
            frame = [name, 0.0]
            stack.append(frame)
            level = depth.get(name, 0)
            depth[name] = level + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if (in_vitali and self._undecidable_type is not None
                        and isinstance(exc, self._undecidable_type)
                        and not stack[-2][0].startswith("vitali.")):
                    self.undecidable += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += duration
                rec = edges.get((name, parent[0]))
                if rec is None:
                    rec = edges[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += self_time(duration, (frame[1],))
                depth[name] = level
                if level == 0:
                    outer[name] = outer.get(name, 0.0) + duration

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self) -> None:
        """Wrap every target at every binding site among loaded package modules."""
        for mod_name, fns in TARGETS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.notes.append(f"module {PACKAGE}.{mod_name} not found; "
                                  f"its functions report zero calls")
                continue
            for fn_name in fns:
                original = getattr(mod, fn_name, None)
                if original is None:
                    self.notes.append(f"{mod_name}.{fn_name} not found; reports zero calls")
                    continue
                self._rebind(original, self.wrap(f"{mod_name}.{fn_name}", original))
        vitali = sys.modules.get(f"{PACKAGE}.vitali")
        self._undecidable_type = getattr(vitali, "Undecidable", None)

    @staticmethod
    def _rebind(original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is original:
                            value[key] = wrapper

    # -- reporting ---------------------------------------------------------

    def attributed_s(self) -> float:
        """Summed duration of the outermost spans: the traced wall time minus
        this is the time spent in no wrapped function."""
        return self._stack[0][1]

    def summary(self) -> dict:
        """calls / self_s / total_s per target name, plus the vitali counters."""
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in TARGET_NAMES}
        for (name, _parent), (calls, _dur, self_s) in self.edges.items():
            rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            rec["calls"] += calls
            rec["self_s"] += self_s
        for name, total in self.outer.items():
            out[name]["total_s"] = total
        misses = self.edges.get(("vitali.sym_apply", "vitali.apply_word"), [0])[0]
        return {
            "functions": out,
            "edges": [[n, p, c, d, s] for (n, p), (c, d, s) in sorted(self.edges.items())],
            "attributed_s": self.attributed_s(),
            "letters_applied": self.letters_applied,
            "sym_apply_from_apply_word": misses,
            "undecidable": self.undecidable,
            "notes": self.notes,
        }
