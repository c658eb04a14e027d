"""Every function the benchmark tracer wraps, and every function a per-layer
metric of the benchmark names, resolves in the package, but for the four
stale names the benchmark's repair is to drop or rename.

A rename or deletion of a traced function then fails here, in the same
change, instead of reading as a zero span in a later traced run."""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
BENCHMARK = ROOT / "BENCHMARK.json"

# Names in tracer.TARGETS that no longer resolve: the benchmark's own
# repair is to empty this set.
KNOWN_STALE = {"kinds.infer_kind", "rewrite.validate_rules", "rewrite.validate_schemas",
               "poset.corpus_relation"}

# The per-layer metrics read off one traced function's spans.
SPAN_METRICS = (".calls", ".self_share", ".total_share")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(mod: str, fn: str) -> bool:
    try:
        module = importlib.import_module(f"topomonoid.{mod}")
    except ModuleNotFoundError:
        return False
    return callable(getattr(module, fn, None))


def test_every_traced_name_resolves_but_the_known_stale_ones():
    tracer = _tracer()
    unresolved = {f"{mod}.{fn}" for mod, fns in tracer.TARGETS for fn in fns
                  if not _resolves(mod, fn)}
    assert unresolved == KNOWN_STALE


def test_every_per_layer_span_name_resolves_but_the_known_stale_ones():
    metrics = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    spans = {name.rsplit(".", 1)[0] for name in metrics if name.endswith(SPAN_METRICS)}
    assert spans
    unresolved = {span for span in spans if not _resolves(*span.split("."))}
    assert unresolved == KNOWN_STALE
