"""Every function the benchmark tracer wraps resolves in the package, but
for the four stale names the benchmark's repair is to drop or rename.

A rename or deletion of a traced function then fails here, in the same
change, instead of reading as a zero span in a later traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Names in tracer.TARGETS that no longer resolve: the benchmark's own
# repair is to empty this set.
KNOWN_STALE = {"kinds.infer_kind", "rewrite.validate_rules", "rewrite.validate_schemas",
               "poset.corpus_relation"}


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
