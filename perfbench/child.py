"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD --seed N --mode setup|run|trace

The set-up clock starts on the first statement, before the package is
imported, so `setup_s` is the package import plus input generation: what a
user pays in every process before any work.  `run` then times the work,
gates its output against the committed references and prints one JSON
line.  `trace` does the same under the per-layer tracer.  The work and the
checks live in functions that take their sizes as arguments, so the
self-test can run them small.  cli-cold has only a set-up here: its
commands run as CLI processes under cli_child.py.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"

# verify-default: the corpus seed a user gets by default, then one disjoint
# block of corpus seeds per benchmark seed.
VERIFY_SEED0 = 1729
VERIFY_CORPUS = 1000
VERIFY_CHECK_IDS = (
    "1-monoid-cardinalities", "2-even-figure", "3-distinctness", "4-vitali-table",
    "5a-d-operator-laws", "5b-baire-equalities", "5c-baire-failures-on-vitali",
    "6-rule-validation", "7-completion", "8-poset", "9-parity", "10-rewrite-semantics",
)

# rewrite-sweep: every word over the five letters up to this length.
SWEEP_LETTERS = "kicdf"
SWEEP_MAX_LEN = 6
# The hand-written counts of the paper, kept here rather than imported so
# that an edit to the package's own table cannot pass the gate.
EXPECTED_COUNTS = (
    ("kc", "BASE", 14), ("kcd", "BASE", 22), ("kcd", "PB", 18),
    ("ki", "BASE", 7), ("kid", "BASE", 9), ("kcf", "BASE", 34),
    ("kifd", "BASE", 20), ("kcfd", "PB", 40), ("kcfd", "BASE", 46),
)

# eval-cold: a committed pool of sets, each with its own ten words; a seed
# draws EVAL_SETS of them.  Pool set j is random_tame(EVAL_SET_SEED0 + j, 8),
# far from verify's corpus seeds.
EVAL_POOL = 6000
EVAL_SETS = 2000
EVAL_SET_SEED0 = 5_000_000
EVAL_CELLS = 8
EVAL_WORDS = 10
EVAL_MAX_WORD = 12

# cli-cold: one cycle of commands; the seed rotates where the cycle starts.
CLI_COMMANDS = (
    ("normalize", "normalize kid"),
    ("enumerate", "enumerate --gens kcfd"),
    ("eval", "eval d --witness A22"),
    ("distinguish", "distinguish --witness A22 --gens kcd"),
    ("poset", "poset"),
    ("table", "table kfd-counts"),
)


def import_package():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "topomonoid" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'topomonoid'}")
    sys.path.insert(0, str(SRC))
    import topomonoid
    import topomonoid.cli  # noqa: F401  (the CLI layer is part of the package import)
    if Path(topomonoid.__file__).resolve().parent != SRC / "topomonoid":
        raise SystemExit(f"perfbench: imported topomonoid from {topomonoid.__file__}")
    return topomonoid


# -- verify-default ----------------------------------------------------------


def verify_inputs(seed: int, corpus_size: int = VERIFY_CORPUS):
    return {"corpus_size": corpus_size, "seed": VERIFY_SEED0 + 1000 * seed}


def verify_work(inputs):
    from topomonoid.verify import run_verify
    t = time.perf_counter()
    report = run_verify(inputs["corpus_size"], inputs["seed"])
    window = (t, time.perf_counter())
    return {"report": report, "lat": [window[1] - t], "ops": 1,
            "work": window, "ops_window": window}


def verify_check(inputs, result):
    """One operation per expected check id, plus one for the typo ledger."""
    import json
    report = result["report"]
    status = {c.id: c.status for c in report.checks}
    problems = [f"{c.id} failed: {c.details}" for c in report.checks if c.status != "pass"]
    problems += [f"check {cid} missing" for cid in VERIFY_CHECK_IDS if cid not in status]
    ledger = json.loads((REFERENCE / "typo_ledger.json").read_text(encoding="utf-8"))
    ledger_ok = [dict(t) for t in report.typo_ledger] == ledger
    if not ledger_ok:
        problems.append("typo ledger differs from the committed copy")
    if not report.ok:
        problems.append("report.ok is false")
    failed = sum(status.get(cid) != "pass" for cid in VERIFY_CHECK_IDS) + (not ledger_ok)
    return len(VERIFY_CHECK_IDS) + 1, failed, problems, {}


# -- rewrite-sweep -------------------------------------------------------------


def sweep_words(max_len: int = SWEEP_MAX_LEN, letters: str = SWEEP_LETTERS):
    words = [""]
    layer = [""]
    for _ in range(max_len):
        layer = [ch + w for w in layer for ch in letters]
        words += layer
    return words


def sweep_inputs(seed: int, max_len: int = SWEEP_MAX_LEN):
    import random
    words = sweep_words(max_len)
    random.Random(f"rewrite-sweep:{seed}").shuffle(words)
    return {"words": words}


def sweep_work(inputs):
    from topomonoid.monoid import enumerate_monoid
    from topomonoid.rewrite import completion_check, normalize
    from topomonoid.rules import get_axioms

    words = inputs["words"]
    clock = time.perf_counter
    lat = []
    forms = {}
    t_start = clock()
    for ax_name in ("BASE", "PB"):
        ax = get_axioms(ax_name)
        out = forms[ax_name] = []
        for w in words:
            t = clock()
            out.append(normalize(w, ax))
            lat.append(clock() - t)
    t_normalized = clock()
    monoids = []
    for gens, ax_name, _expected in EXPECTED_COUNTS:
        ax = get_axioms(ax_name)
        size = len(enumerate_monoid(gens, ax).elements)
        report = completion_check(ax, gens)
        monoids.append((gens, ax_name, size, report.ok, report.size))
    return {"forms": forms, "monoids": monoids, "lat": lat, "ops": len(lat),
            "work": (t_start, clock()), "ops_window": (t_start, t_normalized)}


def sweep_digests(words, forms):
    """sha256 of the sorted (word, normal form) pairs, per axiom system and length."""
    import hashlib
    out = {}
    for ax_name, nfs in forms.items():
        by_len = {}
        for w, nf in sorted(zip(words, nfs)):
            by_len.setdefault(len(w), []).append(f"{w}\t{nf}\n")
        out[ax_name] = {str(n): hashlib.sha256("".join(lines).encode()).hexdigest()
                        for n, lines in sorted(by_len.items())}
    return out


def sweep_check(inputs, result):
    import json
    ref = json.loads((REFERENCE / "rewrite_sweep.json").read_text(encoding="utf-8"))
    words = inputs["words"]
    sizes = {}
    for w in words:
        sizes[len(w)] = sizes.get(len(w), 0) + 1
    problems = []
    failed = 0
    for ax_name, got in sweep_digests(words, result["forms"]).items():
        for length, digest in got.items():
            if ref["digests"][ax_name].get(length) != digest:
                problems.append(f"{ax_name} normal forms of length {length} differ")
                failed += sizes[int(length)]
    for (gens, ax_name, size, ok, closed), (_, _, expected) in zip(
            result["monoids"], EXPECTED_COUNTS):
        if size != expected or not ok or closed != expected:
            problems.append(f"<{gens}> {ax_name}: {size} elements, completion ok={ok} "
                            f"at {closed}, expected {expected}")
            failed += 1
    return len(words) * 2 + len(EXPECTED_COUNTS), failed, problems, {}


# -- eval-cold ------------------------------------------------------------------


def eval_item(j: int):
    """Pool item j: its set (a third each tame/plusV/minusV) and its ten words."""
    import random
    from topomonoid.corpus import random_tame
    from topomonoid.vitali import minus_v, plus_v, tame

    base = random_tame(EVAL_SET_SEED0 + j, EVAL_CELLS)
    s = (tame, plus_v, minus_v)[j % 3](base)
    rng = random.Random(f"eval-cold-words:{j}")
    words = ["".join(rng.choice(SWEEP_LETTERS) for _ in range(rng.randint(1, EVAL_MAX_WORD)))
             for _ in range(EVAL_WORDS)]
    return s, words


def eval_inputs(seed: int, n_sets: int = EVAL_SETS):
    import random
    items = random.Random(f"eval-cold:{seed}").sample(range(EVAL_POOL), n_sets)
    return {"items": items, "sets": [eval_item(j) for j in items]}


def eval_work(inputs):
    from topomonoid.vitali import Undecidable, apply_word, sym_subset

    clock = time.perf_counter
    lat = []
    images = []
    subsets = []
    t_start = clock()
    for s, words in inputs["sets"]:
        imgs = []
        for w in words:
            t = clock()
            try:
                img = apply_word(w, s)
            except Undecidable:
                img = None
            lat.append(clock() - t)
            imgs.append(img)
        rel = []
        for a, b in zip(imgs, imgs[1:]):
            if a is None or b is None:
                rel.append("-")
                continue
            try:
                rel.append("T" if sym_subset(a, b) else "F")
            except Undecidable:
                rel.append("U")
        images.append(imgs)
        subsets.append("".join(rel))
    window = (t_start, clock())
    return {"images": images, "subsets": subsets, "lat": lat, "ops": len(lat),
            "work": window, "ops_window": window}


def eval_item_digest(imgs, rel):
    """(12-hex digest, undecidable count) of one pool item's outcomes."""
    import hashlib
    from topomonoid.vitali import render_symbolic
    rendered = ["U" if img is None else render_symbolic(img) for img in imgs]
    text = "\n".join(rendered) + "\n" + rel
    undecidable = rendered.count("U") + rel.count("U")
    return hashlib.sha256(text.encode()).hexdigest()[:12], undecidable


def eval_reference():
    lines = (REFERENCE / "eval_cold_pool.txt").read_text(encoding="utf-8").split()
    return [(lines[2 * j], int(lines[2 * j + 1])) for j in range(len(lines) // 2)]


def eval_check(inputs, result):
    ref = eval_reference()
    problems = []
    failed = 0
    undecidable = expected_undecidable = 0
    for j, imgs, rel in zip(inputs["items"], result["images"], result["subsets"]):
        digest, n_undec = eval_item_digest(imgs, rel)
        undecidable += n_undec
        expected_undecidable += ref[j][1]
        if digest != ref[j][0]:
            failed += len(imgs)
            if len(problems) < 5:
                problems.append(f"pool item {j}: outcomes differ from the reference")
    if undecidable != expected_undecidable:
        problems.append(f"{undecidable} Undecidable outcomes, expected {expected_undecidable}")
    return result["ops"], failed, problems, {"undecidable": undecidable}


# -- cli-cold ---------------------------------------------------------------------


def cli_cycle(seed: int):
    start = seed % len(CLI_COMMANDS)
    return CLI_COMMANDS[start:] + CLI_COMMANDS[:start]


def cli_expected(name: str) -> str:
    return (REFERENCE / "cli" / f"{name}.out").read_text(encoding="utf-8")


# -- process protocol -------------------------------------------------------------


def _setup(args):
    """(inputs, end of the package import): the import, then the workload's inputs."""
    import_package()
    t_import = time.perf_counter()
    return INPUTS[args.workload](args.seed), t_import


INPUTS = {
    "verify-default": verify_inputs,
    "rewrite-sweep": sweep_inputs,
    "eval-cold": eval_inputs,
    "cli-cold": cli_cycle,
}

WORK = {
    "verify-default": (verify_work, verify_check),
    "rewrite-sweep": (sweep_work, sweep_check),
    "eval-cold": (eval_work, eval_check),
}


def main(argv=None) -> int:
    import argparse
    import json
    import resource

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=tuple(INPUTS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = p.parse_args(argv)
    if args.mode != "setup" and args.workload not in WORK:
        p.error(f"{args.workload} runs its work under cli_child.py; only --mode setup here")

    sampler = speed.Sampler()
    sampler.start()
    inputs, t_import = _setup(args)
    t_ready = time.perf_counter()
    # Every time is read at the reference core speed; see speed.py.
    out = {"setup_s": sampler.reference(_T0, t_ready)[0],
           "import_s": sampler.reference(_T0, t_import)[0],
           "setup_raw_s": t_ready - _T0}
    if args.mode != "setup":
        work, check = WORK[args.workload]
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        result = work(inputs)
        if tracer is not None:
            out["trace"] = tracer.summary()
        out["work_s"], out["speed_factor"] = sampler.reference(*result["work"])
        out["ops_s"] = sampler.reference(*result["ops_window"])[0]
        out["work_raw_s"] = result["work"][1] - result["work"][0]
        out["ops"] = result["ops"]
        # Operations are too short to sample one by one: they share the
        # window's conversion, kernel time included.
        scale = out["work_s"] / out["work_raw_s"]
        out["lat"] = [x * scale for x in result["lat"]]
        attempted, failed, problems, extra = check(inputs, result)
        out.update(attempted=attempted, failed=failed, problems=problems, **extra)
    sampler.stop()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
