"""Regenerate the committed correctness references under perfbench/reference/.

    python3 perfbench/make_reference.py

The references are snapshots of the outputs at the commit that introduced
the benchmark, whose `topomonoid verify` passes; regenerate them only when
an output is meant to change, and say so in the change that does it.
They cover every seed: rewrite-sweep's words do not depend on the seed,
eval-cold draws from a fixed pool and cli-cold runs fixed commands.
"""

import json
import os
import subprocess
import sys

import child

REF = child.REFERENCE


def main() -> int:
    child.import_package()
    from topomonoid.rules import TYPO_LEDGER

    (REF / "cli").mkdir(parents=True, exist_ok=True)
    (REF / "typo_ledger.json").write_text(
        json.dumps([dict(t) for t in TYPO_LEDGER], indent=1) + "\n", encoding="utf-8")

    inputs = child.sweep_inputs(0)
    result = child.sweep_work(inputs)
    digests = child.sweep_digests(inputs["words"], result["forms"])
    (REF / "rewrite_sweep.json").write_text(json.dumps({
        "max_len": child.SWEEP_MAX_LEN, "letters": child.SWEEP_LETTERS,
        "digests": digests}, indent=1) + "\n", encoding="utf-8")

    lines = []
    for j in range(child.EVAL_POOL):
        s, words = child.eval_item(j)
        res = child.eval_work({"sets": [(s, words)]})
        digest, undecidable = child.eval_item_digest(res["images"][0], res["subsets"][0])
        lines.append(f"{digest} {undecidable}\n")
    (REF / "eval_cold_pool.txt").write_text("".join(lines), encoding="utf-8")

    env = dict(os.environ, PYTHONPATH=str(child.SRC))
    for name, argv in child.CLI_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "topomonoid.cli", *argv.split()],
                              env=env, capture_output=True, text=True, check=True,
                              cwd=child.ROOT)
        (REF / "cli" / f"{name}.out").write_text(proc.stdout, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
