"""One topomonoid CLI command, with the core-speed sampler running.

    python3 perfbench/cli_child.py [--trace] normalize kid

Runs what `python -m topomonoid.cli ARGS` runs: it imports topomonoid.cli
and exits with `main(ARGS)`, so stdout and the exit code are the CLI's own.
With --trace the per-layer tracer wraps the package first.  The last
stderr line is a JSON object with the process's speed factor, its number
of speed samples, its max RSS and its import time, so the parent can read
the command's wall time at the reference speed (see speed.py); with
--trace it also holds the tracer's summary.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402

sampler = speed.Sampler(speed.CLI_INTERVAL_S)
sampler.start()
args = sys.argv[1:]
trace = args[:1] == ["--trace"]
if trace:
    args = args[1:]
from topomonoid import cli  # noqa: E402

t_import = time.perf_counter()
tracer = None
if trace:
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
try:
    code = cli.main(args)
except SystemExit as exc:
    code = 0 if exc.code is None else exc.code
sampler.stop()
sys.stdout.flush()
record = {"speed_factor": speed.speed_factor([d for _, d in sampler.samples]),
          "samples": len(sampler.samples),
          "import_s": sampler.reference(_T0, t_import)[0],
          "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
if tracer is not None:
    record["trace"] = tracer.summary()
print(json.dumps(record), file=sys.stderr)
sys.exit(code)
