"""Run one schramsey CLI job in this (fresh) interpreter.

    python3 bench/child.py ARGV...

Behaves like `python3 -m schramsey.cli ARGV...`, and in addition writes
one line `bench-import-done <time.monotonic()>` to stderr once
`schramsey.cli` is imported, so the parent can time interpreter start
plus import on the same clock.  With BENCH_SPANS=<path> in the
environment the layer modules are traced and the spans, labelled with
the job id in BENCH_JOB, are written to <path> when the job ends.
"""

import os
import sys
import time

import schramsey.cli as cli

sys.stderr.write(f"bench-import-done {time.monotonic()!r}\n")
sys.stderr.flush()

spans_path = os.environ.get("BENCH_SPANS")
if spans_path:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer

    tracer = Tracer(os.environ.get("BENCH_JOB", "job"))
    tracer.install()
    try:
        code = tracer.run("bench.job", cli.main, sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.dump(spans_path)
else:
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
sys.stdout.flush()
sys.exit(code)
