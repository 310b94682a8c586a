"""Child process of the benchmark; the only place the package is imported.

    child.py batch QUERIES RESULTS [TRACE] [--tracemalloc]
        Answer each query of the JSON list QUERIES by calling
        ``hurwitz.cli.main`` in this process, one after the other.  One JSON
        line per answer (exit code, payload, seconds) is appended to RESULTS
        and flushed at once, so a run killed by the watchdog still shows
        which queries finished.  With TRACE, the tracing wrappers are
        installed first and their record is written there at the end.  With
        --tracemalloc, each line also carries the traced allocation peak.

    child.py launch TRACE -- ARGS...
        Behave as ``python -m hurwitz.cli ARGS...`` with the tracing wrappers
        installed, then write their record to TRACE.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import tracemalloc

from tracer import Tracer


def batch(queries_path, results_path, trace_path=None, malloc=False) -> int:
    with open(queries_path, encoding="utf-8") as handle:
        queries = json.load(handle)
    tracer = Tracer() if trace_path else None
    if tracer:
        tracer.install()
    import hurwitz.cli as cli

    with open(results_path, "w", encoding="utf-8") as out:
        for i, argv in enumerate(queries):
            if tracer:
                tracer.request = i
            buf = io.StringIO()
            line = {"i": i}
            if malloc:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    line["code"] = cli.main(argv)
            except Exception as exc:  # a failed query must not stop the batch
                line["error"] = f"{type(exc).__name__}: {exc}"
            line["elapsed"] = time.perf_counter() - t0
            if malloc:
                line["malloc_peak"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            line["payload"] = buf.getvalue()
            out.write(json.dumps(line) + "\n")
            out.flush()
    if tracer:
        tracer.dump(trace_path)
    return 0


def launch(trace_path, args) -> int:
    tracer = Tracer()
    tracer.install()
    import hurwitz.cli as cli

    try:
        return cli.main(args)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path)


def main(argv) -> int:
    if argv[:1] == ["batch"] and len(argv) >= 3:
        rest = [a for a in argv[1:] if a != "--tracemalloc"]
        return batch(*rest[:3], malloc="--tracemalloc" in argv)
    if argv[:1] == ["launch"] and len(argv) >= 3 and argv[2] == "--":
        return launch(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
