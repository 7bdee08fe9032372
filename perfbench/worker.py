"""Benchmark worker: one fresh single-threaded process per run.

Usage: worker.py SRC BASES [--setup-only]

SRC is the package's source directory and BASES the workload's base fields
as "p.m,p.m,...".  The worker first times its set-up (``import subcover``
plus ``field_new`` of each base field) and, with --setup-only, prints that
time and exits.  Otherwise it speaks JSON lines with run.py: it reads
the command list, then one request per pass, and answers each with the
worker's peak RSS, every command's exit code, wall and CPU time and
captured output, and, for a traced pass, the per-layer metrics.  Checking
outputs is the job of run.py, outside the timed region.
"""

import sys
from time import perf_counter, process_time


def _setup(src: str, bases) -> float:
    sys.path.insert(0, src)
    t0 = perf_counter()
    import subcover

    for p, m in bases:
        subcover.field_new(p, m)
    return perf_counter() - t0


def _caches():
    """The lru caches of the package's modules, by object identity."""
    import spans

    found = {}
    for mod in spans.package_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def reset(bases) -> None:
    """Bring the package back to its state right after set-up, so every
    pass builds its extension fields cold, as each CLI process does."""
    import subcover

    for cache in _caches():
        cache.cache_clear()
    for p, m in bases:
        subcover.field_new(p, m)


def field_misses() -> int:
    import subcover

    return sum(c.cache_info().misses for c in _caches()
               if getattr(c, "__module__", "") == subcover.gf.__name__)


def run_pass(commands, bases, recorder=None) -> dict:
    """Run every command once through ``cli.main``; with a recorder, under
    the span wrappers."""
    import contextlib
    import io
    import resource

    import spans
    import subcover.cli

    reset(bases)
    misses = field_misses()
    restore = spans.install(recorder) if recorder is not None else None
    main = subcover.cli.main
    results, walls = [], []
    try:
        for i, argv in enumerate(commands):
            if recorder is not None:
                recorder.cmd = i
            out, err = io.StringIO(), io.StringIO()
            c0, p0 = perf_counter(), process_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except Exception as exc:  # a crash is a failed command
                    code = f"{type(exc).__name__}: {exc}"
            walls.append(perf_counter() - c0)
            results.append([code, walls[-1], process_time() - p0,
                            out.getvalue(), err.getvalue()])
    finally:
        if restore is not None:
            restore()
    reply = {"results": results,
             "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        recorder.counts["gf.field_new.misses"] = field_misses() - misses
        reply["layers"] = spans.layer_metrics(recorder, walls)
    return reply


def serve(bases, setup_s: float) -> None:
    import json

    import spans

    proto = sys.stdout

    def send(doc):
        proto.write(json.dumps(doc) + "\n")
        proto.flush()

    send({"setup_s": setup_s})
    config = json.loads(sys.stdin.readline())
    commands = config["commands"]
    last_traced = None
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("stop"):
            break
        recorder = spans.Recorder() if request["trace"] else None
        send(run_pass(commands, bases, recorder))
        if recorder is not None:
            last_traced = recorder
    if last_traced is not None and config.get("spans_path"):
        with open(config["spans_path"], "w") as handle:
            handle.write(json.dumps({"fields": spans.Span.__slots__}) + "\n")
            for span in last_traced.spans:
                handle.write(json.dumps(span.row()) + "\n")


def main(argv) -> int:
    src, bases_arg = argv[0], argv[1]
    bases = [tuple(int(x) for x in b.split(".")) for b in bases_arg.split(",")]
    setup_s = _setup(src, bases)
    if "--setup-only" in argv[2:]:
        print(setup_s)
        return 0
    serve(bases, setup_s)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
