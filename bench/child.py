"""One pass of a workload inside a fresh interpreter; started by run.py.

    child.py pass WORKLOAD SEED [TRACE_OUT]
        Run one pass of tree_series or point_queries and print its result
        as one JSON line.  With TRACE_OUT, wrap the package's public
        functions first and write the spans there.

    child.py cli TRACE_OUT ARGS...
        Run the markovfrac CLI in-process with tracing on.  Its output goes
        to stdout unchanged; the spans are written to TRACE_OUT and the
        per-layer summary to TRACE_OUT.summary.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _import_package() -> float:
    t0 = perf_counter()
    import markovfrac
    import markovfrac.cli  # noqa: F401
    elapsed = perf_counter() - t0
    source = Path(markovfrac.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"markovfrac was imported from {source}, not from this checkout")
    return elapsed


def _tracer(trace_out):
    if trace_out is None:
        return None
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


def _finish(tracer, trace_out, import_s: float) -> dict:
    from markovfrac import slopes
    summary = tracer.summary(slopes)
    summary["cli.import_s"] = import_s
    tracer.dump(trace_out)
    return summary


def main(argv: list[str]) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)   # canonical outputs print deep-tree integers
    mode = argv[0]
    if mode == "pass":
        workload, seed = argv[1], int(argv[2])
        trace_out = argv[3] if len(argv) > 3 else None
        import_s = _import_package()
        tracer = _tracer(trace_out)
        import workloads
        run = {"tree_series": workloads.run_tree_series,
               "point_queries": workloads.run_point_queries}[workload]
        result = run(seed)
        from markovfrac import slopes
        cache = getattr(slopes, "_EPS_CACHE", None)
        result["eps_cache_entries"] = len(cache) if cache is not None else 0
        if tracer is not None:
            result["trace"] = _finish(tracer, trace_out, import_s)
        print(json.dumps(result))
        return 0
    if mode == "cli":
        trace_out = argv[1]
        import_s = _import_package()
        t0 = perf_counter()
        tracer = _tracer(trace_out)
        bookkeeping = perf_counter() - t0
        from markovfrac import cli
        code = cli.main(argv[2:])
        sys.stdout.flush()
        t0 = perf_counter()
        summary = _finish(tracer, trace_out, import_s)
        # Tracer set-up and span output, which a user's process never pays.
        summary["trace.bookkeeping_s"] = bookkeeping + perf_counter() - t0
        with open(trace_out + ".summary", "w") as fh:
            json.dump(summary, fh)
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
