"""markovfrac benchmark: seeded workloads, answer checks, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  The loop is closed: one caller, one operation at a
time, at most one child process alive.  Every pass runs in a fresh child
interpreter, so module-level caches start empty as they do for each CLI
user; passes repeat for about S seconds (at least two).

--trace 0 prints the end-to-end metrics, times scaled to a nominal host
speed by a host probe run between passes (raw values in the environment
block).  --trace 1 spends the first half
of the time on untraced passes and the second half on passes with every
public function wrapped (tracing.py), and prints the per-layer metrics.
The last line of stdout is one JSON object; the exit code is 1 when any
answer check failed or an answer changed between passes.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

WORKLOADS = ("tree_series", "point_queries", "verify_cli")
KINDS = tuple(workloads.QUERY_COUNTS)
# setup_s samples: some before the first pass and more after every untraced
# pass, so their median covers the whole run as job_s does.
SETUP_SPAWNS = 5
SETUP_SPAWNS_PER_PASS = 2
IMPORTING = [sys.executable, "-s", "-c", "import markovfrac"]
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
VERIFY_ARGS = ["verify", "--depth", str(workloads.VERIFY_DEPTH), "--format", "json"]
SUITES = tuple(workloads.VERIFY_COUNTS)
# Largest denominator in the depth-12 tree that verify_cli walks: 1274 bits.
VERIFY_BITS = 1274
# Host probe: the benchmark's own gcd-reduced tree walk to depth 14 (3337-bit
# operands, the same kind of work as the package) in a fresh interpreter,
# before the first pass and after every pass.  Host speed drifts by up to 30%
# over minutes and probe and passes drift together (README.md), so the
# end-to-end times are reported at the host speed where the probe takes
# HOST_PROBE_NOMINAL_S, its usual time on the machine this was written on.
HOST_PROBE = [sys.executable, "-s", "-c",
              f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
              "import workloads; workloads.tree_denominators(14)"]
HOST_PROBE_NOMINAL_S = 0.85
SCALED_TIMES = ("setup_s", "job_s", "query_p50_ms", "query_p99_ms")
SCALED_RATES = ("vertices_per_s", "queries_per_s")


class ChildFailed(Exception):
    pass


class _ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _ChildTimeout


def spawn(cmd: list[str], env: dict) -> tuple[int, str, str, float, float]:
    """Run cmd to its end: (exit code, stdout, stderr, wall seconds, its own max RSS in MB).

    The child is reaped with wait4, so its RSS is its own and not that of
    any other child of this run (the host probe uses more memory than some
    workloads).  Output goes through unlinked files under bench/out.
    """
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:   # the alarm, SIGTERM or an interrupt
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            if isinstance(exc, _ChildTimeout):
                raise ChildFailed(f"{cmd} ran past {CHILD_TIMEOUT_S} s") from None
            raise
        finally:
            signal.alarm(0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(errors="replace"),
                err.read().decode(errors="replace"), wall, usage.ru_maxrss / 1024)


def probe_host(env: dict) -> float:
    code, _, err, wall, _ = spawn(HOST_PROBE, env)
    if code != 0:
        raise ChildFailed(f"host probe failed:\n{err}")
    return wall


def time_setup(env: dict, count: int) -> list[float]:
    """Wall times of `count` fresh interpreters importing markovfrac."""
    return [spawn(IMPORTING, env)[3] for _ in range(count)]


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """First set-up samples, after a warm-up, and wall times of bare interpreters."""
    code, _, err, _, _ = spawn(IMPORTING, env)   # warm-up: writes bytecode caches
    if code != 0:
        raise ChildFailed(f"import markovfrac failed:\n{err}")
    bare = [spawn([sys.executable, "-s", "-c", "pass"], env)[3] for _ in range(3)]
    return time_setup(env, SETUP_SPAWNS), bare


def run_pass(workload: str, seed: int, env: dict, trace_path: Path | None) -> dict:
    """One pass in a fresh child; returns per-operation latencies and outputs."""
    child = [sys.executable, "-s", str(BENCH / "child.py")]
    if workload == "verify_cli":
        if trace_path is None:
            cmd = [sys.executable, "-s", "-m", "markovfrac", *VERIFY_ARGS]
        else:
            cmd = [*child, "cli", str(trace_path), *VERIFY_ARGS]
        code, out, err, wall, rss = spawn(cmd, env)
        if code != 0:
            print(err[-4000:], file=sys.stderr)
        failures = workloads.check_verify_output(code, out)
        result = {
            "names": ["verify"], "kinds": ["verify"], "latencies": [wall], "missed": [False],
            "outputs": [workloads.sha(out)], "failures": failures,
            "attempted": len(SUITES), "vertices": workloads.VERIFY_VERTICES,
            "max_operand_bits": VERIFY_BITS, "eps_cache_entries": None, "rss_mb": rss,
        }
        if trace_path is not None:
            with open(str(trace_path) + ".summary") as fh:
                trace = result["trace"] = json.load(fh)
            # The tracer's own set-up and span output are not part of the job.
            wall -= trace["trace.bookkeeping_s"]
            result["latencies"] = [wall]
            trace["cli.process_s"] = wall - trace["cli.main_s"]
        return result
    cmd = [*child, "pass", workload, str(seed)]
    if trace_path is not None:
        cmd.append(str(trace_path))
    code, out, err, _, rss = spawn(cmd, env)
    if code != 0 or not out.strip():
        raise ChildFailed(f"{workload} pass exited with {code}:\n{err[-4000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["attempted"] = len(result["latencies"])
    result["rss_mb"] = rss
    return result


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def latency_stats(passes: list[dict], kind: str | None = None) -> tuple[float, float, int]:
    """(p50 ms, p99 ms, samples per pass), each percentile a mean over passes.

    Within a pass, missed operations rank above every completed one.
    """
    p50s, p99s, n = [], [], 0
    for p in passes:
        done, missed = [], []
        for k, t, m in zip(p["kinds"], p["latencies"], p["missed"]):
            if kind is None or k == kind:
                (missed if m else done).append(t)
        ranked = sorted(done) + sorted(missed)
        if ranked:
            p50s.append(percentile(ranked, 0.50))
            p99s.append(percentile(ranked, 0.99))
            n = len(ranked)
    if not p50s:
        return 0.0, 0.0, 0
    return 1e3 * statistics.fmean(p50s), 1e3 * statistics.fmean(p99s), n


def compare_digests(passes: list[dict]) -> tuple[int, list[str]]:
    """(deadline flips, changed answers) between each pass and the first."""
    first = passes[0]
    flips, changed = 0, []
    for p in passes[1:]:
        for i, (a, b) in enumerate(zip(first["outputs"], p["outputs"])):
            if a == b:
                continue
            if first["missed"][i] or p["missed"][i]:
                flips += 1
            else:
                changed.append(f"operation {i} ({p['names'][i]}) changed its answer")
        if len(first["outputs"]) != len(p["outputs"]):
            changed.append("passes produced different numbers of outputs")
    return flips, changed


def end_to_end(passes: list[dict], setup: list[float], between: int) -> dict[str, float]:
    """End-to-end metrics; `between` counts failures found only by comparing passes.

    Per-pass values are averaged over the run's passes (rates are totals over
    total time).  On a shared host the pass times of one run are two-humped,
    so the median of a handful of passes jumps between the humps from run
    to run; the mean over the run does not.
    """
    jobs = [sum(p["latencies"]) for p in passes]
    done = [sum(1 for m in p["missed"] if not m) for p in passes]
    p50, p99, _ = latency_stats(passes)
    fails = [len(p["failures"]) + sum(p["missed"]) for p in passes]
    fails[-1] += between
    return {
        "setup_s": statistics.median(setup),
        "job_s": statistics.fmean(jobs),
        "vertices_per_s": sum(p["vertices"] for p in passes) / sum(jobs),
        "queries_per_s": sum(done) / sum(jobs),
        "query_p50_ms": p50,
        "query_p99_ms": p99,
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        # Rule-of-succession estimate (f + 1)/(n + 1) per pass, so a clean run
        # reads a small positive number rather than 0.
        "fail_ratio": statistics.fmean((f + 1) / (p["attempted"] + 1)
                                       for f, p in zip(fails, passes)),
    }


def at_nominal_speed(metrics: dict[str, float], probes: list[float]) -> dict[str, float]:
    """End-to-end metrics as they read where the host probe takes HOST_PROBE_NOMINAL_S."""
    scale = HOST_PROBE_NOMINAL_S / statistics.fmean(probes)
    out = dict(metrics)
    for name in SCALED_TIMES:
        out[name] *= scale
    for name in SCALED_RATES:
        out[name] /= scale
    return out


def per_layer(untraced: list[dict], traced: list[dict], probes: list[float]) -> dict[str, float]:
    out: dict[str, float] = {}
    keys = set()
    for p in traced:
        keys |= set(p["trace"])
    for key in sorted(keys):
        out[key] = statistics.median(p["trace"].get(key, 0.0) for p in traced)
    for suite in SUITES:
        out.setdefault(f"verify.{suite}_s", 0.0)
    out.setdefault("cli.process_s", 0.0)
    for kind in KINDS:
        p50, p99, _ = latency_stats(untraced, kind)
        out[f"query.{kind}_p50_ms"] = p50
        out[f"query.{kind}_p99_ms"] = p99
        out[f"query.{kind}_deadline_misses"] = statistics.median(
            sum(1 for k, m in zip(p["kinds"], p["missed"]) if m and k == kind) for p in untraced)
    out["query.deadline_misses"] = statistics.median(sum(p["missed"]) for p in untraced)
    out["host.calib_s"] = statistics.median(probes)
    out["trace.overhead_ratio"] = (statistics.median(sum(p["latencies"]) for p in traced)
                                   / statistics.median(sum(p["latencies"]) for p in untraced))
    return out


def past_budget(t0: float, passes: int, budget: float) -> bool:
    """True when one more pass would end nearer past the budget than now is before it.

    Runs then last about `budget` seconds on average instead of overrunning
    it by up to a pass, so a series of runs takes a predictable time.
    """
    spent = perf_counter() - t0
    return spent + 0.5 * spent / passes >= budget


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "markovfrac" / "__init__.py").is_file():
        print(f"error: no markovfrac package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Exit through spawn's handler, which kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONHOME", None)

    try:
        setup, bare = measure_setup(env)
        probes = [probe_host(env)]
        untraced, traced = [], []
        budget = args.seconds / 2 if args.trace else args.seconds
        t0 = perf_counter()
        while True:
            untraced.append(run_pass(args.workload, args.seed, env, None))
            setup += time_setup(env, SETUP_SPAWNS_PER_PASS)
            probes.append(probe_host(env))
            enough = len(untraced) >= (1 if args.trace else MIN_PASSES)
            if enough and past_budget(t0, len(untraced), budget):
                break
        t1 = perf_counter()
        while args.trace:
            path = OUT / f"spans-{args.workload}-pass{len(traced)}.json"
            traced.append(run_pass(args.workload, args.seed, env, path))
            probes.append(probe_host(env))
            if past_budget(t1, len(traced), args.seconds - (t1 - t0)):
                break
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    flips, changed = compare_digests(passes)
    failures = [f for p in passes for f in p["failures"]] + changed
    if args.trace and args.workload == "verify_cli":
        for p in traced:
            suites = sum(v for k, v in p["trace"].items()
                         if k.startswith("verify.") and k != "verify.run_all_s")
            if suites > p["trace"]["verify.run_all_s"]:
                failures.append("per-suite times exceed the run_all time")
    correct = not failures

    raw = None
    if args.trace:
        metrics = per_layer(untraced, traced, probes)
    else:
        raw = end_to_end(untraced, setup, flips + len(changed))
        metrics = at_nominal_speed(raw, probes)
    attempted = sum(p["attempted"] for p in passes)
    failed = len(failures) + flips + sum(sum(p["missed"]) for p in passes)

    depth, precision = {"tree_series": (workloads.TREE_DEPTH, workloads.TREE_PRECISION),
                        "point_queries": (None, workloads.INTERVAL_DIGITS),
                        "verify_cli": (workloads.VERIFY_DEPTH, None)}[args.workload]
    cache_entries = [p["eps_cache_entries"] for p in untraced if p["eps_cache_entries"] is not None]
    env_block = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "D": depth,
        "P": precision,
        "inputs": passes[0].get("env"),
        "markov.max_operand_bits": max(p["max_operand_bits"] for p in passes),
        "slopes.eps_cache_entries": statistics.median(cache_entries) if cache_entries else None,
        "peak_rss_mb": max(p["rss_mb"] for p in untraced),
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "latency_samples_per_pass": latency_stats(untraced)[2],
        "job_s_per_pass": [sum(p["latencies"]) for p in passes],
        "setup_s_samples": setup,
        "bare_interpreter_s": statistics.median(bare),
        "host.calib_s": probes,
        "raw_end_to_end": raw,
        "deadline_misses_by_kind": {
            k: sum(1 for p in untraced for kk, m in zip(p["kinds"], p["missed"]) if m and kk == k)
            for k in KINDS},
        "deadline_flips": flips,
        "failed_over_attempted": failed / attempted,
        "digests": [workloads.sha("".join(p["outputs"])) for p in passes],
        "failures": failures[:20],
    }
    for key, value in env_block.items():
        print(f"# {key}: {json.dumps(value)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of.get(name, '')}")
    report = {"env": env_block, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    section = "per_layer" if args.trace else "end_to_end"
    final = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
             for m in declared[section]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
