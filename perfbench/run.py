"""Closed-loop benchmark of the commend CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload plane --seed 1 --seconds 35 --trace 0

One process, one thread, one caller: each query is an argv list fed to
`commend.cli.main` in-process, the next one only after the previous one
returned.  Queries come from `workloads.generate(workload, seed)`; the clock
runs only while `cli.main` runs, so generating the next input and checking
answers (both after the loop) are not measured.  Every answer is checked by
`checks.check`; queries that miss their check are printed by name with
their cause.  `setup_s` is timed in fresh interpreters running
`first_query.py`.  Times are scaled to a nominal machine speed by a fixed
loop timed around each of them (see GAUGE_LOOPS).

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed number of
the workload's queries three times -- plain, under `layers.Tracer`, and under
the profiler -- prints the per-layer metrics, and writes the spans and
counters to perfbench/out/trace-<workload>-<seed>.json.  The last line of
standard output is always one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import resource
import shlex
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
# set-ups per run, each in a fresh interpreter, spread over the timed
# phase; setup_s is their median
SETUP_REPEATS = 11
# a query running longer than this counts as failed and is interrupted
QUERY_LIMIT_S = 15.0
# traced passes run slower; their limit is scaled so no answer is cut short
TRACED_LIMIT_FACTOR = 20
# queries per traced run: a fixed prefix of the seeded stream, so that
# counts repeat exactly between runs with the same seed
TRACE_QUERIES = {"grid-search": 16, "p1-classify": 18, "plane": 40,
                 "plane-cyclo": 80}
# module self times must sum to the profiled wall time within this share
SELF_TIME_TOLERANCE = 0.1
# The machine's speed gauge: a fixed pure-integer loop, timed after every
# query and around every set-up.  On a shared host the CPU runs up to 1.5x
# slower for minutes at a time; the gauge slows with it.  Times are reported
# at the nominal speed, at which the loop takes NOMINAL_GAUGE_S: each is
# scaled by NOMINAL_GAUGE_S / (median gauge of the GAUGE_WINDOW samples on
# either side of it).
GAUGE_LOOPS = 20_000
NOMINAL_GAUGE_S = 0.00125
GAUGE_WINDOW = 10


class QueryTimeout(BaseException):
    """Raised by the alarm inside a query; BaseException so that no handler
    in the program under test can swallow it."""


def _on_alarm(_signum, _frame):
    raise QueryTimeout


def gauge_seconds() -> float:
    """Time of one pass of the speed gauge's loop (no library code)."""
    start = time.perf_counter()
    total = 0
    for i in range(GAUGE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def at_nominal_speed(seconds, gauge):
    """seconds[i] scaled to the nominal machine speed by the gauge samples
    taken around it (gauge[i] is the one taken right after it)."""
    scaled = []
    for i, value in enumerate(seconds):
        window = gauge[max(0, i - GAUGE_WINDOW):i + GAUGE_WINDOW + 1]
        scaled.append(value * NOMINAL_GAUGE_S / statistics.median(window))
    return scaled


def setup_seconds(workload: str, seed: int):
    """(seconds, first argv) of one set-up in a fresh interpreter: from spawn
    until `first_query.py` has printed the workload's first query."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "first_query.py"),
                           workload, str(seed)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up failed with exit code {proc.returncode}")
    return seconds, json.loads(line)


def call(cli, argv, limit: float):
    """(exit code or None, stdout, error text, seconds) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except QueryTimeout:
        code, error = None, f"exceeded the {limit:g} s query limit"
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed query, not a benchmark bug
        code, error = None, f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), error, elapsed


def judge(checks, query, code, stdout, error):
    """checks.Verdict for one call."""
    if code is None:
        return checks.Verdict(False, False, error)
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return checks.Verdict(False, False, f"exit {code}, no JSON report")
    return checks.check(query, code, report)


def closed_loop(cli, queries, seconds: float, limit: float, gauge: list):
    """Run queries from the iterator `queries` until `seconds` of query
    time; ([(query, call result)], query time).  The speed gauge is timed
    after each query and appended to `gauge`."""
    done = []
    busy = 0.0
    while busy < seconds:
        query = next(queries, None)
        if query is None:
            break
        result = call(cli, query.argv, limit)
        busy += result[3]
        done.append((query, result))
        gauge.append(gauge_seconds())
    return done, busy


def tail_percentile(samples):
    """(value, samples above it) of the nearest-rank 90th percentile, or of
    the highest lower rank that leaves at least 10 samples above it."""
    ordered = sorted(samples)
    rank = max(1, min(math.ceil(0.9 * len(ordered)), len(ordered) - 10))
    return ordered[rank - 1], len(ordered) - rank


def verdicts(checks, done):
    out = []
    for query, (code, stdout, error, _elapsed) in done:
        out.append((query, judge(checks, query, code, stdout, error)))
    return out


def report_failures(judged):
    """Print every query that missed its check; ([failed], [unknown]).

    An `Unknown` verdict of a recognizer is printed and counted apart: the
    operation ran and answered, it only found no family.  `failed` holds the
    operations that failed: a wrong or negative answer, an error, a time-out.
    """
    failed, unknown = [], []
    for query, verdict in judged:
        if verdict.ok:
            continue
        kind = "WRONG" if verdict.wrong else \
            "UNKNOWN" if verdict.unknown else "FAILED"
        print(f"{kind} {query.name}: {verdict.cause}: "
              f"{shlex.join(query.argv)}")
        (unknown if verdict.unknown else failed).append((query, verdict))
    return failed, unknown


def run_untraced(args, cli, checks, queries):
    # one set-up before each of SETUP_REPEATS equal slices of the timed
    # phase, so that setup_s samples the machine over the whole run
    setup_times, setup_gauge, first_argvs = [], [], []
    done, busy, gauge = [], 0.0, []
    for k in range(1, SETUP_REPEATS + 1):
        around = [gauge_seconds() for _ in range(GAUGE_WINDOW)]
        seconds, first_argv = setup_seconds(args.workload, args.seed)
        around += [gauge_seconds() for _ in range(GAUGE_WINDOW)]
        setup_times.append(seconds)
        setup_gauge.append(statistics.median(around))
        first_argvs.append(first_argv)
        part, part_busy = closed_loop(
            cli, queries, args.seconds * k / SETUP_REPEATS - busy,
            QUERY_LIMIT_S, gauge)
        done += part
        busy += part_busy
    # read before the checks, which recompute answers in this process
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    judged = verdicts(checks, done)
    failed, unknown = report_failures(judged)
    raw_ms = [r[3] * 1000.0 for _q, r in done]
    latencies_ms = at_nominal_speed(raw_ms, gauge)
    p90, beyond = tail_percentile(latencies_ms)
    setups = [t * NOMINAL_GAUGE_S / g
              for t, g in zip(setup_times, setup_gauge)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "queries_per_s": (len(done) * 1000.0 / sum(latencies_ms), "1/s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(done)} queries "
          f"in {busy:.3f} s of query time")
    print(f"speed gauge: median {statistics.median(gauge) * 1000:.4f} ms, "
          f"nominal {NOMINAL_GAUGE_S * 1000:g} ms; times below are at the "
          f"nominal speed")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"as measured: setup_s {statistics.median(setup_times)} s, "
          f"queries_per_s {len(done) / busy} 1/s, latency_p50_ms "
          f"{statistics.median(raw_ms)} ms, latency_p90_ms "
          f"{tail_percentile(raw_ms)[0]} ms")
    print(f"latency_p90_ms samples {len(done)}, {beyond} beyond it")
    missed = len(failed) + len(unknown)
    print(f"failed_frac {missed / len(done)} ({missed} of {len(done)}: "
          f"{len(failed)} failed operations, {len(unknown)} Unknown verdicts)")
    correct = not any(v.wrong for _q, v in judged)
    for first_argv in first_argvs:
        if first_argv != done[0][0].argv:
            print(f"SETUP CHECK FAILED a fresh process built {first_argv} as "
                  f"the first query, this one {done[0][0].argv}")
            correct = False
    return correct, len(done), len(failed), metrics


def run_traced(args, cli, checks, queries):
    from layers import Tracer, module_self_times

    queries = list(itertools.islice(queries, TRACE_QUERIES[args.workload]))
    plain_gauge, traced_gauge = [], []
    plain, _ = closed_loop(cli, iter(queries), math.inf, QUERY_LIMIT_S,
                           plain_gauge)
    limit = QUERY_LIMIT_S * TRACED_LIMIT_FACTOR
    runnable = [q for q, r in plain if r[0] is not None]

    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        for query in runnable:
            tracer.qid = query.qid
            traced.append((query, call(cli, query.argv, limit)))
            traced_gauge.append(gauge_seconds())
    finally:
        tracer.restore()
    traced_s = sum(r[3] for _q, r in traced)
    plain_runnable_s = sum(r[3] for _q, r in plain if r[0] is not None)
    # the passes run minutes apart: compare them at the nominal speed
    overhead = sum(at_nominal_speed([r[3] for _q, r in traced],
                                    traced_gauge)) / \
        sum(at_nominal_speed([r[3] for _q, r in plain if r[0] is not None],
                             [g for g, (_q, r) in zip(plain_gauge, plain)
                              if r[0] is not None]))

    profiled = []
    buckets, profiled_s = module_self_times(
        lambda: profiled.extend((q, call(cli, q.argv, limit))
                                for q in runnable))

    problems = []
    stdout_of = {q.qid: r[1] for q, r in plain}
    for name, results in (("traced", traced), ("profiled", profiled)):
        for query, result in results:
            if result[1] != stdout_of[query.qid]:
                problems.append(f"{query.name}: {name} report differs "
                                f"from the untraced one")
    self_sum = sum(buckets.values())
    if abs(self_sum - profiled_s) > SELF_TIME_TOLERANCE * profiled_s:
        problems.append(f"module self times sum to {self_sum:.3f} s, "
                        f"profiled wall {profiled_s:.3f} s")
    for problem in problems:
        print(f"TRACE CHECK FAILED {problem}")

    judged = verdicts(checks, plain)
    failed, _unknown = report_failures(judged)
    metrics = layer_metrics(tracer, buckets, overhead)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "queries": [q.name for q in runnable],
        "module_self_s": buckets, "profiled_wall_s": profiled_s,
        "untraced_wall_s": plain_runnable_s, "traced_wall_s": traced_s,
        **tracer.trace_json()}) + "\n")
    print(f"workload {args.workload} seed {args.seed}: traced "
          f"{len(runnable)} queries; trace written to "
          f"{path.relative_to(ROOT)}")
    share = {k: v / self_sum for k, v in buckets.items()} if self_sum else {}
    print("module self-time share: " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(share.items(),
                                          key=lambda kv: -kv[1])))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    correct = not problems and not any(v.wrong for _q, v in judged)
    return correct, len(plain), len(failed), metrics


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, buckets, overhead):
    outer, calls, counts = tracer.outer_s, tracer.calls, tracer.counts
    s = tracer.search
    return {
        "field.self_s": (buckets["field"], "s"),
        "field.fractions_self_s": (buckets["fractions"], "s"),
        "field.mul_calls": (counts["field.mul"], "count"),
        "field.add_calls": (counts["field.add"], "count"),
        "field.inverse_calls": (counts["field.inverse"], "count"),
        "field.new_calls": (counts["field.new"], "count"),
        "field.cyclo_ops": (tracer.cyclo_ops, "count"),
        "mpoly.self_s": (buckets["mpoly"], "s"),
        "mpoly.mul_calls": (counts["mpoly.mul"], "count"),
        "mpoly.add_calls": (counts["mpoly.add"], "count"),
        "mpoly.substitute_calls": (counts["mpoly.substitute"], "count"),
        "mpoly.exact_divide_calls": (counts["mpoly.exact_divide"], "count"),
        "mpoly.make_calls": (counts["mpoly.make"], "count"),
        "mpoly.resultant_calls": (calls["mpoly.resultant"], "count"),
        "mpoly.resultant_s": (outer["mpoly.resultant"], "s"),
        "mpoly.binary_form_resultant_calls":
            (calls["mpoly.binary_form_resultant"], "count"),
        "mpoly.binary_form_resultant_s":
            (outer["mpoly.binary_form_resultant"], "s"),
        "mpoly.gcd_poly_s": (outer["mpoly.gcd_poly"], "s"),
        "mpoly.squarefree_s": (outer["mpoly.squarefree"], "s"),
        "mpoly.rational_roots_s": (outer["mpoly.rational_roots"], "s"),
        "mpoly.poly_sqrt_s": (outer["mpoly.poly_sqrt"], "s"),
        "endo2.self_s": (buckets["endo2"], "s"),
        "endo2.compose_calls": (calls["endo2.compose"], "count"),
        "endo2.commutes_s": (outer["endo2.commutes"], "s"),
        "endo2.extends_to_p2_s": (outer["endo2.extends_to_p2"], "s"),
        "endo2.critical_divisor_s": (outer["endo2.critical_divisor"], "s"),
        "endo2.image_curve_s": (outer["endo2.image_curve"], "s"),
        "endo2.invariant_lines_s": (outer["endo2.invariant_lines"], "s"),
        "endo2.critical_orbit_finite_s":
            (outer["endo2.critical_orbit_finite"], "s"),
        "rat1.self_s": (buckets["rat1"], "s"),
        "rat1.ratmap_init_calls": (calls["rat1.ratmap_init"], "count"),
        "rat1.ratmap_init_s": (outer["rat1.ratmap_init"], "s"),
        "rat1.compose1_s": (outer["rat1.compose1"], "s"),
        "rat1.classify_infinity_s": (outer["rat1.classify_infinity"], "s"),
        "rat1.portrait_s": (outer["rat1.portrait"], "s"),
        "rat1.is_orbifold_selfcover_s":
            (outer["rat1.is_orbifold_selfcover"], "s"),
        "local.self_s": (buckets["local"], "s"),
        "local.verify_lemma3_s": (outer["local.verify_lemma3"], "s"),
        "local.verify_lemma4_s": (outer["local.verify_lemma4"], "s"),
        "local.prop2_reduce_s": (outer["local.prop2_reduce"], "s"),
        "local.intersection_mult_s": (outer["local.intersection_mult"], "s"),
        "families.self_s": (buckets["families"], "s"),
        "families.elliptic_lattes_s": (outer["families.elliptic_lattes"], "s"),
        "families.ex4_descend_s": (outer["families.ex4_descend"], "s"),
        "families.chebyshev_calls": (calls["families.chebyshev"], "count"),
        "classify.self_s": (buckets["classify"], "s"),
        "classify.search_s": (outer["classify.search"], "s"),
        "classify.search_pairs": (s["pairs"], "count"),
        "classify.search_probe_pass": (s["probe_pass"], "count"),
        "classify.search_commuting": (s["commuting"], "count"),
        "classify.search_pairs_per_s":
            (_ratio(s["pairs"], outer["classify.search"]), "1/s"),
        "classify.search_useful_ratio":
            (_ratio(s["commuting"], s["probe_pass"]), "ratio"),
        "classify.recognize_calls": (calls["classify.recognize"], "count"),
        "classify.recognize_s": (outer["classify.recognize"], "s"),
        "classify.recognize_hit_ratio":
            (_ratio(tracer.recognized, calls["classify.recognize"]), "ratio"),
        "classify.affine_conjugate_calls":
            (calls["classify.affine_conjugate"], "count"),
        "classify.disjoint_iterates_s":
            (outer["classify.disjoint_iterates"], "s"),
        "parse.self_s": (buckets["parse"], "s"),
        "render.self_s": (buckets["render"], "s"),
        "cli.self_s": (buckets["cli"], "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "commend" / "cli.py").is_file():
        print(f"commend sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from first_query import setup

    import checks

    if args.workload not in TRACE_QUERIES:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(TRACE_QUERIES)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)

    cli, queries = setup(args.workload, args.seed)
    run_mode = run_traced if args.trace else run_untraced
    correct, attempted, failed, metrics = run_mode(args, cli, checks, queries)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
