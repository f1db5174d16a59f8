"""The bigstop benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports the package from ./src and
touches nothing outside the checkout.  One run is one single-threaded
process that sets up its inputs from the seed and then judges verdicts one
at a time (a closed loop with one client).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it holds the details (provenance, sample counts,
failures, scaling fits).

--trace 0 measures the end-to-end metrics.  --trace 1 runs the same
verdicts with a span around every call into the package and reports the
per-layer metrics; its spans and details are written to perfbench/out/.
See perfbench/NOTES.md for what each metric means.

--child is the benchmark's own helper: a fresh process that sets up, reports
its set-up time, then times once each verdict input it reads (pickled) from
standard input.
"""

import argparse
import gc
import hashlib
import heapq
import json
import math
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# a blow-up in the program becomes a MemoryError in one verdict, not a kill
MEMORY_CAP = 2 << 30
# set-up samples: the run's own, then one per child process; at least
# SETUP_SAMPLES, and more while they add up to less than SETUP_SECONDS
SETUP_SAMPLES = 5
SETUP_SECONDS = 1.5
SETUP_SAMPLES_MAX = 9
SETUP_LOOPS = 3  # speed loops just before and just after each set-up
TAIL_BEYOND = 10
TAIL_PERCENTILES = (90.0, 99.0, 99.9, 99.99, 99.999)
MIN_VERDICTS = 2 * TAIL_BEYOND + 1  # the median has TAIL_BEYOND verdicts beyond it
# a run whose program got much slower stops early rather than overrun
MAX_LOOP_SECONDS = 50.0
GAUGE_EVERY_S = 0.25  # verdict time between two readings of the machine's speed
GAUGE_AROUND_S = 0.05  # a verdict this long is read right before and after
RETIME_S = 1.5  # the most verdict time a run retimes, over all its children
RETIME_SPAN = 10  # windows' worth of the slowest verdicts a child may retime
RETIME_WARMUP = 100  # verdicts a child judges before it times any

END_TO_END = (
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

WORK_COUNTS = (
    ("smallstep.multi_step.contractions", "count"),
    ("kmachine.k_run.transitions", "count"),
    ("kmachine.transitions_per_contraction", "1"),
    ("bigstop.derivation.nodes", "count"),
    ("bigstop.derivation.depth", "count"),
    ("bigstop.derivation.trace_labels", "count"),
    ("bigstop.json.bytes", "bytes"),
    ("imp.imp_multi_step.steps", "count"),
)

# scaling exponents, fitted on long-run's omega rungs (the JSON pair on
# the omega-json rungs); the other workloads report 0
EXPONENTS = (
    ("smallstep.multi_step", "omega"),
    ("bigstep.big_step", "omega"),
    ("bigstop.bigstop_eval", "omega"),
    ("bigstop.check_derivation", "omega"),
    ("bigstop.ec_bigstop_eval", "omega"),
    ("bigstop.annihilator_eval", "omega"),
    ("kmachine.k_run", "omega"),
    ("bigstop.derivation_to_json_str", "omega-json"),
    ("bigstop.derivation_from_json", "omega-json"),
)


def per_layer_metrics(traced):
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, names in traced.items():
        for fn in names:
            out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s"),
                    (f"{layer}.{fn}.share", "fraction")]
    out += WORK_COUNTS
    out += [(f"{fn}.exponent", "1") for fn, _ in EXPONENTS]
    out.append(("trace_overhead", "1"))
    return out


def cap_memory():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP if hard == resource.RLIM_INFINITY else min(MEMORY_CAP, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return cap


def import_package():
    """Import bigstop from this checkout's src/; None if it is not there."""
    if not (SRC / "bigstop" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import bigstop
    if Path(bigstop.__file__).resolve().parent != SRC / "bigstop":
        return None
    return bigstop


def speed_loops():
    return [speed.loop_seconds() for _ in range(SETUP_LOOPS)]


def scaled_setup(raw_s, loops_before):
    """A set-up time scaled by the speed loops of its own process, run
    just before and just after it (see speed.py)."""
    return raw_s * speed.NOMINAL_S / statistics.fmean(loops_before + speed_loops())


def run_size(workload, seconds):
    return max(MIN_VERDICTS, round(seconds * workload.rate))


def child_run(args, warmup, retime):
    """Set up in a fresh process and time each input in `retime` once
    there, after judging the `warmup` inputs.  Returns (set-up seconds,
    scaled seconds of each retimed input)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--child"],
        input=pickle.dumps((warmup, retime)), cwd=ROOT, capture_output=True,
        timeout=120, check=True,
    )
    out = json.loads(done.stdout.decode().strip().splitlines()[-1])
    return out["setup_s"], out["retimed"]


def child(workload, api, setup_s):
    """The --child side of child_run.  Each input is judged once, so no
    answer this process computed earlier can speed up its timing."""
    warmup, retime = pickle.load(sys.stdin.buffer)
    for item in warmup:
        judge_seconds(workload, api, item)
    gauge = speed.Gauge()
    # each verdict is scaled by the speed loops right before and after it
    times = [judge_seconds(workload, api, item) * gauge.scale() for item in retime]
    print(json.dumps({"setup_s": setup_s, "retimed": times}))
    return 0


def judge_seconds(workload, api, item):
    t0 = time.perf_counter()
    try:
        workload.verdict(api, item)
    except Exception:  # noqa: BLE001 - the run that measured it counted it as failed
        pass
    return time.perf_counter() - t0


def provenance(load_at_start):
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_at_start": load_at_start,
        "recursionlimit_after_import": sys.getrecursionlimit(),
    }


def run_verdicts(workload, api, inputs, tracer=None, limit=MAX_LOOP_SECONDS):
    """Judge the inputs in order.  Returns the raw and the speed-scaled
    time of each verdict, the failures and the speed gauge.  A verdict that
    raises has failed, like one whose answers disagree."""
    raw = array("d")
    scaled = array("d")
    failures = []
    clock = time.perf_counter
    gauge = speed.Gauge()
    start = clock()
    piece_end = start + GAUGE_EVERY_S
    for i, item in enumerate(inputs):
        if tracer is not None:
            tracer.verdict_id = i
            if workload.tag is not None:
                tracer.tags[i] = workload.tag(item)
            tracer.begin("verdict")
        t0 = clock()
        try:
            problems = workload.verdict(api, item)
        except Exception as err:  # noqa: BLE001 - a raising engine is a failed verdict
            problems = [f"raised {type(err).__name__}: {str(err)[:200]}"]
        t1 = clock()
        if tracer is not None:
            tracer.finish()
        raw.append(t1 - t0)
        if problems:
            failures.append((i, problems))
        stop = t1 - start > limit
        if t1 >= piece_end or t1 - t0 >= GAUGE_AROUND_S or stop or i == len(inputs) - 1:
            k = gauge.scale()
            scaled.extend(t * k for t in raw[len(scaled):])
            piece_end = clock() + GAUGE_EVERY_S
        if stop:
            break
    return raw, scaled, failures, gauge


def per_input(workload, inputs, scaled):
    """The index of the first input of each group and the group's lowest
    scaled time.  Only long-run groups its inputs: a rung is judged once
    per pass, at a different budget each time, and counts once, at its best
    time, so one noisy timing of a rung does not move a percentile."""
    if workload.group is None:
        return list(range(len(scaled))), array("d", scaled)
    best = {}
    for i, (item, t) in enumerate(zip(inputs, scaled)):
        key = workload.group(item)
        if key not in best or t < best[key][1]:
            best[key] = (best.get(key, (i,))[0], t)
    return [i for i, _ in best.values()], array("d", (t for _, t in best.values()))


def tail_rank(n):
    """(rank, percentile) of the highest percentile in TAIL_PERCENTILES
    that leaves at least TAIL_BEYOND of n verdicts beyond it; the rank is
    1-based, nearest-rank."""
    best = (math.ceil(n / 2), 50.0)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            best = (rank, pct)
    return best


def children(args, inputs, first, best, setup_s):
    """The set-up samples and the retimed verdicts, from child processes.
    A pause or a slow spell of the shared machine can put a verdict among
    the slowest.  So each child retimes the verdicts not retimed yet of the
    window from ten below the tail's rank upwards, the quickest first, then
    of the RETIME_SPAN - 1 windows' worth below it, the slowest first, until
    the verdicts the run retimed took RETIME_S; each keeps the lower of its
    two times.  A slow verdict is slow both times; a pause rarely strikes
    the same verdict twice.  On a busy machine pauses strike hundreds of
    short verdicts, and each one freed of its pause lets another into the
    window, hence the span below it.  The retiming happens in fresh
    processes so that a cache of answers cannot make it fast.  Returns
    (set-up samples, the times, the tail's rank and percentile, the number
    of verdicts retimed)."""
    rank, pct = tail_rank(len(best))
    times = array("d", best)
    window = len(times) - rank + 1 + TAIL_BEYOND
    retimed = set()
    cost = 0.0
    setups = [setup_s]
    while len(setups) < SETUP_SAMPLES_MAX and (
        len(setups) < SETUP_SAMPLES or sum(setups) < SETUP_SECONDS
    ):
        top = heapq.nlargest(RETIME_SPAN * window, range(len(times)),
                             key=times.__getitem__)
        todo = []
        for i in sorted(top[:window], key=times.__getitem__) + top[window:]:
            if i in retimed:
                continue
            if cost + times[i] > RETIME_S:
                break
            todo.append(i)
            cost += times[i]
        warmup = []
        if todo:
            skip = set(top)
            step = max(1, len(times) // RETIME_WARMUP)
            warmup = [first[i] for i in range(0, len(times), step) if i not in skip]
        secs, again = child_run(args, [inputs[i] for i in warmup],
                                [inputs[first[i]] for i in todo])
        setups.append(secs)
        for i, t in zip(todo, again):
            times[i] = min(times[i], t)
            retimed.add(i)
    return setups, times, rank, pct, len(retimed)


def fit_exponent(points):
    """Least-squares slope of log(seconds) on log(budget)."""
    xs = [math.log(b) for b, _ in points]
    ys = [math.log(max(t, 1e-9)) for _, t in points]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def exponents(tracer, speed_factors):
    """{function: (slope, points)}; each span's time is scaled by the
    speed factor of the verdict it belongs to."""
    out = {}
    for fn, program in EXPONENTS:
        points = [
            (tracer.tags[v][1], secs * speed_factors[v])
            for v, secs in tracer.durations(fn)
            if v in tracer.tags and tracer.tags[v][0] == program
        ]
        out[fn] = (fit_exponent(points), sorted(points))
    return out


def settle():
    """Collect set-up garbage and move the inputs out of the collector's
    sight, so that full collections during the loop scan only what the
    verdicts allocate, not the benchmark's own input pool."""
    gc.collect()
    gc.freeze()


def measure(workload, api, inputs, setup_s, args):
    """The end-to-end metrics: judge the verdicts once, then take the other
    set-up samples and retime the tail in child processes.  Returns (metric
    values, verdicts judged, failures, details)."""
    settle()
    raw, scaled, failures, loop_gauge = run_verdicts(workload, api, inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first, best = per_input(workload, inputs, scaled)
    setups, best, rank, tail_pct, retimed = children(args, inputs, first, best, setup_s)
    values = {
        "verdicts_per_s": len(scaled) / sum(scaled),
        "verdict_p50_ms": statistics.median(best) * 1e3,
        "verdict_tail_ms": sorted(best)[rank - 1] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    loops = loop_gauge.samples
    details = {
        "tail_percentile": tail_pct,
        "tail_retimed": retimed,
        "setup_samples_s": setups,
        "unscaled": {
            "verdicts_per_s": len(raw) / sum(raw),
            "verdict_p50_ms": statistics.median(raw) * 1e3,
        },
        "speed_loop_s": {
            "nominal": speed.NOMINAL_S, "samples": len(loops),
            "min": min(loops), "median": statistics.median(loops), "max": max(loops),
        },
    }
    return values, len(scaled), failures, details


def measure_traced(workload, workloads_mod, seed, seconds):
    """The per-layer metrics: set up and judge the verdicts with spans on,
    then judge them again with spans off to measure the tracing overhead.
    Writes the spans to OUT.  Returns (metric values, verdicts judged,
    failures, details)."""
    tracer = tracing.Tracer()
    api = workloads_mod.make_api(tracer)
    n = run_size(workload, seconds)
    t0 = time.perf_counter()
    tracer.begin("setup")
    inputs = workload.setup(api, seed, n)
    tracer.finish()
    setup_s = time.perf_counter() - t0
    settle()
    raw, scaled, failures, _ = run_verdicts(workload, api, inputs, tracer)
    settle()
    _, plain, _, _ = run_verdicts(
        workload, workloads_mod.make_api(), inputs[: len(raw)], limit=math.inf
    )
    if workload.tag is None:
        fits = {fn: (0.0, []) for fn, _ in EXPONENTS}
    else:
        fits = exponents(tracer, [k / r if r else 1.0 for k, r in zip(scaled, raw)])
    values = layer_metrics(workloads_mod.TRACED, tracer, setup_s + sum(raw),
                           sum(scaled) / sum(plain), fits)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}.spans.tsv.gz"
    tracer.dump(spans_path)
    details = {
        "traced_s": {"setup": setup_s, "verdicts": sum(raw)},
        "benchmark_self_s": {
            name: self_s for name, (_, self_s) in tracer.self_times().items()
            if name in ("setup", "verdict")
        },
        "exponent_points": {fn: pts for fn, (_, pts) in fits.items() if pts},
        "spans_file": spans_path.name,
    }
    return values, len(raw), failures, details


def layer_metrics(traced, tracer, run_s, overhead, fits):
    spans = tracer.self_times()
    values = {}
    for layer, names in traced.items():
        for fn in names:
            calls, self_s = spans.get(f"{layer}.{fn}", (0, 0.0))
            values[f"{layer}.{fn}.calls"] = calls
            values[f"{layer}.{fn}.self_s"] = self_s
            values[f"{layer}.{fn}.share"] = self_s / run_s
    counts = tracer.counts
    for name, _ in WORK_COUNTS:
        values[name] = counts.get(name, 0)
    contractions = counts.get("kmachine.contractions", 0)
    values["kmachine.transitions_per_contraction"] = (
        counts.get("kmachine.k_run.transitions", 0) / contractions if contractions else 0.0
    )
    for fn, (slope, _) in fits.items():
        values[f"{fn}.exponent"] = slope
    values["trace_overhead"] = overhead
    return values


def main(argv=None):
    load_at_start = os.getloadavg()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    cap = cap_memory()
    # set-up: import the package and build the inputs, timed from here
    loops_before = speed_loops()
    t0 = time.perf_counter()
    if import_package() is None:
        print(f"error: no bigstop package under {SRC}", file=sys.stderr)
        return 2
    import workloads as workloads_mod  # needs the package on sys.path

    workload = workloads_mod.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{', '.join(workloads_mod.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.trace:
        api = workloads_mod.make_api()
        inputs = workload.setup(api, args.seed, run_size(workload, args.seconds))
        setup_s = scaled_setup(time.perf_counter() - t0, loops_before)
        if args.child:
            return child(workload, api, setup_s)

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(load_at_start),
        "memory_cap_bytes": cap,
    }
    if args.trace:
        values, attempted, failures, details = measure_traced(
            workload, workloads_mod, args.seed, args.seconds
        )
        units = per_layer_metrics(workloads_mod.TRACED)
    else:
        values, attempted, failures, details = measure(workload, api, inputs, setup_s, args)
        units = END_TO_END
    detail.update(details)
    detail["verdicts"] = attempted
    detail["failed_frac"] = len(failures) / attempted
    detail["failures"] = [{"verdict": i, "problems": probs} for i, probs in failures[:5]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    if args.trace:
        (OUT / f"{workload.name}.detail.json").write_text(
            json.dumps({"detail": detail, "result": result}, indent=1) + "\n"
        )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
