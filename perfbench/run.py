"""corealg benchmark: one workload per run, one client in a closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload shift-sweep --seed 1 --seconds 30 --trace 0

With --trace 0 it times the workload's cases for --seconds seconds (and at
least MIN_CASES cases) with no tracing, and reports the end-to-end metrics.
With --trace 1 it runs a fixed prefix of the case pool untraced and then
traced, and reports per-module metrics with the tracing cost taken out; the
spans go to perfbench/out/.

Each run also verifies outputs outside the timed region: golden digests of
canonical result texts, the CLI command's `--json` bytes, and negative
controls that must come out unequal.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# numpy is imported by corealg; pin its thread pools before that happens.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import golden  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

MIN_CASES = 1000        # so that at least ten samples lie beyond p99
SAMPLES = 11            # set-up and CLI timings, spread through the timed loop
CASE_LIMIT_S = 10.0     # a case over this is recorded as failed
TRACED_CASE_LIMIT_S = 60.0
MAX_MEASURE_FACTOR = 5  # stop after this many times --seconds even below MIN_CASES


class CaseTimeout(Exception):
    """Raised by SIGALRM inside a case that ran over its time limit."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


def run_case(case, limit: float) -> str:
    """'ok', 'fail' (a check came out false), 'error' or 'timeout'.  The limit
    is a real-time interval timer, so no thread is started."""
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            ok = case.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        return "timeout"
    except Exception:  # noqa: BLE001 - a raising case is a failed case; the run goes on
        traceback.print_exc(limit=3, file=sys.stderr)
        return "error"
    return "ok" if ok else "fail"


class Tally:
    """Case outcomes and a few witnesses of failing cases."""

    def __init__(self):
        self.attempted = 0
        self.by_status: dict[str, int] = {"ok": 0, "fail": 0, "error": 0, "timeout": 0}
        self.witnesses: list[str] = []

    def add(self, case, status: str) -> None:
        self.attempted += 1
        self.by_status[status] += 1
        if status != "ok" and len(self.witnesses) < 10:
            self.witnesses.append("%s %s: %s" % (status, case.kind, case.label[:200]))

    @property
    def failed(self) -> int:
        return self.attempted - self.by_status["ok"]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    n = len(sorted_values)
    rank = max(1, math.ceil(round(q * n, 9)))
    return sorted_values[min(rank, n) - 1]


def commit_id() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "corealg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def run_metadata(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "client": "closed loop, one client, no extra threads",
    }


def build(workload: str, seed):
    """A fresh import of corealg and the workload's case pool built on it."""
    api = workloads.import_corealg()
    return api, workloads.BUILDERS[workload](api, seed)


def pass_seed(seed: int, n: int):
    """Seed of the n-th pass through the pool: the run's seed for the first
    pass, and a string drawn from it for each later one."""
    return seed if n == 0 else "%d:%d" % (seed, n)


def fresh_pass(workload: str, seed: int, n: int):
    """Build pass n on a fresh import, outside any timed case; returns the
    import, the pool and the seconds the build took.  The caller drops the
    previous pass first; its objects are collected here.  The new pool is
    the harness's own heap, so it is frozen out of the collector's scans:
    collection costs stay those of the program's own objects."""
    gc.unfreeze()
    gc.collect()
    t0 = perf_counter()
    api, pool = build(workload, pass_seed(seed, n))
    built_s = perf_counter() - t0
    gc.collect()
    gc.freeze()
    return api, pool, built_s


def verify(api, pool, workload: str) -> list[str]:
    """Independent output checks; returns a list of problems (empty = fine)."""
    problems = []
    expected = golden.load_digests()[workload]
    value, count = golden.digest(pool)
    if (value, count) != (expected["sha256"], expected["cases"]):
        problems.append("golden digest mismatch: %s over %d cases, expected %s over %d"
                        % (value, count, expected["sha256"], expected["cases"]))
    for name, detected in workloads.CONTROLS[workload](api):
        if not detected:
            problems.append("negative control not detected: " + name)
    argv = workloads.CLI_COMMANDS[workload]
    code, text = golden.run_cli(api, argv)
    problems.extend(cli_problems(argv, code, text, golden.load_cli(workload)))
    return problems


def cli_problems(argv, code: int, text: str, want: str) -> list[str]:
    if code == 0 and text == want:
        return []
    return ["CLI %s: exit %d, output %s golden"
            % (" ".join(argv), code, "matches" if text == want else "differs from")]


def cli_runner(workload: str, problems: list[str]):
    """A function that runs the workload's CLI command once on the given
    import of corealg, checks its output against the golden copy, and
    returns its wall seconds."""
    argv = workloads.CLI_COMMANDS[workload]
    want = golden.load_cli(workload)

    def run_once(api) -> float:
        t0 = perf_counter()
        code, text = golden.run_cli(api, argv)
        elapsed = perf_counter() - t0
        if not any(p.startswith("CLI") for p in problems):
            problems.extend(cli_problems(argv, code, text, want))
        return elapsed

    return run_once


def repeated_inputs(passes: list[list[str]]) -> dict:
    """Shares of timed cases whose input (its label) had already run in the
    same pass, and in an earlier pass on an earlier import of corealg."""
    total = sum(len(labels) for labels in passes) or 1
    within = across = 0
    earlier: set[str] = set()
    for labels in passes:
        seen: set[str] = set()
        for label in labels:
            within += label in seen
            across += label in earlier
            seen.add(label)
        earlier |= seen
    return {"passes": len(passes), "within_pass_share": within / total,
            "earlier_pass_share": across / total}


def measure(args, tally: Tally, problems: list[str]):
    """Closed loop for at least --seconds of case time and MIN_CASES cases.
    Each pass through the pool runs once, and each pass is a new pool on a
    fresh import of corealg with its random cases drawn anew, so that no
    case meets state an earlier identical case left behind.

    SAMPLES times, spread evenly through the loop so that they meet the
    same machine conditions as the cases, the current pass is built again
    from its seed (a set-up sample: the same inputs on fresh objects, and
    the loop goes on where it was) and the CLI command runs once.  These
    are kept out of the case figures.  Returns per-case seconds, the loop's
    case wall time, the median set-up and CLI seconds and the labels run in
    each pass."""
    seconds = args.seconds
    cli_once = cli_runner(args.workload, problems)
    slots = [seconds * (k + 0.5) / SAMPLES for k in range(SAMPLES)]
    times: list[float] = []
    setup_times: list[float] = []
    cli_times: list[float] = []
    passes: list[list[str]] = [[]]

    def sample():
        """Build the current pass again and run the CLI once."""
        api, pool, built_s = fresh_pass(args.workload, args.seed, len(passes) - 1)
        setup_times.append(built_s)
        cli_times.append(cli_once(api))
        return api, pool

    api, pool, _ = fresh_pass(args.workload, args.seed, 0)
    paused = 0.0
    i = 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start - paused
        if elapsed >= seconds * MAX_MEASURE_FACTOR or \
                (elapsed >= seconds and len(times) >= MIN_CASES):
            break
        if len(cli_times) < SAMPLES and elapsed >= slots[len(cli_times)]:
            t0 = perf_counter()
            api = pool = case = None
            api, pool = sample()
            paused += perf_counter() - t0
            continue
        if i == len(pool):
            t0 = perf_counter()
            api = pool = case = None
            api, pool, _ = fresh_pass(args.workload, args.seed, len(passes))
            passes.append([])
            i = 0
            paused += perf_counter() - t0
            continue
        case = pool[i]
        i += 1
        t0 = perf_counter()
        status = run_case(case, CASE_LIMIT_S)
        times.append(perf_counter() - t0)
        tally.add(case, status)
        passes[-1].append(case.label)
    wall = perf_counter() - start - paused
    while len(cli_times) < SAMPLES:
        api = pool = case = None
        api, pool = sample()
    return (times, wall, statistics.median(setup_times), statistics.median(cli_times),
            passes)


def end_to_end(args, problems, tally: Tally) -> tuple[dict, dict]:
    times, wall, setup_s, cli_s, passes = measure(args, tally, problems)
    ordered = sorted(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "cases_per_s": (len(times) / wall, "1/s"),
        "case_ms_p50": (percentile(ordered, 0.50) * 1e3, "ms"),
        "case_ms_p99": (percentile(ordered, 0.99) * 1e3, "ms"),
        "cli_s": (cli_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, {"inputs": repeated_inputs(passes)}


class CliCase:
    """The workload's CLI command as one more case of the traced prefix."""

    kind = "cli"
    random = False

    def __init__(self, api, argv, workload):
        self.label = " ".join(argv)
        self._args = (api, argv, golden.load_cli(workload))

    def run(self) -> bool:
        api, argv, want = self._args
        code, text = golden.run_cli(api, argv)
        return code == 0 and text == want


def corealg_modules() -> dict:
    """The current import of corealg, as its sys.modules entries."""
    return {name: mod for name, mod in sys.modules.items()
            if name == "corealg" or name.startswith("corealg.")}


def traced_pass(cases, tally: Tally, twins=None):
    """Run the cases with every entry point of the current corealg import
    wrapped.  `twins`, when given, is (the same cases on another import,
    that import's modules): each twin runs untraced just before its case,
    so that plain and traced times meet the same machine conditions.
    sys.modules points at the twin's import while it runs, since corealg
    imports a few modules inside functions.  Returns the tracer, the traced
    and the plain seconds (sums of case times; 0 without twins) and each
    traced case's seconds, timed apart from the tracer's clock readings."""
    tr = tracer.Tracer()
    walls, plain = [], []
    own = corealg_modules()
    with tr:
        for i, case in enumerate(cases):
            if twins is not None:
                sys.modules.update(twins[1])
                c0 = perf_counter()
                tally.add(twins[0][i], run_case(twins[0][i], CASE_LIMIT_S))
                plain.append(perf_counter() - c0)
                sys.modules.update(own)
            c0 = perf_counter()
            rec = tr.open_case(i)
            try:
                tally.add(case, run_case(case, TRACED_CASE_LIMIT_S))
            finally:
                tr.close_case(rec)
            walls.append(perf_counter() - c0)
    return tr, sum(walls), walls, sum(plain)


def warm_up(cases) -> None:
    for case in cases:
        run_case(case, CASE_LIMIT_S)


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


VEC_OPS = ("delta", "vec_add", "vec_equal", "translate", "dilate", "codilate", "mono_apply")


def layer_metrics(tr, traced_s: float, plain_s: float) -> dict:
    """The per_layer metrics of BENCHMARK.json from one traced pass and the
    plain pass of the same cases; self times have the tracing cost taken
    out."""
    self_s = tr.self_times(tr.wrapper_scale(traced_s, plain_s))
    calls = tr.module_calls()
    c, n = tr.counters, tr.calls
    metrics = {}
    for m in tracer.MODULES:
        metrics[m + ".calls"] = (calls[m], "count")
        metrics[m + ".self_s"] = (self_s[m], "s")
        metrics[m + ".errors"] = (tr.errors[m], "count")
    mul_calls = c["scalar.mul.calls"]
    u_calls = n["hilbert_module.u_element"]
    metrics.update({
        "scalar.mul.calls": (mul_calls, "count"),
        "scalar.mul.rational_share": (_share(c["scalar.mul.rational"], mul_calls), "ratio"),
        "graph.paths.calls": (n["graph.Graph.paths"], "count"),
        "star_algebra.mul.calls": (c["star_algebra.mul.calls"], "count"),
        "star_algebra.mul.pairs": (c["star_algebra.mul.pairs"], "count"),
        "star_algebra.mul.yield": (_share(c["star_algebra.mul.terms_out"],
                                          c["star_algebra.mul.pairs"]), "ratio"),
        "star_algebra.equal.calls": (n["star_algebra.StarElement.equal"], "count"),
        "star_algebra.expand.growth": (_share(c["star_algebra.expand.terms_out"],
                                              c["star_algebra.expand.terms_in"]), "ratio"),
        "core_endo.beta.terms_out": (c["core_endo.beta.terms_out"], "count"),
        "hilbert_module.pair.calls": (n["hilbert_module.pair"], "count"),
        "hilbert_module.tensor.calls": (n["hilbert_module.tensor"], "count"),
        "hilbert_module.u_element.calls": (u_calls, "count"),
        "hilbert_module.u_element.repeat_share": (
            _share(c["hilbert_module.u_element.repeats"], u_calls), "ratio"),
        "hilbert_module.conj_beta.calls": (n["hilbert_module.conj_beta"], "count"),
        "uhf_cuntz.mul.calls": (n["uhf_cuntz.TensorElement.__mul__"], "count"),
        "ktheory.smith.calls": (n["ktheory.smith_normal_form"], "count"),
        "dilation.vec.calls": (sum(n["dilation." + op] for op in VEC_OPS), "count"),
        "trace.overhead": (_share(traced_s, plain_s), "ratio"),
    })
    return metrics


def traced_prefix(workload: str, seed: int) -> list:
    """The traced run's cases on a fresh import: a prefix of the pool and
    the workload's CLI command."""
    api, pool, _ = fresh_pass(workload, seed, 0)
    cases = list(pool[:workloads.TRACE_CASES[workload]])
    cases.append(CliCase(api, workloads.CLI_COMMANDS[workload], workload))
    return cases


def per_layer(args, tally: Tally) -> tuple[dict, dict]:
    """The same cases on three imports of corealg: a warm-up pass, then a
    plain and a traced pass, case by case in turn."""
    warm_up(traced_prefix(args.workload, args.seed))
    plain = traced_prefix(args.workload, args.seed), corealg_modules()
    cases = traced_prefix(args.workload, args.seed)
    tr, traced_s, _, plain_s = traced_pass(cases, tally, twins=plain)

    raw = tr.raw_self_times()
    scale = tr.wrapper_scale(traced_s, plain_s)
    self_s = tr.self_times(scale)
    corrected_s = traced_s - sum(tr.wrapper_seconds(scale).values())
    calibrated_s = traced_s - sum(tr.wrapper_seconds(1.0).values())
    detail = {
        "traced_s": traced_s,
        "untraced_s": plain_s,
        "calibrated_over_untraced": _share(calibrated_s, plain_s),
        "wrapper_scale": scale,
        "corrected_traced_s": corrected_s,
        "hook_s": sum(tr.hook_s.values()),
        "wrapper_cost_per_call_s": {path: {"inside": cost[0], "outside": cost[1]}
                                    for path, cost in tr.cost.items()},
        "wrapped_calls_by_path": {path: sum(by_owner.values())
                                  for path, by_owner in tr.entries.items()},
        "cases": len(cases),
        "unclaimed_s": corrected_s - sum(self_s[m] for m in tracer.MODULES),
        "bench_self_s": self_s["bench"],
        "min_span_self_s": tr.min_self_time(),
        "self_share": {m: _share(self_s[m], corrected_s) for m in tracer.MODULES},
        "raw_self_share": {m: _share(raw[m], traced_s) for m in tracer.MODULES},
        "calls_by_entry": dict(sorted(tr.calls.items())),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-%d.json" % (args.workload, args.seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tr.spans_json(), fh)
    return layer_metrics(tr, traced_s, plain_s), detail


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "corealg", "__init__.py")):
        sys.stderr.write("perfbench: no corealg sources under %s\n" % SRC)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("perfbench: unknown workload %r (choose from %s)\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    meta = run_metadata(args)

    api, pool = build(args.workload, args.seed)
    problems = verify(api, pool, args.workload)
    pool_size = len(pool)
    api = pool = None   # every pass below runs on a pool built afresh
    tally = Tally()
    if args.trace:
        metrics, detail = per_layer(args, tally)
    else:
        metrics, detail = end_to_end(args, problems, tally)
    if tally.by_status["fail"]:
        problems.append("%d cases failed the program's own checks" % tally.by_status["fail"])

    correct = not problems
    failed_share = tally.failed / tally.attempted if tally.attempted else 1.0
    for name, (value, unit) in metrics.items():
        print("%-40s %16.6f %s" % (name, value, unit))
    print("%-40s %16.6f %s" % ("failed_share", failed_share, "ratio"))
    print("meta: " + json.dumps(meta, sort_keys=True))
    for line in problems + tally.witnesses:
        print("problem: " + line)

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"meta": meta, "correct": correct, "problems": problems,
              "attempted": tally.attempted, "failed": tally.failed,
              "by_status": tally.by_status, "witnesses": tally.witnesses,
              "failed_share": failed_share, "pool_size": pool_size,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "detail": detail}
    path = os.path.join(OUT_DIR, "result-%s-%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
