"""radica benchmark: real ``radica solve`` invocations, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact-cubic --seed 1 --seconds 40 --trace 0

Each solve is one call of ``radica.cli.run(argv)`` with stdout captured, in
this process: one client, a closed loop, no threads.  ``--trace 0`` times
the solves and prints the end-to-end metrics; ``--trace 1`` makes one
untraced and one traced pass over a fixed prefix of the workload's corpus,
solve by solve, and prints the per-layer metrics.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from checker import check
from corpus import WORKLOADS, make_corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"

#: fresh interpreters per cold-start probe kind; the medians are reported
COLD_STARTS = 11
#: seconds of solving per window of ``solve_p50_ms``
WINDOW_S = 1.0
#: untimed solves before the timed loop
WARMUP = 3
#: cases traced a second time to check that the counts repeat exactly
RECHECK = 3


def load_radica():
    """Import radica from this checkout's ``src`` and nowhere else."""
    if not (SRC / "radica" / "cli.py").is_file():
        raise SystemExit(f"radica sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import radica.cli

    if Path(radica.cli.__file__).resolve().parent != SRC / "radica":
        raise SystemExit(f"imported radica from {radica.cli.__file__}, not {SRC}")
    return radica.cli.run


class ColdStart:
    """Wall seconds of fresh interpreters: a bare one and one importing radica.cli.

    Creating it runs one untimed pair, which writes the bytecode cache that
    every later invocation finds.  No timeout is passed: with one,
    ``subprocess`` polls the child with sleeps of up to 50 ms, which
    quantizes the timing.
    """

    def __init__(self):
        self.times = {"bare": [], "import": []}
        self._env = {"PYTHONPATH": str(SRC)}
        self._pair()

    def _pair(self):
        out = {}
        for kind, code in (("bare", "pass"), ("import", "import radica.cli")):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=self._env, cwd=ROOT, check=True)
            out[kind] = perf_counter() - t0
        return out

    def probe(self):
        for kind, seconds in self._pair().items():
            self.times[kind].append(seconds)

    def medians(self):
        return statistics.median(self.times["bare"]), statistics.median(self.times["import"])


def invoke(run, argv):
    """One CLI invocation with stdout and stderr captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed solve, not a bench error
            code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def solve(run, case):
    """One timed CLI invocation: (seconds, exit code, stdout)."""
    t0 = perf_counter()
    code, output = invoke(run, case.argv)
    return perf_counter() - t0, code, output


class Tally:
    """Attempted and failed solves, with the first few failure reasons.

    ``wrong`` counts the failed solves that exited 0: answers the program
    gave as good that the checker rejects.  A solve the program itself
    reports as failed (a nonzero exit) is a failed operation, not a wrong
    answer.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def add(self, case, code, output):
        self.attempted += 1
        reason = check(case, code, output)
        if reason is not None:
            self.failed += 1
            self.wrong += code == 0
            if self.failed <= 5:
                print(f"FAILED {case.argv[-1]!r}: {reason}", file=sys.stderr)


def timed_run(run, corpus, seconds, tally, cold):
    """Closed loop over the corpus, cycling, for ``seconds`` of solving.

    The cold-start probes are spread evenly over the run, outside the timed
    solves, so ``setup_s`` and the latencies see the same machine state;
    the deadline moves back by the time each probe takes.  Returns the
    latencies in seconds.
    """
    for case in corpus[:WARMUP]:
        solve(run, case)
    latencies = []
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while perf_counter() < deadline:
        if len(cold.times["bare"]) < COLD_STARTS and perf_counter() - start >= (
            len(cold.times["bare"]) * seconds / COLD_STARTS
        ):
            t0 = perf_counter()
            cold.probe()
            probe_s = perf_counter() - t0
            start += probe_s
            deadline += probe_s
            continue
        case = corpus[i % len(corpus)]
        i += 1
        dt, code, output = solve(run, case)
        latencies.append(dt)
        tally.add(case, code, output)
    return latencies


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def windowed_median(latencies, width=WINDOW_S):
    """Median latency of each ``width`` seconds of solving, averaged over the
    windows.

    On a shared host whose speed alternates between a fast and a slow state
    lasting seconds to minutes, the plain median of a run on a workload
    whose solves all cost about the same jumps between the two states'
    values as the fast share of the run crosses one half; the windowed
    median moves in proportion to that share instead.
    """
    windows = {}
    elapsed = 0.0
    for dt in latencies:
        windows.setdefault(int(elapsed // width), []).append(dt)
        elapsed += dt
    return statistics.mean(statistics.median(w) for w in windows.values())


def end_to_end(run, corpus, seconds):
    cold = ColdStart()
    tally = Tally()
    lat = timed_run(run, corpus, seconds, tally, cold)
    _, setup_s = cold.medians()
    cut = p90(lat)
    print(
        f"{len(lat)} solves timed, {sum(1 for x in lat if x > cut)} above p90",
        file=sys.stderr,
    )
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "solve_p50_ms": (windowed_median(lat) * 1e3, "ms"),
        "solve_p90_ms": (cut * 1e3, "ms"),
        "solves_per_s": (len(lat) / sum(lat), "1/s"),
        "pass_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    return tally, True, metrics


def traced_solve(run, case, tracing, rec, tally):
    """Trace one solve; returns its count signature."""
    rec.solve_id += 1
    rec.fields, rec.records = [], []
    first = len(rec.spans)
    with tracing.Tracer(rec):
        code, output = invoke(lambda argv: rec.call("cli.run", run, argv), case.argv)
    tally.add(case, code, output)
    return tracing.signature(rec, first)


def per_layer(run, corpus, workload, seed):
    """One pass over the traced prefix, untraced and traced solve by solve."""
    import tracing

    cold = ColdStart()
    for _ in range(COLD_STARTS):
        cold.probe()
    bare_s, setup_s = cold.medians()
    tally = Tally()
    for case in corpus[:WARMUP]:
        solve(run, case)
    rec = tracing.Recorder()
    untraced = []
    signatures = []
    # untraced and traced solves alternate so both see the same machine state
    for case in corpus[: WORKLOADS[workload][2]]:
        dt, code, output = solve(run, case)
        untraced.append(dt)
        tally.add(case, code, output)
        signatures.append(traced_solve(run, case, tracing, rec, tally))
    again = tracing.Recorder()
    repeatable = all(
        traced_solve(run, case, tracing, again, tally) == signatures[i]
        for i, case in enumerate(corpus[:RECHECK])
    )
    if not repeatable:
        print("per-solve counts differ between two traces of one case", file=sys.stderr)

    TRACE_DIR.mkdir(exist_ok=True)
    rec.write(TRACE_DIR / f"{workload}-seed{seed}.jsonl")

    metrics = tracing.layer_metrics(rec.spans, signatures)
    metrics["cli.import_ms"] = ((setup_s - bare_s) * 1e3, "ms")
    traced = [s[tracing.END] - s[tracing.START] for s in rec.spans if s[tracing.NAME] == "cli.run"]
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced),
        "ratio",
    )
    return tally, repeatable, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = load_radica()
    corpus = make_corpus(args.workload, args.seed)
    if args.trace:
        tally, ok, metrics = per_layer(run, corpus, args.workload, args.seed)
    else:
        tally, ok, metrics = end_to_end(run, corpus, args.seconds)

    fail_ratio = {"fail_ratio": (tally.failed / tally.attempted, "ratio")}
    for name, (value, unit) in {**metrics, **fail_ratio}.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    result = {
        "correct": ok and tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
