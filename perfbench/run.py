"""Benchmark of wallcross, end to end and per module, on seeded workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout: the program is imported from src/.
Workloads (see README.md for why each was chosen):

  certify_bulk   1000 off-wall reduced pairs on blowup:1..5, one in-process
                 `wallcross.certify` call each, candidate caches warm.
  cli_cold_deep  13 `python -m wallcross.cli ... --format json` requests
                 on blowup:7 and blowup:8, each in a fresh process.
  weyl_reduce    2000 `wallcross.reduce` round trips on blowup:3..8.

Inputs come from the seed before any timing.  A run makes a fixed number of
whole passes over its fixed list of operations, one operation at a time:
enough to fill S seconds at the workload's usual pass time, and at least
two.  Then it checks every output.  Each operation is timed on its own, and
its time is the fastest over the run's passes.  With --trace 0 the
end-to-end metrics are printed; with --trace 1 the untraced passes are
followed by one pass with every traced function wrapped (spans.py), and the
per-layer metrics are printed.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.  Problems found by the
checks go to standard error; the full result is also written under
perfbench/out/.
"""

from __future__ import annotations

import time

_LOADED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Candidate pools filled before timing: the certified depth of every
# criterion-4 pair is at most 10, and a perturbed endpoint may need a little
# more.
CERTIFY_WARM_DEPTH = 12
SCALING_SAMPLE = 20
# Untraced passes per run, at least: each operation is reported at its
# fastest pass, and a second pass lets a request that met a slow stretch of
# the shared machine in one pass count at its speed in the other.
MIN_PASSES = 2
REQUEST_TIMEOUT_S = 150
MAX_PROBLEMS_SHOWN = 20


def since_start() -> float:
    """Seconds since this process started, from the kernel's start time.

    Falls back to the time since this file was loaded where /proc is
    unavailable, which leaves out interpreter start.
    """
    loaded = time.perf_counter() - _LOADED
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return loaded
    return elapsed if elapsed >= loaded else loaded


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Pass:
    """Timings and outputs of one pass over a workload's operations."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        self.outputs: list = []
        self.failed = 0
        self.summary: dict | None = None
        self.start_s = 0.0
        self.rss = 0.0
        self.problems: list[str] = []


def import_program():
    if not os.path.isfile(os.path.join(SRC, "wallcross", "__init__.py")):
        sys.exit(f"run.py: no program at {SRC}/wallcross; run from a checkout root")
    sys.path.insert(0, SRC)
    import wallcross

    return wallcross


def in_process_pass(fn, arguments, errors) -> Pass:
    """One timed call of fn per argument tuple; an error counts as failed."""
    p = Pass()
    clock = time.perf_counter
    for args in arguments:
        c0, t0 = cpu_seconds(), clock()
        try:
            result = fn(*args)
        except errors as exc:
            result = exc
            p.failed += 1
        p.latencies.append(clock() - t0)
        p.cpu.append(cpu_seconds() - c0)
        p.outputs.append(result)
    return p


# ---------------------------------------------------------------------------
# Workloads


class CertifyBulk:
    """Library batch use of the paper's certificate, caches warm."""

    in_process = True
    # A pass's usual wall time in seconds (2-core box, Python 3.11).  It
    # only turns --seconds into a number of passes, so that the count does
    # not hinge on the speed of the run itself.
    pass_s = 4.0

    def setup(self, seed: int) -> None:
        self.wc = wc = import_program()
        self.seed = seed
        self.pairs = inputs.certify_pairs(seed)
        self.arguments = [
            (wc.blow_up(k), wc.SymplecticClass(u), wc.SymplecticClass(v))
            for k, u, v in self.pairs
        ]
        for k in range(1, 6):
            for depth in range(1, CERTIFY_WARM_DEPTH + 1):
                wc.candidate_pool(wc.blow_up(k), depth)
        self.errors = (wc.ValidationError, wc.ConsistencyError)
        self.first: list | None = None

    def run_pass(self, traced: bool) -> Pass:
        return in_process_pass(self.wc.certify, self.arguments, self.errors)

    def record(self, k, u, v, cert) -> dict:
        base = u if cert.perturbation is None else cert.perturbation.replacement.coords
        return {
            "k": k,
            "u": u,
            "v": v,
            "base": tuple(base),
            "walls": [(w.wall_class.coords, w.t_star, w.direction) for w in cert.walls],
            "mode": cert.verdict.mode,
            "level": cert.verdict.level,
        }

    def compact(self, p: Pass) -> None:
        """Keep plain records of the first pass; later passes must repeat it."""
        records = [
            None if isinstance(c, Exception) else self.record(k, u, v, c)
            for (k, u, v), c in zip(self.pairs, p.outputs)
        ]
        p.outputs = []
        if self.first is None:
            self.first = records
            return
        p.problems = [
            f"pair {i}: output differs from the first pass"
            for i, (a, b) in enumerate(zip(self.first, records))
            if a != b
        ]

    def final_checks(self) -> list[str]:
        """Every first-pass certificate against the oracle; then, on a seeded
        sample, scaling both endpoints keeps verdict and walls."""
        problems = []
        for i, rec in enumerate(self.first):
            if rec is not None:
                problems += [f"pair {i}: {m}" for m in checks.check_certificate(rec)]
        wc = self.wc
        rng = random.Random(self.seed + 1)
        for i in sorted(rng.sample(range(len(self.pairs)), SCALING_SAMPLE)):
            if self.first[i] is None:
                continue
            k, u, v = self.pairs[i]
            lam = Fraction(rng.randint(2, 9), rng.randint(1, 4))
            su, sv = tuple(lam * c for c in u), tuple(lam * c for c in v)
            try:
                cert = wc.certify(wc.blow_up(k), wc.SymplecticClass(su), wc.SymplecticClass(sv))
            except self.errors as exc:
                problems.append(f"pair {i} scaled by {lam}: {exc!r}")
                continue
            scaled = self.record(k, su, sv, cert)
            problems += [f"pair {i} scaled by {lam}: {m}" for m in checks.check_scaling(self.first[i], scaled)]
        return problems


class WeylReduce:
    """The lattice layer alone: reduction back from a seeded Weyl word."""

    in_process = True
    pass_s = 7.5

    def setup(self, seed: int) -> None:
        self.wc = wc = import_program()
        self.cases = inputs.weyl_cases(seed)
        self.arguments = [
            (wc.blow_up(k), wc.SymplecticClass(moved)) for k, _, _, moved in self.cases
        ]
        self.errors = (wc.ValidationError,)
        self.first: list | None = None

    def run_pass(self, traced: bool) -> Pass:
        return in_process_pass(self.wc.reduce, self.arguments, self.errors)

    def compact(self, p: Pass) -> None:
        """Keep plain results of the first pass; later passes must repeat it."""
        results = [
            None if isinstance(r, Exception)
            else (r[0].coords, tuple((m.kind, m.indices) for m in r[1]))
            for r in p.outputs
        ]
        p.outputs = []
        if self.first is None:
            self.first = results
            return
        p.problems = [
            f"case {i}: output differs from the first pass"
            for i, (a, b) in enumerate(zip(self.first, results))
            if a != b
        ]

    def final_checks(self) -> list[str]:
        problems = []
        for i, ((k, start, _, moved), res) in enumerate(zip(self.cases, self.first)):
            if res is not None:
                problems += [
                    f"case {i}: {m}"
                    for m in checks.check_reduction(k, start, moved, res[0], res[1])
                ]
        return problems


class CliColdDeep:
    """What a command-line user pays: every request starts from empty caches."""

    in_process = False
    pass_s = 25.0

    def setup(self, seed: int) -> None:
        if not os.path.isfile(os.path.join(SRC, "wallcross", "cli.py")):
            sys.exit(f"run.py: no program at {SRC}/wallcross; run from a checkout root")
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.requests, self.ctx = inputs.cli_requests(seed)
        os.makedirs(OUT, exist_ok=True)
        # Warm-up: compiles the program's bytecode on a fresh checkout and
        # shows that a request runs at all.
        warm = subprocess.run(
            [sys.executable, "-m", "wallcross.cli", "surface", "--surface", "blowup:8",
             "--format", "json"],
            capture_output=True, text=True, env=self.env, cwd=ROOT,
            timeout=REQUEST_TIMEOUT_S,
        )
        if warm.returncode != 0:
            sys.exit(f"run.py: warm-up request failed:\n{warm.stderr}")
        self.passes: list[Pass] = []

    def run_pass(self, traced: bool) -> Pass:
        p = Pass()
        summaries = []
        clock = time.perf_counter
        for label, argv in self.requests:
            spans_file = os.path.join(OUT, f"spans-{label}.json")
            if traced:
                cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_file, *argv]
            else:
                cmd = [sys.executable, "-m", "wallcross.cli", *argv]
            c0, t0 = cpu_seconds(), clock()
            try:
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                    timeout=REQUEST_TIMEOUT_S,
                )
                result = (proc.returncode, proc.stdout, proc.stderr)
            except subprocess.TimeoutExpired:
                result = (None, "", f"timed out after {REQUEST_TIMEOUT_S} s")
            dt = clock() - t0
            p.latencies.append(dt)
            p.cpu.append(cpu_seconds() - c0)
            p.outputs.append(result)
            if result[0] != 0:
                p.failed += 1
            if traced and result[0] == 0:
                with open(spans_file, encoding="utf-8") as fh:
                    summary = json.load(fh)
                summaries.append(summary)
                in_main = sum(e[3] for e in summary["edges"] if e[0] == "cli.main")
                p.start_s += dt - in_main
        if traced:
            p.summary = spans.merge(summaries)
        return p

    def compact(self, p: Pass) -> None:
        """Standard output stays as text until the memory peak has been read."""
        self.passes.append(p)

    def final_checks(self) -> list[str]:
        """Every document of the first pass; later passes must repeat its bytes."""
        first = self.passes[0]
        problems = self.check_documents(first)
        for p in self.passes[1:]:
            for (label, _), a, b in zip(self.requests, first.outputs, p.outputs):
                if a[0] == 0 and b[0] == 0 and a[1] != b[1]:
                    problems.append(f"{label}: output differs from the first pass")
        return problems

    def check_documents(self, p: Pass) -> list[str]:
        problems = []
        docs = {}
        for (label, _), (code, stdout, stderr) in zip(self.requests, p.outputs):
            if code != 0:
                problems.append(f"{label}: exit {code}: {stderr.strip()[-300:]}")
                continue
            doc, bad = checks.parse_document(stdout)
            problems += [f"{label}: {m}" for m in bad]
            if doc is not None:
                docs[label] = doc
        ctx = self.ctx

        def run(label, check, *needs):
            if all(n in docs for n in needs):
                problems.extend(f"{label}: {m}" for m in check(*(docs[n] for n in needs)))

        run("sets8", lambda d: checks.check_sphere_set(d, d["floor"]), "sets8")
        run("sets8g", lambda d: checks.check_sphere_set(d, 2), "sets8g")
        run("sets8g", lambda a, b: checks.check_equivariance(8, ctx["g8"], a, b), "sets8", "sets8g")
        run("sets7", lambda d: checks.check_sphere_set(d, d["floor"]), "sets7")
        run("sets7g", lambda d: checks.check_sphere_set(d, 2), "sets7g")
        run("sets7g", lambda a, b: checks.check_equivariance(7, ctx["g7"], a, b), "sets7", "sets7g")
        for n in ("8", "7"):
            run(f"diff{n}", checks.check_diff, f"diff{n}")
            run(f"stability{n}", checks.check_diff_stability, f"diff{n}", f"stability{n}")
        run("certify7", lambda d: checks.check_certificate(checks.certificate_from_json(d)), "certify7")
        run("strata8", checks.check_strata, "strata8")
        run(
            "capacities6",
            lambda d: checks.check_capacities(d, 6, ctx["capacities6"], ctx["weights"]),
            "capacities6",
        )
        run(
            "blowup6",
            lambda d: checks.check_blowup_class(d, ctx["capacities6"], ctx["caps"]),
            "blowup6",
        )
        run("enumerate8", checks.check_enumeration, "enumerate8")
        return problems


DEFAULT_SEEDS = {
    "certify_bulk": inputs.CERTIFY_SEED,
    "cli_cold_deep": 1,
    "weyl_reduce": 703,
}

WORKLOADS = {
    "certify_bulk": CertifyBulk,
    "cli_cold_deep": CliColdDeep,
    "weyl_reduce": WeylReduce,
}


# ---------------------------------------------------------------------------
# Running a workload


def timed_passes(workload, count: int, traced: bool, recorder=None) -> list[Pass]:
    """`count` whole passes.

    With a recorder (in-process tracing), its spans are reset before each
    pass and kept with it; CLI passes collect their children's spans.
    """
    passes = []
    for _ in range(count):
        if recorder is not None:
            recorder.reset()
        p = workload.run_pass(traced)
        if recorder is not None:
            p.summary = recorder.summary()
        if not passes:
            # read before any output is compacted, so it does not depend on
            # how many passes the run makes
            p.rss = peak_rss_mb()
        workload.compact(p)
        passes.append(p)
    return passes


def op_fastest(passes: list[Pass], field: str) -> list[float]:
    """Each operation's fastest time over the passes, in operation order.

    Load from outside only ever adds time, so summing these gives the time
    of the fixed list of operations with a stretch of outside load in one
    pass dropped, where a whole-pass time or a median of two would carry it.
    """
    return [min(ts) for ts in zip(*(getattr(p, field) for p in passes))]


def end_to_end(setup_s: float, passes: list[Pass], rss: float) -> dict:
    latencies = op_fastest(passes, "latencies")
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (sum(latencies), "s"),
        "cpu_s": (sum(op_fastest(passes, "cpu")), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(untraced: list[Pass], traced: Pass) -> dict:
    out = {}
    for name, value in spans.layer_metrics(traced.summary).items():
        unit = "s" if name.endswith("_s") else ("bytes" if name.endswith(".bytes") else "count")
        out[name] = (value, unit)
    out["cli.start_s"] = (traced.start_s, "s")
    # one pass against one pass, so the fastest-of-several does not count
    overhead = sum(traced.latencies) - sum(untraced[0].latencies)
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's, see README.md)")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    setup_s = since_start()
    count = max(MIN_PASSES, math.ceil(args.seconds / workload.pass_s))
    untraced = timed_passes(workload, count, False)
    traced = []
    if args.trace:
        recorder = None
        if workload.in_process:
            recorder = spans.Recorder()
            spans.install(recorder)
        traced = timed_passes(workload, 1, True, recorder)
    problems = [m for p in untraced + traced for m in p.problems]
    problems += workload.final_checks()

    passes = untraced + traced
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics = per_layer(untraced, traced[0])
    else:
        metrics = end_to_end(setup_s, untraced, untraced[0].rss)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for m in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {m}", file=sys.stderr)
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"... and {len(problems) - MAX_PROBLEMS_SHOWN} more", file=sys.stderr)
    op_latencies = op_fastest(untraced, "latencies")
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "result": result,
                "passes": len(passes),
                # a reference figure only, see README.md
                "op_p99_ms": percentile(op_latencies, 0.99) * 1e3,
                "op_fastest_latencies_s": op_latencies,
                "problems": problems,
                "spans": [p.summary for p in traced],
            },
            fh,
            indent=1,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
