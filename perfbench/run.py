"""goldmean benchmark: one workload, closed loop, one client.

Usage, from the root of a goldmean checkout::

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload trinomial --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload catalog --steady 5 --seconds 20

The corpus of argv lists is generated from ``--seed``.  In-process workloads
call ``goldmean.cli.run(argv)`` with stdout and stderr captured in memory;
``cold_start`` runs ``from goldmean.cli import main; main()`` as one child
process per op.  Every op starts after the previous one ends, and the corpus
is replayed in a number of whole passes fixed by the workload and
``--seconds`` (see :func:`passes_for`), never by how fast the machine runs,
so attempted ops, failure counts and work counters repeat exactly for a seed.  Outputs are
checked by :mod:`check` between ops, outside the timed region.  End-to-end
times are scaled to a reference machine by a pure-Python loop timed along
the run, because the machine's speed drifts while it is shared.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (half of the
time untraced, half traced, so the tracing overhead shows as two goodputs).
``--steady N`` repeats the workload with N seeds and prints each metric's
spread against its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
sys.path.insert(0, str(PERF))

import check  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 9
#: the reference loop, and its duration on the reference machine that times are scaled to
REFERENCE_ITERATIONS = 50_000
REFERENCE_S = 0.002
CALIBRATE_EVERY_S = 0.1
IMPORT_REPEATS = 5
TAIL_BEYOND = 10
OP_TIMEOUT_S = 60
#: seconds one pass over a workload's corpus takes on the machine the benchmark
#: was calibrated on (2 shared vCPUs); ``--seconds`` is turned into passes with it
PASS_SECONDS = {"closed_form": 4.0, "trinomial": 2.0, "catalog": 3.3, "cold_start": 4.0}
CHILD_PLAIN = "from goldmean.cli import main; main()"
CHILD_TRACED = f"import sys; sys.path.insert(0, {str(PERF)!r}); import spans; spans.child_main(sys.argv[1:])"
SETUP_PROBE = (f"import sys; sys.path.insert(0, {str(PERF)!r}); import run; "
               "r = min(run.reference_seconds() for _ in range(3)); "
               "print(run.setup(sys.argv[1], int(sys.argv[2]))[2] * run.REFERENCE_S / r)")

#: scaling rows: (name prefix, span kinds, property of an op and its output size, decade buckets)
SCALES = (
    ("scale.surds.ctor_ms.radicand", ("surds.ctor",), lambda op, size: op["radicand"], 10),
    ("scale.surds.to_decimal_ms.digits", ("surds.to_decimal",), lambda op, size: op["digits"], 4),
    ("scale.trinomials.ms.n", ("trinomials",), lambda op, size: op["params"].get("n"), 3),
    # right-side rows are the costly ones; left-only tables would flatten the slope
    ("scale.triangles.ms.rows", ("triangles",),
     lambda op, size: op["params"]["rows"] if op["cmd"] == "table1" and op["params"]["side"] != "left" else None, 4),
    ("scale.harmonic.ms.size", ("harmonic.build", "harmonic.check"),
     lambda op, size: op["params"]["size"] if op["cmd"] == "harmonic" else None, 4),
    ("scale.cli.self_ms.bytes", ("cli.run",), lambda op, size: size, 8),
)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_cli():
    """Import goldmean.cli from this checkout's ``src``, and nowhere else."""
    if not (SRC / "goldmean" / "cli.py").is_file():
        raise SystemExit(f"error: no goldmean sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from goldmean import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: goldmean was imported from {cli.__file__}, not {SRC}")
    return cli


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONIOENCODING="utf-8",
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


# -- executing one op -----------------------------------------------------------

def run_inprocess(cli, argv: list[str]):
    """(seconds, exit code, stdout, stderr, escaped exception name) of ``cli.run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    code = exc = None
    start = perf_counter()
    try:
        code = cli.run(argv)
    except Exception as error:  # the op failed; the verdict records it
        exc = type(error).__name__
    finally:
        elapsed = perf_counter() - start
        sys.stdout, sys.stderr = saved
    return elapsed, code, out.getvalue(), err.getvalue(), exc


class ColdRunner:
    """Runs each op as its own interpreter process, waiting for it to end."""

    def __init__(self, traced: bool = False):
        self.env = child_env()
        self.code = CHILD_TRACED if traced else CHILD_PLAIN
        self.traced = traced
        self.dump: dict = {}

    def __call__(self, argv: list[str]):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.code, *argv], capture_output=True,
                              env=self.env, cwd=ROOT, timeout=OP_TIMEOUT_S)
        elapsed = perf_counter() - start
        out = proc.stdout.decode("utf-8", "replace")
        err = proc.stderr.decode("utf-8", "replace")
        if self.traced:
            err, _, dump = err.partition(spans.CHILD_MARK)
            self.dump = json.loads(dump) if dump else {"spans": [], "counts": {}}
        exc = None
        if proc.returncode == 1 and "Traceback (most recent call last)" in err:
            exc = err.strip().splitlines()[-1].split(":")[0].rsplit(".", 1)[-1]
        return elapsed, proc.returncode, out, err, exc


def setup(workload: str, seed: int):
    """Import, corpus generation and warm-up; returns (cli, ops, seconds taken)."""
    start = perf_counter()
    cli = load_cli()
    ops = corpus.generate(workload, seed)
    for cmd in sorted({op["cmd"] for op in ops}):
        run_inprocess(cli, corpus.WARMUP[cmd])
    return cli, ops, perf_counter() - start


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters (interpreter start excluded), scaled to the reference machine."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, workload, str(seed)],
                              capture_output=True, text=True, cwd=ROOT, timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


# -- the closed loop --------------------------------------------------------------

class Judge:
    """Checks each op's first output fully, later outputs by digest."""

    def __init__(self):
        self.seen: dict[int, tuple] = {}

    def __call__(self, op: dict, code, out: str, err: str, exc) -> None:
        # a traceback's frames depend on who called; the exception's name is the outcome
        shown = err if exc is None else ""
        key = hashlib.blake2b(f"{code}\0{exc}\0{shown}\0".encode() + out.encode(), digest_size=16).digest()
        seen = self.seen.get(id(op))
        if seen is None:
            self.seen[id(op)] = (op, key, check.check(op, code, out, err, exc))
        elif seen[1] != key:
            self.seen[id(op)] = (op, b"", check.Verdict("wrong", "output differs between passes", {}))

    def verdicts(self, ops: list[dict]) -> list[check.Verdict]:
        """Verdicts of ``ops``; an invocation whose formats disagree is wrong in every format."""
        groups: dict[int, list[dict]] = {}
        for op, _, verdict in self.seen.values():
            groups.setdefault(op["group"], []).append(verdict.summary)
        mismatch = {group: check.agree(summaries) for group, summaries in groups.items()}
        return [check.Verdict("wrong", mismatch[op["group"]], {}) if mismatch[op["group"]]
                else self.seen[id(op)][2] for op in ops]


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop: how fast this machine runs Python right now."""
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i
    return perf_counter() - start


def passes_for(workload: str, seconds: float) -> int:
    """Whole passes that take about ``seconds`` on the calibration machine, at least one.

    The count depends on nothing measured, so two runs of a seed attempt the
    same ops however fast the machine runs at the time.
    """
    return max(1, int(seconds / PASS_SECONDS[workload] + 0.5))


def closed_loop(ops, execute, passes: int, judge: Judge, before=None, after=None):
    """``passes`` whole passes over the corpus.

    Returns each op's latencies scaled to the reference machine, the raw op
    time spent, and the number of passes.  The reference loop is timed about
    every ``CALIBRATE_EVERY_S``; an op's scale is ``REFERENCE_S`` over the
    mean of the timings just before and just after it.
    """
    latencies: list[list[float]] = [[] for _ in ops]
    pending: list[tuple[int, float]] = []
    reference, since = reference_seconds(), perf_counter()
    elapsed = 0.0

    def rescale():
        nonlocal reference, since
        now = reference_seconds()
        scale = 2 * REFERENCE_S / (reference + now)
        for i, dt in pending:
            latencies[i].append(dt * scale)
        pending.clear()
        reference, since = now, perf_counter()

    for done in range(passes):
        for i, op in enumerate(ops):
            if before:
                before(i, done)
            dt, code, out, err, exc = execute(op["argv"])
            elapsed += dt
            pending.append((i, dt))
            if after:
                after(i, done, out)
            judge(op, code, out, err, exc)
            if perf_counter() - since >= CALIBRATE_EVERY_S:
                rescale()
    rescale()
    return latencies, elapsed, passes


def rank_latency(per_op, verdicts, rank: int):
    """Latency at a rank of the per-op latencies, failed ops sorted after every success."""
    order = sorted((v.status != "ok", t) for t, v in zip(per_op, verdicts))
    failed, value = order[rank]
    return None if failed else value


def end_to_end(latencies, verdicts, rss_kb) -> tuple[dict, list[str]]:
    """An op's latency is the median of its scaled passes."""
    per_op = [statistics.median(lat) for lat in latencies]
    n = len(verdicts)
    ok = sum(v.status == "ok" for v in verdicts)
    tail_rank = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    pass_ms = sum(per_op) * 1000.0
    notes = []
    values = {"goodput_ops_s": ok / sum(per_op), "peak_rss_mb": rss_kb / 1024.0}
    for name, rank, label in (("latency_p50_ms", (n - 1) // 2, "p50"),
                              ("latency_tail_ms", tail_rank, f"p{100.0 * (tail_rank + 1) / n:.4g}")):
        value = rank_latency(per_op, verdicts, rank)
        if value is None:
            values[name] = pass_ms
            notes.append(f"{name}: FAILED ({label} of {n} ops lands on a failed op; "
                         f"reported as the time of a whole pass, {pass_ms:.1f} ms)")
        else:
            values[name] = value * 1000.0
            notes.append(f"{name}: {label} of {n} ops, {n - 1 - rank} beyond")
    return values, notes


# -- tracing ------------------------------------------------------------------------

def _decade(value: int, buckets: int) -> int:
    return min(buckets - 1, len(str(max(1, int(value)))) - 1)


def import_ms() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of importing goldmean.cli on top of it."""
    env = child_env()

    def wall(code: str) -> float:
        samples = []
        for _ in range(IMPORT_REPEATS):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                           timeout=OP_TIMEOUT_S, stdout=subprocess.DEVNULL)
            samples.append(perf_counter() - start)
        return statistics.median(samples) * 1000.0

    bare = wall("pass")
    return bare, wall("import goldmean.cli") - bare


class TraceRun:
    """Per-layer totals over the traced passes, and the first pass's spans."""

    def __init__(self, ops: list[dict]):
        self.ops = ops
        self.kind_ms: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_ms = [Counter() for _ in ops]
        self.op_bytes = [0] * len(ops)
        self.kept: list[list] = []

    def record(self, i: int, first_pass: bool, op_spans: list[list], base: int, out: str) -> None:
        self_ms, counts = spans.aggregate(op_spans, base)
        self.kind_ms.update(self_ms)
        self.op_ms[i].update(self_ms)
        self.counts.update(counts)
        self.op_bytes[i] = len(out.encode())
        self.counts["cli.output_bytes"] += self.op_bytes[i]
        if first_pass:
            offset = len(self.kept) - base
            self.kept += [[kind, start, end, parent + offset if parent >= base else -1, i, error]
                          for kind, start, end, parent, _, error in op_spans]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.kept[0][1] if self.kept else 0.0
        with path.open("w") as f:
            f.write("span\top\tkind\tstart_us\tend_us\tparent\terror\n")
            for index, (kind, start, end, parent, op, error) in enumerate(self.kept):
                f.write(f"{index}\t{op}\t{kind}\t{(start - origin) * 1e6:.3f}\t"
                        f"{(end - origin) * 1e6:.3f}\t{parent}\t{int(error)}\n")

    def metrics(self, passes: int, verdicts) -> dict:
        ms = {kind: self.kind_ms[kind] / passes for kind in spans.KINDS}
        count = {key: value / passes for key, value in self.counts.items()}
        useful = 0
        for op, verdict in zip(self.ops, verdicts):
            if op["cmd"] == "harmonic" and verdict.status == "ok":
                p = op["params"]
                if p["doublets"]:
                    useful += 2 * (p["size"] - 1)
                elif p["key"] is None:
                    useful += p["size"] ** 2
        built = count.get("harmonic.cells_built", 0)
        out = {
            "cli.build_parser_ms": ms["cli.build_parser"],
            "cli.parse_ms": ms["cli.parse"],
            "cli.self_ms": ms["cli.run"],
            "surds.ctor_ms": ms["surds.ctor"],
            "surds.to_decimal_ms": ms["surds.to_decimal"],
            "surds.cf_ms": ms["surds.cf"],
            "quadratics.ms": ms["quadratics"],
            "trinomials.ms": ms["trinomials"],
            "triangles.ms": ms["triangles"],
            "harmonic.build_ms": ms["harmonic.build"],
            "harmonic.check_ms": ms["harmonic.check"],
            "harmonic.useful_ratio": useful / built if built else 0.0,
        }
        for key in ("cli.output_bytes", "cli.errors", "surds.ctor_calls", "surds.digits_rendered",
                    "surds.cf_terms", "surds.errors", "quadratics.calls", "quadratics.errors",
                    "trinomials.roots", "trinomials.brackets", "trinomials.iterations",
                    "trinomials.errors", "triangles.rows", "triangles.errors",
                    "harmonic.cells_built", "harmonic.errors"):
            out[key] = count.get(key, 0)
        for prefix, kinds, prop, buckets in SCALES:
            samples: dict[int, list[float]] = {}
            for op, op_ms, size in zip(self.ops, self.op_ms, self.op_bytes):
                value = prop(op, size)
                spent = sum(op_ms[k] for k in kinds) / passes
                if value is not None and spent > 0:
                    samples.setdefault(_decade(value, buckets), []).append(spent)
            for b in range(buckets):
                out[f"{prefix}_e{b}"] = statistics.median(samples[b]) if b in samples else 0.0
        return out


def traced_run(workload: str, seed: int, ops, seconds: float, execute, judge: Judge):
    """Half the time untraced, half traced; returns (per-layer metrics, notes, passes run)."""
    half = passes_for(workload, seconds / 2)
    plain, _, plain_passes = closed_loop(ops, execute, half, judge)
    trace = TraceRun(ops)
    if workload == "cold_start":
        runner = ColdRunner(traced=True)

        def after(i, passes, out):
            op_spans = runner.dump["spans"]
            trace.record(i, passes == 0, op_spans, 0, out)
            trace.counts.update(runner.dump["counts"])

        traced, _, passes = closed_loop(ops, runner, half, judge, after=after)
    else:
        tracer = spans.Tracer()
        start = {}

        def before(i, passes):
            tracer.op = i
            start["base"] = len(tracer.spans)

        def after(i, passes, out):
            base = start["base"]
            trace.record(i, passes == 0, tracer.spans[base:], base, out)
            del tracer.spans[base:]

        tracer.install()
        try:
            traced, _, passes = closed_loop(ops, execute, half, judge, before, after)
        finally:
            tracer.uninstall()
        trace.counts.update(tracer.counts)
    verdicts = judge.verdicts(ops)
    ok = sum(v.status == "ok" for v in verdicts)
    metrics = trace.metrics(passes, verdicts)
    metrics["trace.goodput_ops_s"] = ok * passes / sum(map(sum, traced))
    metrics["trace.untraced_goodput_ops_s"] = ok * plain_passes / sum(map(sum, plain))
    metrics["import.interpreter_ms"], metrics["import.goldmean_cli_ms"] = import_ms()
    span_file = PERF / "out" / f"spans-{workload}-{seed}.tsv"
    trace.write(span_file)
    overhead = metrics["trace.untraced_goodput_ops_s"] / metrics["trace.goodput_ops_s"]
    notes = [f"tracing: {plain_passes} untraced and {passes} traced passes; "
             f"untraced/traced goodput = {overhead:.3f}",
             f"spans of the first traced pass: {span_file.relative_to(ROOT)} ({len(trace.kept)} spans)"]
    return metrics, notes, plain_passes + passes


# -- reporting ------------------------------------------------------------------------

def failure_notes(verdicts) -> tuple[bool, list[str]]:
    """Whether every failure is a known defect, and one line per kind of failure."""
    tally = Counter((v.status, v.reason) for v in verdicts if v.status != "ok")
    notes = []
    for (status, reason), count in sorted(tally.items()):
        if status == "known":
            reason += " (" + "; ".join(check.KNOWN_DEFECTS[r] for r in reason.split(",")) + ")"
        notes.append(f"failed ops ({status}): {count} x {reason}")
    return not any(v.status == "wrong" for v in verdicts), notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    cli, ops, _ = setup(workload, seed)
    cold = workload == "cold_start"
    execute = ColdRunner() if cold else (lambda argv: run_inprocess(cli, argv))
    if cold:
        execute(corpus.WARMUP["solve"])
    timed = [op for op in ops if not op["verify_only"]]
    print(f"workload: {workload}  seed: {seed}  corpus: {len(timed)} timed ops, "
          f"{len(ops) - len(timed)} more to compare formats  digest: {corpus.digest(ops)}")
    judge = Judge()
    if trace:
        metrics, notes, passes = traced_run(workload, seed, timed, seconds, execute, judge)
        section = "per_layer"
    else:
        latencies, elapsed, passes = closed_loop(timed, execute, passes_for(workload, seconds), judge)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF).ru_maxrss
        section = "end_to_end"
    for op in ops:
        if op["verify_only"]:
            judge(op, *execute(op["argv"])[1:])
    verdicts = judge.verdicts(timed)
    if not trace:
        metrics, notes = end_to_end(latencies, verdicts, rss_kb)
        metrics["setup_s"] = setup_seconds(workload, seed)
        scaled = sum(map(sum, latencies))
        notes.insert(0, f"passes: {passes}  timed: {elapsed:.3f} s, {scaled:.3f} s at the reference speed "
                        f"(machine ran at {scaled / elapsed:.3f} of it)  setup: median of {SETUP_REPEATS} interpreters")
    correct, failures = failure_notes(verdicts)
    failed_ops = sum(v.status != "ok" for v in verdicts)
    attempted, failed = len(timed) * passes, failed_ops * passes
    notes.append(f"failed_share: {failed_ops / len(timed):.6f} ({failed} of {attempted} attempted)")
    for line in notes + failures:
        print(line)
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[section]}
    for name, m in result.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}


def steady(workload: str, seeds: range, seconds: float, trace: int) -> int:
    """Run the workload once per seed and print each metric's spread against its bound.

    The last line is a JSON summary: per metric its median, quartiles and spread.
    """
    bounds = {m["name"]: m.get("bound") for m in load_spec()["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = []
    for seed in seeds:
        proc = subprocess.run([sys.executable, str(PERF / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                              capture_output=True, text=True, cwd=ROOT, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                     "failed": result["failed"]})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    worst = 0
    summary = {}
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        verdict = ("" if bound is None else "steady" if spread < bound / 3 else
                   "within bound" if spread <= bound else "UNSTEADY")
        if verdict == "UNSTEADY" and name != "setup_s":
            worst = 1
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "unit": units[name]}
        print(f"{name}: median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
              + (f"  bound {bound}  {verdict}" if bound is not None else ""))
    print(json.dumps({"workload": workload, "seconds": seconds, "trace": trace, "runs": runs,
                      "metrics": summary}))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run seeds seed..seed+N-1 and report each metric's spread")
    args = parser.parse_args(argv)
    if args.steady:
        return steady(args.workload, range(args.seed, args.seed + args.steady), args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
