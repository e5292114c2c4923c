"""cornerjet benchmark: one seeded, closed-loop workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.  One
client runs the workload's seeded operations, round after round, in a closed loop,
on one thread, checking every result against an independent exact reference.

``--trace 0`` measures the end-to-end metrics with tracing off, on one pinned
core, and scales every timing to a core of fixed speed (see "host-speed
calibration" below).  ``--trace 1``
replays a fixed slice of the same list untraced and then traced (spans around
every public callable of every layer, see ``spans.py``), checks that both give
byte-identical verdicts, and reports the per-layer metrics per traced pass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run metadata, the tail percentile
and, for traced runs, the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import importlib.metadata
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("halfline-deep", "quadrant-paths", "cli-sessions")
# Seed kept out of every run made while the benchmark or a change is tuned;
# a claimed gain must also hold on it.
HELDOUT_SEED = 7919
SETUP_PROBES = 7        # fresh processes whose set-up is timed; setup_s is their median
IMPORT_PROBES = 5
TAIL_BEYOND = 10        # samples that must lie beyond the reported tail percentile
QUADRANT_KINDS = ("valid", "cross-pole", "wrong-axis")
CALIBRATION_TERMS = [Fraction(i + 1, 2 * i + 3) for i in range(12)]
REFERENCE_NS = 400_000  # the calibration loop's time on the reference core


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("CORNERJET_ORDER", None)   # every run uses the default order
    return env


def import_cornerjet() -> None:
    import cornerjet
    import cornerjet.cli  # noqa: F401  (loaded up front, as the CLI does)

    if Path(cornerjet.__file__).resolve().parent != SRC / "cornerjet":
        raise SystemExit("error: imported cornerjet from %s, not from %s" % (cornerjet.__file__, SRC))


# -- host-speed calibration ---------------------------------------------------
#
# The benchmark runs on cores shared with other tenants, and the speed of a core
# swings by up to 2x from one tenth of a second to the next.  A timed run is
# therefore pinned to one core, and a fixed loop of Fraction arithmetic (the
# program's kind of work, none of its code) is timed on that core right before
# and right after every timed op and every set-up probe; the processes these
# start run on the same core.  Each timing is scaled to a core that runs the
# loop in REFERENCE_NS: t * REFERENCE_NS / mean(before, after).  A change to
# the program moves the scaled figures as it moves the raw ones, while the
# swings of the host largely cancel: on a shared 2-vCPU VM the quartile spread
# of ops_per_s over seeds fell from 0.1-0.2 of the median to 0.01-0.03, and the
# raw median of a cli-sessions op moved from 220 to 150 ms within half an hour.
# The raw figures go to the run's metadata.


def pin_to_one_core() -> None:
    """Run this process, and the processes it starts, on one core only."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibration_ns() -> int:
    """Best of two timings of the reference loop."""
    best = None
    for _ in range(2):
        t0 = perf_counter_ns()
        total = Fraction(0)
        for x in CALIBRATION_TERMS:
            for y in CALIBRATION_TERMS:
                total += x * y
        elapsed = perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def scaled(elapsed: float, before: int, after: int) -> float:
    return elapsed * 2 * REFERENCE_NS / (before + after)


# -- operations ---------------------------------------------------------------


def cli_in_process(argv: list[str]) -> tuple[int, str, str]:
    import cornerjet.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cornerjet.cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def execute(op):
    """Run one operation in-process; every call goes through a module attribute."""
    import cornerjet as cj

    inp = op.inputs
    if op.kind in ("boundary", "interior"):
        return cj.pullback_halfline(cj.parse_tensor(inp["tensor"]), cj.parse_plot(inp["plot"]), op.order)
    if op.kind == "metric":
        return cj.check_metric(cj.parse_tensor(inp["tensor"]), order=op.order)
    if op.kind == "decompose":
        return cj.decompose_halfline(cj.parse_tensor(inp["tensor"]), order=op.order)
    if op.kind == "capacity":
        return cj.verify_capacity(inp["k"], inp["p"], inp["m_max"], op.order)
    if op.kind in QUADRANT_KINDS:
        tensor = cj.parse_tensor(inp["tensor"], "quadrant")
        try:
            decomposition = cj.decompose_quadrant(tensor)
        except cj.NotSmoothError as err:   # the expected rejection: parity report only
            return err, cj.check_gamma_parity(tensor), None
        germ = cj.PairGerm(cj.parse_plot(inp["px"]), cj.parse_plot(inp["py"]))
        return (decomposition, cj.check_gamma_parity(tensor),
                cj.pullback_quadrant_path(tensor, germ, op.order))
    return cli_in_process(inp["argv"])


def execute_process(op, env: dict) -> tuple[int, str, str, int]:
    """Run one CLI op as a ``python -m cornerjet`` process; returns its peak RSS in KiB too."""
    with open(OUT / "cli-stderr.txt", "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-m", "cornerjet", *op.inputs["argv"]],
                                stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out.decode(), err.read().decode(), usage.ru_maxrss


def check(op, result) -> str | None:
    """None when the result matches the reference, else a description."""
    import reference

    if op.kind == "cli":
        code, out, err = result[:3]
        if "Traceback" in err:
            return "op %d %r printed a traceback" % (op.index, op.inputs["argv"])
        if (code, out) != op.in_process[:2]:
            return "op %d %r: in-process gave %r, got %r" % (
                op.index, op.inputs["argv"], op.in_process[:2], (code, out))
    if op.expected is None:
        op.expected = reference.expected(op)
    try:
        got = reference.observed(op, result)
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        return "op %d (%s, order %s): unreadable result %r: %s" % (op.index, op.kind, op.order, result, exc)
    if got != op.expected:
        return "op %d (%s, order %s): expected %r, got %r" % (op.index, op.kind, op.order, op.expected, got)
    return None


# -- set-up -------------------------------------------------------------------


def set_up(warm_round: list) -> None:
    """Import cornerjet (and for CLI ops warm the bytecode cache), then run the
    warm-up round, which is never timed, so that no first call is timed cold."""
    import_cornerjet()
    if any(op.kind == "cli" for op in warm_round):
        compileall.compile_dir(str(SRC / "cornerjet"), quiet=1)
    for op in warm_round:
        execute(op)


def prepare_cli(ops: list) -> None:
    """Compute, untimed, the in-process output each CLI op's process must reproduce."""
    for op in ops:
        if op.kind == "cli":
            op.in_process = cli_in_process(op.inputs["argv"])


def probe_set_up(args) -> int:
    """Child side of ``measure_setup``: generate (untimed), set up, report."""
    import workloads

    t0 = perf_counter()
    warm_round = workloads.generate(args.workload, args.seed, 1)[0]
    gen_s = perf_counter() - t0
    set_up(warm_round)
    print("ready %r" % gen_s, flush=True)
    return 0


def measure_setup(args, env: dict) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes: start to first timed op, input generation excluded.

    Returns the scaled samples and the raw ones, in seconds."""
    samples, raw = [], []
    argv = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", args.workload,
            "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        before = calibration_ns()
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.close()
        if proc.wait() != 0 or not line.startswith("ready "):
            raise RuntimeError("set-up probe failed (exit %s, %r)" % (proc.returncode, line))
        raw.append(ready - t0 - float(line.split()[1]))
        samples.append(scaled(raw[-1], before, calibration_ns()))
    return samples, raw


# -- measurement --------------------------------------------------------------


def closed_loop(rounds, run_op, seconds: float, verify=check, prepare=None, calibrate=False):
    """Run whole rounds until ``seconds`` have passed; time each op, verify each result.

    ``prepare`` runs before each round, outside the timed ops.  Returns the op
    latencies in ns, one list per round (with ``calibrate``, scaled to the
    reference core), the attempted count, the failures and the raw latencies."""
    timed, raw, failures = [], [], []
    attempted = 0
    deadline = perf_counter_ns() + int(seconds * 1e9)
    for ops in rounds:
        if timed and perf_counter_ns() >= deadline:
            break
        if prepare:
            prepare(ops)
        latencies = []
        before = calibration_ns() if calibrate else None
        for op in ops:
            t0 = perf_counter_ns()
            try:
                result, error = run_op(op), None
            except Exception as exc:   # an unexpected raise is a failed operation
                result, error = None, exc
            elapsed = perf_counter_ns() - t0
            raw.append(elapsed)
            if calibrate:
                after = calibration_ns()
                elapsed, before = scaled(elapsed, before, after), after
            latencies.append(elapsed)
            attempted += 1
            problem = ("op %d (%s): raised %r" % (op.index, op.kind, error)) if error else verify(op, result)
            if problem:
                failures.append(problem)
        timed.append(latencies)
    return timed, attempted, failures, raw


def tail(latencies: list[int]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / n


def run_timed(args, env) -> tuple[dict, dict]:
    import workloads

    pin_to_one_core()
    setup, raw_setup = measure_setup(args, env)
    rounds = workloads.rounds(args.workload, args.seed)
    set_up(next(rounds))
    if args.workload == "cli-sessions":
        child_peaks = []

        def run_process(op):
            result = execute_process(op, env)
            child_peaks.append(result[3])
            return result

        timed, attempted, failures, raw = closed_loop(rounds, run_process, args.seconds,
                                                      prepare=prepare_cli, calibrate=True)
        peak_kib = max(child_peaks)
    else:
        timed, attempted, failures, raw = closed_loop(rounds, execute, args.seconds,
                                                      calibrate=True)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = [dt for rnd in timed for dt in rnd]
    tail_ns, tail_pct = tail(latencies)
    metrics = {
        "ops_per_s": len(latencies) / (sum(latencies) / 1e9),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_tail_ms": tail_ns / 1e6,
        "ok_ratio": (attempted - len(failures)) / attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kib / 1024,
    }
    info = {"tail_percentile": tail_pct, "tail_samples": len(latencies), "rounds_run": len(timed),
            "setup_samples_s": setup, "reference_ns": REFERENCE_NS,
            "raw": {"ops_per_s": len(raw) / (sum(raw) / 1e9), "op_p50_ms": statistics.median(raw) / 1e6,
                    "op_tail_ms": tail(raw)[0] / 1e6, "setup_s": statistics.median(raw_setup),
                    "setup_samples_s": raw_setup}}
    return metrics, {"attempted": attempted, "failures": failures, "info": info}


def run_traced(args, env) -> tuple[dict, dict]:
    import spans
    import workloads

    rounds = workloads.rounds(args.workload, args.seed)
    set_up(next(rounds))
    n_rounds = workloads.PARAMS[args.workload]["trace_rounds"]
    # The same ops on every pass, traced or not; CLI ops replay in-process.
    pass_ops = [op for rnd in itertools.islice(rounds, n_rounds) for op in rnd]
    pass_ops += workloads.coverage_ops(args.seed)
    prepare_cli(pass_ops)
    passes = itertools.repeat(pass_ops)
    verdicts = {}

    def verify(op, result):
        """The reference check, and the same bytes on every pass, traced or not."""
        seen = repr(result)
        if verdicts.setdefault(id(op), seen) != seen:
            return "op %d (%s): traced verdict differs from untraced" % (op.index, op.kind)
        return check(op, result)

    recorder = spans.Recorder()
    op_ids = itertools.count()

    def traced_op(op):
        recorder.op_id = next(op_ids)
        return execute(op)

    plain, attempted, failures, _ = closed_loop(passes, execute, args.seconds / 2, verify)
    recorder.install()
    try:
        traced, traced_attempted, traced_failures, _ = closed_loop(
            passes, traced_op, args.seconds / 2, verify)
    finally:
        recorder.uninstall()
    first_pass_spans = sum(1 for op_id in recorder.op if op_id < len(pass_ops))
    recorder.write(OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed)), first_pass_spans)
    metrics = recorder.layer_metrics(len(traced))
    metrics.update(cli_probes(env))
    plain_pass_ns, traced_pass_ns = (sum(map(sum, p)) / len(p) for p in (plain, traced))
    metrics["trace.overhead_ratio"] = plain_pass_ns / traced_pass_ns   # traced / untraced ops_per_s
    info = {"pass_ops": len(pass_ops), "untraced_passes": len(plain), "traced_passes": len(traced),
            "spans": len(recorder), "spans_written": first_pass_spans}
    return metrics, {"attempted": attempted + traced_attempted, "failures": failures + traced_failures,
                     "info": info}


def cli_probes(env: dict) -> dict:
    """Interpreter start and the import split of ``import cornerjet``, medians of fresh processes."""
    def wall(argv):
        t0 = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, capture_output=True)
        return (perf_counter() - t0) * 1e3

    def importtime():
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cornerjet"],
                              cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e3)
        return cumulative.get("cornerjet", 0.0), cumulative.get("numpy", 0.0)

    importtime()   # warm the bytecode cache
    interp = [wall([sys.executable, "-c", "pass"]) for _ in range(IMPORT_PROBES)]
    imports = [importtime() for _ in range(IMPORT_PROBES)]
    return {
        "cli.interpreter_ms": statistics.median(interp),
        "cli.import_cornerjet_ms": statistics.median(c for c, _ in imports),
        "cli.import_numpy_ms": statistics.median(n for _, n in imports),
    }


# -- reporting ----------------------------------------------------------------


def metadata(args) -> dict:
    import workloads

    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "heldout_seed": HELDOUT_SEED, "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "git_rev": rev,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "generator": workloads.PARAMS[args.workload],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "cornerjet" / "__init__.py").is_file():
        print("error: no cornerjet sources under %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("CORNERJET_ORDER", None)
    if args.probe_setup:
        return probe_set_up(args)

    OUT.mkdir(exist_ok=True)
    env = child_env()
    run = run_traced if args.trace else run_timed
    metrics, outcome = run(args, env)
    failures = outcome["failures"]
    result = {
        "correct": not failures,
        "attempted": outcome["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    meta = metadata(args)
    meta.update(outcome["info"])
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps({"meta": meta, "failures": failures, **result},
                                                   indent=1, default=str))
    for problem in failures[:5]:
        print("FAILED: " + problem, file=sys.stderr)
    for name, entry in result["metrics"].items():
        print("%-48s %14.6g %s" % (name, entry["value"], entry["unit"]))
    if not args.trace:
        print("op_tail_ms is p%.2f over %d samples" % (meta["tail_percentile"], meta["tail_samples"]))
    print("meta " + json.dumps(meta, default=str))
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith(".calls") or name == "jets.coeffs_out":
        return "count"
    if name.endswith("_ms"):
        return "ms"
    return {
        "ops_per_s": "1/s", "ok_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
        "jets.max_coeff_bits": "bits", "pullback.pullback_quadrant_path.window_rounds": "ratio",
        "metric.check_metric.germs_per_call": "germs/call", "trace.overhead_ratio": "ratio",
    }[name]


if __name__ == "__main__":
    sys.exit(main())
