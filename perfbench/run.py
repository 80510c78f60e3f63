"""Layered benchmark of charrank, run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

* ``verify-all``    one ``charrank verify all`` process at a time;
* ``bound-queries`` a seeded list of single public-API calls, in process;
* ``cli-oneshot``   one small ``python -m charrank`` command at a time.

Each is a closed loop with one client.  A run measures for ``--seconds``
seconds, checks every output against an independent oracle afterwards,
prints a readable report, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run spends half its
time untraced and half traced and reports the per-layer ones.  Spans of the
first traced unit are written to ``perfbench/out/``.

The program under test is ``src/charrank`` of the same checkout; nothing
needs building.  The run exits 2 without a result when it is missing.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import kernelcheck
import metrics
import workloads
from child import MARKER
from speed import NOMINAL_REFERENCE_S, reference_loop, speed_factor
from spantrace import Tracer, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"

WORKLOADS = ("verify-all", "bound-queries", "cli-oneshot")

#: Fresh interpreters started to measure set-up; the median is reported.
SETUP_REPEATS = 15
#: Bare interpreters started for ``cli.interpreter_s`` in traced runs.
INTERPRETER_REPEATS = 9
#: Seconds of bound-queries calls between two timings of the reference loop.
REFERENCE_EVERY_S = 0.2

SETUP_CODE = (
    "import time; start = time.perf_counter(); import charrank, charrank.cli; "
    "charrank.backend_name(); print(time.perf_counter() - start)"
)


CHILD_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
)


def spawn(argv):
    """Run a process to completion; return (exit code, stdout+stderr text,
    wall seconds, peak RSS in MB)."""
    start = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
    )
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), wall, usage.ru_maxrss / 1024


def split_marker(text):
    """Split a child's output into the command's output and its record."""
    body, found, record = text.rpartition("\n" + MARKER)
    if not found:
        return text, None
    return body, json.loads(record)


class Phase:
    """What one timed phase of a workload produced: per unit, its raw
    seconds and speed factor, and the raw seconds and speed factor of each
    of its operations; the outputs the check needs; and, traced, the span
    aggregates of each unit."""

    def __init__(self):
        self.units = []
        self.ops = []
        self.outputs = []
        self.rss_mb = []
        self.attempted = 0
        self.failed = 0
        self.traces = []

    def add(self, seconds, factor, ops):
        self.units.append((seconds, factor))
        self.ops.append(ops)

    def scaled_units(self):
        return [t * f for t, f in self.units]

    def scaled_ops(self):
        return [t * f for ops in self.ops for t, f in ops]


def _until(seconds):
    """Yield unit indices until ``seconds`` have passed (at least one)."""
    deadline = perf_counter() + seconds
    index = 0
    while index == 0 or perf_counter() < deadline:
        yield index
        index += 1


def measure_setup():
    """Fresh interpreters importing charrank until ready, SETUP_REPEATS
    times after one start that fills the bytecode cache.  Returns the scaled
    times of the starts and the median in-process import time."""
    argv = [sys.executable, "-c", SETUP_CODE]
    spawn(argv)
    scaled, imports = [], []
    before = reference_loop()
    for _ in range(SETUP_REPEATS):
        code, out, wall, _ = spawn(argv)
        if code != 0:
            raise RuntimeError(f"importing charrank failed:\n{out}")
        after = reference_loop()
        scaled.append(wall * speed_factor(before, after))
        imports.append(float(out))
        before = after
    return scaled, statistics.median(imports)


def measure_interpreter():
    walls = [spawn([sys.executable, "-c", "pass"])[2] for _ in range(INTERPRETER_REPEATS)]
    return statistics.median(walls)


# -- verify-all ---------------------------------------------------------------


def verify_all_phase(seconds, traced, spans_path=None):
    """``verify all`` processes in a loop.  Each process times the reference
    loop before and after the command and, untraced, after every sweep, so
    that every sweep has its own speed factor.  The rest of the process
    (start, import, rendering) is scaled by the mean loop time."""
    phase = Phase()
    for unit in _until(seconds):
        argv = [sys.executable, str(CHILD), "--reference"]
        if traced:
            argv.append("--trace")
            if unit == 0 and spans_path:
                argv += ["--spans", str(spans_path)]
        code, out, wall, rss = spawn(argv + ["--", "verify", "all"])
        text, record = split_marker(out)
        if record is None:  # the child died; its sweeps count as failed below
            record = {"sweeps": [], "refs": [], "dump_s": 0.0}
        refs = record["refs"] or [NOMINAL_REFERENCE_S]
        mean = NOMINAL_REFERENCE_S * len(refs) / sum(refs)
        sweeps = record["sweeps"]
        if len(refs) == len(sweeps) + 2:
            ops = [(t, speed_factor(a, b)) for t, a, b in zip(sweeps, refs, refs[1:])]
        else:
            ops = [(t, mean) for t in sweeps]
        own = wall - record["dump_s"] - sum(record["refs"])
        rest = own - sum(sweeps)
        phase.add(own, (sum(t * f for t, f in ops) + rest * mean) / own, ops)
        phase.rss_mb.append(rss)
        if traced and "trace" in record:
            phase.traces.append(record["trace"])
        phase.attempted += len(workloads.VERIFY_ALL_CHECKED)
        phase.failed += workloads.verify_all_failures(code, text)
    return phase


# -- bound-queries ------------------------------------------------------------


def bound_queries_phase(charrank, ops, seconds, tracer=None, spans_path=None):
    """Run the operation list in a loop, timing the reference loop after
    every REFERENCE_EVERY_S of calls; each call is scaled by the loop times
    around its group.  Outputs are tallied per operation (one entry per
    distinct value, so memory does not grow with the number of units) and
    checked afterwards by ``check_bound_queries``."""
    calls = [workloads.api_call(charrank, op) for op in ops]
    phase = Phase()
    phase.outputs = [[] for _ in ops]
    before = reference_loop()
    for unit in _until(seconds):
        if tracer is not None:
            tracer.reset()
        results = []
        timed = []
        group = []
        for i, (name, args) in enumerate(calls):
            fn = getattr(charrank, name)
            start = perf_counter()
            try:
                value = fn(*args)
            except Exception as exc:  # a failing operation is counted, not fatal
                value = exc
            group.append(perf_counter() - start)
            results.append(value)
            if sum(group) >= REFERENCE_EVERY_S or i == len(calls) - 1:
                after = reference_loop()
                factor = speed_factor(before, after)
                timed += [(t, factor) for t in group]
                before = after
                group = []
        unit_s = sum(t for t, _ in timed)
        phase.add(unit_s, sum(t * f for t, f in timed) / unit_s, timed)
        for tally, value in zip(phase.outputs, results):
            _tally(tally, value)
        if tracer is not None:
            phase.traces.append(tracer.aggregate())
            if unit == 0 and spans_path:
                tracer.dump(spans_path)
    phase.rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return phase


def _tally(tally, value):
    for entry in tally:
        if entry[0] == value and not isinstance(value, Exception):
            entry[1] += 1
            return
    tally.append([value, 1])


def check_bound_queries(phase, ops, oracle):
    for op, tally in zip(ops, phase.outputs):
        for value, count in tally:
            phase.attempted += count
            if isinstance(value, Exception) or workloads.plain_result(op[0], value) != oracle.expected(op):
                phase.failed += count


# -- cli-oneshot --------------------------------------------------------------


def cli_phase(pairs, seconds, traced, spans_path=None):
    """Passes over the CLI invocations in a loop, one process at a time,
    with the reference loop timed between processes."""
    phase = Phase()
    for unit in _until(seconds):
        traces = []
        ops = []
        before = reference_loop()
        for i, (op, fmt) in enumerate(pairs):
            if traced:
                argv = [sys.executable, str(CHILD), "--trace"]
                if unit == 0 and i == len(pairs) - 1 and spans_path:
                    argv += ["--spans", str(spans_path)]
                argv.append("--")
            else:
                argv = [sys.executable, "-m", "charrank"]
            code, out, wall, rss = spawn(argv + workloads.cli_argv(op, fmt))
            after = reference_loop()
            text, record = split_marker(out)
            if record is not None:
                wall -= record["dump_s"]
                if "trace" in record:
                    traces.append(record["trace"])
            ops.append((wall, speed_factor(before, after)))
            before = after
            phase.rss_mb.append(rss)
            phase.outputs.append((op, fmt, code, text))
        unit_s = sum(t for t, _ in ops)
        phase.add(unit_s, sum(t * f for t, f in ops) / unit_s, ops)
        if traced:
            phase.traces.append(merge(traces))
    return phase


def check_cli(phase, oracle):
    for op, fmt, code, text in phase.outputs:
        phase.attempted += 1
        expected = oracle.expected(op)
        if op[0] == "poincare":
            expected = tuple(expected[2])
        try:
            ok = code == 0 and workloads.parse_cli_output(op, fmt, text) == expected
        except (ValueError, KeyError, IndexError):
            ok = False
        phase.failed += not ok


# -- running a workload -------------------------------------------------------


def run_phase(name, charrank, seed, seconds, traced):
    """One timed phase of a workload, with its outputs checked."""
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}.json" if traced else None
    if name == "verify-all":
        return verify_all_phase(seconds, traced, spans_path)
    if name == "bound-queries":
        ops = workloads.bound_queries(seed)
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            phase = bound_queries_phase(charrank, ops, seconds, tracer, spans_path)
        finally:
            if tracer is not None:
                tracer.uninstall()
        check_bound_queries(phase, ops, workloads.Oracle(charrank))
        return phase
    pairs = workloads.cli_ops(seed)
    phase = cli_phase(pairs, seconds, traced, spans_path)
    check_cli(phase, workloads.Oracle(charrank))
    return phase


def environment(charrank, seed):
    digest = hashlib.sha256()
    for path in sorted((SRC / "charrank").rglob("*.py*")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "backend": charrank.backend_name(),
        "version": charrank.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "charrank" / "__init__.py").is_file():
        print(f"error: no charrank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import charrank

    # One core for this process and every child: unpinned, processes move
    # between the host's cores, whose speeds differ, and the reference loop
    # would time another core than the work ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    env = environment(charrank, args.seed)
    setup_s, import_s = measure_setup()
    kernels = kernelcheck.run()

    if args.trace:
        plain = run_phase(args.workload, charrank, args.seed, args.seconds / 2, traced=False)
        traced = run_phase(args.workload, charrank, args.seed, args.seconds / 2, traced=True)
        phases = (plain, traced)
        probes = {"interpreter_s": measure_interpreter(), "import_s": import_s}
        overhead = statistics.median(traced.scaled_units()) / statistics.median(plain.scaled_units())
        values = metrics.per_layer(
            merge(traced.traces), len(traced.traces), kernels, probes, overhead
        )
        specs = metrics.PER_LAYER
    else:
        plain = run_phase(args.workload, charrank, args.seed, args.seconds, traced=False)
        phases = (plain,)
        values = metrics.end_to_end(
            statistics.median(setup_s),
            plain.scaled_units(),
            plain.scaled_ops(),
            statistics.median(plain.rss_mb),
        )
        specs = metrics.END_TO_END

    attempted = sum(p.attempted for p in phases) + kernels["compared"]
    failed = sum(p.failed for p in phases) + kernels["disagreements"]
    units = {spec[0]: spec[1] for spec in specs}

    print(f"workload {args.workload}  trace {args.trace}  env {json.dumps(env)}")
    print(
        f"units {len(plain.units)}  operations {sum(map(len, plain.ops))}  "
        f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted})"
    )
    print(
        f"unscaled median unit {statistics.median(t for t, _ in plain.units):.6g} s; "
        f"median speed factor {statistics.median(f for _, f in plain.units):.4f} "
        f"(reference loop at nominal {NOMINAL_REFERENCE_S} s)"
    )
    if not kernels["compiled_present"]:
        print("kernel section: compiled backend absent; timed _kernels_py only")
    print(
        f"kernel section: python {kernels['python_s'] * 1e3:.2f} ms, "
        f"compiled {kernels['compiled_s'] * 1e3:.2f} ms, "
        f"{kernels['disagreements']} disagreements in {kernels['compared']} cases"
    )
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
