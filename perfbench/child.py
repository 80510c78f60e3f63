"""Run one ``charrank`` command in this process, exactly as
``python -m charrank ARGV...`` would, and report timings after its output.

    python perfbench/child.py [--reference] [--trace] [--spans PATH] -- ARGV...

The command's own output comes first.  The last line of stdout is
``@@perfbench <json>`` holding the exit code, the seconds each identity
sweep took, and with ``--trace`` the span aggregates of this process.
``--reference`` times the reference loop (``speed.py``) in this process
before and after the command, and when not tracing also after every sweep.  ``--spans`` also writes the raw
spans to PATH.  Both report their seconds, so the caller can leave them out
of the timing.
"""

import argparse
import json
import runpy
import sys
from time import perf_counter

from speed import reference_loop

MARKER = "@@perfbench "


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    import charrank.cli
    from charrank import identities

    tracer = None
    if opts.trace:
        from spantrace import Tracer

        tracer = Tracer()
        tracer.install()

    sweeps = []
    refs = []
    sweep = identities.verify_sweep

    def timed_sweep(identity_id, ranges=None):
        start = perf_counter()
        report = sweep(identity_id, ranges)
        sweeps.append(perf_counter() - start)
        if opts.reference and tracer is None:
            refs.append(reference_loop())
        return report

    identities.verify_sweep = timed_sweep
    sys.argv = ["charrank", *argv]
    if opts.reference:
        refs.append(reference_loop())
    try:
        runpy.run_module("charrank", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    sys.stdout.flush()
    if opts.reference:
        refs.append(reference_loop())

    record = {"exit": code, "sweeps": sweeps, "refs": refs, "dump_s": 0.0}
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.aggregate()
        if opts.spans:
            start = perf_counter()
            tracer.dump(opts.spans)
            record["dump_s"] = perf_counter() - start
    sys.stdout.write("\n" + MARKER + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
