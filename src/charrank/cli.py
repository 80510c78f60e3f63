"""Command-line front end.

Subcommands:

* ``count box|set-exact|set-any|total`` — exact partition counts
* ``betti N K [DEGREE]`` — one Betti number or the whole table
* ``bound --set .. --dim .. --charrank .. --degree .. [--gapless]``
* ``verify IDENTITY [range flags]`` — identity sweeps; ``all`` runs every
  sweep at its default grid.  The identities and the range flags are
  derived from ``identities.SWEEP_ORDER`` and ``identities.RANGE_KEYS``
  (``max_mu`` becomes ``--max-mu``), and each flag's help names the
  identities that take it with their ``default_grid`` values, so a new
  sweep needs no edit here.

Every subcommand takes ``--format text|json|csv`` (default text) and
``--output PATH`` to write the rendered record to a file instead of
stdout.  Counts are always emitted as decimal strings, never floats.
Each handler returns ``(record, table, text)``: the JSON record, the
``(header, rows)`` of the CSV output and the text output; ``main`` renders
the one asked for.

A command imports only what it runs: each handler imports the modules it
calls, ``json`` and ``csv`` load only for their format, and the ``verify``
identities and range flags are built only when the command line names
``verify``.  Exit codes: 0 success, 1 when the record's status is
``fail`` (a verification failure), 2 usage error.
"""

import argparse
import sys

from charrank.bounds import UNBOUNDED, BundleProfile, betti_upper_bound, betti_upper_bound_gapless
from charrank.errors import CapExceeded, CharrankError
from charrank.partitions import PartsSet, count_box, count_set_any, count_set_exact, count_total

_EXIT_OK = 0
_EXIT_VERIFY_FAIL = 1
_EXIT_USAGE = 2

#: Failures listed per report in text output before truncating.
_MAX_LISTED_FAILURES = 20

#: The ``count`` subjects: (subject, counting function, help, its argument
#: names in order); ``parts`` is ``--parts``, the others nonnegative ints.
_COUNTS = (
    ("box", count_box, "partitions in a box", ("max_part", "max_parts", "weight")),
    ("set-exact", count_set_exact, "exactly NUM_PARTS parts from --parts",
     ("parts", "num_parts", "weight")),
    ("set-any", count_set_any, "any number of parts from --parts", ("parts", "weight")),
    ("total", count_total, "unrestricted partition number", ("weight",)),
)


def _nonneg_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("value must be nonnegative")
    return value


def _parts_csv(text):
    """Comma-separated, strictly ascending positive integers."""
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )
    if not values or values[0] < 1:
        raise argparse.ArgumentTypeError("part values must be positive integers")
    for prev, cur in zip(values, values[1:]):
        if cur <= prev:
            raise argparse.ArgumentTypeError("part values must be strictly ascending")
    return values


def _extent(text):
    """A positive integer, or the literal ``inf`` for no finite bound."""
    if text.strip().lower() == "inf":
        return UNBOUNDED
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'inf', got {text!r}")


def _text(value):
    """A parameter as records show it: a list as ``1,2``, UNBOUNDED as
    ``inf``, a bool as ``true``/``false``."""
    if isinstance(value, list):
        return ",".join(map(str, value))
    if isinstance(value, bool):
        return str(value).lower()
    return "inf" if value == UNBOUNDED else str(value)


def _range_help(key):
    """The help of a range flag: every identity that takes ``key``, each
    with its default, e.g. ``bijection (default 8)``."""
    from charrank.identities import SWEEP_ORDER, default_grid

    takers = []
    for identity in SWEEP_ORDER:
        grid = default_grid(identity)
        if key in grid:
            default = "unset" if grid[key] is None else grid[key]
            takers.append(f"{identity.value} (default {default})")
    return ", ".join(takers)


def _params(args):
    """The record params of a ``count`` or ``bound`` command: the fields
    that its subparser names, rendered by ``_text``."""
    return {field: _text(getattr(args, field)) for field in args.fields}


def _csv_rows(header, rows):
    import csv
    import io

    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return sink.getvalue()


def _verify_text(payloads, status):
    """The text output of ``verify``: a line per report, its first
    failures, then the overall status."""
    lines = []
    for rep in payloads:
        lines.append(
            f"{rep['identity']}: {rep['status']} "
            f"(checked={rep['checked']}, failures={len(rep['failures'])})"
        )
        listed = rep["failures"][:_MAX_LISTED_FAILURES]
        for failure in listed:
            settings = ", ".join(f"{k}={v}" for k, v in failure["params"].items())
            lines.append(f"  [{settings}] {failure['lhs']} != {failure['rhs']}")
        hidden = len(rep["failures"]) - len(listed)
        if hidden > 0:
            lines.append(f"  ... {hidden} more failures")
    lines.append(f"overall: {status}")
    return "\n".join(lines) + "\n"


def _record(command, params, results, status="ok"):
    return {"command": command, "params": params, "results": results, "status": status}


def _scalar(command, params, value):
    """The record, CSV table and text of a one-value result.

    ``str`` refuses an int past ``sys.get_int_max_str_digits()`` digits
    (4300 by default), which p(n) passes from n of about 1.5 * 10**7 on;
    ``Decimal`` converts it with no such limit.
    """
    try:
        value = str(value)
    except ValueError:
        from decimal import Decimal

        value = str(Decimal(value))
    return _record(command, params, {"value": value}), (["value"], [[value]]), value + "\n"


def _cmd_count(args):
    # the fields are the counting function's arguments, in order
    value = args.count(*(getattr(args, field) for field in args.fields))
    return _scalar("count", {"subject": args.subject, **_params(args)}, value)


def _cmd_betti(args):
    from charrank.grassmannian import betti, poincare

    params = {"n": str(args.n), "k": str(args.k)}
    if args.degree is not None:
        params["degree"] = str(args.degree)
        return _scalar("betti", params, betti(args.n, args.k, args.degree))
    values = [str(v) for v in poincare(args.n, args.k).betti]
    table = (["degree", "value"], list(enumerate(values)))
    return _record("betti", params, {"betti": values}), table, " ".join(values) + "\n"


def _cmd_bound(args):
    profile = BundleProfile(dim_x=args.dim, s_set=PartsSet(args.set), t=args.charrank)
    bound = betti_upper_bound_gapless if args.gapless else betti_upper_bound
    return _scalar("bound", _params(args), bound(profile, args.degree))


def _report_payload(report):
    return {
        "identity": report.identity_id.value,
        "swept_ranges": report.swept_ranges,
        "checked": str(report.checked),
        "failures": [
            {
                "params": {str(k): str(v) for k, v in failure.params},
                "lhs": str(failure.lhs),
                "rhs": str(failure.rhs),
            }
            for failure in report.failures
        ],
        "status": report.status,
    }


def _cmd_verify(args):
    from charrank.identities import RANGE_KEYS, run_all, verify_sweep

    ranges = {key: getattr(args, key) for key in RANGE_KEYS if getattr(args, key) is not None}
    params = {"identity": args.identity}
    params.update({k.replace("_", "-"): str(v) for k, v in sorted(ranges.items())})
    if args.identity == "all":
        if ranges:
            raise ValueError("range flags are not accepted with 'all'")
        reports = run_all()
    else:
        try:
            reports = [verify_sweep(args.identity, ranges or None)]
        except CapExceeded as exc:  # its remedy names `cap`, which is no flag
            raise CapExceeded(str(exc).partition(";")[0] + "; lower the range flags")
    status = "pass" if all(r.passed for r in reports) else "fail"
    payloads = [_report_payload(r) for r in reports]
    rows = [[p["identity"], p["checked"], str(len(p["failures"])), p["status"]] for p in payloads]
    table = (["identity", "checked", "failures", "status"], rows)
    record = _record("verify", params, {"reports": payloads}, status)
    return record, table, _verify_text(payloads, status)


def _build_parser(verify_flags):
    """The full parser; the ``verify`` subparser gets its identity and range
    flags only when ``verify_flags`` is true."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the rendered output to PATH instead of stdout",
    )

    parser = argparse.ArgumentParser(
        prog="charrank",
        description="Exact restricted-partition counts, Grassmannian Betti "
        "tables, Betti-number upper bounds, and identity verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    count = subs.add_parser("count", help="exact partition counts")
    count_subs = count.add_subparsers(dest="subject", required=True)

    for subject, count_fn, help_text, fields in _COUNTS:
        sub = count_subs.add_parser(subject, parents=[common], help=help_text)
        for field in fields:
            if field == "parts":
                sub.add_argument("--parts", type=_parts_csv, required=True, metavar="P1,P2,..")
            else:
                sub.add_argument(field, type=_nonneg_int, metavar=field.upper())
        sub.set_defaults(handler=_cmd_count, count=count_fn, fields=fields)

    betti_cmd = subs.add_parser(
        "betti", parents=[common], help="Betti numbers of the k-planes-in-R^n Grassmannian"
    )
    betti_cmd.add_argument("n", type=_nonneg_int, metavar="N")
    betti_cmd.add_argument("k", type=_nonneg_int, metavar="K")
    betti_cmd.add_argument(
        "degree", type=_nonneg_int, nargs="?", default=None, metavar="DEGREE"
    )
    betti_cmd.set_defaults(handler=_cmd_betti)

    bound = subs.add_parser(
        "bound", parents=[common], help="Betti-number upper bound from a bundle profile"
    )
    bound.add_argument("--set", type=_parts_csv, required=True, metavar="P1,P2,..",
                       help="degrees with possibly nonzero classes, ascending")
    bound.add_argument("--dim", type=_extent, required=True, metavar="DIM|inf")
    bound.add_argument("--charrank", type=_extent, required=True, metavar="T|inf")
    bound.add_argument("--degree", type=_nonneg_int, required=True, metavar="DEGREE")
    bound.add_argument("--gapless", action="store_true",
                       help="evaluate through the box-count form (requires a gapless set)")
    bound.set_defaults(
        handler=_cmd_bound, fields=("set", "dim", "charrank", "degree", "gapless")
    )

    verify = subs.add_parser(
        "verify", parents=[common], help="sweep an identity over a parameter grid"
    )
    if verify_flags:
        from charrank.identities import RANGE_KEYS, SWEEP_ORDER

        choices = tuple(identity.value for identity in SWEEP_ORDER) + ("all",)
        verify.add_argument("identity", choices=choices, metavar="IDENTITY",
                            help="one of: " + ", ".join(choices))
        for key in RANGE_KEYS:
            verify.add_argument(
                "--" + key.replace("_", "-"), type=_nonneg_int, default=None, help=_range_help(key)
            )
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser("verify" in argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_OK if not exc.code else _EXIT_USAGE
    try:
        record, table, text = args.handler(args)
    except (CharrankError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    if args.format == "json":
        import json

        rendered = json.dumps(record, indent=2) + "\n"
    elif args.format == "csv":
        rendered = _csv_rows(*table)
    else:
        rendered = text
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as sink:
                sink.write(rendered)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _EXIT_USAGE
    else:
        sys.stdout.write(rendered)
    return _EXIT_VERIFY_FAIL if record["status"] == "fail" else _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
