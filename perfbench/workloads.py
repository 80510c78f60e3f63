"""Seeded operation lists for the workloads, and the independent checks
their outputs are held to.

Operations are plain tuples ``(kind, args)`` of ints and int tuples, so the
same seed gives the same list and the list can be compared, hashed and
printed.  The expected value of every operation comes from code that shares
nothing with the counting kernels: Euler's pentagonal recurrence
(``charrank.oracles``), the q-binomial product (``gaussian_binomial``) and
the coin-change recurrence below.
"""

import json
import random
import re

#: Largest weight the compiled kernels serve on the uint64 path:
#: p(416) < 2**64 <= p(417).
SEAM = 416

#: Checked instance counts of ``charrank verify all`` on the default grid,
#: in the order the sweeps run.
VERIFY_ALL_CHECKED = (
    ("eq3", 1485),
    ("eq4", 30),
    ("eq5", 204),
    ("bijection", 9504),
    ("oracle", 18130),
    ("grassmannian-tables", 324),
    ("sharpness", 240),
    ("partition-function", 201),
)

# ---------------------------------------------------------------------------
# Cost model: dynamic-programming cells the pure-Python kernels update for a
# call (one ``table[i] += table[j]`` each).  It only shapes the workload, so
# that every seed asks for about the same amount of work; it is not a
# measurement.


def box_cells(a, b, c):
    """Cells of ``box_count(a, b, c)``."""
    if c == 0:
        return 0
    a, b = min(a, c), min(b, c)
    if a == 0 or b == 0 or c > a * b:
        return 0
    return b * (a * (c + 1) - a * (a + 1) // 2)


def table_cells(a, b):
    """Cells of ``box_table(a, b)``."""
    top = a * b
    return b * (a * (top + 1) - a * (a + 1) // 2)


def set_cells(parts, max_parts, weight):
    """Cells of ``set_exact_counts(parts, max_parts, weight)``."""
    rows = min(max_parts, weight)
    return sum(rows * (weight + 1 - v) for v in parts if v <= weight)


def gapless_cells(lo, hi, degree):
    """Cells of ``betti_upper_bound_gapless`` on the interval {lo..hi}."""
    hi = min(hi, degree)
    first = -(-degree // hi)
    return sum(
        box_cells(hi - lo, used, degree - lo * used)
        for used in range(first, degree // lo + 1)
    )


# ---------------------------------------------------------------------------
# bound-queries: a fixed number of operations per kind.  Slot i of a kind
# asks for a fixed number of cells (within BAND), on a geometric ladder; the
# seed picks which parameters give that cost.  The ladders of the kinds are
# staggered by a fraction of a step, so that no two kinds share a cost and
# the percentiles do not sit on a cliff between two cost levels.  The number
# of parts (set kinds) or the largest part (box) is fixed per slot too: the
# dynamic-programming table then has about cells / that many entries, so
# peak memory does not depend on the seed either.

PER_KIND = 10
BAND = 0.05


def _ladder(low, high, stagger):
    """PER_KIND cell targets from about ``low`` up to ``high``, shifted down
    by ``stagger`` (0 to 1) of a step."""
    ratio = (high / low) ** (1 / (PER_KIND - 1))
    return [high * ratio ** (i - PER_KIND + 1 - stagger) for i in range(PER_KIND)]


#: Weight ranges for ``count_total``, one slot each; two slots sit on
#: either side of the uint64 seam.
TOTAL_SLOTS = (
    (100, 105),
    (200, 210),
    (300, 315),
    (405, SEAM),
    (SEAM + 1, 428),
    (550, 570),
    (800, 830),
    (1200, 1240),
    (1500, 1550),
    (2900, 3000),
)

#: Number of parts in S, per slot, for the two set kinds.
SET_SIZES = (2, 3, 4, 5) * 3
#: Largest part a, per slot, for count_box.
BOX_PARTS = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20)


def _in_band(cells, target):
    return abs(cells - target) <= BAND * target


def _pick(rng, draw, target, what):
    """Redraw a shape until some value of the free parameter lands in band,
    then choose one of those values."""
    for _ in range(2000):
        shape, candidates = draw()
        hits = [value for value, cells in candidates if _in_band(cells, target)]
        if hits:
            return shape, rng.choice(hits)
    raise RuntimeError(f"no {what} parameters near {target:.0f} cells")


def _random_set(rng, size, least_max, top):
    least = rng.randint(1, least_max)
    return tuple(sorted([least, *rng.sample(range(least + 1, top + 1), size - 1)]))


def _gen_bound(rng, target, size):
    def draw():
        parts = _random_set(rng, size, 8, 16)
        return parts, ((d, set_cells(parts, d // parts[0], d)) for d in range(20, 801))

    return _pick(rng, draw, target, "betti_upper_bound")


def _gen_gapless(rng, target):
    def draw():
        lo = rng.randint(1, 4)
        hi = rng.randint(lo, min(16, lo + 7))
        return (lo, hi), ((d, gapless_cells(lo, hi, d)) for d in range(max(lo, 2), 121))

    (lo, hi), degree = _pick(rng, draw, target, "betti_upper_bound_gapless")
    return lo, hi, degree


def _gen_set_any(rng, target, size):
    def draw():
        parts = _random_set(rng, size, 6, 20)
        return parts, ((w, set_cells(parts, w // parts[0], w)) for w in range(20, 601))

    return _pick(rng, draw, target, "count_set_any")


def _gen_box(rng, target, a, inert):
    def draw():
        if inert:  # the part-count bound b >= c never binds
            slack = rng.randint(0, 40)
            return slack, ((c, box_cells(a, c + slack, c)) for c in range(1, 1001))
        b = rng.randint(1, 40)
        return b, ((c, box_cells(a, b, c)) for c in range(1, a * b + 1))

    other, c = _pick(rng, draw, target, "count_box")
    return (a, c + other, c) if inert else (a, other, c)


def _gen_betti(rng, target):
    def draw():
        n = rng.randint(4, 48)
        k = rng.randint(1, n - 1)
        return (n, k), ((d, box_cells(n - k, k, d)) for d in range(k * (n - k) + 1))

    (n, k), degree = _pick(rng, draw, target, "betti")
    return n, k, degree


_POINCARE_SHAPES = [(n, k) for n in range(2, 49) for k in range(1, n)]


def _gen_poincare(rng, target):
    hits = [s for s in _POINCARE_SHAPES if _in_band(table_cells(s[0] - s[1], s[1]), target)]
    return rng.choice(hits)


def bound_queries(seed):
    """The seeded operation list of the bound-queries workload, shuffled so
    that large and small calls interleave."""
    rng = random.Random(seed)
    ops = []
    for i, target in enumerate(_ladder(2e3, 6e5, 0)):
        ops.append(("betti_upper_bound", _gen_bound(rng, target, SET_SIZES[i])))
    for target in _ladder(2e3, 6e5, 1 / 4):
        ops.append(("betti_upper_bound_gapless", _gen_gapless(rng, target)))
    for i, target in enumerate(_ladder(2e3, 6e5, 2 / 4)):
        ops.append(("count_set_any", _gen_set_any(rng, target, SET_SIZES[i])))
    for i, target in enumerate(_ladder(2e3, 6e5, 3 / 4)):
        ops.append(("count_box", _gen_box(rng, target, BOX_PARTS[i], inert=i % 2 == 1)))
    for target in _ladder(1e3, 1.5e5, 1 / 2):
        ops.append(("betti", _gen_betti(rng, target)))
    for target in _ladder(1e3, 3e5, 0):
        ops.append(("poincare", _gen_poincare(rng, target)))
    for lo, hi in TOTAL_SLOTS:
        ops.append(("count_total", (rng.randint(lo, hi),)))
    rng.shuffle(ops)
    return ops


def api_call(charrank, op):
    """The public-API function and arguments that perform ``op``.  Profiles
    are built here, before timing, because building one is not the query."""
    kind, args = op
    if kind == "betti_upper_bound":
        parts, degree = args
        profile = charrank.BundleProfile(charrank.UNBOUNDED, parts, charrank.UNBOUNDED)
        return kind, (profile, degree)
    if kind == "betti_upper_bound_gapless":
        lo, hi, degree = args
        profile = charrank.BundleProfile(
            charrank.UNBOUNDED, tuple(range(lo, hi + 1)), charrank.UNBOUNDED
        )
        return kind, (profile, degree)
    return kind, args


def plain_result(kind, value):
    """A result reduced to ints and tuples, for comparison."""
    if kind == "poincare":
        return (value.n, value.k, tuple(value.betti))
    return value


# ---------------------------------------------------------------------------
# cli-oneshot: small inputs, rotating through the commands and formats.

CLI_COMMANDS = ("count", "betti", "bound")
CLI_FORMATS = ("text", "json", "csv")
CLI_OPS_PER_PASS = 18


def cli_ops(seed):
    """The seeded list of CLI invocations, as (op, format) pairs where op is
    one of the bound-queries operation kinds on a small input."""
    rng = random.Random(seed)
    out = []
    for i in range(CLI_OPS_PER_PASS):
        command = CLI_COMMANDS[i % 3]
        fmt = CLI_FORMATS[(i // 3) % 3]
        if command == "count":
            subject = rng.choice(("count_total", "count_box", "count_set_any"))
            if subject == "count_total":
                op = (subject, (rng.randint(1, 80),))
            elif subject == "count_box":
                a, b = rng.randint(1, 8), rng.randint(1, 8)
                op = (subject, (a, b, rng.randint(0, a * b)))
            else:
                parts = tuple(sorted(rng.sample(range(1, 11), rng.randint(1, 4))))
                op = (subject, (parts, rng.randint(1, 60)))
        elif command == "betti":
            n = rng.randint(2, 12)
            k = rng.randint(1, n - 1)
            if rng.random() < 0.5:
                op = ("betti", (n, k, rng.randint(0, k * (n - k))))
            else:
                op = ("poincare", (n, k))
        else:
            lo = rng.randint(1, 4)
            if rng.random() < 0.5:
                op = ("betti_upper_bound_gapless", (lo, rng.randint(lo, lo + 5), rng.randint(1, 40)))
            else:
                parts = tuple(sorted({lo, *rng.sample(range(lo + 1, 13), rng.randint(0, 3))}))
                op = ("betti_upper_bound", (parts, rng.randint(1, 40)))
        out.append((op, fmt))
    return out


def _csv(values):
    return ",".join(map(str, values))


def cli_argv(op, fmt):
    """``charrank`` arguments that perform ``op`` in format ``fmt``."""
    kind, args = op
    if kind == "count_total":
        argv = ["count", "total", str(args[0])]
    elif kind == "count_box":
        argv = ["count", "box", *map(str, args)]
    elif kind == "count_set_any":
        argv = ["count", "set-any", "--parts", _csv(args[0]), str(args[1])]
    elif kind in ("betti", "poincare"):
        argv = ["betti", *map(str, args)]
    elif kind == "betti_upper_bound_gapless":
        lo, hi, degree = args
        argv = ["bound", "--set", _csv(range(lo, hi + 1)), "--gapless"]
        argv += ["--dim", "inf", "--charrank", "inf", "--degree", str(degree)]
    else:
        parts, degree = args
        argv = ["bound", "--set", _csv(parts), "--dim", "inf", "--charrank", "inf"]
        argv += ["--degree", str(degree)]
    return argv + ["--format", fmt]


def parse_cli_output(op, fmt, text):
    """The value a CLI record carries, as an int (or an int tuple for a
    whole Betti table).  Raises ValueError on output of the wrong shape."""
    table = op[0] == "poincare"
    if fmt == "json":
        results = json.loads(text)["results"]
        values = results["betti"] if table else [results["value"]]
    elif fmt == "csv":
        lines = text.splitlines()
        if lines[0] != ("degree,value" if table else "value"):
            raise ValueError(f"unexpected csv header {lines[0]!r}")
        values = [line.split(",")[-1] for line in lines[1:]]
        if table and [line.split(",")[0] for line in lines[1:]] != [str(i) for i in range(len(values))]:
            raise ValueError("csv degrees out of order")
    else:
        values = text.split()
    if not table and len(values) != 1:
        raise ValueError(f"expected one value, got {len(values)}")
    numbers = tuple(int(v) for v in values)
    return numbers if table else numbers[0]


# ---------------------------------------------------------------------------
# verify-all output

_SWEEP_LINE = re.compile(r"^(\S+): (pass|fail) \(checked=(\d+), failures=(\d+)\)$")


def verify_all_failures(returncode, text):
    """How many of the eight sweeps in one ``verify all`` text output did
    not pass with their expected checked count (all eight when the process
    failed or the output cannot be read)."""
    if returncode != 0:
        return len(VERIFY_ALL_CHECKED)
    lines = text.splitlines()
    if not lines or lines[-1] != "overall: pass":
        return len(VERIFY_ALL_CHECKED)
    seen = {}
    for line in lines:
        match = _SWEEP_LINE.match(line)
        if match:
            seen[match[1]] = (match[2], int(match[3]), int(match[4]))
    if list(seen) != [name for name, _ in VERIFY_ALL_CHECKED]:
        return len(VERIFY_ALL_CHECKED)
    return sum(
        seen[name] != ("pass", checked, 0) for name, checked in VERIFY_ALL_CHECKED
    )


# ---------------------------------------------------------------------------
# Expected values


def coin_change(parts, weight):
    """Partitions of ``weight`` with parts from ``parts``, any number of
    them: the coefficient of q**weight in prod 1/(1 - q**v)."""
    ways = [1] + [0] * weight
    for v in set(parts):
        for w in range(v, weight + 1):
            ways[w] += ways[w - v]
    return ways[weight]


class Oracle:
    """Expected values of operations, each computed once."""

    def __init__(self, charrank):
        self._gaussian = charrank.gaussian_binomial
        self._pentagonal = charrank.oracles.pentagonal_partition_table
        self._partition_numbers = [1]
        self._memo = {}

    def expected(self, op):
        if op not in self._memo:
            self._memo[op] = self._compute(*op)
        return self._memo[op]

    def _box(self, a, b, c):
        if a == 0 or b == 0:
            return 1 if c == 0 else 0
        coeffs = self._gaussian(a + b, min(a, b))
        return coeffs[c] if c < len(coeffs) else 0

    def _compute(self, kind, args):
        if kind == "count_total":
            (weight,) = args
            if weight >= len(self._partition_numbers):
                self._partition_numbers = self._pentagonal(max(weight, 3000))
            return self._partition_numbers[weight]
        if kind == "count_box":
            return self._box(*args)
        if kind == "betti":
            n, k, degree = args
            return self._box(n - k, k, degree)
        if kind == "poincare":
            n, k = args
            return (n, k, self._gaussian(n, min(k, n - k)))
        if kind == "count_set_any":
            parts, weight = args
            return coin_change(parts, weight)
        if kind == "betti_upper_bound":
            parts, degree = args
            return coin_change([v for v in parts if v <= degree], degree)
        if kind == "betti_upper_bound_gapless":
            lo, hi, degree = args
            return coin_change(range(lo, min(hi, degree) + 1), degree)
        raise ValueError(f"unknown operation kind {kind!r}")
