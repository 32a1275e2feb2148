"""Seeded inputs, one pass of each in-process workload, and the answer checks.

Everything here is stdlib only and runs inside a fresh child interpreter
(``child.py``), so module-level state of the package, ``slopes._EPS_CACHE``
included, starts empty for every pass.  Library functions are always looked
up through their module at call time (``markov.mu``, not a bound name), so
the traced run sees every call.

The oracles below are written independently of the package: a gcd-reduced
tree walk by the paper's mediant, Euclid's algorithm for continued
fractions, and integer identities.  Each operation is timed on its own; the
checks run outside the timed region.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import math
import random
import signal
from fractions import Fraction
from time import perf_counter

# -- fixed parameters ----------------------------------------------------------

# tree_series: tree depth, enclosure digits, saltus points.  The largest
# denominator at depth 14 has 3337 bits.
TREE_DEPTH = 14
TREE_PRECISION = 12
SALTUS_POINTS = 4

VERIFY_DEPTH = 12

# point_queries: queries of each kind in one pass (3105 in total, so p99 has
# 31 samples above it in every pass).  A pass lasts several seconds, longer
# than the spells of faster or slower host speed seen on shared machines.
QUERY_COUNTS = {
    "mu": 930,
    "qmark": 660,
    "epsilon": 720,
    "slope": 480,
    "approx": 120,
    "interval": 180,
    "congruence": 15,
}
# Per-operation deadline in seconds, by kind, enforced with SIGALRM in the
# child.  Each sits several-fold above the slowest input of its kind that
# completes and several-fold below the known cost cliffs (see README.md).
DEADLINES = {
    "mu": 4.0,
    "qmark": 4.0,
    "epsilon": 1.0,
    "slope": 1.0,
    "approx": 0.1,
    "interval": 2.0,
    "congruence": 0.5,
}
MAX_B = 2048                # largest denominator of mu/qmark inputs
# Of the mu and qmark queries, this many sit on a fixed geometric ladder of
# 1/b, b from LONG_WORD_B[0] to LONG_WORD_B[1]: long turn words L^(b-2).
# The ladder is seed-independent.  Its mu entries are the slowest completed
# queries and lie within 50% of each other, so query_p99_ms falls inside a
# dense band of like queries and does not hinge on one timing.  (The mirror
# words R^(b-2) of (b-1)/b cost about twice as much; mixing the two would
# split the band in two.)
LONG_WORDS = {"mu": 56, "qmark": 16}
LONG_WORD_B = (1150, 1250)
EPS_MAX_LEVEL = 20
POOL_LIMIT = 10 ** 46        # every tree fraction below this is enumerated
SLOPE_MAX_Q = 10 ** 45
APPROX_FAST_MAX_Q = 10_000   # approx cost is about 2 us per unit of q
APPROX_CLIFF_MIN_Q = 10 ** 6
APPROX_CLIFF = 4             # of the approx queries, drawn from the cliff
APPROX_CLIFF_MAX_DEPTH = 7
INTERVAL_BOUNDS = (10 ** 3, 10 ** 6)
INTERVAL_DIGITS = 20
# Congruence ladder: for d = 3, 6, ..., 45 the median Markov number with d
# digits.  It does not depend on the seed, so its one deadline miss (the
# 45-digit entry) is the same in every run; the seed only places the entries
# in the stream.
CONGRUENCE_DIGITS = tuple(range(3, 46, 3))


# -- independent oracles -------------------------------------------------------


def tree_pool(limit: int) -> list[tuple[int, int, str]]:
    """Every reduced-tree fraction p/q with q < limit, with its turn word.

    A pruned walk by the paper's mediant (p1*q1 + p2*q2)/(q1^2 + q2^2) with
    an explicit gcd; denominators grow along every branch.
    """
    out = []
    stack = [(0, 1, 1, 2, "")]
    while stack:
        p1, q1, p2, q2, word = stack.pop()
        num, den = p1 * q1 + p2 * q2, q1 * q1 + q2 * q2
        g = math.gcd(num, den)
        p, q = num // g, den // g
        if q >= limit:
            continue
        out.append((p, q, word))
        stack.append((p1, q1, p, q, word + "L"))
        stack.append((p, q, p2, q2, word + "R"))
    return out


def tree_denominators(depth: int) -> tuple[int, int]:
    """(distinct denominators, max denominator bits) of the tree to depth, seeds included."""
    seen = {1, 2}
    level = [(0, 1, 1, 2)]
    bits = 2
    for _ in range(depth + 1):
        nxt = []
        for p1, q1, p2, q2 in level:
            num, den = p1 * q1 + p2 * q2, q1 * q1 + q2 * q2
            g = math.gcd(num, den)
            p, q = num // g, den // g
            seen.add(q)
            bits = max(bits, q.bit_length())
            nxt.append((p1, q1, p, q))
            nxt.append((p, q, p2, q2))
        level = nxt
    return len(seen), bits


def unit_tree_value(m: int, n: int) -> Fraction:
    """Vertex of the [0, 1]-seeded tree reached by bisecting toward m/2^n."""
    lo, hi = (0, 1), (1, 1)
    lo_d, hi_d = 0, 1 << n   # dyadic endpoints scaled by 2^n
    while True:
        num = lo[0] * lo[1] + hi[0] * hi[1]
        den = lo[1] * lo[1] + hi[1] * hi[1]
        g = math.gcd(num, den)
        mid = (num // g, den // g)
        mid_d = (lo_d + hi_d) // 2
        if m == mid_d:
            return Fraction(*mid)
        if m < mid_d:
            hi, hi_d = mid, mid_d
        else:
            lo, lo_d = mid, mid_d


def continued_fraction(a: int, b: int) -> list[int]:
    out = []
    while b:
        out.append(a // b)
        a, b = b, a % b
    return out


def question_mark_oracle(x: Fraction) -> Fraction:
    """Minkowski ? from the quotients: 2 * sum (-1)^(k+1) 2^-(a1 + ... + ak)."""
    quotients = continued_fraction(x.numerator, x.denominator)
    total, run = Fraction(quotients[0]), 0
    for k, a in enumerate(quotients[1:]):
        run += a
        total += Fraction((-1) ** k * 2, 1 << run)
    return total


def descend_oracle(word: str) -> Fraction:
    lo, hi = Fraction(0), Fraction(1, 2)
    for ch in word + "!":
        mid = Fraction(lo.numerator * lo.denominator + hi.numerator * hi.denominator,
                       lo.denominator ** 2 + hi.denominator ** 2)
        if ch == "!":
            return mid
        lo, hi = (lo, mid) if ch == "L" else (mid, hi)


def membership_steps(r: Fraction) -> int:
    """Tree vertices a search by order visits before it accepts or rejects r."""
    lo, hi = Fraction(0), Fraction(1, 2)
    steps = 0
    while True:
        mid = Fraction(lo.numerator * lo.denominator + hi.numerator * hi.denominator,
                       lo.denominator ** 2 + hi.denominator ** 2)
        steps += 1
        if mid == r or mid.denominator > r.denominator:
            return steps
        lo, hi = (lo, mid) if r < mid else (mid, hi)


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- deadlines -------------------------------------------------------------------


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an operation; BaseException so no library handler eats it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def timed_call(fn, deadline: float):
    """(result, seconds, missed).  A miss reports the time spent until the alarm."""
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            result = fn()
            elapsed = perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return None, perf_counter() - t0, True
    return result, elapsed, False


# -- tree_series -----------------------------------------------------------------


def tree_series_inputs(seed: int) -> dict:
    rng = random.Random(f"tree_series:{seed}")
    grid = rng.randrange(101, 302)
    # One grid point in the middle half of each quarter of [0, 1]: saltus cost
    # grows with x, so this keeps each call's cost, and the pass's median
    # operation, steady across seeds.
    points = []
    for i in range(SALTUS_POINTS):
        lo = (grid - 1) * (4 * i + 1) // (4 * SALTUS_POINTS)
        hi = (grid - 1) * (4 * i + 3) // (4 * SALTUS_POINTS)
        points.append(rng.randrange(lo, hi + 1))
    return {"depth": TREE_DEPTH, "precision": TREE_PRECISION, "grid": grid, "points": points}


def run_tree_series(seed: int) -> dict:
    from markovfrac import analysis, cli, markov
    spec = tree_series_inputs(seed)
    d, prec, grid = spec["depth"], spec["precision"], spec["grid"]
    xs = [Fraction(j, grid - 1) for j in spec["points"]]
    ops = [("unicity", lambda: markov.unicity_scan(d)),
           ("mcshane", lambda: analysis.mcshane_partial_sum(d, prec))]
    ops += [(f"saltus:{x}", lambda x=x: analysis.saltus_mu(x, d - 2, prec)) for x in xs]

    def plot():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["plot-mu", "--grid", str(grid), "--depth", str(d - 2)])
        return code, buf.getvalue()
    ops.append(("plot-mu", plot))

    results, latencies = [], []
    for name, fn in ops:
        t0 = perf_counter()
        value = fn()
        latencies.append(perf_counter() - t0)
        results.append(value)

    failures: list[str] = []
    outputs: list[str] = []
    width = Fraction(1, 10 ** prec)
    half = Fraction(1, 2)

    report = results[0]
    distinct, max_bits = tree_denominators(d)
    expected_count = (1 << (d + 1)) + 1
    if not (report.vertex_count == expected_count and report.all_unique
            and report.distinct_denominators == distinct == expected_count):
        failures.append(f"unicity: {report.vertex_count} vertices, "
                        f"{report.distinct_denominators} denominators")
    outputs.append(f"unicity {report.vertex_count} {report.distinct_denominators}")

    lo, hi = results[1]
    if not (0 < lo < hi < half and hi - lo < width):
        failures.append(f"mcshane enclosure [{lo}, {hi}]")
    outputs.append(f"mcshane {lo} {hi}")

    saltus = results[2:2 + len(xs)]
    for x, (slo, shi) in zip(xs, saltus):
        if not (0 <= slo <= shi <= half and shi - slo < width):
            failures.append(f"saltus({x}) enclosure [{slo}, {shi}]")
        outputs.append(f"saltus {x} {slo} {shi}")
    for (x1, (lo1, _)), (x2, (_, hi2)) in zip(zip(xs, saltus), zip(xs[1:], saltus[1:])):
        if lo1 > hi2:
            failures.append(f"saltus not monotone between {x1} and {x2}")

    code, text = results[-1]
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    plot_ok = code == 0 and len(rows) == grid
    if plot_ok:
        values = [(Fraction(r[0]), Fraction(r[1]), Fraction(r[2])) for r in rows]
        plot_ok = (all(values[i][0] == Fraction(i, grid - 1) for i in range(grid))
                   and all(v[1] <= v[2] for v in values)
                   and all(a[1] <= b[1] and a[2] <= b[2] for a, b in zip(values, values[1:]))
                   and values[0][1] == values[0][2] == 0
                   and values[-1][1] < half)
        for j, (slo, shi) in zip(spec["points"], saltus):
            # The plot and saltus_mu enclose the same truncated sum.
            if values[j][1] > shi or values[j][2] < slo:
                plot_ok = False
    if not plot_ok:
        failures.append("plot-mu output failed its checks")
    outputs.append(text)

    vertices = 2 * ((1 << (d + 1)) - 1) + (len(xs) + 1) * ((1 << (d - 1)) - 1)
    return {
        "names": [name for name, _ in ops],
        "latencies": latencies,
        "missed": [False] * len(ops),
        "kinds": ["tree"] * len(ops),
        "outputs": [sha(o) for o in outputs],
        "failures": failures,
        "vertices": vertices,
        "max_operand_bits": max_bits,
        "env": {"D": d, "P": prec, "grid": grid, "saltus_points": [str(x) for x in xs]},
    }


# -- point_queries ---------------------------------------------------------------


def _coprime(rng: random.Random, b: int) -> int:
    while True:
        a = rng.randrange(1, b)
        if math.gcd(a, b) == 1:
            return a


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1))))


def _ladder(count: int) -> list[int]:
    """Denominators spanning LONG_WORD_B on a fixed geometric grid."""
    lo, hi = LONG_WORD_B
    return [round(lo * (hi / lo) ** (j / (count - 1))) for j in range(count)]


def point_query_inputs(seed: int, pool: list[tuple[int, int, str]]) -> list[tuple[str, tuple]]:
    rng = random.Random(f"point_queries:{seed}")
    by_kind: dict[str, list[tuple]] = {}

    for kind in ("mu", "qmark"):
        qs = [(1, b) for b in _ladder(LONG_WORDS[kind])]   # turn word L^(b-2)
        for _ in range(QUERY_COUNTS[kind] - LONG_WORDS[kind]):
            b = _log_uniform(rng, 2, MAX_B)
            qs.append((_coprime(rng, b), b))
        rng.shuffle(qs)
        by_kind[kind] = qs

    eps = []
    for i in range(QUERY_COUNTS["epsilon"]):
        shift = rng.randrange(-3, 4) if rng.random() < 0.25 else 0
        if i % 2 and any(n < EPS_MAX_LEVEL for _, m, n in eps):
            # Extend an earlier query's dyadic prefix: its path is cached.
            _, m, n = rng.choice([e for e in eps if e[2] < EPS_MAX_LEVEL])
            k = rng.randrange(1, EPS_MAX_LEVEL - n + 1)
            r = rng.randrange(-(1 << k) + 1, 1 << k, 2)
            m, n = m * (1 << k) + r, n + k
        else:
            n = rng.randrange(1, EPS_MAX_LEVEL + 1)
            m = rng.randrange(1, 1 << n, 2)
        eps.append((shift, m, n))
    by_kind["epsilon"] = eps

    members = [(p, q, w) for p, q, w in pool if q < SLOPE_MAX_Q]
    slopes = []
    for i in range(QUERY_COUNTS["slope"]):
        p, q, w = rng.choice(members)
        if i % 2:
            # Near miss: perturb numerator or denominator by a little.
            delta = rng.choice((-2, -1, 1, 2))
            p, q = (p + delta, q) if rng.random() < 0.5 else (p, q + delta)
            if not 0 < 2 * p < q:
                p, q = 1, 3
        n = rng.randrange(-5, 6)
        sign = rng.choice((1, -1))
        slopes.append((n, sign, p, q))
    by_kind["slope"] = slopes

    fast = [(p, q, w) for p, q, w in pool if q < APPROX_FAST_MAX_Q]
    cliff = [(p, q, w) for p, q, w in pool
             if q >= APPROX_CLIFF_MIN_Q and len(w) <= APPROX_CLIFF_MAX_DEPTH]
    approx = [rng.choice(cliff) for _ in range(APPROX_CLIFF)]
    approx += [rng.choice(fast) for _ in range(QUERY_COUNTS["approx"] - APPROX_CLIFF)]
    rng.shuffle(approx)
    by_kind["approx"] = [(p, q) for p, q, _ in approx]

    by_kind["interval"] = [
        (*rng.choice(members), _log_uniform(rng, *INTERVAL_BOUNDS))
        for _ in range(QUERY_COUNTS["interval"])
    ]

    by_digits: dict[int, list[tuple[int, int]]] = {}
    for p, q, _ in pool:
        by_digits.setdefault(len(str(q)), []).append((q, p))
    ladder = []
    for d in CONGRUENCE_DIGITS:
        entries = sorted(by_digits[d])
        ladder.append(entries[len(entries) // 2])
    rng.shuffle(ladder)
    by_kind["congruence"] = [(p, q) for q, p in ladder]

    # Interleave kinds in a seeded order, keeping each kind's own order (the
    # epsilon prefix extensions must follow the queries they extend).
    labels = [k for k, c in QUERY_COUNTS.items() for _ in range(c)]
    rng.shuffle(labels)
    cursor = {k: 0 for k in QUERY_COUNTS}
    stream = []
    for k in labels:
        stream.append((k, by_kind[k][cursor[k]]))
        cursor[k] += 1
    return stream


def _query_call(kind: str, args: tuple):
    """The operation to time for one query, as a zero-argument callable."""
    from markovfrac import analysis, exact, farey, markov, slopes
    if kind == "mu":
        x = Fraction(*args)
        return lambda: markov.mu(x)
    if kind == "qmark":
        x = Fraction(*args)
        return lambda: (farey.question_mark_farey(x), farey.question_mark_salem(x),
                        farey.question_mark_of_word(farey.farey_path_to(x)))
    if kind == "epsilon":
        shift, m, n = args
        x = exact.DyadicRational(m + (shift << n), n)
        return lambda: slopes.epsilon(x)
    if kind == "slope":
        n, sign, p, q = args
        x = n + sign * Fraction(p, q)

        def slope():
            decision = slopes.is_exceptional_slope(x)
            try:
                invariants = slopes.bundle_invariants(x)
            except ValueError:
                invariants = None
            return decision, invariants
        return slope
    if kind == "approx":
        f = Fraction(*args)
        return lambda: analysis.approx_constant(f)
    if kind == "interval":
        p, q, word, bound = args
        f = markov.MarkovFraction(Fraction(p, q), len(word), word)

        def interval():
            iv = analysis.markov_interval(f)
            report = analysis.interval_freeness(f, bound)
            enclosures = [exact.surd_enclose(s, INTERVAL_DIGITS) for s in (iv.lo, iv.hi, iv.length)]
            return iv, report, enclosures
        return interval
    if kind == "congruence":
        return lambda: markov.solve_congruence(args[1])
    raise ValueError(kind)


def _check_query(kind: str, args: tuple, value, pool: "Pool") -> tuple[list[str], str, int]:
    """(failures, canonical output, tree vertices visited) for one completed query."""
    bad: list[str] = []
    if kind == "mu":
        a, b = args
        p, q = value.value.numerator, value.value.denominator
        # The Farey turn word of a/b has (sum of its quotients) - 2 letters.
        word_len = sum(continued_fraction(a, b)) - 2
        if not ((p * p + 1) % q == 0 and 0 < 2 * p < q
                and value.depth == len(value.word) == word_len):
            bad.append(f"mu({a}/{b}) failed its checks (depth {value.depth})")
        return bad, f"{p}/{q} {value.depth}", word_len + 1
    if kind == "qmark":
        x = Fraction(*args)
        ys = [y.value for y in value]
        want = question_mark_oracle(x)
        if not (ys[0] == ys[1] == ys[2] == want and 0 < want < 1
                and _is_power_of_two(want.denominator)):
            bad.append(f"?({x}): the three routes and the oracle disagree")
        return bad, str(value[0]), 0
    if kind == "epsilon":
        shift, m, n = args
        want = shift + unit_tree_value(m, n)
        if value != want:
            bad.append(f"epsilon({m}/2^{n} + {shift}) differs from the tree vertex")
        return bad, f"{value.numerator}/{value.denominator}", 0
    if kind == "slope":
        n, sign, p, q = args
        x = n + sign * Fraction(p, q)
        decision, inv = value
        r = decision.reduced
        expected = (r.numerator, r.denominator) in pool.members or r in (0, Fraction(1, 2))
        if decision.accepted != expected or (inv is not None) != expected:
            bad.append(f"slope {x}: accepted={decision.accepted}, expected {expected}")
        if decision.normalization.original != x or not 0 <= 2 * r <= 1:
            bad.append(f"slope {x}: bad normalization")
        if expected and r not in (0, Fraction(1, 2)):
            rp, rq = r.numerator, r.denominator
            if (descend_oracle(decision.witness) != r or inv.rank != rq or inv.c1 != rp
                    or inv.s * rq != rp * rp + 1 or 2 * inv.c2 != (rq - 1) * (inv.s + 1)
                    or inv.form_discriminant != 9 * rq * rq - 4):
                bad.append(f"slope {x}: witness or invariants wrong")
        if not expected and decision.stopped_at_denominator is not None:
            if decision.stopped_at_denominator <= r.denominator:
                bad.append(f"slope {x}: stopped at a small denominator")
        # is_exceptional_slope searches once and bundle_invariants searches again.
        steps = 0 if r in (0, Fraction(1, 2)) else 2 * membership_steps(r)
        canon = f"{decision.accepted} {decision.witness} {inv.form if inv else '-'}"
        return bad, canon, steps
    if kind == "approx":
        p, q = args
        if not (Fraction(1, 3) <= value <= Fraction(1, 2) and (value * q).denominator == 1):
            bad.append(f"approx_constant({p}/{q}) = {value} is outside [1/3, 1/2]")
        return bad, str(value), 0
    if kind == "interval":
        p, q, word, bound = args
        iv, report, encl = value
        center = Fraction(p, q)
        (llo, lhi), (hlo, hhi), (nlo, nhi) = encl
        width = Fraction(1, 10 ** INTERVAL_DIGITS)
        ok = (iv.lo.compare(center) < 0 < iv.hi.compare(center)
              and (iv.hi - iv.lo).compare(iv.length) == 0
              and report.free and not report.intruders
              and llo <= lhi and hlo <= hhi and llo < center < hhi
              and all(b - a < width for a, b in encl)
              and nhi > Fraction(2, 3 * q * q) and nlo < Fraction(4, 6 * q * q - 1))
        if not ok:
            bad.append(f"interval of the tree fraction at {word!r} (bound {bound}) failed its checks")
        inside = bisect.bisect_right(pool.denominators, bound)
        return bad, f"{iv.lo} {iv.hi} {report.free}", 1 + 2 * inside
    if kind == "congruence":
        p, q = args
        roots = value
        if not (roots == sorted(set(roots)) and all(0 <= r < q and (r * r + 1) % q == 0
                                                    for r in roots)
                and p in roots and (q - p) % q in roots and _is_power_of_two(len(roots))):
            bad.append(f"solve_congruence({q}) roots fail the checks")
        return bad, " ".join(map(str, roots)), 0
    raise ValueError(kind)


class Pool:
    """The oracle's tree fractions below POOL_LIMIT, for membership and counts."""

    def __init__(self) -> None:
        self.entries = tree_pool(POOL_LIMIT)
        self.members = {(p, q) for p, q, _ in self.entries}
        self.denominators = sorted(q for _, q, _ in self.entries)


def run_point_queries(seed: int) -> dict:
    pool = Pool()
    stream = point_query_inputs(seed, pool.entries)
    latencies, missed, kinds, raw = [], [], [], []
    for kind, args in stream:
        call = _query_call(kind, args)
        value, elapsed, miss = timed_call(call, DEADLINES[kind])
        latencies.append(elapsed)
        missed.append(miss)
        kinds.append(kind)
        raw.append(value)

    failures, outputs = [], []
    vertices = 0
    mu_points = []
    max_bits = 0
    for (kind, args), value, miss in zip(stream, raw, missed):
        if miss:
            outputs.append(sha("deadline"))
            continue
        bad, canon, visited = _check_query(kind, args, value, pool)
        failures += bad
        outputs.append(sha(canon))
        vertices += visited
        if kind == "mu":
            mu_points.append((Fraction(*args), value.value))
            max_bits = max(max_bits, value.value.denominator.bit_length())
    mu_points = sorted(set(mu_points))
    if any(a[1] >= b[1] for a, b in zip(mu_points, mu_points[1:])):
        failures.append("mu is not strictly increasing on the queried points")
    return {
        "names": kinds,
        "latencies": latencies,
        "missed": missed,
        "kinds": kinds,
        "outputs": outputs,
        "failures": failures,
        "vertices": vertices,
        "max_operand_bits": max_bits,
        "env": {"queries": len(stream), "deadlines_s": DEADLINES},
    }


# -- verify_cli ------------------------------------------------------------------

# Per-suite check counts of `verify --depth 12`.  Tree suites enumerate
# 2^(d+1) - 1 vertices at their (capped) depth; the others have fixed ranges.
VERIFY_COUNTS = {
    "tree_relations": 8191,
    "tree_fractions": 8191,
    "markov_triples": 8191,
    "midpoint_identity": 8191,
    "slope_image": 8204,          # sum of 2^n + 1 over levels 0..12
    "slope_transport": 3045,      # reduced a/b in [0, 1] with b <= 100
    "question_mark": 3099,        # 3 per reduced a/b with b <= 50, plus 1031 order checks
    "boundary_branches": 60,
    "transport_mediants": 2047,   # depth capped at 10
    "approximation_bound": 15,
    "interval_geometry": 1021,    # 511 vertices at depth 8 plus 510 neighbour pairs
    "interval_freeness": 63,
    "length_series": 39,          # 3 per level 0..12
    "unicity": 8193,
    "congruence": 15,
    "generalized_equations": 7166,
    "vieta_involution": 381,      # 3 per vertex at depth 6
    "slope_membership": 2048,     # 2047 vertices at depth 10, plus one rejection
}
# Tree vertices enumerated by the suites at depth 12, for vertices_per_s:
# six suites at depth 12, interval_geometry and approximation_bound at 8,
# interval_freeness at 5, vieta_involution at 6, slope_membership at 10.
VERIFY_VERTICES = 6 * 8191 + 2 * 511 + 63 + 127 + 2047


def check_verify_output(code: int, stdout: str) -> list[str]:
    """Failures of one `verify --depth 12 --format json` run, at most one per suite.

    A nonzero exit or unreadable output fails every suite.
    """
    if code != 0:
        return [f"verify exited with {code}"] * len(VERIFY_COUNTS)
    try:
        record = json.loads(stdout)
    except ValueError:
        return ["verify printed no JSON"] * len(VERIFY_COUNTS)
    outputs = record.get("outputs", {})
    failures = []
    if record.get("status") != "ok" or outputs.get("all_passed") is not True:
        failures.append("verify did not pass every suite")
    seen = {r["name"]: r for r in outputs.get("results", [])}
    for name, count in VERIFY_COUNTS.items():
        r = seen.get(name)
        if r is None or not r["passed"] or r["checked"] != count:
            failures.append(f"suite {name}: {r}")
    return failures

