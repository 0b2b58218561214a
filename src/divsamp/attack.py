"""Candidate-elimination attacks on floating-point noise, plus cost models.

The attacks here answer a simple question: given query access to a
protected value plus sampled noise, can the noise be "peeled off" by
inverting the sampler's floating-point arithmetic?  For the naive
inverse-transform Laplace sampler and for raw cached Box-Muller pairs the
answer is yes — the attacker rounds the implied uniform back onto the
sampling grid, re-runs the forward transform over a small neighbourhood,
and eliminates any candidate the arithmetic cannot reproduce exactly.

For the hardened samplers the same procedure eliminates *every*
candidate: their outputs do not lie in the naive sampler's image, so no
grid point reproduces the query and the attack reports that it learned
nothing.  The brute-force search and the check-count model quantify what
inverting a single hardened Gaussian output would cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from .dist import laplace_cdf
from .sampler import TWO_PI, GaussianStream, _bm_radius, _naive_laplace
from .urand import DEFAULT_PRECISION, check_count, check_precision, grid_round

DEFAULT_WINDOW = 2
DEFAULT_PAIR_WINDOW = 4
BRUTE_FORCE_MAX_PRECISION = 20
# A survival check evaluates the forward map once per grid point of its
# window: 2w+1 points for Mironov, (2w+1)**2 pairs for the pair check, that
# is (2w+1)**arity.  At about 1 us per evaluation, this cap keeps one check
# under a tenth of a second: w <= 32767 for Mironov, w <= 127 for the pair
# attack.  At p=53 no clamp to the grid helps, so a larger window would run
# for hours; it is rejected before the first query instead.
MAX_CHECK_EVALUATIONS = 2**16
# A brute-force search scans up to min(2(2w+1), 2**p) angles in each of
# its 2**p rows.  It admits p = 20 with the default window (about 1.05e7
# points: about 0.4 s, or 38 ns a point, when it builds its radius and
# cosine tables, and 65 ms, 6 ns a point, with the tables built, on a
# 2-vCPU Xeon host) and any window at p <= 13 (2**26 points in up to
# about 0.5 s, 8 ns a point).  A wider window costs in proportion, up to 2**40
# points for a full-grid window at p = 20, so a search past the cap is
# rejected before either table is built.
MAX_SEARCH_POINTS = 2**26
# Grid angles one block of the search's numpy filter gathers from the
# cosine table: w + 1 either side of both branch centres of each of its
# rows, so 182 rows at the default window and one row for a full-grid
# window.  A block's arrays take about 100 KiB beyond the tables.  Almost
# no block holds a match, so a block costs mostly its gather, its
# products and one count of the matches.
_BLOCK_POINTS = 2560

__all__ = [
    "DEFAULT_WINDOW",
    "DEFAULT_PAIR_WINDOW",
    "BRUTE_FORCE_MAX_PRECISION",
    "MAX_CHECK_EVALUATIONS",
    "MAX_SEARCH_POINTS",
    "QueryOracle",
    "PhaseAlignmentError",
    "AttackOutcome",
    "mironov_attack",
    "invert_box_muller",
    "gaussian_pair_attack",
    "count_feasible_checks",
    "expected_checks",
    "BruteForceResult",
    "brute_force_single_gaussian",
]


class PhaseAlignmentError(RuntimeError):
    """The pair attack was started against a stream holding a cached output."""


class QueryOracle:
    """Query access to a hidden target value plus fresh sampled noise.

    Each call to :meth:`query` returns ``target + noise()``; an attack
    counts its own queries, in ``AttackOutcome.queries_used``.  ``stream``
    optionally exposes the Gaussian stream backing the noise, for attacks
    that reason about cache phase; leave it ``None`` when outputs carry no
    cross-query state.
    """

    def __init__(
        self,
        target: float,
        noise: Callable[[], float],
        stream: GaussianStream | None = None,
    ) -> None:
        self.target = target
        self._noise = noise
        self.stream = stream

    def query(self) -> float:
        return self.target + self._noise()


@dataclass
class AttackOutcome:
    """Result of an elimination attack.

    ``status`` is ``"identified"`` (exactly one candidate survived, in
    ``value``), ``"all_eliminated"`` (no candidate could have produced the
    observed queries — the noise did not come from the assumed sampler), or
    ``"budget_exhausted"``.  ``trace`` records, per oracle round, the query
    value(s) and the candidates eliminated in that round.
    ``survival_checks`` counts the survival checks run: one per candidate
    still alive at each round.
    """

    status: str
    value: float | None
    queries_used: int
    trace: list[tuple] = field(default_factory=list)
    survival_checks: int = 0


def _campaign_candidates(
    candidates, p: int, w: int, arity: int, max_queries: int, scale: float
) -> list[float]:
    # The one boundary check of both attacks: everything is rejected here,
    # before the first query, so the survival checks run unvalidated.
    check_precision(p)
    check_count(w, "window")
    check_count(max_queries, "query budget")
    if (2 * w + 1) ** arity > MAX_CHECK_EVALUATIONS:
        raise ValueError(f"window {w} is too large: a survival check would evaluate "
                         f"{(2 * w + 1) ** arity} grid points, more than "
                         f"{MAX_CHECK_EVALUATIONS}")
    if isinstance(scale, bool) or not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    cands = [float(c) for c in candidates]
    if not cands:
        raise ValueError("candidate set must be non-empty")
    for c in cands:
        if not math.isfinite(c):
            raise ValueError(f"candidates must be finite, got {c!r}")
    return sorted(set(cands))


def _eliminate(
    oracle: QueryOracle,
    candidates: list[float],
    arity: int,
    survives: Callable[[object, float], bool],
    max_queries: int,
) -> AttackOutcome:
    # Query ``arity`` outputs per round (a scalar for arity 1, a pair for
    # arity 2) and keep the candidates ``survives(q, c)`` accepts, until one
    # round would overrun the budget or nothing is left.  The budget counts
    # this campaign's own queries, whatever the oracle answered before.
    if len(candidates) == 1:
        return AttackOutcome("identified", candidates[0], 0, [])
    trace: list[tuple] = []
    checks = used = 0
    while candidates and used + arity <= max_queries:
        q = oracle.query() if arity == 1 else (oracle.query(), oracle.query())
        used += arity
        checks += len(candidates)
        survivors: list[float] = []
        eliminated: list[float] = []
        if (math.isnan(q) if arity == 1 else any(map(math.isnan, q))):
            # no grid point maps to NaN: the round eliminates every candidate
            eliminated = candidates
        else:
            for c in candidates:
                (survivors if survives(q, c) else eliminated).append(c)
        trace.append((q, eliminated))
        candidates = survivors
    if len(candidates) == 1:
        return AttackOutcome("identified", candidates[0], used, trace, checks)
    if not candidates:
        return AttackOutcome("all_eliminated", None, used, trace, checks)
    return AttackOutcome("budget_exhausted", None, used, trace, checks)


def _nearest_first(m: int, p: int, w: int) -> Iterator[int]:
    # The numerators within w steps of m in the order m, m-1, m+1, m-2, ...,
    # truncated at the grid edges.  The true grid point is almost always m
    # itself, and a survival check is an any() over its window, so visiting
    # nearest-first stops a surviving check early without changing a result.
    yield m
    lo, hi = max(0, m - w), min((1 << p) - 1, m + w)
    for d in range(1, max(m - lo, hi - m) + 1):
        if m - d >= lo:
            yield m - d
        if m + d <= hi:
            yield m + d


def _laplace_survives(q: float, c: float, p: int, w: int, scale: float) -> bool:
    # Round the implied uniform onto the grid, then ask whether any grid
    # point within w steps pushes forward to the query bit-exactly under the
    # naive sampler's own transform.  The centre m is tried before the rest
    # of the window is set up: for the true candidate it almost always matches.
    m = grid_round(laplace_cdf((q - c) / scale), p)
    if scale * _naive_laplace(m, p, math) + c == q:
        return True
    rest = _nearest_first(m, p, w)
    next(rest)  # m itself, just tried
    for k in rest:
        if scale * _naive_laplace(k, p, math) + c == q:
            return True
    return False


def mironov_attack(
    oracle: QueryOracle,
    candidates,
    p: int = DEFAULT_PRECISION,
    w: int = DEFAULT_WINDOW,
    max_queries: int = 100,
    scale: float = 1.0,
) -> AttackOutcome:
    """Eliminate candidates against an oracle assumed to add naive Laplace noise.

    For each query ``q`` and candidate ``c``, the implied uniform
    ``laplace_cdf((q - c) / scale)`` is rounded to the precision-``p``
    grid; ``c`` survives only if some grid point within ``w`` steps
    reproduces ``q`` exactly under the naive sampler's own arithmetic.

    A candidate set that shrinks to one is *not* reported immediately: a
    wrong candidate can pass the reproduction check by coincidence on any
    single query (the naive image is dense enough for that), so the lone
    survivor keeps being challenged until the query budget is spent.  Only
    a candidate that survives every query is reported as identified —
    which the true target does whenever the oracle really adds naive
    Laplace noise, and noise from any other sampler essentially never
    does.  A candidate set that is *passed in* as a singleton returns
    immediately: there is nothing to eliminate.

    Args:
        oracle: source of ``target + scale * noise`` observations.
        candidates: finite iterable of finite hypothesised target values.
        p: grid precision the attacked sampler is assumed to draw at.
        w: neighbourhood half-width absorbing rounding slack.
        max_queries: non-negative cap on the oracle calls this campaign makes.
        scale: Laplace scale ``b`` of the oracle's noise.

    Raises:
        ValueError: for any invalid argument, before the first query.
    """
    cands = _campaign_candidates(candidates, p, w, 1, max_queries, scale)
    return _eliminate(
        oracle, cands, 1, lambda q, c: _laplace_survives(q, c, p, w, scale), max_queries
    )


def invert_box_muller(n1: float, n2: float) -> tuple[float, float]:
    """Recover the uniform pair behind a full Box-Muller output pair.

    Inverts the polar map: ``u1 = 1 - exp(-(n1² + n2²)/2)`` and ``u2`` from
    the two-argument arctangent of ``(n2, n1)``, normalized into [0, 1).
    The quadrant handling makes the inversion total for any pair except
    the measure-zero origin.

    Raises:
        ValueError: if ``n1 == n2 == 0`` (the radius carries no angle).
    """
    if n1 == 0.0 and n2 == 0.0:
        raise ValueError("cannot invert the origin: angle is undefined")
    u1 = 1.0 - math.exp(-0.5 * (n1 * n1 + n2 * n2))
    u2 = math.atan2(n2, n1) / TWO_PI
    if u2 < 0.0:
        u2 += 1.0
    return u1, u2


def _pair_matches(
    q1: float, q2: float, c: float, p: int, scale: float, m1: int, w1: int, m2: int, w2: int
) -> bool:
    # Whether a grid pair within w1 steps of m1 and w2 steps of m2 maps to
    # (q1, q2) bit-exactly.  The sampler's _bm_pair factored by grid point:
    # its _bm_radius once per u1 and one angle and cosine per u2, combined by
    # the same IEEE operations in the same order; the sine is taken only once
    # the cosine half matches.  Both axes go nearest-first, and the centre
    # (m1, m2) and its four edge neighbours come before the rest of the
    # window: over 15,000 true-candidate checks at p = 53 the centre matched
    # in 72% and one of the five in 98%.  Survival is an any() over the
    # window, so the order changes no result.  Each radius and cosine is
    # computed once, on first use, so a check that matches early skips the
    # rest.
    angle = TWO_PI * math.ldexp(m2, -p)
    cos_angle = math.cos(angle)
    r = _bm_radius(math.ldexp(m1, -p), math)
    if c + scale * (r * cos_angle) == q1 and c + scale * (r * math.sin(angle)) == q2:
        return True
    rows = _nearest_first(m1, p, w1)
    cols = _nearest_first(m2, p, w2)
    next(rows), next(cols)  # m1 and m2, just tried
    radii = [r]
    # m1 - 1 and m1 + 1 on column m2, then m2 - 1 and m2 + 1 on row m1; at a
    # grid edge, the next two inward instead
    for k1 in islice(rows, 2):
        r = _bm_radius(math.ldexp(k1, -p), math)
        radii.append(r)
        if c + scale * (r * cos_angle) == q1 and c + scale * (r * math.sin(angle)) == q2:
            return True
    trig = [(cos_angle, angle)]
    r = radii[0]
    for k2 in islice(cols, 2):
        angle = TWO_PI * math.ldexp(k2, -p)
        cos_angle = math.cos(angle)
        trig.append((cos_angle, angle))
        if c + scale * (r * cos_angle) == q1 and c + scale * (r * math.sin(angle)) == q2:
            return True
    # The rest of the window: row m1 past its first three columns, the next
    # two rows past their first, and every column of the other rows.
    for k2 in cols:
        angle = TWO_PI * math.ldexp(k2, -p)
        trig.append((math.cos(angle), angle))
    radii += [_bm_radius(math.ldexp(k1, -p), math) for k1 in rows]
    for i, r in enumerate(radii):
        for cos_angle, angle in trig[3 if i == 0 else 1 if i < 3 else 0:]:
            if c + scale * (r * cos_angle) == q1 and c + scale * (r * math.sin(angle)) == q2:
                return True
    return False


def _pair_survives(
    q1: float, q2: float, c: float, p: int, w: int, scale: float
) -> bool:
    n1 = (q1 - c) / scale
    n2 = (q2 - c) / scale
    if n1 == 0.0 and n2 == 0.0:
        # Only the zero-radius grid point reproduces an exact (0, 0) pair.
        return _pair_matches(q1, q2, c, p, scale, 0, 0, 0, 0)
    u1, u2 = invert_box_muller(n1, n2)
    m1, m2 = grid_round(u1, p), grid_round(u2, p)
    if _pair_matches(q1, q2, c, p, scale, m1, w, m2, w):
        return True
    # Only a failed check gets here.  Adding c rounded each query to its ulp,
    # so n1 and n2 may be off by e in all, which moves u1 by up to t1 grid
    # steps and u2 by up to t2.  If both moves are under a step, or both at
    # least one, the window has met the pairs that map to the queries; if
    # only one is, those pairs form a strip one step thin that (u1, u2) can
    # miss by up to t steps along it.  Search again, that much wider, and
    # keep c when that search would be too large to run.
    r = math.hypot(n1, n2)
    if r == math.inf:  # no grid pair maps to an infinite noise pair
        return False
    e = (math.ulp(q1) + math.ulp(q2)) / (2.0 * scale)
    t1 = math.ldexp(e * (r * math.exp(-0.5 * r * r)), p)  # |du1| <= e r exp(-r^2/2)
    t2 = math.ldexp(e / (TWO_PI * r), p)  # |du2| <= e / (2 pi r)
    if (t1 < 1.0) == (t2 < 1.0):
        return False
    w1, w2 = w + math.ceil(t1), w + math.ceil(t2)
    if (2 * w1 + 1) * (2 * w2 + 1) > MAX_CHECK_EVALUATIONS:
        return True
    return _pair_matches(q1, q2, c, p, scale, m1, w1, m2, w2)


def gaussian_pair_attack(
    oracle: QueryOracle,
    candidates,
    p: int = DEFAULT_PRECISION,
    w: int = DEFAULT_PAIR_WINDOW,
    max_queries: int = 100,
    scale: float = 1.0,
) -> AttackOutcome:
    """Eliminate candidates by inverting consecutive cached Box-Muller outputs.

    Consumes queries two at a time, treating ``(q1, q2)`` as both halves
    of one Box-Muller evaluation.  For each candidate the implied uniform
    pair is recovered with :func:`invert_box_muller`, rounded to the grid,
    and the candidate survives only if some pair in the ``w``-neighbourhood
    reproduces both queries bit-exactly.  As with :func:`mironov_attack`,
    a lone survivor keeps being challenged until the budget is spent, so
    "identified" means the candidate reproduced every observed pair.  If
    the oracle exposes its stream, a non-empty cache at the first query is
    a phase misalignment and is rejected up front.

    Raises:
        ValueError: for any invalid argument, before the first query.
        PhaseAlignmentError: if the oracle's stream starts mid-pair.
    """
    cands = _campaign_candidates(candidates, p, w, 2, max_queries, scale)
    if oracle.stream is not None and oracle.stream.phase != "empty":
        raise PhaseAlignmentError(
            "oracle stream holds a cached output; pair alignment would be off by one"
        )
    return _eliminate(
        oracle, cands, 2, lambda q, c: _pair_survives(q[0], q[1], c, p, w, scale), max_queries
    )


def count_feasible_checks(n1: float, p: int) -> int:
    """Size of the grid region a single-output inversion must search.

    Counts the precision-``p`` grid points in ``[1 - exp(-n1²/2), 1)`` —
    the only ``u1`` values whose radial factor can reach ``|n1|``.  This is
    the analytic size of the search, not its exact cost:
    :func:`brute_force_single_gaussian` pads the region by ``w`` rows below
    its edge, so its ``checks`` is ``min(2**p, count_feasible_checks(n1, p) + w)``.
    """
    check_precision(p)
    if not math.isfinite(n1):
        raise ValueError(f"need a finite output value, got {n1!r}")
    scale = 1 << p
    lower = 1.0 - math.exp(-0.5 * n1 * n1)
    return scale - math.ceil(lower * scale)


def expected_checks(p: int) -> float:
    """Expected search size ``2**(p - 1/2)`` for a standard-normal output.

    Averaging ``exp(-n²/2)`` over the standard normal gives ``1/sqrt(2)``,
    so the feasible region holds ``2**p / sqrt(2)`` grid points on average.
    """
    check_precision(p)
    return 2.0 ** (p - 0.5)


@dataclass
class BruteForceResult:
    """Outcome of a full single-output search.

    ``pairs`` holds the numerators ``(m1, m2)`` of every grid pair whose
    cosine-branch output is the target bit for bit; ``checks`` counts the
    ``u1`` candidates examined, the cost measure the search-size model predicts.
    """

    pairs: list[tuple[int, int]]
    checks: int


@lru_cache(maxsize=None)
def _search_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The radii of all ``2**p`` grid rows and the cosines of all ``2**p`` grid angles.

    Both arrays are read-only and shared by every search at ``p``.  Row
    ``m1``'s radius has the bits of ``_bm_radius(ldexp(m1, -p), math)``:
    ``(2**p - m1) * 2**-p`` is ``1.0 - ldexp(m1, -p)`` exactly, ``log``
    runs on libm (numpy's own differs from it on some arguments), and
    ``-2.0 *`` and ``sqrt`` are exact or correctly rounded.  The radii
    rise with ``m1``, from the zero radius of row 0.  Angle ``m2`` is
    ``(TWO_PI * 2**-p) * m2``, the same bits as ``TWO_PI * ldexp(m2, -p)``:
    the power-of-two scale is exact, and ``m2 < 2**53`` converts to float
    exactly.
    """
    size = 1 << p
    step = 2.0**-p
    radii = np.fromiter(map(math.log, map(step.__mul__, range(size, 0, -1))), float, size)
    np.multiply(radii, -2.0, out=radii)
    np.sqrt(radii, out=radii)
    angle = TWO_PI * step
    cosines = np.fromiter(map(math.cos, map(angle.__mul__, range(size))), float, size)
    radii.flags.writeable = cosines.flags.writeable = False
    return radii, cosines


def brute_force_single_gaussian(
    n1: float, p: int, w: int = DEFAULT_WINDOW
) -> BruteForceResult:
    """Recover every grid pair ``(m1, m2)`` that maps to cosine-branch output ``n1``.

    Walks the feasible ``u1`` window (padded by ``w`` grid steps below its
    analytic edge to absorb boundary rounding).  For each ``u1`` the angle
    is recovered from ``n1 / radius``; both arccos branches are rounded to
    the grid and the ``w``-neighbourhood of each is re-evaluated forward,
    keeping pairs that reproduce ``n1`` exactly.  The row radii and the
    angle cosines come from two tables of all ``2**p`` of each (``2**p``
    doubles apiece: 8 MiB at ``p = 20``), built from exact scaled integers
    by the first search at ``p`` and kept for every later one.  Only a
    search whose arguments all pass the checks below builds them, so at
    most 20 pairs of tables are ever held, about 32 MiB in all.  The
    search skips the rows whose radius is below ``|n1|``, which no angle
    reaches.  A numpy filter takes the rest in blocks of consecutive rows,
    gathers both branch windows of each from the cosine table, one step
    wider around centres placed by numpy's ``arccos``, and counts the
    angles that match.  A block with none is done; in the rare block with
    some, each match maps back to its row, and only those rows are
    scanned exactly, one slice of the table per window.  Beyond the
    tables, the search holds one block's arrays, about 100 KiB.  On a
    2-vCPU Xeon host one search with the default window takes about
    0.3 ms at ``p = 12``, 1.2 ms at ``p = 14`` and 65 ms at ``p = 20``
    once the tables are built, and 1.6 ms, 5.8 ms and 0.4 s when it
    builds them.  Restricted
    to ``p <= 20`` — the window size grows as ``2**(p - 1/2)`` — and to
    searches of at most ``MAX_SEARCH_POINTS`` grid points, counted as
    ``2**p`` rows of ``min(2 * (2w + 1), 2**p)`` angles each.

    Raises:
        ValueError: if ``p`` exceeds the tractability bound, ``n1`` is not
            finite, or ``w`` is negative, not an ``int``, or so wide that
            the search would pass ``MAX_SEARCH_POINTS``.
    """
    check_precision(p)
    if p > BRUTE_FORCE_MAX_PRECISION:
        raise ValueError(
            f"brute force is limited to p <= {BRUTE_FORCE_MAX_PRECISION}, got {p}"
        )
    check_count(w, "window")
    size = 1 << p
    points = size * min(2 * (2 * w + 1), size)
    if points > MAX_SEARCH_POINTS:
        raise ValueError(f"window {w} is too large at p = {p}: the search would "
                         f"evaluate up to {points} grid points, more than "
                         f"{MAX_SEARCH_POINTS}")
    pairs: list[tuple[int, int]] = []
    start = max(0, size - count_feasible_checks(n1, p) - w)
    # every argument is checked: only now may the tables be built and cached
    radii, cosines = _search_tables(p)
    acos = math.acos
    fsize = float(size)
    # m1 = 0: the zero radius gives ±0.0 at every angle, and no other radius
    # does, because cos never vanishes exactly on the grid
    if start == 0 and n1 == 0.0:
        pairs += [(0, m2) for m2 in range(size)]
    # |fl(r cos)| <= r, so a row whose radius is below |n1| has no preimage.
    # The radii rise with m1, so the rows that can reach n1 are those from
    # `first` on, and each of them has |n1 / r| <= 1.
    first = max(start, 1, int(np.searchsorted(radii, abs(n1))))
    # The filter.  Each block of consecutive rows gathers both branch
    # windows from the cosine table, about _BLOCK_POINTS angles in all, and
    # a row is flagged when some angle reproduces n1.  Indices off the grid
    # clip to its first or last angle, which can only add a flag.  The
    # branch centres come from numpy's arccos, within far less than a grid
    # step of libm's acos, so they round at most one step from the exact
    # scan's; gathering w + 1 steps either side still reads every angle of
    # a row's exact windows, so no pair is missed, and a stray flag costs
    # one exact scan.  Only IEEE arithmetic, indexing, rounding and those
    # centres run in numpy; log and the exact scan's acos stay on libm.
    reach = min(w + 1, size)  # a wider window reaches no further angle
    offsets = np.arange(-reach, reach + 1)
    width = offsets.size
    rows = max(1, _BLOCK_POINTS // (2 * width))
    for base in range(first, size, rows):
        rs = radii[base:base + rows]
        us = np.arccos(n1 / rs) / TWO_PI
        # arccos is in [0, pi], so c1 <= size/2 <= c2; scaling by fsize = 2**p
        # is exact, and rint rounds half to even as round does.  The c1
        # windows of all rows, then their c2 windows.
        centres = np.rint(np.concatenate((us, 1.0 - us)) * fsize).astype(np.intp)
        cos = cosines.take(centres[:, None] + offsets, mode="clip")
        eq = rs[:, None] * cos.reshape(2, rs.size, -1) == n1
        # Almost no block matches, and one count costs far less than a reduce
        # over two of eq's axes.  eq is (branch, row, offset), so the match
        # at flat index i is in row i // width % rs.size; the set drops a
        # row's repeats, and sorting keeps the rows in ascending order.
        if not np.count_nonzero(eq):
            continue
        hit = sorted({i // width % rs.size for i in np.flatnonzero(eq).tolist()})
        # The exact scan of each flagged row, the one rule that builds pairs:
        # the window around c1, then the rest of the one around c2.  A second
        # window that touches or overlaps the first starts where it ends, so
        # each angle is visited once, in ascending order, and slicing clips
        # both windows to the grid.
        for m1, r in zip([base + i for i in hit], rs[hit].tolist()):
            u = acos(n1 / r) / TWO_PI
            c1 = round(u * fsize)
            c2 = round((1.0 - u) * fsize)
            lo = c1 - w if c1 > w else 0
            mid = c1 + w + 1
            row = enumerate(cosines[lo:mid].tolist(), lo)
            pairs += [(m1, m2) for m2, x in row if r * x == n1]
            lo = c2 - w if c2 - w > mid else mid
            row = enumerate(cosines[lo:c2 + w + 1].tolist(), lo)
            pairs += [(m1, m2) for m2, x in row if r * x == n1]
    return BruteForceResult(pairs, size - start)
