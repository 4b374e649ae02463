"""Invariant checks shared by ``ghost-slopes verify`` and the tests.

Each ``check_*`` tests one invariant on one item and raises
VerificationError naming the item.  Two checks test several facts on
data they compute once: ``check_threshold_relation`` the three that tie
a weight's L model to its thresholds, and ``check_sample_relation`` the
two that tie its threshold sample to its derivative sample.  Three
invariants are checked by the function that computes them: the hatted
duality by ``derivative_polygon``, the model hull by ``build_model`` and
M(k) <= floor(log_p k_bullet) + 3 by ``max_zero_distance``.  ``SUITES``
samples items for ``verify``.
"""

from __future__ import annotations

from fractions import Fraction

from .distribution import SampleKind, sample, sample_difference_bound
from .errors import VerificationError
from .ghost import WeightPoint, dimensions, ghost_multiplicity, max_zero_distance
from .polygon import dual_graph, lower_hull
from .prediction import Rel, build_model, exceptional_bound, predict_slopes
from .slopes import breakpoints_by_criterion, certified_newton_polygon, derivative_polygon
from .slopes import k_newslopes, k_thresholds
from .valuation import INF, weight_distance
from .wedge import TruncationMode, binomial_vandermonde, d_matrix_truncated, determinant
from .wedge import formal_wedge_trace, linear_system_roundtrip, random_int_matrix, wedge_collapse_check

# -- per-item checks ------------------------------------------------------------


def check_ultrametric(p: int, k1: int, k2: int, k3: int) -> None:
    """Weight distance is symmetric, >= 1, and ultrametric on (k1, k2, k3)."""
    d12 = weight_distance(k1, k2, p)
    if d12 != weight_distance(k2, k1, p) or d12 < 1:
        raise VerificationError(f"distance axioms fail at ({k1}, {k2})")
    trio = sorted([d12, weight_distance(k1, k3, p), weight_distance(k2, k3, p)])
    if trio[0] != trio[1]:
        raise VerificationError(f"ultrametric minimum unique at ({k1}, {k2}, {k3})")


def check_dimensions(ctx, k: int) -> None:
    """d_iw = d_new + 2 d_ur, d_ur(k + p^2 - 1) = d_ur(k) + 2, d_iw ~ 2k/(p-1), d_new ~ 2k/(p+1)."""
    trip = dimensions(ctx, k)
    if trip.d_iw != trip.d_new + 2 * trip.d_ur:
        raise VerificationError(f"d_iw != d_new + 2 d_ur at k = {k}")
    if dimensions(ctx, k + ctx.p**2 - 1).d_ur - trip.d_ur != 2:
        raise VerificationError(f"d_ur step != 2 at k = {k}")
    if abs(trip.d_iw - Fraction(2 * k, ctx.p - 1)) > 16:
        raise VerificationError(f"d_iw drifts from 2k/(p-1) at k = {k}")
    if abs(trip.d_new - Fraction(2 * k, ctx.p + 1)) > 16:
        raise VerificationError(f"d_new drifts from 2k/(p+1) at k = {k}")


def check_multiplicity_symmetry(ctx, k: int) -> None:
    """m_n(k) = m_{d_iw - n}(k) for 0 < n < d_iw."""
    d_iw = dimensions(ctx, k).d_iw
    for n in range(1, d_iw):
        if ghost_multiplicity(ctx, n, k) != ghost_multiplicity(ctx, d_iw - n, k):
            raise VerificationError(f"m_n(k) asymmetric at (n, k) = ({n}, {k})")


def check_hull_idempotent(pts) -> None:
    """The lower hull of a hull's own vertices is that hull."""
    hull = lower_hull(pts)
    if lower_hull(list(hull.vertices)).vertices != hull.vertices:
        raise VerificationError(f"hull not idempotent on {pts}")


def check_gauss_norm_duality(vals) -> None:
    """The dual graph's kinks are the negated hull slopes; its intercepts are values."""
    hull = lower_hull(list(enumerate(vals)))
    dg = dual_graph(vals, -max(s for s, _ in hull.slopes) - 1)
    kinks = [(-r.value, drop) for r, drop in dg.breakpoints()]
    if sorted(kinks) != sorted((s, m) for s, m in hull.slopes):
        raise VerificationError(f"polygon/dual mismatch on {vals}")
    for r_lo, r_hi, n, intercept in dg.segments:
        if intercept != vals[n]:
            raise VerificationError(f"dual intercept != v_p(a_{n}) on {vals}")


def check_criterion_matches_hull(ctx, w: WeightPoint) -> None:
    """The breakpoint criterion on [0, d_iw] gives the certified hull vertices at w."""
    d_iw = dimensions(ctx, w.anchor).d_iw
    crit = breakpoints_by_criterion(ctx, w, d_iw)
    hull = certified_newton_polygon(ctx, w, d_iw)
    if crit != {x for x in hull.vertex_xs() if x <= d_iw}:
        raise VerificationError(f"criterion != hull vertices at (k, r) = ({w.anchor}, {w.radius})")


def check_slope_integrality(ctx, k: int) -> None:
    """Unit-multiplicity derivative slopes lie in a/2 + Z; others are even and integral."""
    for sl, m in derivative_polygon(ctx, k).slopes:
        if m == 1:
            if (sl - Fraction(ctx.a, 2)).denominator != 1:
                raise VerificationError(f"unit-mult slope {sl} not in a/2 + Z at k = {k}")
        elif m % 2 or sl.denominator != 1:
            raise VerificationError(f"slope {sl} x{m} breaks parity at k = {k}")


def check_threshold_lock(ctx, k: int) -> None:
    """Newslope n is (k-2)/2 at radius CS_n(k) + 1 and not just below CS_n(k)."""
    half = Fraction(k - 2, 2)
    for n, cs in enumerate(k_thresholds(ctx, k).local_thresholds, 1):
        cs = cs.value
        if k_newslopes(ctx, k, WeightPoint(k, cs + 1))[n - 1] != half:
            raise VerificationError(f"newslope {n} not locked above CS at k = {k}")
        below = cs / 2 if cs <= Fraction(1, 2) else cs - Fraction(1, 2)
        if below > 0 and k_newslopes(ctx, k, WeightPoint(k, below))[n - 1] == half:
            raise VerificationError(f"newslope {n} locked below CS at k = {k}")


def check_raw_increments(ctx, k: int) -> None:
    """ys[l] - ys[l-1] >= 3 + (p-1)(l-1) on the derivative hull's ordinates ys = 2 * raw."""
    ys = derivative_polygon(ctx, k).hull.ys
    for l in range(1, len(ys)):
        if ys[l] - ys[l - 1] < 3 + (ctx.p - 1) * (l - 1):
            raise VerificationError(f"increment bound fails at (k, l) = ({k}, {l})")


def check_model_pattern(ctx, k: int) -> None:
    """Each column j holding an equality cell has j - 1 strict entries."""
    model = build_model(ctx, k)
    for _, j in sorted(model.eq_cells):
        strict = [model.rel(i, j) for i in range(1, model.d + 1)].count(Rel.GT)
        if strict != j - 1:
            raise VerificationError(f"column {j} carries {strict} strict entries at k = {k}")


def check_threshold_relation(ctx, k: int) -> None:
    """Against k's thresholds: the known L-invariant block, ascending, is -(CS + 1)
    over the closed thresholds, and the exceptional count is m times the number of
    sweep thresholds and at most ``exceptional_bound``."""
    tv, model = k_thresholds(ctx, k), predict_slopes(ctx, k)
    closed = [cs.value for cs, prov in zip(tv.local_thresholds, tv.provenance) if prov == "closed"]
    flat = [v for v, m in model.linv_slopes_known for _ in range(m)]
    if flat != sorted(-(c + 1) for c in closed for _ in range(ctx.global_mult)):
        raise VerificationError(f"linv block != -(CS + 1) at k = {k}")
    if model.exceptional_count != ctx.global_mult * tv.provenance.count("sweep"):
        raise VerificationError(f"exceptional count != central block at k = {k}")
    if model.exceptional_count > exceptional_bound(ctx, k):
        raise VerificationError(f"exceptional count above log bound at k = {k}")


def check_collapse(mats, n: int, alpha) -> None:
    """The scalar-slot collapse identity of ``wedge_collapse_check``."""
    if not wedge_collapse_check(mats, n, alpha):
        raise VerificationError(f"collapse identity fails for d = {mats[0].rows}")


def check_truncated_determinants(d: int) -> None:
    """det D_d(j) = 1 for 1 <= j <= d, and det D'_d(j) = 1 for even j."""
    for j in range(1, d + 1):
        if determinant(d_matrix_truncated(d, j, TruncationMode.UPPER_LEFT)) != 1:
            raise VerificationError(f"det D_{d}({j}) != 1")
        if j % 2 == 0 and determinant(d_matrix_truncated(d, j, TruncationMode.SPLIT)) != 1:
            raise VerificationError(f"det D'_{d}({j}) != 1")


def check_bv_consecutive(n: int, n0: int) -> None:
    """BV(n0 + n - 1, ..., n0 + 1, n0) = 1."""
    xs = tuple(range(n0 + n - 1, n0 - 1, -1))
    if binomial_vandermonde(xs) != 1:
        raise VerificationError(f"BV{xs} != 1")


def check_roundtrip(d: int, j: int, alpha, ms) -> None:
    """The binomial system recovers the top wedge trace from M^(1)..M^(j)."""
    if not linear_system_roundtrip(d, j, alpha, ms):
        raise VerificationError(f"round trip fails for (d, j) = ({d}, {j})")


def check_symmetrized_pair(a, b) -> None:
    """tr(A ^ B) + tr(B ^ A) = tr(A) tr(B) - tr(AB)."""
    d = a.rows
    tr_a, tr_b = (sum(m.entries[i][i] for i in range(d)) for m in (a, b))
    tr_ab = sum(a.entries[i][t] * b.entries[t][i] for i in range(d) for t in range(d))
    if formal_wedge_trace([a, b]) + formal_wedge_trace([b, a]) != tr_a * tr_b - tr_ab:
        raise VerificationError("symmetrized pair identity fails")


def check_sample_relation(ctx, k: int) -> None:
    """With m = 1, threshold and derivative samples agree above 2(p+1) M(k) / ((p-1) k)
    and differ in at most ``sample_difference_bound`` places."""
    st, sd = (sample(ctx, k, kind).values for kind in (SampleKind.THRESHOLD, SampleKind.DERIVATIVE))
    cut = Fraction(2 * (ctx.p + 1), (ctx.p - 1) * k) * max_zero_distance(ctx, k).value
    if [v for v in st if v > cut] != [v for v in sd if v > cut]:
        raise VerificationError(f"threshold/derivative blocks differ at k = {k}")
    if sum(1 for x, y in zip(st, sd) if x != y) > sample_difference_bound(ctx, k):
        raise VerificationError(f"sample difference above bound at k = {k}")


def check_sample_moments(ctx, k: int) -> None:
    """Moments 1..3 of the derivative sample stay below its top value's powers."""
    sd = sample(ctx, k, SampleKind.DERIVATIVE)
    if not sd.nums:
        return
    top = max(sd.values)
    for n, mo in enumerate(sd.moments(3), 1):
        if mo > top**n:
            raise VerificationError(f"moment exceeds max-value bound at k = {k}")


# -- sampled suites ---------------------------------------------------------------


def _sampled(count: int, *checks):
    """A suite running the checks, in order, on ``count`` weights drawn from ks."""
    def suite(ctx, rng, ks):
        for k in rng.sample(ks, min(count, len(ks))):
            for check in checks:
                check(ctx, k)
    return suite


def _suite_ultrametric(ctx, rng, ks):
    for _ in range(40):
        check_ultrametric(ctx.p, *rng.sample(ks, 3))


def _suite_dimensions(ctx, rng, ks):
    for k in ks:
        check_dimensions(ctx, k)


def _suite_hull_idempotence(ctx, rng, ks):
    for _ in range(25):
        size = rng.randint(2, 12)
        pts = [(x, Fraction(rng.randint(-40, 40), rng.randint(1, 9))) for x in range(size)]
        check_hull_idempotent(pts)


def _suite_gauss_norm_duality(ctx, rng, ks):
    for _ in range(25):
        check_gauss_norm_duality([Fraction(rng.randint(0, 30)) for _ in range(rng.randint(2, 10))])


def _suite_criterion_vs_hull(ctx, rng, ks):
    radii = [Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 4, INF]
    for k in rng.sample(ks, min(8, len(ks))):
        if dimensions(ctx, k).d_iw >= 2:
            check_criterion_matches_hull(ctx, WeightPoint(k, rng.choice(radii)))


def _suite_wedge(ctx, rng, ks):
    for trial in range(5):
        d = 2 + trial % 3
        mats = [random_int_matrix(rng, d) for _ in range(rng.randint(1, d))]
        alpha = Fraction(rng.randint(1, 5))
        check_collapse(mats, rng.randint(0, d - len(mats)), alpha)
    for d in range(1, 9):
        check_truncated_determinants(d)
    for n in range(1, 7):
        for n0 in range(0, 4):
            check_bv_consecutive(n, n0)
    for trial in range(5):
        d = rng.randint(2, 6)
        j = rng.randint(1, d)
        ms = [Fraction(rng.randint(-9, 9)) for _ in range(j)]
        check_roundtrip(d, j, Fraction(rng.randint(1, 7)), ms)
    check_symmetrized_pair(*(random_int_matrix(rng, 3) for _ in range(2)))


def _suite_sample_relations(ctx, rng, ks):
    for k in rng.sample(ks, min(8, len(ks))):
        if ctx.global_mult == 1:
            check_sample_relation(ctx, k)
        check_sample_moments(ctx, k)


def _suite_moment_trend(ctx, rng, ks):
    def nonempty(indices):
        # the first index of ``indices`` whose threshold sample is nonempty, and that sample
        for i in indices:
            if (s := sample(ctx, ks[i], SampleKind.THRESHOLD)).nums:
                return i, s
        return len(ks), None

    # the first and last nonempty samples, scanned from each end, and a third between them
    i, head = nonempty(range(len(ks)))
    j, tail = nonempty(range(len(ks) - 1, i, -1))
    if tail is None or nonempty(range(i + 1, j))[1] is None:
        raise VerificationError("too few nonempty samples for a trend")
    for n, mo_head, mo_tail in zip((1, 2, 3), head.moments(3), tail.moments(3)):
        target = Fraction(1, n + 1)
        first, last = abs(mo_head - target), abs(mo_tail - target)
        if last >= first:
            raise VerificationError(
                f"moment {n} drifts: |{last}| at k = {tail.k} "
                f"vs |{first}| at k = {head.k}"
            )


#: (name, suite(ctx, rng, ks)) in the order ``verify`` runs them; a suite
#: raises VerificationError at its first failed check
SUITES = (
    ("ultrametric-distance", _suite_ultrametric),
    ("dimension-structure", _suite_dimensions),
    ("multiplicity-symmetry", _sampled(12, check_multiplicity_symmetry)),
    ("zero-distance-bound", _sampled(15, max_zero_distance)),
    ("hull-idempotence", _suite_hull_idempotence),
    ("gauss-norm-duality", _suite_gauss_norm_duality),
    ("criterion-vs-hull", _suite_criterion_vs_hull),
    ("hatted-duality", _sampled(10, derivative_polygon)),
    ("slope-integrality", _sampled(20, check_slope_integrality)),
    ("threshold-consistency", _sampled(5, check_threshold_lock)),
    ("increment-lower-bound", _sampled(15, check_raw_increments)),
    ("model-hull-and-pattern", _sampled(10, check_model_pattern)),
    ("threshold-relation", _sampled(10, check_threshold_relation)),
    ("wedge-identities", _suite_wedge),
    ("sample-relations", _suite_sample_relations),
    ("moment-trend", _suite_moment_trend),
)
