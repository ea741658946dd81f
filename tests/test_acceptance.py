"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Exact criteria assert rational equality; truncated criteria assert
|lhs - rhs| <= certified tail bound at the stated caps and tolerances;
distributional criteria use fixed-seed Monte Carlo with chi-square
thresholds.  Run with `pytest -v` (add -s to stream the lines).
"""

import time
from collections import Counter
from fractions import Fraction as F

from scipy.stats import chi2_contingency

from conftest import record_acceptance
from spinhl.exact import RandomSource
from spinhl.identities import (
    cauchy_kernel,
    check_cauchy_closed_form,
    check_intertwining,
    check_intertwining_star,
    check_r_stochastic,
    check_reflection,
    check_refined_cauchy,
    check_refined_littlewood,
    check_skew_cauchy,
    check_skew_littlewood,
    det_exact,
    pfaffian_exact,
)
from spinhl.partitions import (
    enumerate_partitions,
    even_cover,
    even_pair_coefficient,
    interlaces,
    interlacing_above,
)
from spinhl.sshl import (
    f_one_row,
    f_one_row_def2,
    g_one_row,
    g_one_row_def2,
    tail_weight,
)
from spinhl import ds6v
from spinhl.transitions import (
    INF,
    backward_prob,
    forward_prob,
    length_transition,
    p_bwd,
    p_fwd,
)

X = F(1, 4)
Y = F(1, 5)


def test_criterion_01_intertwining(all_points):
    t0 = time.time()
    ok = all(check_intertwining(p, X, Y, max_occ=6).passed for p in all_points)
    elapsed = time.time() - t0
    record_acceptance(1, f"intertwining exact, I,J<=6, 3 points ({elapsed:.2f}s < 5s)",
                      ok and elapsed < 5)


def test_criterion_02_intertwining_star(all_points):
    ok = all(check_intertwining_star(p, X, Y, max_occ=6).passed for p in all_points)
    record_acceptance(2, "starred intertwining exact, I,J<=6, 3 points", ok)


def test_criterion_03_reflection(all_points):
    t0 = time.time()
    ok = all(check_reflection(p, X, max_occ=8).passed for p in all_points)
    elapsed = time.time() - t0
    record_acceptance(3, f"reflection exact, K<=8 ({elapsed:.2f}s < 1s)",
                      ok and elapsed < 1)


def test_criterion_04_stochasticity(all_points):
    ok = all(check_r_stochastic(p, X, Y).passed for p in all_points)
    record_acceptance(4, "crossing-vertex row sums equal one exactly", ok)


def test_criterion_05_definition_equivalence(all_points):
    shapes = enumerate_partitions(5, 4)
    ok = True
    for p in all_points:
        for mu in shapes:
            for lam in shapes:
                if f_one_row(mu, lam, X, p) != f_one_row_def2(mu, lam, X, p):
                    ok = False
                if g_one_row(mu, lam, Y, p) != g_one_row_def2(mu, lam, Y, p):
                    ok = False
    # the two worked length patterns
    lam = (6, 5, 4, 4, 1)
    for p in all_points:
        for mu in [(6, 6, 4, 4, 3), (6, 6, 4, 4, 3, 1)]:
            v = f_one_row(lam, mu, X, p)
            ok = ok and v == f_one_row_def2(lam, mu, X, p) and v != 0
    record_acceptance(5, "both one-row definitions agree (parts<=5, len<=4, 3 points)", ok)


def test_criterion_06_skew_littlewood_one_variable(params):
    import random

    rng = random.Random(606)
    ok = True
    for _ in range(200):
        kappa = tuple(sorted((rng.randint(1, 8) for _ in range(rng.randint(0, 6))),
                             reverse=True))
        if not check_skew_littlewood(kappa, (X,), 0, params).passed:
            ok = False
    # the worked sandwich products, frozen verbatim as rationals
    q, s, x = params.q, params.s, X
    kap = (4, 4, 4, 3, 2, 2, 1)
    g_side = ((1 - q) / (1 - s * s * q)) ** 3 \
        * x * (1 - q) / (1 - s * x) * (1 - s * x * q**2) / (1 - s * x) \
        * x * (1 - s * s * q) / (1 - s * x) * (1 - q**3) / (1 - s * x)
    f_side = ((1 - q) / (1 - s * s * q)) ** 2 \
        * ((1 - q) / (1 - s * s * q) * (1 - q**3) / (1 - s * s * q**3)) \
        * x * (1 - s * s * q) / (1 - s * x) * (1 - s * x * q**2) / (1 - s * x) \
        * (1 - q) * x / (1 - s * x) * (1 - s * s * q**3) / (1 - s * x)
    ok = ok and tail_weight(kap, x, params) == g_side
    cover = even_cover(kap)
    ok = ok and even_pair_coefficient(cover, params) * f_one_row(kap, cover, x, params) == f_side
    ok = ok and g_side == f_side
    record_acceptance(6, "one-variable skew Littlewood exact, 200 random shapes + worked products", ok)


def test_criterion_07_cauchy_identity(params):
    rep = check_skew_cauchy((), (), (X,), (Y,), 40, params)
    bound_ok = rep.tail_bound < F(1, 10**6)
    closed = check_cauchy_closed_form(X, Y, params)
    record_acceptance(
        7,
        f"Cauchy identity: cap=40 within tail {float(rep.tail_bound):.2e} < 1e-6, "
        "plus exact resummation",
        rep.passed and bound_ok and closed.passed and closed.lhs == closed.rhs,
    )


def test_criterion_08_skew_cauchy(params):
    shapes = enumerate_partitions(3, 3)
    ok = True
    for lam in shapes:
        for mu in shapes:
            rep = check_skew_cauchy(lam, mu, (X,), (Y,), 20, params)
            if not rep.passed:
                ok = False
    record_acceptance(8, f"skew Cauchy truncated, all {len(shapes)}^2 shape pairs with parts<=3", ok)


def test_criterion_09_refined_cauchy(params):
    xs = (params.x[0], params.x[2])
    ys = (params.x[1], params.x[3])
    ok = True
    worst = F(0)
    for u in (F(1, 2), F(1)):
        r1 = check_refined_cauchy((X,), (Y,), u, 25, params)
        r2 = check_refined_cauchy(xs, ys, u, 25, params)
        ok = ok and r1.passed and r2.passed
        ok = ok and r1.tail_bound <= F(1, 10**5) and r2.tail_bound <= F(1, 10**5)
        worst = max(worst, r1.tail_bound, r2.tail_bound)
    record_acceptance(
        9, f"refined Cauchy n=1,2 at u=1/2 and u=1, cap=25, bound {float(worst):.2e} <= 1e-5", ok,
    )


def test_criterion_10_refined_littlewood(params):
    import random

    ok = True
    for u in (F(1, 2), F(1)):
        rep = check_refined_littlewood((X, Y), u, 25, params)
        ok = ok and rep.passed
    rng = random.Random(10)
    for _ in range(10):
        m = [[F(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                v = F(rng.randint(-9, 9), rng.randint(1, 9))
                m[i][j], m[j][i] = v, -v
        ok = ok and pfaffian_exact(m) ** 2 == det_exact(m)
    record_acceptance(10, "refined Littlewood 2n=2 within bound; Pf^2 = det exactly", ok)


def test_criterion_11_operator_normalization_reversibility(params):
    kern = cauchy_kernel(X, Y, params)
    ok = True
    # per-column tables are exactly stochastic
    for I in range(3):
        for J in range(3):
            for bits in range(16):
                ip, jp, k, l = (bits >> 3) & 1, (bits >> 2) & 1, (bits >> 1) & 1, bits & 1
                for maker in (p_fwd, p_bwd):
                    try:
                        tbl = maker(I, J, ip, jp, k, l, X, Y, params)
                    except Exception:
                        continue
                    if sum(tbl.probs, F(0)) != 1:
                        ok = False
    # exact reversibility on the enumerated state space with parts <= 4
    checked = 0
    for kappa in enumerate_partitions(2, 2):
        for lam in interlacing_above(kappa, cap_part=3):
            for mu in interlacing_above(kappa, cap_part=3):
                for nu in interlacing_above(lam, cap_part=4):
                    if not interlaces(mu, nu):
                        continue
                    lhs = forward_prob(kappa, lam, mu, nu, X, Y, params) * kern \
                        * f_one_row(kappa, lam, X, params) * g_one_row(kappa, mu, Y, params)
                    rhs = backward_prob(nu, lam, mu, kappa, X, Y, params) \
                        * f_one_row(mu, nu, X, params) * g_one_row(lam, nu, Y, params)
                    if lhs != rhs:
                        ok = False
                    checked += 1
    # boundary reversibility with the diagonal tail weights
    for kappa in enumerate_partitions(3, 2):
        lam = even_cover(kappa)
        for mu in interlacing_above(kappa, cap_part=4):
            for nu in interlacing_above(lam, cap_part=4):
                if not interlaces(mu, nu):
                    continue
                lhs = forward_prob(kappa, lam, mu, nu, X, Y, params) * kern \
                    * g_one_row(kappa, mu, Y, params) * tail_weight(kappa, X, params)
                rhs = backward_prob(nu, lam, mu, kappa, X, Y, params) \
                    * f_one_row(mu, nu, X, params) * tail_weight(nu, Y, params)
                if lhs != rhs:
                    ok = False
                checked += 1
    record_acceptance(11, f"operator normalization and reversibility exact ({checked} cases)", ok)


def test_criterion_12_length_projection(params):
    ok = True
    for lk in range(4):
        for da in (0, 1):
            for db in (0, 1):
                tbl = length_transition("bulk", (lk, lk + da, lk + db), X, Y, params).as_dict()
                col0 = p_fwd(INF, INF, 1, 0, db, da, X, Y, params)
                pushed = {}
                for (i0, j0, _), p in zip(col0.outcomes, col0.probs):
                    pushed[lk + da + i0] = pushed.get(lk + da + i0, F(0)) + p
                if pushed != tbl:
                    ok = False
        # boundary tables are the bulk ones at the even-cover length
        cover_len = lk if lk % 2 == 0 else lk + 1
        for lm in (lk, lk + 1):
            b_tbl = length_transition("boundary", (lk, lm), X, Y, params).as_dict()
            bulk_tbl = length_transition("bulk", (lk, cover_len, lm), X, Y, params).as_dict()
            if b_tbl != bulk_tbl:
                ok = False
    # frozen two-outcome tables at both parities
    q = params.q
    den = 1 - q * X * Y
    ok = ok and length_transition("boundary", (2, 2), X, Y, params).as_dict() == {
        2: (1 - X * Y) / den, 3: (1 - q) * X * Y / den,
    }
    ok = ok and length_transition("boundary", (2, 3), X, Y, params).as_dict() == {3: F(1)}
    ok = ok and length_transition("boundary", (3, 4), X, Y, params).as_dict() == {
        4: (1 - q) / den, 5: q * (1 - X * Y) / den,
    }
    ok = ok and length_transition("boundary", (3, 3), X, Y, params).as_dict() == {4: F(1)}
    record_acceptance(12, "length tables equal the column-0 pushforward, all patterns", ok)


def test_criterion_13_distribution_equality(params):
    t0 = time.time()
    p_values = ds6v.paired_marginals(4, 100_000, 131, params, per_cell_streams=False)
    worst = min(p_values.values())
    elapsed = time.time() - t0
    record_acceptance(
        13,
        f"field lengths vs heights at T=4, 1e5 paired samples: worst p={worst:.4f} > 1e-3 "
        f"({elapsed:.0f}s < 60s)",
        worst > 1e-3 and elapsed < 60,
    )


def test_criterion_14_particle_duality(params):
    # (a) the counting identity holds on every sampled trajectory up to T = 16
    ok = True
    for seed in range(3):
        h = ds6v.ds6v_sample(16, RandomSource(seed, 9), params)
        for t in range(17):
            st = ds6v.particles_from_heights(h, t)
            if st.count() != t - h[(t, t)]:
                ok = False
    # (b) the reference configuration round-trips (with the documented
    #     resolution of its duplicated height label)
    from test_ds6v import FIXTURE_HEIGHTS, FIXTURE_PARTICLES

    vert, _ = ds6v.paths_from_heights(FIXTURE_HEIGHTS)
    ok = ok and ds6v.heights_from_paths(vert, 8) == FIXTURE_HEIGHTS
    for t in range(9):
        if ds6v.particles_from_heights(FIXTURE_HEIGHTS, t).positions != FIXTURE_PARTICLES[t]:
            ok = False
    # (c) rule-based sampler vs height-extracted particles at T = 4
    n = 100_000
    counts_rules = Counter()
    counts_heights = Counter()
    rng = RandomSource(77, 2)
    base_h = RandomSource(77, 3)
    for k in range(n):
        traj = ds6v.particle_trajectory(4, rng, params)
        counts_rules[traj[-1].positions] += 1
        h = ds6v.ds6v_sample(4, base_h.substream(k), params, per_cell_streams=False)
        counts_heights[ds6v.particles_from_heights(h, 4).positions] += 1
    keys = sorted(set(counts_rules) | set(counts_heights))
    table = [[counts_rules[k] for k in keys], [counts_heights[k] for k in keys]]
    pv = float(chi2_contingency(table).pvalue)
    record_acceptance(
        14,
        f"particle duality: N(t)=t-h(t,t); fixture round-trip; rules vs heights p={pv:.4f} > 1e-3",
        ok and pv > 1e-3,
    )
