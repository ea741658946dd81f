"""A tour of the exact identity suite.

Everything in this package is a plain Fraction, so the identities below
are checked by literal equality of reduced rationals - no tolerances.
Run:  python demos/identity_tour.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fractions import Fraction as F

from spinhl.exact import ModelParams
from spinhl.identities import (
    check_cauchy_closed_form,
    check_intertwining,
    check_refined_cauchy,
    check_refined_littlewood,
    check_skew_cauchy,
    check_skew_littlewood,
    intertwining_sides,
)

params = ModelParams.make("1/3", "-1/2", "1/2", [f"1/{i + 4}" for i in range(8)])
x, y = params.x[0], params.x[1]

# --- the exchange relation, one labelled instance -------------------------
# Both sides are finite sums of three-vertex products; the middle occupancy
# is pinned by conservation.  Here is a single case, then the full sweep.
lhs, rhs = intertwining_sides(2, 1, 1, 0, 1, 1, x, y, params)
print("one exchange-relation case:", lhs, "=", rhs, "->", lhs == rhs)

report = check_intertwining(params, x, y, max_occ=6)
print("full sweep (I,J <= 6, all 16 boundary labellings):", report.passed)

# --- the one-variable Cauchy identity, resummed exactly --------------------
# The column-transfer kernel sums f_lam(x) g_lam(y) over every lam exactly
# (its cap -> infinity limit), so the identity becomes rational equality.
rep = check_cauchy_closed_form(x, y, params)
print("Cauchy closed form:", rep.lhs, "=", rep.rhs, "->", rep.passed)

# --- truncated identities carry exact tails --------------------------------
# The skew Cauchy sum over the outer partition is truncated by largest
# part; the dropped mass is exact (the infinite sum minus the partial sum),
# so `passed` means |lhs - rhs| <= tail_bound as rationals.  Both identities
# take any number of variables: one x and one y here, then two x's.
rep = check_skew_cauchy((2, 1), (1, 1), (x,), (y,), 30, params)
print("skew Cauchy (2,1)/(1,1):", rep.passed,
      " |lhs-rhs| =", float(abs(rep.lhs - rep.rhs)), " tail =", float(rep.tail_bound))
rep = check_skew_cauchy((2, 1), (1,), (x, params.x[2]), (y,), 20, params)
print("skew Cauchy (2,1)/(1) in two x's and one y:", rep.passed,
      " tail =", float(rep.tail_bound))

# The conjugate-even (Littlewood) sum collapses to a single term per side
# when there is one variable - that case is exact, no truncation at all.
rep = check_skew_littlewood((4, 4, 4, 3, 2, 2, 1), (x,), 0, params)
print("one-variable Littlewood sandwich:", rep.lhs == rep.rhs)
rep = check_skew_littlewood((2, 1), params.x[:3], 20, params)
print("skew Littlewood (2,1) in three variables:", rep.passed,
      " tail =", float(rep.tail_bound))

# --- refined identities: determinant and Pfaffian closed forms -------------
rep = check_refined_cauchy((params.x[0], params.x[2]), (params.x[1], params.x[3]),
                           F(1, 2), 25, params)
print("refined Cauchy n=2:", rep.passed, " tail =", float(rep.tail_bound))

rep = check_refined_littlewood((x, y), F(1, 2), 25, params)
print("refined Littlewood 2n=2:", rep.passed, " rhs =", rep.rhs)
