"""The dynamic six-vertex height field in the half-quadrant.

Heights h(i, j) grow by 0/1 steps in both directions, with the diagonal
behaviour switching on the parity of the previous diagonal value.  The
field is in exact distributional agreement with the lengths of the
half-space partition field (see demos/field_growth.py), which the compare
subcommand of the CLI tests.

Run:  python demos/height_model.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fractions import Fraction

from spinhl.exact import ModelParams, RandomSource
from spinhl.ds6v import check_heights, ds6v_sample, heights_from_paths, paths_from_heights
from spinhl.transitions import compiled

# livelier spectral values make growth visible at small sizes
params = ModelParams.make("1/2", "-1/2", "1/2", [f"6/{10 + i}" for i in range(14)])

# --- jump coefficients -------------------------------------------------------
# Every vertex (i, j) carries two exact rationals: b (keep going up) and
# c (keep going right); the diagonal uses them keyed on parity.
# compiled(params).jumps(j) holds them for the cells (1, j) .. (j, j) as
# integer triples (b, c, den).
for i, j in [(1, 1), (1, 2), (2, 3)]:
    b, c, den = compiled(params).jumps(j)[i - 1]
    print(f"b{(i, j)} = {Fraction(b, den)}   c{(i, j)} = {Fraction(c, den)}")

# --- a sampled height triangle ------------------------------------------------
h = ds6v_sample(12, RandomSource(seed=5, stream=1), params)
check_heights(h)
print("\nheight triangle (row j printed bottom-up):")
for j in range(12, -1, -1):
    print("  " + " ".join(str(h[(i, j)]) for i in range(0, j + 1)))

# --- heights <-> paths round trip ----------------------------------------------
# A height field encodes an up-right path ensemble: the vertical edge at
# column i above row j is occupied exactly when the height steps up there.
vert, horiz = paths_from_heights(h)
assert heights_from_paths(vert, 12) == h
print("\noccupied vertical edges:", len(vert), " horizontal:", len(horiz))
print("round trip heights -> paths -> heights: ok")
