"""The half-space random field of partitions and its zigzag-path marginals.

The field lives on lattice points (i, j) with 0 <= i <= j <= T.  Column
i = 0 is pinned to the empty partition; everything else is grown along
anti-diagonals by the forward transition operators: bulk moves strictly
above the diagonal, boundary moves on it.  Edge (i,j) -> (i+1,j) carries
the spectral parameter x_i, edge (i,j-1) -> (i,j) carries x_j, and the
diagonal step into (n,n) carries x_n; hence the cell at (i,j) mixes
(x_{i-1}, x_j).

The joint law along a caudate zigzag path (an up-left path from a diagonal
anchor (n,n) to the column i = 0) factorizes into one-row f/g weights plus
the diagonal tail weight; ``path_measure`` evaluates that product and
``normalization`` computes its partition function, the product of one
Cauchy kernel factor per cell between the path and the column i = 0
(what contracting the path corner by corner gives).
"""

from __future__ import annotations

import json

from .exact import (CellBits, InvalidParams, InvalidPath, ONE, ZERO, check_lattice,
                    half_quadrant)
from .identities import _kernel_product
from .partitions import interlaces, is_partition
from .sshl import f_one_row, g_one_row, tail_weight
from .transitions import boundary_forward, bulk_forward, sweep


def sample_field(T, rng, params, per_cell_streams=True):
    """Sample the half-space field up to level T; returns {(i, j): partition}.

    With per_cell_streams (the default) each cell draws from its own
    deterministic substream of `rng`, so the result depends only on
    (seed, stream, T) and not on evaluation order; per_cell_streams=False
    draws sequentially in sweep order, which is faster for Monte Carlo.
    A RandomSource gives each cell the first word of its substream
    (transitions.sweep), which the cell's draws read through
    exact.CellBits; a cell whose draws need more than that word's 63 bits
    reads on in the substream itself, so every bit is the substream's.
    """
    cells = sweep(T, rng, params, per_cell_streams)  # checks T and params first
    field = {(0, j): () for j in range(T + 1)}
    for i, j, cell_rng in cells:
        if type(cell_rng) is int:
            cell_rng = CellBits(cell_rng, rng, i, j)
        x, y = params.spectral(i - 1), params.spectral(j)
        if i < j:
            field[(i, j)] = bulk_forward(
                field[(i - 1, j - 1)], field[(i, j - 1)], field[(i - 1, j)],
                x, y, cell_rng, params,
            )
        else:
            field[(i, i)] = boundary_forward(
                field[(i - 1, i - 1)], field[(i - 1, i)], x, y, cell_rng, params,
            )
    return field


def check_field_invariants(field):
    """Partitions, the empty pinned column and interlacing both ways, then one lattice.

    True, or ValueError naming the first bad cell (exact.check_lattice's
    rule for the lattice, as in ds6v.check_heights).
    """
    for c, lam in field.items():
        if not is_partition(lam):
            raise ValueError(f"not a partition at {c}: {lam}")
    for (i, j), lam in field.items():
        if i == 0 and lam != ():
            raise ValueError(f"boundary column not empty at {(i, j)}")
        if (i, j + 1) in field and not interlaces(lam, field[(i, j + 1)]):
            raise ValueError(f"vertical interlacing fails at {(i, j)}")
        if (i + 1, j) in field and not interlaces(lam, field[(i + 1, j)]):
            raise ValueError(f"horizontal interlacing fails at {(i, j)}")
    check_lattice(field, ValueError)
    return True


def field_to_json(field):
    cells = [
        {"i": i, "j": j, "parts": list(lam)}
        for (i, j), lam in sorted(field.items())
    ]
    return json.dumps({"cells": cells}, indent=0)


def field_from_json(text):
    """The field written by field_to_json; InvalidParams names a bad line or cell.

    The cells must be those of one lattice 0 <= i <= j <= T, each once (see
    exact.half_quadrant); the partitions themselves are not checked
    (check_field_invariants does that).
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParams(f"bad field JSON on line {exc.lineno}: {exc.msg}") from None
    cells = data.get("cells") if isinstance(data, dict) else None
    if not isinstance(cells, list):
        raise InvalidParams('bad field JSON: expected an object with a "cells" list')
    entries = []
    for n, c in enumerate(cells):
        parts = c.get("parts") if isinstance(c, dict) else None
        if not isinstance(parts, list) or any(
                type(v) is not int for v in (c.get("i"), c.get("j"), *parts)):
            raise InvalidParams(f"bad field JSON cell {n}: expected integers i, j and a list "
                                f"of integer parts, got {json.dumps(c)}")
        entries.append((f"cell {n}", (c["i"], c["j"]), tuple(parts)))
    return half_quadrant(entries, InvalidParams)


# ---------------------------------------------------------------------------
# caudate zigzag paths
# ---------------------------------------------------------------------------

def validate_path(vertices):
    """A caudate zigzag path: starts on the diagonal, steps -e1 or +e2, ends at i = 0."""
    vs = [tuple(v) for v in vertices]
    if not vs:
        raise InvalidPath("empty path")
    n, j0 = vs[0]
    if n != j0 or n < 0:
        raise InvalidPath(f"path must start on the diagonal, got {vs[0]}")
    for (a, b), (c, d) in zip(vs, vs[1:]):
        if not (0 <= a <= b):
            raise InvalidPath(f"vertex {(a, b)} outside the half-space")
        step = (c - a, d - b)
        if step not in ((-1, 0), (0, 1)):
            raise InvalidPath(f"illegal step {step} at {(a, b)}")
    if vs[-1][0] != 0:
        raise InvalidPath(f"path must end on the column i = 0, got {vs[-1]}")
    return vs


def path_measure(vertices, assignments, params, normalize=True):
    """Probability weight of the given partitions along a caudate zigzag path.

    `assignments` maps each path vertex to a partition (the endpoint at
    i = 0 must carry the empty one).  The weight is the diagonal tail
    weight at the anchor times g factors on +e2 steps (variable x_{j+1})
    and f factors on -e1 steps (variable x_{i-1}), divided by the
    contraction normalization unless normalize=False.
    """
    vs = validate_path(vertices)
    lam = {tuple(k): tuple(v) for k, v in assignments.items()}
    missing = [v for v in vs if v not in lam]
    if missing:
        raise InvalidPath(f"no partition assigned at {missing[0]}")
    if lam[vs[-1]] != ():
        raise InvalidPath("the i = 0 endpoint must carry the empty partition")
    n = vs[0][0]
    w = tail_weight(lam[vs[0]], params.spectral(n), params) if n > 0 else (
        ONE if lam[vs[0]] == () else ZERO
    )
    for (a, b), (c, d) in zip(vs, vs[1:]):
        cur, nxt = lam[(a, b)], lam[(c, d)]
        if c == a - 1:  # -e1 step: the partition shrinks; f factor on edge x_{a-1}
            w *= f_one_row(nxt, cur, params.spectral(c), params)
        else:  # +e2 step: the partition grows; g factor on edge x_{b+1}
            w *= g_one_row(cur, nxt, params.spectral(d), params)
        if w == 0:
            return ZERO
    if normalize:
        w /= normalization(vertices, params)
    return w


def normalization(vertices, params):
    """Partition function of a caudate zigzag path: a product of Cauchy kernels.

    Contracting the path corner by corner gives one kernel Pi(x_{a-1}; x_b)
    for each cell (a, b) it sweeps: an up-then-left corner at (a, b)
    retracts to (a-1, b-1), and a left step off the diagonal anchor (n, n)
    retracts the anchor to (n-1, n-1).  In any order of moves (tested) the
    swept cells are those between the path and the column i = 0: the
    triangle 1 <= a <= b <= n under the anchor and, for each up-step into
    row b at column a, the cells (1..a, b).  The all-vertical path on
    column 0 has partition function one.  The spectral pairs are read
    cell by cell as the product reaches them, so a missing x_i raises
    where it is first needed.
    """
    vs = validate_path(vertices)
    n = vs[0][0]
    cells = [(a, b) for b in range(1, n + 1) for a in range(1, b + 1)]
    cells += [(a, d) for (_, b), (c, d) in zip(vs, vs[1:]) if d == b + 1 for a in range(1, c + 1)]
    return _kernel_product(((params.spectral(a - 1), params.spectral(b)) for a, b in cells),
                           params)
