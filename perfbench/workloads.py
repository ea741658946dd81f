"""Workload inputs, operations and output checks.

Every input is generated here from the run's seed; spinhl only ever
receives the resulting ``ModelParams`` and ``RandomSource`` objects.
Outputs are checked by spinhl's own invariant checkers, by the
height/particle duality N(t) = t - h(t, t), and, for the fixed-seed gate
outputs, by SHA-256 digests pinned in ``digests.json``.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from fractions import Fraction

from spinhl import ModelParams, RandomSource
from spinhl.ds6v import (
    check_heights,
    ds6v_sample,
    heights_to_csv,
    particle_trajectory,
    particles_from_heights,
    particles_to_csv,
)
from spinhl.exact import default_spectral
from spinhl.field import check_field_invariants, field_to_json, sample_field

from spec import STREAM, CheckFailed



# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def fixture_params(n):
    """The fixture point q=1/3, s=-1/2, u=1/2, x_i = 1/(i+4), with n spectral values."""
    return ModelParams.make("1/3", "-1/2", "1/2", [Fraction(1, i + 4) for i in range(n)])


def cli_params(T):
    """The parameters `spinhl` uses without a config: fixture q, s, u; default_spectral(T+1)."""
    return ModelParams.make("1/3", "-1/2", "1/2", default_spectral(max(T + 1, 4)))


def sweep_points(seed, n, xlen):
    """n parameter points with pairwise distinct (q, s) and jittered spectral values.

    Distinct (q, s) means no table or cell-sampler key repeats between
    points, so every table the sweep uses is built cold.  The x_i stay
    within 20 % of the fixture's 1/(i+4), which keeps the cost per point
    close to the fixture's.
    """
    rnd = random.Random(seed)
    seen = set()
    points = []
    while len(points) < n:
        q = Fraction(rnd.randrange(20, 51), 100)
        s = -Fraction(rnd.randrange(30, 61), 100)
        if (q, s) in seen:
            continue
        seen.add((q, s))
        xs = [Fraction(rnd.randrange(80, 121), 100 * (i + 4)) for i in range(xlen)]
        points.append(ModelParams(q, s, Fraction(1, 2), tuple(xs)))
    return points


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_field(field, T):
    check_field_invariants(field)
    if len(field) != (T + 1) * (T + 2) // 2:
        raise CheckFailed(f"field has {len(field)} sites, expected {(T + 1) * (T + 2) // 2}")


def check_height_field(h, T):
    """Height invariants plus the particle duality N(t) = t - h(t, t) at every t."""
    check_heights(h)
    if len(h) != (T + 1) * (T + 2) // 2:
        raise CheckFailed(f"height field has {len(h)} sites")
    for t in range(1, T + 1):
        n = particles_from_heights(h, t).count()
        if n != t - h[(t, t)]:
            raise CheckFailed(f"N({t}) = {n} but t - h(t,t) = {t - h[(t, t)]}")


def check_trajectory(states, T):
    if len(states) != T + 1:
        raise CheckFailed(f"trajectory has {len(states)} states, expected {T + 1}")
    for t, st in enumerate(states):
        pos = st.positions
        if st.t != t or any(a <= b for a, b in zip(pos, pos[1:])) or (
            pos and not (1 <= pos[-1] and pos[0] <= t)
        ):
            raise CheckFailed(f"bad particle state at t={t}: {pos}")
        if st.current(1) != st.count():
            raise CheckFailed(f"N_1({t}) != N({t})")


def cells(T):
    """Lattice cells a growth sampler draws at level T (the pinned column excluded)."""
    return T * (T + 1) // 2


# ---------------------------------------------------------------------------
# operations; `tr` is a Tracer or None
# ---------------------------------------------------------------------------

def _span(tr, name, k):
    return tr.span(name, k) if tr is not None else nullcontext()


def mc_op(k, params, bases, T, tr=None):
    """One mc_small iteration: substream k of each base source, sequential draws inside."""
    with _span(tr, "exact", k):
        rf, rh, rp = bases[0].substream(k), bases[1].substream(k), bases[2].substream(k)
    with _span(tr, "field", k):
        field = sample_field(T, rf, params, per_cell_streams=False)
    with _span(tr, "ds6v", k):
        h = ds6v_sample(T, rh, params, per_cell_streams=False)
    with _span(tr, "ds6v", k):
        states = particle_trajectory(T, rp, params)
    return field, h, states


def mc_bases(seed):
    return [RandomSource(seed, STREAM[m]) for m in ("field", "ds6v", "particles")]


def check_mc(out, T):
    field, h, states = out
    check_field(field, T)
    check_height_field(h, T)
    check_trajectory(states, T)


def mc_text(out):
    field, h, states = out
    return field_to_json(field) + heights_to_csv(h) + particles_to_csv(states)


def grow_op(sources, params, Ts, tr=None, k=None, clock=time.perf_counter):
    """One grow_large iteration; returns ({model: output}, {model: (seconds, start, end)})."""
    out, times = {}, {}
    for model, fn, layer in (
        ("ds6v", ds6v_sample, "ds6v"),
        ("field", sample_field, "field"),
        ("particles", particle_trajectory, "ds6v"),
    ):
        t0 = clock()
        with _span(tr, layer, k):
            out[model] = fn(Ts[model], sources[model], params[model])
        t1 = clock()
        times[model] = (t1 - t0, t0, t1)
    return out, times


def output_texts(out):
    """The field, ds6v and particles outputs as the CLI writes them to its files."""
    return {
        "field": field_to_json(out["field"]) + "\n",
        "ds6v": heights_to_csv(out["ds6v"]),
        "particles": particles_to_csv(out["particles"]),
    }


def check_outputs(out, Ts):
    """Invariants of one field, height field and particle trajectory."""
    check_height_field(out["ds6v"], Ts["ds6v"])
    check_field(out["field"], Ts["field"])
    check_trajectory(out["particles"], Ts["particles"])


def sweep_op(idx, params, seed, Ts, tr=None, source=RandomSource):
    """One param_sweep point: field, ds6v and particles at fresh parameters."""
    out = {}
    with _span(tr, "field", idx):
        out["field"] = sample_field(
            Ts["field"], source(seed, STREAM["field"]).substream(idx), params)
    with _span(tr, "ds6v", idx):
        out["ds6v"] = ds6v_sample(
            Ts["ds6v"], source(seed, STREAM["ds6v"]).substream(idx), params)
    with _span(tr, "ds6v", idx):
        out["particles"] = particle_trajectory(
            Ts["particles"], source(seed, STREAM["particles"]).substream(idx), params)
    return out
