"""Per-layer micro-benchmarks and exact counters, one section per spinhl module.

Inputs come from the workloads: the mc_small fixture point, the CLI
parameters of grow_large, and outputs sampled at the gate seed.  Timings
are medians of batches (warm unless the name says build or cold), scaled
to the nominal reference speed like every other timing (spec.SpeedSampler);
cold builds get fresh parameters on every call, so no cache can serve
them.  Counters use a counting bit source and repeat exactly.

The "tiny" size runs the same code on smaller inputs under the same
metric names; its numbers only show that the suite runs.
"""

from __future__ import annotations

import itertools
import statistics

import workloads as W
from spec import GATE_SEED, STREAM
from tracing import CountingBits

from spinhl import RandomSource
from spinhl.ds6v import ds6v_sample, heights_to_csv, particle_step
from spinhl.exact import sample_categorical
from spinhl.field import field_to_json, normalization, path_measure, sample_field
from spinhl.identities import cauchy_kernel, det_exact, pfaffian_exact
from spinhl.partitions import enumerate_partitions, even_cover, interlacing_above
from spinhl.sshl import f_one_row, f_skew, g_one_row, tail_weight
from spinhl.transitions import (
    bulk_forward,
    cell_sampler,
    forward_distribution,
    length_patterns,
    p_fwd,
)
from spinhl.weights import INF, L, M, Mstar, R, Rstar


class Micro:
    """Micro-timings on the speed sampler's clock, scaled like every other timing."""

    def __init__(self, sampler):
        self.sampler = sampler

    def per_call(self, fn, budget=0.2, max_batches=60):
        """Median seconds per call of fn() over batches of about 2 ms, after one warm call."""
        clock = self.sampler.clock
        fn()
        t0 = clock()
        fn()
        batch = max(1, int(0.002 / max(clock() - t0, 1e-7)))
        samples = []
        start = clock()
        while len(samples) < 5 or (clock() < start + budget and len(samples) < max_batches):
            t0 = clock()
            for _ in range(batch):
                fn()
            samples.append((clock() - t0) / batch)
        return self.sampler.scaled(statistics.median(samples), start, clock())

    def per_input(self, fn, inputs):
        """Median seconds of fn(x) over inputs, one timed call each (for cold builds)."""
        clock = self.sampler.clock
        samples = []
        start = clock()
        for x in inputs:
            t0 = clock()
            fn(x)
            samples.append(clock() - t0)
        return self.sampler.scaled(statistics.median(samples), start, clock())


SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3}


def sampled(out, T):
    """Cells a growth sampler drew: every site of its output but the pinned column."""
    return len(out) - (T + 1)


def run_all(size, sampler):
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    micro = Micro(sampler)
    T = size["mc_T"]
    p20 = W.fixture_params(size["mc_x"])
    x0, x1, x2 = p20.x[0], p20.x[1], p20.x[2]

    # ---- counts: mc_small, at the gate seed ---------------------------------
    n_mc = 200
    counts = [{"bits": 0, "substreams": 0} for _ in range(3)]
    bases = [CountingBits(RandomSource(GATE_SEED, STREAM[mdl]), c)
             for mdl, c in zip(("field", "ds6v", "particles"), counts)]
    mc_out = None
    cells_mc = 0
    for k in range(n_mc):
        out = W.mc_op(k, p20, bases, T)
        mc_out = mc_out or out
        cells_mc += sampled(out[0], T) + sampled(out[1], T)
    for mdl, c in zip(("field", "ds6v", "particles"), counts):
        put(f"exact.bits_per_sample.{mdl}", c["bits"] / n_mc, "bits")
    put("count.cells_per_op.mc_small", cells_mc / n_mc, "count")
    put("count.substreams_per_op.mc_small",
        sum(c["substreams"] for c in counts) / n_mc, "count")
    put("count.bits_per_op.mc_small", sum(c["bits"] for c in counts) / n_mc, "count")

    # ---- counts: grow_large gate pass (cold; also warms its tables) ---------
    Ts = size["grow_T"]
    gparams = {mdl: W.cli_params(t) for mdl, t in Ts.items()}
    gc = {"bits": 0, "substreams": 0}
    gsrc = {mdl: CountingBits(RandomSource(GATE_SEED, STREAM[mdl]), gc) for mdl in Ts}
    grow, _ = W.grow_op(gsrc, gparams, Ts)
    put("count.cells_per_op.grow_large",
        sampled(grow["ds6v"], Ts["ds6v"]) + sampled(grow["field"], Ts["field"]), "count")
    put("count.substreams_per_op.grow_large", gc["substreams"], "count")
    put("count.bits_per_op.grow_large", gc["bits"], "count")

    # ---- counts: one param_sweep point at the gate seed ---------------------
    sT = size["sweep_T"]
    sc = {"bits": 0, "substreams": 0}
    (sp,) = W.sweep_points(GATE_SEED, 1, max(sT.values()) + 1)
    sout = W.sweep_op(0, sp, GATE_SEED, sT,
                      source=lambda seed, stream: CountingBits(RandomSource(seed, stream), sc))
    put("count.cells_per_op.param_sweep",
        sampled(sout["field"], sT["field"]) + sampled(sout["ds6v"], sT["ds6v"]), "count")
    put("count.substreams_per_op.param_sweep", sc["substreams"], "count")
    put("count.bits_per_op.param_sweep", sc["bits"], "count")

    def warm(name, fn, per=1):
        """Time fn() warm; the unit (ns, us or ms) is read from the metric name."""
        unit = next(u for u in ("ns", "us", "ms") if f"_{u}" in name)
        put(name, SCALE[unit] * micro.per_call(fn) / per, unit)

    def cold(name, fn, inputs, per=1):
        unit = next(u for u in ("ns", "us", "ms") if f"_{u}" in name)
        put(name, SCALE[unit] * micro.per_input(fn, inputs) / per, unit)

    # ---- exact ---------------------------------------------------------------
    nk = itertools.count(1).__next__
    warm("exact.substream_first_bit_us",
         lambda: RandomSource(GATE_SEED, 0).substream(nk()).bit())
    rs = RandomSource(1, 0)
    warm("exact.bit_ns", rs.bit)
    _, law2 = length_patterns(x0, x1, p20)[(0, 0)]
    _, law2b = length_patterns(x1, x2, p20)[(1, 1)]
    law4 = tuple(a * b for a in law2 for b in law2b)
    warm("exact.categorical_draw_us.n2", lambda: sample_categorical(law2, rs))
    warm("exact.categorical_draw_us.n4", lambda: sample_categorical(law4, rs))
    cnt = CountingBits(RandomSource(GATE_SEED, 9))
    n_draws = 4000
    for _ in range(n_draws):
        sample_categorical(law2, cnt)
    put("exact.bits_per_draw", cnt.counts["bits"] / n_draws, "bits")
    p129 = W.cli_params(128)
    warm("exact.require_probabilistic_us.x20", p20.require_probabilistic)
    warm("exact.require_probabilistic_us.x129", p129.require_probabilistic)

    # ---- transitions ----------------------------------------------------------
    y4 = p20.x[4]
    warm("transitions.table_lookup_us",
         lambda: cell_sampler(x0, y4, p20).fwd(INF, INF, 1, 0, 0, 0))
    cold("transitions.p_fwd_build_us",
         lambda p: p_fwd(INF, INF, 1, 0, 0, 0, p.x[0], p.x[1], p),
         W.sweep_points(GATE_SEED + 1, 100, 2))
    cold("transitions.length_patterns_build_us",
         lambda p: length_patterns(p.x[0], p.x[1], p), W.sweep_points(GATE_SEED + 2, 100, 2))
    f4, f48, t48, p48 = mc_out[0], grow["field"], Ts["field"], gparams["field"]
    warm("transitions.bulk_forward_us.T4", lambda: _bulk(f4, T // 2, T, p20, rs))
    warm("transitions.bulk_forward_us.T48", lambda: _bulk(f48, t48 // 2, t48, p48, rs))
    warm("transitions.forward_distribution_ms",
         lambda: forward_distribution((), (1,), (1,), x0, x1, p20, 8))

    # ---- ds6v -------------------------------------------------------------------
    for label, t in zip(("T32", "T64", "T128"), size["layer_ds6v_T"]):
        pt = W.cli_params(t)
        base = RandomSource(GATE_SEED, STREAM["ds6v"])
        ds6v_sample(t, base.substream(0), pt)  # warm the tables
        cold(f"ds6v.cell_us.{label}", lambda r: ds6v_sample(t, r, pt),
             [base.substream(k) for k in range(1, 3 if t >= 100 else 6)], per=W.cells(t))
    half = grow["particles"][Ts["particles"] // 2: -1]
    nk = itertools.count(1).__next__
    warm("ds6v.particle_step_us",
         lambda: particle_step(half[nk() % len(half)], rs, gparams["particles"]))
    warm("ds6v.heights_to_csv_ms", lambda: heights_to_csv(grow["ds6v"]))

    # ---- field --------------------------------------------------------------
    warm("field.cell_us.T4", lambda: sample_field(T, rs, p20, per_cell_streams=False),
         per=W.cells(T))
    fbase = RandomSource(GATE_SEED, STREAM["field"])
    cold("field.cell_us.T48", lambda r: sample_field(t48, r, p48),
         [fbase.substream(k) for k in range(1, 6)], per=W.cells(t48))
    path = [(2, 2), (1, 2), (1, 3), (0, 3)]
    assign = {v: f4[v] for v in path}
    warm("field.path_measure_us", lambda: path_measure(path, assign, p20))
    warm("field.normalization_us", lambda: normalization(path, p20))
    warm("field.to_json_ms", lambda: field_to_json(f48))

    # ---- weights (vertical occupancy 3) -----------------------------------------
    for name, fn in (("L", L), ("M", M), ("Mstar", Mstar)):
        warm(f"weights.{name}_us", lambda fn=fn: fn(3, 1, 3, 1, x0, p20))
    for name, fn in (("R", R), ("Rstar", Rstar)):
        warm(f"weights.{name}_us", lambda fn=fn: fn(1, 0, 1, 0, x0, x1, p20))

    # ---- sshl ---------------------------------------------------------------
    inner, outer = (3, 1), (4, 3, 1)
    warm("sshl.f_one_row_us", lambda: f_one_row(inner, outer, x0, p20))
    warm("sshl.g_one_row_us", lambda: g_one_row(inner, outer, x0, p20))
    warm("sshl.tail_weight_us", lambda: tail_weight((3, 3, 1), x0, p20))
    top = size["skew_top"]
    cold("sshl.f_skew_cold_ms", lambda p: f_skew((), (top, top // 2), (p.x[0], p.x[2]), p),
         W.sweep_points(GATE_SEED + 3, 5, 4))

    # ---- partitions ---------------------------------------------------------------
    warm("partitions.enumerate_cap25_n2_ms", lambda: enumerate_partitions(top, 2))
    warm("partitions.interlacing_above_us", lambda: interlacing_above((3, 1), cap_part=6))
    warm("partitions.even_cover_us", lambda: even_cover((5, 3, 2, 1)))

    # ---- identities: 4x4 exact kernels on fixture values ---------------------------
    xs, ys = p20.x[0:4], p20.x[4:8]
    kern = [[cauchy_kernel(a, b, p20) for b in ys] for a in xs]
    anti = [[(a - b) / (1 - a * b) for b in xs] for a in xs]
    warm("identities.det_exact_4x4_us", lambda: det_exact(kern))
    warm("identities.pfaffian_exact_4x4_us", lambda: pfaffian_exact(anti))
    return {"metrics": m, "ref_s": statistics.median(sampler.took)}


def _bulk(field, i, j, params, rng):
    """bulk_forward at cell (i, j) of a sampled field, with that cell's own inputs."""
    return bulk_forward(field[(i - 1, j - 1)], field[(i, j - 1)], field[(i - 1, j)],
                        params.spectral(i - 1), params.spectral(j), rng, params)

