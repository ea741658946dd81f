"""Measurement loops that run inside a worker child, one function per workload.

Each role sets its workload up, prints READY, and (unless it is a set-up
probe) measures closed-loop: one operation at a time, timed on the speed
sampler's clock, with output checks outside the timed region.
"""

from __future__ import annotations

import os
import resource
import statistics

import workloads as W
from spec import GATE_SEED, STREAM, check_digest, load_digests
from tracing import Tracer

from spinhl import RandomSource

OUT_DIR = ".perfbench_out"


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Closed-loop runner and failure counter for one worker."""

    def __init__(self, sampler, ready):
        self.sampler = sampler
        self.ready = ready
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, exc):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def gate(self, fn):
        """Run a set-up gate (warm-up outputs against digests); counts as one op."""
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # any failure is reported, not raised
            self.fail(exc)

    def run(self, op, check, seconds=0.0, count=None, start_k=0):
        """Run op(k) for `seconds` (at least once), or exactly `count` times.

        Returns ([(seconds, start, end) per op], next k).
        """
        clock = self.sampler.clock
        timings = []
        k = start_k
        deadline = clock() + seconds
        while (k - start_k < count if count is not None
               else not timings or clock() < deadline):
            self.attempted += 1
            try:
                t0 = clock()
                out = op(k)
                t1 = clock()
                timings.append((t1 - t0, t0, t1))
                check(out)
            except Exception as exc:  # counted in error_rate
                self.fail(exc)
            k += 1
        return timings, k

    def scaled(self, timings):
        return [self.sampler.scaled(*t) for t in timings]

    def result(self, **extra):
        took = self.sampler.took
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors,
                "ref_s": statistics.median(took) if took else None, **extra}


def _self_ms_per_op(tr, loop, timings):
    """Span self times per op, scaled by the speed factor over the traced ops."""
    factor = loop.sampler.factor(timings[0][1], timings[-1][2]) if timings else 1.0
    return {name: 1e3 * s * factor / max(len(timings), 1)
            for name, s in tr.self_times().items()}


def _measure(loop, op, check, args, name):
    """The untraced pass and, with --trace 1, a traced pass of equal length."""
    seconds = args.seconds / 2 if args.trace else args.seconds
    timings, k = loop.run(lambda k: op(k, None), check, seconds)
    res = {"op_s": loop.scaled(timings), "raw_op_s": [t[0] for t in timings]}
    if args.trace:
        tr = Tracer(loop.sampler.clock)
        traced, _ = loop.run(lambda k: op(k, tr), check, seconds, start_k=k)
        res.update(traced_op_s=loop.scaled(traced),
                   self_ms_per_op=_self_ms_per_op(tr, loop, traced))
        tr.write(os.path.join(OUT_DIR, f"spans-{name}-{args.seed}.json"))
    return res


def mc_small(args, size, loop, measure):
    T = size["mc_T"]
    params = W.fixture_params(size["mc_x"])
    digests = load_digests(args.size)

    def warm():
        gate = W.mc_bases(GATE_SEED)
        texts = []
        for k in range(size["mc_warmup"]):
            out = W.mc_op(k, params, gate, T)
            W.check_mc(out, T)
            if k < 20:
                texts.append(W.mc_text(out))
        check_digest("mc_small", "".join(texts), digests)

    loop.gate(warm)
    loop.ready()
    if not measure:
        return None
    bases = W.mc_bases(args.seed)
    return _measure(loop, lambda k, tr: W.mc_op(k, params, bases, T, tr),
                    lambda out: W.check_mc(out, T), args, "mc_small")


def grow_large(args, size, loop, measure):
    Ts = size["grow_T"]
    params = {m: W.cli_params(T) for m, T in Ts.items()}
    digests = load_digests(args.size)

    def warm():
        # first, cold pass at the CLI's stream ids and seed: the digest gate
        gate = {m: RandomSource(GATE_SEED, STREAM[m]) for m in Ts}
        out, _ = W.grow_op(gate, params, Ts)
        W.check_outputs(out, Ts)
        for m, text in W.output_texts(out).items():
            check_digest(f"grow.{m}", text, digests)

    loop.gate(warm)
    loop.ready()
    if not measure:
        return None
    parts = {m: [] for m in Ts}

    def op(k, tr):
        sources = {m: RandomSource(args.seed, STREAM[m]).substream(k) for m in Ts}
        out, times = W.grow_op(sources, params, Ts, tr, k, loop.sampler.clock)
        if tr is None:
            for m, t in times.items():
                parts[m].append(loop.sampler.scaled(*t))
        return out

    res = _measure(loop, op, lambda out: W.check_outputs(out, Ts), args, "grow_large")
    res["parts_s"] = parts
    return res


def param_sweep(args, size, loop, measure):
    """One sweep pass: every point once, traced when --trace 1."""
    Ts = size["sweep_T"]
    xlen = max(Ts.values()) + 1
    points = W.sweep_points(args.seed, size["sweep_points"], xlen)
    digests = load_digests(args.size)

    def gate_point():
        (p,) = W.sweep_points(GATE_SEED, 1, xlen)
        out = W.sweep_op(0, p, GATE_SEED, Ts)
        text = "".join(W.output_texts(out).values())
        check_digest("param_sweep", text, digests)

    loop.gate(gate_point)
    loop.ready()
    if not measure:
        return None
    tr = Tracer(loop.sampler.clock) if args.trace else None
    rss0 = rss_mb()
    timings, _ = loop.run(lambda idx: W.sweep_op(idx, points[idx], args.seed, Ts, tr),
                          lambda out: W.check_outputs(out, Ts), count=len(points))
    res = {"op_s": loop.scaled(timings), "raw_op_s": [t[0] for t in timings],
           "rss_growth_mb": rss_mb() - rss0}
    if tr is not None:
        res["self_ms_per_op"] = _self_ms_per_op(tr, loop, timings)
        tr.write(os.path.join(OUT_DIR, f"spans-param_sweep-{args.seed}.json"))
    return res


def verify_cold(args, size, loop, measure):
    """`spinhl verify` once, through spinhl.cli.main, in this fresh interpreter.

    Set-up is the CLI's import.  With --trace 1 every identity check gets a
    span (run_suite looks the check functions up in the module at call time).
    """
    from spinhl import cli, identities

    loop.ready()
    if not measure:
        return None
    tr = Tracer(loop.sampler.clock) if args.trace else None
    if tr is not None:
        def wrap(fn, name):
            def traced(*a, **kw):
                with tr.span(name):
                    return fn(*a, **kw)
            return traced

        for attr in dir(identities):
            if attr.startswith("check_") and callable(getattr(identities, attr)):
                name = "identities." + attr[len("check_"):].replace("_", "-")
                setattr(identities, attr, wrap(getattr(identities, attr), name))
    path = os.path.join(OUT_DIR, f"verify-{args.seed}-{os.getpid()}.jsonl")
    clock = loop.sampler.clock
    t0 = clock()
    try:
        rc = cli.main(["verify", *size["verify_args"], "--out", path])
    except Exception as exc:  # the parent's report gate counts the failure
        loop.errors.append(f"{type(exc).__name__}: {exc}")
        rc = None
    t1 = clock()
    text = ""
    if os.path.exists(path):
        with open(path) as fh:
            text = fh.read()
    factor = loop.sampler.factor(t0, t1)
    res = {"op_s": [(t1 - t0) * factor], "raw_op_s": [t1 - t0], "factor": factor,
           "rc": rc, "jsonl": text}
    if tr is not None:
        res["self_s"] = tr.self_times()
        tr.write(os.path.join(OUT_DIR, f"spans-verify_cold-{args.seed}.json"))
    return res


ROLES = {f.__name__: f for f in (mc_small, grow_large, param_sweep, verify_cold)}
