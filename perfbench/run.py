#!/usr/bin/env python3
"""The spinhl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a spinhl checkout.  One closed-loop client: every
operation starts after the previous one ends, and only one child
interpreter runs at a time (single process, single thread).  The children
(perfbench/worker.py) drive spinhl through its public functions and, for
verify_cold, through ``spinhl.cli.main``, the `spinhl` entry point, with
``src`` on PYTHONPATH, so the checkout's own sources are measured.

Workloads (why each exists is in BENCHMARK.json):

  mc_small     fixture point, T=4: one sample_field + ds6v_sample +
               particle_trajectory per iteration, sequential draws
  grow_large   ds6v_sample(128) + sample_field(48) + particle_trajectory(256)
               per iteration, per-cell streams, warm tables
  verify_cold  `spinhl verify --point 0 --cap 20`, one fresh interpreter each
  param_sweep  60 fresh parameter points per fresh interpreter, cold tables

End-to-end metrics (every workload; an "op" is one iteration above, one
verify, or one sweep point):

  setup_s      median over several set-ups of spawn-to-ready: interpreter,
               imports, inputs and warm-up (for verify_cold: the CLI's import)
  op_p50_ms    median time of one op
  ops_per_s    ops completed per second of op time
  peak_rss_mb  largest resident set of any child

Times are scaled to a nominal interpreter speed measured while they run
(spec.SpeedSampler); raw times are in the report line.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics.  The line before it is a JSON
report with the environment, every workload-specific metric and, when
traced, the per-layer self times and the tracing overhead.  Exit code 0
unless the checkout is missing or a child cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spec import SIZES, CheckFailed, check_digest, load_digests  # noqa: E402

WORKLOADS = ("mc_small", "grow_large", "verify_cold", "param_sweep")
OUT_DIR = ".perfbench_out"
# How many times each workload is set up in one run; setup_s is their median.
SETUPS = {"mc_small": 9, "grow_large": 3, "verify_cold": 9, "param_sweep": 5}
# run_suite's checks; each gets one span in the traced verify.
CHECKS = (
    "intertwining", "intertwining-star", "reflection", "r-stochastic",
    "cauchy-closed-form", "skew-cauchy", "skew-littlewood", "refined-cauchy",
    "refined-littlewood",
)
RUN_LIMIT_S = 170  # every child is killed past this point of the run


@dataclass
class Timings:
    """What a workload runner measured; ops, setups and traced are reference-scaled seconds."""

    ops: list
    raw_ops: list
    setups: list
    ref_s: float
    rss: float | None
    traced: list | None
    self_ms: dict | None


class ChildFailed(Exception):
    """A child interpreter crashed, timed out or printed no result."""


def percentile(values, p):
    xs = sorted(values)
    idx = max(0, min(len(xs) - 1, int(-(-p * len(xs) // 100)) - 1))
    return xs[idx]


class Bench:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.size = SIZES[args.size]
        self.digests = load_digests(args.size)
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.detail = {}
        self.layer = {}
        self.checks_failed = 0

    # -- bookkeeping -------------------------------------------------------
    def fail(self, msg):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(msg)

    def put(self, table, name, value, unit):
        table[name] = {"value": value, "unit": unit}

    def absorb(self, res):
        """Fold a worker's attempted/failed counts into the run's."""
        self.attempted += res.get("attempted", 0)
        self.failed += res.get("failed", 0)
        self.errors.extend(res.get("errors", [])[: max(0, 10 - len(self.errors))])

    # -- children ------------------------------------------------------------
    def spawn(self, argv):
        """Run one child interpreter to completion.

        Returns (stdout lines, return code, set-up seconds): the
        set-up time runs from spawn to the child's READY line, scaled by the
        speed factor the child printed there (None without a READY line).
        """
        log = os.path.join(OUT_DIR, "children.log")
        t0 = time.monotonic()
        with open(log, "a") as err:
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err, text=True)
            try:
                out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise ChildFailed(f"{argv[:2]} timed out")
        lines = out.splitlines()
        setup = None
        for ln in lines:
            if ln.startswith("READY "):
                _, at, factor = ln.split()
                setup = (float(at) - t0) * float(factor)
        return lines, proc.returncode, setup

    def worker(self, role, workload=None, trace=0):
        """Run perfbench/worker.py; returns (parsed result or None, set-up seconds)."""
        argv = [os.path.join(HERE, "worker.py"), role,
                "--workload", workload or self.args.workload,
                "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
                "--trace", str(trace), "--size", self.args.size]
        lines, rc, setup = self.spawn(argv)
        if rc != 0 or (role != "setup" and not lines):
            raise ChildFailed(f"worker {role} exited {rc}; see {OUT_DIR}/children.log")
        return (json.loads(lines[-1]) if role != "setup" else None), setup

    def setup_probes(self, n, samples):
        """Add set-up probes until there are n set-up samples."""
        while len(samples) < n:
            samples.append(self.worker("setup")[1])
        return samples

    def gate_verify(self, text, rc):
        """Every report passed, exit 0, and the JSON lines match the pinned digest."""
        self.attempted += 1
        reports = [json.loads(ln) for ln in text.splitlines() if ln.strip()]
        bad = sum(1 for r in reports if not r.get("passed"))
        self.checks_failed += bad
        try:
            if rc != 0 or bad:
                raise CheckFailed(f"verify exited {rc} with {bad} failed checks")
            check_digest("verify", text, self.digests)
        except CheckFailed as exc:
            self.fail(str(exc))

    # -- workloads ------------------------------------------------------------
    def timing(self, prefix, values, unit_scale, unit, what):
        """Median, p99 when at least ten samples lie beyond it, and the sample count."""
        self.put(self.detail, f"{prefix}_p50_{unit}", unit_scale * statistics.median(values),
                 unit)
        if len(values) >= 1000:
            self.put(self.detail, f"{prefix}_p99_{unit}",
                     unit_scale * percentile(values, 99), unit)
        self.put(self.detail, f"{prefix}_count", len(values), what)

    def in_process(self):
        """mc_small and grow_large: one long-lived worker after the set-up probes."""
        setups = self.setup_probes(SETUPS[self.args.workload] - 1, [])
        res, setup = self.worker("run", trace=self.args.trace)
        setups.append(setup)
        self.absorb(res)
        ops = res["op_s"]
        if self.args.workload == "mc_small":
            self.put(self.detail, "mc.samples_per_s", len(ops) / sum(ops), "1/s")
            self.timing("mc.sample", ops, 1e6, "us", "samples")
        else:
            T = self.size["grow_T"]
            for m in ("ds6v", "field", "particles"):
                self.put(self.detail, f"grow.{m}_T{T[m]}_s",
                         statistics.median(res["parts_s"][m]), "s")
        return Timings(ops, res["raw_op_s"], setups, res["ref_s"], res["peak_rss_mb"],
                       res.get("traced_op_s"), res.get("self_ms_per_op"))

    def fresh_workers(self, on_result):
        """param_sweep and verify_cold: one fresh worker per pass until the time is up.

        With --trace 1 every second pass is traced.
        """
        ops, raw, traced, setups, refs, rss, self_ms = [], [], [], [], [], 0.0, {}
        end = time.monotonic() + self.args.seconds
        i = 0
        while not ops or time.monotonic() < end or (self.args.trace and not traced):
            trace = self.args.trace and i % 2 == 1
            res, setup = self.worker("run", trace=int(trace))
            self.absorb(res)
            on_result(res, trace)
            setups.append(setup)
            refs.append(res["ref_s"])
            rss = max(rss, res["peak_rss_mb"])
            if trace:
                traced.extend(res["op_s"])
                self_ms = res.get("self_ms_per_op")
            else:
                ops.extend(res["op_s"])
                raw.extend(res["raw_op_s"])
            i += 1
        self.setup_probes(SETUPS[self.args.workload], setups)
        return Timings(ops, raw, setups, statistics.median(refs), rss, traced or None, self_ms)

    def sweep(self):
        """param_sweep: fresh interpreters, each sweeping every point once."""
        growth = []

        def on_result(res, traced):
            if not traced:
                growth.append(res["rss_growth_mb"])

        t = self.fresh_workers(on_result)
        self.put(self.detail, "sweep.points_per_s", len(t.ops) / sum(t.ops), "1/s")
        self.put(self.detail, "sweep.rss_growth_mb", statistics.median(growth), "MB")
        self.timing("sweep.point", t.ops, 1e3, "ms", "points")
        return t

    def verify(self):
        """verify_cold: `spinhl verify` once per fresh interpreter."""
        def on_result(res, traced):
            self.gate_verify(res["jsonl"], res["rc"])
            if traced:
                self.verify_spans(res)

        t = self.fresh_workers(on_result)
        self.put(self.detail, "verify.wall_s", statistics.median(t.ops), "s")
        self.put(self.detail, "verify.runs", len(t.ops), "count")
        return t

    def verify_spans(self, res):
        """Check self times, and the rest of the traced cli.main call, scaled like the op."""
        check_s = {c: 0.0 for c in CHECKS}
        for name, s in res["self_s"].items():
            short = name[len("identities."):]
            if name.startswith("identities.") and short in check_s:
                check_s[short] += s
        for c, s in check_s.items():
            self.put(self.layer, f"identities.check_s.{c}", s * res["factor"], "s")
        self.put(self.layer, "cli.verify_overhead_s",
                 res["op_s"][0] - sum(check_s.values()) * res["factor"], "s")

    # -- the run ---------------------------------------------------------------
    def run(self):
        runner = {"mc_small": self.in_process, "grow_large": self.in_process,
                  "verify_cold": self.verify, "param_sweep": self.sweep}[self.args.workload]
        t = runner()
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        e2e = {}
        self.put(e2e, "setup_s", statistics.median(t.setups), "s")
        self.put(e2e, "op_p50_ms", 1e3 * statistics.median(t.ops), "ms")
        self.put(e2e, "ops_per_s", len(t.ops) / sum(t.ops), "1/s")
        self.put(e2e, "peak_rss_mb", max(children, t.rss or 0.0), "MB")
        self.put(self.detail, "raw.op_p50_ms", 1e3 * statistics.median(t.raw_ops), "ms")
        self.put(self.detail, "raw.ops_per_s", len(t.raw_ops) / sum(t.raw_ops), "1/s")
        self.put(self.detail, "ref.call_ms", 1e3 * t.ref_s, "ms")
        self.put(self.detail, "verify.checks_failed", self.checks_failed, "count")
        if self.args.trace:
            self.traced_layers(t)
        self.put(self.detail, "error_rate", self.failed / max(self.attempted, 1), "ratio")
        metrics = self.layer if self.args.trace else e2e
        report = {
            "workload": self.args.workload, "seed": self.args.seed,
            "seconds": self.args.seconds, "trace": self.args.trace, "size": self.args.size,
            "environment": environment(self.root),
            "end_to_end": e2e, "detail": self.detail, "errors": self.errors,
        }
        if self.args.trace:
            report["per_layer"] = self.layer
        with open(os.path.join(OUT_DIR, f"report-{self.args.workload}-{self.args.seed}-"
                                        f"{self.args.trace}.json"), "w") as fh:
            json.dump(report, fh, indent=1)
        print(json.dumps({"report": report}))
        return {"correct": self.failed == 0, "attempted": max(self.attempted, 1),
                "failed": self.failed, "metrics": metrics}

    def traced_layers(self, t):
        """Per-layer metrics: micro-benchmarks, counters, check spans, tracing overhead."""
        res, _ = self.worker("layers", trace=1)
        self.layer.update(res["metrics"])
        if self.args.workload != "verify_cold":
            res, _ = self.worker("run", "verify_cold", trace=1)
            self.gate_verify(res["jsonl"], res["rc"])
            self.verify_spans(res)
        self.put(self.layer, "trace.overhead_ms",
                 1e3 * (statistics.median(t.traced) - statistics.median(t.ops)), "ms")
        for name, v in sorted((t.self_ms or {}).items()):
            self.put(self.detail, f"span.{name}.self_ms_per_op", v, "ms")
        self.put(self.layer, "src.spinhl_lines", src_lines(self.root), "lines")


def src_lines(root):
    pkg = os.path.join(root, "src", "spinhl")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def git_commit(root):
    """HEAD's commit id read from .git, or "unknown" outside a git work tree."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def environment(root):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "python": sys.version.split()[0], "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "git_commit": git_commit(root), "src_spinhl_lines": src_lines(root),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="tiny: small inputs for the smoke test")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spinhl", "__init__.py")):
        print("perfbench: no src/spinhl here; run from the root of a spinhl checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        result = Bench(args, root).run()
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
