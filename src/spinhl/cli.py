"""Command line entry point.

Subcommands:

  verify        run the identity suite; JSON-lines reports, exit 1 on failure
  sample-field  sample the half-space partition field, write JSON
  ds6v          sample the dynamic six-vertex height field, write CSV
  particles     run the dual particle system, write CSV + currents JSON
  compare       paired field-length vs height marginals, chi-square report

Configuration is a single JSON document (--config FILE) with rationals as
strings, e.g. {"q": "1/3", "s": "-1/2", "u": "1/2", "x": ["1/4", "1/5"],
"seed": 7, "T": 8, "cap": 30, "samples": 2000}; a command line flag beats
the config, which beats the default.  The integer options T, seed and cap
must be at least 0 (compare's T at least 1) and samples at least 1; a
config may give them as ints or strings of digits ("T": "8"), and any
other value (a float, a bool) is a config error.  verify runs at the
config's point when the config gives any of q, s, u and x (then --point
is an error), and otherwise at the fixture points or the one --point
picks; an --only that is part of no check's name is a config error.
Exit codes: 0 pass, 1 check failure, 2 configuration or parameter error
(any package exception about the inputs, an integer option that is not
an integer or is below its minimum, a config that is not a JSON object,
an --out that cannot be written, or an --only that selects nothing,
reported as one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

from .exact import ConfigError, ModelParams, RandomSource, default_spectral, frac
from . import ds6v as ds6v_mod
from . import exact
from . import field as field_mod
from . import identities

# Package errors that mean the inputs cannot be run (a parameter point outside
# a sampler's regime, an inadmissible pair, malformed data); like a bad
# config they exit 2, so exit 1 keeps meaning "a check failed".
INPUT_ERRORS = (
    exact.InvalidParams, exact.NotAdmissible, exact.NonStochastic, exact.ZeroSector,
    exact.ScanCapExceeded, exact.DegenerateVandermonde, exact.DimensionMismatch,
    exact.InconsistentHeights, exact.InvalidPath,
)


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return cfg


def _resolve(args, cfg, name, default=None):
    """Command line flag wins; then the config document; then the default."""
    val = getattr(args, name, None)
    if val is not None:
        return val
    if name in cfg:
        return cfg[name]
    if default is not None:
        return default
    raise ConfigError(f"missing required option {name!r} (flag or config)")


def _int_option(args, cfg, name, default=None, minimum=0):
    """An integer option through _resolve: an int (not a bool) or a string of digits, >= minimum.

    Anything else is a ConfigError, floats included, so 2.9 is not read as 2.
    """
    val = _resolve(args, cfg, name, default)
    n = int(val) if isinstance(val, str) and val.isascii() and val.isdigit() else val
    if type(n) is not int or n < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {val!r}")
    return n


def _write(path, text):
    """Write text to the file at path; an OSError is a ConfigError, so it exits 2."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


def _params_from(cfg, T):
    try:
        q = frac(cfg.get("q", "1/3"))
        s = frac(cfg.get("s", "-1/2"))
        u = frac(cfg.get("u", "1/2"))
        xs = cfg.get("x")
        if xs is None:
            xs = default_spectral(max(T + 1, 4))
        elif isinstance(xs, list):
            xs = tuple(frac(v) for v in xs)
        else:
            raise TypeError(f"x must be a list of rationals, got {xs!r}")
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad parameters: {exc}")
    if len(xs) < T + 1:
        raise ConfigError(f"need at least {T + 1} spectral values, got {len(xs)}")
    return ModelParams(q, s, u, tuple(xs))


def cmd_verify(args):
    cfg = _load_config(args.config)
    if args.only and not any(args.only in name for name in identities.CHECK_NAMES):
        raise ConfigError(f"--only {args.only!r} matches no check of "
                          f"{', '.join(identities.CHECK_NAMES)}")
    points = identities.FIXTURE_POINTS
    if any(name in cfg for name in ("q", "s", "u", "x")):
        if args.point is not None:
            raise ConfigError("--point selects a fixture point; the config gives its own")
        points = (_params_from(cfg, 3),)
    elif args.point is not None:
        if not 0 <= args.point < len(points):
            raise ConfigError(f"--point must be in 0..{len(points) - 1}")
        points = (points[args.point],)
    reports = identities.run_suite(points, cap=_int_option(args, cfg, "cap", 30), only=args.only)
    text = "".join(rep.to_json() + "\n" for rep in reports)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write(args.out, text)
    failed = sum(not rep.passed for rep in reports)
    if failed:
        print(f"{failed}/{len(reports)} checks FAILED", file=sys.stderr)
        return 1
    print(f"all {len(reports)} checks passed", file=sys.stderr)
    return 0


# The sampling subcommands: help text, stream id of RandomSource(seed, stream),
# the module and the names in it of the sampler and of its check (None for
# none), looked up at call time, and the files to write as (path, text)
# pairs given the sample and --out.
SAMPLERS = {
    "sample-field": (
        "sample the half-space partition field", 0, field_mod, "sample_field",
        "check_field_invariants", lambda field, out: [(out, field_mod.field_to_json(field) + "\n")]),
    "ds6v": (
        "sample the dynamic six-vertex height field", 1, ds6v_mod, "ds6v_sample",
        "check_heights", lambda h, out: [(out, ds6v_mod.heights_to_csv(h))]),
    "particles": (
        "run the dual particle system", 2, ds6v_mod, "particle_trajectory", None,
        lambda states, out: [(out, ds6v_mod.particles_to_csv(states)),
                             (out + ".currents.json", ds6v_mod.currents_to_json(states) + "\n")]),
}


def cmd_sample(args):
    _, stream, module, sampler, check, files = SAMPLERS[args.command]
    cfg = _load_config(args.config)
    T = _int_option(args, cfg, "T")
    seed = _int_option(args, cfg, "seed", 0)
    params = _params_from(cfg, T)
    result = getattr(module, sampler)(T, RandomSource(seed, stream), params)
    if check is not None:
        getattr(module, check)(result)
    written = files(result, args.out)
    for path, text in written:
        _write(path, text)
    print(f"wrote {' and '.join(path for path, _ in written)}", file=sys.stderr)
    return 0


def cmd_compare(args):
    cfg = _load_config(args.config)
    T = _int_option(args, cfg, "T", 4, minimum=1)  # T = 0 has no site to compare
    seed = _int_option(args, cfg, "seed", 0)
    samples = _int_option(args, cfg, "samples", 2000, minimum=1)
    params = _params_from(cfg, T)
    p_values = ds6v_mod.paired_marginals(T, samples, seed, params)
    worst = min(1.0, *p_values.values())
    report = {f"{pt}": pv for pt, pv in p_values.items()}
    print(json.dumps({"samples": samples, "p_values": report, "worst": worst}))
    return 0 if worst > 1e-3 else 1


def main(argv=None):
    ap = argparse.ArgumentParser(prog="spinhl")
    ap.add_argument("--config", help="JSON configuration file", default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the exact identity suite")
    p.add_argument("--only", default=None, help="restrict to checks whose name contains this")
    p.add_argument("--point", type=int, default=None, help="fixture parameter point index")
    p.add_argument("--cap", type=int, default=None,
                   help="largest-part truncation cap (default 30)")
    p.add_argument("--out", default=None, help="write JSON-lines reports here")
    p.set_defaults(func=cmd_verify)

    for name, (help_text, *_) in SAMPLERS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--T", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_sample)

    p = sub.add_parser("compare", help="paired field vs height marginal comparison")
    p.add_argument("--T", type=int, default=None, help="lattice size (default 4)")
    p.add_argument("--samples", type=int, default=None, help="paired samples (default 2000)")
    p.add_argument("--seed", type=int, default=None, help="root seed (default 0)")
    p.set_defaults(func=cmd_compare)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except INPUT_ERRORS as exc:
        print(f"parameter error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
