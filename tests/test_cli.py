"""Command line interface: exit codes, determinism, file round-trips."""

import json
import os
import subprocess
import sys

import pytest

from spinhl import ds6v as ds6v_mod
from spinhl import identities
from spinhl.cli import INPUT_ERRORS, main
from spinhl.exact import ONE, ZERO
from spinhl.identities import CheckReport
from spinhl.ds6v import check_heights, heights_from_csv
from spinhl.field import check_field_invariants, field_from_json


def run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-m", "spinhl.cli", *args],
        capture_output=True, text=True, env=env,
    )


def test_verify_filtered_passes(tmp_path):
    out = tmp_path / "reports.jsonl"
    rc = main(["verify", "--only", "reflection", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines
    for line in lines:
        rep = json.loads(line)
        assert rep["passed"] and "reflection" in rep["name"]


def test_verify_single_point(tmp_path):
    out = tmp_path / "reports.jsonl"
    rc = main(["verify", "--only", "stochastic", "--point", "1", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 1


@pytest.mark.parametrize("flag, expect", [([], "cap=13"), (["--cap", "20"], "cap=20")])
def test_verify_cap_flag_beats_config(tmp_path, flag, expect):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cap": 13}))
    out = tmp_path / "reports.jsonl"
    rc = main(["--config", str(cfg), "verify", "--point", "0", "--only", "refined-littlewood",
               *flag, "--out", str(out)])
    assert rc == 0
    details = [json.loads(line)["detail"] for line in out.read_text().splitlines()]
    assert details and all(d.endswith(expect) for d in details)


@pytest.mark.parametrize("point", [[], ["--point", "0"]])
def test_verify_only_matching_no_check_is_a_config_error(capsys, point):
    # a typo in --only must not read as "all 0 checks passed"
    assert main(["verify", "--only", "nosuch", *point]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: --only 'nosuch' "), lines
    assert lines[0].endswith(", ".join(identities.CHECK_NAMES))


def test_verify_corrupt_hook_fails(capsys, monkeypatch):
    # one check of the two that "intertwining" selects reports a failure
    monkeypatch.setattr(identities, "check_intertwining_star",
                        lambda params, x, y: CheckReport("intertwining-star", "exact",
                                                         ONE, ZERO, False))
    assert main(["verify", "--only", "intertwining", "--point", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "1/2 checks FAILED\n"
    passed = [json.loads(line)["passed"] for line in captured.out.splitlines()]
    assert passed == [True, False]


def test_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"q": "3/1", "s": "-1/2", "x": ["1/4"], ')
    res = run_cli(["--config", str(cfg), "sample-field", "--T", "2",
                   "--out", str(tmp_path / "f.json")])
    assert res.returncode == 2


@pytest.mark.parametrize("command, cfg", [
    (["ds6v", "--T", "3", "--seed", "-1"], None),
    (["ds6v", "--T", "-2"], None),
    (["ds6v"], {"T": "abc"}),
    (["ds6v", "--T", "3"], {"seed": "x"}),
    (["ds6v", "--T", "3"], [1, 2]),
    (["ds6v", "--T", "3"], {"x": 5}),
    (["sample-field", "--T", "2"], {"q": None}),
    (["compare", "--samples", "-5"], None),
    (["compare", "--samples", "0"], None),
    (["compare", "--T", "0"], None),
    (["compare", "--T", "2"], {"samples": "many"}),
    (["verify", "--cap", "-1"], None),
    (["ds6v"], {"T": 2.9}),
    (["ds6v"], {"T": 8.0}),
    (["ds6v"], {"T": True}),
    (["ds6v", "--T", "3"], {"seed": 1.5}),
    (["verify"], {"cap": 1.5}),
], ids=["negative-seed", "negative-T", "T-not-int", "seed-not-int", "config-array",
        "x-not-list", "q-null", "negative-samples", "zero-samples", "compare-T-0",
        "samples-not-int", "negative-cap", "T-float", "T-integral-float", "T-bool",
        "seed-float", "cap-float"])
def test_bad_options_exit_2_with_one_config_line(tmp_path, capsys, command, cfg):
    argv = []
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = ["--config", str(path)]
    out = ["--out", str(tmp_path / "out")] if command[0] in ("ds6v", "sample-field") else []
    assert main([*argv, *command, *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), lines
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, cfg, expect", [
    (["verify"], "missing", "cannot read config {cfg}: [Errno 2] No such file or directory: "
                            "'{cfg}'"),
    (["ds6v"], None, "missing required option 'T' (flag or config)"),
    (["ds6v", "--T", "3"], {"x": ["1/4", "1/5"]},
     "need at least 4 spectral values, got 2"),
    (["verify", "--point", "3"], None, "--point must be in 0..2"),
], ids=["unreadable-config", "ds6v-without-T", "too-few-spectral-values", "verify-point-3"])
def test_config_errors_exit_2_with_their_line(tmp_path, capsys, command, cfg, expect):
    # cfg "missing" passes --config naming a file that does not exist
    path = tmp_path / "cfg.json"
    argv = [] if cfg is None else ["--config", str(path)]
    if isinstance(cfg, dict):
        path.write_text(json.dumps(cfg))
    out = ["--out", str(tmp_path / "out")] if command[0] == "ds6v" else []
    assert main([*argv, *command, *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: " + expect.format(cfg=path) + "\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg, flags, code, expect", [
    ({"u": "1/3"}, ["--only", "refined-cauchy"], 0, '"refined-cauchy[n=1,u=1/3]"'),
    ({"x": ["6", "1/5", "1/6", "1/7"]}, [], 2, "parameter error: NotAdmissible"),
    ({"q": "2/5", "s": "-1/3"}, ["--point", "2"], 2, "config error: "),
    ({"s": "1/2", "x": ["3", "1/4", "1/5", "1/6"]}, ["--only", "cauchy-closed-form"], 2,
     "parameter error: NotAdmissible: column limit diverges: self-loop 10/7\n"),
], ids=["u", "x", "point-with-q", "divergent-ratio"])
def test_verify_runs_at_the_config_point(tmp_path, capsys, cfg, flags, code, expect):
    # any of q, s, u and x makes the config's point the one verify runs
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "verify", *flags]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and captured.err.startswith(expect)
        assert len(captured.err.splitlines()) == 1
    else:
        assert captured.out.startswith('{"name": ' + expect)


@pytest.mark.parametrize("cfg", [
    {"q": True}, {"q": False}, {"s": True}, {"s": False}, {"u": True}, {"u": False},
    {"x": [True, "1/5", "1/6", "1/7"]}, {"x": "1/4"}, {"x": "0123"},
], ids=["q-true", "q-false", "s-true", "s-false", "u-true", "u-false", "x-entry-true",
        "x-string", "x-digit-string"])
def test_bad_parameter_types_exit_2(tmp_path, capsys, cfg):
    # a JSON boolean is not a rational, and x is a list: a string is not read
    # one character at a time ("0123" is not x = (0, 1, 2, 3))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: bad parameters: "), lines


@pytest.mark.parametrize("cap", [0, 1, 2])
def test_verify_accepts_every_cap(tmp_path, cap):
    # the two-variable skew Littlewood check floors its cap at 3, the least its tail accepts
    def skew_littlewood_line(c):
        out = tmp_path / f"cap{c}.jsonl"
        assert main(["verify", "--point", "0", "--cap", str(c), "--out", str(out)]) == 0
        return [line for line in out.read_text().splitlines() if "skew-littlewood-2var" in line]

    got = skew_littlewood_line(cap)
    assert len(got) == 1 and got == skew_littlewood_line(3)


def test_integer_options_read_digit_strings_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": "8", "seed": "7"}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--config", str(cfg), "ds6v", "--out", str(a)]) == 0
    assert main(["ds6v", "--T", "8", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command, cfg, error", [
    (["verify", "--cap", "10"],
     {"q": "1/3", "s": "-1/2", "x": ["6", "1/5", "1/6", "1/7", "1/8"]}, "NotAdmissible"),
    (["particles", "--T", "4"], {"q": "3/2", "s": "-1/2"}, "InvalidParams"),
])
def test_package_errors_exit_2_with_one_line(tmp_path, capsys, command, cfg, error):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = ["--out", str(tmp_path / "out")] if command[0] != "verify" else []
    assert main(["--config", str(path), *command, *out]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and error in err


@pytest.mark.parametrize("error", INPUT_ERRORS, ids=lambda e: e.__name__)
def test_every_input_error_exits_2(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("bad input")

    monkeypatch.setattr(ds6v_mod, "ds6v_sample", fail)
    assert main(["ds6v", "--T", "2", "--out", str(tmp_path / "h.csv")]) == 2
    assert capsys.readouterr().err == f"parameter error: {error.__name__}: bad input\n"


@pytest.mark.parametrize("command", [
    ["verify", "--only", "r-stoch"], ["sample-field", "--T", "2"], ["ds6v", "--T", "2"],
    ["particles", "--T", "2"],
], ids=lambda c: c[0])
def test_an_out_that_cannot_be_written_exits_2(tmp_path, capsys, command):
    # exit 1 means a check failed; an --out in a missing directory is a config error
    path = tmp_path / "missing" / "out"
    assert main([*command, "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: cannot write {path}: "), lines
    assert not path.parent.exists()


def test_sample_field_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["sample-field", "--T", "4", "--seed", "7", "--out", str(a)]) == 0
    assert main(["sample-field", "--T", "4", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    field = field_from_json(a.read_text())
    assert check_field_invariants(field)


def test_ds6v_output_valid(tmp_path):
    out = tmp_path / "h.csv"
    assert main(["ds6v", "--T", "5", "--seed", "3", "--out", str(out)]) == 0
    h = heights_from_csv(out.read_text())
    assert check_heights(h)
    out2 = tmp_path / "h2.csv"
    assert main(["ds6v", "--T", "5", "--seed", "3", "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_particles_outputs(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["particles", "--T", "6", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,site,occupied"
    currents = json.loads((tmp_path / "p.csv.currents.json").read_text())
    assert [c["t"] for c in currents] == list(range(7))


@pytest.mark.parametrize("command", ["ds6v", "particles"])
def test_samplers_refuse_a_point_outside_probabilistic_mode(tmp_path, capsys, command):
    # s = 1/2 > 0: both growth samplers exit 2 with the same one line, and write nothing
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"q": "1/3", "s": "1/2", "u": "1/2",
                                "x": ["1/4", "1/5", "1/6", "1/7", "1/8"]}))
    out = tmp_path / "out.csv"
    assert main(["--config", str(path), command, "--T", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "parameter error: InvalidParams: probabilistic mode needs q in (0,1), s in (-1,0), "
        "x_i in [0,1); got q=1/3, s=1/2, x=(Fraction(1, 4), Fraction(1, 5), Fraction(1, 6), "
        "Fraction(1, 7), Fraction(1, 8))"]
    assert list(tmp_path.iterdir()) == [path]


def test_compare_subcommand():
    res = run_cli(["compare", "--T", "3", "--samples", "400", "--seed", "5"])
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["worst"] > 1e-3


def test_compare_reads_T_seed_and_samples_from_config(tmp_path, capsys):
    # flag, then config, then default (T 4, seed 0, samples 2000)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 2, "seed": 3, "samples": 40}))

    def report(*argv):
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    from_config = report("--config", str(cfg), "compare")
    assert from_config == report("compare", "--T", "2", "--seed", "3", "--samples", "40")
    assert sorted(from_config["p_values"]) == ["(1, 1)", "(1, 2)", "(2, 2)"]
    assert report("--config", str(cfg), "compare", "--T", "3", "--seed", "5") == report(
        "compare", "--T", "3", "--seed", "5", "--samples", "40")


def test_custom_config_params(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "q": "2/5", "s": "-1/3",
        "x": [f"1/{i + 5}" for i in range(8)],
    }))
    out = tmp_path / "f.json"
    res = run_cli(["--config", str(cfg), "sample-field", "--T", "3",
                   "--seed", "2", "--out", str(out)])
    assert res.returncode == 0
    assert check_field_invariants(field_from_json(out.read_text()))


def test_samplers_run_without_numpy():
    # the bit streams are pure Python; numpy is a test-only dependency
    code = (
        "import sys\n"
        "import spinhl.cli\n"
        "from spinhl import ModelParams, RandomSource\n"
        "from spinhl.ds6v import ds6v_sample, particle_trajectory\n"
        "from spinhl.exact import default_spectral\n"
        "from spinhl.field import sample_field\n"
        "p = ModelParams.make('1/3', '-1/2', '1/2', default_spectral(9))\n"
        "sample_field(4, RandomSource(7, 0), p)\n"
        "ds6v_sample(8, RandomSource(7, 1), p)\n"
        "particle_trajectory(8, RandomSource(7, 2), p)\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
