"""Fixed-seed CLI outputs, compared byte for byte with the files in tests/golden/.

The CLI promises byte-reproducible output for a fixed seed; these files pin
that promise across refactors.  A change that alters the sampled bytes on
purpose must say so and regenerate the files with the commands below.
"""

import os

import pytest

from spinhl.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = [
    (["sample-field", "--T", "4", "--seed", "7"], "sample_field_T4_seed7.json", ()),
    (["ds6v", "--T", "8", "--seed", "7"], "ds6v_T8_seed7.csv", ()),
    (["particles", "--T", "8", "--seed", "7"], "particles_T8_seed7.csv", (".currents.json",)),
    (["verify", "--point", "0", "--cap", "20"], "verify_point0_cap20.jsonl", ()),
]


@pytest.mark.parametrize("args, name, sidecars", CASES, ids=[c[1] for c in CASES])
def test_cli_output_matches_golden(tmp_path, args, name, sidecars):
    out = tmp_path / name
    assert main([*args, "--out", str(out)]) == 0
    for suffix in ("", *sidecars):
        with open(os.path.join(GOLDEN, name + suffix), "rb") as fh:
            expected = fh.read()
        assert (tmp_path / (name + suffix)).read_bytes() == expected, name + suffix
