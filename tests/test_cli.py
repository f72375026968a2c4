"""End-to-end tests of the command line interface against golden files."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sparsetrees.cli import run
from sparsetrees.reports import format_float

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = [
    ("tree-stats", "tree_stats", "json"),
    ("decompose", "decompose", "json"),
    ("spectrum", "spectrum", "json"),
    ("efgp-run", "efgp_run", "csv"),
    ("efgp-run", "efgp_run", "json"),
    ("phase-diagram", "phase_diagram", "csv"),
    ("mc-exponent", "mc_exponent", "json"),
    ("classify-theorems", "classify_theorems", "json"),
]


@pytest.mark.parametrize("subcommand,stem,suffix", CASES)
def test_fixture_matches_golden_file(subcommand, stem, suffix, tmp_path):
    out = tmp_path / f"report.{suffix}"
    config = str(FIXTURES / f"{stem}.json")
    assert run([subcommand, "--config", config, "--format", suffix, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{stem}.{suffix}").read_bytes()


@pytest.mark.parametrize("subcommand,stem", [("spectrum", "spectrum"), ("decompose", "decompose")])
def test_golden_eigenvalue_bytes_do_not_depend_on_lapack(subcommand, stem, tmp_path, monkeypatch):
    # Both fixtures sit below CLASS_COUNT_ROWS, so their eigenvalues come
    # from the class count alone and the golden bytes are those of every
    # platform; no LAPACK eigensolver may be called.
    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
    out = tmp_path / "report.json"
    assert run([subcommand, "--config", str(FIXTURES / f"{stem}.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{stem}.json").read_bytes()


NO_SCIPY_SCRIPT = """
import sys
from sparsetrees import cli
status = cli.run(["spectrum", "--config", sys.argv[1], "--out", sys.argv[2]])
print(status, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_long_block_spectrum_loads_no_scipy(tmp_path):
    # A 601-row block takes the stretch count; a fresh process that runs
    # it must not load scipy at all.
    config = tmp_path / "spectrum.json"
    config.write_text(json.dumps({
        "subcommand": "spectrum",
        "spec": {"family": "gamma", "k": 2, "gamma": 3, "N": 7},
        "depth": 600,
    }))
    out = tmp_path / "report.json"
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(config), str(out)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert done.stdout.split("\n")[-2] == "0 []"
    assert len(json.loads(out.read_text())["payload"]["eigenvalues"]) == 601


@pytest.mark.parametrize("subcommand,stem,suffix", CASES)
def test_reruns_are_byte_identical(subcommand, stem, suffix, tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    config = str(FIXTURES / f"{stem}.json")
    assert run([subcommand, "--config", config, "--format", suffix, "--out", str(first)]) == 0
    assert run([subcommand, "--config", config, "--format", suffix, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_stdout_equals_file_output(capsysbinary, tmp_path):
    config = str(FIXTURES / "classify_theorems.json")
    out = tmp_path / "report.json"
    assert run(["classify-theorems", "--config", config, "--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert run(["classify-theorems", "--config", config]) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == out.read_bytes()


def test_config_echo_recovers_the_input_bytes():
    report = json.loads((GOLDEN / "tree_stats.json").read_text())
    assert report["config"].encode() == (FIXTURES / "tree_stats.json").read_bytes()
    reparsed = json.loads(report["config"])
    assert reparsed["depth"] == 40


def test_json_floats_round_trip_exactly():
    report = json.loads((GOLDEN / "spectrum.json").read_text())

    def walk(node):
        if isinstance(node, dict):
            for value in node.values():
                yield from walk(value)
        elif isinstance(node, list):
            for value in node:
                yield from walk(value)
        elif isinstance(node, float):
            yield node

    values = list(walk(report["payload"]))
    assert values
    for value in values:
        assert float(format_float(value)) == value


def test_seed_flag_overrides_config(tmp_path):
    config = str(FIXTURES / "mc_exponent.json")
    base = tmp_path / "base.json"
    shifted = tmp_path / "shifted.json"
    assert run(["mc-exponent", "--config", config, "--out", str(base)]) == 0
    assert run(["mc-exponent", "--config", config, "--seed", "6", "--out", str(shifted)]) == 0
    first = json.loads(base.read_text())
    second = json.loads(shifted.read_text())
    assert first["seed"] == 5 and second["seed"] == 6
    assert first["payload"]["mean_y"] != second["payload"]["mean_y"]
    # The echoed config is the file text either way.
    assert first["config"] == second["config"]


def test_format_flag_switches_spectrum_to_csv(capsysbinary):
    config = str(FIXTURES / "spectrum.json")
    assert run(["spectrum", "--config", config, "--format", "csv"]) == 0
    lines = capsysbinary.readouterr().out.decode().splitlines()
    assert lines[0] == "i,lambda_i"
    assert lines[1].startswith("0,")
    report = json.loads((GOLDEN / "spectrum.json").read_text())
    assert len(lines) - 1 == len(report["payload"]["eigenvalues"])


def test_spectrum_coverage_is_of_the_root_adjacency_block(tmp_path, capsysbinary):
    cfg = json.loads((FIXTURES / "spectrum.json").read_text())
    golden = json.loads((GOLDEN / "spectrum.json").read_text())["payload"]["coverage"]
    for listed in ({"variant": "degree"}, {"rho": 0.3}, {"block": 1}):
        config = tmp_path / "listed.json"
        config.write_text(json.dumps({**cfg, **listed}))
        assert run(["spectrum", "--config", str(config)]) == 0
        report = json.loads(capsysbinary.readouterr().out)
        assert report["payload"]["coverage"] == golden


def test_phase_diagram_csv_alpha_empty_outside_window():
    lines = (GOLDEN / "phase_diagram.csv").read_text().splitlines()
    assert lines[0] == "E,k,gamma,class,alpha"
    cells = [line.split(",") for line in lines[1:]]
    for row in cells:
        if row[3] in ("pp", "outside", "boundary"):
            assert row[4] == ""
        else:
            assert 0.0 < float(row[4]) <= 1.0


def test_validation_errors_exit_2(tmp_path, capsys, monkeypatch):
    bad_gamma = tmp_path / "bad_gamma.json"
    bad_gamma.write_text('{"k": 2, "gamma": "abc", "energies": [0.0]}')
    assert run(["phase-diagram", "--config", str(bad_gamma)]) == 2
    assert "gamma" in capsys.readouterr().err

    missing = tmp_path / "nope.json"
    assert run(["tree-stats", "--config", str(missing)]) == 2

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert run(["tree-stats", "--config", str(not_object)]) == 2

    mismatch = tmp_path / "mismatch.json"
    mismatch.write_text('{"subcommand": "decompose", "spec": {"family": "gamma", "k": 2, "gamma": 3, "N": 3}, "depth": 5}')
    assert run(["tree-stats", "--config", str(mismatch)]) == 2

    no_table = tmp_path / "no_table.json"
    no_table.write_text('{"spec": {"family": "gamma", "k": 2, "gamma": 3, "N": 3}, "depth": 5, "format": "csv"}')
    assert run(["tree-stats", "--config", str(no_table)]) == 2

    # Spec records: missing or mistyped fields are named, never truncated.
    bad_specs = [
        ('{"family": "gamma", "gamma": 3, "N": 3}', "k"),
        ('{"family": "gamma", "k": 2, "gamma": 3, "N": "x"}', "N"),
        ('{"family": "gamma", "k": 2, "gamma": [3], "N": 3}', "gamma"),
        ('{"family": "gamma", "k": 2, "gamma": Infinity, "N": 3}', "gamma"),
        ('{"family": "gamma", "k": 2.5, "gamma": 3, "N": 3}', "k"),
        ('{"family": "gamma", "k": true, "gamma": 3, "N": 3}', "k"),
        ('{"family": "omega", "k": 2, "gamma": 3, "N": 3}', "seed"),
        ('{"family": "explicit", "k": [2, 2], "L": [1, 2.7]}', "L"),
        ('{"family": "explicit", "k": [2, 2.5], "L": [1, 3]}', "k"),
    ]
    capsys.readouterr()
    for record, field in bad_specs:
        config = tmp_path / "bad_spec.json"
        config.write_text('{"spec": ' + record + ', "depth": 5}')
        assert run(["tree-stats", "--config", str(config)]) == 2, record
        assert capsys.readouterr().err.startswith(f"error: {field}:"), record

    # Out-of-range values name the config field they came from.
    tree = '"spec": {"family": "gamma", "k": 2, "gamma": 3, "N": 3}'
    out_of_range = [("tree-stats", "{" + tree + f', "depth": {depth}}}', "depth") for depth in (1, 0, -1)]
    for multiple in ("0", "1"):
        out_of_range += [
            ("efgp-run", "{" + tree + f', "phi_pi_multiple": "{multiple}"}}', "phi_pi_multiple"),
            ("mc-exponent", f'{{"k": 2, "gamma": 3, "phi_pi_multiple": "{multiple}"}}', "phi_pi_multiple"),
        ]
    for subcommand, text, field in out_of_range:
        config = tmp_path / "out_of_range.json"
        config.write_text(text)
        assert run([subcommand, "--config", str(config)]) == 2, text
        assert capsys.readouterr().err.startswith(f"error: {field}:"), text
    for gamma in ("[3]", "Infinity"):
        config = tmp_path / "bad_gamma_value.json"
        config.write_text('{"k": 2, "gamma": ' + gamma + ', "energies": [0.0]}')
        assert run(["phase-diagram", "--config", str(config)]) == 2, gamma
        assert capsys.readouterr().err.startswith("error: gamma:"), gamma

    # Non-finite numbers are refused at parse time, before any computation.
    def no_run(*args, **kwargs):
        raise AssertionError("computation started")

    for name in ("efgp_run", "phase_diagram", "mc_exponent"):
        monkeypatch.setattr(f"sparsetrees.cli.{name}", no_run)
    spec = '"spec": {"family": "explicit", "k": [2, 3], "L": [2, 5]}'
    non_finite = [
        ("efgp-run", "{" + spec + ', "phi": 1.0, "theta0": NaN}', "theta0"),
        ("efgp-run", "{" + spec + ', "phi": Infinity}', "phi"),
        ("mc-exponent", '{"k": 2, "gamma": 3, "phi": -Infinity}', "phi"),
        ("phase-diagram", '{"k": 2, "gamma": 4, "energies": [NaN, 0.0]}', "energies"),
        ("phase-diagram", '{"k": 2, "gamma": 4, "energies": {"min": -Infinity, "max": 2.0, "points": 5}}', "min"),
        ("phase-diagram", '{"k": 2, "gamma": 4, "energies": {"min": -1e308, "max": 1e308, "points": 5}}', "min"),
    ]
    for subcommand, text, field in non_finite:
        config = tmp_path / "non_finite.json"
        config.write_text(text)
        assert run([subcommand, "--config", str(config)]) == 2, text
        assert capsys.readouterr().err.startswith(f"error: {field}:"), text

    huge_seed = tmp_path / "huge_seed.json"
    huge_seed.write_text('{"k": 2, "gamma": 3, "phi": 1.0, "seed": 18446744073709551616}')
    assert run(["mc-exponent", "--config", str(huge_seed)]) == 2

    for multiple in ("abc", "1/0"):
        bad_multiple = tmp_path / "bad_multiple.json"
        bad_multiple.write_text(json.dumps({"k": 2, "gamma": 3, "phi_pi_multiple": multiple}))
        capsys.readouterr()
        assert run(["mc-exponent", "--config", str(bad_multiple)]) == 2
        assert capsys.readouterr().err == (
            f"error: phi_pi_multiple: cannot parse {multiple!r} as a rational\n"
        )


def test_guard_violation_exits_3(tmp_path, capsys):
    config = tmp_path / "huge.json"
    config.write_text(
        json.dumps(
            {
                "spec": {"family": "explicit", "k": [2] * 20, "L": list(range(1, 21))},
                "depth": 20,
            }
        )
    )
    assert run(["decompose", "--config", str(config)]) == 3
    assert capsys.readouterr().err.startswith("guard:")

    deep = tmp_path / "deep.json"
    deep.write_text(
        json.dumps({"spec": {"family": "gamma", "k": 2, "gamma": 3, "N": 3}, "depth": 200_000})
    )
    assert run(["spectrum", "--config", str(deep)]) == 3
    assert capsys.readouterr().err.startswith("guard:")

    # about 10,000 rows x 5,001 subtree classes: over the bisection work guard
    long_tree = tmp_path / "long_tree.json"
    long_tree.write_text(json.dumps({"spec": {"family": "explicit", "k": [2], "L": [1]}, "depth": 5000}))
    assert run(["decompose", "--config", str(long_tree)]) == 3
    assert capsys.readouterr().err.startswith("guard:")


def test_floor_guard_exits_3_naming_the_field(tmp_path, capsys):
    # just over the floor-bits guard at gamma = 3 (13,000 floors fit)
    cases = [
        ("tree-stats", {"spec": {"family": "gamma", "k": 2, "gamma": 3, "N": 13_100}, "depth": 5}, "N"),
        ("efgp-run", {"spec": {"family": "omega", "k": 2, "gamma": 3, "N": 13_100, "seed": 1}, "phi": 1.0}, "N"),
        ("mc-exponent", {"k": 2, "gamma": 3, "phi": 1.0, "n_bumps": 13_100}, "n_bumps"),
    ]
    for subcommand, cfg, field in cases:
        config = tmp_path / "floors.json"
        config.write_text(json.dumps(cfg))
        assert run([subcommand, "--config", str(config)]) == 3, subcommand
        assert capsys.readouterr().err.startswith(f"guard: {field}: 13100 floors"), subcommand


def test_efgp_run_accepts_exact_pi_multiple(tmp_path, capsysbinary):
    config = tmp_path / "exact.json"
    config.write_text(
        json.dumps(
            {
                "spec": {"family": "explicit", "k": [2, 2, 2], "L": [3, 9, 27]},
                "phi_pi_multiple": "1/2",
                "format": "csv",
            }
        )
    )
    assert run(["efgp-run", "--config", str(config)]) == 0
    lines = capsysbinary.readouterr().out.decode().splitlines()
    assert lines[0] == "n,L_n,log_r,theta,Y_n"
    assert len(lines) == 5
    # Free stretches at a right angle rotate by exact quarter turns and the
    # k=2 bump at E=0 is diagonal, so checkpoint phases stay axis-aligned:
    # entry 3*pi/2 at the first bump exits at pi/2.
    theta1 = float(lines[2].split(",")[3])
    assert theta1 == pytest.approx(math.pi / 2, abs=1e-12)


def test_efgp_run_rejects_theta0_with_rho(tmp_path):
    config = tmp_path / "conflict.json"
    config.write_text(
        json.dumps(
            {
                "spec": {"family": "explicit", "k": [2, 2], "L": [3, 9]},
                "phi": 1.0,
                "theta0": 0.2,
                "rho": 0.3,
            }
        )
    )
    assert run(["efgp-run", "--config", str(config)]) == 2
