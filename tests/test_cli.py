"""End-to-end tests of the command line interface against golden files."""

import contextlib
import importlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import kick_error_units

import sparsetrees
from sparsetrees import cli
from sparsetrees.cli import run
from sparsetrees.decomposition import truncated_block
from sparsetrees.errors import GuardError, ValidationError
from sparsetrees.phase import PhaseReducer
from sparsetrees.reports import EFGP_RUN_HEADER, PHASE_DIAGRAM_HEADER, format_float
from sparsetrees.spectral import GRID_POINTS_GUARD
from sparsetrees.transfer import stretch_gaps
from sparsetrees.trees import ball_count, spec_from_record

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = [
    ("tree-stats", "tree_stats", "json"),
    ("decompose", "decompose", "json"),
    ("spectrum", "spectrum", "json"),
    ("efgp-run", "efgp_run", "csv"),
    ("efgp-run", "efgp_run", "json"),
    ("efgp-run", "efgp_run_gamma", "csv"),
    ("efgp-run", "efgp_run_gamma", "json"),
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


# Each OpenBLAS core that OPENBLAS_CORETYPE can pick, and the CPU flags it needs.
OPENBLAS_CORES = {
    "Prescott": {"pni"},
    "Nehalem": {"ssse3", "sse4_2"},
    "Sandybridge": {"avx"},
    "Haswell": {"avx2", "fma"},
    "SkylakeX": {"avx512f", "avx512dq", "avx512bw", "avx512vl", "avx512cd"},
}


def test_mc_exponent_golden_bytes_under_every_openblas_core(tmp_path):
    # The golden bytes under every core this CPU runs.  OPENBLAS_CORETYPE
    # selects the kernels of a DYNAMIC_ARCH OpenBLAS only: against a build
    # for one core, or another BLAS, every run takes the same kernel and
    # this test proves nothing.
    try:
        cpuinfo = pathlib.Path("/proc/cpuinfo").read_text()
    except OSError:
        pytest.skip("no /proc/cpuinfo to read the CPU flags from")
    match = re.search(r"^flags\s*:(.*)$", cpuinfo, re.M)
    if match is None:
        pytest.skip("no x86 CPU flags to pick OpenBLAS cores by")
    flags = set(match.group(1).split())
    cores = [core for core, needs in OPENBLAS_CORES.items() if needs <= flags]
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    golden = (GOLDEN / "mc_exponent.json").read_bytes()
    for core in cores:
        out = tmp_path / f"{core}.json"
        env = {
            **os.environ,
            "OPENBLAS_CORETYPE": core,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        subprocess.run(
            [sys.executable, "-m", "sparsetrees", "mc-exponent", "--config", str(FIXTURES / "mc_exponent.json"),
             "--format", "json", "--out", str(out)],
            capture_output=True, env=env, timeout=120, check=True,
        )
        assert out.read_bytes() == golden, core


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


NO_MPMATH_SCRIPT = """
import json, sys
from sparsetrees import cli
status = [
    cli.run([sub, "--config", config, "--format", fmt, "--out", f"{sys.argv[1]}/{i}.out"])
    for i, (sub, config, fmt) in enumerate(json.loads(sys.argv[2]))
]
print(status, sorted(name for name in sys.modules if name.split(".")[0] == "mpmath"))
"""


def test_no_subcommand_loads_mpmath(tmp_path):
    # The fixed-point angles are computed from Python ints: a fresh process
    # that runs every fixture, in every format with a golden file, reduces
    # phases in efgp-run, mc-exponent and an exact multiple of pi, and must
    # not load mpmath.
    exact = tmp_path / "exact.json"
    config = json.loads((FIXTURES / "efgp_run_gamma.json").read_text())
    del config["phi"]
    exact.write_text(json.dumps({**config, "phi_pi_multiple": "1/3"}))
    ops = [(sub, str(FIXTURES / f"{stem}.json"), fmt) for sub, stem, fmt in CASES]
    ops.append(("efgp-run", str(exact), "csv"))
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", NO_MPMATH_SCRIPT, str(tmp_path), json.dumps(ops)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert done.stdout.split("\n")[-2] == f"{[0] * len(ops)} []"
    for i, (_, stem, fmt) in enumerate(CASES):
        assert (tmp_path / f"{i}.out").read_bytes() == (GOLDEN / f"{stem}.{fmt}").read_bytes(), (stem, fmt)


NO_NUMPY_SCRIPT = """
import json, pathlib, sys
import sparsetrees
from sparsetrees import cli, spec_from_record
fixtures, out, ops = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2]), json.loads(sys.argv[3])
parser = cli.build_parser()
for path in sorted(fixtures.glob("*.json")):
    cfg = json.loads(path.read_text(encoding="utf-8"))
    parser.parse_args([cfg["subcommand"], "--config", str(path)])
    if "spec" in cfg:
        spec_from_record(cfg["spec"])
status = [
    cli.run([sub, "--config", config, "--format", fmt, "--out", str(out / f"{i}.out")])
    for i, (sub, config, fmt) in enumerate(ops)
]
before = "numpy" in sys.modules
status.append(cli.run(["decompose", "--config", str(fixtures / "decompose.json"), "--out", str(out / "decompose.out")]))
print(json.dumps({"status": status, "numpy_before": before, "numpy_after": "numpy" in sys.modules}))
"""


def test_import_and_setup_load_no_numpy(tmp_path):
    # Importing the package and the CLI, parsing and building every fixture
    # and running the subcommands that build no array must not load numpy:
    # every golden but those of the array subcommands, and a phase diagram
    # over a list of energies.  The decompose fixture, which does build
    # arrays, loads it.
    energies = tmp_path / "energies.json"
    energies.write_text(json.dumps({"k": 2, "gamma": 4, "energies": [-1.99, 0.0, 1.2, 2.5]}))
    goldens = [case for case in CASES if case[0] not in ("decompose", "spectrum", "mc-exponent")]
    ops = [(sub, str(FIXTURES / f"{stem}.json"), fmt) for sub, stem, fmt in goldens]
    ops.append(("phase-diagram", str(energies), "json"))
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, str(FIXTURES), str(tmp_path), json.dumps(ops)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    report = json.loads(done.stdout.split("\n")[-2])
    assert report == {"status": [0] * (len(ops) + 1), "numpy_before": False, "numpy_after": True}
    for i, (_, stem, fmt) in enumerate(goldens):
        assert (tmp_path / f"{i}.out").read_bytes() == (GOLDEN / f"{stem}.{fmt}").read_bytes(), (stem, fmt)
    assert (tmp_path / "decompose.out").read_bytes() == (GOLDEN / "decompose.json").read_bytes()
    points = json.loads((tmp_path / f"{len(goldens)}.out").read_text())["payload"]["points"]
    assert [(p["E"], p["class"]) for p in points] == [(-1.99, "pp"), (0.0, "sc"), (1.2, "sc"), (2.5, "outside")]


def test_entry_point_is_run():
    # pyproject.toml's script target, read with a regex: tomllib needs Python 3.11
    pyproject = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", pyproject, re.M | re.S).group(1)
    module, attr = re.fullmatch(r'sparsetrees = "([\w.]+):(\w+)"\s*', scripts).groups()
    assert getattr(importlib.import_module(module), attr) is run
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "sparsetrees", "--version"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stdout) == (0, sparsetrees.__version__ + "\n")


def test_public_names_resolve_to_their_home_modules():
    homes = {
        "decomposition": ("plan_decomposition", "truncated_block", "verify_decomposition"),
        "errors": ("GuardError", "ValidationError"),
        "jacobi": ("ADJACENCY", "DEGREE"),
        "phase": ("PhaseReducer",),
        "spectral": (
            "V", "Z", "corollary_check", "essential_spectrum_coverage", "interval_I",
            "local_dimension", "mc_exponent", "phase_diagram", "theorem_classifier",
        ),
        "transfer": ("bump_coefficients", "efgp_run"),
        "trees": (
            "TreeSpec", "ball_count", "estimate_dimension", "make_gamma_tree", "parse_gamma",
            "sample_omega_tree", "spec_from_record", "spec_to_record", "theoretical_dimension",
        ),
    }
    public = set(sparsetrees.__all__) - {"__version__"}
    assert public == {name for names in homes.values() for name in names}
    for module, names in homes.items():
        home = importlib.import_module(f"sparsetrees.{module}")
        for name in names:
            assert getattr(sparsetrees, name) is getattr(home, name), name
    assert set(sparsetrees.__all__) <= set(dir(sparsetrees))
    namespace: dict = {}
    exec("from sparsetrees import *", namespace)
    assert all(namespace[name] is getattr(sparsetrees, name) for name in sparsetrees.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        sparsetrees.no_such_name
    # an unknown name falls through to the submodule import
    from sparsetrees import decomposition

    assert decomposition is sys.modules["sparsetrees.decomposition"]


@pytest.mark.parametrize("subcommand,stem,suffix", CASES)
def test_reruns_are_byte_identical(subcommand, stem, suffix, tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    config = str(FIXTURES / f"{stem}.json")
    assert run([subcommand, "--config", config, "--format", suffix, "--out", str(first)]) == 0
    assert run([subcommand, "--config", config, "--format", suffix, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_efgp_run_prints_floors_past_the_int_to_str_digit_limit(tmp_path):
    # floor(3**9100) has 4,342 digits, past the 4,300 that CPython's
    # int -> str allows by default; a gamma spec's levels print through
    # decimal, so the run reports them.
    config = tmp_path / "efgp.json"
    config.write_text(json.dumps({
        "subcommand": "efgp-run",
        "spec": {"family": "gamma", "k": 2, "gamma": 3, "N": 9100},
        "phi": 1.0,
    }))
    out = tmp_path / "report.csv"
    assert run(["efgp-run", "--config", str(config), "--format", "csv", "--out", str(out)]) == 0
    last_row = out.read_text().splitlines()[-1].split(",")
    assert last_row[:2] == ["9100", str(Decimal(3**9100))]


def test_stdout_equals_file_output(capsysbinary, tmp_path):
    config = str(FIXTURES / "classify_theorems.json")
    out = tmp_path / "report.json"
    assert run(["classify-theorems", "--config", config, "--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert run(["classify-theorems", "--config", config]) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == out.read_bytes()


@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
def test_options_may_come_before_or_after_the_subcommand(subcommand):
    parser = cli.build_parser()
    options = ["--config", "cfg.json", "--out", "report.out"]
    after = parser.parse_args([subcommand, *options])
    assert parser.parse_args([*options, subcommand]) == after
    assert vars(after) == {
        "subcommand": subcommand, "config": "cfg.json", "seed": None, "out": "report.out", "format": None,
    }


def test_unknown_subcommand_exits_2_and_version_prints(capsys):
    with pytest.raises(SystemExit) as unknown:
        run(["tree-count", "--config", str(FIXTURES / "tree_stats.json")])
    assert unknown.value.code == 2
    assert "invalid choice: 'tree-count'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as version:
        run(["--version"])
    assert version.value.code == 0
    assert capsys.readouterr().out == sparsetrees.__version__ + "\n"


def test_unwritable_out_exits_2_naming_the_field(tmp_path, capsys, monkeypatch):
    def never(cfg, seed):
        raise AssertionError("the handler ran before --out was checked")

    # the path is refused before the handler runs
    monkeypatch.setitem(cli._HANDLERS, "efgp-run", never)
    out = tmp_path / "missing" / "report.json"
    assert run(["efgp-run", "--config", str(FIXTURES / "efgp_run.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: out: cannot write {out}: ")
    assert err.count("\n") == 1 and not out.parent.exists()


def test_out_naming_a_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    def never(cfg, seed):
        raise AssertionError("the handler ran before --out was checked")

    monkeypatch.setitem(cli._HANDLERS, "tree-stats", never)
    assert run(["tree-stats", "--config", str(FIXTURES / "tree_stats.json"), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: out: cannot write {tmp_path}: is a directory\n"


@pytest.mark.parametrize("content", [
    b'{"depth": 4, "note": "caf\xe9"}',  # Latin-1, not UTF-8
    b"[" * 100_000 + b"]" * 100_000,  # nested past the parser's recursion limit
    b'{"depth": 4,}',
], ids=["not-utf8", "nested-100000-deep", "trailing-comma"])
def test_config_the_cli_cannot_decode_exits_2(content, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    assert run(["tree-stats", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and err.count("\n") == 1


def test_config_echo_recovers_the_input_bytes():
    report = json.loads((GOLDEN / "tree_stats.json").read_text())
    assert report["config"].encode() == (FIXTURES / "tree_stats.json").read_bytes()
    reparsed = json.loads(report["config"])
    assert reparsed["depth"] == 40


def test_tree_stats_prints_a_vertex_count_past_4300_digits(tmp_path):
    spec = {"family": "gamma", "k": 10**100, "gamma": 3, "N": 44}
    config, out = tmp_path / "big.json", tmp_path / "report.json"
    config.write_text(json.dumps({"spec": spec, "depth": 10**22}))
    assert run(["tree-stats", "--config", str(config), "--out", str(out)]) == 0
    count = json.loads(out.read_text(), parse_int=Decimal)["payload"]["vertex_count"]
    assert len(str(count)) > 4400
    assert count == Decimal(ball_count(spec_from_record(spec), 10**22))


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


@pytest.mark.parametrize("subcommand,stem", [
    ("tree-stats", "tree_stats"),
    ("decompose", "decompose"),
    ("mc-exponent", "mc_exponent"),
    ("classify-theorems", "classify_theorems"),
])
def test_csv_is_refused_before_the_handler_runs(subcommand, stem, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("handler ran")

    monkeypatch.setitem(cli._HANDLERS, subcommand, no_run)
    config = str(FIXTURES / f"{stem}.json")
    assert run([subcommand, "--config", config, "--format", "csv"]) == 2
    assert capsys.readouterr().err == f"error: format: csv output is not defined for {subcommand}\n"


@pytest.mark.parametrize("subcommand,stem,header", [
    ("phase-diagram", "phase_diagram", PHASE_DIAGRAM_HEADER),
    ("efgp-run", "efgp_run", EFGP_RUN_HEADER),
])
def test_json_records_and_csv_lines_come_from_one_table(subcommand, stem, header, capsysbinary):
    config = str(FIXTURES / f"{stem}.json")
    assert run([subcommand, "--config", config, "--format", "json"]) == 0
    payload = json.loads(capsysbinary.readouterr().out)["payload"]
    records = payload["points" if subcommand == "phase-diagram" else "rows"]
    assert run([subcommand, "--config", config, "--format", "csv"]) == 0
    lines = capsysbinary.readouterr().out.decode().splitlines()
    fields = header.split(",")
    assert lines[0] == header
    assert len(records) == len(lines) - 1
    for record, line in zip(records, lines[1:]):
        assert list(record) == fields
        values = list(record.values())
        cells = line.split(",")
        assert [None if v is None else type(v)(c) for c, v in zip(cells, values)] == values
        assert all(c == "" for c, v in zip(cells, values) if v is None)


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
    for multiple in ("0", "1", "1e400"):
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


@pytest.mark.parametrize(
    "block,depth,error,message,status",
    [
        # the guard comes first, even for a block outside the spec
        (4, 100_001, GuardError, "depth 100001 exceeds the truncated-block solver guard (100000)", 3),
        # then the block number, even for a depth no block reaches
        (4, 2, ValidationError, "block: outside 0..n_branchings", 2),
        (3, 9, ValidationError, "depth: block starts beyond the truncation", 2),
    ],
)
def test_truncated_block_errors_and_spectrum_exit_codes(block, depth, error, message, status, tmp_path, capsys):
    spec = {"family": "gamma", "k": 2, "gamma": 3, "N": 3}  # levels 3, 9, 27
    with pytest.raises(error) as raised:
        truncated_block(spec_from_record(spec), block, depth)
    assert str(raised.value) == message
    config = tmp_path / "spectrum.json"
    config.write_text(json.dumps({"spec": spec, "depth": depth, "block": block}))
    assert run(["spectrum", "--config", str(config)]) == status
    prefix = "guard" if status == 3 else "error"
    assert capsys.readouterr().err == f"{prefix}: {message}\n"


def test_grid_guard_exits_3_naming_the_field(tmp_path, capsys):
    # One point past the guard, the grid's floats alone would take 24 MB:
    # refused before any grid is built, with a peak far below that.
    over = GRID_POINTS_GUARD + 1
    tree = {"family": "gamma", "k": 2, "gamma": 3, "N": 3}
    cases = [
        ("phase-diagram", {"k": 2, "gamma": 4, "energies": {"min": -1.0, "max": 1.0, "points": over}}, "points"),
        ("spectrum", {"spec": tree, "depth": 5, "coverage": {"eps": 0.05, "grid_points": over}}, "grid_points"),
    ]
    for subcommand, cfg, field in cases:
        config = tmp_path / "grid.json"
        config.write_text(json.dumps(cfg))
        tracemalloc.start()
        try:
            assert run([subcommand, "--config", str(config)]) == 3, subcommand
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024, subcommand
        assert capsys.readouterr().err.startswith(f"guard: {field}: {over} points"), subcommand


def test_floor_guard_exits_3_naming_the_field(tmp_path, capsys):
    # just over the floor-bits guard at gamma = 3 (13,000 floors fit), and
    # sizes whose N (N + 1) / 2 no float holds, which once exited 1
    gamma = {"family": "gamma", "k": 2, "gamma": 3}
    cases = [
        ("tree-stats", {"spec": {**gamma, "N": 13_100}, "depth": 5}, "N", 13_100),
        ("efgp-run", {"spec": {**gamma, "family": "omega", "N": 13_100, "seed": 1}, "phi": 1.0}, "N", 13_100),
        ("mc-exponent", {"k": 2, "gamma": 3, "phi": 1.0, "n_bumps": 13_100}, "n_bumps", 13_100),
        ("tree-stats", {"spec": {**gamma, "N": 10**400}, "depth": 5}, "N", 10**400),
        ("decompose", {"spec": {**gamma, "N": 10**300}, "depth": 5}, "N", 10**300),
        ("spectrum", {"spec": {**gamma, "N": 10**155}, "depth": 5}, "N", 10**155),
        ("efgp-run", {"spec": {**gamma, "family": "omega", "N": 10**155, "seed": 1}, "phi": 1.0}, "N", 10**155),
        ("mc-exponent", {"k": 2, "gamma": 3, "phi": 1.0, "n_bumps": 10**200}, "n_bumps", 10**200),
    ]
    for subcommand, cfg, field, n in cases:
        config = tmp_path / "floors.json"
        config.write_text(json.dumps(cfg))
        assert run([subcommand, "--config", str(config)]) == 3, subcommand
        assert capsys.readouterr().err.startswith(f"guard: {field}: {n} floors of gamma = 3 hold"), subcommand


def test_trials_guard_exits_3_naming_the_field(tmp_path, capsys, monkeypatch):
    # 8,385 trials of 2,001 points are just over MC_SAMPLES_GUARD (2**24)
    def no_trial(*args, **kwargs):
        raise AssertionError("trial drawn")

    monkeypatch.setattr("sparsetrees.spectral.sample_omega_tree", no_trial)
    config = tmp_path / "trials.json"
    config.write_text(json.dumps({"k": 2, "gamma": 3, "phi": 1.0, "n_bumps": 2000, "trials": 8385}))
    assert run(["mc-exponent", "--config", str(config)]) == 3
    assert capsys.readouterr().err.startswith("guard: trials: 8385 trials of 2001 points")


K_SQUARED_PAST_FLOAT = math.isqrt((1 << 1024) - (1 << 970) - 1) + 1


@pytest.mark.parametrize("subcommand,cfg", [
    # past about 1.35e154, 1 + k**2 is no float
    ("efgp-run", {"spec": {"family": "explicit", "k": [10**155], "L": [3]}, "phi": 1.0}),
    ("mc-exponent", {"k": 10**155, "gamma": 3, "phi": 1.0, "n_bumps": 4, "trials": 2}),
    # past about 1.8e308, k itself is no float
    ("spectrum", {"spec": {"family": "explicit", "k": [2 * 10**308], "L": [3]}, "depth": 6}),
    # sqrt(k) fits, but k + 1 rounds past the largest float
    ("spectrum", {"spec": {"family": "explicit", "k": [2**1024 - 2**970 - 1], "L": [3]}, "depth": 6,
                  "variant": "degree"}),
    # past about 7.2e308, (1 + k)**2 / (4 k) is no float
    ("phase-diagram", {"k": 8 * 10**308, "gamma": 4, "energies": [0.5]}),
    # the smallest k whose k * k rounds past the largest double
    ("efgp-run", {"spec": {"family": "explicit", "k": [2, K_SQUARED_PAST_FLOAT], "L": [3, 7]}, "phi": 1.0}),
])
def test_branching_factor_past_float_range_exits_2_naming_k(subcommand, cfg, tmp_path, capsys):
    config = tmp_path / "huge_k.json"
    config.write_text(json.dumps(cfg))
    assert run([subcommand, "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: k: branching factor too large for float arithmetic\n"


def test_branching_factor_inside_float_range_still_runs(tmp_path):
    # exact counting takes any k, and the phase diagram's threshold fits a float
    cases = [
        ("tree-stats", {"spec": {"family": "explicit", "k": [10**400], "L": [3]}, "depth": 6}),
        ("phase-diagram", {"k": 5 * 10**308, "gamma": 4, "energies": [0.5, 1.0]}),
        # the phase flow needs only k * k in float range
        ("efgp-run", {"spec": {"family": "explicit", "k": [2, K_SQUARED_PAST_FLOAT - 1], "L": [3, 7]}, "phi": 1.0}),
    ]
    for subcommand, cfg in cases:
        config = tmp_path / "big_k.json"
        config.write_text(json.dumps(cfg))
        assert run([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == 0


HUGE_GAMMA = {"family": "gamma", "k": 2, "gamma": "1e400", "N": 3}


@pytest.mark.parametrize("subcommand,cfg,status", [
    # past about 1.8e308, gamma is no float: refused, mc-exponent before its floors
    ("tree-stats", {"spec": HUGE_GAMMA, "depth": 5}, 2),
    ("phase-diagram", {"k": 2, "gamma": "1e400", "energies": [0.5]}, 2),
    ("mc-exponent", {"k": 2, "gamma": "1e400", "phi": 1.0, "n_bumps": 3, "trials": 2}, 2),
    # the floors and the phase flow are exact at any gamma
    ("efgp-run", {"spec": HUGE_GAMMA, "phi": 1.0}, 0),
    ("classify-theorems", {"spec": HUGE_GAMMA}, 0),
])
def test_growth_ratio_past_float_range_exits_2_naming_gamma(subcommand, cfg, status, tmp_path, capsys, monkeypatch):
    def no_floors(*args, **kwargs):
        raise AssertionError("floors built")

    monkeypatch.setattr("sparsetrees.spectral.make_gamma_tree", no_floors)
    config = tmp_path / "huge_gamma.json"
    config.write_text(json.dumps(cfg))
    assert run([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == status
    err = capsys.readouterr().err
    if status:
        assert err == "error: gamma: growth ratio too large for float arithmetic\n"
    else:
        assert err.startswith("elapsed_seconds=")


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


def test_an_exact_angle_is_parsed_once_per_op(tmp_path, monkeypatch):
    # phi_pi_multiple becomes its exact reducer in one parse, and that
    # reducer is the angle efgp_run and mc_exponent take
    parses = []

    def counting(real):
        def parse(*args):
            if args and str(args[0]) == "1/2":
                parses.append(args[0])
            return real(*args)

        return parse

    for name, module in list(sys.modules.items()):
        if name.startswith("sparsetrees") and hasattr(module, "Fraction"):
            monkeypatch.setattr(module, "Fraction", counting(module.Fraction))
    configs = {
        "efgp-run": {"spec": {"family": "explicit", "k": [2, 2, 2], "L": [3, 9, 27]}},
        "mc-exponent": {"k": 2, "gamma": 3, "n_bumps": 20, "trials": 2},
    }
    for subcommand, cfg in configs.items():
        config = tmp_path / "exact.json"
        config.write_text(json.dumps({**cfg, "phi_pi_multiple": "1/2"}))
        parses.clear()
        assert run([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert parses == ["1/2"], subcommand


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


TINY_PHI_SPEC = {"family": "explicit", "k": [2, 3, 2, 4], "L": [2, 5, 9, 14]}


@pytest.mark.parametrize("subcommand,cfg,message", [
    # sin(phi)**2 underflows: the kick divided by it (1e-300, 1e-170) or
    # overflowed to an infinite report value (1e-160)
    ("efgp-run", {"spec": TINY_PHI_SPEC, "phi": 1e-300}, "phi: sin(angle)^2 underflows"),
    ("efgp-run", {"spec": TINY_PHI_SPEC, "phi": 1e-170}, "phi: sin(angle)^2 underflows"),
    ("efgp-run", {"spec": TINY_PHI_SPEC, "phi": 1e-160}, "phi: sin(angle)^2 underflows"),
    ("mc-exponent", {"k": 2, "gamma": 3, "phi": 1e-300, "n_bumps": 4, "trials": 2}, "phi: sin(angle)^2 underflows"),
    ("efgp-run", {"spec": TINY_PHI_SPEC, "phi_pi_multiple": "1/" + "1" + "0" * 300},
     "phi_pi_multiple: sin(angle)^2 underflows"),
    # sin(phi)**2 is a normal double, but k's kick coefficients overflow
    ("mc-exponent", {"k": 10**9, "gamma": 3, "phi": 1e-150, "n_bumps": 4, "trials": 2},
     "phi: the kick coefficients of k = 1000000000 are not finite"),
    # an exact angle's refusals name its own field, wherever they are found
    ("efgp-run", {"spec": TINY_PHI_SPEC, "phi_pi_multiple": "1/" + "1" + "0" * 300, "rho": 0.3},
     "phi_pi_multiple: sin(angle)^2 underflows"),
    ("mc-exponent", {"k": 100, "gamma": 3, "phi_pi_multiple": "1e-154", "n_bumps": 4, "trials": 2},
     "phi_pi_multiple: the kick coefficients of k = 100 are not finite"),
])
def test_tiny_angle_exits_2_naming_the_field(subcommand, cfg, message, tmp_path, capsys):
    config = tmp_path / "tiny_phi.json"
    config.write_text(json.dumps(cfg))
    assert run([subcommand, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: " + message)


def check_each_kick_to_a_few_ulps(cfg: dict, reducer: PhaseReducer, tmp_path) -> None:
    """Run efgp-run on cfg, and hold each kick to the oracle's 8 units of
    log |G v| at the run's own entry angle."""
    config = tmp_path / "tiny_phi.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert run(["efgp-run", "--config", str(config), "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["payload"]["rows"]
    spec = spec_from_record(cfg["spec"])
    gaps = stretch_gaps(spec.branch_levels)
    for gap, k, before, row in zip(gaps, spec.branch_factors, rows[:-1], rows[1:], strict=True):
        entry = (before["theta"] + reducer.reduce(gap)) % (2.0 * math.pi)
        assert kick_error_units(row["Y_n"], k, reducer.angle, entry) <= 8, row


def test_efgp_run_near_the_band_edge_gives_each_kick_to_a_few_ulps(tmp_path):
    # At phi = 1e-100 the closed form a + b cos 2 theta + c sin 2 theta
    # rounded to 0 or below; the length of the outgoing vector does not
    # cancel, and each kick lies within the oracle's 8 units of log |G v|.
    check_each_kick_to_a_few_ulps({"spec": TINY_PHI_SPEC, "phi": 1e-100}, PhaseReducer(1e-100), tmp_path)


def test_efgp_run_where_the_kick_coefficients_overflow_gives_each_kick_to_a_few_ulps(tmp_path):
    # At 1e-154 pi, k = 100's kick coefficients are not finite, but the
    # flow needs only k * k in float range: it runs, each kick within 8 units
    spec = {"family": "gamma", "k": 100, "gamma": 3, "N": 4}
    reducer = PhaseReducer.from_pi_multiple("1e-154")
    check_each_kick_to_a_few_ulps({"spec": spec, "phi_pi_multiple": "1e-154"}, reducer, tmp_path)


# Replacement values for the fuzzed configs: zeros, signs, the ends of the
# float range, angles at and near the ends of (0, pi), sizes a guard or a
# short run handles, integers whose N (N + 1) / 2 is past float range,
# numbers past float range as strings, and wrong types.
FUZZ_VALUES = [0, -1, 5e-324, 1e-100, 1e-9, 1e308, math.pi / 2, math.pi, 10**4, 2**63, 10**155, 10**300,
               "1e400", "abc", None, True, [], {}]
FUZZ_ADDED = ["rho", "theta0", "phi_pi_multiple", "block", "n_bumps"]
FIXTURE_CONFIGS = {path.stem: json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))}


def config_fields(value) -> set:
    """Every key of a config, in nested mappings too."""
    if not isinstance(value, dict):
        return set()
    return set(value).union(*(config_fields(v) for v in value.values()))


CONFIG_FIELDS = set().union(*map(config_fields, FIXTURE_CONFIGS.values()), FUZZ_ADDED, ["config", "out"])


# Values past int64 or float range, that a single-field sweep sets each field to.
HUGE_VALUES = [2**63, 10**155, 10**300, "1e400"]


def fixture_copy(name: str) -> dict:
    """A fixture config to mutate.  A spec keeps at most 12 levels, so a
    run that exits 0 takes milliseconds."""
    cfg = json.loads(json.dumps(FIXTURE_CONFIGS[name]))
    if cfg.get("spec", {}).get("N", 0) > 12:  # 300 levels of a gamma past float range take a second
        cfg["spec"]["N"] = 12
    return cfg


def mutable_targets(cfg: dict) -> list[dict]:
    """The config and each of its mappings (spec, energies, coverage)."""
    return [cfg] + [v for v in cfg.values() if isinstance(v, dict) and v]


def mutable_fields(cfg: dict, target: dict) -> list[str]:
    """The fields of a target that a mutation may set: each of its own and,
    at the top, each of FUZZ_ADDED."""
    return sorted(target) + (FUZZ_ADDED if target is cfg else [])


def refusal_or_report(subcommand: str, cfg: dict, folder) -> str | None:
    """Run a mutated config through the CLI: None for a report or a
    refusal naming a config field, else what went wrong."""
    config = folder / "fuzzed.json"
    config.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = run([subcommand, "--config", str(config), "--out", str(config.with_suffix(".out"))])
    if status not in (0, 2, 3):
        return f"exit {status}: {err.getvalue()}"
    named = re.match(r"(?:error|guard): (\w+)", err.getvalue())
    if status and not (named and named.group(1) in CONFIG_FIELDS):
        return f"exit {status} naming no config field: {err.getvalue()}"
    return None


@st.composite
def mutated_fixtures(draw) -> tuple[str, dict]:
    """A fixture config (`fixture_copy`) with one or two fields replaced by
    FUZZ_VALUES, each in a target of `mutable_targets` from its
    `mutable_fields`; the subcommand run is the fixture's."""
    name = draw(st.sampled_from(sorted(FIXTURE_CONFIGS)))
    cfg = fixture_copy(name)
    for _ in range(draw(st.integers(1, 2))):
        target = draw(st.sampled_from(mutable_targets(cfg)))
        target[draw(st.sampled_from(mutable_fields(cfg, target)))] = draw(st.sampled_from(FUZZ_VALUES))
    return FIXTURE_CONFIGS[name]["subcommand"], cfg


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=mutated_fixtures())
def test_every_mutated_fixture_gives_a_report_or_a_refusal_naming_a_field(case, tmp_path_factory):
    problem = refusal_or_report(*case, tmp_path_factory.getbasetemp())
    assert problem is None, (case, problem)


def test_every_field_set_past_int64_or_float_range_gives_a_report_or_a_refusal(tmp_path):
    # Each field of each fixture, one at a time, at each of HUGE_VALUES:
    # the random draws above seldom set a spec's N, say, to a huge value.
    problems = []
    for name in sorted(FIXTURE_CONFIGS):
        subcommand = FIXTURE_CONFIGS[name]["subcommand"]
        base = fixture_copy(name)
        for place, target in enumerate(mutable_targets(base)):
            for field in mutable_fields(base, target):
                for value in HUGE_VALUES:
                    cfg = fixture_copy(name)
                    mutable_targets(cfg)[place][field] = value
                    problem = refusal_or_report(subcommand, cfg, tmp_path)
                    if problem is not None:
                        problems.append((name, field, value, problem))
    assert problems == []
