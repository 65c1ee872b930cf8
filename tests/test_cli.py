"""Config parsing, table emission and exit codes of the batch front end."""

import numpy as np
import pytest

from sdgflow import cli
from sdgflow.cli import (
    CSV_HEADER,
    ConfigError,
    check_tables,
    main,
    parse_config,
)
from sdgflow.solver import BACKWARD_EULER, BDF2, SolverError
from sdgflow.verify import StudyRow


# ----- parsing ----------------------------------------------------------------


def test_defaults_applied():
    cfg = parse_config("mesh = 2\n")
    assert cfg.mode == "single"
    assert cfg.scheme == BACKWARD_EULER
    assert cfg.k == 1
    assert cfg.epsilon == 1.0 and cfg.alpha == 1.0 and cfg.beta == 1.0
    assert cfg.final_time == 0.1
    assert cfg.problem == "manufactured"
    # Backward Euler pairs N = (1/h)^2 with each mesh.
    assert cfg.timesteps == [4]


def test_scheme_aliases_and_step_pairing():
    cfg = parse_config("mesh = [2, 4]\nmode = convergence\nscheme = second-order\n")
    assert cfg.scheme == BDF2
    assert cfg.timesteps == [2, 4]
    assert parse_config("mesh = 2\nscheme = backward-euler\n").scheme == BACKWARD_EULER


def test_scientific_notation_exact():
    assert parse_config("mesh = 2\nepsilon = 1e-4\n").epsilon == 1e-4


def test_comments_and_blank_lines():
    cfg = parse_config("# study\n\nmesh = 2  # one cell\nbeta = 0\n")
    assert cfg.mesh == [2] and cfg.beta == 0.0


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "mesh"),
        ("mesh = 2\nfrobnicate = 1\n", "frobnicate"),
        ("mesh = 2\nepsilon = fast\n", "epsilon"),
        ("mesh = 2\nmesh = 3\n", "duplicate"),
        ("mesh = [2, 4\n", "mesh"),
        ("mesh = []\n", "mesh"),
        ("mesh =\n", "mesh"),
        ("just words\n", "key = value"),
        ("mesh = 2\nscheme = leapfrog\n", "scheme"),
        ("mesh = 2\nk = 0\n", "k"),
        ("mesh = 2\nalpha = 0\n", "alpha"),
        ("mesh = 2\nfinal_time = -1\n", "final_time"),
        ("mesh = [2, 4]\n", "single"),
        ("mesh = [4, 2]\nmode = convergence\n", "refine"),
        ("mesh = [2, 4]\nmode = convergence\ntimesteps = 7\n", "timesteps"),
        ("mesh = 2\nepsilon = [1, 2]\n", "sweep"),
        ("mesh = 2\nmode = sweep\n", "sweep"),
        ("mesh = 2\nmode = sweep\nepsilon = [1]\nbeta = [1, 2]\n", "sweep"),
        ("mesh = 2\nquiet = 3\n", "quiet"),
        ("mesh = 2\nmode = sweep\nepsilon = [1, 1]\n", "repeated"),
    ],
)
def test_parse_errors_name_the_problem(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def test_overrides_are_validated():
    # A --mode flag must pass the same checks as a config value.
    with pytest.raises(ConfigError, match="single"):
        parse_config("mesh = [2, 4]\nmode = convergence\n", {"mode": "single"})


# ----- table checking ----------------------------------------------------------


def _row(**kw):
    base = dict(
        epsilon=1.0,
        alpha=1.0,
        beta=1.0,
        scheme=BACKWARD_EULER,
        inv_h=2,
        n_steps=4,
        err_u=1e-2,
        ord_u=None,
        err_L=1e-1,
        ord_L=None,
        err_p=5e-2,
        ord_p=None,
    )
    base.update(kw)
    return StudyRow(**base)


def _ref_line(eu, ou, eL, oL, ep, op, inv_h=2, n=4):
    return (
        f"1.0,1.0,1.0,backward-euler,{inv_h},{n},"
        f"{eu:.6e},{ou},{eL:.6e},{oL},{ep:.6e},{op}"
    )


def test_check_tables_accepts_within_factor():
    rows = [_row()]
    ref = "\n".join([CSV_HEADER, _ref_line(1.4e-2, "N/A", 0.8e-1, "N/A", 6e-2, "N/A")])
    assert check_tables(rows, ref) == []


def test_check_tables_flags_error_and_order():
    rows = [_row(ord_u=2.0)]
    ref = "\n".join(
        [
            CSV_HEADER,
            _ref_line(2.1e-2, "1.70", 1e-1, "N/A", 5e-2, "N/A"),
            _ref_line(1e-3, "N/A", 1e-2, "N/A", 1e-3, "N/A", inv_h=4, n=16),
        ]
    )
    failures = check_tables(rows, ref)
    assert any("err_u" in f for f in failures)
    assert any("ord_u" in f for f in failures)
    assert any("missing row" in f for f in failures)


@pytest.mark.parametrize(
    "got, want, agree",
    [(2.0, "nan", False), (float("nan"), "2.00", False), (float("nan"), "nan", True)],
)
def test_check_tables_nan_order_matches_only_nan(got, want, agree):
    rows = [_row(ord_u=got)]
    ref = "\n".join([CSV_HEADER, _ref_line(1e-2, want, 1e-1, "N/A", 5e-2, "N/A")])
    failures = check_tables(rows, ref)
    assert len(failures) == (0 if agree else 1)
    assert all("ord_u" in f for f in failures)


def test_check_tables_rejects_bad_header():
    with pytest.raises(ConfigError, match="header"):
        check_tables([_row()], "a,b,c\n1,2,3\n")


@pytest.mark.parametrize(
    "line",
    [
        _ref_line(1e-2, "N/A", 1e-1, "N/A", 5e-2, "N/A") + ",1",
        _ref_line(1e-2, "N/A", 1e-1, "N/A", 5e-2, "N/A").replace("1.000000e-02", "abc"),
        _ref_line(1e-2, "N/A", 1e-1, "N/A", 5e-2, "N/A").replace(",2,4,", ",2.5,4,"),
    ],
)
def test_check_tables_rejects_malformed_rows(line):
    with pytest.raises(ConfigError, match="malformed row"):
        check_tables([_row()], "\n".join([CSV_HEADER, line]))


# ----- end-to-end runs ----------------------------------------------------------


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_zero_problem_single_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "mesh = 3\ntimesteps = 5\nproblem = zero\nstep_log = true\n")
    out = tmp_path / "artifacts"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[6] == "0.000000e+00" and fields[10] == "0.000000e+00"
    steps = (out / "steps.csv").read_text().splitlines()
    assert steps[0].startswith("step,time,picard_iterations")
    assert len(steps) == 6
    assert "err_u" in capsys.readouterr().out


def test_convergence_run_and_check_tables(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "mode = convergence\nmesh = [2, 4]\ntimesteps = [4, 16]\n",
    )
    out = tmp_path / "a"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "Order" in text and "N/A" in text
    csv_text = (out / "results.csv").read_text()
    lines = csv_text.splitlines()
    assert len(lines) == 3
    ord_u = float(lines[2].split(",")[7])
    assert 1.5 < ord_u < 2.5

    # The produced table is its own passing reference...
    ref = tmp_path / "ref.csv"
    ref.write_text(csv_text)
    assert main(["solve", "--config", cfg, "--check-tables", str(ref), "--quiet"]) == 0
    # ...and a doctored error outside the 1.5x band is a regression.
    doctored = csv_text.replace(lines[2].split(",")[6], "9.999999e-01")
    ref.write_text(doctored)
    assert main(["solve", "--config", cfg, "--check-tables", str(ref), "--quiet"]) == 3
    assert "table regression" in capsys.readouterr().err


def test_csv_output_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "mesh = 2\nbeta = 10\n")
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        outs.append((out / "results.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_blocks(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "mode = sweep\nmesh = [2]\nepsilon = [1, 1e-2, 0]\nproblem = zero\n",
    )
    out = tmp_path / "sweep"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.count("epsilon =") == 3
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("1.0,") and lines[2].startswith("0.01,")
    assert lines[3].startswith("0.0,")
    # Every cell, the Darcy limit eps = 0 included, has exactly zero errors.
    for line in lines[1:]:
        assert line.split(",")[6::2] == ["0.000000e+00"] * 3


def test_strong_drag_sweep_converges(tmp_path):
    # At beta = 1e4 with dt = 0.025 the frozen-speed drag iteration does
    # not contract at all (exit 2 after 50 sweeps); Newton converges.
    cfg = write_cfg(
        tmp_path,
        "mode = sweep\nmesh = 4\nscheme = bdf2\nbeta = [1.0, 100.0, 1e4]\n"
        "final_time = 0.1\nquiet = true\n",
    )
    out = tmp_path / "drag"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert len((out / "results.csv").read_text().splitlines()) == 4


def test_quiet_suppresses_tables(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "mesh = 2\nproblem = zero\n")
    assert main(["solve", "--config", cfg, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 1
    bad = write_cfg(tmp_path, "mesh = 2\nwhat = 1\n", name="bad.cfg")
    assert main(["solve", "--config", bad]) == 1
    capsys.readouterr()

    ok = write_cfg(tmp_path, "mesh = 2\nproblem = zero\n", name="ok.cfg")

    def boom(cfg):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(cli, "run_config", boom)
    assert main(["solve", "--config", ok]) == 2
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "mesh = 2\nepsilon = nan\n",
        "mesh = 2\nbeta = inf\n",
        "mesh = 2\nmode = sweep\nalpha = [1.0, nan]\n",
        "mesh = 2\nfinal_time = inf\n",
    ],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, text):
    # float() reads nan and inf; they stop at validation, not in the solver.
    cfg = write_cfg(tmp_path, text)
    assert main(["solve", "--config", cfg, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: key '") and "finite" in err
    assert "Traceback" not in err


def test_malformed_reference_fails_before_the_run(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, "mesh = 2\nproblem = zero\n")
    ref = tmp_path / "ref.csv"
    ref.write_text("a,b,c\n1,2,3\n")

    def must_not_run(cfg):
        raise AssertionError("the study ran before its reference was checked")

    monkeypatch.setattr(cli, "run_config", must_not_run)
    assert main(["solve", "--config", cfg, "--check-tables", str(ref)]) == 1
    assert "reference CSV" in capsys.readouterr().err
