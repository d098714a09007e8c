"""Tests for the command-line interface."""

from __future__ import annotations

import csv
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hardedge import cli
from hardedge.cli import main
from hardedge.distributions import FiniteSpec, gap_finite
from hardedge.microscopic import gap_micro, micro_density


@pytest.fixture(autouse=True)
def _outdir(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> Path:
    monkeypatch.setenv("HARDEDGE_OUTDIR", str(tmp_path))
    return tmp_path


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = np.array([[float(x) for x in row] for row in reader])
    return header, rows


def test_micro_point_prints_value(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["micro", "--quantity", "smallest", "--k", "0",
                 "--u", "1"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.startswith("0.2007230356946"), printed
    assert float(printed) == pytest.approx(0.375 * math.exp(-0.625), rel=1e-15)


@pytest.mark.parametrize("argv, want", [
    (["--quantity", "density", "--nu", "3", "--u", "1"], lambda: micro_density(3, 1.0)),
    (["--quantity", "gap", "--k", "2", "--u", "4"], lambda: gap_micro(2, 4.0)),
])
def test_micro_point_matches_library(argv: list[str], want,
                                     capsys: pytest.CaptureFixture[str]) -> None:
    # The density keeps odd nu; gap and smallest points go through tabulate.
    assert main(["micro"] + argv) == 0
    assert capsys.readouterr().out == f"{want():.17g}\n"


def test_micro_point_rejects_negative_u(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["micro", "--quantity", "smallest", "--k", "0", "--u", "-1"]) == 2


def test_micro_gap_at_zero(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["micro", "--quantity", "gap", "--k", "0", "--u", "0"]) == 0
    assert float(capsys.readouterr().out.strip()) == 1.0


def test_micro_density_curve(tmp_path: Path,
                             capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["micro", "--quantity", "density", "--nu", "2",
                 "--u-min", "0.5", "--u-max", "60", "--points", "12",
                 "--out", "rho.csv"]) == 0
    header, rows = _read_csv(tmp_path / "rho.csv")
    assert header == ["u", "value"]
    for u, value in rows:
        assert value == micro_density(2, u), "round-trip must be exact"


def test_micro_rejects_odd_topology_gap(
        capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["micro", "--quantity", "gap", "--nu", "3", "--u", "1"]) == 2
    assert "even topology" in capsys.readouterr().err


def test_micro_requires_k_or_nu(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["micro", "--quantity", "gap", "--u", "1"]) == 2


def test_gap_curve_csv_and_manifest(tmp_path: Path,
                                    capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["gap", "--p", "10", "--k", "2", "--t-min", "1e-3",
                 "--t-max", "3", "--points", "200"]) == 0
    out = tmp_path / "gap_p10_k2.csv"
    header, rows = _read_csv(out)
    assert header == ["t", "value"]
    assert rows.shape == (200, 2)
    assert np.all(np.diff(rows[:, 1]) <= 0.0), "gap curve must fall"
    spot = gap_finite(FiniteSpec(p=10, k=2, t=rows[17, 0]))
    assert rows[17, 1] == spot, "printed precision must round-trip exactly"

    manifest = (tmp_path / "gap_p10_k2.csv.manifest").read_text()
    assert "command: gap" in manifest
    assert "parameter p: 10" in manifest
    assert "duration_seconds:" in manifest
    assert f"output: {out}" in manifest


def test_gap_rerun_is_bit_identical(tmp_path: Path) -> None:
    args = ["gap", "--p", "6", "--k", "1", "--points", "40",
            "--out", "first.csv"]
    assert main(args) == 0
    assert main(["gap", "--p", "6", "--k", "1", "--points", "40",
                 "--out", "second.csv"]) == 0
    first = (tmp_path / "first.csv").read_bytes()
    second = (tmp_path / "second.csv").read_bytes()
    assert first == second


def test_smallest_curve_integrates_to_one(tmp_path: Path,
                                          capsys: pytest.CaptureFixture[str]
                                          ) -> None:
    assert main(["smallest", "--p", "10", "--k", "1", "--t-min", "1e-4",
                 "--t-max", "4", "--points", "800"]) == 0
    _, rows = _read_csv(tmp_path / "smallest_p10_k1.csv")
    total = np.trapezoid(rows[:, 1], rows[:, 0])
    assert abs(total - 1.0) <= 1e-3, f"trapezoid total {total}"


def test_gap_rejects_bad_grid(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["gap", "--p", "4", "--k", "0", "--t-min", "2",
                 "--t-max", "1"]) == 2
    assert "t-min" in capsys.readouterr().err


def test_out_of_range_point_is_a_parameter_error(
        capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["gap", "--p", "10", "--k", "2", "--t-min", "1",
                 "--t-max", "20000", "--points", "2"]) == 2
    assert "abscissa 20000.0" in capsys.readouterr().err


def test_overflowing_tail_prints_only_the_error_line(tmp_path: Path) -> None:
    # Overflow inside the kernel assembly is reported once, by the exit-3
    # line, and not also as numpy warnings on stderr.
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hardedge.cli",
         "smallest", "--p", "500", "--k", "4", "--t-min", "19", "--t-max", "21",
         "--points", "3"],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "HARDEDGE_OUTDIR": str(tmp_path)})
    assert done.returncode == 3, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("numerical validation failed:")
    assert "gamma=1, p=500, k=4, t=19.0" in lines[0]
    assert not list(tmp_path.glob("*.csv"))


def test_overflowing_tail_fails_validation(tmp_path: Path,
                                          capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["smallest", "--p", "500", "--k", "4", "--t-min", "19",
                 "--t-max", "21", "--points", "3"]) == 3
    assert "p=500, k=4, t=19.0" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_mc_run_reports_ks(tmp_path: Path,
                           capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["mc", "--p", "10", "--nu", "4",
                 "--samples", "2000", "--seed", "42",
                 "--compare", "finite"]) == 0
    printed = capsys.readouterr().out
    assert "ks_distance:" in printed
    header, rows = _read_csv(tmp_path / "mc_p10_nu4.csv")
    assert header == ["sample_index", "smallest_eigenvalue"]
    assert rows.shape == (2000, 2)
    assert np.all(rows[:, 1] > 0.0)
    manifest = (tmp_path / "mc_p10_nu4.csv.manifest").read_text()
    assert "seeds: 42" in manifest
    assert "note: ks_distance:" in manifest
    assert "threads" not in manifest


def test_threads_option_is_gone() -> None:
    with pytest.raises(SystemExit) as info:
        main(["--threads", "2", "mc", "--p", "10", "--nu", "4",
              "--samples", "20"])
    assert info.value.code == 2


def test_mc_seeded_reruns_are_identical(tmp_path: Path) -> None:
    base = ["mc", "--p", "5", "--nu", "2", "--samples", "300",
            "--seed", "7", "--compare", "micro"]
    assert main(base + ["--out", "a.csv"]) == 0
    assert main(base + ["--out", "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_mc_rejects_zero_samples() -> None:
    with pytest.raises(SystemExit) as info:
        main(["mc", "--p", "4", "--nu", "0", "--samples", "0"])
    assert info.value.code == 2


def test_mc_rejects_invalid_correlation(tmp_path: Path,
                                        capsys: pytest.CaptureFixture[str]
                                        ) -> None:
    bad = tmp_path / "bad.csv"
    matrix = np.eye(4)
    matrix[0, 1] = matrix[1, 0] = 3.0
    np.savetxt(bad, matrix, delimiter=",")
    assert main(["mc", "--p", "4", "--nu", "2", "--samples", "10",
                 "--c-file", str(bad)]) == 2
    assert "positive definite" in capsys.readouterr().err


def test_converge_emits_curves_and_deviations(
        tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["converge", "--k", "1", "--p", "7,19", "--u-min", "0.5",
                 "--u-max", "10", "--points", "12"]) == 0
    printed = capsys.readouterr().out
    assert "deviations strictly decreasing" in printed
    header, rows = _read_csv(tmp_path / "converge_k1.csv")
    assert header == ["u", "limit", "p=7", "p=19"]
    assert rows.shape == (12, 4)


def test_converge_single_size_skips_monotonicity(
        capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["converge", "--k", "0", "--p", "9", "--u-min", "0.5",
                 "--u-max", "8", "--points", "8"]) == 0
    printed = capsys.readouterr().out
    assert "max_abs_deviation p=9:" in printed
    assert "strictly decreasing" not in printed


def test_converge_flags_non_decreasing_sequence(
        capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["converge", "--k", "1", "--p", "19,7", "--u-min", "0.5",
                 "--u-max", "10", "--points", "8"]) == 3
    assert "not strictly decreasing" in capsys.readouterr().err


def test_selftest_passes(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["selftest"]) == 0
    printed = capsys.readouterr().out
    assert "FAIL" not in printed
    assert printed.count("PASS") == 8


def test_cli_import_leaves_oracles_unloaded() -> None:
    # The reference package and the nested quadratures it needs stay out of
    # every command but selftest.
    script = ("import sys\n"
              "import hardedge.cli\n"
              "print([m for m in ('hardedge.reference', 'scipy.integrate') if m in sys.modules])\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env={"PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_unknown_command_exits_with_usage() -> None:
    with pytest.raises(SystemExit) as info:
        main(["spectral-form-factor"])
    assert info.value.code == 2
