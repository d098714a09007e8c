"""Tests for the command-line interface."""

from __future__ import annotations

import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hardedge
from hardedge import cli, distributions, microscopic, specfun
from hardedge.cli import main
from hardedge.distributions import FiniteSpec, gap_finite, tabulate
from hardedge.microscopic import gap_micro, micro_density
from hardedge.montecarlo import SamplerConfig, exponential_correlation
from test_microscopic import _never_settles


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


def test_micro_density_rejects_u_past_its_bound(capsys: pytest.CaptureFixture[str]) -> None:
    # The density's series would take ~sqrt(u)/2 orders: 5e8 of them here.
    assert main(["micro", "--quantity", "density", "--nu", "4", "--u", "1e18"]) == 2
    assert "at most 1e8" in capsys.readouterr().err


@pytest.mark.parametrize("u", ["inf", "nan"])
@pytest.mark.parametrize("quantity", [["gap", "--k", "2"], ["smallest", "--k", "2"],
                                      ["density", "--nu", "2"]], ids=lambda q: q[0])
def test_micro_point_rejects_non_finite_u(quantity: list[str], u: str,
                                          capsys: pytest.CaptureFixture[str]) -> None:
    # A parameter error from the library, not a numerical failure.
    assert main(["micro", "--quantity", *quantity, "--u", u]) == 2
    assert re.search(f"u must be finite and (non-negative|positive), got {u}",
                     capsys.readouterr().err)


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


def test_manifest_duration_ignores_wall_clock_steps(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    # Each reading of the wall clock is an hour before the last, as if a
    # clock synchronisation stepped it back during the run; the recorded
    # duration must not go negative.
    readings = []

    def stepping_wall_clock() -> float:
        readings.append(None)
        return 1.7e9 - 3600.0 * len(readings)

    monkeypatch.setattr(cli.time, "time", stepping_wall_clock)
    assert main(["gap", "--p", "5", "--k", "1", "--points", "3"]) == 0
    manifest = (tmp_path / "gap_p5_k1.csv.manifest").read_text()
    duration = float(re.search(r"^duration_seconds: (\S+)$", manifest, re.MULTILINE)[1])
    assert 0.0 <= duration < 60.0


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


def test_computed_curve_breaking_an_invariant_fails_validation(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch,
        capsys: pytest.CaptureFixture[str]) -> None:
    # Rising gap values are a failed validation (exit 3), not a parameter
    # error: the request itself is valid.
    monkeypatch.setitem(distributions._CURVES, "gap", lambda p, k, ts: list(ts))
    assert main(["gap", "--p", "5", "--k", "1", "--t-min", "0.1",
                 "--t-max", "0.2", "--points", "2"]) == 3
    assert "gap values increase at t=0.2" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_overflowing_tail_prints_only_the_error_line(tmp_path: Path) -> None:
    # Overflow inside the kernel assembly is reported once, by the exit-3
    # line, and not also as numpy warnings on stderr.
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hardedge.cli",
         "smallest", "--p", "500", "--k", "4", "--t-min", "19", "--t-max", "21",
         "--points", "3"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "HARDEDGE_OUTDIR": str(tmp_path)})
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
    assert re.search(r"^note: cdf_interpolation: \d+ nodes, tail \d\.\de-\d+$",
                     manifest, re.MULTILINE), manifest
    assert "threads" not in manifest


# Tops like those of real runs: the largest sample times 1.01, for 200
# samples at p = 200 (nu = 0, 4, 8 in u; nu = 4 in lambda) and 2000 at p = 10.
@pytest.mark.parametrize("k, p, top", [
    pytest.param(0, None, 35.0, id="micro-k0"),
    pytest.param(2, None, 130.0, id="micro-k2"),
    pytest.param(4, None, 300.0, id="micro-k4"),
    pytest.param(4, 10, 3.5, id="finite-p10-k4"),
    pytest.param(2, 200, 0.16, id="finite-p200-k2"),
])
def test_cdf_interpolant_matches_direct_evaluation(k: int, p: int | None,
                                                   top: float) -> None:
    quantity = "gap_micro" if p is None else "gap"
    cdf, nodes, tail = cli._interpolated_cdf(
        lambda xs: tabulate(quantity, k, xs, p=p).values, top, "test curve")
    assert nodes <= cli.CDF_MAX_NODES
    assert tail <= cli.CDF_TAIL

    def evaluate(x: float) -> float:
        return gap_micro(k, x) if p is None else gap_finite(FiniteSpec(p=p, k=k, t=x))

    xs = np.linspace(0.0, top, 99)[1:-1]
    worst = max(abs(cdf(x) - (1.0 - evaluate(x))) for x in xs)
    assert worst <= 1e-9, f"worst error {worst:.2e} at {nodes} nodes"


def test_cdf_interpolant_rejects_a_step() -> None:
    calls = []

    def step(xs: list[float]) -> list[float]:
        calls.append(list(xs))
        return [float(x < 0.3) for x in xs]

    with pytest.raises(RuntimeError, match=r"step curve, top=1 .* at 257 Chebyshev nodes"):
        cli._interpolated_cdf(step, 1.0, "step curve")
    # One call per node set, each increasing, the first from x = 0.  The
    # sets nest, so each doubling evaluates only the new points.
    assert [len(xs) for xs in calls] == [33, 32, 64, 128]
    assert calls[0][0] == 0.0
    assert all(xs == sorted(set(xs)) for xs in calls)
    points = [x for xs in calls for x in xs]
    assert len(points) == len(set(points)) == 257


def test_mc_unsettled_cdf_fails_validation(
        tmp_path: Path, monkeypatch: pytest.MonkeyPatch,
        capsys: pytest.CaptureFixture[str]) -> None:
    monkeypatch.setitem(distributions._CURVES, "gap_micro",
                        lambda p, k, us: [float(u < 2.0) for u in us])
    assert main(["mc", "--p", "5", "--nu", "2", "--samples", "50",
                 "--compare", "micro"]) == 3
    err = capsys.readouterr().err
    assert "--compare micro (k=1, p=5), top=" in err
    assert "at 257 Chebyshev nodes" in err
    assert not list(tmp_path.glob("mc_*"))


def test_mc_settles_where_gap_values_are_noisy(
        tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    # At k = 6 the gap values carry noise of ~1e-8 (the Pfaffian assembly
    # loses digits), far below the sixth decimal that ks_distance prints.
    assert main(["mc", "--p", "50", "--nu", "12", "--samples", "500",
                 "--compare", "micro"]) == 0
    assert "ks_distance:" in capsys.readouterr().out
    manifest = (tmp_path / "mc_p50_nu12.csv.manifest").read_text()
    assert "note: cdf_interpolation: 33 nodes" in manifest, manifest


def test_threads_option_is_gone() -> None:
    with pytest.raises(SystemExit) as info:
        main(["--threads", "2", "mc", "--p", "10", "--nu", "4",
              "--samples", "20"])
    assert info.value.code == 2


def test_mc_seeded_reruns_are_identical(tmp_path: Path) -> None:
    # The samples and every note on them (the KS distance, the CDF's nodes
    # and tail) repeat for either analytic curve.
    def notes(name: str) -> list[str]:
        manifest = (tmp_path / f"{name}.manifest").read_text()
        return [line for line in manifest.splitlines() if line.startswith("note: ")]

    for compare in ("micro", "finite"):
        base = ["mc", "--p", "5", "--nu", "2", "--samples", "300",
                "--seed", "7", "--compare", compare]
        first, second = f"a_{compare}.csv", f"b_{compare}.csv"
        assert main(base + ["--out", first]) == 0
        assert main(base + ["--out", second]) == 0
        assert (tmp_path / first).read_bytes() == (tmp_path / second).read_bytes()
        assert len(notes(first)) == 4
        assert notes(first) == notes(second)


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


@pytest.mark.parametrize("entry", [math.inf, math.nan])
def test_mc_rejects_non_finite_correlation(tmp_path: Path, entry: float,
                                           capsys: pytest.CaptureFixture[str]) -> None:
    # A parameter error naming the entry, with no warning on the way (a
    # RuntimeWarning is an error under this suite's settings).
    bad = tmp_path / "bad.csv"
    matrix = np.eye(4)
    matrix[2, 2] = entry
    np.savetxt(bad, matrix, delimiter=",")
    assert main(["mc", "--p", "4", "--nu", "2", "--samples", "10",
                 "--c-file", str(bad), "--compare", "micro"]) == 2
    assert f"non-finite entries: [2, 2] = {entry}" in capsys.readouterr().err


def _file_correlation(path: Path, p: int) -> np.ndarray:
    # What mc does with --c-file: read the file, then validate its matrix.
    return SamplerConfig(p=p, n=p, num_samples=1, seed=0,
                         correlation=cli._read_matrix(str(path))).correlation


def test_read_correlation_file(tmp_path: Path) -> None:
    good = tmp_path / "corr.csv"
    matrix = exponential_correlation(4, decay=0.3)
    np.savetxt(good, matrix, delimiter=",")
    loaded = _file_correlation(good, 4)
    assert np.allclose(loaded, matrix, atol=1e-12)

    wrong_size = tmp_path / "wrong.csv"
    np.savetxt(wrong_size, np.eye(3), delimiter=",")
    with pytest.raises(ValueError):
        _file_correlation(wrong_size, 4)

    asymmetric = tmp_path / "asym.csv"
    skew = np.eye(4)
    skew[0, 1] = 1e-3
    np.savetxt(asymmetric, skew, delimiter=",")
    with pytest.raises(ValueError):
        _file_correlation(asymmetric, 4)

    indefinite = tmp_path / "indef.csv"
    bad = np.eye(4)
    bad[0, 1] = bad[1, 0] = 2.0
    np.savetxt(indefinite, bad, delimiter=",")
    with pytest.raises(ValueError):
        _file_correlation(indefinite, 4)


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
def test_non_finite_correlation_file_is_named(tmp_path: Path, entry: float) -> None:
    matrix = np.eye(3)
    matrix[0, 0] = matrix[1, 2] = entry
    path = tmp_path / "corr.csv"
    np.savetxt(path, matrix, delimiter=",")
    named = rf"non-finite entries: \[0, 0\] = {entry}, \[1, 2\] = {entry}$"
    with pytest.raises(ValueError, match=named):
        _file_correlation(path, 3)


@pytest.mark.parametrize("text", ["", " \n\t\n\n", "# no rows\n\n"])
def test_mc_rejects_an_empty_correlation_file(text: str, tmp_path: Path,
                                              capsys: pytest.CaptureFixture[str]) -> None:
    # A parameter error naming the file; numpy's no-data warning, which
    # this suite's settings make an error, is never reached.
    empty = tmp_path / "empty.csv"
    empty.write_text(text, encoding="utf-8")
    assert main(["mc", "--p", "2", "--nu", "0", "--samples", "10",
                 "--c-file", str(empty), "--compare", "micro"]) == 2
    err = capsys.readouterr().err
    assert err == f"parameter error: correlation file {empty} holds no matrix\n"


def test_mc_correlation_needs_hard_edge_comparison(
        tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    # The finite-p law is that of uncorrelated samples; only the hard-edge
    # comparison applies the correlation's scale.
    good = tmp_path / "good.csv"
    np.savetxt(good, 0.5 ** np.abs(np.subtract.outer(np.arange(4), np.arange(4))),
               delimiter=",")
    assert main(["mc", "--p", "4", "--nu", "2", "--samples", "10",
                 "--c-file", str(good)]) == 2
    assert "--compare micro" in capsys.readouterr().err
    assert not list(tmp_path.glob("mc_*"))
    assert main(["mc", "--p", "4", "--nu", "2", "--samples", "10",
                 "--c-file", str(good), "--compare", "micro"]) == 0


def test_mc_correlation_file_is_factored_once(tmp_path: Path,
                                              monkeypatch: pytest.MonkeyPatch) -> None:
    # The file's matrix is validated once, by the sampler's configuration,
    # whose spectrum the draws and the hard-edge scale then read.
    good = tmp_path / "good.csv"
    np.savetxt(good, 0.5 ** np.abs(np.subtract.outer(np.arange(6), np.arange(6))),
               delimiter=",")
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert main(["mc", "--p", "6", "--nu", "2", "--samples", "10",
                 "--c-file", str(good), "--compare", "micro"]) == 0
    assert calls == [(6, 6)]


@pytest.mark.parametrize("argv, seeds, notes", [
    (["gap", "--p", "6", "--k", "1", "--points", "5"], "none", 0),
    (["smallest", "--p", "6", "--k", "1", "--points", "5"], "none", 0),
    (["micro", "--quantity", "gap", "--k", "1", "--points", "5"], "none", 0),
    (["mc", "--p", "5", "--nu", "2", "--samples", "50", "--seed", "3"], "3", 4),
    (["converge", "--k", "1", "--p", "7,19", "--points", "5"], "none", 2),
])
def test_manifest_line_order(argv: list[str], seeds: str, notes: int, tmp_path: Path,
                             capsys: pytest.CaptureFixture[str]) -> None:
    assert main(argv + ["--out", "run.csv"]) == 0
    lines = (tmp_path / "run.csv.manifest").read_text().splitlines()
    assert lines[0] == f"command: {argv[0]}"
    parameters = [line for line in lines if line.startswith("parameter ")]
    assert lines[1:1 + len(parameters)] == sorted(parameters)
    rest = lines[1 + len(parameters):]
    assert rest[0] == f"seeds: {seeds}"
    assert rest[1] == f"version: {hardedge.__version__}"
    assert rest[2].startswith("duration_seconds: ")
    assert rest[3] == f"output: {tmp_path / 'run.csv'}"
    assert len(rest) == 4 + notes
    assert all(line.startswith("note: ") for line in rest[4:])


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
    assert "max_rel_deviation p=9:" in printed
    assert "strictly decreasing" not in printed


def test_converge_flags_non_decreasing_sequence(
        capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["converge", "--k", "1", "--p", "19,7", "--u-min", "0.5",
                 "--u-max", "10", "--points", "8"]) == 3
    assert "not strictly decreasing" in capsys.readouterr().err


def test_converge_deviations_are_relative(
        capsys: pytest.CaptureFixture[str]) -> None:
    # At u <= 0.1 and k = 4 the limit is at most 7.6e-12 and the absolute
    # deviations at most 2e-11, which would all print as zero.
    assert main(["converge", "--k", "4", "--p", "10,20", "--u-min", "0.01",
                 "--u-max", "0.1", "--points", "5"]) == 0
    printed = capsys.readouterr().out
    found = dict(re.findall(r"max_rel_deviation p=(\d+): (\S+)", printed))
    assert float(found["10"]) == pytest.approx(2.556, rel=1e-3), printed
    assert float(found["20"]) == pytest.approx(1.012, rel=1e-3), printed
    # At k = 11 the densities are 1e-36 to 1e-19 and the finite-p digits at
    # this topology are not yet trusted (the limit is the Fredholm
    # determinant's), so only the shape is pinned: p = 10 is ~2,000 times
    # the limit, p = 20 ~100 times.
    assert main(["converge", "--k", "11", "--p", "10,20", "--points", "5"]) == 0
    printed = capsys.readouterr().out
    found = dict(re.findall(r"max_rel_deviation p=(\d+): (\S+)", printed))
    assert 1.0 <= float(found["20"]) < float(found["10"]), printed


def test_converge_rejects_an_underflowing_limit(
        tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["converge", "--k", "0", "--p", "10,20", "--u-min", "6000",
                 "--u-max", "7000", "--points", "2"]) == 3
    assert "underflows to 0" in capsys.readouterr().err
    assert not (tmp_path / "converge_k0.csv").exists()


def test_converge_rejects_impossible_densities(
        tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    # At k = 11 and u near 1000 the finite-p assembly loses every digit; the
    # negative densities are a numerical failure, reported instead of written.
    assert main(["converge", "--k", "11", "--p", "10,20", "--u-min", "900",
                 "--u-max", "1000", "--points", "2"]) == 3
    assert "numerical validation failed" in capsys.readouterr().err
    assert not (tmp_path / "converge_k11.csv").exists()


def test_unsettled_quadrature_fails_validation(
        monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]) -> None:
    # At k = 3, u = 400 the gap is 3.9e-9, so the Fredholm determinant
    # declines and the Pfaffian's kernel quadrature climbs the ladder.  The
    # fake breaks only the ladder's orders, so the determinant's few nodes
    # stay exact and the failure is the quadrature's.
    monkeypatch.setattr(specfun, "_gauss_legendre", _never_settles)
    assert main(["micro", "--quantity", "gap", "--k", "3", "--u", "400"]) == 3
    assert "order 768" in capsys.readouterr().err


# Every quadrature starts at order 48 and doubles up to 768.
LADDER = {48 * 2 ** j for j in range(5)}
# The limit's Fredholm determinant takes one of these fixed node counts.
FREDHOLM_COUNTS = {count for _, count, _ in microscopic._FREDHOLM_RUNGS}


@pytest.mark.parametrize("argv", [
    ["micro", "--quantity", "smallest", "--k", "3", "--u-min", "20", "--u-max", "250"],
    ["mc", "--p", "200", "--nu", "4", "--samples", "200", "--compare", "micro"],
    ["converge", "--k", "4", "--p", "10,20,40"],
], ids=["micro", "mc", "converge"])
def test_cold_run_climbs_one_quadrature_ladder(
        argv: list[str], monkeypatch: pytest.MonkeyPatch,
        capsys: pytest.CaptureFixture[str]) -> None:
    # Tricomi U and the limiting kernel share one ladder of rules, and the
    # Fredholm determinant takes fixed node counts,
    # so a cold run caches at most those rules instead of one rule per u.
    # A run whose limit points the determinant serves takes no ladder rule.
    # Its Nystrom layouts are cached once per (nodes, points) pair used.
    asked, gauss_legendre = [], specfun._gauss_legendre
    pairs, nystrom = [], microscopic._nystrom

    def recorded(n):
        asked.append(n)
        return gauss_legendre(n)

    def recorded_pair(m, d):
        pairs.append((m, d))
        return nystrom(m, d)

    monkeypatch.setattr(specfun, "_GL_CACHE", {})
    monkeypatch.setattr(microscopic, "_NYSTROM", {})
    monkeypatch.setattr(specfun, "_gauss_legendre", recorded)
    monkeypatch.setattr(microscopic, "_nystrom", recorded_pair)
    assert main(argv) == 0
    assert set(asked) <= LADDER | FREDHOLM_COUNTS, sorted(set(asked))
    assert len(specfun._GL_CACHE) <= len(LADDER) + len(FREDHOLM_COUNTS)
    assert len(microscopic._NYSTROM) <= len(set(pairs)), sorted(set(pairs))


def test_selftest_passes(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["selftest"]) == 0
    printed = capsys.readouterr().out
    assert "FAIL" not in printed
    assert printed.count("PASS") == 8


def test_cli_import_leaves_oracles_unloaded() -> None:
    # The reference package and the nested quadratures it needs stay out of
    # every command but selftest; the sample CDFs need no scipy.interpolate.
    script = ("import sys\n"
              "import hardedge.cli\n"
              "print([m for m in ('hardedge.reference', 'scipy.integrate', 'scipy.interpolate')\n"
              "       if m in sys.modules])\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_needs_no_root_finder() -> None:
    # Tricomi U locates its window in closed form and by doubling out from
    # the Laplace estimate; scipy.optimize would cost every invocation its
    # import.
    script = ("import sys\n"
              "import hardedge.cli\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_unknown_command_exits_with_usage() -> None:
    with pytest.raises(SystemExit) as info:
        main(["spectral-form-factor"])
    assert info.value.code == 2
