import csv
import io
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import bruteforce as bf
from anisodg import cli
from anisodg.assembly import assemble_operator_set
from anisodg.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SOLVER, RunConfig,
                         build_config, main, parse_config_file)
from anisodg.eigensolve import CompletenessError
from anisodg.fields import MagneticField
from anisodg.geometry import build_mesh

# a deliberately tiny configuration so CLI tests stay fast
TINY = ["--nx", "2", "--ny", "2", "--p_xi", "1", "--p_eta", "1",
        "--b1", "1", "--b2", "2", "--alignment", "cartesian",
        "--m_max", "3", "--n_max", "3"]


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def test_defaults_reproduce_reference_configuration():
    config = RunConfig()
    assert (config.nx, config.ny) == (8, 8)
    assert (config.p_xi, config.p_eta) == (7, 7)
    assert config.b1 == pytest.approx(1.165939761)
    assert config.eta_s == 6.0
    assert config.omega_max_sq == 0.2
    assert (config.m_max, config.n_max) == (20, 20)
    # auto alignment picks bottom/top for the reference direction
    assert config.mesh_config().alignment.value == "aligned_bottom_top"


def test_config_file_and_override_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nnx=4\nny=4\neta_s=2.0\n")
    config = build_config(str(path), {"eta_s": "3.5"})
    assert config.nx == 4
    assert config.eta_s == 3.5
    with pytest.raises(Exception):
        build_config(str(path), {"bogus_key": "1"})
    assert parse_config_file(path) == {"nx": "4", "ny": "4", "eta_s": "2.0"}


def test_config_round_trip():
    config = build_config(None, {"nx": "4", "eta_s": "2.5"})
    text = config.to_text()
    values = dict(line.split("=", 1) for line in text.strip().splitlines())
    rebuilt = build_config(None, values)
    assert rebuilt == config


def test_solve_writes_spectrum_csv(tmp_path):
    out = str(tmp_path)
    code = main(["solve", *TINY, "--output_dir", out])
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "spectrum.csv")
    assert rows, "no eigenpairs written"
    zero = [r for r in rows if (r["m"], r["n"]) == ("0", "0")]
    assert len(zero) == 1
    assert zero[0]["error_kind"] == "absolute"
    assert float(zero[0]["omega2_computed"]) < 1e-10


def test_solve_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", *TINY, "--output_dir", str(out_a)]) == EXIT_OK
    assert main(["solve", *TINY, "--output_dir", str(out_b)]) == EXIT_OK
    assert (out_a / "spectrum.csv").read_bytes() == \
        (out_b / "spectrum.csv").read_bytes()


def test_solve_matrix_dump(tmp_path):
    code = main(["solve", *TINY, "--dump_matrix", "1",
                 "--output_dir", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "matrix_a.txt").read_text().strip().splitlines()
    row, col, val = lines[0].split()
    assert int(row) >= int(col)  # lower triangle, 1-based
    float(val)


def test_solve_matrix_dump_matches_the_scalar_oracle(tmp_path):
    """The dump of the stencil's lazily expanded A on a 2x4 p1 mesh lists
    the same entries, in the same order, as the dump of the global scalar
    product ``C diag(1/M_u) C^T + P``, and the values agree to round-off.
    The values are not byte-identical: block and scalar products sum in
    different orders, and the last digits of about a third of the lines
    differ (as they did with the BSR product before)."""
    args = ["--nx", "2", "--ny", "4", "--p_xi", "1", "--p_eta", "1",
            "--m_max", "3", "--n_max", "3"]
    assert main(["solve", *args, "--dump_matrix", "1",
                 "--output_dir", str(tmp_path)]) == EXIT_OK
    got = (tmp_path / "matrix_a.txt").read_text().splitlines()
    setup = build_config(None, {"nx": "2", "ny": "4", "p_xi": "1",
                                "p_eta": "1"}).setup()
    ops = assemble_operator_set(build_mesh(setup.mesh_config), setup.spec,
                                setup.alpha,
                                MagneticField(setup.mesh_config.b, setup.beta),
                                setup.eta_s)
    buf = io.StringIO()
    bf.scalar_reduced(ops).dump_coordinate(buf)
    want = buf.getvalue().splitlines()
    assert [line.rsplit(" ", 1)[0] for line in got] == \
        [line.rsplit(" ", 1)[0] for line in want]
    values = [np.array([float(line.rsplit(" ", 1)[1]) for line in lines])
              for lines in (got, want)]
    assert np.max(np.abs(values[0] - values[1])) <= 1e-14 * np.max(np.abs(values[1]))


def test_invalid_mesh_exits_config_error(tmp_path):
    code = main(["solve", "--nx", "0", "--output_dir", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_incompatible_alignment_exits_config_error(tmp_path):
    code = main(["solve", *TINY[:-4], "--b1", "0", "--b2", "1",
                 "--alignment", "aligned_bottom_top", "--output_dir", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_missing_field_file_exits_io_error(tmp_path):
    code = main(["solve", *TINY, "--alpha_file", str(tmp_path / "absent.fld"),
                 "--output_dir", str(tmp_path)])
    assert code == EXIT_IO


def test_malformed_field_file_exits_io_error(tmp_path):
    bad = tmp_path / "bad.fld"
    bad.write_text("mean 1.0\n1 nope 0.1 0.0\n")
    code = main(["solve", *TINY, "--beta_file", str(bad),
                 "--output_dir", str(tmp_path)])
    assert code == EXIT_IO


#: ``solve`` at 2x8 p2, the size at which the bad inputs below were found
SMALL = ["--nx", "2", "--ny", "8", "--p_xi", "2", "--p_eta", "2"]


@pytest.mark.parametrize("option, value", [
    ("omega_max_sq", "nan"), ("omega_max_sq", "inf"), ("tolerance", "0"),
    ("b1", "nan"), ("eta_s", "nan")])
def test_bad_numeric_option_exits_config_error(tmp_path, option, value):
    """A non-finite float option, or a tolerance that is not positive, is a
    configuration error, not a traceback or a band certified from NaN."""
    code = main(["solve", *SMALL, f"--{option}", value, "--output_dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("key, text", [
    ("alpha_file", "mean nan\n"), ("beta_file", "mean inf\n"),
    ("alpha_file", "mean 1.0\n1 1 nan 0\n")],
    ids=["mean-nan", "mean-inf", "harmonic-nan"])
def test_non_finite_field_file_exits_io_error(tmp_path, caplog, key, text):
    """A NaN or inf in a field file is refused at load, naming its line."""
    fld = tmp_path / "field.fld"
    fld.write_text(text)
    code = main(["solve", *SMALL, f"--{key}", str(fld), "--output_dir", str(tmp_path)])
    assert code == EXIT_IO
    line = text.count("\n")
    assert any(f"field.fld:{line}:" in rec.message and "finite" in rec.message
               for rec in caplog.records)
    assert not (tmp_path / "spectrum.csv").exists()


def test_variable_coefficients_have_error_kind_none(tmp_path):
    fld = tmp_path / "alpha.fld"
    fld.write_text("mean 1.0\n1 1 0.2 0.0\n")
    code = main(["solve", *TINY, "--alpha_file", str(fld),
                 "--output_dir", str(tmp_path)])
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "spectrum.csv")
    assert rows
    assert all(r["error_kind"] == "none" for r in rows)
    assert all(r["omega2_exact"] == "" for r in rows)


def test_exact_spectrum_command(tmp_path):
    code = main(["exact-spectrum", "--m_max", "5", "--n_max", "5",
                 "--output_dir", str(tmp_path)])
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "exact_spectrum.csv")
    table = {(int(r["m"]), int(r["n"])): float(r["omega2"]) for r in rows}
    assert table[(4, -5)] == pytest.approx(0.11305798, rel=1e-8)
    assert table[(0, 0)] == 0.0
    assert len(rows) == 6 + 5 * 11


def test_convergence_command(tmp_path):
    code = main(["convergence", *TINY, "--levels", "2x2,4x4",
                 "--output_dir", str(tmp_path)])
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "convergence.csv")
    assert [r["level"] for r in rows] == ["0", "1"]
    assert int(rows[1]["DoF"]) == 4 * int(rows[0]["DoF"])
    float(rows[1]["slope"])
    for levels in ["2x8", "0x8,2x8"]:
        code = main(["convergence", *TINY, "--levels", levels,
                     "--output_dir", str(tmp_path)])
        assert code == EXIT_CONFIG, levels


def test_convergence_rejects_variable_coefficients(tmp_path):
    fld = tmp_path / "alpha.fld"
    fld.write_text("mean 1.0\n1 1 0.2 0.0\n")
    code = main(["convergence", *TINY, "--levels", "2x2,4x4",
                 "--alpha_file", str(fld), "--output_dir", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_compare_equal_sides_is_neutral(tmp_path):
    code = main(["compare", *TINY, "--cmp_alignment", "cartesian",
                 "--output_dir", str(tmp_path)])
    assert code == EXIT_OK
    rows = read_csv(tmp_path / "compare.csv")
    assert rows
    assert all(abs(float(r["improvement_decades"])) < 1e-12 for r in rows)


def test_compare_rejects_dof_mismatch(tmp_path):
    code = main(["compare", *TINY, "--cmp_nx", "3",
                 "--output_dir", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_sweep_sorted_and_combined(tmp_path):
    code = main(["sweep", "--nx", "2", "--ny", "2", "--p_xi", "1",
                 "--p_eta", "1", "--alignment", "aligned_bottom_top",
                 "--m_max", "2", "--n_max", "2",
                 "--s_values", "1,0,0.5", "--output_dir", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "spectrum_s0.csv").exists()
    assert (tmp_path / "spectrum_s1.csv").exists()
    rows = read_csv(tmp_path / "sweep.csv")
    s_values = [float(r["s"]) for r in rows]
    assert s_values == sorted(s_values)
    assert set(s_values) == {0.0, 0.5, 1.0}


def test_sweep_validates_s_range(tmp_path):
    code = main(["sweep", "--s_values", "0,2", "--output_dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    code = main(["sweep", "--output_dir", str(tmp_path)])
    assert code == EXIT_CONFIG


SWEEP_2X2 = ["sweep", "--nx", "2", "--ny", "2", "--p_xi", "1", "--p_eta", "1",
             "--alignment", "aligned_bottom_top", "--m_max", "2", "--n_max", "2",
             "--s_values", "0,0.5,1"]


def test_sweep_releases_each_surface(tmp_path, monkeypatch):
    """Each surface's result is gone before the next surface is solved."""
    earlier = []
    run_band_solve = cli.run_band_solve

    def tracked(setup):
        assert all(ref() is None for ref in earlier)
        result = run_band_solve(setup)
        earlier.append(weakref.ref(result))
        return result

    monkeypatch.setattr(cli, "run_band_solve", tracked)
    assert main(SWEEP_2X2 + ["--output_dir", str(tmp_path)]) == EXIT_OK
    assert len(earlier) == 3


def test_failed_sweep_keeps_earlier_surfaces(tmp_path, monkeypatch):
    """A solver failure on one surface exits 3 and keeps the spectrum CSVs of
    the surfaces solved before it; no sweep.csv is written."""
    calls = []
    run_band_solve = cli.run_band_solve

    def failing(setup):
        calls.append(setup)
        if len(calls) == 2:
            raise CompletenessError("band not certified")
        return run_band_solve(setup)

    assert main(SWEEP_2X2 + ["--output_dir", str(tmp_path / "whole")]) == EXIT_OK
    calls.clear()
    monkeypatch.setattr(cli, "run_band_solve", failing)
    failed = tmp_path / "failed"
    assert main(SWEEP_2X2 + ["--output_dir", str(failed)]) == EXIT_SOLVER
    assert len(calls) == 2
    assert sorted(p.name for p in failed.iterdir()) == ["spectrum_s0.csv"]
    assert ((failed / "spectrum_s0.csv").read_bytes()
            == (tmp_path / "whole" / "spectrum_s0.csv").read_bytes())


def test_sweep_per_surface_field_files(tmp_path):
    (tmp_path / "alpha_0.0.fld").write_text("mean 1.0\n")
    (tmp_path / "alpha_1.0.fld").write_text("mean 2.0\n")
    code = main(["sweep", "--nx", "2", "--ny", "2", "--p_xi", "1",
                 "--p_eta", "1", "--alignment", "aligned_bottom_top",
                 "--m_max", "2", "--n_max", "2", "--s_values", "0,1",
                 "--alpha_file", str(tmp_path / "alpha_{s}.fld"),
                 "--output_dir", str(tmp_path)])
    assert code == EXIT_OK
    # doubling alpha halves the eigenvalues: check the first nonzero branch
    rows0 = read_csv(tmp_path / "spectrum_s0.csv")
    rows1 = read_csv(tmp_path / "spectrum_s1.csv")
    assert rows0 and rows1


def test_sweep_reads_each_field_file_once(tmp_path, monkeypatch):
    """A shared field file is read and checked once per sweep, however many
    surfaces and keys name it; an "{s}" file once per surface."""
    shared = tmp_path / "shared.fld"
    shared.write_text("mean 1.0\n0 1 0.1 0.0\n")
    for s in ("0.0", "0.5", "1.0"):
        (tmp_path / f"beta_{s}.fld").write_text("mean 1.0\n")
    loaded = []
    load_field = cli.load_field

    def counted(path):
        loaded.append(path)
        return load_field(path)

    monkeypatch.setattr(cli, "load_field", counted)
    sweep = SWEEP_2X2 + ["--alpha_file", str(shared)]
    assert main(sweep + ["--beta_file", str(shared),
                         "--output_dir", str(tmp_path / "shared")]) == EXIT_OK
    assert loaded == [str(shared)]
    loaded.clear()
    assert main(sweep + ["--beta_file", str(tmp_path / "beta_{s}.fld"),
                         "--output_dir", str(tmp_path / "per_surface")]) == EXIT_OK
    assert loaded == [str(shared)] + [str(tmp_path / f"beta_{s}.fld")
                                      for s in ("0.0", "0.5", "1.0")]


def test_flux_label_overrides_direction(tmp_path):
    code = main(["solve", "--nx", "2", "--ny", "2", "--p_xi", "1",
                 "--p_eta", "1", "--alignment", "auto", "--s", "0.5",
                 "--m_max", "2", "--n_max", "2", "--output_dir", str(tmp_path)])
    assert code == EXIT_OK
    assert main(["solve", "--s", "1.5", "--output_dir", str(tmp_path)]) \
        == EXIT_CONFIG
    config = build_config(None, {"s": "0.5"})
    assert config.field_direction().b1 == pytest.approx(0.899515)
    # auto alignment resolves for the iota direction (|b2| < |b1| is false
    # here, so left/right would win only for steep directions)
    assert config.mesh_config().alignment.value in (
        "aligned_bottom_top", "aligned_left_right")


def test_one_parser_serves_every_command(tmp_path):
    """The parser is built once per process.  Two different commands run in
    one process through it write the very files that fresh interpreters
    write."""
    assert cli._build_parser() is cli._build_parser()
    commands = {"solve": ["solve", *TINY],
                "convergence": ["convergence", *TINY, "--levels", "2x2,4x4"]}
    for name, argv in commands.items():
        assert main([*argv, "--output_dir", str(tmp_path / "here" / name)]) == EXIT_OK
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    for name, argv in commands.items():
        fresh = tmp_path / "fresh" / name
        proc = subprocess.run([sys.executable, "-m", "anisodg.cli", *argv,
                               "--output_dir", str(fresh)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        here = tmp_path / "here" / name
        assert sorted(p.name for p in here.iterdir()) == sorted(p.name for p in fresh.iterdir())
        for path in here.iterdir():
            assert path.read_bytes() == (fresh / path.name).read_bytes(), path.name
