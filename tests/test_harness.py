"""Sweep execution, serialization round trips, and the command line."""

import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phburgers
from phburgers import cli, diagnostics, fem1d, integrator, phsystem, sweep


def fabricated_result():
    cells = [
        sweep.SweepCell(0.5, 0.0, 0.1, 6.454e-2, 0.4, 282, "completed"),
        sweep.SweepCell(0.5, 1.0, 0.1, 1.0 / 3.0, 0.4, 12, "completed"),
        sweep.SweepCell(1.0, 0.0, 0.1, 2.065e-4, 0.017, 67, "dt_underflow"),
        sweep.SweepCell(1.0, 1.0, 0.1, float("nan"), float("nan"), 0,
                        "error: ValueError: boom"),
    ]
    return sweep.SweepResult(cells=tuple(cells))


# ---------------------------------------------------------------- tables


def test_csv_header_is_pinned():
    assert sweep.CSV_HEADER == ("alpha", "beta", "h", "var", "t_final",
                                "n_steps", "termination")
    text = sweep.format_table_csv(fabricated_result())
    assert text.splitlines()[0] == "alpha,beta,h,var,t_final,n_steps,termination"


def test_table_csv_round_trip_is_exact():
    result = fabricated_result()
    back = sweep.parse_table_csv(sweep.format_table_csv(result))
    assert len(back.cells) == len(result.cells)
    for a, b in zip(result.cells, back.cells):
        assert (a.alpha, a.beta, a.h) == (b.alpha, b.beta, b.h)
        assert a.n_steps == b.n_steps and a.termination == b.termination
        for x, y in ((a.var, b.var), (a.t_final, b.t_final)):
            assert x == y or (math.isnan(x) and math.isnan(y))


def test_parse_rejects_foreign_header():
    with pytest.raises(ValueError):
        sweep.parse_table_csv("a,b,c\n1,2,3\n")


def test_text_table_layout():
    text = sweep.format_table_text(fabricated_result())
    assert "alpha = 0.5" in text and "alpha = 1" in text
    assert "beta \\ h" in text
    assert "error: ValueError: boom" in text
    assert "6.454e-02 / 0.400 (282)" in text


def test_emit_table_dispatch():
    result = fabricated_result()
    assert sweep.emit_table(result) == sweep.format_table_csv(result)
    assert sweep.emit_table(result, "text") == sweep.format_table_text(result)
    with pytest.raises(ValueError):
        sweep.emit_table(result, "json")


def test_result_cell_lookup():
    result = fabricated_result()
    assert result.cell(0.5, 1.0, 0.1).n_steps == 12
    with pytest.raises(KeyError):
        result.cell(9.0, 9.0, 9.0)


def test_grid_validation_and_cells_order():
    grid = sweep.SweepGrid(alphas=(1.0, 2.0), betas=(0.0,), hs=(0.1, 0.05))
    assert grid.cells() == [(1.0, 0.0, 0.1), (1.0, 0.0, 0.05),
                            (2.0, 0.0, 0.1), (2.0, 0.0, 0.05)]
    with pytest.raises(ValueError):
        sweep.SweepGrid(alphas=(0.0,))
    with pytest.raises(ValueError):
        sweep.SweepGrid(betas=(-1.0,))
    with pytest.raises(ValueError):
        sweep.SweepGrid(hs=(0.0,))
    with pytest.raises(ValueError):
        sweep.SweepGrid(alphas=(float("nan"),))
    # two cells whose ledgers would share one file name
    with pytest.raises(ValueError, match="ledger name a1_b0_h0.5"):
        sweep.SweepGrid(alphas=(1.0000001, 1.0000002), betas=(0.0,), hs=(0.5,))
    with pytest.raises(ValueError, match="ledger name a1_b0_h0.5"):
        sweep.SweepGrid(alphas=(1.0,), betas=(0.0,), hs=(0.5, 0.5))


def test_default_grid_matches_study():
    grid = sweep.SweepGrid()
    assert grid.alphas == (0.5, 1.0, 2.0)
    assert grid.betas == (0.0, 1.0, 2.0, 5.0)
    assert grid.hs == (5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2)


def test_cell_tag_is_unique_per_cell():
    tags = {sweep.cell_tag(a, b, h) for (a, b, h) in sweep.SweepGrid().cells()}
    assert len(tags) == 60
    assert sweep.cell_tag(0.5, 5.0, 1e-3) == "a0.5_b5_h0.001"


# ----------------------------------------------------------------- sweep


def test_sweep_cell_agrees_with_direct_run(tmp_path):
    grid = sweep.SweepGrid(alphas=(1.0,), betas=(0.0,), hs=(0.05,), t_final=0.1)
    result = sweep.run_sweep(grid, workers=1, out_dir=tmp_path)
    cell = result.cell(1.0, 0.0, 0.05)
    direct = integrator.run_simulation(
        integrator.RunConfig(h=0.05, alpha=1.0, beta=0.0, t_final=0.1))
    assert cell.termination == "completed" == direct.termination_reason
    assert cell.var == direct.var
    assert cell.t_final == direct.t_reached
    assert cell.n_steps == direct.n_steps
    ledger_file = tmp_path / f"ledger_{sweep.cell_tag(1.0, 0.0, 0.05)}.csv"
    assert ledger_file.exists()
    assert ledger_file.read_text().splitlines()[0] == ",".join(sweep.LEDGER_HEADER)


def test_sweep_worker_pool_matches_inline():
    grid = sweep.SweepGrid(alphas=(1.0,), betas=(0.0, 1.0), hs=(0.05,), t_final=0.05)
    inline = sweep.run_sweep(grid, workers=1)
    pooled = sweep.run_sweep(grid, workers=2)
    for a, b in zip(inline.cells, pooled.cells):
        assert a == b


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_sweep_pool_is_capped_at_the_cell_count(monkeypatch, tmp_path, capsys):
    # the pool forks all its workers at once, so asking for 64 must not start 64
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    grid = sweep.SweepGrid(alphas=(1.0,), betas=(0.0, 1.0), hs=(0.05,), t_final=0.01)
    assert len(sweep.run_sweep(grid, workers=64).cells) == 2
    assert cli.main(["sweep", "--alphas", "1", "--betas", "0,1", "--hs", "0.05",
                     "--t-final", "0.01", "--workers", "64",
                     "--out-dir", str(tmp_path)]) == 0
    assert RecordingPool.sizes == [2, 2]
    capsys.readouterr()


def test_sweep_rejects_fewer_than_one_worker(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    grid = sweep.SweepGrid(alphas=(1.0,), betas=(0.0,), hs=(0.05,), t_final=0.01)
    with pytest.raises(ValueError, match="workers"):
        sweep.run_sweep(grid, workers=0)
    cfg = tmp_path / "w.cfg"
    cfg.write_text("hs = 0.05\nworkers = -2\n")
    out = tmp_path / "study"
    assert cli.main(["sweep", "--hs", "0.05", "--workers", "0", "--out-dir", str(out)]) == 1
    assert "workers must be at least 1, got 0" in capsys.readouterr().err
    assert cli.main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert "workers must be at least 1, got -2" in capsys.readouterr().err
    assert not out.exists() and RecordingPool.sizes == []


def test_sweep_records_failing_cell_without_raising(monkeypatch):
    def fail(config):
        raise ValueError(f"no run at h = {config.h}")

    monkeypatch.setattr(sweep, "run_simulation", fail)
    grid = sweep.SweepGrid(alphas=(1.0,), betas=(0.0,), hs=(0.5,))
    result = sweep.run_sweep(grid, workers=1)
    cell = result.cells[0]
    assert cell.termination.startswith("error: ValueError")
    assert math.isnan(cell.var)
    # and the error cell round-trips through the CSV
    back = sweep.parse_table_csv(sweep.format_table_csv(result))
    assert back.cells[0].termination == cell.termination


# ------------------------------------------------------------ run output


def test_atomic_write_leaves_no_temp(tmp_path):
    target = tmp_path / "out.txt"
    sweep.atomic_write_text(target, "first")
    sweep.atomic_write_text(target, "second")
    assert target.read_text() == "second"
    assert list(tmp_path.iterdir()) == [target]
    # a failed rename removes the temporary file and re-raises
    blocked = tmp_path / "blocked.csv"
    blocked.mkdir()
    with pytest.raises(IsADirectoryError):
        sweep.atomic_write_text(blocked, "text")
    assert sorted(tmp_path.iterdir()) == [blocked, target]


def test_sweep_records_unwritable_ledger_as_cell_error(tmp_path, capsys):
    # one cell's ledger path is taken by a directory: that cell errors,
    # the other cell and the table are still written
    blocked = tmp_path / f"ledger_{sweep.cell_tag(1.0, 0.0, 0.05)}.csv"
    blocked.mkdir()
    assert cli.main(["sweep", "--alphas", "1", "--betas", "0,1", "--hs", "0.05",
                     "--t-final", "0.01", "--workers", "1",
                     "--out-dir", str(tmp_path)]) == 0
    assert "sweep: 2 cells, 1 errored" in capsys.readouterr().err
    table = sweep.parse_table_csv((tmp_path / "table.csv").read_text())
    bad, good = table.cells
    assert bad.termination.startswith("error: IsADirectoryError: ")
    assert good.termination == "completed"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        blocked.name, f"ledger_{sweep.cell_tag(1.0, 1.0, 0.05)}.csv", "table.csv"]


def test_write_run_outputs(tmp_path):
    run = integrator.run_simulation(
        integrator.RunConfig(h=0.1, beta=1.0, t_final=0.05, n_snapshots=5))
    paths = sweep.write_run_outputs(run, tmp_path)
    assert paths[0].name == "ledger.csv"
    lines = paths[0].read_text().splitlines()
    assert lines[0] == "t,dt,newton_iters,H,E,qH,qE,QH,QE,bal"
    assert len(lines) == 1 + len(run.ledger)
    snap_files = sorted(p.name for p in paths[1:])
    assert len(snap_files) == len(run.snapshots)
    assert snap_files[0].startswith("snapshot_00_t0.000000")
    mesh = fem1d.build_mesh(run.config.mesh_elems)
    for p in paths[1:]:
        rows = p.read_text().splitlines()
        assert rows[0] == "x,v,e,e_r"
        assert len(rows) == 1 + mesh.n_nodes


def test_snapshot_csv_values_round_trip():
    ops = fem1d.assemble_operators(fem1d.build_mesh(4))
    v = np.random.default_rng(12).uniform(0.2, 1.2, ops.mesh.n_interior)
    st = phsystem.make_state(ops, v, nu=0.05)
    text = sweep.format_snapshot_csv(ops.mesh, st)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    got_v = np.array([float(r[1]) for r in rows])
    np.testing.assert_array_equal(got_v, fem1d.embed_interior(ops.mesh, v))
    got_x = np.array([float(r[0]) for r in rows])
    np.testing.assert_array_equal(got_x, ops.mesh.nodes)


# Reference writers that put every float through repr(float(x)) explicitly:
# the oracle for the writers built on the shared csv helper.


def explicit_repr_table_csv(result):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(sweep.CSV_HEADER)
    for c in result.cells:
        writer.writerow([repr(c.alpha), repr(c.beta), repr(c.h), repr(c.var),
                         repr(c.t_final), c.n_steps, c.termination])
    return buf.getvalue()


def explicit_repr_ledger_csv(ledger):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(sweep.LEDGER_HEADER)
    for row in ledger.rows():
        writer.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])
    return buf.getvalue()


def explicit_repr_snapshot_csv(mesh, state):
    v = fem1d.embed_interior(mesh, state.v)
    e = fem1d.embed_interior(mesh, state.e)
    e_r = fem1d.embed_interior(mesh, state.e_r) if state.e_r.size else np.zeros(mesh.n_nodes)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(sweep.SNAPSHOT_HEADER)
    for k in range(mesh.n_nodes):
        writer.writerow([repr(float(mesh.nodes[k])), repr(float(v[k])),
                         repr(float(e[k])), repr(float(e_r[k]))])
    return buf.getvalue()


def test_csv_writers_match_explicit_repr_oracle():
    # int-valued grid cells print as ints; an error text with a comma and a
    # quote is quoted the same way
    table = sweep.SweepResult(cells=(
        sweep.SweepCell(1, 0, 1, 0.1 + 0.2, 0.4, 20, "completed"),
        sweep.SweepCell(2, 5, 1, float("nan"), float("nan"), 0,
                        'error: ValueError: width "0.3", not 1/n'),
    ))
    assert sweep.format_table_csv(table) == explicit_repr_table_csv(table)
    assert '"error: ValueError: width ""0.3"", not 1/n"' in sweep.format_table_csv(table)

    run = integrator.run_simulation(
        integrator.RunConfig(h=0.1, beta=1.0, t_final=0.05, n_snapshots=3))
    assert run.snapshots[-1].viscous
    assert sweep.format_ledger_csv(run.ledger) == explicit_repr_ledger_csv(run.ledger)
    # numpy scalars handed to append print as plain floats, as before
    ledger = diagnostics.PowerLedger()
    ledger.append(*np.array([0.0, 0.0, 0.0, 1.0 / 3.0, 0.25, -0.5, 0.125]))
    assert "np." not in sweep.format_ledger_csv(ledger)
    assert sweep.format_ledger_csv(ledger) == explicit_repr_ledger_csv(ledger)

    mesh = fem1d.build_mesh(run.config.mesh_elems)
    assert sweep.format_snapshot_csv(mesh, run.snapshots[-1]) == \
        explicit_repr_snapshot_csv(mesh, run.snapshots[-1])
    ops = fem1d.assemble_operators(mesh)
    inviscid = phsystem.make_state(ops, fem1d.interpolate(mesh, diagnostics.gaussian_pulse))
    assert inviscid.e_r.size == 0
    assert sweep.format_snapshot_csv(mesh, inviscid) == explicit_repr_snapshot_csv(mesh, inviscid)


# ------------------------------------------------------------------- cli


def test_cli_oracle_shock_speed(capsys):
    assert cli.main(["oracle", "--shock-speed", "1", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0.5"


def test_cli_oracle_shock_dissipation(capsys):
    assert cli.main(["oracle", "--shock-dissipation", "1", "0"]) == 0
    de, dh = map(float, capsys.readouterr().out.split())
    assert de == pytest.approx(-1.0 / 12.0)
    assert dh == pytest.approx(-1.0 / 24.0)


def test_cli_oracle_shock_time(capsys):
    assert cli.main(["oracle", "--shock-time"]) == 0
    t = float(capsys.readouterr().out)
    assert t == pytest.approx(diagnostics.shock_formation_time(), rel=1e-10)


def test_cli_oracle_solution(capsys):
    assert cli.main(["oracle", "--solution", "0", "0.5"]) == 0
    assert float(capsys.readouterr().out) == 1.0
    # post-shock time is a usage error, not a crash
    assert cli.main(["oracle", "--solution", "0.3", "0.5"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--solution", "nan", "0.5"], ["--solution", "0.1", "inf"], ["--solution", "0.1", "nan"],
    ["--shock-speed", "nan", "0"], ["--shock-speed", "1", "inf"],
    ["--shock-dissipation", "inf", "0"], ["--shock-dissipation", "1", "nan"],
])
@pytest.mark.filterwarnings("error")
def test_cli_oracle_rejects_non_finite_values(argv, capsys):
    # a usage error that names the values, not a solver message or a warning
    assert cli.main(["oracle", *argv]) == 1
    captured = capsys.readouterr()
    values = " ".join(str(float(a)) for a in argv[1:])
    assert (captured.out, captured.err) == ("", f"error: oracle values must be finite, got {values}\n")


@pytest.mark.parametrize("argv, results", [
    (["--shock-dissipation", "1e200", "0"], "-inf -inf"),
    (["--shock-speed", "1.7e308", "1.7e308"], "inf"),
])
def test_cli_oracle_refuses_non_finite_results(argv, results, capsys):
    # finite values whose result overflows: a usage error, not a traceback or an inf
    assert cli.main(["oracle", *argv]) == 1
    captured = capsys.readouterr()
    values = " ".join(str(float(a)) for a in argv[1:])
    assert (captured.out, captured.err) == (
        "", f"error: oracle result for {values} is not finite: {results}\n")


def test_cli_oracle_solution_far_outside_is_zero_without_warning(capsys):
    # the bracket search evaluates the pulse near 1e308, where it is exactly 0
    assert cli.main(["oracle", "--solution", "0.1", "1e308"]) == 0
    assert capsys.readouterr() == ("0\n", "")


def test_cli_usage_errors(tmp_path, capsys, monkeypatch):
    assert cli.main(["nope"]) == 1
    assert cli.main(["run", "--h", "0.3"]) == 1
    assert cli.main(["run", "--h", "0.1", "--n-elems", "10"]) == 1
    assert cli.main(["run", "--h", "0"]) == 1
    out = tmp_path / "run"
    assert cli.main(["run", "--h", "0.1", "--t-final", "0.05", "--snapshots", "-3",
                     "--out-dir", str(out)]) == 1
    assert "n_snapshots must be nonnegative" in capsys.readouterr().err
    assert cli.main(["sweep", "--alphas", "1.0000001,1.0000002", "--betas", "0",
                     "--hs", "0.5", "--t-final", "0.01", "--workers", "1",
                     "--out-dir", str(out)]) == 1
    assert "share the ledger name a1_b0_h0.5" in capsys.readouterr().err
    assert not out.exists()

    # an output directory an existing file blocks is refused before anything runs
    def must_not_run(*args, **kwargs):
        raise AssertionError("simulated before checking the output directory")

    monkeypatch.setattr(cli, "run_simulation", must_not_run)
    monkeypatch.setattr(cli, "run_sweep", must_not_run)
    blocker = tmp_path / "afile"
    blocker.write_text("kept")
    for command in (["run", "--h", "0.5", "--t-final", "0.01"],
                    ["sweep", "--alphas", "1", "--betas", "0", "--hs", "0.5",
                     "--t-final", "0.01", "--workers", "1"]):
        for target in (blocker, blocker / "sub"):
            assert cli.main(command + ["--out-dir", str(target)]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: output directory {target}: {blocker} exists and is not a directory"]
    assert blocker.read_text() == "kept"


def test_cli_run_writes_outputs(tmp_path, capsys):
    code = cli.main(["run", "--h", "0.1", "--t-final", "0.05",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "ledger.csv").exists()
    err = capsys.readouterr().err
    assert "run: t reached" in err and "termination completed" in err


def test_cli_run_reports_dt_underflow(tmp_path, capsys):
    code = cli.main(["run", "--h", "0.01", "--alpha", "0.5", "--beta", "5",
                     "--out-dir", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "termination dt_underflow" in err
    assert "run: flagged early_termination" in err


def test_cli_sweep_writes_table(tmp_path, capsys):
    code = cli.main(["sweep", "--alphas", "1", "--betas", "0", "--hs", "0.05",
                     "--t-final", "0.1", "--workers", "1",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    table = sweep.parse_table_csv((tmp_path / "table.csv").read_text())
    assert len(table.cells) == 1
    assert table.cells[0].termination == "completed"
    assert table.cells[0].t_final == 0.1
    assert "sweep: 1 cells, 0 errored" in capsys.readouterr().err


def test_cli_sweep_text_format(tmp_path, capsys):
    code = cli.main(["sweep", "--alphas", "1", "--betas", "0", "--hs", "0.1",
                     "--t-final", "0.05", "--workers", "1", "--format", "text",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    assert "alpha = 1" in (tmp_path / "table.txt").read_text()
    capsys.readouterr()


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# one run\nh = 0.1\nt_final = 0.05\n")
    code = cli.main(["run", "--config", str(cfg), "--t-final", "0.02",
                     "--out-dir", str(tmp_path / "out")])
    assert code == 0
    err = capsys.readouterr().err
    assert "t reached 0.02 of 0.02" in err  # flag beat the file entry


def test_cli_config_file_errors(tmp_path, capsys):
    bogus = tmp_path / "bad.cfg"
    bogus.write_text("h = 0.1\nbogus = 3\n")
    assert cli.main(["run", "--config", str(bogus)]) == 1
    assert f"{bogus}:2: run takes no key 'bogus'" in capsys.readouterr().err
    malformed = tmp_path / "mal.cfg"
    malformed.write_text("just words\n")
    assert cli.main(["run", "--config", str(malformed)]) == 1
    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
    capsys.readouterr()
    # file values pass the flags' checks before any cell runs
    fmt = tmp_path / "fmt.cfg"
    fmt.write_text("hs = 0.1\nformat = json\n")
    out = tmp_path / "study"
    assert cli.main(["sweep", "--config", str(fmt), "--out-dir", str(out)]) == 1
    assert f"{fmt}:2: argument --format: invalid choice: 'json'" in capsys.readouterr().err
    assert not out.exists()
    # a key of the other subcommand is refused, not silently dropped
    foreign = tmp_path / "foreign.cfg"
    foreign.write_text("h = 0.1\nt_final = 0.05\nhs = 0.5\nworkers = 3\n")
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(foreign), "--out-dir", str(out)]) == 1
    assert f"{foreign}:3: run takes no key 'hs'" in capsys.readouterr().err
    assert not out.exists()


class Built(Exception):
    """Raised in place of a simulation, once its configuration is built."""


@pytest.fixture
def built(tmp_path, monkeypatch):
    """What cli.main hands to run_simulation or run_sweep; neither runs."""
    seen = []

    def capture(config, **kwargs):
        seen.append(config)
        raise Built

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_simulation", capture)
    monkeypatch.setattr(cli, "run_sweep", capture)
    return seen


def test_cli_defaults_are_the_dataclass_defaults(built, tmp_path):
    for argv in (["run", "--h", "0.1"], ["sweep"]):
        with pytest.raises(Built):
            cli.main(argv)
    assert built == [integrator.RunConfig(h=0.1), sweep.SweepGrid()]
    assert not (tmp_path / "phburgers_out").exists()


def test_cli_flag_before_config_beats_the_file(built, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 0.1\nalpha = 2\nt_final = 0.05\n")
    with pytest.raises(Built):
        cli.main(["run", "--t-final", "0.02", "--config", str(cfg)])
    assert built == [integrator.RunConfig(h=0.1, alpha=2.0, t_final=0.02)]


@pytest.mark.parametrize("key", ["config", "alph"])
def test_cli_config_refuses_config_and_abbreviated_keys(key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"h = 0.1\n{key} = 2\n")
    assert cli.main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: run takes no key {key!r}\n"


def test_cli_sweep_refuses_a_width_that_does_not_divide(built, capsys):
    assert cli.main(["sweep", "--hs", "0.3"]) == 1
    assert built == []
    assert capsys.readouterr().err == (
        "error: element width 0.3 does not divide the unit interval\n")


def test_cli_verify_passes(capsys):
    assert cli.main(["verify"]) == 0
    err = capsys.readouterr().err
    assert "checks passed" in err and "FAIL" not in err


def test_package_import_leaves_scipy_optimize_unloaded():
    # only the shock oracles need scipy.optimize; they import it on first use
    code = "import sys, phburgers.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(phburgers.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def test_package_exports_resolve():
    # a name deleted from a module but left in __all__ breaks star imports
    assert [name for name in phburgers.__all__ if not hasattr(phburgers, name)] == []
