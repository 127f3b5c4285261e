import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

import tensorgeo.io as tio
from tensorgeo import CpShape, cp_random_horizontal, cp_random_point, embed
from tensorgeo.audit import (CSV_HEADER, _single_mode_instance,
                             time_lowrank_modes)
from tensorgeo.cli import build_parser, main
from tensorgeo.flops import mode_step_total
from tensorgeo.group import lowrank_geodesic_step, mode_velocity_norms
from tensorgeo.psi import make_scaling_plan


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_verify_psi_passes_and_reports():
    code, out = run_cli("verify", "psi", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    names = {c["name"] for c in report["suites"][0]["checks"]}
    assert "pade_vs_series_max" in names


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_parser_is_built_once_and_survives_errors():
    # main reuses one parser; a usage error between calls leaves it intact
    assert build_parser() is build_parser()
    flops = ("flops", "--manifold", "tt", "--dims", "8", "12", "8",
             "--ranks", "2", "2", "--z", "2", "3", "2", "--format", "json")
    code, first = run_cli(*flops)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["flops", "--manifold", "cp", "--dims", "8"])
    assert exc.value.code == 2
    code, out = run_cli("verify", "psi", "--seed", "1")
    assert code == 0 and json.loads(out)["passed"]
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", "ten"])
    assert exc.value.code == 2
    assert run_cli(*flops) == (0, first)
    args = build_parser().parse_args(["verify", "cp"])
    assert (args.command, args.suite, args.seed, args.out) \
        == ("verify", "cp", 0, None)


def test_verify_takes_no_tolerance_scale(capsys):
    # the suites keep their constant tolerances: `--tol inf` used to pass
    # every finite-valued check of a broken build
    with pytest.raises(SystemExit) as exc:
        main(["verify", "psi", "--tol", "inf"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol inf" in capsys.readouterr().err


def test_verify_deterministic_given_seed():
    _, out1 = run_cli("verify", "cp", "--seed", "7")
    _, out2 = run_cli("verify", "cp", "--seed", "7")
    assert out1 == out2


def test_flops_prints_published_example():
    code, out = run_cli("flops", "--manifold", "cp", "--dims", "100", "100",
                        "100", "--ranks", "5", "--z", "3", "3", "3")
    assert code == 0
    assert "370250" in out
    assert "build Gamma12" in out and "fourth term" in out
    assert ",false" not in out


def test_flops_json_all_exact():
    code, out = run_cli("flops", "--manifold", "tt", "--dims", "8", "12", "8",
                        "--ranks", "2", "2", "--z", "2", "3", "2",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_exact"] and payload["within_slack"]
    assert payload["z"] == [2, 3, 2]
    assert payload["residual"] == "0"


def test_bench_csv_header():
    code, out = run_cli("bench", "--manifold", "cp", "--rank", "3", "--sizes",
                        "60", "120", "--trials", "5", "--oracle-cap", "80",
                        "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == "manifold,n,r,z,flops_model,time_median_s,seed"
    assert any(row.startswith("cp,60,3,") for row in lines[1:])
    assert any(row.startswith("cp_dense,60,") for row in lines[1:])
    assert not any(row.startswith("cp_dense,120,") for row in lines[1:])


def test_bench_rows_carry_the_itemized_exponent():
    # the Gram step plans its own z; the z and flops_model columns keep the
    # published itemization's, whose exponent the velocity cores' norms set
    (rec,) = time_lowrank_modes((60,), 3, 5, 2)
    blocks, x1 = _single_mode_instance(60, 3, np.random.default_rng(2))
    z = make_scaling_plan(max(mode_velocity_norms(blocks, x1, 1.0))).z
    assert rec.z == z == 9
    assert lowrank_geodesic_step(blocks, x1, 1.0)[1] == 5
    assert rec.flops_model == mode_step_total(60, 3, z)


def test_geodesic_roundtrip_and_errors(tmp_path):
    rng = np.random.default_rng(0)
    p = cp_random_point(CpShape((5, 4, 4), 2), rng)
    x = cp_random_horizontal(p, rng)
    pf, tf, of = (tmp_path / n for n in ("p.txt", "x.txt", "o.txt"))
    tio.save_point(pf, p)
    tio.save_tangent(tf, p, x)

    code, _ = run_cli("geodesic", str(pf), str(tf), "-t", "0", "--out", str(of))
    assert code == 0
    q = tio.read_point(of)
    assert np.linalg.norm(embed(q) - embed(p)) == 0.0

    code, _ = run_cli("geodesic", str(pf), str(tf), "-t", "0.5",
                      "--out", str(of))
    assert code == 0

    bad = tmp_path / "bad.txt"
    bad.write_text(pf.read_text().replace("manifold: cp", "manifold: xx"))
    code, _ = run_cli("geodesic", str(bad), str(tf), "-t", "0.5")
    assert code == 2

    missing = tmp_path / "nope.txt"
    code, _ = run_cli("geodesic", str(missing), str(tf))
    assert code == 2


@pytest.mark.parametrize("old, new, cause", [
    ("ranks: 2", "ranks: 9", "rank must satisfy"),
    ("dims: 5 4 4", "dims: 5 4", "at least three modes are required"),
    ("dims: 5 4 4", "dims: 6 4 4", "mode 1: blocks are 5 x 2"),
], ids=["rank", "dims", "rows"])
def test_geodesic_bad_point_header_exits_2(tmp_path, capsys, old, new, cause):
    rng = np.random.default_rng(3)
    p = cp_random_point(CpShape((5, 4, 4), 2), rng)
    pf, tf = tmp_path / "p.txt", tmp_path / "x.txt"
    tio.save_tangent(tf, p, cp_random_horizontal(p, rng))
    text = tio.dump_point(p)
    assert old in text
    pf.write_text(text.replace(old, new, 1))
    code, out = run_cli("geodesic", str(pf), str(tf))
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and cause in err


def test_geodesic_rejects_nonhorizontal(tmp_path):
    rng = np.random.default_rng(1)
    p = cp_random_point(CpShape((5, 4, 4), 2), rng)
    x = cp_random_horizontal(p, rng)
    bumped = [np.vstack((x1[:2] + np.diag([0.1, 0.0]), x1[2:]))
              for x1 in x.modes]
    pf, tf = tmp_path / "p.txt", tmp_path / "x.txt"
    tio.save_point(pf, p)
    tio.save_tangent(tf, p, type(x)(bumped))
    code, _ = run_cli("geodesic", str(pf), str(tf), "-t", "1.0")
    assert code == 1


def _unit_tangent_files(tmp_path):
    rng = np.random.default_rng(0)
    p = cp_random_point(CpShape((50, 50, 50), 4), rng)
    x = cp_random_horizontal(p, rng)
    pf, tf = tmp_path / "p.txt", tmp_path / "x.txt"
    tio.save_point(pf, p)
    tio.save_tangent(tf, p, x.scale(1.0 / x.norm()))
    return pf, tf


@pytest.mark.parametrize("t, cause", [
    ("300", "rank-deficient input: no acceptable pivot"),
    ("1e5", "mexp overflows its squaring chain at z = 16"),
], ids=["rank-deficient", "overflow"])
def test_geodesic_reports_a_failed_step_and_exits_1(tmp_path, capsys, t,
                                                    cause):
    pf, tf = _unit_tangent_files(tmp_path)
    of = tmp_path / "o.txt"
    code, out = run_cli("geodesic", str(pf), str(tf), "-t", t,
                        "--out", str(of))
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: {cause}\n"
    assert not of.exists()


@pytest.mark.parametrize("t", ["nan", "inf", "-Infinity", "one"])
def test_geodesic_rejects_a_nonfinite_t_as_usage_error(tmp_path, capsys, t):
    pf, tf = _unit_tangent_files(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["geodesic", str(pf), str(tf), f"-t={t}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument -t: not a finite number: '{t}'" in err


def test_halving_composition_note(tmp_path):
    # composing two half steps differs from one full step unless the velocity
    # is transported; with the same blocks re-lifted at the new base the
    # curves genuinely diverge
    rng = np.random.default_rng(2)
    p = cp_random_point(CpShape((6, 5, 4), 2), rng)
    x = cp_random_horizontal(p, rng)
    from tensorgeo import cp_geodesic
    q_full = cp_geodesic(p, x, 1.0)
    q_half = cp_geodesic(p, x, 0.5)
    x_again = type(x)(x.modes)
    q_twice = cp_geodesic(q_half, x_again, 0.5)
    assert np.linalg.norm(embed(q_twice) - embed(q_full)) \
        > 1e-6 * np.linalg.norm(embed(q_full))


def test_out_file_writing(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "psi", "--seed", "2", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["passed"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-Infinity", "one"])
def test_geodesic_rejects_a_nonfinite_tol_as_usage_error(tmp_path, capsys,
                                                         tol):
    # a NaN tolerance compares false against every residual, which would
    # turn the horizontality gate off
    pf, tf = _unit_tangent_files(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["geodesic", str(pf), str(tf), f"--tol={tol}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --tol: not a finite number: '{tol}'" in err
