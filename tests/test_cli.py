import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinpair
from spinpair.cli import main
from spinpair.states import bell_diagonal

SEQ_DIR = Path(__file__).resolve().parent.parent / "sequences"


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_mixture_state(path):
    rho = bell_diagonal(0.937, 0.045, 0.009, 0.009).matrix
    payload = {"basis": "zeeman",
               "re": rho.real.tolist(), "im": rho.imag.tolist()}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_state_singlet(tmp_path, capsys):
    assert run_cli("state", "singlet", "--out", tmp_path) == 0
    out = json.loads((tmp_path / "state_singlet.json").read_text())
    assert out["basis"] == "zeeman"
    assert out["bell"][0] == pytest.approx(1.0)
    assert out["off_bell"] == pytest.approx(0.0, abs=1e-12)
    m = np.array(out["re"]) + 1j * np.array(out["im"])
    assert np.trace(m).real == pytest.approx(1.0)
    assert out["product_operators"]["x,x"] == pytest.approx(-0.5)


def test_state_pseudo_polarized(tmp_path):
    assert run_cli("state", "pseudo:0.916", "--out", tmp_path) == 0
    out = json.loads((tmp_path / "state_pseudo_0.916.json").read_text())
    assert out["bell"][0] == pytest.approx(0.937)
    assert out["bell"][1] == pytest.approx(0.021)


def test_state_unknown_name_lists_choices(tmp_path, capsys):
    assert run_cli("state", "wibble", "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert "wibble" in err
    assert "singlet" in err and "MaximallyMixed" in err and "pseudo:EPS" in err


def test_state_bad_params_exit_2(tmp_path, capsys):
    assert run_cli("state", "singlet", "--j-hz", "-4", "--out", tmp_path) == 2
    assert "j_hz" in capsys.readouterr().err


def test_run_selective_readout(tmp_path, capsys):
    code = run_cli("run", SEQ_DIR / "selective_i.pseq",
                   "--state", "pseudo:0.916", "--out", tmp_path)
    assert code == 0
    run_dir = Path(capsys.readouterr().out.strip())
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["initial_state"] == "pseudo:0.916"
    acq = manifest["derived"]["acquisition"]
    assert acq["n_points"] == 16384
    ints = acq["component_integrals"]
    assert ints[0] > 0 > ints[1] and ints[3] > 0 > ints[2]
    # csv layout
    fid_lines = (run_dir / "fid.csv").read_text().splitlines()
    assert fid_lines[0] == "t_s,re,im"
    assert len(fid_lines) == 16385
    spec_lines = (run_dir / "spectrum.csv").read_text().splitlines()
    assert spec_lines[0] == "freq_hz,re,im"
    svg = (run_dir / "spectrum.svg").read_text()
    assert "-7.55 ppm" in svg and "-6.32 ppm" in svg
    assert "Hz" in svg


def test_run_is_byte_identical(tmp_path, capsys):
    run_cli("run", SEQ_DIR / "selective_i.pseq", "--state", "pseudo:0.916",
            "--out", tmp_path / "a")
    dir_a = Path(capsys.readouterr().out.strip())
    run_cli("run", SEQ_DIR / "selective_i.pseq", "--state", "pseudo:0.916",
            "--out", tmp_path / "b")
    dir_b = Path(capsys.readouterr().out.strip())
    assert dir_a.name == dir_b.name  # content-derived run id
    for name in ("manifest.json", "final_state.json", "fid.csv",
                 "spectrum.csv", "spectrum.svg"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_run_filtration_sequence(tmp_path, capsys):
    code = run_cli("run", SEQ_DIR / "filtration.pseq", "--state", "T0",
                   "--out", tmp_path)
    assert code == 0
    run_dir = Path(capsys.readouterr().out.strip())
    manifest = json.loads((run_dir / "manifest.json").read_text())
    bell = manifest["derived"]["final_bell"]
    assert bell[0] == pytest.approx(0.0, abs=1e-12)
    assert bell[2] == pytest.approx(0.5, abs=1e-12)
    assert bell[3] == pytest.approx(0.5, abs=1e-12)
    assert "acquisition" not in manifest["derived"]
    assert not (run_dir / "fid.csv").exists()


def test_run_noise_changes_with_seed(tmp_path, capsys):
    run_cli("run", SEQ_DIR / "selective_i.pseq", "--state", "singlet",
            "--noise-sigma", "1e-3", "--seed", "1", "--out", tmp_path)
    a = Path(capsys.readouterr().out.strip())
    run_cli("run", SEQ_DIR / "selective_i.pseq", "--state", "singlet",
            "--noise-sigma", "1e-3", "--seed", "2", "--out", tmp_path)
    b = Path(capsys.readouterr().out.strip())
    assert a != b  # seed participates in the run id
    assert (a / "fid.csv").read_bytes() != (b / "fid.csv").read_bytes()


def test_run_missing_sequence_exit_2(tmp_path, capsys):
    assert run_cli("run", tmp_path / "absent.pseq", "--out", tmp_path) == 2
    assert "absent.pseq" in capsys.readouterr().err


def test_run_bad_sequence_reports_position(tmp_path, capsys):
    seq = tmp_path / "bad.pseq"
    seq.write_text("delta_nu 492.0\npulse 90\n")
    assert run_cli("run", seq, "--out", tmp_path) == 2
    assert "2:1" in capsys.readouterr().err


def test_run_non_power_of_two_acquire_exit_2_without_run_dir(tmp_path, capsys):
    seq = tmp_path / "n1000.pseq"
    seq.write_text("selective I\nacquire 1000 0.000244140625\n")
    assert run_cli("run", seq, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "2:1" in err and "1000" in err
    assert not list((tmp_path / "out").glob("run_*"))


def test_run_too_narrow_spectral_window_exit_2_without_run_dir(tmp_path, capsys):
    # 16 points at 1 ms give 31.25 Hz bins, wider than the 7.5 Hz regions
    seq = tmp_path / "narrow.pseq"
    seq.write_text("selective I\nacquire 16 0.001\n")
    with pytest.warns(UserWarning, match="secular approximation is marginal"):
        code = run_cli("run", seq, "--delta-nu-hz", 30, "--j-hz", 7,
                       "--out", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "fewer than 2" in err
    assert not list((tmp_path / "out").glob("run_*"))


def test_run_write_failure_exit_2_leaves_nothing(tmp_path, capsys, monkeypatch):
    def refuse(path, *args, **kwargs):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr("spinpair.cli.write_spectrum_svg", refuse)
    out = tmp_path / "out"
    assert run_cli("run", SEQ_DIR / "selective_i.pseq", "--out", out) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "No space left" in err
    assert list(out.iterdir()) == []


def test_output_path_that_is_a_file_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run_cli("state", "singlet", "--out", blocker) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_run_rerun_replaces_run_dir(tmp_path, capsys):
    # --csv is not part of the run id, so the rerun lands on the same id
    out = tmp_path / "out"
    assert run_cli("run", SEQ_DIR / "selective_i.pseq", "--out", out) == 0
    first = Path(capsys.readouterr().out.strip())
    assert (first / "fid.csv").is_file()
    assert run_cli("run", SEQ_DIR / "selective_i.pseq", "--no-csv", "--out", out) == 0
    second = Path(capsys.readouterr().out.strip())
    assert second == first and list(out.iterdir()) == [second]
    assert not (second / "fid.csv").exists()
    assert (second / "manifest.json").is_file()


def test_analyze_reported_mixture(tmp_path, capsys):
    state = write_mixture_state(tmp_path / "mix.json")
    assert run_cli("analyze", state, "--out", tmp_path) == 0
    report = json.loads((tmp_path / "entanglement_report.json").read_text())
    assert report["entangled"] is True
    assert report["concurrence"] == pytest.approx(0.874, abs=1e-3)
    assert report["eof"] == pytest.approx(0.822, abs=1e-3)
    printed = json.loads(capsys.readouterr().out)
    assert printed == report


def test_analyze_entanglement_threshold(tmp_path):
    run_cli("state", "pseudo:0.34", "--out", tmp_path)
    run_cli("state", "pseudo:0.33", "--out", tmp_path)
    run_cli("analyze", tmp_path / "state_pseudo_0.34.json", "--out", tmp_path / "a")
    above = json.loads((tmp_path / "a" / "entanglement_report.json").read_text())
    run_cli("analyze", tmp_path / "state_pseudo_0.33.json", "--out", tmp_path / "b")
    below = json.loads((tmp_path / "b" / "entanglement_report.json").read_text())
    assert above["entangled"] is True
    assert below["entangled"] is False


def test_analyze_rejects_wrong_basis(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"basis": "bell", "re": [[1]], "im": [[0]]}))
    assert run_cli("analyze", bad, "--out", tmp_path) == 2
    assert "basis" in capsys.readouterr().err


def test_analyze_rejects_invalid_state(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    re = (np.eye(4) * 0.5).tolist()  # trace 2
    bad.write_text(json.dumps({"basis": "zeeman", "re": re,
                               "im": np.zeros((4, 4)).tolist()}))
    assert run_cli("analyze", bad, "--out", tmp_path) == 2
    assert run_cli("analyze", tmp_path / "nope.json", "--out", tmp_path) == 2


def test_analyze_rejects_non_finite_state(tmp_path, capsys):
    re = np.eye(4) / 4
    re[0, 0] = np.nan
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({"basis": "zeeman", "re": re.tolist(),
                               "im": np.zeros((4, 4)).tolist()}))
    assert "NaN" in bad.read_text()
    assert run_cli("analyze", bad, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "non-finite entry" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_analyze_refuses_infinite_state_with_one_error_line(tmp_path):
    # run as a separate process so stderr is exactly what a user sees,
    # numpy warnings included
    re = np.eye(4) / 4
    re[0, 1] = re[1, 0] = np.inf
    bad = tmp_path / "inf.json"
    bad.write_text(json.dumps({"basis": "zeeman", "re": re.tolist(),
                               "im": np.zeros((4, 4)).tolist()}))
    assert "Infinity" in bad.read_text()
    src = str(Path(spinpair.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "spinpair.cli", "analyze", str(bad),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error:") and "non-finite entry" in lines[0]
    assert not (tmp_path / "out").exists()


def test_calibrate_quoted_numbers(tmp_path, capsys):
    code = run_cli("calibrate", "--ph2-integrals", "77000",
                   "--thermal-integrals", "1", "--scan-norm", "1",
                   "--max-enhancement", "31028", "--out", tmp_path)
    assert code == 0
    res = json.loads((tmp_path / "calibration.json").read_text())
    assert res["corrected_ratio"] == pytest.approx(28336.0)
    assert res["epsilon"] == pytest.approx(0.913, abs=5e-4)


def test_calibrate_bad_numbers_exit_2(tmp_path, capsys):
    assert run_cli("calibrate", "--ph2-integrals", "1,2,oops",
                   "--thermal-integrals", "1", "--out", tmp_path) == 2
    assert run_cli("calibrate", "--ph2-integrals", "1e12",
                   "--thermal-integrals", "1", "--out", tmp_path) == 2


def test_paper_repro_passes_by_default(tmp_path, capsys):
    assert run_cli("paper-repro", "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    table = json.loads((tmp_path / "paper_repro.json").read_text())
    assert table["all_pass"] is True
    assert len(table["rows"]) >= 20
    assert (tmp_path / "paper_repro.txt").read_text() == out


def test_paper_repro_detects_wrong_f_active(tmp_path, capsys):
    assert run_cli("paper-repro", "--f-active", "0.3", "--out", tmp_path) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    table = json.loads((tmp_path / "paper_repro.json").read_text())
    assert table["all_pass"] is False
    failed = [r for r in table["rows"] if not r["pass"]]
    assert any("polarization" in r["name"] for r in failed)


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-m", "spinpair", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    for sub in ("state", "run", "analyze", "calibrate", "paper-repro"):
        assert sub in proc.stdout


def test_console_script_installed():
    exe = shutil.which("spinpair")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("state", "run", "analyze", "calibrate", "paper-repro"):
        assert sub in proc.stdout
