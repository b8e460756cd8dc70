import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import spinpair
from spinpair import cli
from spinpair import seqdsl, spectro
from spinpair.channels import apply
from spinpair.cli import main
from spinpair.states import (SpinSystemParams, bell_diagonal, make_pseudo_pure,
                             make_singlet)
from spinpair.svgplot import DEFAULT_CARRIER_PPM

SEQ_DIR = Path(__file__).resolve().parent.parent / "sequences"


def run_cli(*argv):
    return main([str(a) for a in argv])


def subprocess_env():
    """The environment with the imported spinpair's source first on
    PYTHONPATH, for running the CLI in a separate process."""
    src = str(Path(spinpair.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


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
    assert manifest["carrier_ppm"] == DEFAULT_CARRIER_PPM
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


def test_run_records_carrier_ppm_in_manifest(tmp_path, capsys):
    assert run_cli("run", SEQ_DIR / "selective_i.pseq", "--carrier-ppm", "-7.25",
                   "--out", tmp_path) == 0
    run_dir = Path(capsys.readouterr().out.strip())
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["carrier_ppm"] == -7.25


def csv_oracle(axis_name: str, axis, values) -> str:
    """The per-row CSV formatter `cli._write_csv` replaced: the whole
    text as one string, each value through `float(...)!r`."""
    lines = [f"{axis_name},re,im"]
    for a, v in zip(axis, values):
        lines.append(f"{float(a)!r},{float(v.real)!r},{float(v.imag)!r}")
    return "\n".join(lines) + "\n"


def assert_csv_matches_oracle(tmp_path, axis_name, axis, values):
    want, got = tmp_path / "oracle.csv", tmp_path / "writer.csv"
    want.write_text(csv_oracle(axis_name, axis, values), encoding="utf-8")
    cli._write_csv(got, axis_name, axis, values)
    assert got.read_bytes() == want.read_bytes()


CSV_EXTREMES = [-0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308,
                -1.7976931348623157e308]


@pytest.mark.parametrize("n", [0, 1, 2, 3, cli._CSV_BLOCK_ROWS - 1, cli._CSV_BLOCK_ROWS,
                               cli._CSV_BLOCK_ROWS + 1, 2 * cli._CSV_BLOCK_ROWS + 5, 32768])
def test_write_csv_matches_oracle(tmp_path, n):
    rng = np.random.default_rng(n)
    # magnitudes over most of the float range, so reprs of every length occur
    axis, re, im = rng.normal(size=(3, n)) * 10.0 ** rng.integers(-300, 300, size=(3, n))
    # the extremes fill the first and the last values in row order, as
    # far as n allows
    flat = np.stack([axis, re, im], axis=1).ravel()
    k = min(len(flat), len(CSV_EXTREMES))
    flat[:k] = CSV_EXTREMES[:k]
    flat[len(flat) - k:] = CSV_EXTREMES[:k]
    axis, re, im = flat.reshape(n, 3).T
    assert_csv_matches_oracle(tmp_path, "t_s", axis, re + 1j * im)
    if n:
        assert (tmp_path / "writer.csv").read_text().splitlines()[1] == "-0.0,5e-324,1e-05"


def test_write_csv_matches_oracle_on_noisy_fid_and_spectrum(tmp_path):
    params = SpinSystemParams()
    fid = spectro.synthesize_fid(make_pseudo_pure(0.916, make_singlet()), params,
                                 16384, 1 / 4096)
    fid = spectro.add_noise(fid, 1e-3, 4)
    spec = spectro.fourier(fid)
    assert_csv_matches_oracle(tmp_path, "t_s", fid.times_s, fid.samples)
    assert_csv_matches_oracle(tmp_path, "freq_hz", spec.freqs_hz, spec.values)


def read_csv_columns(path):
    """The header and the three columns of a run CSV, each token parsed
    back with float()."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cols = np.array([[float(tok) for tok in row.split(",")] for row in rows]).T
    return header, cols[0], cols[1] + 1j * cols[2]


def test_run_csv_values_round_trip_bit_for_bit(tmp_path, capsys):
    seq = SEQ_DIR / "selective_i.pseq"
    assert run_cli("run", seq, "--state", "pseudo:0.916", "--noise-sigma", "1e-3",
                   "--seed", "4", "--out", tmp_path) == 0
    run_dir = Path(capsys.readouterr().out.strip())
    program, acq = seqdsl.compile(seqdsl.parse(seq.read_text()), SpinSystemParams())
    final = apply(program, make_pseudo_pure(0.916, make_singlet()))
    fid = spectro.synthesize_fid(final, program.params, acq.n_points, acq.dwell_s)
    fid = spectro.add_noise(fid, 1e-3, 4)
    spec = spectro.fourier(fid)
    for name, header, axis, values in [
            ("fid.csv", "t_s,re,im", fid.times_s, fid.samples),
            ("spectrum.csv", "freq_hz,re,im", spec.freqs_hz, spec.values)]:
        got_header, got_axis, got_values = read_csv_columns(run_dir / name)
        assert got_header == header
        assert np.array_equal(got_axis, axis), name
        assert np.array_equal(got_values, values), name


def test_run_is_byte_identical_across_processes_and_hash_seeds(tmp_path):
    # a rerun in one process cannot show a dependence on str hashing
    trees = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hash{hash_seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "spinpair", "run", str(SEQ_DIR / "selective_i.pseq"),
             "--state", "pseudo:0.916", "--noise-sigma", "1e-3", "--seed", "4",
             "--out", str(out)],
            capture_output=True, text=True,
            env={**subprocess_env(), "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        run_dir = Path(proc.stdout.strip())
        assert list(out.iterdir()) == [run_dir]
        trees.append({f.name: f.read_bytes() for f in run_dir.iterdir()})
    assert sorted(trees[0]) == ["fid.csv", "final_state.json", "manifest.json",
                                "spectrum.csv", "spectrum.svg"]
    assert sorted(trees[1]) == sorted(trees[0])
    for name in trees[0]:
        assert trees[1][name] == trees[0][name], name


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


@pytest.mark.parametrize("payload, message", [
    ([1, 2], "expected a JSON object, got list"),
    ({"basis": "zeeman", "re": {"a": 1}, "im": np.zeros((4, 4)).tolist()},
     "re and im must be 4x4 arrays of numbers"),
    ({"basis": "zeeman", "re": (np.eye(4) / 4).tolist(), "im": None},
     "re and im must be 4x4 arrays of numbers"),
    ({"basis": "zeeman", "re": (np.eye(4) / 4).tolist()},
     "re and im must be 4x4 arrays of numbers"),
    ({"basis": "zeeman", "re": [[True, 0, 0, 0]] * 4, "im": np.zeros((4, 4)).tolist()},
     "re and im must be 4x4 arrays of numbers"),
    ({"basis": "zeeman", "re": [[10 ** 400, 0, 0, 0]] * 4, "im": np.zeros((4, 4)).tolist()},
     "re and im must be 4x4 arrays of numbers"),
    ({"basis": "zeeman", "re": (np.eye(4) / 4).tolist(), "im": [[0, np.inf, 0, 0]] + [[0] * 4] * 3},
     "non-finite entry infj at [0, 1]"),
], ids=["list", "re-object", "im-null", "im-missing", "boolean", "integer-beyond-float",
        "im-infinite"])
def test_analyze_refuses_a_malformed_state_file(tmp_path, capsys, payload, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert run_cli("analyze", bad, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, name, content, message", [
    ("analyze", "state.json", b"\xff{}", "cannot read state file"),
    ("analyze", "state.json", b"[" * 100000, "is not valid JSON"),
    ("run", "seq.pseq", b"\xffacquire", "cannot read sequence"),
], ids=["state-not-utf8", "state-nested-too-deep", "sequence-not-utf8"])
def test_unreadable_input_files_are_refused(tmp_path, capsys, command, name, content, message):
    bad = tmp_path / name
    bad.write_bytes(content)
    assert run_cli(command, bad, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and err.count("\n") == 1, err


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
    proc = subprocess.run([sys.executable, "-m", "spinpair.cli", "analyze", str(bad),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error:") and "non-finite entry" in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sigma", ["-0.5", "nan", "inf"])
def test_run_refuses_bad_noise_sigma_with_one_error_line(tmp_path, sigma):
    # a separate process, so a numpy warning on stderr would show
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "spinpair", "run",
                           str(SEQ_DIR / "selective_i.pseq"), "--noise-sigma", sigma,
                           "--out", str(out)],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error:") and "noise sigma" in lines[0]
    assert not out.exists()


def test_run_refuses_an_overflowing_noise_sigma_with_one_error_line(tmp_path):
    # a separate process, so a numpy warning on stderr would show: 1j times
    # an overflowed draw was a NaN, with a RuntimeWarning, before the refusal
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "spinpair", "run",
                           str(SEQ_DIR / "selective_i.pseq"), "--noise-sigma", "1e308",
                           "--seed", "1", "--out", str(out)],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 2
    assert proc.stderr == "error: FID contains non-finite samples\n"
    assert not out.exists()


def test_run_refuses_a_noise_sigma_that_overflows_the_transform(tmp_path):
    # the draws are finite, so the FID takes them, but the transform's
    # sums overflowed: NaN component integrals in a manifest, exit 0
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "spinpair", "run",
                           str(SEQ_DIR / "selective_i.pseq"), "--noise-sigma", "1e306",
                           "--seed", "1", "--out", str(out)],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 2
    assert proc.stderr == "error: the transform overflows: the spectrum is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["0.01", "0"])
def test_run_refuses_negative_seed_with_one_error_line(tmp_path, sigma):
    # with noise, numpy's default_rng would raise its own ValueError from
    # add_noise; without it, the seed would still name the run
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "spinpair", "run",
                           str(SEQ_DIR / "selective_i.pseq"), "--noise-sigma", sigma,
                           "--seed", "-1", "--out", str(out)],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0] == "error: seed must be a non-negative integer, got -1"
    assert not out.exists()


@pytest.mark.parametrize("flag, field", [
    ("--nu-hz", "nu_hz"), ("--delta-nu-hz", "delta_nu_hz"),
    ("--j-hz", "j_hz"), ("--temp-k", "temp_k"),
])
@pytest.mark.parametrize("argv", [
    ["paper-repro"], ["run", str(SEQ_DIR / "selective_i.pseq")],
], ids=["paper-repro", "run"])
def test_infinite_system_param_refused_with_one_error_line(tmp_path, flag, field, argv):
    # an infinite T1 or T2 means no relaxation; these four have no such reading
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "spinpair", *argv, flag, "inf",
                           "--out", str(out)],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error:") and field in lines[0]
    assert not out.exists()


def refusal_line(argv, out):
    """The one stderr line of `python -m spinpair *argv --out out` run in
    a separate process, once it has exited 2 and written nothing."""
    proc = subprocess.run([sys.executable, "-m", "spinpair", *argv, "--out", str(out)],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error:")
    assert not out.exists()
    return lines[0]


@pytest.mark.parametrize("argv, code", [
    (["state", "thermal", "--temp-k", "1e-3"], 0),
    (["run", str(SEQ_DIR / "selective_i.pseq"), "--state", "thermal", "--temp-k", "1e-3"], 0),
    (["state", "thermal-exact", "--temp-k", "1e-300"], 0),
    (["paper-repro", "--temp-k", "1e-300"], 1),
    (["paper-repro", "--nu-hz", "1e300"], 1),
], ids=["state", "run", "thermal-exact-1e-300", "paper-repro-temp", "paper-repro-nu"])
def test_cold_thermal_inputs_are_not_refused(tmp_path, capsys, argv, code):
    # the linearized state was refused past B = 0.1 and the Boltzmann
    # weights past B = 709.78, both with exit 2; the one thermal state is
    # finite at every B (|00><00| once tanh(B/2) rounds to 1), so these
    # run, and paper-repro prints its table with failed rows and exits 1.
    # pytest turns a RuntimeWarning into an error
    assert main([*argv, "--out", str(tmp_path)]) == code
    out = capsys.readouterr().out
    if code == 1:
        assert "FAIL" in out and out.endswith("rows pass\n")
    if argv[1] == "thermal-exact":
        state = json.loads((tmp_path / "state_thermal-exact.json").read_text(encoding="utf-8"))
        assert np.array_equal(state["re"], np.diag([1.0, 0.0, 0.0, 0.0]))


def test_run_refuses_a_delay_that_overflows_the_propagator(tmp_path):
    # the overflowed generator gave a NaN map that passed the trace check
    # and broke the Choi eigensolver: a LinAlgError traceback and exit 1
    seq = tmp_path / "long.pseq"
    seq.write_text("delay 1e307\n")
    line = refusal_line(["run", str(seq)], tmp_path / "out")
    assert "1:1" in line and "overflows the phase of the propagator" in line


@pytest.mark.parametrize("header, flags", [("", ["--t2-s", "5e-324"]), ("t2 5e-324\n", [])],
                         ids=["flag", "header"])
def test_run_refuses_a_t2_decay_that_overflows(tmp_path, header, flags):
    # dwell/T2 overflowed and the FID modes multiplied -inf by k = 0: a
    # RuntimeWarning line came before the error line
    seq = tmp_path / "short_t2.pseq"
    seq.write_text(header + "selective I\nacquire 1024 0.000244140625\n")
    line = refusal_line(["run", str(seq), *flags], tmp_path / "out")
    assert "t2_s = 5e-324" in line and "dwell 0.000244140625" in line


def test_run_refuses_relax_beyond_t2_twice_t1(tmp_path):
    # relaxation has no Lindblad form for T2 > 2 T1: t1 0.25 s against the
    # default T2 of 0.58 s
    seq = tmp_path / "fast_t1.pseq"
    seq.write_text("t1 0.25\nrelax 0.1\nselective I\nacquire 1024 0.000244140625\n")
    line = refusal_line(["run", str(seq)], tmp_path / "refused")
    assert "2:1" in line and "t1_s = 0.25" in line and "t2_s = 0.58" in line

    def run(name, path, *flags):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "spinpair",
                               "run", str(path), *flags, "--out", str(out)],
                              capture_output=True, text=True, env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert [p.name for p in out.iterdir()] == [Path(proc.stdout.strip()).name]

    # acquisition reads only T2, so the same deck without relax runs
    seq.write_text("t1 0.25\nselective I\nacquire 1024 0.000244140625\n")
    run("no_relax", seq)
    # T2 = 2 T1 exactly is the edge of the Lindblad form
    seq.write_text("relax 0.1\nselective I\nacquire 1024 0.000244140625\n")
    run("at_2t1", seq, "--t1-s", "0.29")
    run("shipped", SEQ_DIR / "singlet_relax.pseq", "--t1-s", "0.29")


# extreme finite values for every numeric argument of a sequence: zero,
# subnormals, the float limit and ordinary values, either sign
EXTREME_VALUES = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-3,
                  0.5, 1.0, 90.0, 492.0, 1e300, 1e307, 1.7e308)


def extreme_token(kind):
    """Tokens for an argument of kind (seqdsl._STATEMENTS) or a header
    value ("d"): mostly in the argument's domain, sometimes outside it."""
    if kind == "T":
        return st.sampled_from(["I", "S"])
    if kind == "n":
        return st.sampled_from(["1", "2", "3", "16", "64"])
    signed = st.tuples(st.sampled_from(EXTREME_VALUES), st.sampled_from([1, 1, 1, -1]))
    return signed.map(lambda vs: repr(vs[0] * vs[1]))


@st.composite
def extreme_sequences(draw):
    """.pseq text: a few headers, a few statements of every kind, and a
    small acquisition most of the time, each value drawn by extreme_token."""
    lines = [f"{key} {draw(extreme_token('d'))}" for key in draw(
        st.lists(st.sampled_from(seqdsl.HEADER_KEYS), unique=True, max_size=3))]
    ops = st.sampled_from([op for op in seqdsl._STATEMENTS if op != "acquire"])
    for op in draw(st.lists(ops, max_size=4)):
        kinds = seqdsl._STATEMENTS[op][0]
        lines.append(" ".join([op] + [draw(extreme_token(k)) for k in kinds]))
    if draw(st.integers(0, 3)):
        lines.append(" ".join(["acquire"] + [draw(extreme_token(k))
                                             for k in seqdsl._STATEMENTS["acquire"][0]]))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=extreme_sequences())
def test_run_contract_holds_on_extreme_sequences(text):
    # exit 0 or 2, never a traceback or a numeric warning, and a refused
    # run leaves neither run_<id>/ nor its hidden temporary behind
    with tempfile.TemporaryDirectory() as tmp:
        seq, out = Path(tmp) / "fuzz.pseq", Path(tmp) / "out"
        seq.write_text(text)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(["run", str(seq), "--out", str(out)])
        assert code in (0, 2), text
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], text
        if code == 2:
            assert err.getvalue().startswith("error:"), text
            assert not out.exists() or not list(out.glob("*run_*")), text


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_run_refuses_non_finite_carrier_ppm(tmp_path, value):
    # the = form; the two-token form is tested below
    line = refusal_line(["run", str(SEQ_DIR / "selective_i.pseq"), f"--carrier-ppm={value}"],
                        tmp_path / "out")
    assert line == f"error: carrier ppm must be finite, got {float(value)!r}"


def test_run_reads_exponent_form_negative_flag_value(tmp_path, capsys):
    # argparse alone reads -1e3 as an option and exits 2 with its usage text
    assert run_cli("run", SEQ_DIR / "filtration.pseq", "--carrier-ppm", "-1e3",
                   "--out", tmp_path / "split") == 0
    split = Path(capsys.readouterr().out.strip())
    assert run_cli("run", SEQ_DIR / "filtration.pseq", "--carrier-ppm=-1e3",
                   "--out", tmp_path / "joined") == 0
    joined = Path(capsys.readouterr().out.strip())
    manifest = json.loads((split / "manifest.json").read_text())
    assert manifest["carrier_ppm"] == -1000.0
    assert (split / "manifest.json").read_bytes() == (joined / "manifest.json").read_bytes()


@pytest.mark.parametrize("argv, message", [
    (["run", str(SEQ_DIR / "filtration.pseq"), "--carrier-ppm", "-inf"],
     "error: carrier ppm must be finite"),
    (["state", "singlet", "--j-hz", "-1e1"], "error: j_hz must be strictly positive"),
    (["paper-repro", "--t2-s", "-2.5E-1"], "error: t2_s must be strictly positive"),
], ids=["carrier-ppm", "j-hz", "t2-s"])
def test_negative_exponent_flag_value_is_refused_by_the_program(tmp_path, argv, message):
    assert refusal_line(argv, tmp_path / "out").startswith(message)


@pytest.mark.parametrize("argv", [
    ["run", str(SEQ_DIR / "filtration.pseq"), "--carrier-ppm", "-x"],
    ["run", str(SEQ_DIR / "filtration.pseq"), "--carrier-ppm", "abc"],
    ["run", str(SEQ_DIR / "filtration.pseq"), "--state", "-1e3"],
    ["state", "singlet", "--seed", "-1e1"],
], ids=["option-like", "non-numeric", "string-flag", "int-flag"])
def test_non_number_flag_value_stays_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", tmp_path / "out")
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_number_flags_are_every_float_and_int_flag():
    parser = cli.build_parser()
    flags = set()
    for sub in parser._subparsers._group_actions[0].choices.values():
        flags |= {a.option_strings[0] for a in sub._actions
                  if a.option_strings and a.type in (float, int)}
    assert flags == cli._NUMBER_FLAGS


def test_join_number_values():
    join = cli._join_number_values
    assert join(["--carrier-ppm", "-1e3", "--j-hz", "-inf", "x"]) == [
        "--carrier-ppm=-1e3", "--j-hz=-inf", "x"]
    assert join(["--state", "-1e3", "--seed"]) == ["--state", "-1e3", "--seed"]
    assert join(["--carrier-ppm", "-x", "--j-hz", "--seed"]) == [
        "--carrier-ppm", "-x", "--j-hz", "--seed"]
    assert join(["a", "--", "--seed", "-1"]) == ["a", "--", "--seed", "-1"]
    assert join(["--ph2-integrals", "-0.1,0.1,0.2,-0.2", "--thermal-integrals", "-1"]) == [
        "--ph2-integrals=-0.1,0.1,0.2,-0.2", "--thermal-integrals=-1"]
    # a token that is not a float leaves the pair to argparse, as does --
    assert join(["--ph2-integrals", "-1,x", "--thermal-integrals", "-1,"]) == [
        "--ph2-integrals", "-1,x", "--thermal-integrals", "-1,"]
    assert join(["--", "--ph2-integrals", "-1"]) == ["--", "--ph2-integrals", "-1"]


def test_calibrate_reads_a_signed_integral_list_as_the_next_argument(tmp_path, capsys):
    # antiphase integrals are signed; argparse took -0.1,... for an option
    # and exited 2 with "expected one argument"
    ph2, thermal = "-0.1,0.1,0.2,-0.2", "-1e-3,1e-3"
    assert run_cli("calibrate", "--ph2-integrals", ph2, "--thermal-integrals", thermal,
                   "--max-enhancement", "1000", "--out", tmp_path / "a") == 0
    assert run_cli("calibrate", f"--ph2-integrals={ph2}", f"--thermal-integrals={thermal}",
                   "--max-enhancement=1000", "--out", tmp_path / "b") == 0
    got, want = ((tmp_path / d / "calibration.json").read_text() for d in "ab")
    assert got == want
    assert json.loads(got)["raw_ratio"] == pytest.approx(300.0)


@pytest.mark.parametrize("argv, message", [
    (["calibrate", "--ph2-integrals", "1e308,1e308", "--thermal-integrals", "1"],
     "summed integrals must be finite"),
    (["state", "thermal-exact", "--temp-k", "1e-320"], "underflows to 0"),
    (["paper-repro", "--nu-hz", "1e-300"], "underflows to 0"),
    (["paper-repro", "--temp-k", "1e-300", "--nu-hz", "1e300"], "B overflows"),
], ids=["calibrate-overflow", "thermal-exact-underflow",
        "paper-repro-underflow", "paper-repro-b-overflow"])
def test_overflowing_input_refused_without_numpy_warning(tmp_path, argv, message):
    assert message in refusal_line(argv, tmp_path / "out")


def test_analyze_refuses_entries_near_the_float_limit_with_one_error_line(tmp_path):
    re = np.eye(4) / 4
    re[0, 1] = re[1, 0] = 1.7e308
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps({"basis": "zeeman", "re": re.tolist(),
                               "im": np.zeros((4, 4)).tolist()}))
    line = refusal_line(["analyze", str(bad)], tmp_path / "out")
    assert "eigenvalues not computable" in line


def test_system_flags_mirror_params():
    parser = cli.build_parser()
    sub = parser._subparsers._group_actions[0].choices["paper-repro"]
    group, = [g for g in sub._action_groups if g.title == "system parameters"]
    flags = [a.option_strings[0] for a in group._group_actions]
    assert flags == ["--nu-hz", "--delta-nu-hz", "--j-hz", "--temp-k", "--t1-s",
                     "--t2-s", "--f-active", "--seed", "--out"]
    names = [f.name for f in dataclasses.fields(SpinSystemParams)]
    args = parser.parse_args(["paper-repro"])
    assert cli._params_from_args(args) == SpinSystemParams()
    for flag, name in zip(flags, names):
        args = vars(parser.parse_args(["paper-repro", flag, "1.5"]))
        assert args[name] == 1.5
        assert all(args[n] == getattr(SpinSystemParams(), n) for n in names if n != name)


def test_paper_repro_runs_without_scipy(tmp_path):
    # the runtime needs numpy only: scipy is blocked before spinpair loads
    code = ("import runpy, sys; sys.modules['scipy'] = None; "
            "runpy.run_module('spinpair', run_name='__main__', alter_sys=True)")
    proc = subprocess.run([sys.executable, "-c", code, "paper-repro", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "paper_repro.json").exists()


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
    # an empty list on either side is no calibration: it exited 0 with epsilon 0.0
    for ph2, thermal in ((",", "1"), ("1", ","), ("", "1")):
        assert run_cli("calibrate", "--ph2-integrals", ph2,
                       "--thermal-integrals", thermal, "--out", tmp_path) == 2
    # --max-enhancement inf exited 0 and wrote "max_enhancement": Infinity,
    # which is not standard JSON
    for ceiling in ("inf", "-inf", "nan", "0"):
        assert run_cli("calibrate", "--ph2-integrals", "77000", "--thermal-integrals", "1",
                       "--max-enhancement", ceiling, "--out", tmp_path) == 2
        assert "max_enhancement must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "calibration.json").exists()


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
