import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

SCAN = Path(__file__).resolve().parent.parent / "scripts" / "entanglement_threshold_scan.py"


@pytest.fixture
def scan(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("entanglement_threshold_scan", SCAN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", ["scan", "--out", str(tmp_path / "scan.csv"),
                                      "--grid", "11"])
    return module


def test_threshold_scan_passes(scan, capsys):
    assert scan.main() == 0
    assert "FAIL" not in capsys.readouterr().err


def test_threshold_scan_fails_on_an_exception_to_the_rule(scan, monkeypatch, capsys):
    verdict = scan.singlet_mixture_entangled
    monkeypatch.setattr(scan, "singlet_mixture_entangled",
                        lambda a, x: verdict(a, x) | (np.asarray(a) == 0.5))
    assert scan.main() == 1
    assert "FAIL" in capsys.readouterr().err


def test_threshold_scan_fails_on_a_shifted_werner_crossing(scan, monkeypatch, capsys):
    mpt = scan.min_pt_eigenvalue
    monkeypatch.setattr(scan, "min_pt_eigenvalue", lambda rho: mpt(rho) + 1e-6)
    assert scan.main() == 1
    assert "FAIL" in capsys.readouterr().err
