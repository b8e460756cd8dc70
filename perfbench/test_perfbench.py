"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import tail_percentile  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (39, None),          # p75 would leave 9 beyond it
    (40, (75.0, 30)),    # rank 30 of 40, 10 beyond
    (99, (75.0, 75)),    # p90 leaves 9
    (100, (90.0, 90)),
    (200, (95.0, 190)),
    (1000, (99.0, 990)),
    (10000, (99.9, 9990)),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    assert tail_percentile(samples) == expected


def test_tail_percentile_of_few_samples_is_omitted():
    assert tail_percentile([]) is None
    assert tail_percentile([5.0] * 12) is None


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # outer [0, 100] holds mid [10, 60], which holds leaf [20, 30];
    # a second leaf [70, 75] sits directly under outer
    clock = _fake_clock([0, 10, 20, 30, 60, 70, 75, 100])
    tr = tracing.Tracer(clock=clock)
    leaf = tr.wrap("spectro.fourier", lambda fid: fid)
    mid = tr.wrap("spectro.readout_integrals", lambda: leaf(SimpleNamespace(n=8)))

    def outer_body():
        mid()
        leaf(SimpleNamespace(n=4))
    outer = tr.wrap("repro.run_pipeline", outer_body)
    tr.op = 0
    outer()
    tr.op = None
    m = tracing.layer_metrics(tr.spans, tr.counts, op_wall_ns=120)
    assert m["repro.run_pipeline.total_ms"][0] == 100 / 1e6
    assert m["repro.run_pipeline.self_ms"][0] == (100 - 50 - 5) / 1e6
    assert m["spectro.readout_integrals.self_ms"][0] == (50 - 10) / 1e6
    assert m["spectro.fourier.calls"][0] == 2
    assert m["spectro.fourier.self_ms"][0] == 15 / 1e6
    assert m["spectro.fourier.points"][0] == 12
    # self times partition the traced time; the rest of the op is reported
    self_sum = sum(v for k, (v, _) in m.items() if k.endswith(".self_ms"))
    assert self_sum == pytest.approx(100 / 1e6, rel=1e-12)
    assert m["trace.unattributed_ms"][0] == 20 / 1e6


def test_spans_outside_an_operation_are_not_recorded_and_errors_count():
    tr = tracing.Tracer()

    def boom():
        raise ValueError("bad")
    f = tr.wrap("seqdsl.parse", boom)
    with pytest.raises(ValueError):
        f()
    assert tr.spans == []
    tr.op = 3
    with pytest.raises(ValueError):
        f()
    m = tracing.layer_metrics(tr.spans, tr.counts, op_wall_ns=0)
    assert m["seqdsl.parse.errors"][0] == 1 and tr.spans[0][tracing.OP] == 3


def test_validations_per_call_counts_only_nested_constructions():
    clock = _fake_clock(range(100))
    tr = tracing.Tracer(clock=clock)
    make = tr.wrap("states.DensityMatrix", lambda: None)

    def apply_body():
        make()
        make()
    apply = tr.wrap("channels.apply", apply_body)
    tr.op = 0
    make()
    apply()
    apply()
    m = tracing.layer_metrics(tr.spans, tr.counts, op_wall_ns=0)
    assert m["states.DensityMatrix.calls"][0] == 5
    assert m["channels.apply.validations_per_call"][0] == 2.0


def test_install_rebinds_every_namespace_and_uninstall_restores():
    def apply(x):
        return x + 1
    home = SimpleNamespace(apply=apply)
    user = SimpleNamespace(apply=apply, other=len)
    tr = tracing.Tracer()
    missing = tr.install({"channels": home, "cli": user})
    assert "channels.apply" not in missing and "states.DensityMatrix" in missing
    assert home.apply is not apply and user.apply is home.apply
    tr.op = 0
    assert user.apply(1) == 2 and tr.spans[0][tracing.NAME] == "channels.apply"
    tr.uninstall()
    assert home.apply is apply and user.apply is apply


def input_bytes(workload, seed, rounds):
    """Canonical serialization of the first `rounds` rounds of inputs."""
    return "\n".join(
        repr(sorted((k, v.tobytes() if isinstance(v, np.ndarray) else v)
                    for k, v in inp.items()))
        for r in range(rounds) for inp in workloads.round_inputs(workload, seed, r)
    ).encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    a = input_bytes(workload, seed=7, rounds=2)
    assert a == input_bytes(workload, seed=7, rounds=2)
    assert a != input_bytes(workload, seed=8, rounds=2)


def test_round_inputs_do_not_depend_on_earlier_rounds():
    later = workloads.round_inputs("ensemble", 5, 3)[0]["matrices"]
    workloads.round_inputs("ensemble", 5, 0)
    assert np.array_equal(later, workloads.round_inputs("ensemble", 5, 3)[0]["matrices"])


def test_cli_deck_keeps_its_mix():
    kinds = []
    for r in range(2):
        deck = workloads.round_inputs("cli-run", 11, r)
        assert len(deck) == 20
        assert sum(d["expect"] == "usage" for d in deck) == 1
        assert sum(d["kind"] == "acquire-4096" for d in deck) == 6
        kinds += [d["kind"] for d in deck if d["expect"] == "usage"]
    assert sorted(kinds) == sorted(workloads.MALFORMED_KINDS)
    assert not set(kinds) & set(workloads.KNOWN_DEFECT_KINDS)


def test_known_defect_inputs_are_seeded_and_only_for_cli_run():
    probes = workloads.known_defect_inputs("cli-run", 3)
    assert [p["kind"] for p in probes] == list(workloads.KNOWN_DEFECT_KINDS)
    assert probes == workloads.known_defect_inputs("cli-run", 3)
    assert all(p["expect"] == "usage" for p in probes)
    assert workloads.known_defect_inputs("ensemble", 3) == []


def test_ensemble_states_are_valid_density_matrices():
    inp = workloads.round_inputs("ensemble", 2, 0)[0]
    assert len(inp["kinds"]) == workloads.ENSEMBLE_STATES
    for m in inp["matrices"]:
        assert np.abs(m - m.conj().T).max() == 0
        assert abs(np.trace(m) - 1) < 1e-12
        assert np.linalg.eigvalsh(m).min() > -1e-10
