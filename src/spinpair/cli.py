"""Command-line front end.

Subcommands: state, run, analyze, calibrate, paper-repro. All outputs are
deterministic for a fixed (arguments, seed): manifests carry no timestamps
and every float prints as its shortest round-trip decimal. Exit codes:
0 success, 1 analysis failure (a reproduction row missed its tolerance),
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, repro, seqdsl, spectro
from .channels import ChannelError, apply
from .states import (
    DensityMatrix,
    NAMED_STATES,
    SpinSystemParams,
    StateValidationError,
    fidelity,
    make_named_state,
    make_pseudo_pure,
    make_singlet,
    make_thermal,
    to_bell_populations,
    to_product_operators,
)
from .svgplot import DEFAULT_CARRIER_PPM, write_spectrum_svg

STATE_NAMES = ("singlet", "thermal", "thermal-exact") + NAMED_STATES


class CliError(Exception):
    """Usage or I/O problem; maps to exit code 2."""


def _params_from_args(args) -> SpinSystemParams:
    try:
        return SpinSystemParams(
            nu_hz=args.nu_hz, delta_nu_hz=args.delta_nu_hz, j_hz=args.j_hz,
            temp_k=args.temp_k, t1_s=args.t1_s, t2_s=args.t2_s,
            f_active=args.f_active)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _resolve_state(name: str, params: SpinSystemParams) -> DensityMatrix:
    if name == "singlet":
        return make_singlet()
    if name == "thermal":
        return make_thermal(params, mode="linearized")
    if name == "thermal-exact":
        return make_thermal(params, mode="exact")
    if name.startswith("pseudo:"):
        try:
            eps = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise CliError(f"bad polarization in {name!r}") from exc
        try:
            return make_pseudo_pure(eps, make_singlet())
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    if name in NAMED_STATES:
        return make_named_state(name)
    raise CliError(
        f"unknown state {name!r}; valid: {', '.join(STATE_NAMES)} or pseudo:EPS")


def _state_payload(rho: DensityMatrix) -> dict:
    pops = to_bell_populations(rho)
    return {
        "basis": "zeeman",
        "re": [[float(v) for v in row] for row in rho.matrix.real],
        "im": [[float(v) for v in row] for row in rho.matrix.imag],
        "bell": [pops.pS, pops.pT0, pops.pTplus, pops.pTminus],
        "off_bell": pops.offBell,
        "product_operators": to_product_operators(rho).as_dict(),
    }


def _load_state(path: Path) -> DensityMatrix:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read state file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    if payload.get("basis") != "zeeman":
        raise CliError(f"{path}: unsupported or missing basis, expected 'zeeman'")
    try:
        m = np.array(payload["re"], dtype=float) + 1j * np.array(payload["im"], dtype=float)
        return DensityMatrix(m)
    except (KeyError, ValueError, StateValidationError) as exc:
        raise CliError(f"{path}: not a valid state: {exc}") from exc


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_state(args) -> int:
    params = _params_from_args(args)
    rho = _resolve_state(args.name, params)
    out = _outdir(args)
    path = out / f"state_{args.name.replace(':', '_')}.json"
    _write_json(path, _state_payload(rho))
    print(path)
    return 0


def _csv(axis_name: str, axis, values) -> str:
    lines = [f"{axis_name},re,im"]
    for a, v in zip(axis, values):
        lines.append(f"{float(a)!r},{float(v.real)!r},{float(v.imag)!r}")
    return "\n".join(lines) + "\n"


def cmd_run(args) -> int:
    params = _params_from_args(args)
    seq_path = Path(args.sequence)
    try:
        text = seq_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read sequence {seq_path}: {exc}") from exc
    try:
        ast = seqdsl.parse(text)
        program, acq = seqdsl.compile(ast, params)
    except (seqdsl.SequenceSyntaxError, seqdsl.CompileError) as exc:
        raise CliError(f"{seq_path}: {exc}") from exc

    initial = _resolve_state(args.state, program.params)
    try:
        final = apply(program, initial)
    except ChannelError as exc:
        raise CliError(str(exc)) from exc

    if acq is not None:
        fid = spectro.synthesize_fid(final, program.params, acq.n_points, acq.dwell_s)
        if args.noise_sigma > 0:
            fid = spectro.add_noise(fid, args.noise_sigma, args.seed)
        spec = spectro.fourier(fid)
        regions = spectro.component_regions(program.params)
        for lo, hi in regions:
            if ((spec.freqs_hz >= lo) & (spec.freqs_hz <= hi)).sum() < 2:
                raise CliError(
                    f"{seq_path}: component region [{lo}, {hi}] Hz holds fewer "
                    f"than 2 spectral points; acquire more points or a longer dwell")
        integrals = spectro.component_integrals(spec, program.params)

    run_key = json.dumps({
        "sequence": text, "state": args.state, "seed": args.seed,
        "params": vars(params).copy(),
        "noise_sigma": args.noise_sigma,
        "carrier_ppm": args.carrier_ppm,
    }, sort_keys=True)
    run_id = hashlib.sha256(run_key.encode()).hexdigest()[:12]
    out = _outdir(args)
    final_dir = out / f"run_{run_id}"
    pops = to_bell_populations(final)
    manifest = {
        "command": "run",
        "version": __version__,
        "run_id": run_id,
        "sequence_path": str(seq_path),
        "sequence_text": text,
        "initial_state": args.state,
        "seed": args.seed,
        "noise_sigma": args.noise_sigma,
        "params": {k: float(v) for k, v in vars(program.params).items()},
        "derived": {
            "total_duration_s": program.total_duration_s,
            "fidelity_vs_initial": fidelity(final, initial),
            "final_bell": list(pops.as_tuple()),
            "final_off_bell": pops.offBell,
        },
    }
    if acq is not None:
        manifest["derived"]["acquisition"] = {
            "n_points": acq.n_points, "dwell_s": acq.dwell_s,
            "component_regions_hz": [list(r) for r in regions],
            "component_integrals": integrals.tolist(),
        }
    # written into a hidden sibling and moved into place whole, so a
    # failed write leaves no run_<id>/ behind and a rerun replaces it; a
    # stale sibling from a killed process of the same pid is cleared first
    tmp = out / f".run_{run_id}.{os.getpid()}.tmp"
    try:
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        _write_json(tmp / "final_state.json", _state_payload(final))
        if acq is not None and args.csv:
            (tmp / "fid.csv").write_text(
                _csv("t_s", fid.times_s, fid.samples), encoding="utf-8")
            (tmp / "spectrum.csv").write_text(
                _csv("freq_hz", spec.freqs_hz, spec.values), encoding="utf-8")
        if acq is not None and args.svg:
            write_spectrum_svg(tmp / "spectrum.svg", spec, regions,
                               program.params, carrier_ppm=args.carrier_ppm,
                               title=seq_path.name)
        _write_json(tmp / "manifest.json", manifest)
        shutil.rmtree(final_dir, ignore_errors=True)
        os.replace(tmp, final_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(final_dir)
    return 0


def cmd_analyze(args) -> int:
    rho = _load_state(Path(args.state_json))
    report = analysis.analyze(rho)
    out = _outdir(args)
    path = out / "entanglement_report.json"
    _write_json(path, report.as_dict())
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0


def _parse_floats(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"bad number list {text!r}") from exc


def cmd_calibrate(args) -> int:
    params = _params_from_args(args)
    try:
        result = spectro.calibrate(
            _parse_floats(args.ph2_integrals),
            _parse_floats(args.thermal_integrals),
            scan_norm=args.scan_norm, params=params,
            max_enhancement=args.max_enhancement)
    except spectro.SpectroError as exc:
        raise CliError(str(exc)) from exc
    out = _outdir(args)
    _write_json(out / "calibration.json", result.as_dict())
    print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    return 0


def cmd_paper_repro(args) -> int:
    params = _params_from_args(args)
    rows, ok = repro.paper_repro(params)
    table = repro.format_repro_table(rows)
    out = _outdir(args)
    _write_json(out / "paper_repro.json", {"rows": rows, "all_pass": ok})
    (out / "paper_repro.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("system parameters")
    defaults = SpinSystemParams()
    g.add_argument("--nu-hz", type=float, default=defaults.nu_hz)
    g.add_argument("--delta-nu-hz", type=float, default=defaults.delta_nu_hz)
    g.add_argument("--j-hz", type=float, default=defaults.j_hz)
    g.add_argument("--temp-k", type=float, default=defaults.temp_k)
    g.add_argument("--t1-s", type=float, default=defaults.t1_s)
    g.add_argument("--t2-s", type=float, default=defaults.t2_s)
    g.add_argument("--f-active", type=float, default=defaults.f_active)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="spinpair_out", help="output directory")

    p = argparse.ArgumentParser(prog="spinpair", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("state", parents=[common],
                        help="emit a state JSON with populations and coefficients")
    sp.add_argument("name", help=f"one of {', '.join(STATE_NAMES)} or pseudo:EPS")
    sp.set_defaults(func=cmd_state)

    rp = sub.add_parser("run", parents=[common],
                        help="compile a .pseq file, apply it, acquire if asked")
    rp.add_argument("sequence", help="path to a .pseq sequence file")
    rp.add_argument("--state", default="singlet",
                    help="initial state name (default singlet)")
    rp.add_argument("--noise-sigma", type=float, default=0.0)
    rp.add_argument("--carrier-ppm", type=float, default=DEFAULT_CARRIER_PPM)
    rp.add_argument("--csv", action=argparse.BooleanOptionalAction, default=True)
    rp.add_argument("--svg", action=argparse.BooleanOptionalAction, default=True)
    rp.set_defaults(func=cmd_run)

    ap = sub.add_parser("analyze", parents=[common],
                        help="entanglement report for a state JSON")
    ap.add_argument("state_json", help="path to a state JSON file")
    ap.set_defaults(func=cmd_analyze)

    cp = sub.add_parser("calibrate", parents=[common],
                        help="polarization from multiplet integrals")
    cp.add_argument("--ph2-integrals", required=True,
                    help="comma-separated component integrals")
    cp.add_argument("--thermal-integrals", required=True)
    cp.add_argument("--scan-norm", type=float, default=1.0)
    cp.add_argument("--max-enhancement", type=float, default=None,
                    help="override the 2/B ceiling (e.g. an externally quoted value)")
    cp.set_defaults(func=cmd_calibrate)

    pp = sub.add_parser("paper-repro", parents=[common],
                        help="reproduce every headline number with pass/fail")
    pp.set_defaults(func=cmd_paper_repro)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, StateValidationError, ChannelError,
            spectro.SpectroError, seqdsl.CompileError,
            seqdsl.SequenceSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
