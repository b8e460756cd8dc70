"""Text format, parser, and compiler for pulse-sequence programs.

Grammar, one statement per line, units fixed (degrees, seconds, Hz):

    # comment                      full-line or trailing
    nu 400e6                       header: nu delta_nu j temp t1 t2 f_active
    pulse ANGLE PHASE              hard pulse on both spins
    selective I|S                  composite selective 90 on one spin
    delay T                        free evolution, J coupling active
    gradient_period                1/delta_nu evolution + gradient crush
    zqdephase                      zero-quantum dephasing (slow addition)
    relax T                        per-spin T1/T2 relaxation for T s (T2 <= 2 T1)
    acquire N DWELL                record N points every DWELL seconds

Headers override the params object handed to compile. No loops, no
variables, no phase cycling: the sequences this encodes are short and
linear, and anything fancier belongs in Python.

_STATEMENTS is the one list of statements: parse reads each statement's
argument kinds from it, and compile checks and lowers through it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

from .channels import (
    ChannelError,
    ChannelProgram,
    free_evolution,
    gradient_period,
    hard_pulse,
    relax as relax_channel,
    selective_pulse,
    zq_dephase,
)
from .spectro import SpectroError, check_points
from .states import SpinSystemParams

_HEADER_TO_PARAM = {
    "nu": "nu_hz", "delta_nu": "delta_nu_hz", "j": "j_hz", "temp": "temp_k",
    "t1": "t1_s", "t2": "t2_s", "f_active": "f_active",
}
HEADER_KEYS = tuple(_HEADER_TO_PARAM)

_TOKEN_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class SourcePos:
    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}"


_NOWHERE = SourcePos(0, 0)


@dataclass(frozen=True)
class ParseError:
    pos: SourcePos
    message: str

    def __str__(self):
        return f"{self.pos}: {self.message}"


class SequenceSyntaxError(ValueError):
    """All problems found in one parse, each with a line:column position."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("\n".join(str(e) for e in self.errors))


class CompileError(ValueError):
    pass


@dataclass(frozen=True)
class Statement:
    op: str
    args: tuple = ()
    pos: SourcePos = field(compare=False, default=_NOWHERE)


@dataclass(frozen=True)
class SequenceAst:
    """headers is a tuple of (key, value) pairs in canonical key order."""

    headers: tuple = ()
    statements: tuple = ()

    def header_dict(self) -> dict:
        return dict(self.headers)


# statement name -> (argument kinds, needs delta_nu, lowering), the one
# list of statements. Kinds are one character per argument: f = finite
# float, t = finite float >= 0, n = int >= 1, d = float > 0, T = spin target
# token. A lowering takes the effective params and the arguments and
# returns the statement's channels; acquire has none, as compile turns it
# into the AcquisitionSpec.
_STATEMENTS = {
    "pulse": ("ff", False, lambda eff, angle, phase: (hard_pulse(angle, phase),)),
    "selective": ("T", True, lambda eff, spin: selective_pulse(spin, eff).channels),
    "delay": ("t", False, lambda eff, t: (free_evolution(t, eff),)),
    "gradient_period": ("", True, gradient_period),
    "zqdephase": ("", False, lambda eff: (zq_dephase(),)),
    "relax": ("t", False, lambda eff, t: (relax_channel(t, eff),)),
    "acquire": ("nd", False, None),
}


def _parse_value(kind: str, token: str):
    """Returns (value, error message or None)."""
    if kind == "T":
        if token in ("I", "S"):
            return token, None
        return None, f"spin target must be I or S, got {token!r}"
    if kind == "n":
        try:
            v = int(token)
        except ValueError:
            return None, f"expected an integer, got {token!r}"
        if v < 1:
            return None, f"expected a positive count, got {v}"
        return v, None
    try:
        v = float(token)
    except ValueError:
        return None, f"expected a number, got {token!r}"
    if not math.isfinite(v):
        return None, f"value must be finite, got {token!r}"
    if kind == "t" and v < 0:
        return None, f"duration must be non-negative, got {token!r}"
    if kind == "d" and v <= 0:
        return None, f"expected a positive value, got {token!r}"
    return v, None


def _read_args(op: str, tokens: list) -> tuple:
    """(args, None) for the argument tokens of statement op, read by their
    kinds in _STATEMENTS, or (None, (i, message)) for the first problem,
    with i the index of the bad token, or -1 for the statement itself."""
    if op not in _STATEMENTS:
        return None, (-1, f"unknown statement {op!r}")
    kinds = _STATEMENTS[op][0]
    if len(tokens) != len(kinds):
        return None, (-1, f"{op} takes {len(kinds)} argument(s), got {len(tokens)}")
    args = []
    for i, (kind, token) in enumerate(zip(kinds, tokens)):
        val, err = _parse_value(kind, token)
        if err:
            return None, (i, err)
        args.append(val)
    return tuple(args), None


def parse(text: str) -> SequenceAst:
    """Parse sequence text; collects every error before raising."""
    errors = []
    headers = {}
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]
        if not tokens:
            continue
        (word, col), rest = tokens[0], tokens[1:]
        pos = SourcePos(lineno, col)

        if word in HEADER_KEYS:
            if word in headers:
                errors.append(ParseError(pos, f"duplicate header {word!r}"))
                continue
            if len(rest) != 1:
                errors.append(ParseError(
                    pos, f"header {word} takes exactly one value, got {len(rest)}"))
                continue
            val, err = _parse_value("d", rest[0][0])
            if err:
                errors.append(ParseError(SourcePos(lineno, rest[0][1]), err))
                continue
            headers[word] = val
            continue

        args, err = _read_args(word, [token for token, _ in rest])
        if err:
            i, message = err
            errors.append(ParseError(
                pos if i < 0 else SourcePos(lineno, rest[i][1]), message))
            continue
        if word == "acquire" and any(s.op == "acquire" for s in statements):
            errors.append(ParseError(pos, "duplicate acquire statement"))
            continue
        statements.append(Statement(op=word, args=args, pos=pos))

    if errors:
        raise SequenceSyntaxError(errors)
    canon_headers = tuple((k, headers[k]) for k in HEADER_KEYS if k in headers)
    return SequenceAst(headers=canon_headers, statements=tuple(statements))


def _fmt(value) -> str:
    # repr of a Python float is the shortest round-trip decimal
    return repr(value) if isinstance(value, float) else str(value)


def format(ast: SequenceAst) -> str:
    """Canonical text: headers in fixed order, one statement per line.
    parse(format(ast)) == ast, and formatting is idempotent."""
    lines = [f"{k} {_fmt(v)}" for k, v in ast.headers]
    for stmt in ast.statements:
        parts = [stmt.op] + [_fmt(a) for a in stmt.args]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class AcquisitionSpec:
    n_points: int
    dwell_s: float


def compile(ast: SequenceAst, params: SpinSystemParams | None = None):
    """Lower an AST to (ChannelProgram, AcquisitionSpec | None).

    Header values override fields of params. Without a params object the
    statements that need delta_nu (selective, gradient_period) insist on a
    delta_nu header; everything else falls back to the demo defaults.

    The AST's values are read back from their text by parse's own rules,
    so an AST that parse would refuse as text (an unknown header or
    statement, a wrong argument count, a value out of its domain) raises
    CompileError.
    """
    headers = ast.header_dict()
    for key, value in headers.items():
        if key not in HEADER_KEYS:
            raise CompileError(f"unknown header {key!r}")
        headers[key], err = _parse_value("d", str(value))
        if err:
            raise CompileError(f"header {key}: {err}")
    checked = []
    for stmt in ast.statements:
        args, err = _read_args(stmt.op, [str(a) for a in stmt.args])
        if err:
            raise CompileError(f"{stmt.pos}: {err[1]}")
        checked.append((stmt, args))
    needs_dnu = any(_STATEMENTS[stmt.op][1] for stmt, _ in checked)
    if params is None and needs_dnu and "delta_nu" not in headers:
        raise CompileError(
            "sequence uses selective/gradient_period but sets no delta_nu "
            "header and no params were given")
    base = params if params is not None else SpinSystemParams()
    try:
        eff = replace(base, **{_HEADER_TO_PARAM[k]: v for k, v in headers.items()})
    except ValueError as exc:
        raise CompileError(f"bad header value: {exc}") from exc

    channels = []
    statements = []
    acq = None
    for stmt, args in checked:
        if acq is not None:
            raise CompileError(
                f"{stmt.pos}: statement after acquire; acquire must be last")
        lower = _STATEMENTS[stmt.op][2]
        try:
            if lower is None:
                n, dwell = args
                check_points(n)
                acq = AcquisitionSpec(n_points=n, dwell_s=dwell)
                continue
            channels.extend(lower(eff, *args))
        except (ChannelError, SpectroError) as exc:
            raise CompileError(f"{stmt.pos}: {exc}") from exc
        statements.append((stmt.op, *args))
    program = ChannelProgram(channels=tuple(channels), params=eff,
                             statements=tuple(statements))
    return program, acq


def program_to_text(program: ChannelProgram, acq: AcquisitionSpec | None = None) -> str:
    """Serialize a compiled program back to sequence text.

    Only programs that carry source statements (anything built by compile,
    selective_pulse, or filtration_sequence) serialize; emits the full
    header block so the reparse reproduces the same params snapshot. The
    text is format's, of the AST of the headers, the statements and the
    acquire statement.
    """
    if program.statements is None:
        raise ValueError("program carries no source statements; cannot serialize")
    p = program.params
    acquire = () if acq is None else (Statement("acquire", (acq.n_points, acq.dwell_s)),)
    return format(SequenceAst(
        headers=tuple((k, getattr(p, _HEADER_TO_PARAM[k])) for k in HEADER_KEYS),
        statements=tuple(Statement(op, args) for op, *args in program.statements) + acquire))
