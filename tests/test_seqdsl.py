import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinpair.channels import filtration_sequence, free_evolution, selective_pulse
from spinpair.seqdsl import (
    AcquisitionSpec,
    CompileError,
    SequenceAst,
    SequenceSyntaxError,
    Statement,
    compile as seq_compile,
    format as seq_format,
    parse,
    program_to_text,
)
from spinpair.states import SpinSystemParams

EXAMPLE = """# singlet readout
delta_nu 492.0
selective I
acquire 16384 0.000244140625
"""

FILTRATION = """delta_nu 492.0
gradient_period
pulse 90.0 0.0
gradient_period
"""


def test_parse_example():
    ast = parse(EXAMPLE)
    assert dict(ast.headers) == {"delta_nu": 492.0}
    ops = [s.op for s in ast.statements]
    assert ops == ["selective", "acquire"]
    assert ast.statements[0].args == ("I",)
    assert ast.statements[1].args == (16384, 0.000244140625)


def test_parse_all_statement_kinds():
    text = """nu 4.0e8
delta_nu 492.0
j 5.0
temp 295.0
t1 1.7
t2 0.58
f_active 0.368
pulse 90.0 0.0
selective S
delay 0.01
gradient_period
zqdephase
relax 0.5
acquire 8 0.25
"""
    ast = parse(text)
    assert len(ast.headers) == 7
    assert [s.op for s in ast.statements] == [
        "pulse", "selective", "delay", "gradient_period", "zqdephase",
        "relax", "acquire"]


def test_comments_and_blank_lines_ignored():
    ast = parse("\n# only a comment\n\ndelta_nu 492.0  # trailing\n\npulse 90 0 # x\n")
    assert dict(ast.headers) == {"delta_nu": 492.0}
    assert ast.statements[0].op == "pulse"
    assert ast.statements[0].args == (90.0, 0.0)


def test_error_positions_are_one_based():
    with pytest.raises(SequenceSyntaxError) as exc:
        parse("delta_nu 492.0\nbogus_op 1\n")
    err = exc.value.errors[0]
    assert err.pos.line == 2
    assert err.pos.col == 1
    assert "bogus_op" in err.message


def test_error_collection_reports_all():
    bad = "delta_nu oops\npulse 90\nselective Q\ndelay -1\nacquire 0 0.25\n"
    with pytest.raises(SequenceSyntaxError) as exc:
        parse(bad)
    msgs = [e.message for e in exc.value.errors]
    assert len(msgs) == 5
    lines = [e.pos.line for e in exc.value.errors]
    assert lines == [1, 2, 3, 4, 5]


def test_duplicate_header_rejected():
    with pytest.raises(SequenceSyntaxError) as exc:
        parse("delta_nu 492.0\ndelta_nu 500.0\npulse 90 0\n")
    assert any("duplicate" in e.message for e in exc.value.errors)


def test_multiple_acquire_rejected():
    with pytest.raises(SequenceSyntaxError) as exc:
        parse("acquire 8 0.25\nacquire 8 0.25\n")
    assert any("acquire" in e.message for e in exc.value.errors)


def test_arity_errors():
    for line in ("pulse 90", "pulse 90 0 0", "selective", "delay",
                 "gradient_period 1", "acquire 8"):
        with pytest.raises(SequenceSyntaxError):
            parse(line + "\n")


def test_value_domain_errors():
    for line in ("pulse abc 0", "delay -0.5", "relax -1", "acquire -8 0.25",
                 "acquire 8 0", "acquire 8.5 0.25", "selective X",
                 "nu -400e6"):
        with pytest.raises(SequenceSyntaxError):
            parse(line + "\n")


def test_format_is_canonical():
    messy = "j 5\n\ndelta_nu 492   # c\npulse 90 0\n"
    once = seq_format(parse(messy))
    twice = seq_format(parse(once))
    assert once == twice
    assert once.endswith("\n")
    # headers come out in canonical order regardless of input order
    assert once.index("delta_nu") < once.index("j ")


def test_format_parse_round_trip_preserves_ast():
    ast = parse(EXAMPLE)
    assert parse(seq_format(ast)) == ast


def test_compile_selective_example(params):
    program, acq = seq_compile(parse(EXAMPLE), params)
    assert acq == AcquisitionSpec(n_points=16384, dwell_s=0.000244140625)
    ref = selective_pulse("I", params)
    assert len(program.channels) == len(ref.channels) == 3
    for got, want in zip(program.channels, ref.channels):
        assert got.label == want.label
        assert np.allclose(got.superop, want.superop, atol=1e-12)
    assert program.channels[1].t_s == pytest.approx(1 / (4 * 492.0))


def test_compile_filtration_matches_builder(params):
    program, acq = seq_compile(parse(FILTRATION), params)
    assert acq is None
    ref = filtration_sequence(params)
    assert len(program.channels) == len(ref.channels) == 5
    for got, want in zip(program.channels, ref.channels):
        assert got.label == want.label
        assert np.allclose(got.superop, want.superop, atol=1e-12)
        if got.t_s is not None:
            assert got.t_s == pytest.approx(want.t_s)


def test_header_overrides_params(params):
    program, _ = seq_compile(parse("delta_nu 600.0\nselective I\n"), params)
    assert program.params.delta_nu_hz == 600.0
    assert program.params.j_hz == params.j_hz
    assert program.channels[1].t_s == pytest.approx(1 / (4 * 600.0))


def test_compile_without_params_needs_delta_nu():
    with pytest.raises(CompileError):
        seq_compile(parse("selective I\n"), None)
    program, _ = seq_compile(parse("delta_nu 492.0\nselective I\n"), None)
    assert program.params.delta_nu_hz == 492.0
    # a pure pulse program needs no shift difference at all
    program, _ = seq_compile(parse("pulse 90 0\n"), None)
    assert len(program.channels) == 1


def test_compile_rejects_bad_header_value():
    with pytest.raises(CompileError):
        seq_compile(parse("delta_nu 492.0\nj 1000.0\ndelay 0.01\n"), None)


def test_statement_after_acquire_rejected(params):
    ast = parse("delta_nu 492.0\nacquire 8 0.25\n")
    stmts = ast.statements + (Statement(op="pulse", args=(90.0, 0.0)),)
    bad = SequenceAst(headers=ast.headers, statements=stmts)
    with pytest.raises(CompileError):
        seq_compile(bad, params)


@pytest.mark.parametrize("headers, stmt", [
    pytest.param((), Statement("pulse", (90.0,)), id="pulse-one-arg"),
    pytest.param((), Statement("acquire", (1024,)), id="acquire-one-arg"),
    pytest.param((), Statement("acquire", (1024.0, 0.25)), id="acquire-float-count"),
    pytest.param((), Statement("delay", ("x",)), id="delay-text"),
    pytest.param((), Statement("delay", (-1.0,)), id="delay-negative"),
    pytest.param((), Statement("selective", ("X",)), id="selective-bad-spin"),
    pytest.param((), Statement("wobble", ()), id="unknown-op"),
    pytest.param((("wobble", 3.0),), Statement("zqdephase"), id="unknown-header"),
    pytest.param((("temp", float("inf")),), Statement("zqdephase"), id="header-inf"),
    pytest.param((("j", "x"),), Statement("zqdephase"), id="header-text"),
])
def test_compile_refuses_malformed_ast(params, headers, stmt):
    # the AST types are public, so compile checks what parse would refuse
    with pytest.raises(CompileError):
        seq_compile(SequenceAst(headers=headers, statements=(stmt,)), params)


def test_delay_uses_active_j(params):
    program, _ = seq_compile(parse("delta_nu 492.0\ndelay 0.01\n"), params)
    ch = program.channels[0]
    assert ch.label == "evolve(0.01,weak)"
    assert np.array_equal(ch.superop, free_evolution(0.01, program.params).superop)
    no_j = free_evolution(0.01, program.params, coupling="off").superop
    assert not np.allclose(ch.superop, no_j, atol=1e-12)
    assert ch.t_s == pytest.approx(0.01)


def test_program_to_text_round_trip(params):
    program, acq = seq_compile(parse(EXAMPLE), params)
    text = program_to_text(program, acq)
    program2, acq2 = seq_compile(parse(text), None)
    assert acq2 == acq
    assert len(program2.channels) == len(program.channels)
    for a, b in zip(program.channels, program2.channels):
        assert a.label == b.label
        assert np.allclose(a.superop, b.superop, atol=1e-12)
    # all seven headers are emitted so the program is self-contained
    for key in ("nu", "delta_nu", "j", "temp", "t1", "t2", "f_active"):
        assert f"\n{key} " in "\n" + text


def test_program_to_text_literal(params):
    text = "delta_nu 500\npulse 90 45.5\nrelax 0.25\nselective S\nacquire 1024 1e-3\n"
    program, acq = seq_compile(parse(text), params)
    assert program_to_text(program, acq) == (
        "nu 400000000.0\n"
        "delta_nu 500.0\n"
        "j 5.0\n"
        "temp 295.0\n"
        "t1 1.7\n"
        "t2 0.58\n"
        "f_active 0.368\n"
        "pulse 90.0 45.5\n"
        "relax 0.25\n"
        "selective S\n"
        "acquire 1024 0.001\n")
    assert program_to_text(program).endswith("selective S\n")


HEADER_VALS = {
    "nu": st.floats(1e6, 1e9), "delta_nu": st.floats(30.0, 5000.0),
    "j": st.floats(0.1, 5.0), "temp": st.floats(1.0, 400.0),
    "t1": st.floats(0.1, 10.0), "t2": st.floats(0.05, 5.0),
    "f_active": st.floats(0.01, 1.0),
}


@st.composite
def random_ast(draw):
    headers = []
    for key in ("nu", "delta_nu", "j", "temp", "t1", "t2", "f_active"):
        if draw(st.booleans()):
            headers.append((key, draw(HEADER_VALS[key])))
    stmts = []
    n = draw(st.integers(0, 6))
    for _ in range(n):
        op = draw(st.sampled_from(
            ["pulse", "selective", "delay", "gradient_period", "zqdephase",
             "relax"]))
        if op == "pulse":
            args = (draw(st.floats(0, 360)), draw(st.floats(0, 360)))
        elif op == "selective":
            args = (draw(st.sampled_from(["I", "S"])),)
        elif op in ("delay", "relax"):
            args = (draw(st.floats(0, 10.0)),)
        else:
            args = ()
        stmts.append(Statement(op=op, args=args))
    if draw(st.booleans()):
        stmts.append(Statement(op="acquire", args=(
            draw(st.integers(1, 65536)), draw(st.floats(1e-6, 1.0)))))
    return SequenceAst(headers=tuple(headers), statements=tuple(stmts))


@settings(max_examples=200, deadline=None)
@given(random_ast())
def test_random_ast_text_round_trip(ast):
    assert parse(seq_format(ast)) == ast


@settings(max_examples=300, deadline=None)
@given(st.text(
    alphabet=st.characters(
        whitelist_categories=("L", "N", "P", "S", "Zs"),
        whitelist_characters="\n\t#._-"),
    max_size=200))
def test_parser_never_crashes(text):
    # arbitrary text either parses or raises the structured syntax error
    try:
        ast = parse(text)
    except SequenceSyntaxError as exc:
        assert exc.errors
        for err in exc.errors:
            assert err.pos.line >= 1 and err.pos.col >= 1
    else:
        # whatever parsed must survive a format/parse cycle unchanged
        assert parse(seq_format(ast)) == ast
