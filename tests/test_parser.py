"""The command line parser against the argparse parser it replaced.

oracles.build_parser is that argparse parser, kept verbatim.  On argv lists
built from cli's flag table both must agree: the same attributes when
argparse accepts, exit 1 with a usage line and one error line on stderr
when argparse reports a usage error, and exit 0 with help on stdout when it
prints help.  The help text must name what the argparse parser named.

One split is deliberate: an int flag takes ASCII decimal digits after an
optional sign (cli.integer), where argparse's int() also reads padding,
underscores and non-ASCII digits.  The drawn values hold none of those;
test_int_flags_read_ascii_decimals_only checks the split itself.
"""

import contextlib
import io
import re

from hypothesis import example, given, settings, strategies as st

from braidinv import cli

import oracles

ORACLE = oracles.build_parser()
SUBCOMMANDS = ORACLE._subparsers._group_actions[0]

# values away from argparse's version-dependent corners (a lone '-', spaces,
# '--'); valid ones are drawn more often than bad ones
GOOD = {int: ["0", "7", "13", "-1", "-12"], str: ["tau", "pair:2", "1,3", "-3",
                                                    "-0.5", "", "a=b"]}
BAD = {int: ["x", "1.5", "", "-0.5"], str: []}
HEADS = [[]] * 12 + [["-h"], ["--he"], ["--bogus"], ["-5"]]
LOOSE = ["-h", "--help", "--hel", "--bogus", "--bogus=1", "-x", "stray", "5",
         "-7"]


def run(parse, argv):
    """(exit code or None, parsed attributes or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = None, vars(parse(argv))
        except SystemExit as exc:
            result = exc.code, None
    return result + (out.getvalue(), err.getvalue())


@st.composite
def flag_tokens(draw, flags, name=None):
    """One flag, spelled whole or as a unique or ambiguous prefix, with a
    value given apart, after `=`, or not at all."""
    name = name or draw(st.sampled_from(sorted(flags)))
    spelled = name[:draw(st.integers(3, len(name)))] if draw(
        st.integers(0, 2)) else name
    spec = {**cli.FLAG, **flags[name]}
    if spec["kind"] is bool:
        return [spelled] if draw(st.integers(0, 5)) else [spelled + "=1"]
    kind = int if spec["kind"] is int else str
    good = list(spec["choices"]) or GOOD[kind]
    bad = ["bogus", spec["choices"][0][:3]] if spec["choices"] else BAD[kind]
    value = draw(st.sampled_from(good * 4 + bad))
    form = draw(st.sampled_from(["apart"] * 4 + ["equals"] * 2 + ["missing"]))
    return {"apart": [spelled, value], "equals": [f"{spelled}={value}"],
            "missing": [spelled]}[form]


@st.composite
def argvs(draw):
    """Maybe a token before the command, the command (or a bad one, or
    none), usually its required flags, then up to five flags or loose
    tokens: help, unknown flags, stray values."""
    command = draw(st.sampled_from([*cli.COMMANDS] * 3 + ["nonsense", None]))
    if command is None:
        return draw(st.sampled_from(HEADS))
    flags = {**cli.OUTPUT_FLAGS, **cli.COMMANDS.get(command, ("", {}))[1]}
    argv = draw(st.sampled_from(HEADS)) + [command]
    if draw(st.integers(0, 3)):
        for name, spec in flags.items():
            if spec.get("required"):
                argv += draw(flag_tokens(flags, name))
    for _ in range(draw(st.integers(0, 5))):
        argv += draw(flag_tokens(flags) if draw(st.integers(0, 7)) else
                     st.sampled_from(LOOSE).map(lambda token: [token]))
    return argv


@settings(max_examples=300)
@given(argvs())
@example(["lift", "--ord", "5", "--form", "json"])
@example(["lift", "--o", "5"])
@example(["lift", "-h", "--o", "5"])
@example(["zmap", "--order", "-1"])
@example(["reproduce", "--table", "beta", "--tab=lift", "--table", "beta"])
@example(["basis", "--r", "2", "--r=3", "--solve", "--with"])
@example(["lift", "--order", "x", "-h"])
@example(["lift", "-h", "--order", "x"])
@example(["lift", "--order", "-h"])
@example(["--bogus", "lift", "--order", "5"])
@example(["lift", "--order", "5", "-=1"])
def test_parser_agrees_with_argparse(argv):
    code, parsed, _, _ = run(ORACLE.parse_args, argv)
    new_code, new_parsed, out, err = run(cli.parse_args, argv)
    assert (new_code, new_parsed) == (code, parsed), argv
    if code == 0:
        assert out.startswith("usage: braidinv") and err == "", argv
    elif code == 1:
        lines = err.splitlines()
        assert out == "" and lines[0].startswith("usage: braidinv"), argv
        assert [line for line in lines if ": error: " in line] == lines[-1:]
        assert re.match(r"braidinv( [a-z]+)?: error: ", lines[-1]), argv
    else:
        assert out == err == "", argv


def test_int_flags_read_ascii_decimals_only():
    for value in (" 9", "9 ", "1_1", "\u0663", "\uff19"):
        code, _, _, err = run(cli.parse_args, ["lift", "--order", value])
        assert code == 1, value
        assert err.endswith(f"argument --order: invalid int value: "
                            f"{value!r}\n")
        assert run(ORACLE.parse_args, ["lift", "--order", value])[0] is None
    for value, n in (("+9", 9), ("-3", -3), ("007", 7)):
        assert run(cli.parse_args, ["lift", "--order", value])[1]["order"] == n


def words(text):
    return " ".join(text.split())


def test_help_lists_every_command():
    code, _, out, _ = run(cli.parse_args, ["--help"])
    assert code == 0
    rows = [line.split(None, 1) for line in out.splitlines()]
    for action in SUBCOMMANDS._choices_actions:
        assert [action.dest, action.help] in rows


def test_command_help_names_every_flag():
    for command, parser in SUBCOMMANDS.choices.items():
        code, _, out, _ = run(cli.parse_args, [command, "--help"])
        assert code == 0
        for action in parser._actions:
            for option in action.option_strings:
                assert option in re.split(r"[\s,]+", out), (command, option)
            if action.choices:
                assert "{" + ",".join(action.choices) + "}" in out, command
            if action.help:
                assert words(action.help) in words(out), (command, action.help)
        assert "(default 50, or BRAIDINV_FLOAT_DIGITS)" in out, command
