import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from braidinv import (basis_solver, cli, inputs, inverse_engine,
                      pair_expansions, sequences)
from braidinv.braid_ring import BraidSum, combine, pair
from braidinv.commands import beta, reproduce, zmap
from test_golden import read_golden


def run_cli(*args, env=None):
    """Run the CLI in a subprocess; no input may end in a traceback."""
    result = subprocess.run([sys.executable, "-m", "braidinv", *args],
                            capture_output=True, text=True, env=env)
    assert "Traceback" not in result.stderr, result.stderr
    return result


def test_lift_text_output():
    result = run_cli("lift", "--order", "7")
    assert result.returncode == 0
    assert "-5/7168" in result.stdout
    assert "-1/24" in result.stdout


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("order", ["1", "13", "151"])
def test_lift_methods_are_byte_identical(order, fmt):
    # strengthening and the arcsinh closed form share no code
    a = run_cli("lift", "--order", order, "--format", fmt,
                "--method", "strengthen")
    b = run_cli("lift", "--order", order, "--format", fmt,
                "--method", "reversion")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_lift_rejects_even_order():
    # both methods apply one rule, with one message
    for method in ("strengthen", "reversion"):
        result = run_cli("lift", "--order", "4", "--method", method)
        assert result.returncode == 1
        assert result.stderr == "error: order 4 is not odd and positive\n"


def test_unknown_subcommand_is_usage_error():
    result = run_cli("nonsense")
    assert result.returncode == 1


def test_json_output_parses():
    result = run_cli("lift", "--order", "5", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    table = payload["tables"][0]
    assert table["columns"] == ["degree", "coefficient"]
    assert ["5", "3/640"] in table["rows"]


def test_csv_output_parses():
    result = run_cli("lift", "--order", "5", "--format", "csv")
    rows = list(csv.reader(io.StringIO(result.stdout)))
    assert rows[0][0] == "table"
    assert ["5", "3/640"] in rows


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_out_flag_writes_file(fmt, tmp_path):
    target = tmp_path / f"lift.{fmt}"
    result = run_cli("lift", "--order", "13", "--format", fmt,
                     "--out", str(target))
    assert result.returncode == 0
    assert result.stdout == ""
    assert target.read_bytes() == \
        read_golden(f"lift --order 13 --format {fmt}")


def test_zmap_named_and_json_braids():
    result = run_cli("zmap", "--braid", "pair:2", "--order", "3")
    assert result.returncode == 0
    assert "1/3" in result.stdout

    inline = run_cli("zmap", "--braid", '{"1": "1", "-1": "-1"}',
                     "--order", "3", "--jmax", "3")
    assert inline.returncode == 0
    assert "1/24" in inline.stdout

    bad = run_cli("zmap", "--braid", "what")
    assert bad.returncode == 1


def test_named_braids_are_braid_powers():
    for name, terms in (("e", {0: 1}), ("identity", {0: 1}), ("sigma", {1: 1}),
                        ("sigmabar", {-1: 1}), ("tau", {1: 1, -1: -1})):
        assert zmap.parse_braid(name) == BraidSum(terms)


def test_braid_spec_integers_are_ascii_decimals():
    # the check of the JSON exponent keys; int() alone reads the first three
    assert zmap.parse_braid("sigma^-3") == BraidSum({-3: 1})
    assert zmap.parse_braid("sigma^+3") == BraidSum({3: 1})
    assert zmap.parse_braid("pair:03") == pair(3)
    for spec in ("sigma^5\n", "sigma^\uff15", "sigma^", "pair:+3", "pair:"):
        with pytest.raises(ValueError, match="is not a decimal integer"):
            zmap.parse_braid(spec)


def test_qexpand_rows():
    result = run_cli("qexpand", "--order", "7")
    assert result.returncode == 0
    assert "q^7 - q^-7" in result.stdout
    assert "1225/1024" in result.stdout

    square = run_cli("qexpand", "--order", "3", "--power", "2")
    assert square.returncode == 0
    assert "q^0" in square.stdout
    assert "q^2 + q^-2" in square.stdout


def test_asymptotics_digits_env(tmp_path):
    result = run_cli("asymptotics", "--j", "1", "--orders", "7,9",
                     "--digits", "15")
    assert result.returncode == 0
    assert "[15d]" in result.stdout
    assert "1225/1024" in result.stdout


def test_float_output_needs_enough_digits():
    result = run_cli("asymptotics", "--j", "1", "--orders", "7",
                     "--digits", "4")
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert "DIGITS" in result.stderr.upper()


def test_beta_subcommand():
    ok = run_cli("beta", "--s", "5")
    assert ok.returncode == 0
    assert "PASS" in ok.stdout

    leibniz = run_cli("beta", "--s", "1", "--digits", "20")
    assert leibniz.returncode == 0
    assert "10000" in leibniz.stdout

    bad = run_cli("beta", "--s", "6")
    assert bad.returncode == 1


def test_basis_subcommand():
    result = run_cli("basis", "--r", "1", "--entry", "1,3")
    assert result.returncode == 0
    assert "inverse entry (1,3)" in result.stdout

    solve = run_cli("basis", "--r", "1", "--solve-t")
    assert solve.returncode == 0
    assert "1/2*q^1 + -1/2*q^-1" in solve.stdout

    clash = run_cli("basis", "--r", "2", "--unbalanced", "--solve-t")
    assert clash.returncode == 1

    out_of_range = run_cli("basis", "--r", "1", "--entry", "9,9")
    assert out_of_range.returncode == 1


def test_trace_subcommand_and_file_sequence(tmp_path):
    stock = run_cli("trace", "--sequence", "harmonic", "--jmax", "3",
                    "--window", "6")
    assert stock.returncode == 0
    assert "(c) filtration condition" in stock.stdout
    assert "fail" in stock.stdout

    payload = {"label": "steady", "items": [{"1": "1/2", "-1": "-1/2"}] * 4}
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    custom = run_cli("trace", "--sequence", str(path), "--jmax", "2",
                     "--window", "4")
    assert custom.returncode == 0
    assert "steady" in custom.stdout

    path.write_text(json.dumps({**payload, "label": None}), encoding="utf-8")
    unlabeled = run_cli("trace", "--sequence", str(path))
    assert unlabeled.returncode == 1
    assert unlabeled.stderr == (f"error: cannot load sequence from {path}: "
                                f"the label must be a string\n")

    missing = run_cli("trace", "--sequence", str(tmp_path / "nope.json"))
    assert missing.returncode == 1


def test_trace_json_sequences_at_extreme_scales(tmp_path):
    for label, steps, expected in (
            ("tiny", [Fraction(1, 10 ** 400 * 2 ** i) for i in range(7)],
             "converging"),
            ("huge", [10 ** 400 * (i + 1) for i in range(7)], "diverging")):
        values = [sum(steps[:i], Fraction(0)) for i in range(8)]
        payload = {"label": label,
                   "items": [{"1": str(v)} for v in values]}
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        result = run_cli("trace", "--sequence", str(path), "--format", "csv")
        assert result.returncode == 0, result.stderr
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert rows[2][:2] == ["1", expected]


def test_importing_the_package_leaves_int_str_limit_alone():
    # main sets the guard to its own limit for the run, also for a caller
    # with none (0), and gives the caller's back
    code = ("import sys\n"
            "limit = sys.get_int_max_str_digits\n"
            "before = limit()\n"
            "import braidinv.render\n"
            "assert limit() == before\n"
            "import braidinv.cli\n"
            "assert limit() == before\n"
            "braidinv.cli.main(['beta', '--s', '7'])\n"
            "assert limit() == before\n"
            "sys.set_int_max_str_digits(0)\n"
            "assert braidinv.cli.main(['zmap', '--braid', "
            "'{\"0\": \"1e100000\"}', '--order', '0']) == 1\n"
            "assert limit() == 0\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ("error: a number exceeds the 100,000-digit "
                             "input and output limit\n")


@pytest.mark.parametrize("setting", [None, "0", "200000"])
def test_the_digit_limit_holds_whatever_the_interpreter_allows(setting):
    # 10^100000 has 100,001 digits; PYTHONINTMAXSTRDIGITS moves Python's
    # own guard, not the CLI's
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    if setting is not None:
        env["PYTHONINTMAXSTRDIGITS"] = setting
    result = run_cli("zmap", "--braid", '{"0": "1e100000"}', "--order", "0",
                     env=env)
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", "error: a number exceeds the 100,000-digit input and output "
               "limit\n")


def test_reproduce_all():
    result = run_cli("reproduce")
    assert result.returncode == 0
    flagged = [ln for ln in result.stdout.splitlines()
               if ln.rstrip().endswith("FLAGGED")]
    assert len(flagged) == 2
    verdicts = [ln for ln in result.stdout.splitlines()
                if ln.rstrip().endswith("FAIL")]
    assert verdicts == []
    assert "overall  PASS" in result.stdout


def test_reproduce_single_table():
    result = run_cli("reproduce", "--table", "beta")
    assert result.returncode == 0
    assert "residue relation" in result.stdout
    assert "pair" not in result.stdout


def test_reproduce_offers_exactly_its_tables(capsys):
    # the parser lists the names itself, so --help loads no command module
    assert cli.main(["reproduce", "--help"]) == 0
    offered = "{" + ",".join(sorted(reproduce.REPRODUCE_TABLES)) + "}"
    assert offered in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["zmap", "--order", "-1"],
    ["zmap", "--braid", '{"1": "1/0"}'],
    ["zmap", "--braid", '{"-2": "-3/00"}'],
    ["trace", "--sequence", "{tmp}/zero.json"],
    ["trace", "--sequence", "{tmp}/zero-later.json"],
    ["trace", "--sequence", "{tmp}/array.json"],
    ["lift", "--order", "5", "--out", "{tmp}/missing/x"],
    ["basis", "--r", "0", "--solve-t"],
    ["trace", "--sequence", "{tmp}/empty.json"],
    ["trace", "--sequence", "{tmp}/one.json"],
    ["zmap", "--jmax", "-1"],
    ["trace", "--jmax", "-1"],
    ["zmap", "--braid", '{"1": Infinity}'],
    ["zmap", "--braid", '{"1": NaN}'],
    ["trace", "--sequence", "{tmp}/infinite.json"],
    ["basis", "--r", "-1"],
    ["basis", "--r", "-1", "--unbalanced"],
    ["basis", "--r", "3", "--entry", "1"],
    ["basis", "--r", "3", "--entry", "1,3,4"],
    ["zmap", "--braid", '{"1": true}'],
    ["zmap", "--braid", '{"1": false}'],
    ["zmap", "--braid", '{"1_0": 1}'],
    ["trace", "--sequence", "{tmp}/bool.json"],
    ["zmap", "--braid", '{"1": "1_0"}'],
    ["zmap", "--braid", '{"1": "\uff11"}'],
    ["trace", "--sequence", "{tmp}/underscore.json"],
    ["trace", "--sequence", "{tmp}/label-null.json"],
    ["trace", "--sequence", "{tmp}/label-list.json"],
    ["trace", "--sequence", "{tmp}/label-surrogate.json", "--window", "2",
     "--format", "json"],
    ["zmap", "--braid", '{"1": "1e+000000000100000"}'],
    ["zmap", "--braid", '{"1": "1e-100000"}'],
    ["zmap", "--braid", '{"1' + "0" * 60000 + '": 1}', "--order", "2"],
    ["zmap", "--braid", '{"1": 1, "+1": 2}'],
    ["zmap", "--braid", '{"01": 1, "1": 2}'],
    ["zmap", "--braid", '{"1": 1, "1": 2}'],
    ["trace", "--sequence", "{tmp}/repeated.json"],
    ["trace", "--sequence", "{tmp}/item-number.json"],
    ["zmap", "--braid", '{"1": null}'],
    ["trace", "--sequence", "{tmp}/items-twice.json"],
    ["trace", "--sequence", "{tmp}/label-twice.json"],
    ["zmap", "--braid", '{"1": ' + "[" * 5000 + "]" * 5000 + "}"],
    ["trace", "--sequence", "{tmp}/deep.json"],
    ["zmap", "--braid", "sigma^1_0"],
    ["zmap", "--braid", "sigma^ 5"],
    ["zmap", "--braid", "pair:\u0663"],
    ["asymptotics", "--j", "3", "--orders", "10,49"],
    ["asymptotics", "--j", "3", "--orders", "9,10"],
    ["asymptotics", "--j", "3", "--orders", "9,9"],
    ["asymptotics", "--j", "3", "--orders", "1_1"],
    ["asymptotics", "--j", "3", "--orders", " 9"],
    ["asymptotics", "--j", "3", "--orders", "9,,25"],
    ["basis", "--r", "2", "--entry", "\u0663,1"],
    ["reproduce", "--table", "pairs", "--table", "pairs"],
], ids=["negative-order", "zero-denominator", "zero-denominator-signed",
        "sequence-zero-denominator", "sequence-zero-denominator-later",
        "sequence-top-level-array", "missing-out-dir", "solve-t-at-r-0",
        "sequence-empty", "sequence-one-item", "zmap-negative-jmax",
        "trace-negative-jmax", "json-infinity", "json-nan",
        "sequence-json-infinity", "basis-negative-r",
        "basis-unbalanced-negative-r", "entry-one-value",
        "entry-three-values", "json-true", "json-false",
        "exponent-underscore", "sequence-json-bool",
        "coefficient-underscore", "coefficient-fullwidth",
        "sequence-coefficient-underscore", "sequence-label-null",
        "sequence-label-list", "sequence-label-surrogate",
        "output-digits-power", "output-digits-inverse",
        "output-digits-exponent-key", "repeated-exponent-sign",
        "repeated-exponent-zero", "repeated-json-key",
        "sequence-repeated-exponent", "sequence-item-number",
        "coefficient-null", "sequence-items-twice", "sequence-label-twice",
        "json-nested-deep", "sequence-nested-deep", "power-underscore",
        "power-padded", "pair-arabic-indic-digit", "orders-even-first",
        "orders-even-last", "orders-repeated", "orders-underscore",
        "orders-padded", "orders-empty-item", "entry-arabic-indic-digit",
        "reproduce-table-twice"])
def test_bad_input_exits_1_with_one_error_line(argv, tmp_path):
    (tmp_path / "zero.json").write_text('{"items": [{"1": "1/0"}]}',
                                        encoding="utf-8")
    (tmp_path / "zero-later.json").write_text(
        '{"items": [{"1": 1}, {"1": 2, "-2": "5/0"}]}', encoding="utf-8")
    (tmp_path / "infinite.json").write_text(
        '{"items": [{"1": 1}, {"1": -Infinity}]}', encoding="utf-8")
    (tmp_path / "array.json").write_text('[{"1": "1"}]', encoding="utf-8")
    (tmp_path / "bool.json").write_text(
        '{"items": [{"1": 1}, {"1": true}]}', encoding="utf-8")
    (tmp_path / "underscore.json").write_text(
        '{"items": [{"1": 1}, {"1": "1_0"}]}', encoding="utf-8")
    (tmp_path / "empty.json").write_text('{"items": []}', encoding="utf-8")
    (tmp_path / "one.json").write_text('{"items": [{"1": "1"}]}',
                                       encoding="utf-8")
    two = '[{"1": 1}, {"1": 2}]'
    (tmp_path / "label-null.json").write_text(
        f'{{"label": null, "items": {two}}}', encoding="utf-8")
    (tmp_path / "label-list.json").write_text(
        f'{{"label": ["x"], "items": {two}}}', encoding="utf-8")
    # a lone surrogate: --format json could escape it, text and csv cannot
    (tmp_path / "label-surrogate.json").write_text(
        f'{{"label": "\\ud800", "items": {two}}}', encoding="utf-8")
    (tmp_path / "repeated.json").write_text(
        '{"items": [{"1": 1}, {"1": 1, "+1": 2}]}', encoding="utf-8")
    (tmp_path / "item-number.json").write_text('{"items": [{"1": 1}, 5]}',
                                               encoding="utf-8")
    (tmp_path / "items-twice.json").write_text(
        f'{{"items": {two}, "items": [{{"1": 3}}, {{"1": 4}}]}}',
        encoding="utf-8")
    (tmp_path / "label-twice.json").write_text(
        f'{{"label": "a", "items": {two}, "label": "b"}}', encoding="utf-8")
    # past the recursion limit: a Python that parses this deep rejects the
    # nested list instead, so the message is left unchecked
    (tmp_path / "deep.json").write_text(
        '{"items": ' + "[" * 100000 + "]" * 100000 + "}", encoding="utf-8")
    result = run_cli(*(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    # Python's advice names a call that no user of the CLI can make
    assert "set_int_max_str_digits" not in result.stderr


def test_a_byte_order_mark_is_skipped(tmp_path, capsys):
    text = '{"label": "marked", "items": [{"1": 1}, {"1": "1/2"}]}'
    outs = []
    for name, head in (("plain.json", ""), ("bom.json", "\ufeff")):
        (tmp_path / name).write_text(head + text, encoding="utf-8")
        argv = ["trace", "--sequence", str(tmp_path / name), "--window", "2"]
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "marked" in outs[0]


def test_exponent_map_errors_name_the_input(tmp_path, capsys):
    twice = "error: bad exponent map: exponent 1 given twice\n"
    for braid, err in (
            ('{"1": 1, "+1": 2}', twice), ('{"01": 1, "1": 2}', twice),
            ('{"1": 1, "1": 2}', twice),
            ('{"1": null}', "error: bad exponent map: the coefficient of "
                            "exponent 1 must be a number or a string\n"),
            ('{"1": "1/0"}', "error: bad exponent map: the coefficient '1/0' "
                             "of exponent 1 has a zero denominator\n"),
            ('{"-02": "-3/00"}', "error: bad exponent map: the coefficient "
                                 "'-3/00' of exponent -02 has a zero "
                                 "denominator\n")):
        assert cli.main(["zmap", "--braid", braid]) == 1
        assert capsys.readouterr().err == err
    for name, items, reason in (
            ("item-number.json", '[{"1": 1}, 5]', "expected a JSON object"),
            ("zero.json", '[{"1": 1}, {"1": 2, "-2": "5/0"}]',
             "the coefficient '5/0' of exponent -2 has a zero denominator")):
        path = tmp_path / name
        path.write_text(f'{{"items": {items}}}', encoding="utf-8")
        assert cli.main(["trace", "--sequence", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: cannot load sequence "
                                           f"from {path}: bad exponent map: "
                                           f"{reason}\n")


def test_sequence_key_given_twice_is_named(tmp_path, capsys):
    # json would keep the last value; the file is refused instead
    for key, text in (("items", '{"items": [{"1": 1}], "items": [{"1": 2}]}'),
                      ("label", '{"label": "a", "label": "b", "items": []}')):
        path = tmp_path / f"{key}.json"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["trace", "--sequence", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: cannot load sequence from "
                                           f"{path}: key '{key}' given twice\n")


@pytest.mark.parametrize("command", [
    "asymptotics --j 1 --orders 1", "beta --s 1", "basis --r 3 --solve-t"])
def test_float_digits_past_the_limit_are_refused_before_any_work(
        command, monkeypatch, capsys):
    from braidinv import floats
    work = []
    for module, name in ((floats, "precision"), (basis_solver, "invert")):
        monkeypatch.setattr(module, name,
                            lambda *args, name=name: work.append(name))
    assert cli.main([*command.split(), "--digits", "100001"]) == 1
    assert work == []
    assert capsys.readouterr() == ("", "error: float output takes 10 to "
                                   "100,000 digits, the input and output "
                                   "limit\n")


def test_output_digit_limit_is_named(capsys):
    assert cli.main(["zmap", "--braid", '{"1": "1e-100000"}']) == 1
    assert capsys.readouterr() == ("", "error: a number exceeds the "
                                   "100,000-digit input and output limit\n")


def test_beta_disagreement_exits_2_and_prints_its_table(monkeypatch, capsys):
    monkeypatch.setattr(beta, "theta_value", lambda k: 1)
    assert cli.main(["beta", "--s", "7"]) == 2
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["residue", "relation", "at", "s", "=", "7"] in lines
    assert ["verdict", "FAIL"] in lines


def test_reproduce_disagreement_exits_2_and_prints_its_tables(monkeypatch,
                                                              capsys):
    monkeypatch.setitem(reproduce.REF_LIFT, 3, "1/24")
    assert cli.main(["reproduce", "--table", "lift"]) == 2
    out = capsys.readouterr().out
    assert ["degree", "3", "1/24", "-1/24", "FAIL"] in \
        [line.split() for line in out.splitlines()]
    assert "overall  FAIL" in out


def test_bad_entry_names_the_expected_form_before_inverting(monkeypatch,
                                                            capsys):
    calls = []
    monkeypatch.setattr(basis_solver, "invert", calls.append)
    for entry in ("1", "1,3,4", "1,x"):
        assert cli.main(["basis", "--r", "3", "--entry", entry]) == 1
        assert capsys.readouterr().err == \
            f"error: bad --entry: expected ROW,COL, got {entry!r}\n"
    # the bounds are checked against the built matrix, still uninverted
    for entry in ("0,1", "1,8", "8,1"):
        assert cli.main(["basis", "--r", "3", "--entry", entry]) == 1
        assert capsys.readouterr().err == \
            f"error: bad --entry: entry ({entry}) outside a 7x7 matrix\n"
    assert calls == []
    monkeypatch.undo()
    assert cli.main(["basis", "--r", "1", "--entry", "4,1"]) == 1
    assert capsys.readouterr().err == \
        "error: bad --entry: entry (4,1) outside a 3x3 matrix\n"


def test_json_numbers_are_exact_decimals(tmp_path):
    # a string coefficient may still be a decimal or a ratio
    for value in ('0.1', '"0.1"', '"1/10"'):
        tenth = run_cli("zmap", "--braid", f'{{"1": {value}}}', "--order", "1")
        assert tenth.returncode == 0
        assert "integral of 1/10*q^1 through degree 1" in tenth.stdout
    huge = run_cli("zmap", "--braid", '{"1": 1e400}', "--order", "0",
                   "--format", "json")
    assert huge.returncode == 0
    assert json.loads(huge.stdout)["tables"][0]["rows"] == [["0", str(10 ** 400)]]
    path = tmp_path / "decimals.json"
    path.write_text('{"items": [{"1": 1e400}, {"1": 0.25}, {"1": 0.125}]}',
                    encoding="utf-8")
    seq = run_cli("trace", "--sequence", str(path), "--window", "3",
                  "--format", "csv")
    assert seq.returncode == 0
    assert list(csv.reader(io.StringIO(seq.stdout)))[2] == \
        ["1", "insufficient", "1/8"]


def test_json_exponents_are_bounded(tmp_path):
    # Fraction builds 10^e in full, so an exponent past the digit limit is
    # refused from the text, in a JSON number, a string and a sequence file
    path = tmp_path / "exponent.json"
    path.write_text('{"items": [{"1": 1}, {"1": 1e100001}]}', encoding="utf-8")
    bound = "decimal exponent beyond 100000 in size\n"
    for argv in (["zmap", "--braid", '{"1": 1e100001, "-1": -1}'],
                 ["zmap", "--braid", '{"1": 1e20000000, "-1": -1}'],
                 ["zmap", "--braid", '{"1": "-1E-100001"}'],
                 ["trace", "--sequence", str(path)]):
        result = run_cli(*argv)
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
        assert result.stderr.endswith(bound)
    tiny = run_cli("zmap", "--braid", '{"1": "1e-400"}', "--order", "0",
                   "--format", "json")
    assert tiny.returncode == 0
    assert json.loads(tiny.stdout)["tables"][0]["rows"] == \
        [["0", f"1/{10 ** 400}"]]
    # the bound itself is read, with or without leading zeros
    assert inputs._exact_decimal("1e100000") == 10 ** 100000
    assert inputs._exact_decimal("1E-0000100000") == Fraction(1, 10 ** 100000)


def test_float_digits_are_read_only_where_floats_print():
    # every README command with no float column ignores even a precision
    # out of range, below 10 or past the digit limit
    for command in ("lift --order 13", "zmap --braid pair:2 --order 4",
                    "qexpand --order 11", "qexpand --order 5 --power 2",
                    "beta --s 7", "basis --r 2 --entry 1,3",
                    "trace --sequence tauhat --window 8", "reproduce"):
        expected = read_golden(f"{command} --format text").decode("utf-8")
        for digits in ("4", "100001"):
            result = run_cli(*command.split(), "--digits", digits)
            assert result.returncode == 0, (command, digits)
            assert result.stdout == expected, (command, digits)


def test_basis_solve_t_inverts_once(monkeypatch, capsys):
    calls = []
    invert = basis_solver.invert

    def counting_invert(M):
        calls.append(M.dim)
        return invert(M)

    monkeypatch.setattr(basis_solver, "invert", counting_invert)
    assert cli.main(["basis", "--r", "3", "--solve-t"]) == 0
    assert calls == [7]

    calls.clear()
    assert cli.main(["basis", "--r", "2", "--unbalanced", "--solve-t"]) == 1
    assert calls == []
    assert capsys.readouterr().err == \
        "error: --solve-t applies to the balanced basis\n"


def test_zmap_prints_each_coefficient_once(monkeypatch, capsys):
    # both tables show a prefix of the same printed rows: seven coefficients
    # through degree 6, and one call for each of the two terms of tau in
    # the title
    calls = []
    fraction_str = Fraction.__str__

    def counting_str(x):
        calls.append(x)
        return fraction_str(x)

    monkeypatch.setattr(Fraction, "__str__", counting_str)
    assert cli.main(["zmap", "--order", "6", "--jmax", "6",
                     "--format", "json"]) == 0
    assert len(calls) <= 7 + 2
    series, graded = json.loads(capsys.readouterr().out)["tables"]
    assert series["rows"] == graded["rows"]
    assert len(series["rows"]) == 7


def test_zmap_integrates_once(monkeypatch, capsys):
    calls = []
    Z = zmap.Z

    def counting_Z(b, order):
        calls.append(order)
        return Z(b, order)

    def rows(order):
        return [[str(i), str(c)] for i, c in enumerate(Z(pair(2), order))]

    monkeypatch.setattr(zmap, "Z", counting_Z)
    for order, jmax in ((4, 4), (2, 5), (6, 3)):
        calls.clear()
        assert cli.main(["zmap", "--braid", "pair:2", "--order", str(order),
                         "--jmax", str(jmax), "--format", "json"]) == 0
        assert calls == [max(order, jmax)]
        series, graded = json.loads(capsys.readouterr().out)["tables"]
        assert series["rows"] == rows(order)
        assert graded["rows"] == rows(jmax)

    calls.clear()
    assert cli.main(["zmap", "--order", "-1", "--jmax", "-1"]) == 1
    assert cli.main(["basis", "--r", "-1"]) == 1
    assert calls == []
    assert capsys.readouterr().err == \
        "error: order must be nonnegative\nerror: r must be nonnegative\n"


def test_qexpand_rejects_a_bad_power_before_strengthening(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(pair_expansions, "closed_form_expansion",
                        calls.append)
    assert cli.main(["qexpand", "--order", "61", "--power", "0"]) == 1
    assert calls == []
    assert capsys.readouterr().err == "error: power must be positive\n"


def counted(monkeypatch):
    """The (name, order) of every solve of the lift and every flatness
    certificate of an expansion, in the order they run."""
    calls = []
    solve = inverse_engine._lift_series
    moments = pair_expansions.moments

    def counting_solve(seed, order):
        calls.append(("solve", order))
        return solve(seed, order)

    def counting_moments(b):
        calls.append(("certify", max(b.nums)))
        return moments(b)

    monkeypatch.setattr(inverse_engine, "_lift_series", counting_solve)
    monkeypatch.setattr(pair_expansions, "moments", counting_moments)
    return calls


# request -> the solves and certificates it runs
SOLVES_AND_CERTIFICATES = {
    "lift --order 13": [("solve", 13)],
    "qexpand --order 11 --power 2": [("certify", 11)],
    "asymptotics --j 3 --orders 9,25,49": [("certify", 49)],
    "trace --sequence tauhat --window 8": [("certify", 15)],
    "reproduce --table lift": [("solve", 13)],
    "reproduce --table pairs": [("certify", 11)],
    "basis --r 3 --solve-t": [("certify", 3)],
    "reproduce": [("solve", 13), ("certify", 11)],
}


@pytest.mark.parametrize("argv", [request.split()
                                  for request in SOLVES_AND_CERTIFICATES])
def test_a_request_solves_once_and_expands_once(argv, monkeypatch, capsys):
    # the lift is solved only where it is printed; every expansion a
    # request reads comes from the closed form, certified at its top order
    calls = counted(monkeypatch)
    assert cli.main(argv) == 0
    assert calls == SOLVES_AND_CERTIFICATES[" ".join(argv)]


@pytest.mark.parametrize("tables, top", [
    ([], 13), (["pairs"], 11), (["lift"], 13), (["pairs", "lift"], 13),
    (["beta", "zeta2"], None)])
def test_reproduce_solves_through_the_orders_its_tables_read(
        tables, top, monkeypatch, capsys):
    # the lift table solves through order 13 and the pairs table certifies
    # its expansions through order 11; no other table reads the lift
    calls = counted(monkeypatch)
    argv = [arg for name in tables for arg in ("--table", name)]
    assert cli.main(["reproduce", *argv]) == 0
    read = set(tables or reproduce.REPRODUCE_TABLES)
    assert sorted(calls) == sorted(
        [("solve", 13)] * ("lift" in read) +
        [("certify", 11)] * ("pairs" in read))
    assert max((order for _, order in calls), default=None) == top
    capsys.readouterr()


def test_a_broken_lower_truncation_fails_its_symmetry_check(monkeypatch):
    # the top expansion passes the flatness check; only the check on every
    # expansion a request reads can see a lower one break
    expansion = pair_expansions.closed_form_expansion

    def planted(order):
        b = expansion(order)
        return combine(b, 1, BraidSum({2: 1}), 1) if order == 1 else b

    monkeypatch.setattr(pair_expansions, "closed_form_expansion", planted)
    message = "power 1 of the order 1 expansion lost its symmetry"
    with pytest.raises(ArithmeticError, match=message):
        sequences.lift_truncation_sequence(3)
    with pytest.raises(ArithmeticError, match=message):
        cli.main(["trace", "--sequence", "tauhat", "--window", "3"])


def test_a_repeated_table_runs_no_table(monkeypatch, capsys):
    calls = []
    for name, (title, _, notes) in list(reproduce.REPRODUCE_TABLES.items()):
        monkeypatch.setitem(reproduce.REPRODUCE_TABLES, name,
                            (title, lambda n=name: calls.append(n), notes))
    for argv in (["--table", "pairs", "--table", "pairs"],
                 ["--table", "zeta2", "--table", "lift", "--table", "zeta2"]):
        assert cli.main(["reproduce", *argv]) == 1
        name = argv[1]
        assert capsys.readouterr() == ("", f"error: table {name} given twice\n")
    assert calls == []


def test_trace_rejects_a_negative_jmax_before_building(monkeypatch, capsys):
    calls = []
    build = sequences.lift_truncation_sequence

    def counting_build(count):
        calls.append(count)
        return build(count)

    monkeypatch.setattr(sequences, "lift_truncation_sequence", counting_build)
    assert cli.main(["trace", "--sequence", "tauhat", "--jmax", "-1",
                     "--window", "120"]) == 1
    assert calls == []
    assert capsys.readouterr().err == "error: jmax must be nonnegative\n"


def test_trace_handles_huge_exponents(tmp_path):
    big = "1000000000000000000"
    payload = {"label": "huge-pairs",
               "items": [{big: "1", f"-{big}": "-1"},
                         {big: "2", f"-{big}": "-2"}]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    result = run_cli("trace", "--sequence", str(path))
    assert result.returncode == 0, result.stderr
    assert "satisfied" in result.stdout
    assert "1 pairs checked" in result.stdout
