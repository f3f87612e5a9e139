"""The command line run in-process through braidinv.cli.main: each test
reads the exit code, stdout and stderr of its runs, and an exception that
escapes cli.main fails it.  What a fresh process shows is a row of
tests/replay_cli.py, checked by name through the replay fixture: the bad
inputs, with the error lines that name them, and Python's own digit guard.
"""

import csv
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from braidinv import (basis_solver, cli, inputs, inverse_engine,
                      kontsevich, pair_expansions, sequences)
from braidinv.braid_ring import BraidSum, pair
from braidinv.commands import beta, reproduce, zmap

import oracles
import replay_cli
from test_golden import read_golden


def prints(capsys, *argv):
    """The stdout of cli.main on argv, which must exit 0 with nothing on
    stderr."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


def refuses(capsys, *argv):
    """The stderr of cli.main on argv, which must exit 1 with nothing on
    stdout."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    return err


def test_lift_text_output(capsys):
    out = prints(capsys, "lift", "--order", "7")
    assert "-5/7168" in out and "-1/24" in out


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("order", ["1", "13", "151"])
def test_lift_methods_are_byte_identical(order, fmt, capsys):
    # both methods print the one certified lift
    lift = ("lift", "--order", order, "--format", fmt, "--method")
    assert prints(capsys, *lift, "strengthen") == \
        prints(capsys, *lift, "reversion")


def test_lift_rejects_even_order(capsys):
    # both methods apply one rule, with one message
    for method in ("strengthen", "reversion"):
        assert refuses(capsys, "lift", "--order", "4", "--method", method) \
            == "error: order 4 is not odd and positive\n"


def test_unknown_subcommand_is_usage_error(capsys):
    refuses(capsys, "nonsense")


def test_json_output_parses(capsys):
    out = prints(capsys, "lift", "--order", "5", "--format", "json")
    table = json.loads(out)["tables"][0]
    assert table["columns"] == ["degree", "coefficient"]
    assert ["5", "3/640"] in table["rows"]


def test_csv_output_parses(capsys):
    out = prints(capsys, "lift", "--order", "5", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "table"
    assert ["5", "3/640"] in rows


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_out_flag_writes_file(fmt, tmp_path, capsys):
    target = tmp_path / f"lift.{fmt}"
    assert prints(capsys, "lift", "--order", "13", "--format", fmt,
                  "--out", str(target)) == ""
    assert target.read_bytes() == \
        read_golden(f"lift --order 13 --format {fmt}")


def test_zmap_named_and_json_braids(capsys):
    assert "1/3" in prints(capsys, "zmap", "--braid", "pair:2", "--order", "3")
    assert "1/24" in prints(capsys, "zmap", "--braid",
                            '{"1": "1", "-1": "-1"}', "--order", "3",
                            "--jmax", "3")
    refuses(capsys, "zmap", "--braid", "what")


def test_named_braids_are_braid_powers():
    for name, terms in (("e", {0: 1}), ("identity", {0: 1}), ("sigma", {1: 1}),
                        ("sigmabar", {-1: 1}), ("tau", {1: 1, -1: -1})):
        assert oracles.same(zmap.parse_braid(name), BraidSum(terms))


def test_braid_spec_integers_are_ascii_decimals():
    # the check of the JSON exponent keys; int() alone reads the first three
    assert oracles.same(zmap.parse_braid("sigma^-3"), BraidSum({-3: 1}))
    assert oracles.same(zmap.parse_braid("sigma^+3"), BraidSum({3: 1}))
    assert oracles.same(zmap.parse_braid("pair:03"), pair(3))
    for spec in ("sigma^5\n", "sigma^\uff15", "sigma^", "pair:+3", "pair:"):
        with pytest.raises(ValueError, match="is not a decimal integer"):
            zmap.parse_braid(spec)


def test_qexpand_rows(capsys):
    out = prints(capsys, "qexpand", "--order", "7")
    assert "q^7 - q^-7" in out and "1225/1024" in out
    square = prints(capsys, "qexpand", "--order", "3", "--power", "2")
    assert "q^0" in square and "q^2 + q^-2" in square


def test_asymptotics_digits_env(tmp_path, capsys):
    out = prints(capsys, "asymptotics", "--j", "1", "--orders", "7,9",
                 "--digits", "15")
    assert "[15d]" in out and "1225/1024" in out


def test_float_output_needs_enough_digits(capsys):
    err = refuses(capsys, "asymptotics", "--j", "1", "--orders", "7",
                  "--digits", "4")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "DIGITS" in err.upper()


def test_beta_subcommand(capsys):
    assert "PASS" in prints(capsys, "beta", "--s", "5")
    assert "10000" in prints(capsys, "beta", "--s", "1", "--digits", "20")
    refuses(capsys, "beta", "--s", "6")


def test_basis_subcommand(capsys):
    assert "inverse entry (1,3)" in \
        prints(capsys, "basis", "--r", "1", "--entry", "1,3")
    assert "1/2*q^1 + -1/2*q^-1" in \
        prints(capsys, "basis", "--r", "1", "--solve-t")
    refuses(capsys, "basis", "--r", "2", "--unbalanced", "--solve-t")
    refuses(capsys, "basis", "--r", "1", "--entry", "9,9")


def test_trace_subcommand_and_file_sequence(tmp_path, capsys, replay):
    stock = prints(capsys, "trace", "--sequence", "harmonic", "--jmax", "3",
                   "--window", "6")
    assert "(c) filtration condition" in stock and "fail" in stock

    payload = {"label": "steady", "items": [{"1": "1/2", "-1": "-1/2"}] * 4}
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert "steady" in prints(capsys, "trace", "--sequence", str(path),
                              "--jmax", "2", "--window", "4")

    refuses(capsys, "trace", "--sequence", str(tmp_path / "nope.json"))
    replay("sequence-label-null")


def test_trace_json_sequences_at_extreme_scales(tmp_path, capsys):
    for label, steps, expected in (
            ("tiny", [Fraction(1, 10 ** 400 * 2 ** i) for i in range(7)],
             "converging"),
            ("huge", [10 ** 400 * (i + 1) for i in range(7)], "diverging")):
        values = [sum(steps[:i], Fraction(0)) for i in range(8)]
        payload = {"label": label,
                   "items": [{"1": str(v)} for v in values]}
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        out = prints(capsys, "trace", "--sequence", str(path), "--format",
                     "csv")
        assert list(csv.reader(io.StringIO(out)))[2][:2] == ["1", expected]


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


@pytest.mark.parametrize("row", replay_cli.GUARDS,
                         ids=lambda row: row.name.rpartition("-")[2])
def test_the_digit_limit_holds_whatever_the_interpreter_allows(row, replay):
    replay(row.name)


def test_reproduce_all(capsys):
    out = prints(capsys, "reproduce")
    verdicts = [line.split()[-1] for line in out.splitlines() if line]
    assert verdicts.count("FLAGGED") == 2 and "FAIL" not in verdicts
    assert "overall  PASS" in out


def test_reproduce_single_table(capsys):
    out = prints(capsys, "reproduce", "--table", "beta")
    assert "residue relation" in out and "pair" not in out


def test_reproduce_offers_exactly_its_tables(capsys):
    # the parser lists the names itself, so --help loads no command module
    offered = "{" + ",".join(sorted(reproduce.REPRODUCE_TABLES)) + "}"
    assert offered in prints(capsys, "reproduce", "--help")


@pytest.mark.parametrize("row", replay_cli.REFUSED, ids=lambda row: row.name)
def test_bad_input_exits_1_with_one_error_line(row, replay):
    # the rows of bad input in the one table of end-to-end checks, with the
    # files they read
    replay(row.name)


def test_a_byte_order_mark_is_skipped(tmp_path, capsys):
    text = '{"label": "marked", "items": [{"1": 1}, {"1": "1/2"}]}'
    outs = []
    for name, head in (("plain.json", ""), ("bom.json", "\ufeff")):
        (tmp_path / name).write_text(head + text, encoding="utf-8")
        outs.append(prints(capsys, "trace", "--sequence",
                           str(tmp_path / name), "--window", "2"))
    assert outs[0] == outs[1] and "marked" in outs[0]


def test_exponent_map_errors_name_the_input(replay):
    replay("repeated-exponent-sign", "repeated-exponent-zero",
           "repeated-json-key", "coefficient-null", "zero-denominator",
           "zero-denominator-signed", "sequence-item-number",
           "sequence-zero-denominator-later")


def test_sequence_key_given_twice_is_named(replay):
    replay("sequence-items-twice", "sequence-label-twice")


@pytest.mark.parametrize("command", [
    "asymptotics --j 1 --orders 1", "beta --s 1", "basis --r 3 --solve-t"])
def test_float_digits_past_the_limit_are_refused_before_any_work(
        command, monkeypatch, capsys):
    from braidinv import floats
    work = []
    for module, name in ((floats, "precision"), (basis_solver, "invert")):
        monkeypatch.setattr(module, name,
                            lambda *args, name=name: work.append(name))
    assert refuses(capsys, *command.split(), "--digits", "100001") == \
        "error: float output takes 10 to 100,000 digits, the input and " \
        "output limit\n"
    assert work == []


def test_output_digit_limit_is_named(replay):
    replay("output-digits-inverse")


def test_rationals_refuse_a_number_past_the_limit_without_the_guard():
    # from Python 3.12 str() prints a few hundred digits past its guard, so
    # the limit holds by the count of digits; with no guard (0) every
    # Python prints, and only that count refuses
    from braidinv import render
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for pairs in ([(1, 3), (10 ** 100000, 1)], [(1, 10 ** 100000)]):
            with pytest.raises(ValueError) as caught:
                render.rationals(pairs)
            assert str(caught.value) == ("a number exceeds the 100,000-digit "
                                         "input and output limit")
        # 100,000 digits each side of the bar, the sign not counted
        [cell] = render.rationals([(-(10 ** 99999), 10 ** 99999 + 1)])
    finally:
        sys.set_int_max_str_digits(limit)
    assert cell == "-1" + "0" * 99999 + "/1" + "0" * 99998 + "1"


def test_beta_disagreement_exits_2_and_prints_its_table(monkeypatch, capsys):
    monkeypatch.setattr(beta, "theta_value", lambda k: (1, 1))
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
        assert refuses(capsys, "basis", "--r", "3", "--entry", entry) == \
            f"error: bad --entry: expected ROW,COL, got {entry!r}\n"
    # the bounds are checked against the built matrix, still uninverted
    for entry in ("0,1", "1,8", "8,1"):
        assert refuses(capsys, "basis", "--r", "3", "--entry", entry) == \
            f"error: bad --entry: entry ({entry}) outside a 7x7 matrix\n"
    assert calls == []
    monkeypatch.undo()
    assert refuses(capsys, "basis", "--r", "1", "--entry", "4,1") == \
        "error: bad --entry: entry (4,1) outside a 3x3 matrix\n"


def test_json_numbers_are_exact_decimals(tmp_path, capsys):
    # a string coefficient may still be a decimal or a ratio
    for value in ('0.1', '"0.1"', '"1/10"'):
        assert "integral of 1/10*q^1 through degree 1" in \
            prints(capsys, "zmap", "--braid", f'{{"1": {value}}}',
                   "--order", "1")
    huge = prints(capsys, "zmap", "--braid", '{"1": 1e400}', "--order", "0",
                  "--format", "json")
    assert json.loads(huge)["tables"][0]["rows"] == [["0", str(10 ** 400)]]
    path = tmp_path / "decimals.json"
    path.write_text('{"items": [{"1": 1e400}, {"1": 0.25}, {"1": 0.125}]}',
                    encoding="utf-8")
    seq = prints(capsys, "trace", "--sequence", str(path), "--window", "3",
                 "--format", "csv")
    assert list(csv.reader(io.StringIO(seq)))[2] == \
        ["1", "insufficient", "1/8"]


def test_json_exponents_are_bounded(tmp_path, capsys):
    # Fraction builds 10^e in full, so an exponent past the digit limit is
    # refused from the text, in a JSON number, a string and a sequence file
    path = tmp_path / "exponent.json"
    path.write_text('{"items": [{"1": 1}, {"1": 1e100001}]}', encoding="utf-8")
    for argv in (["zmap", "--braid", '{"1": 1e100001, "-1": -1}'],
                 ["zmap", "--braid", '{"1": 1e20000000, "-1": -1}'],
                 ["zmap", "--braid", '{"1": "-1E-100001"}'],
                 ["trace", "--sequence", str(path)]):
        err = refuses(capsys, *argv)
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("decimal exponent beyond 100000 in size\n")
    tiny = prints(capsys, "zmap", "--braid", '{"1": "1e-400"}', "--order",
                  "0", "--format", "json")
    assert json.loads(tiny)["tables"][0]["rows"] == [["0", f"1/{10 ** 400}"]]
    # the bound itself is read, with or without leading zeros
    assert inputs._exact_decimal("1e100000") == (10 ** 100000, 1)
    assert inputs._exact_decimal("1E-0000100000") == (1, 10 ** 100000)


def test_float_digits_are_read_only_where_floats_print(capsys):
    # every README command with no float column ignores even a precision
    # out of range, below 10 or past the digit limit
    for command in ("lift --order 13", "zmap --braid pair:2 --order 4",
                    "qexpand --order 11", "qexpand --order 5 --power 2",
                    "beta --s 7", "basis --r 2 --entry 1,3",
                    "trace --sequence tauhat --window 8", "reproduce"):
        expected = read_golden(f"{command} --format text").decode("utf-8")
        for digits in ("4", "100001"):
            assert prints(capsys, *command.split(), "--digits", digits) == \
                expected, (command, digits)


def test_basis_solve_t_inverts_once(monkeypatch, capsys):
    calls = []
    invert = basis_solver.invert

    def counting_invert(M):
        calls.append(M.dim)
        return invert(M)

    monkeypatch.setattr(basis_solver, "invert", counting_invert)
    prints(capsys, "basis", "--r", "3", "--solve-t")
    assert calls == [7]

    calls.clear()
    assert refuses(capsys, "basis", "--r", "2", "--unbalanced",
                   "--solve-t") == \
        "error: --solve-t applies to the balanced basis\n"
    assert calls == []


def test_zmap_prints_each_coefficient_once(monkeypatch, capsys):
    # both tables show a prefix of the same printed rows: seven coefficients
    # through degree 6, each printed from its pair once
    calls = []
    rationals = zmap.rationals

    def counting_rationals(pairs):
        pairs = list(pairs)
        calls.append(len(pairs))
        return rationals(pairs)

    monkeypatch.setattr(zmap, "rationals", counting_rationals)
    assert cli.main(["zmap", "--order", "6", "--jmax", "6",
                     "--format", "json"]) == 0
    assert calls == [7]
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
        return [[str(i), str(Fraction(*c))]
                for i, c in enumerate(Z(pair(2), order))]

    monkeypatch.setattr(zmap, "Z", counting_Z)
    for order, jmax in ((4, 4), (2, 5), (6, 3)):
        calls.clear()
        series, graded = json.loads(prints(
            capsys, "zmap", "--braid", "pair:2", "--order", str(order),
            "--jmax", str(jmax), "--format", "json"))["tables"]
        assert calls == [max(order, jmax)]
        assert series["rows"] == rows(order)
        assert graded["rows"] == rows(jmax)

    calls.clear()
    assert refuses(capsys, "zmap", "--order", "-1", "--jmax", "-1") == \
        "error: order must be nonnegative\n"
    assert refuses(capsys, "basis", "--r", "-1") == \
        "error: r must be nonnegative\n"
    assert calls == []


def test_qexpand_rejects_a_bad_power_before_strengthening(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(pair_expansions, "closed_form_expansion",
                        calls.append)
    assert refuses(capsys, "qexpand", "--order", "61", "--power", "0") == \
        "error: power must be positive\n"
    assert calls == []


def counted(monkeypatch):
    """The (name, order) of every certified build of the lift, every
    expansion built and certified from its own cells, and every integral
    that checks a power, with the degree it reads through, in the order
    they run."""
    calls = []
    build = inverse_engine.closed_form_lift
    expand = pair_expansions.closed_form_expansion
    integrate = kontsevich.Z

    def counting_build(order):
        calls.append(("build", order))
        return build(order)

    def counting_expand(order):
        calls.append(("expand", order))
        return expand(order)

    def counting_integrate(b, order):
        calls.append(("integrate", order))
        return integrate(b, order)

    monkeypatch.setattr(inverse_engine, "closed_form_lift", counting_build)
    monkeypatch.setattr(pair_expansions, "closed_form_expansion",
                        counting_expand)
    monkeypatch.setattr(kontsevich, "Z", counting_integrate)
    return calls


PAIR_ORDERS = [("expand", order) for order in (1, 3, 5, 7, 9, 11)]
# request -> the lift builds, expansions and power checks it runs
SOLVES_AND_CERTIFICATES = {
    "lift --order 13": [("build", 13)],
    "qexpand --order 11 --power 2": [("expand", 11), ("integrate", 13)],
    "asymptotics --j 3 --orders 9,25,49":
        [("expand", 9), ("expand", 25), ("expand", 49)],
    "trace --sequence tauhat --window 8":
        [("expand", order) for order in range(1, 16, 2)],
    "reproduce --table lift": [("build", 13)],
    "reproduce --table pairs": PAIR_ORDERS,
    "basis --r 3 --solve-t": [("expand", 3)],
    "reproduce": [("build", 13), *PAIR_ORDERS],
}


@pytest.mark.parametrize("argv", [request.split()
                                  for request in SOLVES_AND_CERTIFICATES])
def test_a_request_solves_once_and_expands_once(argv, monkeypatch, capsys):
    # the lift is built only where it is printed; every expansion a
    # request reads comes from the closed form, each order once, and a
    # power alone reads the integral
    calls = counted(monkeypatch)
    assert cli.main(argv) == 0
    assert calls == SOLVES_AND_CERTIFICATES[" ".join(argv)]


@pytest.mark.parametrize("tables, top", [
    ([], 13), (["pairs"], 11), (["lift"], 13), (["pairs", "lift"], 13),
    (["beta", "zeta2"], None)])
def test_reproduce_solves_through_the_orders_its_tables_read(
        tables, top, monkeypatch, capsys):
    # the lift table builds through order 13 and the pairs table expands
    # and certifies orders 1-11; no other table reads the lift
    calls = counted(monkeypatch)
    argv = [arg for name in tables for arg in ("--table", name)]
    assert cli.main(["reproduce", *argv]) == 0
    read = set(tables or reproduce.REPRODUCE_TABLES)
    assert sorted(calls) == sorted(
        [("build", 13)] * ("lift" in read) + PAIR_ORDERS * ("pairs" in read))
    assert max((order for _, order in calls), default=None) == top
    capsys.readouterr()


def test_a_broken_lower_truncation_fails_its_symmetry_check(monkeypatch):
    # an expansion is antisymmetric by construction, so a stray q^0 term
    # in a lower one is refused where it is built, before its certificate
    # or any request reads it
    expansion = pair_expansions.closed_form_expansion

    def planted(order):
        b = expansion(order)
        return pair_expansions.PairSum(b.half, 1, b.den, b.sign) \
            if order == 1 else b

    monkeypatch.setattr(pair_expansions, "closed_form_expansion", planted)
    message = r"an antisymmetric pair sum has a q\^0 term"
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
        assert refuses(capsys, "reproduce", *argv) == \
            f"error: table {argv[1]} given twice\n"
    assert calls == []


def test_trace_rejects_a_negative_jmax_before_building(monkeypatch, capsys):
    calls = []
    build = sequences.lift_truncation_sequence

    def counting_build(count):
        calls.append(count)
        return build(count)

    monkeypatch.setattr(sequences, "lift_truncation_sequence", counting_build)
    assert refuses(capsys, "trace", "--sequence", "tauhat", "--jmax", "-1",
                   "--window", "120") == "error: jmax must be nonnegative\n"
    assert calls == []


def test_trace_handles_huge_exponents(tmp_path, capsys):
    big = "1000000000000000000"
    payload = {"label": "huge-pairs",
               "items": [{big: "1", f"-{big}": "-1"},
                         {big: "2", f"-{big}": "-2"}]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out = prints(capsys, "trace", "--sequence", str(path))
    assert "satisfied" in out and "1 pairs checked" in out
