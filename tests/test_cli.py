import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("BRAIDINV_FLOAT_DIGITS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "braidinv", *args],
                          capture_output=True, text=True, env=env)


def test_lift_text_output():
    result = run_cli("lift", "--order", "7")
    assert result.returncode == 0
    assert "-5/7168" in result.stdout
    assert "-1/24" in result.stdout


def test_lift_methods_are_byte_identical():
    a = run_cli("lift", "--order", "13", "--method", "strengthen")
    b = run_cli("lift", "--order", "13", "--method", "reversion")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_lift_rejects_even_order():
    result = run_cli("lift", "--order", "4")
    assert result.returncode == 1
    assert "odd" in result.stderr


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


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "lift.json"
    result = run_cli("lift", "--order", "3", "--format", "json",
                     "--out", str(target))
    assert result.returncode == 0
    assert result.stdout == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["tables"][0]["rows"] == [["1", "1"], ["3", "-1/24"]]


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
                     env_extra={"BRAIDINV_FLOAT_DIGITS": "12"})
    assert result.returncode == 0
    assert "[12d]" in result.stdout
    assert "1225/1024" in result.stdout

    flag_wins = run_cli("asymptotics", "--j", "1", "--orders", "7",
                        "--digits", "15",
                        env_extra={"BRAIDINV_FLOAT_DIGITS": "12"})
    assert "[15d]" in flag_wins.stdout


def test_float_output_needs_enough_digits():
    result = run_cli("asymptotics", "--j", "1", "--orders", "7",
                     "--digits", "4")
    assert result.returncode == 1
    assert "digits" in result.stderr


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
    code = ("import sys\n"
            "limit = sys.get_int_max_str_digits\n"
            "before = limit()\n"
            "import braidinv.render\n"
            "assert limit() == before\n"
            "import braidinv.cli\n"
            "assert limit() == before\n"
            "braidinv.cli.main(['beta', '--s', '7'])\n"
            "assert limit() == before\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr


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
