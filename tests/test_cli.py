import hashlib
import json
import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from dixonian import functions, numerics, permutations
from dixonian.core import PowerSeries
from dixonian.cli import VERIFY_TARGETS, main
from dixonian.urn import enumerate_histories, yule_closed_form


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- series ------------------------------------------------------------------


def test_series_sm_table(capsys):
    code, out, _ = run(capsys, "series", "sm", "--order", "13")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 14
    assert lines[0] == "0, 0, 0"
    assert lines[1] == "1, 1/1!, 1"
    assert lines[4] == "4, -4/4!, -4"
    assert lines[-1] == "13, 6476800/13!, 6476800"


def test_series_cm_order_zero(capsys):
    code, out, _ = run(capsys, "series", "cm", "--order", "0")
    assert code == 0
    assert out == "0, 1, 1\n"


def test_series_product_rows(capsys):
    # P = smh * cmh keeps integer scaled coefficients
    code, out, _ = run(capsys, "series", "P", "--order", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "1, 1/1!, 1"
    assert lines[4] == "4, 12/4!, 12"
    assert lines[7] == "7, 720/7!, 720"


def test_series_json_big_integers_are_strings(capsys):
    code, out, _ = run(capsys, "series", "sm", "--order", "13", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["function"] == "sm"
    rows = doc["rows"]
    assert rows[4]["egf_integer"] == "-4"
    assert rows[13]["egf_integer"] == "6476800"
    assert rows[13]["coefficient"] == "6476800/13!"


_SERIES_UNDER_LOW_LIMIT = """
import contextlib, hashlib, io, sys
sys.set_int_max_str_digits(640)
from dixonian.cli import main
for fmt in ("text", "json", "csv"):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["series", "sm", "--order", "360", "--format", fmt])
    print(code, hashlib.sha256(buf.getvalue().encode()).hexdigest())
"""


def test_series_prints_integers_past_the_str_digit_limit(capsys, run_fresh):
    # 360! [z^360] sm has more than 640 digits, the lowest limit Python
    # allows on int-to-str conversion; the table must print it in full.
    want = []
    for fmt in ("text", "json", "csv"):
        code, out, _ = run(capsys, "series", "sm", "--order", "360", "--format", fmt)
        want += [str(code), hashlib.sha256(out.encode()).hexdigest()]
    assert max(len(line.rsplit(",", 1)[1]) for line in out.splitlines()) > 641
    assert run_fresh(_SERIES_UNDER_LOW_LIMIT) == want
    assert want[::2] == ["0"] * 3


def test_series_csv_round_trips(capsys):
    code, out, _ = run(capsys, "series", "cm", "--order", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,coefficient,egf_integer"
    assert lines[1] == "0,1,1"
    assert lines[4] == "3,-2/3!,-2"


# -- verify ------------------------------------------------------------------


PASS_CASES = [
    ("verify", "conrad-j", "--family", "sm", "--depth", "4"),
    ("verify", "conrad-j", "--depth", "3"),
    ("verify", "conrad-s", "--family", "cm", "--depth", "6"),
    ("verify", "parity", "--n", "5"),
    ("verify", "r-repeated", "--max-n", "5"),
    ("verify", "urn", "--n", "5"),
    ("verify", "yule"),
    ("verify", "valent", "--max-n", "3"),
    ("verify", "width", "--max-n", "4"),
    ("verify", "andre", "--max-n", "3"),
]

FAULT_CASES = [
    ("verify", "conrad-j", "--family", "sm", "--depth", "4"),
    ("verify", "conrad-s", "--family", "cm", "--depth", "6"),
    ("verify", "parity", "--n", "4"),
    ("verify", "r-repeated", "--max-n", "4"),
    ("verify", "urn", "--n", "4"),
    ("verify", "yule"),
    ("verify", "valent", "--max-n", "2"),
    ("verify", "width", "--max-n", "3"),
    ("verify", "andre", "--max-n", "2"),
]


@pytest.mark.parametrize("argv", PASS_CASES)
def test_verify_targets_pass(capsys, argv):
    # A target added to the CLI table without a case here fails the suite.
    assert {case[1] for case in PASS_CASES} == set(VERIFY_TARGETS)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_andre_valent_and_width_checks_build_no_power_series(capsys, monkeypatch):
    # The three checks run on the integer EGF rows, never on Fraction series.
    def refuse(*_):
        raise AssertionError("a PowerSeries was built")

    monkeypatch.setattr(PowerSeries, "__init__", refuse)
    for argv in (
        ("andre", "--max-n", "11"),
        ("valent", "--max-n", "10"),
        ("width", "--max-n", "12"),
    ):
        code, out, _ = run(capsys, "verify", *argv)
        assert (code, out.splitlines()[-1]) == (0, "PASS")


def test_conrad_checks_and_P_table_convolve_nothing(capsys, monkeypatch):
    # The family moments and P are read off the sm, cm and u = sm cm tables
    # through Dixon's system, with no binomial convolution.
    cases = (("verify", "conrad-j"), ("verify", "conrad-s"), ("series", "P", "--order", "120"))
    want = [run(capsys, *argv) for argv in cases]

    def refuse(*_):
        raise AssertionError("a product was convolved")

    monkeypatch.setattr(functions, "_convolve", refuse)
    got = [run(capsys, *argv) for argv in cases]
    assert got == want
    assert [out.splitlines()[-1] for _, out, _ in got[:2]] == ["PASS", "PASS"]
    assert got[2][1].splitlines()[-1].startswith("120, ")


@pytest.mark.parametrize("argv", FAULT_CASES)
def test_injected_fault_turns_target_red(capsys, argv):
    # Every target in the CLI table must have a fault-injection case.
    assert {case[1] for case in FAULT_CASES} == set(VERIFY_TARGETS)
    code, out, _ = run(capsys, *argv, "--inject-fault")
    assert code == 1
    assert out.splitlines()[-1].startswith("FAIL")
    # exact values are shown as numbers, never as Fraction reprs
    assert "Fraction(" not in out


def test_failing_width_row_shows_both_denominators(capsys):
    code, out, _ = run(capsys, "verify", "width", "--max-n", "2", "--inject-fault")
    assert code == 1
    assert out.splitlines() == [
        "h=1: W1 = (1) / (2) (meixner: 1)",
        "h=2: W2 = (1) / (-z^2 + 2) (meixner: -z^2 + 1)",
        "FAIL: h=1: W1 = (1) / (2) (meixner: 1)",
    ]


def test_verify_parity_fails_under_a_shifted_subtree_residue(capsys, monkeypatch):
    # the placements' size prune is load-bearing: demand the wrong residue
    # mod 3 and they lose members, so the three routes disagree
    shifted = tuple(tuple((r + 1) % 3 for r in row) for row in permutations._SUBTREE_RESIDUES)
    monkeypatch.setattr(permutations, "_SUBTREE_RESIDUES", shifted)
    code, out, _ = run(capsys, "verify", "parity", "--n", "6")
    assert code == 1
    assert out.splitlines()[-1].startswith("FAIL: n=1: placements")


@pytest.mark.parametrize(
    "target, flag",
    [("parity", "--n"), ("r-repeated", "--max-n"), ("urn", "--n")],
)
def test_brute_force_targets_respect_cap(capsys, monkeypatch, target, flag):
    monkeypatch.setenv("DIXONIAN_BRUTE_CAP", "3")
    code, out, err = run(capsys, "verify", target, flag, "4")
    assert code == 2
    assert out == ""
    assert "DIXONIAN_BRUTE_CAP" in err
    code, out, _ = run(capsys, "verify", target, flag, "3")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_verify_rejects_flags_the_target_does_not_take(capsys):
    code, _, err = run(capsys, "verify", "parity", "--max-n", "3")
    assert code == 2
    assert "--max-n" in err and "--n" in err.replace("--max-n", "")
    code, _, err = run(capsys, "verify", "yule", "--n", "5")
    assert code == 2
    assert "no size flag" in err
    code, _, err = run(capsys, "verify", "urn", "--family", "sm")
    assert code == 2
    assert "--family" in err and "--n" in err
    code, _, err = run(capsys, "verify", "width", "--max-n", "0")
    assert code == 2
    assert "--max-n" in err


def test_verify_valent_prints_polynomials(capsys):
    code, out, _ = run(capsys, "verify", "valent", "--max-n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Q0: Q0(z) = 1"
    assert lines[1] == "Q1: Q1(z) = z + 2"


def test_verify_parity_prints_table(capsys):
    code, out, _ = run(capsys, "verify", "parity", "--n", "4")
    assert code == 0
    assert "n=4: X=4 Y=0" in out.splitlines()


def test_verify_unknown_family_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "conrad-j", "--family", "nope")
    assert code == 2
    assert "family" in err


# -- enumerate ----------------------------------------------------------------


def test_enumerate_parity_witnesses(capsys):
    code, out, _ = run(capsys, "enumerate", "perms", "--class", "Y", "--n", "3")
    assert code == 0
    assert out == "2 1 3\n3 1 2\n"
    code, out, _ = run(capsys, "enumerate", "perms", "--class", "X", "--n", "1")
    assert code == 0
    assert out == "1\n"


def test_enumerate_histories(capsys):
    code, out, _ = run(capsys, "enumerate", "histories", "--n", "2")
    assert code == 0
    assert out == "xxy\nyxx\n"


def test_enumerate_cap_exceeded_fails(capsys, monkeypatch):
    monkeypatch.setenv("DIXONIAN_BRUTE_CAP", "3")
    code, out, err = run(capsys, "enumerate", "perms", "--class", "X", "--n", "4")
    assert code == 2
    assert out == ""
    assert "cap" in err
    code, _, err = run(capsys, "enumerate", "histories", "--n", "4")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "sm", "--order", "3"),
        ("eval", "smh", "1", "--digits", "12"),
        ("verify", "conrad-j", "--depth", "2"),
    ],
)
def test_malformed_cap_leaves_capless_commands_alone(capsys, monkeypatch, argv):
    # only the brute-force paths read the cap, so only they may refuse it
    monkeypatch.delenv("DIXONIAN_BRUTE_CAP", raising=False)
    clean = run(capsys, *argv)
    assert clean[0] == 0
    for raw in ("x", "-1"):
        monkeypatch.setenv("DIXONIAN_BRUTE_CAP", raw)
        assert run(capsys, *argv) == clean


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "parity", "--n", "2"),
        ("verify", "urn", "--n", "2"),
        ("verify", "r-repeated", "--max-n", "2"),
        ("enumerate", "histories", "--n", "2"),
        ("enumerate", "perms", "--class", "X", "--n", "2"),
    ],
)
def test_malformed_cap_is_a_usage_error_where_read(capsys, monkeypatch, argv):
    for raw, why in (("x", "must be an integer"), ("-1", "must be nonnegative")):
        monkeypatch.setenv("DIXONIAN_BRUTE_CAP", raw)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"DIXONIAN_BRUTE_CAP {why}" in err


def test_enumerate_negative_size_is_usage_error(capsys):
    for argv in (
        ("perms", "--class", "X"),
        ("perms", "--class", "Y"),
        ("histories",),
    ):
        code, out, err = run(capsys, "enumerate", *argv, "--n", "-1")
        assert code == 2, argv
        assert out == ""
        assert "--n must be at least 0" in err
    # size zero still lists the empty permutation and the bare start word
    assert run(capsys, "enumerate", "perms", "--class", "Y", "--n", "0")[:2] == (0, "\n")
    assert run(capsys, "enumerate", "histories", "--n", "0")[:2] == (0, "x\n")


def test_enumerate_histories_text_lists_every_history(capsys):
    # repeated words print once per history, as in csv and json
    words = sorted(enumerate_histories(4, "y").elements())
    assert len(words) == math.factorial(4) > len(set(words))
    code, out, _ = run(capsys, "enumerate", "histories", "--n", "4", "--start", "y")
    assert code == 0
    assert out == "".join(w + "\n" for w in words)


def test_enumerate_histories_csv_and_json(capsys):
    words = sorted(enumerate_histories(3).elements())
    code, out, _ = run(capsys, "enumerate", "histories", "--n", "3", "--format", "csv")
    assert code == 0
    assert out == "item\n" + "".join(w + "\n" for w in words)
    code, out, _ = run(capsys, "enumerate", "histories", "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "command": "enumerate",
        "kind": "histories",
        "n": 3,
        "items": words,
    }


def test_enumerate_flag_mismatches_are_usage_errors(capsys):
    assert run(capsys, "enumerate", "perms", "--n", "3")[0] == 2
    assert run(capsys, "enumerate", "histories", "--class", "X", "--n", "2")[0] == 2
    assert run(capsys, "enumerate", "perms", "--class", "X", "--n", "3", "--start", "y")[0] == 2


def test_enumerate_json_listing(capsys):
    code, out, _ = run(
        capsys, "enumerate", "perms", "--class", "Y", "--n", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["items"] == [[2, 1, 3], [3, 1, 2]]


# -- eval ---------------------------------------------------------------------


def test_eval_pi3_digits(capsys):
    code, out, _ = run(capsys, "eval", "pi3", "--digits", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "5.2999162508"
    assert lines[1] == "error < 2e-10"


def test_eval_smh_at_zero(capsys):
    code, out, _ = run(capsys, "eval", "smh", "0")
    assert code == 0
    assert float(out.splitlines()[0]) == 0.0


def test_eval_smh_known_value(capsys):
    code, out, _ = run(capsys, "eval", "smh", "1", "--digits", "10")
    assert code == 0
    assert out.splitlines()[0] == "1.2054151514"


def test_eval_yule_matches_ode_oracle(capsys):
    code, out, _ = run(capsys, "eval", "yuleX", "1.0", "--digits", "12")
    assert code == 0
    expected = yule_closed_form(1.0)[0]
    assert abs(float(out.splitlines()[0]) - expected) < 1e-9
    code, out, _ = run(capsys, "eval", "yuleY", "0.25", "--digits", "12")
    assert code == 0
    expected = yule_closed_form(0.25)[1]
    assert abs(float(out.splitlines()[0]) - expected) < 1e-9


def test_eval_domain_violations_exit_one(capsys):
    code, _, err = run(capsys, "eval", "smh", "2")
    assert code == 1
    assert err != ""
    code, _, err = run(capsys, "eval", "yuleX", "--", "-0.5")
    assert code == 1
    assert "forward" in err


@pytest.mark.parametrize("raw", ["-17/10", "-1/2", "-1.7", "1/2"])
def test_eval_reads_negative_arguments(capsys, raw):
    # argparse takes -17/10 for an option, and before Python 3.13 leaves
    # any value after an option over; eval reads it as its argument
    code, out, err = run(capsys, "eval", "cmh", raw)
    assert (code, err) == (0, "")
    assert run(capsys, "eval", "cmh", "--", raw)[1] == out
    out = run(capsys, "eval", "cmh", raw, "--digits", "20")[1]
    assert out.endswith("\nerror < 2e-20\n")
    assert run(capsys, "eval", "cmh", "--digits", "20", raw)[1] == out
    assert run(capsys, "eval", "cmh", "--digits", "20", "--", raw)[1] == out
    code, out, _ = run(capsys, "eval", "smh", raw, "--format", "json")
    assert code == 0
    assert json.loads(out)["argument"] == str(Fraction(raw))


@pytest.mark.parametrize("argv, end", [
    (("smh", "2"), "lies past the pole at pi3/3"),
    (("cmh", "2"), "lies past the pole at pi3/3"),
    (("smh", "-2"), "lies past the first zero -pi3/3"),
    (("cmh", "-2"), "lies past the first zero -pi3/3"),
    # 10^-45 below the pole, which 20 digits cannot resolve
    (("cmh", str(numerics._THIRD_PERIOD - Fraction(1, 10**45)), "--digits", "20"),
     "too close to the pole at pi3/3"),
])
def test_eval_domain_errors_name_the_called_functions_end(capsys, argv, end):
    # smh and cmh live on [-pi3/3, pi3/3), mirrored from sm and cm
    assert run(capsys, "eval", *argv) == (1, "", f"error: argument {end}\n")


def test_eval_still_refuses_unknown_options(capsys):
    for argv in (("cmh", "--bogus"), ("cmh", "1", "-17/10"), ("cmh", "-x")):
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2, argv
        assert out == ""
        assert "unrecognized arguments" in err
    assert run(capsys, "series", "sm", "-17/10")[0] == 2
    assert run(capsys, "-17/10", "eval", "cmh")[0] == 2


def test_eval_argument_arity_is_checked(capsys):
    assert run(capsys, "eval", "pi3", "1")[0] == 2
    assert run(capsys, "eval", "smh")[0] == 2
    assert run(capsys, "eval", "smh", "abc")[0] == 2


# -- global plumbing -----------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "series", "tanh")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "series", "sm", "--order", "-1")[0] == 2
    assert run(capsys, "series", "sm", "--format", "xml")[0] == 2
    assert run(capsys, "eval", "pi3", "--digits", "5")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        "--format json series sm",
        "--order 3 series sm",
        "--precision 12 eval smh 1",
        "verify parity --n 4 --order 5",
        "eval smh 1 --precision 12",
    ],
)
def test_options_belong_to_their_subcommand(capsys, argv):
    # Each option is defined once, on the subcommand that reads it, so an
    # option before the subcommand or on another one is refused rather
    # than dropped.
    assert run(capsys, *argv.split())[0] == 2


def test_environment_overrides(capsys, monkeypatch):
    monkeypatch.setenv("DIXONIAN_ORDER", "5")
    code, out, _ = run(capsys, "series", "sm")
    assert code == 0
    assert len(out.splitlines()) == 6
    monkeypatch.setenv("DIXONIAN_FORMAT", "json")
    code, out, _ = run(capsys, "series", "sm")
    assert json.loads(out)["order"] == 5
    # explicit flags win over the environment
    code, out, _ = run(capsys, "series", "sm", "--order", "4", "--format", "text")
    assert out.splitlines()[-1] == "4, -4/4!, -4"
    monkeypatch.setenv("DIXONIAN_ORDER", "nine")
    assert run(capsys, "series", "sm")[0] == 2


def test_output_file_matches_stdout(capsys, tmp_path):
    code, out, _ = run(capsys, "series", "sm", "--order", "7")
    assert code == 0
    target = tmp_path / "table.txt"
    code, piped, _ = run(
        capsys, "series", "sm", "--order", "7", "--output", str(target)
    )
    assert code == 0
    assert piped == ""
    assert target.read_text(encoding="utf-8") == out


def test_output_is_deterministic(capsys):
    first = run(capsys, "verify", "parity", "--n", "4", "--format", "json")
    second = run(capsys, "verify", "parity", "--n", "4", "--format", "json")
    assert first == second


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    code, out, _ = run(capsys, "series", "--help")
    assert code == 0


def test_eval_pi3_prints_every_digit_it_claims(capsys):
    code, out, _ = run(capsys, "eval", "pi3", "--digits", "60")
    assert code == 0
    value, claim = out.splitlines()
    assert claim == "error < 2e-60"
    assert len(value.split(".")[1]) == 60
    with mp.workdps(100):
        assert abs(mpf(value) - mpmath.beta(mpf(1) / 3, mpf(1) / 3)) < mpf("2e-60")


_LOADED_AFTER = """
import contextlib, io, sys
before = set(sys.modules)
from dixonian.cli import main
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    print(",".join(sorted({{"mpmath", "json", "csv"}} & (set(sys.modules) - before))) or "-")
"""


def _loaded_after(*commands: str) -> str:
    """Code that runs each command through main in one process and prints,
    after each, which of mpmath, json and csv the process has loaded."""
    return _LOADED_AFTER.format(commands=[c.split() for c in commands])


def test_exact_subcommands_never_load_mpmath(run_fresh):
    # Tables, fraction and combinatorial checks and listings are exact,
    # and evaluation runs on integer balls: no subcommand pays for the
    # float library, nor for an output format it does not print.
    commands = (
        "series sm --order 5",
        "verify conrad-j --depth 3",
        "verify parity --n 4",
        "verify andre --max-n 3",
        "enumerate perms --n 3 --class X",
        "eval smh 1/2",
        "eval cmh -1.7 --digits 30",
        "eval pi3 --digits 60",
        "eval yuleX 1",
        "eval yuleY 2 --digits 60",
        "verify yule",
    )
    assert run_fresh(_loaded_after(*commands)) == ["-"] * len(commands)
    assert run_fresh(_loaded_after("series sm --order 3 --format json")) == ["json"]
    assert run_fresh(_loaded_after("series sm --order 3 --format csv")) == ["csv"]
    assert run_fresh(_loaded_after("eval pi3 --format json", "eval smh 1 --format json")) == [
        "json", "json"]
    assert run_fresh(_loaded_after("eval yuleY 1 --format csv", "eval cmh 1 --format csv")) == [
        "csv", "csv"]


def test_cli_import_loads_no_dataclasses_or_inspect(run_fresh):
    # The records are NamedTuples and slots classes, so a cold start
    # skips dataclasses and the inspect module it pulls in.
    code = (
        "import sys, dixonian.cli\n"
        "print(*[m for m in ('dataclasses', 'inspect') if m in sys.modules] or ['-'])"
    )
    assert run_fresh(code) == ["-"]
