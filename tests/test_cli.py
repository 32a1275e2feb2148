"""Command-line interface: output shapes, exit codes, determinism.

Most tests drive main() in-process for speed; determinism and entry-point
wiring are exercised through real subprocesses.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import cycle
from pathlib import Path

import pytest

import markovfrac
from markovfrac import cli, markov, slopes
from markovfrac.cli import main
from markovfrac.exact import MAX_VALUE_BITS
from markovfrac.markov import mu

# Child interpreters import the same package as this one, installed or not.
_CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(markovfrac.__file__).parents[1]), os.environ.get("PYTHONPATH")])),
}


def run_cli(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_proc(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "markovfrac", *args],
        capture_output=True, text=True, env=_CHILD_ENV,
    )
    return proc.returncode, proc.stdout, proc.stderr


# -- records ---------------------------------------------------------------

# Each subcommand with its smallest valid arguments.
_SMALLEST_CALLS = [
    ("enumerate", "--depth", "0"),
    ("mu", "1/2"),
    ("epsilon", "1/2"),
    ("slope", "1/2"),
    ("qmark", "1/2"),
    ("verify", "--depth", "0"),
    ("approx-const", "1/2"),
    ("interval", "2/5"),
    ("mcshane", "--depth", "0", "--precision", "1"),
    ("saltus", "1/2", "--depth", "0", "--precision", "1"),
    ("lyapunov", "--word", "const", "--steps", "1"),
    ("unicity", "--depth", "0"),
    ("triples", "--equation", "markov", "--depth", "0"),
    ("congruence", "1"),
    ("plot-mu", "--grid", "2", "--depth", "0"),
]


def test_smallest_calls_cover_every_subcommand():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    assert sorted(sub.choices) == sorted(call[0] for call in _SMALLEST_CALLS)


@pytest.mark.parametrize("call", _SMALLEST_CALLS, ids=lambda call: call[0])
def test_json_record_is_named_after_its_subcommand(capsys, call):
    code, out, err = run_cli(capsys, *call, "--format", "json")
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert (record["command"], record["status"], record["error_detail"]) == (call[0], "ok", "")


# -- enumerate ---------------------------------------------------------------


def test_enumerate_json_depth2(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--depth", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "enumerate"
    assert record["status"] == "ok"
    assert record["inputs"] == {"depth": "2"}
    vertices = record["outputs"]["vertices"]
    assert record["outputs"]["count"] == 7 == len(vertices)
    values = [v["value"] for v in vertices]
    for expected in ("2/5", "5/13", "12/29"):
        assert expected in values
    # every numeric token round-trips exactly
    for v in vertices:
        assert F(v["left"]) < F(v["value"]) < F(v["right"])


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--depth", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "depth,word,left,value,right"
    assert lines[1] == "0,,0/1,2/5,1/2"
    assert lines[2] == "1,L,0/1,5/13,2/5"
    assert lines[3] == "1,R,2/5,12/29,1/2"
    assert len(lines) == 4


def test_enumerate_plain_defaults_to_table(capsys):
    _, plain_out, _ = run_cli(capsys, "enumerate", "--depth", "1")
    _, csv_out, _ = run_cli(capsys, "enumerate", "--depth", "1", "--format", "csv")
    assert plain_out == csv_out


# -- scalar commands -----------------------------------------------------------


def test_mu_plain(capsys):
    code, out, _ = run_cli(capsys, "mu", "1/2")
    assert code == 0
    assert out == "value: 2/5\nword: \ndepth: 0\n"


def test_mu_seed_has_no_word(capsys):
    code, out, _ = run_cli(capsys, "mu", "0/1")
    assert code == 0
    assert "value: 0/1" in out and "word: -" in out


def test_epsilon_forms(capsys):
    code, out, _ = run_cli(capsys, "epsilon", "3/2^3")
    assert code == 0 and out == "value: 12/29\n"
    code, out, _ = run_cli(capsys, "epsilon", "3/8")
    assert code == 0 and out == "value: 12/29\n"
    code, out, _ = run_cli(capsys, "epsilon", "5")
    assert code == 0 and out == "value: 5/1\n"


def test_epsilon_json_normalizes_input(capsys):
    code, out, _ = run_cli(capsys, "epsilon", "1/4", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["inputs"] == {"x": "1/2^2"}
    assert record["outputs"] == {"value": "2/5"}


def test_epsilon_of_zero_over_a_huge_power_of_two(capsys):
    # The exponent is stripped in one step, not one factor of 2 at a time.
    assert run_cli(capsys, "epsilon", "0/2^99999999999999999999") == (0, "value: 0/1\n", "")
    code, out, err = run_cli(capsys, "epsilon", "0/2^99999999999999999999", "--format", "json")
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["inputs"] == {"x": "0"}
    assert record["outputs"] == {"value": "0/1"}


def test_slope_member(capsys):
    code, out, _ = run_cli(capsys, "slope", "13/34")
    assert code == 0
    assert "member: yes" in out
    assert "word: LL" in out
    assert "s: 5" in out and "c2: 99" in out
    assert "form: (34, 76, -34)" in out
    assert "discriminant: 10400" in out


def test_slope_non_member(capsys):
    code, out, _ = run_cli(capsys, "slope", "1/3")
    assert code == 0  # a rejection is an answer, not an error
    assert "member: no" in out
    assert "stopped_at_denominator: 5" in out


def test_slope_searches_the_tree_once(capsys, monkeypatch):
    searches = []
    search = slopes.is_exceptional_slope

    def counting(x):
        searches.append(x)
        return search(x)

    monkeypatch.setattr(cli, "is_exceptional_slope", counting)
    monkeypatch.setattr(slopes, "is_exceptional_slope", counting)
    for args in (("13/34",), ("-7/5", "--format", "json")):
        searches.clear()
        assert run_cli(capsys, "slope", *args)[0] == 0
        assert len(searches) == 1


def test_qmark_methods_agree(capsys):
    outputs = set()
    for method in ("farey", "salem", "word"):
        code, out, _ = run_cli(capsys, "qmark", "2/5", "--method", method)
        assert code == 0
        outputs.add(out.replace(method, "METHOD"))
    assert len(outputs) == 1
    assert "value: 3/2^3" in outputs.pop()


def test_qmark_endpoints_all_methods(capsys):
    for x, dyadic in (("0/1", "0"), ("1/1", "1")):
        for method in ("farey", "salem", "word"):
            code, out, _ = run_cli(capsys, "qmark", x, "--method", method)
            assert code == 0
            assert f"value: {dyadic}\n" in out


def test_approx_const(capsys):
    code, out, _ = run_cli(capsys, "approx-const", "2/5")
    assert code == 0
    assert "constant: 2/5" in out and "at_least_one_third: yes" in out
    code, out, _ = run_cli(capsys, "approx-const", "2/7")
    assert "at_least_one_third: no" in out


@pytest.mark.parametrize("branch, k, constant, witness", [
    (markovfrac.fibonacci_branch, 93,
     "538522340430300790495419781092981030533/1409869790947669143312035591975596518914",
     "0/1"),
    (markovfrac.pell_branch, 52,
     "1885300540204092261466875493193552572178/5494168403412088213319314492946575384825",
     "1/2"),
])
def test_approx_const_on_40_digit_tree_fractions(capsys, branch, k, constant, witness):
    x = branch(k).value
    assert len(str(x.denominator)) >= 40
    code, out, _ = run_cli(capsys, "approx-const", str(x))
    assert code == 0
    assert out == (f"constant: {constant}\nwitness: {witness}\n"
                   "at_least_one_third: yes\n")
    code, out, _ = run_cli(capsys, "approx-const", str(x), "--format", "json")
    assert code == 0
    assert json.loads(out)["outputs"] == {
        "constant": constant, "witness": witness, "at_least_one_third": True}


def test_interval_with_freeness(capsys):
    code, out, _ = run_cli(capsys, "interval", "2/5", "--freeness-bound", "1000")
    assert code == 0
    assert "lo: (-11+1*sqrt(221))/10" in out
    assert "hi: (19-1*sqrt(221))/10" in out
    assert "free: yes" in out
    # the reported decimal window must bracket the exact endpoints
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert float(lines["lo_approx"]) == pytest.approx(0.3866068, abs=1e-6)


def test_interval_freeness_to_10_200(capsys):
    code, out, _ = run_cli(capsys, "interval", "2/5", "--freeness-bound", str(10 ** 200))
    assert code == 0
    assert out.endswith(f"freeness_bound: {10 ** 200}\nfree: yes\nintruders: \n")


def test_interval_freeness_budget_exits_1(capsys):
    detail = "the freeness bound exceeds the 1024-bit budget"
    code, out, err = run_cli(capsys, "interval", "2/5", "--freeness-bound", str(1 << 1024))
    assert (code, out, err) == (1, "", f"error: {detail}\n")
    code, out, _ = run_cli(capsys, "interval", "2/5", "--freeness-bound", str(10 ** 1000),
                           "--format", "json")
    assert code == 1
    assert json.loads(out)["error_detail"] == detail


@pytest.mark.parametrize("command", [("mcshane",), ("saltus", "1/2")])
def test_precision_budget_exits_1(capsys, command):
    detail = "the precision exceeds the 100-digit budget"
    args = (*command, "--depth", "14", "--precision", "101")
    code, out, err = run_cli(capsys, *args)
    assert (code, out, err) == (1, "", f"error: {detail}\n")
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 1
    assert json.loads(out)["error_detail"] == detail


def test_mcshane_json_enclosure(capsys):
    code, out, _ = run_cli(capsys, "mcshane", "--depth", "1", "--precision", "8",
                           "--format", "json")
    assert code == 0
    record = json.loads(out)
    lo, hi = (F(s) for s in record["outputs"]["enclosure"])
    assert lo <= hi < F(1, 2)
    assert hi - lo <= F(2, 10**8)  # reported pair is rounded outward to the grid
    gap_lo, gap_hi = (F(s) for s in record["outputs"]["gap_below_half"])
    assert gap_lo == F(1, 2) - hi
    assert gap_hi == F(1, 2) - lo


def test_saltus(capsys):
    code, out, _ = run_cli(capsys, "saltus", "1/2", "--depth", "4", "--precision", "8")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    lo, hi = (F(s) for s in lines["enclosure"].split())
    assert lo <= hi <= F(2, 5)
    assert F(2, 5) - lo < F(1, 10**4)


def test_lyapunov_words(capsys):
    code, out, _ = run_cli(capsys, "lyapunov", "--word", "alternating", "--steps", "100")
    assert code == 0
    estimate = markovfrac.lyapunov_estimate(cycle("LR"), 100)
    assert out == f"estimate_approx: {estimate!r}\n"
    assert abs(estimate - 0.4812118) < 0.02
    code, out, _ = run_cli(capsys, "lyapunov", "--word", "const", "--steps", "100")
    assert float(out.split(": ")[1]) < 0.05


def test_unicity(capsys):
    code, out, _ = run_cli(capsys, "unicity", "--depth", "4", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["outputs"]["vertices"] == 33
    assert record["outputs"]["distinct_denominators"] == 33
    assert record["outputs"]["all_unique"] is True
    assert record["outputs"]["duplicates"] == []


def test_triples(capsys):
    code, out, _ = run_cli(capsys, "triples", "--equation", "quadric", "--depth", "1")
    assert code == 0
    assert out.splitlines() == ["1 1 1", "1 3 1", "3 1 1"]
    code, out, _ = run_cli(capsys, "triples", "--equation", "x3", "--depth", "1")
    assert "5 1 1" in out.splitlines()


def test_triples_depth_budget(capsys):
    code, out, err = run_cli(capsys, "triples", "--equation", "markov", "--depth", "40")
    assert (code, out, err) == (1, "", "error: depth 40 exceeds the 1048576 vertex budget\n")
    code, out, _ = run_cli(capsys, "triples", "--equation", "quadric", "--depth", "40",
                           "--format", "json")
    assert code == 1
    assert json.loads(out)["error_detail"] == "depth 40 exceeds the 1048576 vertex budget"


def test_congruence_exact_output(capsys):
    code, out, _ = run_cli(capsys, "congruence", "37666")
    assert code == 0
    assert out == "2337 15571 22095 35329\n"
    code, out, _ = run_cli(capsys, "congruence", "5")
    assert out == "2 3\n"
    code, out, _ = run_cli(capsys, "congruence", "3")
    assert out == "\n"
    code, out, _ = run_cli(capsys, "congruence", "--help")
    assert code == 0
    assert "Solutions of x^2 + 1 = 0 modulo Q in [0, Q)." in out


def test_congruence_factoring_budget_exits_1(capsys, monkeypatch):
    # Two 20-digit primes 1 mod 4: past rho's cap, and past a budget of two curves.
    monkeypatch.setattr(markov, "_ECM_SCHEDULE", ((2_000, 147_396, 2),))
    q = str(10000000000000000097 * 20000000000000000153)
    detail = "a 39-digit cofactor is left unsplit by the factoring budget of 2 elliptic curves"
    assert run_cli(capsys, "congruence", q) == (1, "", f"error: {detail}\n")
    code, out, err = run_cli(capsys, "congruence", q, "--format", "json")
    assert (code, err) == (1, f"error: {detail}\n")
    record = json.loads(out)
    assert (record["status"], record["error_detail"]) == ("error", detail)


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--depth", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "19/19 invariant suites passed"
    assert sum(1 for line in lines if line.startswith("PASS ")) == 19
    assert not any(line.startswith("FAIL") for line in lines)


def test_plot_mu_csv(capsys):
    code, out, _ = run_cli(capsys, "plot-mu", "--grid", "5", "--depth", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,mu_lower,mu_upper,x_approx,mu_approx"
    assert len(lines) == 6
    xs, lowers, uppers = [], [], []
    for line in lines[1:]:
        x, lo, hi, _, _ = line.split(",")
        xs.append(F(x))
        lowers.append(F(lo))
        uppers.append(F(hi))
    assert xs == sorted(xs) and xs[0] == 0 and xs[-1] == 1
    assert all(lo <= hi for lo, hi in zip(lowers, uppers))
    assert lowers == sorted(lowers)  # a monotone step function, sampled
    assert out == (
        "x,mu_lower,mu_upper,x_approx,mu_approx\n"
        "0/1,0/1,0/1,0.000000000000,0.000000000000\n"
        "1/4,191175421659/500000000000,382350843319/1000000000000,"
        "0.250000000000,0.382350843318\n"
        "1/2,399997902139/1000000000000,19999895107/50000000000,"
        "0.500000000000,0.399997902139\n"
        "3/4,414199085571/1000000000000,103549771393/250000000000,"
        "0.750000000000,0.414199085571\n"
        "1/1,249998950763/500000000000,499997901527/1000000000000,"
        "1.000000000000,0.499997901526\n"
    )


# -- exit codes and error reporting ---------------------------------------------


def test_usage_error_names_bad_token(capsys):
    code, _, err = run_cli(capsys, "mu", "2/")
    assert code == 2
    assert "'2/'" in err
    code, _, err = run_cli(capsys, "mu", "abc")
    assert code == 2 and "'abc'" in err


def test_usage_error_non_dyadic(capsys):
    code, _, err = run_cli(capsys, "epsilon", "1/3")
    assert code == 2
    assert "power-of-two" in err


def test_domain_error_exit1(capsys):
    code, _, err = run_cli(capsys, "mu", "3/2")
    assert code == 1
    assert "error:" in err
    code, _, _ = run_cli(capsys, "congruence", "0")
    assert code == 1


def test_domain_error_json_record(capsys):
    code, out, err = run_cli(capsys, "mu", "3/2", "--format", "json")
    assert code == 1
    record = json.loads(out)
    assert record["status"] == "error"
    assert "mu is defined on [0, 1]" in record["error_detail"]
    assert "error:" in err


# Each subcommand that takes a fraction, with a negative literal and the
# exit code it gives; the literal must read as a value, not as an option.
_NEGATIVE_LITERALS = [
    ("mu", "-1/2", (), 1),
    ("epsilon", "-1/4", (), 0),
    ("epsilon", "-77/2^9", (), 0),
    ("slope", "-7/5", (), 0),
    ("qmark", "-1/3", ("--method", "salem"), 1),
    ("approx-const", "-2/5", (), 0),
    ("interval", "-2/5", (), 0),
    ("saltus", "-1/2", ("--depth", "3", "--precision", "4"), 1),
]


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize("command,literal,flags,expected", _NEGATIVE_LITERALS)
def test_negative_slash_literal_matches_dash_dash_form(capsys, command, literal, flags,
                                                       expected, fmt):
    given = run_cli(capsys, command, literal, "--format", fmt, *flags)
    escaped = run_cli(capsys, command, "--format", fmt, *flags, "--", literal)
    assert given == escaped
    assert given[0] == expected


def test_negative_slash_literal_values(capsys):
    assert run_cli(capsys, "epsilon", "-1/4") == (0, "value: -2/5\n", "")
    code, out, _ = run_cli(capsys, "approx-const", "-2/5")
    assert code == 0 and out.startswith("constant: 2/5\n")
    code, _, err = run_cli(capsys, "mu", "-1/2")
    assert code == 1 and "mu is defined on [0, 1]; got -1/2" in err
    code, _, err = run_cli(capsys, "mu", "-1/x")
    assert code == 2 and "'-1/x'" in err
    code, _, err = run_cli(capsys, "epsilon", "-1/3")
    assert code == 2 and "power-of-two" in err


def test_plot_mu_grid_budget(capsys):
    code, out, err = run_cli(capsys, "plot-mu", "--grid", str(2**20 + 1), "--depth", "3")
    assert code == 1 and out == ""
    assert "exceeds the 1048576 sample point budget" in err
    # A grid far beyond memory fails the same way: nothing is allocated first.
    code, out, err = run_cli(capsys, "plot-mu", "--grid", str(10**30), "--depth", "3",
                             "--format", "json")
    assert code == 1
    assert json.loads(out)["status"] == "error"
    assert "sample point budget" in err


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_missing_required_flag(capsys):
    code, _, _ = run_cli(capsys, "enumerate")
    assert code == 2


def test_zero_denominator_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "mu", "1/0")
    assert code == 2
    assert "1/0" in err


# -- determinism -------------------------------------------------------------------


def test_subprocess_entry_point():
    code, out, _ = run_proc("congruence", "37666")
    assert code == 0
    assert out == "2337 15571 22095 35329\n"


def test_byte_identical_reruns():
    first = run_proc("enumerate", "--depth", "4", "--format", "csv")
    second = run_proc("enumerate", "--depth", "4", "--format", "csv")
    assert first == second


def test_threads_flag_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--depth", "2", "--threads", "4")
    assert code == 2
    assert "--threads" in err


# -- value budget and long answers -------------------------------------------------


@pytest.fixture
def digits_unlimited():
    """Lift the int/str digit limit for building expected strings, if Python has one."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0

    def lift():
        if limit:
            sys.set_int_max_str_digits(0)

    yield lift
    if limit:
        sys.set_int_max_str_digits(limit)


def _digit_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def test_mu_prints_an_answer_past_4300_digits(capsys, digits_unlimited):
    limit = _digit_limit()
    code, out, err = run_cli(capsys, "mu", "1/100000")
    code_json, out_json, _ = run_cli(capsys, "mu", "1/100000", "--format", "json")
    assert _digit_limit() == limit
    digits_unlimited()
    image = mu(F(1, 100_000))
    assert image.value.denominator.bit_length() == 138_848
    value = f"{image.value.numerator}/{image.value.denominator}"
    assert len(value) > 4300
    assert (code, err) == (0, "")
    assert out == f"value: {value}\nword: {'L' * 99_998}\ndepth: 99998\n"
    assert code_json == 0
    assert json.loads(out_json)["outputs"]["value"] == value


@pytest.mark.parametrize("method", ["farey", "salem", "word"])
def test_qmark_prints_an_answer_past_4300_digits(capsys, digits_unlimited, method):
    limit = _digit_limit()
    code, out, err = run_cli(capsys, "qmark", "1/100000", "--method", method)
    assert _digit_limit() == limit
    digits_unlimited()
    assert (code, err) == (0, "")
    assert out == f"value: 1/2^99999\nfraction: 1/{2 ** 99_999}\nmethod: {method}\n"


def test_cli_digit_limit_is_restored_after_errors_and_kept_when_lifted(capsys, digits_unlimited):
    limit = _digit_limit()
    assert run_cli(capsys, "mu", "832040/1346269")[0] == 1
    assert run_cli(capsys, "mu", "3/2")[0] == 1
    assert _digit_limit() == limit
    digits_unlimited()
    assert run_cli(capsys, "mu", "1/2")[0] == 0
    assert _digit_limit() in (0, None)


def test_cli_runs_without_a_digit_limit_api(capsys, monkeypatch):
    # Python before 3.10.7 has neither the limit nor the functions.
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert run_cli(capsys, "mu", "1/2") == (0, "value: 2/5\nword: \ndepth: 0\n", "")


@pytest.mark.parametrize("args, message", [
    (("mu", "832040/1346269"), "the tree vertex"),
    (("epsilon", "123456789012345/2^50"), "epsilon(x)"),
    (("mu", "1/300000"), "the turn word of x"),
    (("qmark", "1/300000"), "?(x)"),
    (("qmark", "1/300000", "--method", "salem"), "?(x)"),
    (("qmark", "1/300000", "--method", "word"), "the turn word of x"),
    (("epsilon", "1/2^99999999999999999999"), "epsilon(x)"),
])
def test_value_budget_is_a_domain_error(capsys, args, message):
    detail = f"{message} exceeds the 262144-bit value budget"
    assert run_cli(capsys, *args) == (1, "", f"error: {detail}\n")
    code, out, err = run_cli(capsys, *args, "--format", "json")
    assert (code, err) == (1, f"error: {detail}\n")
    assert json.loads(out)["error_detail"] == detail


def test_slope_value_budget_boundary(capsys, digits_unlimited):
    # A 2**18-bit denominator is searched; one bit more is a domain error.
    # Its 78,914 digits parse only with the caller's digit limit lifted.
    digits_unlimited()
    inside, outside = f"1/{2 ** (MAX_VALUE_BITS - 1)}", f"1/{2 ** MAX_VALUE_BITS}"
    code, out, err = run_cli(capsys, "slope", inside)
    assert (code, err) == (0, "")
    assert "member: no\n" in out
    code, out, _ = run_cli(capsys, "slope", inside, "--format", "json")
    assert code == 0 and json.loads(out)["outputs"]["member"] is False
    detail = "the slope x exceeds the 262144-bit value budget"
    assert run_cli(capsys, "slope", outside) == (1, "", f"error: {detail}\n")
    code, out, err = run_cli(capsys, "slope", outside, "--format", "json")
    assert (code, err) == (1, f"error: {detail}\n")
    assert json.loads(out)["error_detail"] == detail


def test_console_entry_point_exits_1_over_the_budget():
    assert run_proc("mu", "832040/1346269") == (
        1, "", "error: the tree vertex exceeds the 262144-bit value budget\n")
