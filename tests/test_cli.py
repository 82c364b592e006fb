"""Command-line interface: exit codes, determinism, and output formats."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from treesym import cli
from treesym import trees_core as tc


def invoke(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_count(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--family", "M", "--n", "4",
                          "--count")
    assert code == 0 and out.strip() == "21"


def test_enumerate_listing_sorted_and_json(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--family", "Y", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5 and lines == sorted(lines)
    code, out, _ = invoke(capsys, "enumerate", "--family", "Y", "--n", "3",
                          "--json")
    assert code == 0 and json.loads(out) == lines


def test_enumerate_deterministic(capsys):
    first = invoke(capsys, "enumerate", "--family", "S", "--n", "4")
    second = invoke(capsys, "enumerate", "--family", "S", "--n", "4")
    assert first == second


# ---------------------------------------------------------------------------
# map and mobius


def test_map_tau_display(capsys):
    code, out, _ = invoke(capsys, "map", "tau", "3421")
    assert code == 0 and out.strip() == "((..)(.(..)))"


def test_map_round_trip_beta_iota(capsys):
    code, out, _ = invoke(capsys, "map", "beta", "3421")
    assert code == 0
    encoded = out.strip()
    code, out, _ = invoke(capsys, "map", "iota", encoded)
    assert code == 0 and out.strip() == "3421"


def test_map_rejects_malformed_element(capsys):
    code, _, err = invoke(capsys, "map", "tau", "3x1")
    assert code == 2


def test_map_rejects_bad_node_number(capsys):
    code, out, err = invoke(capsys, "map", "iota", "(..);{x}")
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("treesym: error: bad node number")


DEEP_TREE = "(" * 1200 + "." + ".)" * 1200


@pytest.mark.parametrize("name,text", [
    ("min", DEEP_TREE), ("phi", DEEP_TREE + ";{1}")])
def test_map_rejects_deep_tree_without_traceback(capsys, name, text):
    code, out, err = invoke(capsys, "map", name, text)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert [l for l in lines if "error" in l] == lines[-1:]
    assert lines[-1].startswith("treesym: error: size 1200 outside")


JUNK_TEXT = st.text(alphabet="().;{},1234x-", max_size=10)


def element_text(family):
    """Encodings of the elements of ``family`` up to degree 3, random text,
    and encodings with random text spliced in."""
    valid = st.sampled_from([tc.FAMILIES[family].format(x) for n in range(4)
                             for x in tc.enumerate_family(family, n)])
    return st.one_of(
        valid, JUNK_TEXT,
        st.builds(lambda text, junk, cut: text[:cut] + junk + text[cut:],
                  valid, JUNK_TEXT, st.integers(0, 20)))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_random_element_text_gives_a_result_or_a_usage_error(capsys, data):
    draw = data.draw
    command = draw(st.sampled_from(("map", "mobius", "op")))
    family = draw(st.sampled_from("SMY"))
    if command == "map":
        name = draw(st.sampled_from(sorted(cli.MAP_TABLE)))
        argv = ["map", name, draw(element_text(cli.MAP_TABLE[name][0]))]
    elif command == "mobius":
        argv = ["mobius", "--family", family,
                draw(element_text(family)), draw(element_text(family))]
    else:
        argv = ["op", draw(st.sampled_from(("mul", "comul", "rho"))),
                "--family", family, "--basis", draw(st.sampled_from("FM"))]
        argv += [draw(element_text(family))
                 for _ in range(draw(st.integers(1, 2)))]
    code, _, err = invoke(capsys, *argv)
    assert code in (0, 2), (argv, err)


def test_value_error_is_a_usage_error(capsys, monkeypatch):
    def fail(*args):
        raise ValueError("no such element")

    monkeypatch.setattr(cli.po, "mobius", fail)
    code, out, err = invoke(capsys, "mobius", "--family", "S", "12", "21")
    assert (code, out, err) == (2, "", "treesym: error: no such element\n")


def test_mobius_value(capsys):
    code, out, _ = invoke(capsys, "mobius", "--family", "S", "123", "213")
    assert code == 0 and out.strip() == "-1"
    code, out, _ = invoke(capsys, "mobius", "--family", "S", "132", "132")
    assert code == 0 and out.strip() == "1"
    code, out, _ = invoke(capsys, "mobius", "--family", "S", "321", "123")
    assert code == 0 and out.strip() == "0"


def test_mobius_mixed_degrees_rejected(capsys):
    code, _, _ = invoke(capsys, "mobius", "--family", "S", "12", "321")
    assert code == 2


# ---------------------------------------------------------------------------
# op


def test_op_mul_six_terms(capsys):
    code, out, _ = invoke(
        capsys, "op", "mul", "--family", "M",
        "(..);{1}", "(..);{1}", "--json")
    assert code == 0
    items = json.loads(out)
    assert sum(c for _k, c in items) == 2


def test_op_rho_display(capsys):
    code, out, _ = invoke(
        capsys, "op", "rho", "--family", "M", "--basis", "M",
        "((..)(.(..)));{1,2,3,4}")
    assert code == 0
    assert out.strip() == "M[M:((..)(.(..)));{1,2,3,4}] (x) 1"


def test_op_comul_rejects_bileveled(capsys):
    code, _, _ = invoke(capsys, "op", "comul", "--family", "M", "(..);{1}")
    assert code == 2


def test_op_mul_wrong_arity(capsys):
    code, _, _ = invoke(capsys, "op", "mul", "--family", "S", "12")
    assert code == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_suite_ok(capsys):
    code, out, err = invoke(
        capsys, "verify", "--suite", "interval-retract", "--n", "3")
    assert code == 0 and out.startswith("OK:")
    assert "interval-retract" in err  # progress goes to standard error


def test_verify_suite_json(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--suite", "kappa", "--n", "4", "--json")
    assert code == 0 and json.loads(out)["ok"] is True


def test_verify_all_suites_small(capsys):
    for suite in sorted(cli.SUITES):
        code, out, _ = invoke(capsys, "verify", "--suite", suite, "--n", "3")
        assert code == 0, (suite, out)


# ---------------------------------------------------------------------------
# series


def test_series_coefficients(capsys):
    code, out, _ = invoke(capsys, "series", "--which", "M", "--order", "6")
    assert code == 0 and out.strip() == "1 1 2 6 21 80 322"


def test_series_quotient_report(capsys):
    code, out, _ = invoke(capsys, "series", "--quotients", "--order", "12",
                          "--json")
    assert code == 0
    rows = {row["quotient"]: row for row in json.loads(out)}
    assert rows["S/M"]["nonnegative"] is True
    assert rows["S/Y"]["nonnegative"] is True
    assert rows["M/Y"]["nonnegative"] is True
    assert rows["M+/Y"]["nonnegative"] is True
    assert rows["Y/S"]["nonnegative"] is False
    assert rows["M/S"]["first_negative"] is not None
    assert rows["M+/M"]["trivial"] is True


def test_series_requires_which_or_quotients(capsys):
    code, _, _ = invoke(capsys, "series", "--order", "5")
    assert code == 2


# ---------------------------------------------------------------------------
# hasse


def test_hasse_dot_output(capsys):
    code, out, _ = invoke(capsys, "hasse", "--family", "Y", "--n", "3")
    assert code == 0
    assert out.startswith("digraph") and out.count("->") == 5


# ---------------------------------------------------------------------------
# size cap


def test_size_cap_enforced(capsys):
    code, _, _ = invoke(capsys, "enumerate", "--family", "S", "--n", "9",
                        "--count")
    assert code == 2


def test_size_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("TREESYM_MAX_N", "9")
    code, out, _ = invoke(capsys, "enumerate", "--family", "Y", "--n", "9",
                          "--count")
    assert code == 0 and out.strip() == "4862"


def test_size_cap_override_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("TREESYM_MAX_N", "abc")
    code, out, err = invoke(capsys, "enumerate", "--family", "Y", "--n", "3",
                            "--count")
    assert code == 2 and out == "" and "TREESYM_MAX_N" in err


def test_bad_subcommand(capsys):
    code, _, _ = invoke(capsys, "nope")
    assert code == 2
