"""Command-line interface: the grammar table's parse against argparse,
usage errors and their messages, the size cap and its environment
variable, random argument text, progress on standard error, the ways a
process ends, and relations between commands (sorted listings, round
trips, every suite).  The stdout and exit code of a fixed list of commands
are pinned by ``test_cli_golden``."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import test_cli_golden
from treesym import cli
from treesym import series as se
from treesym import trees_core as tc


def invoke(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# the grammar table and argparse


def argparse_values(argv):
    """The attributes argparse sets for ``argv``, or ``None`` where it
    rejects ``argv`` or prints help."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        return None


def assert_table_parse_agrees(argv):
    """The table's parse of ``argv`` is declined or is argparse's, and it
    is declined wherever argparse rejects ``argv``."""
    fast = cli._parse_args(argv)
    if fast is not None:
        assert vars(fast) == argparse_values(argv), argv
    return fast


IRREGULAR = [
    [], ["nope"], ["-h"], ["verify", "-h"], ["enumerate"],
    ["enumerate", "--n=3", "--family", "S"],
    ["enumerate", "--fam", "S", "--n", "3"],
    ["enumerate", "--family", "S", "--n", "3", "--n", "4"],
    ["enumerate", "--family", "S", "--count", "--n", "3", "--count"],
    ["enumerate", "--family", "S", "--n", "-0"],
    ["enumerate", "--family", "S", "--n", ""],
    ["enumerate", "--family", "", "--n", "3"],
    ["enumerate", "--family", "X", "--n", "3"],
    ["enumerate", "--family", "S", "--n", "3.0"],
    ["enumerate", "--family", "S", "--n", "+3"],
    ["enumerate", "--family", "S", "--n", " 3"],
    ["enumerate", "--family", "S"],
    ["enumerate", "--family", "S", "--n"],
    ["enumerate", "--family", "--n", "3"],
    ["enumerate", "--family", "S", "--n", "3", "extra"],
    ["map", "tau", "--", "1"], ["map", "--", "tau", "-1"],
    ["map", "tau", "-1"], ["map", "tau"], ["map", "zz", "1"],
    ["map", "tau", "1", "--family", "S"],
    ["map", "tau", "--json", "3421"], ["map", "--json", "tau", "3421"],
    ["mobius", "12", "--family", "S", "21"],
    ["mobius", "--json", "12", "--family", "S", "21", "--json"],
    ["mobius", "--family", "S", "12", "21", "12"],
    ["op", "mul", "1", "--family", "S", "1"],
    ["op", "mul", "--family", "S", "1", "--json", "2"],
    ["op", "mul", "--family", "S", "1", "2", "3"],
    ["op", "--family", "S", "mul", "1", "2"],
    ["op", "div", "--family", "S", "1"],
    ["op", "mul", "--family", "S", "--basis", "X", "1"],
    ["verify", "--suite", "nope", "--n", "3"],
    ["verify", "--suite", "kappa", "--max-degree", "2"],
    ["series", "--which", "S"],
    ["series", "--which", "M", "--quotients", "--order", "5"],
    ["hasse", "--family", "S", "--n", "3", "--json"],
]


def test_table_parse_agrees_with_argparse():
    """On the irregular forms and on every golden command; the table
    parses every golden command but those that argparse rejects and the
    one with a negative number, which it leaves to argparse."""
    for argv in IRREGULAR:
        assert_table_parse_agrees(argv)
    declined = [argv for argv in map(list, test_cli_golden.COMMANDS)
                if assert_table_parse_agrees(argv) is None]
    assert declined == [["series", "--which", "S", "--order", "-1"],
                        ["nope"]]


def table_vocabulary():
    """Every command name, flag and choice of the grammar table, with
    integers and junk."""
    words = {"", "x", "0", "3", "12", "-1", "-0", "-", "--", "-h",
             "--help", "--n=3", "--fam"}
    for name, (_, _, arguments) in cli.GRAMMAR.items():
        words.add(name)
        for argument in arguments:
            if argument[0].startswith("-"):
                words.add(argument[0])
                choices = argument[2]
            else:
                choices = argument[1]
            if isinstance(choices, tuple):
                words.update(choices)
    return sorted(words)


VOCABULARY = table_vocabulary()


@st.composite
def near_commands(draw):
    """A command of the table with now and then an argument left out, a
    value drawn from the vocabulary instead of its choices, the arguments
    in any order, and vocabulary words put in."""
    name = draw(st.sampled_from(sorted(cli.GRAMMAR)))

    def pick(values):
        if not draw(st.integers(0, 5)):
            values = VOCABULARY
        return draw(st.sampled_from(values))

    chunks = []
    for argument in cli.GRAMMAR[name][2]:
        if not draw(st.integers(0, 5)):
            continue
        if argument[0].startswith("-"):
            flag, _, kind, _, _ = argument
            if kind is bool:
                chunks.append([flag])
            else:
                chunks.append([flag, pick(
                    ("-1", "0", "2", "3") if kind is int else kind)])
        else:
            _, choices, nargs = argument
            count = 1 if nargs == 1 else draw(st.integers(1, 3))
            chunks.append([pick(choices or ("12", "(..)"))
                           for _ in range(count)])
    argv = [name] + sum(draw(st.permutations(chunks)), [])
    for _ in range(max(0, draw(st.integers(-3, 2)))):
        argv.insert(draw(st.integers(0, len(argv))), pick(VOCABULARY))
    return argv


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.one_of(near_commands(), st.lists(
    st.sampled_from(VOCABULARY), max_size=8)))
def test_table_parse_agrees_with_argparse_on_drawn_tokens(argv):
    assert_table_parse_agrees(argv)


# ---------------------------------------------------------------------------
# enumerate


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


def test_map_round_trip_beta_iota(capsys):
    code, out, _ = invoke(capsys, "map", "beta", "3421")
    assert code == 0
    encoded = out.strip()
    code, out, _ = invoke(capsys, "map", "iota", encoded)
    assert code == 0 and out.strip() == "3421"


def test_map_rejects_malformed_element(capsys):
    code, _, err = invoke(capsys, "map", "tau", "3x1")
    assert code == 2


def test_mobius_mixed_degrees_rejected(capsys):
    code, _, _ = invoke(capsys, "mobius", "--family", "S", "12", "321")
    assert code == 2


def test_map_rejects_bad_node_number(capsys):
    code, out, err = invoke(capsys, "map", "iota", "(..);{x}")
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("treesym: error: bad node number")


# each text, and the byte offset of its node set
MARKS_OFF_THE_TREE = {
    "(.(..));{0,1}": 8, "(.(..));{-1,1}": 8, "(.(..));{1,4}": 8, ".;{1}": 2}


@pytest.mark.parametrize("text", MARKS_OFF_THE_TREE)
def test_map_rejects_marks_off_the_tree(capsys, text):
    code, out, err = invoke(capsys, "map", "phi", text)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert lines[0].startswith("usage: treesym")
    assert lines[-1] == "treesym: error: inadmissible node set in %r " \
        "(at byte %d)" % (text, MARKS_OFF_THE_TREE[text])
    assert "Traceback" not in err


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


def corrupted(text):
    """``text`` itself, random text, or ``text`` with random text spliced
    in."""
    return st.one_of(
        st.just(text), JUNK_TEXT,
        st.builds(lambda junk, cut: text[:cut] + junk + text[cut:],
                  JUNK_TEXT, st.integers(0, len(text))))


def flags(*names):
    """Some of the flags ``names``, each at most once."""
    if not names:
        return st.just([])
    return st.lists(st.sampled_from(names), unique=True)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_random_element_text_gives_a_result_or_a_usage_error(
        capsys, monkeypatch, data):
    """Random argument texts for every command exit 0 or 2; the degree cap
    of 4 keeps every accepted command small."""
    monkeypatch.setenv("TREESYM_MAX_N", "4")
    draw = data.draw
    command = draw(st.sampled_from(
        ("map", "mobius", "op", "enumerate", "hasse", "series", "verify")))
    family = draw(st.sampled_from("SMY"))
    if command == "map":
        name = draw(st.sampled_from(sorted(cli.MAP_TABLE)))
        argv = ["map", name, draw(element_text(cli.MAP_TABLE[name][0]))]
    elif command == "mobius":
        argv = ["mobius", "--family", family,
                draw(element_text(family)), draw(element_text(family))]
    elif command == "op":
        argv = ["op", draw(st.sampled_from(("mul", "comul", "rho"))),
                "--family", family, "--basis", draw(st.sampled_from("FM"))]
        argv += [draw(element_text(family))
                 for _ in range(draw(st.integers(1, 2)))]
    else:
        degree = str(draw(st.integers(-1, 5)))
        if command in ("enumerate", "hasse"):
            argv = [command, "--family", family, "--n", degree]
        elif command == "series":
            argv = ["series", "--order", str(draw(st.integers(-1, 40)))]
            if draw(st.booleans()):
                argv += ["--which", draw(st.sampled_from(se.SERIES_NAMES))]
        else:
            argv = ["verify", "--suite", draw(st.sampled_from(sorted(
                cli.SUITES))), "--n", degree]
        argv += draw(flags(*{"enumerate": ("--count", "--json"),
                             "hasse": (),
                             "series": ("--quotients", "--json"),
                             "verify": ("--json",)}[command]))
        # corrupt the text of at most one argument
        if draw(st.booleans()):
            i = draw(st.integers(1, len(argv) - 1))
            argv[i] = draw(corrupted(argv[i]))
    code, _, err = invoke(capsys, *argv)
    assert code in (0, 2), (argv, err)


def test_value_error_is_a_usage_error(capsys, monkeypatch):
    def fail(*args):
        raise ValueError("no such element")

    monkeypatch.setattr(cli.po, "mobius", fail)
    code, out, err = invoke(capsys, "mobius", "--family", "S", "12", "21")
    assert (code, out, err) == (2, "", "treesym: error: no such element\n")


# ---------------------------------------------------------------------------
# op


def test_op_comul_rejects_bileveled(capsys):
    code, _, _ = invoke(capsys, "op", "comul", "--family", "M", "(..);{1}")
    assert code == 2


def test_op_mul_wrong_arity(capsys):
    code, _, _ = invoke(capsys, "op", "mul", "--family", "S", "12")
    assert code == 2


def test_op_mul_product_degree_is_capped(capsys, monkeypatch):
    monkeypatch.setenv("TREESYM_MAX_N", "3")
    code, out, err = invoke(
        capsys, "op", "mul", "--family", "S", "--basis", "M", "123", "123")
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("treesym: error: size 6 outside")
    code, out, _ = invoke(
        capsys, "op", "mul", "--family", "S", "--basis", "M", "12", "1")
    assert code == 0 and out


# ---------------------------------------------------------------------------
# verify


def test_verify_suite_ok(capsys):
    _, _, err = invoke(
        capsys, "verify", "--suite", "interval-retract", "--n", "3")
    assert "interval-retract" in err  # progress goes to standard error


def test_verify_all_suites_small(capsys):
    for suite in sorted(cli.SUITES):
        code, out, _ = invoke(capsys, "verify", "--suite", suite, "--n", "3")
        assert code == 0, (suite, out)


# ---------------------------------------------------------------------------
# series


def test_series_order_is_capped(capsys):
    code, out, _ = invoke(capsys, "series", "--which", "M", "--order",
                          str(cli.MAX_ORDER))
    assert code == 0 and len(out.split()) == cli.MAX_ORDER + 1
    code, out, err = invoke(capsys, "series", "--quotients", "--order",
                            str(cli.MAX_ORDER + 1))
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("treesym: error: order 501 outside")


def test_series_requires_which_or_quotients(capsys):
    for argv in (("series", "--order", "5"),
                 ("series", "--which", "M", "--quotients", "--order", "5")):
        code, out, _ = invoke(capsys, *argv)
        assert code == 2 and out == "", argv


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
    for raw in ("abc", "-1", "1_0", "\uff19", "+9"):
        monkeypatch.setenv("TREESYM_MAX_N", raw)
        code, out, err = invoke(capsys, "enumerate", "--family", "Y", "--n",
                                "3", "--count")
        assert code == 2 and out == "", raw
        assert "treesym: error: TREESYM_MAX_N must be" in err, raw


NUMBER_OPTIONS = [("enumerate", "--family", "S", "--count", "--n"),
                  ("series", "--which", "Y", "--order")]


@pytest.mark.parametrize("text", ["1_0", "\uff13", "+3"])
@pytest.mark.parametrize("command", NUMBER_OPTIONS)
def test_number_options_are_read_as_element_text_is(capsys, command, text):
    """ASCII digits, perhaps after a minus sign: ``int`` alone would also
    read underscores, other digits and a plus sign."""
    code, out, _ = invoke(capsys, *command, text)
    assert code == 2 and out == ""


@pytest.mark.parametrize("command", NUMBER_OPTIONS)
def test_number_options_allow_spaces_around(capsys, command):
    assert invoke(capsys, *command, " 3 ")[0] == 0


# commands that recurse over their tree once per level or more: the fiber
# extremes, the section, and the cut tables.  Each with whether it reads a
# bi-leveled tree (a comb with its leftmost branch marked), and the text
# that separates the pieces of its output: the letters of a permutation
# of 1..n, or the n + 1 terms of a cut at each leaf
CEILING_COMMANDS = {
    "min": (("map", "min"), False, ","),
    "max": (("map", "max"), False, ","),
    "iota": (("map", "iota"), True, ","),
    "comul": (("op", "comul", "--family", "Y"), False, " + "),
    "rho": (("op", "rho", "--family", "M"), True, " + "),
}


@pytest.mark.parametrize("name", list(CEILING_COMMANDS))
def test_size_cap_override_has_a_ceiling(capsys, monkeypatch, name):
    command, marked, sep = CEILING_COMMANDS[name]
    ceiling = cli.MAX_N_CEILING
    monkeypatch.setenv("TREESYM_MAX_N", str(ceiling))
    left_comb = "(" * ceiling + "." + ".)" * ceiling
    right_comb = "(." * ceiling + "." + ")" * ceiling
    pieces = ceiling + (sep == " + ")
    for comb, branch in ((left_comb, range(1, ceiling + 1)),
                         (right_comb, [1])):
        text = comb + ";{%s}" % ",".join(map(str, branch)) if marked else comb
        code, out, err = invoke(capsys, *command, text)
        assert code == 0 and "Traceback" not in err, (name, comb[:2], err)
        assert len(out.split(sep)) == pieces, (name, comb[:2])
    for raw in (str(ceiling + 1), "2000"):
        monkeypatch.setenv("TREESYM_MAX_N", raw)
        code, out, err = invoke(capsys, *command, DEEP_TREE)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == (
            "treesym: error: TREESYM_MAX_N must be at most %d, not %s"
            % (ceiling, raw))


def test_bad_subcommand(capsys):
    code, _, _ = invoke(capsys, "nope")
    assert code == 2


def test_parser_is_built_once(capsys, monkeypatch):
    invoke(capsys, "enumerate", "--family", "Y", "--n", "2", "--count")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert invoke(capsys, "enumerate", "--family", "Y", "--n", "3",
                  "--count") == (0, "5\n", "")
    assert built == []


def test_verify_has_no_max_degree_alias(capsys):
    code, _, _ = invoke(capsys, "verify", "--suite", "kappa", "--max-degree", "2")
    assert code == 2


def test_closed_pipe_ends_quietly():
    """A reader that stops after one line (``treesym ... | head -1``) gets
    no traceback, and the exit status is neither success nor a
    counterexample."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("TREESYM_MAX_N", None)
    # 40,320 lines, more than a pipe buffer holds, so the writer blocks
    # until the pipe is closed
    proc = subprocess.Popen(
        [sys.executable, "-c", "from treesym.cli import main; main()",
         "enumerate", "--family", "S", "--n", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"12345678\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


CLI_MAIN = "from treesym.cli import main; main()"


def spawn_main(*argv, script=CLI_MAIN, redirect=""):
    """Run ``script``, by default :func:`cli.main`, with ``argv`` in a fresh
    process, through ``sh`` with the shell redirection ``redirect`` when it
    is given; its :class:`subprocess.CompletedProcess`, output as bytes."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    # standard output stays buffered, as in a console, so that the flush
    # before the exit is what sends its last block
    for name in ("TREESYM_MAX_N", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    command = [sys.executable, "-c", script, *argv]
    if redirect:
        command = ["sh", "-c", 'exec "$@" ' + redirect, "sh", *command]
    return subprocess.run(command, capture_output=True, timeout=60, env=env)


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_main_writes_all_output_before_it_exits(capsys, flags):
    """``main`` ends the process by ``os._exit``; what it printed reaches
    a pipe in full first."""
    argv = ("enumerate", "--family", "S", "--n", "7") + flags
    code, out, _ = invoke(capsys, *argv)
    done = spawn_main(*argv)
    assert (done.returncode, done.stderr) == (code, b"") == (0, b"")
    assert done.stdout.decode() == out and len(out) > 1 << 15


def test_main_exits_2_on_a_usage_error():
    done = spawn_main("enumerate", "--family", "X", "--n", "2")
    assert done.returncode == 2 and done.stdout == b""
    lines = done.stderr.decode().splitlines()
    assert lines[0].startswith("usage: treesym enumerate")
    assert lines[-1].startswith("treesym enumerate: error: argument --family")


def test_argparse_only_for_help_and_usage_errors():
    """A well-formed command is parsed by the grammar table, with no
    argparse parser made; ``-h`` goes to argparse, which prints the
    command's help and exits 0."""
    script = ("import sys; from treesym.cli import run; code = run(); "
              "print(code, 'argparse' in sys.modules)")
    done = spawn_main("enumerate", "--family", "Y", "--n", "3", "--count",
                      script=script)
    assert (done.returncode, done.stdout) == (0, b"5\n0 False\n")
    done = spawn_main("verify", "-h")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.startswith(b"usage: treesym verify")


def test_main_exits_1_on_a_counterexample():
    script = ("from treesym import cli, hopf_modules as hm; "
              "hm.kappa_verify = lambda n: {'n': n, 'ok': n < 2, "
              "'violations': [('patched', n)]}; cli.main()")
    done = spawn_main("verify", "--suite", "kappa", "--n", "3",
                      script=script)
    assert done.returncode == 1
    assert done.stdout == b"FAIL: ('patched', 2)\n"


def test_out_of_memory_is_one_error_line():
    """A raised cap lets ``mobius`` on Y build the closure of a whole
    degree; where that needs more memory than the process may hold, the
    command ends with one error line and exit 2, with no traceback.  The
    child alone gets a 200 MB address-space limit, which the degree-11
    left comb exceeds in about half a second."""
    comb = "."
    for _ in range(11):
        comb = "(%s.)" % comb
    script = ("import os, resource; os.environ['TREESYM_MAX_N'] = '11'; "
              "resource.setrlimit(resource.RLIMIT_AS, (200 << 20,) * 2); "
              + CLI_MAIN)
    done = spawn_main("mobius", "--family", "Y", comb, comb, script=script)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"treesym: error: out of memory\n"


@pytest.mark.parametrize("family,n,count", [
    ("S", 11, 39916800), ("M", 13, 11485068), ("Y", 16, 35357670)])
def test_count_builds_no_element(family, n, count):
    """``enumerate --count`` prints the closed form of the count, n!,
    ``a_number`` or ``catalan``, and builds no element: with the cap
    raised and the child held to 200 MB of address space, as in
    :func:`test_out_of_memory_is_one_error_line`, a piece too large to
    build is counted in well under a second."""
    script = ("import os, resource; os.environ['TREESYM_MAX_N'] = '400'; "
              "resource.setrlimit(resource.RLIMIT_AS, (200 << 20,) * 2); "
              + CLI_MAIN)
    start = time.monotonic()
    done = spawn_main("enumerate", "--family", family, "--n", str(n),
                      "--count", script=script)
    assert time.monotonic() - start < 1
    assert (done.returncode, done.stdout, done.stderr) == (
        0, b"%d\n" % count, b"")


@pytest.mark.parametrize("redirect,script", [
    ("2>&-", CLI_MAIN), ("", "import os; os.close(2); " + CLI_MAIN)])
def test_closed_stderr_keeps_the_verdict(redirect, script):
    """Progress goes to standard error, which carries diagnostics only: with
    it closed, before Python starts (no ``sys.stderr``) or after (its
    writes fail), the verdict and exit code are those of a run with it
    open, and standard output holds the verdict alone."""
    done = spawn_main("verify", "--suite", "kappa", "--n", "3",
                      script=script, redirect=redirect)
    assert done.returncode == 0 and done.stderr == b""
    assert done.stdout == b"OK: bijection verified through degree 3\n"


DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                              reason="needs the /dev/full device")


@pytest.mark.parametrize("family,n,redirect,error", [
    ("Y", 2, ">&-", b"Bad file descriptor"),
    pytest.param("S", 7, ">/dev/full", b"No space left on device",
                 marks=DEV_FULL),
    pytest.param("Y", 2, ">/dev/full", b"No space left on device",
                 marks=DEV_FULL)])
def test_failed_write_to_stdout_is_one_error_line(family, n, redirect, error):
    """A write to standard output that fails other than by a closed pipe
    ends with one error line and :data:`cli.EXIT_IO_ERROR`: standard output
    closed before Python starts; a full device, where the 5,040 lines of
    S_7 overflow the buffer, so ``print`` fails, and the two of Y_2 stay in
    it until the flush before the exit."""
    done = spawn_main("enumerate", "--family", family, "--n", str(n),
                      redirect=redirect)
    assert done.returncode == cli.EXIT_IO_ERROR == 74
    assert done.stderr == (b"treesym: error: cannot write standard output: "
                           + error + b"\n")


def test_import_loads_no_json_or_fractions():
    """Importing the CLI loads neither ``json``, which only ``--json``
    output needs, nor ``fractions`` with ``decimal`` and ``numbers``,
    which only an inexact series division needs."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    script = ("import sys; before = set(sys.modules); import treesym.cli; "
              "print(sorted({'json', 'fractions', 'decimal', 'numbers'} "
              "& (set(sys.modules) - before)))")
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_import_loads_no_introspection_modules():
    """Importing the CLI pulls in neither ``dataclasses`` nor ``inspect``
    (with ``ast``, ``dis`` and ``tokenize``), nor ``argparse`` with
    ``gettext``, which would add several milliseconds to every command's
    start."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    script = ("import sys, treesym.cli; "
              "print(sorted({'dataclasses', 'inspect', 'argparse', "
              "'gettext'} & set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
