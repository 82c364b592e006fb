"""Golden gate: the stdout and the exit code of a fixed list of CLI commands.

``cli_golden.json`` holds, for every command in :data:`COMMANDS`, the exit
code and the exact stdout of ``cli.run``.  Standard error (progress lines and
usage messages) is not compared.  To record the file again, run

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import pathlib

from treesym import cli

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

SUITES = ("mobius-fibers", "interval-retract", "hopf-module-plus",
          "hopf-module-bbslash", "coinvariants", "kappa")

COMMANDS = (
    [["enumerate", "--family", f, "--n", str(n)] + extra
     for f in "SYM" for n in range(5) for extra in ([], ["--json"])]
    + [["enumerate", "--family", "M", "--n", "5", "--count"],
       ["enumerate", "--family", "S", "--n", "4", "--count", "--json"]]
    + [["hasse", "--family", f, "--n", str(n)]
       for f, n in (("S", 3), ("Y", 3), ("M", 3), ("M", 4))]
    + [["map", "tau", "3421"], ["map", "tau", ""], ["map", "tau", "1"],
       ["map", "beta", "3421"], ["map", "beta", ""],
       ["map", "beta", "5,6,4,8,2,3,7,1"],
       ["map", "phi", "((..)(.(..)));{1,2}"], ["map", "phi", ".;{}"],
       ["map", "iota", "((..)(.(..)));{1,2}"], ["map", "iota", ".;{}"],
       ["map", "min", "((..)(.(..)))"], ["map", "min", "."],
       ["map", "max", "((..)(.(..)))"], ["map", "max", "."],
       ["map", "tau", "3421", "--json"]]
    + [["mobius", "--family", "S", "123", "213"],
       ["mobius", "--family", "S", "123", "321"],
       ["mobius", "--family", "S", "1234", "2143"],
       ["mobius", "--family", "S", "", ""],
       ["mobius", "--family", "Y", "((..).)", "(.(..))"],
       ["mobius", "--family", "Y", "(((..).).)", "(.(.(..)))"],
       ["mobius", "--family", "M", "(.(..));{1}", "(.(..));{1}"],
       ["mobius", "--family", "M", "((..).);{1,2}", "(.(..));{1}"],
       ["mobius", "--family", "M", "((..)(..));{1,2,3}", "(.(.(..)));{1}",
        "--json"]]
    + [["op", "mul", "--family", "S", "12", "21"],
       ["op", "mul", "--family", "S", "", "21"],
       ["op", "mul", "--family", "S", "21", ""],
       ["op", "mul", "--family", "S", "--basis", "M", "12", "1"],
       ["op", "mul", "--family", "Y", "(..)", "((..).)"],
       ["op", "mul", "--family", "Y", ".", "(..)"],
       ["op", "mul", "--family", "Y", "--basis", "M", "(..)", "(..)"],
       ["op", "mul", "--family", "M", "(..);{1}", "(..);{1}"],
       ["op", "mul", "--family", "M", "(..);{1}", "(..);{1}", "--json"],
       ["op", "mul", "--family", "M", ".;{}", "(..);{1}"],
       ["op", "mul", "--family", "M", "(..);{1}", ".;{}"],
       ["op", "mul", "--family", "M", "--basis", "M",
        "(..);{1}", "((..).);{1,2}"],
       ["op", "comul", "--family", "S", "3142"],
       ["op", "comul", "--family", "S", ""],
       ["op", "comul", "--family", "S", "--basis", "M", "3412"],
       ["op", "comul", "--family", "Y", "((..)(..))"],
       ["op", "comul", "--family", "Y", "--basis", "M", "((..)(..))"],
       ["op", "comul", "--family", "Y", "."],
       ["op", "rho", "--family", "M", "((..)(.(..)));{1,2}"],
       ["op", "rho", "--family", "M", ".;{}"],
       ["op", "rho", "--family", "M", "--basis", "M",
        "((..)(.(..)));{1,2,3,4}"],
       ["op", "rho", "--family", "M", "--basis", "M", "((..)(.(..)));{1,2}"],
       ["op", "rho", "--family", "M", "--basis", "M", ".;{}"],
       ["op", "rho", "--family", "M", "--basis", "M", "(..);{1}", "--json"]]
    + [["verify", "--suite", s, "--n", "4"] for s in SUITES]
    + [["verify", "--suite", s, "--n", "3", "--json"] for s in SUITES]
    + [["series", "--which", w, "--order", "10"] for w in ("S", "M", "M+", "Y")]
    + [["series", "--which", "M", "--order", "8", "--json"],
       ["series", "--quotients", "--order", "10"],
       ["series", "--quotients", "--order", "6", "--json"]]
    + [["map", "tau", "3x1"],                                 # bad permutation
       ["map", "tau", "1,2,2"],
       ["map", "iota", "(..);{x}"],                           # bad node number
       ["map", "iota", "(..);{2}"],
       ["map", "min", "(.."],
       ["mobius", "--family", "S", "12", "321"],              # mixed degrees
       ["op", "comul", "--family", "M", "(..);{1}"],          # comul on M
       ["op", "rho", "--family", "S", "12"],                  # rho on S
       ["enumerate", "--family", "S", "--n", "9", "--count"],  # above the cap
       ["verify", "--suite", "kappa", "--n", "9"],
       ["map", "tau", "1234567891"],
       ["series", "--which", "S", "--order", "-1"],          # negative order
       ["series", "--order", "5"],
       ["op", "mul", "--family", "S", "12"],                  # one element
       ["op", "comul", "--family", "S", "12", "21"],
       ["nope"]]
    # coproducts and coactions on every family in both bases, and products
    # in the second basis, with the usage errors of each rule
    + [["op", op, "--family", f, "--basis", basis, x]
       for op in ("comul", "rho") for basis in "FM"
       for f, x in (("S", "2413"), ("S", "3412"), ("S", ""),
                    ("Y", "((..)(..))"), ("Y", "(.(..))"), ("Y", "."),
                    ("M", "((..)(.(..)));{1,2}"), ("M", "((..).);{1,2}"),
                    ("M", "(.(..));{1}"), ("M", ".;{}"))]
    + [["op", op, "--family", f, "--basis", basis] + xs
       for op in ("comul", "rho") for basis in "FM"
       for f, xs in (("S", ["12", "21"]), ("Y", ["(..)", "(..)"]),
                     ("M", ["(..);{1}", "(..);{1}"]))]
    + [["op", "mul", "--family", f, "--basis", "M", x, y]
       for f, x, y in (("Y", "(..)", "((..).)"), ("Y", "((..).)", "(..)"),
                       ("Y", "(.(..))", "(..)"), ("Y", "(.(..))", "."),
                       ("Y", "((..)(..))", "((..).)"),
                       ("M", "(..);{1}", "(.(..));{1}"),
                       ("M", "((..).);{1,2}", "(..);{1}"),
                       ("M", "((..)(..));{1,2}", "(..);{1}"),
                       ("M", "(.(.(..)));{1}", ".;{}"),
                       ("M", "(.(..));{1}", "((..).);{1,2}"))]
    + [["series", "--which", w, "--order", "40"] for w in ("S", "M", "M+", "Y")]
    + [["series", "--quotients", "--order", "60", "--json"],
       ["series", "--quotients", "--order", "60"]]
    # a second-basis product whose degree-8 order the closed form avoids
    + [["op", "mul", "--family", "S", "--basis", "M", "1234", "4321"] + extra
       for extra in ([], ["--json"])]
    # the bi-leveled order beyond degree 4, and the section on a degree-7
    # fiber, with the inadmissible mark sets that parsing refuses
    + [["hasse", "--family", "M", "--n", "5"],
       ["enumerate", "--family", "M", "--n", "6", "--count"],
       ["mobius", "--family", "M", "(((((..).).).).);{1,2,3,4,5}",
        "(((.(..))(..)).);{1,3,4,5}"],
       ["mobius", "--family", "M", "(((((..).).).).);{1,2,3,4,5}",
        "(((.(..))(..)).);{1,3,5}"],
       ["map", "iota", "(((..).)(((..)(..)).));{1,2,3,5,7}"]]
    + [["map", "iota", x] for x in ("((..).);{1}", "((..)(..));{1,3}",
                                     "(.(..));{1,2}", "(..);{}")]
)


def run_command(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue()}


def test_cli_output_matches_golden_file(monkeypatch):
    monkeypatch.delenv("TREESYM_MAX_N", raising=False)
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == [list(c) for c in COMMANDS]
    for entry in golden:
        assert run_command(entry["argv"]) == entry, entry["argv"]


if __name__ == "__main__":
    os.environ.pop("TREESYM_MAX_N", None)
    records = [run_command(argv) for argv in COMMANDS]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print("recorded %d commands in %s" % (len(records), GOLDEN))
