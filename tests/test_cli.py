import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qschur import osp as osp_mod
from qschur.cli import main, parse_datum, UsageError

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_datum_literals():
    d = parse_datum(["gl", "2|1"])
    assert d.describe() == "gl 2|1 order=e1,e2,d1"
    d2 = parse_datum(["gl", "2|1", "order=e1,d1,e2"])
    assert d2.ordering == (("e", 1), ("d", 1), ("e", 2))
    d3 = parse_datum(["osp", "3|2", "order=d1,e1"])
    assert d3.m == 3 and d3.n == 1
    with pytest.raises(UsageError):
        parse_datum(["osp", "3|3"])  # odd part must be even
    with pytest.raises(UsageError):
        parse_datum(["gl"])
    with pytest.raises(UsageError):
        parse_datum(["su", "2|1"])
    with pytest.raises(UsageError, match="unexpected token"):
        parse_datum(["gl", "2|1", "order=e1,d1,e2", "order=e1,e2,d1"])


def test_rmatrix_command(capsys):
    code, out, _ = run(capsys, "rmatrix", "gl", "1|1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# rows=4 cols=4")
    assert "1 2 q - q^-1" in lines
    code, out, _ = run(capsys, "rmatrix", "gl", "1|1", "--json")
    data = json.loads(out)
    assert data["rows"] == 4
    assert ["1", "2", "q - q^-1"] in [[str(x) for x in e] for e in data["entries"]]


def test_rmatrix_braiding_flag(capsys):
    code, out, _ = run(capsys, "rmatrix", "gl", "1|1", "--braiding")
    assert code == 0
    # the braiding swaps the middle basis vectors: entry (2,1) is 1
    assert "2 1 1" in out.splitlines()


def test_rmatrix_rejects_bad_spec(capsys):
    code, _, err = run(capsys, "rmatrix", "gl", "0|0")
    assert code == 2
    code, _, err = run(capsys, "rmatrix", "osp", "3|2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["sdim", "--algebra", "gl 3|1"],
    ["sdim", "gl", "3|1", "--algebra", "gl 2|1"],
    ["sdim", "gl", "2|1", "--order", "e1,e2,d1"],
    ["sdim", "gl", "2|1", "order=e1,d1,e2", "--order", "e1,e2,d1", "--json"],
])
def test_algebra_and_order_flags_are_usage_errors(capsys, argv):
    # the positional "gl 2|1 [order=...]" form is the only way to name it
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""


def test_sdim_command(capsys):
    code, out, _ = run(capsys, "sdim", "gl", "3|1")
    assert code == 0 and out.strip() == "q + q^-1"
    code, out, _ = run(capsys, "sdim", "osp", "2|2")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "sdim", "gl", "2|1", "--all-orderings")
    assert code == 0 and "invariant across 3 orderings" in out


def test_invariant_command(capsys):
    code, out, _ = run(capsys, "invariant", "gl", "2|1", "--braid", "")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "invariant", "gl", "1|1", "--braid", "s1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "invariant", "gl", "2|1", "--braid", "s1 s1",
                       "--json")
    assert code == 0 and json.loads(out)["value"] == "q^2"


def test_invariant_ribbon_json(capsys):
    word = '{"mode": "directed", "layers": [["U+"], ["Om-"]]}'
    code, out, _ = run(capsys, "invariant", "gl", "2|1", "--ribbon-json", word)
    assert code == 0 and out.strip() == "1"  # the unknot loop
    open_word = '{"mode": "directed", "layers": [["I+"]]}'
    code, _, _ = run(capsys, "invariant", "gl", "2|1", "--ribbon-json", open_word)
    assert code == 2
    code, _, _ = run(capsys, "invariant", "gl", "2|1", "--braid", "s1",
                     "--ribbon-json", word)
    assert code == 2


def test_strand_count_with_a_ribbon_word_is_usage_error(capsys):
    word = '{"mode": "directed", "layers": [["U+"], ["Om-"]]}'
    code, out, err = run(capsys, "invariant", "gl", "2|1", "--ribbon-json",
                         word, "-r", "5")
    assert code == 2 and out == ""
    assert "-r applies to --braid" in err


def test_fft_command(capsys):
    code, out, _ = run(capsys, "fft", "gl", "1|1", "-r", "2", "--json")
    assert code == 0
    cell = json.loads(out)["cells"][0]
    assert cell["verdict"] == "equal"
    code, out, _ = run(capsys, "fft", "osp", "3|2", "-r", "1,2")
    assert code == 0
    assert out.count("verdict=equal") == 2
    code, out, _ = run(capsys, "fft", "osp", "2|2", "-r", "3")
    assert "outside" in out  # bound recorded


def test_fft_budget_exit_code(capsys):
    code, _, err = run(capsys, "fft", "gl", "1|1", "-r", "2", "--budget", "3")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["fft", "gl", "1|1", "-r", "20000"],
    ["fft", "gl", "1|1", "-r", "99999999999"],
    ["fft", "gl", "1|0", "-r", "99999999999"],  # r! images, dim V = 1
    ["fft", "gl", "1|0", "-r", "2", "-s", "3000"],  # (r+s)! walled images
    ["fft", "gl", "1|1", "-r", "3", "-s", "20000"],
    ["relations", "gl", "1|1", "--kind", "hecke", "-r", "20000"],
    ["invariant", "gl", "1|1", "-r", "1000", "--braid", "s1"],
    ["fft", "gl", "1|0", "-r", "8"],  # 8! Hecke images
    ["fft", "osp", "1|0", "-r", "7"],  # Brauer diagrams past r = 6
    ["fft", "osp", "1|0", "-r", "99999999999"],  # before any generator
    ["brauer", "-r", "7"],
    ["brauer", "-r", "7", "osp", "1|0"],
])
def test_oversized_powers_are_budget_errors(capsys, argv):
    # each size is decided without building the power or the factorial
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.startswith("budget exceeded:")


def test_failed_identity_check_is_a_verification_failure(capsys,
                                                         monkeypatch):
    # a Gram matrix 2J is not a signed permutation, which the osp duality
    # maps check before any cell work
    form = osp_mod.osp_form
    caches = (osp_mod.cupcap_maps, osp_mod.e_map, osp_mod.brauer_rep)
    monkeypatch.setattr(osp_mod, "osp_form", lambda m, n: form(m, n).scale(2))
    for cached in caches:
        cached.cache_clear()
    try:
        code, out, err = run(capsys, "fft", "osp", "3|2", "-r", "2")
    finally:
        for cached in caches:
            cached.cache_clear()
    assert code == 1 and out == ""
    assert err.startswith("verification failure:") and "signed" in err


def test_fft_json_deterministic(capsys):
    code, out1, _ = run(capsys, "fft", "gl", "1|1", "-r", "2", "--json")
    code, out2, _ = run(capsys, "fft", "gl", "1|1", "-r", "2", "--json")
    assert out1 == out2
    assert "wall_clock_ms" not in out1
    code, out3, _ = run(capsys, "fft", "gl", "1|1", "-r", "2", "--json",
                        "--timing")
    assert "wall_clock_ms" in out3


def test_relations_command(capsys):
    code, out, _ = run(capsys, "relations", "gl", "2|1", "--kind", "hecke",
                       "-r", "3")
    assert code == 0 and "all zero: True" in out
    code, out, _ = run(capsys, "relations", "gl", "2|1", "--kind", "hecke",
                       "-r", "2", "--json")
    assert code == 0 and len(json.loads(out)["items"]) == 1
    code, out, _ = run(capsys, "relations", "gl", "2|1", "--kind", "walledbmw")
    assert code == 0
    code, out, _ = run(capsys, "relations", "osp", "3|2", "--kind", "bmw",
                       "--json")
    assert code == 0 and json.loads(out)["all_zero"] is True
    # wrong z must fail verification with exit 1
    code, _, _ = run(capsys, "relations", "gl", "2|1", "--kind", "walledbmw",
                     "--z", "q")
    assert code == 1


def test_brauer_command(capsys):
    code, out, _ = run(capsys, "brauer", "-r", "3")
    assert code == 0 and "15 diagrams" in out
    code, out, _ = run(capsys, "brauer", "-r", "1")
    assert code == 0 and "1 diagrams on 1 strands" in out
    code, out, _ = run(capsys, "brauer", "-r", "2", "osp", "3|2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3 and data["all_zero"] is True


def test_usage_exit_codes(capsys):
    assert main([]) == 2
    assert main(["sdim"]) == 2
    assert main(["frobnicate", "gl", "1|1"]) == 2


def test_malformed_braid_word_is_usage_error(capsys):
    code, _, err = run(capsys, "invariant", "gl", "2|1", "--braid", "x1 y2")
    assert code == 2
    code, _, err = run(capsys, "invariant", "gl", "2|1", "--braid", "s1^3")
    assert code == 2


def test_invariant_budget_exit(capsys):
    code, _, err = run(capsys, "invariant", "gl", "2|1",
                       "--braid", "s1 s2 s1", "--budget", "100")
    assert code == 3
    assert "budget" in err


def test_invariant_budget_exit_before_a_wide_layer_is_built(capsys):
    # eight side-by-side cups: one layer of dimension 9^8, capped at once
    word = json.dumps({"mode": "directed",
                       "layers": [["U+"] * 8, ["Om-"] * 8]})
    t0 = time.monotonic()
    code, _, err = run(capsys, "invariant", "gl", "2|1", "--ribbon-json", word)
    assert code == 3 and "budget" in err
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("argv", [
    ["-r", "0"], ["-r", "-1"], ["-r", "1,0"], ["-r", "two"],
    ["-r", "1", "-s", "-1"],
    ["--points", "7/5,7/5"], ["--points", "1,7/5"], ["--points", "0"],
    ["--points=-1,13/9"], ["--points", "1/0"], ["--points", "7/5,x"],
])
def test_fft_rejects_degenerate_input(capsys, argv):
    code, out, err = run(capsys, "fft", "gl", "2|1", *argv)
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["sdim", "gl", "2|1", "order="],
    ["fft", "gl", "1|1", "order="],
    ["relations", "osp", "3|2", "--kind", "bmw", "--z", "q"],
    ["relations", "gl", "2|1", "--kind", "hecke", "--z", "q"],
    ["relations", "gl", "2|1", "--kind", "walledbmw", "--z="],
    ["fft", "gl", "1|1", "-r", "", "--json"],
    ["fft", "gl", "1|1", "--points", "", "--json"],
])
def test_input_that_would_be_ignored_is_a_usage_error(capsys, argv):
    # an empty ordering, a loop parameter that the family does not read,
    # and an empty -r or --points, which must not fall back to the defaults
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


def test_relations_bad_z_is_usage_error(capsys):
    code, _, err = run(capsys, "relations", "gl", "1|1", "--kind",
                       "walledbmw", "--z", "1/(q-q)")
    assert code == 2 and "division by zero" in err
    code, _, err = run(capsys, "relations", "gl", "1|1", "--kind",
                       "walledbmw", "--z", "q +")
    assert code == 2
    code, _, err = run(capsys, "relations", "gl", "1|1", "--kind",
                       "walledbmw", "--z", "(" * 5000 + "q" + ")" * 5000)
    assert code == 2 and err.startswith("error:") and "nests" in err
    assert len(err) < 200  # the input is not echoed back


@pytest.mark.parametrize("argv", [
    ["brauer", "-r", "-1"], ["brauer", "-r", "0"], ["brauer", "-r", "x"],
    ["relations", "gl", "2|1", "--kind", "hecke", "-r", "-1"],
    ["relations", "gl", "2|1", "--kind", "hecke", "-r", "0"],
    ["relations", "gl", "2|1", "--kind", "hecke", "-r", "1"],
    ["invariant", "gl", "1|1", "-r", "0"],
])
def test_strand_counts_below_minimum_are_usage_errors(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    ["fft", "gl", "1|1", "-r", "2", "--budget", "-5"],
    ["fft", "gl", "1|1", "-r", "2", "--budget", "0"],
    ["rmatrix", "gl", "1|1", "--budget", "-1"],
    ["sdim", "gl", "1|1", "--budget", "0"],
])
def test_non_positive_budget_is_usage_error(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize("command", [["rmatrix", "gl", "1|1"],
                                     ["sdim", "gl", "1|1"]])
def test_budget_is_not_an_option_where_nothing_is_bounded(capsys, command):
    code, out, err = run(capsys, *command, "--budget", "5")
    assert code == 2 and out == "" and "--budget" in err


@pytest.mark.parametrize("argv", [
    ["relations", "gl", "2|1", "--kind", "hecke", "-r", "3", "--budget", "26"],
    ["relations", "osp", "3|2", "--kind", "brauer", "-r", "3", "--budget",
     "124"],
    ["brauer", "-r", "3", "osp", "3|2", "--budget", "124"],
])
def test_relations_and_brauer_honour_the_budget(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.startswith("budget exceeded")
    assert run(capsys, *argv[:-1], "125")[0] == 0


@pytest.mark.parametrize("r", ["3", "5", "9"])
def test_bmw_takes_two_strands_only(capsys, r):
    code, out, err = run(capsys, "relations", "osp", "3|2", "--kind", "bmw",
                         "-r", r)
    assert code == 2 and out == "" and "spectral model" in err


def test_bmw_builds_no_tensor_power_and_ignores_the_budget(capsys):
    code, out, _ = run(capsys, "relations", "osp", "3|2", "--kind", "bmw",
                       "--budget", "1")
    assert code == 0 and "all zero: True" in out


@pytest.mark.parametrize("argv", [
    ["relations", "osp", "3|2", "--kind", "hecke"],
    ["relations", "osp", "3|2", "--kind", "walledbmw"],
    ["relations", "gl", "1|1", "--kind", "brauer"],
    ["relations", "gl", "2|1", "--kind", "bmw"],
    ["relations", "gl", "2|1", "order=e1,d1,e2", "--kind", "hecke"],
    ["relations", "osp", "3|2", "order=e1,d1", "--kind", "bmw"],
    ["brauer", "-r", "2", "gl", "2|1"],
    ["brauer", "-r", "2", "osp", "3|2", "order=e1,d1"],
    ["brauer", "-r", "1", "osp", "3|2"],
])
def test_relation_family_needs_its_algebra(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


def test_closed_stdout_is_not_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qschur", "fft", "gl", "1|1", "-r", "1,2",
             "--json"], stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=env, timeout=60)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and proc.stderr == ""
    assert proc.returncode == 0


@pytest.mark.parametrize("ribbon", [
    '[1]', '"s"', '{"mode": "directed"}', '{"mode": "directed", "layers": 5}',
    '{"mode": 1, "layers": []}', '{"mode": "directed", "layers": [[1]]}',
    '{"mode": "directed", "layers": ["U+"]}', 'not json',
    '{"mode": "nondirected", "layers": [["Z"]]}',
    '{"mode": "nondirected", "layers": [["U"], ["Om"]]}',
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000"),
])
def test_malformed_ribbon_json_is_usage_error(capsys, ribbon):
    code, out, err = run(capsys, "invariant", "gl", "1|1", "--ribbon-json",
                         ribbon)
    assert code == 2 and out == "" and err.startswith("error:")
