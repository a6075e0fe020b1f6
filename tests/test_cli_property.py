"""Property test of the command line over generated argv.

Every argv drawn from the subcommands, valid and malformed algebra tokens,
edge values of -r and --budget, --points tokens and --ribbon-json shapes
must end in an exit code, never in an escaped exception or a traceback.
The algebras and powers are small, so every drawn command runs in
milliseconds.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from qschur.cli import main

COMMANDS = ("rmatrix", "sdim", "invariant", "fft", "relations", "brauer")

ALGEBRAS = (
    ["gl", "1|1"], ["gl", "2|1"], ["gl", "0|1"], ["osp", "1|2"],
    ["osp", "2|2"], ["gl", "2|1", "order=e1,d1,e2"],
    ["osp", "1|2", "order=d1,e1"],
    # malformed
    [], ["gl"], ["gl", "2"], ["su", "2|1"], ["osp", "3|3"], ["gl", "x|1"],
    ["gl", "0|0"], ["gl", "-1|2"], ["gl", "2|1", "order=z9"],
    ["gl", "2|1", "junk"],
)
POWERS = ("-1", "0", "1", "2", "x", "1,0")
BUDGETS = ("-1", "0", "5", "64")
POINTS = ("7/5", "7/5,13/9", "3/2,-2", "1", "0", "-1", "1/0", "x", "7/5,7/5")
RIBBONS = (
    '{"mode": "directed", "layers": [["U+"], ["Om-"]]}',
    '{"mode": "directed", "layers": [["I+"]]}',
    '{"mode": "nondirected", "layers": [["U"], ["Om"]]}',
    '{"mode": "directed", "layers": [["Z"]]}',
    '{"mode": "directed", "layers": []}',
    '{"mode": "directed", "layers": 5}', '{"mode": "directed"}',
    '[1]', '"s"', "not json",
)
BRAIDS = ("", "s1", "s1 s1^-1", "s2", "s0", "s1^3", "x1")

# option -> the values it draws; an option a subcommand lacks is a usage
# error, which the property covers as well
OPTIONS = {
    "-r": st.sampled_from(POWERS),
    "--budget": st.sampled_from(BUDGETS),
    "--points": st.sampled_from(POINTS),
    "--ribbon-json": st.sampled_from(RIBBONS),
    "--braid": st.sampled_from(BRAIDS),
    "-s": st.sampled_from(("-1", "0", "1")),
    "--kind": st.sampled_from(("hecke", "walledbmw", "bmw", "brauer", "x")),
    "--json": st.none(),
    "--all-orderings": st.none(),
}


@st.composite
def argvs(draw):
    argv = [draw(st.sampled_from(COMMANDS))]
    argv += draw(st.sampled_from(ALGEBRAS))
    names = draw(st.lists(st.sampled_from(sorted(OPTIONS)), unique=True,
                          max_size=4))
    for name in names:
        argv.append(name)
        value = draw(OPTIONS[name])
        if value is not None:
            argv.append(value)
    return argv


def _non_positive(argv, option):
    return any(a == option and b in ("-1", "0")
               for a, b in zip(argv, argv[1:]))


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_cli_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if _non_positive(argv, "-r") or _non_positive(argv, "--budget"):
        assert code == 2
