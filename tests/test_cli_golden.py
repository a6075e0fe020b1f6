"""Exact stdout of a few commands, byte for byte.

Each case runs in milliseconds.  Together they cover every subcommand, the
JSON and text formats, and the space description in the `rmatrix` dump
header, so a refactor that changes any output byte fails here.  A change
to one of these outputs must be deliberate and re-recorded.
"""

import pytest

from qschur.cli import main

GOLDEN = [
    (["fft", "gl", "1|1", "-r", "2", "--json"],
     '{"cells": [{"agreement": true, "commutant_dim": 2, "flavor": "gl", '
     '"m": 1, "n": 1, "points": ["7/5", "13/9", "23/17"], "r": 2, "s": 0, '
     '"span_rank": 2, "verdict": "equal"}], "command": "fft"}\n'),
    (["fft", "osp", "3|2", "-r", "1,2", "--json"],
     '{"cells": [{"agreement": true, "commutant_dim": 1, "flavor": "osp", '
     '"m": 3, "n": 1, "points": ["7/5", "13/9", "23/17"], "r": 1, "s": 0, '
     '"span_rank": 1, "verdict": "equal"}, {"agreement": true, '
     '"commutant_dim": 3, "flavor": "osp", "m": 3, "n": 1, '
     '"points": ["7/5", "13/9", "23/17"], "r": 2, "s": 0, "span_rank": 3, '
     '"verdict": "equal"}], "command": "fft"}\n'),
    (["fft", "gl", "2|1", "-r", "1", "-s", "1", "--json"],
     '{"cells": [{"agreement": true, "commutant_dim": 2, "flavor": "gl", '
     '"m": 2, "n": 1, "points": ["7/5", "13/9", "23/17"], "r": 1, "s": 1, '
     '"span_rank": 2, "verdict": "equal"}], "command": "fft"}\n'),
    (["rmatrix", "gl", "1|1"],
     '# rows=4 cols=4 dst=dim 4 (parities 0110) src=dim 4 (parities 0110)\n'
     '0 0 q\n'
     '1 1 1\n'
     '1 2 q - q^-1\n'
     '2 2 1\n'
     '3 3 q^-1\n'),
    (["relations", "gl", "2|1", "--kind", "walledbmw", "-r", "3", "--json"],
     '{"all_zero": true, "command": "relations", '
     '"datum": "gl 2|1 order=e1,e2,d1", '
     '"items": [{"name": "X+ - X- - (q - q^-1) I at position 1", '
     '"residual": "nnz=0", "zero": true}, '
     '{"name": "X+ - X- - (q - q^-1) I at position 2", '
     '"residual": "nnz=0", "zero": true}, {"name": "Om- U+ - z", '
     '"residual": "0", "zero": true}, {"name": "Om+ U- - z", '
     '"residual": "0", "zero": true}], "kind": "walledbmw"}\n'),
    (["brauer", "-r", "2", "osp", "3|2", "--json"],
     '{"all_zero": true, "command": "brauer", "count": 3, '
     '"diagrams": [[1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], '
     '"items": [{"name": "s1^2 = 1", "residual": "", "zero": true}, '
     '{"name": "e1^2 = delta e1", "residual": "", "zero": true}, '
     '{"name": "e1 s1 = e1", "residual": "", "zero": true}, '
     '{"name": "s1 e1 = e1", "residual": "", "zero": true}], '
     '"kind": "brauer", "r": 2}\n'),
    (["invariant", "gl", "2|1", "--braid", "s1 s1", "--json"],
     '{"braid": "s1 s1", "command": "invariant", '
     '"datum": "gl 2|1 order=e1,e2,d1", "strands": 2, "value": "q^2"}\n'),
    (["sdim", "gl", "3|1", "--json"],
     '{"command": "sdim", "datum": "gl 3|1 order=e1,e2,e3,d1", '
     '"sdim": "q + q^-1"}\n'),
]


@pytest.mark.parametrize("argv, expected", GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_stdout_bytes(capsys, argv, expected):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == expected
