import random

from conftest import dense_rank
from qschur import kernels


def _random_rows(rng, ncols, nrows):
    rows = []
    for _ in range(nrows):
        row = {c: rng.randint(-9, 9) for c in range(ncols) if rng.random() < 0.5}
        rows.append({c: v for c, v in row.items() if v})
    return rows


def test_pure_kernel_matches_dense_oracle():
    rng = random.Random(100)
    for _ in range(60):
        ncols = rng.randint(1, 10)
        rows = _random_rows(rng, ncols, rng.randint(0, 10))
        assert kernels.rank_of_int_rows(rows) == dense_rank(rows, ncols)


def test_kernel_handles_duplicate_and_zero_rows():
    rows = [{0: 2, 1: 4}, {0: 1, 1: 2}, {}, {0: -3, 1: -6}, {2: 7}]
    assert kernels.rank_of_int_rows(rows) == 2


def test_kernel_big_integers():
    # coefficient growth must stay exact: these rows are dependent only if
    # the huge cross terms cancel exactly
    rows = [{0: 10**30, 1: 1}, {0: 1, 1: 10**30}, {0: 1, 1: 1}]
    assert kernels.rank_of_int_rows(rows) == 2
    rows = [{0: 10**30, 1: 10**30 + 1}, {0: 2 * 10**30, 1: 2 * 10**30 + 2}]
    assert kernels.rank_of_int_rows(rows) == 1
