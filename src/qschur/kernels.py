"""Sparse integer elimination kernel.

Computes the rank over Q of a sparse system given as integer rows
(dicts column -> nonzero int).  Rows may be scaled freely, so callers
clear rational denominators first; arbitrary-precision ints keep the
elimination exact.
"""

from math import gcd

BACKEND = "python"


def _reduce_content(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


def rank_of_int_rows(rows):
    """Rank over Q of the span of integer rows (iterable of col->int dicts).

    Through `superspace.int_rank` it ranks the osp span and serves the exact
    fallbacks; the certified paths eliminate mod p in `superspace.Echelon`.
    """
    pivots = {}
    rank = 0
    for row in sorted(rows, key=len):
        row = dict(row)
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                row = _reduce_content(row)
                if row[c] < 0:
                    row = {k: -v for k, v in row.items()}
                pivots[c] = row
                rank += 1
                break
            a = piv[c]
            b = row.pop(c)
            # row := a*row - b*piv clears column c without fractions
            new = {k: v * a for k, v in row.items()}
            for k, v in piv.items():
                if k == c:
                    continue
                w = new.get(k, 0) - b * v
                if w:
                    new[k] = w
                else:
                    new.pop(k, None)
            row = _reduce_content(new)
    return rank
