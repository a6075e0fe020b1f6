"""Shared test helpers: independent dense oracles and random generators.

The dense rank/nullity oracle here is deliberately separate from the
package's sparse elimination kernel, so the two sides of every rank
comparison are computed by different code paths.
"""

from __future__ import annotations

import random
from fractions import Fraction

from qschur.centralizer import PrimitiveCertificate, SpinCertificate
from qschur.scalar import RatFunc
from qschur.superspace import SparseMat, SuperSpace


def dense_rank(rows, ncols: int) -> int:
    """Plain Gaussian elimination over Fraction, dense, no pivot tricks."""
    mat = []
    for row in rows:
        dense = [Fraction(0)] * ncols
        for c, v in row.items():
            dense[c] = Fraction(v)
        mat.append(dense)
    rank = 0
    col = 0
    nrows = len(mat)
    while rank < nrows and col < ncols:
        piv = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [v / pv for v in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def dense_nullity(rows, ncols: int) -> int:
    return ncols - dense_rank(rows, ncols)


def ratfunc_rank(rows) -> int:
    """Rank over Q(q) itself of sparse rows (column -> RatFunc, Fraction or
    int): field elimination with RatFunc pivots, no specialisation."""
    pivots = {}
    for row in sorted(rows, key=len):
        row = {c: v if isinstance(v, RatFunc) else RatFunc.from_fraction(v)
               for c, v in row.items()}
        while row:
            c = min(row)
            if c not in pivots:
                inv = row[c].inverse()
                pivots[c] = {k: v * inv for k, v in row.items()}
                break
            b = row.pop(c)
            for k, v in pivots[c].items():
                if k != c:
                    w = row.get(k, 0) - b * v
                    if w:
                        row[k] = w
                    else:
                        row.pop(k)
    return len(pivots)


def casimir(datum, lam) -> int:
    """The Casimir eigenvalue (lam + 2 rho, lam) on highest weight lam."""
    return datum.form(tuple(a + b for a, b in zip(lam, datum.rho2())), lam)


def assert_certified(rep) -> None:
    """An `equal` report carries a certificate whose bound meets the span:
    a primitive one generated on all d basis vectors, a spin one on at
    most d columns, or a row one."""
    cert = rep.certificate
    assert cert is not None, (rep.flavor, rep.m, rep.n, rep.r, rep.s)
    dim_v = rep.m + rep.n if rep.flavor == "gl" else rep.m + 2 * rep.n
    d = dim_v ** (rep.r + rep.s)
    if isinstance(cert, PrimitiveCertificate):
        assert cert.bound == rep.span_rank == rep.commutant_dim
        assert cert.generation_rank == cert.dim == d
        assert all(k > 0 for k in cert.blocks) and sum(cert.blocks) <= d
        return
    if isinstance(cert, SpinCertificate):
        assert cert.unknowns - cert.rank == rep.span_rank == rep.commutant_dim
        assert cert.columns <= d
        return
    assert cert.survivors - cert.rank == rep.span_rank == rep.commutant_dim
    assert cert.rows_used <= cert.rows_assembled


def commutator_rows(gens, dim: int) -> list[dict]:
    """Every nonzero row of [M, P] = 0, assembled densely per generator."""
    rows = []
    for P in gens:
        for i in range(dim):
            for j in range(dim):
                row = {}
                for k in range(dim):
                    v = P.entries.get((i, k), 0)
                    if v:
                        row[k * dim + j] = row.get(k * dim + j, 0) + v
                    w = P.entries.get((k, j), 0)
                    if w:
                        row[i * dim + k] = row.get(i * dim + k, 0) - w
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


def random_homogeneous(space: SuperSpace, parity: int,
                       rng: random.Random, density: float = 0.5) -> SparseMat:
    """Random parity-homogeneous operator with small integer entries."""
    entries = {}
    for r in range(space.dim):
        for c in range(space.dim):
            if (space.parities[r] + space.parities[c]) % 2 != parity:
                continue
            if rng.random() < density:
                v = rng.randint(-3, 3)
                if v:
                    entries[(r, c)] = v
    return SparseMat(space, space, entries)


def random_space(rng: random.Random, dim: int, weight_len: int = 2) -> SuperSpace:
    parities = tuple(rng.randint(0, 1) for _ in range(dim))
    # a space has no weights, but drawing them keeps every seeded test's
    # later draws what they have always been
    for _ in range(dim * weight_len):
        rng.randint(-1, 1)
    return SuperSpace(parities)
