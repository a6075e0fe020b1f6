"""Shared test helpers: independent dense oracles and random generators.

The dense rank/nullity oracle here is deliberately separate from the
package's sparse elimination kernel, so the two sides of every rank
comparison are computed by different code paths.
"""

from __future__ import annotations

import random
from fractions import Fraction

from qschur.centralizer import (BlockSpan, PrimitiveCertificate,
                                SpinCertificate, _glq_generator_mats,
                                module_heights, weight_module)
from qschur.functor import (diagram_generators, identity_on, image_basis,
                            make_context, replay, walled_tokens)
from qschur.rootdata import distinguished
from qschur.scalar import RatFunc
from qschur.superspace import SparseMat, SuperSpace, on_slots


def dense_rank(rows, ncols: int, p: int | None = None) -> int:
    """Plain Gaussian elimination over Fraction, dense, no pivot tricks; or
    with a prime `p`, over F_p on int rows."""
    mat = []
    for row in rows:
        dense = [Fraction(0) if p is None else 0] * ncols
        for c, v in row.items():
            dense[c] = Fraction(v) if p is None else v % p
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
        inv = 1 / pv if p is None else pow(pv, -1, p)
        mat[rank] = [v * inv if p is None else v * inv % p
                     for v in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b if p is None else (a - f * b) % p
                          for a, b in zip(mat[r], mat[rank])]
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


def closure_words(kind, ctx, r, s, echelon, columns=None):
    """The words the gl closure keeps, mod p in `echelon` or exactly where
    it is None, with the images over Q(q) that they spell (`replay` from
    the placed generators)."""
    words = image_basis(kind, ctx, r, s, None, echelon, columns)
    gens = list(diagram_generators(kind, ctx, r, s).values())
    start = identity_on(ctx.space_of("+" * r + "-" * s), columns)
    return words, replay(words, gens, start)


def casimir(datum, lam) -> int:
    """The Casimir eigenvalue (lam + 2 rho, lam) on highest weight lam."""
    return datum.form(tuple(a + b for a, b in zip(lam, datum.rho2())), lam)


def assert_certified(rep) -> None:
    """An `equal` report carries a certificate whose bound meets the span:
    a primitive one generated on all d basis vectors, with its span side
    re-checked where it has one, or a spin one on at most d columns;
    anything else fails."""
    cert = rep.certificate
    assert cert is not None, (rep.flavor, rep.m, rep.n, rep.r, rep.s)
    dim_v = rep.m + rep.n if rep.flavor == "gl" else rep.m + 2 * rep.n
    d = dim_v ** (rep.r + rep.s)
    if isinstance(cert, PrimitiveCertificate):
        assert cert.bound == rep.span_rank == rep.commutant_dim
        assert cert.generation_rank == cert.dim == d
        assert all(k > 0 for k in cert.blocks) and sum(cert.blocks) <= d
        if cert.words:
            assert_blocks_full(cert, *block_values(rep, cert))
        return
    assert isinstance(cert, SpinCertificate), type(cert)
    assert cert.unknowns - cert.rank == rep.span_rank == rep.commutant_dim
    assert cert.columns <= d


def token_values(span, ctx, r, s, point) -> list:
    """The k x k blocks of `span` at q = `point` of each diagram generator of
    the walled cell (r, s), in `diagram_generators`' order, read from its
    token on its own two slots as `centralizer._block_span` reads them."""
    return [span.value(on_slots(T.residues(point), t, r + s))
            for _, T, t in walled_tokens(ctx, r, s)]


def block_values(rep, cert):
    """The k x k blocks on the primitive spaces, at the point of `cert`, of
    each diagram generator of the cell of `rep` (`token_values`) and of the
    identity."""
    datum, r, s = distinguished("gl", rep.m, rep.n), rep.r, rep.s
    point = Fraction(cert.point)
    gens = _glq_generator_mats(datum, r, s)
    module = weight_module(gens, module_heights(datum, (1,) * r + (-1,) * s),
                           point)
    span = BlockSpan(module.primitive)
    return (token_values(span, make_context("glq", datum=datum), r, s, point),
            span.identity)


def dense_product(x, y, p: int) -> tuple:
    """The product x y of two square matrices (tuples of rows), mod p."""
    return tuple(tuple(sum(a * y[t][u] for t, a in enumerate(row)) % p
                       for u in range(len(y[0]))) for row in x)


def dense_algebra_rank(gens, k: int, p: int) -> int:
    """The dimension mod p, up to k^2, of the algebra of k x k matrices that
    `gens` generate with the identity: products g a are taken breadth
    first, and a is kept while a dense elimination finds it new, so the
    kept matrices span a space closed under every g, which holds the
    identity."""
    reduced = []  # (pivot, row): row[pivot] = 1, 0 at every earlier pivot

    def new(mat) -> bool:
        vec = [x for row in mat for x in row]
        for c, row in reduced:
            if f := vec[c]:
                vec = [(a - f * b) % p for a, b in zip(vec, row)]
        c = next((c for c, x in enumerate(vec) if x), None)
        if c is not None:
            inv = pow(vec[c], -1, p)
            reduced.append((c, [x * inv % p for x in vec]))
        return c is not None
    kept = [tuple(tuple(int(t == u) for u in range(k)) for t in range(k))]
    new(kept[0])
    for a in kept:  # a queue: kept grows while it is walked
        for g in gens:
            if len(kept) == k * k:
                return len(kept)
            if new(b := dense_product(g, a, p)):
                kept.append(b)
    return len(kept)


def assert_blocks_full(cert, values, identity) -> None:
    """The span side of a primitive certificate, from the blocks `values` of
    the diagram generators and the blocks `identity` (`block_values`).
    Each block is full: the kept words, replayed block by block, fill it
    (a dense rank mod p of k^2), or, for a block of size k >= 2 that they
    leave short, the generators' blocks there generate an algebra of
    dimension k^2 (`dense_algebra_rank`).  Each pair of equal-size blocks
    has a recorded image whose traces on the two differ."""
    p = cert.prime
    images = replay(cert.words, values, identity, lambda a, b: tuple(
        dense_product(x, y, p) for x, y in zip(a, b)))
    sizes = [len(block) for block in identity]
    assert sorted(sizes, reverse=True) == list(cert.blocks)
    for c, k in enumerate(sizes):
        rows = [{t: x for t, x in enumerate(v for row in img[c] for v in row)}
                for img in images]
        assert dense_rank(rows, k * k, p) == k * k or (
            k > 1 and dense_algebra_rank([v[c] for v in values], k, p)
            == k * k), f"block {c} of size {k} is not full"

    def trace(block):
        return sum(block[t][t] for t in range(len(block))) % p
    assert sorted((i, j) for i, j, _ in cert.separating) == sorted(
        (i, j) for j, k in enumerate(sizes) for i in range(j) if sizes[i] == k)
    for i, j, t in cert.separating:
        assert trace(images[t][i]) != trace(images[t][j]), (i, j, t)


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
