"""The benchmark's three workloads: seeded inputs, one timed operation each,
and the checks that decide whether an output is correct.

A workload object has:

- ``setup()``, which builds the evaluation contexts the operations use (the
  part a user pays once per process) and returns them;
- ``inputs(seed)``, which makes the operations' inputs; the same seed gives
  the same inputs;
- ``call(state, inp)``, one timed operation through the public API;
- ``check(inputs, outputs)``, which returns ``{index: reason}`` for every
  output that is wrong; an output is None where the call raised;
- ``label(inp)`` for messages, and ``latency_of``, "call" or "pass": the
  operation whose latency quantiles are reported.

Outputs are plain values (dicts, ``RatFunc``) so that two passes, traced and
untraced, can be compared for equality.
"""

from __future__ import annotations

import math
import random

from qschur import distinguished, fft_report, invariant, make_context, parse_braid
from qschur.scalar import Q

# Criterion 08: the classical osp cells, Brauer images.
OSP_CELLS = [("osp", m, n, r, 0)
             for (m, n) in [(1, 1), (2, 1), (3, 1), (4, 1), (3, 2)]
             for r in (1, 2, 3)]

# The heavy Hecke cell, the heavy walled cell, the six criterion-05 cells
# and the criterion-06 mixed cell.
GLQ_CELLS = [("gl", 2, 1, 4, 0), ("gl", 1, 1, 3, 2),
             ("gl", 1, 1, 2, 0), ("gl", 1, 1, 3, 0), ("gl", 2, 1, 2, 0),
             ("gl", 2, 1, 3, 0), ("gl", 1, 2, 2, 0), ("gl", 2, 2, 2, 0),
             ("gl", 2, 1, 1, 1)]

# (commutant_dim, span_rank, verdict) per cell, as computed by the exact
# pipeline; the closed forms in `_closed_form` cross-check them.
EXPECTED = {
    ("osp", 1, 1, 1, 0): (1, 1, "equal"), ("osp", 1, 1, 2, 0): (3, 3, "equal"),
    ("osp", 1, 1, 3, 0): (15, 15, "equal"),
    ("osp", 2, 1, 1, 0): (1, 1, "equal"), ("osp", 2, 1, 2, 0): (3, 3, "equal"),
    ("osp", 2, 1, 3, 0): (15, 15, "equal"),
    ("osp", 3, 1, 1, 0): (1, 1, "equal"), ("osp", 3, 1, 2, 0): (3, 3, "equal"),
    ("osp", 3, 1, 3, 0): (15, 15, "equal"),
    ("osp", 4, 1, 1, 0): (1, 1, "equal"), ("osp", 4, 1, 2, 0): (3, 3, "equal"),
    ("osp", 4, 1, 3, 0): (15, 15, "equal"),
    ("osp", 3, 2, 1, 0): (1, 1, "equal"), ("osp", 3, 2, 2, 0): (3, 3, "equal"),
    ("osp", 3, 2, 3, 0): (15, 15, "equal"),
    ("gl", 2, 1, 4, 0): (24, 24, "equal"), ("gl", 1, 1, 3, 2): (70, 70, "equal"),
    ("gl", 1, 1, 2, 0): (2, 2, "equal"), ("gl", 1, 1, 3, 0): (6, 6, "equal"),
    ("gl", 2, 1, 2, 0): (2, 2, "equal"), ("gl", 2, 1, 3, 0): (6, 6, "equal"),
    ("gl", 1, 2, 2, 0): (2, 2, "equal"), ("gl", 2, 2, 2, 0): (2, 2, "equal"),
    ("gl", 2, 1, 1, 1): (2, 2, "equal"),
}


def cell_label(cell) -> str:
    flavor, m, n, r, s = cell
    return f"{flavor} {m}|{n} -r {r}" + (f" -s {s}" if s else "")


def _outside_even_m_bound(cell) -> bool:
    flavor, m, n, r, _ = cell
    return flavor == "osp" and m % 2 == 0 and not 2 * r < m * (2 * n + 1)


def _closed_form(cell):
    """The dimension theory predicts for a cell, or None where none applies."""
    flavor, _, _, r, s = cell
    if flavor == "gl" and s == 0:
        return math.factorial(r)                      # Hecke: r!
    if flavor == "gl" and cell[1:] == (1, 1, 3, 2):
        return 70                                     # walled gl(1|1), r=3, s=2
    if flavor == "osp" and not _outside_even_m_bound(cell):
        return math.prod(range(1, 2 * r, 2))          # Brauer: (2r-1)!!
    return None


def check_cell(cell, out, expected) -> str | None:
    """Why a cell's report is wrong, or None if it is right."""
    cdim, srank = out["commutant_dim"], out["span_rank"]
    if srank > cdim:
        return f"span_rank {srank} > commutant_dim {cdim}"
    if _outside_even_m_bound(cell):
        return None  # criterion 08 records these cells and asserts no more
    want = expected.get(cell)
    if want is None:
        return "no expected value stored"
    got = (cdim, srank, out["verdict"])
    if got != want:
        return f"got {got}, expected {want}"
    closed = _closed_form(cell)
    if closed is not None and cdim != closed:
        return f"commutant_dim {cdim} differs from the closed form {closed}"
    if not out["agreement"]:
        return "specialisation points disagree"
    return None


class FftWorkload:
    """One `fft_report` call per cell; the seed fixes the cell order."""

    latency_of = "pass"  # see run.py: too few, too unequal cells for quantiles

    def __init__(self, cells, expected=EXPECTED):
        self.cells = list(cells)
        self.expected = expected

    def setup(self):
        for flavor, m, n, _, _ in self.cells:
            if flavor == "gl":
                make_context("glq", datum=distinguished("gl", m, n))
            else:
                make_context("osp_classical", m=m, n=n)
        return None

    def inputs(self, seed):
        cells = list(self.cells)
        random.Random(seed).shuffle(cells)
        return cells

    def label(self, cell):
        return cell_label(cell)

    def call(self, state, cell):
        flavor, m, n, r, s = cell
        return fft_report(flavor, m, n, r, s=s).to_dict()

    def check(self, inputs, outputs):
        bad = {}
        for i, (cell, out) in enumerate(zip(inputs, outputs)):
            if out is None:
                continue  # the call raised; already counted as failed
            why = check_cell(cell, out, self.expected)
            if why:
                bad[i] = f"{cell_label(cell)}: {why}"
        return bad


# Links: (m, n, strands, context budget).  The 3-strand closures of gl(2|1)
# and gl(1|2) pass through V^3 (x) V*^3 of dimension 729, above the default
# budget of 625.
LINK_ALGEBRAS = [(2, 1, 3, 4096), (1, 2, 3, 4096), (1, 1, 4, None), (3, 1, 2, None)]
LINK_LENGTHS = (2, 3, 4, 5, 6, 7)
LINK_TRIPLES = 48


class LinksWorkload:
    """Skein triples of seeded braid words, closed with `invariant`.

    Slot k of a pass uses algebra k mod 4 and a word of length
    LINK_LENGTHS[(k // 4) mod 6] with as many negative letters as positive
    ones (one more positive for odd lengths), so every seed gives the same
    mix of sizes; the seed picks the generators, the order of the signs and
    which letter the skein relation flips.
    """

    latency_of = "call"

    def __init__(self, algebras=LINK_ALGEBRAS, lengths=LINK_LENGTHS,
                 triples=LINK_TRIPLES):
        self.algebras = list(algebras)
        self.lengths = tuple(lengths)
        self.triples = triples

    def setup(self):
        ctxs = {}
        for m, n, _, budget in self.algebras:
            extra = {} if budget is None else {"budget": budget}
            ctxs[(m, n)] = make_context("glq", datum=distinguished("gl", m, n),
                                        **extra)
        return ctxs

    def inputs(self, seed):
        """Flat list of ((m, n), BraidWord, text), three per triple: the
        word with the chosen letter positive, negative, deleted."""
        rng = random.Random(seed)
        out = []
        for k in range(self.triples):
            m, n, strands, _ = self.algebras[k % len(self.algebras)]
            length = self.lengths[(k // len(self.algebras)) % len(self.lengths)]
            signs = [1, -1] * (length // 2) + [1] * (length % 2)
            rng.shuffle(signs)
            letters = [(rng.randint(1, strands - 1), e) for e in signs]
            pos = rng.randrange(length)
            i = letters[pos][0]
            for word in (letters[:pos] + [(i, 1)] + letters[pos + 1:],
                         letters[:pos] + [(i, -1)] + letters[pos + 1:],
                         letters[:pos] + letters[pos + 1:]):
                text = " ".join(f"s{g}" if e > 0 else f"s{g}^-1" for g, e in word)
                out.append(((m, n), parse_braid(text, strands=strands), text))
        return out

    def label(self, inp):
        (m, n), word, text = inp
        return f"gl {m}|{n} {word.strands} strands [{text}]"

    def call(self, ctxs, inp):
        key, word, _ = inp
        return invariant(word, ctxs[key])

    def check(self, inputs, outputs):
        """inv(w+) - inv(w-) = (q - q^-1) inv(w0) on every triple."""
        bad = {}
        z = Q - Q ** -1
        for t in range(0, len(outputs), 3):
            plus, minus, zero = outputs[t:t + 3]
            if plus is None or minus is None or zero is None:
                continue  # a call raised; already counted as failed
            if plus - minus != z * zero:
                for i in range(t, t + 3):
                    bad[i] = f"skein identity fails on {self.label(inputs[t])}"
        return bad


WORKLOADS = {
    "fft-osp": FftWorkload(OSP_CELLS),
    "fft-glq": FftWorkload(GLQ_CELLS),
    "links": LinksWorkload(),
}
