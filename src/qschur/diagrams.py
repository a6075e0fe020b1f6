"""Combinatorial diagrams: Brauer diagrams, braid words, ribbon words.

A Brauer diagram on r strands is a perfect matching of 2r points, numbered
0..r-1 along the bottom and r..2r-1 along the top (top point r+i sits
above bottom point i).  Composition stacks `upper` on top of `lower`,
follows each strand through the glued middle row and reports the closed
loops left there; the matrix model multiplies in the same order,
nu(upper) @ nu(lower).

Ribbon graphs are layered words of generator tokens read bottom to top.
Directed tokens: I+ I- X+ X- Om+ Om- U+ U- with signed source/target
sequences (+ is the module V, - its dual); non-directed tokens: I X+ X-
Om U with arities.  Words validate by matching each layer's target to the
next layer's source.  Equality of words is not decided; words are only
compared through their functor images.

Quotient relations are formal records of small ribbon words (the Hecke
skein relation and the walled loop values) that the centralizer module
pushes through the functor; the bmw family has no record here, since it
is checked in the spectral model of `osp`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import BudgetError, VerificationError
from .scalar import RatFunc, qpow

__all__ = [
    "BrauerDiagram", "compose_brauer", "brauer_basis", "brauer_count",
    "BRAUER_CAP", "identity_diagram",
    "elementary_diagram",
    "BraidWord", "parse_braid", "braid_to_ribbon", "closure",
    "RibbonWord", "Relation", "quotient_relations",
    "DIRECTED_TOKENS", "NONDIRECTED_TOKENS",
]


# ---------------------------------------------------------------------------
# Brauer diagrams.

@dataclass(frozen=True)
class BrauerDiagram:
    """Perfect matching on 2r points; match[match[i]] == i, no fixed points."""

    match: tuple[int, ...]

    def __post_init__(self):
        n = len(self.match)
        if n % 2:
            raise ValueError("a Brauer diagram needs an even number of points")
        for i, j in enumerate(self.match):
            if not 0 <= j < n or j == i or self.match[j] != i:
                raise ValueError("not a fixed-point-free involution")

    @property
    def strands(self) -> int:
        return len(self.match) // 2


def identity_diagram(r: int) -> BrauerDiagram:
    return BrauerDiagram(tuple(list(range(r, 2 * r)) + list(range(r))))


def elementary_diagram(letter: str, i: int, r: int) -> BrauerDiagram:
    """s_i (letter "s", strands i and i+1 crossed) or e_i ("e", a cap on
    bottom points i, i+1 under a cup on the top ones) on r strands."""
    if letter not in ("s", "e") or not 1 <= i < r:
        raise ValueError(f"no Brauer generator {letter}{i} on {r} strands")
    match = list(range(r, 2 * r)) + list(range(r))
    a, b = i - 1, i
    if letter == "s":
        match[a], match[b], match[r + a], match[r + b] = r + b, r + a, b, a
    else:
        match[a], match[b], match[r + a], match[r + b] = b, a, r + b, r + a
    return BrauerDiagram(tuple(match))


def compose_brauer(upper: BrauerDiagram, lower: BrauerDiagram, delta):
    """Stack upper on top of lower; returns (diagram, delta**loops).

    Each strand is followed from an outer point through the middle row
    (lower top j glued to upper bottom j) until it leaves at another outer
    point; the middle points no strand crossed lie on closed loops.
    Matches the matrix model: nu(result) * delta**loops == nu(upper) @ nu(lower).
    """
    r = upper.strands
    if lower.strands != r:
        raise ValueError("strand-count mismatch in Brauer composition")
    match = [-1] * (2 * r)  # result bottom i = lower i, top i = upper r + i
    crossed = [False] * r
    for start in range(2 * r):
        if match[start] >= 0:
            continue
        below, k = start < r, start  # below: k is a point of lower
        while True:
            k = (lower if below else upper).match[k]
            if (k < r) == below:
                break  # out at the bottom of lower or the top of upper
            j = k - r if below else k
            crossed[j] = True
            below, k = not below, (j if below else r + j)
        match[start], match[k] = k, start
    loops = 0
    for j in range(r):
        if not crossed[j]:
            loops += 1
            while not crossed[j]:
                k = upper.match[j]
                crossed[j] = crossed[k] = True
                j = lower.match[r + k] - r
    return BrauerDiagram(tuple(match)), delta ** loops


#: Most Brauer diagrams built on r strands, for `brauer` and `fft`:
#: (2r-1)!! at r = 6.
BRAUER_CAP = 10395


def brauer_count(r: int) -> int:
    """(2r-1)!!, the number of Brauer diagrams on r strands; BudgetError as
    soon as the product passes BRAUER_CAP."""
    count = 1
    for k in range(3, 2 * r, 2):
        count *= k
        if count > BRAUER_CAP:
            raise BudgetError(f"the Brauer diagrams on {r} strands exceed "
                              f"{BRAUER_CAP}")
    return count


def brauer_basis(r: int) -> list[BrauerDiagram]:
    """All (2r-1)!! diagrams on r strands, within BRAUER_CAP."""
    brauer_count(r)
    out = []

    def extend(matched, pairs):
        free = [i for i in range(2 * r) if i not in matched]
        if not free:
            match = [0] * (2 * r)
            for a, b in pairs:
                match[a], match[b] = b, a
            out.append(BrauerDiagram(tuple(match)))
            return
        a = free[0]
        for b in free[1:]:
            extend(matched | {a, b}, pairs + [(a, b)])

    extend(frozenset(), [])
    return out


# ---------------------------------------------------------------------------
# Braid words.

@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[tuple[int, int], ...]  # (generator index 1..r-1, +-1)

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        for i, s in self.letters:
            if not 1 <= i <= self.strands - 1:
                raise ValueError(f"braid letter s{i} out of range")
            if s not in (1, -1):
                raise ValueError("braid letter sign must be +-1")

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands,
                         tuple((i, -s) for i, s in reversed(self.letters)))


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse words like "s1 s2^-1 s1"; strands defaults to max index + 1."""
    letters = []
    for tok in text.split():
        if not tok.startswith("s"):
            raise ValueError(f"bad braid letter {tok!r}")
        body = tok[1:]
        sign = 1
        if "^" in body:
            body, exp = body.split("^", 1)
            if exp not in ("-1", "1", "+1"):
                raise ValueError(f"bad braid exponent in {tok!r}")
            sign = -1 if exp == "-1" else 1
        letters.append((int(body), sign))
    need = max((i for i, _ in letters), default=0) + 1
    strands = strands if strands is not None else max(need, 1)
    if strands < need:
        raise ValueError(f"braid word needs at least {need} strands")
    return BraidWord(strands, tuple(letters))


# ---------------------------------------------------------------------------
# Ribbon words.

#: token -> (source signs, target signs); read bottom to top.
DIRECTED_TOKENS = {
    "I+": (("+",), ("+",)),
    "I-": (("-",), ("-",)),
    "X+": (("+", "+"), ("+", "+")),
    "X-": (("+", "+"), ("+", "+")),
    "Om+": (("-", "+"), ()),
    "Om-": (("+", "-"), ()),
    "U+": ((), ("+", "-")),
    "U-": ((), ("-", "+")),
}

#: token -> (arity in, arity out).
NONDIRECTED_TOKENS = {
    "I": (1, 1),
    "X+": (2, 2),
    "X-": (2, 2),
    "Om": (2, 0),
    "U": (0, 2),
}


@dataclass(frozen=True)
class RibbonWord:
    mode: str  # "directed" or "nondirected"
    layers: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if self.mode not in ("directed", "nondirected"):
            raise ValueError(f"unknown ribbon mode {self.mode!r}")
        if not self.layers:
            raise ValueError("a ribbon word needs at least one layer")
        self.validate()

    def _token_table(self):
        return DIRECTED_TOKENS if self.mode == "directed" else NONDIRECTED_TOKENS

    def layer_signature(self, layer):
        """(source, target) of one layer: sign tuples or arities."""
        table = self._token_table()
        if self.mode == "directed":
            src: list = []
            dst: list = []
            for tok in layer:
                if tok not in table:
                    raise ValueError(f"unknown directed token {tok!r}")
                s, t = table[tok]
                src += s
                dst += t
            return tuple(src), tuple(dst)
        arity_in = arity_out = 0
        for tok in layer:
            if tok not in table:
                raise ValueError(f"unknown non-directed token {tok!r}")
            s, t = table[tok]
            arity_in += s
            arity_out += t
        return arity_in, arity_out

    def validate(self):
        prev_target = None
        for layer in self.layers:
            src, dst = self.layer_signature(layer)
            if prev_target is not None and src != prev_target:
                raise ValueError(
                    f"layer source {src} does not match previous target {prev_target}")
            prev_target = dst

    @property
    def source(self):
        return self.layer_signature(self.layers[0])[0]

    @property
    def target(self):
        return self.layer_signature(self.layers[-1])[1]

    def stack(self, upper: "RibbonWord") -> "RibbonWord":
        """upper composed after self (self at the bottom)."""
        if self.mode != upper.mode:
            raise ValueError("mode mismatch in stacking")
        return RibbonWord(self.mode, self.layers + upper.layers)

    def juxtapose(self, right: "RibbonWord") -> "RibbonWord":
        """Side-by-side tensor; shorter word padded with identity layers."""
        if self.mode != right.mode:
            raise ValueError("mode mismatch in juxtaposition")
        a, b = list(self.layers), list(right.layers)

        def pad(layers, word):
            sig = word.layer_signature(layers[-1])[1]
            if word.mode == "directed":
                return tuple("I+" if s == "+" else "I-" for s in sig)
            return ("I",) * sig

        while len(a) < len(b):
            a.append(pad(a, self))
        while len(b) < len(a):
            b.append(pad(b, right))
        return RibbonWord(self.mode, tuple(x + y for x, y in zip(a, b)))

    def to_json(self) -> str:
        return json.dumps({"mode": self.mode,
                           "layers": [list(l) for l in self.layers]})

    @classmethod
    def from_json(cls, text: str) -> "RibbonWord":
        """Parse {"mode": str, "layers": [[token, ...], ...]}; ValueError
        for malformed JSON or any other shape."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("the ribbon word JSON nests too deeply") from None
        if not isinstance(data, dict):
            data = {}
        mode, layers = data.get("mode"), data.get("layers")
        if not (isinstance(mode, str) and isinstance(layers, list) and all(
                isinstance(l, list) and all(isinstance(t, str) for t in l)
                for l in layers)):
            raise ValueError('a ribbon word is {"mode": str, "layers": '
                             '[[token, ...], ...]}')
        return cls(mode, tuple(tuple(l) for l in layers))


def braid_to_ribbon(w: BraidWord, mode: str = "directed") -> RibbonWord:
    """One layer per braid letter; identities elsewhere.  Empty word -> id layer."""
    ident = "I+" if mode == "directed" else "I"
    r = w.strands
    layers = []
    for i, s in w.letters:
        tok = "X+" if s > 0 else "X-"
        layers.append((ident,) * (i - 1) + (tok,) + (ident,) * (r - i - 1))
    if not layers:
        layers.append((ident,) * r)
    return RibbonWord(mode, tuple(layers))


def closure(w: BraidWord) -> RibbonWord:
    """Trace closure to the right as a closed directed ribbon word.

    Nested U+ cups feed the braid block from below on (+^r, -^r); nested
    Om- caps close it from above, outermost last.  The empty 1-strand
    braid closes to Om- o U+, the unknot.
    """
    r = w.strands
    layers: list[tuple[str, ...]] = []
    for k in range(r):
        layers.append(("I+",) * k + ("U+",) + ("I-",) * k)
    body = braid_to_ribbon(w)
    for layer in body.layers:
        layers.append(layer + ("I-",) * r)
    for k in range(r - 1, -1, -1):
        layers.append(("I+",) * k + ("Om-",) + ("I-",) * k)
    word = RibbonWord("directed", tuple(layers))
    if word.source != () or word.target != ():
        raise VerificationError("closure failed to produce a closed graph")
    return word


# ---------------------------------------------------------------------------
# Quotient relations, as formal records to be pushed through the functor.

@dataclass(frozen=True)
class Relation:
    """Formal linear combination of small ribbon words.

    model "word": the terms are maps V (x) V -> V (x) V, to be placed on
    adjacent strands; model "scalar": closed words, with None standing for
    the empty word (a bare scalar term).
    """

    name: str
    model: str  # "word" or "scalar"
    terms: tuple  # (coefficient, RibbonWord or None) pairs


def quotient_relations(kind: str, params: dict | None = None) -> list[Relation]:
    """The "hecke" or "walledbmw" relations; walledbmw needs params["z"]."""
    if kind not in ("hecke", "walledbmw"):
        raise ValueError(f"unknown relation family {kind!r}")
    coeff = qpow(1) - qpow(-1)
    out = [Relation(
        "X+ - X- - (q - q^-1) I", "word",
        ((RatFunc(1), RibbonWord("directed", (("X+",),))),
         (RatFunc(-1), RibbonWord("directed", (("X-",),))),
         (-coeff, RibbonWord("directed", (("I+", "I+"),)))))]
    if kind == "hecke":
        return out
    z = (params or {}).get("z")
    if z is None:
        raise ValueError("walledbmw relations need the loop parameter z")
    loop_plus = RibbonWord("directed", (("U+",), ("Om-",)))
    loop_minus = RibbonWord("directed", (("U-",), ("Om+",)))
    return out + [
        Relation("Om- U+ - z", "scalar", ((RatFunc(1), loop_plus), (-z, None))),
        Relation("Om+ U- - z", "scalar", ((RatFunc(1), loop_minus), (-z, None))),
    ]
