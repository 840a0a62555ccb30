"""Generators and relations for the orbit-category ring of a cyclic group.

The underlying quiver has one object per subgroup of C_k (named by its
order).  The arrow alphabet is minimized: one restriction and one
induction generator per covering pair of subgroups (index a prime), one
conjugation generator per object where the group generator acts
nontrivially, one multiplication generator per object with a nontrivial
character group, plus identities.  Everything else (conjugations by other
elements, multiplications by other characters, restrictions across
several steps) is spelled in this alphabet by the word builders below.

A word is a tuple of generator indices in application order: the path
(g1, g2) means "apply g1, then g2", i.e. the ring element g2 o g1.  The
empty tuple is the identity of whichever object the enclosing relation
attaches it to.  A relation is a list of two or more parallel sides
declared equal; each side is a Z-linear combination of words.

A presentation is valid by construction: `Presentation` runs `validate`
when it is built.  This layer imports only `groups`; whether two
presentations present one ring is decided with the rings, in
`completion.presentations_equivalent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .groups import (
    Character,
    character,
    double_cosets,
    induce_character,
    subgroups,
)

IDENTITY = "identity"
CONJUGATION = "conjugation"
MULTIPLICATION = "multiplication"
RESTRICTION = "restriction"
INDUCTION = "induction"

Word = tuple  # tuple[int, ...] of generator indices, application order


@dataclass(frozen=True)
class Generator:
    """One symbol of the minimized arrow alphabet.

    `H` is the subgroup order the symbol is attached to; restriction and
    induction additionally carry the smaller subgroup `L`.  The conjugation
    symbol is always by the group generator, the multiplication symbol
    always by the primitive character of H.
    """

    kind: str
    H: int
    L: int | None = None

    @property
    def source(self) -> int:
        if self.kind == RESTRICTION:
            return self.H
        if self.kind == INDUCTION:
            return self.L
        return self.H

    @property
    def target(self) -> int:
        if self.kind == RESTRICTION:
            return self.L
        if self.kind == INDUCTION:
            return self.H
        return self.H

    def name(self) -> str:
        if self.kind == IDENTITY:
            return f"1[{self.H}]"
        if self.kind == CONJUGATION:
            return f"c[{self.H}]"
        if self.kind == MULTIPLICATION:
            return f"m[{self.H}]"
        if self.kind == RESTRICTION:
            return f"r[{self.H},{self.L}]"
        return f"i[{self.H},{self.L}]"


@dataclass(frozen=True)
class Relation:
    """Two or more parallel sides declared equal.

    Each side is a tuple of (coefficient, word) pairs.  All words of all
    sides run from `source` to `target`.
    """

    tag: str
    source: int
    target: int
    sides: tuple[tuple[tuple[int, Word], ...], ...]

    def max_word_len(self) -> int:
        return max(len(w) for side in self.sides for _, w in side)

    def differences(self) -> tuple[tuple[tuple[int, Word], ...], ...]:
        """Each side minus the next, as (coefficient, word) terms: the
        combinations that vanish exactly when the relation holds.  Terms
        are not collected."""
        return tuple((*s1, *((-c, w) for c, w in s2)) for s1, s2 in zip(self.sides, self.sides[1:]))


class Presentation:
    """Quiver plus relations for the category ring of C_k.

    Treat instances as immutable.  The constructor ends with `validate`,
    so every instance is valid.  `family_counts` records how many
    relations each family contributed; families that turned out empty for
    this k appear with count 0.
    """

    def __init__(self, group_order: int, generators, relations, family_counts=None):
        self.group_order = group_order
        self.objects = tuple(subgroups(group_order))
        self.generators = tuple(generators)
        self.relations = tuple(relations)
        self.family_counts = dict(family_counts or {})
        self.index = {(g.kind, g.H, g.L): i for i, g in enumerate(self.generators)}
        if len(self.index) != len(self.generators):
            raise ValueError("duplicate generator")
        self.arrows = tuple(i for i, g in enumerate(self.generators) if g.kind != IDENTITY)
        # (source, target) of each generator, None for an identity
        self.arrow_ends = tuple(None if g.kind == IDENTITY else (g.source, g.target) for g in self.generators)
        self.validate()

    def __eq__(self, other):
        return (
            isinstance(other, Presentation)
            and self.group_order == other.group_order
            and self.generators == other.generators
            and self.relations == other.relations
        )

    def __repr__(self):
        return (
            f"Presentation(C_{self.group_order}: {len(self.generators)} generators, "
            f"{len(self.relations)} relations)"
        )

    def gen(self, kind: str, H: int, L: int | None = None) -> int:
        """The index of a generator; ValueError names a missing one."""
        try:
            return self.index[(kind, H, L)]
        except KeyError:
            raise ValueError(f"C_{self.group_order} has no {kind} generator {Generator(kind, H, L).name()}") from None

    # -- word builders over the minimized alphabet --------------------

    def conjugation_word(self, H: int, exponent: int) -> Word:
        """The conjugation by a^exponent on the object H, as a word."""
        if H == self.group_order:
            return ()
        e = exponent % (self.group_order // H)
        return (self.gen(CONJUGATION, H),) * e

    def multiplication_word(self, H: int, index: int) -> Word:
        """Multiplication by the index-th irreducible of H, as a word."""
        e = index % H
        if e == 0:
            return ()
        return (self.gen(MULTIPLICATION, H),) * e

    def multiplication_side(self, H: int, chi: Character):
        """Multiplication by a virtual character, as a sum of words."""
        if chi.subgroup != H:
            raise ValueError(f"character of the order-{chi.subgroup} subgroup, not of the order-{H} one")
        return tuple((c, self.multiplication_word(H, j)) for j, c in enumerate(chi.coeffs) if c)

    def restriction_word(self, H: int, L: int, chain=None) -> Word:
        """The composite restriction from object H down to object L, along
        `chain` (orders from L up to H) from the top; `gen` names a step
        that is no covering pair."""
        return tuple(self.gen(RESTRICTION, up, low) for low, up in reversed(_chain_steps(self, L, H, chain)))

    def induction_word(self, L: int, H: int, chain=None) -> Word:
        """The composite induction from object L up to object H, along
        `chain` as in `restriction_word`, its steps taken from the bottom."""
        return tuple(self.gen(INDUCTION, up, low) for low, up in _chain_steps(self, L, H, chain))

    # -- structural checks --------------------------------------------

    def check_indices(self, word: Word) -> None:
        """Raise ValueError on the first letter that is no generator index."""
        for gi in word:
            if type(gi) is not int or not 0 <= gi < len(self.generators):
                raise ValueError(f"generator index {gi!r} is not in range({len(self.generators)})")

    def word_endpoints(self, word: Word, source: int | None = None) -> tuple[int, int]:
        """(source, target) of a word; empty words need the source hint.
        Raises ValueError on a letter that is no generator index."""
        if not word:
            if source is None:
                raise ValueError("empty word needs an attached object")
            return source, source
        arrow_ends, count = self.arrow_ends, len(self.generators)
        cur = None
        for gi in word:
            if type(gi) is not int or not 0 <= gi < count:
                self.check_indices(word)  # raises: gi is the first bad letter
            ends = arrow_ends[gi]
            if ends is None:
                raise ValueError("identity generators may not appear inside paths")
            if cur is not None and ends[0] != cur:
                raise ValueError(f"word {word} is not composable at {self.generators[gi]}")
            cur = ends[1]
        return arrow_ends[word[0]][0], cur

    def validate(self) -> None:
        """Check every generator runs between objects and every relation
        is parallel and built from emitted generators; the constructor
        runs it, and it raises ValueError naming what is not."""
        for g in self.generators:
            if not all(type(o) is int and o in self.objects for o in (g.source, g.target)):
                raise ValueError(f"generator {g.name()} runs {g.source}->{g.target}, which are not both objects")
        for rel in self.relations:
            if rel.source not in self.objects or rel.target not in self.objects:
                raise ValueError(f"{rel.tag}: runs {rel.source}->{rel.target}, which are not both objects")
            if len(rel.sides) < 2:
                raise ValueError(f"{rel.tag}: a relation needs at least two sides")
            for side in rel.sides:
                for coeff, word in side:
                    if not isinstance(coeff, int):
                        raise ValueError(f"{rel.tag}: non-integer coefficient")
                    src, tgt = self.word_endpoints(word, rel.source)
                    if (src, tgt) != (rel.source, rel.target):
                        raise ValueError(
                            f"{rel.tag}: word {word} runs {src}->{tgt}, "
                            f"expected {rel.source}->{rel.target}"
                        )


def _all_chains(low: int, high: int) -> list[tuple[int, ...]]:
    """All maximal subgroup chains from order `low` to order `high`, sorted;
    the first, which steps by the smallest prime each time, is canonical."""
    if low == high:
        return [(low,)]
    chains = []
    q = high // low
    primes = sorted({p for p in range(2, q + 1) if q % p == 0 and _is_prime(p)})
    for p in primes:
        for tail in _all_chains(low * p, high):
            chains.append((low,) + tail)
    return sorted(chains)


def _chain_steps(pres: Presentation, L: int, H: int, chain) -> list[tuple[int, int]]:
    """The (low, up) steps of `chain`, orders from L up to H, by default
    the first of `_all_chains`, the canonical one.  ValueError unless L
    and H are objects, L divides H and the chain runs from L to H."""
    for order in (L, H):
        if order not in pres.objects:
            raise ValueError(f"C_{pres.group_order} has no object of order {order!r}")
    if H % L != 0:
        raise ValueError(f"order-{L} subgroup not contained in order-{H} one")
    chain = list(chain if chain is not None else _all_chains(L, H)[0])
    if chain[:1] != [L] or chain[-1:] != [H]:
        raise ValueError(f"chain {chain} does not run from {L} to {H}")
    return list(zip(chain, chain[1:]))


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def build_presentation(k: int) -> Presentation:
    """Instantiate the defining relations of the category ring of C_k.

    Families (deterministic emission order; empty families stay visible
    in `family_counts`):

      conjugation_power           c^[C_k : H] = 1 on each object H != C_k
      character_power             m^|H| = 1 on each object with |H| > 1
      chain_independence          composite restrictions/inductions agree
                                  along any two maximal subgroup chains
      conjugation_restriction     c o r = r o c  (covering pairs)
      conjugation_induction       i o c = c o i  (covering pairs)
      conjugation_multiplication  c o m = m o c  (objects carrying both)
      multiplication_restriction  m_restricted o r = r o m
      multiplication_induction    m o i = i o m_restricted
      double_coset                r o i expanded over double cosets, for
                                  every pair of proper subgroups of each H
      frobenius                   i o m^j o r = multiplication by the
                                  induced character, covering pairs, all j
    """
    divs = subgroups(k)
    gens: list[Generator] = []
    gens += [Generator(IDENTITY, d) for d in divs]
    gens += [Generator(CONJUGATION, d) for d in divs if d != k]
    gens += [Generator(MULTIPLICATION, d) for d in divs if d > 1]
    covering = [(L, H) for L in divs for H in divs if H % L == 0 and L != H and _is_prime(H // L)]
    covering.sort(key=lambda p: (p[1], p[0]))
    gens += [Generator(RESTRICTION, H, L) for L, H in covering]
    gens += [Generator(INDUCTION, H, L) for L, H in covering]

    pres = Presentation(k, gens, ())
    rels: list[Relation] = []
    counts: dict[str, int] = {}

    def emit(tag, source, target, *sides):
        rels.append(Relation(tag, source, target, tuple(tuple(s) for s in sides)))
        counts[tag] = counts.get(tag, 0) + 1

    for tag in (
        "conjugation_power",
        "character_power",
        "chain_independence",
        "conjugation_restriction",
        "conjugation_induction",
        "conjugation_multiplication",
        "multiplication_restriction",
        "multiplication_induction",
        "double_coset",
        "frobenius",
    ):
        counts[tag] = 0

    one = ((1, ()),)

    for H in divs:
        if H != k:
            c = pres.gen(CONJUGATION, H)
            emit("conjugation_power", H, H, ((1, (c,) * (k // H)),), one)
    for H in divs:
        if H > 1:
            m = pres.gen(MULTIPLICATION, H)
            emit("character_power", H, H, ((1, (m,) * H),), one)

    for L in divs:
        for H in divs:
            if H % L or L == H or _is_prime(H // L):
                continue
            # each other chain against the canonical one, the default
            for other in _all_chains(L, H)[1:]:
                emit(
                    "chain_independence",
                    H,
                    L,
                    ((1, pres.restriction_word(H, L)),),
                    ((1, pres.restriction_word(H, L, other)),),
                )
                emit(
                    "chain_independence",
                    L,
                    H,
                    ((1, pres.induction_word(L, H)),),
                    ((1, pres.induction_word(L, H, other)),),
                )

    for L, H in covering:
        r = pres.gen(RESTRICTION, H, L)
        i = pres.gen(INDUCTION, H, L)
        cl = pres.conjugation_word(L, 1)
        ch = pres.conjugation_word(H, 1)
        emit("conjugation_restriction", H, L, ((1, (r,) + cl),), ((1, ch + (r,)),))
        emit("conjugation_induction", L, H, ((1, cl + (i,)),), ((1, (i,) + ch),))

    for H in divs:
        if H != k and H > 1:
            c = pres.gen(CONJUGATION, H)
            m = pres.gen(MULTIPLICATION, H)
            emit("conjugation_multiplication", H, H, ((1, (m, c)),), ((1, (c, m)),))

    for L, H in covering:
        r = pres.gen(RESTRICTION, H, L)
        i = pres.gen(INDUCTION, H, L)
        restricted = pres.multiplication_word(L, 1 % L)
        emit("multiplication_restriction", H, L, ((1, (r,) + restricted),), ((1, pres.multiplication_word(H, 1) + (r,)),))
        emit("multiplication_induction", L, H, ((1, (i,) + pres.multiplication_word(H, 1)),), ((1, restricted + (i,)),))

    for H in divs:
        proper = [d for d in divs if H % d == 0 and d != H]
        for L in proper:
            for K in proper:
                reps = double_cosets(k, L, H, K)
                meet = gcd(L, K)
                lhs = pres.induction_word(L, H) + pres.restriction_word(H, K)
                terms: dict[Word, int] = {}
                for g in reps:
                    w = (
                        pres.restriction_word(L, meet)
                        + pres.conjugation_word(meet, g)
                        + pres.induction_word(meet, K)
                    )
                    terms[w] = terms.get(w, 0) + 1
                emit("double_coset", L, K, ((1, lhs),), tuple((c, w) for w, c in terms.items()))

    for L, H in covering:
        r = pres.gen(RESTRICTION, H, L)
        i = pres.gen(INDUCTION, H, L)
        for j in range(L):
            lhs = (r,) + pres.multiplication_word(L, j) + (i,)
            induced = induce_character(character(L, j), H)
            emit("frobenius", H, H, ((1, lhs),), pres.multiplication_side(H, induced))

    return Presentation(k, gens, rels, counts)


def presentation_c4() -> Presentation:
    """The hand-transcribed presentation of the category ring for k = 4.

    Fixed independently of build_presentation as a cross-check oracle.
    The three objects are the orders 1, 2, 4; the chained power equality
    on the middle object is a single three-sided relation.  Products of
    non-composable symbols are zero by the word typing itself, so that
    family carries no data.
    """
    gens = [
        Generator(IDENTITY, 1),
        Generator(IDENTITY, 2),
        Generator(IDENTITY, 4),
        Generator(CONJUGATION, 1),
        Generator(CONJUGATION, 2),
        Generator(MULTIPLICATION, 2),
        Generator(MULTIPLICATION, 4),
        Generator(RESTRICTION, 2, 1),
        Generator(RESTRICTION, 4, 2),
        Generator(INDUCTION, 2, 1),
        Generator(INDUCTION, 4, 2),
    ]
    c1, c2, m2, m4, r21, r42, i21, i42 = 3, 4, 5, 6, 7, 8, 9, 10
    one = ((1, ()),)
    rels = [
        Relation("power", 1, 1, (((1, (c1,) * 4),), one)),
        Relation("power", 2, 2, (((1, (c2, c2)),), ((1, (m2, m2)),), one)),
        Relation("power", 4, 4, (((1, (m4,) * 4),), one)),
        # conjugations past restrictions/inductions
        Relation("commutation", 2, 1, (((1, (c2, r21)),), ((1, (r21, c1)),))),
        Relation("commutation", 4, 2, (((1, (r42, c2)),), ((1, (r42,)),))),
        Relation("commutation", 1, 2, (((1, (c1, i21)),), ((1, (i21, c2)),))),
        Relation("commutation", 2, 4, (((1, (c2, i42)),), ((1, (i42,)),))),
        # multiplications past restrictions/inductions
        Relation("commutation", 1, 2, (((1, (i21, m2)),), ((1, (i21,)),))),
        Relation("commutation", 2, 1, (((1, (m2, r21)),), ((1, (r21,)),))),
        Relation("commutation", 4, 2, (((1, (r42, m2)),), ((1, (m4, r42)),))),
        Relation("commutation", 2, 4, (((1, (m2, i42)),), ((1, (i42, m4)),))),
        Relation("commutation", 2, 2, (((1, (m2, c2)),), ((1, (c2, m2)),))),
        # restriction after induction, expanded over double cosets
        Relation("double_coset", 1, 1, (((1, (i21, r21)),), ((1, ()), (1, (c1, c1))))),
        Relation("double_coset", 2, 2, (((1, (i42, r42)),), ((1, ()), (1, (c2,))))),
        # induction after (multiplication after) restriction
        Relation("frobenius", 2, 2, (((1, (r21, i21)),), ((1, ()), (1, (m2,))))),
        Relation("frobenius", 4, 4, (((1, (r42, i42)),), ((1, ()), (1, (m4, m4))))),
        Relation("frobenius", 4, 4, (((1, (r42, m2, i42)),), ((1, (m4,)), (1, (m4, m4, m4))))),
    ]
    counts = {"power": 3, "commutation": 9, "double_coset": 2, "frobenius": 3}
    return Presentation(4, gens, rels, counts)
