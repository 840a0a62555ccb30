"""Length-graded linear completion of a presentation to a based ring.

The completion enumerates composable words of bounded length and reads
the quotient of the free Z-module they span, by every relation instance
(relation padded on both sides by words, total length within the
bound), off an integer echelon whose pivots are the largest words of
their rows.  The echelon is not fed every instance: each bound adds the
rows the previous bound changed, times each letter, and the instances
padded on the left only, which span the same lattice (`_echelons`).
Words are ordered by length, then lexicographically by the fixed
generator enumeration; this order is compatible with composition, so
pivot rows are rewrite rules replacing a word by strictly smaller ones.  The echelon of each object pair is an `intlin.Lattice`, whose
pivots are leftmost columns; word columns are numbered downward, word
number i on column -i, so the leftmost pivot of a row is its largest
word.  After each bound the lattices are canonicalized, and
`Lattice.reduce` gives the normal form of a word.

A bound B is *certified* when the echelon data fits the monomial model
(every pivot either has unit coefficient, and is thereby eliminated, or
is a pure torsion row d*w = 0 giving a basis slot with modulus d) and
the product of every two surviving basis words has length at most B and
reduces inside the bound.  Completion stops when `window` consecutive
bounds are certified with identical basis, torsion and multiplication
table; since every echelon row is an integer combination of relation
instances, the certified table is exactly the presented ring's.

Torsion never appears for the rings in scope but is carried faithfully:
slots with a modulus keep their coefficients reduced into [0, d).
Rings and presentations are checked here too: `verify_ring` certifies
that a table is the ring its presentation presents, and it and
`presentations_equivalent` check relations by one `_failing_relations`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from .intlin import Lattice
from .presentation import IDENTITY, Presentation, Relation


class CompletionError(Exception):
    pass


class NotStabilizedError(CompletionError):
    """The bound was exhausted before the quotient settled."""

    def __init__(self, message, trajectory):
        super().__init__(f"{message}; rank trajectory {trajectory}")
        self.trajectory = trajectory


class InconsistentPresentationError(CompletionError):
    """A unit collapsed to zero: the presented ring is degenerate."""


class _PairSpace:
    """Free Z-module on the words of one object pair, with its echelon.

    Word number i is column -i of `lattice`, so the leftmost pivot of a
    row is its largest word; `ids` maps each word to its column.  Words
    are added in length order, and `starts[L]` is the number of words
    shorter than L.  The lattice tracks the rows it changes
    (`Lattice.changed`).
    """

    __slots__ = ["words", "ids", "starts", "lattice"]

    def __init__(self):
        self.words: list[tuple] = []
        self.ids: dict[tuple, int] = {}
        self.starts: list[int] = []
        self.lattice = Lattice()
        self.lattice.changed = set()

    def add_word(self, path: tuple) -> None:
        while len(self.starts) <= len(path):
            self.starts.append(len(self.words))
        self.ids[path] = -len(self.words)
        self.words.append(path)

    def words_of_length(self, length: int) -> list[tuple]:
        starts = self.starts
        if length >= len(starts):
            return []
        return self.words[starts[length]:starts[length + 1] if length + 1 < len(starts) else None]

    def classify(self):
        """(eliminated columns, {column: modulus}, mixed row count)."""
        eliminated = set()
        moduli: dict[int, int] = {}
        mixed = 0
        for m, row in self.lattice.pivots.items():
            if row[m] == 1:
                eliminated.add(m)
            elif len(row) == 1:
                moduli[m] = row[m]
            else:
                mixed += 1
        return eliminated, moduli, mixed


@dataclass(frozen=True)
class RingElement:
    """An element of one hom component, as its row over the component's
    basis: the reduced (pos, c) pairs, pos ascending and c nonzero, the
    form of `CategoryRing.table`'s rows; () is zero."""

    ring: "CategoryRing"
    source: int
    target: int
    row: tuple

    def __add__(self, other):
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("elements live in different components")
        vec = dict(self.row)
        for t, c in other.row:
            vec[t] = vec.get(t, 0) + c
        return self.ring.element(self.source, self.target, vec)

    def is_zero(self) -> bool:
        return not self.row

    def then(self, other: "RingElement") -> "RingElement":
        """Composition in diagram order: (x.then(y)) applies x first."""
        if self.target != other.source:
            raise ValueError("elements are not composable")
        return self.ring.compose(self, other)

    def __str__(self):
        return self.ring.element_str(self)


class ArrowForm(NamedTuple):
    """The normal form of one arrow, source -> target, as a row of the
    form of `RingElement.row`.  It holds no ring, so the arrow forms a
    ring keeps tie no reference cycle through it."""

    source: int
    target: int
    row: tuple


def _flat_layout(objects, basis):
    """(pairs, flat, offset): the object pairs in order, every basis word
    as (source, target, word) at its flat index, and the flat index of
    each pair's first word.  Pairs run x-major over `objects`, words in
    basis order."""
    pairs = [(x, y) for x in objects for y in objects]
    flat: list[tuple[int, int, tuple]] = []
    offset: dict[tuple[int, int], int] = {}
    for pair in pairs:
        offset[pair] = len(flat)
        flat.extend((pair[0], pair[1], w) for w in basis[pair])
    return pairs, flat, offset


class CategoryRing:
    """A completed category ring: basis words, torsion and the table.

    `basis[(X, Y)]` lists the normal-form words of the component X -> Y in
    monomial order, `torsion[(X, Y)]` their moduli (None for free slots).
    `table[(u, v)]`, for flat basis indices with target(u) == source(v),
    is the composite "u then v" over the basis of (source(u), target(v))
    as a tuple of (pos, c) pairs, pos ascending and c nonzero; () is zero.
    It is read-only: a `MappingProxyType` over a copy, holding tuples.
    """

    def __init__(self, presentation, basis, torsion, table, arrow_forms, stabilized_at, max_len, window):
        self.presentation = presentation
        self.objects = presentation.objects
        self.basis = basis
        self.torsion = torsion
        self.table = MappingProxyType(dict(table))
        self.stabilized_at = stabilized_at
        self.max_len = max_len
        self.window = window
        self.pairs, self.flat, self.offset = _flat_layout(self.objects, basis)
        self.unit_pos = {x: basis[(x, x)].index(()) for x in self.objects}
        # arrow_forms maps each arrow's generator index to its normal form, {pos: c}
        ends = presentation.arrow_ends
        self.arrow_forms = {
            gi: ArrowForm(*ends[gi], _reduced(torsion[ends[gi]], vec)) for gi, vec in arrow_forms.items()
        }
        # entry tuple -> free module, filled by `modules.free_module`; its
        # modules point back at the ring, so `cli.Workspace` empties it
        self._free_modules: dict[tuple, object] = {}

    # -- elements ------------------------------------------------------

    def element(self, source, target, vec) -> RingElement:
        """The element with coefficients `vec`, {pos: c}, reduced."""
        return RingElement(self, source, target, _reduced(self.torsion[(source, target)], vec))

    def zero(self, source, target) -> RingElement:
        return RingElement(self, source, target, ())

    def unit(self, obj) -> RingElement:
        return self.element(obj, obj, {self.unit_pos[obj]: 1})

    def basis_element(self, source, target, pos) -> RingElement:
        return self.element(source, target, {pos: 1})

    def compose(self, x: RingElement, y: RingElement) -> RingElement:
        """x then y, i.e. the ring product y o x."""
        prod = _product(self, x.row, (x.source, x.target), y.row, (y.source, y.target))
        return RingElement(self, x.source, y.target, prod)

    # -- presentation-facing helpers ------------------------------------

    def rank(self, source, target) -> tuple[int, tuple[int, ...]]:
        """Basis size and torsion moduli of one component."""
        if (source, target) not in self.basis:
            raise KeyError(f"unknown component ({source}, {target})")
        mods = self.torsion[(source, target)]
        return len(self.basis[(source, target)]), tuple(m for m in mods if m)

    def total_rank(self) -> int:
        return len(self.flat)

    def word_str(self, word: tuple, obj: int | None = None) -> str:
        if not word:
            return f"1[{obj}]" if obj is not None else "1"
        names = [self.presentation.generators[gi].name() for gi in word]
        return "*".join(reversed(names))

    def element_str(self, elem: RingElement) -> str:
        parts = []
        words = self.basis[(elem.source, elem.target)]
        for pos, c in elem.row:
            s = self.word_str(words[pos], elem.source)
            if c == 1:
                parts.append(s)
            elif c == -1:
                parts.append(f"-{s}")
            else:
                parts.append(f"{c}*{s}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


DEFAULT_MAX_LEN = 12
DEFAULT_WINDOW = 2


def _echelons(pres: Presentation, max_len: int):
    """Grow the relation-instance echelon bound by bound.

    Yields `(bound, spaces)` for bound = 1, ..., max_len: after each yield
    the pair spaces hold every composable word of length at most `bound`
    and the canonical echelon of every relation instance of padded length
    at most `bound`.  Word ids never change once assigned, and every
    echelon row is an integer combination of relation instances.

    Bound B adds two kinds of rows, for B = 0 (an internal bound, not
    yielded), 1, ..., max_len:

    (a) each row of bound B-1's canonical echelon that bound B-1 created
        or rewrote, times every arrow a leaving its target (the column of
        word w goes to the column of w + (a,));
    (b) the relation instances of padded length B with an empty right
        pad.

    These span every instance.  Let J_B be the span of the instances of
    padded length at most B (J_{-1} = 0), E_B its canonical rows, and D_B
    the rows of E_B that bound B created or rewrote, as
    `Lattice.changed` records them.  A row of E_B not in D_B is unchanged
    from E_{B-1}, so it lies in J_{B-1}; so J_B lies in J_{B-1} + span(D_B).
    Take an instance v*d*u of padded length B with u = u'*a.  Then v*d*u'
    has padded length B-1, so v*d*u lies in J_{B-1}*a, which lies in
    J_{B-2}*a + span(D_{B-1}*a), and J_{B-2}*a lies in J_{B-1}.
    Conversely D_{B-1}*a lies in J_B.  By induction on B,

        J_B = J_{B-1} + span(D_{B-1}*L) + span(instances with an empty right pad),

    L the arrows.  Appending a letter is injective on words and keeps the
    length-lex order, so a product row cancels nothing and keeps its
    leading word.  The HNF of a lattice is unique, so E_B equals the
    canonical echelon of every instance fed at once.
    """
    gens = pres.generators
    objects = pres.objects
    spaces = {(x, y): _PairSpace() for x in objects for y in objects}
    outgoing = {x: [a for a in pres.arrows if gens[a].source == x] for x in objects}

    # layer[x]: the words of the top length from x, in lexicographic order
    # across all targets; each path is built once and shared with `spaces`
    layer: dict[int, list[tuple]] = {x: [()] for x in objects}
    for x in objects:
        spaces[(x, x)].add_word(())

    def extend_words() -> None:
        for x in objects:
            top = []
            for path in layer[x]:
                for a in outgoing[gens[path[-1]].target if path else x]:
                    word = path + (a,)
                    spaces[(x, gens[a].target)].add_word(word)
                    top.append(word)
            layer[x] = top

    differences = [(rel, rel.max_word_len(), rel.differences()) for rel in pres.relations]

    def add_instances(bound: int) -> None:
        # the relation instances of padded length `bound` with an empty right pad
        for rel, longest, diffs in differences:
            pad = bound - longest
            if pad < 0:
                continue
            for x in objects:
                space = spaces[(x, rel.target)]
                ids, add = space.ids, space.lattice.add
                for v in spaces[(x, rel.source)].words_of_length(pad):
                    for terms in diffs:
                        # cancelled terms leave zeros, which `add` drops
                        row: dict[int, int] = {}
                        for c, w in terms:
                            col = ids[v + w]
                            row[col] = row.get(col, 0) + c
                        add(row)

    def add_products(changed) -> None:
        # each changed row of the previous bound, times each arrow leaving its target
        for (x, y), rows in changed:
            words = spaces[(x, y)].words
            for a in outgoing[y]:
                space = spaces[(x, gens[a].target)]
                ids, add = space.ids, space.lattice.add
                for row in rows:
                    add({ids[words[-j] + (a,)]: c for j, c in row.items()})

    changed = []
    for bound in range(max_len + 1):
        if bound:
            extend_words()
        add_products(changed)
        add_instances(bound)
        changed = []
        for pair, space in spaces.items():
            lattice = space.lattice
            lattice.canonicalize()
            if lattice.changed:
                # the rows themselves: the next bound's `add` replaces rows
                # and never mutates them
                changed.append((pair, [lattice.pivots[m] for m in sorted(lattice.changed)]))
                lattice.changed.clear()
        if bound:
            yield bound, spaces


class _Stabilization:
    """The stopping rule of the completion, applied after each bound.

    A bound is certified when its `_snapshot` is not None; the ring is
    read off once `window` consecutive snapshots are certified and equal.
    """

    def __init__(self, pres: Presentation, max_len: int, window: int):
        if window < 1:
            raise ValueError("window must be positive")
        self.pres = pres
        self.max_len = max_len
        self.window = window
        self.history: list[tuple | None] = []
        self.trajectory: list[int] = []

    def ring_at(self, bound: int, spaces) -> CategoryRing | None:
        """The completed ring if `bound` ends a stable window, else None."""
        pres = self.pres
        self.history.append(_snapshot(pres.objects, spaces, bound, self.trajectory))
        tail = self.history[-self.window:]
        if len(tail) < self.window or tail[0] is None or any(t != tail[0] for t in tail):
            return None
        basis, torsion, table = tail[0]
        arrow_forms = {}
        for a in pres.arrows:
            g = pres.generators[a]
            space = spaces[(g.source, g.target)]
            red = space.lattice.reduce({space.ids[(a,)]: 1})
            pos = {w: n for n, w in enumerate(basis[(g.source, g.target)])}
            arrow_forms[a] = {pos[space.words[-col]]: c for col, c in red.items()}
        return CategoryRing(pres, basis, torsion, table, arrow_forms, bound, self.max_len, self.window)

    def exhausted(self) -> NotStabilizedError:
        return NotStabilizedError(
            f"no stabilization for k={self.pres.group_order} within max_len={self.max_len}",
            self.trajectory,
        )


def _snapshot(objects, spaces, bound: int, trajectory: list[int]):
    """The ring data of `bound` as `CategoryRing` takes it, or None.

    Appends the bound's total rank to `trajectory`.  Returns None unless
    the echelon data fits the monomial model and the product of every
    two composable basis words has length at most `bound` and reduces
    into the basis; then `(basis, torsion, table)`, with the table keyed
    by the flat indices of `_flat_layout`.  Snapshots compare with `==`.
    Raises InconsistentPresentationError, at the first object in order,
    when an identity is eliminated or carries a modulus.
    """
    basis, torsion, position = {}, {}, {}
    all_monomial = True
    for x in objects:
        for y in objects:
            space = spaces[(x, y)]
            eliminated, moduli, mixed = space.classify()
            if mixed:
                all_monomial = False
            if x == y and (space.ids[()] in eliminated or space.ids[()] in moduli):
                raise InconsistentPresentationError(
                    f"the identity of object {x} collapses; the presentation is inconsistent"
                )
            kept = [-i for i in range(len(space.words)) if -i not in eliminated]
            basis[(x, y)] = [space.words[-col] for col in kept]
            torsion[(x, y)] = [moduli.get(col) for col in kept]
            position[(x, y)] = {col: n for n, col in enumerate(kept)}
    trajectory.append(sum(map(len, basis.values())))
    if not all_monomial:
        return None

    # closure certificate + table, object triple by triple, then u and v
    _, flat, offset = _flat_layout(objects, basis)
    block = {pair: range(offset[pair], offset[pair] + len(words)) for pair, words in basis.items()}
    table = {}
    for x, y, z in itertools.product(objects, repeat=3):
        space, pos = spaces[(x, z)], position[(x, z)]
        for u in block[(x, y)]:
            for v in block[(y, z)]:
                prod = flat[u][2] + flat[v][2]
                if len(prod) > bound:
                    return None
                row = []
                for col, c in space.lattice.reduce({space.ids[prod]: 1}).items():
                    if col not in pos:
                        return None
                    row.append((pos[col], c))
                table[(u, v)] = tuple(sorted(row))
    return basis, torsion, table


def complete(pres: Presentation, max_len: int = DEFAULT_MAX_LEN, window: int = DEFAULT_WINDOW) -> CategoryRing:
    """Run the graded completion; deterministic in (pres, max_len, window).

    Raises NotStabilizedError when the bound is exhausted (carrying the
    rank trajectory) and InconsistentPresentationError when a unit
    collapses.
    """
    rule = _Stabilization(pres, max_len, window)
    for bound, spaces in _echelons(pres, max_len):
        ring = rule.ring_at(bound, spaces)
        if ring is not None:
            return ring
    raise rule.exhausted()


def certify_or_complete(
    pres: Presentation, combinations, max_len: int = DEFAULT_MAX_LEN, window: int = DEFAULT_WINDOW
) -> CategoryRing | None:
    """Certify combinations as members of the relation ideal, or complete.

    Each combination is `(source, target, terms)` with `terms` a tuple of
    (coefficient, word) pairs over `pres`, all words running source ->
    target.  The relation-instance echelon of `pres` is grown bound by
    bound.  A combination is certified at the first bound where it
    reduces to zero against that echelon; the echelon only grows, so it
    stays certified.  Returns None at the first bound where every
    combination is certified.  If instead the completion's stopping rule
    is met first, on the same echelon, returns the completed ring, exactly
    as `complete(pres, max_len, window)` would; if neither happens within
    `max_len`, raises as `complete` does.
    """
    rule = _Stabilization(pres, max_len, window)
    pending = []
    for source, target, terms in combinations:
        vec: dict[tuple, int] = {}
        for c, w in terms:
            vec[w] = vec.get(w, 0) + c
        vec = {w: c for w, c in vec.items() if c}
        if vec:
            pending.append(((source, target), vec, max(len(w) for w in vec)))
    if not pending:
        return None
    for bound, spaces in _echelons(pres, max_len):
        left = []
        for pair, vec, longest in pending:
            if longest <= bound:
                space = spaces[pair]
                if {space.ids[w]: c for w, c in vec.items()} in space.lattice:
                    continue
            left.append((pair, vec, longest))
        pending = left
        if not pending:
            return None
        ring = rule.ring_at(bound, spaces)
        if ring is not None:
            return ring
    raise rule.exhausted()


def normal_form(ring: CategoryRing, data, source: int | None = None, target: int | None = None) -> RingElement:
    """Normal form of a word or a Z-combination of parallel words.

    `data` is either a word (tuple of generator indices in application
    order) or a tuple of (coefficient, word) pairs.  Endpoints are
    inferred from the words where possible; combinations containing only
    empty words need `source` (= `target`).  An empty `data` is the empty
    word, whose normal form is the unit of `source`.  Raises ValueError
    on a letter that is no generator index of the ring's presentation.
    """
    pres = ring.presentation
    if data and isinstance(data[0], int):
        data = ((1, tuple(data)),)
    elif data == ():
        data = ((1, ()),)

    endpoints = None
    arrows = []
    for c, w in data:
        pres.check_indices(w)
        stripped = tuple(gi for gi in w if pres.generators[gi].kind != IDENTITY)
        if stripped and endpoints is None:
            endpoints = pres.word_endpoints(stripped)
        arrows.append((c, stripped))
    if endpoints is None:
        if source is None:
            raise ValueError("combination of identity words needs a source object")
        endpoints = (source, target if target is not None else source)
    src, tgt = endpoints
    if source is not None and source != src or target is not None and target != tgt:
        raise ValueError(f"declared endpoints ({source},{target}) do not match words ({src},{tgt})")

    for _, w in data:
        cur = src
        for gi in w:
            g = pres.generators[gi]
            if g.source != cur:
                raise ValueError(f"word {w} is not composable")
            cur = g.target
        if cur != tgt:
            raise ValueError("summands are not parallel")
    return RingElement(ring, src, tgt, _acted(ring, {(): ring.unit(src).row}, src, arrows, tgt))


def _extended(ring: CategoryRing, forms: dict, source: int, word: tuple) -> tuple:
    """`forms[()]`, a row over (source, y), acted on by `word`, a path of
    arrows from y: the row of the longest prefix in `forms`, then one
    `_right_step` per further letter.  `forms` keeps the row of every
    prefix it is given, so each prefix is stepped once per `forms`."""
    n = len(word)
    while word[:n] not in forms:
        n -= 1
    row = forms[word[:n]]
    for m in range(n, len(word)):
        row = forms[word[:m + 1]] = _right_step(ring, row, source, word[m])
    return row


def _acted(ring: CategoryRing, forms: dict, source: int, side, target: int) -> tuple:
    """`forms[()]` acted on by `side`, a combination of words as
    `_extended` takes them, ending at `target`: the sum of c times the
    row of each word w, reduced.  An empty side is 0."""
    acc: dict[int, int] = {}
    for c, w in side:
        for pos, v in _extended(ring, forms, source, w):
            acc[pos] = acc.get(pos, 0) + c * v
    return _reduced(ring.torsion[(source, target)], acc)


def _failing_relations(ring: CategoryRing, relations, starts):
    """The relations, in order, two of whose sides act differently on one
    of the start rows (`_acted`).  `starts[y]` lists (x, row) pairs, each
    row over (x, y).  A side is a combination, so an empty one is 0, not
    the empty word."""
    forms = {y: [(x, {(): row}) for x, row in rows] for y, rows in starts.items()}
    for rel in relations:
        for x, known in forms[rel.source]:
            if len({_acted(ring, known, x, side, rel.target) for side in rel.sides}) > 1:
                yield rel
                break


@dataclass
class EquivalenceReport:
    """Outcome of comparing two presentations of the same ring."""

    equivalent: bool
    failures: list[str] = field(default_factory=list)

    def __bool__(self):
        return self.equivalent


def presentations_equivalent(
    p: Presentation,
    q: Presentation,
    *,
    max_len: int = DEFAULT_MAX_LEN,
    window: int = DEFAULT_WINDOW,
    ring_p=None,
    ring_q=None,
) -> EquivalenceReport:
    """Decide whether p and q present the same ring.

    The generator sets must match bijectively by kind and subgroup data
    (otherwise ValueError).  Under that bijection, every relation of p
    must hold in the ring presented by q and vice versa; failures are
    listed in the report, p's relations first.

    Each direction checks normal forms in the receiving ring when it is
    passed in.  Otherwise it passes at the first bound, up to `max_len`,
    where `certify_or_complete` reduces the `Relation.differences` of
    every translated relation to zero against the receiving echelon; each
    echelon row is an integer combination of relation instances, so this
    is sound.  These consecutive differences span the same group J_B
    holds as the first side minus each other side, and a word has a
    nonzero coefficient in a member of one family exactly when it has one
    in the other, so `longest <= bound` and membership fail on both at the
    same bounds, and the answer comes at the same bound.  If the
    completion's stopping rule is met first, normal forms are compared in
    that ring.  So a presentation whose completion never stabilizes can
    still be certified to contain the other's relations.
    """
    key_p, key_q = p.index.keys(), q.index.keys()
    if key_p != key_q:
        raise ValueError(f"generator sets are not bijective: missing={sorted(key_q - key_p)} extra={sorted(key_p - key_q)}")

    failures: list[str] = []

    def check(src_pres, dst_pres, dst_ring, direction):
        translate = {i: dst_pres.index[key] for key, i in src_pres.index.items()}

        def move(side):
            return tuple((c, tuple(translate[gi] for gi in w)) for c, w in side)

        moved = [Relation(rel.tag, rel.source, rel.target, tuple(map(move, rel.sides))) for rel in src_pres.relations]
        if dst_ring is None:
            combinations = [(rel.source, rel.target, terms) for rel in moved for terms in rel.differences()]
            dst_ring = certify_or_complete(dst_pres, combinations, max_len, window)
            if dst_ring is None:
                return
        units = {x: [(x, dst_ring.unit(x).row)] for x in dst_ring.objects}
        for rel in _failing_relations(dst_ring, moved, units):
            failures.append(f"{direction}: relation {rel.tag} {rel.source}->{rel.target} does not reduce to zero")

    check(p, q, ring_q, "left-in-right")
    check(q, p, ring_p, "right-in-left")
    return EquivalenceReport(not failures, failures)


def _right_step(ring: CategoryRing, row: tuple, source: int, arrow: int) -> tuple:
    """`row` then `arrow`: the `_product` of a row over (source, source of
    `arrow`) with the normal form of `arrow`.  This is one letter of
    `_extended`."""
    form = ring.arrow_forms[arrow]
    return _product(ring, row, (source, form.source), form.row, (form.source, form.target))


def _reduced(mods: list, vec: dict[int, int]) -> tuple:
    """The row of a sparse vector {pos: c}: its nonzero entries with
    torsion slots reduced mod d, pos ascending.  Every ring element and
    product is reduced by this one."""
    out = []
    for pos, v in vec.items():
        if mods[pos]:
            v %= mods[pos]
        if v:
            out.append((pos, v))
    out.sort()
    return tuple(out)


def _product(ring: CategoryRing, xs: tuple, pair_x, ys: tuple, pair_y) -> tuple:
    """The ring product of rows, xs over pair_x then ys over pair_y: the
    sum of a*b times the table row of each basis pair, reduced into the
    torsion of its component.  Every product of ring elements in the
    package is this one."""
    rows = ring.table
    off_x, off_y = ring.offset[pair_x], ring.offset[pair_y]
    out: dict[int, int] = {}
    for i, a in xs:
        for j, b in ys:
            ab = a * b
            for t, c in rows[(off_x + i, off_y + j)]:
                out[t] = out.get(t, 0) + ab * c
    return _reduced(ring.torsion[(pair_x[0], pair_y[1])], out)


@dataclass
class VerificationReport:
    """Failures are hard errors; warnings flag unusual but valid data.

    `ok` when there is no failure: then `verify_ring`'s certificate
    proved that the table is the ring its presentation presents.
    """

    failures: list[str]
    warnings: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def random_associativity_probe(ring: CategoryRing, count: int = 1000, max_len: int = 6, seed: int = 0) -> list[str]:
    """Check associativity on pseudo-random composable word triples.

    Returns the list of failing triples (empty = pass); deterministic in
    the seed.  Each triple draws a start object and three words of at
    most `max_len` letters.  The normal form of each distinct drawn
    (source, word) is computed once per call, as its row: the form of
    its prefix one letter shorter, then that letter (`_extended`, which
    `normal_form` steps words through too), so it equals `normal_form`'s.
    (uv)w and u(vw) are then compared through `_product`, the product
    that `compose` uses too.  `ring verify` runs the probe only on a ring
    that `verify_ring` rejects.  The forms are kept for the call
    only, and no draw depends on them, so the draws and the failing
    triples are those of one `normal_form` per drawn word and
    `RingElement` products per triple.

    Raises ValueError when `count` or `max_len` is negative.
    """
    import random

    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    rng = random.Random(seed)
    pres = ring.presentation
    gens = pres.generators
    arrows = pres.arrows
    failures = []
    outgoing = {x: [a for a in arrows if gens[a].source == x] for x in ring.objects}
    target_of = {a: gens[a].target for a in arrows}
    # source -> {word: the row of its normal form}
    forms = {x: {(): ring.unit(x).row} for x in ring.objects}

    def random_word(start):
        length = rng.randint(0, max_len)
        path = []
        cur = start
        for _ in range(length):
            options = outgoing[cur]
            if not options:
                break
            a = rng.choice(options)
            path.append(a)
            cur = target_of[a]
        return tuple(path), cur

    for _ in range(count):
        x = rng.choice(ring.objects)
        u, y = random_word(x)
        v, z = random_word(y)
        w, end = random_word(z)
        eu, ev, ew = _extended(ring, forms[x], x, u), _extended(ring, forms[y], y, v), _extended(ring, forms[z], z, w)
        lhs = _product(ring, _product(ring, eu, (x, y), ev, (y, z)), (x, z), ew, (z, end))
        if lhs != _product(ring, eu, (x, y), _product(ring, ev, (y, z), ew, (z, end)), (y, end)):
            failures.append(f"associativity fails on words {u} {v} {w}")
    return failures


def verify_ring(ring: CategoryRing) -> VerificationReport:
    """Certify that the table is the ring A_P = Z<Q>/I its presentation P
    presents, I the ideal of P's relations.

    Let M be the Z-module with one generator e_u per basis slot u, of
    order its torsion modulus, so that the reduced rows are its elements
    (`_reduced`); a letter g acts on it by e_u.g = `_right_step`.  The
    checks, each with its own failure lines, in order:

    (a) every relation of P acts as zero on every e_u (`_failing_relations`);
    (b) d (e_u.g) = 0 for every modulus d of u and every letter g;
    (c) 1.word(u) = e_u: every basis element is the normal form of its word;
    (d) table[(u, v)] = e_u.word(v), by prefixes: table[(u, 1)] = e_u, and
        table[(u, v)] = table[(u, v')].g where word(v) = word(v') g;
    (e) if (a)-(d) pass: every word(u) g - e_u.g and every d word(u) lies in
        I, as `certify_or_complete` certifies, or else has normal form 0 in
        the ring it completes.

    Proof.  By (b) each letter acts on M, and by (a) I acts as zero, so M
    is a right A_P-module.  phi(a) = 1.a maps A_P onto M by (c).  By (e),
    psi(e_u) = [word(u)] is a well-defined A_P-linear map M -> A_P with
    psi(1) = 1, so psi(phi(a)) = psi(1).a = a and phi is an isomorphism.
    By (c) and (d), table[(u, v)] = (1.word(u)).word(v) = phi(word(u) word(v)):
    the table is A_P's product carried along phi.  So it is associative
    and unital, P's relations and the torsion hold in it, and
    `random_associativity_probe` finds nothing on a ring that passes.
    """
    failures: list[str] = []
    warnings: list[str] = []
    pres, torsion, offset, flat = ring.presentation, ring.torsion, ring.offset, ring.flat
    gens = pres.generators
    outgoing = {x: [a for a in pres.arrows if gens[a].source == x] for x in ring.objects}
    elements = [ring.basis_element(x, y, u - offset[(x, y)]).row for u, (x, y, _) in enumerate(flat)]
    moduli = [torsion[(x, y)][u - offset[(x, y)]] for u, (x, y, _) in enumerate(flat)]
    into = {y: [u for u, (_, z, _) in enumerate(flat) if z == y] for y in ring.objects}

    def name(u):
        x, y, _ = flat[u]
        return f"basis {u - offset[(x, y)]} of ({x},{y})"

    # (a)
    starts = {y: [(flat[u][0], elements[u]) for u in us] for y, us in into.items()}
    for rel in _failing_relations(ring, pres.relations, starts):
        failures.append(f"relation {rel.tag} ({rel.source}->{rel.target}) does not hold in the table")

    # (b), with e_u.g for every letter g
    acted = {(u, a): _right_step(ring, elements[u], x, a) for u, (x, y, _) in enumerate(flat) for a in outgoing[y]}
    for (u, a), row in acted.items():
        d = moduli[u]
        if d and _reduced(torsion[(flat[u][0], gens[a].target)], {t: d * c for t, c in row}):
            failures.append(f"torsion modulus {d} of {name(u)} fails on letter {a}")

    # (c)
    for u, (x, y, word) in enumerate(flat):
        if normal_form(ring, word, source=x, target=y).row != elements[u]:
            failures.append(f"{name(u)} is not the normal form of its word {list(word)}")

    # (d), on the table's rows as `_product` reads them
    entries = {(u, v): _reduced(torsion[(flat[u][0], flat[v][1])], dict(row)) for (u, v), row in ring.table.items()}
    position = {(x, word): u for u, (x, _, word) in enumerate(flat)}
    for v, (y, _, word) in enumerate(flat):
        if not word:
            failures += [f"right unit fails on {name(u)}" for u in into[y] if entries[(u, v)] != elements[u]]
            continue
        prefix = position.get((y, word[:-1]))
        if prefix is None:
            failures.append(f"{name(v)} has the prefix {list(word[:-1])}, which is no basis word")
            continue
        for u in into[y]:
            if entries[(u, v)] != _right_step(ring, entries[(u, prefix)], flat[u][0], word[-1]):
                failures.append(f"{name(u)} times {name(v)} is not {name(u)} acted on by its word {list(word)}")

    if not failures:
        # (e): each combination as `certify_or_complete` takes it, with the
        # failure line it gives when it is not in the relation ideal
        checks = []
        for u, (x, y, word) in enumerate(flat):
            for a in outgoing[y]:
                z = gens[a].target
                terms = ((1, word + (a,)), *((-c, ring.basis[(x, z)][t]) for t, c in acted[(u, a)]))
                checks.append(((x, z, terms), f"{name(u)} acted on by letter {a} is not its word times {a}"))
            if moduli[u]:
                checks.append(((x, y, ((moduli[u], word),)), f"torsion modulus {moduli[u]} of {name(u)} does not hold"))
        try:
            presented = certify_or_complete(pres, [c for c, _ in checks], ring.max_len, ring.window)
        except CompletionError as exc:
            failures.append(f"the presentation does not certify the table: {exc}")
        else:
            for (x, y, terms), line in checks if presented is not None else ():
                if normal_form(presented, terms, source=x, target=y).row:
                    failures.append(f"{line} in the presented ring")

    for pair in ring.pairs:
        mods = [m for m in ring.torsion[pair] if m]
        if mods:
            warnings.append(f"component {pair} carries torsion moduli {mods}")

    return VerificationReport(failures, warnings)
