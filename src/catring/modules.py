"""Z/2-graded finitely presented right modules over a completed ring.

A module assigns to every (object, degree) slot a finitely presented
abelian group - a list of named generators and integer relation rows -
and to every basis monomial b: X -> Y of the ring an integer matrix
value(Y, eps) -> value(X, eps) for each degree (contravariant: right
modules are functors on the opposite category).  Row-vector convention
throughout: an element is a row over the slot's generators and a matrix
acts from the right.

Every matrix here - relations, actions and the matrices of module maps -
is a tuple of sparse rows {column: value} without zeros, the row format
of `intlin.Lattice`, and `intlin.mat_mul` is the one product of such
rows; only the functoriality check of `GradedModule.validate` sums its
products row by row instead, without building a matrix.  `GradedModule`
and `ModuleMap` store the rows they are given; `GradedModule.validate`
and `ModuleMap.check` check their shapes.  Every input and output of
`intlin` is such a row, and coordinates are rows {basis row index:
coefficient}, so dense rows remain only in the JSON files, and
`serialize.module_from_dict` is where they become sparse rows.

The completed rings in scope are concentrated in degree 0 (every
presentation generator is an even morphism), so module maps and actions
preserve the Z/2-degree and suspension simply swaps the two layers; if a
presentation ever carried odd generators the degree bookkeeping here
would need a shifted action table, which is deliberately not guessed at.

The zero module is a first-class citizen: every operation accepts empty
generator lists, and matrices keep explicit (possibly zero) shapes.

Maps out of a free module are solved for by Yoneda, on the values at the
units of its entries (`_hom_free_into`).  Hom, Ext and the split test all
reduce to such maps tau on one level of a chain, the cover d_n: F_n ->
F_{n-1} (F_{-1} = M), with the equations tau(K_n) = 0 on its kernel rows
K_n (`_kernel_equations`); Hom is the n = 0 case of Ext.

Every module stores its action rows when it is built.  A resolution
builds no module for its syzygies: for n >= 1 the n-th syzygy is the
kernel rows of the previous differential inside its free module,
`free_cover` covers the submodule those rows generate, and each level of
the chain is the differential F_n -> F_{n-1} itself (`_Syzygies`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .completion import CategoryRing
from .intlin import (
    Lattice,
    group_invariants,
    hnf,
    left_kernel,
    mat_mul,
    solve_left,
)

Slot = tuple  # (object, degree)


class _AboveCap:
    def __repr__(self):
        return "AboveCap"

    def __bool__(self):
        return False


ABOVE_CAP = _AboveCap()


@dataclass(frozen=True)
class AbInvariants:
    """A finitely generated abelian group up to isomorphism."""

    free_rank: int
    torsion: tuple[int, ...]  # divisibility chain, entries > 1

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"


def _check_rows(rows, nrows, ncols: int, what: str, where) -> None:
    """Raise ValueError naming `what` at `where` unless `rows` are sparse
    rows over range(ncols) - dicts {column: value} without a stored zero -
    and, when `nrows` is not None, there are `nrows` of them."""
    if nrows is not None and len(rows) != nrows:
        raise ValueError(f"{what} {where}: expected {nrows} rows, got {len(rows)}")
    for row in rows:
        if not isinstance(row, dict):
            raise ValueError(f"{what} {where}: {row!r} is not a {{column: value}} row")
        if row and (min(row) < 0 or max(row) >= ncols):
            bad = sorted(j for j in row if not 0 <= j < ncols)
            raise ValueError(f"{what} {where}: columns {bad} outside range({ncols})")
        if 0 in row.values():
            raise ValueError(f"{what} {where}: row {row} stores a zero")


def _letters(ring: CategoryRing) -> dict[int, list[int]]:
    """The right factors `GradedModule.validate` checks, by source object:
    the flat basis indices in the support of the arrow normal forms, or
    every basis element when some component carries torsion."""
    letters: dict[int, set] = {x: set() for x in ring.objects}
    if any(any(mods) for mods in ring.torsion.values()):
        for fb, (x, _, _) in enumerate(ring.flat):
            letters[x].add(fb)
    for form in ring.arrow_forms.values():
        off = ring.offset[(form.source, form.target)]
        letters[form.source].update(off + t for t, _ in form.row)
    return {x: sorted(fbs) for x, fbs in letters.items()}


class GradedModule:
    """A finitely presented graded right module; treat as immutable.

    `act[(fb, e)]` holds one sparse row per generator of the target slot
    of basis fb at degree e.
    """

    def __init__(self, ring: CategoryRing, gens, rels, act):
        """`rels` and `act` hold sparse rows, kept as they are, not copied,
        so they must not change afterwards; a slot or (basis, degree) pair
        left out has no rows.  `validate` checks that they fit."""
        self.ring = ring
        self.slots = [(x, e) for x in ring.objects for e in (0, 1)]
        self.gens = {s: tuple(gens.get(s, ())) for s in self.slots}
        self.rels = {s: tuple(rels.get(s, ())) for s in self.slots}
        self.act = {(fb, e): tuple(act.get((fb, e), ())) for fb in range(len(ring.flat)) for e in (0, 1)}
        self._rel_lattices = {}

    def ngens(self, slot: Slot) -> int:
        return len(self.gens[slot])

    def relation_lattice(self, slot: Slot) -> Lattice:
        """Span of the relations at `slot`, built on first use and shared
        by every caller: read it, or mutate a copy."""
        lat = self._rel_lattices.get(slot)
        if lat is None:
            lat = self._rel_lattices[slot] = Lattice()
            for row in self.rels[slot]:
                lat.add(row)
        return lat

    def agree(self, slot: Slot, A, B) -> bool:
        """Are the sparse row lists A and B, of one length, equal modulo
        the relations at `slot`?"""
        lat = self.relation_lattice(slot)
        return all(
            a == b or {j: a.get(j, 0) - b.get(j, 0) for j in a.keys() | b.keys()} in lat
            for a, b in zip(A, B)
        )

    def value_invariants(self, slot: Slot) -> AbInvariants:
        free, tors = group_invariants(self.rels[slot], self.ngens(slot))
        return AbInvariants(free, tors)

    def is_zero(self) -> bool:
        return all(self.value_invariants(s).is_zero() for s in self.slots)

    def validate(self) -> None:
        """Re-check all module invariants; raises with a witness on failure.

        Every relation and action row is checked first, before any
        product, to be a sparse row over its slot's generators, with one
        action row per generator of the target slot.  Well-definedness on
        the quotient (for every basis element) and the unit action are
        checked directly.  Functoriality is checked only on pairs (u, a):
        u runs over every basis monomial x -> y, and the right factor a
        over the *letters* leaving y, the basis elements in the support of
        the arrow normal forms (`_letters`).  Write rho(b) for the action
        of b, extended linearly to coefficient vectors, x.v for the table
        product "x then v", and rho(x)rho(v) for "act by x, then by v".
        Equations between actions hold modulo the relations of the slot
        they land in; well-definedness makes that compatible with composing
        actions.  Each pair is checked one generator row at a time: the row
        of rho(u)rho(a) minus the row of rho(u.a) is summed in one dict and
        tested against the relation lattice only when it is nonzero.

        Precondition: the ring passes `ring verify` (`verify_ring`), so its
        table is associative, units are two-sided units, and every basis
        element is the normal form of its own word.  Then this check
        accepts exactly the modules that the check on all composable pairs
        accepts (`pairwise_validate` in the test oracles).  Proof: let L be
        the set of elements v with rho(x.v) = rho(x)rho(v) for every basis
        monomial x.  The table is bilinear, so the equation then holds for
        every element x, and L is closed under sums.  L holds every letter
        (checked here), hence every arrow normal form, and every unit
        (x.1 = x, and units act as identities).  L is closed under
        products: for v, g in L,
            rho(x.(v.g)) = rho((x.v).g) = rho(x.v)rho(g)
                         = rho(x)rho(v)rho(g) = rho(x)rho(v.g),
        by associativity, g in L, v in L and g in L again.  The normal form
        of a word v'g, g an arrow, is the normal form of v' times the arrow
        normal form of g, so by induction on the length of the word every
        normal form of a word lies in L; so does every basis element, and
        every pair holds.  Torsion moduli break the linearity (products are
        reduced mod d), so over a ring with torsion every basis element
        counts as a letter, which is the all-pairs check.
        """
        ring = self.ring
        ngens = {s: len(g) for s, g in self.gens.items()}
        for s in self.slots:
            _check_rows(self.rels[s], None, ngens[s], "relations at slot", s)
        for fb, (x, y, _) in enumerate(ring.flat):
            for e in (0, 1):
                what = "action matrix of (basis, degree)"
                _check_rows(self.act[(fb, e)], ngens[(y, e)], ngens[(x, e)], what, (fb, e))
        for fb, (x, y, _) in enumerate(ring.flat):
            for e in (0, 1):
                # well-defined on the quotient
                if self.rels[(y, e)]:
                    lat = self.relation_lattice((x, e))
                    if any(row not in lat for row in mat_mul(self.rels[(y, e)], self.act[(fb, e)])):
                        raise ValueError(f"action of basis {fb} not well-defined at degree {e}")
        for x in ring.objects:
            fb = ring.offset[(x, x)] + ring.unit_pos[x]
            for e in (0, 1):
                identity = [{i: 1} for i in range(ngens[(x, e)])]
                if not self.agree((x, e), self.act[(fb, e)], identity):
                    raise ValueError(f"unit of object {x} does not act as identity at degree {e}")
        # functoriality through the structure constants, on letters: row i
        # of rho(u)rho(a) minus row i of rho(u.a) = sum c * rho(b) over the
        # table entry, in one dict, against the relations at (x, e)
        act, table, flat, offset = self.act, ring.table, ring.flat, ring.offset
        letters = _letters(ring)
        for fu, (x, y, _) in enumerate(flat):
            for fa in letters[y]:
                z = flat[fa][1]
                for e in (0, 1):
                    if not (ngens[(x, e)] and ngens[(z, e)]):
                        continue
                    off = offset[(x, z)]
                    rows_u = act[(fu, e)]
                    terms = [(act[(off + t, e)], c) for t, c in table[(fu, fa)]]
                    # a lone basis element acts by its own rows
                    rows_unit = terms[0][0] if len(terms) == 1 and terms[0][1] == 1 else None
                    for i, row in enumerate(act[(fa, e)]):
                        if rows_unit is not None and len(row) == 1:
                            ((k, c),) = row.items()
                            if c == 1 and rows_u[k] == rows_unit[i]:
                                continue
                        diff: dict[int, int] = {}
                        for k, c in row.items():
                            for j, v in rows_u[k].items():
                                diff[j] = diff.get(j, 0) + c * v
                        for rows_b, c in terms:
                            for j, v in rows_b[i].items():
                                diff[j] = diff.get(j, 0) - c * v
                        if any(diff.values()) and diff not in self.relation_lattice((x, e)):
                            raise ValueError(
                                f"action is not functorial on basis pair ({fu}, {fa}) at degree {e}"
                            )


def zero_module(ring: CategoryRing) -> GradedModule:
    return GradedModule(ring, {}, {}, {})


def yoneda(ring: CategoryRing, obj: int, eps: int) -> GradedModule:
    """The representable module of one object, concentrated in one degree.

    Its value at (X, eps) is the free group on the basis words X -> obj,
    and a basis monomial acts by composition, read off the ring table: the
    action rows are those of `free_module(ring, [(obj, eps)])`, shared.
    """
    if obj not in ring.objects:
        raise KeyError(f"unknown object {obj}")
    if eps not in (0, 1):
        raise ValueError(f"unknown degree {eps}: a module has degrees 0 and 1")
    gens = {(x, eps): tuple(ring.word_str(w, x) for w in ring.basis[(x, obj)]) for x in ring.objects}
    return GradedModule(ring, gens, {}, free_module(ring, [(obj, eps)]).act)


def suspend(module: GradedModule) -> GradedModule:
    """Swap the two degree layers at every object (an involution)."""
    ring = module.ring
    gens = {(x, 1 - e): module.gens[(x, e)] for x, e in module.slots}
    rels = {(x, 1 - e): module.rels[(x, e)] for x, e in module.slots}
    act = {(fb, 1 - e): module.act[(fb, e)] for fb, e in module.act}
    return GradedModule(ring, gens, rels, act)


def direct_sum(*modules: GradedModule) -> GradedModule:
    if not modules:
        raise ValueError("need at least one summand")
    ring = modules[0].ring
    if any(m.ring is not ring for m in modules):
        raise ValueError("summands live over different rings")
    gens, rels, act = {}, {}, {}
    for s in modules[0].slots:
        gens[s] = tuple(itertools.chain.from_iterable(m.gens[s] for m in modules))
        rels[s] = _block_diagonal((m.rels[s], m.ngens(s)) for m in modules)
    for key in modules[0].act:
        fb, e = key
        x = ring.flat[fb][0]
        act[key] = _block_diagonal((m.act[key], m.ngens((x, e))) for m in modules)
    return GradedModule(ring, gens, rels, act)


def _block_diagonal(blocks) -> list:
    """The rows of each block (rows, width) in turn, each block's columns
    shifted past the widths of the blocks before it."""
    out, offset = [], 0
    for rows, width in blocks:
        out.extend(({offset + j: c for j, c in row.items()} for row in rows) if offset else rows)
        offset += width
    return out


def trivial_group_module(ring: CategoryRing, degree0=(), degree1=()) -> GradedModule:
    """A graded abelian group as a module over the rank-one ring (k = 1).

    Each degree is a direct sum of cyclic groups; the order 0 stands for Z.
    """
    if len(ring.objects) != 1:
        raise ValueError("graded abelian groups only make sense over the rank-one ring")
    obj = ring.objects[0]
    gens, rels, act = {}, {}, {}
    for e, orders in ((0, degree0), (1, degree1)):
        gens[(obj, e)] = tuple(f"g{i}" for i in range(len(orders)))
        rels[(obj, e)] = [{i: d} for i, d in enumerate(orders) if d]
        act[(0, e)] = [{i: 1} for i in range(len(orders))]
    return GradedModule(ring, gens, rels, act)


def quotient_by_element(module: GradedModule, slot: Slot, vector) -> GradedModule:
    """Quotient by the submodule generated by one element of one slot,
    given as a {column: value} row; a zero value in it is dropped.  Raises
    ValueError naming the slot unless the row fits the slot's generators."""
    ring = module.ring
    x0, e0 = slot
    vec = {j: c for j, c in vector.items() if c} if isinstance(vector, dict) else vector
    _check_rows([vec], None, module.ngens(slot), "element at slot", slot)
    rels = {}
    for s in module.slots:
        w, e = s
        rows = list(module.rels[s])
        if e == e0:
            for fu in range(len(ring.basis[(w, x0)])):
                rows.extend(mat_mul([vec], module.act[(ring.offset[(w, x0)] + fu, e0)]))
        rels[s] = hnf(rows)
    return GradedModule(module.ring, module.gens, rels, module.act)


def yoneda_cyclic_quotient(ring: CategoryRing, obj: int, eps: int, src: int, pos: int) -> GradedModule:
    """Quotient of the representable module of `obj` by one basis monomial
    of its value at `src` (the cyclic-quotient family used in the
    projective-dimension search)."""
    return quotient_by_element(yoneda(ring, obj, eps), (src, eps), {pos: 1})


# -- module maps -----------------------------------------------------


@dataclass
class ModuleMap:
    """A degree-preserving map, one matrix per slot (row convention).

    `mats` holds sparse rows, as `GradedModule` takes them, kept as they
    are; a slot it leaves out has no rows.  `check` checks that they fit.
    Treat as immutable: the rows of its kernel are kept on the map once
    `_kernel_rows` has computed them.
    """

    source: GradedModule
    target: GradedModule
    mats: dict

    def __post_init__(self):
        self.mats = {s: tuple(self.mats.get(s, ())) for s in self.source.slots}
        self._kernel = None

    def is_zero(self) -> bool:
        return not any(any(rows) for rows in self.mats.values())

    def check(self) -> None:
        """Check the shape of every matrix, then well-definedness and
        equivariance; raises ValueError on failure."""
        M, N = self.source, self.target
        for s in M.slots:
            _check_rows(self.mats[s], M.ngens(s), N.ngens(s), "map at slot", s)
        for s in M.slots:
            lat = N.relation_lattice(s)
            if any(row not in lat for row in mat_mul(M.rels[s], self.mats[s])):
                raise ValueError(f"map not well-defined at {s}")
        for fb, (x, y, _) in enumerate(M.ring.flat):
            for e in (0, 1):
                lhs = mat_mul(M.act[(fb, e)], self.mats[(x, e)])
                rhs = mat_mul(self.mats[(y, e)], N.act[(fb, e)])
                if not N.agree((x, e), lhs, rhs):
                    raise ValueError(f"map does not commute with basis {fb} at degree {e}")


def compose_maps(first: ModuleMap, second: ModuleMap) -> ModuleMap:
    """first then second."""
    if first.target is not second.source:
        raise ValueError("maps are not composable")
    mats = {s: mat_mul(first.mats[s], second.mats[s]) for s in first.source.slots}
    return ModuleMap(first.source, second.target, mats)


def identity_map(module: GradedModule) -> ModuleMap:
    return ModuleMap(module, module, {s: [{i: 1} for i in range(module.ngens(s))] for s in module.slots})


# -- solution lattices ------------------------------------------------


def _kernel_head(rows, keep: int) -> list:
    """HNF basis of the x with x * rows[:keep] in the span of rows[keep:]:
    the left kernel of `rows`, cut to its first `keep` columns."""
    return hnf([{j: c for j, c in k.items() if j < keep} for k in left_kernel(rows)])


def _echelon_lattice(basis) -> Lattice:
    """The lattice whose own rows are exactly the sparse rows of `basis`.

    `basis` must be in row-echelon form, as every HNF from `_kernel_head`
    is; otherwise `add` would rewrite its rows, and coordinates over the
    lattice would not be coordinates over `basis`, so that raises
    ValueError.
    """
    lat = Lattice()
    for row in basis:
        lat.add(row)
    # adding echelon rows in order leaves each one untouched
    if lat.rows != basis:
        raise ValueError("coordinates need an echelon basis")
    return lat


def _coordinates(lat: Lattice, rows, what: str) -> list:
    """Coordinates of each row over the rows of `lat`, which must come from
    `_echelon_lattice`; every row must lie in its span, else this raises
    ValueError(what).

    The basis is echelon, so its rows are independent and the coordinates
    of a row are unique: back-substitution along the pivots
    (`Lattice.coordinates`) finds them without any elimination, and one
    lattice serves every row.
    """
    coords = []
    for row in rows:
        c = lat.coordinates(row)
        if c is None:
            raise ValueError(what)
        coords.append(c)
    return coords


# -- free modules and covers ------------------------------------------


class FreeModule(GradedModule):
    """Finite direct sum of representable modules, one per entry."""

    def __init__(self, ring: CategoryRing, entries):
        """Raises ValueError naming an entry that is not an (object,
        degree) pair of `ring`."""
        self.entries = tuple(entries)
        for entry in self.entries:
            if entry[0] not in ring.objects or entry[1] not in (0, 1):
                raise ValueError(f"free module entry {entry}: needs an object of the ring and a degree 0 or 1")
        gens, act = {}, {}
        blocks = {}  # slot -> {entry index: (start, size)}
        for x in ring.objects:
            for e in (0, 1):
                names = []
                blk = {}
                for j, (obj, eps) in enumerate(self.entries):
                    if eps != e:
                        continue
                    blk[j] = (len(names), len(ring.basis[(x, obj)]))
                    names.extend(f"e{j}:{ring.word_str(w, x)}" for w in ring.basis[(x, obj)])
                gens[(x, e)] = tuple(names)
                blocks[(x, e)] = blk
        table = ring.table
        for fb, (x, y, _) in enumerate(ring.flat):
            for e in (0, 1):
                rows = []
                for j, (_, size) in blocks[(y, e)].items():
                    xstart = blocks[(x, e)][j][0]
                    if not xstart and len(self.entries) > 1:
                        rows += free_module(ring, self.entries[j:j + 1]).act[(fb, e)]
                        continue
                    # "fb then u" for each basis word u: y -> obj, shifted to entry j's block
                    base = ring.offset[(y, self.entries[j][0])]
                    rows += [{xstart + t: c for t, c in table[(fb, u)]} for u in range(base, base + size)]
                act[(fb, e)] = rows
        super().__init__(ring, gens, {}, act)
        self.blocks = blocks

    def unit_index(self, j: int) -> tuple[Slot, int]:
        """Slot and generator position of the Yoneda unit of entry j."""
        obj, eps = self.entries[j]
        slot = (obj, eps)
        return slot, self.blocks[slot][j][0] + self.ring.unit_pos[obj]


# free modules kept per ring; a seeded query round over the k = 4 and
# k = 6 rings covers with 47 distinct entry tuples
FREE_MODULES_KEPT = 256


def free_module(ring: CategoryRing, entries) -> FreeModule:
    """The free module on `entries`, built on first use and kept on the
    ring, so every cover with the same entry tuple shares one object.
    Past FREE_MODULES_KEPT entry tuples the oldest one is dropped.

    Unlike every other module, this one outlives the call that asked for
    it, which is safe because nothing changes a module once it is built:
    no reader writes to its `gens`, `rels`, `act` or `blocks`, or to a
    lattice from `relation_lattice` (`free_cover` grows copies of them),
    and a cover's kernel rows are kept on the `ModuleMap`, not on its
    source.  `yoneda` and the first block of each slot of a larger free
    module reuse the rows of the free module on their one entry.
    `FreeModule(ring, entries)` still builds a fresh module.
    """
    key = tuple(entries)
    kept = ring._free_modules
    free = kept.get(key)
    if free is None:
        free = kept[key] = FreeModule(ring, key)
        if len(kept) > FREE_MODULES_KEPT:
            del kept[next(iter(kept))]
    return free


def free_cover(module: GradedModule, order=None, generators=None) -> ModuleMap:
    """Surjection from a free module onto the submodule of `module`
    generated by `generators[s]`, sparse rows over the generators of
    module(s) at each slot s; by default every generator, which covers
    `module` itself.

    Scans the listed generators slot by slot, adds a Yoneda entry for
    every generator not already inside the submodule generated by the
    earlier entries, then prunes entries that the remaining ones cover
    (so a representable module is covered by its own unit alone).  The
    Yoneda unit of each entry maps to its generator.  `order` optionally
    permutes the scan order (a permutation of the flat generator list),
    which changes the cover but not any derived invariant.

    The images of the entry on generator g of slot (x, e), g times the
    action of each basis element into x, are computed once per entry and
    object, and a unit generator's images are rows of `act` itself.
    """
    ring = module.ring
    units = generators is None
    if units:
        generators = {s: [{p: 1} for p in range(module.ngens(s))] for s in module.slots}
    listed = [(s, p) for s in module.slots for p in range(len(generators[s]))]
    if order is not None:
        if sorted(order) != list(range(len(listed))):
            raise ValueError("order must permute the generator list")
        listed = [listed[i] for i in order]

    kept = {}  # (entry, object) -> the entry's images at that object

    def images(entry, slot):
        # the images at `slot` of the Yoneda entry on generator p of s
        (x0, e0), p = entry
        w, e = slot
        if e != e0:
            return ()
        if (entry, w) not in kept:
            g = generators[(x0, e0)][p]
            acts = (module.act[(ring.offset[(w, x0)] + fu, e0)] for fu in range(len(ring.basis[(w, x0)])))
            kept[(entry, w)] = [act[p] if units else mat_mul([g], act)[0] for act in acts]
        return kept[(entry, w)]

    # copies, since the scan grows them
    covered = {s: module.relation_lattice(s).copy() for s in module.slots}
    chosen = []
    for (s, p) in listed:
        if generators[s][p] in covered[s]:
            continue
        chosen.append((s, p))
        for w in ring.objects:
            slot = (w, s[1])
            for row in images((s, p), slot):
                covered[slot].add(row)

    # prune entries covered by the others, in scan order; whether entry
    # (s, p) is covered reads only the lattice at s
    i = 0
    while i < len(chosen):
        s, p = chosen[i]
        lat = module.relation_lattice(s).copy()
        for other in chosen[:i] + chosen[i + 1 :]:
            for row in images(other, s):
                lat.add(row)
        if generators[s][p] in lat:
            chosen.pop(i)
        else:
            i += 1

    free = free_module(ring, [s for s, _ in chosen])
    # every generator of the free module lies in exactly one entry's block
    mats = {s: [None] * free.ngens(s) for s in module.slots}
    for j, (s, p) in enumerate(chosen):
        for w in ring.objects:
            slot = (w, s[1])
            start, size = free.blocks[slot][j]
            mats[slot][start : start + size] = images((s, p), slot)
    return ModuleMap(free, module, mats)


def _kernel_rows(f: ModuleMap) -> dict:
    """Per slot, the HNF basis of the kernel of f taken modulo the target's
    relations: the x over the source generators with x * f in the
    relation lattice of the target.  Computed on first use and kept on
    the map, so the split test and the next level's cover share it: read
    it, never mutate it."""
    if f._kernel is None:
        M, N = f.source, f.target
        f._kernel = {s: _kernel_head([*f.mats[s], *N.rels[s]], M.ngens(s)) for s in M.slots}
    return f._kernel


def kernel_of(f: ModuleMap) -> tuple[GradedModule, ModuleMap]:
    """Objectwise integer kernel with its induced action and inclusion.

    The kernel's generators at slot s are the rows of the kernel basis
    B(s) of f (`_kernel_rows`).  Row p of the action of (basis fb: x -> y,
    degree e) is the coordinates of B(y, e)[p] * M.act[(fb, e)] over the
    echelon lattice of B(x, e).  `f` must be a module map, so that its
    kernel is stable under the action; otherwise this raises ValueError.
    """
    M = f.source
    basis_rows = _kernel_rows(f)
    lats = {s: _echelon_lattice(basis_rows[s]) for s in M.slots}
    gens = {s: tuple(f"k{i}" for i in range(len(basis_rows[s]))) for s in M.slots}
    rels = {s: _coordinates(lats[s], M.rels[s], "module relations must lie in the kernel") for s in M.slots}
    act = {}
    for fb, (x, y, _) in enumerate(M.ring.flat):
        for e in (0, 1):
            imgs = mat_mul(basis_rows[(y, e)], M.act[(fb, e)])
            act[(fb, e)] = _coordinates(lats[(x, e)], imgs, "kernel is not action-stable")
    kernel = GradedModule(M.ring, gens, rels, act)
    return kernel, ModuleMap(kernel, M, basis_rows)


@dataclass
class Resolution:
    """An exact complex of free modules augmented over `module`.

    `frees[n]` covers the n-th syzygy; `differentials[n-1]` is the map
    frees[n] -> frees[n-1]; `augmentation` maps frees[0] onto the module.
    """

    module: GradedModule
    augmentation: ModuleMap
    differentials: list
    frees: list


class _Syzygies:
    """The differentials of one module's resolution, built level by level.

    Level 0 is the free cover d_0: F_0 -> M.  Level n >= 1 covers the n-th
    syzygy, the submodule of F_{n-1} that K_{n-1} = `_kernel_rows(d_{n-1})`
    generates, so it is the differential d_n: F_n -> F_{n-1} itself.  A
    seeded `rng` shuffles each scan as `free_resolution` documents.  A
    chain serves one call, and every level a query reads comes from it;
    only its free modules outlive the call, kept on the ring.

    Covering each syzygy as a module on its own generators (`kernel_of`)
    gives the same chain.  Let C be that cover, onto M_n, and B = K_{n-1}(s)
    at each slot s; M_n has no relations, since F_{n-1} has none.
      - B is echelon, so x |-> x B is injective.  Generator p of M_n is
        B[p], and its image y under a basis element b has y B = B[p] * b,
        the image here.  So every "lies in the span" answer of the scan and
        of the prune is the same, and the same entries are chosen.
      - d_n = C B: C followed by the inclusion of M_n in F_{n-1}.
      - x d_n = 0 exactly when x C = 0.  Neither kernel has a relation
        block, and the HNF is unique, so K_n is the same.
      - `_splits` asks for tau with tau(K_n) = 0 and tau d_n = d_n on the
        units of F_n.  tau d_n - d_n = (tau C - C) B, so that is tau C = C,
        with an empty slack block in both systems: they decide the same.
    """

    def __init__(self, module: GradedModule, rng=None):
        self.module = module
        self.rng = rng
        self.covers = []

    def cover(self, n: int) -> ModuleMap:
        while len(self.covers) <= n:
            if self.covers:
                prev = self.covers[-1]
                module, generators = prev.source, _kernel_rows(prev)
            else:
                module, generators = self.module, None
            order = None
            if self.rng is not None:
                order = list(range(sum(map(len, (generators or module.gens).values()))))
                self.rng.shuffle(order)
            self.covers.append(free_cover(module, order, generators))
        return self.covers[n]

    def splits(self, n: int) -> bool:
        """Is the n-th syzygy projective, that is, does its cover split?

        Reads the cover's kernel rows, which level n+1 covers.  Only the
        module itself can carry torsion, which rules out a split at once:
        a syzygy is a submodule of a free module.
        """
        if n == 0:
            m = self.module
            if any(m.value_invariants(s).torsion for s in m.slots):
                return False
        return _splits(self.cover(n))

    def resolution(self, length: int) -> Resolution:
        self.cover(length)
        covers = self.covers[: length + 1]
        return Resolution(self.module, covers[0], covers[1:], [cov.source for cov in covers])


def free_resolution(module: GradedModule, length: int, rng=None) -> Resolution:
    """Iterated cover-of-kernel resolution of the given length.

    Deterministic by default; passing a seeded random.Random shuffles each
    cover's generator scan, producing a different but equivalent
    resolution (used to test resolution independence).
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    return _Syzygies(module, rng).resolution(length)


# -- maps out of free modules ---------------------------------------------


def _hom_free_into(F: FreeModule, N: GradedModule) -> list:
    """Yoneda layout of the module maps F -> N.  Such a map is fixed by
    its values on the units of F's entries, any one vector of N(slot) per
    entry slot, so its unknowns are those vectors, entry after entry.
    Returns the first unknown of each entry, with their number last."""
    return list(itertools.accumulate((N.ngens(s) for s in F.entries), initial=0))


def _yoneda_images(F: FreeModule, N: GradedModule, vectors: list, starts: list) -> list:
    """tau(v) for each (slot, v) of `vectors`, v a row over the generators
    of F(slot), as a linear function of the unknowns of a map tau: F -> N
    laid out by `_hom_free_into` (first unknowns `starts`).

    Generator g of F(s) is e_j.w, the unit of entry j moved by a basis
    monomial w, and tau(e_j.w) = tau(e_j) * N.act[(w, eps_j)].  Each v gets
    one column per generator of N(slot), in the order of `vectors`, so the
    columns are laid out as the unknowns of maps out of a free module on
    those slots.  Returns one row per unknown over those columns, without
    zeros where terms cancel.
    """
    ring = F.ring
    rows = [{} for _ in range(starts[-1])]
    gens = {}  # slot -> per generator e_j.w of F(slot): (first unknown of entry j, action of w)
    neq = 0
    for s, v in vectors:
        if s not in gens:
            x, e = s
            gens[s] = [
                (starts[j], N.act[(ring.offset[(x, F.entries[j][0])] + u, e)])
                for j, (_, size) in F.blocks[s].items()
                for u in range(size)
            ]
        for g, c in v.items():
            v0, act = gens[s][g]
            for t, arow in enumerate(act):
                row = rows[v0 + t]
                for q, a in arow.items():
                    row[neq + q] = row.get(neq + q, 0) + c * a
        neq += N.ngens(s)
    return [row if all(row.values()) else {q: c for q, c in row.items() if c} for row in rows]


def _kernel_equations(cover: ModuleMap, N: GradedModule):
    """The equations tau(K) = 0 for a map tau: F -> N out of the cover's
    free source, K = `_kernel_rows(cover)`.  Returns the first unknown of
    each entry (`_hom_free_into`), the (slot, k) pairs of the rows k of
    every K(s), slot after slot, and their `_yoneda_images`: one row per
    unknown, with N.ngens(s) columns per pair."""
    F, kernel = cover.source, _kernel_rows(cover)
    starts = _hom_free_into(F, N)
    vectors = [(s, k) for s in F.slots for k in kernel[s]]
    return starts, vectors, _yoneda_images(F, N, vectors, starts)


def _cohomology(cover: ModuleMap, N: GradedModule, n: int):
    """Ext^n(M, N) on level n of a chain alone: `cover` is d_n: F_n -> F_{n-1}
    (`_Syzygies`), or the free cover F_0 -> M when n = 0, and K_n =
    `_kernel_rows(cover)`.  Returns the invariants of
        ker(Hom(F_n, N) -> Hom(K_n, N)) / im Hom(F_{n-1}, N),
    and the lattice of cocycles, whose rows are its HNF basis.

    A map tau: F_n -> N is its unit values t (`_hom_free_into`), each
    t_j in N(slot_j), which is presented by N's relations; tau is zero
    into N exactly when every t_j lies in N's relations.
      - Cocycles: the t with tau(k) in N's relations for every row k of
        every K_n(s) (`_kernel_equations`).
      - Coboundaries: the t in N's relations and, for n >= 1, the maps
        d_n then sigma, for sigma: F_{n-1} -> N, read on the units e_j of
        F_n as sigma(d_n(e_j)) (`_yoneda_images` on F_{n-1}); for n = 0
        there are no more.

    This is the n-th cohomology of Hom(F_*, N), whose cocycles are the
    tau with d_{n+1} then tau zero, though no level n+1 is built.  K_n(s)
    is the whole kernel of d_n at slot s: for n = 0 it is taken modulo M's
    relations, which makes it the kernel of F_0 -> M.  That kernel is a
    submodule, the (n+1)-th syzygy, and d_{n+1} covers it, so the image of
    d_{n+1} at s is the Z-span of K_n(s).  A map out of F_{n+1} is zero
    exactly when it is zero at every slot, so d_{n+1} then tau is zero
    into N exactly when tau(x) lies in N's relations for every x in that
    span at every s.  tau is additive and N's relations are a subgroup, so
    that holds exactly when tau(k) does for every row k.  The cocycle
    lattice is therefore the same; the coboundaries are the rows of
    Hom(d_n, N) in both, and the invariants are equal.  For n = 0 the
    cocycles are the maps that vanish on K_0, which is Hom(M, N), as
    `HomGroup` proves.
    """
    F = cover.source
    starts, vectors, rows = _kernel_equations(cover, N)
    rels_c = _block_diagonal((N.rels[s], N.ngens(s)) for s, _ in vectors)
    basis = _kernel_head([*rows, *rels_c], starts[-1])
    lat = _echelon_lattice(basis)
    coboundaries = []
    if n:
        G = cover.target
        units = (F.unit_index(j) for j in range(len(F.entries)))
        images = [(slot, cover.mats[slot][upos]) for slot, upos in units]
        coboundaries = _yoneda_images(G, N, images, _hom_free_into(G, N))
    rels_b = _block_diagonal((N.rels[s], N.ngens(s)) for s in F.entries)
    coords = _coordinates(lat, [*coboundaries, *rels_b], "image does not lie in the kernel")
    free, tors = group_invariants(coords, len(basis))
    return AbInvariants(free, tors), lat


# -- Hom ----------------------------------------------------------------


@dataclass
class HomGroup:
    """The group of module maps M -> N with explicit generating maps.

    It is computed on the free cover pi: F -> M (`free_cover`) and its
    kernel K, taken modulo M's relations (`_kernel_rows`).  By Yoneda a map
    tau: F -> N is any choice of vectors t_j = tau(e_j) in N(slot_j), e_j
    the unit of entry j, laid out by `_hom_free_into`, and then
    tau(e_j.w) = t_j * N.act[w].  Two such maps are equal as maps into N
    exactly when each t_j agrees modulo N's relations.  Since pi is onto,
    M = F/K, and f |-> f pi is a bijection from the module maps M -> N onto
    the tau that vanish on K.  So Hom(M, N) is S/Z, where
      - S, the solution lattice, holds the t with tau(k) in N's relations
        for every row k of each K(s) (`_kernel_equations`), which is
        tau(K) = 0 in N since tau is additive;
      - Z holds the t with every t_j in N's relations, the tau that are
        zero into N; Z lies in S, since N's action keeps its relations.
    `invariants` is the isomorphism type of S/Z, which is
    `_cohomology(pi, N, 0)`: Hom(M, N) is Ext^0 on level 0 of M's chain.

    `maps` holds one map M -> N per row t of S's HNF basis: the f with
    f pi = tau, so f(m) = tau(x) for any x in F with pi(x) = m.  Such lifts
    exist because pi is onto modulo M's relations (`_hom_maps`).
    """

    invariants: AbInvariants
    maps: list
    _cover: ModuleMap = None
    _target: GradedModule = None
    _solutions: Lattice = None

    def is_zero(self) -> bool:
        return self.invariants.is_zero()

    def coordinates_of(self, f: ModuleMap):
        """Integer coordinates {index into `maps`: coefficient} of a map
        f: M -> N, with the sum of c * maps[i] equal to f modulo N's
        relations; None unless f's matrices pass `ModuleMap.check` as a
        map M -> N.  Read off t_j = pi(e_j) f, the values f pi takes on the
        units of the cover."""
        cover = self._cover
        f = ModuleMap(cover.target, self._target, f.mats)
        try:
            f.check()
        except ValueError:
            return None
        t, start = {}, 0
        for j, slot in enumerate(cover.source.entries):
            _, upos = cover.source.unit_index(j)
            (row,) = mat_mul([cover.mats[slot][upos]], f.mats[slot])
            t.update({start + q: c for q, c in row.items()})
            start += f.target.ngens(slot)
        return self._solutions.coordinates(t)


def hom_module(M: GradedModule, N: GradedModule) -> HomGroup:
    """Degree-preserving module maps M -> N, as a group with generators:
    the solutions t of the equations tau(K) = 0 on the Yoneda units of M's
    free cover, modulo the t in N's relations (see `HomGroup`)."""
    if M.ring is not N.ring:
        raise ValueError("modules live over different rings")
    cover = free_cover(M)
    invariants, solutions = _cohomology(cover, N, 0)
    return HomGroup(invariants, _hom_maps(cover, N, solutions.rows), cover, N, solutions)


def _hom_maps(cover: ModuleMap, N: GradedModule, solutions: list) -> list:
    """For each t in `solutions`, the module map f: M -> N with f pi = tau,
    where pi: F -> M is the cover and tau(e_j) is entry j's block of t, as
    `_hom_free_into` lays it out.

    f(m) = tau(x) for a lift x of m, so f is tau on lifts of M's
    generators, read off `_yoneda_images`.  One left kernel per slot lifts
    every generator of M(s): take the rows of the identity on M(s), of pi
    at s and of M's relations R at s, n = M.ngens(s) columns.  The
    kernel holds the (a, x, y) with a + x pi + y R = 0.  `free_cover`
    puts each generator e_p of M(s) in the span of pi's and R's rows, so
    some (e_p, x, y) lies in the kernel, and the kernel's projection onto
    its first n columns is all of Z^n.  Its HNF therefore has pivots 1 on
    those columns and zeros above them: its first n rows are
    (e_p, x_p, y_p), and -x_p pi = e_p modulo R.  A cover that is not
    onto fails that, and raises ValueError.
    """
    if not solutions:
        return []
    F, M = cover.source, cover.target
    lifts = []
    for s in M.slots:
        n = M.ngens(s)
        if not N.ngens(s):
            lifts.extend((s, {}) for _ in range(n))  # every map is zero at s
            continue
        ker = left_kernel([*({p: 1} for p in range(n)), *cover.mats[s], *M.rels[s]])
        if [{j: c for j, c in row.items() if j < n} for row in ker[:n]] != [{p: 1} for p in range(n)]:
            raise ValueError("the cover is not onto")
        lifts.extend((s, {g - n: -c for g, c in row.items() if n <= g < n + F.ngens(s)}) for row in ker[:n])
    rows = _yoneda_images(F, N, lifts, _hom_free_into(F, N))
    cols = list(itertools.accumulate((N.ngens(s) for s, _ in lifts), initial=0))
    maps = []
    for t in solutions:
        # f(e_p) = tau(x_p), one block of columns per lift x_p
        (image,) = mat_mul([t], rows)
        values = ({q - a: c for q, c in image.items() if a <= q < b} for a, b in zip(cols, cols[1:]))
        maps.append(ModuleMap(M, N, {s: [next(values) for _ in range(M.ngens(s))] for s in M.slots}))
    return maps


# -- Ext ---------------------------------------------------------------


@dataclass
class ExtResult:
    """Invariant factors of one Ext group, per Z/2-degree."""

    degree: int
    by_degree: dict

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.by_degree.values())

    def __str__(self):
        return "; ".join(f"degree {e}: {v}" for e, v in sorted(self.by_degree.items()))


def ext(M: GradedModule, N: GradedModule, n: int, rng=None) -> ExtResult:
    """n-th Ext of M into N, per Z/2-degree.

    Computed as the n-th cohomology of Hom(F_*, N) for a free resolution
    F_* of M, on levels 0..n of one chain (`_Syzygies`) and the kernel
    rows of level n (`_cohomology`); no level n+1 is built.  A seeded
    `rng` shuffles the scans of those levels only, as `free_resolution`
    documents.  The degree-1 component is the group of degree-shifting
    maps (equivalently Ext into the suspension).
    """
    if M.ring is not N.ring:
        raise ValueError("modules live over different rings")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return _ext_groups(_Syzygies(M, rng), N, n)


def _ext_groups(syzygies: _Syzygies, N: GradedModule, n: int) -> ExtResult:
    """Ext^n(syzygies.module, N), read on level n of the chain alone; the
    degree-shifting maps into N are the maps into its suspension."""
    cover = syzygies.cover(n)
    return ExtResult(n, {shift: _cohomology(cover, target, n)[0] for shift, target in enumerate((N, suspend(N)))})


# -- projectivity ------------------------------------------------------


def is_projective(module: GradedModule) -> bool:
    """Does the canonical free cover split?

    Decided by `_splits` on the cover.  A slot with torsion rules
    splitting out immediately, since free modules have torsion-free
    values.
    """
    return _Syzygies(module).splits(0)


def _splits(cover: ModuleMap) -> bool:
    """Does the free cover pi: F -> M have a section?  Read on the cover's
    kernel rows `_kernel_rows(cover)`: per slot s, a Z-basis of K(s),
    where K = ker pi is taken modulo the relations of M.

    A section sigma (sigma then pi is the identity of M) exists iff some
    module map tau: F -> F has tau(K) = 0 and tau then pi equal to pi.
    If sigma exists, tau = pi then sigma will do: it kills K = ker pi, and
    pi then sigma then pi is pi.  Conversely, tau kills K, so it factors
    through M = F/K as tau = pi then sigma, for the module map sigma that
    sends pi(f) to tau(f); then pi, sigma, pi in turn give tau then pi,
    which is pi, and since pi is onto, sigma then pi is the identity.

    By Yoneda a map tau out of the free module F is any choice of vectors
    tau(e_j) in F(slot_j), e_j the unit of entry j at its slot, and then
    tau(e_j.w) = tau(e_j) * F.act[(w, eps_j)] for every basis monomial w
    into the entry's object.  So the unknowns are the coordinates of the
    tau(e_j), entry after entry (`_hom_free_into(F, F)`),
    sum_j F.ngens(slot_j) of them, where a section M -> F has
    sum_s M.ngens(s) * F.ngens(s).  The equations are, in this order,
      - tau(k) = 0 for every row k of every K(s), slot after slot: exact,
        since F is free (`_kernel_equations` with N = F, as for Hom and
        Ext);
      - tau(e_j) * pi = pi(e_j) at slot_j, entry after entry, modulo the
        relations of M there, which become slack rows after the unknowns.
    Two module maps out of F agree once they agree on the units, so the
    second block is exactly tau then pi equal to pi.
    """
    F, M = cover.source, cover.target
    var, vectors, rows = _kernel_equations(cover, F)
    neq = sum(F.ngens(s) for s, _ in vectors)
    target = {}
    for j, slot in enumerate(F.entries):
        pi = cover.mats[slot]
        for t, prow in enumerate(pi):
            rows[var[j] + t].update({neq + q: c for q, c in prow.items()})
        _, upos = F.unit_index(j)
        target.update({neq + q: c for q, c in pi[upos].items()})
        rows.extend({neq + q: c for q, c in rrow.items()} for rrow in M.rels[slot])
        neq += M.ngens(slot)
    return solve_left(rows, target) is not None


def projective_dimension(module: GradedModule, cap: int):
    """Least n <= cap whose n-th syzygy is projective, else ABOVE_CAP:
    the first level of one chain (`_Syzygies`) whose cover splits."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    syzygies = _Syzygies(module)
    for n in range(cap + 1):
        if syzygies.splits(n):
            return n
    return ABOVE_CAP


@dataclass
class UctTerms:
    """End terms of the two-sided universal-coefficient sequence.

    `hom` is the degree-0 Ext (the graded Hom), `ext1_shifted` the first
    Ext of the suspended module.  When `pd_within_one` is False the two
    groups are still correct Ext groups but do not assemble into the
    short exact sequence, whose hypothesis is a length-one resolution.
    """

    hom: ExtResult
    ext1_shifted: ExtResult
    pd_within_one: bool


def uct_terms(M: GradedModule, N: GradedModule) -> UctTerms:
    """The UCT end terms of M and N, read off levels 0 and 1 of one chain
    of M (`_Syzygies`) and their kernel rows.  Suspending a resolution of
    M resolves `suspend(M)`, and Hom out of a suspended free module into N
    in degree e is Hom out of the free module in degree 1 - e, so
    Ext^1(suspend(M), N) in degree e is Ext^1(M, N) in degree 1 - e.
    Whether pd(M) <= 1 is read off the same two levels.
    """
    if M.ring is not N.ring:
        raise ValueError("modules live over different rings")
    syzygies = _Syzygies(M)
    ext1 = _ext_groups(syzygies, N, 1)
    shifted = ExtResult(1, {e: ext1.by_degree[1 - e] for e in (0, 1)})
    within_one = syzygies.splits(0) or syzygies.splits(1)
    return UctTerms(_ext_groups(syzygies, N, 0), shifted, within_one)
