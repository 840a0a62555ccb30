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
rows.  `GradedModule` and `ModuleMap` store the rows they are given;
`GradedModule.validate` and `ModuleMap.check` check their shapes.  Every
output of `intlin` is such a row, and coordinates are rows {basis row
index: coefficient}, so dense rows remain only in the JSON files, and
`serialize.module_from_dict` is where they become sparse rows.

The completed rings in scope are concentrated in degree 0 (every
presentation generator is an even morphism), so module maps and actions
preserve the Z/2-degree and suspension simply swaps the two layers; if a
presentation ever carried odd generators the degree bookkeeping here
would need a shifted action table, which is deliberately not guessed at.

The zero module is a first-class citizen: every operation accepts empty
generator lists, and matrices keep explicit (possibly zero) shapes.

A module map M -> N is solved for as one integer vector: the entry at
row p, column q of its matrix at slot s (generator p of M(s) to generator
q of N(s)) is variable var_off[s] + p * gn + q, where gn = N.ngens(s) and
var_off lays the slots out one after another in `M.slots` order.
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


def _columns(rows, ncols: int) -> list:
    """The nonzero entries (row index, value) of each column of sparse rows."""
    cols = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, c in row.items():
            cols[j].append((i, c))
    return cols


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
        letters[form.source].update(off + t for t, c in enumerate(form.coeffs) if c)
    return {x: sorted(fbs) for x, fbs in letters.items()}


class GradedModule:
    """A finitely presented graded right module; treat as immutable."""

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
            lat = self._rel_lattices[slot] = Lattice(self.ngens(slot))
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
        actions.

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
        # functoriality through the structure constants, on letters
        letters = _letters(ring)
        table = ring.sparse_table()
        for fu, (x, y, _) in enumerate(ring.flat):
            for fa in letters[y]:
                z = ring.flat[fa][1]
                off = ring.offset[(x, z)]
                prod = {off + t: c for t, c in table[(fu, fa)].items()}
                for e in (0, 1):
                    if not (ngens[(x, e)] and ngens[(z, e)]):
                        continue
                    lhs = mat_mul(self.act[(fa, e)], self.act[(fu, e)])
                    if not self.agree((x, e), lhs, _element_action(self, prod, (z, e))):
                        raise ValueError(
                            f"action is not functorial on basis pair ({fu}, {fa}) at degree {e}"
                        )


def _element_action(module: GradedModule, vec: dict, slot: Slot) -> list:
    """Sparse rows of the action of the ring element sum c * b, over
    vec = {flat basis index b: c} with every b ending at slot's object, on
    the generators at `slot`: row i is the sum of c * (row i of b's action)."""
    e, n = slot[1], module.ngens(slot)
    if len(vec) == 1 and 1 in vec.values():  # a basis element acts by its own rows
        return module.act[(next(iter(vec)), e)]
    # row i of the result takes row i of each b's action, stacked b after b
    stack = [row for fb in vec for row in module.act[(fb, e)]]
    coeffs = list(vec.values())
    return mat_mul([{k * n + i: c for k, c in enumerate(coeffs)} for i in range(n)], stack)


def zero_module(ring: CategoryRing) -> GradedModule:
    return GradedModule(ring, {}, {}, {})


def yoneda(ring: CategoryRing, obj: int, eps: int) -> GradedModule:
    """The representable module of one object, concentrated in one degree.

    Its value at (X, eps) is the free group on the basis words X -> obj,
    and a basis monomial acts by composition, read off the ring table.
    """
    if obj not in ring.objects:
        raise KeyError(f"unknown object {obj}")
    gens = {(x, eps): tuple(ring.word_str(w, x) for w in ring.basis[(x, obj)]) for x in ring.objects}
    table = ring.sparse_table()
    act = {}
    for fb, (_, y, _) in enumerate(ring.flat):
        # one row per basis word u: y -> obj, the table row of "fb then u"
        base = ring.offset[(y, obj)]
        act[(fb, eps)] = [table[(fb, u)] for u in range(base, base + len(ring.basis[(y, obj)]))]
    return GradedModule(ring, gens, {}, act)


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
        rels[s] = hnf(rows, module.ngens(s))
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


# -- Hom --------------------------------------------------------------


@dataclass
class HomGroup:
    """The group of module maps M -> N with explicit generating maps.

    `maps` is a basis of the full solution lattice; the group itself is
    that lattice modulo maps landing in the relation lattice of N, with
    `invariants` its isomorphism type.
    """

    invariants: AbInvariants
    maps: list
    _lattice: list = None
    _var_off: dict = None
    _nvars: int = 0

    def is_zero(self) -> bool:
        return self.invariants.is_zero()

    def coordinates_of(self, f: ModuleMap):
        """Integer coordinates {index into `maps`: coefficient} of a map,
        or None if the map is not a module map M -> N at all."""
        vec = _map_to_vector(f, self._var_off)
        return _echelon_lattice(self._lattice, self._nvars).coordinates(vec)


class _MapSystem:
    """The integer system whose solutions are the module maps M -> N.

    Variables follow the layout in the module docstring.  Equations come in
    blocks: a block asks that one row over the generators of some slot lie
    in a relation lattice, and each relation row of that lattice becomes a
    slack row.  The system is solved for x with x * rows() equal to the
    target; the slack part of x is dropped.
    """

    def __init__(self, M: GradedModule, N: GradedModule):
        self.var_off = {}
        self.nvars = 0
        for s in M.slots:
            self.var_off[s] = self.nvars
            self.nvars += M.ngens(s) * N.ngens(s)
        self.equations = []  # each a dict var -> coeff
        self.slack_blocks = []  # (first equation index of the block, relation rows)

        # well-defined: each relation of M maps into the relations of N
        for s in M.slots:
            gn, off = N.ngens(s), self.var_off[s]
            for rrow in M.rels[s]:
                self.add([{off + p * gn + q: c for p, c in rrow.items()} for q in range(gn)], N.rels[s])

        # commutes with the action of every basis monomial
        for fb, (x, y, _) in enumerate(M.ring.flat):
            for e in (0, 1):
                sx, sy = (x, e), (y, e)
                gnx, gny = N.ngens(sx), N.ngens(sy)
                xoff = self.var_off[sx]
                ncol = _columns(N.act[(fb, e)], gnx)
                for gy, arow in enumerate(M.act[(fb, e)]):
                    ybase = self.var_off[sy] + gy * gny
                    exprs = []
                    for q in range(gnx):
                        expr = {xoff + p * gnx + q: c for p, c in arow.items()}
                        for qq, c in ncol[q]:
                            key = ybase + qq
                            expr[key] = expr.get(key, 0) - c
                        exprs.append(expr)
                    self.add(exprs, N.rels[sx])

    def add(self, exprs, rels) -> None:
        """Append one block of equations, taken modulo the span of `rels`."""
        if rels:
            self.slack_blocks.append((len(self.equations), rels))
        self.equations.extend(exprs)

    def rows(self) -> list:
        """Sparse matrix: one row per variable, then the slack rows.

        Each row is a dict {equation index: coefficient} over the
        len(self.equations) columns and holds no zero entry; the
        commutation equations can cancel a variable to an explicit zero
        (on the unit, say), which is dropped here.
        """
        rows = [{} for _ in range(self.nvars)]
        for idx, expr in enumerate(self.equations):
            for v, c in expr.items():
                if c:
                    rows[v][idx] = c
        for base, rel in self.slack_blocks:
            for rrow in rel:
                rows.append({base + q: c for q, c in rrow.items()})
        return rows


def _kernel_head(rows, ncols: int, keep: int) -> list:
    """HNF basis of the x with x * rows[:keep] in the span of rows[keep:]:
    the left kernel of `rows`, cut to its first `keep` columns."""
    return hnf([{j: c for j, c in k.items() if j < keep} for k in left_kernel(rows, ncols)], keep)


def _echelon_lattice(basis, ncols: int) -> Lattice:
    """The lattice whose own rows are exactly the sparse rows of `basis`.

    `basis` must be in row-echelon form, as every HNF from `_kernel_head`
    is; otherwise `add` would rewrite its rows, and coordinates over the
    lattice would not be coordinates over `basis`, so that raises.
    """
    lat = Lattice(ncols)
    for row in basis:
        lat.add(row)
    # adding echelon rows in order leaves each one untouched
    assert lat.rows == basis, "coordinates need an echelon basis"
    return lat


def _coordinates(lat: Lattice, rows, what: str) -> list:
    """Coordinates of each row over the rows of `lat`, which must come from
    `_echelon_lattice`; every row must lie in its span.

    The basis is echelon, so its rows are independent and the coordinates
    of a row are unique: back-substitution along the pivots
    (`Lattice.coordinates`) finds them without any elimination, and one
    lattice serves every row.
    """
    coords = []
    for row in rows:
        c = lat.coordinates(row)
        assert c is not None, what
        coords.append(c)
    return coords


def _vector_to_map(M, N, vec: dict, var_off) -> ModuleMap:
    mats = {}
    for s in M.slots:
        gn, off = N.ngens(s), var_off[s]
        mats[s] = [
            {q: vec[off + p * gn + q] for q in range(gn) if off + p * gn + q in vec}
            for p in range(M.ngens(s))
        ]
    return ModuleMap(M, N, mats)


def _map_to_vector(f: ModuleMap, var_off) -> dict:
    vec = {}
    for s in f.source.slots:
        gn, off = f.target.ngens(s), var_off[s]
        for p, row in enumerate(f.mats[s]):
            vec.update({off + p * gn + q: c for q, c in row.items()})
    return vec


def hom_module(M: GradedModule, N: GradedModule) -> HomGroup:
    """Degree-preserving module maps M -> N, as a group with generators.

    Solved as the integer lattice of commutation plus well-definedness
    constraints, divided by the maps whose image lies in the relation
    lattice of N.
    """
    if M.ring is not N.ring:
        raise ValueError("modules live over different rings")
    system = _MapSystem(M, N)
    var_off, nvars = system.var_off, system.nvars
    sols = _kernel_head(system.rows(), len(system.equations), nvars)

    null_vecs = []
    for s in M.slots:
        gn, off = N.ngens(s), var_off[s]
        for p in range(M.ngens(s)):
            for rrow in N.rels[s]:
                null_vecs.append({off + p * gn + q: c for q, c in rrow.items()})

    lat = _echelon_lattice(sols, nvars)
    coords = _coordinates(lat, null_vecs, "null map outside the solution lattice")
    free, tors = group_invariants(coords, len(sols))
    maps = [_vector_to_map(M, N, v, var_off) for v in sols]
    return HomGroup(AbInvariants(free, tors), maps, sols, var_off, nvars)


# -- free modules and covers ------------------------------------------


class FreeModule(GradedModule):
    """Finite direct sum of representable modules, one per entry."""

    def __init__(self, ring: CategoryRing, entries):
        self.entries = tuple(entries)
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
        table = ring.sparse_table()
        for fb, (x, y, _) in enumerate(ring.flat):
            for e in (0, 1):
                rows = []
                for j, (_, size) in blocks[(y, e)].items():
                    # as in `yoneda`, shifted to entry j's block at x
                    xstart = blocks[(x, e)][j][0]
                    base = ring.offset[(y, self.entries[j][0])]
                    for u in range(base, base + size):
                        row = table[(fb, u)]
                        rows.append({xstart + t: c for t, c in row.items()} if xstart else row)
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
    source.  `FreeModule(ring, entries)` still builds a fresh module.
    """
    key = tuple(entries)
    kept = ring._free_modules
    free = kept.get(key)
    if free is None:
        free = kept[key] = FreeModule(ring, key)
        if len(kept) > FREE_MODULES_KEPT:
            del kept[next(iter(kept))]
    return free


def free_cover(module: GradedModule, order=None) -> ModuleMap:
    """Surjection from a free module onto `module`.

    Scans the listed generators slot by slot, adds a Yoneda entry for
    every generator not already inside the submodule generated by the
    earlier entries, then prunes entries that the remaining ones cover
    (so a representable module is covered by its own unit alone).  The
    Yoneda unit of each entry maps to its generator.  `order` optionally
    permutes the scan order (a permutation of the flat generator list),
    which changes the cover but not any derived invariant.
    """
    ring = module.ring
    listed = [(s, p) for s in module.slots for p in range(module.ngens(s))]
    if order is not None:
        if sorted(order) != list(range(len(listed))):
            raise ValueError("order must permute the generator list")
        listed = [listed[i] for i in order]

    def images(entry, slot):
        # the images at `slot` of the Yoneda entry on generator p of s
        (x0, e0), p = entry
        w, e = slot
        if e != e0:
            return
        for fu in range(len(ring.basis[(w, x0)])):
            yield module.act[(ring.offset[(w, x0)] + fu, e0)][p]

    # copies, since the scan grows them
    covered = {s: module.relation_lattice(s).copy() for s in module.slots}
    chosen = []
    for (s, p) in listed:
        if {p: 1} in covered[s]:
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
        if {p: 1} in lat:
            chosen.pop(i)
        else:
            i += 1

    free = free_module(ring, [s for s, _ in chosen])
    # every generator of the free module lies in exactly one entry's block
    mats = {s: [None] * free.ngens(s) for s in module.slots}
    for j, (s, p) in enumerate(chosen):
        x0, e0 = s
        for w in ring.objects:
            slot = (w, e0)
            start, size = free.blocks[slot][j]
            for fu in range(size):
                mats[slot][start + fu] = module.act[(ring.offset[(w, x0)] + fu, e0)][p]
    return ModuleMap(free, module, mats)


def _kernel_rows(f: ModuleMap) -> dict:
    """Per slot, the HNF basis of the kernel of f taken modulo the target's
    relations: the x over the source generators with x * f in the
    relation lattice of the target.  Computed on first use and kept on
    the map, so the split test and `kernel_of` share it: read it, never
    mutate it."""
    if f._kernel is None:
        M, N = f.source, f.target
        f._kernel = {s: _kernel_head([*f.mats[s], *N.rels[s]], N.ngens(s), M.ngens(s)) for s in M.slots}
    return f._kernel


def kernel_of(f: ModuleMap) -> tuple[GradedModule, ModuleMap]:
    """Objectwise integer kernel with its induced action and inclusion."""
    M = f.source
    ring = M.ring
    basis_rows = _kernel_rows(f)
    gens = {s: tuple(f"k{i}" for i in range(len(basis_rows[s]))) for s in M.slots}
    lats = {s: _echelon_lattice(basis_rows[s], M.ngens(s)) for s in M.slots}
    rels = {
        s: _coordinates(lats[s], M.rels[s], "module relations must lie in the kernel")
        for s in M.slots
    }
    act = {}
    for fb, (x, y, _) in enumerate(ring.flat):
        for e in (0, 1):
            imgs = mat_mul(basis_rows[(y, e)], M.act[(fb, e)])
            act[(fb, e)] = _coordinates(lats[(x, e)], imgs, "kernel is not action-stable")
    kernel = GradedModule(ring, gens, rels, act)
    incl = ModuleMap(kernel, M, basis_rows)
    return kernel, incl


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
    """The cover-of-kernel chain of one module, extended on demand.

    Level n holds the n-th syzygy M_n (M_0 is the module itself), its free
    cover F_n -> M_n and, once asked for, the kernel M_{n+1} of that cover
    with its inclusion into F_n.  Covers and kernels are built in level
    order, so a seeded `rng` shuffles each cover's generator scan as
    `free_resolution` documents.  A chain serves one call: every query
    that reads several levels of one resolution reads them from one chain,
    and only its free modules outlive the call, kept on the ring by
    `free_module`; syzygies, covers and kernel rows do not.
    """

    def __init__(self, module: GradedModule, rng=None):
        self.rng = rng
        self.syzygies = [module]
        self.covers = []
        self.inclusions = []

    def _order(self, m: GradedModule):
        if self.rng is None:
            return None
        perm = list(range(sum(m.ngens(s) for s in m.slots)))
        self.rng.shuffle(perm)
        return perm

    def cover(self, n: int) -> ModuleMap:
        while len(self.covers) <= n:
            m = self.syzygy(len(self.covers))
            self.covers.append(free_cover(m, self._order(m)))
        return self.covers[n]

    def syzygy(self, n: int) -> GradedModule:
        while len(self.syzygies) <= n:
            ker, incl = kernel_of(self.cover(len(self.syzygies) - 1))
            self.syzygies.append(ker)
            self.inclusions.append(incl)
        return self.syzygies[n]

    def splits(self, n: int) -> bool:
        """Is the n-th syzygy projective, that is, does its cover split?

        Reads the cover's kernel rows, which `kernel_of` reads too when the
        chain goes on to level n+1, without building the kernel module.
        Only the module itself can carry torsion, which rules out a split
        at once: a syzygy is a submodule of a free module.
        """
        if n == 0:
            m = self.syzygies[0]
            if any(m.value_invariants(s).torsion for s in m.slots):
                return False
        cover = self.cover(n)
        return _splits(cover, _kernel_rows(cover))

    def resolution(self, length: int) -> Resolution:
        self.cover(length)
        diffs = [compose_maps(self.covers[n + 1], self.inclusions[n]) for n in range(length)]
        frees = [cov.source for cov in self.covers[: length + 1]]
        return Resolution(self.syzygies[0], self.covers[0], diffs, frees)


def free_resolution(module: GradedModule, length: int, rng=None) -> Resolution:
    """Iterated cover-of-kernel resolution of the given length.

    Deterministic by default; passing a seeded random.Random shuffles each
    cover's generator scan, producing a different but equivalent
    resolution (used to test resolution independence).
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    return _Syzygies(module, rng).resolution(length)


# -- Ext ---------------------------------------------------------------


def _free_map_components(d: ModuleMap) -> dict:
    """Ring-element matrix of a map between free modules.

    Component (j, i) is the sparse coefficient vector (over the ring basis
    of source-entry-object(j) -> target-entry-object(i)) through which
    entry j of the source maps to entry i of the target; only the nonzero
    components are listed, so none joins entries of different degrees.
    """
    F, G = d.source, d.target
    comps = {}
    for j in range(len(F.entries)):
        slot, upos = F.unit_index(j)
        row = d.mats[slot][upos]
        for i, (_, eps_i) in enumerate(G.entries):
            if eps_i != slot[1]:
                continue
            start, size = G.blocks[slot][i]
            vec = {t - start: c for t, c in row.items() if start <= t < start + size}
            if vec:
                comps[(j, i)] = vec
    return comps


def _hom_free_into(F: FreeModule, N: GradedModule, shift: int):
    """Presentation of the degree-`shift` maps F -> N: one block of
    N(obj, eps+shift) per entry.  Returns the number of generators, the
    first generator of each entry's block, and the relation rows."""
    slots = [(obj, (eps + shift) % 2) for obj, eps in F.entries]
    starts = list(itertools.accumulate((N.ngens(s) for s in slots), initial=0))
    rels = _block_diagonal((N.rels[s], N.ngens(s)) for s in slots)
    return starts[-1], starts[:-1], rels


def _induced_matrix(d: ModuleMap, N: GradedModule, shift: int) -> list:
    """Matrix of Hom(-, N): Hom(target(d), N) -> Hom(source(d), N)."""
    F, G = d.source, d.target  # d: F -> G
    ring = F.ring
    src_n, src_start, _ = _hom_free_into(G, N, shift)
    _, tgt_start, _ = _hom_free_into(F, N, shift)
    mat = [{} for _ in range(src_n)]
    for (j, i), vec in _free_map_components(d).items():
        obj_j, eps_j = F.entries[j]
        obj_i, _ = G.entries[i]
        off = ring.offset[(obj_j, obj_i)]
        block = _element_action(N, {off + t: c for t, c in vec.items()}, (obj_i, (eps_j + shift) % 2))
        # the blocks of one row of entries lie in disjoint columns
        gi, gj = src_start[i], tgt_start[j]
        for p, row in enumerate(block):
            mat[gi + p].update({gj + q: v for q, v in row.items()})
    return mat


def _cohomology(ngens_b, rels_b, g_mat, ngens_c, rels_c, f_rows):
    """ker(g)/im(f) inside the presented group (ngens_b, rels_b)."""
    basis = _kernel_head([*g_mat, *rels_c], ngens_c, ngens_b)
    lat = _echelon_lattice(basis, ngens_b)
    coords = _coordinates(lat, [*f_rows, *rels_b], "image does not lie in the kernel")
    free, tors = group_invariants(coords, len(basis))
    return AbInvariants(free, tors)


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
    F_* of M; the degree-1 component is the group of degree-shifting maps
    (equivalently Ext into the suspension).
    """
    if M.ring is not N.ring:
        raise ValueError("modules live over different rings")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return _ext_groups(free_resolution(M, n + 1, rng), N, n)


def _ext_groups(res: Resolution, N: GradedModule, n: int) -> ExtResult:
    """Ext^n(res.module, N), read off a resolution of length at least n+1."""
    out = {}
    for shift in (0, 1):
        gb, _, rels_b = _hom_free_into(res.frees[n], N, shift)
        gc, _, rels_c = _hom_free_into(res.frees[n + 1], N, shift)
        g_mat = _induced_matrix(res.differentials[n], N, shift)
        if n == 0:
            f_rows = []
        else:
            f_rows = _induced_matrix(res.differentials[n - 1], N, shift)
        out[shift] = _cohomology(gb, rels_b, g_mat, gc, rels_c, f_rows)
    return ExtResult(n, out)


# -- projectivity ------------------------------------------------------


def is_projective(module: GradedModule) -> bool:
    """Does the canonical free cover split?

    Decided by `_splits` on the cover and its kernel.  A slot with torsion
    rules splitting out immediately, since free modules have torsion-free
    values.
    """
    return _Syzygies(module).splits(0)


def _splits(cover: ModuleMap, kernel_rows: dict) -> bool:
    """Does the free cover pi: F -> M have a section?  `kernel_rows` are
    the rows `_kernel_rows(cover)` gives: per slot s, a Z-basis of K(s),
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
    tau(e_j), entry after entry, sum_j F.ngens(slot_j) of them, where a
    section M -> F has sum_s M.ngens(s) * F.ngens(s).  The equations are,
    in this order,
      - tau(k) = 0 for every row k of every K(s), slot after slot: exact,
        since F is free;
      - tau(e_j) * pi = pi(e_j) at slot_j, entry after entry, modulo the
        relations of M there, which become slack rows after the unknowns.
    Two module maps out of F agree once they agree on the units, so the
    second block is exactly tau then pi equal to pi.
    """
    F, M = cover.source, cover.target
    ring = F.ring
    var = list(itertools.accumulate((F.ngens(slot) for slot in F.entries), initial=0))
    rows = [{} for _ in range(var[-1])]
    neq = 0
    for s in F.slots:
        x, e = s
        # generator g of F(s) is e_j.w: (first unknown of entry j, action of w)
        gens = []
        for j, (_, size) in F.blocks[s].items():
            off = ring.offset[(x, F.entries[j][0])]
            gens.extend((var[j], F.act[(off + u, e)]) for u in range(size))
        for k in kernel_rows[s]:
            for g, c in k.items():
                v0, act = gens[g]
                for t, arow in enumerate(act):
                    row = rows[v0 + t]
                    for q, a in arow.items():
                        row[neq + q] = row.get(neq + q, 0) + c * a
            neq += F.ngens(s)
    target = {}
    for j, slot in enumerate(F.entries):
        pi = cover.mats[slot]
        for t, prow in enumerate(pi):
            rows[var[j] + t].update({neq + q: c for q, c in prow.items()})
        _, upos = F.unit_index(j)
        target.update({neq + q: c for q, c in pi[upos].items()})
        rows.extend({neq + q: c for q, c in rrow.items()} for rrow in M.rels[slot])
        neq += M.ngens(slot)
    return solve_left(rows, neq, target) is not None


def projective_dimension(module: GradedModule, cap: int):
    """Least n <= cap whose n-th syzygy is projective, else ABOVE_CAP.

    Level n covers the n-th syzygy and tests that cover for a split; the
    kernel module of a cover is built only to go on to level n+1.
    """
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
    """The UCT end terms of M and N, read off one resolution of M of
    length 2.  Suspending a resolution of M resolves `suspend(M)`, and
    Hom out of a suspended free module into N in degree e is Hom out of
    the free module in degree 1 - e, so Ext^1(suspend(M), N) in degree e
    is Ext^1(M, N) in degree 1 - e.  Whether pd(M) <= 1 is read off the
    first two levels of the same chain.
    """
    if M.ring is not N.ring:
        raise ValueError("modules live over different rings")
    syzygies = _Syzygies(M)
    res = syzygies.resolution(2)
    ext1 = _ext_groups(res, N, 1)
    shifted = ExtResult(1, {e: ext1.by_degree[1 - e] for e in (0, 1)})
    within_one = syzygies.splits(0) or syzygies.splits(1)
    return UctTerms(_ext_groups(res, N, 0), shifted, within_one)
