"""Z/2-graded finitely presented right modules over a completed ring.

A module assigns to every (object, degree) slot a finitely presented
abelian group - a list of named generators and integer relation rows -
and to every basis monomial b: X -> Y of the ring an integer matrix
value(Y, eps) -> value(X, eps) for each degree (contravariant: right
modules are functors on the opposite category).  Row-vector convention
throughout: an element is a row over the slot's generators and a matrix
acts from the right.

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
    mat_identity,
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


def _shape_check(rows, nrows, ncols, what):
    if len(rows) != nrows:
        raise ValueError(f"{what}: expected {nrows} rows, got {len(rows)}")
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"{what}: expected width {ncols}, got {len(row)}")


def _combine(terms: list) -> dict[int, int]:
    """The sparse row sum of c * row over (c, row) terms, without zeros;
    a lone term 1 * row is returned as `row` itself, not copied."""
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    out: dict[int, int] = {}
    for c, row in terms:
        for j, v in row.items():
            out[j] = out.get(j, 0) + c * v
    return {j: v for j, v in out.items() if v}


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
        self.ring = ring
        self.slots = [(x, e) for x in ring.objects for e in (0, 1)]
        self.gens = {s: tuple(gens.get(s, ())) for s in self.slots}
        self.rels = {s: tuple(tuple(r) for r in rels.get(s, ())) for s in self.slots}
        self.act = {}
        for fb in range(len(ring.flat)):
            for e in (0, 1):
                self.act[(fb, e)] = tuple(tuple(r) for r in act.get((fb, e), ()))
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
        """Are the row lists A and B equal modulo the relations at `slot`?"""
        lat = self.relation_lattice(slot)
        return all([a - b for a, b in zip(ra, rb)] in lat for ra, rb in zip(A, B))

    def value_invariants(self, slot: Slot) -> AbInvariants:
        free, tors = group_invariants(self.rels[slot], self.ngens(slot))
        return AbInvariants(free, tors)

    def is_zero(self) -> bool:
        return all(self.value_invariants(s).is_zero() for s in self.slots)

    def action(self, flat_idx: int, eps: int):
        return self.act[(flat_idx, eps)]

    def validate(self) -> None:
        """Re-check all module invariants; raises with a witness on failure.

        Shapes, well-definedness on the quotient (for every basis element)
        and the unit action are checked directly.  Functoriality is checked
        only on pairs (u, a): u runs over every basis monomial x -> y, and
        the right factor a over the *letters* leaving y, the basis elements
        in the support of the arrow normal forms (`_letters`).  Write
        rho(b) for the action of b, extended linearly to coefficient
        vectors, x.v for the table product "x then v", and rho(x)rho(v) for
        "act by x, then by v".  Equations between actions hold modulo the
        relations of the slot they land in; well-definedness makes that
        compatible with composing actions.

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
            _shape_check(self.rels[s], len(self.rels[s]), ngens[s], f"relations at {s}")
        rows = {}  # (basis, degree) -> the action's sparse rows
        for fb, (x, y, _) in enumerate(ring.flat):
            for e in (0, 1):
                mat = self.act[(fb, e)]
                _shape_check(mat, ngens[(y, e)], ngens[(x, e)], f"action of basis {fb} deg {e}")
                sparse = rows[(fb, e)] = [{j: v for j, v in enumerate(r) if v} for r in mat]
                # well-defined on the quotient
                if self.rels[(y, e)]:
                    lat = self.relation_lattice((x, e))
                    for row in self.rels[(y, e)]:
                        if _combine([(c, sparse[i]) for i, c in enumerate(row) if c]) not in lat:
                            raise ValueError(f"action of basis {fb} not well-defined at degree {e}")
        for x in ring.objects:
            fb = ring.offset[(x, x)] + ring.unit_pos[x]
            for e in (0, 1):
                if not self.agree((x, e), self.act[(fb, e)], mat_identity(ngens[(x, e)])):
                    raise ValueError(f"unit of object {x} does not act as identity at degree {e}")
        # functoriality through the structure constants, on letters
        letters = _letters(ring)
        for fu, (x, y, _) in enumerate(ring.flat):
            for fa in letters[y]:
                z = ring.flat[fa][1]
                off = ring.offset[(x, z)]
                prod = [(off + t, c) for t, c in enumerate(ring.table[(fu, fa)]) if c]
                for e in (0, 1):
                    if not (ngens[(x, e)] and ngens[(z, e)]):
                        continue
                    act_u, act_a = rows[(fu, e)], rows[(fa, e)]
                    for i, arow in enumerate(act_a):
                        lhs = _combine([(c, act_u[j]) for j, c in arow.items()])
                        rhs = _combine([(c, rows[(t, e)][i]) for t, c in prod])
                        if lhs == rhs:
                            continue
                        diff = {j: lhs.get(j, 0) - rhs.get(j, 0) for j in lhs.keys() | rhs.keys()}
                        if diff not in self.relation_lattice((x, e)):
                            raise ValueError(
                                f"action is not functorial on basis pair ({fu}, {fa}) at degree {e}"
                            )


def zero_module(ring: CategoryRing) -> GradedModule:
    return GradedModule(ring, {}, {}, {})


def yoneda(ring: CategoryRing, obj: int, eps: int) -> GradedModule:
    """The representable module of one object, concentrated in one degree.

    Its value at (X, eps) is the free group on the basis words X -> obj,
    and a basis monomial acts by composition, read off the ring table.
    """
    if obj not in ring.objects:
        raise KeyError(f"unknown object {obj}")
    gens = {}
    act = {}
    for x in ring.objects:
        gens[(x, eps)] = tuple(ring.word_str(w, x) for w in ring.basis[(x, obj)])
    for fb, (x, y, _) in enumerate(ring.flat):
        rows = []
        for fu in range(len(ring.basis[(y, obj)])):
            rows.append(ring.table[(fb, ring.offset[(y, obj)] + fu)])
        act[(fb, eps)] = rows
        act[(fb, 1 - eps)] = ()
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
        rows = []
        offset = 0
        total = sum(m.ngens(s) for m in modules)
        for m in modules:
            for r in m.rels[s]:
                row = [0] * total
                row[offset : offset + m.ngens(s)] = list(r)
                rows.append(row)
            offset += m.ngens(s)
        rels[s] = rows
    for key in modules[0].act:
        fb, e = key
        x, y, _ = ring.flat[fb]
        total_x = sum(m.ngens((x, e)) for m in modules)
        rows = []
        off_x = 0
        for m in modules:
            for r in m.act[key]:
                row = [0] * total_x
                row[off_x : off_x + m.ngens((x, e))] = list(r)
                rows.append(row)
            off_x += m.ngens((x, e))
        act[key] = rows
    return GradedModule(ring, gens, rels, act)


def trivial_group_module(ring: CategoryRing, degree0=(), degree1=()) -> GradedModule:
    """A graded abelian group as a module over the rank-one ring (k = 1).

    Each degree is a direct sum of cyclic groups; the order 0 stands for Z.
    """
    if len(ring.objects) != 1:
        raise ValueError("graded abelian groups only make sense over the rank-one ring")
    obj = ring.objects[0]
    gens, rels, act = {}, {}, {}
    for e, orders in ((0, degree0), (1, degree1)):
        names = tuple(f"g{i}" for i in range(len(orders)))
        rows = []
        for i, d in enumerate(orders):
            if d:
                row = [0] * len(orders)
                row[i] = d
                rows.append(row)
        gens[(obj, e)] = names
        rels[(obj, e)] = rows
        act[(0, e)] = mat_identity(len(orders))
    return GradedModule(ring, gens, rels, act)


def quotient_by_element(module: GradedModule, slot: Slot, vector) -> GradedModule:
    """Quotient by the submodule generated by one element of one slot."""
    ring = module.ring
    x0, e0 = slot
    rels = {}
    for s in module.slots:
        w, e = s
        rows = [list(r) for r in module.rels[s]]
        if e == e0:
            for fu in range(len(ring.basis[(w, x0)])):
                fb = ring.offset[(w, x0)] + fu
                rows.append(mat_mul([list(vector)], module.act[(fb, e0)], module.ngens(s))[0])
        rels[s] = hnf(rows, module.ngens(s))
    return GradedModule(module.ring, module.gens, rels, module.act)


def yoneda_cyclic_quotient(ring: CategoryRing, obj: int, eps: int, src: int, pos: int) -> GradedModule:
    """Quotient of the representable module of `obj` by one basis monomial
    of its value at `src` (the cyclic-quotient family used in the
    projective-dimension search)."""
    y = yoneda(ring, obj, eps)
    vec = [0] * len(ring.basis[(src, obj)])
    vec[pos] = 1
    return quotient_by_element(y, (src, eps), vec)


# -- module maps -----------------------------------------------------


@dataclass
class ModuleMap:
    """A degree-preserving map, one matrix per slot (row convention)."""

    source: GradedModule
    target: GradedModule
    mats: dict

    def __post_init__(self):
        for s in self.source.slots:
            self.mats.setdefault(s, tuple())
            _shape_check(self.mats[s], self.source.ngens(s), self.target.ngens(s), f"map at {s}")
            self.mats[s] = tuple(tuple(r) for r in self.mats[s])

    def is_zero(self) -> bool:
        return all(not any(any(r) for r in self.mats[s]) for s in self.source.slots)

    def check(self) -> None:
        """Assert well-definedness and equivariance; raises on failure."""
        M, N = self.source, self.target
        for s in M.slots:
            lat = N.relation_lattice(s)
            for row in M.rels[s]:
                if mat_mul([list(row)], self.mats[s], N.ngens(s))[0] not in lat:
                    raise ValueError(f"map not well-defined at {s}")
        for fb, (x, y, _) in enumerate(M.ring.flat):
            for e in (0, 1):
                lhs = mat_mul(M.act[(fb, e)], self.mats[(x, e)], N.ngens((x, e)))
                rhs = mat_mul(self.mats[(y, e)], N.act[(fb, e)], N.ngens((x, e)))
                if not N.agree((x, e), lhs, rhs):
                    raise ValueError(f"map does not commute with basis {fb} at degree {e}")


def compose_maps(first: ModuleMap, second: ModuleMap) -> ModuleMap:
    """first then second."""
    if first.target is not second.source:
        raise ValueError("maps are not composable")
    mats = {
        s: mat_mul(first.mats[s], second.mats[s], second.target.ngens(s))
        for s in first.source.slots
    }
    return ModuleMap(first.source, second.target, mats)


def identity_map(module: GradedModule) -> ModuleMap:
    return ModuleMap(module, module, {s: mat_identity(module.ngens(s)) for s in module.slots})


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
        """Integer coordinates of a map over `maps`, or None if the map
        is not a module map M -> N at all."""
        vec = _map_to_vector(f, self._var_off, self._nvars)
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
            gm, gn = M.ngens(s), N.ngens(s)
            for rrow in M.rels[s]:
                exprs = []
                for q in range(gn):
                    expr = {}
                    for p in range(gm):
                        if rrow[p]:
                            expr[self.var_off[s] + p * gn + q] = rrow[p]
                    exprs.append(expr)
                self.add(exprs, N.rels[s])

        # commutes with the action of every basis monomial
        for fb, (x, y, _) in enumerate(M.ring.flat):
            for e in (0, 1):
                sx, sy = (x, e), (y, e)
                gnx = N.ngens(sx)
                gmy, gny = M.ngens(sy), N.ngens(sy)
                amat = M.act[(fb, e)]  # gmy x gmx
                nmat = N.act[(fb, e)]  # gny x gnx
                # the nonzero entries of each column of nmat
                ncol = [[(qq, row[q]) for qq, row in enumerate(nmat) if row[q]] for q in range(gnx)]
                for gy in range(gmy):
                    arow = [(p, c) for p, c in enumerate(amat[gy]) if c]
                    ybase = self.var_off[sy] + gy * gny
                    exprs = []
                    for q in range(gnx):
                        expr = {self.var_off[sx] + p * gnx + q: c for p, c in arow}
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
                rows.append({base + q: c for q, c in enumerate(rrow) if c})
        return rows


def _kernel_head(rows, ncols: int, keep: int) -> list:
    """HNF basis of the x with x * rows[:keep] in the span of rows[keep:]:
    the left kernel of `rows`, cut to its first `keep` columns."""
    return hnf([k[:keep] for k in left_kernel(rows, ncols)], keep)


def _echelon_lattice(basis, ncols: int) -> Lattice:
    """The lattice whose own rows are exactly the rows of `basis`.

    `basis` must be in row-echelon form, as every HNF from `_kernel_head`
    is; otherwise `add` would rewrite its rows, and coordinates over the
    lattice would not be coordinates over `basis`, so that raises.
    """
    lat = Lattice(ncols)
    for row in basis:
        lat.add(row)
    # adding echelon rows in order leaves each one untouched
    assert lat.basis() == basis, "coordinates need an echelon basis"
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


def _vector_to_map(M, N, vec, var_off) -> ModuleMap:
    mats = {}
    for s in M.slots:
        gm, gn = M.ngens(s), N.ngens(s)
        off = var_off[s]
        mats[s] = [[vec[off + p * gn + q] for q in range(gn)] for p in range(gm)]
    return ModuleMap(M, N, mats)


def _map_to_vector(f: ModuleMap, var_off, nvars):
    vec = [0] * nvars
    for s in f.source.slots:
        gn = f.target.ngens(s)
        off = var_off[s]
        for p, row in enumerate(f.mats[s]):
            for q, c in enumerate(row):
                vec[off + p * gn + q] = c
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
        gm, gn = M.ngens(s), N.ngens(s)
        off = var_off[s]
        for p in range(gm):
            for rrow in N.rels[s]:
                null_vecs.append({off + p * gn + q: c for q, c in enumerate(rrow) if c})

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
        for fb, (x, y, _) in enumerate(ring.flat):
            for e in (0, 1):
                gx = len(gens[(x, e)])
                rows = []
                for j, (start, size) in blocks[(y, e)].items():
                    obj = self.entries[j][0]
                    xstart = blocks[(x, e)][j][0]
                    for fu in range(size):
                        vec = ring.table[(fb, ring.offset[(y, obj)] + fu)]
                        row = [0] * gx
                        row[xstart : xstart + len(vec)] = list(vec)
                        rows.append(row)
                act[(fb, e)] = rows
        super().__init__(ring, gens, {}, act)
        self.blocks = blocks

    def unit_index(self, j: int) -> tuple[Slot, int]:
        """Slot and generator position of the Yoneda unit of entry j."""
        obj, eps = self.entries[j]
        slot = (obj, eps)
        return slot, self.blocks[slot][j][0] + self.ring.unit_pos[obj]

    def block_range(self, slot: Slot, j: int) -> tuple[int, int]:
        """Start and size of entry j's generators at `slot`, a slot of the
        entry's own degree."""
        return self.blocks[slot][j]


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

    free = FreeModule(ring, [(s[0], s[1]) for s, _ in chosen])
    mats = {s: [[0] * module.ngens(s) for _ in range(free.ngens(s))] for s in module.slots}
    for j, (s, p) in enumerate(chosen):
        x0, e0 = s
        for w in ring.objects:
            slot = (w, e0)
            start, size = free.block_range(slot, j)
            for fu in range(size):
                fb = ring.offset[(w, x0)] + fu
                mats[slot][start + fu] = list(module.act[(fb, e0)][p])
    return ModuleMap(free, module, mats)


def kernel_of(f: ModuleMap) -> tuple[GradedModule, ModuleMap]:
    """Objectwise integer kernel with its induced action and inclusion."""
    M, N = f.source, f.target
    ring = M.ring
    basis_rows = {}
    for s in M.slots:
        basis_rows[s] = _kernel_head([*f.mats[s], *N.rels[s]], N.ngens(s), M.ngens(s))

    gens = {s: tuple(f"k{i}" for i in range(len(basis_rows[s]))) for s in M.slots}
    lats = {s: _echelon_lattice(basis_rows[s], M.ngens(s)) for s in M.slots}
    rels = {
        s: _coordinates(lats[s], M.rels[s], "module relations must lie in the kernel")
        for s in M.slots
    }
    act = {}
    for fb, (x, y, _) in enumerate(ring.flat):
        for e in (0, 1):
            n = M.ngens((x, e))
            imgs = (mat_mul([v], M.act[(fb, e)], n)[0] for v in basis_rows[(y, e)])
            act[(fb, e)] = _coordinates(lats[(x, e)], imgs, "kernel is not action-stable")
    kernel = GradedModule(ring, gens, rels, act)
    incl = ModuleMap(kernel, M, {s: basis_rows[s] for s in M.slots})
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


def free_resolution(module: GradedModule, length: int, rng=None) -> Resolution:
    """Iterated cover-of-kernel resolution of the given length.

    Deterministic by default; passing a seeded random.Random shuffles each
    cover's generator scan, producing a different but equivalent
    resolution (used to test resolution independence).
    """
    if length < 0:
        raise ValueError("length must be nonnegative")

    def mkorder(m):
        n = sum(m.ngens(s) for s in m.slots)
        if rng is None:
            return None
        perm = list(range(n))
        rng.shuffle(perm)
        return perm

    aug = free_cover(module, mkorder(module))
    frees = [aug.source]
    diffs = []
    cur = aug
    for _ in range(length):
        ker, incl = kernel_of(cur)
        cov = free_cover(ker, mkorder(ker))
        diffs.append(compose_maps(cov, incl))
        frees.append(cov.source)
        cur = cov
    return Resolution(module, aug, diffs, frees)


# -- Ext ---------------------------------------------------------------


def _free_map_components(d: ModuleMap):
    """Ring-element matrix of a map between free modules.

    Component (j, i) is the coefficient vector (over the ring basis of
    source-entry-object(j) -> target-entry-object(i)) through which entry
    j of the source maps to entry i of the target; None when the degrees
    differ.
    """
    F, G = d.source, d.target
    ring = F.ring
    comps = {}
    for j in range(len(F.entries)):
        slot, upos = F.unit_index(j)
        row = d.mats[slot][upos]
        for i, (obj_i, eps_i) in enumerate(G.entries):
            if eps_i != slot[1]:
                comps[(j, i)] = None
                continue
            start, size = G.block_range(slot, i)
            comps[(j, i)] = tuple(row[start : start + size])
    return comps


def _hom_free_into(F: FreeModule, N: GradedModule, shift: int):
    """Presentation of the degree-`shift` maps F -> N: one block of
    N(obj, eps+shift) per entry."""
    gens_count = 0
    offsets = []
    rels = []
    for (obj, eps) in F.entries:
        slot = (obj, (eps + shift) % 2)
        n = N.ngens(slot)
        offsets.append((gens_count, slot))
        gens_count_new = gens_count + n
        for r in N.rels[slot]:
            row = [0] * gens_count + list(r)
            rels.append((row, gens_count_new))
        gens_count = gens_count_new
    rel_rows = [row + [0] * (gens_count - used) for row, used in rels]
    return gens_count, offsets, rel_rows


def _induced_matrix(d: ModuleMap, N: GradedModule, shift: int):
    """Matrix of Hom(-, N): Hom(target(d), N) -> Hom(source(d), N)."""
    F, G = d.source, d.target  # d: F -> G
    ring = F.ring
    comps = _free_map_components(d)
    src_n, src_off, _ = _hom_free_into(G, N, shift)
    tgt_n, tgt_off, _ = _hom_free_into(F, N, shift)
    mat = [[0] * tgt_n for _ in range(src_n)]
    for (j, i), vec in comps.items():
        if vec is None or not any(vec):
            continue
        obj_j, eps_j = F.entries[j]
        obj_i, _ = G.entries[i]
        e = (eps_j + shift) % 2
        off = ring.offset[(obj_j, obj_i)]
        gi, _ = src_off[i]
        gj, _ = tgt_off[j]
        for t, c in enumerate(vec):
            if not c:
                continue
            amat = N.act[(off + t, e)]  # N(obj_i) -> N(obj_j)
            for p, row in enumerate(amat):
                for q, v in enumerate(row):
                    if v:
                        mat[gi + p][gj + q] += c * v
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
    res = free_resolution(M, n + 1, rng)
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

    Decided as integer feasibility of a section within the module-map
    solution space.  A slot with torsion rules splitting out immediately,
    since free modules have torsion-free values.
    """
    for s in module.slots:
        if module.value_invariants(s).torsion:
            return False
    system, targets = _section_system(free_cover(module))
    return solve_left(system.rows(), len(targets), targets) is not None


def _section_system(cover: ModuleMap) -> tuple[_MapSystem, list]:
    """The system, with its target row, whose solutions x (x * rows() ==
    targets) are the sections sigma of `cover`: module maps M -> F with
    sigma then cover equal to the identity of M."""
    M, F = cover.target, cover.source
    # sigma: M -> F is a module map into a free module, so no slack rows
    system = _MapSystem(M, F)
    targets = [0] * len(system.equations)

    # splitting: sigma then cover = identity modulo relations.
    for s in M.slots:
        gm, gf = M.ngens(s), F.ngens(s)
        pim = cover.mats[s]
        for p in range(gm):
            exprs = []
            for q in range(gm):
                expr = {}
                for t in range(gf):
                    c = pim[t][q]
                    if c:
                        expr[system.var_off[s] + p * gf + t] = c
                exprs.append(expr)
                targets.append(1 if p == q else 0)
            system.add(exprs, M.rels[s])
    return system, targets


def projective_dimension(module: GradedModule, cap: int):
    """Least n <= cap whose n-th syzygy is projective, else ABOVE_CAP."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if is_projective(module):
        return 0
    cur = free_cover(module)
    for n in range(1, cap + 1):
        ker, _ = kernel_of(cur)
        if is_projective(ker):
            return n
        cur = free_cover(ker)
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


def uct_terms(M: GradedModule, N: GradedModule, cap: int = 1) -> UctTerms:
    if M.ring is not N.ring:
        raise ValueError("modules live over different rings")
    hom = ext(M, N, 0)
    shifted = ext(suspend(M), N, 1)
    pd = projective_dimension(M, max(cap, 1))
    return UctTerms(hom, shifted, pd is not ABOVE_CAP and pd <= 1)
