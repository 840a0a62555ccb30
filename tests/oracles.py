"""Independent oracles used to pin expected values.

These deliberately avoid the library's completion engine and module
machinery: the ring oracle is a plain single-pass enumeration and
elimination at a fixed bound, and the abelian-group oracles work by
enumerating elements and counting, never by Smith reduction.

The last sections keep slow predecessors of fast paths instead: the
dense integer echelon that `catring.intlin` replaced with sparse rows,
its sparse left kernel and solve with an identity column on every row,
the dense Smith form and the dense matrix product it replaced with
`Lattice` echelons and sparse rows, the completion's own max-pivot
echelon that `intlin.Lattice` replaced, the completion's echelon fed
every padded relation instance on tuple-keyed words, the quadratic prune of
`catring.modules.free_cover`, Hom by the all-basis map system,
projectivity by the full section system and the projective dimension
without a syzygy chain, the syzygy chain that covers kernel modules with
their whole action, Ext read off a resolution one level longer than
its degree, module validation on every composable pair of
basis monomials, and on letters through whole action matrices, the
ring product by a dense loop over the table vectors of the ring's file
(`file_table`),
normal forms by chained composition, the ring certificate's
associativity check and the random associativity probe by products
through that loop, and
presentation equivalence by completing both presentations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd


# -- brute-force ring completion ----------------------------------------


def oracle_complete(pres, bound):
    """Exhaustively enumerate words up to `bound`, impose all relation
    instances that fit, eliminate, and verify multiplicative closure.

    Returns {pair: (rank, sorted torsion moduli)}.  Raises if the
    surviving words are not closed under concatenation within the bound
    (meaning the bound is too small to certify anything).
    """
    gens = pres.generators
    arrows = [i for i, g in enumerate(gens) if g.kind != "identity"]
    objects = pres.objects
    pairs = [(x, y) for x in objects for y in objects]

    words = {p: [] for p in pairs}
    ids = {p: {} for p in pairs}
    by_target = {}
    by_source = {}
    layer = [(x, x, ()) for x in objects]
    for length in range(bound + 1):
        next_layer = []
        for src, tgt, path in layer:
            ids[(src, tgt)][path] = len(words[(src, tgt)])
            words[(src, tgt)].append(path)
            by_target.setdefault((length, tgt), []).append((src, path))
            by_source.setdefault((length, src), []).append((tgt, path))
            if length < bound:
                for a in arrows:
                    if gens[a].source == tgt:
                        next_layer.append((src, gens[a].target, path + (a,)))
        layer = next_layer

    rows = {p: {} for p in pairs}

    def insert(pair, vec):
        table = rows[pair]
        while vec:
            m = max(vec)
            other = table.get(m)
            if other is None:
                if vec[m] < 0:
                    vec = {i: -c for i, c in vec.items()}
                table[m] = vec
                return
            a, b = other[m], vec[m]
            if b % a == 0:
                q = b // a
                merged = dict(vec)
                for i, c in other.items():
                    nv = merged.get(i, 0) - q * c
                    if nv:
                        merged[i] = nv
                    else:
                        merged.pop(i, None)
                vec = merged
            else:
                # gcd step
                x, y, g = _xgcd(a, b)
                newpiv = {}
                for i in set(other) | set(vec):
                    c = x * other.get(i, 0) + y * vec.get(i, 0)
                    if c:
                        newpiv[i] = c
                rem = {}
                for i in set(other) | set(vec):
                    c = (a // g) * vec.get(i, 0) - (b // g) * other.get(i, 0)
                    if c:
                        rem[i] = c
                table[m] = newpiv
                vec = rem

    for rel in pres.relations:
        lam = rel.max_word_len()
        for lv in range(bound - lam + 1):
            for lu in range(bound - lam - lv + 1):
                for vsrc, vpath in by_target.get((lv, rel.source), []):
                    for utgt, upath in by_source.get((lu, rel.target), []):
                        pair = (vsrc, utgt)
                        table = ids[pair]
                        for s1, s2 in zip(rel.sides, rel.sides[1:]):
                            vec = {}
                            for c, w in s1:
                                i = table[vpath + w + upath]
                                vec[i] = vec.get(i, 0) + c
                            for c, w in s2:
                                i = table[vpath + w + upath]
                                vec[i] = vec.get(i, 0) - c
                            vec = {i: c for i, c in vec.items() if c}
                            if vec:
                                insert(pair, vec)

    def reduce(pair, vec):
        table = rows[pair]
        vec = dict(vec)
        while True:
            target = None
            for i in sorted(vec, reverse=True):
                r = table.get(i)
                if r is None:
                    continue
                if not 0 <= vec[i] < r[i]:
                    target = i
                    break
            if target is None:
                return vec
            r = table[target]
            q = vec[target] // r[target]
            for i, c in r.items():
                nv = vec.get(i, 0) - q * c
                if nv:
                    vec[i] = nv
                else:
                    vec.pop(i, None)

    result = {}
    survivors = {}
    for pair in pairs:
        table = rows[pair]
        eliminated = set()
        moduli = {}
        for m, row in table.items():
            row_red = reduce(pair, dict(row))
            # after reduction the pivot itself is untouched only for
            # torsion rows; recheck on the raw row
            if row[m] == 1:
                eliminated.add(m)
            elif len(reduce(pair, {i: c for i, c in row.items() if i != m})) == 0 and row[m] > 1:
                moduli[m] = row[m]
            elif row[m] > 1:
                raise AssertionError(f"mixed torsion row at {pair}: not representable")
        keep = [i for i in range(len(words[pair])) if i not in eliminated]
        survivors[pair] = keep
        result[pair] = (len(keep), sorted(moduli.values()))

    # closure check
    for (x, y) in pairs:
        for (y2, z) in pairs:
            if y2 != y:
                continue
            for i in survivors[(x, y)]:
                for j in survivors[(y2, z)]:
                    prod = words[(x, y)][i] + words[(y2, z)][j]
                    if len(prod) > bound:
                        raise AssertionError("bound too small for the closure check")
                    red = reduce((x, z), {ids[(x, z)][prod]: 1})
                    for t in red:
                        if t not in survivors[(x, z)]:
                            raise AssertionError("closure violated: product leaves the span")
    return result


def _xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


# -- component ranks from the orbit count ---------------------------------


def orbit_ranks(k):
    """{(h, l): k*gcd(h, l)/lcm(h, l)} over the subgroup orders h, l of C_k:
    the rank each component H -> L of the completed ring should have.

    If the ring is the KK^G-category on the objects C(G/H), the component
    is K^H(C(G/L)) by induction-restriction.  As an H-set, G/L has
    k/|HL| orbits, each with stabilizer H n L, so its rank is
    (k/|HL|)*|H n L|, and in a cyclic group |HL| = lcm(h, l) and
    |H n L| = gcd(h, l).  This motivates the formula; the rank tests are
    its check.  It is kept out of the completion and its certificate.
    """
    orders = [d for d in range(1, k + 1) if k % d == 0]
    return {(h, l): k * gcd(h, l) ** 2 // (h * l) for h in orders for l in orders}


# -- abelian group oracles by enumeration --------------------------------


def _primes(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def invariants_from_counts(size, kill_count):
    """Recover invariant factors of a finite abelian group from the
    counting function m -> #{x : m x = 0}.

    For G = +Z/d_i one has kill(p^t) = p^(sum_i min(t, v_p(d_i))), so the
    successive differences of the exponents count the factors with
    p-valuation >= t.
    """
    if size == 1:
        return ()
    per_prime = {}
    for p in _primes(size):
        counts = []  # counts[t-1] = number of factors with v_p >= t
        prev_e = 0
        t = 1
        while True:
            c = kill_count(p**t)
            e = 0
            while p**e < c:
                e += 1
            assert p**e == c, "kill count must be a power of p"
            m = e - prev_e
            if m == 0:
                break
            counts.append(m)
            prev_e = e
            t += 1
        per_prime[p] = counts
    nfactors = max(counts[0] for counts in per_prime.values())
    factors = [1] * nfactors  # factors[0] is the largest invariant
    for p, counts in per_prime.items():
        for j in range(nfactors):
            val = sum(1 for m in counts if m >= j + 1)
            factors[j] *= p**val
    return tuple(sorted(d for d in factors if d > 1))


def _group_elements(orders):
    return itertools.product(*(range(d) for d in orders))


def _enumerated_invariants(elements, orders):
    """Invariant factors of a subgroup given as an explicit element list
    of the product of cyclic groups with the stated orders."""
    elems = set(elements)
    size = len(elems)

    def kill(m):
        return sum(
            1 for x in elems if all((m * xi) % d == 0 for xi, d in zip(x, orders))
        )

    return invariants_from_counts(size, kill)


def oracle_hom_finite(a_orders, b_orders):
    """Hom(+Z/a_i, +Z/b_j) by enumerating all homomorphisms."""
    choices = []
    for a in a_orders:
        imgs = [
            x
            for x in _group_elements(b_orders)
            if all((a * xi) % d == 0 for xi, d in zip(x, b_orders))
        ]
        choices.append(imgs)
    flat_orders = tuple(b_orders) * len(a_orders)
    homs = [tuple(c for img in combo for c in img) for combo in itertools.product(*choices)]
    return _enumerated_invariants(homs, flat_orders)


def oracle_quotient(b_orders, n):
    """Invariant factors of B / nB by coset enumeration."""
    sub = {tuple((n * x) % d for x, d in zip(el, b_orders)) for el in _group_elements(b_orders)}
    reps = {}
    for el in _group_elements(b_orders):
        key = min(
            tuple((e + s) % d for e, s, d in zip(el, shift, b_orders)) for shift in sub
        )
        reps.setdefault(key, el)
    size = len(reps)

    def kill(m):
        count = 0
        for el in reps.values():
            scaled = tuple((m * x) % d for x, d in zip(el, b_orders))
            if scaled in sub:
                count += 1
        return count

    return invariants_from_counts(size, kill)


def merge_cyclic(*orders_with_free):
    """Combine cyclic pieces into (free rank, canonical invariant chain).

    Arguments are cyclic orders; 0 stands for Z.
    """
    free = sum(1 for d in orders_with_free if d == 0)
    torsion = [d for d in orders_with_free if d > 1]
    per_prime = {}
    for d in torsion:
        for p in _primes(d):
            v = 0
            while d % p == 0:
                d //= p
                v += 1
            per_prime.setdefault(p, []).append(v)
    n = max((len(v) for v in per_prime.values()), default=0)
    factors = [1] * n
    for p, vals in per_prime.items():
        vals = sorted(vals, reverse=True)
        for j, v in enumerate(vals):
            factors[j] *= p**v
    return free, tuple(sorted(d for d in factors if d > 1))


def oracle_hom(a, b):
    """(free rank, torsion chain) of Hom(A, B); a, b are cyclic-order
    tuples with 0 = Z."""
    a_free = sum(1 for d in a if d == 0)
    a_tors = [d for d in a if d >= 1]
    b_free = sum(1 for d in b if d == 0)
    b_tors = [d for d in b if d >= 1]
    pieces = [0] * (a_free * b_free)  # Hom(Z, Z) summands
    pieces += list(b_tors) * a_free  # Hom(Z, Z/b)
    fin = oracle_hom_finite(tuple(a_tors), tuple(b_tors)) if a_tors and b_tors else ()
    free, chain = merge_cyclic(*(pieces + list(fin)))
    return free, chain


def oracle_ext1(a, b):
    """(free rank, torsion chain) of Ext^1(A, B)."""
    a_tors = [d for d in a if d >= 1]
    b_free = sum(1 for d in b if d == 0)
    b_tors = tuple(d for d in b if d >= 1)
    pieces = []
    for d in a_tors:
        pieces += [d] * b_free  # Ext(Z/d, Z) = Z/d
        if b_tors:
            pieces += list(oracle_quotient(b_tors, d))
    free, chain = merge_cyclic(*pieces)
    assert free == 0
    return free, chain


def oracle_graded_hom(a0, a1, b0, b1):
    """Graded Hom: degree 0 preserves, degree 1 shifts."""
    h0 = merge_two(oracle_hom(a0, b0), oracle_hom(a1, b1))
    h1 = merge_two(oracle_hom(a0, b1), oracle_hom(a1, b0))
    return {0: h0, 1: h1}


def oracle_graded_ext1(a0, a1, b0, b1):
    e0 = merge_two(oracle_ext1(a0, b0), oracle_ext1(a1, b1))
    e1 = merge_two(oracle_ext1(a0, b1), oracle_ext1(a1, b0))
    return {0: e0, 1: e1}


def merge_two(x, y):
    free = x[0] + y[0]
    _, chain = merge_cyclic(*(list(x[1]) + list(y[1])))
    return free, chain


# -- the dense integer echelon -----------------------------------------
#
# The row-echelon engine `catring.intlin` used before its rows went
# sparse: every row a full list, every step a pass over all columns.  It
# makes the same leftmost-pivot gcd steps, so the sparse engine must give
# the same HNF, the same left kernel and the same solvability.


class DenseLattice:
    """A subgroup of Z^n as a dense integer row-echelon basis."""

    def __init__(self, n):
        self.n = n
        self.rows = []
        self.pivot_col = []

    def add(self, vec0):
        assert len(vec0) == self.n
        vec = list(vec0)
        rows, piv = self.rows, self.pivot_col
        i = 0
        for j in range(self.n):
            if not vec[j]:
                continue
            while i < len(rows) and piv[i] < j:
                i += 1
            if i == len(rows) or piv[i] > j:
                rows.insert(i, vec)
                piv.insert(i, j)
                return
            row = rows[i]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for jj in range(j, self.n):
                    vec[jj] -= q * row[jj]
            else:
                x, y, g = _xgcd(a, b)
                ag, mbg = a // g, -(b // g)
                for jj in range(j, self.n):
                    aa, bb = row[jj], vec[jj]
                    row[jj] = x * aa + y * bb
                    vec[jj] = mbg * aa + ag * bb

    def reduce(self, vec0):
        vec = list(vec0)
        for row, j in zip(self.rows, self.pivot_col):
            if vec[j] % row[j] == 0:
                q = vec[j] // row[j]
                if q:
                    for jj in range(j, self.n):
                        vec[jj] -= q * row[jj]
        return vec

    def __contains__(self, vec):
        return not any(self.reduce(vec))

    def canonicalize(self):
        rows, piv = self.rows, self.pivot_col
        for i in range(len(rows)):
            row = rows[i]
            j = piv[i]
            if row[j] < 0:
                rows[i] = row = [-x for x in row]
            for ii in range(i):
                q = rows[ii][j] // row[j]
                if q:
                    upper = rows[ii]
                    for jj in range(j, self.n):
                        upper[jj] -= q * row[jj]


def dense_hnf(rows, ncols):
    lat = DenseLattice(ncols)
    for row in rows:
        lat.add(row)
    lat.canonicalize()
    return [row[:] for row in lat.rows]


def _dense_augmented_echelon(rows, ncols):
    m = len(rows)
    lat = DenseLattice(ncols + m)
    for i, row in enumerate(rows):
        assert len(row) == ncols
        aug = list(row) + [0] * m
        aug[ncols + i] = 1
        lat.add(aug)
    return lat


def dense_left_kernel(rows, ncols):
    lat = _dense_augmented_echelon(rows, ncols)
    ker = [row[ncols:] for row, j in zip(lat.rows, lat.pivot_col) if j >= ncols]
    return dense_hnf(ker, len(rows))


def dense_solve_left(rows, ncols, target):
    assert len(target) == ncols
    m = len(rows)
    lat = _dense_augmented_echelon(rows, ncols)
    vec = list(target) + [0] * m
    for row, j in zip(lat.rows, lat.pivot_col):
        if j >= ncols:
            break
        if vec[j] % row[j] == 0:
            q = vec[j] // row[j]
            if q:
                for jj in range(j, ncols + m):
                    vec[jj] -= q * row[jj]
    if any(vec[:ncols]):
        return None
    return [-x for x in vec[ncols:]]


# `catring.intlin`'s left kernel and solve before only the rows whose
# coordinates are read got an identity column: the echelon of [A | I]
# with e_i on every row, built whether or not the solve has an answer,
# and the kernel's HNF cut to its first `keep` columns and put in HNF
# again.


def _full_augmented_echelon(rows, ncols):
    from catring.intlin import Lattice

    lat = Lattice()
    for i, row in enumerate(rows):
        aug = {j: c for j, c in row.items() if c}
        aug[ncols + i] = 1
        lat.add(aug)
    return lat


def _sparse_width(rows):
    return 1 + max((j for row in rows for j in row), default=-1)


def oracle_kernel_head(rows, keep):
    """HNF basis of the x in Z^keep with x * rows[:keep] in the span of
    rows[keep:]: the HNF of the whole left kernel, cut to its first
    `keep` columns."""
    from catring.intlin import hnf

    ncols = _sparse_width(rows)
    lat = _full_augmented_echelon(rows, ncols)
    ker = hnf([{j - ncols: c for j, c in row.items()} for p, row in sorted(lat.pivots.items()) if p >= ncols])
    return hnf([{j: c for j, c in row.items() if j < keep} for row in ker])


def oracle_solve_left(rows, target):
    """Some x, as {row index: coefficient}, with x * rows == target, or
    None: back-substitution on [A | I] along the pivots left of A's
    identity block, which is built whatever the answer."""
    ncols = _sparse_width([*rows, target])
    lat = _full_augmented_echelon(rows, ncols)
    vec = {j: c for j, c in target.items() if c}
    for j, row in sorted(lat.pivots.items()):
        if j >= ncols:
            break
        b = vec.get(j)
        if b and b % row[j] == 0:
            q = b // row[j]
            for jj, c in row.items():
                vec[jj] = vec.get(jj, 0) - q * c
            vec = {jj: c for jj, c in vec.items() if c}
    if any(j < ncols for j in vec):
        return None
    return {j - ncols: -c for j, c in vec.items()}


# -- the completion's max-pivot echelon ------------------------------------
#
# The echelon `catring.completion` kept per object pair before it moved
# onto `intlin.Lattice`: rows keyed by their largest word id, pivots made
# positive on insertion, canonical form and normal forms by reducing the
# largest out-of-range pivot entry first.  With word i as column -i the
# lattice must give the same canonical rows and the same normal forms.


def _addmul(dst, src, c):
    for i, v in src.items():
        nv = dst.get(i, 0) + c * v
        if nv:
            dst[i] = nv
        else:
            dst.pop(i, None)


class MaxPivotEchelon:
    """A subgroup of the free Z-module on word ids, pivots at the largest id."""

    def __init__(self):
        self.rows = {}

    def insert(self, row):
        row = {i: v for i, v in row.items() if v}
        rows = self.rows
        while row:
            m = max(row)
            piv = rows.get(m)
            if piv is None:
                if row[m] < 0:
                    row = {i: -v for i, v in row.items()}
                rows[m] = row
                return
            a, b = piv[m], row[m]
            if b % a == 0:
                _addmul(row, piv, -(b // a))
            else:
                x, y, g = _xgcd(a, b)
                merged = {i: x * v for i, v in piv.items()}
                _addmul(merged, row, y)
                rem = {i: (a // g) * v for i, v in row.items()}
                _addmul(rem, piv, -(b // g))
                rows[m] = merged
                row = rem

    def canonicalize(self):
        # every entry on another pivot's column reduced into [0, that pivot)
        rows = self.rows
        for m in sorted(rows):
            row = rows[m]
            while True:
                i = max(
                    (j for j in row if j != m and j in rows and not 0 <= row[j] < rows[j][j]),
                    default=None,
                )
                if i is None:
                    break
                _addmul(row, rows[i], -(row[i] // rows[i][i]))

    def reduce(self, row):
        """Normal form: every pivot entry reduced into [0, pivot)."""
        row = {i: v for i, v in row.items() if v}
        rows = self.rows
        while True:
            i = max(
                (j for j in row if j in rows and not 0 <= row[j] < rows[j][j]),
                default=None,
            )
            if i is None:
                return row
            _addmul(row, rows[i], -(row[i] // rows[i][i]))


# -- the completion's exhaustive instance feed -----------------------------
#
# `catring.completion._echelons` fed every relation instance, padded on
# both sides, to the pair-space echelons before it built each bound from
# the rows the previous bound changed and fed only live left pads.  It
# must yield the same words and the same canonical rows at every bound.
# Its pair spaces keep words as tuples, not as the completion's integer
# codes.


class OracleSpace:
    """A pair space of `oracle_echelons`: its words as tuples in the order
    they were added, word number i on column -i of `lattice`, and `ids`
    mapping each word to its column.  `len`, `column` and `word` are what
    the completion's readers of a bound ask of a pair space."""

    def __init__(self):
        from catring.intlin import Lattice

        self.words: list[tuple] = []
        self.ids: dict[tuple, int] = {}
        self.lattice = Lattice()

    def add_word(self, word):
        self.ids[word] = -len(self.words)
        self.words.append(word)

    def __len__(self):
        return len(self.words)

    def column(self, word):
        return self.ids[word]

    def word(self, column):
        return self.words[-column]


def oracle_echelons(pres, max_len):
    """`completion._echelons` fed every relation instance: yields
    `(bound, spaces)` for bound = 1, ..., max_len, each pair space holding
    every word of length at most `bound` and the canonical echelon of
    every relation instance of padded length at most `bound`."""
    pres.validate()
    gens = pres.generators
    arrows = pres.arrows
    objects = pres.objects
    spaces = {(x, y): OracleSpace() for x in objects for y in objects}

    # words_at[len] = list of (source, target, path) in lexicographic order
    words_at = [[(x, x, ()) for x in objects]]
    for x in objects:
        spaces[(x, x)].add_word(())
    by_len_target = {}
    by_len_source = {}
    for x in objects:
        by_len_target.setdefault((0, x), []).append((x, x, ()))
        by_len_source.setdefault((0, x), []).append((x, x, ()))

    def extend_words(length):
        layer = []
        for src, tgt, path in words_at[length - 1]:
            for a in arrows:
                g = gens[a]
                if g.source != tgt:
                    continue
                item = (src, g.target, path + (a,))
                layer.append(item)
                spaces[(src, g.target)].add_word(path + (a,))
                by_len_target.setdefault((length, g.target), []).append(item)
                by_len_source.setdefault((length, src), []).append(item)
        words_at.append(layer)

    # each relation as its differences of consecutive sides: (coefficient, word) terms
    differences = [
        (rel, [[*s1, *((-c, w) for c, w in s2)] for s1, s2 in zip(rel.sides, rel.sides[1:])])
        for rel in pres.relations
    ]

    def add_instances(bound):
        # all relation instances of total padded length exactly `bound`
        for rel, diffs in differences:
            pad = bound - rel.max_word_len()
            if pad < 0:
                continue
            for lv in range(pad + 1):
                lu = pad - lv
                pres_v = by_len_target.get((lv, rel.source), [])
                pres_u = by_len_source.get((lu, rel.target), [])
                for vsrc, _, vpath in pres_v:
                    for _, utgt, upath in pres_u:
                        space = spaces[(vsrc, utgt)]
                        ids = space.ids
                        for terms in diffs:
                            # cancelled terms leave zeros, which `add` drops
                            row = {}
                            for c, w in terms:
                                col = ids[vpath + w + upath]
                                row[col] = row.get(col, 0) + c
                            space.lattice.add(row)

    for bound in range(1, max_len + 1):
        extend_words(bound)
        if bound == 1:
            add_instances(0)
        add_instances(bound)
        for space in spaces.values():
            space.lattice.canonicalize()
        yield bound, spaces


# -- dense Smith form and dense products ----------------------------------
#
# `catring.intlin` computed invariant factors by its own dense row and
# column steps, and module data were dense tuples multiplied by a dense
# product, before both moved onto sparse rows and `Lattice` echelons.


def snf_diagonal(rows, ncols: int) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of the matrix."""
    D = [list(row) for row in rows]
    m, n = len(D), ncols
    for row in D:
        assert len(row) == n

    def row_op(i1, i2, j):
        a, b = D[i1][j], D[i2][j]
        if b == 0:
            return
        if a == 0:
            D[i1], D[i2] = D[i2], D[i1]
        elif b % a == 0:
            q = b // a
            r1, r2 = D[i1], D[i2]
            for jj in range(n):
                r2[jj] -= q * r1[jj]
        else:
            x, y, g = _xgcd(a, b)
            ag, mbg = a // g, -(b // g)
            r1, r2 = D[i1], D[i2]
            for jj in range(n):
                aa, bb = r1[jj], r2[jj]
                r1[jj] = x * aa + y * bb
                r2[jj] = mbg * aa + ag * bb

    def col_op(j1, j2, i):
        a, b = D[i][j1], D[i][j2]
        if b == 0:
            return
        if a == 0:
            for row in D:
                row[j1], row[j2] = row[j2], row[j1]
        elif b % a == 0:
            q = b // a
            for row in D:
                row[j2] -= q * row[j1]
        else:
            x, y, g = _xgcd(a, b)
            ag, mbg = a // g, -(b // g)
            for row in D:
                aa, bb = row[j1], row[j2]
                row[j1] = x * aa + y * bb
                row[j2] = mbg * aa + ag * bb

    for k in range(min(m, n)):
        # Pull a nonzero entry into the (k, k) slot.
        found = False
        for i in range(k, m):
            for j in range(k, n):
                if D[i][j]:
                    D[k], D[i] = D[i], D[k]
                    if j != k:
                        for row in D:
                            row[k], row[j] = row[j], row[k]
                    found = True
                    break
            if found:
                break
        if not found:
            break
        while True:
            for i in range(k + 1, m):
                row_op(k, i, k)
            if all(D[k][j] == 0 for j in range(k + 1, n)):
                break
            for j in range(k + 1, n):
                col_op(k, j, k)
            if all(D[i][k] == 0 for i in range(k + 1, m)):
                break

    diag = [abs(D[i][i]) for i in range(min(m, n)) if D[i][i]]
    # Enforce the divisibility chain.
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g = gcd(a, b)
            diag[i], diag[j] = g, a * b // g
    return diag


def mat_mul(A, B, ncols_b: int) -> list[list[int]]:
    """Product of row-major matrices; A is m x k, B is k x ncols_b."""
    out = []
    for row in A:
        acc = [0] * ncols_b
        for a, brow in zip(row, B):
            if a:
                for j, b in enumerate(brow):
                    if b:
                        acc[j] += a * b
        out.append(acc)
    return out


def mat_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def dense(rows, n):
    """Sparse {column: value} rows as dense lists of width n."""
    return [[row.get(j, 0) for j in range(n)] for row in rows]


def sparse(rows):
    """Dense rows as sparse {column: value} rows, the rows modules and
    `intlin` take."""
    return [{j: c for j, c in enumerate(row) if c} for row in rows]


def dense_action(module, fb, e):
    """The action of basis monomial fb at degree e as a dense matrix: one
    row per generator at its target slot, of the width of its source slot."""
    x = module.ring.flat[fb][0]
    return dense(module.act[(fb, e)], module.ngens((x, e)))


def dense_relations(module, slot):
    return dense(module.rels[slot], module.ngens(slot))


# -- Hom by the all-basis map system ---------------------------------------


def _columns(rows, ncols: int) -> list:
    """The nonzero entries (row index, value) of each column of sparse rows."""
    cols = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, c in row.items():
            cols[j].append((i, c))
    return cols


class _MapSystem:
    """The integer system whose solutions are the module maps M -> N.

    A map is one integer vector: the entry at row p, column q of its
    matrix at slot s (generator p of M(s) to generator q of N(s)) is
    variable var_off[s] + p * gn + q, where gn = N.ngens(s) and var_off
    lays the slots out one after another in `M.slots` order.  Equations
    come in blocks: a block asks that one row over the generators of some
    slot lie in a relation lattice, and each relation row of that lattice
    becomes a slack row.  The system is solved for x with x * rows() equal
    to the target; the slack part of x is dropped.  `catring.modules`
    solved it for Hom and for the split test before both moved to the
    Yoneda units of a free cover.
    """

    def __init__(self, M, N):
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


def _vector_to_map(M, N, vec: dict, var_off):
    """The module map M -> N whose matrices are the variables `vec` of a
    `_MapSystem` laid out by `var_off`."""
    from catring.modules import ModuleMap

    mats = {}
    for s in M.slots:
        gn, off = N.ngens(s), var_off[s]
        mats[s] = [
            {q: vec[off + p * gn + q] for q in range(gn) if off + p * gn + q in vec}
            for p in range(M.ngens(s))
        ]
    return ModuleMap(M, N, mats)


def oracle_hom_module(M, N):
    """The invariants of Hom(M, N) as `catring.modules.hom_module`
    computed them before it solved on the Yoneda units of M's cover: the
    solution lattice of the all-basis `_MapSystem`, modulo the maps whose
    every row lies in N's relations."""
    from catring.intlin import group_invariants, left_kernel
    from catring.modules import AbInvariants, _coordinates, _echelon_lattice

    system = _MapSystem(M, N)
    var_off, nvars = system.var_off, system.nvars
    sols = left_kernel(system.rows(), nvars)
    null_vecs = []
    for s in M.slots:
        gn, off = N.ngens(s), var_off[s]
        for p in range(M.ngens(s)):
            for rrow in N.rels[s]:
                null_vecs.append({off + p * gn + q: c for q, c in rrow.items()})
    lat = _echelon_lattice(sols)
    coords = _coordinates(lat, null_vecs, "null map outside the solution lattice")
    free, tors = group_invariants(coords, len(sols))
    return AbInvariants(free, tors)


def dense_map_system_rows(system):
    """The matrix of a `_MapSystem`, built dense from its
    equations and slack blocks: one row per variable, then the slack rows."""
    neq = len(system.equations)
    rows = [[0] * neq for _ in range(system.nvars)]
    for idx, expr in enumerate(system.equations):
        for v, c in expr.items():
            rows[v][idx] = c
    for base, rel in system.slack_blocks:
        for rrow in rel:
            srow = [0] * neq
            for q, c in rrow.items():
                srow[base + q] = c
            rows.append(srow)
    return rows


# -- projectivity by the full section system ------------------------------


def _section_system(cover):
    """The system, with its target row, whose solutions x (x * rows() ==
    targets) are the sections sigma of `cover`: module maps M -> F with
    sigma then cover equal to the identity of M.  `is_projective` solved
    it before `catring.modules._splits` solved for a map F -> F on the
    Yoneda units instead; it has sum_s M.ngens(s) * F.ngens(s) unknowns."""
    M, F = cover.target, cover.source
    # sigma: M -> F is a module map into a free module, so no slack rows
    system = _MapSystem(M, F)
    targets = [0] * len(system.equations)

    # splitting: sigma then cover = identity modulo relations.
    for s in M.slots:
        gm, gf, off = M.ngens(s), F.ngens(s), system.var_off[s]
        cols = _columns(cover.mats[s], gm)
        for p in range(gm):
            system.add([{off + p * gf + t: c for t, c in cols[q]} for q in range(gm)], M.rels[s])
            targets.extend(1 if p == q else 0 for q in range(gm))
    return system, targets


def oracle_section(cover):
    """A section sigma: M -> F of `cover` (sigma then cover is the
    identity of M), or None if the cover does not split: the section
    system, built dense and solved by the dense echelon."""
    system, targets = _section_system(cover)
    x = dense_solve_left(dense_map_system_rows(system), len(targets), targets)
    if x is None:
        return None
    vec = {v: c for v, c in enumerate(x[: system.nvars]) if c}
    return _vector_to_map(cover.target, cover.source, vec, system.var_off)


def oracle_is_projective(module):
    """`catring.modules.is_projective` as it was before `_splits`: the
    torsion check, then the section system of the module's free cover."""
    from catring.intlin import solve_left
    from catring.modules import free_cover

    if any(module.value_invariants(s).torsion for s in module.slots):
        return False
    system, targets = _section_system(free_cover(module))
    return solve_left(system.rows(), sparse([targets])[0]) is not None


def oracle_projective_dimension(module, cap):
    """`catring.modules.projective_dimension` as it was before the syzygy
    chain: each level covers its syzygy once for the projectivity test and
    once more for the next kernel."""
    from catring.modules import ABOVE_CAP, free_cover, kernel_of

    if oracle_is_projective(module):
        return 0
    cur = free_cover(module)
    for n in range(1, cap + 1):
        ker, _ = kernel_of(cur)
        if oracle_is_projective(ker):
            return n
        cur = free_cover(ker)
    return ABOVE_CAP


# -- syzygy chains of kernel modules -------------------------------------


def oracle_kernel_of(f):
    """The kernel module of f and its inclusion, on the dense engine above
    and none of the package's kernel code.  At each slot s the kernel basis
    is the HNF of the x over the source generators with x * f(s) in the
    relation lattice of the target: the left kernel of f(s) stacked over
    the target's relations, cut to its first columns.  The relations and
    the action of the kernel are the coordinates of their images over that
    basis.  An HNF is unique, and so are coordinates over independent rows,
    so `modules.kernel_of` must give the same module and inclusion."""
    from catring.modules import GradedModule, ModuleMap

    M, N = f.source, f.target
    basis = {}
    for s in M.slots:
        stacked = dense(f.mats[s], N.ngens(s)) + dense_relations(N, s)
        basis[s] = dense_hnf([x[: M.ngens(s)] for x in dense_left_kernel(stacked, N.ngens(s))], M.ngens(s))

    def coordinates(rows, s, what):
        coords = [dense_solve_left(basis[s], M.ngens(s), row) for row in rows]
        if None in coords:
            raise ValueError(what)
        return sparse(coords)

    gens = {s: tuple(f"k{i}" for i in range(len(basis[s]))) for s in M.slots}
    rels = {s: coordinates(dense_relations(M, s), s, "module relations must lie in the kernel") for s in M.slots}
    act = {}
    for fb, (x, y, _) in enumerate(M.ring.flat):
        for e in (0, 1):
            imgs = mat_mul(basis[(y, e)], dense_action(M, fb, e), M.ngens((x, e)))
            act[(fb, e)] = coordinates(imgs, (x, e), "kernel is not action-stable")
    kernel = GradedModule(M.ring, gens, rels, act)
    return kernel, ModuleMap(kernel, M, {s: sparse(rows) for s, rows in basis.items()})


def oracle_syzygies(module, length, rng=None):
    """`catring.modules._Syzygies` as it was before a syzygy became the
    kernel rows of the previous differential: level n covers the n-th
    syzygy as a module on its own generators, the kernel module of that
    cover is the next syzygy, and a differential is a cover followed by
    the inclusion of its syzygy.  A seeded `rng` shuffles each scan as
    the chain does.

    Returns the covers of syzygies 0..length, each onto its syzygy
    module, and the differentials F_n -> F_{n-1} for n = 1..length.
    """
    from catring.modules import compose_maps, free_cover

    covers, inclusions, m = [], [], module
    for n in range(length + 1):
        if n:
            m, incl = oracle_kernel_of(covers[-1])
            inclusions.append(incl)
        order = None
        if rng is not None:
            order = list(range(sum(m.ngens(s) for s in m.slots)))
            rng.shuffle(order)
        covers.append(free_cover(m, order))
    return covers, [compose_maps(c, incl) for c, incl in zip(covers[1:], inclusions)]


# -- Ext on a resolution one level longer -----------------------------------


def _induced_matrix(d, N):
    """Matrix of Hom(-, N): Hom(G, N) -> Hom(F, N) for d: F -> G between
    free modules, over their `_hom_free_into` layouts.  It sends tau to
    d then tau, whose value on the unit e_j of F is tau(d(e_j))."""
    from catring.modules import _hom_free_into, _yoneda_images

    F, G = d.source, d.target
    units = (F.unit_index(j) for j in range(len(F.entries)))
    vectors = [(slot, d.mats[slot][upos]) for slot, upos in units]
    return _yoneda_images(G, N, vectors, _hom_free_into(G, N))


def _cohomology(N, slots_b, g_mat, slots_c, f_rows):
    """ker(g)/im(f) inside B, for g: B -> C, where B and C are the sums of
    N(s) over `slots_b` and over `slots_c`, each presented by N's
    relations."""
    from catring.intlin import group_invariants, left_kernel
    from catring.modules import AbInvariants, _block_diagonal, _coordinates, _echelon_lattice

    def presented(slots):
        return sum(N.ngens(s) for s in slots), _block_diagonal((N.rels[s], N.ngens(s)) for s in slots)

    (ngens_b, rels_b), (_, rels_c) = presented(slots_b), presented(slots_c)
    basis = left_kernel([*g_mat, *rels_c], ngens_b)
    lat = _echelon_lattice(basis)
    coords = _coordinates(lat, [*f_rows, *rels_b], "image does not lie in the kernel")
    free, tors = group_invariants(coords, len(basis))
    return AbInvariants(free, tors)


def oracle_ext(M, N, n, rng=None):
    """`catring.modules.ext` as it was before it read level n alone: the
    cohomology of Hom(F_*, N) at n on `free_resolution(M, n + 1, rng)`,
    from the induced matrices of d_n and d_{n+1}; the degree-shifting maps
    into N are the maps into its suspension."""
    from catring.modules import ExtResult, free_resolution, suspend

    res = free_resolution(M, n + 1, rng)
    out = {}
    for shift, target in enumerate((N, suspend(N))):
        g_mat = _induced_matrix(res.differentials[n], target)
        f_rows = _induced_matrix(res.differentials[n - 1], target) if n else []
        slots_b, slots_c = res.frees[n].entries, res.frees[n + 1].entries
        out[shift] = _cohomology(target, slots_b, g_mat, slots_c, f_rows)
    return ExtResult(n, out)


# -- the quadratic free-cover prune --------------------------------------


def oracle_free_cover(module, order=None):
    """`catring.modules.free_cover` as it first was: the prune rebuilds
    every slot's covered lattice, on dense lattices, once per entry.

    Returns the cover and the number of entries the scan chose before the
    prune.
    """
    from catring.modules import FreeModule, ModuleMap

    ring = module.ring
    listed = [(s, p) for s in module.slots for p in range(module.ngens(s))]
    if order is not None:
        listed = [listed[i] for i in order]

    def fresh_lattices():
        covered = {}
        for s in module.slots:
            covered[s] = DenseLattice(module.ngens(s))
            for row in dense_relations(module, s):
                covered[s].add(row)
        return covered

    def engulf(covered, s, p):
        x0, e0 = s
        for w in ring.objects:
            for fu in range(len(ring.basis[(w, x0)])):
                fb = ring.offset[(w, x0)] + fu
                covered[(w, e0)].add(dense_action(module, fb, e0)[p])

    def unit(s, p):
        vec = [0] * module.ngens(s)
        vec[p] = 1
        return vec

    covered = fresh_lattices()
    chosen = []
    for (s, p) in listed:
        if unit(s, p) in covered[s]:
            continue
        chosen.append((s, p))
        engulf(covered, s, p)

    scanned = len(chosen)
    i = 0
    while i < len(chosen):
        covered = fresh_lattices()
        for (s, p) in chosen[:i] + chosen[i + 1 :]:
            engulf(covered, s, p)
        s, p = chosen[i]
        if unit(s, p) in covered[s]:
            chosen.pop(i)
        else:
            i += 1

    free = FreeModule(ring, [(s[0], s[1]) for s, _ in chosen])
    mats = {s: [[0] * module.ngens(s) for _ in range(free.ngens(s))] for s in module.slots}
    for j, (s, p) in enumerate(chosen):
        x0, e0 = s
        for w in ring.objects:
            slot = (w, e0)
            start, size = free.blocks[slot][j]
            for fu in range(size):
                fb = ring.offset[(w, x0)] + fu
                mats[slot][start + fu] = dense_action(module, fb, e0)[p]
    return ModuleMap(free, module, {s: sparse(rows) for s, rows in mats.items()}), scanned


# -- module validation on all pairs --------------------------------------


def pairwise_validate(module):
    """`catring.modules.GradedModule.validate` as it first was:
    functoriality is checked with dense products on every composable pair
    of basis monomials, not only on (basis, letter) pairs.  Shapes are
    not checked here: callers pass modules whose rows fit their slots."""
    ring = module.ring

    def agree(slot, A, B):
        lat = module.relation_lattice(slot)
        return all(d in lat for d in sparse([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]))

    act = {(fb, e): dense_action(module, fb, e) for fb in range(len(ring.flat)) for e in (0, 1)}
    table = file_table(ring)
    for fb, (x, y, _) in enumerate(ring.flat):
        for e in (0, 1):
            mat = act[(fb, e)]
            # well-defined on the quotient
            lat = module.relation_lattice((x, e))
            for row in dense_relations(module, (y, e)):
                (img,) = sparse(mat_mul([row], mat, module.ngens((x, e))))
                if img not in lat:
                    raise ValueError(f"action of basis {fb} not well-defined at degree {e}")
    for x in ring.objects:
        fb = ring.offset[(x, x)] + ring.unit_pos[x]
        for e in (0, 1):
            if not agree((x, e), act[(fb, e)], mat_identity(module.ngens((x, e)))):
                raise ValueError(f"unit of object {x} does not act as identity at degree {e}")
    # functoriality through the structure constants
    for fu, (x, y, _) in enumerate(ring.flat):
        for fv, (y2, z, _) in enumerate(ring.flat):
            if y2 != y:
                continue
            vec = table[(fu, fv)]
            off = ring.offset[(x, z)]
            for e in (0, 1):
                lhs = mat_mul(act[(fv, e)], act[(fu, e)], module.ngens((x, e)))
                n = module.ngens((x, e))
                rhs = [[0] * n for _ in range(module.ngens((z, e)))]
                for t, c in enumerate(vec):
                    if c:
                        for i, row in enumerate(act[(off + t, e)]):
                            for j, vv in enumerate(row):
                                rhs[i][j] += c * vv
                if not agree((x, e), lhs, rhs):
                    raise ValueError(
                        f"action is not functorial on basis pair ({fu}, {fv}) at degree {e}"
                    )


def _element_action(module, vec: dict, slot):
    """Sparse rows of the action of the ring element sum c * b, over
    vec = {flat basis index b: c} with every b ending at slot's object, on
    the generators at `slot`: row i is the sum of c * (row i of b's action)."""
    from catring.intlin import mat_mul as sparse_mat_mul

    e, n = slot[1], module.ngens(slot)
    if len(vec) == 1 and 1 in vec.values():  # a basis element acts by its own rows
        return module.act[(next(iter(vec)), e)]
    # row i of the result takes row i of each b's action, stacked b after b
    stack = [row for fb in vec for row in module.act[(fb, e)]]
    coeffs = list(vec.values())
    return sparse_mat_mul([{k * n + i: c for k, c in enumerate(coeffs)} for i in range(n)], stack)


def oracle_letters_validate(module):
    """`catring.modules.GradedModule.validate` before its letters loop was
    fused: the same checks in the same order, with functoriality on each
    (basis, letter) pair read off whole matrices - the sparse product
    rho(u)rho(a), the action of the table product u.a (`_element_action`)
    and `GradedModule.agree` between them.  It raises the same messages."""
    from catring.intlin import mat_mul as sparse_mat_mul
    from catring.modules import _check_rows, _letters

    ring = module.ring
    ngens = {s: len(g) for s, g in module.gens.items()}
    for s in module.slots:
        _check_rows(module.rels[s], None, ngens[s], "relations at slot", s)
    for fb, (x, y, _) in enumerate(ring.flat):
        for e in (0, 1):
            what = "action matrix of (basis, degree)"
            _check_rows(module.act[(fb, e)], ngens[(y, e)], ngens[(x, e)], what, (fb, e))
    for fb, (x, y, _) in enumerate(ring.flat):
        for e in (0, 1):
            # well-defined on the quotient
            if module.rels[(y, e)]:
                lat = module.relation_lattice((x, e))
                if any(row not in lat for row in sparse_mat_mul(module.rels[(y, e)], module.act[(fb, e)])):
                    raise ValueError(f"action of basis {fb} not well-defined at degree {e}")
    for x in ring.objects:
        fb = ring.offset[(x, x)] + ring.unit_pos[x]
        for e in (0, 1):
            identity = [{i: 1} for i in range(ngens[(x, e)])]
            if not module.agree((x, e), module.act[(fb, e)], identity):
                raise ValueError(f"unit of object {x} does not act as identity at degree {e}")
    # functoriality through the structure constants, on letters
    letters = _letters(ring)
    for fu, (x, y, _) in enumerate(ring.flat):
        for fa in letters[y]:
            z = ring.flat[fa][1]
            off = ring.offset[(x, z)]
            prod = {off + t: c for t, c in ring.table[(fu, fa)]}
            for e in (0, 1):
                if not (ngens[(x, e)] and ngens[(z, e)]):
                    continue
                lhs = sparse_mat_mul(module.act[(fa, e)], module.act[(fu, e)])
                if not module.agree((x, e), lhs, _element_action(module, prod, (z, e))):
                    raise ValueError(
                        f"action is not functorial on basis pair ({fu}, {fa}) at degree {e}"
                    )


# -- normal forms and equivalence through completed rings ----------------


def file_table(ring):
    """The ring's table as its file holds it: {(u, v): dense coefficient
    list} for every composable pair of flat basis indices, read from
    `ring_to_dict(ring)["table"]`, with a zero list for each pair the file
    leaves out.  The oracles multiply through it, never through the rows
    of `ring.table` that the package multiplies through."""
    from catring.serialize import ring_to_dict

    table = {(u, v): vec for u, v, vec in ring_to_dict(ring)["table"]}
    for u, (x, y, _) in enumerate(ring.flat):
        for v, (y_v, z, _) in enumerate(ring.flat):
            if y == y_v and (u, v) not in table:
                table[(u, v)] = [0] * len(ring.basis[(x, z)])
    return table


def coefficients(ring, elem):
    """The coefficient list of a ring element or an arrow normal form of
    `ring` over its component's basis: its row written into a list, as a
    ring file holds it."""
    vec = [0] * len(ring.basis[(elem.source, elem.target)])
    for t, c in elem.row:
        vec[t] = c
    return vec


def oracle_compose(ring, x, y, table=None):
    """`catring.CategoryRing.compose` as it first was: x then y, by a
    dense loop over both coefficient vectors and the vectors of
    `table`, the ring's `file_table` (built here when not given)."""
    if x.target != y.source:
        raise ValueError("elements are not composable")
    if table is None:
        table = file_table(ring)
    out = [0] * len(ring.basis[(x.source, y.target)])
    off_x = ring.offset[(x.source, x.target)]
    off_y = ring.offset[(y.source, y.target)]
    for i, a in enumerate(coefficients(ring, x)):
        if not a:
            continue
        for j, b in enumerate(coefficients(ring, y)):
            if not b:
                continue
            vec = table[(off_x + i, off_y + j)]
            ab = a * b
            for t, c in enumerate(vec):
                if c:
                    out[t] += ab * c
    return ring.element(x.source, y.target, dict(enumerate(out)))


def chained_normal_form(ring, data, source=None, target=None, table=None):
    """`catring.completion.normal_form` as it first was: every word's
    normal form is rebuilt by composing the arrow normal forms one letter
    at a time (`oracle_compose` through `table`, the ring's `file_table`
    when not given), and the summands are added as ring elements."""
    pres = ring.presentation
    if table is None:
        table = file_table(ring)
    if data and isinstance(data[0], int):
        data = ((1, tuple(data)),)
    elif data == ():
        data = ((1, ()),)

    endpoints = None
    for _, w in data:
        stripped = tuple(gi for gi in w if pres.generators[gi].kind != "identity")
        if stripped:
            endpoints = pres.word_endpoints(stripped)
            break
    if endpoints is None:
        if source is None:
            raise ValueError("combination of identity words needs a source object")
        endpoints = (source, target if target is not None else source)
    src, tgt = endpoints
    if source is not None and source != src or target is not None and target != tgt:
        raise ValueError(f"declared endpoints ({source},{target}) do not match words ({src},{tgt})")

    acc = ring.zero(src, tgt)
    for c, w in data:
        stripped = []
        cur = src
        for gi in w:
            g = pres.generators[gi]
            if g.source != cur:
                raise ValueError(f"word {w} is not composable")
            cur = g.target
            if g.kind != "identity":
                stripped.append(gi)
        if cur != tgt:
            raise ValueError("summands are not parallel")
        elem = ring.unit(src)
        for gi in stripped:
            elem = oracle_compose(ring, elem, ring.arrow_forms[gi], table)
        acc = acc + ring.element(src, tgt, {t: c * v for t, v in enumerate(coefficients(ring, elem))})
    return acc


def oracle_random_associativity_probe(ring, count=1000, max_len=6, seed=0):
    """`catring.completion.random_associativity_probe` before it worked on
    sparse vectors: each distinct drawn word gets a `RingElement` normal
    form, kept for the call, and each triple is checked with four
    `oracle_compose` products.  The normal forms are
    `chained_normal_form`'s, so no product here goes through the
    package's own; the draws are the probe's, call for call."""
    import random

    rng = random.Random(seed)
    gens = ring.presentation.generators
    arrows = ring.presentation.arrows
    failures = []
    outgoing = {x: [a for a in arrows if gens[a].source == x] for x in ring.objects}
    forms = {}
    table = file_table(ring)

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
            cur = gens[a].target
        return tuple(path), cur

    def form(word, source, target=None):
        elem = forms.get((source, word))
        if elem is None:
            elem = forms[(source, word)] = chained_normal_form(ring, word, source, target, table)
        return elem

    for _ in range(count):
        x = rng.choice(ring.objects)
        u, y = random_word(x)
        v, z = random_word(y)
        w, _ = random_word(z)
        eu = form(u, x, y)
        ev = form(v, y, z)
        ew = form(w, z)
        lhs = oracle_compose(ring, oracle_compose(ring, eu, ev, table), ew, table)
        if lhs != oracle_compose(ring, eu, oracle_compose(ring, ev, ew, table), table):
            failures.append(f"associativity fails on words {u} {v} {w}")
    return failures


@dataclass
class OracleReport:
    """What `oracle_verify_ring` found; `ok` when there is no failure."""

    failures: list[str]
    warnings: list[str]
    associative: bool

    @property
    def ok(self) -> bool:
        return not self.failures


def oracle_verify_ring(ring):
    """`catring.completion.verify_ring` before its certificate: the
    relations and normal basis words, the unit laws, every composable
    basis triple checked with three `oracle_compose` products, and every
    product with a torsion basis element.  Normal forms are
    `chained_normal_form`'s, so no product here goes through the
    package's own.  `associative` is True when neither the triple nor
    the torsion check fails and no modulus is d <= -3."""
    failures: list[str] = []
    warnings: list[str] = []
    pres = ring.presentation
    table = file_table(ring)

    for rel in pres.relations:
        # a side is a combination, so an empty one is 0, not the empty word
        forms = [
            chained_normal_form(ring, side, rel.source, rel.target, table)
            if side
            else ring.zero(rel.source, rel.target)
            for side in rel.sides
        ]
        for other in forms[1:]:
            if other != forms[0]:
                failures.append(
                    f"relation {rel.tag} ({rel.source}->{rel.target}) does not hold in the table"
                )
                break

    for (x, y) in ring.pairs:
        for pos, word in enumerate(ring.basis[(x, y)]):
            b = ring.basis_element(x, y, pos)
            if chained_normal_form(ring, word, x, y, table) != b:
                failures.append(f"basis {pos} of ({x},{y}) is not the normal form of its word {list(word)}")
            if oracle_compose(ring, ring.unit(x), b, table) != b:
                failures.append(f"left unit fails on basis {pos} of ({x},{y})")
            if oracle_compose(ring, b, ring.unit(y), table) != b:
                failures.append(f"right unit fails on basis {pos} of ({x},{y})")

    associative = all(not d or d > -3 for mods in ring.torsion.values() for d in mods)
    objs = ring.objects
    for x in objs:
        for y in objs:
            nu = len(ring.basis[(x, y)])
            for z in objs:
                nv = len(ring.basis[(y, z)])
                for w_obj in objs:
                    nw = len(ring.basis[(z, w_obj)])
                    for i in range(nu):
                        u = ring.basis_element(x, y, i)
                        for j in range(nv):
                            v = ring.basis_element(y, z, j)
                            uv = oracle_compose(ring, u, v, table)
                            for t in range(nw):
                                w = ring.basis_element(z, w_obj, t)
                                rhs = oracle_compose(ring, u, oracle_compose(ring, v, w, table), table)
                                if oracle_compose(ring, uv, w, table) != rhs:
                                    associative = False
                                    failures.append(
                                        f"associativity fails on basis triple "
                                        f"({x},{y},{i}) ({y},{z},{j}) ({z},{w_obj},{t})"
                                    )

    # a modulus d of basis u holds when d times each product with u is 0
    def killed(d, prod):
        return ring.element(prod.source, prod.target, {t: d * c for t, c in enumerate(coefficients(ring, prod))}).is_zero()

    flat = [(x, y, i) for x, y in ring.pairs for i in range(len(ring.basis[(x, y)]))]
    for x, y, i in flat:
        d = ring.torsion[(x, y)][i]
        if not d:
            continue
        u = ring.basis_element(x, y, i)
        where = f"torsion modulus {d} of basis {i} of ({x},{y}) fails on"
        for src, z, j in flat:
            if src == y and not killed(d, oracle_compose(ring, u, ring.basis_element(y, z, j), table)):
                associative = False
                failures.append(f"{where} its product with basis {j} of ({y},{z})")
        for w_obj, tgt, j in flat:
            if tgt == x and not killed(d, oracle_compose(ring, ring.basis_element(w_obj, x, j), u, table)):
                associative = False
                failures.append(f"{where} the product of basis {j} of ({w_obj},{x}) with it")

    for pair in ring.pairs:
        mods = [m for m in ring.torsion[pair] if m]
        if mods:
            warnings.append(f"component {pair} carries torsion moduli {mods}")

    return OracleReport(failures, warnings, associative)


def completing_presentations_equivalent(p, q, *, max_len=12, window=2, ring_p=None, ring_q=None):
    """`catring.presentations_equivalent` as it first was: both
    presentations are completed (unless their rings are passed in) and
    every translated relation is compared by chained normal forms."""
    from catring import complete
    from catring.completion import EquivalenceReport

    key_p = {(g.kind, g.H, g.L) for g in p.generators}
    key_q = {(g.kind, g.H, g.L) for g in q.generators}
    if key_p != key_q:
        raise ValueError("generator sets are not bijective")
    if ring_p is None:
        ring_p = complete(p, max_len=max_len, window=window)
    if ring_q is None:
        ring_q = complete(q, max_len=max_len, window=window)

    failures = []

    def check(src_pres, dst_pres, dst_ring, direction):
        translate = {i: dst_pres.gen(g.kind, g.H, g.L) for i, g in enumerate(src_pres.generators)}
        table = file_table(dst_ring)
        for rel in src_pres.relations:
            forms = []
            for side in rel.sides:
                moved = tuple((c, tuple(translate[gi] for gi in w)) for c, w in side)
                forms.append(chained_normal_form(dst_ring, moved, rel.source, rel.target, table))
            if any(other != forms[0] for other in forms[1:]):
                failures.append(f"{direction}: relation {rel.tag} {rel.source}->{rel.target} does not reduce to zero")

    check(p, q, ring_q, "left-in-right")
    check(q, p, ring_p, "right-in-left")
    return EquivalenceReport(not failures, failures)
