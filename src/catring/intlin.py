"""Exact integer linear algebra on row vectors.

Everything here works over Z with arbitrary-precision ints; there is no
floating point anywhere.  A matrix is a list of rows.  A row is either a
dense list (or tuple) of ints or a sparse dict {column: value}; a sparse
row given as input may hold zero entries, but none is ever stored.  The
number of columns is passed explicitly wherever dense rows may go in, so
that empty matrices keep their shape.  Every output is a sparse row
without zeros, so a zero row or a zero solution is `{}`, which is falsy:
test a solution with `is not None`.  `Lattice` is the
package's one integer echelon, used by the module algebra and by the
ring completion alike.  Its rows are sparse, kept in a dict keyed by
pivot column, and a row's pivot is its leftmost (smallest) column, so
elimination costs scale with the nonzero entries.  `Lattice.reduce`
gives the unique normal form of a coset, which the completion reads its
rings off, and `group_invariants` reads the Smith form off alternating
echelons.  The sparse rows are also the module algebra's one data
format, and `mat_mul` is their one product.  `hnf` and `left_kernel`
return the rows of a canonical lattice, and `Lattice.coordinates` and
`solve_left` return {row index: coefficient}.  The convention throughout
the package is that maps act on row vectors from the right: v |-> v * A.
"""

from __future__ import annotations

from math import gcd


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    # Maintain x*a + y*b == g while running the Euclidean algorithm.
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _sparse(vec, n: int) -> dict[int, int]:
    """A fresh {column: value} copy of a dense or dict row, without zeros.
    Raises ValueError unless a dense row has width n."""
    if isinstance(vec, dict):
        if 0 in vec.values():
            return {j: c for j, c in vec.items() if c}
        return dict(vec)
    if len(vec) != n:
        raise ValueError(f"dense row of width {len(vec)} where {n} columns are expected")
    return {j: c for j, c in enumerate(vec) if c}


def _axpy(vec: dict, q: int, row: dict) -> None:
    # vec += q * row in place, for q != 0, dropping the entries that cancel.
    for j, c in row.items():
        v = vec.get(j, 0) + q * c
        if v:
            vec[j] = v
        else:
            del vec[j]


class Lattice:
    """A subgroup of Z^n stored as an integer row-echelon basis.

    Rows are kept sparse, as {column: value} dicts with no zero entries,
    in `pivots`, a dict keyed by the pivot column of each row.  A pivot is
    the leftmost nonzero entry of its row, so every column is the pivot of
    at most one row.  `add` keeps the echelon shape using gcd row
    operations, so membership tests and reductions are exact.  `n` is the
    width of dense rows; a lattice fed only sparse rows may use any int
    columns.

    `changed` is None by default.  When it is a set, `add` and
    `canonicalize` put into it the pivot column of every row they create
    or rewrite, and the caller reads and clears it.  `add` replaces a
    stored row and never mutates it; `canonicalize` rewrites rows in
    place.
    """

    __slots__ = ["n", "pivots", "changed"]

    def __init__(self, n: int):
        self.n = n
        self.pivots: dict[int, dict[int, int]] = {}
        self.changed: set[int] | None = None

    @property
    def rows(self) -> list[dict[int, int]]:
        """The echelon rows in increasing pivot order."""
        pivots = self.pivots
        return [pivots[j] for j in sorted(pivots)]

    def copy(self) -> "Lattice":
        other = object.__new__(Lattice)
        other.n = self.n
        other.pivots = {j: dict(row) for j, row in self.pivots.items()}
        other.changed = None if self.changed is None else set(self.changed)
        return other

    def add(self, vec0) -> None:
        vec = _sparse(vec0, self.n)
        pivots = self.pivots
        while vec:
            j = min(vec)
            row = pivots.get(j)
            if row is None:
                pivots[j] = vec
                if self.changed is not None:
                    self.changed.add(j)
                return
            a, b = row[j], vec[j]
            if b % a == 0:
                _axpy(vec, -(b // a), row)
            else:
                x, y, g = xgcd(a, b)
                ag, mbg = a // g, -(b // g)
                new_row, new_vec = {}, {}
                for jj in row.keys() | vec.keys():
                    aa, bb = row.get(jj, 0), vec.get(jj, 0)
                    c = x * aa + y * bb
                    if c:
                        new_row[jj] = c
                    c = mbg * aa + ag * bb
                    if c:
                        new_vec[jj] = c
                pivots[j] = new_row
                if self.changed is not None:
                    self.changed.add(j)
                vec = new_vec
        # vec reduced to zero: nothing new.

    def reduce(self, vec0) -> dict[int, int]:
        """The sparse normal form of vec: every entry on a pivot column
        reduced into [0, |pivot|), leftmost first.

        It is empty iff vec is in the lattice.  The pivot columns and
        their |pivot| depend only on the lattice, so the normal form of
        each coset is unique, whether or not the basis is canonical.
        """
        vec = _sparse(vec0, self.n)
        pivots = self.pivots
        while vec:
            # only columns right of the one reduced change, so this ends
            j = min(
                (jj for jj in vec if jj in pivots and not 0 <= vec[jj] < abs(pivots[jj][jj])),
                default=None,
            )
            if j is None:
                break
            row = pivots[j]
            p = row[j]
            _axpy(vec, -(vec[j] // p) if p > 0 else vec[j] // -p, row)
        return vec

    def __contains__(self, vec) -> bool:
        return not self.reduce(vec)

    def coordinates(self, vec0) -> dict[int, int] | None:
        """The x, as {row index: coefficient}, with x * rows == vec over
        this lattice's own echelon rows, or None if vec is not in the
        lattice.

        The rows are independent, so x is unique, and back-substitution
        along the pivots finds it: each pivot entry of what is left of vec
        fixes one coefficient.
        """
        vec = _sparse(vec0, self.n)
        pivots = self.pivots
        coords = {}
        for i, j in enumerate(sorted(pivots)):
            if not vec:
                break
            b = vec.get(j)
            if b:
                row = pivots[j]
                q, r = divmod(b, row[j])
                if r:
                    return None
                coords[i] = q
                _axpy(vec, -q, row)
        return None if vec else coords

    def canonicalize(self) -> None:
        """Make the basis the unique HNF: positive pivots, and every other
        entry on a pivot column reduced into [0, pivot).

        Rows are processed right to left, so the rows right of a pivot are
        canonical, with positive pivots, when its row is reduced modulo
        them as `reduce` does.
        """
        pivots = self.pivots
        changed = self.changed
        for m in sorted(pivots, reverse=True):
            row = pivots[m]
            if row[m] < 0:
                pivots[m] = row = {jj: -c for jj, c in row.items()}
                if changed is not None:
                    changed.add(m)
            while True:
                j = min(
                    (jj for jj in row if jj != m and jj in pivots and not 0 <= row[jj] < pivots[jj][jj]),
                    default=None,
                )
                if j is None:
                    break
                _axpy(row, -(row[j] // pivots[j][j]), pivots[j])
                if changed is not None:
                    changed.add(m)

    @property
    def rank(self) -> int:
        return len(self.pivots)


def hnf(rows, ncols: int) -> list[dict[int, int]]:
    """Canonical row Hermite normal form of the lattice spanned by rows."""
    lat = Lattice(ncols)
    for row in rows:
        lat.add(row)
    lat.canonicalize()
    return lat.rows


def _augmented_echelon(rows, ncols: int) -> Lattice:
    # Echelon of [A | I]; integer row ops act on both halves, so the right
    # half records the combination producing each echelon row.
    m = len(rows)
    lat = Lattice(ncols + m)
    for i, row in enumerate(rows):
        aug = _sparse(row, ncols)
        aug[ncols + i] = 1
        lat.add(aug)
    return lat


def left_kernel(rows, ncols: int) -> list[dict[int, int]]:
    """Basis of {x : x * A == 0}, in HNF."""
    lat = _augmented_echelon(rows, ncols)
    ker = [
        {jj - ncols: c for jj, c in row.items()}
        for j, row in sorted(lat.pivots.items())
        if j >= ncols
    ]
    return hnf(ker, len(rows))


def solve_left(rows, ncols: int, target) -> dict[int, int] | None:
    """Some x, as {row index: coefficient}, with x * A == target, or None
    if no integer solution exists."""
    lat = _augmented_echelon(rows, ncols)
    vec = _sparse(target, ncols)
    for j, row in sorted(lat.pivots.items()):
        if j >= ncols:
            break
        b = vec.get(j)
        if b and b % row[j] == 0:
            _axpy(vec, -(b // row[j]), row)
    if any(j < ncols for j in vec):
        return None
    return {j - ncols: -c for j, c in vec.items()}


def group_invariants(rel_rows, ngens: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion chain) of Z^ngens / rowspan(rel_rows).

    The Smith form by alternating Hermite forms (Kannan and Bachem, SIAM
    J. Comput. 8, 1979): the canonical echelon of the rows, then of its
    columns, until every row has a single entry.  Each round either
    clears the first row and column of what is left, or replaces its
    corner by a proper divisor, so the loop ends.  The diagonal is then
    brought into the divisibility chain by gcd and lcm.
    """
    lat = Lattice(ngens)
    for row in rel_rows:
        lat.add(row)
    lat.canonicalize()
    rows = lat.rows
    while any(len(row) > 1 for row in rows):
        cols: dict[int, dict[int, int]] = {}
        for i, row in enumerate(rows):
            for j, c in row.items():
                cols.setdefault(j, {})[i] = c
        lat = Lattice(len(rows))
        for col in cols.values():
            lat.add(col)
        lat.canonicalize()
        rows = lat.rows
    diag = [abs(c) for row in rows for c in row.values()]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return ngens - len(diag), tuple(d for d in diag if d != 1)


def mat_mul(A, B) -> list[dict[int, int]]:
    """The product of sparse rows: row i is the sum of c * B[k] over the
    entries {k: c} of A[i], without zeros.

    B is any sequence or mapping of sparse rows keyed by the columns of A.
    A row of A that is a lone 1 at k gives B[k] itself, not a copy, so
    treat the result as read-only.
    """
    out = []
    for row in A:
        if len(row) == 1:
            ((k, c),) = row.items()
            if c == 1:
                out.append(B[k])
                continue
        acc: dict[int, int] = {}
        for k, c in row.items():
            for j, v in B[k].items():
                acc[j] = acc.get(j, 0) + c * v
        out.append({j: v for j, v in acc.items() if v})
    return out
