import random
import threading

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from catring import intlin
from catring.intlin import (
    Lattice,
    group_invariants,
    hnf,
    left_kernel,
    solve_left,
    xgcd,
)

from oracles import (
    DenseLattice,
    dense,
    dense_hnf,
    dense_left_kernel,
    dense_solve_left,
    mat_identity,
    mat_mul,
    snf_diagonal,
    sparse,
)


def dense_row(x, n):
    """A {row index: coefficient} solution as a dense list, or None."""
    return None if x is None else dense([x], n)[0]


def random_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_xgcd_identity():
    rng = random.Random(0)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_lattice_membership_and_reduction():
    lat = Lattice()
    lat.add({0: 2, 2: 4})
    lat.add({1: 3, 2: 1})
    assert {0: 2, 2: 4} in lat
    assert {0: 2, 1: 3, 2: 5} in lat
    assert {0: 1, 2: 2} not in lat
    assert {2: 1} not in lat


def test_snf_against_sympy():
    rng = random.Random(1)
    for _ in range(40):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        rows = random_matrix(rng, m, n)
        mine = snf_diagonal(rows, n)
        if m and n:
            theirs = smith_normal_form(sympy.Matrix(rows))
            diag = [abs(theirs[i, i]) for i in range(min(m, n)) if theirs[i, i] != 0]
            assert mine == sorted(diag), (rows, mine, diag)
        else:
            assert mine == []
        for a, b in zip(mine, mine[1:]):
            assert b % a == 0


def test_hnf_spans_same_lattice_as_sympy():
    rng = random.Random(2)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = sparse(random_matrix(rng, m, n))
        mine = hnf(rows)
        if not any(rows):
            assert mine == []
            continue
        # sympy's HNF works on columns of full-row-rank input, so compare
        # by mutual membership instead of by shape.
        lat = Lattice()
        for row in rows:
            lat.add(row)
        for row in mine:
            assert row in lat
        lat2 = Lattice()
        for row in mine:
            lat2.add(row)
        for row in rows:
            assert row in lat2


def test_hnf_is_canonical():
    rng = random.Random(3)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = random_matrix(rng, m, n)
        perm = rows[:]
        rng.shuffle(perm)
        scaled = [[-x for x in row] for row in rows] + perm
        assert hnf(sparse(rows + perm)) == hnf(sparse(scaled + rows))


def test_left_kernel():
    rng = random.Random(4)
    for _ in range(40):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        rows = random_matrix(rng, m, n)
        ker = dense(left_kernel(sparse(rows)), m)
        for v in ker:
            assert all(c == 0 for c in mat_mul([v], rows, n)[0]) if m else True
        # completeness: the kernel has rank m - rank(A)
        rank = len(snf_diagonal(rows, n))
        assert len(ker) == m - rank


def test_solve_left():
    rng = random.Random(5)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = random_matrix(rng, m, n)
        coeffs = [rng.randint(-4, 4) for _ in range(m)]
        target = mat_mul([coeffs], rows, n)[0]
        x = solve_left(sparse(rows), sparse([target])[0])
        assert x is not None
        assert mat_mul([dense_row(x, m)], rows, n)[0] == target
    # insolvable case
    assert solve_left([{0: 2}], {0: 1}) is None
    assert solve_left([{0: 2}], {1: 1}) is None


def test_identity_block_lies_right_of_every_column():
    # the I of [A | I] starts one past the largest column of A and of the
    # target, so an entry past A's columns cannot land on it and be
    # cancelled there
    assert solve_left([{0: 1}], {1: 5}) is None
    assert left_kernel([{0: 1, 1: 1}, {0: 1}]) == []
    assert solve_left([{-2: 1}], {-1: 5}) is None
    assert left_kernel([{-2: 1, -1: 1}, {-2: 1}]) == []


def test_group_invariants():
    assert group_invariants([], 2) == (2, ())
    assert group_invariants([{0: 6}], 1) == (0, (6,))
    assert group_invariants([{0: 2}, {1: 3}], 2) == (0, (6,))
    assert group_invariants([{0: 1}], 2) == (1, ())
    assert group_invariants([{0: 2, 1: 2}, {1: 4}], 2) == (0, (2, 4))


def test_identity_and_mul_shapes():
    assert mat_identity(0) == []
    assert mat_mul([], [[1]], 1) == []
    assert mat_mul([[1, 2]], [[0], [1]], 1) == [[2]]
    # the sparse product: no rows, an empty row, a lone 1, cancellation
    assert intlin.mat_mul([], [{0: 1}]) == []
    assert intlin.mat_mul([{}], [{0: 1}]) == [{}]
    b = [{0: 3}, {0: 1, 1: 2}]
    assert intlin.mat_mul([{1: 1}], b)[0] is b[1]
    assert intlin.mat_mul([{0: 1, 1: -3}], b) == [{1: -6}]
    assert intlin.mat_mul([{(0, 1): 2}], {(0, 1): {5: 1}}) == [{5: 2}]


def sparse_matrix(rng, m, n):
    """A random m x n matrix, mostly zeros, with small entries."""
    density = rng.choice([0.2, 0.5, 0.9])
    return [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]


def as_dicts(rng, rows, zeros):
    """The rows as {column: value} dicts; with `zeros`, some zero entries
    are stored explicitly."""
    out = []
    for row in rows:
        d = {j: c for j, c in enumerate(row) if c or (zeros and rng.random() < 0.5)}
        out.append(dict(rng.sample(list(d.items()), len(d))))  # key order is no promise
    return out


def shifted(rows, off):
    """The sparse rows with every column moved by off."""
    return [{j + off: c for j, c in row.items()} for row in rows]


def row_forms(rng, rows):
    """The dense rows as engine inputs, each with the offset its columns
    were moved by: plain dicts, dicts holding zeros, and dicts holding
    zeros moved onto negative columns only."""
    off = -max(map(len, rows), default=0) - rng.randint(1, 3)
    return {
        "dict": (as_dicts(rng, rows, False), 0),
        "zeros": (as_dicts(rng, rows, True), 0),
        "negative": (shifted(as_dicts(rng, rows, True), off), off),
    }


def test_sparse_engine_matches_dense_oracle():
    rng = random.Random(6)
    for _ in range(150):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        rows = sparse_matrix(rng, m, n)
        want_hnf = dense_hnf(rows, n)
        want_ker = dense_left_kernel(rows, n)
        coeffs = [rng.randint(-3, 3) for _ in range(m)]
        targets = [mat_mul([coeffs], rows, n)[0]]
        targets += [[rng.randint(-3, 3) for _ in range(n)] for _ in range(2)]
        for form, (given, off) in row_forms(rng, rows).items():
            assert dense(shifted(hnf(given), -off), n) == want_hnf, form
            assert dense(left_kernel(given), m) == want_ker, form
            for target in targets:
                for t in shifted([*sparse([target]), *as_dicts(rng, [target], True)], off):
                    x = solve_left(given, t)
                    assert (x is None) == (dense_solve_left(rows, n, target) is None), form
                    if x is not None:
                        assert mat_mul([dense_row(x, m)], rows, n)[0] == target


def test_outputs_are_sparse_rows_equal_to_dense_oracle():
    # every output is dict rows with no stored zero, whatever the input
    # form, and reads as the dense oracle's answer; a zero solution or zero
    # coordinates are {}, not None
    rng = random.Random(13)
    zero_solutions = 0
    for _ in range(150):
        m, n = rng.randint(0, 6), rng.randint(1, 6)
        rows = sparse_matrix(rng, m, n)
        basis = dense_hnf(rows, n)
        coeffs = [rng.randint(-3, 3) for _ in range(m)]
        targets = [[0] * n, mat_mul([coeffs], rows, n)[0] if m else [0] * n]
        targets.append([rng.randint(-3, 3) for _ in range(n)])
        for form, (given, off) in row_forms(rng, rows).items():
            lat = Lattice()
            for row in shifted(sparse(basis), off):
                lat.add(row)
            outputs = [(shifted(hnf(given), -off), n, basis), (left_kernel(given), m, dense_left_kernel(rows, n))]
            for target in targets:
                for t in shifted([*sparse([target]), *as_dicts(rng, [target], True)], off):
                    want = dense_solve_left(rows, n, target)
                    x = solve_left(given, t)
                    assert (x is None) == (want is None), form
                    if x is not None:
                        outputs.append(([x], m, [want]))
                        zero_solutions += x == {}
                    want = dense_solve_left(basis, n, target)
                    x = lat.coordinates(t)
                    assert (x is None) == (want is None), form
                    if x is not None:
                        outputs.append(([x], len(basis), [want]))
            for got, width, want in outputs:
                assert all(type(row) is dict and all(row.values()) for row in got), form
                assert dense(got, width) == want, form
    assert zero_solutions


def test_lattice_membership_matches_dense_oracle():
    rng = random.Random(7)
    for _ in range(100):
        m, n = rng.randint(0, 6), rng.randint(1, 6)
        rows = sparse_matrix(rng, m, n)
        slow = DenseLattice(n)
        for row in rows:
            slow.add(row)
        for form, (given, off) in row_forms(rng, rows).items():
            lat = Lattice()
            for row in given:
                lat.add(row)
            assert dense(shifted(lat.rows, -off), n) == [r[:] for r in slow.rows], form
            assert all(all(row.values()) for row in lat.rows), "a stored zero"
            for _ in range(5):
                vec = [rng.randint(-2, 2) for _ in range(n)]
                for v in shifted([*sparse([vec]), *as_dicts(rng, [vec], True)], off):
                    assert (v in lat) == (vec in slow), form
                    assert (not lat.reduce(v)) == (vec in slow), form


def test_coordinates_back_substitute_over_hnf_basis():
    rng = random.Random(8)
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        basis = dense_hnf(sparse_matrix(rng, m, n), n)
        lat = Lattice()
        for row in sparse(basis):
            lat.add(row)
        assert dense(lat.rows, n) == basis  # echelon rows go in untouched
        coeffs = [rng.randint(-5, 5) for _ in basis]
        member = mat_mul([coeffs], basis, n)[0]
        for vec in [member] + [[rng.randint(-3, 3) for _ in range(n)] for _ in range(4)]:
            want = dense_solve_left(basis, n, vec)
            for given in (sparse([vec])[0], as_dicts(rng, [vec], True)[0]):
                assert dense_row(lat.coordinates(given), len(basis)) == want
        assert dense_row(lat.coordinates(sparse([member])[0]), len(basis)) == coeffs


def test_reduce_is_the_coset_normal_form():
    # the normal form depends only on the coset: the same before and after
    # canonicalize, with every pivot entry in [0, |pivot|)
    rng = random.Random(9)
    for _ in range(150):
        m, n = rng.randint(0, 6), rng.randint(1, 6)
        lat = Lattice()
        for row in sparse(sparse_matrix(rng, m, n)):
            lat.add(row)
        vecs = sparse([[rng.randint(-9, 9) for _ in range(n)] for _ in range(4)])
        before = [lat.reduce(vec) for vec in vecs]
        lat.canonicalize()
        assert [lat.reduce(vec) for vec in vecs] == before
        for vec, nf in zip(vecs, before):
            assert all(0 <= nf.get(j, 0) < row[j] for j, row in lat.pivots.items())
            diff = {j: vec.get(j, 0) - nf.get(j, 0) for j in vec.keys() | nf.keys()}
            assert diff in lat


def _finishes(fn, *args, seconds=10.0):
    """fn(*args), failing instead of hanging if it does not return."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn(*args)), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"{fn.__name__}{args} did not return"
    return out[0]


def test_reduce_terminates_on_negative_pivots():
    # relation lattices in catring.modules are never canonicalized, so a
    # pivot may stay negative
    lat = Lattice()
    lat.add({0: -3, 1: 1})
    assert lat.pivots == {0: {0: -3, 1: 1}}
    assert _finishes(lat.__contains__, {0: 3, 1: -1})
    assert not _finishes(lat.__contains__, {0: 1})
    assert _finishes(lat.reduce, {0: 1}) == {0: 1}
    assert _finishes(lat.reduce, {0: -1}) == {0: 2, 1: -1}
    assert _finishes(lat.reduce, {0: -6, 1: 2}) == {}


def test_sparse_product_matches_dense_oracle():
    rng = random.Random(10)
    for _ in range(150):
        m, k, n = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a, b = sparse_matrix(rng, m, k), sparse_matrix(rng, k, n)
        sa, sb = as_dicts(rng, a, False), as_dicts(rng, b, False)
        got = intlin.mat_mul(sa, sb)
        assert dense(got, n) == mat_mul(a, b, n)
        assert all(all(row.values()) for row in got), "a stored zero"


def test_group_invariants_match_dense_snf_oracle():
    # alternating Hermite forms against the dense row and column steps, on
    # dict, zero-holding and negative-column rows, with zero-row and
    # zero-width shapes among them
    rng = random.Random(12)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 0), (0, 1)]
    shapes += [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(200)]
    for m, n in shapes:
        rows = sparse_matrix(rng, m, n) if rng.random() < 0.5 else random_matrix(rng, m, n, -20, 20)
        diag = snf_diagonal(rows, n)
        want = (n - len(diag), tuple(d for d in diag if d != 1))
        for form, (given, _) in row_forms(rng, rows).items():
            assert group_invariants(given, n) == want, (form, rows)


def test_changed_records_created_and_rewritten_rows_and_copy_does_not_share_it():
    lat = Lattice()
    lat.add({0: 2, 1: 1})
    assert lat.changed is None and lat.copy().changed is None  # off by default
    lat.changed = set()
    lat.add({1: 3})  # a new pivot
    lat.add({0: 4, 1: 2})  # reduces to zero: nothing written
    assert lat.changed == {1}
    lat.add({0: 3})  # a gcd step rewrites the row of pivot 0
    assert lat.changed == {0, 1}
    other = lat.copy()
    assert other.changed == lat.changed and other.changed is not lat.changed
    other.changed.clear()
    other.add({2: 1})
    assert lat.changed == {0, 1} and other.changed == {2}
    lat.changed.clear()
    lat.canonicalize()  # reduces the entries above pivot 1 into [0, 3)
    assert lat.changed == {0}
    assert lat.pivots == {0: {0: 1, 1: 2}, 1: {1: 3}}
