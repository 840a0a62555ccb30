import os
import pathlib
import random
import subprocess
import sys
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
    lat = Lattice(3)
    lat.add([2, 0, 4])
    lat.add([0, 3, 1])
    assert [2, 0, 4] in lat
    assert [2, 3, 5] in lat
    assert [1, 0, 2] not in lat
    assert [0, 0, 1] not in lat


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
        rows = random_matrix(rng, m, n)
        mine = hnf(rows, n)
        if not any(any(r) for r in rows):
            assert mine == []
            continue
        # sympy's HNF works on columns of full-row-rank input, so compare
        # by mutual membership instead of by shape.
        lat = Lattice(n)
        for row in rows:
            lat.add(row)
        for row in mine:
            assert row in lat
        lat2 = Lattice(n)
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
        assert hnf(rows + perm, n) == hnf(scaled + rows, n)


def test_left_kernel():
    rng = random.Random(4)
    for _ in range(40):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        rows = random_matrix(rng, m, n)
        ker = dense(left_kernel(rows, n), m)
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
        x = solve_left(rows, n, target)
        assert x is not None
        assert mat_mul([dense_row(x, m)], rows, n)[0] == target
    # insolvable case
    assert solve_left([[2, 0]], 2, [1, 0]) is None
    assert solve_left([[2, 0]], 2, [0, 1]) is None


def test_group_invariants():
    assert group_invariants([], 2) == (2, ())
    assert group_invariants([[6]], 1) == (0, (6,))
    assert group_invariants([[2, 0], [0, 3]], 2) == (0, (6,))
    assert group_invariants([[1, 0]], 2) == (1, ())
    assert group_invariants([[2, 2], [0, 4]], 2) == (0, (2, 4))


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


def row_forms(rng, rows):
    return {"dense": rows, "dict": as_dicts(rng, rows, False), "zeros": as_dicts(rng, rows, True)}


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
        for form, given in row_forms(rng, rows).items():
            assert dense(hnf(given, n), n) == want_hnf, form
            assert dense(left_kernel(given, n), m) == want_ker, form
            for target in targets:
                for t in (target, as_dicts(rng, [target], True)[0]):
                    x = solve_left(given, n, t)
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
        lat = Lattice(n)
        for row in basis:
            lat.add(row)
        for form, given in row_forms(rng, rows).items():
            outputs = [(hnf(given, n), n, basis), (left_kernel(given, n), m, dense_left_kernel(rows, n))]
            for target in targets:
                for t in (target, as_dicts(rng, [target], True)[0]):
                    want = dense_solve_left(rows, n, target)
                    x = solve_left(given, n, t)
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
        for form, given in row_forms(rng, rows).items():
            lat = Lattice(n)
            for row in given:
                lat.add(row)
            assert dense(lat.rows, n) == [r[:] for r in slow.rows], form
            assert all(all(row.values()) for row in lat.rows), "a stored zero"
            for _ in range(5):
                vec = [rng.randint(-2, 2) for _ in range(n)]
                assert (vec in lat) == (vec in slow)
                assert (as_dicts(rng, [vec], True)[0] in lat) == (vec in slow)
                assert (not lat.reduce(vec)) == (vec in slow)


def test_coordinates_back_substitute_over_hnf_basis():
    rng = random.Random(8)
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        basis = dense_hnf(sparse_matrix(rng, m, n), n)
        lat = Lattice(n)
        for row in basis:
            lat.add(row)
        assert dense(lat.rows, n) == basis  # echelon rows go in untouched
        coeffs = [rng.randint(-5, 5) for _ in basis]
        member = mat_mul([coeffs], basis, n)[0]
        for vec in [member] + [[rng.randint(-3, 3) for _ in range(n)] for _ in range(4)]:
            want = dense_solve_left(basis, n, vec)
            for given in (vec, as_dicts(rng, [vec], True)[0]):
                assert dense_row(lat.coordinates(given), len(basis)) == want
        assert dense_row(lat.coordinates(member), len(basis)) == coeffs


def test_reduce_is_the_coset_normal_form():
    # the normal form depends only on the coset: the same before and after
    # canonicalize, with every pivot entry in [0, |pivot|)
    rng = random.Random(9)
    for _ in range(150):
        m, n = rng.randint(0, 6), rng.randint(1, 6)
        lat = Lattice(n)
        for row in sparse_matrix(rng, m, n):
            lat.add(row)
        vecs = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(4)]
        before = [lat.reduce(vec) for vec in vecs]
        lat.canonicalize()
        assert [lat.reduce(vec) for vec in vecs] == before
        for vec, nf in zip(vecs, before):
            assert all(0 <= nf.get(j, 0) < row[j] for j, row in lat.pivots.items())
            diff = [a - nf.get(j, 0) for j, a in enumerate(vec)]
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
    lat = Lattice(2)
    lat.add([-3, 1])
    assert lat.pivots == {0: {0: -3, 1: 1}}
    assert _finishes(lat.__contains__, [3, -1])
    assert not _finishes(lat.__contains__, [1, 0])
    assert _finishes(lat.reduce, [1, 0]) == {0: 1}
    assert _finishes(lat.reduce, [-1, 0]) == {0: 2, 1: -1}
    assert _finishes(lat.reduce, [-6, 2]) == {}


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
    # alternating Lattice echelons against the dense row and column steps,
    # on dense, dict and zero-holding rows, with zero-row and zero-width
    # shapes among them
    rng = random.Random(12)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 0), (0, 1)]
    shapes += [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(200)]
    for m, n in shapes:
        rows = sparse_matrix(rng, m, n) if rng.random() < 0.5 else random_matrix(rng, m, n, -20, 20)
        diag = snf_diagonal(rows, n)
        want = (n - len(diag), tuple(d for d in diag if d != 1))
        for form, given in row_forms(rng, rows).items():
            assert group_invariants(given, n) == want, (form, rows)


WIDTH_CHECK = """
from catring.intlin import hnf, solve_left
for call in (lambda: hnf([[1, 2, 3]], 2), lambda: solve_left([[1, 0]], 2, [1, 0, 5])):
    try:
        print("accepted", call())
    except ValueError as exc:
        print("ValueError", exc)
"""


def test_dense_row_width_is_checked_under_optimize():
    # the width check must not be an assert, which python -O strips: an
    # extra target entry would land on the identity block of [A | I]
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WIDTH_CHECK], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 and all(line.startswith("ValueError") for line in lines), lines


def test_changed_records_created_and_rewritten_rows_and_copy_does_not_share_it():
    lat = Lattice(0)
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
