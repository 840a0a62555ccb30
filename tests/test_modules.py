import copy
import itertools
import random
import subprocess
import sys
import threading

import pytest
import sympy

from catring import (
    ABOVE_CAP,
    ModuleMap,
    build_presentation,
    complete,
    direct_sum,
    ext,
    free_cover,
    free_resolution,
    hom_module,
    identity_map,
    is_projective,
    kernel_of,
    projective_dimension,
    suspend,
    trivial_group_module,
    uct_terms,
    yoneda,
    yoneda_cyclic_quotient,
    zero_module,
)
from catring import intlin, modules
from catring.modules import (
    FREE_MODULES_KEPT,
    ExtResult,
    FreeModule,
    GradedModule,
    _echelon_lattice,
    _kernel_rows,
    _letters,
    _splits,
    _Syzygies,
    compose_maps,
    free_module,
    quotient_by_element,
)
from catring.serialize import canonical_json, module_to_dict

from conftest import src_env
from corpus import build_corpus, graded_group_grid, trivial_modules_for
from oracles import (
    _MapSystem,
    _section_system,
    dense,
    dense_action,
    dense_map_system_rows,
    dense_relations,
    dense_solve_left,
    file_table,
    mat_identity,
    mat_mul,
    oracle_ext,
    oracle_ext1,
    oracle_free_cover,
    oracle_hom,
    oracle_hom_module,
    oracle_is_projective,
    oracle_kernel_of,
    oracle_letters_validate,
    oracle_projective_dimension,
    oracle_section,
    oracle_syzygies,
    pairwise_validate,
    sparse,
)


def modules_equal(a, b):
    return a.gens == b.gens and a.rels == b.rels and a.act == b.act


def zero_map(M, N):
    return ModuleMap(M, N, {s: sparse([[0] * N.ngens(s) for _ in range(M.ngens(s))]) for s in M.slots})


def second_syzygy(m):
    k1, _ = kernel_of(free_cover(m))
    k2, _ = kernel_of(free_cover(k1))
    return k2


# -- structure and validation ------------------------------------------


def test_corpus_modules_validate(ring4):
    rng = random.Random(3)
    for m in build_corpus(ring4, rng, size=10):
        m.validate()


def test_validation_rejects_corrupted_action(ring4):
    m = yoneda(ring4, 2, 0)
    act = _dense_act(m)
    # corrupt one action entry on a composable basis monomial
    key = next(k for k in act if act[k] and act[k][0])
    act[key][0][0] += 1
    broken = GradedModule(ring4, m.gens, m.rels, _sparse_act(act))
    with pytest.raises(ValueError):
        broken.validate()


def test_yoneda_values(ring1, ring4):
    # representable of the point object in degree 1 over the rank-one ring
    y = yoneda(ring1, 1, 1)
    assert y.value_invariants((1, 1)).free_rank == 1
    assert y.value_invariants((1, 0)).is_zero()
    # over the order-4 ring the values are the hom components
    y = yoneda(ring4, 4, 0)
    assert [y.ngens((x, 0)) for x in ring4.objects] == [1, 2, 4]
    assert all(y.ngens((x, 1)) == 0 for x in ring4.objects)


@pytest.mark.parametrize("eps", [2, -1])
def test_yoneda_rejects_an_unknown_degree(ring2, eps):
    # degree 2 used to give a module with no generators at all
    with pytest.raises(ValueError, match=f"unknown degree {eps}"):
        yoneda(ring2, 1, eps)
    with pytest.raises(KeyError, match="unknown object 3"):
        yoneda(ring2, 3, 0)


@pytest.mark.parametrize("entries, bad", [([(1, 2)], (1, 2)), ([(1, 0), (2, -1)], (2, -1)), ([(5, 0)], (5, 0))])
def test_free_module_rejects_an_entry_off_the_ring(ring2, entries, bad):
    # degree 2 used to give a zero module that passed `validate`, and the
    # unknown object 5 a bare KeyError (1, 5)
    with pytest.raises(ValueError, match=rf"free module entry \({bad[0]}, {bad[1]}\)"):
        FreeModule(ring2, entries)


def test_suspension_is_involution_and_shifts_yoneda(ring4):
    m = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)
    assert modules_equal(suspend(suspend(m)), m)
    assert modules_equal(suspend(yoneda(ring4, 2, 0)), yoneda(ring4, 2, 1))
    for x in ring4.objects:
        assert suspend(m).value_invariants((x, 1)) == m.value_invariants((x, 0))


# -- Hom ----------------------------------------------------------------


def test_classical_hom_with_enumeration_oracle(ring1):
    m = trivial_group_module(ring1, degree0=(6,))
    n = trivial_group_module(ring1, degree0=(4,))
    hom = hom_module(m, n)
    assert (hom.invariants.free_rank, hom.invariants.torsion) == oracle_hom((6,), (4,))


def test_hom_contains_identity(ring4):
    rng = random.Random(5)
    for m in build_corpus(ring4, rng, size=8):
        hom = hom_module(m, m)
        coords = hom.coordinates_of(identity_map(m))
        assert coords is not None
        if not m.is_zero():
            assert not hom.is_zero()


def test_hom_generating_maps_are_module_maps(ring4):
    m = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)
    n = yoneda(ring4, 2, 0)
    hom = hom_module(m, n)
    for f in hom.maps:
        f.check()


def test_yoneda_lemma(ring4, ring2):
    rng = random.Random(7)
    corpus = build_corpus(ring4, rng, size=10) + build_corpus(ring2, rng, size=10)
    count = 0
    for n in corpus:
        ring = n.ring
        for obj in ring.objects:
            hom = hom_module(yoneda(ring, obj, 0), n)
            assert hom.invariants == n.value_invariants((obj, 0))
            count += 1
            if count >= 20:
                return


def _skew(ring, obj):
    """Three copies of the representable of `obj` modulo e2 - 2 e1 - 2 e3
    on their units: the cover keeps copies 1 and 3, and the units of
    copy 2 lift to it only through the relation."""
    y = yoneda(ring, obj, 0)
    n, u = y.ngens((obj, 0)), ring.unit_pos[obj]
    return quotient_by_element(direct_sum(y, y, y), (obj, 0), {u: -2, n + u: 1, 2 * n + u: -2})


def _hom_cases(rng, ring1, ring2, ring3, ring4, ring6):
    """(M, N) pairs: the k = 1 graded groups of orders up to 4, seeded
    k = 2, 3 and 4 corpora into representable, cyclic-quotient and
    suspended targets and into themselves, and a seeded k = 6 corpus into
    representables.  The skew modules are sources and targets."""
    grid = trivial_modules_for(ring1, graded_group_grid(4)) + [_skew(ring1, 1)]
    cases = [(m, n) for m in grid for n in grid]
    for ring in (ring2, ring3, ring4):
        corpus = [m for m in build_corpus(ring, rng, size=12, max_gens=24) if not m.is_zero()]
        corpus.append(_skew(ring, ring.objects[-1]))
        targets = [yoneda(ring, x, e) for x in ring.objects for e in (0, 1)]
        for x, y in itertools.product(ring.objects, repeat=2):
            targets += [yoneda_cyclic_quotient(ring, x, 0, y, p) for p in range(len(ring.basis[(y, x)]))]
        targets += [suspend(m) for m in corpus]
        cases += [(m, n) for m in corpus for n in targets + [m]]
    # a second syzygy over k = 3 whose maps into itself, evaluated on the
    # lifts of its generators, cancel to explicit zeros
    z = second_syzygy(yoneda_cyclic_quotient(ring3, 3, 0, 1, 0))
    cases.append((z, z))
    corpus = [m for m in build_corpus(ring6, rng, size=8, max_gens=24) if not m.is_zero()]
    corpus.append(yoneda_cyclic_quotient(ring6, 1, 0, 2, 0))
    targets = [yoneda(ring6, x, e) for x in ring6.objects for e in (0, 1)]
    cases += [(m, n) for m in corpus for n in targets]
    return cases


def test_hom_matches_the_map_system_oracle(ring1, ring2, ring3, ring4, ring6):
    # the invariants of the all-basis map system that Hom solved before
    # it moved to the cover's Yoneda units, and explicit maps that pass
    # `check`, whose coordinates give back a map modulo N's relations
    rng = random.Random(31)
    non_maps = 0
    for M, N in _hom_cases(rng, ring1, ring2, ring3, ring4, ring6):
        hom = hom_module(M, N)
        assert hom.invariants == oracle_hom_module(M, N)
        for f in hom.maps:
            f.check()
        maps = [identity_map(M)] if M is N else []
        for _ in range(2):
            coeffs = {i: rng.randint(-3, 3) for i in range(len(hom.maps))}
            mats = {
                s: [intlin.mat_mul([coeffs], [f.mats[s][p] for f in hom.maps])[0] for p in range(M.ngens(s))]
                for s in M.slots
            }
            maps.append(ModuleMap(M, N, mats))
        for f in maps:
            coords = hom.coordinates_of(f)
            assert coords is not None
            for s in M.slots:
                back = [intlin.mat_mul([coords], [g.mats[s][p] for g in hom.maps])[0] for p in range(M.ngens(s))]
                assert N.agree(s, back, f.mats[s])
        # one entry of the last map moved by one, which mostly breaks it,
        # and a map with no rows at all
        s = next((s for s in M.slots if M.ngens(s) and N.ngens(s)), None)
        if s is not None:
            f = maps[-1]
            row = {**f.mats[s][0], 0: f.mats[s][0].get(0, 0) + 1}
            bumped = ModuleMap(M, N, {**f.mats, s: [{q: c for q, c in row.items() if c}, *f.mats[s][1:]]})
            try:
                bumped.check()
            except ValueError:
                assert hom.coordinates_of(bumped) is None
                non_maps += 1
        if any(M.ngens(s) for s in M.slots):
            assert hom.coordinates_of(ModuleMap(M, N, {})) is None
    assert non_maps > 50


def test_yoneda_images_rows_hold_no_zeros(ring3, monkeypatch):
    # maps of this second syzygy into itself, evaluated on the lifts of its
    # generators, cancel to zeros; the rows must drop them, since
    # `mat_mul` hands back a row picked by a lone 1 as it is
    z = second_syzygy(yoneda_cyclic_quotient(ring3, 3, 0, 1, 0))
    images = []
    yoneda_images = modules._yoneda_images

    def recorded(*args):
        rows = yoneda_images(*args)
        images.extend(rows)
        return rows

    monkeypatch.setattr(modules, "_yoneda_images", recorded)
    hom = hom_module(z, z)
    assert images and hom.maps
    assert all(0 not in row.values() for row in images)
    for f in hom.maps:
        f.check()


def test_hom_into_a_cyclic_quotient_finishes_at_k6(ring6):
    # the all-basis map system of Hom(y_1, Q) is 374 x 504, and its
    # echelon did not finish in 60 s; by Yoneda both groups are Q(1, 0)
    q = yoneda_cyclic_quotient(ring6, 1, 0, 2, 0)
    for m in (yoneda(ring6, 1, 0), q):
        out = []
        worker = threading.Thread(target=lambda: out.append(hom_module(m, q)), daemon=True)
        worker.start()
        worker.join(20.0)
        assert not worker.is_alive(), "hom_module did not return"
        assert out[0].invariants == q.value_invariants((1, 0))


# -- covers, kernels, resolutions ----------------------------------------


def test_cover_of_yoneda_is_identity_like(ring4):
    for obj in ring4.objects:
        cover = free_cover(yoneda(ring4, obj, 0))
        assert cover.source.entries == ((obj, 0),)
        k, _ = kernel_of(cover)
        assert k.is_zero()


def test_cover_of_zero_is_empty(ring4):
    cover = free_cover(zero_module(ring4))
    assert cover.source.entries == ()


def test_cover_surjective_on_corpus(ring4):
    from catring.intlin import Lattice

    rng = random.Random(11)
    for m in build_corpus(ring4, rng, size=8):
        cover = free_cover(m)
        cover.check()
        for s in m.slots:
            lat = Lattice()
            for row in m.rels[s]:
                lat.add(row)
            for row in cover.mats[s]:
                lat.add(row)
            # cokernel vanishes: every generator is reached
            for p in range(m.ngens(s)):
                assert {p: 1} in lat


def test_kernel_of_identity_and_zero(ring4):
    m = yoneda_cyclic_quotient(ring4, 4, 0, 2, 0)
    k, incl = kernel_of(identity_map(m))
    assert k.is_zero()
    n = yoneda(ring4, 1, 0)
    k, incl = kernel_of(zero_map(m, n))
    for s in m.slots:
        assert k.value_invariants(s) == m.value_invariants(s)
    # inclusion followed by the zero map vanishes
    comp = compose_maps(incl, zero_map(m, n))
    assert comp.is_zero()


def test_syzygy_chain_matches_the_kernel_module_chain(ring2, ring3, ring4, ring6):
    # levels 0 to 3 over seeded corpora and the cyclic quotients of each
    # ring's representables, with and without a seeded scan order: the
    # chain that covers kernel rows chooses the entries, and gives the
    # differentials and split answers, of the chain that covers each
    # syzygy as a kernel module; `kernel_of` builds that module as the
    # oracle does
    corpora = [
        build_corpus(ring2, random.Random(61), size=12),
        build_corpus(ring3, random.Random(62), size=12),
        build_corpus(ring4, random.Random(63), size=12),
        build_corpus(ring6, random.Random(64), size=10, max_gens=30),
    ]
    for corpus, ring in zip(corpora, (ring2, ring3, ring4, ring6)):
        corpus += [
            yoneda_cyclic_quotient(ring, obj, 0, src, 0)
            for obj in ring.objects
            for src in ring.objects
            if src != obj and ring.basis[(src, obj)]
        ]
    reordered = 0
    for corpus in corpora:
        for i, m in enumerate(corpus):
            entries = {}
            for seed in (None, 70 + i):
                syzygies = _Syzygies(m, None if seed is None else random.Random(seed))
                covers, diffs = oracle_syzygies(m, 3, None if seed is None else random.Random(seed))
                res = syzygies.resolution(3)
                entries[seed] = [F.entries for F in res.frees]
                assert entries[seed] == [cover.source.entries for cover in covers]
                assert res.augmentation.mats == covers[0].mats
                assert [d.mats for d in res.differentials] == [d.mats for d in diffs]
                torsion = any(m.value_invariants(s).torsion for s in m.slots)
                for n, cover in enumerate(covers):
                    split = not (n == 0 and torsion) and _splits(cover)
                    assert syzygies.splits(n) == split, (n, seed)
            reordered += len(set(map(str, entries.values()))) > 1
            for cover in covers:
                kernel, incl = kernel_of(cover)
                slow, slow_incl = oracle_kernel_of(cover)
                assert incl.mats == slow_incl.mats
                kernel.validate()
                assert canonical_json(module_to_dict(kernel, "h")) == canonical_json(module_to_dict(slow, "h"))
    # the seeded scans change some resolutions
    assert reordered


def test_kernel_of_checks_action_stability_when_a_row_is_read(ring4):
    # not a module map: the identity at object 1 and zero elsewhere, so
    # the kernel is all of Y(2) but nothing of Y(1), which Y(2) acts into;
    # `kernel_of` computes every action row, and the rows from Y(2) into
    # Y(1) have no coordinates
    y = yoneda(ring4, 2, 0)
    f = ModuleMap(y, y, {s: [{p: 1} if s == (1, 0) else {} for p in range(y.ngens(s))] for s in y.slots})
    with pytest.raises(ValueError, match="does not commute"):
        f.check()
    rows = _kernel_rows(f)
    assert len(rows[(2, 0)]) == y.ngens((2, 0)) and not rows[(1, 0)]
    with pytest.raises(ValueError, match="kernel is not action-stable"):
        kernel_of(f)


NOT_A_MODULE_MAP = """
from catring import build_presentation, complete, free_cover, kernel_of, yoneda
from catring.groups import Character
from catring.modules import ModuleMap, _echelon_lattice, _hom_maps
pres = build_presentation(4)
y = yoneda(complete(pres), 2, 0)
f = ModuleMap(y, y, {s: [{p: 1} if s == (1, 0) else {} for p in range(y.ngens(s))] for s in y.slots})
zero_cover = ModuleMap(free_cover(y).source, y, {})
for read in (
    lambda: kernel_of(f),
    lambda: _echelon_lattice([{0: 2}, {0: 3, 1: 1}]),
    lambda: _hom_maps(zero_cover, y, [{0: 1}]),
    lambda: build_presentation(6).restriction_word(6, 1, [2, 6]),
    lambda: build_presentation(6).induction_word(1, 6, [1, 3]),
    lambda: pres.multiplication_side(4, Character(2, (1, 0))),
):
    try:
        print("accepted", read() is not None)
    except ValueError as exc:
        print("ValueError", exc)
"""


def test_kernel_checks_survive_optimize():
    # the action-stability, echelon, onto-cover, subgroup-chain and
    # character checks are not asserts, which python -O strips:
    # `kernel_of` would store None for the rows it cannot express, and
    # `_hom_maps` would read lifts that are not there; a chain that does
    # not run from L to H would give a wrong word, and a character of
    # another subgroup a wrong multiplication
    proc = subprocess.run(
        [sys.executable, "-O", "-c", NOT_A_MODULE_MAP], env=src_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ValueError kernel is not action-stable",
        "ValueError coordinates need an echelon basis",
        "ValueError the cover is not onto",
        "ValueError chain [2, 6] does not run from 1 to 6",
        "ValueError chain [1, 3] does not run from 1 to 6",
        "ValueError character of the order-2 subgroup, not of the order-4 one",
    ]


def test_kernel_ranks_against_objectwise_snf(ring4):
    # independent check: rank of the kernel = dim - rank of the stacked
    # matrix [map; target relations] over Q, computed by sympy
    m = yoneda_cyclic_quotient(ring4, 4, 0, 2, 0)
    cover = free_cover(m)
    k, _ = kernel_of(cover)
    for s in m.slots:
        gf = cover.source.ngens(s)
        gn = m.ngens(s)
        rows = dense(cover.mats[s], gn) + dense_relations(m, s)
        if gf == 0:
            assert k.ngens(s) == 0
            continue
        mat = sympy.Matrix(rows) if rows else sympy.zeros(1, gn)
        stacked_rank = mat.rank()
        rel_rank = sympy.Matrix(dense_relations(m, s)).rank() if m.rels[s] else 0
        assert k.ngens(s) == gf - (stacked_rank - rel_rank)


def test_resolution_of_yoneda_has_zero_tail(ring4):
    res = free_resolution(yoneda(ring4, 2, 0), 3)
    assert res.frees[0].entries == ((2, 0),)
    for free in res.frees[1:]:
        assert free.entries == ()


def test_classical_resolution_of_cyclic(ring1):
    for n in (2, 3, 6):
        m = trivial_group_module(ring1, degree0=(n,))
        res = free_resolution(m, 3)
        assert [len(f.entries) for f in res.frees] == [1, 1, 0, 0]
        # the only differential is multiplication by n
        d1 = res.differentials[0]
        assert d1.mats[(1, 0)] == ({0: n},)


def test_boundary_composites_vanish(ring4):
    rng = random.Random(13)
    for m in build_corpus(ring4, rng, size=6):
        res = free_resolution(m, 3)
        for a, b in zip(res.differentials[1:], res.differentials[:-1]):
            assert compose_maps(a, b).is_zero()
        # augmentation kills the first differential modulo relations
        if res.differentials:
            comp = compose_maps(res.differentials[0], res.augmentation)
            from catring.intlin import Lattice

            for s in m.slots:
                lat = Lattice()
                for row in m.rels[s]:
                    lat.add(row)
                for row in comp.mats[s]:
                    assert row in lat


# -- Ext ------------------------------------------------------------------


def test_classical_ext_against_enumeration(ring1):
    z = trivial_group_module(ring1, degree0=(0,))
    for n in range(2, 7):
        m = trivial_group_module(ring1, degree0=(n,))
        res = ext(m, z, 1)
        assert (res.by_degree[0].free_rank, res.by_degree[0].torsion) == oracle_ext1((n,), (0,))
        assert res.by_degree[1].is_zero()


def test_ext_vanishes_on_representables(ring4):
    n = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)
    for obj in ring4.objects:
        p = yoneda(ring4, obj, 0)
        for deg in (1, 2):
            assert ext(p, n, deg).is_zero()


def test_ext_degree_zero_is_hom(ring4):
    rng = random.Random(17)
    corpus = build_corpus(ring4, rng, size=6)
    for m in corpus[:3]:
        for n in corpus[3:]:
            e0 = ext(m, n, 0)
            assert e0.by_degree[0] == hom_module(m, n).invariants
            assert e0.by_degree[1] == hom_module(m, suspend(n)).invariants


def test_ext_additive_in_direct_sums(ring4):
    m1 = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)
    m2 = yoneda(ring4, 4, 1)
    n = yoneda_cyclic_quotient(ring4, 4, 0, 2, 0)
    for deg in (0, 1, 2):
        combined = ext(direct_sum(m1, m2), n, deg)
        a = ext(m1, n, deg)
        b = ext(m2, n, deg)
        for e in (0, 1):
            assert combined.by_degree[e].free_rank == a.by_degree[e].free_rank + b.by_degree[e].free_rank
            assert sorted(combined.by_degree[e].torsion) == sorted(
                a.by_degree[e].torsion + b.by_degree[e].torsion
            )


def test_ext_resolution_independence(ring4):
    m = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)
    cover = free_cover(m)
    k1, _ = kernel_of(cover)
    for n in (k1, yoneda(ring4, 2, 1)):
        for deg in (1, 2, 3):
            base = ext(m, n, deg)
            shuffled = ext(m, n, deg, rng=random.Random(100 + deg))
            assert base.by_degree == shuffled.by_degree


def test_ext_suspension_invariance(ring4):
    m = yoneda_cyclic_quotient(ring4, 4, 0, 2, 1)
    n = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)
    for deg in (0, 1, 2):
        a = ext(m, n, deg)
        b = ext(suspend(m), suspend(n), deg)
        assert a.by_degree == b.by_degree


def test_euler_characteristic_additivity(ring1):
    # over the rank-one ring the Ext tail vanishes past degree 1, so the
    # alternating rank sum over 0 -> K -> F -> M -> 0 balances
    for shape in ((6,), (0, 4), (2, 2)):
        m = trivial_group_module(ring1, degree0=shape, degree1=(3,))
        n = trivial_group_module(ring1, degree0=(0, 2), degree1=(8,))
        cover = free_cover(m)
        k, _ = kernel_of(cover)
        f_mod = GradedModule(ring1, cover.source.gens, cover.source.rels, cover.source.act)
        for e in (0, 1):
            def chi(mod):
                return sum(
                    (-1) ** d * ext(mod, n, d).by_degree[e].free_rank for d in range(4)
                )

            assert chi(f_mod) == chi(m) + chi(k)


# -- projectivity ---------------------------------------------------------


def test_projectives(ring1, ring4):
    assert is_projective(yoneda(ring4, 2, 0))
    assert is_projective(yoneda(ring4, 1, 1))
    assert is_projective(direct_sum(yoneda(ring4, 1, 0), yoneda(ring4, 4, 1)))
    assert is_projective(zero_module(ring4))
    assert not is_projective(trivial_group_module(ring1, degree0=(2,)))
    assert is_projective(trivial_group_module(ring1, degree0=(0, 0)))


def test_projective_dimension_classical(ring1, ring4):
    assert projective_dimension(yoneda(ring4, 4, 0), 3) == 0
    for n in (2, 5, 8):
        assert projective_dimension(trivial_group_module(ring1, degree0=(n,)), 3) == 1
    assert projective_dimension(zero_module(ring4), 2) == 0


def test_high_projective_dimension_witness(ring4):
    m = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)
    pd = projective_dimension(m, 3)
    assert pd is ABOVE_CAP or pd >= 2
    # equivalent witness: a nonzero second Ext group
    cover = free_cover(m)
    k1, _ = kernel_of(cover)
    k2, _ = kernel_of(free_cover(k1))
    assert not ext(m, k2, 2).is_zero()


def test_uct_terms_classical(ring1):
    m = trivial_group_module(ring1, degree0=(2,))
    terms = uct_terms(m, m)
    assert terms.pd_within_one
    assert str(terms.hom.by_degree[0]) == "Z/2"
    assert terms.hom.by_degree[1].is_zero()
    assert terms.ext1_shifted.by_degree[0].is_zero()
    assert str(terms.ext1_shifted.by_degree[1]) == "Z/2"


def test_uct_degenerates_for_projectives(ring4):
    p = direct_sum(yoneda(ring4, 2, 0), yoneda(ring4, 4, 1))
    n = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)
    terms = uct_terms(p, n)
    assert terms.pd_within_one
    assert terms.ext1_shifted.is_zero()
    assert terms.hom.by_degree == ext(p, n, 0).by_degree


def test_uct_flags_long_resolutions(ring4):
    m = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)
    n = yoneda(ring4, 2, 0)
    terms = uct_terms(m, n)
    assert not terms.pd_within_one


def test_functoriality_property_on_corpus(ring2):
    # action(normal_form(b then b')) == action(b) . action(b') follows from
    # validate(), which checks it on letters b'; spot-check it directly on
    # one module and all pairs
    m = yoneda_cyclic_quotient(ring2, 2, 0, 1, 0)
    ring = ring2
    table = file_table(ring)
    for fu, (x, y, _) in enumerate(ring.flat):
        for fv, (y2, z, _) in enumerate(ring.flat):
            if y2 != y:
                continue
            vec = table[(fu, fv)]
            off = ring.offset[(x, z)]
            for e in (0, 1):
                lhs = mat_mul(dense_action(m, fv, e), dense_action(m, fu, e), m.ngens((x, e)))
                rhs = [[0] * m.ngens((x, e)) for _ in range(m.ngens((z, e)))]
                for t, c in enumerate(vec):
                    if c:
                        for i, row in enumerate(dense_action(m, off + t, e)):
                            for j, v in enumerate(row):
                                rhs[i][j] += c * v
                assert lhs == rhs


def test_is_projective_matches_ext_oracle(ring1, ring2, ring4):
    # M is projective exactly when its cover F -> M splits, i.e. when the
    # extension 0 -> K -> F -> M -> 0 vanishes in Ext^1(M, K); ext does not
    # use the module-map constraint system, so it is an independent oracle
    rng = random.Random(19)
    seen = set()
    for ring in (ring1, ring2, ring4):
        for m in build_corpus(ring, rng, size=6, max_gens=14):
            k, _ = kernel_of(free_cover(m))
            projective = is_projective(m)
            assert projective == ext(m, k, 1).is_zero()
            seen.add(projective)
    assert seen == {True, False}


def test_free_cover_leaves_relation_lattice_intact(ring4):
    m = yoneda_cyclic_quotient(ring4, 4, 0, 2, 0)
    before = {s: [dict(r) for r in m.relation_lattice(s).rows] for s in m.slots}
    first = free_cover(m)
    second = free_cover(m)
    assert {s: m.relation_lattice(s).rows for s in m.slots} == before
    assert first.source.entries == second.source.entries
    assert first.mats == second.mats


def test_is_projective_matches_dense_solve(ring1, ring2, ring4):
    # the full section system of the cover, which `is_projective` solved
    # before `_splits`, built dense and solved by the dense echelon,
    # decides the same
    rng = random.Random(23)
    seen = set()
    for ring in (ring1, ring2, ring4):
        for m in build_corpus(ring, rng, size=8, max_gens=14):
            if any(m.value_invariants(s).torsion for s in m.slots):
                continue  # decided before any system is built
            system, targets = _section_system(free_cover(m))
            rows = dense_map_system_rows(system)
            expected = dense_solve_left(rows, len(targets), targets) is not None
            assert is_projective(m) == expected
            seen.add(expected)
    assert seen == {True, False}


def _chain_corpus(rng, ring1, ring2, ring4, ring6):
    """Seeded corpora over k = 1, 2, 4, which come out mostly projective,
    plus modules of projective dimension 1 and above 3 over k = 1, 2, 4,
    and a few small modules over k = 6."""
    corpus = [m for ring in (ring1, ring2, ring4) for m in build_corpus(ring, rng, size=7, max_gens=12)]
    corpus += [trivial_group_module(ring1, degree0=(n,), degree1=tail) for n in (2, 6) for tail in ((), (0,))]
    corpus += [yoneda_cyclic_quotient(ring2, 1, 0, 2, 0), yoneda_cyclic_quotient(ring2, 2, 1, 1, 0)]
    corpus += [
        yoneda_cyclic_quotient(ring4, 2, 0, 1, 0),
        yoneda_cyclic_quotient(ring4, 4, 1, 2, 1),
        direct_sum(yoneda(ring4, 1, 0), yoneda_cyclic_quotient(ring4, 1, 0, 4, 0)),
    ]
    y = yoneda(ring6, 1, 0)
    corpus += [
        y,
        yoneda(ring6, 6, 1),
        yoneda_cyclic_quotient(ring6, 6, 0, 3, 0),
        yoneda_cyclic_quotient(ring6, 3, 0, 2, 0),
        direct_sum(y, yoneda_cyclic_quotient(ring6, 2, 1, 1, 0)),
    ]
    return corpus


def test_splits_match_dense_section_system_on_every_level(ring1, ring2, ring4, ring6):
    # `_splits` solves for a map F -> F on the Yoneda units that kills the
    # kernel; the full section system M -> F of the same cover, solved
    # dense, must decide the same at every level, on the cover of each
    # syzygy as a kernel module, and so must the chain on its differential
    seen = {}
    for m in _chain_corpus(random.Random(31), ring1, ring2, ring4, ring6):
        syzygies = _Syzygies(m)
        covers, _ = oracle_syzygies(m, 3)
        for n, cover in enumerate(covers):
            if sum(cover.source.ngens(s) for s in m.slots) > 40:
                break  # the dense oracle would be slow
            expected = oracle_section(cover) is not None
            assert _splits(cover) == expected, (n, m.gens)
            assert syzygies.splits(n) == expected, (n, m.gens)
            seen.setdefault(n, set()).add(expected)
        assert is_projective(m) == (oracle_section(free_cover(m)) is not None)
    assert all(seen.get(n) == {True, False} for n in range(4)), seen


def test_sections_solve_the_reduced_split_system(ring1, ring4, ring6, monkeypatch):
    # the system `_splits` hands to `solve_left` has the tau(e_j), entry
    # after entry, as its unknowns.  Its first equations are the values of
    # tau on the kernel rows, and the proof's tau = pi then sigma, for the
    # section sigma the dense section system finds, solves it modulo the
    # slack rows that follow the unknowns
    systems = []
    solve = modules.solve_left

    def capture(rows, target):
        systems.append((rows, target))
        return solve(rows, target)

    monkeypatch.setattr(modules, "solve_left", capture)
    # Z^2 / (2, -3) is Z, but its cover takes both generators, and no
    # section lifts them without the relation
    z2 = {(1, 0): ("g1", "g2")}
    corpus = [GradedModule(ring1, z2, {(1, 0): sparse([[2, -3]])}, {(0, 0): sparse([[1, 0], [0, 1]])})]
    # the same over k = 4: two copies of a representable modulo a
    # unimodular pair of units, again covered by both
    for x in ring4.objects:
        yy = direct_sum(yoneda(ring4, x, 0), yoneda(ring4, x, 0))
        u, half = ring4.unit_pos[x], yy.ngens((x, 0)) // 2
        corpus.append(quotient_by_element(yy, (x, 0), {u: 2, half + u: -3}))
    corpus += build_corpus(ring4, random.Random(43), size=8, max_gens=12)
    # over k = 6, two words of one entry can act onto a shared column, so
    # one kernel equation sums several terms
    corpus.append(yoneda_cyclic_quotient(ring6, 6, 0, 2, 0))
    rng = random.Random(47)
    checked = 0
    for m in corpus:
        covers, _ = oracle_syzygies(m, 2)
        for cover in covers:
            # `compose_maps(cover, sigma)` below needs a cover onto the
            # syzygy as a module, which a section lifts from
            F, kernel = cover.source, _kernel_rows(cover)
            systems.clear()
            splits = _splits(cover)
            ((rows, target),) = systems

            def unknowns(values):
                # the vector of unknowns of the tau with tau(e_j) = values[j]
                x, nvars = {}, 0
                for j, slot in enumerate(F.entries):
                    x.update({nvars + t: c for t, c in values[j].items()})
                    nvars += F.ngens(slot)
                return x, nvars

            # a random tau, extended by Yoneda, is a module map, and the
            # first equations take the values of tau on the kernel rows
            values = [{t: rng.randint(-3, 3) for t in range(F.ngens(slot))} for slot in F.entries]
            x, nvars = unknowns(values)
            mats = {}
            for s in F.slots:
                mats[s] = [None] * F.ngens(s)
                for j, (start, size) in F.blocks[s].items():
                    off = F.ring.offset[(s[0], F.entries[j][0])]
                    for u in range(size):
                        mats[s][start + u] = intlin.mat_mul([values[j]], F.act[(off + u, s[1])])[0]
            tau = ModuleMap(F, F, mats)
            tau.check()
            on_kernel = []
            for s in F.slots:
                on_kernel += itertools.chain(*dense(intlin.mat_mul(kernel[s], tau.mats[s]), F.ngens(s)))
            (value,) = intlin.mat_mul([x], rows[:nvars])
            assert dense([value], len(on_kernel)) == [on_kernel]

            sigma = oracle_section(cover)
            assert splits == (sigma is not None)
            if sigma is None:
                continue
            # tau = pi then sigma solves the system modulo its slack rows
            tau = compose_maps(cover, sigma)
            x, _ = unknowns([tau.mats[slot][F.unit_index(j)[1]] for j, slot in enumerate(F.entries)])
            (value,) = intlin.mat_mul([x], rows)
            slack = intlin.Lattice()
            for row in rows[nvars:]:
                slack.add(row)
            assert {q: value.get(q, 0) - target.get(q, 0) for q in value.keys() | target.keys()} in slack
            checked += any(any(krows) for krows in kernel.values())
    assert checked >= 4


def test_projective_dimension_matches_the_loop_without_a_chain(ring1, ring2, ring4, ring6):
    values = set()
    for m in _chain_corpus(random.Random(37), ring1, ring2, ring4, ring6):
        for cap in (1, 3):
            pd = projective_dimension(m, cap)
            assert pd == oracle_projective_dimension(m, cap)
            values.add(pd if pd is ABOVE_CAP else int(pd))
        assert is_projective(m) == oracle_is_projective(m)
    assert {0, 1, ABOVE_CAP} <= values, values


def test_uct_terms_read_one_resolution(ring2, ring4):
    # the suspended resolution of M resolves suspend(M): Ext^1 of the
    # suspension is Ext^1 of M with its degrees swapped
    rng = random.Random(41)
    for ring in (ring2, ring4):
        corpus = build_corpus(ring, rng, size=8, max_gens=16)
        for m in corpus:
            n = rng.choice(corpus)
            terms = uct_terms(m, n)
            shifted = ext(suspend(m), n, 1)
            assert terms.ext1_shifted.degree == shifted.degree == 1
            assert list(terms.ext1_shifted.by_degree.items()) == list(shifted.by_degree.items())
            assert terms.hom.by_degree == ext(m, n, 0).by_degree
            pd = oracle_projective_dimension(m, 1)
            assert terms.pd_within_one == (pd is not ABOVE_CAP and pd <= 1)


def test_ext_on_level_n_matches_the_longer_resolution(ring2, ring3, ring4, ring6):
    # Ext^n reads levels 0..n of the chain and the kernel rows of level n;
    # the oracle reads the induced matrices of d_n and d_{n+1} on a
    # resolution of length n + 1.  Over seeded corpora and the cyclic
    # quotients of each ring, into a representable, a cyclic quotient
    # (targets with relations) and a corpus module, with and without a
    # seeded scan order; Hom and the UCT terms are the oracle's Ext^0 and
    # shifted Ext^1
    cases = [
        (ring2, build_corpus(ring2, random.Random(81), size=8)),
        (ring3, build_corpus(ring3, random.Random(82), size=8)),
        (ring4, build_corpus(ring4, random.Random(83), size=8)),
        (ring6, build_corpus(ring6, random.Random(84), size=6, max_gens=24)),
    ]
    checked, nonzero = 0, set()
    for ring, corpus in cases:
        quotients = [
            yoneda_cyclic_quotient(ring, obj, 0, src, 0)
            for obj in ring.objects
            for src in ring.objects
            if src != obj and ring.basis[(src, obj)]
        ]
        targets = [yoneda(ring, ring.objects[-1], 0), quotients[0], corpus[-1]]
        for i, M in enumerate(corpus + quotients):
            for j, N in enumerate(targets):
                want = [oracle_ext(M, N, n) for n in range(4)]
                for n in range(4):
                    assert ext(M, N, n) == want[n], (ring.objects, i, j, n)
                    seed = 1000 * i + 10 * j + n
                    assert ext(M, N, n, random.Random(seed)) == oracle_ext(M, N, n, random.Random(seed)) == want[n]
                    nonzero.update(n for e in (0, 1) if not want[n].by_degree[e].is_zero())
                    checked += 1
                terms = uct_terms(M, N)
                assert terms.hom == want[0]
                assert terms.ext1_shifted == ExtResult(1, {e: want[1].by_degree[1 - e] for e in (0, 1)})
                assert hom_module(M, N).invariants == want[0].by_degree[0]
    # every degree is nonzero somewhere, so no comparison is of zeros only
    assert nonzero == {0, 1, 2, 3}, nonzero
    assert checked > 500, checked


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(modules, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(modules, name, counted)
    return calls


def test_projective_dimension_covers_each_level_once(ring1, ring4, monkeypatch):
    # level n covers the n-th syzygy once, and builds no kernel module
    cases = [
        (yoneda(ring4, 2, 0), 0),
        (trivial_group_module(ring1, degree0=(6,)), 1),
        (yoneda_cyclic_quotient(ring4, 2, 0, 1, 0), ABOVE_CAP),
    ]
    for m, want in cases:
        assert oracle_projective_dimension(m, 3) is want or oracle_projective_dimension(m, 3) == want
        covers = _count_calls(monkeypatch, "free_cover")
        kernels = _count_calls(monkeypatch, "kernel_of")
        pd = projective_dimension(m, 3)
        monkeypatch.undo()
        assert pd is want or pd == want
        levels = 4 if pd is ABOVE_CAP else pd + 1
        assert len(covers) == levels
        assert not kernels


def test_uct_terms_resolve_once(ring4, monkeypatch):
    m = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)
    covers = _count_calls(monkeypatch, "free_cover")
    kernels = _count_calls(monkeypatch, "kernel_of")
    uct_terms(m, yoneda(ring4, 2, 0))
    monkeypatch.undo()
    # covers F_0 and F_1, whose kernel rows Ext^1 reads, and no kernel
    # module; when Ext read the induced matrix of d_2 it covered F_2 too,
    # 3 covers
    assert (len(covers), len(kernels)) == (2, 0)


def test_resolution_queries_pin_their_work(ring4, monkeypatch):
    # work-count guards on a module of infinite projective dimension.  A
    # syzygy is its kernel rows in the previous free module, so the covers
    # make one product per image row of a kernel row they read, no kernel
    # module is built and no differential is composed, and
    # `Lattice.coordinates` runs only in the cohomology of Ext.  Ext^n
    # reads levels 0..n and the kernel rows of level n, so `ext(m, y, 2)`
    # covers 3 levels and `uct_terms` 2.  When Ext read the induced matrix
    # of d_{n+1}, on one level more, the same calls made (29, 0, 0, 4),
    # (29, 2, 0, 4) and (14, 4, 0, 3) `mat_mul`, `coordinates`,
    # `kernel_of` and `free_cover` calls.  When each syzygy was a kernel
    # module that computed its action rows on first read, they made 29, 47
    # and 26 `mat_mul` calls, 29, 31 and 18 `coordinates` calls and 3, 3
    # and 2 `kernel_of` calls, with 4, 4 and 3 covers.
    m = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)
    y = yoneda(ring4, 2, 0)
    coordinates = intlin.Lattice.coordinates
    for run, want in (
        (lambda: projective_dimension(m, 3), (29, 0, 0, 4)),
        (lambda: ext(m, y, 2), (14, 2, 0, 3)),
        (lambda: uct_terms(m, y), (7, 4, 0, 2)),
    ):
        products = _count_calls(monkeypatch, "mat_mul")
        kernels = _count_calls(monkeypatch, "kernel_of")
        covers = _count_calls(monkeypatch, "free_cover")
        back_substitutions = []

        def counted(lat, vec):
            back_substitutions.append(vec)
            return coordinates(lat, vec)

        monkeypatch.setattr(intlin.Lattice, "coordinates", counted)
        run()
        monkeypatch.undo()
        assert (len(products), len(back_substitutions), len(kernels), len(covers)) == want


def test_map_system_rows_are_sparse_without_zeros(ring4):
    # the unit acts as the identity on both sides of Hom(Y, Y), so its
    # commutation equations cancel a variable to an explicit zero
    y = yoneda(ring4, 2, 0)
    cases = [(y, y)] + [(m, y) for m in build_corpus(ring4, random.Random(29), size=5)]
    zeros = 0
    for M, N in cases:
        system = _MapSystem(M, N)
        zeros += sum(1 for expr in system.equations for c in expr.values() if not c)
        rows = system.rows()
        assert all(all(row.values()) for row in rows)
        dense = [[row.get(j, 0) for j in range(len(system.equations))] for row in rows]
        assert dense == dense_map_system_rows(system)
    assert zeros


def test_free_cover_matches_quadratic_prune(ring1, ring4):
    # Z^3 / (y - 2x - 2z): the scan keeps x, y and z, and y is pruned only
    # because of the relation and of entries on both sides of it
    obj = ring1.objects[0]
    gens, rels = {(obj, 0): ("x", "y", "z")}, {(obj, 0): sparse([(-2, 1, -2)])}
    skew = GradedModule(ring1, gens, rels, {(0, 0): sparse(mat_identity(3))})
    assert free_cover(skew, [0, 1, 2]).source.entries == ((obj, 0), (obj, 0))
    rng = random.Random(31)
    pruned = 0
    for m in [skew, *build_corpus(ring4, rng, size=10)]:
        n = sum(m.ngens(s) for s in m.slots)
        for _ in range(3):
            order = list(range(n))
            rng.shuffle(order)
            fast, (slow, scanned) = free_cover(m, order), oracle_free_cover(m, order)
            assert fast.source.entries == slow.source.entries
            assert fast.mats == slow.mats
            pruned += scanned - len(slow.source.entries)
    assert pruned


def _free_corpus(ring4, ring6):
    """Seeded corpora over k = 4 and k = 6, the rings the query benchmark
    covers over."""
    return [
        *build_corpus(ring4, random.Random(13), size=12),
        *build_corpus(ring6, random.Random(17), size=10, max_gens=30),
    ]


def _corpus_covers(corpus, levels=3):
    """The first `levels` levels of every corpus module's syzygy chain,
    each with the generators it covers: None at level 0, which covers the
    module, and the previous level's kernel rows after it."""
    covers = []
    for m in corpus:
        syzygies = _Syzygies(m)
        for n in range(levels):
            covers.append((_kernel_rows(syzygies.cover(n - 1)) if n else None, syzygies.cover(n)))
    return covers


def test_covers_read_free_modules_kept_on_the_ring(ring4, ring6):
    entries = set()
    for generators, cover in _corpus_covers(_free_corpus(ring4, ring6)):
        m, F = cover.target, cover.source
        fresh = FreeModule(m.ring, F.entries)
        assert fresh is not F
        assert (F.entries, F.gens, F.rels, F.act, F.blocks) == (
            fresh.entries,
            fresh.gens,
            fresh.rels,
            fresh.act,
            fresh.blocks,
        )
        assert free_module(m.ring, F.entries) is F
        assert free_cover(m, None, generators).source is F
        if generators is None:
            # deeper levels cover kernel rows, which
            # `test_syzygy_chain_matches_the_kernel_module_chain` checks
            slow, _ = oracle_free_cover(m)
            assert (F.entries, cover.mats) == (slow.source.entries, slow.mats)
        entries.add((m.ring.presentation.group_order, F.entries))
    assert len(entries) >= 12
    # different modules with one entry tuple share the free module
    y = yoneda(ring4, 2, 0)
    quotient = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)
    assert free_cover(y).source is free_cover(quotient).source


def test_free_modules_kept_drop_the_oldest_past_the_bound():
    ring = complete(build_presentation(1))  # its own cache, not a fixture's
    obj = ring.objects[0]
    keys = [((obj, 0),) * n for n in range(FREE_MODULES_KEPT + 1)]
    oldest = free_module(ring, keys[0])
    second = free_module(ring, keys[1])
    for key in keys[2:-1]:
        free_module(ring, key)
    assert list(ring._free_modules) == keys[:-1]
    assert free_module(ring, keys[0]) is oldest  # a hit keeps its place
    free_module(ring, keys[-1])
    assert list(ring._free_modules) == keys[1:]
    assert free_module(ring, keys[1]) is second
    rebuilt = free_module(ring, keys[0])
    assert rebuilt is not oldest and rebuilt.entries == oldest.entries
    assert keys[1] not in ring._free_modules


def _free_module_state(F):
    lattices = {s: copy.deepcopy(lat.pivots) for s, lat in F._rel_lattices.items()}
    return copy.deepcopy((F.entries, F.gens, F.rels, F.act, F.blocks)), lattices


def test_queries_leave_kept_free_modules_unchanged(ring4, ring6):
    # a kept free module is shared by every later cover: no query may
    # change its rows or a relation lattice built on it
    corpus = _free_corpus(ring4, ring6)
    _corpus_covers(corpus)
    kept = [F for ring in (ring4, ring6) for F in ring._free_modules.values()]
    for F in kept:
        for s in F.slots:
            F.relation_lattice(s)
    before = [_free_module_state(F) for F in kept]
    # the kept free modules are queried too, as sources and as targets
    queried = [*corpus, *(F for F in kept if sum(F.ngens(s) for s in F.slots) <= 24)]
    rng = random.Random(61)
    for m in queried:
        n = rng.choice([n for n in queried if n.ring is m.ring])
        for degree in range(4):
            ext(m, n, degree)
        uct_terms(m, n)
        projective_dimension(m, 3)
        free_resolution(m, 3)
    assert [_free_module_state(F) for F in kept] == before


def test_coordinates_need_an_echelon_basis():
    coords = _echelon_lattice([{0: 1, 1: 2}, {1: 3}]).coordinates({0: 2, 1: 7})
    assert dense([coords], 2) == [[2, 1]]
    with pytest.raises(ValueError, match="echelon"):
        _echelon_lattice([{0: 2}, {0: 3, 1: 1}])


def test_quotient_rejects_an_element_that_does_not_fit_its_slot(ring2):
    # the slot has two generators; the check is a ValueError, so it holds
    # under `python -O` too
    m = yoneda(ring2, 1, 0)
    assert m.ngens((1, 0)) == 2
    for vector in ([0, 0, 0, 0, 0], [0, 1], {7: 1}, {-1: 1}):
        with pytest.raises(ValueError, match=r"element at slot \(1, 0\)"):
            quotient_by_element(m, (1, 0), vector)
    assert quotient_by_element(m, (1, 0), {0: 1, 1: 0}).rels[(1, 0)] == ({0: 1}, {1: 1})


def test_validate_rejects_dict_columns_out_of_range(ring2):
    # dict rows are not checked when the module is built; validate names
    # the slot or the (basis, degree) pair before any product
    y = yoneda(ring2, 1, 0)
    assert y.ngens((1, 0)) == 2
    for row in ({7: 1}, {-1: 1}):
        bad = GradedModule(ring2, y.gens, {(1, 0): [row]}, y.act)
        with pytest.raises(ValueError, match=r"relations at slot \(1, 0\)"):
            bad.validate()
    fb = ring2.offset[(1, 1)] + ring2.unit_pos[1]
    act = dict(y.act)
    act[(fb, 0)] = ({5: 1},) + tuple(act[(fb, 0)][1:])
    bad = GradedModule(ring2, y.gens, {}, act)
    with pytest.raises(ValueError, match=rf"action matrix of \(basis, degree\) \({fb}, 0\): columns \[5\]"):
        bad.validate()


def test_validate_rejects_rows_that_are_not_sparse_rows_of_their_slot(ring2):
    # modules store their rows as given; validate names the slot or the
    # (basis, degree) pair of a dense row, a stored zero or a missing row
    y = yoneda(ring2, 1, 0)
    for row, message in (([0, 1], "is not a"), ({0: 0}, "stores a zero")):
        bad = GradedModule(ring2, y.gens, {(1, 0): [row]}, y.act)
        with pytest.raises(ValueError, match=rf"relations at slot \(1, 0\): .*{message}"):
            bad.validate()
    fb = ring2.offset[(1, 1)] + ring2.unit_pos[1]
    unit = y.act[(fb, 0)]
    for rows, message in (
        ([[1, 0], *unit[1:]], "is not a"),
        ([{0: 1, 1: 0}, *unit[1:]], "stores a zero"),
        (unit[1:], "expected 2 rows, got 1"),
    ):
        bad = GradedModule(ring2, y.gens, {}, {**y.act, (fb, 0): rows})
        with pytest.raises(ValueError, match=rf"action matrix of \(basis, degree\) \({fb}, 0\): .*{message}"):
            bad.validate()


def test_map_check_rejects_rows_that_are_not_sparse_rows_of_their_slot(ring2):
    y = yoneda(ring2, 1, 0)
    f = identity_map(y)
    f.check()
    for rows, message in (
        ([[1, 0], {1: 1}], "is not a"),
        ([{0: 1, 1: 0}, {1: 1}], "stores a zero"),
        ([{0: 1}], "expected 2 rows, got 1"),
        ([{0: 1}, {2: 1}], r"columns \[2\]"),
    ):
        bad = ModuleMap(y, y, {**f.mats, (1, 0): rows})
        with pytest.raises(ValueError, match=rf"map at slot \(1, 0\): .*{message}"):
            bad.check()


# -- validation on letters against the all-pairs oracle -----------------


def _dense_act(module):
    return {(fb, e): dense_action(module, fb, e) for fb, e in module.act}


def _sparse_act(act):
    return {key: sparse(rows) for key, rows in act.items()}


def _rejection(check, module):
    """The message of the ValueError `check` raises on `module`, or None
    when it accepts it."""
    try:
        check(module)
    except ValueError as exc:
        return str(exc)
    return None


def _corruptions(module, rng, count):
    """`count` copies of `module`, each with one action entry moved by a
    nonzero amount."""
    keys = sorted(k for k, mat in _dense_act(module).items() if mat and mat[0])
    out = []
    for _ in range(count if keys else 0):
        act = _dense_act(module)
        mat = act[rng.choice(keys)]
        mat[rng.randrange(len(mat))][rng.randrange(len(mat[0]))] += rng.choice((-2, -1, 1, 2))
        out.append(GradedModule(module.ring, module.gens, module.rels, _sparse_act(act)))
    return out


def test_validate_matches_pairwise_oracle(ring1, ring2, ring3, ring4, ring6):
    # the letters check accepts exactly the modules the all-pairs check
    # accepts, and raises word for word what it raised before its letters
    # loop was fused into one pass per row (`oracle_letters_validate`)
    rng = random.Random(11)
    verdicts = {True: 0, False: 0}
    for ring in (ring1, ring2, ring3, ring4, ring6):
        for m in build_corpus(ring, rng, size=10):
            for candidate in [m, *_corruptions(m, rng, 8)]:
                message = _rejection(GradedModule.validate, candidate)
                assert message == _rejection(oracle_letters_validate, candidate)
                assert (message is None) == (_rejection(pairwise_validate, candidate) is None)
                verdicts[message is None] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50


def test_validate_rejects_corruption_off_the_letters(ring4):
    # a basis monomial of word length 2 is never a letter; its action is
    # only reached through the table products of the pairs checked
    letters = {fb for fbs in _letters(ring4).values() for fb in fbs}
    m = yoneda(ring4, 2, 0)
    act = _dense_act(m)
    fb = next(
        fb for fb, (_, _, w) in enumerate(ring4.flat) if len(w) >= 2 and act[(fb, 0)] and act[(fb, 0)][0]
    )
    assert fb not in letters
    act[(fb, 0)][0][0] += 1
    broken = GradedModule(ring4, m.gens, m.rels, _sparse_act(act))
    for check in (GradedModule.validate, pairwise_validate):
        with pytest.raises(ValueError, match="not functorial"):
            check(broken)


def test_validate_checks_pairs_through_an_empty_layer(ring4):
    # drop the value at object 2 from the representable of object 4: the
    # action of 9*10 (1 -> 2 -> 4) now factors through zero, yet is kept
    m = yoneda(ring4, 4, 0)
    gens = dict(m.gens)
    gens[(2, 0)] = ()
    act = _dense_act(m)
    for fb, (x, y, _) in enumerate(ring4.flat):
        if y == 2:
            act[(fb, 0)] = []
        elif x == 2:
            act[(fb, 0)] = [[] for _ in act[(fb, 0)]]
    hollow = GradedModule(ring4, gens, m.rels, _sparse_act(act))
    through = ring4.offset[(1, 4)]
    assert ring4.flat[through][2] == (9, 10) and any(any(r) for r in act[(through, 0)])
    for check in (GradedModule.validate, pairwise_validate):
        with pytest.raises(ValueError, match="not functorial"):
            check(hollow)


def test_validate_accepts_actions_moved_by_relations(ring4):
    # adding a relation row at the source slot to an action row leaves the
    # action on the quotient unchanged: both checks accept
    m = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)
    moved_any = 0
    for fb, (x, _, _) in enumerate(ring4.flat):
        if not (m.rels[(x, 0)] and m.act[(fb, 0)]):
            continue
        act = _dense_act(m)
        act[(fb, 0)][-1] = [a + r for a, r in zip(act[(fb, 0)][-1], dense_relations(m, (x, 0))[-1])]
        moved = GradedModule(ring4, m.gens, m.rels, _sparse_act(act))
        assert moved.act != m.act
        moved.validate()
        pairwise_validate(moved)
        moved_any += 1
    assert moved_any


def test_letters_are_the_arrow_form_support(ring4):
    support = {
        ring4.offset[(f.source, f.target)] + t
        for f in ring4.arrow_forms.values()
        for t, _ in f.row
    }
    letters = _letters(ring4)
    assert {fb for fbs in letters.values() for fb in fbs} == support
    assert all(ring4.flat[fb][0] == x for x, fbs in letters.items() for fb in fbs)
    # torsion breaks the linearity the proof needs: every basis element
    # becomes a letter, which is the all-pairs check
    twisted = copy.copy(ring4)
    twisted.torsion = dict(ring4.torsion)
    twisted.torsion[(1, 1)] = [None, 2, None, None]
    assert _letters(twisted) == {
        x: [fb for fb, (src, _, _) in enumerate(ring4.flat) if src == x] for x in ring4.objects
    }
