"""Acceptance suite: one test per criterion, each printing a PASS line
with its wall-clock time and asserting the stated runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from catring import (
    ABOVE_CAP,
    build_presentation,
    complete,
    direct_sum,
    double_cosets,
    ext,
    free_cover,
    hom_module,
    induce_character,
    is_projective,
    kernel_of,
    normal_form,
    presentation_c4,
    presentations_equivalent,
    projective_dimension,
    suspend,
    trivial_group_module,
    uct_terms,
    verify_ring,
    yoneda,
    yoneda_cyclic_quotient,
)
from catring.groups import Character, character, trivial_character
from catring.presentation import CONJUGATION, IDENTITY, INDUCTION, MULTIPLICATION, RESTRICTION
from catring.serialize import load_json, module_from_dict, ring_to_dict

from conftest import RING_BUILD_SECONDS, src_env
from corpus import graded_group_grid
from oracles import oracle_complete, oracle_graded_ext1, oracle_graded_hom

ORACLE_TOTAL_RANK = {1: 1, 2: 6, 3: 8, 4: 22}
ORACLE_RANKS_K4 = {
    (1, 1): 4, (1, 2): 2, (1, 4): 1,
    (2, 1): 2, (2, 2): 4, (2, 4): 2,
    (4, 1): 1, (4, 2): 2, (4, 4): 4,
}


@contextmanager
def budget(number, description, seconds, extra=0.0):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start + extra
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s / budget {seconds:.0f}s): {description}")
    assert elapsed < seconds, f"criterion {number} exceeded its {seconds}s budget: {elapsed:.2f}s"


def test_criterion_1_generator_census(ring4, ring_c4_hand):
    with budget(1, "generator census and structural equality", 1.0):
        pres = build_presentation(4)
        assert len(pres.generators) == 11
        census = {(g.kind, g.H, g.L) for g in pres.generators}
        assert census == {
            (IDENTITY, 1, None), (IDENTITY, 2, None), (IDENTITY, 4, None),
            (CONJUGATION, 1, None), (CONJUGATION, 2, None),
            (MULTIPLICATION, 2, None), (MULTIPLICATION, 4, None),
            (RESTRICTION, 2, 1), (RESTRICTION, 4, 2),
            (INDUCTION, 2, 1), (INDUCTION, 4, 2),
        }
        report = presentations_equivalent(
            pres, presentation_c4(), ring_p=ring4, ring_q=ring_c4_hand
        )
        assert report.equivalent, report.failures


def test_criterion_2_relation_fidelity(ring4):
    with budget(2, "all hand-presentation relation families hold in the table", 10.0):
        hand = presentation_c4()
        translate = {
            i: ring4.presentation.gen(g.kind, g.H, g.L) for i, g in enumerate(hand.generators)
        }
        for rel in hand.relations:
            forms = []
            for side in rel.sides:
                moved = tuple((c, tuple(translate[gi] for gi in w)) for c, w in side)
                forms.append(normal_form(ring4, moved, source=rel.source, target=rel.target))
            for other in forms[1:]:
                assert other == forms[0], f"{rel.tag} fails"
        # the five equalities called out explicitly
        p = ring4.presentation
        c1, c2 = p.gen(CONJUGATION, 1), p.gen(CONJUGATION, 2)
        m2, m4 = p.gen(MULTIPLICATION, 2), p.gen(MULTIPLICATION, 4)
        r21, r42 = p.gen(RESTRICTION, 2, 1), p.gen(RESTRICTION, 4, 2)
        i21, i42 = p.gen(INDUCTION, 2, 1), p.gen(INDUCTION, 4, 2)
        pairs = [
            ((i21, r21), ((1, ()), (1, (c1, c1)))),
            ((i42, r42), ((1, ()), (1, (c2,)))),
            ((r21, i21), ((1, ()), (1, (m2,)))),
            ((r42, i42), ((1, ()), (1, (m4, m4)))),
            ((r42, m2, i42), ((1, (m4,)), (1, (m4, m4, m4)))),
        ]
        for word, combo in pairs:
            lhs = normal_form(ring4, word)
            rhs = normal_form(ring4, combo, source=lhs.source, target=lhs.target)
            assert lhs == rhs


def test_criterion_3_completion_soundness(ring1, ring2, ring3, ring4):
    fixture_cost = sum(RING_BUILD_SECONDS.values())
    with budget(3, "verification for k=1..4 and frozen brute-force ranks", 300.0, extra=fixture_cost):
        for ring in (ring1, ring2, ring3, ring4):
            report = verify_ring(ring)
            assert report.ok, report.failures
        assert ring1.total_rank() == 1
        assert ring1.rank(1, 1) == (1, ())
        for ring, k in ((ring2, 2), (ring4, 4)):
            assert ring.total_rank() == ORACLE_TOTAL_RANK[k]
            for pair in ring.pairs:
                assert ring.rank(*pair)[1] == ()
        for pair, n in ORACLE_RANKS_K4.items():
            assert ring4.rank(*pair)[0] == n
        # re-run the independent enumeration at the stabilized bound + 2
        res2 = oracle_complete(build_presentation(2), ring2.stabilized_at + 2)
        assert sum(n for n, _ in res2.values()) == ORACLE_TOTAL_RANK[2]
        res4 = oracle_complete(build_presentation(4), ring4.stabilized_at + 2)
        assert {p: n for p, (n, _) in res4.items()} == ORACLE_RANKS_K4
        assert all(not t for _, t in res4.values())


def test_criterion_4_group_data_exactness():
    with budget(4, "double cosets and induced characters, bit-exact", 1.0):
        assert double_cosets(4, 1, 2, 1) == [0, 2]  # {e, a^2}
        assert double_cosets(4, 2, 4, 2) == [0, 1]  # {e, a}
        assert induce_character(trivial_character(1), 2) == Character(2, (1, 1))
        assert induce_character(trivial_character(2), 4) == Character(4, (1, 0, 1, 0))
        assert induce_character(character(2, 1), 4) == Character(4, (0, 1, 0, 1))


def test_criterion_5_classical_reduction(ring1):
    with budget(5, "k=1 Hom/Ext/UCT against enumeration oracles", 60.0):
        grid = graded_group_grid(8)  # 100 graded groups, one cyclic per degree
        probes = [
            ((), ()), ((0,), ()), ((2,), ()), ((8,), ()),
            ((), (0,)), ((), (6,)), ((4,), (0,)), ((0,), (3,)), ((5,), (7,)),
        ]
        modules = {shape: trivial_group_module(ring1, *shape) for shape in grid}
        for a in grid:
            ma = modules[a]
            for b in probes:
                mb = modules[b]
                hom_oracle = oracle_graded_hom(a[0], a[1], b[0], b[1])
                got0 = hom_module(ma, mb).invariants
                got1 = hom_module(ma, suspend(mb)).invariants
                assert (got0.free_rank, got0.torsion) == hom_oracle[0], (a, b)
                assert (got1.free_rank, got1.torsion) == hom_oracle[1], (a, b)
                ext_oracle = oracle_graded_ext1(a[0], a[1], b[0], b[1])
                got = ext(ma, mb, 1)
                for e in (0, 1):
                    inv = got.by_degree[e]
                    assert (inv.free_rank, inv.torsion) == ext_oracle[e], (a, b)
        # two-factor spot checks, deterministic sample
        rng = random.Random(2026)
        options = [(), (0,), (2,), (3,), (4,), (8,)]
        for _ in range(12):
            a = (
                tuple(rng.choice(options) + rng.choice(options)),
                tuple(rng.choice(options)),
            )
            b = (tuple(rng.choice(options)), tuple(rng.choice(options) + rng.choice(options)))
            ma = trivial_group_module(ring1, *a)
            mb = trivial_group_module(ring1, *b)
            hom_oracle = oracle_graded_hom(a[0], a[1], b[0], b[1])
            got0 = hom_module(ma, mb).invariants
            assert (got0.free_rank, got0.torsion) == hom_oracle[0], (a, b)
            ext_oracle = oracle_graded_ext1(a[0], a[1], b[0], b[1])
            got = ext(ma, mb, 1)
            for e in (0, 1):
                inv = got.by_degree[e]
                assert (inv.free_rank, inv.torsion) == ext_oracle[e], (a, b)
        # UCT end terms on a subsample, including the classical shapes
        for a, b in [(((2,), ()), ((2,), ())), (((6,), (4,)), ((0,), (3,))), (((0, 2), ()), ((8,), (0,)))]:
            ma = trivial_group_module(ring1, *a)
            mb = trivial_group_module(ring1, *b)
            terms = uct_terms(ma, mb)
            assert terms.pd_within_one
            hom_oracle = oracle_graded_hom(a[0], a[1], b[0], b[1])
            for e in (0, 1):
                inv = terms.hom.by_degree[e]
                assert (inv.free_rank, inv.torsion) == hom_oracle[e]
            # first Ext of the suspension: shift the source degrees
            ext_oracle = oracle_graded_ext1(a[1], a[0], b[0], b[1])
            for e in (0, 1):
                inv = terms.ext1_shifted.by_degree[e]
                assert (inv.free_rank, inv.torsion) == ext_oracle[e]


def test_criterion_6_projectivity_suite(ring4):
    with budget(6, "representables and their sums are projective, Ext vanishes", 120.0):
        singles = [yoneda(ring4, obj, e) for obj in ring4.objects for e in (0, 1)]
        sums = [
            direct_sum(singles[0], singles[3]),
            direct_sum(singles[2], singles[5]),
            direct_sum(singles[1], singles[2], singles[4]),
        ]
        family = singles + sums
        targets = [
            yoneda_cyclic_quotient(ring4, 2, 0, 1, 0),
            yoneda_cyclic_quotient(ring4, 1, 0, 2, 0),
            suspend(yoneda(ring4, 2, 0)),
        ]
        for p in family:
            assert is_projective(p)
            for n in targets:
                for degree in (1, 2):
                    assert ext(p, n, degree).is_zero(), (p.ring, degree)


def test_criterion_7_non_hereditary_witness(ring4, fixtures_dir):
    with budget(7, "bounded search finds projective dimension >= 2", 600.0):
        witnesses = []
        first = None
        for obj in ring4.objects:
            for src in ring4.objects:
                for pos in range(len(ring4.basis[(src, obj)])):
                    m = yoneda_cyclic_quotient(ring4, obj, 0, src, pos)
                    pd = projective_dimension(m, 3)
                    if pd is ABOVE_CAP or pd >= 2:
                        witnesses.append((obj, src, pos))
                        if first is None:
                            first = m
        assert witnesses, "the bounded search over cyclic quotients found no witness"
        assert witnesses[0] == (1, 2, 0)

        # the shipped fixture is that first witness, bound to this ring
        ring_hash = ring_to_dict(ring4)["ring_hash"]
        data = load_json(fixtures_dir / "witness_module.json")
        fixture = module_from_dict(ring4, data, ring_hash)
        assert fixture.gens == first.gens
        assert fixture.rels == first.rels
        assert fixture.act == first.act

        pd = projective_dimension(fixture, 3)
        assert pd is ABOVE_CAP or pd >= 2
        k1, _ = kernel_of(free_cover(fixture))
        k2, _ = kernel_of(free_cover(k1))
        assert not ext(fixture, k2, 2).is_zero()


def test_criterion_8_determinism_and_stability(ring4, tmp_path):
    with budget(8, "permutation/cap stability and byte-stable CLI output", 300.0):
        from catring.presentation import Presentation

        pres = build_presentation(4)
        rng = random.Random(20260809)
        rels = list(pres.relations)
        rng.shuffle(rels)
        shuffled_ring = complete(Presentation(4, pres.generators, rels, pres.family_counts))
        assert shuffled_ring.basis == ring4.basis
        assert shuffled_ring.torsion == ring4.torsion
        assert shuffled_ring.table == ring4.table

        bumped = complete(build_presentation(4), max_len=ring4.max_len + 1)
        assert bumped.basis == ring4.basis
        assert bumped.torsion == ring4.torsion
        assert bumped.table == ring4.table

        def run(args):
            proc = subprocess.run(
                [sys.executable, "-m", "catring.cli", *args], env=src_env(), capture_output=True
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        run(["ring", "build", "--order", "2", "-o", str(out_a)])
        run(["ring", "build", "--order", "2", "-o", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()
        for args in (
            ["group", "cosets", "--order", "4", "--left", "2", "--middle", "4", "--right", "2"],
            ["group", "induce", "--order", "4", "--from", "2", "--to", "4", "--char", "1,0", "--json"],
            ["ring", "info", str(out_a), "--json"],
            ["ring", "verify", str(out_a)],
        ):
            assert run(args) == run(args)
