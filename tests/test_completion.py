import gc
import itertools
import random
import tracemalloc
import weakref

import pytest

from catring import (
    NotStabilizedError,
    InconsistentPresentationError,
    build_presentation,
    complete,
    normal_form,
    presentation_c4,
    presentations_equivalent,
    random_associativity_probe,
    verify_ring,
    yoneda,
)
from catring.presentation import (
    CONJUGATION,
    INDUCTION,
    MULTIPLICATION,
    RESTRICTION,
    Generator,
    Presentation,
    Relation,
)

from catring import completion
from catring.intlin import Lattice
from catring.serialize import content_hash, ring_from_dict, ring_to_dict

from corpus import bumped_table_entry, verify_cases, with_empty_side_relation, with_torsion
from oracles import (
    MaxPivotEchelon,
    chained_normal_form,
    coefficients,
    file_table,
    oracle_complete,
    oracle_compose,
    oracle_echelons,
    oracle_random_associativity_probe,
    oracle_verify_ring,
    orbit_ranks,
)

# Frozen output of the independent brute-force oracle (tests below re-run
# it at the stabilized bound + 2): total ranks per group order, the rank
# matrix for k = 4, and the absence of torsion.
ORACLE_TOTAL_RANK = {1: 1, 2: 6, 3: 8, 4: 22}
ORACLE_RANKS_K4 = {
    (1, 1): 4, (1, 2): 2, (1, 4): 1,
    (2, 1): 2, (2, 2): 4, (2, 4): 2,
    (4, 1): 1, (4, 2): 2, (4, 4): 4,
}
# ring_hash of complete(build_presentation(k)), frozen from the output of
# the completion's earlier max-pivot echelon: ring files stay byte-identical
RING_HASHES = {
    2: "9617057703bbea3ad44e54c205eef6c2055297655c6c482a24df55389f54fb0f",
    3: "5a38a73bcd67aadfbc306f091213e6f77c1a3be16de2ddcd266754103f44a411",
    4: "ac278f4ba8660c3a96d7a5d6f7e05c171b352bb37d3794e9fd2729d8462adfe2",
    6: "524819a0d08940719de3ce2e517d8dc9bb253d15caa81ff8ffef5caafa7e4a29",
}


def test_k1_is_the_integers(ring1):
    assert ring1.total_rank() == 1
    assert ring1.rank(1, 1) == (1, ())
    assert ring1.basis[(1, 1)] == [()]
    u = ring1.unit(1)
    assert u.then(u) == u


def test_frozen_oracle_ranks(ring1, ring2, ring3, ring4):
    for ring, k in ((ring1, 1), (ring2, 2), (ring3, 3), (ring4, 4)):
        assert ring.total_rank() == ORACLE_TOTAL_RANK[k]
        for pair in ring.pairs:
            assert ring.rank(*pair)[1] == ()
    for pair, n in ORACLE_RANKS_K4.items():
        assert ring4.rank(*pair)[0] == n


def test_component_ranks_follow_the_orbit_count(ring1, ring2, ring3, ring4, ring6):
    # every component H -> L has rank k*gcd(h, l)/lcm(h, l) (`orbit_ranks`)
    for k, ring, total in ((1, ring1, 1), (2, ring2, 6), (3, ring3, 8), (4, ring4, 22), (6, ring6, 48)):
        assert {pair: ring.rank(*pair)[0] for pair in ring.pairs} == orbit_ranks(k), k
        assert ring.total_rank() == total


@pytest.mark.parametrize(
    "k, family, stabilizes",
    [
        (2, "double_coset", True),
        (2, "frobenius", True),
        (3, "double_coset", True),
        (3, "frobenius", True),
        (2, "conjugation_power", False),
        (3, "conjugation_restriction", False),
    ],
)
def test_a_dropped_relation_family_fails_the_rank_oracle(k, family, stabilizes):
    # the rank oracle sees a missing family: the ring completes with other
    # ranks, or the completion does not stabilize
    pres = build_presentation(k)
    kept = [rel for rel in pres.relations if rel.tag != family]
    assert len(kept) < len(pres.relations)
    dropped = Presentation(k, pres.generators, kept, pres.family_counts)
    if stabilizes:
        ring = complete(dropped)
        assert {pair: ring.rank(*pair)[0] for pair in ring.pairs} != orbit_ranks(k)
    else:
        with pytest.raises(NotStabilizedError):
            complete(dropped)


def test_ring_bytes_are_pinned(ring2, ring3, ring4):
    for k, ring in ((2, ring2), (3, ring3), (4, ring4)):
        assert ring_to_dict(ring)["ring_hash"] == RING_HASHES[k], k


def test_echelons_match_max_pivot_oracle(ring2, ring3, ring4, monkeypatch):
    """Bound by bound, each pair space's lattice, word i on column -i,
    holds the canonical rows of the old max-pivot echelon fed the same
    relation instances, and reduces vectors to the same normal forms."""
    fed = {}
    add = Lattice.add

    def recording_add(self, vec):
        fed.setdefault(self, []).append(dict(vec))
        add(self, vec)

    monkeypatch.setattr(Lattice, "add", recording_add)
    rng = random.Random(11)
    for ring in (ring2, ring3, ring4):
        k = ring.presentation.group_order
        oracles = {}
        for bound, spaces in completion._echelons(build_presentation(k), ring.stabilized_at):
            for pair, space in spaces.items():
                oracle = oracles.setdefault(pair, MaxPivotEchelon())
                for row in fed.pop(space.lattice, []):
                    oracle.insert({-j: c for j, c in row.items()})
                oracle.canonicalize()
                rows = {-m: {-j: c for j, c in row.items()} for m, row in space.lattice.pivots.items()}
                assert rows == oracle.rows, (k, bound, pair)
                for _ in range(4 if len(space) else 0):
                    vec = {rng.randrange(len(space)): rng.randint(-3, 3) for _ in range(rng.randint(1, 4))}
                    nf = space.lattice.reduce({-i: c for i, c in vec.items()})
                    assert {-j: c for j, c in nf.items()} == oracle.reduce(vec), (k, bound, pair, vec)
        assert not fed


def shuffled_relations(pres, seed):
    rels = list(pres.relations)
    random.Random(seed).shuffle(rels)
    return Presentation(pres.group_order, pres.generators, rels, pres.family_counts)


@pytest.mark.parametrize(
    "make, last",
    [
        *((lambda k=k: build_presentation(k), None) for k in (1, 2, 3, 4, 6)),
        (lambda: build_presentation(5), 8),
        (lambda: build_presentation(7), 11),
        (presentation_c4, None),
        *((lambda seed=seed: shuffled_relations(build_presentation(4), seed), None) for seed in (21, 22)),
    ],
    ids=["k1", "k2", "k3", "k4", "k6", "k5", "k7", "c4", "k4-shuffle21", "k4-shuffle22"],
)
def test_echelons_match_exhaustive_instance_oracle(make, last):
    """Bound by bound, the echelon built from the previous bound's changed
    rows and live left pads holds the same words, decoded from their
    codes, and the same canonical rows as the one fed every padded
    relation instance (to the stabilized bound + 1)."""
    pres = make()
    if last is None:
        last = complete(pres).stabilized_at + 1
    bounds = []
    for (bound, spaces), (oracle_bound, oracle_spaces) in zip(
        completion._echelons(pres, last), oracle_echelons(pres, last)
    ):
        assert bound == oracle_bound
        assert spaces.keys() == oracle_spaces.keys()
        for pair, space in spaces.items():
            oracle = oracle_spaces[pair]
            assert [space.word(-i) for i in range(len(space))] == oracle.words, (bound, pair)
            assert space.lattice.pivots == oracle.lattice.pivots, (bound, pair)
        bounds.append(bound)
    assert bounds == list(range(1, last + 1))


def without_tag(pres, tag):
    rels = [rel for rel in pres.relations if rel.tag != tag]
    return Presentation(pres.group_order, pres.generators, rels, pres.family_counts)


@pytest.mark.parametrize(
    "make, certified",
    [
        # `ring verify` certifies a k=4 file's relations in the hand presentation
        (lambda: (build_presentation(4), presentation_c4()), [True, True]),
        # the dropped relation is not certified, so that side completes
        (lambda: (build_presentation(2), without_tag(build_presentation(2), "double_coset")), [False, True]),
    ],
    ids=["build4-c4", "k2-without-double-coset"],
)
def test_certify_or_complete_matches_exhaustive_instance_oracle(make, certified, monkeypatch):
    calls = []
    real = completion.certify_or_complete

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(completion, "certify_or_complete", spy)
    presentations_equivalent(*make())
    assert [fast is None for _, fast in calls] == certified
    monkeypatch.setattr(completion, "_echelons", oracle_echelons)
    for args, fast in calls:
        slow = real(*args)
        assert (slow is None) == (fast is None)
        if fast is not None:
            assert ring_to_dict(fast) == ring_to_dict(slow)


def test_lattice_add_count_of_a_k4_completion(monkeypatch):
    # the exhaustive instance feed made 34 781 `Lattice.add` calls here;
    # building each bound from the previous bound's changed rows made
    # 14 911, and feeding only live left pads makes 9 167, so a slide
    # back to either earlier feed fails
    calls = []
    add = Lattice.add

    def counting_add(self, vec):
        calls.append(None)
        add(self, vec)

    monkeypatch.setattr(Lattice, "add", counting_add)
    complete(build_presentation(4))
    assert len(calls) == 9167


def test_word_codes_round_trip_over_a_k6_run(ring6):
    """`_decode` inverts `_encode` on every word of a k=6 run at its
    stabilized bound, and a pair space's codes increase with its word
    order: by length, then lexicographically."""
    pres = build_presentation(6)
    base = len(pres.generators) + 1
    for _, spaces in completion._echelons(pres, ring6.stabilized_at):
        pass
    count = 0
    for space in spaces.values():
        words = [completion._decode(code, base) for code in space.codes]
        assert [completion._encode(w, base) for w in words] == space.codes
        assert words == sorted(words, key=lambda w: (len(w), w))
        assert space.codes == sorted(space.codes)
        count += len(words)
    assert count == 39822


def test_k6_completion_memory_peak():
    # the tracemalloc peak of a k=6 completion was 19.7 MB with tuple-keyed
    # words and 17.6 MB with integer word codes (CPython 3.11); the build
    # workload's RSS budget rests on it, so a slide back to tuples fails
    tracemalloc.start()
    try:
        complete(build_presentation(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18.5e6, peak


def test_oracle_rerun_small():
    # re-run the independent enumeration at the stabilized bound + 2
    for k in (1, 2, 3):
        ring = complete(build_presentation(k))
        res = oracle_complete(build_presentation(k), ring.stabilized_at + 2)
        assert sum(n for n, _ in res.values()) == ORACLE_TOTAL_RANK[k]
        assert all(not tors for _, tors in res.values())


def test_oracle_rerun_k4(ring4):
    res = oracle_complete(build_presentation(4), ring4.stabilized_at + 2)
    assert {p: n for p, (n, _) in res.items()} == ORACLE_RANKS_K4
    assert all(not tors for _, tors in res.values())


def test_pinned_relation_normal_forms(ring4):
    p = ring4.presentation
    c1 = p.gen(CONJUGATION, 1)
    c2 = p.gen(CONJUGATION, 2)
    m2 = p.gen(MULTIPLICATION, 2)
    m4 = p.gen(MULTIPLICATION, 4)
    r21 = p.gen(RESTRICTION, 2, 1)
    r42 = p.gen(RESTRICTION, 4, 2)
    i21 = p.gen(INDUCTION, 2, 1)
    i42 = p.gen(INDUCTION, 4, 2)

    def check(lhs, rhs, src, tgt):
        a = normal_form(ring4, lhs, source=src, target=tgt)
        b = normal_form(ring4, rhs, source=src, target=tgt)
        assert a == b, (str(a), str(b))

    check((i21, r21), ((1, ()), (1, (c1, c1))), 1, 1)
    check((i42, r42), ((1, ()), (1, (c2,))), 2, 2)
    check((r21, i21), ((1, ()), (1, (m2,))), 2, 2)
    check((r42, i42), ((1, ()), (1, (m4, m4))), 4, 4)
    check((r42, m2, i42), ((1, (m4,)), (1, (m4, m4, m4))), 4, 4)
    # power relations
    check((c1,) * 4, (), 1, 1)
    check((c2,) * 2, (), 2, 2)
    check((m2,) * 2, (), 2, 2)
    check((m4,) * 4, (), 4, 4)


def test_idempotence_and_linearity_of_normal_form(ring4):
    for pair in ring4.pairs:
        for pos, w in enumerate(ring4.basis[pair]):
            elem = normal_form(ring4, w, source=pair[0], target=pair[1])
            assert elem == ring4.basis_element(pair[0], pair[1], pos)
    p = ring4.presentation
    c1 = p.gen(CONJUGATION, 1)
    a = normal_form(ring4, ((2, (c1,)), (3, (c1, c1, c1, c1))), source=1, target=1)
    b = normal_form(ring4, (c1,))
    c = normal_form(ring4, (c1,) * 4)
    expected = [2 * x + 3 * y for x, y in zip(coefficients(ring4, b), coefficients(ring4, c))]
    assert coefficients(ring4, a) == expected


def seeded_combinations(ring, rng, count):
    """Random words with identity letters mixed in, and Z-combinations of
    parallel ones, as (data, source, target)."""
    pres = ring.presentation
    gens = pres.generators
    identity = {x: pres.gen("identity", x) for x in ring.objects}
    outgoing = {x: [a for a in pres.arrows if gens[a].source == x] for x in ring.objects}

    def walk(start):
        path, cur = [], start
        for _ in range(rng.randint(0, 7)):
            if not outgoing[cur] or rng.random() < 0.25:
                path.append(identity[cur])
            else:
                a = rng.choice(outgoing[cur])
                path.append(a)
                cur = gens[a].target
        return tuple(path), cur

    for _ in range(count):
        x = rng.choice(ring.objects)
        w, y = walk(x)
        yield w, x, y
        terms = [(rng.randint(-3, 3), w)]
        for _ in range(6):
            v, z = walk(x)
            if z == y:
                terms.append((rng.randint(-3, 3), v))
        yield tuple(terms), x, y


def test_normal_form_matches_chained_oracle(ring1, ring2, ring3, ring4, ring_c4_hand):
    rng = random.Random(5)
    for ring in (ring1, ring2, ring3, ring4, ring_c4_hand, with_torsion(ring4)):
        identities = {ring.presentation.gen("identity", x) for x in ring.objects}
        table = file_table(ring)
        for data, x, y in seeded_combinations(ring, rng, 150):
            fast = normal_form(ring, data, source=x, target=y)
            assert fast == chained_normal_form(ring, data, x, y, table), (data, x, y)
            if data and isinstance(data[0], int) and not set(data) <= identities:
                assert normal_form(ring, data) == fast


def test_probe_matches_chained_oracle_on_corrupted_ring(ring4):
    data = ring_to_dict(ring4)
    entry = next(e for e in data["table"] if any(e[2]))
    entry[2][0] += 1
    data["ring_hash"] = content_hash(data)
    broken = ring_from_dict(data)
    fast = {seed: random_associativity_probe(broken, count=1000, max_len=6, seed=seed) for seed in (0, 7)}
    # frozen output of the probe while normal forms were chained compositions:
    # the random draws, and so the failing triples, must not change
    assert len(fast[0]) == 44
    assert fast[0][0] == "associativity fails on words () (3, 3, 3, 3) (3, 3, 3)"
    assert fast[0][-1] == "associativity fails on words (5, 4, 7, 3) () ()"
    for seed, failures in fast.items():
        assert oracle_random_associativity_probe(broken, count=1000, max_len=6, seed=seed) == failures


def test_probe_matches_oracle_on_seeded_draws(ring1, ring2, ring3, ring4, ring6, ring_c4_hand):
    # sparse prefix-built normal forms and sparse products against
    # `RingElement` ones, over short and long words, empty words among them
    rings = (ring1, ring2, ring3, ring4, ring6, ring_c4_hand, with_torsion(ring4))
    for ring in rings:
        for seed in (0, 3, 19):
            for max_len in (0, 1, 3, 6, 9):
                for count in (0, 1, 200):
                    fast = random_associativity_probe(ring, count=count, max_len=max_len, seed=seed)
                    slow = oracle_random_associativity_probe(ring, count=count, max_len=max_len, seed=seed)
                    assert fast == slow, (ring.presentation.group_order, seed, max_len, count)
    # the torsion slots do not agree with the table, so some triples fail
    assert random_associativity_probe(rings[-1], count=200, max_len=6, seed=3)


@pytest.mark.parametrize(
    "kwargs, reason",
    [({"count": -3}, "count must be non-negative"), ({"max_len": -1}, "max_len must be non-negative")],
)
def test_probe_rejects_negative_arguments(ring2, kwargs, reason):
    with pytest.raises(ValueError, match=reason):
        random_associativity_probe(ring2, **kwargs)


def test_normal_form_rejects_nonparallel(ring4):
    p = ring4.presentation
    c1 = p.gen(CONJUGATION, 1)
    i21 = p.gen(INDUCTION, 2, 1)
    with pytest.raises(ValueError):
        normal_form(ring4, ((1, (c1,)), (1, (i21,))))


def test_verify_ring_passes_k1_through_k4(ring1, ring2, ring3, ring4, ring_c4_hand):
    for ring in (ring1, ring2, ring3, ring4, ring_c4_hand):
        report = verify_ring(ring)
        assert report.ok, report.failures
        assert not report.warnings  # no torsion anywhere


def test_verify_ring_detects_corruption(ring2):
    key = next(k for k, v in ring2.table.items() if any(v))
    report = verify_ring(bumped_table_entry(ring2, key))
    assert not report.ok
    assert report.failures
    assert verify_ring(ring2).ok


def test_empty_relation_side_is_zero(ring2):
    # a relation side is a combination, so the empty side of `0 = 1[1]` is
    # 0, though the normal form of the empty word is the unit
    ring = ring_from_dict(with_empty_side_relation(ring2))
    failure = "relation zero_unit (1->1) does not hold in the table"
    assert verify_ring(ring).failures == [failure]
    assert oracle_verify_ring(ring).failures == [failure]
    failure = "left-in-right: relation zero_unit 1->1 does not reduce to zero"
    for ring_q in (ring2, None):
        report = presentations_equivalent(ring.presentation, build_presentation(2), ring_p=ring, ring_q=ring_q)
        assert report.failures == [failure]
    assert normal_form(ring2, (), source=1) == ring2.unit(1)


def test_elements_are_reduced_rows(ring1, ring2, ring3, ring4, ring6):
    # every element is its row: int (pos, c) pairs, pos ascending inside
    # the component, c nonzero and reduced into the slot's torsion
    for ring in (ring1, ring2, ring3, ring4, ring6, with_torsion(ring4)):
        forms = list(ring.arrow_forms.values())
        elems = [ring.unit(x) for x in ring.objects]
        for x, y in ring.pairs:
            words = ring.basis[(x, y)]
            elems += [ring.basis_element(x, y, pos) for pos in range(len(words))]
            elems += [normal_form(ring, w, source=x, target=y) for w in words]
            elems.append(ring.element(x, y, {t: t % 5 - 2 for t in range(len(words))}))
        for x, y, z in itertools.product(ring.objects, repeat=3):
            u = ring.element(x, y, {t: t % 4 - 1 for t in range(len(ring.basis[(x, y)]))})
            v = ring.element(y, z, {t: 3 - t % 7 for t in range(len(ring.basis[(y, z)]))})
            elems.append(ring.compose(u, v))
        for e in (*forms, *elems):
            mods = ring.torsion[(e.source, e.target)]
            assert type(e.row) is tuple
            assert all(type(t) is int and type(c) is int for t, c in e.row), e.row
            assert [t for t, _ in e.row] == sorted({t for t, _ in e.row}), e.row
            assert all(0 <= t < len(mods) and c and (not mods[t] or c == c % mods[t]) for t, c in e.row), e.row
            same = ring.element(e.source, e.target, dict(e.row)) + ring.zero(e.source, e.target)
            # an arrow form holds no ring: it is its (source, target, row)
            assert (same.source, same.target, same.row) == (e.source, e.target, e.row)
            assert same.is_zero() == (same == ring.zero(e.source, e.target)) == (not e.row)
        for e in elems:
            same = ring.element(e.source, e.target, dict(e.row)) + ring.zero(e.source, e.target)
            assert same == e and hash(same) == hash(e)
            assert e.is_zero() == (e == ring.zero(e.source, e.target))


def test_table_is_read_only(ring1, ring2, ring3, ring4, ring6):
    # every composable pair has a row: a tuple of (pos, c) pairs, positions
    # ascending inside the target component, no zero coefficient, and ()
    # for a zero product; the table cannot be changed in place
    completed = (ring1, ring2, ring3, ring4, ring6, with_torsion(ring4))
    for ring in (*completed, *(ring_from_dict(ring_to_dict(r)) for r in completed)):
        composable = {
            (u, v) for u, (_, y, _) in enumerate(ring.flat) for v, (y_v, _, _) in enumerate(ring.flat) if y == y_v
        }
        assert ring.table.keys() == composable
        for (u, v), row in ring.table.items():
            assert type(row) is tuple
            assert all(type(pair) is tuple and len(pair) == 2 for pair in row)
            assert all(type(t) is int and type(c) is int and c for t, c in row)
            positions = [t for t, _ in row]
            size = len(ring.basis[(ring.flat[u][0], ring.flat[v][1])])
            assert positions == sorted(set(positions)) and all(0 <= t < size for t in positions)
        key = next(iter(ring.table))
        row = ring.table[key]
        with pytest.raises(TypeError):
            ring.table[key] = ()
        with pytest.raises(TypeError):
            del ring.table[key]
        assert ring.table[key] is row


def test_compose_matches_oracle_compose(ring2, ring3, ring4, ring6):
    rng = random.Random(21)
    for ring in (ring2, ring3, ring4, ring6, with_torsion(ring4)):
        table = file_table(ring)
        flat = [(x, y, pos) for x, y in ring.pairs for pos in range(len(ring.basis[(x, y)]))]
        for x, y, i in flat:
            u = ring.basis_element(x, y, i)
            for src, z, j in flat:
                if src == y:
                    v = ring.basis_element(y, z, j)
                    assert ring.compose(u, v) == oracle_compose(ring, u, v, table), (u, v)
        for _ in range(300):
            x, y, z = (rng.choice(ring.objects) for _ in range(3))
            u = ring.element(x, y, {t: rng.randint(-3, 3) for t in range(len(ring.basis[(x, y)]))})
            v = ring.element(y, z, {t: rng.randint(-3, 3) for t in range(len(ring.basis[(y, z)]))})
            assert u.then(v) == ring.compose(u, v) == oracle_compose(ring, u, v, table), (u, v)


def test_verify_ring_matches_oracle_on_corrupted_files(ring1, ring2, ring3, ring4, ring_c4_hand):
    # the certificate accepts and rejects what the relation, basis-word,
    # unit, triple and torsion checks it replaced accept and reject; the
    # sparse probe matches the `RingElement` one it replaced, failure for
    # failure
    cases = verify_cases(ring1, ring2, ring3, ring4, ring_c4_hand)
    corrupted = [label for label, _ in cases if label.startswith("corrupted")]
    caught, probe_only = set(), []
    for label, ring in cases:
        report = verify_ring(ring)
        expected = oracle_verify_ring(ring)
        assert report.ok == expected.ok, label
        assert report.warnings == expected.warnings, label
        probes = {seed: random_associativity_probe(ring, count=1000, max_len=6, seed=seed) for seed in (0, 7)}
        for seed, failures in probes.items():
            assert oracle_random_associativity_probe(ring, count=1000, max_len=6, seed=seed) == failures, label
        if report.failures or any(probes.values()):
            caught.add(label)
        if not report.failures and any(probes.values()):
            probe_only.append(label)
    assert [label for label in corrupted if label not in caught] == []
    # the probe catches nothing that `verify_ring` misses, a modulus the
    # table does not respect among them
    assert probe_only == []
    torsion = [ring for label, ring in cases if "torsion" in label]
    assert len(torsion) > 1
    assert not any(verify_ring(ring).ok for ring in torsion)


def test_associative_report_proves_the_probe(ring1, ring2, ring3, ring4, ring6, ring_c4_hand):
    # `verify_ring`'s docstring proves that a table its certificate
    # accepts is the presented ring, so it passes the probe at every seed,
    # and `ring verify` skips the probe on that proof; here on every ring,
    # corrupted ones among them
    cases = verify_cases(ring1, ring2, ring3, ring4, ring_c4_hand) + [("valid k=6", ring6)]
    proved = []
    for label, ring in cases:
        if verify_ring(ring).ok:
            proved.append(label)
            for seed in (0, 7):
                assert random_associativity_probe(ring, count=1000, max_len=6, seed=seed) == [], label
                assert oracle_random_associativity_probe(ring, count=1000, max_len=6, seed=seed) == [], label
    # the valid rings alone: a bumped arrow form breaks a relation
    assert proved == [label for label, _ in cases if label.startswith("valid")]


def test_modulus_below_minus_two_is_not_proved_associative(ring2):
    # 1 reduces to -2 modulo -3, so the basis triples would only test
    # multiples of the products with that slot, and the oracle's
    # `associative` stays False; the certificate rejects the ring.  A ring
    # file refuses a modulus below 2, so the ring is built directly
    pair = next(p for p in ring2.pairs if len(ring2.torsion[p]) > 1)
    torsion = {**ring2.torsion, pair: [ring2.torsion[pair][0], -3, *ring2.torsion[pair][2:]]}
    arrow_forms = {gi: dict(form.row) for gi, form in ring2.arrow_forms.items()}
    ring = completion.CategoryRing(
        ring2.presentation, ring2.basis, torsion, ring2.table, arrow_forms,
        ring2.stabilized_at, ring2.max_len, ring2.window,
    )
    assert not verify_ring(ring).ok
    assert not oracle_verify_ring(ring).associative


def test_certificate_names_a_derivation_it_cannot_finish(ring4):
    # (a)-(d) pass on the k=4 table, but its combinations are certified
    # only at bound 4, and the completion of the presentation does not
    # stabilize by the file's max_len 3: a named failure, not a traceback
    data = ring_to_dict(ring4)
    data["max_len"] = data["stabilized_at"] = 3
    data["ring_hash"] = content_hash(data)
    assert verify_ring(ring_from_dict(data)).failures == [
        "the presentation does not certify the table: "
        "no stabilization for k=4 within max_len=3; rank trajectory [11, 20, 22]"
    ]


def test_a_basis_word_whose_prefix_is_no_basis_word_is_named(ring2):
    # the table is checked along prefixes of basis words, so a basis word
    # c[1]*c[1] in place of c[1] leaves its entries unchecked by (d)
    data = ring_to_dict(ring2)
    comp = next(c for c in data["components"] if (c["source"], c["target"]) == (1, 1))
    assert comp["basis"] == [[], [2]]
    comp["basis"][1] = [2, 2]
    data["ring_hash"] = content_hash(data)
    assert verify_ring(ring_from_dict(data)).failures == [
        "basis 1 of (1,1) is not the normal form of its word [2, 2]",
        "basis 1 of (1,1) has the prefix [2], which is no basis word",
    ]


def test_certificate_decides_in_the_ring_it_completes(ring1, ring2, ring3, ring4, ring_c4_hand, monkeypatch):
    # when the completion stabilizes before the combinations of (e) are
    # certified, their normal forms in the completed ring decide: every
    # case is then decided as before, so a valid ring is not rejected for
    # certifying late
    cases = verify_cases(ring1, ring2, ring3, ring4, ring_c4_hand)
    expected = [verify_ring(ring).failures for _, ring in cases]
    completed = []

    def completing(pres, combinations, max_len, window):
        completed.append(pres)
        return complete(pres, max_len, window)

    monkeypatch.setattr(completion, "certify_or_complete", completing)
    assert [verify_ring(ring).failures for _, ring in cases] == expected
    assert len(completed) == sum(not failures for failures in expected) == 5


def test_verify_ring_reads_the_table_it_is_given(ring4):
    # run the probe on the ring, then read back a file whose table differs
    # from it in one entry
    assert random_associativity_probe(ring4, count=50) == []
    units = {ring4.offset[(x, x)] + ring4.unit_pos[x] for x in ring4.objects}
    key = next(k for k, v in sorted(ring4.table.items()) if units.isdisjoint(k) and any(v))
    report = verify_ring(bumped_table_entry(ring4, key))
    assert any(f.startswith(("associativity fails", "basis ")) for f in report.failures), report.failures
    assert verify_ring(ring4).ok


def test_random_word_associativity(ring4):
    assert random_associativity_probe(ring4, count=1000, max_len=6, seed=0) == []


def test_relation_order_independence(ring4):
    pres = build_presentation(4)
    rng = random.Random(11)
    rels = list(pres.relations)
    rng.shuffle(rels)
    shuffled = Presentation(4, pres.generators, rels, pres.family_counts)
    ring_b = complete(shuffled)
    assert ring_b.basis == ring4.basis
    assert ring_b.torsion == ring4.torsion
    assert ring_b.table == ring4.table


def test_stability_under_larger_cap(ring4):
    ring_b = complete(build_presentation(4), max_len=ring4.max_len + 1)
    assert ring_b.basis == ring4.basis
    assert ring_b.torsion == ring4.torsion
    assert ring_b.table == ring4.table
    assert ring_b.stabilized_at == ring4.stabilized_at


def test_not_stabilized_reports_trajectory():
    with pytest.raises(NotStabilizedError) as info:
        complete(build_presentation(4), max_len=1)
    assert info.value.trajectory


def test_inconsistent_presentation_detected():
    # 1 = 0 on the unique object collapses the unit
    gens = [Generator("identity", 1)]
    rel = Relation("collapse", 1, 1, (((1, ()),), ((2, ()),)))
    pres = Presentation(1, gens, [rel], {"collapse": 1})
    with pytest.raises(InconsistentPresentationError):
        complete(pres)


# the first bound whose snapshot is certified, per group order: with
# window w the completion stops at bound FIRST_CERTIFIED[k] + w - 1
FIRST_CERTIFIED = {1: 1, 2: 2, 3: 4, 4: 6, 6: 6}


@pytest.mark.parametrize(
    "k, windows", [(1, (1, 2, 3, 4)), (2, (1, 2, 3, 4)), (3, (1, 2, 3, 4)), (4, (1, 2, 3, 4)), (6, (1, 3))]
)
def test_window_moves_only_the_stopping_bound(request, k, windows):
    # pins the stopping rule: a longer window reads the same ring off later
    reference = ring_to_dict(request.getfixturevalue(f"ring{k}"))
    for window in windows:
        data = ring_to_dict(complete(build_presentation(k), window=window))
        assert (data["stabilized_at"], data["window"]) == (FIRST_CERTIFIED[k] + window - 1, window)
        for field in ("components", "table", "arrow_forms"):
            assert data[field] == reference[field]


def test_window_below_one_is_rejected_before_any_echelon_work(monkeypatch):
    def no_echelons(*args):
        raise AssertionError("echelon work started")

    monkeypatch.setattr(completion, "_echelons", no_echelons)
    pres = build_presentation(2)
    c1 = pres.gen(CONJUGATION, 1)
    for window in (0, -1):
        with pytest.raises(ValueError, match="window must be positive"):
            complete(pres, window=window)
        with pytest.raises(ValueError, match="window must be positive"):
            completion.certify_or_complete(pres, [(1, 1, ((1, (c1, c1)), (-1, ())))], window=window)
        # with nothing left to certify too
        for combinations in ([], [(1, 1, ((1, (c1,)), (-1, (c1,))))]):
            with pytest.raises(ValueError, match="window must be positive"):
                completion.certify_or_complete(pres, combinations, window=window)


@pytest.mark.parametrize(
    "k, max_len, trajectory",
    [(4, 3, [11, 20, 22]), (5, 12, [6, 10, 14, 16, 16, 16, 16, 16, 16, 16, 16, 16])],
)
def test_not_stabilized_message_is_pinned(k, max_len, trajectory):
    with pytest.raises(NotStabilizedError) as info:
        complete(build_presentation(k), max_len=max_len)
    assert info.value.trajectory == trajectory
    assert str(info.value) == f"no stabilization for k={k} within max_len={max_len}; rank trajectory {trajectory}"


def test_order_4_certification_takes_three_snapshots(ring4, monkeypatch):
    # the pending combinations are tested before each bound's snapshot, so
    # bound 4 certifies them without a fourth snapshot
    bounds = []
    real = completion._snapshot

    def spy(objects, spaces, bound, trajectory):
        bounds.append(bound)
        return real(objects, spaces, bound, trajectory)

    monkeypatch.setattr(completion, "_snapshot", spy)
    assert presentations_equivalent(build_presentation(4), presentation_c4(), ring_p=ring4).equivalent
    assert bounds == [1, 2, 3]


def test_unknown_component_rejected(ring2):
    with pytest.raises(KeyError):
        ring2.rank(1, 5)


def test_k6_completes_and_verifies():
    ring = complete(build_presentation(6))
    assert ring.total_rank() == 48
    assert ring_to_dict(ring)["ring_hash"] == RING_HASHES[6]
    report = verify_ring(ring)
    assert report.ok, report.failures
    # the first ring with table coefficients above 1: its representables,
    # built from the sparse table, satisfy the dense table's products
    for obj in ring.objects:
        yoneda(ring, obj, 0).validate()


def test_a_ring_is_freed_by_reference_counting(ring2):
    # no reference cycle runs through a ring (its arrow forms hold none),
    # so with the collector off a ring dies on `del`
    makers = (lambda: complete(build_presentation(2)), lambda: ring_from_dict(ring_to_dict(ring2)))
    gc.disable()
    try:
        for make in makers:
            ring = make()
            assert verify_ring(ring).ok
            assert normal_form(ring, ring.presentation.arrows[:1]).row
            ref = weakref.ref(ring)
            del ring
            assert ref() is None
    finally:
        gc.enable()
