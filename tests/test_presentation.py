import ast
import inspect
import pathlib
import random

import pytest

import catring
from catring import (
    NotStabilizedError,
    build_presentation,
    complete,
    completion,
    normal_form,
    presentation_c4,
    presentations_equivalent,
    subgroups,
)
from catring.completion import CategoryRing
from catring.presentation import (
    CONJUGATION,
    IDENTITY,
    INDUCTION,
    MULTIPLICATION,
    RESTRICTION,
    Generator,
    Presentation,
    Relation,
    _all_chains,
)

from oracles import chained_normal_form, completing_presentations_equivalent


def covering_pairs(k):
    divs = subgroups(k)
    prime = lambda n: n > 1 and all(n % d for d in range(2, n))
    return [(l, h) for l in divs for h in divs if h % l == 0 and l != h and prime(h // l)]


def test_generator_census_small():
    p1 = build_presentation(1)
    assert len(p1.generators) == 1
    assert p1.generators[0].kind == IDENTITY
    assert len(p1.relations) == 0

    p2 = build_presentation(2)
    kinds = sorted(g.kind for g in p2.generators)
    assert len(p2.generators) == 6
    assert kinds.count(IDENTITY) == 2
    assert kinds.count(CONJUGATION) == 1
    assert kinds.count(MULTIPLICATION) == 1
    assert kinds.count(RESTRICTION) == 1
    assert kinds.count(INDUCTION) == 1

    p4 = build_presentation(4)
    assert len(p4.generators) == 11


def test_generator_census_formula_up_to_12():
    for k in range(1, 13):
        p = build_presentation(k)
        divs = subgroups(k)
        expected = (
            len(divs)  # identities
            + (len(divs) - 1)  # conjugations (absent on the full group)
            + (len(divs) - 1)  # multiplications (absent on the trivial subgroup)
            + 2 * len(covering_pairs(k))  # restrictions and inductions
        )
        assert len(p.generators) == expected


def test_expansion_succeeds_up_to_12():
    # every relation family instantiates inside the minimized alphabet
    for k in range(1, 13):
        p = build_presentation(k)
        p.validate()
        for rel in p.relations:
            for side in rel.sides:
                for _, w in side:
                    for gi in w:
                        assert 0 <= gi < len(p.generators)
                        assert p.generators[gi].kind != IDENTITY


def test_k2_relations_match_hand_instantiation():
    # frozen fixture: the same instantiation carried out by hand
    p = build_presentation(2)
    c = p.gen(CONJUGATION, 1)
    m = p.gen(MULTIPLICATION, 2)
    r = p.gen(RESTRICTION, 2, 1)
    i = p.gen(INDUCTION, 2, 1)
    one = ((1, ()),)
    expected = {
        (((1, (c, c)),), one),  # c^2 = 1
        (((1, (m, m)),), one),  # m^2 = 1
        (((1, (r, c)),), ((1, (r,)),)),  # c o r = r
        (((1, (c, i)),), ((1, (i,)),)),  # i o c = i
        (((1, (i, m)),), ((1, (i,)),)),  # m o i = i
        (((1, (r,)),), ((1, (m, r)),)),  # r = r o m
        (((1, (i, r)),), ((1, ()), (1, (c,)))),  # r o i = 1 + c
        (((1, (r, i)),), ((1, ()), (1, (m,)))),  # i o r = 1 + m
    }
    got = {rel.sides for rel in p.relations}
    assert got == expected


def test_c4_presentation_shape():
    p = presentation_c4()
    assert len(p.generators) == 11
    assert len(p.objects) == 3
    assert p.family_counts["power"] == 3
    assert p.family_counts["frobenius"] == 3
    assert p.family_counts["commutation"] == 9
    assert p.family_counts["double_coset"] == 2
    # the chained power clause carries three parallel sides
    chained = [r for r in p.relations if len(r.sides) == 3]
    assert len(chained) == 1 and chained[0].tag == "power"


def test_build_matches_hand_oracle_for_k4(ring4, ring_c4_hand):
    rep = presentations_equivalent(
        build_presentation(4), presentation_c4(), ring_p=ring4, ring_q=ring_c4_hand
    )
    assert rep.equivalent, rep.failures


def test_equivalence_is_reflexive(ring2):
    rep = presentations_equivalent(
        build_presentation(2), build_presentation(2), ring_p=ring2, ring_q=ring2
    )
    assert rep.equivalent


def shuffled(pres, seed):
    rels = list(pres.relations)
    random.Random(seed).shuffle(rels)
    return Presentation(pres.group_order, pres.generators, rels, pres.family_counts)


def perturbed(pres, tag, change):
    """pres with its first `tag` relation dropped, or with the first
    coefficient of that relation's last side raised by one."""
    rels = list(pres.relations)
    i = next(n for n, rel in enumerate(rels) if rel.tag == tag)
    if change == "drop":
        del rels[i]
    else:
        rel = rels[i]
        (c, w), *rest = rel.sides[-1]
        rels[i] = Relation(rel.tag, rel.source, rel.target, rel.sides[:-1] + (((c + 1, w), *rest),))
    return Presentation(pres.group_order, pres.generators, rels, pres.family_counts)


@pytest.fixture
def certify_calls(monkeypatch):
    """What every `certify_or_complete` call returned: None when the
    certificate settled it, the completed ring on the fallback."""
    returned = []
    real = completion.certify_or_complete

    def spy(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(completion, "certify_or_complete", spy)
    return returned


@pytest.mark.parametrize(
    "make",
    [
        lambda: (build_presentation(4), presentation_c4()),
        lambda: (build_presentation(2), shuffled(build_presentation(2), 3)),
        lambda: (build_presentation(3), shuffled(build_presentation(3), 4)),
    ],
    ids=["build4-c4", "shuffled-k2", "shuffled-k3"],
)
def test_equivalence_certified_without_completion(make, certify_calls):
    p, q = make()
    fast = presentations_equivalent(p, q)
    assert certify_calls == [None, None]
    slow = completing_presentations_equivalent(p, q)
    assert (fast.equivalent, fast.failures) == (slow.equivalent, slow.failures) == (True, [])


def test_equivalence_with_passed_ring_matches_oracle(ring4, ring_c4_hand):
    p, q = build_presentation(4), presentation_c4()
    fast = presentations_equivalent(p, q, ring_p=ring4)
    slow = completing_presentations_equivalent(p, q, ring_p=ring4, ring_q=ring_c4_hand)
    assert (fast.equivalent, fast.failures) == (slow.equivalent, slow.failures) == (True, [])


@pytest.mark.parametrize(
    "k, tag, change",
    [(2, "double_coset", "drop"), (3, "conjugation_restriction", "coefficient")],
)
def test_equivalence_fallback_lists_oracle_failures(k, tag, change, certify_calls):
    p = build_presentation(k)
    q = perturbed(p, tag, change)
    fast = presentations_equivalent(p, q)
    assert any(isinstance(r, CategoryRing) for r in certify_calls)
    slow = completing_presentations_equivalent(p, q)
    assert fast.failures
    assert (fast.equivalent, fast.failures) == (slow.equivalent, slow.failures)


def test_equivalence_certifies_every_side_of_a_chained_relation(ring4, certify_calls):
    # c4 with c2^2 = m2 = 1 in place of c2^2 = m2^2 = 1: only the middle
    # side fails in the built ring, so certifying the first and last sides
    # alone would pass it.  The completing oracle cannot judge this pair
    # (the altered presentation never stabilizes); chained normal forms
    # in the built ring show which relation fails.
    c4 = presentation_c4()
    rels = list(c4.relations)
    i = next(n for n, rel in enumerate(rels) if len(rel.sides) == 3)
    rel = rels[i]
    m2 = c4.gen(MULTIPLICATION, 2)
    rels[i] = Relation(rel.tag, rel.source, rel.target, (rel.sides[0], ((1, (m2,)),), rel.sides[2]))
    p = Presentation(4, c4.generators, rels, c4.family_counts)
    q = build_presentation(4)
    translate = {n: q.gen(g.kind, g.H, g.L) for n, g in enumerate(p.generators)}
    forms = [
        chained_normal_form(ring4, tuple((c, tuple(translate[g] for g in w)) for c, w in side), 2, 2)
        for side in rels[i].sides
    ]
    assert forms[0] != forms[1] and forms[0] == forms[2]

    rep = presentations_equivalent(p, q)
    assert isinstance(certify_calls[0], CategoryRing)
    assert rep.failures == ["left-in-right: relation power 2->2 does not reduce to zero"]


def test_certificate_needs_no_stabilization():
    # without c^2 = 1 the completion of q never stabilizes, yet the
    # relation still lies in the ideal of q's other relations
    p = build_presentation(2)
    q = perturbed(p, "conjugation_power", "drop")
    assert presentations_equivalent(p, q).equivalent
    with pytest.raises(NotStabilizedError):
        complete(q)


def test_equivalence_rejects_generator_mismatch():
    with pytest.raises(ValueError):
        presentations_equivalent(build_presentation(2), presentation_c4())


def test_empty_families_are_flagged():
    p4 = build_presentation(4)
    assert p4.family_counts["chain_independence"] == 0
    p12 = build_presentation(12)
    assert p12.family_counts["chain_independence"] > 0


def test_chain_independence_holds_in_completed_ring():
    # for non-prime-power order the two maximal chains give equal composites
    ring = complete(build_presentation(6))
    p = ring.presentation
    r_direct = p.restriction_word(6, 1)
    alt_chain = (1, 3, 6)
    r_other = p.restriction_word(6, 1, alt_chain)
    assert normal_form(ring, r_direct) == normal_form(ring, r_other)
    i_direct = p.induction_word(1, 6)
    i_other = p.induction_word(1, 6, alt_chain)
    assert normal_form(ring, i_direct) == normal_form(ring, i_other)


def test_nonadjacent_double_coset_instance_holds(ring4):
    # the full-induction/full-restriction instance reduces to the sum of
    # all conjugations, even though only covering-pair generators exist
    p = ring4.presentation
    lhs = p.induction_word(1, 4) + p.restriction_word(4, 1)
    c = p.gen(CONJUGATION, 1)
    rhs = tuple((1, (c,) * j) for j in range(4))
    assert normal_form(ring4, lhs) == normal_form(ring4, rhs, source=1, target=1)


def test_word_endpoint_validation():
    p = build_presentation(4)
    r21 = p.gen(RESTRICTION, 2, 1)
    r42 = p.gen(RESTRICTION, 4, 2)
    assert p.word_endpoints((r42, r21)) == (4, 1)
    with pytest.raises(ValueError):
        p.word_endpoints((r21, r42))
    with pytest.raises(ValueError):
        p.word_endpoints((), None)


def _greedy_chain(low, high):
    # step by the smallest prime factor of the remaining index each time
    chain = [low]
    while chain[-1] < high:
        q = high // chain[-1]
        chain.append(chain[-1] * next(p for p in range(2, q + 1) if q % p == 0))
    return tuple(chain)


def test_the_first_chain_is_the_greedy_one():
    for k in range(1, 61):
        for L in subgroups(k):
            for H in subgroups(k):
                if H % L == 0:
                    assert _all_chains(L, H)[0] == _greedy_chain(L, H)


@pytest.mark.parametrize("k", [12, 30])
def test_default_words_follow_the_first_chain(k):
    # the one canonical chain: the default words are those of the chain
    # that chain_independence compares every other chain against
    p = build_presentation(k)
    longest = 0
    for L in p.objects:
        for H in p.objects:
            if H % L == 0:
                first = _all_chains(L, H)[0]
                longest = max(longest, len(first) - 1)
                assert p.restriction_word(H, L) == p.restriction_word(H, L, first)
                assert p.induction_word(L, H) == p.induction_word(L, H, first)
    assert longest == 3


def test_equivalence_defaults_are_the_completion_defaults():
    # `ring verify` compares the order-4 oracle at the bounds that `ring
    # build` completes at; presentations_equivalent lives in the completion
    # and takes its defaults from there, and must keep doing so
    params = inspect.signature(presentations_equivalent).parameters
    defaults = (params["max_len"].default, params["window"].default)
    assert defaults == (completion.DEFAULT_MAX_LEN, completion.DEFAULT_WINDOW)


# the modules below the completion; neither may reach up into it, even
# from inside a function.  intlin, the bottom layer, imports no catring
# module at all.
UPPER_LAYERS = {"completion", "modules", "serialize", "cli"}
CATRING_MODULES = {"catring"} | {path.stem for path in pathlib.Path(catring.__file__).parent.glob("*.py")}
FORBIDDEN_IMPORTS = {"presentation.py": UPPER_LAYERS, "groups.py": UPPER_LAYERS, "intlin.py": CATRING_MODULES}


def upper_layer_imports(source: str, forbidden=UPPER_LAYERS) -> list[tuple[int, str]]:
    """(line, module) of every import of a `forbidden` module in `source`."""
    reached = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # `from . import completion` names the module among the aliases
            modules = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        reached += [(node.lineno, m) for m in modules if forbidden & set(m.split("."))]
    return reached


@pytest.mark.parametrize("name", FORBIDDEN_IMPORTS)
def test_lower_layers_import_no_upper_layer(name):
    source = pathlib.Path(catring.__file__).with_name(name).read_text()
    assert upper_layer_imports(source, FORBIDDEN_IMPORTS[name]) == []


def test_layer_guard_sees_every_form_of_import():
    source = (
        "import os\n"
        "from .groups import subgroups\n"
        "def f():\n"
        "    from .completion import normal_form\n"
        "    from . import cli\n"
        "    import catring.modules\n"
        "    from catring.serialize import load_json\n"
    )
    assert upper_layer_imports(source) == [
        (4, "completion"), (5, "cli"), (6, "catring.modules"), (7, "catring.serialize")
    ]
    # the bottom layer may not even import a lower one
    source = "from math import gcd\nfrom . import groups\nimport catring\nfrom .presentation import Word\n"
    assert upper_layer_imports(source, CATRING_MODULES) == [(2, "groups"), (3, "catring"), (4, "presentation")]


def test_generator_index_outside_the_presentation_is_rejected(ring2):
    # at k=2, -1 used to wrap to i[2,1]: its endpoints were (1, 2), a
    # relation on it passed `validate` and `complete` failed on a bare
    # KeyError; `normal_form` raised KeyError on -1 and IndexError on 99.
    # Such a presentation now fails when it is built.
    p = build_presentation(2)
    i21 = p.gen(INDUCTION, 2, 1)
    for bad in (-1, len(p.generators), 99, True):
        with pytest.raises(ValueError, match=f"generator index {bad!r} is not in range\\(6\\)"):
            p.word_endpoints((bad,))
        with pytest.raises(ValueError, match=f"generator index {bad!r}"):
            normal_form(ring2, (bad,))
        with pytest.raises(ValueError, match=f"generator index {bad!r}"):
            normal_form(ring2, ((1, (i21,)), (1, (bad,))))
    assert p.word_endpoints((i21,)) == (1, 2)

    bad = Relation("bad", 1, 2, (((1, (-1,)),), ((1, (i21,)),)))
    with pytest.raises(ValueError, match="generator index -1"):
        Presentation(2, p.generators, p.relations + (bad,), p.family_counts)


def test_equivalence_never_sees_an_unchecked_presentation():
    # `presentations_equivalent(q, build_presentation(2))` translated q's
    # words before anything checked q, and failed on a bare KeyError: -1
    p = build_presentation(2)
    bad = Relation("bad", 1, 2, (((1, (-1,)),), ((1, (p.gen(INDUCTION, 2, 1),)),)))
    with pytest.raises(ValueError, match=r"generator index -1 is not in range\(6\)"):
        presentations_equivalent(Presentation(2, p.generators, p.relations + (bad,), p.family_counts), p)


ONE = ((1, ()),)


@pytest.mark.parametrize(
    "generator, relation, reason",
    [
        (Generator(RESTRICTION, 3, 1), None, r"generator r\[3,1\] runs 3->1, which are not both objects"),
        (None, Relation("bad", 3, 3, (ONE, ONE)), r"bad: runs 3->3, which are not both objects"),
        (None, Relation("bad", 1, 1, (ONE,)), "bad: a relation needs at least two sides"),
        (None, Relation("bad", 1, 1, (((1.5, ()),), ONE)), "bad: non-integer coefficient"),
        (None, Relation("bad", 1, 1, (((1, (5,)),), ONE)), r"bad: word \(5,\) runs 1->2, expected 1->1"),
        (None, Relation("bad", 1, 2, (((1, (-1,)),), ((1, (5,)),))), r"generator index -1 is not in range\(6\)"),
    ],
    ids=["generator-off-the-objects", "ends-off-the-objects", "one-side", "float-coefficient", "word-elsewhere", "index-minus-one"],
)
def test_a_presentation_is_checked_when_it_is_built(generator, relation, reason):
    p = build_presentation(2)
    assert p.gen(INDUCTION, 2, 1) == 5
    gens = p.generators + ((generator,) if generator else ())
    rels = p.relations + ((relation,) if relation else ())
    with pytest.raises(ValueError, match=reason):
        Presentation(2, gens, rels, p.family_counts)


@pytest.mark.parametrize("chain, low, up", [([1, 6], 1, 6), ([1, 2, 2, 6], 2, 2)], ids=["one-step", "repeated-order"])
def test_a_chain_step_that_is_no_covering_pair_is_named(chain, low, up):
    # the first used to fail on a bare KeyError: ('restriction', 6, 1)
    p = build_presentation(6)
    with pytest.raises(ValueError, match=rf"C_6 has no restriction generator r\[{up},{low}\]"):
        p.restriction_word(6, 1, chain)
    with pytest.raises(ValueError, match=rf"C_6 has no induction generator i\[{up},{low}\]"):
        p.induction_word(1, 6, chain)


@pytest.mark.parametrize(
    "word, args, order",
    [("restriction", (6, 0), 0), ("induction", (0, 6), 0), ("restriction", (6, -2), -2)],
    ids=["restrict-to-0", "induce-from-0", "restrict-to-minus-2"],
)
def test_a_chain_end_that_is_no_object_is_named(word, args, order):
    # these used to fail on a bare ZeroDivisionError (order 0) and
    # IndexError (order -2)
    p = build_presentation(6)
    with pytest.raises(ValueError, match=rf"C_6 has no object of order {order}$"):
        getattr(p, f"{word}_word")(*args)
