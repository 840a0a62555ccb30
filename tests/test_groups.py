import itertools
from math import gcd

import pytest

from catring import (
    Character,
    character,
    double_cosets,
    induce_character,
    restrict_character,
    subgroups,
    trivial_character,
)
from catring.groups import element_name


def test_subgroups_enumeration():
    assert subgroups(4) == [1, 2, 4]
    assert subgroups(1) == [1]
    assert subgroups(6) == [1, 2, 3, 6]
    assert subgroups(12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(ValueError):
        subgroups(0)


def test_restriction_of_order4_characters():
    # the two primitive characters of the order-4 subgroup restrict to the
    # unique nontrivial character of the order-2 subgroup
    assert restrict_character(character(4, 1), 2) == character(2, 1)
    assert restrict_character(character(4, 3), 2) == character(2, 1)
    assert restrict_character(character(4, 2), 2) == character(2, 0)
    for d in (1, 2, 3, 4, 6):
        for e in subgroups(d):
            assert restrict_character(trivial_character(d), e) == trivial_character(e)


def test_induction_identities_for_order4():
    # trivial from order 2 to order 4: indices {0, 2}
    assert induce_character(trivial_character(2), 4) == Character(4, (1, 0, 1, 0))
    # nontrivial from order 2 to order 4: indices {1, 3}
    assert induce_character(character(2, 1), 4) == Character(4, (0, 1, 0, 1))
    # trivial from the trivial subgroup to order 2: indices {0, 1}
    assert induce_character(trivial_character(1), 2) == Character(2, (1, 1))


def test_double_coset_representatives():
    assert double_cosets(4, 1, 2, 1) == [0, 2]
    assert double_cosets(4, 2, 4, 2) == [0, 1]
    assert double_cosets(4, 2, 2, 2) == [0]
    assert double_cosets(12, 2, 12, 3) == [0, 1]
    with pytest.raises(ValueError):
        double_cosets(4, 2, 2, 4)


@pytest.mark.parametrize(
    "k, left, middle, right",
    [(0, 1, 2, 1), (-4, 2, 4, 2), (4, -2, 4, 2), (4, 0, 4, 2), (4, 1, 0, 1), (4, 1, 3, 1), (4, 1, -2, 1), (4, 2, 4, 0)],
)
def test_double_cosets_check_the_orders(k, left, middle, right):
    # each returned a wrong list or raised ZeroDivisionError
    with pytest.raises(ValueError):
        double_cosets(k, left, middle, right)


def test_inclusion_needs_positive_orders():
    # raised ZeroDivisionError
    with pytest.raises(ValueError, match="positive"):
        restrict_character(character(4, 1), 0)


def test_element_names():
    assert [element_name(g) for g in (0, 1, 2)] == ["e", "a", "a^2"]


def test_induce_is_additive():
    chi = Character(2, (2, -1))
    psi = Character(2, (0, 3))
    assert induce_character(chi + psi, 4) == induce_character(chi, 4) + induce_character(psi, 4)


def test_restrict_and_induce_along_equality_are_identities():
    for d in (1, 2, 5, 6):
        for j in range(d):
            chi = character(d, j)
            assert induce_character(chi, d) == chi
            assert restrict_character(chi, d) == chi


def test_coset_count_formula():
    # |L\H/K| * |LK| = |H| in the abelian case
    for k in range(1, 13):
        for h in subgroups(k):
            for l in subgroups(h):
                for r in subgroups(h):
                    reps = double_cosets(k, l, h, r)
                    assert reps[0] == 0
                    assert reps == sorted(reps)
                    assert len(reps) * (l * r // gcd(l, r)) == h


def test_frobenius_reciprocity_on_index_sets():
    # every irreducible summand of an induced character restricts back to
    # a character containing the original one
    for k in range(1, 13):
        for h in subgroups(k):
            for e in subgroups(h):
                for j in range(e):
                    chi = character(e, j)
                    ind = induce_character(chi, h)
                    assert sum(ind.coeffs) == h // e
                    for idx, c in enumerate(ind.coeffs):
                        if c:
                            back = restrict_character(character(h, idx), e)
                            assert back == chi


def test_restrict_induce_multiplicity():
    # restricting an induced character gives [H:L] copies of the original
    for k in (4, 6, 12):
        for h in subgroups(k):
            for e in subgroups(h):
                for j in range(e):
                    chi = character(e, j)
                    round_trip = restrict_character(induce_character(chi, h), e)
                    expected = Character(e, tuple((h // e) * c for c in chi.coeffs))
                    assert round_trip == expected


def test_character_validation():
    with pytest.raises(ValueError):
        Character(2, (1,))
    with pytest.raises(ValueError):
        restrict_character(character(4, 1), 3)
    with pytest.raises(ValueError):
        induce_character(character(3, 1), 4)
    assert character(4, 1).is_actual()
    assert not Character(2, (1, -1)).is_actual()
