"""Arithmetic of cyclic groups C_k = <a | a^k>.

Subgroups of C_k are in bijection with divisors of k: the divisor d names
the subgroup <a^(k/d)> of order d, so a subgroup is represented by its
order alone.  Group elements are residues mod k.  A virtual character of
the order-d subgroup is an integer coefficient vector of length d, entry j
counting the irreducible character that sends the subgroup generator to
the primitive d-th root of unity raised to j; entry 0 is the trivial
character.

All functions are pure and all values immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def subgroups(k: int) -> list[int]:
    """Orders of the subgroups of C_k, increasing; k must be >= 1."""
    if k < 1:
        raise ValueError(f"group order must be positive, got {k}")
    return [d for d in range(1, k + 1) if k % d == 0]


@dataclass(frozen=True)
class Character:
    """Virtual character of the order-`subgroup` subgroup of some C_k."""

    subgroup: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.subgroup < 1:
            raise ValueError("subgroup order must be positive")
        if len(self.coeffs) != self.subgroup:
            raise ValueError("coefficient vector must have one entry per irreducible")

    def __add__(self, other: "Character") -> "Character":
        if self.subgroup != other.subgroup:
            raise ValueError("characters live over different subgroups")
        return Character(self.subgroup, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def is_actual(self) -> bool:
        """True for honest (non-virtual) representations."""
        return all(c >= 0 for c in self.coeffs)


def character(d: int, index: int) -> Character:
    """The irreducible character of the order-d subgroup with the given index."""
    coeffs = [0] * d
    coeffs[index % d] = 1
    return Character(d, tuple(coeffs))


def trivial_character(d: int) -> Character:
    return character(d, 0)


def _check_inclusion(small: int, large: int) -> None:
    if small < 1:
        raise ValueError(f"subgroup order must be positive, got {small}")
    if large % small != 0:
        raise ValueError(f"order-{small} subgroup is not contained in the order-{large} one")


def restrict_character(chi: Character, sub_order: int) -> Character:
    """Restrict along the inclusion of the order-`sub_order` subgroup.

    Irreducible index j over order d restricts to index j mod e over order
    e, extended Z-linearly.
    """
    d, e = chi.subgroup, sub_order
    _check_inclusion(e, d)
    coeffs = [0] * e
    for j, c in enumerate(chi.coeffs):
        coeffs[j % e] += c
    return Character(e, tuple(coeffs))


def induce_character(chi: Character, super_order: int) -> Character:
    """Induce up to the order-`super_order` subgroup.

    Irreducible index j over order e induces to the sum of the d/e
    irreducibles {j + t*e : 0 <= t < d/e} over order d.
    """
    e, d = chi.subgroup, super_order
    _check_inclusion(e, d)
    coeffs = [0] * d
    for j, c in enumerate(chi.coeffs):
        if c:
            for t in range(d // e):
                coeffs[j + t * e] += c
    return Character(d, tuple(coeffs))


def double_cosets(k: int, left: int, middle: int, right: int) -> list[int]:
    """Minimal-residue representatives of the double cosets L\\H/K in C_k.

    `left`, `middle`, `right` are the orders of L, H, K with L, K <= H.
    C_k is abelian, so the double cosets are the cosets of the product
    subgroup LK (order lcm(|L|, |K|)) in H.  Representatives are sorted by
    residue and start with the identity.
    """
    if middle not in subgroups(k):
        raise ValueError(f"order-{middle} is not a subgroup of C_{k}")
    _check_inclusion(left, middle)
    _check_inclusion(right, middle)
    product_order = left * right // gcd(left, right)
    count = middle // product_order
    step = k // middle
    return [t * step for t in range(count)]


def element_name(residue: int) -> str:
    if residue == 0:
        return "e"
    if residue == 1:
        return "a"
    return f"a^{residue}"
