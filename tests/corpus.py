"""Seeded corpora for property tests: valid modules over a given ring,
and ring files changed in one place."""

from __future__ import annotations

import random

from catring import (
    direct_sum,
    free_cover,
    kernel_of,
    suspend,
    trivial_group_module,
    yoneda,
    yoneda_cyclic_quotient,
    zero_module,
)
from catring.serialize import content_hash, ring_from_dict, ring_to_dict

from oracles import file_table


def build_corpus(ring, rng, size=10, max_gens=40):
    """Deterministically sample valid small modules over `ring`."""
    objs = ring.objects
    corpus = [zero_module(ring), yoneda(ring, objs[0], 0)]
    while len(corpus) < size:
        kind = rng.randrange(5)
        if kind == 0:
            m = yoneda(ring, rng.choice(objs), rng.randrange(2))
        elif kind == 1:
            m = suspend(rng.choice(corpus))
        elif kind == 2:
            m = direct_sum(rng.choice(corpus), rng.choice(corpus))
        elif kind == 3:
            obj = rng.choice(objs)
            src = rng.choice(objs)
            nb = len(ring.basis[(src, obj)])
            if nb == 0:
                continue
            m = yoneda_cyclic_quotient(ring, obj, rng.randrange(2), src, rng.randrange(nb))
        else:
            base = rng.choice(corpus)
            m, _ = kernel_of(free_cover(base))
        if sum(m.ngens(s) for s in m.slots) <= max_gens:
            corpus.append(m)
    return corpus


def graded_group_grid(max_order=8):
    """All single-cyclic-per-degree graded abelian groups: () empty,
    (0,) = Z, (n,) = Z/n for 2 <= n <= max_order."""
    per_degree = [()] + [(0,)] + [(n,) for n in range(2, max_order + 1)]
    return [(a0, a1) for a0 in per_degree for a1 in per_degree]


def trivial_modules_for(ring1, shapes):
    return [trivial_group_module(ring1, degree0=a0, degree1=a1) for a0, a1 in shapes]


def with_torsion(ring):
    """`ring` read back with moduli 2 and 3 imposed on every component's
    second and third basis slots, so that the table no longer respects
    them and each reduction step shows in the normal forms."""
    data = ring_to_dict(ring)
    for comp in data["components"]:
        for slot, mod in ((1, 2), (2, 3)):
            if slot < len(comp["torsion"]):
                comp["torsion"][slot] = mod
    data["ring_hash"] = content_hash(data)
    return ring_from_dict(data)


def bumped_table_entry(ring, key):
    """`ring` written to a file dict, its table entry `key` (a nonzero
    product) raised by 1 at position 0, its hash recomputed and read back."""
    data = ring_to_dict(ring)
    entry = next(e for e in data["table"] if tuple(e[:2]) == key)
    entry[2][0] += 1
    data["ring_hash"] = content_hash(data)
    return ring_from_dict(data)


def with_empty_side_relation(ring):
    """The file dict of `ring` with the relation `0 = 1[1]` added, its
    first side empty, and its hash recomputed: a relation the ring does
    not satisfy, since an empty side is the zero combination."""
    data = ring_to_dict(ring)
    unit = {"coefficient": 1, "word": []}
    data["presentation"]["relations"].append({"tag": "zero_unit", "source": 1, "target": 1, "sides": [[], [unit]]})
    data["ring_hash"] = content_hash(data)
    return data


CORRUPTIONS = ("unit row", "letter column", "elsewhere", "arrow form", "torsion")


def corrupted_rings(ring, rng, per_kind):
    """`ring` written to a file dict, changed in one place, its hash
    recomputed and read back: `per_kind` seeded cases of each kind in
    CORRUPTIONS.  A table entry (u, v) is bumped by a nonzero amount at one
    position, with u a unit ("unit row"), with v a letter, a basis element
    in the support of an arrow normal form ("letter column"), or with
    neither; or one arrow normal form coefficient is bumped; or one basis
    slot gets a torsion modulus.  Returns (label, ring) pairs."""
    units = {ring.offset[(x, x)] + ring.unit_pos[x] for x in ring.objects}
    letters = {
        ring.offset[(form.source, form.target)] + t
        for form in ring.arrow_forms.values()
        for t, _ in form.row
    }
    table = file_table(ring)
    composable = sorted(table)
    choices = {
        "unit row": [key for key in composable if key[0] in units],
        "letter column": [key for key in composable if key[1] in letters],
        "elsewhere": [key for key in composable if key[0] not in units and key[1] not in letters],
    }
    cases = []
    for kind in CORRUPTIONS:
        for _ in range(per_kind):
            data = ring_to_dict(ring)
            bump = rng.choice((-1, 1, 2))
            if kind in choices:
                u, v = rng.choice(choices[kind])
                entry = next((e for e in data["table"] if e[:2] == [u, v]), None)
                if entry is None:
                    entry = [u, v, list(table[(u, v)])]
                    data["table"].append(entry)
                pos = rng.randrange(len(entry[2]))
                entry[2][pos] += bump
                label = f"{kind} ({u},{v})[{pos}] {bump:+}"
            elif kind == "arrow form":
                rec = rng.choice(data["arrow_forms"])
                pos = rng.randrange(len(rec["coefficients"]))
                rec["coefficients"][pos] += bump
                label = f"{kind} {rec['generator']}[{pos}] {bump:+}"
            else:
                comp = rng.choice(data["components"])
                pos = rng.randrange(len(comp["torsion"]))
                comp["torsion"][pos] = rng.choice((2, 3))
                label = f"{kind} ({comp['source']},{comp['target']})[{pos}] mod {comp['torsion'][pos]}"
            data["ring_hash"] = content_hash(data)
            cases.append((f"k={ring.presentation.group_order} #{len(cases)} {label}", ring_from_dict(data)))
    return cases


def verify_cases(ring1, ring2, ring3, ring4, ring_c4_hand):
    """(label, ring) pairs: the valid rings, labelled "valid",
    `with_torsion(ring4)`, and 30 seeded corrupted k=2 and k=4 files,
    labelled "corrupted"."""
    rng = random.Random(13)
    corrupted = corrupted_rings(ring2, rng, 3) + corrupted_rings(ring4, rng, 3)
    assert len(corrupted) == 30
    valid = [("valid k=1", ring1), ("valid k=2", ring2), ("valid k=3", ring3), ("valid k=4", ring4)]
    return [
        *valid,
        ("valid c4 hand", ring_c4_hand),
        ("ring4 with torsion", with_torsion(ring4)),
        *((f"corrupted {label}", ring) for label, ring in corrupted),
    ]
