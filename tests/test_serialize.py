import json
import random

import pytest

from catring import build_presentation, complete, normal_form, verify_ring, yoneda, yoneda_cyclic_quotient
from catring.serialize import (
    FormatError,
    canonical_json,
    content_hash,
    load_json,
    module_from_dict,
    module_to_dict,
    presentation_from_dict,
    presentation_to_dict,
    ring_from_dict,
    ring_to_dict,
    save_json,
)


def test_presentation_roundtrip_bit_exact():
    for k in (1, 2, 4, 6, 12):
        p = build_presentation(k)
        d = presentation_to_dict(p)
        text = canonical_json(d)
        q = presentation_from_dict(json.loads(text))
        assert q == p
        assert canonical_json(presentation_to_dict(q)) == text


def test_ring_roundtrip_preserves_everything(ring1, ring2, ring3, ring4):
    for ring in (ring1, ring2, ring3, ring4):
        d = ring_to_dict(ring)
        text = canonical_json(d)
        loaded = ring_from_dict(json.loads(text))
        assert loaded.basis == ring.basis
        assert loaded.torsion == ring.torsion
        assert loaded.table == ring.table
        assert {k: v.coeffs for k, v in loaded.arrow_forms.items()} == {
            k: v.coeffs for k, v in ring.arrow_forms.items()
        }
        assert canonical_json(ring_to_dict(loaded)) == text
        report = verify_ring(loaded)
        assert report.ok


def test_loaded_ring_computes_normal_forms(ring4):
    loaded = ring_from_dict(json.loads(canonical_json(ring_to_dict(ring4))))
    p = loaded.presentation
    i21 = p.gen("induction", 2, 1)
    r21 = p.gen("restriction", 2, 1)
    c1 = p.gen("conjugation", 1)
    lhs = normal_form(loaded, (i21, r21))
    rhs = normal_form(loaded, ((1, ()), (1, (c1, c1))), source=1, target=1)
    assert lhs == rhs


def test_ring_hash_detects_tampering(ring2, tmp_path):
    d = ring_to_dict(ring2)
    d["max_len"] = d["max_len"] + 1
    with pytest.raises(FormatError):
        ring_from_dict(d)


def test_module_roundtrip_and_hash_link(ring4, tmp_path):
    d = ring_to_dict(ring4)
    h = d["ring_hash"]
    m = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)
    md = module_to_dict(m, h)
    path = tmp_path / "m.json"
    save_json(path, md)
    loaded = module_from_dict(ring4, load_json(path), h)
    assert loaded.gens == m.gens
    assert loaded.rels == m.rels
    assert loaded.act == m.act
    with pytest.raises(FormatError):
        module_from_dict(ring4, load_json(path), "0" * 64)


def test_module_load_rejects_nonfunctorial_action(ring4):
    d = ring_to_dict(ring4)
    h = d["ring_hash"]
    m = yoneda(ring4, 2, 0)
    md = module_to_dict(m, h)
    # corrupt one nonzero action matrix entry
    for rec in md["actions"]:
        if rec["matrix"] and any(any(r) for r in rec["matrix"]):
            rec["matrix"][0][0] += 1
            break
    with pytest.raises(ValueError):
        module_from_dict(ring4, md, h)


def test_canonical_json_is_deterministic(ring2):
    a = canonical_json(ring_to_dict(ring2))
    b = canonical_json(ring_to_dict(complete(build_presentation(2))))
    assert a == b


def test_content_hash_ignores_embedded_hash(ring2):
    d = ring_to_dict(ring2)
    assert content_hash(d) == d["ring_hash"]
    d2 = dict(d)
    d2.pop("ring_hash")
    assert content_hash(d2) == d["ring_hash"]


@pytest.mark.parametrize("entry", ["x", 1.0, True])
@pytest.mark.parametrize("field", ["relations", "matrix"])
def test_module_entries_must_be_integers(ring2, field, entry):
    m = yoneda_cyclic_quotient(ring2, 2, 0, 1, 0)
    data = module_to_dict(m, "h")
    records = data["values"] if field == "relations" else data["actions"]
    rows = next(rec[field] for rec in records if rec[field] and rec[field][0])
    rows[0][0] = entry
    with pytest.raises(FormatError, match="non-integer entry"):
        module_from_dict(ring2, json.loads(json.dumps(data)), "h")


def test_relation_word_generator_must_exist():
    data = presentation_to_dict(build_presentation(2))
    data["relations"][0]["sides"][0][0]["word"] = [99]
    with pytest.raises(FormatError, match=r"word \[99\]"):
        presentation_from_dict(data)
