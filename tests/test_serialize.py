import hashlib
import json
import pathlib
import random

import pytest

from catring import (
    build_presentation,
    complete,
    direct_sum,
    free_cover,
    kernel_of,
    normal_form,
    suspend,
    verify_ring,
    yoneda,
    yoneda_cyclic_quotient,
)
from catring.modules import FreeModule, GradedModule
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

from corpus import build_corpus


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
        assert {k: v.row for k, v in loaded.arrow_forms.items()} == {k: v.row for k, v in ring.arrow_forms.items()}
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


def _repeat_table_entry(table):
    # a second record for the first entry, with another vector: it must
    # not silently replace the first
    u, v, vec = table[0]
    table.append([u, v, [c + 1 for c in vec]])


def _boolean_table_index(table):
    # true reads as 1 in Python, so the entry would load as (1, v)
    entry = next(e for e in table if e[0] == 1)
    entry[0] = True


def _short_table_vector(table):
    table[0][2].pop()


def _long_table_vector(table):
    table[0][2].append(0)


def _empty_table_vector(table):
    # entry (0, 0) lands in a nonempty component, so [] is not its zero row
    table[0][2] = []


@pytest.mark.parametrize(
    "change, message",
    [
        (_repeat_table_entry, r"repeated table entry \(0,0\)"),
        (_boolean_table_index, r"table entry \[True, \d+, \.\.\.\] needs integer indices"),
        (_short_table_vector, r"table entry \(0,0\): expected width 2, got 1$"),
        (_long_table_vector, r"table entry \(0,0\): expected width 2, got 3$"),
        (_empty_table_vector, r"table entry \(0,0\): expected width 2, got 0$"),
    ],
    ids=["repeated", "boolean", "short-vector", "long-vector", "empty-vector"],
)
def test_ring_table_indices_are_checked(ring2, change, message):
    data = ring_to_dict(ring2)
    change(data["table"])
    data["ring_hash"] = content_hash(data)
    with pytest.raises(FormatError, match=message):
        ring_from_dict(data)


def _component_record(data):
    return next(c for c in data["components"] if len(c["basis"]) > 1)


def _table_vector_not_a_list(data):
    data["table"][0][2] = 5


def _arrow_coefficients_not_a_list(data):
    data["arrow_forms"][0]["coefficients"] = 5


def _string_arrow_generator(data):
    data["arrow_forms"][0]["generator"] = "1"


def _boolean_arrow_generator(data):
    # true reads as 1 in Python
    data["arrow_forms"][0]["generator"] = True


def _basis_word_not_a_list(data):
    _component_record(data)["basis"][-1] = 3


def _torsion_not_a_list(data):
    _component_record(data)["torsion"] = 5


def _set_field(path, value):
    """A change that sets the field at `path`, keys and list indices from
    the top of the ring file, to `value`."""

    def change(data):
        *head, last = path
        for key in head:
            data = data[key]
        data[last] = value

    return change


def _drop_field(path):
    """A change that removes the field at `path`."""

    def change(data):
        *head, last = path
        for key in head:
            data = data[key]
        del data[last]

    return change


WRONG_TYPES = [
    ("table-vector", _table_vector_not_a_list, r"table entry \(\d+,\d+\) needs a list of coefficients, got 5"),
    (
        "arrow-coefficients",
        _arrow_coefficients_not_a_list,
        r"arrow normal form of generator \d+ needs a list of coefficients, got 5",
    ),
    ("string-generator", _string_arrow_generator, r"arrow normal form needs an integer generator, got '1'"),
    ("boolean-generator", _boolean_arrow_generator, r"arrow normal form needs an integer generator, got True"),
    ("basis-word", _basis_word_not_a_list, r"component \(\d, \d\) needs its basis as a list of words, each a list"),
    ("torsion", _torsion_not_a_list, r"component \(\d, \d\) needs a torsion list of one integer or null modulus"),
    ("components-int", _set_field(["components"], 5), r"ring file needs 'components' as a list, got int"),
    ("table-int", _set_field(["table"], 5), r"ring file needs 'table' as a list, got int"),
    ("arrow-forms-object", _set_field(["arrow_forms"], {}), r"ring file needs 'arrow_forms' as a list, got dict"),
    ("table-missing", _drop_field(["table"]), r"ring file needs 'table' as a list, got NoneType"),
    ("component-int", _set_field(["components", 0], 5), r"component record 0 needs an object, got int"),
    ("string-source", _set_field(["components", 0, "source"], "1"), r"components do not cover the object pairs"),
    ("arrow-form-list", _set_field(["arrow_forms", 1], []), r"arrow form record 1 needs an object, got list"),
    *(
        (f"component-without-{f}", _drop_field(["components", 2, f]), f"component record 2 has no field '{f}'")
        for f in ("source", "target", "basis", "torsion")
    ),
    *(
        (f"arrow-form-without-{f}", _drop_field(["arrow_forms", 0, f]), f"arrow form record 0 has no field '{f}'")
        for f in ("generator", "coefficients")
    ),
    ("presentation-missing", _drop_field(["presentation"]), r"ring file needs 'presentation' as an object"),
    # CategoryRing raised a bare "() is not in list" on this one
    (
        "diagonal-without-unit",
        _set_field(["components", 0, "basis"], [[2], [2, 2]]),
        r"component \(1, 1\) needs the empty word \[\] in its basis",
    ),
    ("generator-order", _set_field(["generator_order"], ["1[1]"]), r"generator_order does not list the names"),
    ("generator-order-missing", _drop_field(["generator_order"]), r"generator_order does not list the names"),
    # the presentation's fields; each escaped as a bare KeyError or TypeError
    ("relations-missing", _drop_field(["presentation", "relations"]), r"presentation has no field 'relations'"),
    ("generators-int", _set_field(["presentation", "generators"], 5), r"presentation needs 'generators' as a list, got int"),
    ("family-counts-int", _set_field(["presentation", "family_counts"], 5), r"needs 'family_counts' as an object, got int"),
    ("relation-int", _set_field(["presentation", "relations", 0], 3), r"relation record 0 needs an object, got int"),
    (
        "word-int",
        _set_field(["presentation", "relations", 0, "sides", 0, 0, "word"], 5),
        r"relation record 0 side 0 term 0 needs 'word' as a list, got int",
    ),
    (
        "group-order-string",
        _set_field(["presentation", "group_order"], "4"),
        r"presentation needs 'group_order' as an integer, got str",
    ),
    ("presentation-list", _set_field(["presentation"], []), r"ring file needs 'presentation' as an object"),
]


@pytest.mark.parametrize(
    "change, message", [case[1:] for case in WRONG_TYPES], ids=[case[0] for case in WRONG_TYPES]
)
def test_ring_fields_of_the_wrong_type_are_named(ring2, change, message):
    # each used to escape as a bare TypeError or KeyError ("'int' object
    # is not iterable", "'<=' not supported ...", "'source'"), or to load
    # as another file
    data = ring_to_dict(ring2)
    change(data)
    data["ring_hash"] = content_hash(data)
    with pytest.raises(FormatError, match=message):
        ring_from_dict(data)


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


# content hashes of module files over the k=4 ring, as written while
# module data were stored as dense rows; sparse storage must not move a byte
MODULE_HASHES = {
    "corpus": "201391fd31b6135d8681187513ca73e409f620c802edb93f1840f82e6b54a4b6",
    "free": "97052fb4276c3c24f0ad1f5db8dbf1e28b2eb9738015d323062ac7b748e80411",
    "cover_of_syzygy": "562f37e22b3f661f78ac36235ce2ff36ca80bb1876d581acd5dae76cda36b4f5",
    "first_syzygy": "e156b4651b2ca238ed00cc7d125a55470685abffa74c59bcdf95e5bc63b3a18f",
    "second_syzygy": "2193a3b4d7cfcf0173c5a410b6eabf663bb4618072e36ae9bd80469436e77b8c",
    "sum": "4fbd7cf51fd51c510720af85dee13c1aa856033409cb8a5da15e0e54ccb13a3f",
}


def test_module_bytes_are_pinned(ring4):
    h = ring_to_dict(ring4)["ring_hash"]

    def file_hash(m):
        return content_hash(module_to_dict(m, h))

    corpus = build_corpus(ring4, random.Random(43), size=12)
    w = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)
    k1, _ = kernel_of(free_cover(w))
    k2, _ = kernel_of(free_cover(k1))
    got = {
        # one digest over the corpus's file hashes, in corpus order
        "corpus": hashlib.sha256("".join(map(file_hash, corpus)).encode()).hexdigest(),
        "free": file_hash(FreeModule(ring4, [(1, 0), (2, 1), (4, 0), (2, 0)])),
        "cover_of_syzygy": file_hash(free_cover(k1).source),
        "first_syzygy": file_hash(k1),
        "second_syzygy": file_hash(k2),
        "sum": file_hash(direct_sum(w, suspend(yoneda(ring4, 4, 0)), k1)),
    }
    assert got == MODULE_HASHES


def test_module_to_dict_names_rows_that_do_not_fit(ring2):
    # a module that was never validated: a dict column past its slot's
    # generators is named, not an IndexError from the dense rows
    y = yoneda(ring2, 1, 0)
    h = ring_to_dict(ring2)["ring_hash"]
    bad = GradedModule(ring2, y.gens, {(1, 0): [{7: 1}]}, y.act)
    with pytest.raises(ValueError, match=r"relations at slot \(1, 0\): columns \[7\]"):
        module_to_dict(bad, h)
    fb = ring2.offset[(1, 1)] + ring2.unit_pos[1]
    act = dict(y.act)
    act[(fb, 0)] = ({5: 1},) + tuple(act[(fb, 0)][1:])
    bad = GradedModule(ring2, y.gens, {}, act)
    with pytest.raises(ValueError, match=rf"action matrix of \(basis, degree\) \({fb}, 0\): columns \[5\]"):
        module_to_dict(bad, h)
    act[(fb, 0)] = act[(fb, 0)][1:]
    bad = GradedModule(ring2, y.gens, {}, act)
    with pytest.raises(ValueError, match=rf"action matrix of \(basis, degree\) \({fb}, 0\): expected 2 rows"):
        module_to_dict(bad, h)


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


@pytest.mark.parametrize(
    "field, change, message",
    [
        ("relations", lambda rows: rows[0].pop(), r"relations at slot \(1, 0\): expected width"),
        ("relations", lambda rows: rows[0].append(0), r"relations at slot \(1, 0\): expected width"),
        ("matrix", lambda rows: rows[0].pop(), r"\(basis, degree\) \(\d+, 0\): expected width"),
        ("matrix", lambda rows: rows.pop(), r"\(basis, degree\) \(\d+, 0\): expected \d+ rows"),
    ],
)
def test_module_shapes_are_format_errors(ring2, field, change, message):
    # rows that do not fit their slots are malformed files, caught where
    # the dense rows come in, before any validation
    m = yoneda_cyclic_quotient(ring2, 2, 0, 1, 0)
    data = module_to_dict(m, "h")
    records = data["values"] if field == "relations" else data["actions"]
    change(next(rec[field] for rec in records if rec[field] and rec[field][0]))
    with pytest.raises(FormatError, match=message):
        module_from_dict(ring2, data, "h")


MODULE_WRONG_TYPES = [
    *(
        (
            f"{key}-{type(value).__name__}",
            _set_field([field, n, key], value),
            f"{record} {n} needs '{key}' as an integer, got {type(value).__name__}",
        )
        for field, n, record, key in (
            ("values", 0, "value record", "object"),
            ("values", 0, "value record", "degree"),
            ("actions", 2, "action record", "basis"),
        )
        for value in (True, 1.0)
    ),
    ("matrix-int", _set_field(["actions", 2, "matrix"], 5), r"action record 2 needs 'matrix' as a list, got int"),
    ("relations-int", _set_field(["values", 0, "relations"], 5), r"value record 0 needs 'relations' as a list"),
    ("generators-str", _set_field(["values", 0, "generators"], "ab"), r"value record 0 needs 'generators' as a list"),
    ("values-object", _set_field(["values"], {}), r"module file needs 'values' as a list, got dict"),
    ("actions-missing", _drop_field(["actions"]), r"module file needs 'actions' as a list, got NoneType"),
    ("value-without-relations", _drop_field(["values", 0, "relations"]), r"value record 0 has no field 'relations'"),
    ("value-list", _set_field(["values", 1], []), r"value record 1 needs an object, got list"),
    ("action-list", _set_field(["actions", 2], []), r"action record 2 needs an object, got list"),
    (
        "matrix-row-int",
        _set_field(["actions", 2, "matrix", 0], 5),
        r"action matrix of \(basis, degree\) \(1, 0\) needs a list of coefficients, got 5",
    ),
]


@pytest.mark.parametrize(
    "change, message", [case[1:] for case in MODULE_WRONG_TYPES], ids=[case[0] for case in MODULE_WRONG_TYPES]
)
def test_module_fields_of_the_wrong_type_are_named(ring2, change, message):
    # true and 1.0 used to load as 1, since (True, 0) and (1.0, 0) hash
    # equal to (1, 0); the others escaped as "malformed record: ..." or
    # "missing field ..." without the record
    data = module_to_dict(yoneda_cyclic_quotient(ring2, 2, 0, 1, 0), "h")
    change(data)
    with pytest.raises(FormatError, match=message):
        module_from_dict(ring2, data, "h")


def test_benchmark_files_write_back_byte_for_byte(tmp_path, monkeypatch):
    # every ring and module file the serve workload reads, and every module
    # the query workload asks about, reads back to the same bytes
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    state = workloads.Serve().setup(0, str(tmp_path))
    for k, h in state["hashes"].items():
        data = load_json(tmp_path / f"ring{k}.json")
        ring = ring_from_dict(data)
        assert canonical_json(ring_to_dict(ring)) == canonical_json(data)
        for i in range(len(state["modules"].get(k, ()))):
            data = load_json(workloads.Serve.module_path(state, k, i))
            assert canonical_json(module_to_dict(module_from_dict(ring, data, h), h)) == canonical_json(data)
    for k in workloads.QUERY_RINGS:
        ring = state["rings"][k]
        small, large, targets = workloads.make_corpus(ring)
        for m in small + large + targets:
            text = canonical_json(module_to_dict(m, "h"))
            assert canonical_json(module_to_dict(module_from_dict(ring, json.loads(text), "h"), "h")) == text


def test_relation_word_generator_must_exist():
    data = presentation_to_dict(build_presentation(2))
    data["relations"][0]["sides"][0][0]["word"] = [99]
    with pytest.raises(FormatError, match=r"word \[99\]"):
        presentation_from_dict(data)
