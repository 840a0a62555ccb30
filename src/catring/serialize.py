"""Canonical JSON formats for presentations, rings and modules.

Every file is a single JSON object with a `format_version` and a `kind`
field.  Serialization is canonical - sorted keys, compact separators,
basis monomials in monomial order - so identical mathematical content
produces byte-identical files.  A ring file carries a `ring_hash` (sha256
of its canonical form without that field); module files must name the
hash of the ring they were defined over and are rejected against any
other ring before any computation touches them.
"""

from __future__ import annotations

import hashlib
import json

from .completion import CategoryRing, _flat_layout
from .modules import GradedModule, _check_rows
from .presentation import (
    CONJUGATION,
    IDENTITY,
    INDUCTION,
    MULTIPLICATION,
    RESTRICTION,
    Generator,
    Presentation,
    Relation,
)

FORMAT_VERSION = 1


class FormatError(ValueError):
    pass


_INT = frozenset({int})  # the type of every integer a file may hold (no bools)
_MODULUS = frozenset({int, type(None)})  # a torsion modulus, or null for a free slot


def canonical_json(data) -> str:
    # parsed JSON and the writers' dicts hold no cycle, so the encoder's
    # circularity scan only costs time; the bytes are the same
    return json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=True, check_circular=False)


def content_hash(data) -> str:
    stripped = {k: v for k, v in data.items() if k != "ring_hash"}
    return hashlib.sha256(canonical_json(stripped).encode("ascii")).hexdigest()


def save_json(path, data) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(canonical_json(data))
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise FormatError("expected a JSON object")
    return data


def _expect(data: dict, kind: str) -> None:
    if data.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {data.get('format_version')!r}")
    if data.get("kind") != kind:
        raise FormatError(f"expected kind {kind!r}, found {data.get('kind')!r}")


# -- presentations -----------------------------------------------------


def generator_to_dict(g: Generator) -> dict:
    rec = {"kind": g.kind, "H": g.H}
    if g.kind in (RESTRICTION, INDUCTION):
        rec["L"] = g.L
    elif g.kind == CONJUGATION:
        rec["g"] = 1
    elif g.kind == MULTIPLICATION:
        rec["chi"] = 1
    return rec


def generator_from_dict(rec: dict, what: str) -> Generator:
    """The generator of a record that `generator_to_dict` writes back
    unchanged, with every field but `kind` an integer: no field is
    ignored, missing or of another type.  FormatError names `what`."""
    kind = rec.get("kind") if type(rec) is dict else None
    if kind not in (IDENTITY, CONJUGATION, MULTIPLICATION, RESTRICTION, INDUCTION):
        _typed(rec, what, kind=str)  # names a record that is no object, or its missing or mistyped kind
        raise FormatError(f"unknown generator kind {kind!r}")
    g = Generator(kind, rec.get("H"), rec.get("L"))
    written = generator_to_dict(g)
    if written != rec or not _INT.issuperset(type(v) for k, v in rec.items() if k != "kind"):
        # name a field the writer gives this kind that is missing or no integer
        _typed(rec, what, **{field: int for field in written if field != "kind"})
        raise FormatError(f"{what} {rec} does not read back as {written}")
    return g


def presentation_to_dict(p: Presentation) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "presentation",
        "group_order": p.group_order,
        "objects": list(p.objects),
        "generators": [generator_to_dict(g) for g in p.generators],
        "relations": [
            {
                "tag": r.tag,
                "source": r.source,
                "target": r.target,
                "sides": [
                    [{"coefficient": c, "word": list(w)} for c, w in side] for side in r.sides
                ],
            }
            for r in p.relations
        ],
        "family_counts": dict(p.family_counts),
    }


def presentation_from_dict(data: dict) -> Presentation:
    """The presentation a record holds; FormatError names the record and
    the field when one is missing or of another type."""
    _expect(data, "presentation")
    order, objects, gen_recs, rel_recs, counts = _typed(
        data, "presentation", group_order=int, objects=list, generators=list, relations=list, family_counts=dict
    )
    gens = [generator_from_dict(rec, f"generator record {n}") for n, rec in enumerate(gen_recs)]
    rels = []
    for n, rec in enumerate(rel_recs):
        what = f"relation record {n}"
        tag, source, target, sides = _typed(rec, what, tag=str, source=int, target=int, sides=list)
        read = []
        for s, side in enumerate(sides):
            if type(side) is not list:
                raise FormatError(f"{what} needs each of its 'sides' as a list of terms")
            terms = []
            for m, t in enumerate(side):
                # the test alone first: a term is far cheaper to test than to name
                if not (type(t) is dict and type(t.get("coefficient")) is int and type(t.get("word")) is list):
                    _typed(t, f"{what} side {s} term {m}", coefficient=int, word=list)
                word = t["word"]
                if any(type(gi) is not int or not 0 <= gi < len(gens) for gi in word):
                    raise FormatError(f"relation {tag}: word {word} names an unknown generator")
                terms.append((t["coefficient"], tuple(word)))
            read.append(tuple(terms))
        rels.append(Relation(tag, source, target, tuple(read)))
    if not all(type(name) is str and type(c) is int for name, c in counts.items()):
        raise FormatError("presentation needs 'family_counts' as an integer count per family name")
    try:
        p = Presentation(order, gens, rels, counts)
        p.validate()
    except ValueError as exc:
        raise FormatError(f"invalid presentation: {exc}") from exc
    if list(p.objects) != objects:
        raise FormatError("presentation 'objects' does not list the subgroup orders of the group order")
    return p


# -- rings -------------------------------------------------------------


def _dense(pairs, n: int) -> list:
    """The list of width n that a file holds for the (pos, c) pairs of a
    sparse row: a ring row, an arrow form, or a module row's items."""
    vec = [0] * n
    for t, c in pairs:
        vec[t] = c
    return vec


def ring_to_dict(ring: CategoryRing) -> dict:
    components = []
    for pair in ring.pairs:
        components.append(
            {
                "source": pair[0],
                "target": pair[1],
                "basis": [list(w) for w in ring.basis[pair]],
                "torsion": [m if m else None for m in ring.torsion[pair]],
            }
        )
    table = [
        [u, v, _dense(row, len(ring.basis[(ring.flat[u][0], ring.flat[v][1])]))]
        for (u, v), row in sorted(ring.table.items())
        if row
    ]
    arrow_forms = [
        {"generator": gi, "coefficients": _dense(f.row, len(ring.basis[(f.source, f.target)]))}
        for gi, f in sorted(ring.arrow_forms.items())
    ]
    data = {
        "format_version": FORMAT_VERSION,
        "kind": "ring",
        "presentation": presentation_to_dict(ring.presentation),
        "max_len": ring.max_len,
        "window": ring.window,
        "stabilized_at": ring.stabilized_at,
        "generator_order": [g.name() for g in ring.presentation.generators],
        "components": components,
        "table": table,
        "arrow_forms": arrow_forms,
    }
    data["ring_hash"] = content_hash(data)
    return data


_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _records(data: dict, field: str) -> list:
    """The list of records a file of the kind `_expect` checked holds
    under `field`."""
    records = data.get(field)
    if type(records) is not list:
        raise FormatError(f"{data['kind']} file needs {field!r} as a list, got {type(records).__name__}")
    return records


def _fields(rec, what: str, *fields: str) -> tuple:
    """The values of `fields` in the object `rec`; FormatError names `what`."""
    if type(rec) is not dict:
        raise FormatError(f"{what} needs an object, got {type(rec).__name__}")
    try:
        return tuple([rec[field] for field in fields])
    except KeyError as exc:
        raise FormatError(f"{what} has no field {exc}") from exc


def _typed(rec, what: str, **types) -> tuple:
    """`_fields`, each value of exactly its type (`True` is no integer)."""
    values = _fields(rec, what, *types)
    if list(map(type, values)) != list(types.values()):
        field, kind, value = next((f, k, v) for (f, k), v in zip(types.items(), values) if type(v) is not k)
        raise FormatError(f"{what} needs {field!r} as {_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return values


def _integers(vec, n: int, what: str, *where) -> list:
    """`vec`, a list of n integers (no bools, floats or strings) read from
    a file.  FormatError names `what.format(*where)` otherwise; the name
    is built only then, as a table or a module file holds many lists."""
    if type(vec) is list and len(vec) == n and _INT.issuperset(map(type, vec)):
        return vec
    what = what.format(*where)
    if type(vec) is not list:
        raise FormatError(f"{what} needs a list of coefficients, got {vec!r}")
    if len(vec) != n:
        raise FormatError(f"{what}: expected width {n}, got {len(vec)}")
    bad = next(x for x in vec if type(x) is not int)
    raise FormatError(f"{what} has a non-integer entry {bad!r}")


def ring_from_dict(data: dict) -> CategoryRing:
    _expect(data, "ring")
    if data.get("ring_hash") != content_hash(data):
        raise FormatError("ring_hash does not match the file content")
    if type(data.get("presentation")) is not dict:
        raise FormatError("ring file needs 'presentation' as an object")
    pres = presentation_from_dict(data["presentation"])
    if data.get("generator_order") != [g.name() for g in pres.generators]:
        raise FormatError("generator_order does not list the names of the presentation's generators")
    basis = {}
    torsion = {}
    for n, comp in enumerate(_records(data, "components")):
        source, target, words, mods = _fields(comp, f"component record {n}", "source", "target", "basis", "torsion")
        pair = (source, target)
        if pair in basis:
            raise FormatError(f"repeated component record for {pair}")
        if type(words) is not list or not all(type(w) is list for w in words):
            raise FormatError(f"component {pair} needs its basis as a list of words, each a list")
        if type(mods) is not list or len(mods) != len(words) or not _MODULUS.issuperset(map(type, mods)):
            raise FormatError(f"component {pair} needs a torsion list of one integer or null modulus per basis word")
        bad = next((m for m in mods if m is not None and m < 2), None)
        if bad is not None:
            # `ring_to_dict` writes a free slot as null and the completion a
            # modulus as |pivot| >= 2, so one ring has one file
            why = "a free slot is null" if bad == 0 else "a modulus is at least 2"
            raise FormatError(f"component {pair} has torsion modulus {bad}; {why}")
        basis[pair] = [tuple(w) for w in words]
        torsion[pair] = list(mods)
    if basis.keys() != {(x, y) for x in pres.objects for y in pres.objects}:
        raise FormatError("components do not cover the object pairs")
    for x in pres.objects:
        if () not in basis[(x, x)]:
            raise FormatError(f"component ({x}, {x}) needs the empty word [] in its basis")
    # every basis word is a path of arrows through its component
    arrow_ends = pres.arrow_ends
    for (x, y), words in basis.items():
        for w in words:
            cur = x
            for gi in w:
                ends = arrow_ends[gi] if type(gi) is int and 0 <= gi < len(arrow_ends) else None
                if ends is None or ends[0] != cur:
                    raise FormatError(
                        f"basis word {list(w)} of component ({x},{y}) is not a path of arrows from {x}"
                    )
                cur = ends[1]
            if cur != y:
                raise FormatError(f"basis word {list(w)} of component ({x},{y}) does not end at {y}")

    _, flat, _, offset = _flat_layout(pres.objects, basis)
    size, width = len(flat), {pair: len(words) for pair, words in basis.items()}
    table = {}
    for entry in _records(data, "table"):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise FormatError("table entry must be [u, v, vector]")
        u, v, vec = entry
        if not (type(u) is int and type(v) is int):
            raise FormatError(f"table entry [{u!r}, {v!r}, ...] needs integer indices")
        if not (0 <= u < size and 0 <= v < size):
            raise FormatError("table index out of range")
        (x, y, _), (y_v, z, _) = flat[u], flat[v]
        if y != y_v:
            raise FormatError("table has an entry for basis elements that do not compose")
        # the test alone first, as in `_integer_rows`, without a call per entry
        if not (type(vec) is list and len(vec) == width[(x, z)] and _INT.issuperset(map(type, vec))):
            _integers(vec, width[(x, z)], "table entry ({},{})", u, v)
        if (u, v) in table:
            raise FormatError(f"repeated table entry ({u},{v})")
        table[(u, v)] = tuple([(t, c) for t, c in enumerate(vec) if c])
    # every composable pair without an entry is a zero product
    for u, (_, y, _) in enumerate(flat):
        for z in pres.objects:
            for v in range(offset[(y, z)], offset[(y, z)] + width[(y, z)]):
                table.setdefault((u, v), ())

    arrow_forms = {}
    for n, rec in enumerate(_records(data, "arrow_forms")):
        gi, coeffs = _fields(rec, f"arrow form record {n}", "generator", "coefficients")
        if type(gi) is not int:
            raise FormatError(f"arrow normal form needs an integer generator, got {gi!r}")
        if not 0 <= gi < len(pres.generators) or gi in arrow_forms:
            raise FormatError(f"arrow normal form for an unknown or repeated generator {gi}")
        g = pres.generators[gi]
        coeffs = _integers(coeffs, len(basis[(g.source, g.target)]), "arrow normal form of generator {}", gi)
        arrow_forms[gi] = {t: c for t, c in enumerate(coeffs) if c}
    if sorted(arrow_forms) != sorted(pres.arrows):
        raise FormatError("arrow normal forms do not cover the arrows")
    # the completion bounds, at least 1 as on the command line
    for field in ("max_len", "window"):
        if type(data.get(field)) is not int or data[field] < 1:
            raise FormatError(f"{field} must be an integer of at least 1, got {data.get(field)!r}")
    stabilized_at = data.get("stabilized_at")
    if type(stabilized_at) is not int or not 1 <= stabilized_at <= data["max_len"]:
        raise FormatError(f"stabilized_at must be an integer from 1 to max_len, got {stabilized_at!r}")

    return CategoryRing(
        pres,
        basis,
        torsion,
        table,
        arrow_forms,
        stabilized_at,
        data["max_len"],
        data["window"],
    )


# -- modules -----------------------------------------------------------


def module_to_dict(module: GradedModule, ring_hash: str) -> dict:
    """The module file of `module`; raises the ValueError of
    `modules._check_rows`, naming the slot or the (basis, degree) pair
    whose rows do not fit its generators."""
    values = []
    for slot in module.slots:
        rows, n = module.rels[slot], module.ngens(slot)
        _check_rows(rows, None, n, "relations at slot", slot)
        values.append(
            {
                "object": slot[0],
                "degree": slot[1],
                "generators": list(module.gens[slot]),
                "relations": [_dense(row.items(), n) for row in rows],
            }
        )
    actions = []
    for fb, (x, y, _) in enumerate(module.ring.flat):
        for deg in (0, 1):
            rows, n = module.act[(fb, deg)], module.ngens((x, deg))
            _check_rows(rows, module.ngens((y, deg)), n, "action matrix of (basis, degree)", (fb, deg))
            actions.append({"basis": fb, "degree": deg, "matrix": [_dense(row.items(), n) for row in rows]})
    return {
        "format_version": FORMAT_VERSION,
        "kind": "module",
        "ring_hash": ring_hash,
        "values": values,
        "actions": actions,
    }


def _integer_rows(rows, nrows, ncols: int, what: str, where) -> list:
    """The rows of a module file, each a list of ncols integers
    (`_integers`), as sparse rows {column: value} without zeros; when
    `nrows` is not None there must be nrows of them.  FormatError names
    `what.format(where)`."""
    out = []
    for row in rows:
        # the test alone first, as in `_integers`, without a call per row
        if not (type(row) is list and len(row) == ncols and _INT.issuperset(map(type, row))):
            _integers(row, ncols, what, where)
        out.append({j: c for j, c in enumerate(row) if c})
    if nrows is not None and len(out) != nrows:
        raise FormatError(f"{what.format(where)}: expected {nrows} rows, got {len(out)}")
    return out


def module_from_dict(ring: CategoryRing, data: dict, ring_hash: str) -> GradedModule:
    """The module a module file holds, its rows made sparse here; raises
    FormatError naming the record and the field on a malformed file, or
    the slot or (basis, degree) pair whose record it leaves out, and
    ValueError (from `GradedModule.validate`) on content that is not a
    module."""
    _expect(data, "module")
    if data.get("ring_hash") != ring_hash:
        raise FormatError(
            "module file references a different ring "
            f"({data.get('ring_hash')!r} != {ring_hash!r})"
        )
    # every slot and every (basis, degree) pair has its record, as
    # `module_to_dict` writes it, so one module has one file
    slots = {(x, e) for x in ring.objects for e in (0, 1)}
    keys = {(fb, e) for fb in range(len(ring.flat)) for e in (0, 1)}
    gens, rels, matrices, act = {}, {}, {}, {}
    # each record is tested alone first: that is far cheaper than naming it
    for n, rec in enumerate(_records(data, "values")):
        if not (type(rec) is dict and type(rec.get("object")) is int and type(rec.get("degree")) is int
                and type(rec.get("generators")) is list and type(rec.get("relations")) is list):
            _typed(rec, f"value record {n}", object=int, degree=int, generators=list, relations=list)
        slot, names = (rec["object"], rec["degree"]), rec["generators"]
        if slot not in slots or slot in gens:
            raise FormatError(f"value record for an unknown or repeated slot {slot}")
        if any(type(g) is not str for g in names):
            raise FormatError(f"generators at slot {slot} must be a list of strings")
        gens[slot] = tuple(names)
        rels[slot] = _integer_rows(rec["relations"], None, len(names), "relations at slot {}", slot)
    if len(gens) != len(slots):
        slot = next((x, e) for x in ring.objects for e in (0, 1) if (x, e) not in gens)
        raise FormatError(f"module file has no value record for slot {slot}")
    for n, rec in enumerate(_records(data, "actions")):
        if not (type(rec) is dict and type(rec.get("basis")) is int and type(rec.get("degree")) is int
                and type(rec.get("matrix")) is list):
            _typed(rec, f"action record {n}", basis=int, degree=int, matrix=list)
        key = (rec["basis"], rec["degree"])
        if key not in keys or key in matrices:
            raise FormatError(f"action record for an unknown or repeated (basis, degree) {key}")
        matrices[key] = rec["matrix"]
    if len(matrices) != len(keys):
        key = min(keys - matrices.keys())
        raise FormatError(f"module file has no action record for (basis, degree) {key}")
    for fb, (x, y, _) in enumerate(ring.flat):
        for e in (0, 1):
            act[(fb, e)] = _integer_rows(
                matrices[(fb, e)],
                len(gens[(y, e)]),
                len(gens[(x, e)]),
                "action matrix of (basis, degree) {}",
                (fb, e),
            )
    module = GradedModule(ring, gens, rels, act)
    module.validate()
    return module
