"""The benchmark's tracer must still find every name it wraps.

perfbench/tracing.py rebinds the `intlin` functions inside `catring.modules`
and the public functions inside `catring.completion` and `catring.cli`.  A
refactor that drops one of those bindings, or stops calling through it,
breaks the traced benchmark run, or leaves a serve layer's metrics reading
zero; these tests catch that in the ordinary suite.
"""

import importlib.util
import pathlib
import sys

from catring import cli, modules, verify_ring, yoneda_cyclic_quotient
from catring.serialize import module_to_dict, ring_to_dict, save_json

from corpus import bumped_table_entry, with_torsion

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(stem):
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench("tracing")


def test_tracer_counts_modules_and_cli_calls(ring2, tmp_path, capsys):
    tracing = load_tracing()
    data = ring_to_dict(ring2)
    save_json(tmp_path / "ring2.json", data)
    m = yoneda_cyclic_quotient(ring2, 2, 0, 1, 0)
    save_json(tmp_path / "m.json", module_to_dict(m, data["ring_hash"]))

    tracer = tracing.Tracer()
    tracer.install()
    try:
        modules.hom_module(m, m)
        assert not modules.is_projective(m)
        # no query builds a kernel module; the binding is checked here
        modules.kernel_of(modules.free_cover(m))
        code = cli.main(
            ["pd", "--ring", str(tmp_path / "ring2.json"), "-M", str(tmp_path / "m.json"), "--cap", "1"]
        )
    finally:
        tracer.uninstall()
    tracing.assert_clean()
    assert code == 0
    capsys.readouterr()

    _, calls = tracer.self_times()
    for name in (
        "modules.hom_module",
        "modules.is_projective",
        "modules.free_cover",
        "modules.kernel_of",
        "modules.projective_dimension",
        "modules.GradedModule.validate",
        "intlin.solve_left",
        "intlin.left_kernel",
        "intlin.hnf",
        "intlin.group_invariants",
        "intlin.mat_mul",
        "serialize.load_json",
        "serialize.ring_from_dict",
        "serialize.module_from_dict",
        "cli.main",
    ):
        assert calls.get(name, 0) > 0, name
    for name in ("intlin.cells", "intlin.Lattice.add"):
        assert tracer.counts.get(name, 0) > 0, name


def test_tracer_counts_ring_verify(ring4, tmp_path, capsys):
    # `ring verify` runs the certificate and never the probe, on a table
    # that passes it and on a bumped table entry that fails it
    tracing = load_tracing()
    units = {ring4.offset[(x, x)] + ring4.unit_pos[x] for x in ring4.objects}
    key = next(k for k, v in sorted(ring4.table.items()) if units.isdisjoint(k) and any(v))
    bumped = bumped_table_entry(ring4, key)
    assert not verify_ring(bumped).ok
    for name, ring, expected in (("ring4", ring4, 0), ("bumped", bumped, 1)):
        save_json(tmp_path / f"{name}.json", ring_to_dict(ring))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            code = cli.main(["ring", "verify", str(tmp_path / f"{name}.json")])
        finally:
            tracer.uninstall()
        tracing.assert_clean()
        assert code == expected, name
        capsys.readouterr()

        _, calls = tracer.self_times()
        for span in ("completion.verify_ring", "completion.normal_form", "cli.main"):
            assert calls.get(span, 0) > 0, (name, span)
        # the certificate and the probe multiply rows: `ring verify`
        # composes no elements
        assert tracer.counts["completion.compose"] == 0, name
        assert calls.get("completion.random_associativity_probe", 0) == 0, name

    # the counter itself still sees every composition
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ring4.unit(1).then(ring4.unit(1))
    finally:
        tracer.uninstall()
    tracing.assert_clean()
    assert tracer.counts["completion.compose"] == 1


def test_tracer_sees_chain_products_inside_free_cover(ring4):
    # a syzygy is the kernel rows of the previous level, and the cover of
    # the submodule they generate makes its products through the
    # `mat_mul` binding of `catring.modules`: the tracer sees every
    # product of a chain inside `free_cover`
    tracing = load_tracing()
    m = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        modules.projective_dimension(m, 3)
    finally:
        tracer.uninstall()
    tracing.assert_clean()

    _, calls = tracer.self_times()
    assert calls["intlin.mat_mul"] > 0
    names = [tracer.names[i] for i in tracer.name]
    parents = [names[p] for i, p in enumerate(tracer.parent) if names[i] == "intlin.mat_mul"]
    assert parents == ["modules.free_cover"] * calls["intlin.mat_mul"]


def test_tracer_table_nnz_counts_the_written_table_entries(ring1, ring2, ring3, ring4, ring6):
    # the build trace anchors `completion.table_nnz.k*` on this count: it
    # must equal the number of entries a ring file writes, so a change to
    # how a ring stores its table cannot move the anchor while the file
    # stays the same
    tracing = load_tracing()
    for ring in (ring1, ring2, ring3, ring4, ring6, with_torsion(ring4)):
        tracer = tracing.Tracer()
        tracer._complete_exit((), ring)
        nnz = tracer.ring_stats[ring.presentation.group_order][2]
        assert nnz == len(ring_to_dict(ring)["table"]) > 0
    # rows whose only entry sits at position 0 exist: `any` over a
    # {pos: c} dict row reads its positions and would count them as zero,
    # so this test also fails a switch to that row form
    assert any(len(row) == 1 and row[0][0] == 0 for row in ring6.table.values())


def test_benchmark_vanishing_check_runs_on_intlin(ring2, monkeypatch):
    # the query workload checks each resolution with `_vanishes`, which
    # builds `intlin.Lattice(ngens)`: a constructor change that breaks the
    # benchmark fails here.  workloads.py imports its sibling as `tracing`
    monkeypatch.setitem(sys.modules, "tracing", load_tracing())
    workloads = load_perfbench("workloads")
    m = yoneda_cyclic_quotient(ring2, 2, 0, 1, 0)
    res = modules.free_resolution(m, 1)
    assert workloads._vanishes(modules.compose_maps(res.differentials[0], res.augmentation))
    assert not workloads._vanishes(modules.identity_map(m))
