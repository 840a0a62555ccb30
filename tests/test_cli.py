import argparse
import gc
import json
import pathlib
import subprocess
import sys

import pytest

from catring import cli, complete, completion, trivial_group_module, yoneda, yoneda_cyclic_quotient
from catring.cli import build_parser, main
from catring.presentation import INDUCTION, MULTIPLICATION, Presentation, Relation
from catring.serialize import canonical_json, content_hash, load_json, module_to_dict, ring_from_dict, ring_to_dict, save_json

from conftest import src_env
from corpus import verify_cases, with_empty_side_relation


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert main(["ring", "build", "--order", "4", "-o", str(d / "ring4.json")]) == 0
    assert main(["ring", "build", "--order", "1", "-o", str(d / "ring1.json")]) == 0
    r4 = load_json(d / "ring4.json")
    ring4 = ring_from_dict(r4)
    r1 = load_json(d / "ring1.json")
    ring1 = ring_from_dict(r1)
    witness = yoneda_cyclic_quotient(ring4, 2, 0, 1, 0)
    save_json(d / "witness.json", module_to_dict(witness, r4["ring_hash"]))
    from catring import free_cover, kernel_of

    k1, _ = kernel_of(free_cover(witness))
    k2, _ = kernel_of(free_cover(k1))
    save_json(d / "syzygy2.json", module_to_dict(k2, r4["ring_hash"]))
    save_json(d / "yoneda.json", module_to_dict(yoneda(ring4, 2, 0), r4["ring_hash"]))
    save_json(d / "z6.json", module_to_dict(trivial_group_module(ring1, degree0=(6,)), r1["ring_hash"]))
    save_json(d / "z.json", module_to_dict(trivial_group_module(ring1, degree0=(0,)), r1["ring_hash"]))
    save_json(d / "z2.json", module_to_dict(trivial_group_module(ring1, degree0=(2,)), r1["ring_hash"]))
    return d


def test_ring_build_writes_rank_table(workdir, capsys):
    code, out, _ = run_cli(["ring", "info", str(workdir / "ring4.json")], capsys)
    assert code == 0
    assert "total rank 22" in out


def test_ring_build_not_stabilized_exit(tmp_path, capsys):
    code, out, err = run_cli(
        ["ring", "build", "--order", "4", "--max-len", "1", "-o", str(tmp_path / "r.json")], capsys
    )
    assert code == 1
    assert "not stabilized" in err


def test_ring_build_k1(tmp_path, capsys):
    code, out, _ = run_cli(["ring", "build", "--order", "1", "-o", str(tmp_path / "r1.json")], capsys)
    assert code == 0
    assert "1" in out


def test_ring_verify_ok(workdir, capsys):
    code, out, _ = run_cli(["ring", "verify", str(workdir / "ring4.json")], capsys)
    assert code == 0
    assert "verify: ok" in out
    assert "hand-transcribed" in out


def test_ring_verify_detects_corruption(workdir, tmp_path, capsys):
    data = load_json(workdir / "ring4.json")
    for entry in data["table"]:
        if any(entry[2]):
            entry[2][0] += 1
            break
    data["ring_hash"] = __import__("catring.serialize", fromlist=["content_hash"]).content_hash(data)
    save_json(tmp_path / "bad.json", data)
    code, out, _ = run_cli(["ring", "verify", str(tmp_path / "bad.json")], capsys)
    assert code == 1
    assert "FAILED" in out


def test_ring_verify_fails_an_empty_relation_side(ring2, tmp_path, capsys):
    save_json(tmp_path / "zero.json", with_empty_side_relation(ring2))
    code, out, _ = run_cli(["ring", "verify", str(tmp_path / "zero.json")], capsys)
    assert code == 1
    assert "relation zero_unit (1->1) does not hold in the table" in out


def test_ring_verify_work_counts(workdir, monkeypatch, capsys):
    # a work-count guard on one k=4 `ring verify` at the default seed, so
    # that a returning triple loop or a probe run on a certified ring shows
    # up as more work: the certificate makes one `normal_form` call per
    # basis word, 22, and no `compose` call, and the request steps letters
    # 557 times (522 in `verify_ring`).  The probe, run directly, steps each
    # distinct drawn (source, word) from its prefix, 1 049 times, and
    # calls neither.
    from catring import completion

    calls = []
    composes = [0]
    steps = [0]
    normal_form, compose = completion.normal_form, completion.CategoryRing.compose
    right_step = completion._right_step

    def counted_normal_form(ring, data, source=None, target=None):
        calls.append((source, data))
        return normal_form(ring, data, source, target)

    def counted_compose(self, x, y):
        composes[0] += 1
        return compose(self, x, y)

    def counted_right_step(ring, vec, source, arrow):
        steps[0] += 1
        return right_step(ring, vec, source, arrow)

    monkeypatch.setattr(completion, "normal_form", counted_normal_form)
    monkeypatch.setattr(completion.CategoryRing, "compose", counted_compose)
    monkeypatch.setattr(completion, "_right_step", counted_right_step)
    code, out, _ = run_cli(["ring", "verify", str(workdir / "ring4.json")], capsys)
    assert code == 0 and out.startswith("verify: ok")
    assert (len(calls), steps[0], composes[0]) == (22, 557, 0)

    calls.clear()
    steps[0] = 0
    ring = ring_from_dict(load_json(workdir / "ring4.json"))
    assert completion.random_associativity_probe(ring, count=1000, max_len=6, seed=0) == []
    assert (len(calls), steps[0], composes[0]) == (0, 1049, 0)


def always_probing(argv, capsys, monkeypatch):
    """`run_cli` with `ring verify` running the probe whatever the
    certificate found, as it did before the certificate proved its
    answer: the report it reads is never `ok`, but lists the same
    failures and warnings."""

    class Unproved(completion.VerificationReport):
        ok = False

    def verify_unproved(ring):
        report = completion.verify_ring(ring)
        return Unproved(report.failures, report.warnings)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "verify_ring", verify_unproved)
        return run_cli(argv, capsys)


def test_module_check_work_counts(ring6, tmp_path, monkeypatch, capsys):
    # a work-count guard on `module check` over the k=6 ring: `validate`
    # checks functoriality on letters one row at a time and multiplies no
    # matrix, so a representable module makes no `mat_mul` call and a
    # cyclic quotient makes one per (basis, degree) pair whose target slot
    # holds relations (the well-definedness check), 48 here.  Before the
    # letters loop was fused, the same requests made 206 and 254 calls.
    from catring import modules

    ring_data = ring_to_dict(ring6)
    save_json(tmp_path / "ring6.json", ring_data)
    counted = [0]
    mat_mul = modules.mat_mul

    def counted_mat_mul(A, B):
        counted[0] += 1
        return mat_mul(A, B)

    monkeypatch.setattr(modules, "mat_mul", counted_mat_mul)
    calls = {}
    for name, m in (("yoneda", yoneda(ring6, 6, 0)), ("quotient", yoneda_cyclic_quotient(ring6, 6, 0, 1, 0))):
        save_json(tmp_path / f"{name}.json", module_to_dict(m, ring_data["ring_hash"]))
        counted[0] = 0
        argv = ["module", "check", "--ring", str(tmp_path / "ring6.json"), str(tmp_path / f"{name}.json")]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out.startswith("module ok")
        calls[name] = counted[0]
    assert calls == {"yoneda": 0, "quotient": 48}


def test_ring_verify_prints_what_always_probing_prints(
    ring1, ring2, ring3, ring4, ring6, ring_c4_hand, tmp_path, capsys, monkeypatch
):
    # skipping a probe whose answer is proved changes no byte of stdout and
    # no exit code.  On a file the certificate rejects, `always_probing`
    # runs the same code as `run_cli`, so one such file stands for them:
    # there the seed still picks the failure lines.
    cases = verify_cases(ring1, ring2, ring3, ring4, ring_c4_hand) + [("valid k=6", ring6)]
    proved = [(label, ring) for label, ring in cases if completion.verify_ring(ring).ok]
    unproved = next((label, ring) for label, ring in cases if (label, ring) not in proved)
    assert [label for label, _ in proved] == [label for label, _ in cases if label.startswith("valid")]
    for n, (label, ring) in enumerate([*proved, unproved]):
        path = tmp_path / f"ring{n}.json"
        save_json(path, ring_to_dict(ring))
        outputs = []
        for seed in ("0", "7"):
            for json_flag in ([], ["--json"]):
                argv = ["ring", "verify", str(path), "--seed", seed, *json_flag]
                outputs.append(run_cli(argv, capsys))
                assert outputs[-1] == always_probing(argv, capsys, monkeypatch), (label, argv)
        assert (outputs[0] == outputs[2]) is (label != unproved[0]), label


def test_ring_verify_rejects_basis_words_out_of_normal_form(workdir, tmp_path, capsys):
    # swapping two basis words of one component relabels the basis: the
    # table stays consistent, but the words no longer name their elements
    data = load_json(workdir / "ring4.json")
    comp = _component(data, 1, 1)
    assert comp["basis"][2:] == [[3, 3], [3, 3, 3]]
    comp["basis"][2:] = [[3, 3, 3], [3, 3]]
    data["ring_hash"] = content_hash(data)
    save_json(tmp_path / "swapped.json", data)
    code, out, _ = run_cli(["ring", "verify", str(tmp_path / "swapped.json")], capsys)
    assert code == 1
    assert out.splitlines()[:3] == [
        "verify: FAILED",
        "  failure: basis 2 of (1,1) is not the normal form of its word [3, 3, 3]",
        "  failure: basis 3 of (1,1) is not the normal form of its word [3, 3]",
    ]


def test_ring_verify_rejects_a_quotient_of_the_presented_ring(ring2, tmp_path, capsys):
    # completing the k=2 presentation plus m[2] = 1 gives a rank-5 table;
    # filed under the k=2 presentation, whose ring has rank 6, it
    # satisfies every relation and is associative, but the relations do
    # not derive what it does with m[2], so the certificate's last check
    # rejects it (the relation, unit, triple and torsion checks passed it)
    p = ring2.presentation
    m = p.gen(MULTIPLICATION, 2)
    assert (m, p.gen(INDUCTION, 2, 1)) == (3, 5)
    one = Relation("m_is_one", 2, 2, (((1, (m,)),), ((1, ()),)))
    data = ring_to_dict(complete(Presentation(2, p.generators, p.relations + (one,), p.family_counts)))
    assert data["presentation"] != ring_to_dict(ring2)["presentation"]
    data["presentation"] = ring_to_dict(ring2)["presentation"]
    data["ring_hash"] = content_hash(data)
    save_json(tmp_path / "quotient.json", data)
    assert ring_from_dict(data).total_rank() == 5 < ring2.total_rank()
    code, out, _ = run_cli(["ring", "verify", str(tmp_path / "quotient.json")], capsys)
    assert code == 1
    assert out == (
        "verify: FAILED\n"
        "  failure: basis 0 of (2,1) acted on by letter 5 is not its word times 5 in the presented ring\n"
        "  failure: basis 0 of (2,2) acted on by letter 3 is not its word times 3 in the presented ring\n"
    )


def test_ring_verify_k2_skips_oracle(tmp_path, capsys):
    assert main(["ring", "build", "--order", "2", "-o", str(tmp_path / "r2.json")]) == 0
    code, out, _ = run_cli(["ring", "verify", str(tmp_path / "r2.json")], capsys)
    assert code == 0
    assert "hand-transcribed" not in out


def test_ring_verify_reports_unstabilized_oracle(workdir, capsys):
    # below bound 4 the oracle's relations are not certified, and its
    # completion cannot stabilize: a named failure, not a traceback
    code, out, err = run_cli(["ring", "verify", str(workdir / "ring4.json"), "--max-len", "3"], capsys)
    assert code == 1
    assert out.splitlines()[:2] == [
        "verify: FAILED",
        "  failure: hand-transcribed oracle comparison failed: "
        "no stabilization for k=4 within max_len=3; rank trajectory [11, 20, 22]",
    ]
    assert "hand-transcribed order-4 presentation" not in out
    assert err == ""


def test_ring_verify_oracle_needs_no_stabilization_window(workdir, capsys):
    # the certificate settles the comparison without completing the oracle
    code, out, _ = run_cli(["ring", "verify", str(workdir / "ring4.json"), "--window", "9"], capsys)
    assert code == 0
    assert out == "verify: ok\n  checked against the hand-transcribed order-4 presentation\n"


def test_group_commands(capsys):
    code, out, _ = run_cli(
        ["group", "cosets", "--order", "4", "--left", "2", "--middle", "4", "--right", "2"], capsys
    )
    assert code == 0 and out.strip() == "e, a"
    code, out, _ = run_cli(
        ["group", "cosets", "--order", "4", "--left", "1", "--middle", "2", "--right", "1"], capsys
    )
    assert code == 0 and out.strip() == "e, a^2"
    code, out, _ = run_cli(
        ["group", "induce", "--order", "4", "--from", "2", "--to", "4", "--char", "1,0"], capsys
    )
    assert code == 0 and out.strip() == "1 + chi^2"
    code, out, _ = run_cli(
        ["group", "restrict", "--order", "4", "--from", "4", "--to", "2", "--char", "0,1,0,0", "--json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {"coefficients": [0, 1], "subgroup": 2}


def test_group_usage_errors(capsys):
    code, _, err = run_cli(
        ["group", "cosets", "--order", "4", "--left", "4", "--middle", "2", "--right", "1"], capsys
    )
    assert code == 2
    code, _, err = run_cli(
        ["group", "induce", "--order", "4", "--from", "2", "--to", "4", "--char", "1"], capsys
    )
    assert code == 2


def test_module_check(workdir, capsys):
    code, out, _ = run_cli(
        ["module", "check", "--ring", str(workdir / "ring4.json"), str(workdir / "witness.json")],
        capsys,
    )
    assert code == 0 and "module ok" in out


def test_hash_mismatch_is_rejected(workdir, capsys):
    code, _, err = run_cli(
        [
            "ext",
            "--ring", str(workdir / "ring4.json"),
            "-M", str(workdir / "z6.json"),
            "-N", str(workdir / "z.json"),
            "--degree", "1",
        ],
        capsys,
    )
    assert code == 2
    assert "different ring" in err


def test_ext_classical(workdir, capsys):
    code, out, _ = run_cli(
        [
            "ext",
            "--ring", str(workdir / "ring1.json"),
            "-M", str(workdir / "z6.json"),
            "-N", str(workdir / "z.json"),
            "--degree", "1",
        ],
        capsys,
    )
    assert code == 0
    assert "degree 0: Z/6" in out


def test_ext_on_yoneda_vanishes(workdir, capsys):
    code, out, _ = run_cli(
        [
            "ext", "--json",
            "--ring", str(workdir / "ring4.json"),
            "-M", str(workdir / "yoneda.json"),
            "-N", str(workdir / "witness.json"),
            "--degree", "2",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ext"] == {
        "0": {"free_rank": 0, "torsion": []},
        "1": {"free_rank": 0, "torsion": []},
    }


def test_ext_nonzero_for_witness(workdir, capsys):
    # degree-2 Ext of the witness against its own second syzygy is nonzero
    code, out, _ = run_cli(
        [
            "ext",
            "--ring", str(workdir / "ring4.json"),
            "-M", str(workdir / "witness.json"),
            "-N", str(workdir / "syzygy2.json"),
            "--degree", "2",
        ],
        capsys,
    )
    assert code == 0
    assert "Z/2" in out
    code, out, _ = run_cli(
        ["pd", "--ring", str(workdir / "ring4.json"), "-M", str(workdir / "witness.json"), "--cap", "3"],
        capsys,
    )
    assert code == 0
    assert out.strip().endswith("AboveCap")


def test_uct_classical(workdir, capsys):
    code, out, _ = run_cli(
        [
            "uct",
            "--ring", str(workdir / "ring1.json"),
            "-M", str(workdir / "z2.json"),
            "-N", str(workdir / "z2.json"),
        ],
        capsys,
    )
    assert code == 0
    assert "pd_check: True" in out
    assert "degree 0: Z/2" in out


def test_pd_yoneda(workdir, capsys):
    code, out, _ = run_cli(
        ["pd", "--ring", str(workdir / "ring4.json"), "-M", str(workdir / "yoneda.json"), "--cap", "2"],
        capsys,
    )
    assert code == 0
    assert out.strip().endswith("0")


def test_resolve_prints_steps(workdir, capsys):
    code, out, _ = run_cli(
        [
            "resolve",
            "--ring", str(workdir / "ring4.json"),
            "-M", str(workdir / "witness.json"),
            "--length", "2",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("F_0:")
    assert len(lines) == 3


def test_outputs_byte_stable(workdir, tmp_path, capsys):
    # identical invocations produce byte-identical files and stdout
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    code, out1, _ = run_cli(["ring", "build", "--order", "2", "-o", str(p1)], capsys)
    assert code == 0
    code, out2, _ = run_cli(["ring", "build", "--order", "2", "-o", str(p2)], capsys)
    assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert out1.replace(str(p1), "X") == out2.replace(str(p2), "X")
    for args in (
        ["ring", "info", str(workdir / "ring4.json"), "--json"],
        ["ext", "--ring", str(workdir / "ring1.json"), "-M", str(workdir / "z6.json"), "-N", str(workdir / "z.json"), "--degree", "1", "--json"],
        ["group", "cosets", "--order", "12", "--left", "2", "--middle", "6", "--right", "3", "--json"],
    ):
        _, a, _ = run_cli(args, capsys)
        _, b, _ = run_cli(args, capsys)
        assert a == b


def test_console_entry_point(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "catring.cli", "group", "cosets", "--order", "4",
         "--left", "2", "--middle", "4", "--right", "2"],
        env=src_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "e, a"


def test_invalid_module_content_exits_1(workdir, tmp_path, capsys):
    # corrupt the action of the unit of object 2, where the witness is nonzero
    ring = ring_from_dict(load_json(workdir / "ring4.json"))
    unit = ring.offset[(2, 2)] + ring.unit_pos[2]
    data = load_json(workdir / "witness.json")
    rec = next(r for r in data["actions"] if r["basis"] == unit and r["degree"] == 0)
    rec["matrix"][0][0] += 1
    bad = tmp_path / "bad_witness.json"
    save_json(bad, data)
    code, _, err = run_cli(["module", "check", "--ring", str(workdir / "ring4.json"), str(bad)], capsys)
    assert code == 1
    assert err == f"error: {bad}: action of basis {unit} not well-defined at degree 0\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["pd", "-M", "witness.json", "--cap", "0"], "--cap"),
        (["resolve", "-M", "witness.json", "--length", "-1"], "--length"),
        (["ext", "-M", "witness.json", "-N", "yoneda.json", "--degree", "-1"], "--degree"),
        (["ring", "build", "--order", "2", "-o", "r2.json", "--window", "0"], "--window"),
        (["ring", "build", "--order", "2", "-o", "r2.json", "--max-len", "0"], "--max-len"),
        (["ring", "verify", "ring4.json", "--max-len", "0"], "--max-len"),
        (["group", "induce", "--order", "4", "--from", "3", "--to", "6", "--char", "1,0,0"], "--from"),
        (["group", "restrict", "--order", "4", "--from", "6", "--to", "3", "--char", "1,0,0,0,0,0"], "--from"),
        (["group", "induce", "--order", "4", "--from", "2", "--to", "8", "--char", "1,0"], "--to"),
        (["group", "restrict", "--order", "6", "--from", "6", "--to", "4", "--char", "1,0,0,0,0,0"], "--to"),
        (["group", "induce", "--order", "0", "--from", "1", "--to", "1", "--char", "1"], "--order"),
        (["pd", "-M", "witness.json", "--seed", "1"], "--seed"),
        # each printed a wrong answer with exit 0, or a ZeroDivisionError traceback
        (["group", "cosets", "--order", "0", "--left", "1", "--middle", "2", "--right", "1"], "--order"),
        (["group", "cosets", "--order", "-4", "--left", "2", "--middle", "4", "--right", "2"], "--order"),
        (["group", "cosets", "--order", "4", "--left", "-2", "--middle", "4", "--right", "2"], "--left"),
        (["group", "cosets", "--order", "4", "--left", "0", "--middle", "4", "--right", "2"], "--left"),
        (["group", "cosets", "--order", "4", "--left", "1", "--middle", "0", "--right", "1"], "--middle"),
        (["group", "cosets", "--order", "4", "--left", "1", "--middle", "3", "--right", "1"], "--middle"),
        (["group", "cosets", "--order", "4", "--left", "1", "--middle", "4", "--right", "8"], "--right"),
    ],
)
def test_out_of_range_flags_exit_2(workdir, tmp_path, capsys, argv, flag):
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    if argv[0] not in ("ring", "group"):
        argv[1:1] = ["--ring", str(workdir / "ring4.json")]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert flag in err


def _drop_values(data):
    del data["values"]


def _unknown_object(data):
    data["values"].append(dict(data["values"][0], object=3))


def _string_generator_list(data):
    # one character per generator, so the count still fits the matrices
    rec = next(v for v in data["values"] if v["generators"])
    rec["generators"] = "".join(g[0] for g in rec["generators"])


def _integer_generator_names(data):
    rec = next(v for v in data["values"] if v["generators"])
    rec["generators"] = list(range(len(rec["generators"])))


def _duplicate_slot(data):
    data["values"].append(dict(data["values"][0], generators=[], relations=[]))


def _action_out_of_range(data):
    data["actions"].append(dict(data["actions"][0], basis=len(data["actions"])))


def _string_action_entry(data):
    matrix = next(rec["matrix"] for rec in data["actions"] if rec["matrix"])
    matrix[0][0] = "x"


def _first_rows(data, field):
    records = data["values"] if field == "relations" else data["actions"]
    return next(rec[field] for rec in records if rec[field] and rec[field][0])


def _short_relation_row(data):
    _first_rows(data, "relations")[0].pop()


def _long_relation_row(data):
    _first_rows(data, "relations")[0].append(0)


def _short_action_row(data):
    _first_rows(data, "matrix")[0].pop()


def _long_action_row(data):
    _first_rows(data, "matrix")[0].append(0)


def _missing_action_row(data):
    _first_rows(data, "matrix").pop()


def _two_field_table_entry(data):
    data["table"][0] = data["table"][0][:2]


def _repeated_table_entry(data):
    data["table"].append(data["table"][0])


def _boolean_table_index(data):
    next(e for e in data["table"] if e[1] == 1)[1] = True


def _arrow_form_out_of_range(data):
    data["arrow_forms"][0]["generator"] = len(data["presentation"]["generators"])


def _relation_word_out_of_range(data):
    data["presentation"]["relations"][0]["sides"][0][0]["word"] = [99]


def _relation_source_out_of_range(data):
    data["presentation"]["relations"][0]["source"] = 99


def _string_table_entry(data):
    data["table"][0][2][0] = "x"


def _component(data, source, target):
    return next(c for c in data["components"] if [c["source"], c["target"]] == [source, target])


def _basis_word_ends_elsewhere(data):
    # arrows 3: 1 -> 1 and 9: 1 -> 2 make a path, but not one to 1
    _component(data, 1, 1)["basis"][-1] = [3, 9]


def _basis_word_not_a_path(data):
    # arrow 10 runs 2 -> 4, so it cannot start the component 1 -> 4
    _component(data, 1, 4)["basis"][0] = [10]


def _noncomposable_table_entry(data):
    # flat index 0 is the unit of object 1, and the last one starts at object 4
    last = sum(len(c["basis"]) for c in data["components"]) - 1
    data["table"].append([0, last, [1]])


def _short_arrow_form(data):
    data["arrow_forms"][0]["coefficients"].pop()


def _string_arrow_form_coefficient(data):
    data["arrow_forms"][0]["coefficients"][0] = "x"


def _short_torsion_list(data):
    comp = next(c for c in data["components"] if len(c["basis"]) > 1)
    comp["torsion"] = comp["torsion"][:1]


def _table_vector_not_a_list(data):
    data["table"][0][2] = 5


def _short_table_vector(data):
    data["table"][0][2].pop()


def _long_table_vector(data):
    data["table"][0][2].append(0)


def _empty_table_vector(data):
    data["table"][0][2] = []


def _components_not_a_list(data):
    data["components"] = 5


def _table_not_a_list(data):
    data["table"] = 5


def _arrow_forms_not_a_list(data):
    data["arrow_forms"] = {}


def _component_not_an_object(data):
    data["components"][0] = 5


def _arrow_form_not_an_object(data):
    data["arrow_forms"][0] = 5


def _string_component_source(data):
    data["components"][0]["source"] = "1"


def _record_without(field, key):
    """A corruption that removes `key` from the first record of `field`."""

    def corrupt(data):
        del data[field][0][key]

    corrupt.__name__ = f"_{field}_without_{key}"
    return corrupt


def _no_presentation(data):
    del data["presentation"]


def _presentation_not_an_object(data):
    data["presentation"] = []


def _arrow_coefficients_not_a_list(data):
    data["arrow_forms"][0]["coefficients"] = 5


def _string_arrow_generator(data):
    data["arrow_forms"][0]["generator"] = "1"


def _basis_word_not_a_list(data):
    next(c for c in data["components"] if c["basis"])["basis"][-1] = 3


def _torsion_not_a_list(data):
    data["components"][0]["torsion"] = 5


def _zero_torsion_modulus(data):
    data["components"][0]["torsion"][0] = 0


def _unit_torsion_modulus(data):
    data["components"][0]["torsion"][0] = 1


def _negative_torsion_modulus(data):
    data["components"][0]["torsion"][0] = -2


def _basis_word_out_of_range(data):
    comp = next(c for c in data["components"] if c["basis"])
    comp["basis"][-1] = [99]


def _zero_group_order(data):
    data["presentation"]["group_order"] = 0


def _duplicate_generator(data):
    generators = data["presentation"]["generators"]
    generators.append(generators[-1])


def _repeated_component(data):
    data["components"].append(data["components"][0])


def _repeated_arrow_form(data):
    data["arrow_forms"].append(data["arrow_forms"][0])


def _generator_off_the_objects(data):
    # generator 0 is the identity of object 1; 3 does not divide 4
    data["presentation"]["generators"][0]["H"] = 3


def _generator_field(kind, key, value):
    """A corruption that sets `key` on the first generator record of `kind`,
    a record that `generator_to_dict` does not write back unchanged."""

    def corrupt(data):
        rec = next(g for g in data["presentation"]["generators"] if g["kind"] == kind)
        rec[key] = value

    corrupt.__name__ = f"_{kind}_with_{key}_{value}"
    return corrupt


def _string_stabilized_at(data):
    data["stabilized_at"] = "x"


def _zero_stabilized_at(data):
    data["stabilized_at"] = 0


def _stabilized_past_max_len(data):
    data["stabilized_at"] = data["max_len"] + 1


def _string_max_len(data):
    data["max_len"] = "x"


def _zero_window(data):
    data["window"] = 0


def _boolean_window(data):
    data["window"] = True


def _not_an_object(data):
    # valid JSON, but not the object every file holds
    return b"[1]\n"


def _non_ascii_byte(data):
    # valid UTF-8 JSON with an unescaped e-acute, which an ASCII file cannot hold
    return b'{"note":"caf\xc3\xa9",' + canonical_json(data).encode("ascii")[1:] + b"\n"


def _diagonal_basis_without_unit(data):
    # the empty word of component (1, 1) replaced by another loop at 1, so
    # every length still fits
    words = _component(data, 1, 1)["basis"]
    words[words.index([])] = words[-1] * 2


def _reversed_generator_order(data):
    data["generator_order"].reverse()


def _no_generator_order(data):
    del data["generator_order"]


_MISSING = object()


def _module_record(field, n, key, value):
    """A corruption that sets `key` of record n of a module file's `field`
    to `value`, deletes it when `value` is _MISSING, or replaces the whole
    record by `value` when `key` is None.  The error must name the record
    and the field (`names`)."""
    record = {"values": "value record", "actions": "action record"}[field]

    def corrupt(data):
        if key is None:
            data[field][n] = value
        elif value is _MISSING:
            del data[field][n][key]
        else:
            data[field][n][key] = value

    change = "missing" if value is _MISSING else type(value).__name__ if key is None else value
    corrupt.__name__ = f"_{field}_{n}_{key or 'record'}_{change}"
    corrupt.names = (f"{record} {n} ",) if key is None else (f"{record} {n} ", repr(key))
    return corrupt


def _values_not_a_list(data):
    data["values"] = {}


_values_not_a_list.names = ("module file needs 'values' as a list, got dict",)


def _no_empty_value_record(data):
    # slot (1, 1) of the representable of (2, 0) has no generators
    del data["values"][1]


_no_empty_value_record.names = ("module file has no value record for slot (1, 1)",)


def _no_empty_action_record(data):
    # basis 0 at degree 1 acts between empty slots: its matrix has no rows
    del data["actions"][1]


_no_empty_action_record.names = ("module file has no action record for (basis, degree) (0, 1)",)


@pytest.mark.parametrize(
    "base, corrupt",
    [
        ("yoneda.json", _not_an_object),
        ("yoneda.json", _non_ascii_byte),
        ("ring4.json", _not_an_object),
        ("ring4.json", _non_ascii_byte),
        ("ring4.json", _diagonal_basis_without_unit),
        ("ring4.json", _reversed_generator_order),
        ("ring4.json", _no_generator_order),
        ("yoneda.json", _drop_values),
        *(
            ("yoneda.json", _module_record(field, n, key, value))
            for field, n, key in (("values", 0, "object"), ("values", 0, "degree"), ("actions", 2, "basis"))
            for value in (True, 1.0)
        ),
        ("yoneda.json", _module_record("actions", 2, "matrix", 5)),
        ("yoneda.json", _module_record("values", 0, "relations", 5)),
        ("yoneda.json", _module_record("values", 0, "relations", _MISSING)),
        ("yoneda.json", _module_record("values", 1, None, [])),
        ("yoneda.json", _module_record("actions", 2, None, [])),
        ("yoneda.json", _values_not_a_list),
        ("yoneda.json", _no_empty_value_record),
        ("yoneda.json", _no_empty_action_record),
        ("yoneda.json", _unknown_object),
        ("yoneda.json", _duplicate_slot),
        ("yoneda.json", _string_generator_list),
        ("yoneda.json", _integer_generator_names),
        ("yoneda.json", _action_out_of_range),
        ("yoneda.json", _string_action_entry),
        ("witness.json", _short_relation_row),
        ("witness.json", _long_relation_row),
        ("yoneda.json", _short_action_row),
        ("yoneda.json", _long_action_row),
        ("yoneda.json", _missing_action_row),
        ("ring4.json", _two_field_table_entry),
        ("ring4.json", _repeated_table_entry),
        ("ring4.json", _boolean_table_index),
        ("ring4.json", _arrow_form_out_of_range),
        ("ring4.json", _relation_word_out_of_range),
        ("ring4.json", _relation_source_out_of_range),
        ("ring4.json", _string_table_entry),
        ("ring4.json", _basis_word_out_of_range),
        ("ring4.json", _short_torsion_list),
        ("ring4.json", _zero_torsion_modulus),
        ("ring4.json", _unit_torsion_modulus),
        ("ring4.json", _negative_torsion_modulus),
        ("ring4.json", _table_vector_not_a_list),
        ("ring4.json", _short_table_vector),
        ("ring4.json", _long_table_vector),
        ("ring4.json", _empty_table_vector),
        ("ring4.json", _components_not_a_list),
        ("ring4.json", _table_not_a_list),
        ("ring4.json", _arrow_forms_not_a_list),
        ("ring4.json", _component_not_an_object),
        ("ring4.json", _arrow_form_not_an_object),
        ("ring4.json", _string_component_source),
        ("ring4.json", _record_without("components", "source")),
        ("ring4.json", _record_without("components", "target")),
        ("ring4.json", _record_without("components", "basis")),
        ("ring4.json", _record_without("components", "torsion")),
        ("ring4.json", _record_without("arrow_forms", "generator")),
        ("ring4.json", _record_without("arrow_forms", "coefficients")),
        ("ring4.json", _no_presentation),
        ("ring4.json", _presentation_not_an_object),
        ("ring4.json", _arrow_coefficients_not_a_list),
        ("ring4.json", _string_arrow_generator),
        ("ring4.json", _basis_word_not_a_list),
        ("ring4.json", _torsion_not_a_list),
        ("ring4.json", _noncomposable_table_entry),
        ("ring4.json", _short_arrow_form),
        ("ring4.json", _string_arrow_form_coefficient),
        ("ring4.json", _basis_word_ends_elsewhere),
        ("ring4.json", _basis_word_not_a_path),
        ("ring4.json", _zero_group_order),
        ("ring4.json", _duplicate_generator),
        ("ring4.json", _repeated_component),
        ("ring4.json", _repeated_arrow_form),
        ("ring4.json", _generator_off_the_objects),
        ("ring4.json", _generator_field("identity", "L", 2)),
        ("ring4.json", _generator_field("conjugation", "L", 1)),
        ("ring4.json", _generator_field("multiplication", "L", 2)),
        ("ring4.json", _generator_field("conjugation", "g", 3)),
        ("ring4.json", _generator_field("multiplication", "chi", 2)),
        ("ring4.json", _generator_field("restriction", "chi", 1)),
        ("ring4.json", _generator_field("identity", "note", 0)),
        ("ring4.json", _string_stabilized_at),
        ("ring4.json", _zero_stabilized_at),
        ("ring4.json", _stabilized_past_max_len),
        ("ring4.json", _string_max_len),
        ("ring4.json", _zero_window),
        ("ring4.json", _boolean_window),
    ],
)
def test_malformed_files_exit_2(workdir, tmp_path, capsys, base, corrupt):
    # a corruption edits the file's data in place, or returns the bytes
    # the file holds instead
    data = load_json(workdir / base)
    raw = corrupt(data)
    bad = tmp_path / f"bad_{base}"
    if base == "ring4.json":
        data["ring_hash"] = content_hash(data)
        argv = ["ring", "info", str(bad)]
    else:
        argv = ["module", "check", "--ring", str(workdir / "ring4.json"), str(bad)]
    if raw is None:
        save_json(bad, data)
    else:
        bad.write_bytes(raw)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert str(bad) in err
    assert "module ok" not in out
    # a named reason, not the text of a TypeError or a KeyError
    assert "not iterable" not in err and "not supported" not in err and "object is not" not in err
    assert "Traceback" not in err
    # a module record of the wrong shape names the record and the field
    assert all(name in err for name in getattr(corrupt, "names", ()))


@pytest.mark.parametrize(
    "argv",
    [
        ["module", "check", "bad.json"],
        ["ext", "-M", "bad.json", "-N", "yoneda.json", "--degree", "0"],
        ["uct", "-M", "yoneda.json", "-N", "bad.json"],
        ["pd", "-M", "bad.json"],
        ["resolve", "-M", "bad.json", "--length", "1"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("content", [b"[1]\n", b'{"note":"caf\xc3\xa9"}\n'], ids=["not-an-object", "non-ascii"])
def test_every_module_reader_exits_2_on_an_unreadable_file(workdir, tmp_path, capsys, argv, content):
    # each used to escape `Workspace.load_module` as a FormatError or a
    # UnicodeDecodeError traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = [str(bad) if a == "bad.json" else str(workdir / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(argv + ["--ring", str(workdir / "ring4.json")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot load module file {bad}: ")


def _generator_of(kind):
    return lambda pres: next(g for g in pres["generators"] if g["kind"] == kind)


def _first_relation(pres):
    return pres["relations"][0]


# each level of a presentation record: where it sits in the record, and a
# value of the wrong type for each of its fields
PRESENTATION_LEVELS = [
    (
        "presentation",
        lambda pres: pres,
        {"format_version": "1", "kind": 5, "group_order": "4", "objects": 5, "generators": 5, "relations": 5,
         "family_counts": 5},
    ),
    ("identity", _generator_of("identity"), {"kind": 5, "H": "1"}),
    ("conjugation", _generator_of("conjugation"), {"kind": 5, "H": "1", "g": "1"}),
    ("multiplication", _generator_of("multiplication"), {"kind": 5, "H": "2", "chi": "1"}),
    ("restriction", _generator_of("restriction"), {"kind": 5, "H": "2", "L": "1"}),
    ("induction", _generator_of("induction"), {"kind": 5, "H": "2", "L": "1"}),
    ("relation", _first_relation, {"tag": 5, "source": "1", "target": "1", "sides": 5}),
    ("term", lambda pres: _first_relation(pres)["sides"][0][0], {"coefficient": "1", "word": 5}),
]
_DELETE = object()
PRESENTATION_SWEEP = [
    (f"{level}-{'deleted' if value is _DELETE else 'wrong-type'}-{field}", level, locate, field, value)
    for level, locate, wrong in PRESENTATION_LEVELS
    for field, wrong_value in wrong.items()
    for value in (_DELETE, wrong_value)
]


def _set_record(path, value):
    # the record at `path` inside the presentation replaced by `value`
    def change(pres):
        *parents, last = path
        for key in parents:
            pres = pres[key]
        pres[last] = value

    return change


@pytest.mark.parametrize(
    "level, locate, field, value",
    [case[1:] for case in PRESENTATION_SWEEP],
    ids=[case[0] for case in PRESENTATION_SWEEP],
)
def test_malformed_presentation_fields_are_named(workdir, tmp_path, capsys, level, locate, field, value):
    # a field deleted or of the wrong type at every level of the ring
    # file's presentation exits 2 naming the field; several used to print
    # only the text of a KeyError or TypeError ("'relations'", "'int'
    # object is not iterable", "'<' not supported ...")
    data = load_json(workdir / "ring4.json")
    rec = locate(data["presentation"])
    if value is _DELETE:
        del rec[field]
    else:
        rec[field] = value
    data["ring_hash"] = content_hash(data)
    bad = tmp_path / "bad_ring4.json"
    save_json(bad, data)
    code, out, err = run_cli(["ring", "info", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot load ring file {bad}: ")
    reason = err[len(f"error: cannot load ring file {bad}: "):]
    # the field is named in a sentence, not printed alone as a KeyError is;
    # the header check names the presentation's own two without quotes
    header = level == "presentation" and field in ("format_version", "kind")
    assert (field if header else repr(field)) in reason
    assert reason.strip() != repr(field)
    for text in ("not iterable", "not subscriptable", "not supported", "object is not", "unhashable"):
        assert text not in reason


@pytest.mark.parametrize(
    "change, name",
    [
        (_set_record(["generators", 0], 3), "generator record 0"),
        (_set_record(["relations", 0], 3), "relation record 0"),
        (_set_record(["relations", 0, "sides", 0], 3), "'sides'"),
        (_set_record(["relations", 0, "sides", 0, 0], 3), "side 0 term 0"),
    ],
    ids=["generator", "relation", "side", "term"],
)
def test_presentation_records_of_the_wrong_type_are_named(workdir, tmp_path, capsys, change, name):
    data = load_json(workdir / "ring4.json")
    change(data["presentation"])
    data["ring_hash"] = content_hash(data)
    bad = tmp_path / "bad_ring4.json"
    save_json(bad, data)
    code, out, err = run_cli(["ring", "info", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot load ring file {bad}: ") and name in err
    assert "object is not" not in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r2.json"
    code, stdout, err = run_cli(["ring", "build", "--order", "2", "-o", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write ring file {out}: ")
    assert stdout == ""


def test_parser_is_built_once_without_leaking_state(workdir, capsys):
    # the parser is cached across calls: a --json call, a bad flag (exit
    # 2) and a plain call each print what a fresh parser prints
    ring = str(workdir / "ring4.json")
    calls = (
        ["ring", "info", "--json", ring],
        ["ring", "info", "--no-such-flag", ring],
        ["ring", "info", ring],
    )

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in fresh] == [0, 2, 0]
    assert json.loads(fresh[0][1])["total_rank"] == 22
    assert "--no-such-flag" in fresh[1][2]
    assert fresh[2][1].startswith("ring over C_4")
    assert build_parser() is build_parser()
    assert [run(argv) for argv in calls] == fresh


# every subcommand's options in order, positionals by name, as they were
# before the shared declarations moved into parent parsers
SUBCOMMAND_OPTIONS = {
    ("ring", "build"): [["-h", "--help"], ["--json"], ["--max-len"], ["--window"], ["--order"], ["-o", "--output"]],
    ("ring", "verify"): [["-h", "--help"], ["--json"], ["--max-len"], ["--window"], ["ring"], ["--seed"]],
    ("ring", "info"): [["-h", "--help"], ["--json"], ["ring"]],
    ("group", "cosets"): [["-h", "--help"], ["--json"], ["--order"], ["--left"], ["--middle"], ["--right"]],
    ("group", "induce"): [["-h", "--help"], ["--json"], ["--order"], ["--from"], ["--to"], ["--char"]],
    ("group", "restrict"): [["-h", "--help"], ["--json"], ["--order"], ["--from"], ["--to"], ["--char"]],
    ("module", "check"): [["-h", "--help"], ["--json"], ["--ring"], ["module"]],
    ("ext",): [["-h", "--help"], ["--json"], ["--ring"], ["-M"], ["-N"], ["--degree"]],
    ("uct",): [["-h", "--help"], ["--json"], ["--ring"], ["-M"], ["-N"]],
    ("pd",): [["-h", "--help"], ["--json"], ["--ring"], ["-M"], ["--cap"]],
    ("resolve",): [["-h", "--help"], ["--json"], ["--ring"], ["-M"], ["--length"]],
}


def test_every_subcommand_keeps_its_options():
    found = {}

    def walk(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for action in subs:
            for name, child in action.choices.items():
                walk(child, path + (name,))
        if not subs:
            found[path] = [a.option_strings or [a.dest] for a in parser._actions]

    walk(build_parser(), ())
    assert found == SUBCOMMAND_OPTIONS
    # and keep their destinations
    rest = {"ext": ["-N", "n.json", "--degree", "0"], "uct": ["-N", "n.json"], "pd": [], "resolve": ["--length", "1"]}
    for name, tail in rest.items():
        args = build_parser().parse_args([name, "--ring", "r.json", "-M", "m.json", *tail])
        assert (args.ring, args.module_m) == ("r.json", "m.json")


def test_requests_leave_no_cyclic_garbage(workdir, capsys):
    # a request's ring and modules are freed by reference counting when
    # the command returns: the collector finds nothing left behind
    ring, m = str(workdir / "ring4.json"), str(workdir / "witness.json")
    requests = (
        ["ring", "info", ring],
        ["ring", "verify", ring],
        ["module", "check", "--ring", ring, m],
        ["ext", "--ring", ring, "-M", m, "-N", m, "--degree", "1"],
        ["uct", "--ring", ring, "-M", m, "-N", m],
        ["pd", "--ring", ring, "-M", m],
        ["resolve", "--ring", ring, "-M", m, "--length", "2"],
    )
    # the first use of the parser leaves garbage once
    assert run_cli(requests[0], capsys)[0] == 0
    for argv in requests:
        gc.collect()
        gc.disable()
        try:
            code = main(argv)
        finally:
            garbage = gc.collect()
            gc.enable()
        capsys.readouterr()
        assert (code, garbage) == (0, 0), argv
