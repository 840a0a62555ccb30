"""Command line interface.

Subcommands: `ring build|verify|info`, `group cosets|induce|restrict`,
`module check`, `ext`, `uct`, `pd`, `resolve`.  All output is
deterministic: identical inputs give byte-identical output.

Exit codes are a stable contract, one per error class:

- 0: success.
- 1: mathematical failure.  Completion does not stabilize, a ring fails
  verification (`ring verify` completes within the ring file's own
  `max_len` and `window`, and a failed completion of the order-4 oracle
  is reported as one of its named failures), or a module file's
  content is not a valid module (it fails `GradedModule.validate`); the
  last prints `error: <path>: <reason>`.
- 2: usage or file error.  A file cannot be read or written, is
  malformed (`FormatError`) or names a different ring; a flag is
  unknown to its subcommand or out of range (`--cap` < 1, `--length` <
  0, `--degree` < 0, `ring build`'s `--window` < 1 or `--max-len` < 1,
  an `--order` below 1, or a `--from`, `--to`, `--left`, `--middle` or
  `--right` that does not divide `--order`).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from . import groups
from .completion import (
    DEFAULT_MAX_LEN,
    DEFAULT_WINDOW,
    CompletionError,
    NotStabilizedError,
    complete,
    presentations_equivalent,
    verify_ring,
)
# unused here: bound for `perfbench/tracing.py`, which wraps them in this namespace too
from .completion import normal_form, random_associativity_probe  # noqa: F401
from .modules import ABOVE_CAP, ext, free_resolution, projective_dimension, uct_terms
from .presentation import build_presentation, presentation_c4
from .serialize import (
    FormatError,
    content_hash,
    load_json,
    module_from_dict,
    ring_from_dict,
    ring_to_dict,
    save_json,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2

# least value each integer flag accepts
FLAG_MINIMUM = {"cap": 1, "length": 0, "degree": 0, "window": 1, "max_len": 1}


class CliError(Exception):
    """Usage or IO failure (exit code 2)."""


class MathError(Exception):
    """Mathematically invalid input (exit code 1)."""


@dataclass
class Workspace:
    """A loaded ring file plus its content hash.

    Module files must reference this hash; anything else is rejected
    before any computation runs.  A request uses it as a context manager:
    on exit the ring's free-module store is emptied, since its modules
    point back at the ring, so the ring and every module of the request
    are freed when the command returns.
    """

    path: str
    ring: object
    ring_hash: str

    @classmethod
    def open(cls, path: str) -> "Workspace":
        return cls(path, *_read(path, "ring", lambda data: (ring_from_dict(data), data["ring_hash"])))

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.ring._free_modules.clear()

    def load_module(self, path: str):
        data = _read(path, "module", lambda data: data)
        try:
            return module_from_dict(self.ring, data, self.ring_hash)
        except FormatError as exc:
            raise CliError(f"{path}: {exc}") from exc
        except ValueError as exc:
            raise MathError(f"{path}: {exc}") from exc


def _read(path: str, kind: str, parse):
    """`parse` of the JSON object in the `kind` file at `path`.  A file
    that cannot be read, is not ASCII, holds no JSON object or fails
    `parse` with a ValueError (a FormatError among them) raises CliError
    naming it."""
    try:
        return parse(load_json(path))
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load {kind} file {path}: {exc}") from exc


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _invariants_payload(inv) -> dict:
    return {"free_rank": inv.free_rank, "torsion": list(inv.torsion)}


def _ext_payload(res) -> dict:
    return {str(e): _invariants_payload(v) for e, v in res.by_degree.items()}


def _parse_character(spec: str, order: int) -> groups.Character:
    try:
        coeffs = tuple(int(t) for t in spec.split(","))
    except ValueError as exc:
        raise CliError(f"bad character coefficients {spec!r}") from exc
    if len(coeffs) != order:
        raise CliError(f"character over an order-{order} subgroup needs {order} coefficients")
    return groups.Character(order, coeffs)


def _character_text(chi: groups.Character) -> str:
    parts = []
    for j, c in enumerate(chi.coeffs):
        if not c:
            continue
        base = "1" if j == 0 else ("chi" if j == 1 else f"chi^{j}")
        if c == 1:
            parts.append(base)
        elif c == -1:
            parts.append(f"-{base}")
        else:
            parts.append(f"{c}*{base}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _ranks(ring) -> dict:
    return {f"{x}->{y}": ring.rank(x, y)[0] for x in ring.objects for y in ring.objects}


def _rank_table(ring) -> str:
    objs = ring.objects
    width = max(5, max(len(str(o)) for o in objs) + 2)
    lines = ["object pair ranks (row = source subgroup order):"]
    header = " " * width + "".join(f"{o:>{width}}" for o in objs)
    lines.append(header)
    for x in objs:
        row = f"{x:>{width}}"
        for y in objs:
            n, tors = ring.rank(x, y)
            cell = str(n) + ("!" if tors else "")
            row += f"{cell:>{width}}"
        lines.append(row)
    return "\n".join(lines)


# -- subcommands -------------------------------------------------------


def cmd_ring_build(args) -> int:
    try:
        pres = build_presentation(args.order)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    try:
        ring = complete(pres, max_len=args.max_len, window=args.window)
    except NotStabilizedError as exc:
        print(f"not stabilized: {exc}", file=sys.stderr)
        return EXIT_MATH
    data = ring_to_dict(ring)
    try:
        save_json(args.output, data)
    except OSError as exc:
        raise CliError(f"cannot write ring file {args.output}: {exc}") from exc
    payload = {
        "ring_hash": data["ring_hash"],
        "stabilized_at": ring.stabilized_at,
        "total_rank": ring.total_rank(),
        "ranks": _ranks(ring),
        "output": args.output,
    }
    _emit(
        args,
        payload,
        f"wrote {args.output} (hash {data['ring_hash'][:16]}..., "
        f"stabilized at bound {ring.stabilized_at})\n" + _rank_table(ring),
    )
    return EXIT_OK


def cmd_ring_verify(args) -> int:
    with Workspace.open(args.ring) as ws:
        report = verify_ring(ws.ring)
        failures = list(report.failures)
        oracle_checked = False
        if ws.ring.presentation.group_order == 4:
            oracle = presentation_c4()
            try:
                eq = presentations_equivalent(
                    ws.ring.presentation, oracle, max_len=ws.ring.max_len, window=ws.ring.window, ring_p=ws.ring
                )
                oracle_checked = True
                if not eq.equivalent:
                    failures.extend(eq.failures)
            except (ValueError, CompletionError) as exc:
                failures.append(f"hand-transcribed oracle comparison failed: {exc}")
        payload = {
            "ok": not failures,
            "failures": failures,
            "warnings": report.warnings,
            "oracle_checked": oracle_checked,
        }
        lines = ["verify: " + ("ok" if not failures else "FAILED")]
        lines += [f"  failure: {f}" for f in failures]
        lines += [f"  warning: {w}" for w in report.warnings]
        if oracle_checked:
            lines.append("  checked against the hand-transcribed order-4 presentation")
        _emit(args, payload, "\n".join(lines))
        return EXIT_OK if not failures else EXIT_MATH


def cmd_ring_info(args) -> int:
    with Workspace.open(args.ring) as ws:
        ring = ws.ring
        payload = {
            "group_order": ring.presentation.group_order,
            "objects": list(ring.objects),
            "generators": [g.name() for g in ring.presentation.generators],
            "total_rank": ring.total_rank(),
            "stabilized_at": ring.stabilized_at,
            "ring_hash": ws.ring_hash,
            "ranks": _ranks(ring),
        }
        text = (
            f"ring over C_{ring.presentation.group_order}, hash {ws.ring_hash[:16]}...\n"
            f"generators: {', '.join(g.name() for g in ring.presentation.generators)}\n"
            f"total rank {ring.total_rank()}, stabilized at bound {ring.stabilized_at}\n"
            + _rank_table(ring)
        )
        _emit(args, payload, text)
        return EXIT_OK


def cmd_group_cosets(args) -> int:
    _check_subgroup_flags(args, "left", "middle", "right")
    try:
        reps = groups.double_cosets(args.order, args.left, args.middle, args.right)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    names = [groups.element_name(g) for g in reps]
    _emit(args, {"representatives": reps}, ", ".join(names))
    return EXIT_OK


def cmd_group_induce(args) -> int:
    return _emit_character(args, groups.induce_character)


def cmd_group_restrict(args) -> int:
    return _emit_character(args, groups.restrict_character)


def _check_subgroup_flags(args, *flags) -> None:
    """Raise CliError naming the flag unless --order is a group order and
    each of `flags` names a subgroup of C_order."""
    try:
        orders = groups.subgroups(args.order)
    except ValueError as exc:
        raise CliError(f"--order: {exc}") from exc
    for flag in flags:
        if getattr(args, flag) not in orders:
            raise CliError(f"--{flag} {getattr(args, flag)} is not a subgroup order of C_{args.order}")


def _emit_character(args, along) -> int:
    _check_subgroup_flags(args, "from", "to")
    chi = _parse_character(args.char, getattr(args, "from"))
    try:
        out = along(chi, args.to)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _emit(
        args,
        {"subgroup": out.subgroup, "coefficients": list(out.coeffs)},
        _character_text(out),
    )
    return EXIT_OK


def cmd_module_check(args) -> int:
    with Workspace.open(args.ring) as ws:
        ws.load_module(args.module)
        _emit(args, {"ok": True}, "module ok")
        return EXIT_OK


def cmd_ext(args) -> int:
    with Workspace.open(args.ring) as ws:
        M = ws.load_module(args.module_m)
        N = ws.load_module(args.module_n)
        res = ext(M, N, args.degree)
        payload = {"degree": args.degree, "ext": _ext_payload(res)}
        _emit(args, payload, f"Ext^{args.degree}: {res}")
        return EXIT_OK


def cmd_uct(args) -> int:
    with Workspace.open(args.ring) as ws:
        M = ws.load_module(args.module_m)
        N = ws.load_module(args.module_n)
        terms = uct_terms(M, N)
        payload = {
            "hom": _ext_payload(terms.hom),
            "ext1_shifted": _ext_payload(terms.ext1_shifted),
            "pd_check": terms.pd_within_one,
        }
        note = "" if terms.pd_within_one else "\nnote: resolution longer than one; terms do not assemble into the short exact sequence"
        _emit(
            args,
            payload,
            f"Hom term: {terms.hom}\nExt1 of suspension: {terms.ext1_shifted}\npd_check: {terms.pd_within_one}{note}",
        )
        return EXIT_OK


def cmd_pd(args) -> int:
    with Workspace.open(args.ring) as ws:
        M = ws.load_module(args.module_m)
        pd = projective_dimension(M, args.cap)
        value = "AboveCap" if pd is ABOVE_CAP else pd
        _emit(args, {"projective_dimension": value, "cap": args.cap}, f"projective dimension: {value}")
        return EXIT_OK


def cmd_resolve(args) -> int:
    with Workspace.open(args.ring) as ws:
        M = ws.load_module(args.module_m)
        res = free_resolution(M, args.length)
        steps = [
            {"step": n, "entries": [[obj, eps] for obj, eps in free.entries]}
            for n, free in enumerate(res.frees)
        ]
        lines = []
        for step in steps:
            entries = ", ".join(f"Y[{obj},{eps}]" for obj, eps in step["entries"]) or "0"
            lines.append(f"F_{step['step']}: {entries}")
        _emit(args, {"steps": steps}, "\n".join(lines))
        return EXIT_OK


# -- parser ------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing a request
    leaves no state in it."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="machine-readable output")
    # the subcommands that read a ring file, and those over its module M
    on_ring = argparse.ArgumentParser(add_help=False, parents=[shared])
    on_ring.add_argument("--ring", required=True)
    on_module = argparse.ArgumentParser(add_help=False, parents=[on_ring])
    on_module.add_argument("-M", dest="module_m", required=True)

    parser = argparse.ArgumentParser(prog="catring", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="build, verify and inspect ring files")
    ring_sub = ring.add_subparsers(dest="ring_command", required=True)
    p = ring_sub.add_parser("build", parents=[shared])
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN, help="completion length cap")
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW, help="stabilization window")
    p.add_argument("--order", type=int, required=True, help="cyclic group order")
    p.add_argument("-o", "--output", required=True, help="ring JSON output path")
    p.set_defaults(func=cmd_ring_build)
    p = ring_sub.add_parser("verify", parents=[shared])
    p.add_argument("ring", help="ring JSON file")
    p.set_defaults(func=cmd_ring_verify)
    p = ring_sub.add_parser("info", parents=[shared])
    p.add_argument("ring", help="ring JSON file")
    p.set_defaults(func=cmd_ring_info)

    group = sub.add_parser("group", help="cyclic group arithmetic")
    group_sub = group.add_subparsers(dest="group_command", required=True)
    p = group_sub.add_parser("cosets", parents=[shared])
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--left", type=int, required=True, help="order of L")
    p.add_argument("--middle", type=int, required=True, help="order of H")
    p.add_argument("--right", type=int, required=True, help="order of K")
    p.set_defaults(func=cmd_group_cosets)
    for name, func in (("induce", cmd_group_induce), ("restrict", cmd_group_restrict)):
        p = group_sub.add_parser(name, parents=[shared])
        p.add_argument("--order", type=int, required=True)
        p.add_argument("--from", dest="from", type=int, required=True, help="subgroup order of the character")
        p.add_argument("--to", type=int, required=True, help="target subgroup order")
        p.add_argument("--char", required=True, help="comma-separated coefficient vector")
        p.set_defaults(func=func)

    module = sub.add_parser("module", help="module file operations")
    module_sub = module.add_subparsers(dest="module_command", required=True)
    p = module_sub.add_parser("check", parents=[on_ring])
    p.add_argument("module", help="module JSON file")
    p.set_defaults(func=cmd_module_check)

    p = sub.add_parser("ext", parents=[on_module])
    p.add_argument("-N", dest="module_n", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("uct", parents=[on_module])
    p.add_argument("-N", dest="module_n", required=True)
    p.set_defaults(func=cmd_uct)

    p = sub.add_parser("pd", parents=[on_module])
    p.add_argument("--cap", type=int, default=3)
    p.set_defaults(func=cmd_pd)

    p = sub.add_parser("resolve", parents=[on_module])
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(func=cmd_resolve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest, least in FLAG_MINIMUM.items():
            if getattr(args, dest, least) < least:
                raise CliError(f"--{dest.replace('_', '-')} must be at least {least}")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
