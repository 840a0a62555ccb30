"""The three benchmark workloads: build, query and serve.

Each workload has a `setup` (rings, modules, files: everything made before
the first timed operation), a seeded stream of rounds of operations, an
`execute` that performs one operation and returns a canonical answer, and a
`check` that runs after the timed loop and returns the wrong answers.
Rounds have a fixed composition, so every run does the same mix of work;
the seed chooses the instances and their order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

from catring import cli, completion, intlin, modules, presentation, serialize

from tracing import module_gens


DEFAULT_SEED = 0


def sha(data) -> str:
    return hashlib.sha256(serialize.canonical_json(data).encode("ascii")).hexdigest()


def inv_answer(inv) -> list:
    return [inv.free_rank, list(inv.torsion)]


def ext_answer(res) -> list:
    return [[e, *inv_answer(v)] for e, v in sorted(res.by_degree.items())]


def _is_zero_ext(answer) -> bool:
    return all(free == 0 and not tors for _, free, tors in answer)


def _vanishes(f) -> bool:
    """Is the module map zero, i.e. does every image row lie in the target's
    relation lattice?"""
    for slot in f.source.slots:
        lat = intlin.Lattice(f.target.ngens(slot))
        for row in f.target.rels[slot]:
            lat.add(row)
        if any(row not in lat for row in f.mats[slot]):
            return False
    return True


def _pd_answer(pd):
    return "AboveCap" if pd is modules.ABOVE_CAP else pd


class Workload:
    name = ""
    tail_pct = 90.0  # percentile reported as op_tail_ms
    trace_rounds = 1  # rounds in the fixed plan of a traced run
    setup_samples = (2, 2)  # set-ups timed before and after the timed loop

    def setup(self, seed: int, workdir: str):
        raise NotImplementedError

    def rounds(self, state, seed: int):
        """Endless seeded stream of rounds; each round is a list of ops."""
        raise NotImplementedError

    def execute(self, state, op):
        raise NotImplementedError

    def expected_failure(self, op, exc) -> bool:
        """A known defect: counted as failed, but not as a wrong answer."""
        return False

    def check(self, state, records, reference: dict) -> list[str]:
        raise NotImplementedError

    def input_digest(self, state, rounds) -> str:
        """Digest of everything generated from the seed."""
        return sha([self.describe(state), [[list(map(str, op)) for op in r] for r in rounds]])

    def describe(self, state):
        return None


# -- build ----------------------------------------------------------------


def ring_answer(data: dict) -> dict:
    """The mathematical content of a ring file, independent of the order
    in which the presentation lists its relations."""
    content = {key: data[key] for key in ("components", "table", "arrow_forms", "stabilized_at",
                                          "generator_order")}
    return {
        "digest": sha(content),
        "stabilized_at": data["stabilized_at"],
        "total_rank": sum(len(c["basis"]) for c in data["components"]),
        "table_nnz": len(data["table"]),
    }


class Build(Workload):
    """Each op completes one ring from a shuffled relation list.

    A round builds k = 2, 2, 2, 3, 3, 3, 4, 5, 6, 6: the latencies form one
    cluster per k, and this mix puts the median in the middle of the k=3
    cluster and p85 inside the k=6 one, with ten k=6 samples beyond it even
    when the host is slow, instead of on the edge between two clusters.
    """

    name = "build"
    ks = (2, 3, 4, 5, 6)
    round_ks = (2, 2, 2, 3, 3, 3, 4, 5, 6, 6)
    tail_pct = 85.0
    trace_rounds = 2
    setup_samples = (5, 5)  # set-up is mostly the import, about 0.05 s

    def setup(self, seed, workdir):
        # relation counts; every op rebuilds its presentation itself
        return {"sizes": {k: len(presentation.build_presentation(k).relations) for k in self.ks}}

    def rounds(self, state, seed):
        rng = random.Random(f"build/{seed}")
        while True:
            order = list(self.round_ks)
            rng.shuffle(order)
            yield [(k, tuple(rng.sample(range(state["sizes"][k]), state["sizes"][k]))) for k in order]

    def execute(self, state, op):
        k, perm = op
        pres = presentation.build_presentation(k)
        shuffled = presentation.Presentation(
            k, pres.generators, [pres.relations[i] for i in perm], pres.family_counts
        )
        ring = completion.complete(shuffled)
        data = serialize.ring_to_dict(ring)
        return {"k": k, "ring_hash": data["ring_hash"], "data": data}

    def expected_failure(self, op, exc):
        return op[0] == 5 and isinstance(exc, completion.NotStabilizedError)

    def check(self, state, records, reference):
        wrong = []
        seen: dict[int, dict] = {}
        for i, rec in enumerate(records):
            if rec.answer is None:
                continue
            k, data = rec.answer["k"], rec.answer["data"]
            if serialize.content_hash(data) != rec.answer["ring_hash"]:
                wrong.append(f"op {i}: k={k} ring_hash does not match the file content")
                continue
            got = ring_answer(data)
            expected = reference.get(str(k))
            if isinstance(expected, dict):
                if got != expected:
                    wrong.append(f"op {i}: k={k} ring differs from the reference {got} != {expected}")
            # shuffled relation lists must all give the same ring
            if seen.setdefault(k, got) != got:
                wrong.append(f"op {i}: k={k} ring depends on the relation order")
        return wrong

    def make_reference(self) -> dict:
        """The unshuffled ring for every k (or the error it raises)."""
        out = {}
        for k in self.ks:
            try:
                ring = completion.complete(presentation.build_presentation(k))
            except completion.NotStabilizedError:
                out[str(k)] = "NotStabilizedError"
                continue
            out[str(k)] = ring_answer(serialize.ring_to_dict(ring))
        return out


# -- query ----------------------------------------------------------------

QUERY_RINGS = (4, 6)
SMALL_KINDS = ("ext0", "ext1", "ext2", "ext3", "hom", "proj", "pd", "uct", "res")
LARGE_KINDS = ("proj", "hom", "ext0", "ext1", "uct")
NEEDS_N = {"ext0", "ext1", "ext2", "ext3", "hom", "uct"}
LARGE_MIN_GENS = 36


def make_corpus(ring):
    """The query modules over one ring: (small, large, targets).

    Small modules (at most 24 generators) are the representables, every
    cyclic quotient of a representable by one basis monomial, the first
    syzygy of the quotient by the first monomial of each component, the
    suspensions of the quotients from the first object, and the sums of a
    representable with its quotient from the last object.  The two large
    modules (36 to 48 generators) are direct sums of representables and of
    quotients.  Targets N of Hom, Ext and UCT are the representables in
    degree 0 plus one in degree 1: Hom into a cyclic quotient can take
    minutes at k=6 (coefficient growth in left_kernel).
    """
    objs = ring.objects
    reps = [modules.yoneda(ring, o, 0) for o in objs]
    quots, firsts = [], {}
    for o in objs:
        for src in objs:
            for pos in range(len(ring.basis[(src, o)])):
                q = modules.yoneda_cyclic_quotient(ring, o, 0, src, pos)
                quots.append(q)
                firsts.setdefault((o, src), q)
    syzygies = []
    for q in firsts.values():
        m, _ = modules.kernel_of(modules.free_cover(q))
        if module_gens(m):
            syzygies.append(m)
    suspended = [modules.suspend(firsts[(o, objs[0])]) for o in objs]
    sums = [modules.direct_sum(y, firsts[(o, objs[-1])]) for o, y in zip(objs, reps)]
    small = reps + quots + syzygies + suspended + sums

    large = []
    for family in (reps, [q for (o, src), q in firsts.items() if o != src]):
        parts = []
        while sum(module_gens(p) for p in parts) < LARGE_MIN_GENS:
            parts.append(family[len(parts) % len(family)])
        large.append(modules.direct_sum(*parts))
    targets = reps + [modules.yoneda(ring, objs[0], 1)]
    return small, large, targets


def module_digest(m) -> str:
    return sha(serialize.module_to_dict(m, "-"))[:16]


class Query(Workload):
    """Hom, Ext, pd, UCT and resolution queries over rings built in set-up.

    A round asks every kind of query once of every module (the large ones
    only the cheaper kinds); the seed picks each query's target N and the
    order, so every seed does the same mix of work.
    """

    name = "query"
    tail_pct = 99.0
    trace_rounds = 1
    identity_sample = 40  # distinct inputs per run checked by identities

    def setup(self, seed, workdir):
        state = {"seed": seed, "rings": {}, "small": {}, "large": {}, "targets": {}}
        for k in QUERY_RINGS:
            ring = completion.complete(presentation.build_presentation(k))
            state["rings"][k] = ring
            state["small"][k], state["large"][k], state["targets"][k] = make_corpus(ring)
        return state

    def describe(self, state):
        return {
            k: [[module_digest(m) for m in state[part][k]] for part in ("small", "large", "targets")]
            for k in QUERY_RINGS
        }

    @staticmethod
    def inputs(state, k):
        """Every (kind, size, module index) of one round over ring k."""
        out = [(kind, "small", mi) for kind in SMALL_KINDS for mi in range(len(state["small"][k]))]
        out += [(kind, "large", mi) for kind in LARGE_KINDS for mi in range(len(state["large"][k]))]
        return out

    def rounds(self, state, seed):
        rng = random.Random(f"query/plan/{seed}")
        while True:
            ops = []
            for k in QUERY_RINGS:
                ntargets = len(state["targets"][k])
                for kind, size, mi in self.inputs(state, k):
                    ni = rng.randrange(ntargets) if kind in NEEDS_N else None
                    ops.append((kind, k, size, mi, ni))
            rng.shuffle(ops)
            yield ops

    @staticmethod
    def modules_of(state, op):
        kind, k, size, mi, ni = op
        M = state[size][k][mi]
        N = state["targets"][k][ni] if ni is not None else None
        return M, N

    @staticmethod
    def compute(kind, M, N):
        if kind.startswith("ext"):
            return ext_answer(modules.ext(M, N, int(kind[3:])))
        if kind == "hom":
            return inv_answer(modules.hom_module(M, N).invariants)
        if kind == "proj":
            return modules.is_projective(M)
        if kind == "pd":
            return _pd_answer(modules.projective_dimension(M, 3))
        if kind == "pd1":
            return _pd_answer(modules.projective_dimension(M, 1))
        if kind == "uct":
            t = modules.uct_terms(M, N)
            return [ext_answer(t.hom), ext_answer(t.ext1_shifted), t.pd_within_one]
        if kind == "res":
            res = modules.free_resolution(M, 3)
            return [[list(e) for e in f.entries] for f in res.frees]
        raise ValueError(f"unknown query kind {kind}")

    def execute(self, state, op):
        M, N = self.modules_of(state, op)
        return self.compute(op[0], M, N)

    def key(self, state, op, digests) -> str:
        M, N = self.modules_of(state, op)
        return f"{op[0]}|k{op[1]}|{digests(M)}|{digests(N) if N is not None else '-'}"

    def check(self, state, records, reference):
        digest_cache: dict[int, str] = {}

        def digests(m):
            if id(m) not in digest_cache:
                digest_cache[id(m)] = module_digest(m)
            return digest_cache[id(m)]

        memo: dict = {}

        def lib(what, *args):
            # memoized library answers for the identity checks
            key = (what,) + tuple(id(a) for a in args)
            if key not in memo:
                if what == "suspend":
                    memo[key] = modules.suspend(args[0])
                else:
                    memo[key] = self.compute(what, args[0], args[1] if len(args) > 1 else None)
            return memo[key]

        wrong = []
        first: dict[str, tuple] = {}
        for i, rec in enumerate(records):
            if rec.answer is None:
                continue
            key = self.key(state, rec.op, digests)
            # the same input must give the same answer within the run
            if first.setdefault(key, (i, rec))[1].answer != rec.answer:
                wrong.append(f"op {i}: {key} answer changed within the run")
            elif key not in reference:
                wrong.append(f"op {i}: {key} has no reference answer")
            elif reference[key] != rec.answer:
                wrong.append(f"op {i}: {key} = {rec.answer}, reference {reference[key]}")
        # identities that need no stored answer, on a seeded sample of inputs
        rng = random.Random(f"query/check/{state['seed']}")
        sample = rng.sample(sorted(first), min(self.identity_sample, len(first)))
        for key in sample:
            i, rec = first[key]
            targets = state["targets"][rec.op[1]]
            msg = self.identity(rec.op[0], *self.modules_of(state, rec.op), targets, rec.answer, lib)
            if msg:
                wrong.append(f"op {i}: {key}: {msg}")
        return wrong

    def identity(self, kind, M, N, targets, answer, lib):
        if kind == "ext0":
            hom0 = lib("hom", M, N)
            hom1 = lib("hom", M, lib("suspend", N))
            if answer != [[0, *hom0], [1, *hom1]]:
                return f"Ext^0 {answer} is not Hom {hom0} / Hom into the suspension {hom1}"
        elif kind.startswith("ext"):
            if lib("proj", M) and not _is_zero_ext(answer):
                return "Ext^n of a projective module is nonzero"
        elif kind == "hom":
            if answer != lib("ext0", M, N)[0][1:]:
                return "Hom differs from degree 0 of Ext^0"
        elif kind == "proj":
            if answer and not all(_is_zero_ext(lib("ext1", M, n)) for n in targets):
                return "a projective module has nonzero Ext^1"
        elif kind == "pd":
            if (answer == 0) != lib("proj", M):
                return "pd 0 disagrees with is_projective"
        elif kind == "uct":
            if answer[0] != lib("ext0", M, N):
                return "UCT Hom term differs from Ext^0"
            if answer[1] != lib("ext1", lib("suspend", M), N):
                return "UCT Ext term differs from Ext^1 of the suspension"
            if answer[2] != (lib("pd1", M) != "AboveCap"):
                return "UCT pd flag differs from projective_dimension(M, 1)"
        elif kind == "res":
            res = modules.free_resolution(M, 3)
            maps = [res.augmentation] + list(res.differentials)
            for first, second in zip(maps[1:], maps):
                if not _vanishes(modules.compose_maps(first, second)):
                    return "resolution differentials do not compose to zero"
            if answer != [[list(e) for e in f.entries] for f in res.frees]:
                return "free_resolution is not deterministic"
        return None

    def make_reference(self) -> dict:
        """Answers for every input any seed can draw."""
        state = self.setup(DEFAULT_SEED, None)
        out = {}
        for k in QUERY_RINGS:
            for kind, size, mi in self.inputs(state, k):
                for ni in range(len(state["targets"][k])) if kind in NEEDS_N else [None]:
                    op = (kind, k, size, mi, ni)
                    out[self.key(state, op, module_digest)] = self.execute(state, op)
        return out


# -- serve ----------------------------------------------------------------

SERVE_RINGS = (2, 3, 4, 6)
SERVE_MODULE_RINGS = (4, 6)
# requests per round: (kind, count)
SERVE_MIX = (("verify", 1), ("info", 2), ("check", 4), ("pd", 4), ("ext", 6), ("uct", 3))


class Serve(Workload):
    """CLI requests served in-process against ring and module files."""

    name = "serve"
    tail_pct = 97.5
    trace_rounds = 8

    def setup(self, seed, workdir):
        state = {"rings": {}, "hashes": {}, "modules": {}, "dir": workdir}
        for k in SERVE_RINGS:
            ring = completion.complete(presentation.build_presentation(k))
            data = serialize.ring_to_dict(ring)
            serialize.save_json(os.path.join(workdir, f"ring{k}.json"), data)
            state["rings"][k], state["hashes"][k] = ring, data["ring_hash"]
        for k in SERVE_MODULE_RINGS:
            ring, objs = state["rings"][k], state["rings"][k].objects
            mods = [modules.yoneda(ring, o, 0) for o in objs]
            mods += [modules.yoneda_cyclic_quotient(ring, o, 0, objs[0], 0) for o in objs]
            mods.append(modules.suspend(mods[-1]))
            for i, m in enumerate(mods):
                serialize.save_json(
                    self.module_path(state, k, i), serialize.module_to_dict(m, state["hashes"][k])
                )
            state["modules"][k] = mods
        return state

    @staticmethod
    def module_path(state, k, i):
        return os.path.join(state["dir"], f"k{k}-m{i}.json")

    def describe(self, state):
        names = sorted(os.listdir(state["dir"]))
        out = {}
        for name in names:
            with open(os.path.join(state["dir"], name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out

    def rounds(self, state, seed):
        rng = random.Random(f"serve/plan/{seed}")
        while True:
            ops = []
            for kind, count in SERVE_MIX:
                for i in range(count):
                    if kind == "verify":
                        ops.append(("verify", 4, None, None, None))
                    elif kind == "info":
                        ops.append(("info", rng.choice(SERVE_RINGS), None, None, None))
                    else:
                        # a fixed share of k=4 and k=6 requests: k=6 ones are
                        # 2-3x slower, and a seeded share moved the median
                        k = SERVE_MODULE_RINGS[i % len(SERVE_MODULE_RINGS)]
                        nm = len(state["modules"][k])
                        mi = rng.randrange(nm)
                        ni = rng.randrange(nm) if kind in ("ext", "uct") else None
                        deg = rng.randrange(2) if kind == "ext" else None
                        ops.append((kind, k, mi, ni, deg))
            rng.shuffle(ops)
            yield ops

    def argv(self, state, op):
        kind, k, mi, ni, deg = op
        ring = os.path.join(state["dir"], f"ring{k}.json")
        if kind in ("verify", "info"):
            return ["ring", kind, "--json", ring]
        m = self.module_path(state, k, mi)
        if kind == "check":
            return ["module", "check", "--json", "--ring", ring, m]
        if kind == "pd":
            return ["pd", "--json", "--ring", ring, "-M", m, "--cap", "1"]
        n = self.module_path(state, k, ni)
        if kind == "ext":
            return ["ext", "--json", "--ring", ring, "-M", m, "-N", n, "--degree", str(deg)]
        return ["uct", "--json", "--ring", ring, "-M", m, "-N", n]

    def execute(self, state, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv(state, op))
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def key(self, state, op) -> str:
        """The request with its module files named by content digest."""
        kind, k, mi, ni, deg = op
        cache = state.setdefault("digests", {})
        names = []
        for idx in (mi, ni):
            if idx is None:
                names.append("-")
                continue
            if (k, idx) not in cache:
                with open(self.module_path(state, k, idx), "rb") as fh:
                    cache[(k, idx)] = hashlib.sha256(fh.read()).hexdigest()
            names.append(cache[(k, idx)])
        return f"{kind}|k{k}|{names[0]}|{names[1]}|{'-' if deg is None else deg}"

    def check(self, state, records, reference):
        wrong = []
        answers: dict[str, str] = {}
        first_op = {}
        for i, rec in enumerate(records):
            if rec.answer is None:
                continue
            key = self.key(state, rec.op)
            first_op.setdefault(key, rec.op)
            if answers.setdefault(key, rec.answer) != rec.answer:
                wrong.append(f"op {i}: {key} stdout changed within the run")
            elif key not in reference:
                wrong.append(f"op {i}: {key} has no reference stdout")
            elif reference[key] != rec.answer:
                wrong.append(f"op {i}: {key} stdout differs from the reference")
        # identities, once per distinct request
        for key, stdout in answers.items():
            msg = self.identity(state, first_op[key], json.loads(stdout))
            if msg:
                wrong.append(f"{key}: {msg}")
        return wrong

    def identity(self, state, op, payload):
        """Compare a served answer with the library called in-process."""
        kind, k, mi, ni, deg = op
        if kind == "verify":
            return None if payload["ok"] and payload["oracle_checked"] else "ring verify failed"
        if kind == "info":
            ring = state["rings"][k]
            if (payload["total_rank"], payload["stabilized_at"], payload["ring_hash"]) != (
                ring.total_rank(), ring.stabilized_at, state["hashes"][k]
            ):
                return "ring info differs from the ring built in set-up"
            return None
        if kind == "check":
            return None if payload == {"ok": True} else "module check failed"
        M = state["modules"][k][mi]
        if kind == "pd":
            want = _pd_answer(modules.projective_dimension(M, 1))
            return None if payload["projective_dimension"] == want else f"pd {payload} != {want}"
        N = state["modules"][k][ni]
        if kind == "ext":
            want = {str(e): {"free_rank": f, "torsion": t} for e, f, t in ext_answer(modules.ext(M, N, deg))}
            return None if payload["ext"] == want else f"ext {payload} != {want}"
        t = modules.uct_terms(M, N)
        want = [ext_answer(t.hom), ext_answer(t.ext1_shifted), t.pd_within_one]
        got = [
            [[int(e), v["free_rank"], v["torsion"]] for e, v in sorted(payload[part].items())]
            for part in ("hom", "ext1_shifted")
        ] + [payload["pd_check"]]
        return None if got == want else f"uct {got} != {want}"

    def make_reference(self, workdir: str) -> dict:
        """Stdout of every request any seed can draw."""
        state = self.setup(DEFAULT_SEED, workdir)
        out = {}
        ops = [("verify", 4, None, None, None)] + [("info", k, None, None, None) for k in SERVE_RINGS]
        for k in SERVE_MODULE_RINGS:
            nm = len(state["modules"][k])
            for mi in range(nm):
                ops += [("check", k, mi, None, None), ("pd", k, mi, None, None)]
                for ni in range(nm):
                    ops += [("ext", k, mi, ni, 0), ("ext", k, mi, ni, 1), ("uct", k, mi, ni, None)]
        for op in ops:
            out[self.key(state, op)] = self.execute(state, op)
        return out


WORKLOADS = {w.name: w for w in (Build(), Query(), Serve())}
