"""Inputs, op lists and the correctness gate of the benchmark.

The program sees only what this module hands it: spec files and builtin
names on a command line, run through ``unramified.cli.main``.

The two analyze workloads are fixed lists of *base* specs, drawn once from
a fixed ``random.Random`` stream (whose output does not change between
Python or numpy versions).  ``--seed`` moves every base spec into a random
basis, gamma -> h . gamma . Lambda^2(g) for g in GL(U) and h in GL(V).
That gives an isomorphic group, so every K/S dimension, b0_dim and h3_dim,
and whether the decomposable-subspace loop exits early, are the same for
every seed, while the matrices the program eliminates differ.  The gate
checks each answer against the base-spec dimensions in ``golden.json``
and checks the reported subspaces for orthogonality with exact
arithmetic of its own, so no seed needs the code under test to vouch for
it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Callable

import numpy as np

WORKLOADS = ("analyze-walk", "analyze-exit", "oracles", "lab")
DEFAULT_SEED = 1
BASE_SEED = 212039

# Walkers: S^i_dec != S^i at some degree, so dec_subgroup visits every
# projective line there.  (3, 7, 4) walks in degree 3, the others in
# degree 2.  One base spec per shape.
WALK_SHAPES = ((3, 6, 8), (3, 6, 9), (3, 6, 10), (3, 6, 11),
               (5, 5, 6), (5, 5, 7), (5, 5, 8), (5, 5, 9),
               (3, 7, 4), (3, 7, 9))
# Early exits at the same (p, n): S^i_dec = S^i at both degrees.  103 ops,
# so that a run of three passes has 30 samples beyond its 90th percentile;
# n = 7 exits take ~0.2 s each, hence fewer of them.
EXIT_SHAPES = tuple([((3, 6, m), 13) for m in (1, 2, 4, 5)]
                    + [((5, 5, m), 13) for m in (2, 3, 4)]
                    + [((3, 7, m), 3) for m in (2, 3, 6, 7)])


# -- exact arithmetic of the benchmark's own -----------------------------------

def rank_mod(rows, p: int) -> int:
    """Rank over F_p of a small integer matrix (list of rows)."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != rank and f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _pairs(n: int):
    return list(itertools.combinations(range(n), 2))


def is_strict(gamma, p: int, n: int) -> bool:
    """gamma surjective onto V and with trivial radical (V = [G,G] = Z(G))."""
    m = len(gamma)
    if rank_mod(gamma, p) != m:
        return False
    forms = []
    for row in gamma:
        A = [[0] * n for _ in range(n)]
        for c, (i, j) in zip(row, _pairs(n)):
            A[i][j], A[j][i] = c, -c
        forms.extend(A)
    return rank_mod(forms, p) == n


def _random_invertible(rng: random.Random, p: int, d: int) -> np.ndarray:
    while True:
        g = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        if rank_mod(g, p) == d:
            return np.array(g, dtype=np.int64).reshape(d, d)


def change_basis(gamma: np.ndarray, p: int, n: int, rng: random.Random) -> np.ndarray:
    """h . gamma . Lambda^2(g): the same group in a random basis of U and V."""
    g = _random_invertible(rng, p, n)
    h = _random_invertible(rng, p, gamma.shape[0])
    pairs = _pairs(n)
    wedge2 = np.array([[g[a, i] * g[b, j] - g[b, i] * g[a, j] for (i, j) in pairs]
                       for (a, b) in pairs], dtype=np.int64)
    return (h @ gamma @ wedge2) % p


def base_specs(shapes) -> list[tuple[int, int, np.ndarray]]:
    """The fixed base specs: (p, n, gamma) for each (shape, count)."""
    rng = random.Random(BASE_SEED)
    out = []
    for (p, n, m), count in shapes:
        for _ in range(count):
            while True:
                gamma = [[rng.randrange(p) for _ in range(comb(n, 2))]
                         for _ in range(m)]
                if is_strict(gamma, p, n):
                    break
            out.append((p, n, np.array(gamma, dtype=np.int64)))
    return out


def spec_text(p: int, n: int, gamma: np.ndarray) -> str:
    terms = [{"i": i + 1, "j": j + 1, "v": [int(x) for x in gamma[:, s]]}
             for s, (i, j) in enumerate(_pairs(n)) if gamma[:, s].any()]
    return json.dumps({"p": p, "dimU": n, "dimV": int(gamma.shape[0]),
                       "gamma": terms})


# -- ops -----------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One CLI call, the spec file it reads (if any) and its answer check.

    ``check(code, stdout)`` returns None when the answer is right, else why
    not.  ``key`` names the op in the golden table: the command line, plus a
    digest of the spec file's contents when there is one.
    """

    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]
    spec: tuple[str, str] | None = None     # (file name, contents)

    @property
    def key(self) -> str:
        text = " ".join(self.argv)
        if self.spec:
            text += " #" + hashlib.sha256(self.spec[1].encode()).hexdigest()[:16]
        return text


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    warmup: Op


def shape_list(name: str):
    if name == "analyze-walk":
        return tuple((s, 1) for s in WALK_SHAPES)
    return EXIT_SHAPES


def _analyze_ops(name: str, seed: int, dims, smoke: bool) -> list[Op]:
    ops = []
    prefix = name.split("-")[1]
    for idx, (p, n, gamma) in enumerate(base_specs(shape_list(name))):
        if smoke and idx % 12:
            continue
        rng = random.Random(f"{name}:{seed}:{idx}")
        moved = change_basis(gamma, p, n, rng)
        fname = f"{prefix}{idx:03d}.json"
        expected = dims[idx] if idx < len(dims) else None
        ops.append(Op(("analyze", "--spec", fname, "--json"),
                      partial(check_analyze, p=p, n=n, gamma=moved,
                              dims=expected, walk=(name == "analyze-walk")),
                      (fname, spec_text(p, n, moved))))
    return ops


def build(name: str, seed: int, golden: dict, smoke: bool = False) -> Workload:
    """The op list and warm-up op of one workload for one seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    dims = golden.get("base_dims", {}).get(name, [])
    if name in ("analyze-walk", "analyze-exit"):
        ops = _analyze_ops(name, seed, dims, smoke)
        if name == "analyze-walk":
            ops.append(Op(("analyze", "--builtin", "peyre6", "--json"),
                          check_peyre6))
        # a small strict spec of a shape outside both lists
        gamma = base_specs((((3, 4, 2), 1),))[0][2]
        warm = Op(("analyze", "--spec", "warmup.json", "--json"), check_exit0,
                  ("warmup.json", spec_text(3, 4, gamma)))
        return Workload(name, tuple(ops), warm)
    if name == "oracles":
        if smoke:
            ops = [Op(("oracle", "decomposables", "--builtin", "peyre6",
                       "--degree", "2", "--json"), check_agree)]
        else:
            ops = [Op(("oracle", "decomposables", "--builtin", "peyre6",
                       "--degree", "3", "--json"), check_peyre6_brute)]
        ops += [Op(("oracle", "cohomology", "--builtin", "elem9",
                    "--degree", "3", "--json"),
                   partial(check_qz, orders={"1": 9, "2": 3, "3": 27})),
                Op(("oracle", "cohomology", "--builtin", "heisenberg5",
                    "--degree", "1", "--json"),
                   partial(check_qz, orders={"1": 25}))]
        if not smoke:
            ops.insert(1, Op(("oracle", "cohomology", "--builtin", "heisenberg3",
                              "--degree", "2", "--json"),
                             partial(check_qz, orders={"1": 9})))
        warm = Op(("oracle", "cohomology", "--builtin", "elem9", "--degree", "2",
                   "--json"), check_exit0)
        return Workload(name, tuple(ops), warm)
    group_seed = str(random.Random(f"lab:{seed}").randrange(1 << 31))
    ops = [Op(("verify-lemmas", "--builtin", "heisenberg3", "--json"),
              partial(check_lemmas, failing={"tau_agree"})),
           Op(("verify-group", "--builtin", "heisenberg5", "--seed", group_seed,
               "--json"), check_group)]
    if not smoke:
        ops.insert(0, Op(("verify-lemmas", "--builtin", "heisenberg5", "--json"),
                         partial(check_lemmas, failing=set())))
        ops.append(Op(("verify-group", "--builtin", "peyre6", "--seed", group_seed,
                       "--json"), check_group))
    warm = Op(("verify-lemmas", "--builtin", "elem9", "--json"),
              partial(check_lemmas, failing={"tau_agree"}))
    return Workload(name, tuple(ops), warm)


# -- answer checks -------------------------------------------------------------

def check_exit0(code: int, out: str) -> str | None:
    return None if code == 0 else f"exit code {code}"


def _basis(block: dict, ambient: int) -> np.ndarray:
    return np.array(block["basis"], dtype=np.int64).reshape(-1, ambient)


def _echelon_ok(B: np.ndarray) -> bool:
    """Rows in reduced echelon shape: leading 1s in increasing columns."""
    if not B.shape[0]:
        return True
    if not B.any(axis=1).all():
        return False
    lead = (B != 0).argmax(axis=1)
    return bool((np.diff(lead) > 0).all() and (B[np.arange(len(lead)), lead] == 1).all())


def check_analyze(code: int, out: str, *, p: int, n: int, gamma: np.ndarray,
                  dims, walk: bool) -> str | None:
    """Exit 0; K^i, S^i, S^i_dec and K^i_max are consistent and orthogonal
    where the definitions say so; all dims equal the base spec's."""
    if code != 0:
        return f"exit code {code}"
    if dims is None:
        return "no base dims for this spec in the golden table"
    data = json.loads(out)
    m = gamma.shape[0]
    if data["spec"]["dimU"] != n or data["spec"]["dimV"] != m or data["spec"]["p"] != p:
        return "spec echo differs"
    if not (data["hypotheses_ok"] and data["gamma_rank"] == m
            and data["radical_dim"] == 0):
        return "hypotheses not reported as satisfied"
    k3_dim, s2_dec_dim, s3_dec_dim = dims
    want = {2: (m, s2_dec_dim), 3: (k3_dim, s3_dec_dim)}
    for i in (2, 3):
        N = comb(n, i)
        keys = (f"k{i}", f"s{i}", f"s{i}_dec", f"k{i}_max")
        K, S, D, KM = (_basis(data[key], N) for key in keys)
        for key, B in zip(keys, (K, S, D, KM)):
            if data[key]["dim"] != B.shape[0] or not _echelon_ok(B):
                return f"{key} basis is not a reduced echelon basis of its dim"
        if K.shape[0] != want[i][0] or D.shape[0] != want[i][1]:
            return f"degree {i}: dim K = {K.shape[0]}, dim S_dec = {D.shape[0]}; " \
                   f"base spec has {want[i]}"
        if K.shape[0] + S.shape[0] != N or D.shape[0] + KM.shape[0] != N:
            return f"degree {i}: complement dims do not add up to {N}"
        if ((K @ S.T) % p).any() or ((K @ D.T) % p).any() or ((KM @ D.T) % p).any():
            return f"degree {i}: a reported complement is not orthogonal"
    if ((gamma @ _basis(data["s2"], comb(n, 2)).T) % p).any():
        return "S^2 is not orthogonal to the rows of gamma"
    b0 = comb(n, 2) - s2_dec_dim - m
    h3 = comb(n, 3) - s3_dec_dim - k3_dim
    if (data["b0_dim"], data["h3_dim"]) != (b0, h3):
        return f"(b0_dim, h3_dim) = ({data['b0_dim']}, {data['h3_dim']}), want ({b0}, {h3})"
    walked = s2_dec_dim < comb(n, 2) - m or s3_dec_dim < comb(n, 3) - k3_dim
    if walked != walk:
        return "base spec is not of this workload's kind"
    return None


def check_peyre6(code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    data = json.loads(out)
    if (data["b0_dim"], data["h3_dim"]) != (0, 1):
        return f"peyre6 (b0_dim, h3_dim) = ({data['b0_dim']}, {data['h3_dim']}), want (0, 1)"
    if data["s3_dec"]["text"] != ["u[1,3,5]"]:
        return f"peyre6 S^3_dec = {data['s3_dec']['text']}, want span{{u[1,3,5]}}"
    return None


def check_agree(code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    data = json.loads(out)
    if not (data["agree"] and data["fast_dim"] == data["brute_dim"]):
        return "fast and brute-force decomposable subgroups differ"
    return None


def check_peyre6_brute(code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    data = json.loads(out)
    if not (data["agree"] and data["fast_dim"] == data["brute_dim"] == 1
            and data["text"] == ["u[1,3,5]"]):
        return "peyre6 degree 3: fast and brute force do not both give span{u[1,3,5]}"
    return None


def check_qz(code: int, out: str, *, orders: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    got = json.loads(out)["qz_orders"]
    if any(got.get(i) != v for i, v in orders.items()):
        return f"|H^i(G, Q/Z)| = {got}, want {orders}"
    return None


def check_lemmas(code: int, out: str, *, failing: set) -> str | None:
    """Exactly the identities in ``failing`` fail, each with a counterexample.

    tau_agree fails at p = 3 (a true result, exit code 2) and holds at p = 5.
    """
    results = json.loads(out)["results"]
    bad = {r["identity"] for r in results if not (r["passed"] or r["skipped"])}
    if bad != failing:
        return f"failing identities {sorted(bad)}, want {sorted(failing)}"
    if any(not r["counterexample"] for r in results if r["identity"] in bad):
        return "a failing identity reports no counterexample"
    want_code = 2 if failing else 0
    return None if code == want_code else f"exit code {code}, want {want_code}"


def check_group(code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    failed = [r["identity"] for r in json.loads(out)["results"] if not r["passed"]]
    return f"group checks failed: {failed}" if failed else None
