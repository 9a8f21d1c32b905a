"""Command-line surface: exit codes, JSON shape, determinism."""

import argparse
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import numpy as np
import pytest

import unramified
from unramified import bar, cochains, exterior, groups, linalg, obstruction, \
    structure
from unramified.catalog import builtin
from unramified.cli import main
from unramified.errors import GuardExceededError
from unramified.groups import spec_to_json_dict
from unramified.linalg import is_prime


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_builtins_lists_required_names(capsys):
    code, out, _ = run(capsys, "builtins")
    assert code == 0
    for name in ("peyre6", "heisenberg3", "heisenberg5", "elem9", "elem27"):
        assert name in out


def test_analyze_peyre6_json(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "peyre6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["b0_dim"] == 0 and data["h3_dim"] == 1
    assert data["brauer_trivial"] and data["degree3_obstruction_nonzero"]
    assert data["s3_dec"]["text"] == ["u[1,3,5]"]
    assert data["verdict"] == ("unramified Brauer group trivial; "
                               "degree-3 unramified obstruction nonzero; "
                               "invariant field NOT rational")


def test_analyze_text_verdict_line(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "peyre6")
    assert code == 0
    assert "invariant field NOT rational" in out
    assert "dim K^3 = 18" in out


def test_analyze_heisenberg(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "heisenberg3", "--json")
    data = json.loads(out)
    assert code == 0 and data["b0_dim"] == 0 and data["h3_dim"] == 0


def test_analyze_bad_spec_file(tmp_path, capsys):
    bad = {"p": 3, "dimU": 3, "dimV": 1,
           "gamma": [{"i": 1, "j": 2, "v": [1]}, {"i": 1, "j": 3, "v": [1]},
                     {"i": 2, "j": 3, "v": [1]}, {"i": 2, "j": 2, "v": [1]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "analyze", "--spec", str(path))
    assert code == 1
    assert "gamma term 4: i<j required" in err


# heisenberg3 as a spec file; each bad case below changes one JSON value
_HEIS = {"p": 3, "dimU": 2, "dimV": 1, "gamma": [{"i": 1, "j": 2, "v": [1]}]}


@pytest.mark.parametrize("argv,spec", [
    (["verify-lemmas", "--builtin", "elem3", "--guard", "abc"], None),
    (["analyze", "--spec", "{tmp}/missing.json"], None),
    (["analyze", "--spec", "{tmp}"], None),
    (["analyze", "--spec", "{tmp}/spec.json"], {"p": 3, "dimU": -2, "dimV": 1}),
    (["analyze", "--spec", "{tmp}/spec.json"], {"p": 3, "dimU": 2, "dimV": -1}),
    (["analyze", "--builtin", "peyre6", "--bogus"], None),
    (["analyze", "--builtin", "peyre6", "--guard", "1"], None),
    (["oracle", "cohomology", "--builtin", "elem3", "--guard", "1"], None),
    (["verify-lemmas", "--builtin", "elem3", "--guard", "1/2"], None),
    (["verify-lemmas", "--builtin", "elem3", "--seed", "1"], None),
    (["oracle", "cohomology", "--builtin", "elem3", "--seed", "1"], None),
    (["oracle", "decomposables", "--builtin", "peyre6", "--seed", "1"], None),
    (["verify-group", "--builtin", "peyre6", "--samples", "-1"], None),
    (["verify-group", "--builtin", "peyre6", "--samples", "0"], None),
    (["verify-group", "--builtin", "peyre6", "--seed", "-1", "--samples",
      "10"], None),
    (["analyze", "--builtin", "peyre6", "--seed", "-1"], None),
    (["verify-lemmas", "--builtin", "elem3", "--guard", "-5"], None),
    (["oracle", "decomposables", "--builtin", "peyre6", "--max-work", "-1"],
     None),
    (["analyze", "--spec", "{tmp}/spec.json"], _HEIS | {"p": 3.9}),
    (["analyze", "--spec", "{tmp}/spec.json"], _HEIS | {"dimU": 2.5}),
    (["analyze", "--spec", "{tmp}/spec.json"],
     _HEIS | {"gamma": [{"i": 1, "j": 2, "v": [1.7]}]}),
    (["analyze", "--spec", "{tmp}/spec.json"], _HEIS | {"dimV": True}),
    (["analyze", "--spec", "{tmp}/spec.json"], _HEIS | {"p": "3"}),
    (["analyze", "--spec", "{tmp}/spec.json"], _HEIS | {"gamma": 5}),
    (["analyze", "--spec", "{tmp}/spec.json"], "[" * 200_000 + "]" * 200_000),
], ids=["guard-abc", "spec-missing", "spec-is-directory", "negative-dimU",
        "negative-dimV", "usage-error", "guard-not-taken",
        "guard-not-taken-cohomology", "guard-seconds", "seed-not-taken-lemmas",
        "seed-not-taken-cohomology", "seed-not-taken-decomposables",
        "samples-negative", "samples-zero", "seed-negative",
        "seed-negative-analyze", "guard-negative",
        "max-work-negative", "float-p", "float-dimU",
        "float-coefficient", "bool-dimV", "string-p", "gamma-not-a-list",
        "nested-too-deep"])
def test_bad_input_exits_1_with_one_stderr_line(tmp_path, capsys, argv, spec):
    # a spec given as a string is written as it is: json.dumps cannot
    # build JSON nested too deep to decode
    if spec is not None:
        (tmp_path / "spec.json").write_text(
            spec if isinstance(spec, str) else json.dumps(spec))
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1, err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "--builtin" in capsys.readouterr().out


def test_broken_invariant_is_typed_and_reported(monkeypatch, capsys):
    from unramified import obstruction
    from unramified.errors import InternalInconsistencyError
    from unramified.linalg import Subspace

    def everything(S):
        return Subspace.from_generators(np.eye(S.ambient, dtype=np.int64),
                                        S.p, S.ambient)

    # S^2 of heisenberg3 is 0, so all of Lambda^2 lies outside it
    monkeypatch.setattr(obstruction, "dec_subgroups",
                        lambda spec, s2, s3: (everything(s2), everything(s3)))
    with pytest.raises(InternalInconsistencyError):
        obstruction.analyze(builtin("heisenberg3"))
    code, out, err = run(capsys, "analyze", "--builtin", "heisenberg3")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: K^2 not inside K^2_max"]


def test_error_types_own_their_exit_code_and_label(monkeypatch, capsys):
    """main reports a package error by the code and label its type
    declares, not by a table of its own."""
    from unramified import cli
    from unramified.errors import UnramifiedError

    class Refusal(UnramifiedError):
        exit_code = 3
        label = "x"

    def refuse(args):
        raise Refusal("no")
    monkeypatch.setattr(cli, "cmd_builtins", refuse)
    monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
    code, out, err = run(capsys, "builtins")
    assert code == 3 and out == ""
    assert err.splitlines() == ["x: no"]


def test_incomplete_pivot_set_is_typed_and_reported(monkeypatch, capsys):
    from unramified import divisors
    from unramified.bar import bar_matrix
    from unramified.errors import InternalInconsistencyError

    real = divisors._unit_pivots

    def corrupted(r, c, v, cols, p, q):
        Tf, pos = real(r, c, v, cols, p, q)
        if Tf.size:             # one entry of T off by one
            Tf[0, 0] = (Tf[0, 0] + 1) % q
        return Tf, pos

    monkeypatch.setattr(divisors, "_unit_pivots", corrupted)
    with pytest.raises(InternalInconsistencyError):
        divisors.elementary_divisors(*bar_matrix(builtin("elem9"), 2, 9), 3, 2)
    code, out, err = run(capsys, "oracle", "cohomology", "--builtin", "elem9",
                         "--degree", "2")
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: a row keeps a unit after reduction by every unit pivot"]


def test_exactly_one_input_source_required(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 1
    code, _, err = run(capsys, "analyze", "--builtin", "peyre6",
                       "--spec", "x.json")
    assert code == 1


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "analyze", "--builtin", "nope")
    assert code == 1 and "unknown builtin" in err


def test_verify_group_heisenberg_exhaustive(capsys):
    code, out, _ = run(capsys, "verify-group", "--builtin", "heisenberg3")
    assert code == 0
    assert "associativity" in out and "FAIL" not in out


def test_verify_group_peyre6_sampled_and_seed_stamped(capsys):
    code, out, _ = run(capsys, "verify-group", "--builtin", "peyre6",
                       "--samples", "5000", "--seed", "11")
    assert code == 0
    assert "seed=11" in out


def _abelian_law(spec, u1, v1, u2, v2):
    """groups.law without its (1/2) gamma term: the group (Z/p)^(n + m)."""
    return (u1 + u2) % spec.p, (v1 + v2) % spec.p


@pytest.mark.parametrize("argv,failed", [
    (("--builtin", "heisenberg3"), [
        "FAIL  commutator_is_gamma  (checked 729)  counterexample: indices (3, 9)",
        "FAIL  derived_equals_im_gamma  (checked 1)  "
        "counterexample: span dim 0 != rank gamma 1",
        "FAIL  center_is_radical_plus_V  (checked 27)  counterexample: index 3"]),
    (("--builtin", "peyre6", "--samples", "2000"), [
        "FAIL  commutator_is_gamma  (checked 2000)  "
        "[sampled, seed=0, samples=2000]  "
        "counterexample: (u, w) = ([2, 1, 1, 0, 0, 0], [0, 1, 2, 2, 1, 0])",
        "FAIL  center_is_radical_plus_V  (checked 1000)  "
        "[sampled, seed=0, samples=2000]  "
        "counterexample: u=[2, 1, 1, 0, 0, 0] is central",
        "FAIL  derived_equals_im_gamma  (checked 2036)  "
        "[sampled, seed=0, samples=2000]  "
        "counterexample: span dim 0 != rank gamma 6"]),
])
def test_verify_group_fails_on_an_abelian_law(monkeypatch, capsys, argv,
                                              failed):
    """Negative control for both tiers: with the law abelian, the
    commutator, derived-group and center checks all fail, on the tables
    (heisenberg3) and on samples (peyre6), since both read the law."""
    monkeypatch.setattr(groups, "law", _abelian_law)
    monkeypatch.setattr(structure, "law", _abelian_law)
    code, out, _ = run(capsys, "verify-group", *argv)
    assert code == 2
    assert [line for line in out.splitlines()
            if line.startswith("FAIL")] == failed


def test_verify_group_rejects_nonstrict_spec(tmp_path, capsys):
    # gamma = 0 with m = 1 fails strict validation: exit 1
    data = {"p": 3, "dimU": 2, "dimV": 1, "gamma": []}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify-group", "--spec", str(path))
    assert code == 1


@pytest.mark.parametrize("p", [2 ** 16 + 1, 10 ** 18 + 3, 10 ** 30])
def test_spec_prime_too_large_exits_1_at_once(tmp_path, capsys, p):
    # checked before trial division, and before a coefficient meets int64
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"p": p, "dimU": 3, "dimV": 1,
                                "gamma": [{"i": 1, "j": 2, "v": [p - 1]}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-group", "--spec", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.splitlines() == [f"invalid spec: p = {p} is too large: "
                                "exact int64 arithmetic needs p < 2^16"]


def test_verify_lemmas_elem9_skips_df_and_reports_tau_gap(capsys):
    code, out, _ = run(capsys, "verify-lemmas", "--builtin", "elem9")
    assert "skipped: requires m >= 1" in out
    # the p = 3 tau agreement gap is reported honestly as a counterexample
    assert "FAIL  tau_agree" in out
    assert code == 2


def test_verify_lemmas_heisenberg5_all_pass(capsys):
    code, out, _ = run(capsys, "verify-lemmas", "--builtin", "heisenberg5")
    assert code == 0
    assert "FAIL" not in out


def test_oracle_cohomology_elem9(capsys):
    code, out, _ = run(capsys, "oracle", "cohomology", "--builtin", "elem9",
                       "--degree", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["qz_orders"]["3"] == 27


def test_oracle_cohomology_guard(capsys):
    code, _, err = run(capsys, "oracle", "cohomology", "--builtin",
                       "heisenberg3", "--degree", "3")
    assert code == 3
    assert "allow_heavy" in err or "heavy" in err


def test_out_of_memory_exits_3_with_one_line(monkeypatch, capsys):
    from unramified import bar

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(bar, "elementary_divisors", out_of_memory)
    code, out, err = run(capsys, "oracle", "cohomology", "--builtin", "elem3",
                         "--degree", "1")
    assert code == 3 and out == ""
    assert err.splitlines() == ["guard exceeded: out of memory"]


@pytest.mark.parametrize("name,guard", [("elem9", "20000"),
                                        ("heisenberg3", "1000")])
def test_verify_lemmas_guard_refuses_before_any_table(monkeypatch, capsys,
                                                      name, guard):
    # each identity's guard is checked before the first identity runs
    def no_tables(*args):
        raise AssertionError("a group table was built before the guard refused")

    monkeypatch.setattr(cochains, "build_tables", no_tables)
    code, out, err = run(capsys, "verify-lemmas", "--builtin", name,
                         "--guard", guard)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("guard exceeded")


def test_oracle_cohomology_explicit_modulus(tmp_path, capsys):
    code, out, _ = run(capsys, "oracle", "cohomology", "--builtin", "elem3",
                       "--degree", "2", "--modulus", "9", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["mod_orders_requested"]["2"] == 3
    # the trivial group: |G| = 1 has no cohomology in positive degree
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"p": 3, "dimU": 0, "dimV": 0}))
    for degree in ("1", "2", "3"):
        code, out, _ = run(capsys, "oracle", "cohomology", "--spec", str(path),
                           "--degree", degree, "--modulus", "9", "--json")
        assert code == 0
        data = json.loads(out)
        ones = {str(i): 1 for i in range(1, int(degree) + 1)}
        assert data["mod_orders"] == data["qz_orders"] == ones
        assert data["mod_orders_requested"] == ones


def test_oracle_cohomology_bad_modulus(capsys):
    code, _, err = run(capsys, "oracle", "cohomology", "--builtin", "elem3",
                       "--degree", "1", "--modulus", "10")
    assert code == 1


@pytest.mark.parametrize("e", [15, 40])
def test_oracle_cohomology_modulus_bound(monkeypatch, capsys, e):
    # the orders at any power of p are read off the divisors over Z/|G|, so
    # a modulus past the float64 elimination bound (256 (q - 1)^2 < 2^53,
    # 3^14 the largest) answers with the orders at |G| = 9, and nothing is
    # eliminated at any other modulus
    real = bar.elementary_divisors
    monkeypatch.setattr(bar, "elementary_divisors", lambda r, c, x, p, k: (
        real(r, c, x, p, k) if k == 2 else pytest.fail(f"eliminated at {k}")))
    code, out, _ = run(capsys, "oracle", "cohomology", "--builtin", "elem9",
                       "--degree", "2", "--modulus", str(3 ** e), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["requested_modulus"] == 3 ** e
    assert data["mod_orders_requested"] == data["mod_orders"] == \
        {"1": 9, "2": 27}


def test_oracle_decomposables_peyre6_degree2(capsys):
    code, out, _ = run(capsys, "oracle", "decomposables", "--builtin",
                       "peyre6", "--degree", "2")
    assert code == 0
    assert out.startswith("fast = brute = span{")


def test_oracle_decomposables_brute_guard(capsys):
    code, _, err = run(capsys, "oracle", "decomposables", "--builtin",
                       "peyre6", "--degree", "3", "--max-work", "1000")
    assert code == 3


def test_json_output_is_deterministic(capsys):
    a = run(capsys, "analyze", "--builtin", "peyre6", "--json", "--seed", "7")
    b = run(capsys, "analyze", "--builtin", "peyre6", "--json", "--seed", "7")
    assert a == b
    c = run(capsys, "verify-group", "--builtin", "peyre6", "--json",
            "--seed", "3", "--samples", "2000")
    d = run(capsys, "verify-group", "--builtin", "peyre6", "--json",
            "--seed", "3", "--samples", "2000")
    assert c == d


def test_guard_env_var_is_honored(monkeypatch, capsys):
    from unramified.cli import build_parser, parse_guard
    monkeypatch.setenv("UNRAMIFIED_GUARD", "12345")
    args = build_parser().parse_args(["verify-lemmas", "--builtin", "elem9"])
    assert parse_guard(args.guard) == 12345
    # oracle cohomology has no byte guard, so the variable does not reach it
    args = build_parser().parse_args(["oracle", "cohomology", "--builtin",
                                      "elem9"])
    assert not hasattr(args, "guard")
    monkeypatch.delenv("UNRAMIFIED_GUARD")
    args = build_parser().parse_args(["verify-lemmas", "--builtin", "elem9"])
    assert parse_guard(args.guard) > 10 ** 8


def test_guard_env_var_is_read_when_the_command_runs(monkeypatch, capsys):
    """The parser is built when unramified.cli is imported, before the
    variable is set: the guard still sees it, and the default is back once
    it is unset."""
    monkeypatch.setenv("UNRAMIFIED_GUARD", "1000")
    code, out, err = run(capsys, "verify-lemmas", "--builtin", "heisenberg3")
    assert code == 3 and out == ""
    assert err.splitlines() == [
        "guard exceeded: identity dh: table bytes needs "
        f"{(8 * 2 + 24) * 27 + 2 ** 16} > 1000"]
    monkeypatch.delenv("UNRAMIFIED_GUARD")
    code, out, err = run(capsys, "verify-lemmas", "--builtin", "heisenberg3")
    assert code != 3 and err == "" and "dh" in out


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_analyze_runs_below_dim_u_4(tmp_path, capsys, n):
    """dim U <= 3, with V = 0 and with gamma the identity on Lambda^2 U:
    C(n, 3) = 0 below 3, and every element of Lambda^2 U and Lambda^3 U is
    decomposable, so S^i_dec = S^i and b0 = h3 = 0."""
    pairs = comb(n, 2)
    for spec in ({"p": 3, "dimU": n, "dimV": 0}, _free_class2_spec(3, n)):
        m = spec["dimV"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "analyze", "--spec", str(path),
                           "--no-strict", "--json")
        assert code == 0
        data = json.loads(out)
        k3 = int(n == 3 and m > 0)
        assert [data[key]["dim"] for key in ("k2", "s2", "s2_dec", "k2_max",
                                             "k3", "s3", "s3_dec", "k3_max")] \
            == [m, pairs - m, pairs - m, m, k3, comb(n, 3) - k3,
                comb(n, 3) - k3, k3]
        assert (data["b0_dim"], data["h3_dim"]) == (0, 0)


def test_parse_guard_formats():
    from unramified.cli import parse_guard
    from unramified.errors import UnramifiedError
    assert parse_guard("2e8") == 200_000_000
    assert parse_guard("1e30") == 10 ** 30
    assert parse_guard("1000") == 1000
    # read exactly: no float rounds a long integer or truncates a fraction
    assert parse_guard("12345678901234567891") == 12345678901234567891
    for text in ("2e8/600", "/9", "1000/", "0.9", "1.5", "2.5e-1", "nan",
                 "inf", "-inf", "1e999999999"):
        with pytest.raises(UnramifiedError):
            parse_guard(text)


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            vars(self)["_read"].add(name)
        return super().__getattribute__(name)


def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, path + (name,))


# one cheap run of each subcommand
_CHEAP_RUNS = {
    ("builtins",): [],
    ("analyze",): ["--builtin", "heisenberg3", "--json"],
    ("verify-group",): ["--builtin", "heisenberg3"],
    ("verify-lemmas",): ["--builtin", "elem3"],
    ("oracle", "cohomology"): ["--builtin", "elem3", "--degree", "1"],
    ("oracle", "decomposables"): ["--builtin", "heisenberg3", "--degree", "2"],
}


def test_every_registered_option_is_read(capsys):
    from unramified.cli import build_parser

    leaves = dict(_leaf_parsers(build_parser()))
    assert set(leaves) == set(_CHEAP_RUNS)
    for path, argv in _CHEAP_RUNS.items():
        args = build_parser().parse_args(list(path) + argv)
        rec = _ReadRecorder(**vars(args), _read=set())
        rec.func(rec)
        capsys.readouterr()
        options = {a.dest for a in leaves[path]._actions
                   if a.option_strings and a.dest != "help"}
        assert options - rec._read == set(), path


def test_oracle_decomposables_peyre6_degree3_headline(capsys):
    code, out, _ = run(capsys, "oracle", "decomposables", "--builtin",
                       "peyre6", "--degree", "3")
    assert code == 0
    assert out.strip() == "fast = brute = span{u[1,3,5]}"


def test_oracle_decomposables_sweeps_only_its_degree(monkeypatch, capsys):
    # the oracle runs analyze's sweep with S^2 = 0 at degree 3, so only the
    # asked degree is swept, and dec_subgroup once as the second route
    sweeps, second = [], []
    real_sweep, real_second = obstruction.dec_subgroups, obstruction.dec_subgroup
    monkeypatch.setattr(obstruction, "dec_subgroups",
                        lambda *a: sweeps.append((a[0].n, a[1].dim))
                        or real_sweep(*a))
    monkeypatch.setattr(obstruction, "dec_subgroup",
                        lambda *a: second.append(a[1]) or real_second(*a))
    code, out, _ = run(capsys, "oracle", "decomposables", "--builtin",
                       "peyre6", "--degree", "3")
    assert code == 0 and out.strip() == "fast = brute = span{u[1,3,5]}"
    assert sweeps == [(6, 0)] and second == [3]


def test_oracle_decomposables_degree2_sweeps_no_degree3(monkeypatch, capsys):
    # peyre6 has S^3 != 0, so a sweep of both degrees would call
    # _cycles_by_line
    monkeypatch.setattr(obstruction, "_cycles_by_line",
                        lambda *a: pytest.fail("degree 3 was swept"))
    code, out, _ = run(capsys, "oracle", "decomposables", "--builtin",
                       "peyre6", "--degree", "2", "--json")
    assert code == 0 and json.loads(out)["agree"] is True


@pytest.mark.parametrize("route", ["dec_subgroups", "dec_subgroup"])
def test_oracle_decomposables_fails_when_any_route_differs(monkeypatch,
                                                           capsys, route):
    """A wrong S_dec from either fast route is a mismatch, exit 2, even
    though the other fast route and the brute force agree."""
    from unramified.linalg import Subspace

    zero = Subspace.zero(3, 20)
    if route == "dec_subgroups":
        real = obstruction.dec_subgroups
        monkeypatch.setattr(obstruction, route,
                            lambda *a: (real(*a)[0], zero))
    else:
        monkeypatch.setattr(obstruction, route, lambda *a: zero)
    code, out, _ = run(capsys, "oracle", "decomposables", "--builtin",
                       "peyre6", "--degree", "3")
    fast, second = (0, 1) if route == "dec_subgroups" else (1, 0)
    assert code == 2
    assert out == (f"MISMATCH: fast dim {fast}, dec_subgroup dim {second}, "
                   "brute dim 1\n")
    code, out, _ = run(capsys, "oracle", "decomposables", "--builtin",
                       "peyre6", "--degree", "3", "--json")
    assert code == 2 and json.loads(out)["agree"] is False


def test_analyze_line_guard_refuses_before_the_sweep(monkeypatch, tmp_path,
                                                    capsys):
    """p = 65521, dim U = 3, S^2 != 0: 65521^2 + 65521 + 1 lines, over the
    bound."""
    for name in ("compute_k3", "dec_subgroups"):
        monkeypatch.setattr(obstruction, name,
                            lambda *a: pytest.fail("got past the guard"))
    (tmp_path / "big.json").write_text(json.dumps(
        {"p": 65521, "dimU": 3, "dimV": 2,
         "gamma": [{"i": 1, "j": 2, "v": [1, 0]},
                   {"i": 1, "j": 3, "v": [0, 1]}]}))
    lines = 65521 ** 2 + 65521 + 1
    for cmd in (["analyze"], ["oracle", "decomposables"]):
        code, out, err = run(capsys, *cmd, "--spec", str(tmp_path / "big.json"))
        assert code == 3 and out == ""
        assert err.splitlines() == [
            f"guard exceeded: analyze: projective lines needs {lines} > "
            f"{obstruction.MAX_LINES}"]


def _free_class2_spec(p, n):
    """gamma = identity on Lambda^2 U: S^2 = S^3 = 0, so no line is swept."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return {"p": p, "dimU": n, "dimV": len(pairs),
            "gamma": [{"i": i, "j": j, "v": [int(t == s) for t in
                                             range(len(pairs))]}
                      for s, (i, j) in enumerate(pairs)]}


# SHA-256 of `analyze --spec spec.json --json` on the free class-2 group at
# p = 3, as printed when compute_k3 still eliminated K^3 for it
_FREE_CLASS2_JSON_SHA256 = {
    4: "b246d0d4251ee1be600bb336cf1aebd261ceb782fd025e4d6d5e6aeac71b37bd",
    5: "11aef158769968c6181bbdc8f3502782a6f4068f7914a46148c9b223bbc67a3a",
    6: "b211dc7b2dc70cf87d8db34df9f497d404e5e1427c32ddc0a356c3e081ef1cc3"}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_analyze_eliminates_no_k3_when_s2_is_zero(monkeypatch, tmp_path,
                                                  capsys, n):
    """dim K^2 = C(n, 2) gives K^3 = Lambda^3 U* and S^2 = S^3 = 0 from
    the rank alone: no elimination runs after validate_spec's, and the
    report is byte for byte the one the elimination gave."""
    monkeypatch.setattr(obstruction, "subspaces", lambda *a, **k: pytest.fail(
        "analyze eliminated K^3"))
    (tmp_path / "spec.json").write_text(json.dumps(_free_class2_spec(3, n)))
    code, out, _ = run(capsys, "analyze", "--spec",
                       str(tmp_path / "spec.json"), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        _FREE_CLASS2_JSON_SHA256[n]


_LINE_SPEC = {"p": 65521, "dimU": 3, "dimV": 2,
              "gamma": [{"i": 1, "j": 2, "v": [1, 0]},
                        {"i": 1, "j": 3, "v": [0, 1]}]}

# (argv, spec file or None, work that must not start, what, required, bound)
GUARDS = {
    "analyze lines": (
        ["analyze"], _LINE_SPEC, [(obstruction, "compute_k3"),
                                  (obstruction, "dec_subgroups")],
        "analyze: projective lines", 65521 ** 2 + 65521 + 1,
        obstruction.MAX_LINES),
    "analyze K^3 cells": (
        ["analyze"], _free_class2_spec(3, 18), [(obstruction, "compute_k3"),
                                                (obstruction, "dec_subgroups")],
        "analyze: K^3 generator cells", 153 * 18 * 816,
        obstruction.MAX_K3_CELLS),
    "oracle decomposables brute force": (
        ["oracle", "decomposables", "--builtin", "peyre6", "--degree", "3",
         "--max-work", "1000"], None,
        [(obstruction, "dec_subgroup"), (obstruction, "_points_in_flags"),
         (obstruction, "_flags_in_subspace"), (obstruction, "dec_subgroups"),
         (obstruction, "kernel_stack")],
        "brute force: membership tests", 364 * 4, 1000),
    "verify-lemmas identity bytes": (
        ["verify-lemmas", "--builtin", "heisenberg3", "--guard", "1000"], None,
        [(cochains, "build_tables")],
        "identity dh: table bytes", (8 * 2 + 24) * 27 + 2 ** 16, 1000),
    "group table bytes": (
        ["verify-lemmas", "--builtin", "peyre6", "--guard", "1e30"], None,
        [(groups, "law")], "group tables at |G| = 531441: bytes",
        8 * 3 ** 24 + (24 << 20), 8 * 2 ** 26 + (24 << 20)),
    "oracle cohomology rows": (
        ["oracle", "cohomology", "--builtin", "heisenberg3", "--degree", "3"],
        None, [(bar, "bar_matrix")],
        "degree 3 at |G| = 27 without allow_heavy: bar rows", 26 ** 4,
        bar.GUARANTEED_ROWS),
    "oracle cohomology heavy rows": (
        ["oracle", "cohomology", "--degree", "3", "--allow-heavy"],
        {"p": 3, "dimU": 4, "dimV": 0}, [(bar, "bar_matrix")],
        "degree 3 at |G| = 81: bar rows", 80 ** 4, bar.HEAVY_ROWS),
    "spec arrays, wide U": (
        ["analyze"], {"p": 3, "dimU": 3000, "dimV": 0},
        [(exterior, "subset_index"), (groups, "form_matrices")],
        "spec arrays at dimU = 3000, dimV = 0: bytes",
        16 * comb(3000, 2) + 2 * 3000 ** 2 + 2 ** 16, groups.MAX_SPEC_BYTES),
    "spec arrays, wide V": (
        ["analyze", "--no-strict"], {"p": 3, "dimU": 3, "dimV": 3_000_000},
        [(exterior, "subset_index"), (groups, "form_matrices")],
        "spec arrays at dimU = 3, dimV = 3000000: bytes",
        8 * 3_000_000 * (3 * 3 + 9 + 1) + 16 * 3 + 2 * 9 + 2 ** 16,
        groups.MAX_SPEC_BYTES),
    "verify-group sample bytes": (
        ["verify-group", "--builtin", "peyre6", "--samples", "10000000"], None,
        [(np.random, "default_rng")], "verify-group: sample bytes",
        8 * 12 * (8 * 10 ** 7 + 5 * 1000 * 6) + 40 * 2 ** 16,
        structure.MAX_SAMPLE_BYTES),
}


@pytest.mark.parametrize("case", GUARDS)
def test_every_guard_refuses_before_its_work(monkeypatch, tmp_path, capsys,
                                             case):
    """Every guard goes through errors.check_bound: exit 3, one stderr line
    "guard exceeded: <what> needs <required> > <bound>", the exception's
    required set, and the work it bounds never started."""
    argv, spec, work, what, required, bound = GUARDS[case]
    if spec is not None:
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        argv = [*argv, "--spec", str(tmp_path / "spec.json")]
    for module, name in work:
        monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail(
            f"{name} ran before the guard refused"))
    seen = []
    real = GuardExceededError.__init__
    monkeypatch.setattr(GuardExceededError, "__init__", lambda self, *a, **k:
                        seen.append(k.get("required")) or real(self, *a, **k))
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.splitlines() == [f"guard exceeded: {what} needs {required} > "
                                f"{bound}"]
    assert seen == [required]


def test_verify_group_runs_on_a_wide_spec(tmp_path, capsys):
    # dim U = 80 loads below the spec-bytes bound and samples below the
    # sample-bytes bound at 100 samples
    (tmp_path / "wide.json").write_text(json.dumps(
        {"p": 3, "dimU": 80, "dimV": 1,
         "gamma": [{"i": 1, "j": 2, "v": [1]}]}))
    code, out, _ = run(capsys, "verify-group", "--spec",
                       str(tmp_path / "wide.json"), "--no-strict",
                       "--samples", "100")
    assert code == 0 and out.count("PASS ") == 7


@pytest.mark.parametrize("argv", [
    ("--builtin", "heisenberg5"),
    ("--builtin", "peyre6", "--samples", "200"),
], ids=["heisenberg5", "peyre6"])
def test_verify_group_eliminates_the_forms_once(monkeypatch, capsys, argv):
    """The radical is the kernel of the (m n) x n stack of gamma's forms:
    validate_spec eliminates it, and both tiers' center checks read it from
    the report, so a run sees that stack once, on the tables (heisenberg5)
    and on samples (peyre6)."""
    spec = builtin(argv[1])
    seen = []
    real = linalg.rref_stack
    monkeypatch.setattr(linalg, "rref_stack",
                        lambda A, *a: seen.append(np.shape(A)) or real(A, *a))
    code, out, _ = run(capsys, "verify-group", *argv)
    assert code == 0 and "FAIL" not in out
    assert seen.count((1, spec.m * spec.n, spec.n)) == 1


@pytest.mark.parametrize("argv,digest", [
    (("--builtin", "heisenberg5"),
     "fb762c32f2f8f750e5168042673ace639ad6f78df806c7437d339a775e50169c"),
    (("--builtin", "peyre6", "--seed", "7", "--samples", "2000"),
     "2e7722d9f7f0ea9fa0a137d33ff9e7cb397255c3a3ec47a47953f3ddd2400595"),
], ids=["heisenberg5", "peyre6"])
def test_verify_group_json_bytes_are_pinned(capsys, argv, digest):
    """SHA-256 of `verify-group --json` stdout on the exhaustive tier
    (heisenberg5) and on the sampled one (peyre6): a change of where a
    check takes its inputs from must not move a byte."""
    code, out, _ = run(capsys, "verify-group", *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name,exit_code,digest", [
    ("heisenberg3", 2,
     "b2b423cab0e6d570de09c681881a687cf119a880cd8896fa942d5e3a2f81744b"),
    ("heisenberg5", 0,
     "539f38164561eba08df03142cd063244c76532509feb797c304ae8a35c2683b2"),
])
def test_verify_lemmas_json_bytes_are_pinned(capsys, name, exit_code, digest):
    """SHA-256 of `verify-lemmas --json` stdout at p = 3, with the recorded
    tau_agree FAIL, and at p = 5: a change of how dh and df read gamma
    must not move a byte."""
    code, out, _ = run(capsys, "verify-lemmas", "--builtin", name, "--json")
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ("analyze", "--builtin", "heisenberg3", "--json"),
    ("analyze", "--builtin", "heisenberg3"),
    ("verify-group", "--builtin", "heisenberg3"),
], ids=["json", "text", "lines"])
def test_closed_stdout_exits_1_with_one_stderr_line(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = main(list(argv))
    # what is left to flush at exit goes to devnull
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: stdout closed before the output was written"]


def test_closed_stdout_pipe_leaves_no_error_at_exit():
    """In a fresh interpreter, on a pipe with no reader: exit 1 and one
    stderr line, and the flush at interpreter exit adds nothing."""
    src = Path(unramified.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "unramified.cli",
                               "analyze", "--builtin", "heisenberg3", "--json"],
                              stdout=w, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: stdout closed before the output was written"]


def test_analyze_loads_no_decimal():
    # only --guard's exact BYTES reading needs decimal, and it imports it
    src = Path(unramified.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from unramified.cli import main; "
         "code = main(['analyze', '--builtin', 'heisenberg3', '--json']); "
         "print('decimal' in sys.modules, file=sys.stderr); sys.exit(code)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == "False\n"


def test_k3_guard_admits_what_the_line_guard_admits():
    """The line guard admits dim U = n while (p^n - 1)/(p - 1) <= MAX_LINES,
    with dim K^2 <= C(n, 2) - 1 as S^2 != 0: at most 77 * 13 * 286 cells,
    at p = 3, n = 13.  With S^2 = 0 the K^3 guard alone admits the free
    class-2 group at p = 3 up to n = 17."""
    most = 0
    for p in filter(is_prime, range(3, 2 ** 16, 2)):
        n = 1
        while (p ** (n + 1) - 1) // (p - 1) <= obstruction.MAX_LINES:
            n += 1
        most = max(most, (comb(n, 2) - 1) * n * comb(n, 3))
    assert most == 77 * 13 * 286 <= obstruction.MAX_K3_CELLS
    assert 136 * 17 * 680 <= obstruction.MAX_K3_CELLS < 153 * 18 * 816


def test_spec_name_does_not_depend_on_the_working_directory(monkeypatch,
                                                            tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "spec.json").write_text(
        json.dumps(spec_to_json_dict(builtin("heisenberg3"))))
    outs = []
    for cwd, path in ((tmp_path, "sub/spec.json"),
                      (tmp_path / "sub", "spec.json")):
        monkeypatch.chdir(cwd)
        for fmt in ([], ["--json"]):
            code, out, _ = run(capsys, "analyze", "--spec", path, *fmt)
            assert code == 0
            outs.append(out)
    assert outs[:2] == outs[2:]
    assert "group: spec.json " in outs[0]
    assert json.loads(outs[1])["name"] == "spec.json"


def test_oracle_cohomology_text_output(capsys):
    code, out, _ = run(capsys, "oracle", "cohomology", "--builtin", "elem3",
                       "--degree", "2")
    assert code == 0
    assert "|H^1(G, Q/Z)| = 3" in out
    assert "|H^2(G, Q/Z)| = 1" in out


@pytest.mark.parametrize("modulus", ["3", "9", "27", "81"])
def test_oracle_cohomology_text_prints_the_requested_orders(capsys, modulus):
    argv = ("oracle", "cohomology", "--builtin", "heisenberg3", "--degree",
            "2", "--modulus", modulus)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    requested = dict(re.findall(
        rf"^\|H\^(\d)\(G, Z/{modulus}\)\| = (\d+)$", out, re.M))
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert requested == {i: str(order) for i, order in
                         json.loads(out)["mod_orders_requested"].items()}
    assert list(requested) == ["1", "2"]


def test_console_script_entry_point():
    # Run, in a fresh interpreter, what the console-script wrapper generated
    # from pyproject.toml's [project.scripts] runs: no installation needed.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")

    src = Path(unramified.__file__).resolve().parents[1]
    with open(src.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["unramified"]
    module, attr = target.split(":")
    wrapper = (f"import sys; sys.argv[0] = 'unramified'; "
               f"from {module} import {attr}; sys.exit({attr}())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", wrapper, "analyze",
                           "--builtin", "heisenberg3", "--json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["h3_dim"] == 0


@pytest.mark.skipif(shutil.which("unramified") is None,
                    reason="unramified console script not installed")
def test_installed_console_script():
    proc = subprocess.run(["unramified", "analyze", "--builtin",
                           "heisenberg3", "--json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    import json as _json
    assert _json.loads(proc.stdout)["h3_dim"] == 0
