"""Command-line surface.

Exit codes: 0 success, 1 invalid input (a usage error included), a
broken internal invariant or a stdout closed before the output was
written, 2 verification failure (a counterexample was found), 3 resource
guard exceeded.  Codes 1 and 3 come with one stderr line "<label>:
<message>"; errors.py's exception types own both codes and their labels.

Every resource guard is one errors.check_bound, made once, from the
input, before the work it bounds starts; a refusal prints
"guard exceeded: <what> needs <required> > <bound>".
- analyze and oracle decomposables bound the projective lines they sweep
  and the cells of the K^3 generator matrix, in obstruction.spaces.
- oracle decomposables checks the brute-force work (--max-work) right
  after spaces, before any sweep, dec_subgroup or the brute force runs.
- verify-lemmas takes --guard BYTES (or the UNRAMIFIED_GUARD environment
  variable), which bounds the dense cochain tables of every identity;
  every identity is checked before the first runs.
- oracle cohomology bounds the rows of its bar differentials, and
  --allow-heavy raises that bound; a heavy run that runs out of memory
  exits 3 too.  Each differential is eliminated once, over Z/|G|, within
  the float64 modulus bound; --modulus is only checked to be a power of
  p, since its orders are read off those divisors.
- verify-group bounds the bytes of its sampled tier before the first draw.
- Every command bounds a spec's arrays before the loader allocates them.
- Group tables are bounded in bytes wherever they are built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import bar, cochains, obstruction, structure
from .catalog import BUILTINS, builtin
from .errors import GuardExceededError, SpecError, UnramifiedError
from .exterior import render_basis
from .groups import GroupSpec, load_spec, validate_spec
from .linalg import Subspace

EXIT_OK = 0
EXIT_VERIFY_FAILED = 2


def _emit_json(data: dict) -> None:
    print(json.dumps(data, sort_keys=True, separators=(",", ":")))


def _emit_results(args, results, **extra) -> None:
    if args.json:
        _emit_json({"results": [asdict(r) for r in results], **extra})
    else:
        for r in results:
            print(r.line())


def parse_guard(text: str | None) -> int:
    """--guard's BYTES; without it, UNRAMIFIED_GUARD's, read at call time.
    BYTES is read exactly: a whole number below 10^309, as integer text or
    in an exponent form such as 2e8; fractions, nan and inf are refused."""
    if text is None:
        text = os.environ.get("UNRAMIFIED_GUARD")
    if not text:
        return cochains.DEFAULT_GUARD_BYTES
    from decimal import Decimal, InvalidOperation   # only --guard needs it
    try:
        exact = Decimal(text)
        if not (exact.is_finite() and exact == exact.to_integral_value()
                and 0 <= exact < 10 ** 309):
            raise ValueError("not whole BYTES >= 0")
    except (InvalidOperation, ValueError) as exc:
        raise UnramifiedError(f"--guard must be BYTES >= 0, got {text!r}") from exc
    return int(exact)


def _resolve_spec(args) -> GroupSpec:
    if bool(args.builtin) == bool(args.spec):
        raise SpecError("exactly one of --builtin NAME or --spec PATH is required")
    return builtin(args.builtin) if args.builtin else load_spec(args.spec)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line and exit code 1, not argparse's 2."""

    def error(self, message: str):
        raise UnramifiedError(f"{self.prog}: {message}")


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--builtin", help="builtin spec name (see `builtins`)")
    p.add_argument("--spec", help="path to a spec JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _add_no_strict(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-strict", dest="strict", action="store_false",
                   help="run even if gamma is not surjective / has radical")


def cmd_builtins(args) -> int:
    if args.json:
        _emit_json({name: note for name, (_, note) in sorted(BUILTINS.items())})
    else:
        for name, (_, note) in sorted(BUILTINS.items()):
            print(f"{name:12s} {note}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    spec = _resolve_spec(args)
    rep = obstruction.analyze(spec, strict=args.strict)
    if args.json:
        _emit_json({**obstruction.report_to_json_dict(rep), "seed": args.seed})
    else:
        print(obstruction.report_text(rep))
    return EXIT_OK


def cmd_verify_group(args) -> int:
    if args.samples < 1:
        raise UnramifiedError(f"--samples must be >= 1, got {args.samples}")
    spec = _resolve_spec(args)
    radical = validate_spec(spec, strict=args.strict).radical
    results = structure.verify_group_structure(spec, radical, seed=args.seed,
                                               samples=args.samples)
    _emit_results(args, results, seed=args.seed)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def cmd_verify_lemmas(args) -> int:
    spec = _resolve_spec(args)
    gbytes = parse_guard(args.guard)
    for which in cochains.IDENTITIES:       # every guard before any table
        cochains.check_identity_guard(spec, which, gbytes)
    results = [cochains.verify_identity(spec, which, guard_bytes=gbytes)
               for which in cochains.IDENTITIES]
    _emit_results(args, results)
    return EXIT_OK if all(r.passed or r.skipped for r in results) \
        else EXIT_VERIFY_FAILED


def cmd_oracle_cohomology(args) -> int:
    spec = _resolve_spec(args)
    if args.modulus is not None:
        k = 1
        while spec.p ** k < args.modulus:
            k += 1
        if spec.p ** k != args.modulus:
            raise SpecError(f"--modulus must be a positive power of p={spec.p}")
    orders = bar.qz_orders(spec, degmax=args.degree,
                           allow_heavy=args.allow_heavy)
    payload = orders.to_json_dict()
    if args.modulus is not None:
        payload["requested_modulus"] = args.modulus
        payload["mod_orders_requested"] = orders.mod_orders(k)
    if args.json:
        _emit_json(payload)
    else:
        print(f"group {payload['group']}  |G| = {payload['order']}  "
              f"modulus {payload['modulus']}")
        for i in range(1, args.degree + 1):
            print(f"|H^{i}(G, Z/{payload['modulus']})| = "
                  f"{payload['mod_orders'][str(i)]}    "
                  f"|H^{i}(G, Q/Z)| = {payload['qz_orders'][str(i)]}")
        for i, order in payload.get("mod_orders_requested", {}).items():
            print(f"|H^{i}(G, Z/{args.modulus})| = {order}")
    return EXIT_OK


def cmd_oracle_decomposables(args) -> int:
    if args.max_work < 0:
        raise UnramifiedError(f"--max-work must be >= 0, got {args.max_work}")
    spec = _resolve_spec(args)
    deg = args.degree
    sis = [S if i == deg else Subspace.zero(S.p, S.ambient) for i, S in
           zip((2, 3), obstruction.spaces(spec, strict=args.strict)[2])]
    # the brute force first: its work guard refuses before any route runs
    brute = obstruction.dec_subgroup_bruteforce(sis[deg - 2], deg, spec.n,
                                                max_work=args.max_work)
    second = obstruction.dec_subgroup(sis[deg - 2], deg, spec.n)
    fast = obstruction.dec_subgroups(spec, *sis)[deg - 2]  # skips S^j = 0
    agree = fast == second == brute
    text = render_basis(fast.basis, spec.n, deg, spec.p)
    if args.json:
        _emit_json({"degree": deg, "agree": agree,
                    "fast_dim": fast.dim, "brute_dim": brute.dim,
                    "basis": fast.basis.tolist(), "text": text})
    else:
        span = "span{" + ", ".join(text) + "}" if text else "0"
        if agree:
            print(f"fast = brute = {span}")
        else:
            print(f"MISMATCH: fast dim {fast.dim}, dec_subgroup dim "
                  f"{second.dim}, brute dim {brute.dim}")
    return EXIT_OK if agree else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="unramified",
        description="Rationality obstructions for invariant fields of "
                    "p-group central extensions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("builtins", help="list builtin specs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_builtins)

    p = sub.add_parser("analyze", help="run the obstruction pipeline")
    _add_spec_args(p)
    p.add_argument("--seed", type=int, default=0,
                   help='echoed as the "seed" key of --json; '
                        'analyze samples nothing')
    _add_no_strict(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify-group", help="group axioms, exponent, structure")
    _add_spec_args(p)
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    _add_no_strict(p)
    p.add_argument("--samples", type=int, default=100_000,
                   help="sample count above the exhaustive tier")
    p.set_defaults(func=cmd_verify_group)

    p = sub.add_parser("verify-lemmas", help="cochain identity suite")
    _add_spec_args(p)
    p.add_argument("--guard", default=None,
                   help="BYTES; bounds the dense tables")
    p.set_defaults(func=cmd_verify_lemmas)

    po = sub.add_parser("oracle", help="independent ground-truth computations")
    osub = po.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("cohomology", help="bar-resolution cohomology orders")
    _add_spec_args(p)
    p.add_argument("--degree", type=int, default=3, choices=(1, 2, 3))
    p.add_argument("--modulus", type=int, default=None,
                   help="also report |H^i(G, Z/modulus)| (power of p)")
    p.add_argument("--allow-heavy", action="store_true",
                   help="permit the large opt-in eliminations")
    p.set_defaults(func=cmd_oracle_cohomology)

    p = osub.add_parser("decomposables",
                        help="fast vs brute-force decomposable subgroup")
    _add_spec_args(p)
    p.add_argument("--degree", type=int, default=3, choices=(2, 3))
    _add_no_strict(p)
    p.add_argument("--max-work", type=int,
                   default=obstruction.DEFAULT_BRUTE_WORK,
                   help="membership-test budget for the brute force")
    p.set_defaults(func=cmd_oracle_decomposables)

    return ap


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "seed", 0) < 0:    # analyze and verify-group
            raise UnramifiedError(f"--seed must be >= 0, got {args.seed}")
        code = args.func(args)
        sys.stdout.flush()          # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        sys.stdout = open(os.devnull, "w")  # so the flush at exit is silent
        err = UnramifiedError("stdout closed before the output was written")
    except MemoryError:
        err = GuardExceededError("out of memory")
    except UnramifiedError as exc:
        err = exc
    print(f"{err.label}: {err}", file=sys.stderr)
    return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
