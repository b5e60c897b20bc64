"""Command-line frontend for batch verification and exploration.

Exit codes: 0 success, 1 inconclusive (Unknown verdict or failed check),
2 malformed input or a usage error.  :func:`main` returns the code, ``--help``
included, and raises no ``SystemExit``.

:func:`main` may be called repeatedly in one process: the argument parser is
built on the first call and reused, and each call parses into a fresh
namespace, so no call sees another's flags.

The global flags ``--prime``, ``--seed``, ``--trials`` and ``--json`` are
declared once for every parser: unset in the subparsers and defaulted on the
top-level one, so a value after the subcommand wins over one before it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from .core import (_MAX_REPEAT, LinearSystem, SystemParseError, expected_dim, parse_system,
                   virtual_dim)
from .cremona import Move, cremona, replay_transcript, standard_reduce
from .degeneration import (Budget, CertificateError, DegenerationSplit, check_certificate,
                           recursive_dim)
from .neg_curves import find_splittings, hh_dimension
from .oracle import DEFAULT_PRIME, oracle_report
from .tables import (classification_table, classification_to_csv,
                     classification_to_json, hard_cases_csv, known_hard_cases,
                     verify_table)
from .verdict import UNKNOWN


def _parse(text: str) -> LinearSystem:
    try:
        return parse_system(text)
    except SystemParseError as err:
        print(f"error: {err}", file=sys.stderr)
        print(err.caret(), file=sys.stderr)
        raise SystemExit(2)


def _emit(args, payload: dict | list, text_lines: list[str]):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_vdim(args) -> int:
    L = _parse(args.system)
    v, e = virtual_dim(L), expected_dim(L)
    _emit(args, {"system": str(L), "v": v, "e": e},
          [f"system: {L}", f"v: {v}", f"e: {e}"])
    return 0


def _cmd_dim(args) -> int:
    L = _parse(args.system)
    verdict = recursive_dim(L, Budget(prime=args.prime, seed=args.seed, trials=args.trials))
    if args.certificate:
        with open(args.certificate, "w") as fh:
            fh.write(verdict.dumps(indent=2))
    _emit(args, verdict.to_json(),
          [f"system: {L}", f"status: {verdict.status}", f"ell: {verdict.ell}",
           f"v: {virtual_dim(L)}", f"e: {expected_dim(L)}"])
    return 0 if verdict.status != UNKNOWN else 1


def _cmd_classify(args) -> int:
    L = _parse(args.system)
    removal = hh_dimension(L)
    special, ell, steps = removal.trace["special"], removal.ell, removal.trace["steps"]
    payload = {"system": str(L), "special": special, "ell": ell, "v": virtual_dim(L)}
    lines = [f"system: {L}", f"(-1)-special: {special}", f"ell: {ell}"]
    if special:
        residual = removal.trace["residual"]
        payload["witness"] = {"splits": [{"curve": s["curve"], "n": s["n"]} for s in steps],
                              "residual": residual}
        lines.append("splits:")
        lines.extend(f"  {s['n']} x {s['curve']}" for s in steps)
        lines.append(f"residual: {residual} (v = {ell})")  # a special residual has v = ell
    if args.splittings:
        found = find_splittings(L)
        payload["splittings"] = [{"curve": str(s.curve), "intersection": s.intersection}
                                 for s in found]
        lines.append("negative catalog intersections:")
        lines.extend(f"  {s.curve} . L = {s.intersection}" for s in found)
    _emit(args, payload, lines)
    return 0


def transcript(start: LinearSystem, moves: tuple[Move, ...]) -> list[dict]:
    """The JSON form of each move from ``start`` with the canonical systems before
    and after it: the only code that formats an intermediate system."""
    state = start.normalize()
    text, steps = str(state), []
    for move in moves:
        state = replay_transcript((move,), state)
        after = str(state)
        steps.append({**move.to_json(), "before": text, "after": after})
        text = after
    return steps


def _cmd_cremona(args) -> int:
    L = _parse(args.system)
    if args.slots:
        out = cremona(L, *args.slots)
        _emit(args, {"system": str(L), "slots": args.slots, "result": str(out)},
              [f"{L} -> {out}"])
        return 0
    if L.degree > _MAX_REPEAT:  # a reduction prints up to degree + 1 moves
        print(f"error: refusing to reduce a system of degree above {_MAX_REPEAT}",
              file=sys.stderr)
        return 2
    final, moves = standard_reduce(L)
    steps = transcript(L, moves)
    payload = {"system": str(L), "final": str(final), "moves": steps}
    lines = [json.dumps(step, separators=(",", ":")) for step in steps]
    lines.append(f"final: {final}  (e = {expected_dim(final)})")
    _emit(args, payload, lines)
    return 0


def _cmd_degen(args) -> int:
    L = _parse(args.system)
    split = DegenerationSplit(L.normalize(), args.k, args.b)
    parts, dims = split.parts, split.dims
    payload = {"system": str(L), "k": args.k, "b": args.b,
               **{name: str(S) for name, S in parts.items()},
               **{f"v_{name}": v for name, v in dims.items()}}
    _emit(args, payload, [f"{name.replace('_', ' ') + ':':<15}{S}  (v = {dims[name]})"
                          for name, S in parts.items()])
    return 0


def _cmd_oracle(args) -> int:
    if bool(args.system) == bool(args.system_flag):
        print("error: give one system, positionally or with --system", file=sys.stderr)
        return 2
    L = _parse(args.system or args.system_flag)
    report = oracle_report(L, args.seed, args.prime, args.trials)
    print(json.dumps(report, indent=None if args.json else 2))
    return 0


def _cmd_table(args) -> int:
    rows = classification_table(args.e_max)
    if args.action == "generate":
        _emit(args, classification_to_json(rows), classification_to_csv(rows).splitlines())
        return 0
    report = verify_table(rows, args.mode, e_limit=args.e_max,
                          d_cap=args.max_degree, prime=args.prime,
                          seed=args.seed, trials=args.trials)
    lines = []
    for result in report.results:
        status = "FAIL" if not result.passed else "ok" if result.checks else "skip"
        lines.append(f"{status}  {result.system}  [{len(result.checks)} instances]")
        for c in result.checks:
            if not c.passed:
                lines.append(f"      {c.system}: expected {c.expected}, got {c.got}")
                lines.append(f"      reproduce: {c.command}")
    lines.append(f"{'all rows pass' if report.ok else 'FAILURES PRESENT'}")
    _emit(args, {"rows": [asdict(result) for result in report.results], "ok": report.ok},
          lines)
    return 0 if report.ok else 1


def _cmd_hard_cases(args) -> int:
    rows = [{"d_minus_m0": case.offset, "system": case.system, "status": case.status,
             "method": case.method} for case in known_hard_cases()]
    _emit(args, rows, hard_cases_csv().splitlines())
    return 0


def _load_certificate(path: str):
    """The JSON document in ``path``; one with an integer too long to read proves nothing."""
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # the only other: an integer over the interpreter's limit on digits
        raise CertificateError("an integer is too long to read") from None


def _cmd_check_certificate(args) -> int:
    try:
        cert = _load_certificate(args.file)
        check_certificate(cert)
    except CertificateError as err:
        if not args.json:
            print(f"certificate INVALID: {err}", file=sys.stderr)
        _emit(args, {"valid": False, "reason": str(err)}, [])
        return 1
    _emit(args, {"system": cert["system"], "status": cert["status"], "ell": cert["ell"],
                 "valid": True},
          [f"certificate OK: {cert['system']} has status {cert['status']} (ell = {cert['ell']})"])
    return 0


def _global_flags(parser: argparse.ArgumentParser):
    """The flags accepted both before and after the subcommand, unset by default."""
    s = argparse.SUPPRESS
    parser.add_argument("--prime", type=int, default=s,
                        help="characteristic for rank computations")
    parser.add_argument("--seed", type=int, default=s)
    parser.add_argument("--trials", type=int, default=s)
    parser.add_argument("--json", action="store_true", default=s, help="emit one JSON document")


@functools.cache  # built on first use, not at import: argparse set-up costs ~2 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatpoints",
        description="dimensions of linear systems of plane curves with fat points")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vdim", help="virtual and expected dimension")
    p.add_argument("system")
    p.set_defaults(func=_cmd_vdim)

    p = sub.add_parser("dim", help="prove the dimension (classifier, reduction, "
                                   "degenerations, rank oracle)")
    p.add_argument("system")
    p.add_argument("--certificate", metavar="FILE", help="dump the verdict trace")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("classify", help="(-1)-speciality with witness")
    p.add_argument("system")
    p.add_argument("--splittings", action="store_true",
                   help="also list all negative catalog intersections")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("cremona", help="apply one quadratic transformation or reduce")
    p.add_argument("system")
    p.add_argument("--slots", type=int, nargs=3, metavar=("I", "J", "K"),
                   help="transform on these slots; omit to reduce to standard form")
    p.set_defaults(func=_cmd_cremona)

    p = sub.add_parser("degen", help="print a (k,b)-degeneration")
    p.add_argument("system")
    p.add_argument("k", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=_cmd_degen)

    p = sub.add_parser("oracle", help="finite-field rank dimension")
    p.add_argument("system", nargs="?")
    p.add_argument("--system", dest="system_flag", help="system string")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("table", help="generate or verify the classification table")
    p.add_argument("action", choices=["generate", "verify"])
    p.add_argument("--e-max", type=int, default=4)
    p.add_argument("--mode", choices=["formula", "hh", "oracle"], default="formula")
    p.add_argument("--max-degree", type=int, default=26)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("hard-cases", help="print the hard-case regression list")
    p.set_defaults(func=_cmd_hard_cases)

    p = sub.add_parser("check-certificate", help="replay a verdict trace")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_certificate)

    for p in (parser, *sub.choices.values()):
        _global_flags(p)
    parser.set_defaults(prime=DEFAULT_PRIME, seed=0, trials=3, json=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # a usage error (2), --help (0) or a malformed system (2)
        return int(exc.code or 0)
    except (ValueError, OSError, RecursionError) as err:  # too deeply nested JSON
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
