"""Command-line front end.

Subcommands:
  verify-all   run the acceptance suite, one line per criterion
  torsion      echelon basis of the torsion subgroup for a configuration
  effective    decide one class literal: certificate, reduction, or unresolved
  scan         classify every candidate up to a degree bound
  exc-check    the 15-pair exceptional-collection table

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
141 (128 + SIGPIPE) when standard output is a pipe that the reader closed.
"""
from __future__ import annotations

import argparse
import os
import sys

from .config import config_from_text, standard_config
from .degeneration import DEGENERATE, SMOOTH, exceptional_collection_check
from .effective import (InS, NonEffective, cert_text, decide, scan,
                        trace_text, verdict_text)
from .picard import (GeneratorTable, TableInconsistent, build_generator_table,
                     parse_xclass, table_override_from_text, torsion_subgroup,
                     xclass_to_text)

# Largest n_h (the h-coefficient of the numerical class) that `effective`
# accepts.  The search stops at the asked lift, but a class outside S walks
# all its triples, at most 8 n_h on every class probed; the slowest at n_h =
# 120, such as (120, -1, -119, -1) and (120, -119, 1, 1), take 0.4-0.7 ms of
# search (0.07 s end to end) on a 2-vCPU x86 host with Python 3.11, about
# twofold each time n_h doubles.  The degree is bounded by 3 *
# EFFECTIVE_MAX_NH, the largest degree of a nef class within that budget, as
# the reduction takes one step per unit of degree, about 1-2 us each (0.45 ms
# for a trace of 250 steps at n_h = 120).
EFFECTIVE_MAX_NH = 120


def cmd_verify_all(args) -> int:
    from . import verify  # the acceptance suite loads only for this command
    table = None
    if args.table:
        with open(args.table) as fh:
            override = table_override_from_text(fh.read())
        try:
            table = GeneratorTable(standard_config(6), override)
        except TableInconsistent as exc:
            print(f"[FAIL] generator-table override rejected: {exc}")
            return 1
        print("[ ok ] generator-table override accepted")
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    results = verify.run_all(seed=seed, only=args.only, table=table)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] criterion {r.number:2d} {r.name:24s}"
              f" ({r.seconds:7.2f}s)  {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


def cmd_torsion(args) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = config_from_text(fh.read())
    else:
        cfg = standard_config(args.ksq, args.variant)
    basis = torsion_subgroup(cfg)
    print(f"# torsion basis, K^2={cfg.ksq} variant={cfg.variant}"
          f" (dimension {len(basis)})")
    for v in basis:
        print(f"{v >> 4:02b} {v >> 2 & 3:02b} {v & 3:02b}")
    return 0


def cmd_effective(args) -> int:
    table = build_generator_table(6)
    try:
        # a failed congruence or an exceptional part is a NotARepresentableClass
        x = table.require_k6(parse_xclass(args.cls))
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if x.d > 3 * EFFECTIVE_MAX_NH:
        print(f"usage error: the class has degree {x.d}; the reduction "
              f"accepts degree <= {3 * EFFECTIVE_MAX_NH}", file=sys.stderr)
        return 2
    if x.nh > EFFECTIVE_MAX_NH:
        print(f"usage error: the class has n_h = {x.nh}; the certificate search "
              f"accepts n_h <= {EFFECTIVE_MAX_NH}", file=sys.stderr)
        return 2
    v = decide(table, x)
    print(f"class {xclass_to_text(x)}")
    if isinstance(v, InS):
        print(f"verdict: InS  certificate: {cert_text(v)}")
    elif isinstance(v, NonEffective):
        t = trace_text(v.trace)
        print(f"verdict: NonEffective  base: {v.base}"
              + (f"  trace: {t}" if t else ""))
        print(f"reduced form: {xclass_to_text(v.trace.final)}")
    else:
        print(f"verdict: Unresolved  chi: {v.chi}  note: {v.note}")
    return 0


def cmd_scan(args) -> int:
    table = build_generator_table(6)
    report = scan(table, args.max_degree)
    if args.format == "structured":
        text = report.to_text()
    else:
        c = report.counts()
        lines = [f"scan up to degree {args.max_degree}:"]
        lines.append(f"  candidates {c['candidates']}, minimal-form {c['minimal']}")
        lines.append(f"  in S: {c['in_s']}, non-effective: {c['non_effective']},"
                     f" unresolved: {c['unresolved']}")
        lines.append("  minimal-form classes outside S:")
        for r in report.minimal_non_in_s:
            lines.append(f"    {xclass_to_text(r.x)}  [{verdict_text(r.verdict)}]")
        lines.append("  trusted base cases hit: "
                     + ", ".join(f"{tid} {txt}" for tid, txt in report.trusted_hits))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0 if not report.unresolved else 1


def cmd_exc_check(args) -> int:
    ctx = SMOOTH if args.fiber == "smooth" else DEGENERATE
    report = exceptional_collection_check(ctx)
    sys.stdout.write(report.to_text())
    return 0 if report.all_pass else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="burniat",
        description="Exact verification of Picard-lattice, torsion, "
                    "effective-divisor and exceptional-collection computations "
                    "for Burniat surfaces.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-all", help="run the acceptance suite")
    p.add_argument("--only", default=None, help="run criteria matching a substring")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the randomized property checks")
    p.add_argument("--table", default=None,
                   help="generator-table override file (key-value text)")
    p.set_defaults(fn=cmd_verify_all)

    p = sub.add_parser("torsion", help="torsion basis of a configuration")
    p.add_argument("--ksq", type=int, default=6, help="K^2 of the configuration")
    p.add_argument("--variant", default="plain",
                   help="nodal / non-nodal for K^2=4; default plain")
    p.add_argument("--config", default=None,
                   help="plain-text configuration file (overrides --ksq)")
    p.set_defaults(fn=cmd_torsion)

    p = sub.add_parser("effective", help="decide one class literal")
    p.add_argument("--class", dest="cls", required=True,
                   help="class literal, e.g. '(3; 0 00; 0 00; 0 00)'; its "
                        f"degree must be <= {3 * EFFECTIVE_MAX_NH} and its "
                        f"numerical part must have n_h <= {EFFECTIVE_MAX_NH}")
    p.set_defaults(fn=cmd_effective)

    p = sub.add_parser("scan", help="classify all candidates up to a degree")
    p.add_argument("--max-degree", type=int, required=True,
                   help="largest degree D.(-K) of the candidates, 0..12")
    p.add_argument("--out", default=None, help="write the report to a file")
    p.add_argument("--format", choices=("human", "structured"), default="human")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("exc-check", help="exceptional-collection pair table")
    p.add_argument("--fiber", choices=("smooth", "degenerate"), required=True)
    p.set_defaults(fn=cmd_exc_check)

    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away: stop quietly, as after SIGPIPE, and point
        # stdout at /dev/null so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
