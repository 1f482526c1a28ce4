"""Command-line front end: parameter calculator, parameter tables, the
self-verification sweep, and end-to-end retrieval simulation.

Exit codes: 0 success, 2 parse error (also ``TooLarge``), 3 unsupported pair
or zero rate, 4 verification failure (a broken protocol invariant, or an
internal GF(2) or protocol-step error: ``Singular``, ``NoSolution``,
``LengthMismatch``, ``Incomplete``, ``ShapeMismatch``), 5 no schedule
(proved not to exist, or not found within the search budget).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .berman import BermanParams, build
from .checks import iter_verification_cases
from .gf2 import LengthMismatch, NoSolution, Singular
from .pir import (
    Incomplete,
    ProtocolInvariantError,
    ScheduleNotFound,
    SchemeConfig,
    ShapeMismatch,
    UnsupportedPair,
    ZeroRate,
    closed_form_triple,
    derive_scheme,  # noqa: F401  benchmarks/tracer.py patches cli.derive_scheme
    run_retrieval,
    verify_privacy_rank,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_VERIFY_FAILED = 4
EXIT_NO_SCHEDULE = 5

#: Errors a run reports as a verification failure (exit 4): a broken
#: invariant, or a GF(2) or protocol step that met a malformed operand.
PROTOCOL_ERRORS = (ProtocolInvariantError, Singular, NoSolution, LengthMismatch, Incomplete, ShapeMismatch)

#: The published parameter-table layout: (n, m) columns and, per pairing,
#: the (r_C, r_D) rows plus the fixed printing precision.
TABLE_COLUMNS = ((2, 5), (3, 3), (5, 2), (6, 2))
TABLE_LAYOUT = (
    ("ber-dber", "Ber", "DBer", ((0, 0), (1, 0), (1, 1)), 3, "round"),
    ("dber-dber", "DBer", "DBer", ((0, 0), (0, 1), (1, 0)), 2, "trunc"),
    ("dber-ber", "DBer", "Ber", ((0, 0), (0, 1), (1, 1)), 3, "round"),
)


def _fixed_point(value: Fraction, decimals: int, mode: str) -> str:
    """``value`` with exactly ``decimals`` places.

    ``round`` uses round-half-even on the exact rational; ``trunc`` floors.
    """
    scale = 10**decimals
    q, rem = divmod(value.numerator * scale, value.denominator)
    if mode != "trunc" and (2 * rem > value.denominator or (2 * rem == value.denominator and q % 2)):
        q += 1
    whole, frac = divmod(q, scale)
    return f"{whole}.{frac:0{decimals}d}"


def format_rate(value: Fraction, decimals: int, mode: str) -> str:
    """:func:`_fixed_point` with trailing zeros stripped."""
    text = _fixed_point(value, decimals, mode).rstrip("0").rstrip(".")
    return text if text else "0"


def format_rate_fixed(value: Fraction, decimals: int = 3) -> str:
    """Round-half-even to exactly ``decimals`` places, trailing zeros kept."""
    return _fixed_point(value, decimals, "round")


def triple_cell(t: int, r_st: Fraction, r_pir: Fraction, decimals: int, mode: str) -> str:
    return f"({t}, {format_rate(r_st, decimals, mode)}, {format_rate(r_pir, decimals, mode)})"


def build_tables() -> list[dict]:
    """All three pairing tables as cell-string grids."""
    tables = []
    for key, storage_kind, retrieval_kind, pairs, decimals, mode in TABLE_LAYOUT:
        rows = []
        for rc, rd in pairs:
            cells = []
            for n, m in TABLE_COLUMNS:
                storage = BermanParams.parse(f"{storage_kind}({n},{rc},{m})")
                retrieval = BermanParams.parse(f"{retrieval_kind}({n},{rd},{m})")
                t, r_st, r_pir = closed_form_triple(storage, retrieval)
                cells.append(triple_cell(t, r_st, r_pir, decimals, mode))
            rows.append({"pair": f"({rc},{rd})", "cells": cells})
        tables.append(
            {
                "pairing": key,
                "storage_kind": storage_kind,
                "retrieval_kind": retrieval_kind,
                "columns": [f"({n},{m})" for n, m in TABLE_COLUMNS],
                "rows": rows,
            }
        )
    return tables


def render_tables_csv(tables: list[dict]) -> str:
    out = io.StringIO()
    for table in tables:
        out.write(
            f"# pairing={table['pairing']} storage={table['storage_kind']}(n,rC,m) "
            f"retrieval={table['retrieval_kind']}(n,rD,m)\n"
        )
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["(rC,rD)", *table["columns"]])
        for row in table["rows"]:
            writer.writerow([row["pair"], *row["cells"]])
        out.write("\n")
    return out.getvalue()


def render_tables_text(tables: list[dict]) -> str:
    lines = []
    for table in tables:
        lines.append(
            f"storage {table['storage_kind']}(n,rC,m), retrieval {table['retrieval_kind']}(n,rD,m)"
        )
        widths = [max(len(r["cells"][i]) for r in table["rows"]) for i in range(len(table["columns"]))]
        widths = [max(w, len(c)) for w, c in zip(widths, table["columns"])]
        header = "(rC,rD)  " + "  ".join(c.ljust(w) for c, w in zip(table["columns"], widths))
        lines.append(header)
        for row in table["rows"]:
            lines.append(
                f"{row['pair']:<7}  " + "  ".join(c.ljust(w) for c, w in zip(row["cells"], widths))
            )
        lines.append("")
    return "\n".join(lines)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_params(args: argparse.Namespace) -> int:
    storage = BermanParams.parse(args.storage)
    retrieval = BermanParams.parse(args.retrieval)
    t, r_st, r_pir = closed_form_triple(storage, retrieval)
    n_s = storage.length
    if args.format == "json":
        payload = {
            "storage": storage.name,
            "retrieval": retrieval.name,
            "servers": n_s,
            "t": t,
            "R_st": {"exact": f"{r_st.numerator}/{r_st.denominator}", "decimal": format_rate_fixed(r_st)},
            "R_pir": {"exact": f"{r_pir.numerator}/{r_pir.denominator}", "decimal": format_rate_fixed(r_pir)},
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["storage", "retrieval", "servers", "t", "R_st_exact", "R_st", "R_pir_exact", "R_pir"])
        writer.writerow(
            [
                storage.name,
                retrieval.name,
                n_s,
                t,
                f"{r_st.numerator}/{r_st.denominator}",
                format_rate_fixed(r_st),
                f"{r_pir.numerator}/{r_pir.denominator}",
                format_rate_fixed(r_pir),
            ]
        )
        _emit(out.getvalue(), args.out)
    else:
        _emit(
            f"storage={storage.name} retrieval={retrieval.name} servers={n_s}\n"
            f"t={t} R_st={r_st.numerator}/{r_st.denominator} ({format_rate_fixed(r_st)}) "
            f"R_pir={r_pir.numerator}/{r_pir.denominator} ({format_rate_fixed(r_pir)})\n",
            args.out,
        )
    return EXIT_OK


def cmd_tables(args: argparse.Namespace) -> int:
    tables = build_tables()
    if args.format == "json":
        _emit(json.dumps({"tables": tables}, indent=2, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        _emit(render_tables_csv(tables), args.out)
    else:
        _emit(render_tables_text(tables), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cases = list(iter_verification_cases(args.nmax, args.mmax))
    failures = sum(1 for c in cases if not c.ok)
    if args.format == "json":
        lines = []
        for c in cases:
            record = c.record if c.record is not None else {"name": c.name, "detail": c.detail}
            lines.append(json.dumps({"ok": c.ok, **record}, sort_keys=True))
        text = "\n".join(lines) + "\n"
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["status", "name", "detail"])
        for c in cases:
            writer.writerow(["PASS" if c.ok else "FAIL", c.name, c.detail])
        text = out.getvalue()
    else:
        lines = [f"{'PASS' if c.ok else 'FAIL'}  {c.name}" + (f"  [{c.detail}]" if c.detail else "") for c in cases]
        lines.append(f"{len(cases) - failures}/{len(cases)} cases passed")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def cmd_simulate(args: argparse.Namespace) -> int:
    config = SchemeConfig(
        storage=BermanParams.parse(args.storage),
        retrieval=BermanParams.parse(args.retrieval),
        files=args.files,
        seed=args.seed,
    )
    transcript = run_retrieval(config, demand=0)
    privacy_ok = verify_privacy_rank(build(config.retrieval), transcript.t, seed=config.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(transcript.iter_json())
    summary = {
        "storage": config.storage.name,
        "retrieval": config.retrieval.name,
        "files": config.files,
        "seed": config.seed,
        "demand": transcript.demand,
        "servers": config.storage.length,
        "t": transcript.t,
        "b": transcript.b,
        "S": transcript.s_iterations,
        "reconstructed_ok": transcript.reconstructed_ok,
        "achieved_rate": format_rate_fixed(transcript.achieved_rate),
        "theoretical_rate": format_rate_fixed(transcript.r_pir),
        "privacy_rank_ok": privacy_ok,
    }
    if args.format == "json":
        if args.out:
            sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        else:
            sys.stdout.writelines(transcript.iter_json())
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(list(summary))
        writer.writerow([summary[k] for k in summary])
        sys.stdout.write(out.getvalue())
    else:
        sys.stdout.write(
            f"pair={summary['storage']}/{summary['retrieval']} files={summary['files']} "
            f"seed={summary['seed']} demand={summary['demand']}\n"
            f"servers={summary['servers']} t={summary['t']} b={summary['b']} S={summary['S']}\n"
            f"reconstructed_ok={summary['reconstructed_ok']} "
            f"achieved_rate={summary['achieved_rate']} theoretical={summary['theoretical_rate']}\n"
            f"privacy_rank_ok={summary['privacy_rank_ok']} (t={summary['t']})\n"
            + (f"transcript written to {args.out}\n" if args.out else "")
        )
        if not args.out:
            sys.stdout.writelines(transcript.iter_json())
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bermanpir",
        description="Berman-family codes, their star products, and a colluding-server PIR simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", metavar="PATH", default=None)

    p_params = sub.add_parser("params", help="compute (t, R_st, R_pir) for a code pair")
    p_params.add_argument("--storage", required=True, metavar="SPEC")
    p_params.add_argument("--retrieval", required=True, metavar="SPEC")
    add_common(p_params)
    p_params.set_defaults(func=cmd_params)

    p_tables = sub.add_parser("tables", help="emit the parameter tables for the three pairings")
    add_common(p_tables)
    p_tables.set_defaults(func=cmd_tables)

    p_verify = sub.add_parser("verify", help="run the structural self-verification sweep")
    p_verify.add_argument("--nmax", type=int, default=3)
    p_verify.add_argument("--mmax", type=int, default=3)
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="run one seeded retrieval end to end")
    p_sim.add_argument("--storage", required=True, metavar="SPEC")
    p_sim.add_argument("--retrieval", required=True, metavar="SPEC")
    p_sim.add_argument("--files", type=int, default=1, metavar="M")
    p_sim.add_argument("--seed", type=int, default=0)
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def _error_json(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnsupportedPair, ZeroRate) as exc:
        sys.stderr.write(_error_json(exc))
        return EXIT_UNSUPPORTED
    except ScheduleNotFound as exc:
        sys.stderr.write(_error_json(exc))
        return EXIT_NO_SCHEDULE
    except PROTOCOL_ERRORS as exc:
        sys.stderr.write(_error_json(exc))
        return EXIT_VERIFY_FAILED
    except ValueError as exc:
        sys.stderr.write(_error_json(exc))
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
