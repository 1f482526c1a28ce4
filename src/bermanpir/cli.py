"""Command-line front end: parameter calculator, parameter tables, the
self-verification sweep, and end-to-end retrieval simulation.

Exit codes: 0 success, 2 parse error (a usage error; ``InvalidInput``: a bad
code name or parameters, or a ``--files``, ``--seed``, ``--demand``,
``--nmax`` or ``--mmax`` out of range; ``TooLarge``; ``MemoryError``; and
output that cannot be written, ``OutputUnwritable``: an ``--out`` path that
fails to open, write or close, or a stdout closed or failing), 3 unsupported
pair or zero rate, 4 verification failure (a broken protocol invariant, an
internal GF(2) or protocol-step error such as ``Singular``,
``LengthMismatch`` or ``ShapeMismatch``, or any other error, a bare
``ValueError`` included).  Exit 5 is retired: it meant "no schedule"
while schedules came from a search, and it is never reused.  Every error is
one JSON object on stderr, if stderr can take it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from fractions import Fraction
from typing import NoReturn, TextIO

from .berman import BermanParams
from .codes import InvalidInput, TooLarge
from .pir import (
    SchemeConfig,
    UnsupportedPair,
    ZeroRate,
    closed_form_triple,
    derive_scheme,
    run_retrieval,
    verify_privacy_rank,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_VERIFY_FAILED = 4


class OutputUnwritable(ValueError):
    """The ``--out`` path cannot be opened or written, or stdout is closed or
    cannot be written (exit 2)."""


#: The exit code of each error class; the first row that matches wins.  An
#: error no row names is a verification failure (exit 4): a broken
#: invariant, a GF(2) or protocol step that met a malformed operand, or a
#: bare ``ValueError``, which only a library fault raises.
EXIT_CODES = (
    ((UnsupportedPair, ZeroRate), EXIT_UNSUPPORTED),
    ((InvalidInput, TooLarge, OutputUnwritable, MemoryError), EXIT_PARSE),
)

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


def _csv_text(rows: Iterable[Sequence[object]]) -> str:
    """``rows`` as CSV, each line ending in a bare newline."""
    import csv  # here, so that only the csv formats load it

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _json_document(payload: object) -> str:
    """``payload`` as indented JSON with sorted keys and a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_tables_csv(tables: list[dict]) -> str:
    parts = []
    for table in tables:
        parts.append(
            f"# pairing={table['pairing']} storage={table['storage_kind']}(n,rC,m) "
            f"retrieval={table['retrieval_kind']}(n,rD,m)\n"
        )
        rows = [[row["pair"], *row["cells"]] for row in table["rows"]]
        parts.append(_csv_text([["(rC,rD)", *table["columns"]], *rows]))
        parts.append("\n")
    return "".join(parts)


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


@contextmanager
def _open_out(path: str) -> Iterator[TextIO]:
    """``path`` open for writing; an OSError on it is an :class:`OutputUnwritable`."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise OutputUnwritable(f"cannot write --out {path!r}: {exc.strerror or exc}") from exc


def _stdout() -> TextIO:
    """``sys.stdout``; the interpreter sets it to ``None`` when it starts with
    fd 1 closed, and that is an unwritable output."""
    if sys.stdout is None:
        raise OutputUnwritable("cannot write stdout: it is closed")
    return sys.stdout


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with _open_out(out_path) as fh:
            fh.write(text)
    else:
        _stdout().write(text)


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
        _emit(_json_document(payload), args.out)
    elif args.format == "csv":
        header = ["storage", "retrieval", "servers", "t", "R_st_exact", "R_st", "R_pir_exact", "R_pir"]
        row = [
            storage.name,
            retrieval.name,
            n_s,
            t,
            f"{r_st.numerator}/{r_st.denominator}",
            format_rate_fixed(r_st),
            f"{r_pir.numerator}/{r_pir.denominator}",
            format_rate_fixed(r_pir),
        ]
        _emit(_csv_text([header, row]), args.out)
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
        _emit(_json_document({"tables": tables}), args.out)
    elif args.format == "csv":
        _emit(render_tables_csv(tables), args.out)
    else:
        _emit(render_tables_text(tables), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .checks import iter_verification_cases  # here, so that only verify loads it

    cases = list(iter_verification_cases(args.nmax, args.mmax))
    failures = sum(1 for c in cases if not c.ok)
    if args.format == "json":
        lines = []
        for c in cases:
            record = c.record if c.record is not None else {"name": c.name, "detail": c.detail}
            lines.append(json.dumps({"ok": c.ok, **record}, sort_keys=True))
        text = "\n".join(lines) + "\n"
    elif args.format == "csv":
        rows = [["PASS" if c.ok else "FAIL", c.name, c.detail] for c in cases]
        text = _csv_text([["status", "name", "detail"], *rows])
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
    if not 0 <= args.demand < config.files:
        raise InvalidInput("demand index out of range")
    # The privacy check runs before the retrieval, so its scratch arrays are
    # freed before the transcript is built; the retrieval reuses the cached
    # derivation.
    derived = derive_scheme(config)
    privacy_ok = verify_privacy_rank(derived.retrieval_code, derived.t)
    transcript = run_retrieval(config, demand=args.demand)
    if args.out:
        with _open_out(args.out) as fh:
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
            _stdout().write(_json_document(summary))
        else:
            _stdout().writelines(transcript.iter_json())
    elif args.format == "csv":
        _stdout().write(_csv_text([list(summary), list(summary.values())]))
    else:
        _stdout().write(
            f"pair={summary['storage']}/{summary['retrieval']} files={summary['files']} "
            f"seed={summary['seed']} demand={summary['demand']}\n"
            f"servers={summary['servers']} t={summary['t']} b={summary['b']} S={summary['S']}\n"
            f"reconstructed_ok={summary['reconstructed_ok']} "
            f"achieved_rate={summary['achieved_rate']} theoretical={summary['theoretical_rate']}\n"
            f"privacy_rank_ok={summary['privacy_rank_ok']} (t={summary['t']})\n"
            + (f"transcript written to {args.out}\n" if args.out else "")
        )
        if not args.out:
            _stdout().writelines(transcript.iter_json())
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one JSON object on stderr (exit 2); its
    subparsers share the class."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_PARSE, _error_json(argparse.ArgumentError(None, message)))


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_sim.add_argument("--demand", type=int, default=0, metavar="I", help="index of the file to retrieve")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def _error_json(exc: Exception) -> str:
    """One JSON object naming the error's class; an :class:`InvalidInput` keeps
    the name it has always been reported by, ``ValueError``."""
    name = "ValueError" if isinstance(exc, InvalidInput) else type(exc).__name__
    return json.dumps({"error": name, "message": str(exc)}, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except OSError as exc:
        # --out reports its own failures and the rest runs in memory, so
        # stdout failed; with it on the null device, as stderr below, the
        # interpreter's final flush of what is left stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        error: Exception = OutputUnwritable(f"cannot write stdout: {exc.strerror or exc}")
    except Exception as exc:
        error = exc
    if sys.stderr is not None:
        try:
            sys.stderr.write(_error_json(error))  # line-buffered: a failed write raises here
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return next((code for classes, code in EXIT_CODES if isinstance(error, classes)), EXIT_VERIFY_FAILED)


if __name__ == "__main__":
    raise SystemExit(main())
