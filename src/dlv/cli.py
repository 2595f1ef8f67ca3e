"""Command-line front end.

Subcommands: ``verify`` (one n), ``sweep`` (an odd range), ``oracle``
(independent check suites), ``pair`` (ad-hoc expression evaluation).
Exit codes: 0 on full success, 1 on usage errors (an ``--out`` path that
cannot be written included), 2 on any failed instance, oracle failure or
schema violation, 3 on an internal error (any other exception, reported
in one line).  A stdout that cannot be written, such as a closed pipe, is
a usage error too.  Each command builds one document, which is written
as JSON or rendered as text.  All numbers print in full; output is
byte-deterministic for identical inputs.  A verification report is verified
while it is written (see :mod:`dlv.pipeline`), and ``sweep`` writes each n's
report before it verifies the next n.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import stat
import sys
import time

from . import __version__
from .constructions import build_tower, check_odd_n
from .errors import DivisorLatticeError, ExprError, InvalidParameter, SchemaViolation
from .lattice import exact_int, format_class
from .pipeline import FAILED, render_report_text, streamed_report
from .schema import OneShotList, checked, document, write_json


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; usage errors here are 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"dlv: error: {message}")


def integer(text: str) -> int:
    """``text`` as an int if it is ASCII digits with an optional leading
    ``-``; ``ValueError`` otherwise.  Unlike ``int``, it takes no other
    Unicode digit, ``_`` or surrounding space."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_odd_range(text: str) -> list[int]:
    usage = _UsageError(
        f"dlv: error: --n-range expects A..B with odd integers 3 <= A <= B, got {text!r}"
    )
    try:
        lo, hi = (check_odd_n(integer(bound)) for bound in text.split(".."))
    except (ValueError, InvalidParameter):
        raise usage from None
    if hi < lo:
        raise usage
    return list(range(lo, hi + 1, 2))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dlv",
        description=(
            "Exact intersection-theory verifier: certifies self-intersection "
            "and section-count claims on a tower of declared surface lattices."
        ),
    )
    parser.add_argument("--version", action="version", version=f"dlv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        p.add_argument("--out", metavar="PATH", help="write the report to this file")

    def add_seed_flag(p):
        # verification is fully deterministic; the flag is accepted everywhere
        # so invocations stay uniform, but only the oracle command uses it
        p.add_argument("--seed", type=integer, default=0, help="randomization seed")

    p_verify = sub.add_parser("verify", help="verify one odd n across its full m range")
    p_verify.add_argument("--n", type=integer, required=True, help="odd integer >= 3")
    which_m = p_verify.add_mutually_exclusive_group()
    which_m.add_argument("--m", type=integer, help="verify a single instance m only")
    which_m.add_argument(
        "--m-max", type=integer, dest="m_max", help="override the certified threshold"
    )
    add_seed_flag(p_verify)
    add_output_flags(p_verify)
    p_verify.set_defaults(run=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="verify every odd n in a range")
    p_sweep.add_argument(
        "--n-range", dest="n_range", required=True, metavar="A..B", help="odd range, step 2"
    )
    add_seed_flag(p_sweep)
    add_output_flags(p_sweep)
    p_sweep.set_defaults(run=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="run the independent check suites")
    p_oracle.add_argument(
        "--n-range", dest="n_range", default="3..99", metavar="A..B",
        help="odd n range for the identity suite (default 3..99)",
    )
    p_oracle.add_argument(
        "--m-max", dest="m_max", type=integer, default=20,
        help="m per n for the identity suite (default 20)",
    )
    p_oracle.add_argument("--trials", type=integer, default=10_000, help="randomized trials")
    add_seed_flag(p_oracle)
    p_oracle.add_argument(
        "--bound", type=integer, default=10, help="coefficient bound for enumeration"
    )
    add_output_flags(p_oracle)
    p_oracle.set_defaults(run=_cmd_oracle)

    p_pair = sub.add_parser("pair", help="evaluate a pairing expression")
    p_pair.add_argument("--n", type=integer, required=True, help="odd integer >= 3")
    p_pair.add_argument(
        "--expr",
        required=True,
        help="expression over F, G, G_n, R, A, L, D and basis labels, "
        "e.g. \"(2*A - R).G_n\"",
    )
    add_output_flags(p_pair)
    p_pair.set_defaults(run=_cmd_pair)
    return parser


def _cannot_write(path: str, exc: OSError) -> _UsageError:
    return _UsageError(f"dlv: error: cannot write {path}: {exc.strerror}")


def _check_out(path: str) -> None:
    """Fail before any work when ``path`` cannot be written.

    Opening for append leaves an existing file's bytes as they are; a file
    the check creates is removed again, so a run that ends without a report
    leaves none behind.
    """
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise _cannot_write(path, exc) from None
    if not existed:
        os.remove(path)


def _write(args, doc: dict) -> None:
    """Write ``doc``, checked as it is built (by :func:`~dlv.schema.checked`), to
    ``args.out`` or stdout: as JSON, or as the text :func:`_text` renders
    from it.  Its parts may be produced only while they are written, as a
    verification report's and a sweep's are.  A write that fails part way
    removes the ``--out`` file it began when that is a regular file."""
    if args.format == "json":
        emit = lambda fh: write_json(doc, fh)
    else:
        emit = lambda fh: fh.writelines(_text(doc))
    if args.out is not None:
        _write_file(args.out, emit)
    else:
        _write_stdout(emit)


def _text(doc: dict):
    """The pieces of the text of ``doc``, in turn; a ``sweep-report`` gives
    one piece per report, taken from its list only when it is written."""
    kind = doc["schema"]
    if kind == "verification-report":
        yield render_report_text(doc)
    elif kind == "sweep-report":
        separator = ""
        for report in doc["reports"]:
            yield separator + render_report_text(report)
            del report  # before the next n is verified
            separator = "\n"
    elif kind == "oracle-run":
        for s in doc["reports"]:
            state = f"{len(s['failures'])} FAILURES" if s["failures"] else "ok"
            yield f"suite {s['suite']}: {s['trials']} trials, {state} (seed {s['seed']})\n"
            yield from (f"  {failure}\n" for failure in s["failures"])
        yield f"total failures: {doc['failures_total']}\n"
    else:  # a pair-result
        yield f"{doc['value']}\n"


def _write_stdout(emit) -> None:
    try:
        emit(sys.stdout)
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe, say: the reader is gone
        with contextlib.suppress(OSError):  # so the flush at exit goes nowhere, quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _cannot_write("stdout", exc) from None


def _write_file(path: str, emit) -> None:
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _cannot_write(path, exc) from None
    try:
        with fh:
            emit(fh)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # never a device such as /dev/null, nor a link
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        if isinstance(exc, OSError):
            raise _cannot_write(path, exc) from None
        raise


def _cmd_verify(args) -> int:
    doc, statuses = streamed_report(args.n, m_max=args.m_max, m=args.m)
    _write(args, doc)
    return 2 if statuses[FAILED] else 0


def _cmd_sweep(args) -> int:
    ns = _parse_odd_range(args.n_range)
    code = 0

    def reports():
        """The document of each n's report, in turn.  Each n is verified
        only while its document is written, once the document of the n
        before it is written and dropped."""
        nonlocal code
        for k, n in enumerate(ns):
            print(f"[{k + 1}/{len(ns)}] n={n} ", end="", file=sys.stderr, flush=True)
            start = time.perf_counter()
            try:
                doc, statuses = streamed_report(n, sweep_index=k)
                yield doc
                del doc
            finally:  # the time it took, or took to fail
                print(f"({time.perf_counter() - start:.2f} s)", file=sys.stderr)
            if statuses[FAILED]:
                # a Failed instance means an internal contradiction (exit 2):
                # keep what was written and abort the rest of the sweep
                code = 2
                print(f"dlv: n={n} failed internal checks; aborting sweep", file=sys.stderr)
                return

    items = reports()
    try:
        doc = document("sweep-report", reports=OneShotList(items))
        checked({**doc, "reports": []})  # its envelope, before the first n is verified
        _write(args, doc)
    finally:  # an n cut short reports its time before the error that cut it
        items.close()
    return code


def _cmd_oracle(args) -> int:
    # imported here, so that no other command loads the suites
    from .oracle import (
        bilinearity_suite,
        check_grid,
        enumeration_check,
        forcing_order_check,
        identity_suite,
        oracle_report_to_dict,
    )

    ns = _parse_odd_range(args.n_range)
    # check every size before the first suite runs, with the suites' own names
    exact_int(args.m_max, "m_max_per_n", 0)
    exact_int(args.trials, "trials", 0)
    tower = build_tower(3)
    check_grid(tower.base_blowup, args.bound)  # the grid of the enumeration check
    suites = [
        identity_suite(ns, m_max_per_n=args.m_max, seed=args.seed),
        bilinearity_suite(trials=args.trials, seed=args.seed),
        forcing_order_check(tower.base_blowup, tower.classes["L"], m_cap=5),
        enumeration_check(tower, m_cap=4, coeff_bound=args.bound),
    ]
    failures_total = sum(len(s.failures) for s in suites)

    doc = document(
        "oracle-run",
        reports=[oracle_report_to_dict(s) for s in suites],
        failures_total=failures_total,
    )
    _write(args, checked(doc))
    return 2 if failures_total else 0


def _cmd_pair(args) -> int:
    from .expr import parse_expr  # imported here, so that no other command loads it

    tower = build_tower(args.n)
    result = parse_expr(args.expr, tower)
    if isinstance(result, int):
        kind, rendered = "pairing", result
    else:
        kind, rendered = "class", format_class(tower.model_of(result), result)
    doc = document("pair-result", n=args.n, expr=args.expr, kind=kind, value=rendered)
    _write(args, checked(doc))
    return 0


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # absent before Python 3.10.7
        sys.set_int_max_str_digits(0)  # numbers print in full, however long
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out is not None:
            _check_out(args.out)
        return args.run(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SchemaViolation as exc:
        print(f"dlv: schema self-validation failed: {exc}", file=sys.stderr)
        return 2
    except ExprError as exc:
        print(f"dlv: expression error: {exc}", file=sys.stderr)
        return 1
    except DivisorLatticeError as exc:
        parser.print_usage(sys.stderr)
        print(f"dlv: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else: one line, never a traceback
        print(f"dlv: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
