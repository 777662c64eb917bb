"""Command-line workbench.

Subcommands build constructions, dump spectra and ANFs, verify saved
function files, and replay the verification suites.  Artifact outputs
(gen, spectrum, anf, dual, orbits) are byte-deterministic; report outputs
carry timings and are meant for humans or logs.  A handler returns its
output, as chunks of ASCII text, with its exit code; `main` alone writes the
chunks, to the `--out` file or stdout, so a refused command writes no file.

Exit codes: 0 success, 1 a verification or replay failed, 2 bad command
line, 3 capacity limit, 4 invalid construction parameters, 5 unreadable
or malformed input file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .core import (
    BitVector,
    BooleanFunction,
    CapacityError,
    DEFAULT_MAX_N,
    InvalidSpecError,
    NotBentError,
    TEXT_BLOCK,
    anf_from_truth_table,
    max_n,
    set_max_n,
)
from .spectra import dual, nega_transform, walsh_transform
from .subspaces import E_SYMBOLS, SET_SHAPES, GammaSpec, orbit_representatives
from .constructions import (
    FAMILIES,
    construct,
    family_of,
    normalize_family,
    spec_from_dict,
    function_file_dict,
)
from .oracle import (
    CheckResult,
    SU_CASES,
    VerificationReport,
    check_reference_case,
    check_su_conditions,
    check_table1,
    verify_construction,
    verify_fragmentary_lemma,
)
from .reference import REFERENCE_CASES

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_SPEC = 4
EXIT_FILE = 5

_FILE_KEYS = ("n", "family", "params", "tt_hex", "anf", "dual_tt_hex",
              "predicts_max_degree")


class _InputFileError(Exception):
    pass


def _json_line(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _report_text(report: VerificationReport) -> str:
    lines = [f"{report.subject}: {'PASS' if report.passed else 'FAIL'} "
             f"({report.elapsed_ms:.1f} ms)"]
    for c in report.checks:  # a pass carries details, a failure its counterexample
        tail = f": {c.details}" if c.details else "" if c.passed else f" [{c.counterexample}]"
        lines.append(f"  {'ok  ' if c.passed else 'FAIL'} {c.name}{tail}")
    return "\n".join(lines) + "\n"


def _reported(reports, fmt: str, text=_report_text) -> tuple[list[str], int]:
    """One report's output and exit code, or a list's, which JSON gives as one
    {"passed", "reports"} object; `text` renders a report as text.  The exit
    code is 1 unless every report passed."""
    group = reports if isinstance(reports, list) else [reports]
    passed = all(r.passed for r in group)
    if fmt != "json":
        out = "".join(map(text, group))
    else:
        out = _json_line({"passed": passed, "reports": [r.to_dict() for r in group]}
                         if group is reports else reports.to_dict())
    return [out], EXIT_OK if passed else EXIT_FAILED


# ---------------------------------------------------------------------------
# spec assembly from flags


def _add_spec_options(sp: argparse.ArgumentParser, with_infile: bool = True) -> None:
    sp.add_argument("--family", help=f"construction family ({', '.join(FAMILIES)})")
    sp.add_argument("--k", type=int, help="size parameter k")
    sp.add_argument("--gamma", action="append", default=[], metavar="BITS",
                    help="gamma vector as a bit string, character j = coordinate j; "
                         "repeat for several")
    sp.add_argument("--eset", action="append", default=[], choices=list(E_SYMBOLS),
                    help="E symbol per gamma for H4K2/H8K2 (B = both values)")
    sp.add_argument("--p", action="append", default=[], metavar="BITS",
                    help="orbit representative for F2RS; repeat for several")
    sp.add_argument("--a-set", dest="a_set", action="append", default=[], metavar="BITS",
                    help="orbit-sum vector for F2RS_SET; repeat for several")
    if with_infile:
        sp.add_argument("--in", dest="infile", metavar="FILE",
                        help="read the function from a saved JSON file instead")


def _spec_from_args(args) -> tuple[str, object]:
    """Gather the spec flags into a params object and parse it the way a
    function file's params are parsed."""
    if not args.family:
        raise InvalidSpecError("--family is required without --in")
    fam = family_of(args.family)
    if args.k is None:
        raise InvalidSpecError("--k is required without --in")
    key = fam.params_key
    if key == "gamma" and len(args.gamma) != 1:
        raise InvalidSpecError(f"{fam.name} takes exactly one --gamma")
    params = {"k": args.k}
    # a flag fills its params key (--gamma the gammas list or the single-orbit
    # gamma), or its own name where the family reads no such key, which
    # spec_from_dict then refuses by that name
    for flag, fills, values in (("--gamma", "gamma" if key == "gamma" else "gammas", args.gamma),
                                ("--p", "p", args.p), ("--a-set", "a_set", args.a_set),
                                ("--eset", "esets", args.eset)):
        if values or fills == key:
            params[fills if fills in fam.param_keys else flag] = (
                values[0] if fills == "gamma" else values)
    return fam.name, spec_from_dict(fam.name, params)


def _load_record(args) -> dict:
    """The --in record, which is the whole spec: a spec flag beside it is
    refused before the file is read."""
    flags = ("--family", "--k", "--gamma", "--eset", "--p", "--a-set")
    given = [f for f in flags if getattr(args, f[2:].replace("-", "_")) not in (None, [])]
    if given:
        raise InvalidSpecError(f"--in is the whole spec; drop {', '.join(given)}")
    path = args.infile
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _InputFileError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise _InputFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _InputFileError(f"{path}: expected a JSON object")
    missing = [key for key in _FILE_KEYS if key not in data]
    if missing:
        raise _InputFileError(f"{path}: missing keys {', '.join(missing)}")
    return data


def _field(data: dict, key: str, kind: type):
    """data[key], which must be a JSON value of `kind`: no coercion, and a bool is no int."""
    value = data[key]
    if type(value) is not kind:
        raise _InputFileError(f"field {key} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _function_from_file(data: dict) -> BooleanFunction:
    try:
        return BooleanFunction.from_hex(_field(data, "n", int), _field(data, "tt_hex", str))
    except (TypeError, ValueError) as exc:
        raise _InputFileError(f"bad truth table: {exc}") from exc


def _resolve_function(args) -> BooleanFunction:
    if args.infile:
        return _function_from_file(_load_record(args))
    family, spec = _spec_from_args(args)
    return construct(family, spec).function


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(args) -> tuple[Iterable, int]:
    family, spec = _spec_from_args(args)
    return [_json_line(function_file_dict(construct(family, spec)))], EXIT_OK


def _text_difference(key: str, text: str, closed: str) -> Optional[str]:
    """None when a record's text field equals the closed form's text, else
    the first character where they differ ('' past an end)."""
    if text == closed:
        return None
    i = len(os.path.commonprefix((text, closed)))
    return f"at {key}[{i}]: file {text[i:i + 1]!r} != closed form {closed[i:i + 1]!r}"


def _cmd_verify(args) -> tuple[Iterable, int]:
    if args.infile:
        data = _load_record(args)
        try:
            family = normalize_family(str(data["family"]))
            rebuilt = construct(family, spec_from_dict(family, data["params"]))
        except ValueError as exc:
            raise _InputFileError(f"{args.infile}: {exc}") from exc
        flag = _field(data, "predicts_max_degree", bool)
        anf, dual_hex = _field(data, "anf", str), _field(data, "dual_tt_hex", str)
        fn = _function_from_file(data)
        if fn.n != rebuilt.n:
            return _reported(VerificationReport(
                subject=f"{family} from {args.infile}",
                checks=(CheckResult("file-n-matches-family",
                                    counterexample=f"file n {fn.n} != {rebuilt.n}"),),
                elapsed_ms=0.0), args.format)
        cf = dataclasses.replace(rebuilt, function=fn)
        report = verify_construction(cf)
        flag_bad = (None if flag == cf.predicts_max_degree
                    else f"parity flag {flag} != {cf.predicts_max_degree}")
        extra = [
            CheckResult("file-anf-field-matches-closed-form",
                        counterexample=_text_difference("anf", anf, cf.closed_anf.to_text())),
            CheckResult("file-dual-field-matches-closed-form",
                        counterexample=_text_difference(
                            "dual_tt_hex", dual_hex, cf.closed_dual.to_hex())),
            CheckResult("file-degree-flag-matches-parity", counterexample=flag_bad),
        ]
        report = VerificationReport(
            subject=f"{report.subject} from {args.infile}",
            checks=report.checks + tuple(extra),
            elapsed_ms=report.elapsed_ms)
    else:
        family, spec = _spec_from_args(args)
        report = verify_construction(construct(family, spec))
    return _reported(report, args.format)


@functools.cache  # 256 KiB, built on first use so importing the CLI stays cheap
def _low_hex_digits() -> np.ndarray:
    """Row u is the four hex digits of u < 2^16, as a read-only uint8 table."""
    digits = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
    table = np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    table.setflags(write=False)
    return table


def _distinct(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(col, return_inverse=True), by a table over a short span (no sort)."""
    lo, hi = int(col.min()), int(col.max())
    if hi - lo >= col.size:
        return np.unique(col, return_inverse=True)
    seen = np.zeros(hi - lo + 1, dtype=np.bool_)
    seen[col - lo] = True
    return np.flatnonzero(seen) + lo, (np.cumsum(seen) - 1)[col - lo]


def _spectrum_rows(n: int, start: int, columns: list[np.ndarray]) -> bytearray:
    """Lines start, start + 1, ... of the spectrum text: u in hex, zero-padded to
    (n + 3) // 4 digits, then each column's value in decimal.  A column's distinct
    values are formatted once, then taken into the lines; their NUL padding is dropped."""
    rows, digits = columns[0].shape[0], (n + 3) // 4
    assert start & 0xFFFF == 0 and rows <= 1 << 16  # only the low four hex digits vary
    high = f"{start:0{digits}x}"[:-4].encode()  # the digits above the low four, or b""
    low = _low_hex_digits()[:rows, len(high) - digits:]
    texts = [np.full(rows, high), low.view(f"S{low.shape[1]}")[:, 0]]  # b"": a NUL column
    for i, col in enumerate(columns):
        values, inverse = _distinct(col)
        end = "\n" if i == len(columns) - 1 else ""
        texts.append(np.array([f"\t{v}{end}".encode() for v in values.tolist()]).take(inverse))
    line = np.dtype([(str(i), text.dtype) for i, text in enumerate(texts)])  # packed fields
    lines = bytearray(rows * line.itemsize)
    cells = np.frombuffer(lines, dtype=line)
    for i, text in enumerate(texts):
        cells[str(i)] = text
    return lines.translate(None, b"\0")  # the zero padding dropped


def _cmd_spectrum(args) -> tuple[Iterable, int]:
    fn = _resolve_function(args)
    size = 1 << fn.n
    spectra = []
    if args.kind in ("walsh", "both"):
        spectra.append(walsh_transform(fn))
    if args.kind in ("nega", "both"):
        spectra.append(nega_transform(fn))

    def block_text(lo: int) -> bytearray:  # made as main writes it: the text is never whole
        block = slice(lo, min(lo + TEXT_BLOCK, size))
        return _spectrum_rows(fn.n, lo, [c for s in spectra for c in s.parts(block)])
    return map(block_text, range(0, size, TEXT_BLOCK)), EXIT_OK


def _cmd_anf(args) -> tuple[Iterable, int]:
    return [anf_from_truth_table(_resolve_function(args)).to_text() + "\n"], EXIT_OK


def _cmd_dual(args) -> tuple[Iterable, int]:
    return [dual(_resolve_function(args)).to_hex() + "\n"], EXIT_OK


def _cmd_orbits(args) -> tuple[Iterable, int]:
    reps, lengths = orbit_representatives(args.n)
    tails = np.array([f"\t{l}\n".encode() for l in range(args.n + 1)])  # NUL-padded
    tails = tails.view(np.uint8).reshape(args.n + 1, -1)

    def block_text(at: int) -> bytes:  # a line: the coordinates, then a tail
        rows = reps[at:at + TEXT_BLOCK, None].astype("<u4").view(np.uint8)
        bits = np.unpackbits(rows, axis=1, count=args.n, bitorder="little") + ord("0")
        lines = np.hstack((bits, tails[lengths[at:at + TEXT_BLOCK]]))
        return lines.tobytes().translate(None, b"\0")
    return map(block_text, range(0, reps.size, TEXT_BLOCK)), EXIT_OK


def _cmd_lemma_check(args) -> tuple[Iterable, int]:
    gammas = tuple(BitVector.from_string(s) for s in args.gamma)
    esets = tuple(args.eset) if args.eset else None
    return _reported(verify_fragmentary_lemma(GammaSpec(args.k, args.set_family, gammas, esets)),
                     args.format)


def _cmd_table1(args) -> tuple[Iterable, int]:
    return _reported(check_table1(args.k), args.format)


def _cmd_su_check(args) -> tuple[Iterable, int]:
    return _reported([check_su_conditions(case) for case in SU_CASES], args.format)


def _replay_text(report: VerificationReport) -> str:
    return f"{'PASS' if report.passed else 'FAIL'} {report.subject}\n" + "".join(
        f"  FAIL {c.name}: {c.counterexample}\n" for c in report.failures())


def _cmd_repro_examples(args) -> tuple[Iterable, int]:
    return _reported([check_reference_case(case) for case in REFERENCE_CASES], args.format,
                     _replay_text)


# ---------------------------------------------------------------------------
# parser


def _max_n_arg(text: str) -> int:
    value = int(text)
    if not 1 <= value <= DEFAULT_MAX_N:
        raise argparse.ArgumentTypeError(f"must be between 1 and {DEFAULT_MAX_N}")
    return value


@functools.cache  # parsing keeps it as it was; an append copies its default list
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negabench",
        description="Construct and verify bent-negabent Boolean functions.")
    parser.add_argument("--max-n", type=_max_n_arg, default=DEFAULT_MAX_N,
                        help=f"cap on variable count, 1..{DEFAULT_MAX_N} "
                             f"(default {DEFAULT_MAX_N})")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="build a construction and write its JSON record")
    _add_spec_options(sp, with_infile=False)
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(handler=_cmd_gen)

    sp = sub.add_parser("verify", help="verify a construction or a saved file")
    _add_spec_options(sp)
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("spectrum", help="print a spectrum, one point per line")
    _add_spec_options(sp)
    sp.add_argument("--kind", choices=["walsh", "nega", "both"], default="both")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(handler=_cmd_spectrum)

    sp = sub.add_parser("anf", help="print the algebraic normal form")
    _add_spec_options(sp)
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(handler=_cmd_anf)

    sp = sub.add_parser("dual", help="print the dual's truth table in hex")
    _add_spec_options(sp)
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(handler=_cmd_dual)

    sp = sub.add_parser("orbits", help="list rotation orbit representatives")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(handler=_cmd_orbits)

    sp = sub.add_parser("lemma-check",
                        help="verify the fragment spectrum formulas of one modifier set")
    sp.add_argument("--set", dest="set_family", required=True,
                    help="modifier set family ("
                         f"{', '.join(tag for tag, shape in SET_SHAPES.items() if shape.bound)})")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--gamma", action="append", default=[], metavar="BITS")
    sp.add_argument("--eset", action="append", default=[], choices=list(E_SYMBOLS))
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.set_defaults(handler=_cmd_lemma_check)

    sp = sub.add_parser("table1", help="verify the bent/negabent relation table")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.set_defaults(handler=_cmd_table1)

    sp = sub.add_parser("su-check",
                        help="verify the subspace-modification comparison cases")
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.set_defaults(handler=_cmd_su_check)

    sp = sub.add_parser("repro-examples", help="replay the recorded worked examples")
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.set_defaults(handler=_cmd_repro_examples)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    # the cap holds for this call only; an in-process caller gets its own back
    old_max_n = max_n()
    set_max_n(args.max_n)
    try:
        chunks, code = args.handler(args)
        with open(args.out, "wb") if getattr(args, "out", None) else nullcontext() as fh:
            for chunk in chunks:  # ASCII str or bytes; stdout takes a str as it is
                if fh:
                    fh.write(chunk.encode("ascii") if isinstance(chunk, str) else chunk)
                else:
                    sys.stdout.write(chunk if isinstance(chunk, str) else chunk.decode("ascii"))
                del chunk  # the written block is freed before the next one is made
        return code
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except NotBentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (_InputFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except ValueError as exc:  # InvalidSpecError, DimensionError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    finally:
        set_max_n(old_max_n)


if __name__ == "__main__":
    sys.exit(main())
