"""Seeded inputs and item runners for the three benchmark workloads.

Every workload is a closed loop: one caller runs its items back to back.  The
seed picks parameter values (gamma vectors, E symbols, orbit
representatives) but never how many items there are, their family or their
size, so every seed does the same amount of work.  Where a parameter's value
would change the work (vector weights, orbit sizes, how many gammas take
E = 'B'), the seed only permutes a fixed choice.

An item is one timed call into the program (`call`) and an untimed verdict
on what it returned (`check`).  Program functions are looked up on their
module at call time, so spans installed by `spans.Tracer` are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import negabench
from negabench import cli, constructions, oracle
from negabench.core import BitVector
from negabench.subspaces import GammaSpec
from negabench.constructions import RotationSpec

WORKLOADS = ("roundtrip-large", "sweep-small", "claims-suite")

# Fewest passes per run.  A sweep-small pass is short enough to make three,
# so that the median pass leaves out one slow stretch of the machine, while
# one pass of the others (16-60 s) is all the time budget of a run allows.
MIN_PASSES = {"roundtrip-large": 1, "sweep-small": 3, "claims-suite": 1}

GAMMA_SET = {"G4K": "S1", "G8K": "S2", "H4K2": "S3", "H8K2": "S4"}
GAMMA_LENGTH = {"S1": 2, "S3": 2, "S2": 4, "S4": 4}  # gamma length / k
ROTATION_FLAG = {"F2RS": "--p", "F2RS_SET": "--a-set", "F2RS_ORBIT": "--gamma"}

# roundtrip-large: one record per family shape.  Sizes stop at n = 20: the
# seed program cannot finish an n >= 22 round trip inside one run.
ROUNDTRIP_SHAPES = (("G4K", 5), ("H4K2", 4), ("H8K2", 2), ("G8K", 2),
                    ("F2RS", 4), ("F2RS_SET", 4))
ROUNDTRIP_SPECTRA_MAX_N = 18
FAMILY_N = {"G4K": (4, 0), "G8K": (8, 0), "H4K2": (4, 2), "H8K2": (8, 2),
            "F2RS": (4, 0), "F2RS_SET": (4, 0), "F2RS_ORBIT": (4, 0)}  # n = a*k + b

# sweep-small: (family, k, item count); 24 of the 282 items are at n = 12,
# the largest size that still runs the definitional naive cross-check.
SWEEP_SHAPES = (
    ("G4K", 1, 20), ("G4K", 2, 40), ("G4K", 3, 8),
    ("G8K", 1, 40),
    ("H4K2", 1, 30), ("H4K2", 2, 30),
    ("H8K2", 1, 40),
    ("F2RS", 1, 10), ("F2RS", 2, 24), ("F2RS", 3, 8),
    ("F2RS_SET", 2, 14), ("F2RS_SET", 3, 4),
    ("F2RS_ORBIT", 2, 10), ("F2RS_ORBIT", 3, 4),
)

# claims-suite: (modifier set, k, how many seeded sets, gammas per set).  The
# counts put the median item inside the S3 k=2 / S4 k=1 / table1 k=1 group,
# away from its edges.
LEMMA_SHAPES = (
    ("S1", 1, 2, 2), ("S1", 2, 2, 2), ("S1", 3, 4, 2), ("S1", 4, 1, 2),
    ("S2", 1, 2, 2), ("S2", 2, 1, 2),
    ("S3", 1, 2, 2), ("S3", 2, 8, 2), ("S3", 3, 4, 2), ("S3", 4, 1, 1),
    ("S4", 1, 4, 2), ("S4", 2, 1, 1),
)
TABLE1_KS = (1, 2)

# sweep-small and claims-suite run their independent items in this fixed
# interleaved order, the same for every seed, so each kind of item is spread
# over the pass instead of meeting one stretch of machine noise together.
ORDER_SEED = 0


# ---------------------------------------------------------------------------
# items and their outcomes


@dataclass
class Outcome:
    """Verdict on one item's output; `digest` is what the pins compare."""

    ok: bool
    digest: str = ""
    checks: list = field(default_factory=list)  # (name, passed, elapsed_ms)
    out_bytes: int = 0
    note: str = ""


@dataclass(frozen=True)
class Item:
    id: str
    params: str  # the generated input, for the same-seed-same-inputs check
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def report_outcome(report: dict) -> Outcome:
    """Outcome of one report dict: it passes when every check passes.  The
    digest covers check names and verdicts, not timings."""
    checks = [(c["name"], bool(c["passed"]), float(c["elapsed_ms"]))
              for c in report["checks"]]
    verdicts = sorted((name, passed) for name, passed, _ in checks)
    failed = [name for name, passed, _ in checks if not passed]
    return Outcome(ok=bool(checks) and not failed and bool(report["passed"]),
                   digest=sha256(json.dumps(verdicts)), checks=checks,
                   note=f"failed checks: {', '.join(failed)}" if failed else "")


# ---------------------------------------------------------------------------
# seeded parameter draws (bit strings: character j is coordinate j)


def _bits(value: int, length: int) -> str:
    return "".join("1" if (value >> j) & 1 else "0" for j in range(length))


def _rotations(value: int, length: int) -> set[int]:
    mask = (1 << length) - 1
    return {((value >> s) | (value << (length - s))) & mask for s in range(length)}


def _pair_coset(value: int, length: int) -> int:
    """Label of value's coset of the pair-repetition subspace A_2^(length/2)."""
    return sum(1 << i for i in range(length // 2)
               if ((value >> (2 * i)) ^ (value >> (2 * i + 1))) & 1)


def _draw(rng: random.Random, length: int, count: int, *, weight: Optional[int] = None,
          distinct_cosets: bool = False, rotation: bool = False,
          full_orbits: bool = False, min_weight: int = 0) -> list[int]:
    """`count` vectors of `length` bits, distinct (as cosets or orbits when
    asked), each of the given weight, or at least min_weight."""
    picked: list[int] = []
    labels: set = set()
    while len(picked) < count:
        if weight is None:
            v = rng.randrange(1 << length)
        else:
            v = sum(1 << j for j in rng.sample(range(length), weight))
        if bin(v).count("1") < min_weight:
            continue
        if rotation:
            orbit = _rotations(v, length)
            if full_orbits and len(orbit) != length:
                continue
            label = min(orbit)
        else:
            label = _pair_coset(v, length) if distinct_cosets else v
        if label in labels:
            continue
        labels.add(label)
        picked.append(v)
    return picked


def _esets(rng: random.Random, count: int = 2) -> list[str]:
    """E symbols: '0' or '1' for one gamma; for two, one 'B' and one '0' or
    '1' in seeded order ('B' doubles a cell, so the multiset is fixed)."""
    symbols = ["B", rng.choice("01")][2 - count:]
    rng.shuffle(symbols)
    return symbols


def draw_params(rng: random.Random, family: str, k: int, *,
                fixed_work: bool) -> tuple[list[str], Optional[list[str]]]:
    """Seeded parameters of one construction as bit strings, plus E symbols.

    `fixed_work` pins vector weights and (for the rotation families) full
    orbits, so the large records cost the same for every seed."""
    if family in GAMMA_SET:
        tag = GAMMA_SET[family]
        length = GAMMA_LENGTH[tag] * k
        values = _draw(rng, length, 2, weight=length // 2 if fixed_work else None,
                       distinct_cosets=tag in ("S2", "S4"))
        esets = _esets(rng) if tag in ("S3", "S4") else None
        return [_bits(v, length) for v in values], esets
    length = 2 * k
    if family == "F2RS_ORBIT":
        values = _draw(rng, length, 1, rotation=True, min_weight=2)
    elif fixed_work:
        values = _draw(rng, length, 2, weight=k - 1 if family == "F2RS" else 2,
                       rotation=True, full_orbits=True)
    else:
        values = _draw(rng, length, 2, rotation=True)
    return [_bits(v, length) for v in values], None


def lemma_spec(rng: random.Random, tag: str, k: int, count: int) -> GammaSpec:
    length = GAMMA_LENGTH[tag] * k
    values = _draw(rng, length, count, distinct_cosets=tag in ("S2", "S4"))
    esets = tuple(_esets(rng, count)) if tag in ("S3", "S4") else None
    return GammaSpec(k, tag, tuple(BitVector(length, v) for v in values), esets)


def api_spec(family: str, k: int, vectors: list[str], esets: Optional[list[str]]):
    bvs = tuple(BitVector.from_string(s) for s in vectors)
    if family in GAMMA_SET:
        return GammaSpec(k, GAMMA_SET[family], bvs, tuple(esets) if esets else None)
    return RotationSpec(k, bvs)


def cli_spec_args(family: str, k: int, vectors: list[str],
                  esets: Optional[list[str]]) -> list[str]:
    args = ["--family", family, "--k", str(k)]
    flag = ROTATION_FLAG.get(family, "--gamma")
    for v in vectors:
        args += [flag, v]
    for e in esets or ():
        args += ["--eset", e]
    return args


# ---------------------------------------------------------------------------
# roundtrip-large: the user pipeline through negabench.cli.main


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_failure(code: int, err: str) -> Optional[Outcome]:
    if code != 0:
        return Outcome(ok=False, note=f"exit {code}: {err.strip()[:200]}")
    return None


def _load_record(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _check_spectrum(text: str, n: int) -> Optional[str]:
    """Why the printed spectrum is wrong, or None: one row per point in
    order, |W| = 2^(n/2) and |N|^2 = 2^n everywhere (the records are
    bent-negabent)."""
    rows = text.splitlines()
    if len(rows) != 1 << n:
        return f"{len(rows)} rows, expected {1 << n}"
    walsh, norm = 1 << (n // 2), 1 << n
    for u, row in enumerate(rows):
        cols = row.split("\t")
        if (len(cols) != 4 or int(cols[0], 16) != u or abs(int(cols[1])) != walsh
                or int(cols[2]) ** 2 + int(cols[3]) ** 2 != norm):
            return f"row {u}: {row!r}"
    return None


def roundtrip_items(seed: int, workdir: Path) -> list[Item]:
    rng = random.Random(seed)
    items: list[Item] = []
    for family, k in ROUNDTRIP_SHAPES:
        vectors, esets = draw_params(rng, family, k, fixed_work=True)
        spec_args = cli_spec_args(family, k, vectors, esets)
        record = workdir / f"{family}-k{k}.json"
        label = f"{family} k={k}"
        items.append(_gen_item(label, spec_args, record))
        items.append(_verify_item(label, record, spec_args))
        a, b = FAMILY_N[family]
        if a * k + b <= ROUNDTRIP_SPECTRA_MAX_N:
            items.append(_dual_item(label, record, spec_args))
            items.append(_spectrum_item(label, record, spec_args))
    return items


def _gen_item(label: str, spec_args: list[str], record: Path) -> Item:
    def check(result) -> Outcome:
        code, out, err = result
        failure = _cli_failure(code, err)
        if failure:
            return failure
        data = record.read_bytes()
        return Outcome(ok=True, digest=sha256(data), out_bytes=len(out) + len(data))

    return Item(f"gen {label}", " ".join(spec_args),
                lambda: run_cli(["gen", *spec_args, "--out", str(record)]), check)


def _verify_item(label: str, record: Path, spec_args: list[str]) -> Item:
    def check(result) -> Outcome:
        code, out, err = result
        failure = _cli_failure(code, err)
        if failure:
            return failure
        # out_bytes counts artifacts only: a report's length varies with its timings
        return report_outcome(json.loads(out))

    return Item(f"verify {label}", " ".join(spec_args),
                lambda: run_cli(["verify", "--in", str(record), "--format", "json"]),
                check)


def _dual_item(label: str, record: Path, spec_args: list[str]) -> Item:
    def check(result) -> Outcome:
        code, out, err = result
        failure = _cli_failure(code, err)
        if failure:
            return failure
        # the butterfly dual must equal the record's closed-form dual
        data = _load_record(record)
        ok = data is not None and out == data["dual_tt_hex"] + "\n"
        return Outcome(ok=ok, digest=sha256(out), out_bytes=len(out),
                       note="" if ok else "dual differs from the record's closed form")

    return Item(f"dual {label}", " ".join(spec_args),
                lambda: run_cli(["dual", "--in", str(record)]), check)


def _spectrum_item(label: str, record: Path, spec_args: list[str]) -> Item:
    def check(result) -> Outcome:
        code, out, err = result
        failure = _cli_failure(code, err)
        if failure:
            return failure
        data = _load_record(record)
        problem = "unreadable record" if data is None else _check_spectrum(out, data["n"])
        return Outcome(ok=problem is None, digest=sha256(out), out_bytes=len(out),
                       note=problem or "")

    return Item(f"spectrum {label}", " ".join(spec_args),
                lambda: run_cli(["spectrum", "--in", str(record), "--kind", "both"]),
                check)


# ---------------------------------------------------------------------------
# sweep-small and claims-suite: the library API


def _report_check(report) -> Outcome:
    return report_outcome(report.to_dict())


def sweep_items(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for family, k, count in SWEEP_SHAPES:
        for i in range(count):
            spec = api_spec(family, k, *draw_params(rng, family, k, fixed_work=False))
            items.append(Item(
                f"{family} k={k} #{i}", repr(spec),
                lambda family=family, spec=spec: oracle.verify_construction(
                    constructions.construct(family, spec)),
                _report_check))
    random.Random(ORDER_SEED).shuffle(items)
    return items


def claims_items(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for tag, k, sets, gammas in LEMMA_SHAPES:
        for i in range(sets):
            spec = lemma_spec(rng, tag, k, gammas)
            items.append(Item(f"lemma {tag} k={k} #{i}", repr(spec),
                              lambda spec=spec: oracle.verify_fragmentary_lemma(spec),
                              _report_check))
    for k in TABLE1_KS:
        items.append(Item(f"table1 k={k}", str(k), lambda k=k: oracle.check_table1(k),
                          _report_check))
    for case in oracle.SU_CASES:
        items.append(Item(f"su {case.name}", case.name,
                          lambda case=case: oracle.check_su_conditions(case),
                          _report_check))
    for case in negabench.REFERENCE_CASES:
        items.append(Item(f"reference {case.name}", case.name,
                          lambda case=case: oracle.check_reference_case(case),
                          _report_check))
    random.Random(ORDER_SEED).shuffle(items)
    return items


def build_items(workload: str, seed: int, workdir: Path) -> list[Item]:
    if workload == "roundtrip-large":
        return roundtrip_items(seed, workdir)
    if workload == "sweep-small":
        return sweep_items(seed)
    return claims_items(seed)
