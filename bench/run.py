"""negabench benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload roundtrip-large --seed 1 --seconds 10 --trace 0

Runs the workload's items in one process and one thread, in whole passes,
until --seconds have been measured and the workload's fewest passes made.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it first runs the same
untraced passes, then traced passes with spans around every call into the
negabench modules, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it is a JSON
detail record (provenance, per-check times, construction phases, ...).

The program is imported from src/ next to this directory and never edited.
See bench/README.md for the workloads and metrics.
"""

import time

SETUP_START = time.perf_counter()  # set-up = imports + input generation

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS = BENCH_DIR / "pins.json"
SETUP_REPEATS = 9  # set-ups per run: this process plus eight fresh interpreters
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
# Speed calibration.  Other tenants of the machine change its speed by up to
# 1.7x, in stretches from seconds to minutes, so timings are also given scaled
# to a reference speed: the time of a fixed kernel, sampled while the work
# runs, against the kernel's time on a quiet 2-core x86 host.
CAL_REF_S = 0.00075
CAL_EVERY_S = 0.05  # the kernel is sampled this often while items run
CAL_WINDOW_S = 0.1  # an item is scaled by the samples within this of it
CAL_BASE = 3


def speed_kernel() -> float:
    """Seconds one fixed bigint power, square and hex format take now.  Of
    the kernels tried (interpreter loop, dict updates, small numpy arrays,
    bigints), this one's time tracked the workloads' own slowdowns best."""
    t0 = time.perf_counter()
    x = CAL_BASE ** 20000
    format(x * x, "x")
    return time.perf_counter() - t0


class SpeedSampler:
    """Times `speed_kernel` every CAL_EVERY_S from a SIGALRM handler while a
    pass runs.  The handler's own time is kept out of item latencies; a
    signal that arrives during a long C call is handled when it returns."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter, kernel s)
        self.spent_s = 0.0  # total time spent in the handler
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append((t0, speed_kernel()))
        self.spent_s += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        self._sample(None, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """CAL_REF_S over the mean kernel time sampled within CAL_WINDOW_S of
        [start, end]; the nearest sample when there is none."""
        near = [k for t, k in self.samples
                if start - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return CAL_REF_S / (sum(near) / len(near))


def _import_program():
    """Import negabench from this checkout's src/, or refuse to run."""
    sys.path.insert(0, str(SRC))
    try:
        import negabench
    except ImportError as exc:
        sys.exit(f"error: cannot import negabench from {SRC}: {exc}")
    if not Path(negabench.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: negabench was imported from {negabench.__file__}, not {SRC}")
    import workloads
    return workloads


def _parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and input digest, exit")
    p.add_argument("--write-pins", action="store_true",
                   help="record this run's output digests as the pins for its seed")
    return p.parse_args(argv)


def _inputs_digest(workloads, items) -> str:
    return workloads.sha256(json.dumps([[i.id, i.params] for i in items]))


def _setup_in_child(args) -> tuple[float, str]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["inputs_digest"]


# ---------------------------------------------------------------------------
# passes


class PassResult:
    def __init__(self) -> None:
        self.latencies_s: list[float] = []
        self.scales: list[float] = []  # per item: SpeedSampler.scale over its call
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []
        self.checks_ms: dict[str, float] = {}
        self.checks_run = 0
        self.checks_failed = 0
        self.out_bytes = 0
        self.layers: dict = {}

    @property
    def wall_s(self) -> float:
        return sum(self.latencies_s)

    @property
    def wall_ref_s(self) -> float:
        return sum(t * k for t, k in zip(self.latencies_s, self.scales))


def run_pass(items, reference=None, tracer=None) -> PassResult:
    """Run every item once, back to back.  An item fails when it raises,
    exits non-zero, fails a check, or its output digest differs from
    `reference` (the pins, or the run's first pass)."""
    res = PassResult()
    if tracer is not None:
        tracer.reset()
    spans: list[tuple[float, float]] = []
    with SpeedSampler() as sampler:
        for item in items:
            raised = None
            spent0 = sampler.spent_s
            t0 = time.perf_counter()
            try:
                raw = item.call()
            except Exception:  # an item that raises is counted, not fatal
                raised = traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            spans.append((t0, t1))
            res.latencies_s.append(t1 - t0 - (sampler.spent_s - spent0))
            if raised is not None:
                res.failures.append(f"{item.id}: {raised}")
                continue
            try:
                outcome = item.check(raw)
            except Exception:
                res.failures.append(f"{item.id}: check raised {traceback.format_exc(limit=3)}")
                continue
            res.digests[item.id] = outcome.digest
            res.out_bytes += outcome.out_bytes
            for name, passed, ms in outcome.checks:
                res.checks_ms[name] = res.checks_ms.get(name, 0.0) + ms
                res.checks_run += 1
                res.checks_failed += 0 if passed else 1
            if not outcome.ok:
                res.failures.append(f"{item.id}: {outcome.note}")
            elif reference is not None and reference.get(item.id) != outcome.digest:
                res.failures.append(f"{item.id}: output digest {outcome.digest[:16]} "
                                    f"!= expected {str(reference.get(item.id))[:16]}")
    res.scales = [sampler.scale(t0, t1) for t0, t1 in spans]
    if tracer is not None:
        res.layers = _layer_metrics(tracer, res)
    return res


def run_passes(items, seconds: float, min_passes: int, reference,
               tracer=None) -> list[PassResult]:
    passes: list[PassResult] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(items, reference, tracer))
        if reference is None:
            reference = passes[0].digests
    return passes


def _layer_metrics(tracer, res: PassResult) -> dict:
    from spans import TARGETS, span_name
    m: dict = {}
    for module, path in TARGETS:
        name = span_name(module, path)
        m[f"{name}.calls"] = tracer.calls.get(name, 0)
        m[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
        m[f"{module}.self_s"] = m.get(f"{module}.self_s", 0.0) + m[f"{name}.self_s"]
    m["cli.out_bytes"] = res.out_bytes
    m["core.unpacked_bytes"] = tracer.unpacked_bytes
    m["spectra.butterfly_points"] = tracer.butterfly_points
    m["spectra.transform_calls"] = tracer.transform_calls
    m["spectra.distinct_input_ratio"] = tracer.distinct_input_ratio()
    m["oracle.checks_run"] = res.checks_run
    m["oracle.checks_failed"] = res.checks_failed
    for name, ms in sorted(res.checks_ms.items()):
        m[f"oracle.check.{name}.ms"] = ms
    for name, s in sorted(tracer.phases_s.items()):
        m[f"construct.phase.{name}.s"] = s
    return m


# ---------------------------------------------------------------------------
# metrics


def tail(latencies_ms: list[float]):
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND samples above it, by nearest rank; None with too few."""
    n = len(latencies_ms)
    if n <= TAIL_BEYOND:
        return None
    xs = sorted(latencies_ms)
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, -(-pct * n // 100))  # ceil(pct * n / 100)
    return pct, xs[rank - 1]


def end_to_end(passes: list[PassResult], setups) -> tuple[dict, dict]:
    """Every end-to-end metric of the run, as {name: (value, unit)}.

    `setup_s` is the median set-up.  The `_ref` metrics are scaled to the
    reference speed and take the median pass: the fastest would favour
    items whose speed samples happened to run slow.  The others are as the
    clock read them, and since other tenants only ever add time, an item's
    latency is its fastest pass.  The sample count (and with it the tail
    percentile) is the number of items per pass however many passes ran."""
    lat_ms = [min(lats) * 1000.0 for lats in zip(*(p.latencies_s for p in passes))]
    ref_ms = [statistics.median(t * k for t, k in pairs) * 1000.0
              for pairs in zip(*(zip(p.latencies_s, p.scales) for p in passes))]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_ref_s": (statistics.median(p.wall_ref_s for p in passes), "s"),
        "item_p50_ref_ms": (statistics.median(ref_ms), "ms"),
        "wall_s": (sum(lat_ms) / 1000.0, "s"),
        "item_p50_ms": (statistics.median(lat_ms), "ms"),
    }
    info = {"item_samples": len(lat_ms), "item_ms": lat_ms, "item_ref_ms": ref_ms}
    for name, values in (("item_tail_ref_ms", ref_ms), ("item_tail_ms", lat_ms)):
        t = tail(values)
        if t is not None:
            metrics[name] = (t[1], "ms")
            info["item_tail_percentile"] = t[0]
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    return metrics, info


def per_layer(passes: list[PassResult]) -> tuple[dict, list[str]]:
    """Per-pass layer metrics: times are medians over the traced passes;
    counts must repeat exactly from pass to pass."""
    names = sorted({k for p in passes for k in p.layers})
    out, unsteady = {}, []
    for name in names:
        values = [p.layers.get(name, 0) for p in passes]
        timed = name.endswith((".self_s", ".ms", ".s"))
        if not timed and len(set(values)) > 1:
            unsteady.append(name)
        out[name] = statistics.median(values) if timed else values[0]
    return out, unsteady


def _git_sha():
    """HEAD of the checkout; None when it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args) -> dict:
    import numpy
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in sorted((SRC / "negabench").glob("*.py"))),
    }


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    workloads = _import_program()
    args = _parse_args(argv, workloads.WORKLOADS)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp:
        items = workloads.build_items(args.workload, args.seed, Path(tmp))
        setup_s = time.perf_counter() - SETUP_START
        digest = _inputs_digest(workloads, items)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "inputs_digest": digest}))
            return 0
        return _measure(args, workloads, items, setup_s, digest)


def _measure(args, workloads, items, setup_s: float, digest: str) -> int:
    problems: list[str] = []
    setups = [setup_s]

    def set_up_again(times: int) -> None:
        for _ in range(times):
            child_s, child_digest = _setup_in_child(args)
            setups.append(child_s)
            if child_digest != digest:
                problems.append("the same seed generated different inputs in a fresh process")

    # half the fresh set-ups before the passes and half after, so that one
    # stretch of machine noise does not meet them all
    set_up_again((SETUP_REPEATS - 1) // 2)

    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pinned = pins.get("workloads", {}).get(args.workload)
    reference = pinned if pins.get("seed") == args.seed and not args.write_pins else None
    if reference is not None and set(reference) != {i.id for i in items}:
        problems.append("the pinned item ids differ from this workload's items")

    min_passes = workloads.MIN_PASSES[args.workload]
    passes = run_passes(items, args.seconds, min_passes, reference)
    set_up_again(SETUP_REPEATS - len(setups))
    detail: dict = {"workload": args.workload, "trace": args.trace,
                    "provenance": provenance(args), "items_per_pass": len(items),
                    "pass_wall_s": [p.wall_s for p in passes],
                    "pass_wall_ref_s": [p.wall_ref_s for p in passes],
                    "setup_samples_s": setups,
                    "pinned": reference is not None}
    e2e, info = end_to_end(passes, setups)
    detail.update(info)
    detail["end_to_end"] = {k: value for k, (value, _) in e2e.items()}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(items, args.seconds, min_passes, passes[0].digests, tracer)
        finally:
            tracer.uninstall()
        layers, unsteady = per_layer(traced)
        if unsteady:
            problems.append(f"counts changed between traced passes: {', '.join(unsteady)}")
        overhead = (min(p.wall_ref_s for p in traced) / min(p.wall_ref_s for p in passes)
                    - 1.0)
        detail.update(traced_pass_wall_ref_s=[p.wall_ref_s for p in traced],
                      tracing_overhead=overhead,
                      untraced_targets=tracer.missing, layers=layers)
        passes = passes + traced
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        detail["tracing_overhead"] = None
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": e2e[m["name"]][1]}
                   for m in bench["end_to_end"]}

    attempted = len(items) * len(passes)
    failures = [f for p in passes for f in p.failures]
    detail.update(attempted=attempted, failed=len(failures),
                  failed_ratio=len(failures) / attempted,
                  failures=failures[:20], problems=problems)

    correct = not failures and not problems
    if args.write_pins and correct:
        kept = pins.get("workloads", {}) if pins.get("seed") == args.seed else {}
        pins = {"seed": args.seed, "workloads": {**kept, args.workload: passes[0].digests}}
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes x {len(items)} items, {len(failures)} failed, "
          + ", ".join(f"{k}={value:.6g} {unit}" for k, (value, unit) in e2e.items()))
    for line in failures[:5] + problems:
        print(f"  FAIL {line.strip()}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
