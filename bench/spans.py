"""Spans around the calls into each negabench module, installed from outside.

The program is not edited: `Tracer.install` replaces each traced public
function with a timing wrapper in every loaded negabench module namespace
that holds it (functions imported by name are rebound too), and each traced
method on its class.  `Tracer.uninstall` puts the originals back.

A span's self time is its duration minus the time its child spans cover.
The counting hooks below run outside every span's timed interval, so their
cost shows only in the traced run's wall time (the tracing overhead).
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Optional

# (module, attribute path) of every traced call; "Class.method" is wrapped on
# the class.  `reference` holds only fixtures and is not traced.
TARGETS: tuple[tuple[str, str], ...] = (
    ("cli", "main"),
    ("core", "BooleanFunction.to_hex"),
    ("core", "BooleanFunction.from_hex"),
    ("core", "BooleanFunction.from_values"),
    ("core", "VectorSet.from_indices"),
    ("core", "BooleanFunction.value_array"),
    ("core", "characteristic_function"),
    ("core", "anf_from_truth_table"),
    ("core", "truth_table_from_anf"),
    ("core", "rotation_symmetry_order"),
    ("subspaces", "build_modifier_set"),
    ("subspaces", "build_T"),
    ("subspaces", "orbit"),
    ("constructions", "construct"),
    ("constructions", "closed_form_anf"),
    ("constructions", "closed_form_dual"),
    ("constructions", "decompose_orbit_sum"),
    ("constructions", "base_function"),
    ("constructions", "function_file_dict"),
    ("spectra", "walsh_transform"),
    ("spectra", "nega_transform"),
    ("spectra", "fragmentary_walsh"),
    ("spectra", "fragmentary_nega"),
    ("spectra", "fragmentary_walsh_spectrum"),
    ("spectra", "fragmentary_nega_spectrum"),
    ("spectra", "dual"),
    ("spectra", "classify"),
    ("oracle", "verify_construction"),
    ("oracle", "verify_fragmentary_lemma"),
    ("oracle", "naive_transforms"),
    ("oracle", "extract_frame_coefficients"),
    ("oracle", "check_table1"),
    ("oracle", "check_su_conditions"),
    ("oracle", "check_reference_case"),
)

# Butterfly passes each spectrum entry point runs over its 2^n table at the
# seed implementation; `spectra.butterfly_points` adds passes * n * 2^n per call.
BUTTERFLY_PASSES = {
    "spectra.walsh_transform": 1,
    "spectra.nega_transform": 2,
    "spectra.fragmentary_walsh_spectrum": 1,
    "spectra.fragmentary_nega_spectrum": 2,
}

CONSTRUCT = "constructions.construct"


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.rsplit('.', 1)[-1]}"


class Tracer:
    """Per-name call counts and self times, plus the computed counts.

    Single-threaded by design: the benchmark runs one thread of work.
    """

    def __init__(self) -> None:
        self._stack: list[list] = []  # frames: [name, time covered by children]
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.phases_s: dict[str, float] = {}
        self.butterfly_points = 0
        self.unpacked_bytes = 0
        self.transform_calls = 0
        self._tables: set = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "negabench" or name.startswith("negabench.")}
        for module, path in TARGETS:
            name = span_name(module, path)
            mod = modules.get(f"negabench.{module}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in vars(owner):
                self.missing.append(name)
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                continue
            wrapped = self._wrap(name, raw)
            if owner_name:
                self._set(owner, attr, wrapped)
                continue
            for other in modules.values():
                if vars(other).get(attr) is raw:
                    self._set(other, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = self._hook_for(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    if parent[0] == CONSTRUCT:
                        self.phases_s[name] = self.phases_s.get(name, 0.0) + dur
            if hook is not None:
                h0 = clock()
                hook(args + tuple(kwargs.values()), result)
                if stack:
                    stack[-1][1] += clock() - h0
            return result

        return traced

    def _hook_for(self, name: str) -> Optional[Callable]:
        if name in BUTTERFLY_PASSES:
            passes = BUTTERFLY_PASSES[name]
            fragmentary = "fragmentary" in name

            def count_transform(args, spectrum) -> None:
                n = spectrum.n
                self.butterfly_points += passes * n * (1 << n)
                self.transform_calls += 1
                self._tables.add((args[0], args[1]) if fragmentary else args[0])

            return count_transform
        if name == "core.value_array":
            def count_unpacked(args, array) -> None:
                self.unpacked_bytes += int(array.nbytes)

            return count_unpacked
        return None

    # -- results -------------------------------------------------------------

    def distinct_input_ratio(self) -> float:
        """Distinct tables transformed / transform calls (1.0 with no calls)."""
        if not self.transform_calls:
            return 1.0
        return len(self._tables) / self.transform_calls
