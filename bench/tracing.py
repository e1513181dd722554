"""Per-layer spans and counters for the traced run, from outside the program.

Tracer.install() replaces a fixed set of public blockalg functions, in every
blockalg module that holds them, with wrappers that time each call with
perf_counter and count it; uninstall() puts the originals back.  Only the
traced run imports this module.

A layer's self time is its call's duration minus the time of the wrapped
calls it made.  Spans (name, start, end, parent span id) are kept in memory
and written out at the end; past MAX_SPANS only the counters grow, so a long
run cannot exhaust memory.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

from blockalg import core, derivations, harness, isomorphism, lattice, literals

MAX_SPANS = 200_000

# layer name -> (owner object, attribute)
LAYERS = {
    "core.bracket": (core, "bracket"),
    "core.monomial": (core, "monomial"),
    "core.reduce": (core, "reduce"),
    "lattice.coords": (lattice.Lattice, "coords"),
    "harness.simplicity_probe": (harness, "simplicity_probe"),
    "derivations.apply": (derivations, "apply"),
    "isomorphism.psi_apply": (isomorphism, "psi_apply"),
    "isomorphism.decide_iso": (isomorphism, "decide_iso"),
    "isomorphism.moduli_key": (isomorphism, "moduli_key"),
    "literals.parse_element": (literals, "parse_element"),
}

BRACKET = "core.bracket"
PROBE = "harness.simplicity_probe"


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)  # term_products, terms_out, brackets in probes
        self.spans: list[tuple[str, float, float, int]] = []
        self.n_spans = 0
        self._stack: list[list] = []  # [span id, time spent in wrapped children]
        self._probe_depth = 0
        self._originals = {name: getattr(owner, attr) for name, (owner, attr) in LAYERS.items()}
        self._wrappers = {name: self._wrap(name, fn) for name, fn in self._originals.items()}

    # -- patching

    def _sites(self):
        """(holder, attribute, layer) for every place a wrapped function is bound."""
        for name, (owner, attr) in LAYERS.items():
            if isinstance(owner, type):
                yield owner, attr, name
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "blockalg" or mod_name.startswith("blockalg."):
                    for key, val in list(vars(mod).items()):
                        if val is self._originals[name] or val is self._wrappers[name]:
                            yield mod, key, name

    def install(self) -> None:
        for holder, key, name in list(self._sites()):
            setattr(holder, key, self._wrappers[name])

    def uninstall(self) -> None:
        for holder, key, name in list(self._sites()):
            setattr(holder, key, self._originals[name])

    # -- recording

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        stack = self._stack
        sid = self.n_spans
        self.n_spans += 1
        parent = stack[-1][0] if stack else -1
        frame = [sid, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            if sid < MAX_SPANS:
                self.spans.append((name, t0, t1, parent))

    def _wrap(self, name: str, fn):
        tracer = self
        if name == BRACKET:
            def bracket(u, v):
                tracer.counts["term_products"] += len(u.terms) * len(v.terms)
                if tracer._probe_depth:
                    tracer.counts["probe_brackets"] += 1
                out = tracer.call(name, fn, u, v)
                tracer.counts["terms_out"] += len(out.terms)
                return out
            return bracket
        if name == PROBE:
            def probe(*args, **kwargs):
                tracer._probe_depth += 1
                try:
                    return tracer.call(name, fn, *args, **kwargs)
                finally:
                    tracer._probe_depth -= 1
            return probe

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)
        return wrapper

    # -- results

    def snapshot(self) -> dict[str, float]:
        """Counters as flat metric names -> values."""
        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        out[f"{BRACKET}.term_products"] = self.counts.get("term_products", 0)
        out[f"{BRACKET}.terms_out"] = self.counts.get("terms_out", 0)
        out["probe_brackets"] = self.counts.get("probe_brackets", 0)
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "spans_recorded": len(self.spans),
                    "spans_total": self.n_spans,
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                },
                f,
            )
