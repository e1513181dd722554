"""The ideal-closure probe behind the simplicity suite (simplicity_probe)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .core import (
    AlgebraError,
    AlgebraSpec,
    BasisIdx,
    Element,
    Span,
    SpecMismatch,
    bracket_scaled,
    enumerate_window,
    index_key,
    is_quotiented,
)

_BOX_PAD = 1  # working-box margin around the target window


class ZeroSeed(AlgebraError):
    pass


@dataclass(frozen=True)
class ReachedFullWindow:
    rounds: int
    dim: int


@dataclass(frozen=True)
class Inconclusive:
    missing: tuple[BasisIdx, ...]
    dim: int


def simplicity_probe(
    spec: AlgebraSpec,
    seed_element: Element,
    k_bound: int,
    level_cap: int,
    depth: int,
) -> Union[ReachedFullWindow, Inconclusive]:
    """One-sided ideal-closure probe.

    Grows the span of the ideal generated by seed_element by bracketing with
    window basis elements, up to `depth` rounds.  Intermediate vectors whose
    support leaves the working box (coefficients |k| <= k_bound + pad,
    level <= level_cap + pad) are discarded whole, which keeps the probe
    sound.  The drop is decided before the box part is summed: each table
    run keeps its terms past the box apart, and a bracket is dropped exactly
    when the sum of those parts over the vector's columns has a nonzero
    entry (terms of two columns can cancel there).  A stall in the narrow
    box escalates once to a wider box: some window corners are only
    reachable through intermediates just outside it.

    Each bracket is computed in integers, with monomial structure constants
    from core.bracket_scaled at scale D^2, starting from the seed's stored
    integer numerators and never dividing by D^2: each vector is a nonzero
    integer multiple of the true bracket, which changes neither a span nor
    membership in it.  The growth runs in one core.Span over Q, which
    eliminates fraction-free on these integer vectors; a bracket that grows
    the span joins the next round's frontier.  Once the span holds every
    window target, ReachedFullWindow is an exact certificate that every
    window basis element lies in the ideal; failure to cover the window is
    reported as Inconclusive, never as a negative.

    The structure constants are kept per window: all probes of one
    (spec, k_bound, level_cap) share one table per working box, which holds
    one run per (multiplier, column) pair bracketed so far, and the last 16
    tables used stay in memory (_table).
    """
    verdict = _probe_in_box(spec, seed_element, k_bound, level_cap, depth, _BOX_PAD)
    if isinstance(verdict, ReachedFullWindow):
        return verdict
    return _probe_in_box(
        spec, seed_element, k_bound, level_cap, depth, _BOX_PAD + 1
    )


class _ProbeTable:
    """Column ids and monomial structure constants of one probe window.

    Columns are scaled keys (D a1, D a2, i1, i2), D = gamma.den, as in
    core.bracket_scaled.  kid() numbers every key in one id space: the
    window's keys first, so id i is window[i] and the probe names its
    targets by id and tests them with Span.spans_unit on its one core.Span
    over Q, which, pivoting on the largest id of each residue, pivots
    outside the window first; then the rest of the working box (window
    bounds plus pad), so ids below n_box are the box; then any key met
    later, a seed term or a bracket term outside the box.  The multipliers
    are the window basis elements in sweep order.

    runs[gi][col] holds [g_gi, x^col] as one tuple
    s, id, n, ..., id, n, ...  with coefficients n / D^2: the pairs with
    ids past the box (>= n_box) first, then from index s on the pairs in
    the box.  fill() computes it on first use, so the table grows with the
    (multiplier, column) pairs the probes bracket; bracket() reads the past
    parts first, so a bracket that leaves the box is dropped before its box
    part is summed.  The table depends only on its window, so _table
    shares it among all probes of that window.
    """

    def __init__(self, spec: AlgebraSpec, k_bound: int, level_cap: int, pad: int):
        self.spec = spec
        self.d = spec.gamma.den
        self.window = enumerate_window(spec, k_bound, level_cap)
        box = enumerate_window(spec, k_bound + pad, level_cap + pad)
        self.keys = [self.skey(b) for b in self.window]
        self.ids = {k: n for n, k in enumerate(self.keys)}
        for b in box:
            self.kid(self.skey(b))
        self.n_box = len(self.keys)
        self.mults = [[(*self.skey(b), 1)] for b in sorted(self.window, key=self._sweep_rank)]
        self.runs: list[dict[int, tuple[int, ...]]] = [{} for _ in self.mults]

    def skey(self, b: BasisIdx) -> tuple[int, int, int, int]:
        alpha, (i1, i2) = b
        s1, s2 = self.spec.gamma.scaled(alpha)
        return (s1, s2, i1, i2)

    def _sweep_rank(self, b: BasisIdx) -> tuple:
        # identity and degree translators first, then index raisers, then
        # the rest by size: early candidates move support toward targets,
        # so the coverage early-exit fires before the expensive tail.
        alpha, (i1, i2) = b
        k = self.spec.gamma.coords(alpha)
        return (i1 + i2, sum(abs(q) for q in k), index_key((i1, i2)))

    def kid(self, key: tuple[int, int, int, int]) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
        return i

    def fill(self, gi: int, col: int) -> tuple[int, ...]:
        """Compute, store and return the run of (gi, col)."""
        spec, key, n_box = self.spec, self.keys[col], self.n_box
        past: list[int] = []
        box: list[int] = []
        if not is_quotiented(spec, key):  # else a seed term that is zero in B
            raw = bracket_scaled(self.d, self.mults[gi], [(*key, 1)])
            for k2, n in raw.items():
                if n and not is_quotiented(spec, k2):
                    i = self.kid(k2)
                    (past if i >= n_box else box).extend((i, n))
        run = self.runs[gi][col] = (len(past) + 1, *past, *box)
        return run

    def bracket(self, gi: int, v: dict[int, int]) -> Optional[dict[int, int]]:
        """D^2 [g_gi, v] for an integer vector v, or None if it leaves the box.

        Pass 1 fills v's missing runs and sums only their parts past the box;
        a nonzero sum there drops the bracket.  Only then does pass 2 sum the
        box parts.  The returned sums may be zero.
        """
        runs = self.runs[gi]
        past: dict[int, int] = {}
        get = past.get
        for k, c in v.items():
            run = runs.get(k) or self.fill(gi, k)  # a run is never empty
            s = run[0]
            if s > 1:
                it = iter(run[1:s])
                for k2, n in zip(it, it):
                    past[k2] = get(k2, 0) + c * n
        # past-box terms of two columns can cancel, so only the exact sum
        # decides the drop
        if past and any(past.values()):
            return None
        acc: dict[int, int] = {}
        get = acc.get
        for k, c in v.items():
            run = runs[k]
            it = iter(run[run[0]:])
            for k2, n in zip(it, it):
                acc[k2] = get(k2, 0) + c * n
        return acc


# all probes of one window share its table; 16 keeps several windows, each
# with both box pads, resident for callers that alternate between them
_table = lru_cache(maxsize=16)(_ProbeTable)


def _probe_in_box(
    spec: AlgebraSpec,
    seed_element: Element,
    k_bound: int,
    level_cap: int,
    depth: int,
    pad: int,
) -> Union[ReachedFullWindow, Inconclusive]:
    if seed_element.is_zero():
        raise ZeroSeed("the probe needs a nonzero seed element")
    if seed_element.spec is not spec and seed_element.spec != spec:
        raise SpecMismatch("the seed element belongs to a different algebra")
    tab = _table(spec, k_bound, level_cap, pad)
    window, bracket = tab.window, tab.bracket

    seed = {tab.kid(k): n for k, n in seed_element._ints.items()}
    span = Span()
    span.add(seed)
    frontier = [seed]
    missing = list(range(len(window)))  # target i is window[i], whose column id is i

    def covered() -> bool:
        """Drop the targets the span covers; True once none is left."""
        nonlocal missing
        missing = [i for i in missing if not span.spans_unit(i)]
        return not missing

    pending_checks = 0
    for rounds in range(1, depth + 1):
        new_frontier: list[dict[int, int]] = []
        for gi in range(len(tab.mults)):
            for v in frontier:
                raw = bracket(gi, v)
                # a vector whose support leaves the working box is dropped
                # whole, so no vector in the span but the seed has a column
                # past it
                if raw is None:
                    continue
                if not span.add(raw):  # the span skips zero sums itself
                    continue
                new_frontier.append({k: n for k, n in raw.items() if n})
                pending_checks += 1
                if pending_checks >= 8 and span.dim >= len(missing):
                    pending_checks = 0
                    if covered():
                        return ReachedFullWindow(rounds, span.dim)
        if covered():
            return ReachedFullWindow(rounds, span.dim)
        if not new_frontier:
            break
        new_frontier.sort(key=len)
        frontier = new_frontier
    covered()
    return Inconclusive(tuple(window[i] for i in missing), span.dim)
