"""The ideal-closure probe behind the simplicity suite (simplicity_probe)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    AlgebraError,
    AlgebraSpec,
    BasisIdx,
    Element,
    Span,
    SpecMismatch,
    _P,
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
    sound.  A stall in the narrow box escalates once to a wider box: some
    window corners are only reachable through intermediates just outside it.

    Each bracket is computed in integers, with monomial structure constants
    from core.bracket_scaled at scale D^2 kept for the length of one probe,
    starting from the seed's stored integer numerators and never dividing by
    D^2: each vector is a nonzero integer multiple of the true bracket, which
    changes neither a span nor membership in it.  The round-by-round growth
    runs over GF(_P) on the residues of these vectors; a bracket that grows
    the modular span is kept as its integer vector.  Once the modular span
    covers every window target, the claim is certified by exact elimination
    over Q of the kept vectors.  ReachedFullWindow is therefore an exact
    certificate that every window basis element lies in the ideal; failure to
    cover the window is reported as Inconclusive, never as a negative.
    """
    verdict = _probe_in_box(spec, seed_element, k_bound, level_cap, depth, _BOX_PAD)
    if isinstance(verdict, ReachedFullWindow):
        return verdict
    return _probe_in_box(
        spec, seed_element, k_bound, level_cap, depth, _BOX_PAD + 1
    )


class _ProbeTable:
    """Column ids and monomial structure constants of one probe.

    Columns are scaled keys (D a1, D a2, i1, i2), D = gamma.den, as in
    core.bracket_scaled.  Ids below n_box number the working box (window
    bounds plus pad); later ids are keys met outside it.  The multipliers are
    the window basis elements in sweep order.  rows[gi][col] holds
    [g_gi, x^col] as (col, n) pairs with coefficient n / D^2, filled on
    first use by images().
    """

    def __init__(self, spec: AlgebraSpec, k_bound: int, level_cap: int, pad: int):
        self.spec = spec
        self.d = spec.gamma.den
        self.window = enumerate_window(spec, k_bound, level_cap)
        box = enumerate_window(spec, k_bound + pad, level_cap + pad)
        self.keys = [self.skey(b) for b in box]
        self.n_box = len(self.keys)
        self.ids = {k: n for n, k in enumerate(self.keys)}
        self.mults = [[(*self.skey(b), 1)] for b in sorted(self.window, key=self._sweep_rank)]
        self.rows: list[dict[int, list[tuple[int, int]]]] = [{} for _ in self.mults]

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

    def images(self, gi: int, col: int) -> list[tuple[int, int]]:
        imgs = self.rows[gi].get(col)
        if imgs is None:
            spec, key = self.spec, self.keys[col]
            if is_quotiented(spec, key):  # a seed term that is zero in B
                imgs = []
            else:
                raw = bracket_scaled(self.d, self.mults[gi], [(*key, 1)])
                imgs = [
                    (self.kid(k2), n) for k2, n in raw.items()
                    if n and not is_quotiented(spec, k2)
                ]
            self.rows[gi][col] = imgs
        return imgs


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
    tab = _ProbeTable(spec, k_bound, level_cap, pad)
    window, images, n_box = tab.window, tab.images, tab.n_box

    def bracket_ints(gi: int, v: dict[int, int]) -> dict[int, int]:
        """D^2 [g_i, v] for an integer vector v; sums may be zero."""
        acc: dict[int, int] = {}
        get = acc.get
        for k, c in v.items():
            for k2, n in images(gi, k):
                acc[k2] = get(k2, 0) + c * n
        return acc

    # the integer vectors of the kept chain, D^2 times the bracket per round;
    # kept[0] is the seed
    kept: list[dict[int, int]] = [{tab.kid(k): n for k, n in seed_element._ints.items()}]
    target_ids = {b: tab.ids[tab.skey(b)] for b in window}

    def exact_verify() -> tuple[tuple[BasisIdx, ...], int]:
        """The targets the span over Q of the kept chain misses, and its
        dimension."""
        span = Span()
        for v in kept:
            span.add(v)
        return tuple(b for b, i in target_ids.items() if not span.contains({i: 1})), span.dim

    mod = Span(modular=True)
    mod.add({i: r for i, n in kept[0].items() if (r := n % _P)})
    frontier = [kept[0]]
    missing = list(window)

    def certify(rounds: int) -> Optional[ReachedFullWindow]:
        """Drop the targets the modular span covers; once none is left,
        certify exactly, and on failure restore the exact misses."""
        nonlocal missing
        missing = [b for b in missing if not mod.contains({target_ids[b]: 1})]
        if missing:
            return None
        still, dim = exact_verify()
        missing = list(still)
        return None if still else ReachedFullWindow(rounds, dim)

    pending_checks = 0
    for rounds in range(1, depth + 1):
        new_frontier: list[tuple[int, dict[int, int]]] = []  # (residue support size, vector)
        for gi in range(len(tab.mults)):
            for v in frontier:
                raw = bracket_ints(gi, v)
                acc = {k: r for k, n in raw.items() if (r := n % _P)}
                # a vector whose support leaves the working box is dropped whole
                if not acc or any(k >= n_box for k in acc) or not mod.add(acc):
                    continue
                w = {k: n for k, n in raw.items() if n}
                kept.append(w)
                new_frontier.append((len(acc), w))
                pending_checks += 1
                if pending_checks >= 8 and mod.dim >= len(missing):
                    pending_checks = 0
                    verdict = certify(rounds)
                    if verdict is not None:
                        return verdict
        verdict = certify(rounds)
        if verdict is not None:
            return verdict
        if not new_frontier:
            break
        new_frontier.sort(key=lambda t: t[0])
        frontier = [w for _, w in new_frontier]
    return Inconclusive(*exact_verify())
