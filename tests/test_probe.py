"""The closure probe's structure-constant table and pinned probe verdicts."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockalg.core as core
import blockalg.probe as P
from blockalg.core import JSpec, bracket, bracket_raw, monomial, reduce, spec_validate, zero
from blockalg.probe import Inconclusive, ReachedFullWindow, simplicity_probe
from blockalg.lattice import lattice_from_strs, vec
from blockalg.literals import parse_element

Z2 = [["1", "0"], ["0", "1"]]
HALF = [["1/2", "0"], ["0", "1"]]
SHEARED = [["2", "3"], ["0", "5"]]
Y_AXIS = [["0", "1"]]
SIXTHS = [["1/2", "1/3"], ["0", "2"]]  # D = 6


def sp(gens, j):
    return spec_validate(lattice_from_strs(gens), JSpec(j[0], j[1]))


def row(tab, gi, col):
    """(column id, n) pairs of one probe table entry, filled if need be.

    A run is (s, id, n, ...): the pairs past the box, then from index s on
    the box pairs; the pairs are returned in that order."""
    run = tab.runs[gi].get(col) or tab.fill(gi, col)
    it = iter(run[1:])
    return list(zip(it, it))


def decode(spec, tab, imgs):
    """(column id, n) pairs of a probe table row as Vec2-keyed Fractions."""
    lat, dd = spec.gamma, tab.d * tab.d
    out = {}
    for col, n in imgs:
        s1, s2, k1, k2 = tab.keys[col]
        out[(lat.unscaled((s1, s2)), (k1, k2))] = Fraction(n, dd)
    return out


def filled(tab):
    """The (multiplier, column) pairs whose runs the table holds."""
    return {(gi, col) for gi, runs in enumerate(tab.runs) for col in runs}


@pytest.mark.parametrize(
    "gens,j",
    [(Z2, "NN"), (Z2, "N0"), (Z2, "00"), (HALF, "NN"), (SHEARED, "NN"), (Y_AXIS, "NN")],
)
def test_table_matches_bracket_of_monomials(gens, j):
    """Every (multiplier, box key) entry equals the bracket of the two reduced
    monomials, term for term; the simple part drops sigma1 and sigma2."""
    spec = sp(gens, j)
    lat = spec.gamma
    tab = P._ProbeTable(spec, 1, 1, P._BOX_PAD)
    box = core.enumerate_window(spec, 1 + P._BOX_PAD, 1 + P._BOX_PAD)
    assert sorted(tab.keys[: tab.n_box]) == sorted(tab.skey(b) for b in box)
    assert tab.keys[: len(tab.window)] == [tab.skey(b) for b in tab.window]
    mult_keys = []
    for (((s1, s2, i1, i2, n),)) in tab.mults:
        assert n == 1
        mult_keys.append((lat.unscaled((s1, s2)), (i1, i2)))
    assert Counter(mult_keys) == Counter(tab.window)
    for gi, g in enumerate(mult_keys):
        x = reduce(spec, monomial(spec, *g))
        for b in box:
            expected = bracket(x, reduce(spec, monomial(spec, *b)))
            assert decode(spec, tab, row(tab, gi, tab.ids[tab.skey(b)])) == expected.terms, (g, b)


def test_bracket_raw_and_probe_share_bracket_scaled(monkeypatch):
    # the tables are built directly, so the doubled kernel never reaches the
    # shared table cache
    spec = sp(Z2, "NN")
    x = monomial(spec, vec(1, 0), (1, 0))
    y = monomial(spec, vec(2, -1), (0, 1))
    honest_raw = bracket_raw(x, y)
    honest_row = row(P._ProbeTable(spec, 1, 1, P._BOX_PAD), 0, 7)
    assert honest_raw.terms and honest_row
    assert P.bracket_scaled is core.bracket_scaled
    real = core.bracket_scaled

    def doubled(d, us, vs):
        return {k: 2 * n for k, n in real(d, us, vs).items()}

    monkeypatch.setattr(core, "bracket_scaled", doubled)
    monkeypatch.setattr(P, "bracket_scaled", doubled)
    assert bracket_raw(x, y) == 2 * honest_raw
    patched = row(P._ProbeTable(spec, 1, 1, P._BOX_PAD), 0, 7)
    assert patched == [(col, 2 * n) for col, n in honest_row]


# (gamma, J) -> (spec, a table on K = L = 1, basis elements past its box),
# shared by the property examples; the table is built directly, so that it
# never reaches the shared cache
BRACKET_TABLES = {}
BRACKET_SPECS = [(Z2, "NN"), (HALF, "NN"), (Z2, "00"), (Y_AXIS, "N0")]


def bracket_table(gens, j):
    key = (id(gens), j)
    if key not in BRACKET_TABLES:
        spec = sp(gens, j)
        tab = P._ProbeTable(spec, 1, 1, P._BOX_PAD)
        box = set(tab.keys[: tab.n_box])
        far = [b for b in core.enumerate_window(spec, 5, 3) if tab.skey(b) not in box]
        BRACKET_TABLES[key] = (spec, tab, far)
    return BRACKET_TABLES[key]


@st.composite
def table_brackets(draw):
    """A table, a multiplier and an integer vector over box ids and columns
    past the box.  With J = N x N it may hold pairs c x^{a,(1,0)} -
    c x^{a,(0,1)}, a1 + a2 = 1, whose brackets with x^{(1,0),(0,0)} are zero
    though each column's run has terms past the box."""
    gens, j = draw(st.sampled_from(BRACKET_SPECS))
    spec, tab, far = bracket_table(gens, j)
    kinds = [("box",), ("box", "far")]
    if j == "NN":
        kinds += [("box", "pair"), ("box", "far", "pair")]
    kinds = draw(st.sampled_from(kinds))
    coeffs = st.integers(-3, 3).filter(bool)
    v = {}
    for _ in range(draw(st.integers(1, 6))):
        c = draw(coeffs)
        kind = draw(st.sampled_from(kinds))
        if kind == "box":
            cols = [draw(st.integers(0, tab.n_box - 1))]
        elif kind == "far":
            cols = [tab.kid(tab.skey(draw(st.sampled_from(far))))]
        else:
            a = draw(st.integers(-5, 6))
            cols = [tab.kid(tab.skey((vec(a, 1 - a), i))) for i in ((1, 0), (0, 1))]
        for col, sign in zip(cols, (1, -1)):
            v[col] = v.get(col, 0) + sign * c
    v = {k: c for k, c in v.items() if c}
    mults = st.integers(0, len(tab.mults) - 1)
    special = [
        gi for gi, (g,) in enumerate(tab.mults)
        if g[2:4] == (0, 0) and spec.gamma.unscaled(g[:2]) == vec(1, 0)
    ]
    gi = draw(st.sampled_from(special) | mults if special else mults)
    return spec, tab, gi, v or {0: 1}


def as_element(spec, tab, v):
    """The element sum c x^col of an integer vector over the table's ids."""
    out = zero(spec)
    for col, c in v.items():
        s1, s2, i1, i2 = tab.keys[col]
        out = out + reduce(spec, monomial(spec, spec.gamma.unscaled((s1, s2)), (i1, i2), c))
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(table_brackets())
def test_table_bracket_matches_bracket(case):
    """bracket(gi, v) is None exactly when the exact bracket of the multiplier
    with v has a term past the box; otherwise its nonzero entries are D^2
    times that bracket, term for term."""
    spec, tab, gi, v = case
    (g,) = tab.mults[gi]
    x = reduce(spec, monomial(spec, spec.gamma.unscaled(g[:2]), g[2:4]))
    expected = bracket(x, as_element(spec, tab, v))
    leaves = any(
        tab.ids.get(tab.skey(b), tab.n_box) >= tab.n_box for b in expected.terms
    )
    got = tab.bracket(gi, v)
    if leaves:
        assert got is None
    else:
        assert got is not None
        assert decode(spec, tab, [(k, n) for k, n in got.items() if n]) == expected.terms


@pytest.fixture
def cold_tables():
    """An empty shared table cache, emptied again afterwards."""
    P._table.cache_clear()
    yield
    P._table.cache_clear()


def test_second_probe_on_a_window_makes_no_bracket_scaled_calls(monkeypatch, cold_tables):
    spec = sp(Z2, "N0")
    real = P.bracket_scaled
    calls = []

    def counted(d, us, vs):
        calls.append(1)
        return real(d, us, vs)

    monkeypatch.setattr(P, "bracket_scaled", counted)
    seed = parse_element(spec, "x[1,-1;1,0] - 1/2 x[0,1;0,0]")
    first = simplicity_probe(spec, seed, 1, 2, 6)
    assert calls
    calls.clear()
    second = simplicity_probe(spec, seed, 1, 2, 6)
    assert not calls
    assert repr(second) == repr(first)


def test_seed_outside_the_box_gets_runs_at_its_own_column(cold_tables):
    """A seed term beyond the working box gets a column id past n_box; the
    seed is bracketed with every multiplier, and those entries are the
    brackets.  No other column past the box gets a run: only the seed
    reaches the sweep with support there."""
    spec = sp(Z2, "NN")
    seed = parse_element(spec, "x[3,0;0,0] + x[1,0;0,0]")
    verdict = simplicity_probe(spec, seed, 1, 1, 6)
    # recorded on the probe before its tables were shared
    assert verdict == ReachedFullWindow(rounds=2, dim=50)
    tab = P._table(spec, 1, 1, P._BOX_PAD)
    col = tab.ids[(3, 0, 0, 0)]
    assert col >= tab.n_box
    assert {(gi, c) for gi, c in filled(tab) if c >= tab.n_box} == {
        (gi, col) for gi in range(len(tab.mults))
    }
    x3 = monomial(spec, vec(3, 0), (0, 0))
    for gi, ((key,)) in enumerate(tab.mults):
        g = monomial(spec, spec.gamma.unscaled(key[:2]), key[2:4])
        assert decode(spec, tab, row(tab, gi, col)) == bracket(g, x3).terms


def test_far_seed_on_a_warm_table_adds_runs_only_where_it_brackets(cold_tables, monkeypatch):
    """Bracket terms outside the box, met while the table warms, take ids
    past n_box but no runs.  A far seed on the warm table then adds runs
    only for the (multiplier, column) pairs its probe brackets: its own
    far column with every multiplier, and box columns."""
    spec = sp(Z2, "NN")
    simplicity_probe(spec, parse_element(spec, "x[1,0;0,0]"), 1, 1, 6)
    tab = P._table(spec, 1, 1, P._BOX_PAD)
    assert len(tab.keys) > tab.n_box
    assert all(c < tab.n_box for _, c in filled(tab))
    before = filled(tab)
    bracketed = set()
    fill = tab.fill

    def recorded(gi, col):
        bracketed.add((gi, col))
        return fill(gi, col)

    monkeypatch.setattr(tab, "fill", recorded)
    seed = parse_element(spec, "x[3,0;0,0] + x[1,0;0,0]")
    assert simplicity_probe(spec, seed, 1, 1, 6) == ReachedFullWindow(rounds=2, dim=50)
    col = tab.ids[(3, 0, 0, 0)]
    assert col >= tab.n_box
    added = filled(tab) - before
    assert added == bracketed
    assert {(gi, c) for gi, c in added if c >= tab.n_box} == {
        (gi, col) for gi in range(len(tab.mults))
    }


@pytest.mark.parametrize("c", [2305843009213693951, 5], ids=["2^61-1", "5"])
def test_bracket_leaving_the_box_in_exact_support_only_is_dropped(c, cold_tables):
    """Brackets that carry the seed's term past the box leave it and are
    dropped whole, so no vector in the span but the seed has a column past
    the box.  The verdict does not depend on the far term's coefficient: a
    multiple of the prime 2^61 - 1, which a search mod that prime would read
    as zero, gives the verdict of a small one."""
    spec = sp(Z2, "NN")
    seed = parse_element(spec, f"{c} x[3,0;0,0] + x[0,0;1,0]")
    verdict = simplicity_probe(spec, seed, 1, 1, 6)
    assert verdict == ReachedFullWindow(rounds=5, dim=132)


@pytest.mark.parametrize("c", [1, -3, 2305843009213693951], ids=["1", "-3", "2^61-1"])
def test_scaling_the_seed_keeps_the_verdict(c, cold_tables):
    """The ideal generated by c u is the ideal of u for every nonzero c, so
    the verdict is the same, also when c is a multiple of 2^61 - 1."""
    spec = sp(Z2, "N0")
    u = parse_element(spec, "x[1,-1;1,0] - 1/2 x[0,1;0,0]")
    verdict = simplicity_probe(spec, c * u, 1, 2, 6)
    assert repr(verdict) == repr(ReachedFullWindow(rounds=3, dim=66))


def missing(*keys):
    """Basis indices from "a1,a2;i1,i2" strings, in the probe's window order."""
    out = []
    for k in keys:
        deg, idx = k.split(";")
        out.append((vec(*deg.split(",")), tuple(int(i) for i in idx.split(","))))
    return tuple(out)


# (gamma, J, seed literal, K, L, depth) -> verdict of the probe before its
# table moved onto the integer kernel; the D = 6 entry was recorded while the
# probe still divided every structure constant by D^2
PINNED = [
    (Z2, "NN", "x[1,0;0,0]", 1, 1, 6, ReachedFullWindow(rounds=2, dim=55)),
    (Z2, "00", "x[1,1;0,0]", 2, 2, 6, ReachedFullWindow(rounds=2, dim=43)),
    (Z2, "N0", "x[1,-1;1,0] - 1/2 x[0,1;0,0]", 1, 2, 6, ReachedFullWindow(rounds=3, dim=66)),
    (HALF, "NN", "2 x[1/2,0;0,1] + x[-1,1;0,0]", 1, 1, 6, ReachedFullWindow(rounds=3, dim=135)),
    (SHEARED, "NN", "x[2,3;0,0] - 3/2 x[0,5;1,1]", 1, 1, 6, ReachedFullWindow(rounds=3, dim=107)),
    # needs the wider box of the escalation (asserted below)
    (Y_AXIS, "NN", "-3/2 x[0,-1;1,0] + 2 x[0,1;0,1]", 2, 1, 6, ReachedFullWindow(rounds=2, dim=23)),
    (Y_AXIS, "NN", "-x[0,-1;0,1]", 1, 1, 6,
     Inconclusive(missing("0,-1;1,0", "0,0;1,0", "0,1;1,0"), dim=11)),
    (Z2, "00", "x[1,1;0,0]", 1, 0, 0,
     Inconclusive(missing("-1,-1;0,0", "-1,0;0,0", "-1,1;0,0", "0,-1;0,0",
                          "0,0;0,0", "1,-1;0,0", "1,0;0,0"), dim=1)),
    (SIXTHS, "NN", "-x[-1/2,-7/3;1,0]", 1, 1, 6, ReachedFullWindow(rounds=3, dim=91)),
]


LATTICE_NAMES = {
    "Z2": Z2, "HALF": HALF, "SHEARED": SHEARED, "Y_AXIS": Y_AXIS, "SIXTHS": SIXTHS,
}


def pinned_id(case):
    """A test id from the case itself, not its position in PINNED."""
    gens, j, lit, K, L, depth, _ = case
    name = next(n for n, g in LATTICE_NAMES.items() if g is gens)
    return f"{name}-{j}-{lit}-K{K}-L{L}-depth{depth}"


@pytest.mark.parametrize(
    "gens,j,lit,K,L,depth,expected", PINNED, ids=[pinned_id(c) for c in PINNED]
)
def test_pinned_verdicts(gens, j, lit, K, L, depth, expected):
    spec = sp(gens, j)
    verdict = simplicity_probe(spec, parse_element(spec, lit), K, L, depth)
    assert repr(verdict) == repr(expected)


@pytest.mark.parametrize(
    "gens,j,lit,K,L,depth,expected", PINNED, ids=[pinned_id(c) for c in PINNED]
)
def test_warm_table_verdict_equals_cold(gens, j, lit, K, L, depth, expected, cold_tables):
    """A table filled first by the probe of another seed, with a term beyond
    both boxes, gives the verdict of a cold table: its columns were filled in
    another order and its out-of-box ids were numbered differently."""
    spec = sp(gens, j)
    seed = parse_element(spec, lit)
    cold = simplicity_probe(spec, seed, K, L, depth)
    P._table.cache_clear()
    corner = core.enumerate_window(spec, K, L)[-1]
    far = core.enumerate_window(spec, K + 3, 0)[0]
    other = reduce(spec, monomial(spec, *corner)) + reduce(spec, monomial(spec, *far))
    simplicity_probe(spec, other, K, L, depth)
    warm = simplicity_probe(spec, seed, K, L, depth)
    assert repr(warm) == repr(cold) == repr(expected)


def test_pinned_escalation_case_needs_the_wider_box():
    spec = sp(Y_AXIS, "NN")
    seed = parse_element(spec, "-3/2 x[0,-1;1,0] + 2 x[0,1;0,1]")
    narrow = P._probe_in_box(spec, seed, 2, 1, 6, P._BOX_PAD)
    assert isinstance(narrow, Inconclusive)


@pytest.mark.parametrize(
    "lit,expected",
    [
        ("x[5,-4;1,0] - x[5,-4;0,1] + x[0,0;1,0]", ReachedFullWindow(rounds=3, dim=74)),
        ("x[5,-4;1,0] - x[5,-4;0,1] + x[1,-1;0,1]", ReachedFullWindow(rounds=4, dim=82)),
    ],
    ids=["x00-10", "x1-1-01"],
)
def test_seed_whose_past_box_terms_cancel(lit, expected, cold_tables):
    """[x^{(1,0),0}, x^{(5,-4),(1,0)} - x^{(5,-4),(0,1)}] = 0 though both
    columns have run terms past the box, so that bracket stays in the box
    and is kept; a drop decided per run would leave these probes
    Inconclusive.  Verdicts recorded before the drop moved ahead of the box
    sum."""
    spec = sp(Z2, "NN")
    assert simplicity_probe(spec, parse_element(spec, lit), 1, 1, 6) == expected
