"""Text form of elements and derivation expressions.

Element literals:

    element := ['+'|'-'] term (('+'|'-') term)*  |  '0'
    term    := [coeff ['*']] 'x[' rat ',' rat ';' int ',' int ']'
    coeff   := rat                       e.g.  3/2 x[1,-1/2;2,0] - x[0,1;0,0]
    rat     := ['-'] digits ['/' digits]     int := ['-'] digits     (ASCII digits)

Printing is canonical: terms sorted by lattice coefficients of the degree
(lexicographic), then by descending index order inside a degree; unit
coefficients are dropped; the zero element prints as "0".  parse followed by
print is the identity on canonical forms (parsing reduces into B, so literals
naming quotiented symbols collapse).

Derivation expressions (fmt_derivation prints them):

    expr := ['+'|'-'] dterm (('+'|'-') dterm)*
    dterm := [rat ['*']] atom
    atom := 'ad(' element ')' | 'dmu(' rat {',' rat} ')'
          | 'd1bar' | 'd1' | 'd2' | 'dt1' | 'dt2'

dmu takes one value per echelon basis vector of the lattice.  The named
atoms are those of derivations._NAMED_MAPS, matched longest first and printed
in its order.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .lattice import GroupHom, Vec2
from .core import AlgebraError, AlgebraSpec, BasisIdx, Element, index_key, reduce
from .derivations import _NAMED_MAPS, Derivation, ad, make_dmu, named, zero_derivation

_RAT = r"-?\d+(?:/\d+)?"
_TERM_RE = re.compile(
    rf"({_RAT})?\s*\*?\s*x\[({_RAT}),({_RAT});(-?\d+),(-?\d+)\]", re.ASCII
)
_SEP_RE = re.compile(r"\s*([+-])\s*")
_RAT_RE = re.compile(_RAT, re.ASCII)


class ParseError(AlgebraError):
    pass


def parse_rat(s: str) -> Fraction:
    s = s.strip()
    if not _RAT_RE.fullmatch(s):
        raise ParseError(f"not a rational literal: {s!r}")
    # from ints: Fraction(str) parses the text again with a slower pattern
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in rational literal {s!r}") from None


def fmt_rat(q: Fraction) -> str:
    return str(q)


def parse_element(spec: AlgebraSpec, text: str) -> Element:
    """Parse an element literal into its reduced representative in B."""
    s = text.strip()
    if s == "0":
        return reduce(spec, {})
    raw: dict[BasisIdx, Fraction] = {}
    pos = 0
    sign = 1
    m = _SEP_RE.match(s, pos)
    if m:  # optional leading sign
        sign = -1 if m.group(1) == "-" else 1
        pos = m.end()
    while True:
        m = _TERM_RE.match(s, pos)
        if not m or m.start() != pos:
            raise ParseError(f"bad element literal at {s[pos:pos+20]!r}")
        coeff = parse_rat(m.group(1)) if m.group(1) is not None else Fraction(1)
        alpha = Vec2(parse_rat(m.group(2)), parse_rat(m.group(3)))
        idx = (int(m.group(4)), int(m.group(5)))
        key = (alpha, idx)
        c = raw.get(key, Fraction(0)) + sign * coeff
        if c:
            raw[key] = c
        elif key in raw:
            del raw[key]
        pos = m.end()
        if pos == len(s):
            break
        m = _SEP_RE.match(s, pos)
        if not m:
            raise ParseError(f"expected '+' or '-' at {s[pos:pos+20]!r}")
        sign = -1 if m.group(1) == "-" else 1
        pos = m.end()
    return reduce(spec, raw)


def fmt_element(u: Element) -> str:
    if not u.terms:
        return "0"
    gamma = u.spec.gamma

    def sort_key(key: BasisIdx):
        alpha, idx = key
        ks = gamma.coords(alpha)
        lvl, i1 = index_key(idx)
        return (ks, -lvl, -i1)

    parts: list[str] = []
    for alpha, idx in sorted(u.terms, key=sort_key):
        c = u.terms[(alpha, idx)]
        mag = abs(c)
        body = f"x[{fmt_rat(alpha.c1)},{fmt_rat(alpha.c2)};{idx[0]},{idx[1]}]"
        if mag != 1:
            body = f"{fmt_rat(mag)} {body}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def fmt_derivation(d: Derivation) -> str:
    """Print a derivation as a sum of atoms that parse_derivation reads back:
    ad(...), then dmu(...), then the named maps; ad(0) for zero."""
    parts = [] if d.inner.is_zero() else [f"ad({fmt_element(d.inner)})"]
    if d.mu is not None:
        parts.append("dmu(" + ",".join(fmt_rat(v) for v in d.mu.values) + ")")
    for atom, field, *_ in _NAMED_MAPS:
        c = getattr(d, field)
        if c:
            parts.append(atom if c == 1 else f"{fmt_rat(c)}*{atom}")
    return " + ".join(parts) or "ad(0)"


def parse_derivation(spec: AlgebraSpec, text: str, permissive: bool = False) -> Derivation:
    """Parse a derivation expression; see the module docstring for the grammar."""
    s = text.strip()
    if not s:
        raise ParseError("empty derivation expression")
    total = zero_derivation(spec)
    pos = 0
    sign = Fraction(1)
    m = _SEP_RE.match(s, pos)
    if m:
        sign = Fraction(-1 if m.group(1) == "-" else 1)
        pos = m.end()
    while True:
        scalar = Fraction(1)
        m = _RAT_RE.match(s, pos)
        if m and m.start() == pos:
            scalar = parse_rat(m.group(0))
            pos = re.compile(r"\s*\*?\s*").match(s, m.end()).end()
        atom, pos = _parse_atom(spec, s, pos, permissive)
        total = total + (sign * scalar) * atom
        if pos == len(s):
            break
        m = _SEP_RE.match(s, pos)
        if not m:
            raise ParseError(f"expected '+' or '-' at {s[pos:pos+20]!r}")
        sign = Fraction(-1 if m.group(1) == "-" else 1)
        pos = m.end()
    return total


def _parse_atom(spec: AlgebraSpec, s: str, pos: int, permissive: bool):
    if s.startswith("ad(", pos):
        close = s.find(")", pos)
        if close < 0:
            raise ParseError("unclosed ad(...)")
        elem = parse_element(spec, s[pos + 3 : close])
        return ad(elem), close + 1
    if s.startswith("dmu(", pos):
        close = s.find(")", pos)
        if close < 0:
            raise ParseError("unclosed dmu(...)")
        args = s[pos + 4 : close].split(",")
        vals = tuple(parse_rat(a) for a in args) if args != [""] else ()
        if len(vals) != spec.gamma.rank:
            raise ParseError(
                f"dmu needs {spec.gamma.rank} value(s) for {spec.gamma}, got {len(vals)}"
            )
        return make_dmu(spec, GroupHom(spec.gamma, vals)), close + 1
    for atom in sorted((row[0] for row in _NAMED_MAPS), key=len, reverse=True):
        if s.startswith(atom, pos):
            return named(spec, atom, permissive), pos + len(atom)
    raise ParseError(f"bad derivation atom at {s[pos:pos+20]!r}")
