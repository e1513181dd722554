"""Tests of the benchmark's own oracles and output checks.

    PYTHONPATH=src python -m pytest bench -q
"""

import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from blockalg import core, harness  # noqa: E402
from blockalg import isomorphism as iso  # noqa: E402

import gen  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


def sym(a1, a2, i1, i2):
    return (F(a1), F(a2), i1, i2)


def altered(u: core.Element) -> core.Element:
    """u with one coefficient changed."""
    terms = dict(u.terms)
    key = next(iter(terms))
    terms[key] += 1
    return core.Element(u.spec, terms)


def test_reference_bracket_reproduces_readme_example():
    u = {sym(1, 1, 1, 0): F(1)}
    v = {sym(2, 3, 0, 1): F(1)}
    assert ref.bracket(u, v, simple_part=False) == {
        sym(3, 4, 1, 1): F(2),
        sym(3, 4, 1, 0): F(1),
        sym(3, 4, 0, 1): F(2),
        sym(3, 4, 0, 0): F(1),
    }


def test_reference_bracket_applies_the_quotient():
    # [x^{(1,0),0}, x^{(-1,1),0}] = -x^{sigma1,0}, which the quotient drops
    assert ref.bracket({sym(1, 0, 0, 0): F(1)}, {sym(-1, 1, 0, 0): F(1)}, False) == {}
    terms = {sym(0, 1, 0, 0): F(1), sym(0, 1, 1, 0): F(1), sym(0, 2, 0, 0): F(1), sym(1, 0, 0, 0): F(1)}
    assert ref.quotient(terms, simple_part=False) == {
        sym(0, 1, 1, 0): F(1), sym(0, 2, 0, 0): F(1), sym(1, 0, 0, 0): F(1),
    }
    assert ref.quotient(terms, simple_part=True) == {sym(1, 0, 0, 0): F(1)}


def test_lattice_membership():
    g23_5 = gen.G23_5
    assert ref.in_lattice((F(2), F(8)), g23_5)
    assert not ref.in_lattice((F(0), F(1)), g23_5)
    assert ref.in_lattice((F(3, 2), F(0)), gen.HALF)
    assert not ref.in_lattice((F(1, 4), F(0)), gen.HALF)
    assert ref.in_lattice((F(0), F(-3)), gen.Y1)
    assert not ref.in_lattice((F(1), F(3)), gen.Y1)
    assert ref.maps_onto(F(2), F(1), gen.G10_5, ((F(2), F(1)), (F(0), F(5))))
    assert not ref.maps_onto(F(3), F(1), gen.G10_5, ((F(2), F(1)), (F(0), F(5))))


def test_jacobi_check_rejects_an_altered_coefficient():
    op = workloads.jacobi_levels(1).ops[0]  # sampled against the reference
    uv, uv_w, total = op.run()
    assert op.check((uv, uv_w, total))
    assert not op.check((altered(uv), uv_w, total))
    assert not op.check((uv, altered(uv_w), total))
    assert not op.check((uv, uv_w, uv))  # a nonzero Jacobi sum


def test_probe_check_rejects_inconclusive():
    op = workloads.closure_probe(1).ops[0]
    assert op.check(harness.ReachedFullWindow(rounds=3, dim=10**6))
    assert not op.check(harness.ReachedFullWindow(rounds=3, dim=1))
    assert not op.check(harness.Inconclusive(missing=(), dim=10**6))


def test_decision_check_rejects_a_wrong_witness():
    ops = [op for op in workloads.maps_iso(1).ops if op.kind == "decide"]
    verdict, key_a, key_b = ops[0].run()
    assert isinstance(verdict, iso.Found)
    assert ops[0].check((verdict, key_a, key_b))
    p = verdict.params
    wrong = iso.Found(iso.IsoParams(p.a + 1, p.b))
    assert not ops[0].check((wrong, key_a, key_b))
    mutation = next(op for op in ops if not isinstance(op.run()[0], iso.Found))
    verdict, key_a, key_b = mutation.run()
    assert mutation.check((verdict, key_a, key_b))
    assert not mutation.check((iso.NotIsomorphic("some_other_reason"), key_a, key_b))


def test_law_checks_reject_an_altered_coefficient():
    ops = workloads.maps_iso(1).ops
    for kind in ("leibniz", "psi"):
        first = next(op for op in ops if op.kind == kind)  # sampled against the reference
        uv, lhs, rhs = first.run()
        assert first.check((uv, lhs, rhs))
        assert not first.check((altered(uv), lhs, rhs))
        op = next(op for op in ops if op.kind == kind and op.run()[1].terms)
        uv, lhs, rhs = op.run()
        assert not op.check((uv, altered(lhs), rhs))


def test_same_seed_same_inputs():
    a = workloads.maps_iso(7)
    b = workloads.maps_iso(7)
    assert [op.run()[0] for op in a.ops[:50]] == [op.run()[0] for op in b.ops[:50]]


def test_setup_checks_pass():
    for name in workloads.WORKLOADS:
        assert all(check() for check in workloads.build(name, 3).setup_checks)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "maps_iso", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
