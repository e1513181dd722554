"""Suite determinism, forced-failure reproduction, probe verdicts."""

import json
from fractions import Fraction

import pytest

import blockalg.harness as H
from blockalg.core import (
    AlgebraError,
    JSpec,
    enumerate_window,
    monomial,
    spec_validate,
    zero,
)
from blockalg.harness import (
    COEFF_POOL,
    FailureRecord,
    SuiteReport,
    default_configs,
    rerun_failure,
    run_suite,
    sample_element,
    sample_nonzero,
)
from blockalg.isomorphism import WittDegenerate
from blockalg.lattice import lattice_from_strs, vec
from blockalg.literals import ParseError, fmt_element
from blockalg.probe import Inconclusive, ReachedFullWindow, ZeroSeed, simplicity_probe
from conftest import construction_only_configs

F = Fraction

Z2 = lattice_from_strs([["1", "0"], ["0", "1"]])


def sp(j1="N", j2="N", lat=Z2):
    return spec_validate(lat, JSpec(j1, j2))


class TestSampling:
    def test_deterministic_under_seed(self):
        from random import Random

        s = sp()
        window = enumerate_window(s, 2, 3)
        a = [sample_element(Random(3), s, window) for _ in range(5)]
        b = [sample_element(Random(3), s, window) for _ in range(5)]
        assert a == b

    def test_support_and_coefficients(self):
        from random import Random

        s = sp()
        window = enumerate_window(s, 2, 3)
        rng = Random(12)
        for _ in range(50):
            u = sample_element(rng, s, window)
            assert set(u.terms) <= set(window)
            assert 0 <= len(u.terms) <= 4

    def test_sample_nonzero(self):
        from random import Random

        s = sp()
        window = enumerate_window(s, 1, 1)
        rng = Random(0)
        for _ in range(20):
            assert not sample_nonzero(rng, s, window).is_zero()

    def test_coeff_pool_is_exact(self):
        assert all(isinstance(c, Fraction) for c in COEFF_POOL)


class TestReports:
    def test_stable_text_deterministic(self):
        s = sp()
        r1 = run_suite("jacobi", s, seed=42, trials=25)
        r2 = run_suite("jacobi", s, seed=42, trials=25)
        assert r1.stable_text() == r2.stable_text()
        assert r1.stable_dict() == r2.stable_dict()

    def test_wall_time_outside_stable_forms(self):
        s = sp()
        r = run_suite("jacobi", s, seed=1, trials=5)
        assert "wall_time_s" not in r.stable_dict()
        assert "wall_time_s" in r.as_dict()
        assert "wall_time_s" in r.text()
        assert "wall_time_s" not in r.stable_text()

    def test_json_round_trip(self):
        s = sp()
        r = run_suite("locality", s, seed=4, trials=5, cap=6)
        data = json.loads(r.to_json())
        assert data["suite"] == "locality"
        assert data["failures"] == []
        assert data["passes"] == r.passes

    def test_seed_changes_sampling(self):
        s = sp()
        r1 = run_suite("jacobi", s, seed=1, trials=25)
        r2 = run_suite("jacobi", s, seed=2, trials=25)
        assert r1.ok and r2.ok
        assert r1.stable_text() != r2.stable_text() or r1.seed != r2.seed

    def test_unknown_suite_rejected(self):
        with pytest.raises(AlgebraError):
            run_suite("nonsense", sp(), seed=1)

    def test_iso_suite_refuses_witt_degenerate(self):
        for spec in construction_only_configs():
            with pytest.raises(WittDegenerate):
                run_suite("iso", spec, seed=1, trials=2)


class TestAllSuitesGreen:
    def test_every_valid_config_passes_smoke(self):
        for spec in default_configs():
            for suite in ("jacobi", "bracket", "derivations", "iso", "locality"):
                rep = run_suite(suite, spec, seed=7, trials=12, cap=7)
                assert rep.ok, (spec.summary(), suite, rep.stable_text())

    def test_config_inventory(self):
        cfgs = default_configs()
        assert len(cfgs) == 16
        assert all(not c.witt_degenerate for c in cfgs)
        extra = construction_only_configs()
        assert extra and all(c.witt_degenerate for c in extra)


class TestForcedFailures:
    """A corrupted bracket must surface as failure records that reproduce."""

    def _corrupt(self, monkeypatch):
        real = H.bracket

        def bad(u, v):
            return real(u, v) + u

        monkeypatch.setattr(H, "bracket", bad)
        return real

    def test_jacobi_suite_catches_corruption(self, monkeypatch):
        s = sp()
        self._corrupt(monkeypatch)
        rep = run_suite("jacobi", s, seed=7, trials=10)
        assert not rep.ok
        assert len(rep.failures) == 10
        assert all(f.check == "jacobi" for f in rep.failures)

    def test_bracket_suite_catches_corruption(self, monkeypatch):
        s = sp()
        self._corrupt(monkeypatch)
        rep = run_suite("bracket", s, seed=7, trials=6)
        names = {f.check for f in rep.failures}
        assert "bracket_vs_odot" in names
        assert "antisymmetry" in names

    def test_records_reproduce_and_clear(self, monkeypatch):
        s = sp()
        self._corrupt(monkeypatch)
        rep = run_suite("jacobi", s, seed=7, trials=10)
        rec = rep.failures[0]
        assert rerun_failure(s, rec) is False  # still corrupted
        monkeypatch.undo()
        assert rerun_failure(s, rec) is True  # honest bracket passes

    def test_failure_record_shape(self, monkeypatch):
        s = sp()
        self._corrupt(monkeypatch)
        rep = run_suite("jacobi", s, seed=7, trials=3)
        d = rep.failures[0].as_dict()
        assert set(d) == {"check", "inputs", "detail"}
        assert set(d["inputs"]) == {"u", "v", "w"}
        assert rep.failures == tuple(sorted(rep.failures, key=lambda f: (f.check, f.inputs)))


    def test_lazy_literals_match_eager_records(self, monkeypatch):
        """Inputs are formatted only when a check fails; the records, and the
        stable report forms, equal those of formatting every input up front."""
        from random import Random

        s = sp()
        self._corrupt(monkeypatch)
        rep = run_suite("jacobi", s, seed=7, trials=4)
        rng = Random(7)
        window = enumerate_window(s, 2, 3)
        eager = []
        for _ in range(4):
            u, v, w = (sample_element(rng, s, window) for _ in range(3))
            lits = (("u", fmt_element(u)), ("v", fmt_element(v)), ("w", fmt_element(w)))
            eager.append(FailureRecord("jacobi", lits, ""))
        eager.sort(key=lambda f: (f.check, f.inputs, f.detail))
        expected = SuiteReport("jacobi", s.summary(), 7, 4, 0, tuple(eager), 0.0)
        assert rep.failures == expected.failures
        assert rep.stable_text() == expected.stable_text()
        assert rep.stable_dict() == expected.stable_dict()

    def test_element_and_literal_inputs_record_alike(self, monkeypatch):
        """evaluate records an Element input as its fmt_element literal, and
        an int input through its codec, only when the check fails."""
        s = sp()
        x = monomial(s, vec(1, 2), (1, 0), F(-3, 2))
        entry = H.CHECKS["dt2_nilpotence"]
        run = H._Run("t", s, 0)
        monkeypatch.setitem(H.CHECKS, "dt2_nilpotence", entry._replace(holds=lambda spec, **ins: "d"))
        assert run.evaluate("dt2_nilpotence", x=x, cap=3) is False
        monkeypatch.setitem(H.CHECKS, "dt2_nilpotence", entry._replace(holds=lambda spec, **ins: True))
        assert run.evaluate("dt2_nilpotence", x=monomial(s, vec(0, 0), (0, 0)), cap=3) is True
        assert run.failures == [
            FailureRecord("dt2_nilpotence", (("cap", "3"), ("x", fmt_element(x))), "d")
        ]
        assert (run.trials, run.passes) == (2, 1)

    def test_raising_predicate_is_a_failure_that_replays(self, monkeypatch):
        """With the corrupted bracket, extension_ad's reduce meets an index
        outside J: the suite records that as a failure and runs on."""
        self._corrupt(monkeypatch)
        records = []
        for s in default_configs():
            rep = run_suite("derivations", s, seed=1, trials=2)
            records += [(s, f) for f in rep.failures]
        raised = {s for s, f in records if f.detail.startswith("IndexOutsideJ: ")}
        assert len(raised) == 7
        assert [f for s, f in records if rerun_failure(s, f) is not False] == []
        monkeypatch.undo()
        assert [f for s, f in records if rerun_failure(s, f) is not True] == []

    def test_records_replay_the_suite_window(self, monkeypatch):
        """homogeneity and ad_growth_law replay on the K, L and cap of the
        run that failed, not on the suite defaults."""
        s = sp()
        windows, kmaxes = [], []

        def homogeneity_fails(d, deg, window):
            windows.append(list(window))
            return False

        def growth_law_fails(spec, b, kmax):
            kmaxes.append(kmax)
            return False

        monkeypatch.setattr(H.dv, "is_homogeneous", homogeneity_fails)
        monkeypatch.setattr(H, "_growth_law_holds", growth_law_fails)
        rep = run_suite("derivations", s, seed=3, trials=1, k_bound=1, level_cap=1)
        recs = [f for f in rep.failures if f.check == "homogeneity"]
        assert recs and all(dict(f.inputs)["K"] == "1" for f in recs)
        rep = run_suite("locality", s, seed=3, cap=3)
        recs += [f for f in rep.failures if f.check == "ad_growth_law"]
        assert kmaxes == [3] * len(kmaxes) and kmaxes
        n_windows, n_kmaxes = len(windows), len(kmaxes)
        for rec in recs:
            assert rerun_failure(s, rec) is False
        assert windows[n_windows:] == [enumerate_window(s, 1, 1)] * (len(windows) - n_windows)
        assert kmaxes[n_kmaxes:] == [3] * (len(kmaxes) - n_kmaxes)
        assert len(windows) > n_windows and len(kmaxes) > n_kmaxes


class TestRerunRegistry:
    """Every emitted check name reruns from its recorded literals alone."""

    def rec(self, check, **ins):
        return FailureRecord(check, tuple(sorted(ins.items())), "")

    def test_bracket_checks(self):
        s = sp()
        assert rerun_failure(
            s, self.rec("jacobi", u="x[1,0;1,0]", v="x[0,1;0,1]", w="x[1,1;0,0]")
        )
        assert rerun_failure(s, self.rec("bracket_vs_odot", u="x[1,0;1,0]", v="2 x[1,1;0,1]"))
        assert rerun_failure(s, self.rec("antisymmetry", u="x[1,0;1,0]", v="x[1,1;0,1]"))
        assert rerun_failure(s, self.rec("same_degree_closed_form", beta="0,2", j="1,0", k="0,1"))
        assert rerun_failure(s, self.rec("top_term_coeff", u="x[1,2;1,0]", v="x[0,1;0,1]"))
        assert rerun_failure(s, self.rec("sigma1_central", v="x[1,1;1,0]"))
        assert rerun_failure(s, self.rec("identity_bracket", v="x[2,3;1,1]"))
        y = sp(lat=lattice_from_strs([["0", "1"]]))
        assert rerun_failure(y, self.rec("top_term_coeff_pi1_zero", u="x[0,1;1,0]", v="x[0,2;0,1]"))
        simple = sp("0", "0")
        assert rerun_failure(simple, self.rec("sigma2_closure", u="x[1,0;0,0]", v="x[-1,2;0,0]"))

    def test_derivation_checks(self):
        s = sp()
        assert rerun_failure(s, self.rec("derivation_law", der="dt1", u="x[1,0;1,0]", v="x[0,1;0,1]"))
        assert rerun_failure(s, self.rec("derivation_law", der="dmu(1,-2)", u="x[1,0;1,0]", v="x[0,1;0,1]"))
        assert rerun_failure(s, self.rec("homogeneity", der="dt2", alpha="0,0"))
        assert rerun_failure(s, self.rec("dt1_identity", x="x[2,3;2,1]"))
        s10 = sp("N", "0")
        assert rerun_failure(s10, self.rec("extension_ad", der="d1", x="x[1,1;1,0]"))
        s01 = sp("0", "N")
        assert rerun_failure(s01, self.rec("extension_ad", der="d1bar", x="x[2,3;0,1]"))

    def test_iso_checks(self):
        s = sp()
        assert rerun_failure(s, self.rec("round_trip", a="3", b="1"))
        assert rerun_failure(s, self.rec("moduli_match", a="3", b="1"))
        assert rerun_failure(
            s, self.rec("psi_law", a="3", b="1", u="x[1,0;1,0]", v="x[1,1;0,1]")
        )
        assert rerun_failure(s, self.rec("j_flip", j2="N,0"))
        assert rerun_failure(s, self.rec("h_mutation", gamma_b="1,0;0,2"))
        y = sp(lat=lattice_from_strs([["0", "1"]]))
        assert rerun_failure(y, self.rec("pi1_rigidity", gamma_b="0,2"))

    def test_locality_checks(self):
        s = sp()
        assert rerun_failure(s, self.rec("dt2_nilpotence", x="x[1,1;0,2]", cap="8"))
        assert rerun_failure(s, self.rec("dt1_nilpotence", x="x[0,1;2,0]", cap="8"))
        assert rerun_failure(s, self.rec("growth_witness", seed_ad="x[1,0;0,0]", cap="5"))
        assert rerun_failure(s, self.rec("ad_growth_law", seed_ad="x[1,0;0,0]"))
        assert rerun_failure(s, self.rec("dmu_closure", der="dmu(1,2)", x="x[3,1;1,1]", cap="8"))
        assert rerun_failure(s, self.rec("ad1_closure", x="x[1,1;1,0]", cap="8"))

    def test_simplicity_check(self):
        s = sp()
        assert rerun_failure(
            s, self.rec("reached_full_window", seed_elem="x[1,0;0,0]", K="1", L="1", depth="6")
        )

    def test_unknown_check_rejected(self):
        with pytest.raises(AlgebraError):
            rerun_failure(sp(), self.rec("made_up", x="x[1,0;0,0]"))

    def test_genuine_violation_reruns_false(self):
        # a record whose inputs do violate the claimed property stays red:
        # dt2_nilpotence with a deliberately wrong cap cannot be satisfied
        s = sp()
        bad = self.rec("dt2_nilpotence", x="x[1,1;0,2]", cap="1")
        assert rerun_failure(s, bad) is False


class TestCheckTable:
    """Each check is one table entry: every suite check comes from CHECKS,
    its literals round-trip through the field codecs, and its records replay
    through the same predicate."""

    def test_forced_failures_cover_the_table_and_replay(self, monkeypatch):
        configs = (sp(), sp("0", "0"), sp(lat=lattice_from_strs([["0", "1"]])))
        for name, entry in H.CHECKS.items():
            monkeypatch.setitem(H.CHECKS, name, entry._replace(holds=lambda spec, **ins: False))
        records = []
        for s in configs:
            for suite in H.SUITES:
                rep = run_suite(suite, s, seed=3, trials=2, k_bound=1, level_cap=1, cap=4)
                assert rep.passes == 0 and len(rep.failures) == rep.trials
                records += [(s, f) for f in rep.failures]
        assert {f.check for _, f in records} == set(H.CHECKS)
        for s, f in records:
            fields = H.CHECKS[f.check].fields
            for k, lit in f.inputs:
                assert fields[k].fmt(fields[k].parse(s, lit)) == lit, (f.check, k)
            assert rerun_failure(s, f) is False
        monkeypatch.undo()
        assert [f for s, f in records if rerun_failure(s, f) is not True] == []


class TestCodecs:
    """Each replay codec reads exactly the ASCII form it prints: every other
    text is a ParseError, never a value or another exception."""

    @pytest.mark.parametrize(
        "codec,value",
        [
            ("INT", -12),
            ("RATIONAL", F(-3, 2)),
            ("VECTOR", vec(1, "-1/2")),
            ("INDEX", (2, 0)),
            ("LATTICE", lattice_from_strs([["1/2", "0"], ["0", "3"]])),
            ("J_PAIR", JSpec("N", "0")),
        ],
    )
    def test_reads_what_it_prints(self, codec, value):
        c = getattr(H, codec)
        text = c.fmt(value)
        assert c.fmt(c.parse(sp(), text)) == text

    @pytest.mark.parametrize(
        "codec,text",
        [
            # Arabic-Indic one and two, which int() accepts
            ("INT", "\u0661\u0662"),
            ("INT", "1_0"),
            ("INT", " +7 "),
            ("INT", "+7"),
            ("INT", ""),
            ("RATIONAL", " 1/2"),
            ("RATIONAL", "\u0661/\u0662"),
            ("INDEX", "1"),
            ("INDEX", "1,2,3"),
            ("INDEX", "\u0661,\u0662"),
            ("INDEX", "1, 2"),
            ("VECTOR", "1,2,3"),
            ("VECTOR", "1"),
            ("VECTOR", "1,\u30002"),
            ("LATTICE", "1,0;;0,1"),
            ("LATTICE", "1,0;"),
            ("LATTICE", ""),
            ("J_PAIR", "0,N,N"),
            ("J_PAIR", "N"),
            ("J_PAIR", "n,0"),
        ],
    )
    def test_rejects_anything_else(self, codec, text):
        with pytest.raises(ParseError):
            getattr(H, codec).parse(sp(), text)


class TestSimplicityProbe:
    def test_reaches_window_full_algebra(self):
        s = sp()
        v = simplicity_probe(s, monomial(s, vec(1, 0), (0, 0)), 1, 1, 6)
        assert isinstance(v, ReachedFullWindow)
        # the certified span covers the window (and may exceed it in the box)
        assert v.dim >= len(enumerate_window(s, 1, 1))

    def test_reaches_window_simple_part(self):
        s = sp("0", "0")
        v = simplicity_probe(s, monomial(s, vec(1, 1), (0, 0)), 2, 2, 6)
        assert isinstance(v, ReachedFullWindow)

    def test_depth_zero_is_inconclusive(self):
        s = sp()
        v = simplicity_probe(s, monomial(s, vec(1, 0), (0, 0)), 1, 1, 0)
        assert isinstance(v, Inconclusive)
        assert v.missing and v.dim >= 1

    def test_zero_seed_rejected(self):
        s = sp()
        with pytest.raises(ZeroSeed):
            simplicity_probe(s, zero(s), 1, 1, 3)

    def test_suite_clamps_trials(self):
        rep = run_suite("simplicity", sp("N", "0"), seed=1, trials=50, k_bound=1, level_cap=1)
        assert H.SIMPLICITY_MAX_TRIALS == 10
        assert "trials: 10" in rep.stable_text().splitlines()

    def test_suite_records_parameters(self):
        s = sp("0", "0")
        rep = run_suite("simplicity", s, seed=5, trials=2, k_bound=1, level_cap=1)
        assert rep.ok
        assert rep.suite == "simplicity"
