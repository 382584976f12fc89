import math

import numpy as np
import pytest

from critex import (DomainError, Regime, RegimeParams, alpha0, classify_regime,
                    conjugate_exponent, gamma_tilde, lifespan_exponent, p_crit,
                    p_fujita, sharp_lifespan_admissible)
from critex.experiments import emit_phase_diagram


def random_admissible(rng, count):
    """Tuples (p, n, gamma) with 1 < p < p_crit(n, gamma)."""
    out = []
    while len(out) < count:
        n = rng.uniform(1.0, 6.0)
        gamma = rng.uniform(1e-3, n / 2 - 1e-3)
        pc = p_crit(n, gamma)
        p = rng.uniform(1.0 + 1e-3, pc - 1e-3)
        if p > 1:
            out.append((p, n, gamma))
    return out


class TestFormulas:
    def test_fujita_values(self):
        assert p_fujita(2) == 2.0
        assert p_fujita(1) == 3.0
        assert p_fujita(4) == 1.5

    def test_fujita_domain(self):
        with pytest.raises(DomainError):
            p_fujita(0.0)
        with pytest.raises(DomainError):
            p_fujita(-1.0)

    def test_p_crit_values(self):
        assert p_crit(2, 1.0) == pytest.approx(2.0, abs=1e-15)
        assert p_crit(2, 1.0) == pytest.approx(p_fujita(2), abs=1e-15)
        assert p_crit(3, 0.5) == pytest.approx(2.0, abs=1e-15)
        assert p_crit(1, 0.5) == pytest.approx(3.0, abs=1e-15)

    def test_p_crit_domain(self):
        with pytest.raises(DomainError):
            p_crit(2, 0.0)
        with pytest.raises(DomainError):
            p_crit(2, -0.3)

    def test_p_crit_matches_shifted_fujita(self):
        # identity p_crit(n, gamma) = p_fujita(n/2 + gamma) on a 10x10 grid
        for n in np.linspace(1.0, 6.0, 10):
            for gamma in np.linspace(0.05, n / 2 - 0.05, 10):
                assert abs(p_crit(n, gamma) - p_fujita(n / 2 + gamma)) < 1e-12

    def test_gamma_tilde_against_quadratic_oracle(self):
        for n in range(1, 13):
            roots = np.roots([2.0, float(n), -2.0 * n])
            oracle = float(max(roots))
            value = gamma_tilde(n)
            assert value == pytest.approx(oracle, abs=1e-12)
            assert abs(2 * value**2 + n * value - 2 * n) < 1e-12
            assert value < 2.0

    def test_gamma_tilde_examples(self):
        assert gamma_tilde(4) == pytest.approx(math.sqrt(5) - 1, abs=1e-12)
        assert gamma_tilde(1) == pytest.approx((-1 + math.sqrt(17)) / 4, abs=1e-12)

    def test_conjugate(self):
        assert conjugate_exponent(2) == 2.0
        assert conjugate_exponent(3) == pytest.approx(1.5, abs=1e-15)
        assert conjugate_exponent(1.5) == pytest.approx(3.0, abs=1e-15)
        for p in (1.2, 2.7, 9.0):
            assert 1 / p + 1 / conjugate_exponent(p) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(DomainError):
            conjugate_exponent(1.0)


class TestLifespanExponent:
    def test_examples(self):
        assert lifespan_exponent(2, 1, 0.5) == pytest.approx(-2.0, abs=1e-12)
        assert lifespan_exponent(1.5, 2, 0.5) == pytest.approx(-0.8, abs=1e-12)

    def test_two_closed_forms_agree(self):
        rng = np.random.default_rng(7)
        for p, n, gamma in random_admissible(rng, 1000):
            first = lifespan_exponent(p, n, gamma)
            second = -2 * (p - 1) / (2 - (n / 2 + gamma) * (p - 1))
            assert abs(first - second) < 1e-12 * max(1.0, abs(first))

    def test_alpha0_identity(self):
        rng = np.random.default_rng(11)
        for p, n, gamma in random_admissible(rng, 1000):
            a = alpha0(p, n, gamma)
            assert 0 < a < 1
            expected = (2 - (n / 2 + gamma) * (p - 1)) / 2
            assert abs(a - expected) < 1e-12
            # lifespan_exponent * alpha0 = -(p - 1)
            assert abs(lifespan_exponent(p, n, gamma) * a + (p - 1)) < 1e-12

    def test_alpha0_examples(self):
        assert alpha0(2, 1, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert alpha0(1.5, 2, 0.5) == pytest.approx(0.625, abs=1e-15)

    def test_supercritical_rejected_with_bound_name(self):
        with pytest.raises(DomainError, match="p_crit"):
            lifespan_exponent(4.0, 1, 0.5)  # p_crit(1, 0.5) = 3
        with pytest.raises(DomainError):
            alpha0(4.0, 1, 0.5)


def check_gn_conditions(n, s, gamma, p):
    passed = {r.name: r.passed
              for r in classify_regime(RegimeParams(n, gamma, s, p)).reasons}
    beta1 = n / (2 * s) * (1 - 1 / p)
    beta2 = (n / s) * (0.5 - (n + 2 * gamma) / (2 * n * p))
    assert passed["p <= n/(n - 2s)"] == (beta1 <= 1), (n, s, gamma, p)
    assert passed["p >= 1 + 2*gamma/n"] == (beta2 >= 0), (n, s, gamma, p)


class TestGagliardoNirenbergConditions:
    def test_technical_conditions_are_gn_admissibility(self):
        # The proof's interpolation weights beta1 = n/(2s) (1 - 1/p) and
        # beta2 = (n/s) (1/2 - (n + 2 gamma)/(2 n p)) are admissible exactly
        # when the classifier's closed-form cap and lower bound pass.  The
        # grid avoids the boundaries themselves, where the two forms round
        # differently (beta2 ~ -1e-15 at p = 1 + 2*gamma/n).
        for n in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0):
            for s in (0.5, 1.0):
                for gamma in np.linspace(0.05, n / 2 - 0.05, 30):
                    for p in np.linspace(1.05, 5.0, 30):
                        check_gn_conditions(n, s, float(gamma), float(p))


class TestClassifier:
    def test_examples(self):
        assert classify_regime(RegimeParams(1, 0.25, 1, 2)).regime == Regime.BLOW_UP
        assert classify_regime(RegimeParams(2, 0.5, 1, 3)).regime == Regime.GLOBAL_EXISTENCE
        assert classify_regime(RegimeParams(3, 0.5, 1, 2)).regime == Regime.CRITICAL_OPEN

    def test_every_verdict_has_reasons(self):
        verdict = classify_regime(RegimeParams(2, 0.5, 1, 3))
        assert len(verdict.reasons) >= 1
        assert verdict.regime.value == "GlobalExistence"
        assert all({"name", "passed", "lhs", "rhs"} <= set(r._asdict())
                   for r in verdict.reasons)

    def test_cap_gives_outside_theory(self):
        # n = 4, s = 1: cap p <= n/(n-2s) = 2
        verdict = classify_regime(RegimeParams(4, 0.2, 1, 3.0))
        assert verdict.regime == Regime.OUTSIDE_THEORY

    def test_gap_above_critical_is_outside_theory(self):
        # gamma > gamma_tilde: existence needs p >= 1 + 2*gamma/n > p_crit
        n, gamma = 3.0, 1.3
        assert gamma > gamma_tilde(n)
        pc = p_crit(n, gamma)
        lower = 1 + 2 * gamma / n
        p = (pc + lower) / 2
        assert pc < p < lower
        verdict = classify_regime(RegimeParams(n, gamma, 1, p))
        assert verdict.regime == Regime.OUTSIDE_THEORY
        # but above the segment it exists globally
        assert classify_regime(RegimeParams(n, gamma, 1, lower)).regime \
            == Regime.GLOBAL_EXISTENCE

    def test_exclusivity_and_critical_boundary(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = rng.uniform(1, 6)
            gamma = rng.uniform(0.05, n / 2 - 0.05)
            p = rng.uniform(1.05, 5.0)
            regime = classify_regime(RegimeParams(n, gamma, 1, p)).regime
            assert regime in set(Regime)
            pc = p_crit(n, gamma)
            if p < pc:
                assert regime == Regime.BLOW_UP
            boundary = classify_regime(RegimeParams(n, gamma, 1, pc)).regime
            assert boundary == Regime.CRITICAL_OPEN

    def test_rejects_boundary_gamma(self):
        with pytest.raises(DomainError):
            classify_regime(RegimeParams(2, 1.0, 1, 3))

    def test_params_validation(self):
        with pytest.raises(DomainError):
            RegimeParams(0.5, 0.2, 1, 2)
        with pytest.raises(DomainError):
            RegimeParams(2, -0.2, 1, 2)
        with pytest.raises(DomainError):
            RegimeParams(2, 0.2, 1.5, 2)
        with pytest.raises(DomainError):
            RegimeParams(2, 0.2, 1, 0.9)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, message", [("n", "dimension n"),
                                                ("gamma", "gamma must"),
                                                ("p", "exponent p")])
    def test_params_refuse_non_finite(self, field, message, value):
        # a nan p would otherwise classify as GlobalExistence, a nan n or gamma
        # as OutsideTheory
        params = {"n": 2.0, "gamma": 0.5, "s": 1.0, "p": 2.0, field: value}
        with pytest.raises(DomainError, match=message):
            RegimeParams(**params)

    @pytest.mark.parametrize("gammas, ps", [([math.nan], [2.0]),
                                            ([0.5], [math.nan])])
    def test_phase_diagram_refuses_nan(self, gammas, ps):
        # a nan cell would otherwise give a row whose p_crit is nan
        with pytest.raises(DomainError):
            emit_phase_diagram(2, 1, gammas, ps)


class TestSharpLifespanAdmissible:
    def test_examples(self):
        assert sharp_lifespan_admissible(RegimeParams(1, 0.5, 1, 2)).admissible
        report = sharp_lifespan_admissible(RegimeParams(5, 0.5, 1, 2))
        assert not report.admissible  # p > n/(n-2) = 5/3
        assert any("n-2" in r.name and not r.passed for r in report.reasons)
        assert not sharp_lifespan_admissible(RegimeParams(4, 2.0, 1, 2)).admissible

    def test_no_cap_below_dimension_three(self):
        assert sharp_lifespan_admissible(RegimeParams(2, 0.6, 1, 1.9)).admissible

    def test_never_raises(self):
        report = sharp_lifespan_admissible(RegimeParams(3, 1.4, 1, 5))
        assert not report.admissible
        assert len(report.reasons) == 5
