import math

import numpy as np
import pytest

from lazy_sliding import ConfigError, ProblemConstants, ScheduleVariant, schedule_eval
from lazy_sliding.schedules import NEEDS, VALID_TAGS, restart_phase_plan

from helpers import EXACT_TAGS

DET_PHASE, STOCH_PHASE = "strongly_convex_det_phase", "strongly_convex_stoch_phase"


def _sv(tag, **kw):
    return ScheduleVariant(tag, **kw)


def test_smooth_stochastic_worked_example():
    c = ProblemConstants(L=1.0, sigma2=1.0, D_X=1.0)
    p = schedule_eval(_sv("smooth_stochastic"), 1, c)
    assert p.beta == pytest.approx(4.0 / 3.0)
    assert p.gamma == pytest.approx(1.0)
    assert p.eta == pytest.approx(0.5)
    assert p.batch == 27


def test_smooth_deterministic_worked_example():
    c = ProblemConstants(L=1.0, D_X=1.0)
    p = schedule_eval(_sv("smooth_deterministic"), 2, c)
    assert p.beta == pytest.approx(1.0)
    assert p.gamma == pytest.approx(0.75)
    assert p.eta == pytest.approx(1.0 / 6.0)
    assert p.batch is None  # exact gradients: no SFO batch


def test_nonsmooth_worked_example():
    c = ProblemConstants(sigma2=0.0, M=1.0, D_X=1.0)
    for k in (1, 2, 7, 100):
        p = schedule_eval(_sv("nonsmooth_stochastic", N=100), k, c)
        assert p.beta == pytest.approx(10.0)
        assert p.gamma == pytest.approx(1.0 / k)
        assert p.eta == pytest.approx(0.1)
        assert p.batch == 1


def test_strongly_convex_det_phase_worked_example():
    c = ProblemConstants(L=1.0, mu=1.0, delta0=1.0, D_X=1.0)
    p = schedule_eval(_sv("strongly_convex_det_phase", N=5, s=1), 1, c)
    assert p.beta == pytest.approx(2.0)
    assert p.gamma == pytest.approx(1.0)
    assert p.eta == pytest.approx(0.8)


def test_fixed_n_stochastic_substitution():
    # direct substitution at k=1, N=10: beta=3L, gamma=1, eta=2 L D0^2 / N
    c = ProblemConstants(L=1.0, sigma2=0.0, D_X=1.0, D_0=1.0)
    p = schedule_eval(_sv("smooth_stochastic_fixed_n", N=10), 1, c)
    assert p.beta == pytest.approx(3.0)
    assert p.gamma == pytest.approx(1.0)
    assert p.eta == pytest.approx(0.2)
    assert p.batch == 1  # sigma = 0 still needs one sample


def test_phase_eta_halves_in_s():
    c = ProblemConstants(L=2.0, mu=0.5, delta0=3.0, D_X=1.0)
    for k in (1, 4, 9):
        etas = [schedule_eval(_sv("strongly_convex_det_phase", N=7, s=s), k, c).eta
                for s in range(1, 11)]
        for a, b in zip(etas, etas[1:]):
            assert b == pytest.approx(a / 2.0)


def test_saddle_tau_and_beta_consistency():
    c = ProblemConstants(A_norm=2.0, sigma_omega=1.0, D_YW=0.5, D_X=1.0)
    taus = []
    for k in range(1, 50):
        p = schedule_eval(_sv("saddle_dynamic"), k, c)
        taus.append(p.tau)
        l_tau = c.A_norm ** 2 / (p.tau * c.sigma_omega)
        assert p.beta * (k + 1) / 3.0 == pytest.approx(l_tau)
    assert all(a >= b for a, b in zip(taus, taus[1:]))  # tau non-increasing
    # static variant: tau constant in k
    taus = [schedule_eval(_sv("saddle_static", N=20), k, c).tau for k in range(1, 21)]
    assert max(taus) == pytest.approx(min(taus))


def test_restart_phase_plan_worked_examples():
    assert restart_phase_plan(ProblemConstants(L=6.0, mu=1.0, delta0=1.0, D_X=1.0),
                              DET_PHASE, 0.5)[0] == 12
    assert restart_phase_plan(ProblemConstants(L=2.0, mu=1.0, delta0=1.0, sigma2=1.0, D_X=1.0),
                              STOCH_PHASE, 0.5)[0] == 8
    _, S = restart_phase_plan(ProblemConstants(L=1.0, mu=1.0, delta0=1.0, D_X=1.0),
                              DET_PHASE, 1.0 / 8.0)
    assert S == 3
    with pytest.raises(ValueError):
        restart_phase_plan(ProblemConstants(L=1.0, mu=0.0, delta0=1.0, D_X=1.0),
                           DET_PHASE, 0.5)


def test_restart_phase_plan_rejects_eps_that_plans_no_phase():
    # a NaN or infinite eps gives delta0 / eps no log2 > 0, so zero phases
    c = ProblemConstants(L=1.0, mu=0.5, delta0=2.0, sigma2=0.0)
    for tag in (DET_PHASE, STOCH_PHASE):
        for eps in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ConfigError, match="eps"):
                restart_phase_plan(c, tag, eps)


def test_restart_phase_plan_checks_its_phase_constants():
    # an L or delta0 of 0 would plan phases of 0 iterations, or none at all
    given = {"L": 1.0, "mu": 0.5, "delta0": 2.0, "sigma2": 0.0}
    for tag in (DET_PHASE, STOCH_PHASE):
        for name in NEEDS[tag]:
            with pytest.raises(ConfigError, match="'%s'" % name):
                restart_phase_plan(ProblemConstants(**dict(given, **{name: None})), tag, 0.1)
        for name in ("L", "delta0", "mu"):
            with pytest.raises(ConfigError, match="'%s' > 0" % name):
                restart_phase_plan(ProblemConstants(**dict(given, **{name: 0.0})), tag, 0.1)
    with pytest.raises(ConfigError, match="phase schedule"):
        restart_phase_plan(ProblemConstants(**given), "smooth_deterministic", 0.1)


SMOOTH_TAGS = [
    ("smooth_stochastic", {}),
    ("smooth_stochastic_fixed_n", {"N": 10 ** 4}),
    ("smooth_deterministic", {}),
    ("smooth_deterministic_fixed_n", {"N": 10 ** 4}),
]


def test_step_condition_gamma1_and_L_gamma_le_beta():
    c = ProblemConstants(L=3.7, sigma2=0.2, D_X=1.3, D_0=1.1)
    ks = list(range(1, 100)) + [10 ** 2, 10 ** 3, 10 ** 4]
    for tag, kw in SMOOTH_TAGS:
        sv = _sv(tag, **kw)
        assert schedule_eval(sv, 1, c).gamma == pytest.approx(1.0)
        for k in ks:
            p = schedule_eval(sv, k, c)
            assert 0.0 <= p.gamma <= 1.0
            assert c.L * p.gamma <= p.beta + 1e-12, (tag, k)
            assert p.eta > 0 and p.beta > 0
            assert p.batch is None if tag in EXACT_TAGS else p.batch >= 1


def test_beta_gamma_over_Gamma_monotonicity():
    c = ProblemConstants(L=2.0, sigma2=1.0, D_X=1.0, D_0=1.0)
    ks = np.arange(1, 10 ** 4 + 1)

    def ratio_series(sv):
        gam, out, G = [], [], 1.0
        for k in ks:
            p = schedule_eval(sv, int(k), c)
            G = G if k == 1 else G * (1.0 - p.gamma)
            out.append(p.beta * p.gamma / G)
        return np.array(out)

    r = ratio_series(_sv("smooth_stochastic"))
    assert np.all(np.diff(r) >= -1e-9 * np.abs(r[:-1]))  # non-decreasing
    for tag in ("smooth_stochastic_fixed_n", "smooth_deterministic_fixed_n"):
        r = ratio_series(_sv(tag, N=10 ** 4))
        assert np.all(np.diff(r) <= 1e-9 * np.abs(r[:-1]))  # non-increasing


def test_batch_rules():
    c = ProblemConstants(L=1.0, sigma2=0.0, D_X=1.0)
    assert schedule_eval(_sv("smooth_stochastic"), 5, c).batch == 1  # sigma=0 -> 1
    c = ProblemConstants(L=1.0, sigma2=1e12, D_X=1.0)
    assert schedule_eval(_sv("smooth_stochastic"), 50, c).batch == 2 ** 20  # capped


def test_missing_constants_named_in_error():
    c = ProblemConstants(D_X=1.0)  # no L, no sigma2
    with pytest.raises(ConfigError, match="L"):
        schedule_eval(_sv("smooth_deterministic"), 1, c)
    c = ProblemConstants(L=1.0, D_X=1.0)
    with pytest.raises(ConfigError, match="sigma2"):
        schedule_eval(_sv("smooth_stochastic"), 1, c)
    with pytest.raises(ValueError):
        schedule_eval(_sv("smooth_deterministic"),
                      0, ProblemConstants(L=1.0, D_X=1.0))


def test_needs_table_names_exactly_the_constants_each_schedule_reads():
    values = {"L": 2.0, "sigma2": 0.5, "D_X": 1.5, "D_0": 1.0, "delta0": 0.7, "M": 1.2,
              "A_norm": 2.0, "D_YW": 0.5, "sigma_omega": 1.0}
    assert VALID_TAGS == frozenset(NEEDS)
    for tag, names in NEEDS.items():
        mu = 0.5 if tag.startswith("strongly_convex") else 0.0
        sv = _sv(tag, N=10, s=2)
        given = {name: values[name] for name in names}
        p = schedule_eval(sv, 3, ProblemConstants(mu=mu, **given))
        assert p.beta > 0 and p.eta > 0, tag
        assert p.batch is None if tag in EXACT_TAGS else p.batch >= 1, tag
        for name in names:
            fewer = {n: v for n, v in given.items() if n != name}
            with pytest.raises(ConfigError, match=name):
                schedule_eval(sv, 3, ProblemConstants(mu=mu, **fewer))
        if mu > 0:
            with pytest.raises(ConfigError, match="mu"):
                schedule_eval(sv, 3, ProblemConstants(**given))
        # a zero scale constant would give eta = 0 or a division by zero;
        # zero noise is a valid regime
        for name in {"L", "D_X", "D_0", "delta0", "A_norm", "D_YW", "sigma_omega"} & set(names):
            with pytest.raises(ConfigError, match="'%s' > 0" % name):
                schedule_eval(sv, 3, ProblemConstants(mu=mu, **dict(given, **{name: 0.0})))
        if "sigma2" in names:
            assert schedule_eval(sv, 3, ProblemConstants(mu=mu, **dict(given, sigma2=0.0))).eta > 0
    # the nonsmooth schedule needs noise or a Lipschitz constant
    sv = _sv("nonsmooth_stochastic", N=10)
    with pytest.raises(ConfigError, match="M"):
        schedule_eval(sv, 1, ProblemConstants(sigma2=0.0, M=0.0, D_X=1.0))
    assert schedule_eval(sv, 1, ProblemConstants(sigma2=1.0, M=0.0, D_X=1.0)).eta > 0


def test_variant_validation():
    with pytest.raises(ConfigError):
        _sv("no_such_tag")
    with pytest.raises(ConfigError):
        _sv("smooth_stochastic_fixed_n")          # missing N
    with pytest.raises(ConfigError):
        _sv("strongly_convex_det_phase", N=5)     # missing s
    with pytest.raises(ValueError):
        ProblemConstants(L=1.0, D_X=1.0, alpha=0.5)
    with pytest.raises(ValueError):
        ProblemConstants(L=1.0, D_X=1.0, D_0=2.0)  # D_0 > D_X
    for bad in ({"L": math.nan}, {"sigma2": math.inf}, {"mu": math.nan}, {"alpha": math.inf}):
        with pytest.raises(ConfigError, match="finite"):
            ProblemConstants(**bad)


@pytest.mark.parametrize("bad", [{"L": "1"}, {"D_X": [1.0]}, {"mu": "0"}, {"alpha": "2"}])
def test_constants_must_be_numbers(bad):
    # a ConfigError, not the TypeError of comparing a string with a number
    with pytest.raises(ConfigError, match="finite"):
        ProblemConstants(**bad)
