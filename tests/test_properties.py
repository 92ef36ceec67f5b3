"""Every spec from the survey's distribution solves to a valid density that
passes through the checks of ``expfun validate``, or raises an ExpfunError.

The draw follows ``benchmarks/survey.py``: a family with its parameters,
then a drift (0 or U(0.1, 2)) and a kill rate (0 or U(0.05, 2)).  The
grid has the survey's log-span at an eighth of its cells.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from expfun.errors import ExpfunError
from expfun.model import SubordinatorSpec
from expfun.solver import build_grid, residual, solve
from expfun.tails import (
    CompoundPoissonExpTail,
    GammaExpTail,
    LampertiKilledTail,
    StableTail,
    StretchedExpTail,
)
from expfun.validation import dual_large_x_check, validate_checks

CELLS = 4500 // 8
DELTA = 0.998**8


def unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def shifted(base, lo, hi):
    """(a, a + U(lo, hi)) pairs, the survey's dependent second parameter."""
    return base.flatmap(lambda a: st.tuples(st.just(a), unit(a + lo, a + hi)))


TAILS = st.one_of(
    st.tuples(st.just(StableTail), unit(0.05, 0.95)),
    st.tuples(st.just(GammaExpTail), shifted(unit(0.05, 1.0), 0.0, 3.0), unit(0.1, 5.0)).map(
        lambda t: (t[0], *t[1], t[2])
    ),
    st.tuples(st.just(CompoundPoissonExpTail), unit(0.1, 5.0), unit(0.2, 5.0)),
    st.tuples(st.just(LampertiKilledTail), shifted(unit(0.05, 0.95), 0.01, 5.0)).map(
        lambda t: (t[0], *t[1])
    ),
    st.tuples(st.just(StretchedExpTail), unit(0.05, 1.95), st.sampled_from([1, 2, 3])),
)
DRIFTS = st.one_of(st.just(0.0), unit(0.1, 2.0))
KILLS = st.one_of(st.just(0.0), unit(0.05, 2.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(TAILS, DRIFTS, KILLS)
def test_survey_specs_solve_validly_or_raise_a_typed_error(tail, drift, kill):
    family, *params = tail
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            spec = SubordinatorSpec(drift, kill, family(*params))
            density = solve(spec, build_grid(spec, DELTA, CELLS))
        except ExpfunError:
            return
        heights = density.heights
        assert np.all(np.isfinite(heights)) and np.all(heights >= 0)
        assert abs(density.covered_mass + density.left_gap_mass_bound - 1.0) <= 1e-9
        assert np.isfinite(residual(spec, density))
        checks = validate_checks(spec, density)
        if spec.kill == 0:
            checks["dual"] = lambda: dual_large_x_check(spec, density)
        for check in checks.values():
            try:
                report = check()
            except ExpfunError:
                continue
            if report is not None:
                assert np.isfinite(report.statistic), report.summary()
