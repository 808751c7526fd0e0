"""The verification suites' recurrences are references of their own.

The library reads U_n and U2_n off the power walks of their units.  A
library that is wrong in a consistent way, in both the unit's coefficients
and the polynomials read off them, must still be caught by the suites'
hand-written recurrences.  The suites build their references for every n
up to nmax incrementally, so their cost grows linearly in nmax.
"""

from gencheb import cheby, higher, verify
from gencheb.matrices import Mat3


def _failed_cases(report):
    return {failure.case for failure in report.failures}


def test_cheb_reference_catches_consistent_b_and_u(monkeypatch):
    cheb_ab, cheb_u = cheby.cheb_AB, cheby.cheb_U

    def bad_ab(n):
        pair = cheb_ab(n)
        return cheby.ChebCoeffPair(n, pair.a, pair.b + 1) if n == 5 else pair

    def bad_u(n):
        u = cheb_u(n)
        return cheby.ChebPoly(u.kind, n, u.poly + 1) if n == 4 else u

    monkeypatch.setattr(cheby, "cheb_AB", bad_ab)
    monkeypatch.setattr(cheby, "cheb_U", bad_u)
    assert "b-is-u/n5" in _failed_cases(verify.suite_cheb(nmax=8))


def test_u2_reference_catches_consistent_series_and_gamma(monkeypatch):
    by_series, by_recurrence = higher.u2_by_series, higher.u2_by_recurrence
    sequence = higher.cubic_power_sequence

    def bad(route):
        def wrong(n_max):
            values = route(n_max)
            values[5] = higher.TwoVarCheb(5, values[5].poly + 1)
            return values

        return wrong

    def bad_sequence(u, v, n_max):
        values = sequence(u, v, n_max)
        c = values[6]
        values[6] = higher.CubicPowerCoeffs(6, c.alpha, c.beta, c.gamma + 1)
        return values

    monkeypatch.setattr(higher, "u2_by_series", bad(by_series))
    monkeypatch.setattr(higher, "u2_by_recurrence", bad(by_recurrence))
    monkeypatch.setattr(higher, "cubic_power_sequence", bad_sequence)
    assert "series-vs-rec/n5" in _failed_cases(verify.suite_u2(nmax=8))


def test_suite_u2_matrix_products_grow_linearly_in_nmax(monkeypatch):
    # The cubic-matrix cases walk one running product of the companion, and
    # raise it by squaring once, at nmax; raising it afresh for every n
    # costs O(nmax log nmax) products instead.
    calls = 0
    multiply = Mat3.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return multiply(self, other)

    monkeypatch.setattr(Mat3, "__mul__", counted)
    counts = []
    for nmax in (16, 32):
        calls = 0
        assert verify.suite_u2(nmax=nmax).ok
        counts.append(calls)
    assert counts[1] - counts[0] <= 20, counts
