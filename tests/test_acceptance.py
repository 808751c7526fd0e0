"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the
assertions themselves carry the failure detail.
"""

import functools
import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from gencheb import cli, verify
from gencheb.gcn import GcnUnit, power_coeff_sequence, power_coeffs
from gencheb.pauli import gaussian_mat, mat_power
from gencheb.scalars import GaussianRational
from gencheb.matrices import Mat2


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {number}: {label}")
                raise
            print(f"PASS  criterion {number}: {label}")

        return wrapper

    return decorate


def assert_clean(report):
    assert report.ok, (
        f"{report.suite}: {len(report.failures)} failure(s); first: "
        f"{report.failures[0] if report.failures else None}"
    )


@criterion(1, "power-coefficient agreement across methods, n <= 64, 50 units")
def test_criterion_1_power_methods():
    report = verify.suite_gcn(nmax=64, units=50, float_tol=1e-10)
    assert_clean(report)
    # API-level spot checks on top of the streamed suite.
    rng = random.Random(64)
    for _ in range(5):
        unit = GcnUnit(
            Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
        )
        seq = power_coeff_sequence(unit, 64)
        for n in (0, 1, 13, 64):
            assert power_coeffs(unit, n, "matrix") == seq[n]
            assert power_coeffs(unit, n, "binet") == seq[n]


@criterion(2, "Euler sector: cos/sin 1e-12, ODE and addition law 1e-10")
def test_criterion_2_euler():
    report = verify.suite_euler(tol=1e-10)
    assert_clean(report)


@criterion(3, "exact Chebyshev identities to n = 64 (ODE to 32), zero residuals")
def test_criterion_3_cheb_exact():
    report = verify.suite_cheb(nmax=64)
    assert_clean(report)


@criterion(4, "numeric Chebyshev: sine/cosine identities within 1e-10, n <= 32")
def test_criterion_4_cheb_numeric():
    report = verify.suite_cheb_numeric(nmax=32, tol=1e-10)
    assert_clean(report)


@criterion(5, "matrix sector: Cayley-Hamilton, det-1 closed form, rejection")
def test_criterion_5_matrix():
    report = verify.suite_mat(count=200, nmax=32)
    assert_clean(report)
    # Closed form versus squaring, compared directly.
    rng = random.Random(32)
    for _ in range(10):
        while True:
            a = GaussianRational(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            )
            if a:
                break
        b = GaussianRational(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        c = GaussianRational(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        m = Mat2(a, b, c, (1 + b * c) / a)
        for n in range(9):
            assert mat_power(m, n, "chebyshev") == mat_power(m, n, "squaring")
    try:
        mat_power(gaussian_mat(((1, 1), (0, 2))), 2, "chebyshev")
    except ValueError as exc:
        assert "determinant" in str(exc)
    else:
        raise AssertionError("determinant-2 input was not rejected")


@criterion(6, "higher-order triple agreement to n = 24, Hermite order 12")
def test_criterion_6_higher_order():
    assert_clean(verify.suite_u2(nmax=24))
    assert_clean(verify.suite_hermite(order=12))
    # First values re-derived by standalone long division (see test_higher
    # for the oracle itself); frozen here as the gate.
    from gencheb.higher import u2_by_series, u2_gens

    u, v = u2_gens()
    first = [t.poly for t in u2_by_series(4)]
    assert first[1] == 1
    assert first[2] == u
    assert first[3] == u * u - v
    assert first[4] == u ** 3 - 2 * u * v + 1


@criterion(7, "the three repaired identities: variant fails, correction holds")
def test_criterion_7_corrections():
    assert_clean(verify.suite_corrections())


@criterion(8, "CLI: verify all exits 0, byte-identical runs, malformed exits 2")
def test_criterion_8_cli():
    cmd = [sys.executable, "-m", "gencheb", "verify", "all", "--nmax", "24"]
    first = subprocess.run(cmd, capture_output=True, timeout=600)
    second = subprocess.run(cmd, capture_output=True, timeout=600)
    assert first.returncode == 0, first.stdout.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert hashlib.sha256(first.stdout).hexdigest() == (
        "f2a517afe1c48a35cbe5d308da4049e10338b0f473a42948a46e3dbf081304d7"
    )
    bad = subprocess.run(
        [sys.executable, "-m", "gencheb", "cheb", "u", "--n", "-1"],
        capture_output=True,
        timeout=60,
    )
    assert bad.returncode == 2
    as_json = subprocess.run(
        [sys.executable, "-m", "gencheb", "verify", "all", "--nmax", "6",
         "--format", "json"],
        capture_output=True,
        timeout=600,
    )
    payload = json.loads(as_json.stdout)
    assert payload["schema"] == 1 and payload["failures"] == []


def test_verify_all_at_nmax_96_is_pinned(capsys):
    start = time.perf_counter()
    code = cli.main(["verify", "all", "--nmax", "96"])
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "63c91c3f148c1f7d96a35933271b0755d8454075badc060942fb1cece2475cb6"
    )
    # About a second; a suite whose cost is not linear in nmax would take minutes.
    assert seconds < 120
