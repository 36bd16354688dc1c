"""Acceptance gate: ten end-to-end criteria covering the statistic identity,
Monte Carlo error reproduction, sampler correctness, orientation behavior,
incremental/naive equivalence, complexity exponents, and the error pipeline.

Each test evaluates one criterion and prints an ``ACCEPTANCE <k> PASS|FAIL``
line (visible with ``pytest -s``; the per-test PASSED/FAILED line of
``pytest -v`` carries the same information).
"""
import math
import time

import numpy as np
import pytest

import scaleshift as ss
from scaleshift.bench import BenchConfig, Method, run_mae_study, run_timing_study
from scaleshift.cli import build_preset, main
from scaleshift.css import (
    Orientation,
    ScaleEstimatorSpec,
    classical_css,
    detect_orientation,
    robust_css,
)
from scaleshift.detect import METHOD_ICSS, detect_oriented, icss_detect, ols_detect, orient
from scaleshift.simulate import MixtureSpec, StableSpec, gen_stable_series, make_rng
from scaleshift.simulate import _stable_draws

from oracles import naive_css
from stable_reference import ANCHORS, ks_distance, stable_cdf


def _verdict(k: int, ok: bool, detail: str = "") -> None:
    word = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {k} {word}{suffix}")


def _methods(*cols):
    by_col = {m.column: m for m in ss.default_methods()}
    return tuple(by_col[c] for c in cols)


def _mae_by(report, param):
    out = {}
    for row in report.rows:
        out[(dict(row.grid_params)[param], row.method)] = row.mae
    return out


# ---------------------------------------------------------------------------
def test_criterion_01_css_identity_property():
    """C_n equals n*(var + mean^2) - var on every prefix of random vectors."""
    t0 = time.time()
    rng = make_rng(20240817)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        x = rng.standard_normal(n) * scale + rng.uniform(-2.0, 2.0) * scale
        trace = classical_css(x).values
        for i in range(1, n + 1):
            mean = ss.sample_mean(x[:i])
            var = ss.sample_variance(x[:i]) if i >= 2 else 0.0
            identity = i * (var + mean * mean) - var
            rel = abs(trace[i - 1] - identity) / max(1.0, abs(trace[i - 1]))
            worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _verdict(1, ok, f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def stable_heavy_report():
    cfg = BenchConfig(
        grid=(
            StableSpec(alpha=1.1, gamma2=0.2, N=1000),
            StableSpec(alpha=1.1, gamma2=3.0, N=1000),
        ),
        methods=_methods("icss", "icss_bmid", "ols", "ols_bmid"),
        trials=50,
        base_seed=0,
    )
    t0 = time.time()
    report = run_mae_study(cfg)
    return report, time.time() - t0


def test_criterion_02_robust_vs_classical_heavy_tails(stable_heavy_report):
    """At alpha=1.1 the robust BMID variants beat the classical detectors by
    the required factors, inside the stated MAE bands."""
    report, elapsed = stable_heavy_report
    by = _mae_by(report, "gamma2")
    ok = elapsed < 900.0
    details = []
    for g in (0.2, 3.0):
        icss, icss_b = by[(g, "ICSS")], by[(g, "ICSS[BMID]")]
        ols, ols_b = by[(g, "OLS")], by[(g, "OLS[BMID]")]
        ok &= icss_b <= icss / 5.0
        ok &= ols_b <= ols / 4.0
        ok &= 100.0 <= icss <= 320.0
        ok &= 3.0 <= icss_b <= 60.0
        details.append(f"g2={g}: ICSS {icss:.1f} vs BMID {icss_b:.1f}")
    _verdict(2, ok, "; ".join(details))
    for g in (0.2, 3.0):
        assert by[(g, "ICSS[BMID]")] <= by[(g, "ICSS")] / 5.0
        assert by[(g, "OLS[BMID]")] <= by[(g, "OLS")] / 4.0
        assert 100.0 <= by[(g, "ICSS")] <= 320.0
        assert 3.0 <= by[(g, "ICSS[BMID]")] <= 60.0
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
def test_criterion_03_gaussian_parity():
    """At alpha=2 every robust method stays within a factor of 3 of its
    classical counterpart."""
    cfg = BenchConfig(
        grid=(
            StableSpec(alpha=2.0, gamma2=0.2, N=1000),
            StableSpec(alpha=2.0, gamma2=5.0, N=1000),
        ),
        methods=ss.default_methods(),
        trials=50,
        base_seed=0,
    )
    by = _mae_by(run_mae_study(cfg), "gamma2")
    pairs = [
        ("ICSS[BMID]", "ICSS"),
        ("ICSS[QCV]", "ICSS"),
        ("OLS[BMID]", "OLS"),
        ("OLS[QCV]", "OLS"),
    ]
    worst = 1.0
    for g in (0.2, 5.0):
        for robust, base in pairs:
            r, b = by[(g, robust)], by[(g, base)]
            worst = max(worst, max(r, b) / min(r, b))
    ok = worst <= 3.0
    _verdict(3, ok, f"worst robust/baseline ratio {worst:.2f}")
    assert worst <= 3.0


# ---------------------------------------------------------------------------
def test_criterion_04_mixture_ordering():
    """Mixture model: robust methods dominate for strong spikes, and stay
    within a factor of 2 of the baseline for weak spikes."""
    cfg = BenchConfig(
        grid=(
            MixtureSpec(omega2=2.0, nu=10.0, p=0.05, N=1000),
            MixtureSpec(omega2=5.0, nu=25.0, p=0.05, N=1000),
            MixtureSpec(omega2=0.5, nu=0.75, p=0.05, N=1000),
        ),
        methods=ss.default_methods(),
        trials=50,
        base_seed=0,
    )
    by = _mae_by(run_mae_study(cfg), "omega2")
    ok = True
    for w in (2.0, 5.0):
        ok &= by[(w, "ICSS[QCV]")] < by[(w, "ICSS")]
        ok &= by[(w, "OLS[BMID]")] < by[(w, "OLS")]
    ratios = []
    for robust in ("ICSS[BMID]", "ICSS[QCV]"):
        r, b = by[(0.5, robust)], by[(0.5, "ICSS")]
        ratios.append(max(r, b) / min(r, b))
    ok &= max(ratios) <= 2.0
    _verdict(
        4,
        ok,
        f"w2=2: {by[(2.0, 'ICSS[QCV]')]:.1f}<{by[(2.0, 'ICSS')]:.1f}; "
        f"w2=5: {by[(5.0, 'ICSS[QCV]')]:.1f}<{by[(5.0, 'ICSS')]:.1f}; "
        f"weak-spike ratio {max(ratios):.2f}",
    )
    for w in (2.0, 5.0):
        assert by[(w, "ICSS[QCV]")] < by[(w, "ICSS")]
        assert by[(w, "OLS[BMID]")] < by[(w, "OLS")]
    assert max(ratios) <= 2.0


# ---------------------------------------------------------------------------
def test_criterion_05_stable_sampler_ks():
    """KS distance below 0.01 between sampler draws and the reference CDF."""
    t0 = time.time()
    for (alpha, x), expected in ANCHORS.items():
        got = float(stable_cdf(np.array([x]), alpha)[0])
        assert got == pytest.approx(expected, abs=1e-12)
    distances = {}
    for alpha in (1.1, 1.5, 1.9, 2.0):
        draws = _stable_draws(alpha, 1.0, 100_000, make_rng(2024))
        draws.sort()
        distances[alpha] = ks_distance(draws, alpha)
    elapsed = time.time() - t0
    ok = max(distances.values()) < 0.01 and elapsed < 60.0
    _verdict(
        5,
        ok,
        "KS " + ", ".join(f"a={a}: {d:.4f}" for a, d in distances.items())
        + f"; {elapsed:.1f}s",
    )
    for alpha, d in distances.items():
        assert d < 0.01, f"alpha={alpha}"
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
def test_criterion_06_deterministic_micro_oracles():
    """Hand-checked ICSS statistic trace and exact OLS breakpoint."""
    res = icss_detect(classical_css([1, 1, 1, 10, 10, 10]))
    hand = np.array([-0.1634, -0.3267, -0.4901, -0.3267, -0.1634, 0.0])
    icss_ok = res.change_point == 3 and np.allclose(
        np.round(res.statistic_trace, 4), hand, atol=5e-5
    )
    n, k = 40, 17
    j = np.arange(1, n + 1, dtype=float)
    c = np.where(j <= k, j, 30.0 + 4.0 * (j - k))
    trace = ss.CssTrace(
        values=c, estimator=ScaleEstimatorSpec.classical(), source_length=n
    )
    ols_res = ols_detect(trace)
    ols_ok = ols_res.change_point == k and ols_res.statistic_at_cp <= 1e-9
    ok = icss_ok and ols_ok
    _verdict(6, ok, f"icss cp={res.change_point}, ols cp={ols_res.change_point} "
                    f"S={ols_res.statistic_at_cp:.1e}")
    assert icss_ok
    assert ols_ok


# ---------------------------------------------------------------------------
def test_criterion_07_orientation_enhancement():
    """Across 200 seeds per direction: a scale increase makes the robust
    trace bend below its chord and triggers reversal; a scale decrease
    leaves it above the chord with no reversal, at >= 95% rates.

    The chord test uses the standard convexity convention (points above the
    chord mean a concave trace); the reversal targets traces where the
    low-scale regime leads.
    """
    counts = {}
    for gamma2, want, want_reversal in (
        (2.0, Orientation.CONVEX, True),
        (0.25, Orientation.CONCAVE, False),
    ):
        n_orient = 0
        n_reversal = 0
        for seed in range(200):
            series, _ = gen_stable_series(
                StableSpec(alpha=1.8, gamma2=gamma2, N=1000, cp=500, seed=seed)
            )
            trace = robust_css(series, ScaleEstimatorSpec.bmid())
            if detect_orientation(trace) is want:
                n_orient += 1
            res = detect_oriented(orient(series), METHOD_ICSS)
            if res.reversed_applied == want_reversal:
                n_reversal += 1
        counts[gamma2] = (n_orient, n_reversal)
    ok = all(o >= 190 and r >= 190 for o, r in counts.values())
    _verdict(
        7,
        ok,
        f"g2=2: {counts[2.0][0]}/200 convex, {counts[2.0][1]}/200 reversed; "
        f"g2=0.25: {counts[0.25][0]}/200 concave, {counts[0.25][1]}/200 kept",
    )
    for gamma2, (n_orient, n_reversal) in counts.items():
        assert n_orient >= 190, f"gamma2={gamma2}"
        assert n_reversal >= 190, f"gamma2={gamma2}"


# ---------------------------------------------------------------------------
def test_criterion_08_incremental_vs_naive_equivalence():
    """The incremental robust scan equals the per-prefix oracle bit-for-bit
    over 100 random series (lengths <= 500, both robust estimators)."""
    rng = make_rng(5150)
    all_equal = True
    for i in range(100):
        n = int(rng.integers(20, 501))
        alpha = 1.3 if i % 2 else 2.0
        series = _stable_draws(alpha, 1.0, n, rng)
        if i % 3 == 0:
            series[rng.integers(0, n)] *= 50.0  # inject an outlier
        spec = ScaleEstimatorSpec.bmid() if i % 2 else ScaleEstimatorSpec.qcv()
        fast = robust_css(series, spec)
        slow = naive_css(series, spec)
        if not (
            np.array_equal(fast.values, slow.values)
            and fast.degenerate_prefixes == slow.degenerate_prefixes
        ):
            all_equal = False
            break
    _verdict(8, all_equal, "bitwise trace equality, 100 series")
    assert all_equal


# ---------------------------------------------------------------------------
def test_criterion_09_complexity_exponents():
    """Fitted log-log exponents in [1.0, 2.2] for every robust method, with
    QCV variants faster than their BMID counterparts at N = 5000."""
    cfg = build_preset("timing-desk", 0)
    report = run_timing_study(cfg)
    betas = dict(report.exponents)
    ok = all(1.0 <= b <= 2.2 for b in betas.values())
    at_5000 = {
        row.method: row.median_seconds for row in report.rows if row.n == 5000
    }
    ok &= at_5000["ICSS[QCV]"] < at_5000["ICSS[BMID]"]
    ok &= at_5000["OLS[QCV]"] < at_5000["OLS[BMID]"]
    _verdict(
        9,
        ok,
        "beta " + ", ".join(f"{m}={b:.2f}" for m, b in betas.items())
        + f"; t5000 QCV {at_5000['ICSS[QCV]']*1e3:.0f}ms vs BMID "
        f"{at_5000['ICSS[BMID]']*1e3:.0f}ms",
    )
    for method, beta in betas.items():
        assert 1.0 <= beta <= 2.2, method
    assert at_5000["ICSS[QCV]"] < at_5000["ICSS[BMID]"]
    assert at_5000["OLS[QCV]"] < at_5000["OLS[BMID]"]


# ---------------------------------------------------------------------------
def test_criterion_10_normalized_error_pipeline(tmp_path):
    """Normalized-error unit examples, plus the simulate -> detect CLI
    round trip standing in for unavailable real datasets."""
    exact = ss.normalized_error(500, 500, 1000)
    fin = "%.5f" % ss.normalized_error(376, 380, 760)
    bound = ss.normalized_error(1, 97, 97)
    unit_ok = exact == 0.0 and fin == "0.00526" and bound == 96 / 97

    fixture = str(tmp_path / "fixture.csv")
    rc1 = main(
        ["simulate", "mixture", "--omega2", "5", "--nu", "25", "--p", "0.05",
         "--n", "1000", "--cp", "500", "--seed", "3", "--output", fixture]
    )
    out = str(tmp_path / "result.json")
    rc2 = main(
        ["detect", "--input", fixture, "--column", "value", "--method", "icss",
         "--estimator", "qcv", "--output", out]
    )
    import json

    detected = json.load(open(out))["change_point"]
    roundtrip_ok = rc1 == 0 and rc2 == 0 and abs(detected - 499) <= 50
    ok = unit_ok and roundtrip_ok
    _verdict(10, ok, f"formatted {fin}; round-trip cp {detected}")
    assert unit_ok
    assert roundtrip_ok
