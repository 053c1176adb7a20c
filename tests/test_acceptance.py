"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Statistical criteria run at their stated scale (N = 10^6, 100+ trials,
prime_limit 10^6) with the fixed base seed 42; they measure finite-scale
shadows of asymptotic statements, and the printed lines carry the measured
values either way.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from rmflab.dirichlet import euler_product_F, euler_product_F_star, zeta
from rmflab.experiments import ExperimentConfig, run_experiment, write_experiment
from rmflab.mellin import boundary_term, mellin_step_integral, truncated_identity_sides
from rmflab.primes import build_spf_sieve
from rmflab.series import compute_series
from rmflab.signs import MultiplicativeEvaluator, SignAssignment

from conftest import oracle_liouville, oracle_mobius

BASE_SEED = 42


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def table():
    return build_spf_sieve(10**6)


# ---------------------------------------------------------------------------
# 1. Exact identities
# ---------------------------------------------------------------------------


def test_1a_convolution_identity(table):
    start = time.monotonic()
    limit = 10**4
    for seed in range(10):
        ev = MultiplicativeEvaluator(SignAssignment.iid(seed), table)
        f = ev.values_up_to(limit, "f").astype(np.int64)
        fstar = ev.values_up_to(limit, "fstar").astype(np.int64)
        conv = np.zeros(limit + 1, dtype=np.int64)
        d = 1
        while d * d <= limit:
            sq = d * d
            ks = np.arange(1, limit // sq + 1)
            conv[ks * sq] += f[ks]
            d += 1
        mismatches = int(np.count_nonzero(conv[1:] != fstar[1:]))
        assert mismatches == 0, f"seed {seed}: {mismatches} mismatches"
    elapsed = time.monotonic() - start
    ok = elapsed < 5.0
    assert report("1a convolution f*=f*1_PS", ok,
                  f"exhaustive n<=10^4 x 10 seeds exact; {elapsed:.2f} s (< 5 s)")


def test_1b_truncated_identity_100_configs(table):
    start = time.monotonic()
    rng = np.random.default_rng(BASE_SEED)
    worst = 0.0
    for _ in range(100):
        seed = int(rng.integers(0, 2**32))
        alpha = float(rng.choice([0.0, 0.25, 0.5]))
        re_s = float(rng.uniform(alpha + 0.05, 1.5))
        im_s = float(rng.uniform(-2.0, 2.0)) if rng.random() < 0.5 else 0.0
        limit = int(rng.choice([10**3, 10**5]))
        s = complex(re_s, im_s)
        a = SignAssignment.iid(seed)
        model = str(rng.choice(["f", "fstar"]))
        lhs, rhs = truncated_identity_sides(a, model, alpha, s, limit)
        residual = abs(lhs - rhs)
        series = compute_series(a, model, alpha, limit, table)
        scale = abs(mellin_step_integral(series, s) + boundary_term(series, s)) + 1.0
        worst = max(worst, residual / scale)
        assert residual <= 1e-9 * scale
    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    assert report("1b truncated partial-summation identity", ok,
                  f"100 random configs, worst relative residual {worst:.2e} (<= 1e-9); "
                  f"{elapsed:.1f} s (< 60 s)")


def test_1c_euler_products_classical(table):
    start = time.monotonic()
    minus = SignAssignment.all_minus_one()
    f_err = abs(euler_product_F(minus, 2.0, 10**6, table).value - 6 / math.pi**2)
    zeta4_over_zeta2 = (math.pi**4 / 90) / (math.pi**2 / 6)
    fstar_err = abs(euler_product_F_star(minus, 2.0, 10**6, table).value - zeta4_over_zeta2)
    elapsed = time.monotonic() - start
    ok = f_err < 1e-4 and fstar_err < 1e-4 and elapsed < 10.0
    assert report("1c classical Euler products", ok,
                  f"|F-6/pi^2|={f_err:.2e}, |F*-z(4)/z(2)|={fstar_err:.2e} (< 1e-4); "
                  f"{elapsed:.2f} s (< 10 s)")


def test_1d_zeta_values():
    zeta2_err = abs(zeta(2.0) - math.pi**2 / 6)
    bounds = {}
    for sigma in (0.51, 0.505, 0.501):
        bounds[sigma] = abs(math.log(zeta(2 * sigma).real) + math.log(2 * sigma - 1))
    ok = zeta2_err < 1e-10 and all(v <= 1.0 for v in bounds.values())
    assert report("1d zeta checks", ok,
                  f"|zeta(2)-pi^2/6|={zeta2_err:.1e} (< 1e-10); "
                  f"|log zeta(2s)+log(2s-1)| = {[round(v, 4) for v in bounds.values()]} (<= 1)")


# ---------------------------------------------------------------------------
# 2. Oracle equivalence
# ---------------------------------------------------------------------------


def test_2a_mobius_liouville_oracles(table):
    start = time.monotonic()
    minus = MultiplicativeEvaluator(SignAssignment.all_minus_one(), table)
    f = minus.values_up_to(10**5, "f").astype(np.int64)
    fstar = minus.values_up_to(10**5, "fstar").astype(np.int64)
    mu = oracle_mobius(10**5)
    lam = oracle_liouville(10**5)
    mu_ok = np.array_equal(f[1:], mu[1:])
    lam_ok = np.array_equal(fstar[1:], lam[1:])
    m10 = int(f[1:11].sum())
    l10 = int(fstar[1:11].sum())
    elapsed = time.monotonic() - start
    ok = mu_ok and lam_ok and m10 == -1 and l10 == 0 and elapsed < 10.0
    assert report("2a Moebius/Liouville oracle equivalence", ok,
                  f"exhaustive n<=10^5 match={mu_ok and lam_ok}, M(10)={m10} (-1), "
                  f"L(10)={l10} (0); {elapsed:.2f} s (< 10 s)")


def test_2b_mellin_vs_quadrature(table):
    rng = np.random.default_rng(BASE_SEED)
    worst = 0.0
    for _ in range(20):
        seed = int(rng.integers(0, 2**32))
        alpha = float(rng.choice([0.0, 0.25, 0.5]))
        sigma = float(rng.uniform(alpha + 0.1, 1.4))
        limit = int(rng.integers(50, 400))
        model = str(rng.choice(["f", "fstar"]))
        series = compute_series(SignAssignment.iid(seed), model, alpha, limit, table)
        mine = mellin_step_integral(series, sigma).real
        expo = sigma + 1 - alpha
        total = 0.0
        for n in range(1, limit):
            if series.values[n] != 0.0:
                part, _ = quad(lambda x: x**-expo, n, n + 1, epsabs=1e-13, epsrel=1e-13)
                total += series.values[n] * part
        oracle = (sigma - alpha) * total
        worst = max(worst, abs(mine - oracle))
        assert abs(mine - oracle) < 1e-8
    assert report("2b Mellin integral vs adaptive quadrature", True,
                  f"20 random configs, worst |diff| = {worst:.2e} (< 1e-8)")


# ---------------------------------------------------------------------------
# 3. Statistical suites
# ---------------------------------------------------------------------------


def test_3a_theorem1_shadow_sign_changes_f():
    start = time.monotonic()
    fractions = {}
    for alpha in (0.0, 0.25, 0.5):
        cfg = ExperimentConfig(experiment="sign-changes", model="f", alpha=alpha,
                               limit=10**6, trials=100, base_seed=BASE_SEED)
        stats = run_experiment(cfg)
        fractions[alpha] = stats.summary["pass_fraction"]
    elapsed = time.monotonic() - start
    ok = all(v >= 0.95 for v in fractions.values()) and elapsed < 900
    assert report("3a Theorem-1 shadow (model f)", ok,
                  f"fraction of 100 trials with >= 5 sign changes at N=10^6: "
                  f"{fractions} (each >= 0.95); {elapsed:.0f} s (< 900 s)")


def test_3b_theorem2_shadow_sign_changes_fstar():
    start = time.monotonic()
    fractions = {}
    for alpha in (0.0, 0.25):
        cfg = ExperimentConfig(experiment="sign-changes", model="fstar", alpha=alpha,
                               limit=10**6, trials=100, base_seed=BASE_SEED)
        stats = run_experiment(cfg)
        fractions[alpha] = stats.summary["pass_fraction"]
    elapsed = time.monotonic() - start
    ok = all(v >= 0.95 for v in fractions.values()) and elapsed < 900
    assert report("3b Theorem-2 shadow (model fstar)", ok,
                  f"fraction of 100 trials with >= 5 sign changes at N=10^6: "
                  f"{fractions} (each >= 0.95); {elapsed:.0f} s (< 900 s)")


def test_3c_open_question_probe_reporting_only():
    cfg = ExperimentConfig(experiment="sign-changes", model="fstar", alpha=0.5,
                           limit=10**6, trials=100, base_seed=BASE_SEED)
    stats = run_experiment(cfg)
    counts = sorted(stats.columns["count"].tolist())
    ok = stats.summary["reporting_only"] and "pass_fraction" not in stats.summary
    assert report("3c open-question probe (fstar, alpha=1/2)", ok,
                  "reported only, no pass/fail attached; count quantiles "
                  f"min={counts[0]}, q25={counts[25]}, median={counts[50]}, "
                  f"q75={counts[75]}, max={counts[-1]}")


def test_3d_positivity_shadow():
    start = time.monotonic()
    cfg = ExperimentConfig(experiment="positivity", model="fstar", alpha=1.0,
                           limit=10**4, trials=10**4, base_seed=BASE_SEED)
    stats = run_experiment(cfg)
    frac = stats.summary["pass_fraction"]
    elapsed = time.monotonic() - start
    ok = frac >= 0.99 and elapsed < 600
    assert report("3d positivity shadow (fstar, alpha=1)", ok,
                  f"all-positive fraction over 10^4 trials at N=10^4: {frac:.4f} "
                  f"(>= 0.99); {elapsed:.0f} s (< 600 s)")


def test_3e_harper_trend():
    start = time.monotonic()
    cfg = ExperimentConfig(experiment="harper", trials=100, base_seed=BASE_SEED,
                           limit=1, prime_limit=10**6)
    stats = run_experiment(cfg)
    medians = stats.summary["median_centered"]
    elapsed = time.monotonic() - start
    ok = stats.summary["trend_increasing"] and elapsed < 1200
    assert report("3e Harper trend (Theorem 3 shadow)", ok,
                  f"median centered sup along sigma {list(cfg.sigma_grid)}: "
                  f"{[round(medians[repr(s)], 4) for s in cfg.sigma_grid]} "
                  f"(increasing on {stats.summary['trend_steps_increasing']}/"
                  f"{stats.summary['trend_steps_total']} steps, needs all); "
                  f"{elapsed:.0f} s (< 1200 s)")


def test_3f_divergence_gap():
    start = time.monotonic()
    results = {}
    for model, alpha in (("f", 0.5), ("fstar", 0.0)):
        cfg = ExperimentConfig(experiment="divergence", model=model, alpha=alpha,
                               limit=10**6, trials=50, base_seed=BASE_SEED,
                               prime_limit=10**6)
        stats = run_experiment(cfg)
        results[(model, alpha)] = (
            stats.summary["triangle_inequality_ok"],
            stats.summary["fraction_ratio_monotone"],
        )
    elapsed = time.monotonic() - start
    triangle_ok = all(v[0] for v in results.values())
    majority_ok = all(v[1] > 0.5 for v in results.values())
    ok = triangle_ok and majority_ok
    assert report("3f divergence gap (signed vs absolute)", ok,
                  f"triangle inequality everywhere: {triangle_ok} (hard); "
                  f"monotone-ratio fractions {{f,a=1/2: {results[('f', 0.5)][1]:.2f}, "
                  f"fstar,a=0: {results[('fstar', 0.0)][1]:.2f}}} (> 0.5); {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# 4. Determinism across worker counts
# ---------------------------------------------------------------------------


def test_4_determinism_across_workers(tmp_path):
    configs = [
        dict(experiment="sign-changes", model="f", alpha=0.5, limit=10**4, trials=16,
             base_seed=BASE_SEED),
        dict(experiment="divergence", model="f", alpha=0.5, limit=5000, trials=6,
             base_seed=BASE_SEED, sigma_grid=(0.58, 0.54), prime_limit=10**4),
        dict(experiment="harper", model="f", alpha=0.0, limit=1, trials=6,
             base_seed=BASE_SEED, sigma_grid=(0.56, 0.53), prime_limit=10**4),
    ]
    all_ok = True
    for base in configs:
        texts = set()
        for threads in (1, 4, 8):
            cfg = ExperimentConfig(**base, threads=threads)
            stats = run_experiment(cfg)
            out = tmp_path / f"{base['experiment']}-{threads}"
            manifest_path, csv_path = write_experiment(stats, out)
            with open(csv_path, "rb") as fh:
                texts.add(fh.read())
        all_ok &= len(texts) == 1
    assert report("4 determinism across 1/4/8 workers", all_ok,
                  "per-trial CSVs byte-identical for sign-changes, divergence, harper")
