"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with ``pytest -s`` or on failure)."""
import math
import time

import numpy as np
import pytest

from conftest import (
    alternating_binomial_partial_sum_oracle,
    count_khop_paths_oracle,
    realize_graph,
    sample_conditioned_ppp,
)
from rcmpaths.analytics import (
    mean_khop_numeric,
    mean_khop_rayleigh,
    variance_terms_numeric,
    variance_threehop_rayleigh,
)
from rcmpaths.experiments import (
    PAIR_CLASSES,
    preset_config,
    run_experiment,
    run_replications,
    validate_margin,
)
from rcmpaths.model import ConnectionSpec, ModelParams
from rcmpaths.moments import (
    PathCountSamples,
    alternating_binomial_partial_sum,
    truncated_zero_probability,
)
from rcmpaths.paths import khop_paths

SEED = 20260801
REPS = 10_000


def _report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _mean_se(x):
    return x.std(ddof=1) / math.sqrt(len(x))


def _variance_se(x):
    r = len(x)
    d = x - x.mean()
    s2 = float(d @ d) / (r - 1)
    m4 = float(np.mean(d**4))
    return math.sqrt(max((m4 - (r - 3) / (r - 1) * s2 * s2) / r, 0.0))


def ray_params(rho=1.0, beta=1.0, r=1.0, k=3):
    return ModelParams(rho=rho, connection=ConnectionSpec.rayleigh(beta=beta), anchor_distance=r, k=k)


@pytest.fixture(scope="module")
def reference_run():
    """10^4 replications at the reference point rho=1, beta=1, r=1, k=3."""
    counts, classes = run_replications(
        ray_params(), seed=SEED, replications=REPS, collect_pairs=True
    )
    return counts.astype(float), classes


def test_criterion_1_reference_statistics(reference_run):
    t0 = time.time()
    counts, _ = reference_run
    p = ray_params()
    mean = mean_khop_rayleigh(p)
    var = variance_threehop_rayleigh(p).variance
    sig_ok = (f"{mean:.3g}", f"{var:.3g}") == ("2.36", "9.95")
    mean_gap = abs(counts.mean() - mean)
    var_gap = abs(counts.var(ddof=1) - var)
    mc_ok = mean_gap <= 4 * _mean_se(counts) and var_gap <= 4 * _variance_se(counts)
    detail = (
        f"analytic mean {mean:.4f} -> '{mean:.3g}', variance {var:.4f} -> '{var:.3g}'; "
        f"MC mean {counts.mean():.4f} (gap {mean_gap:.4f} vs 4se={4*_mean_se(counts):.4f}), "
        f"MC var {counts.var(ddof=1):.4f} (gap {var_gap:.4f} vs 4se={4*_variance_se(counts):.4f}); "
        f"{time.time()-t0:.1f}s"
    )
    _report(1, sig_ok and mc_ok, detail)


def test_criterion_2_mean_and_variance_curves():
    t0 = time.time()
    worst = []
    ok = True
    for rho in (0.5, 2.0, 5.0):
        for r in (0.5, 1.0, 2.0, 3.0):
            p = ray_params(rho=rho, r=r)
            counts, _ = run_replications(p, seed=SEED + 17, replications=REPS)
            counts = counts.astype(float)
            mean_ref = mean_khop_rayleigh(p)
            var_ref = variance_threehop_rayleigh(p).variance
            zm = abs(counts.mean() - mean_ref) / _mean_se(counts)
            zv = abs(counts.var(ddof=1) - var_ref) / _variance_se(counts)
            worst.append(max(zm, zv))
            if zm > 4 or zv > 4:
                ok = False
    detail = f"12 grid points, worst |z| = {max(worst):.2f} (limit 4); {time.time()-t0:.1f}s"
    _report(2, ok, detail)


def test_criterion_3_pair_structure_decomposition(reference_run):
    counts, classes = reference_run
    violations = int((classes.sum(axis=1) != (counts.astype(np.int64)) ** 2).sum())
    am = variance_threehop_rayleigh(ray_params())
    targets = {
        "sigma0": am.mean**2,
        "sigma11": am.sigma11_term,
        "sigma12": am.sigma12_term,
        "sigma21": am.sigma21_term,
        "sigma22": am.sigma22_term,
    }
    zs = {}
    for col, name in enumerate(PAIR_CLASSES):
        vals = classes[:, col].astype(float)
        zs[name] = abs(vals.mean() - targets[name]) / _mean_se(vals)
    ok = violations == 0 and all(z <= 4 for z in zs.values())
    detail = (
        f"identity violations {violations}/{len(counts)}; class z-scores "
        + ", ".join(f"{n}={z:.2f}" for n, z in zs.items())
    )
    _report(3, ok, detail)


def test_criterion_4_oracle_equivalence():
    t0 = time.time()
    mismatches = 0
    checked = 0
    rep = 0
    while checked < 1000:
        rho = 0.3 + 0.4 * (rep % 5)
        beta = 0.4 + 0.3 * (rep % 4)
        params = ModelParams(
            rho=rho,
            connection=ConnectionSpec.rayleigh(beta=beta),
            anchor_distance=0.5 + 0.25 * (rep % 3),
            k=3,
            margin=0.8,
        )
        pts = sample_conditioned_ppp(params, SEED + 4, rep)
        rep += 1
        if len(pts) - 2 > 8:
            continue
        g = realize_graph(pts, params.connection, SEED + 4, rep)
        checked += 1
        for k in (1, 2, 3, 4):
            if len(khop_paths(g, k)) != count_khop_paths_oracle(g, k):
                mismatches += 1
    _report(4, mismatches == 0, f"{checked} instances x k in 1..4, {mismatches} mismatches; {time.time()-t0:.1f}s")


def test_criterion_5_numeric_matches_closed_forms():
    t0 = time.time()
    worst_mean = 0.0
    for k in (2, 3, 4, 5):
        for beta in (0.5, 1.0):
            for r in (0.5, 1.0, 2.0, 3.0):
                for rho in (0.5, 2.0):
                    p = ray_params(rho=rho, beta=beta, r=r, k=k)
                    rel = abs(mean_khop_numeric(p) - mean_khop_rayleigh(p)) / mean_khop_rayleigh(p)
                    worst_mean = max(worst_mean, rel)
    worst_term = 0.0
    terms = ("sigma11_term", "sigma12_term", "sigma21_term", "sigma22_term")
    for beta in (0.5, 1.0):
        for r in (0.5, 1.0, 2.0, 3.0):
            for rho in (0.5, 2.0):
                p = ray_params(rho=rho, beta=beta, r=r, k=3)
                closed = variance_threehop_rayleigh(p)
                num = variance_terms_numeric(p)
                for t in terms:
                    rel = abs(getattr(num, t) - getattr(closed, t)) / getattr(closed, t)
                    worst_term = max(worst_term, rel)
    ok = worst_mean < 1e-3 and worst_term < 1e-3
    detail = (
        f"worst relative error: mean {worst_mean:.2e} (64 combos), "
        f"variance terms {worst_term:.2e} (16 combos x 4 terms); limit 1e-3; {time.time()-t0:.1f}s"
    )
    _report(5, ok, detail)


def test_criterion_6_twohop_poisson_regime():
    t0 = time.time()
    p = ray_params(rho=2.0, r=1.0, k=2)
    counts, _ = run_replications(p, seed=SEED + 6, replications=REPS)
    counts = counts.astype(float)
    dispersion = counts.var(ddof=1) / counts.mean()
    lam = mean_khop_rayleigh(p)
    zero_freq = float(np.mean(counts == 0))
    target = math.exp(-lam)
    se = math.sqrt(target * (1 - target) / len(counts))
    ok = 0.9 <= dispersion <= 1.1 and abs(zero_freq - target) <= 4 * se
    detail = (
        f"dispersion {dispersion:.3f} in [0.9, 1.1]; P(0) {zero_freq:.4f} vs exp(-{lam:.3f})={target:.4f} "
        f"(gap {abs(zero_freq-target):.4f} vs 4se={4*se:.4f}); {time.time()-t0:.1f}s"
    )
    _report(6, ok, detail)


def test_criterion_7_existence_brackets():
    t0 = time.time()
    p = ray_params(rho=2.0, r=1.0, k=3)
    counts, _ = run_replications(p, seed=SEED + 7, replications=REPS)
    s = PathCountSamples(k=3, counts=counts)
    existence_freq = float(np.mean(counts > 0))
    sides_ok = True
    for m in (3, 4, 5):
        est = truncated_zero_probability(s, m).existence_estimate
        if m % 2 == 0 and est > existence_freq:
            sides_ok = False
        if m % 2 == 1 and est < existence_freq:
            sides_ok = False
    top = int(counts.max())
    m_exact = max(80, top)
    exact_est = truncated_zero_probability(s, m_exact).existence_estimate
    exact_ok = exact_est == existence_freq
    if top <= 80:
        exact_ok = exact_ok and truncated_zero_probability(s, 80).existence_estimate == existence_freq
    rng = np.random.default_rng(SEED)
    sigmas = rng.integers(0, 301, size=100_000)
    ms = rng.integers(0, 101, size=100_000)
    bad = 0
    for sig, m in zip(sigmas.tolist(), ms.tolist()):
        if alternating_binomial_partial_sum(sig, m) != alternating_binomial_partial_sum_oracle(sig, m):
            bad += 1
    ok = sides_ok and exact_ok and bad == 0
    detail = (
        f"orders 3,4,5 bracket existence {existence_freq:.4f} (max count {top}); "
        f"order-{m_exact} estimate exact: {exact_ok}; identity violations {bad}/100000; {time.time()-t0:.1f}s"
    )
    _report(7, ok, detail)


def test_criterion_8_thread_count_determinism(tmp_path):
    t0 = time.time()
    ok = True
    checked = []
    for preset, reps in (("fig-mean-var", 30), ("fig-existence", 40)):
        out = tmp_path / preset.replace("-", "_")
        cfg = preset_config(preset, outputs=str(out), seed=SEED, replications=reps)
        run_experiment(cfg, threads=1)
        names = [cfg.name + ".csv", cfg.name + ".json"]
        blobs = {n: (out / n).read_bytes() for n in names}
        run_experiment(cfg, threads=3)
        for n in names:
            same = (out / n).read_bytes() == blobs[n]
            checked.append(f"{n}:{'same' if same else 'DIFFERS'}")
            ok = ok and same
    _report(8, ok, f"threads 1 vs 3 -> {', '.join(checked)}; {time.time()-t0:.1f}s")


def test_criterion_9_margin_validation(tmp_path):
    t0 = time.time()
    # k <= 3 draws the anchors' neighbours with no box, so its shift is zero
    # by construction; the k = 4 point checks the default margin of the box
    grid = tuple(ray_params(rho=rho, r=1.0) for rho in (0.5, 2.0, 5.0)) + (ray_params(rho=1.0, r=1.0, k=4),)
    from rcmpaths.experiments import ExperimentConfig

    cfg = ExperimentConfig(
        name="margin-check",
        params_grid=grid,
        replications=1000,
        seed=SEED + 9,
        outputs=str(tmp_path),
    )
    checks = validate_margin(cfg, replications=1000)
    ok = all(not c.flagged for c in checks)
    detail = "; ".join(
        f"k={c.params.k} rho={c.params.rho}: shift={c.shift:.3g} se={c.shift_se:.3g} flagged={c.flagged}"
        for c in checks
    )
    _report(9, ok, detail + f"; {time.time()-t0:.1f}s")
