import concurrent.futures
import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import math
import os
import tracemalloc

import numpy as np
import pytest

from asyncofdm import analytics, cli, simulation, timing as tm
from asyncofdm.simulation import (
    Estimate,
    SimSpec,
    count_decodable,
    estimate_distribution,
    estimate_mean_decodable,
    estimate_nearest_prob,
    run_trials,
    sample_snapshot,
)
from asyncofdm.sinr import NetworkParams, NetworkSnapshot, db_to_linear
from tests.conftest import budget_params, frozen_snapshot


def _w(cfg):
    return cfg.domain_half_width


def _tg02(cfg):
    return tm.truncated_gaussian(0.2 * 1024, _w(cfg))


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(0, 1)
    with pytest.raises(ValueError):
        SimSpec(10, 1, expected_points=50)
    with pytest.raises(ValueError):
        SimSpec(10, 1, window_radius=-1.0)
    assert SimSpec(10, 1, expected_points=400).radius(1e-4) == pytest.approx(
        math.sqrt(400 / (math.pi * 1e-4)))
    assert SimSpec(10, 1, window_radius=123.0).radius(1e-4) == 123.0


def test_timing_model_for_another_domain_rejected_as_in_the_analytics(cfg):
    params = NetworkParams(1 / 400 ** 2, 3.8, math.inf, db_to_linear(-12.0))
    wide = tm.uniform(-2000.0, 2000.0, 2000.0)
    with pytest.raises(ValueError) as mc:
        simulation.run_trials_each(params, [_tg02(cfg), wide], cfg, SimSpec(10, 1))
    with pytest.raises(ValueError) as analytic:
        analytics.mean_decodable(params, wide, cfg)
    assert str(mc.value) == str(analytic.value) == (
        "timing model built for half-width 2000.0, but the offset domain has half-width 1096")


def test_spec_rejects_non_finite_and_non_integral():
    for kwargs in (dict(window_radius=math.nan), dict(window_radius=math.inf),
                   dict(expected_points=math.nan), dict(expected_points=2000.5)):
        with pytest.raises(ValueError):
            SimSpec(10, 1, **kwargs)
    for trials, seed in ((2.5, 1), (math.nan, 1), (math.inf, 1), (10, 1.5), (10, math.nan),
                         (10, -1)):
        with pytest.raises(ValueError):
            SimSpec(trials, seed)


def test_spec_normalises_integral_values():
    spec = SimSpec(10.0, np.int64(7), expected_points=np.float64(500.0))
    assert (spec.trials, spec.master_seed, spec.expected_points) == (10, 7, 500)
    assert all(type(v) is int for v in (spec.trials, spec.master_seed, spec.expected_points))


def test_snapshot_deterministic_per_seed_and_trial(cfg):
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    spec = SimSpec(10, 77)
    a = sample_snapshot(params, _tg02(cfg), spec, 3)
    b = sample_snapshot(params, _tg02(cfg), spec, 3)
    c = sample_snapshot(params, _tg02(cfg), spec, 4)
    assert np.array_equal(a.distances, b.distances)
    assert np.array_equal(a.fades, b.fades)
    assert np.array_equal(a.offsets, b.offsets)
    assert len(a) != len(c) or not np.array_equal(a.distances, c.distances)


def test_snapshot_trial_index_checked(cfg):
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    spec = SimSpec(10, 77)
    ref = sample_snapshot(params, _tg02(cfg), spec, 3)
    for t in (3.0, np.int64(3)):
        assert sample_snapshot(params, _tg02(cfg), spec, t).distances.tobytes() == \
            ref.distances.tobytes()
    for bad, message in ((-1, ">= 0"), (2.5, "integer"), (math.nan, "integer")):
        with pytest.raises(ValueError, match=message):
            sample_snapshot(params, _tg02(cfg), spec, bad)


def test_snapshot_poisson_count(cfg):
    params = NetworkParams(1e-3, 4.0, math.inf, 1.0)
    spec = SimSpec(1, 5, expected_points=1000)
    counts = [len(sample_snapshot(params, tm.delta(0.0, _w(cfg)), spec, t))
              for t in range(2000)]
    mean = np.mean(counts)
    stderr = np.std(counts, ddof=1) / math.sqrt(len(counts))
    assert abs(mean - 1000.0) <= 4.0 * stderr


def test_snapshot_distance_law(cfg):
    # distance CDF on the disk is (r/R)^2
    params = NetworkParams(1.0, 4.0, math.inf, 1.0)
    spec = SimSpec(1, 123, window_radius=200.0)
    snap = sample_snapshot(params, tm.delta(0.0, _w(cfg)), spec, 0)
    r = np.sort(snap.distances)
    n = len(r)
    assert n > 100_000
    ks = np.max(np.abs(np.arange(1, n + 1) / n - (r / 200.0) ** 2))
    assert ks < 0.01


def test_count_decodable_cases(cfg):
    empty = NetworkSnapshot([], [], [], 0.0, 4.0)
    assert count_decodable(empty, 1.0, cfg) == 0
    lone = NetworkSnapshot([2.0], [1.0], [0.0], 1e-4, 4.0)
    # SINR = 2^-4 / 1e-4 = 625
    assert count_decodable(lone, 600.0, cfg) == 1
    assert count_decodable(lone, 700.0, cfg) == 0


def test_count_at_most_one_above_unity_threshold(cfg):
    params = NetworkParams(1e-3, 3.8, math.inf, 2.0)
    spec = SimSpec(1, 6, expected_points=500)
    for t in range(200):
        snap = sample_snapshot(params, _tg02(cfg), spec, t)
        assert count_decodable(snap, 2.0, cfg) <= 1


def test_truncation_bound_every_trial(cfg):
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    res = run_trials(params, _tg02(cfg), cfg, SimSpec(200, 8), workers=1)
    n_max = math.floor((1.0 + params.threshold) / params.threshold)
    assert np.all(res.counts <= n_max)
    assert np.all(res.counts >= 0)


@pytest.fixture
def two_cpus(monkeypatch):
    """At least two usable CPUs, so that a run on a 1-CPU machine still splits at a chunk
    boundary when it asks for two workers or more."""
    cpus = max(simulation._cpus(), 2)
    monkeypatch.setattr(simulation, "_cpus", lambda: cpus)


def test_worker_count_does_not_change_results(cfg, two_cpus):
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    spec = SimSpec(60, 13)
    r1 = run_trials(params, _tg02(cfg), cfg, spec, workers=1)
    r2 = run_trials(params, _tg02(cfg), cfg, spec, workers=2)
    r8 = run_trials(params, _tg02(cfg), cfg, spec, workers=8)
    assert np.array_equal(r1.counts, r2.counts)
    assert np.array_equal(r1.counts, r8.counts)
    assert np.array_equal(r1.nearest_sinr, r2.nearest_sinr, equal_nan=True)
    assert np.array_equal(r1.nearest_sinr, r8.nearest_sinr, equal_nan=True)


def test_mean_estimate_covers_analytic_value(cfg):
    params = budget_params(1 / 20 ** 2, 3.8, -4.0)
    timing = tm.delta(0.0, _w(cfg))
    est = estimate_mean_decodable(params, timing, cfg, SimSpec(2000, 4), workers=4)
    analytic = analytics.mean_decodable(params, timing, cfg)
    assert abs(est.mean - analytic) <= est.ci_half_width
    assert est.trials == 2000 and est.ci_half_width > 0.0


def test_sparse_limit_mean_near_zero(cfg):
    # moderate SNR keeps the noise-limited decodable radius small, so at
    # density 1e-8 the mean count is essentially zero
    params = NetworkParams(1e-8, 3.8, 1e6, 10.0 ** -1.2)
    est = estimate_mean_decodable(params, _tg02(cfg), cfg,
                                  SimSpec(300, 2, expected_points=100))
    assert est.mean < 1e-2


def test_distribution_mass_and_intervals(cfg):
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    dist = estimate_distribution(params, _tg02(cfg), cfg, SimSpec(500, 9), workers=4)
    assert dist.pmf.sum() == pytest.approx(1.0)
    assert np.all(dist.ci_half_width >= 0.0)
    ccdf = dist.ccdf()
    assert ccdf[0] == 1.0
    assert np.all(np.diff(ccdf) <= 1e-15)
    assert np.all(dist.ccdf_stderr() >= 0.0)


def test_nearest_probability_range_and_empty_trials(cfg):
    params = budget_params(1e-8, 3.8, -12.0)
    est = estimate_nearest_prob(params, tm.delta(0.0, _w(cfg)), cfg,
                                SimSpec(100, 3, expected_points=100))
    assert 0.0 <= est.mean <= 1.0  # most trials are empty and count as failures
    assert est.mean < 0.2


def test_window_sufficiency(cfg):
    params = budget_params(1 / 20 ** 2, 3.8, -4.0)
    base = estimate_mean_decodable(params, _tg02(cfg), cfg,
                                   SimSpec(1000, 4, expected_points=2000), workers=8)
    wide = estimate_mean_decodable(params, _tg02(cfg), cfg,
                                   SimSpec(1000, 4, expected_points=4000), workers=8)
    assert abs(base.mean - wide.mean) < base.ci_half_width


def test_laplace_transform_against_simulation(cfg):
    density, alpha, s = 1 / 20 ** 2, 4.0, 200.0
    params = NetworkParams(density, alpha, math.inf, 1.0)
    spec = SimSpec(2000, 21, expected_points=2000)
    vals = np.empty(spec.trials)
    for t in range(spec.trials):
        snap = sample_snapshot(params, tm.delta(0.0, _w(cfg)), spec, t)
        vals[t] = math.exp(-s * float(snap.received_powers().sum()))
    stderr = vals.std(ddof=1) / math.sqrt(len(vals))
    closed = analytics.laplace_interference(s, density, alpha)
    assert abs(vals.mean() - closed) <= 3.0 * stderr


def test_trial_csv_schema(cfg, tmp_path):
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    res = run_trials(params, _tg02(cfg), cfg, SimSpec(20, 5))
    path = tmp_path / "trials.csv"
    res.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trial,count,nearest_sinr_db"
    assert len(lines) == 21
    row = lines[1].split(",")
    assert row[0] == "0" and int(row[1]) >= 0


# ----------------------------------------------- one pass serves every threshold

@pytest.mark.parametrize("workers", [1, 2])
def test_results_at_higher_threshold_match_fresh_run(cfg, two_cpus, workers):
    low = budget_params(1 / 400 ** 2, 3.8, -15.0)
    spec = SimSpec(40, 11)
    base = run_trials(low, _tg02(cfg), cfg, spec, workers=workers)
    ties = np.sort(base.sinr)[[0, len(base.sinr) // 2]]  # thresholds equal to a kept SINR
    for params in [low.with_threshold_db(t_db) for t_db in (-15.0, -12.0, -6.0, 0.0, 10.0)] + [
            dataclasses.replace(low, threshold=float(t)) for t in ties]:
        got = base.at(params.threshold)
        fresh = run_trials(params, _tg02(cfg), cfg, spec, workers=workers)
        assert got.threshold == fresh.threshold
        assert np.array_equal(got.counts, fresh.counts)
        assert got.counts.dtype == fresh.counts.dtype
        assert np.array_equal(got.nearest_sinr, fresh.nearest_sinr, equal_nan=True)
        assert np.array_equal(got.sinr, fresh.sinr)
        t = params.threshold
        assert got.mean_count(t) == fresh.mean_count(t)
        assert got.nearest_prob(t) == fresh.nearest_prob(t)


def test_results_reject_lower_threshold(cfg):
    params = budget_params(1 / 400 ** 2, 3.8, -6.0)
    res = run_trials(params, _tg02(cfg), cfg, SimSpec(5, 2))
    for bad in (params.threshold * 0.999, db_to_linear(-12.0), math.nan):
        with pytest.raises(ValueError, match="below"):
            res.at(bad)


def test_estimators_cut_a_lower_pass_at_their_own_threshold(cfg):
    low = budget_params(1 / 400 ** 2, 3.8, -12.0)
    params, spec = low.with_threshold_db(0.0), SimSpec(300, 3)
    base, t = run_trials(low, _tg02(cfg), cfg, spec), params.threshold
    assert base.mean_count(t) == estimate_mean_decodable(params, _tg02(cfg), cfg, spec)
    assert base.nearest_prob(t) == estimate_nearest_prob(params, _tg02(cfg), cfg, spec)


def test_estimators_reject_a_pass_above_their_threshold(cfg):
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    spec = SimSpec(5, 3)
    base = run_trials(params, _tg02(cfg), cfg, spec)
    for estimate in (base.mean_count, base.nearest_prob):
        with pytest.raises(ValueError, match="below"):
            estimate(db_to_linear(-15.0))


def test_results_keep_only_decodable_sinrs(cfg):
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    spec = SimSpec(30, 4)
    res = run_trials(params, _tg02(cfg), cfg, spec)
    assert len(res.sinr) == res.counts.sum()
    assert np.all(res.sinr >= params.threshold)
    first = res.sinr[:res.counts[0]]
    snap = sample_snapshot(params, _tg02(cfg), spec, 0)
    s = simulation.snapshot_sinr_all(snap, cfg)
    assert np.array_equal(first, s[s >= params.threshold])


# Digests of the Monte Carlo output: sha256 of the Monte Carlo columns, rows
# joined by newlines and cells by commas.  Recorded at commit feac520 (before
# the simulation scored each trial once and served every threshold from one
# pass), except validate's, recorded at 0701984 (before the analytics moved to
# one timing-expectation primitive); its analytic column is checked within a
# tolerance below.
GOLDEN = {
    "simulate": (["simulate", "--trials", "50", "--seed", "3"],
                 ("trial", "count", "nearest_sinr_db"),
                 "b51d0a105ef9a98254505f1acb0234e1c732fa52c921cd5fa76399c1172ba5a4"),
    "mean-decodable": (["mean-decodable", "--sweep=-15:10:5", "--sigma-over-n", "0,0.2",
                        "--with-mc", "--trials", "20", "--seed", "3"],
                       ("threshold_db", "sigma_over_n", "mc_value", "mc_ci_half"),
                       "dd1a39107faec0c62bd29c06869b45af6a02d2e7cd1a77e3c84e118d48e1f462"),
    "nearest": (["nearest", "--sweep=-15:10:5", "--sigma-over-n", "0,0.2",
                 "--with-mc", "--trials", "20", "--seed", "3"],
                ("threshold_db", "sigma_over_n", "mc_value", "mc_ci_half"),
                "7648626c81c1677386ee77808a4552c1a0b6429693ea6b9cd4915a7990e7ade2"),
    "dist": (["dist", "--trials", "50", "--seed", "3"],
             ("n", "mc_pmf", "mc_ccdf", "mc_ci_half"),
             "49c58f49b03dc92dc5989f800906e1597c17bbce5780d5f05d89fa5ca0957e0c"),
    "validate": (["validate", "--trials", "200", "--seed", "3"],
                 ("scenario", "mc_mean", "mc_ci_half", "status"),
                 "7f6ead436290e827ad194ede8f84086e9228df3f81c9ad42232a3ff42c95c349"),
}

# The analytic column of the validate CSV above, recorded at commit 0701984.
VALIDATE_ANALYTIC = {"mean sigma=0.0N": 2.577958476, "mean sigma=0.2N": 2.203380197,
                     "mean sigma=0.4N": 1.754082616, "nearest sigma=0.2N": 0.9094340577}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_monte_carlo_outputs_match_recorded_digests(tmp_path, command):
    argv, cols, want = GOLDEN[command]
    out = tmp_path / "out.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    idx = [rows[0].index(c) for c in cols]
    data = "\n".join(",".join(r[i] for i in idx) for r in rows).encode()
    assert hashlib.sha256(data).hexdigest() == want


def test_validate_analytic_column_matches_recorded_values(tmp_path):
    out = tmp_path / "out.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(GOLDEN["validate"][0] + ["--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [r["scenario"] for r in rows] == list(VALIDATE_ANALYTIC)
    for r in rows:
        assert float(r["analytic"]) == pytest.approx(VALIDATE_ANALYTIC[r["scenario"]],
                                                     rel=10 * analytics.DEFAULT_RTOL)


# ------------------------------------------- scoring only the decodable candidates
#
# run_trials scores only the transmitters whose received power p can clear the
# threshold, p >= T/(1+T) (total + N0/E), plus the nearest.  Its output must
# equal, bit for bit, scoring every transmitter of the same snapshots.

def _full_vector_reference(params, timing, config, spec, snapshot=frozen_snapshot):
    counts, near, kept = [], [], []
    for t in range(spec.trials):
        snap = snapshot(params, timing, spec, t)
        s = simulation.snapshot_sinr_all(snap, config)
        counts.append(np.count_nonzero(s >= params.threshold))
        kept.append(s[s >= params.threshold])
        near.append(s[np.argmin(snap.distances)] if len(snap) else math.nan)
    return np.array(counts), np.array(near), np.concatenate(kept)


def _assert_matches_reference(params, timing, config, spec, workers=1, snapshot=frozen_snapshot):
    res = run_trials(params, timing, config, spec, workers=workers)
    counts, near, kept = _full_vector_reference(params, timing, config, spec, snapshot)
    assert np.array_equal(res.counts, counts)
    assert res.nearest_sinr.tobytes() == near.tobytes()  # bitwise, NaN for empty trials
    assert res.sinr.tobytes() == kept.tobytes()
    return res


def _grid_timings(cfg):
    return {"delta0": tm.delta(0.0, _w(cfg)), "delta-500": tm.delta(-500.0, _w(cfg)),
            "gauss0.3": tm.truncated_gaussian(0.3 * 1024, _w(cfg)),
            "uniform": tm.uniform(-800.0, 300.0, _w(cfg))}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("alpha", [2.5, 3.8, 5.0])
def test_candidate_scoring_matches_full_vector_over_grid(cfg, two_cpus, alpha, workers):
    spec = SimSpec(6, 31, expected_points=400)
    for snr in (math.inf, 1e6, 1e2):
        for t_db in (-30.0, -12.0, 3.0, 15.0):
            params = NetworkParams(1 / 20 ** 2, alpha, snr, db_to_linear(t_db))
            for timing in _grid_timings(cfg).values():
                _assert_matches_reference(params, timing, cfg, spec, workers)


def test_candidate_scoring_with_empty_trials(cfg):
    # about one transmitter per trial: many trials are empty, many have one
    params = NetworkParams(1 / 20 ** 2, 3.8, 1e6, db_to_linear(-12.0))
    spec = SimSpec(60, 3, window_radius=20.0 / math.sqrt(math.pi))
    res = _assert_matches_reference(params, _tg02(cfg), cfg, spec)
    assert np.isnan(res.nearest_sinr).any() and res.counts.max() >= 1


@pytest.fixture
def scored(monkeypatch):
    """The number of candidates in each scoring call of the engine."""
    sizes, sinr = [], simulation._sinr

    def spy(config, offsets, p, total, noise_over_e):
        sizes.append(len(p))
        return sinr(config, offsets, p, total, noise_over_e)

    monkeypatch.setattr(simulation, "_sinr", spy)
    return sizes


# (candidate limit, trial limit), small enough for 40 trials at -25 dB to cross one;
# with a limit of 1 candidate each trial is a block of its own
SMALL_LIMITS = {"candidates": (300, 1024), "one-trial": (1, 1024), "trials": (1 << 16, 7)}


def test_candidate_scoring_across_score_blocks(cfg, monkeypatch, scored):
    # one chunk of more trials or candidates than one scoring block, at a low threshold
    params = NetworkParams(1 / 20 ** 2, 3.8, math.inf, db_to_linear(-25.0))
    for limits, (candidates, trials) in SMALL_LIMITS.items():
        monkeypatch.setattr(simulation, "_BLOCK_CANDIDATES", candidates)
        monkeypatch.setattr(simulation, "_BLOCK_TRIALS", trials)
        del scored[:]
        _assert_matches_reference(params, _tg02(cfg), cfg, SimSpec(40, 8, expected_points=100))
        assert len(scored) > 1, limits
        if limits == "candidates":
            assert max(scored) <= candidates
        else:  # a block per trial, or per 7 trials
            assert len(scored) == {"one-trial": 40, "trials": 6}[limits]


def test_no_scoring_call_holds_more_than_the_candidate_limit(cfg, scored):
    # at -100 dB nearly every transmitter of a 2,000-point field is a candidate
    params = NetworkParams(1 / 400 ** 2, 3.8, math.inf, db_to_linear(-100.0))
    run_trials(params, _tg02(cfg), cfg, SimSpec(120, 2))
    assert sum(scored) > 3.5 * simulation._BLOCK_CANDIDATES
    assert max(scored) <= simulation._BLOCK_CANDIDATES


@pytest.fixture
def uniforms_drawn(monkeypatch):
    """The model and size of each `TimingModel.uniforms` call."""
    calls, uniforms = [], tm.TimingModel.uniforms

    def spy(self, rng, size):
        calls.append((self, size))
        return uniforms(self, rng, size)

    monkeypatch.setattr(tm.TimingModel, "uniforms", spy)
    return calls


@pytest.mark.parametrize("t_db", [-100.0, 30.0])
def test_uniforms_stop_at_the_last_candidate(cfg, uniforms_drawn, t_db):
    # -100 dB: every transmitter is a candidate, the last one among them;
    # +30 dB: only the nearest is
    params = NetworkParams(1 / 20 ** 2, 3.8, math.inf, db_to_linear(t_db))
    spec = SimSpec(12, 4, expected_points=300)
    snaps = [sample_snapshot(params, _tg02(cfg), spec, t) for t in range(spec.trials)]
    del uniforms_drawn[:]
    _assert_matches_reference(params, _tg02(cfg), cfg, spec, snapshot=sample_snapshot)
    sizes = [size for _, size in uniforms_drawn]
    engine, reference = sizes[:spec.trials], sizes[spec.trials:]
    assert reference == [len(s) for s in snaps]  # sample_snapshot draws them all
    assert engine == [len(s) if t_db < 0 else int(np.argmin(s.distances)) + 1 for s in snaps]
    assert sum(engine) < sum(reference) or t_db < 0


def test_snapshot_positivity_still_checked(cfg, monkeypatch):
    # the screen checks only the nearest distance and the least fade, so a zero
    # fade away from index 0 and from the nearest must still be caught
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    models = [tm.delta(0.0, _w(cfg)), _tg02(cfg), tm.uniform(-100.0, 100.0, _w(cfg))]
    draw = simulation._draw

    def zero_fade_first(distances, fades):
        fades[0] = 0.0

    def zero_distance(distances, fades):
        distances[len(distances) // 2] = 0.0

    def zero_fade_elsewhere(distances, fades):
        near = distances.argmin()
        fades[next(j for j in (1, 2) if j != near)] = 0.0

    for fault in (zero_fade_first, zero_distance, zero_fade_elsewhere):
        def faulty(*args, fault=fault):
            distances, fades = draw(*args)
            fault(distances, fades)
            return distances, fades

        monkeypatch.setattr(simulation, "_draw", faulty)
        for call in (lambda: sample_snapshot(params, _tg02(cfg), SimSpec(1, 1), 0),
                     lambda: run_trials(params, _tg02(cfg), cfg, SimSpec(3, 1)),
                     lambda: simulation.run_trials_each(params, models, cfg, SimSpec(3, 1))):
            with pytest.raises(ValueError, match="distances and fades must be positive"):
                call()


@pytest.mark.parametrize("name", ["delta0", "delta-500", "gauss0.3", "uniform"])
def test_quantile_of_any_subset_equals_that_subset_of_sample(cfg, name):
    timing = _grid_timings(cfg)[name]
    full = timing.sample(np.random.default_rng(5), 3000)
    u = np.random.default_rng(5).random(3000)
    pick = np.random.default_rng(6).random(3000) < 0.01
    for idx in (pick, np.flatnonzero(pick)[::-1], np.array([], dtype=int), slice(None)):
        assert timing.quantile(u[idx]).tobytes() == full[idx].tobytes()
    # a delta draws nothing from the generator
    rng = np.random.default_rng(5)
    timing.sample(rng, 10)
    assert (rng.random() == u[0]) == timing.is_delta


# ------------------------------------------------ one pass for every timing model
#
# run_trials_each draws and screens each trial once and scores the candidates
# under every model.  Each of its results must equal, bit for bit, a separate
# run_trials call with that model.

def _assert_each_matches_separate_runs(params, timings, config, spec, workers=1):
    results = simulation.run_trials_each(params, timings, config, spec, workers=workers)
    assert len(results) == len(timings)
    for timing, res in zip(timings, results):
        ref = run_trials(params, timing, config, spec)
        assert res.threshold == ref.threshold
        assert np.array_equal(res.counts, ref.counts)
        assert res.nearest_sinr.tobytes() == ref.nearest_sinr.tobytes()  # NaN-aware, bitwise
        assert res.sinr.tobytes() == ref.sinr.tobytes()


def _uniform_from(a, b, w):
    # a*w + (1-a)*w can round to w + ulp; the model's interval must end at or below w
    return tm.uniform(a * w, min(a * w + b * (1 - a) * w, w), w)


def _model_lists(w, a, b):
    d = tm.delta(a * w, w)
    gauss = tm.truncated_gaussian(b * 1024, w)
    unif = _uniform_from(a, b, w)
    return {"all-delta": [d, tm.delta(0.0, w)], "delta-first": [d, gauss, unif],
            "repeated": [gauss, d, gauss], "mixed": [unif, gauss]}


@pytest.mark.parametrize("workers", [1, 2])
def test_one_pass_matches_separate_runs_across_blocks(cfg, monkeypatch, two_cpus, workers):
    # several scoring blocks in one chunk (1 worker), and a chunk boundary (2 workers); the
    # fields of test_candidate_scoring_across_score_blocks, shown there to cross each limit
    params = NetworkParams(1 / 20 ** 2, 3.8, math.inf, db_to_linear(-25.0))
    spec = SimSpec(40, 8, expected_points=100)
    for candidates, trials in SMALL_LIMITS.values():
        monkeypatch.setattr(simulation, "_BLOCK_CANDIDATES", candidates)
        monkeypatch.setattr(simulation, "_BLOCK_TRIALS", trials)
        for timings in _model_lists(_w(cfg), -0.2, 0.3).values():
            _assert_each_matches_separate_runs(params, timings, cfg, spec, workers)


def test_all_delta_models_draw_no_uniforms_and_match_snapshots(cfg, uniforms_drawn):
    # a delta's uniforms are zeros, never drawn; each model matches its own snapshots
    params = NetworkParams(1 / 20 ** 2, 3.8, math.inf, db_to_linear(-12.0))
    spec = SimSpec(12, 6, expected_points=300)
    models = _model_lists(_w(cfg), -0.2, 0.3)["all-delta"]
    results = simulation.run_trials_each(params, models, cfg, spec)
    for timing, res in zip(models, results):
        counts, near, kept = _full_vector_reference(params, timing, cfg, spec, sample_snapshot)
        assert np.array_equal(res.counts, counts)
        assert res.nearest_sinr.tobytes() == near.tobytes()
        assert res.sinr.tobytes() == kept.tobytes()
    assert uniforms_drawn and all(model.is_delta for model, _ in uniforms_drawn)
    rng = np.random.default_rng(0)
    assert [timing.uniforms(rng, 3).tolist() for timing in models] == [[0.0] * 3] * 2
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_workers_below_one_and_no_model_rejected(cfg):
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers >= 1"):
            run_trials(params, _tg02(cfg), cfg, SimSpec(3, 1), workers=workers)
    with pytest.raises(ValueError, match="timing model"):
        simulation.run_trials_each(params, [], cfg, SimSpec(3, 1))


@pytest.fixture
def pools_started(monkeypatch):
    """max_workers of each pool started, whose chunks run in this process."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return started


@pytest.fixture
def pool_sizes(pools_started, monkeypatch):
    """max_workers of each pool started where 4 CPUs are usable."""
    monkeypatch.setattr(simulation, "_cpus", lambda: 4)
    return pools_started


def _same_as_one_worker(cfg, trials, workers):
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    spec = SimSpec(trials, 5)
    ref = run_trials(params, _tg02(cfg), cfg, spec)
    res = run_trials(params, _tg02(cfg), cfg, spec, workers=workers)
    return (res.nearest_sinr.tobytes() == ref.nearest_sinr.tobytes()
            and res.sinr.tobytes() == ref.sinr.tobytes() and np.array_equal(res.counts, ref.counts))


def test_pool_sized_to_the_non_empty_chunks(cfg, pool_sizes):
    assert _same_as_one_worker(cfg, 3, 8)
    assert pool_sizes == [2]  # three one-trial chunks, the first run here, not eight workers


def test_pool_bounded_by_the_cpu_count(cfg, pool_sizes):
    assert _same_as_one_worker(cfg, 64, 64)
    assert pool_sizes == [3]  # four 16-trial chunks, one per CPU, the first run here


def test_worker_count_beyond_the_trials_costs_no_memory(cfg, pool_sizes):
    tracemalloc.start()
    try:
        assert _same_as_one_worker(cfg, 5, 10 ** 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20  # four chunks, not ten million bounds
    assert pool_sizes == [3]


@pytest.mark.parametrize("trials, started, bounds", [
    (1, [], [(0, 1)]),
    (1024, [], [(0, 1024)]),
    (1025, [1], [(0, 512), (512, 1025)]),
    (3000, [2], [(0, 1000), (1000, 2000), (2000, 3000)]),
    (10 ** 6, [3], [(0, 250_000), (250_000, 500_000), (500_000, 750_000), (750_000, 10 ** 6)]),
])
def test_auto_takes_a_process_per_started_seeding_chunk_where_the_pool_forks(
        cfg, monkeypatch, pool_sizes, trials, started, bounds):
    chunks = []
    monkeypatch.setattr(simulation, "_trial_chunk", lambda job: chunks.append(job[4:]) or [])
    monkeypatch.setattr(simulation, "_forks", lambda: True)
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    assert simulation.run_trials_each(params, [_tg02(cfg)], cfg, SimSpec(trials, 5), None) == []
    assert pool_sizes == started
    assert chunks == bounds  # in trial order: this process runs the first chunk


def test_auto_is_one_process_where_the_pool_would_not_fork(cfg, monkeypatch, pool_sizes):
    # a spawn or forkserver worker imports numpy afresh, which one process beats at these sizes
    chunks = []
    monkeypatch.setattr(simulation, "_trial_chunk", lambda job: chunks.append(job[4:]) or [])
    monkeypatch.setattr(simulation, "_forks", lambda: False)
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    assert simulation.run_trials_each(params, [_tg02(cfg)], cfg, SimSpec(10 ** 6, 5), None) == []
    assert pool_sizes == []
    assert chunks == [(0, 10 ** 6)]
    monkeypatch.setattr(simulation, "_forks", lambda: True)
    simulation.run_trials_each(params, [_tg02(cfg)], cfg, SimSpec(10 ** 6, 5), workers=3)
    assert pool_sizes == [2]  # an explicit count does not ask how the pool starts


@pytest.mark.parametrize("fixed, methods, forks", [
    ("fork", ["spawn", "fork"], True),
    ("spawn", ["fork", "spawn"], False),
    (None, ["fork", "spawn", "forkserver"], True),  # the first method is the default
    (None, ["forkserver", "fork", "spawn"], False),  # Linux from Python 3.14
    (None, ["spawn", "fork", "forkserver"], False),  # macOS
])
def test_forks_reads_the_start_method_without_fixing_it(monkeypatch, fixed, methods, forks):
    import multiprocessing
    asked = []
    monkeypatch.setattr(multiprocessing, "get_start_method",
                        lambda allow_none=False: asked.append(allow_none) or fixed)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    assert simulation._forks() is forks
    assert asked == [True]


def test_library_default_is_one_process(cfg, pool_sizes):
    # a library caller (an unguarded script, a pool worker, a parameter sweep that
    # parallelises itself) gets no pool unless it asks; the CLI asks with workers=None
    params = budget_params(1 / 400 ** 2, 3.8, -12.0)
    run_trials(params, _tg02(cfg), cfg, SimSpec(2100, 5, expected_points=100))
    assert pool_sizes == []
    for fn in (run_trials, simulation.run_trials_each, simulation.estimate_mean_decodable,
               simulation.estimate_distribution, simulation.estimate_nearest_prob):
        assert inspect.signature(fn).parameters["workers"].default == 1, fn.__name__


def test_workers_capped_at_the_cpus_this_process_may_use(cfg, monkeypatch, pools_started):
    # 8 CPUs installed, 1 usable (as under `taskset -c 0`): --workers 8 starts no pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert simulation._cpus() == 1
    assert _same_as_one_worker(cfg, 20, 8)
    assert pools_started == []


def test_cpus_are_the_installed_count_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert simulation._cpus() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert simulation._cpus() == 1


try:
    from hypothesis import HealthCheck, example, given, settings
    from hypothesis import strategies as st

    # A_ROUNDS_UP * 1096 + (1 - A_ROUNDS_UP) * 1096 == 1096.0000000000002
    A_ROUNDS_UP = -0.2847674017785685

    @given(alpha=st.floats(2.05, 6.0), snr_db=st.one_of(st.just(math.inf), st.floats(0.0, 90.0)),
           t_db=st.floats(-40.0, 25.0), kind=st.sampled_from(["delta", "gauss", "uniform"]),
           a=st.floats(-1.0, 0.999), b=st.floats(0.01, 1.0), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    @example(alpha=3.8, snr_db=math.inf, t_db=-12.0, kind="uniform", a=A_ROUNDS_UP, b=1.0, seed=1)
    def test_candidate_scoring_matches_full_vector_property(cfg, alpha, snr_db, t_db, kind, a,
                                                            b, seed):
        w = _w(cfg)
        timing = {"delta": lambda: tm.delta(a * w, w),
                  "gauss": lambda: tm.truncated_gaussian(b * 1024, w),
                  "uniform": lambda: _uniform_from(a, b, w)}[kind]()
        params = NetworkParams(1 / 20 ** 2, alpha, db_to_linear(snr_db), db_to_linear(t_db))
        _assert_matches_reference(params, timing, cfg, SimSpec(4, seed, expected_points=300))

    @pytest.mark.parametrize("workers", [1, 2])
    @given(alpha=st.floats(2.05, 6.0), snr_db=st.one_of(st.just(math.inf), st.floats(0.0, 90.0)),
           t_db=st.floats(-40.0, 25.0),
           models=st.sampled_from(["all-delta", "delta-first", "repeated", "mixed"]),
           a=st.floats(-1.0, 0.999), b=st.floats(0.01, 1.0), seed=st.integers(0, 2 ** 32))
    # two_cpus patches once for every example, as meant
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(alpha=3.8, snr_db=math.inf, t_db=-12.0, models="mixed", a=A_ROUNDS_UP, b=1.0,
             seed=1)
    def test_one_pass_matches_separate_runs_property(cfg, two_cpus, workers, alpha, snr_db, t_db,
                                                     models, a, b, seed):
        params = NetworkParams(1 / 20 ** 2, alpha, db_to_linear(snr_db), db_to_linear(t_db))
        _assert_each_matches_separate_runs(params, _model_lists(_w(cfg), a, b)[models], cfg,
                                           SimSpec(5, seed, expected_points=300), workers)
except ImportError:  # pragma: no cover - property tests are optional extras
    pass
