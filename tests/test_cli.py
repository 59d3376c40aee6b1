import concurrent.futures
import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import tempfile
from pathlib import Path

import pytest

from asyncofdm import analytics, cli, simulation
from asyncofdm.quadrature import QuadratureError
from asyncofdm.cli import (MAX_SWEEP_POINTS, ConfigError, _apply_flags, _sweep, build_parser,
                           load_config, main)
from asyncofdm.sinr import MAX_HYPOTHESES


def _write(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


# --------------------------------------------------------------- config loading

def test_empty_config_gives_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, ""))
    assert cfg.ofdm.n == 1024 and cfg.ofdm.n_cp == 72
    assert cfg.ofdm.used == tuple(range(-300, 300))
    assert cfg.network.density == pytest.approx(1.0 / 400 ** 2)
    assert cfg.network.alpha == 3.8
    assert cfg.timing.kind == "truncated_gaussian"
    assert cfg.timing.sigma == 0.2 * 1024
    assert cfg.grid_db == (-12.0,)
    assert cfg.sim.trials == 1000 and cfg.sim.master_seed == 1


def test_no_config_path_gives_defaults():
    cfg = load_config(None)
    assert cfg.ofdm.n == 1024
    assert cfg.grid_db == (-12.0,)


def test_unknown_key_named_in_error(tmp_path):
    with pytest.raises(ConfigError, match="networkk"):
        load_config(_write(tmp_path, "networkk:\n  alpha: 3.0\n"))
    with pytest.raises(ConfigError, match="network.alhpa"):
        load_config(_write(tmp_path, "network:\n  alhpa: 3.0\n"))


def test_alpha_at_convergence_boundary_rejected(tmp_path):
    with pytest.raises(ConfigError, match="alpha"):
        load_config(_write(tmp_path, "network:\n  alpha: 2.0\n"))


def test_snr_and_budget_mutually_exclusive(tmp_path):
    with pytest.raises(ConfigError, match="snr_db"):
        load_config(_write(tmp_path, "network:\n  snr_db: 100\n  tx_power_dbm: 20\n"))
    cfg = load_config(_write(tmp_path, "network:\n  snr_db: 100\n"))
    params = cfg.params(-12.0)
    assert params.snr == pytest.approx(1e10)


def test_missing_file_and_bad_yaml(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "nope.yaml"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "network: [unclosed\n"))


def test_sweep_validation(tmp_path):
    cfg = load_config(_write(tmp_path, "detection:\n  sweep: {lo_db: -4, hi_db: 0, step_db: 2}\n"))
    assert cfg.grid_db == (-4.0, -2.0, 0.0)
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "detection:\n  sweep: {lo_db: 0, hi_db: -4, step_db: 2}\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "detection:\n  sweep: {lo_db: -4, hi_db: 0}\n"))


@pytest.mark.parametrize("sweep, message", [
    ("-15:10:0", "STEP > 0"),
    ("-15:10:-1", "STEP > 0"),
    ("10:-15:1", "LO < HI"),
    ("-4:-4:1", "LO < HI"),
    ("nan:10:1", "finite"),
    ("-15:inf:1", "finite"),
    ("-15:10:0.7", "does not divide"),
    ("-15:10:30", "does not divide"),
    ("-15:10", "LO:HI:STEP"),
    ("a:10:1", "numbers"),
    ("0:4000:1000", "positive linear"),
    ("-4000:0:1000", "positive linear"),
])
def test_sweep_flag_rejected_at_boundary(tmp_path, capsys, sweep, message):
    out = tmp_path / "out.csv"
    assert main(["mean-decodable", f"--sweep={sweep}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --sweep") and message in err
    assert not out.exists()


def test_sweep_config_rejected_at_boundary(tmp_path):
    for lo, hi, step in (("-15", "10", "0.7"), (".nan", "0", "1"), ("0", "4", "0"),
                         ("-4", "0", "'x'"), ("0", "4000", "1000"), ("-4000", "0", "1000")):
        text = f"detection:\n  sweep: {{lo_db: {lo}, hi_db: {hi}, step_db: {step}}}\n"
        with pytest.raises(ConfigError, match="detection.sweep"):
            load_config(_write(tmp_path, text))


def test_sweep_steps_within_rounding_accepted(tmp_path):
    out = str(tmp_path / "out.csv")
    assert main(["mean-decodable", "--sweep=-1.2:0:0.1", "--out", out]) == 0
    assert len(_rows(out)) == 1 + 13
    cfg = load_config(_write(tmp_path, "detection:\n  sweep: {lo_db: 0, hi_db: 1, step_db: 0.1}\n"))
    assert len(cfg.grid_db) == 11


def test_threshold_default_resolved_in_load_config(tmp_path):
    cfg = load_config(_write(tmp_path, "detection:\n  threshold_db: null\n"))
    assert cfg.grid_db == (-12.0,)
    assert load_config(_write(tmp_path, "detection:\n  threshold_db: -3\n")).grid_db == (-3,)
    cfg = load_config(_write(tmp_path, "network: {alpha: null}\nsim: {trials: null}\n"))
    assert cfg.network.alpha == 3.8 and cfg.sim.trials == 1000


def test_timing_section_validation(tmp_path):
    with pytest.raises(ConfigError, match="timing.kind"):
        load_config(_write(tmp_path, "timing:\n  kind: gaussian\n"))
    with pytest.raises(ConfigError, match="sigma_over_n"):
        load_config(_write(tmp_path, "timing:\n  kind: truncated_gaussian\n  sigma_over_n: 0\n"))
    cfg = load_config(_write(tmp_path, "timing:\n  kind: delta\n  offset: 10\n"))
    model = cfg.timing
    assert model.is_delta and model.offset == 10.0


EVERY_SECTION = """
ofdm: {n: 512, n_cp: 36, used_range: [-100, 99]}
network: {density_per_m2: 1.0e-5, alpha: 3.0, tx_power_dbm: 20.0, bandwidth_hz: 5.0e+6,
          noise_psd_dbm_hz: -170.0, noise_figure_db: 7.0}
timing: {kind: truncated_gaussian, sigma_over_n: 0.3}
detection: {threshold_db: -6.0, sweep: {lo_db: -10.0, hi_db: 0.0, step_db: 1.0}}
sim: {trials: 10, expected_points: 100, seed: 4}
hypotheses: {n1: 1, n2: 1, delta: 36.0}
"""


def test_merging_a_config_leaves_the_defaults_alone(tmp_path):
    # load_config copies DEFAULTS two levels deep and update()s the copies, section by section
    before, defaults = repr(cli.DEFAULTS), load_config(None)
    cfg = load_config(_write(tmp_path, EVERY_SECTION))
    assert (cfg.ofdm.n, cfg.network.alpha, cfg.sim.master_seed, cfg.hypotheses) == (
        512, 3.0, 4, (-36.0, 0.0, 36.0))
    assert repr(cli.DEFAULTS) == before
    assert load_config(None) == defaults


def test_hypotheses_section(tmp_path):
    cfg = load_config(_write(tmp_path, "hypotheses:\n  n1: 1\n  n2: 1\n  delta: 72\n"))
    assert cfg.hypotheses == (-72.0, 0.0, 72.0)
    with pytest.raises(ConfigError, match="hypotheses.delta"):
        load_config(_write(tmp_path, "hypotheses:\n  n1: 1\n  n2: 1\n"))


@pytest.mark.parametrize("text, section", [
    ("network: {alpha: '3'}", "network"),
    ("timing: {sigma_over_n: x}", "timing"),
    ("timing: {kind: uniform}", "timing"),
    ("detection: {sweep: 5}", "detection"),
    ("sim: {trials: 2.5}", "sim"),
    ("hypotheses: {n1: 1.7, n2: 1, delta: 72}", "hypotheses"),
    ("ofdm: {used_range: [1]}", "ofdm"),
])
def test_malformed_config_exits_2_naming_its_section(tmp_path, capsys, text, section):
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", _write(tmp_path, text + "\n"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {section}")
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("- 5", "top-level config must be a mapping"),
    ("5", "top-level config must be a mapping"),
    ("network: 5", "'network' must be a mapping"),
    ("sim: [1, 2]", "'sim' must be a mapping"),
])
def test_non_mapping_config_exits_2(tmp_path, capsys, text, message):
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", _write(tmp_path, text + "\n"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_run_config_is_frozen_and_flags_give_a_new_one(tmp_path):
    path = _write(tmp_path, "detection:\n  sweep: {lo_db: -6, hi_db: 0, step_db: 2}\n")
    cfg = load_config(path)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.grid_db = (0.0,)
    new = _apply_flags(cfg, build_parser().parse_args(
        ["mean-decodable", "--out", "x.csv", "--sweep=-3:-1:1", "--sigma-over-n", "0,0.1",
         "--hypotheses", "1,1,72", "--trials", "5"]))
    assert new.grid_db == (-3.0, -2.0, -1.0)
    assert [s for s, _ in new.sweep_timings] == [0.0, 0.1]
    assert new.hypotheses == (-72.0, 0.0, 72.0) and new.sim.trials == 5
    assert cfg == load_config(path)  # the flags changed nothing in place
    out = str(tmp_path / "out.csv")  # the flag's sweep overrides the config's
    assert main(["mean-decodable", "--config", path, "--sweep=-3:-1:1", "--out", out]) == 0
    assert [row[0] for row in _rows(out)[1:]] == ["-3", "-2", "-1"]


def test_cached_parser_carries_no_state_between_runs(tmp_path):
    runs = [["mean-decodable", "--sweep=-3:3:1"], ["mean-decodable"],
            ["nearest", "--sigma-over-n", "0,0.4"], ["nearest"]]

    def outputs(fresh):
        got = []
        for i, argv in enumerate(runs):
            if fresh:
                build_parser.cache_clear()
            out = tmp_path / f"{fresh}-{i}.csv"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv + ["--out", str(out)]) == 0
            got.append((out.read_bytes(), stdout.getvalue()))
        return got

    assert outputs(fresh=False) == outputs(fresh=True)
    assert build_parser() is build_parser()


def test_grid_thresholds_equal_the_per_point_params_bit_for_bit(monkeypatch):
    grid = _sweep(-15, 10, 0.5, "--sweep") + (-12.0, 1e-3, 33.3, -0.1)
    cfg = dataclasses.replace(load_config(None), grid_db=grid)
    want = [cfg.params(t_db).threshold.hex() for t_db in grid]
    assert [t.hex() for t in cfg.thresholds] == want
    seen = []

    def spy(params, timing, config, *, thresholds):
        seen.extend(thresholds)
        return [1.0] * len(thresholds)

    monkeypatch.setattr(analytics, "mean_decodable", spy)
    grid = sorted(set(grid))
    analytics.optimize_threshold(cfg.network, cfg.timing, cfg.ofdm, grid)
    assert [t.hex() for t in seen] == [cfg.params(t_db).threshold.hex() for t_db in grid]


@pytest.mark.parametrize("value", ["1,1", "1,1,72,3", "a,1,72", "1,1,x", "-1,1,72", "1,1,0"])
def test_malformed_hypotheses_flag_exits_2(tmp_path, capsys, value):
    out = tmp_path / "out.csv"
    assert main(["hypotheses", f"--hypotheses={value}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --hypotheses expects N1,N2,DELTA\n"
    assert not out.exists()


def test_an_out_of_reach_hypothesis_exits_2(tmp_path, capsys):
    # a shift of 2w = 2192 samples or more moves every offset off the domain
    out = tmp_path / "out.csv"
    assert main(["hypotheses", "--hypotheses=1,1,2192", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: timing hypothesis at |t| = 2192 >= 2 * 1096")
    assert not out.exists()
    assert main(["hypotheses", "--hypotheses=1,1,2191", "--out", str(out)]) == 0


def test_an_over_long_hypothesis_set_exits_2(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["hypotheses", f"--hypotheses={MAX_HYPOTHESES},0,0.001", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: --hypotheses: {MAX_HYPOTHESES + 1} hypotheses "
                                       f"exceed MAX_HYPOTHESES = {MAX_HYPOTHESES}\n")
    assert not out.exists()
    with pytest.raises(ConfigError, match="exceed MAX_HYPOTHESES"):
        load_config(_write(tmp_path, f"hypotheses: {{n1: {MAX_HYPOTHESES}, n2: 0, delta: 0.001}}"))


def test_an_over_long_sweep_exits_2_before_the_grid_is_built(tmp_path, capsys):
    out = tmp_path / "out.csv"
    for command in ("mean-decodable", "nearest"):  # 2.5e13 points, refused before any is built
        assert main([command, "--sweep=-15:10:1e-12", "--with-mc", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --sweep: ") and err.endswith(
            f" thresholds exceed MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}\n")
        assert not out.exists()
    with pytest.raises(ConfigError, match=r"detection.sweep: \d+ thresholds exceed MAX_SWEEP"):
        load_config(_write(tmp_path, "detection:\n  sweep: {lo_db: -15, hi_db: 10, "
                                     "step_db: 1.0e-12}\n"))
    assert len(_sweep(-5, 5, 10 / (MAX_SWEEP_POINTS - 1), "--sweep")) == MAX_SWEEP_POINTS
    with pytest.raises(ConfigError, match=f"{MAX_SWEEP_POINTS + 1} thresholds exceed"):
        _sweep(-5, 5, 10 / MAX_SWEEP_POINTS, "--sweep")


def test_an_fft_size_past_64_bits_exits_2_naming_n(tmp_path, capsys):
    out = tmp_path / "out.csv"
    config = _write(tmp_path, f"ofdm: {{n: {2 ** 70}, used_range: [{2 ** 63}, {2 ** 63 + 1}]}}\n")
    assert main(["mean-decodable", "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: ofdm: n = {2 ** 70} exceeds the largest "
                                       "64-bit index\n")
    assert not out.exists()


# ------------------------------------------------------------------- commands

def test_bad_config_exit_code(tmp_path):
    out = str(tmp_path / "out.csv")
    bad = _write(tmp_path, "network:\n  alpha: 1.5\n")
    assert main(["mean-decodable", "--config", bad, "--out", out]) == 2
    assert main(["mean-decodable", "--sweep", "oops", "--out", out]) == 2


def test_mean_decodable_sweep_schema(tmp_path):
    out = str(tmp_path / "mean.csv")
    assert main(["mean-decodable", "--out", out, "--sweep=-13:-11:1",
                 "--sigma-over-n", "0,0.2"]) == 0
    rows = _rows(out)
    assert rows[0] == ["threshold_db", "sigma_over_n", "analytic_value"]
    assert len(rows) == 1 + 3 * 2  # three thresholds, two sigmas
    sigmas = {row[1] for row in rows[1:]}
    assert sigmas == {"0", "0.2"}


def test_mean_decodable_with_mc_columns(tmp_path):
    out = str(tmp_path / "mean_mc.csv")
    assert main(["mean-decodable", "--out", out, "--trials", "100",
                 "--with-mc", "--workers", "2"]) == 0
    rows = _rows(out)
    assert rows[0] == ["threshold_db", "sigma_over_n", "analytic_value",
                       "mc_value", "mc_ci_half"]
    assert len(rows) == 2
    analytic, mc = float(rows[1][2]), float(rows[1][3])
    assert abs(analytic - mc) < 1.0


def test_nearest_command(tmp_path):
    out = str(tmp_path / "near.csv")
    assert main(["nearest", "--out", out]) == 0
    rows = _rows(out)
    assert rows[0][:3] == ["threshold_db", "sigma_over_n", "analytic_value"]
    assert 0.0 <= float(rows[1][2]) <= 1.0


@pytest.mark.parametrize("timing", ["{kind: uniform, lo: -1000, hi: 1000}",
                                    "{kind: delta, offset: -600}"])
def test_sweep_commands_use_the_configured_timing_model(tmp_path, timing):
    path = _write(tmp_path, f"timing: {timing}\n")
    cfg = load_config(path)
    model, params, grid = cfg.timing, cfg.params(-12.0), [-12.0, -10.0]
    thresholds = [cfg.params(t_db).threshold for t_db in grid]
    for command, fn in (("mean-decodable", analytics.mean_decodable),
                        ("nearest", analytics.nearest_decoding_prob)):
        out = str(tmp_path / f"{command}.csv")
        assert main([command, "--config", path, "--sweep=-12:-10:2", "--out", out]) == 0
        rows = _rows(out)[1:]
        assert [row[1] for row in rows] == ["0", "0"]  # sigma / N of the model used
        expect = fn(params, model, cfg.ofdm, thresholds=thresholds)
        assert [float(row[2]) for row in rows] == pytest.approx(expect, rel=1e-9)
    out = str(tmp_path / "thr.csv")
    assert main(["throughput", "--config", path, "--sweep=-12:-10:2", "--out", out]) == 0
    _, _, expect = analytics.optimize_threshold(params, model, cfg.ofdm, grid)
    data = [row for row in _rows(out)[1:] if row[0] == "data"]
    assert [float(row[3]) for row in data] == pytest.approx(expect, rel=1e-9)


# 0.05N has breakpoints of its own and 0.2N and 0.4N none, so the list makes a delta, a
# one-model integral and a two-model one; each row must be its one-sigma run's, to the byte.
@pytest.mark.parametrize("command", ["mean-decodable", "nearest", "throughput"])
def test_sigma_list_rows_equal_the_one_sigma_runs_byte_for_byte(tmp_path, command):
    sigmas = ("0", "0.05", "0.2", "0.4")

    def lines(sigma_over_n):
        out = tmp_path / f"{sigma_over_n}.csv"
        assert main([command, "--sweep=-15:10:2.5", "--sigma-over-n", sigma_over_n,
                     "--out", str(out)]) == 0
        return out.read_bytes().splitlines()

    together, apart = lines(",".join(sigmas)), [lines(s) for s in sigmas]
    assert all(rows[0] == together[0] for rows in apart)  # one header
    assert together[1:] == [row for rows in apart for row in rows[1:]]


def test_link_profile_command(tmp_path):
    out = str(tmp_path / "profile.csv")
    assert main(["link-profile", "--out", out, "--offset", "-6", "--trials", "50"]) == 0
    rows = _rows(out)
    assert rows[0] == ["subcarrier", "useful", "total", "stderr_total"]
    assert len(rows) == 601
    assert int(rows[1][0]) == -300


def test_dist_command(tmp_path):
    out = str(tmp_path / "dist.csv")
    assert main(["dist", "--out", out, "--trials", "100", "--workers", "2"]) == 0
    rows = _rows(out)
    assert rows[0] == ["n", "bound_pmf", "bound_ccdf", "mc_pmf", "mc_ccdf", "mc_ci_half"]
    assert float(rows[1][2]) == 1.0 and float(rows[1][4]) == 1.0


def test_dist_rows_end_at_the_last_nonzero_row(tmp_path):
    # at -50 dB the bound's support runs to n = 100,001, but its pmf underflows to 0 far
    # below that and the Monte Carlo counts end lower still: the CSV stops at the last
    # row with a nonzero column, a prefix of the full table whose dropped rows are all 0
    out, path = str(tmp_path / "dist.csv"), _write(tmp_path, "detection: {threshold_db: -50}\n")
    argv = ["dist", "--config", path, "--trials", "50", "--out", out]
    assert main(argv) == 0
    cfg = _apply_flags(load_config(path), build_parser().parse_args(argv))
    bound = analytics.upsilon_upper_distribution(cfg.network, cfg.timing, cfg.ofdm)
    emp = simulation.estimate_distribution(cfg.network, cfg.timing, cfg.ofdm, cfg.sim)
    columns = [c.tolist() for c in (bound.pmf, bound.ccdf(), emp.pmf, emp.ccdf(),
                                    emp.ci_half_width)]
    full = [[str(n)] + [cli._fmt(c[n] if n < len(c) else 0.0) for c in columns]
            for n in range(max(bound.support_max, int(emp.counts[-1])) + 1)]
    rows = _rows(out)[1:]
    assert len(full) == 100_002 and len(rows) < len(full) // 2
    assert rows == full[:len(rows)]
    assert any(value != "0" for value in rows[-1][1:])
    assert all(value == "0" for row in full[len(rows):] for value in row[1:])


def test_throughput_command(tmp_path):
    out = str(tmp_path / "thr.csv")
    assert main(["throughput", "--out", out, "--sweep=-4:0:2",
                 "--sigma-over-n", "0"]) == 0
    rows = _rows(out)
    assert rows[0] == ["row_type", "threshold_db", "sigma_over_n", "throughput"]
    data = [r for r in rows[1:] if r[0] == "data"]
    optimal = [r for r in rows[1:] if r[0] == "optimal"]
    assert len(data) == 3 and len(optimal) == 1
    assert float(optimal[0][3]) == max(float(r[3]) for r in data)


def test_a_sweep_past_2_53_reads_0_where_nothing_decodes(tmp_path):
    # from T ~ 2^53 (about 159.5 dB) T/(1+T) rounds to 1: no transmitter decodes there
    hi, lo = str(tmp_path / "hi.csv"), str(tmp_path / "lo.csv")
    assert main(["nearest", "--sweep", "150:170:10", "--sigma-over-n", "0,0.2", "--out", hi]) == 0
    assert main(["nearest", "--sweep", "140:150:10", "--sigma-over-n", "0,0.2", "--out", lo]) == 0
    rows, below = _rows(hi)[1:], _rows(lo)[1:]
    assert [r[:2] for r in rows] == [[t, s] for s in ("0", "0.2") for t in ("150", "160", "170")]
    assert [r[2] for r in rows if r[0] != "150"] == ["0"] * 4
    for row, ref in zip(rows[::3], below[1::2]):  # the 150 dB rows, as a sweep up to 150 dB
        assert row[:2] == ref[:2] and float(row[2]) == pytest.approx(float(ref[2]), rel=1e-6)
        assert float(row[2]) > 0.0


def test_hypotheses_command(tmp_path):
    out = str(tmp_path / "hyp.csv")
    assert main(["hypotheses", "--out", out, "--hypotheses", "1,1,150",
                 "--sweep=-12:-8:4"]) == 0
    rows = _rows(out)
    assert rows[0] == ["threshold_db", "baseline", "with_hypotheses", "synchronized",
                       "recovered_fraction"]
    for row in rows[1:]:
        base, multi, sync = float(row[1]), float(row[2]), float(row[3])
        assert base <= multi <= sync + 1e-9
    # the command requires a hypothesis specification
    assert main(["hypotheses", "--out", out]) == 2


def test_simulate_command_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["simulate", "--trials", "50", "--seed", "17"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    rows = _rows(out1)
    assert rows[0] == ["trial", "count", "nearest_sinr_db"]
    assert len(rows) == 51


def test_simulate_writes_minus_inf_for_a_zero_nearest_sinr(tmp_path):
    # at sigma = 0.4N some nearest transmitters sit in [-(N+Ncp), -N), where g = 0
    path = _write(tmp_path, "timing:\n  kind: truncated_gaussian\n  sigma_over_n: 0.4\n")
    out = str(tmp_path / "trials.csv")
    assert main(["simulate", "--config", path, "--trials", "2000", "--seed", "1",
                 "--out", out]) == 0
    rows = _rows(out)
    assert len(rows) == 2001
    db = [row[2] for row in rows[1:]]
    assert "-inf" in db
    assert all(v == "" or v == "-inf" or math.isfinite(float(v)) for v in db)


def test_validate_command(tmp_path):
    out = str(tmp_path / "validate.csv")
    assert main(["validate", "--out", out, "--trials", "400", "--seed", "4",
                 "--workers", "4"]) == 0
    rows = _rows(out)
    assert rows[0] == ["scenario", "analytic", "mc_mean", "mc_ci_half", "status"]
    assert len(rows) == 5
    assert all(row[4] == "pass" for row in rows[1:])


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["mean-decodable", "--with-mc", "--sigma-over-n", "0,0.2", "--sweep=-15:10:5"],
])
def test_one_pass_commands_identical_for_any_workers(tmp_path, argv):
    outs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"workers{workers}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv + ["--trials", "40", "--seed", "6", "--workers", str(workers),
                              "--out", str(out)])
        outs.append((rc, out.read_bytes()))
    assert outs[0][0] in (0, 1)  # validate may flag a scenario at 40 trials
    assert outs[1] == outs[0] and outs[2] == outs[0]


@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["validate"],
    ["dist"],
    ["mean-decodable", "--with-mc", "--sigma-over-n", "0,0.2", "--sweep=-15:10:5"],
], ids=lambda argv: argv[0])
def test_default_workers_fork_and_write_the_one_worker_bytes(tmp_path, monkeypatch, argv):
    # 2,100 trials take three 1,024-trial seeding chunks: with three usable CPUs and a forking
    # pool the default runs the first chunk here and two in a real pool, and must write
    # --workers 1's bytes
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulation, "_cpus", lambda: 3)
    monkeypatch.setattr(simulation, "_forks", lambda: True)
    outs = []
    for flags in ([], ["--workers", "1"]):
        out = tmp_path / f"out{len(outs)}.csv"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = main(argv + ["--trials", "2100", "--seed", "6", "--out", str(out)] + flags)
        outs.append((rc, stdout.getvalue(), out.read_bytes()))
    assert started == [2]  # the default's pool; --workers 1 starts none
    assert outs[0][0] in (0, 1)  # validate may flag a scenario
    assert outs[1] == outs[0]


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--workers", "0"]),
    ("simulate", ["--workers", "-3"]),
    ("mean-decodable", ["--workers", "0"]),
    ("simulate", ["--trials", "0"]),
    ("simulate", ["--seed", "-1"]),
])
def test_bad_run_flags_exit_2_before_any_output(tmp_path, command, flags):
    out = tmp_path / "out.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main([command, "--out", str(out)] + flags) == 2
    assert not out.exists()
    assert err.getvalue().startswith("error:")


# The run flags each command reads; --config and --out belong to every command.
# mean-decodable and nearest read --trials, --seed and --workers only with --with-mc.
READS = {
    "link-profile": {"--offset", "--trials", "--seed"},
    "mean-decodable": {"--sweep", "--sigma-over-n", "--with-mc"},
    "nearest": {"--sweep", "--sigma-over-n", "--with-mc"},
    "dist": {"--trials", "--seed", "--workers"},
    "throughput": {"--sweep", "--sigma-over-n"},
    "hypotheses": {"--hypotheses", "--sweep"},
    "simulate": {"--trials", "--seed", "--workers"},
    "validate": {"--trials", "--seed", "--workers"},
}
FLAG_VALUES = {  # each a valid value other than the default
    "--seed": ["--seed", "5"], "--trials": ["--trials", "50"], "--sweep": ["--sweep=-4:0:2"],
    "--sigma-over-n": ["--sigma-over-n", "0"], "--hypotheses": ["--hypotheses", "1,1,72"],
    "--workers": ["--workers", "2"], "--offset": ["--offset", "5"], "--with-mc": ["--with-mc"],
}


@pytest.mark.parametrize("command, flag", [(command, flag) for command in READS
                                           for flag in FLAG_VALUES if flag not in READS[command]])
def test_command_rejects_a_flag_it_does_not_read(tmp_path, capsys, command, flag):
    out = tmp_path / "out.csv"
    absent = str(tmp_path / "absent.yaml")  # the flags are checked before the config is read
    assert main([command, "--config", absent, "--out", str(out)] + FLAG_VALUES[flag]) == 2
    assert capsys.readouterr().err.startswith(f"error: {command} does not use {flag}\n")
    assert not out.exists()


@pytest.mark.parametrize("sigmas", ["0,-1", "0.2,x", "nan", ""])
def test_bad_sigma_over_n_exits_2_naming_the_flag(tmp_path, capsys, sigmas):
    out = tmp_path / "out.csv"
    assert main(["mean-decodable", "--sigma-over-n", sigmas, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --sigma-over-n: ")
    assert not out.exists()


# Beyond 1e6 half-widths the truncated Gaussian's inside mass cancels: at 1e15 N the
# analytics returned a wrong mean, and at 1e17 N they raised from deep inside.
@pytest.mark.parametrize("command", ["mean-decodable", "simulate"])
def test_sigma_beyond_the_gaussian_bound_exits_2_naming_uniform(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    if command == "mean-decodable":
        assert main([command, "--sigma-over-n", "0.2,1e15", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --sigma-over-n: sigma ")
        assert main([command, "--sigma-over-n", "1e17", "--out", str(out)]) == 2
        assert "limit is uniform(" in capsys.readouterr().err
    path = _write(tmp_path, "timing: {kind: truncated_gaussian, sigma_over_n: 1.0e+17}\n")
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: timing: sigma ") and "limit is uniform(" in err
    assert not out.exists()


def test_rows_that_fail_to_build_leave_no_output(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise QuadratureError("no convergence")

    monkeypatch.setattr(analytics, "nearest_decoding_prob_each", fail)
    out = tmp_path / "near.csv"
    assert main(["nearest", "--out", str(out)]) == 2
    assert not out.exists()


# At alpha = 150 and 200 `nearest`'s b^{alpha/2} underflows to 0, its radial
# integrand turns NaN and the quadrature raises QuadratureError in its first round,
# which the command turns into exit 2.  The underflow is a RuntimeWarning that a command
# line prints and goes on from, so this test lets it pass as the command line does.
@pytest.mark.filterwarnings("default::RuntimeWarning")
def test_a_quadrature_failure_exits_2_with_an_error_line(tmp_path, capsys):
    path = _write(tmp_path, "network: {alpha: 200}\n")
    out = tmp_path / "near.csv"
    assert main(["nearest", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "the integrand is not finite" in err, err
    assert not out.exists()


# sha256 of the outputs at alpha = 130, recorded before alpha's overflow was caught
ALPHA_130_DIGESTS = {
    "mean-decodable": "e200448e32c0544d26a02ed06733f27c47c19805d4c7978f84fdebdabb8e09a0",
    "throughput": "1a77952802e1710800e3630331014c2624acaa813f05c017916a5fe10deaf376",
}


# From alpha ~ 140 at the default density, (sinc(2/alpha) / (pi lam))^(alpha/2) in the
# noise term of the mean count overflows a float; alpha = 130 still runs, and neither
# value may warn on the way (pyproject turns a RuntimeWarning into an error).
def test_alpha_whose_noise_term_overflows_exits_2_with_an_error_line(tmp_path, capsys):
    path = _write(tmp_path, "network: {alpha: 150}\n")
    for command, flags in (("mean-decodable", []), ("throughput", []),
                           ("hypotheses", ["--hypotheses", "1,1,72"]),
                           ("validate", ["--trials", "5"])):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", path, "--out", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha = 150 is too large"), err
        assert not out.exists()
    path = _write(tmp_path, "network: {alpha: 130}\n")
    for command, digest in ALPHA_130_DIGESTS.items():
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", path, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.fixture
def no_work(monkeypatch):
    """Makes every entry point that loads, computes or simulates fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    for owner, names in ((cli, ["load_config", "empirical_power_profile"]),
                         (analytics, ["mean_decodable", "mean_decodable_each",
                                      "mean_decodable_with_hypotheses", "nearest_decoding_prob",
                                      "nearest_decoding_prob_each", "upsilon_upper_distribution",
                                      "optimize_threshold"]),
                         (simulation, ["run_trials", "run_trials_each",
                                       "estimate_distribution"])):
        for name in names:
            monkeypatch.setattr(owner, name, fail)


def _flags(command):
    return ["--hypotheses", "1,1,72"] if command == "hypotheses" else []


@pytest.mark.parametrize("command", sorted(READS))
def test_out_in_a_missing_directory_exits_2_before_any_work(tmp_path, capsys, no_work,
                                                            command):
    out = tmp_path / "nodir" / "x.csv"
    assert main([command, "--out", str(out)] + _flags(command)) == 2
    assert capsys.readouterr().err == f"error: --out: directory {out.parent} does not exist\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("command", sorted(READS))
def test_out_naming_a_directory_exits_2_before_any_work(tmp_path, capsys, no_work, command):
    out = tmp_path / "outdir"
    out.mkdir()
    assert main([command, "--out", str(out)] + _flags(command)) == 2
    assert capsys.readouterr().err == f"error: --out: {out} is a directory\n"
    assert list(out.iterdir()) == []


def test_seed_and_trials_flags_keep_the_rest_of_the_sim_section(tmp_path):
    path = _write(tmp_path, "sim:\n  trials: 7\n  seed: 2\n  expected_points: 500\n")
    cfg = _apply_flags(load_config(path), build_parser().parse_args(
        ["simulate", "--out", "x.csv", "--seed", "9"]))
    assert (cfg.sim.trials, cfg.sim.master_seed, cfg.sim.expected_points) == (7, 9, 500)
    cfg = _apply_flags(cfg, build_parser().parse_args(["simulate", "--out", "x.csv",
                                                        "--trials", "11"]))
    assert (cfg.sim.trials, cfg.sim.master_seed, cfg.sim.expected_points) == (11, 9, 500)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.floats(-40.0, 40.0), st.floats(0.05, 10.0), st.integers(0, 60),
           st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_sweep_whose_step_does_not_divide_the_range_is_rejected(lo, step, whole, part):
        hi = lo + (whole + part) * step  # (hi - lo) / step is at least 0.01 from an integer
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            out = Path(tmp) / "out.csv"
            assert main(["mean-decodable", f"--sweep={lo!r}:{hi!r}:{step!r}",
                         "--out", str(out)]) == 2
            assert not out.exists()
        assert err.getvalue().startswith("error: --sweep") and "does not divide" in err.getvalue()
        # the same range and step with a whole number of steps is accepted, end points included
        grid = _sweep(lo, lo + (whole + 1) * step, step, "--sweep")
        assert len(grid) == whole + 2 and grid[0] == lo
except ImportError:  # pragma: no cover - property tests are optional extras
    pass
