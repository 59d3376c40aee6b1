"""Command-line front end: config ingestion, dispatch, CSV emission.

All user-facing quantities are in dB/dBm/meters; conversion to linear units
happens once, when the run configuration is assembled.  Precedence is
flags > config file > defaults; the defaults reproduce the reference parameter
set (N=1024, N_cp=72, lambda=1/400^2 per m^2, alpha=3.8, 23 dBm over 10 MHz
with -174 dBm/Hz PSD and 9 dB noise figure, T=-12 dB, sigma=0.2N).
"""

from __future__ import annotations

import argparse
import copy
import csv
import math
import sys
from dataclasses import dataclass, replace

import yaml

from . import analytics, simulation, timing as timing_mod
from .link import OfdmConfig, empirical_power_profile
from .sinr import NetworkParams, hypothesis_set
from .simulation import SimSpec

DEFAULTS = {
    "ofdm": {"n": 1024, "n_cp": 72, "used_range": [-300, 299]},
    "network": {
        "density_per_m2": 1.0 / 400.0 ** 2,
        "alpha": 3.8,
        "tx_power_dbm": 23.0,
        "bandwidth_hz": 1.0e7,
        "noise_psd_dbm_hz": -174.0,
        "noise_figure_db": 9.0,
    },
    "timing": {"kind": "truncated_gaussian", "sigma_over_n": 0.2},
    "detection": {"threshold_db": -12.0},
    "sim": {"trials": 1000, "expected_points": 2000, "seed": 1},
}

_ALLOWED = {
    "ofdm": {"n", "n_cp", "used_range"},
    "network": {"density_per_m2", "alpha", "tx_power_dbm", "bandwidth_hz",
                "noise_psd_dbm_hz", "noise_figure_db", "snr_db"},
    "timing": {"kind", "sigma_over_n", "offset", "lo", "hi"},
    "detection": {"threshold_db", "sweep"},
    "sim": {"trials", "expected_points", "seed"},
    "hypotheses": {"n1", "n2", "delta"},
}
_SWEEP_KEYS = {"lo_db", "hi_db", "step_db"}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    ofdm: OfdmConfig
    network: dict  # validated raw network section
    timing: dict  # validated raw timing section
    threshold_db: float
    sweep_db: tuple[float, float, float] | None
    sim: SimSpec
    hypotheses: tuple[float, ...] | None

    def params(self, threshold_db: float) -> NetworkParams:
        net = self.network
        if "snr_db" in net:
            from .sinr import db_to_linear
            return NetworkParams(net["density_per_m2"], net["alpha"],
                                 db_to_linear(net["snr_db"]), db_to_linear(threshold_db))
        return NetworkParams.from_budget(
            net["density_per_m2"], net["alpha"], threshold_db,
            net["tx_power_dbm"], net["bandwidth_hz"],
            net["noise_psd_dbm_hz"], net["noise_figure_db"])

    def timing_model(self, sigma_over_n: float | None = None) -> timing_mod.TimingModel:
        w = self.ofdm.domain_half_width
        if sigma_over_n is not None:
            if sigma_over_n == 0.0:
                return timing_mod.delta(0.0, w)
            return timing_mod.truncated_gaussian(sigma_over_n * self.ofdm.n, w)
        t = self.timing
        if t["kind"] == "delta":
            return timing_mod.delta(t.get("offset", 0.0), w)
        if t["kind"] == "uniform":
            return timing_mod.uniform(t["lo"], t["hi"], w)
        return timing_mod.truncated_gaussian(t["sigma_over_n"] * self.ofdm.n, w)

    @property
    def sigma_over_n(self) -> float:
        if self.timing["kind"] == "truncated_gaussian":
            return self.timing["sigma_over_n"]
        return 0.0

    def sweep_grid(self) -> list[float]:
        if self.sweep_db is not None:
            lo, hi, step = self.sweep_db
            n = int(round((hi - lo) / step))
            return [lo + i * step for i in range(n + 1)]
        return [self.threshold_db]


def _sweep(lo, hi, step, where: str) -> tuple[float, float, float]:
    """A threshold sweep (lo, hi, step) in dB whose step divides hi - lo."""
    try:
        lo, hi, step = float(lo), float(hi), float(step)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} expects numbers, got {lo!r}:{hi!r}:{step!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError(f"{where} values must be finite, got {lo}:{hi}:{step}")
    if not (lo < hi and step > 0):
        raise ConfigError(f"{where} needs LO < HI and STEP > 0, got {lo}:{hi}:{step}")
    steps = (hi - lo) / step
    if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * round(steps)):
        raise ConfigError(f"{where}: step {step} does not divide the range {lo}..{hi}")
    return lo, hi, step


def _check_keys(section: str, data: dict, allowed: set) -> None:
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key '{section}.{key}'")


def load_config(path: str | None) -> RunConfig:
    """Parse and validate the YAML run configuration; defaults fill gaps."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh) or {}
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a mapping")
    _check_keys("<root>", raw, set(_ALLOWED))

    merged = copy.deepcopy(DEFAULTS)
    for section, allowed in _ALLOWED.items():
        user = raw.get(section)
        if user is None:
            continue
        if not isinstance(user, dict):
            raise ConfigError(f"'{section}' must be a mapping")
        _check_keys(section, user, allowed)
        merged.setdefault(section, {}).update(user)

    ofdm = merged["ofdm"]
    lo, hi = ofdm["used_range"]
    config = OfdmConfig.centered(int(ofdm["n"]), int(ofdm["n_cp"]), int(lo), int(hi))

    net = merged["network"]
    if "snr_db" in net:
        budget = {"tx_power_dbm", "bandwidth_hz", "noise_psd_dbm_hz", "noise_figure_db"}
        if raw.get("network") and budget & set(raw["network"]):
            raise ConfigError("network: give either snr_db or the power budget, not both")
        for k in budget:
            net.pop(k, None)
    if net["alpha"] <= 2:
        raise ConfigError("network.alpha must exceed 2")
    if net["density_per_m2"] <= 0:
        raise ConfigError("network.density_per_m2 must be positive")

    tim = merged["timing"]
    if tim["kind"] not in ("delta", "truncated_gaussian", "uniform"):
        raise ConfigError(f"timing.kind '{tim['kind']}' not one of delta/truncated_gaussian/uniform")
    if tim["kind"] == "truncated_gaussian" and tim.get("sigma_over_n", 0) <= 0:
        raise ConfigError("timing.sigma_over_n must be positive for truncated_gaussian")

    det = merged["detection"]
    threshold_db = det.get("threshold_db")
    if threshold_db is None:  # an explicit null means the default
        threshold_db = DEFAULTS["detection"]["threshold_db"]
    sweep_db = None
    if "sweep" in det:
        sweep = det["sweep"]
        _check_keys("detection.sweep", sweep, _SWEEP_KEYS)
        missing = _SWEEP_KEYS - set(sweep)
        if missing:
            raise ConfigError(f"detection.sweep missing {sorted(missing)}")
        sweep_db = _sweep(sweep["lo_db"], sweep["hi_db"], sweep["step_db"], "detection.sweep")

    sim = merged["sim"]
    spec = SimSpec(int(sim["trials"]), int(sim["seed"]), int(sim["expected_points"]))

    hyp = None
    if "hypotheses" in merged and merged["hypotheses"]:
        h = merged["hypotheses"]
        for k in ("n1", "n2", "delta"):
            if k not in h:
                raise ConfigError(f"hypotheses.{k} is required when hypotheses are given")
        hyp = hypothesis_set(int(h["n1"]), int(h["n2"]), float(h["delta"]))

    return RunConfig(config, net, tim, threshold_db, sweep_db, spec, hyp)


def _apply_flags(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "workers", 1) < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    if getattr(args, "seed", None) is not None:
        cfg.sim = replace(cfg.sim, master_seed=args.seed)
    if getattr(args, "trials", None) is not None:
        cfg.sim = replace(cfg.sim, trials=args.trials)
    if getattr(args, "sweep", None) is not None:
        parts = args.sweep.split(":")
        if len(parts) != 3:
            raise ConfigError("--sweep expects LO:HI:STEP in dB")
        cfg.sweep_db = _sweep(*parts, "--sweep")
    if getattr(args, "hypotheses", None) is not None:
        try:
            n1, n2, delta = args.hypotheses.split(",")
            cfg.hypotheses = hypothesis_set(int(n1), int(n2), float(delta))
        except ValueError:
            raise ConfigError("--hypotheses expects N1,N2,DELTA")
    return cfg


def _sigmas(cfg: RunConfig, args) -> list[float]:
    if getattr(args, "sigma_over_n", None) is not None:
        return [float(s) for s in args.sigma_over_n.split(",")]
    return [cfg.sigma_over_n]


def _writer(path):
    fh = open(path, "w", newline="")
    return fh, csv.writer(fh)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def cmd_link_profile(cfg: RunConfig, args) -> int:
    profile = empirical_power_profile(cfg.ofdm, args.offset, cfg.sim.trials,
                                      cfg.sim.master_seed)
    profile.to_csv(args.out)
    return 0


def cmd_mean_decodable(cfg: RunConfig, args) -> int:
    return _sweep_command(cfg, args, analytics.mean_decodable,
                          simulation.estimate_mean_decodable)


def cmd_nearest(cfg: RunConfig, args) -> int:
    return _sweep_command(cfg, args, analytics.nearest_decoding_prob,
                          simulation.estimate_nearest_prob)


def _sweep_command(cfg, args, analytic_fn, mc_fn) -> int:
    grid = cfg.sweep_grid()
    sigmas = _sigmas(cfg, args)
    models = [cfg.timing_model(sigma) for sigma in sigmas]
    runs = [None] * len(models)
    if args.with_mc:  # one pass for every sigma, at the sweep's lowest threshold
        runs = simulation.run_trials_each(cfg.params(min(grid)), models, cfg.ofdm, cfg.sim,
                                          workers=args.workers)
    fh, w = _writer(args.out)
    header = ["threshold_db", "sigma_over_n", "analytic_value"]
    if args.with_mc:
        header += ["mc_value", "mc_ci_half"]
    w.writerow(header)
    points = [cfg.params(t_db) for t_db in grid]
    thresholds = [params.threshold for params in points]
    with fh:
        for sigma, tm, results in zip(sigmas, models, runs):
            values = analytic_fn(points[0], tm, cfg.ofdm, thresholds=thresholds)
            for t_db, params, value in zip(grid, points, values):
                row = [_fmt(t_db), _fmt(sigma), _fmt(value)]
                if args.with_mc:
                    est = mc_fn(params, tm, cfg.ofdm, cfg.sim, results=results.at(params.threshold))
                    row += [_fmt(est.mean), _fmt(est.ci_half_width)]
                w.writerow(row)
    return 0


def cmd_dist(cfg: RunConfig, args) -> int:
    params = cfg.params(cfg.threshold_db)
    tm = cfg.timing_model()
    bound = analytics.upsilon_upper_distribution(params, tm, cfg.ofdm)
    emp = simulation.estimate_distribution(params, tm, cfg.ofdm, cfg.sim,
                                           workers=args.workers)
    n_max = max(bound.support_max, int(emp.counts[-1]))
    bound_ccdf = bound.ccdf()
    emp_ccdf = emp.ccdf()
    fh, w = _writer(args.out)
    with fh:
        w.writerow(["n", "bound_pmf", "bound_ccdf", "mc_pmf", "mc_ccdf", "mc_ci_half"])
        for n in range(n_max + 1):
            bp = bound.pmf[n] if n <= bound.support_max else 0.0
            bc = bound_ccdf[n] if n <= bound.support_max else 0.0
            mp = emp.pmf[n] if n < len(emp.pmf) else 0.0
            mc = emp_ccdf[n] if n < len(emp.pmf) else 0.0
            half = emp.ci_half_width[n] if n < len(emp.pmf) else 0.0
            w.writerow([n, _fmt(bp), _fmt(bc), _fmt(mp), _fmt(mc), _fmt(half)])
    return 0


def cmd_throughput(cfg: RunConfig, args) -> int:
    grid = cfg.sweep_grid()
    if len(grid) < 2:
        grid = [x * 0.5 for x in range(-30, 21)]  # default -15..10 dB step 0.5
    fh, w = _writer(args.out)
    with fh:
        w.writerow(["row_type", "threshold_db", "sigma_over_n", "throughput"])
        for sigma in _sigmas(cfg, args):
            tm = cfg.timing_model(sigma)
            best_db, best_val, values = analytics.optimize_threshold(
                cfg.params(grid[0]), tm, cfg.ofdm, grid)
            for t_db, val in zip(grid, values):
                w.writerow(["data", _fmt(t_db), _fmt(sigma), _fmt(val)])
            w.writerow(["optimal", _fmt(best_db), _fmt(sigma), _fmt(best_val)])
    return 0


def cmd_hypotheses(cfg: RunConfig, args) -> int:
    if cfg.hypotheses is None:
        raise ConfigError("the hypotheses command needs a hypotheses section or --hypotheses")
    tm = cfg.timing_model()
    sync = cfg.timing_model(0.0)
    grid = cfg.sweep_grid()
    params, thresholds = cfg.params(grid[0]), [cfg.params(t_db).threshold for t_db in grid]
    columns = [analytics.mean_decodable(params, tm, cfg.ofdm, thresholds=thresholds),
               analytics.mean_decodable_with_hypotheses(params, tm, cfg.ofdm, cfg.hypotheses,
                                                        thresholds=thresholds),
               analytics.mean_decodable(params, sync, cfg.ofdm, thresholds=thresholds)]
    fh, w = _writer(args.out)
    with fh:
        w.writerow(["threshold_db", "baseline", "with_hypotheses", "synchronized",
                    "recovered_fraction"])
        for t_db, base, multi, ideal in zip(grid, *columns):
            gap = ideal - base
            frac = (multi - base) / gap if gap > 0 else 1.0
            w.writerow([_fmt(t_db), _fmt(base), _fmt(multi), _fmt(ideal), _fmt(frac)])
    return 0


def cmd_simulate(cfg: RunConfig, args) -> int:
    params = cfg.params(cfg.threshold_db)
    results = simulation.run_trials(params, cfg.timing_model(), cfg.ofdm, cfg.sim,
                                    workers=args.workers)
    results.to_csv(args.out)
    return 0


def cmd_validate(cfg: RunConfig, args) -> int:
    """Analytic-vs-Monte-Carlo cross-checks; nonzero exit if any scenario fails."""
    sigmas = (0.0, 0.2, 0.4)
    params = cfg.params(cfg.threshold_db)
    models = [cfg.timing_model(sigma) for sigma in sigmas]
    runs = simulation.run_trials_each(params, models, cfg.ofdm, cfg.sim, workers=args.workers)
    scenarios = [(f"mean sigma={sigma}N", tm, results, analytics.mean_decodable,
                  simulation.estimate_mean_decodable)
                 for sigma, tm, results in zip(sigmas, models, runs)]
    scenarios.append(("nearest sigma=0.2N", models[1], runs[1],
                      analytics.nearest_decoding_prob, simulation.estimate_nearest_prob))

    rows = []
    failed = False
    for name, tm, results, analytic_fn, mc_fn in scenarios:
        analytic = analytic_fn(params, tm, cfg.ofdm)
        est = mc_fn(params, tm, cfg.ofdm, cfg.sim, results=results)
        slack = max(est.ci_half_width, 0.02 * abs(analytic))
        ok = abs(est.mean - analytic) <= slack
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: analytic={analytic:.6g} "
              f"mc={est.mean:.6g} +/- {est.ci_half_width:.2g}")
        rows.append([name, _fmt(analytic), _fmt(est.mean), _fmt(est.ci_half_width),
                     "pass" if ok else "fail"])
    fh, w = _writer(args.out)
    with fh:
        w.writerow(["scenario", "analytic", "mc_mean", "mc_ci_half", "status"])
        w.writerows(rows)
    return 1 if failed else 0


COMMANDS = {
    "link-profile": cmd_link_profile,
    "mean-decodable": cmd_mean_decodable,
    "nearest": cmd_nearest,
    "dist": cmd_dist,
    "throughput": cmd_throughput,
    "hypotheses": cmd_hypotheses,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="asyncofdm",
                                     description="asynchronous OFDM network analysis")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="YAML run configuration")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--sweep", default=None, metavar="LO:HI:STEP",
                        help="threshold sweep in dB")
    parser.add_argument("--sigma-over-n", default=None, metavar="R[,R...]",
                        help="timing sigma values as multiples of N (0 = synchronized)")
    parser.add_argument("--hypotheses", default=None, metavar="N1,N2,DELTA")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--offset", type=int, default=-6,
                        help="timing offset in samples (link-profile)")
    parser.add_argument("--with-mc", action="store_true",
                        help="add Monte Carlo columns to sweep outputs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_flags(load_config(args.config), args)
        return COMMANDS[args.command](cfg, args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
