"""Command-line front end: config ingestion, dispatch, CSV emission.

All user-facing quantities are in dB/dBm/meters.  A run resolves once, into a frozen
`RunConfig` that holds the network at the configured threshold in linear units and the
threshold grid in dB; the analytic sweeps take the whole grid at once, and a Monte
Carlo sweep scores every point from one pass at the grid's lowest threshold.  Precedence is
flags > config file > defaults; the defaults reproduce the reference parameter
set (N=1024, N_cp=72, lambda=1/400^2 per m^2, alpha=3.8, 23 dBm over 10 MHz
with -174 dBm/Hz PSD and 9 dB noise figure, T=-12 dB, sigma=0.2N).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, replace

from . import analytics, simulation, timing as timing_mod
from .link import OfdmConfig, _fmt, _write_csv, empirical_power_profile
from .quadrature import QuadratureError
from .sinr import NetworkParams, db_to_linear, hypothesis_set
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
    "sim": {"trials": 1000, "expected_points": SimSpec.expected_points, "seed": 1},
}
THROUGHPUT_GRID_DB = tuple(x * 0.5 for x in range(-30, 21))  # -15..10 dB, when not swept
MAX_SWEEP_POINTS = 10_001  # most thresholds in a grid; 10,001 take a sweep 1 s and 100 MB

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
_BUDGET = {"tx_power_dbm", "bandwidth_hz", "noise_psd_dbm_hz", "noise_figure_db"}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    ofdm: OfdmConfig
    network: NetworkParams  # at detection.threshold_db
    timing: timing_mod.TimingModel  # the configured model
    # (sigma / N, model) per sweep: the configured model's, or one per --sigma-over-n value
    sweep_timings: tuple[tuple[float, timing_mod.TimingModel], ...]
    grid_db: tuple[float, ...]  # the threshold sweep in dB, or the configured threshold alone
    sim: SimSpec
    hypotheses: tuple[float, ...] | None

    def params(self, threshold_db: float) -> NetworkParams:
        return self.network.with_threshold_db(threshold_db)

    @property
    def thresholds(self) -> list[float]:
        """grid_db in linear units, as `params` converts each."""
        return [db_to_linear(t_db) for t_db in self.grid_db]

    def timing_model(self, sigma_over_n: float) -> timing_mod.TimingModel:
        """The synchronized model (0), or a Gaussian one of sigma_over_n * N."""
        w = self.ofdm.domain_half_width
        if sigma_over_n == 0.0:
            return timing_mod.delta(0.0, w)
        return timing_mod.truncated_gaussian(sigma_over_n * self.ofdm.n, w)


def _sweep(lo, hi, step, where: str) -> tuple[float, ...]:
    """The threshold grid lo, lo + step, ..., hi in dB, once step divides hi - lo, the grid
    holds at most MAX_SWEEP_POINTS and the end points are finite, positive linear thresholds."""
    try:
        lo, hi, step = float(lo), float(hi), float(step)
        linear = db_to_linear(lo), db_to_linear(hi)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} expects numbers, got {lo!r}:{hi!r}:{step!r}") from None
    except OverflowError:  # 10.0 ** x raises rather than returning inf
        linear = (math.inf,)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError(f"{where} values must be finite, got {lo}:{hi}:{step}")
    if not (lo < hi and step > 0):
        raise ConfigError(f"{where} needs LO < HI and STEP > 0, got {lo}:{hi}:{step}")
    steps = (hi - lo) / step
    if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * round(steps)):
        raise ConfigError(f"{where}: step {step} does not divide the range {lo}..{hi}")
    if round(steps) + 1 > MAX_SWEEP_POINTS:  # checked before the tuple is built
        raise ConfigError(f"{where}: {round(steps) + 1} thresholds exceed "
                          f"MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}")
    if not all(0.0 < x < math.inf for x in linear):
        raise ConfigError(f"{where}: the range {lo}..{hi} dB does not map to finite, "
                          "positive linear thresholds")
    return tuple(lo + i * step for i in range(round(steps) + 1))


def _check_keys(section: str, data: dict, allowed: set) -> None:
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key '{section}.{key}'")


def load_config(path: str | None) -> RunConfig:
    """Parse the YAML run configuration and build every object of the run once;
    defaults fill gaps, and an explicit null means the default."""
    raw = {}
    if path is not None:
        import yaml  # only a run with a config file pays for the parser
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

    merged = {section: dict(values) for section, values in DEFAULTS.items()}  # as deep as update()
    for section, allowed in _ALLOWED.items():
        user = raw.get(section)
        if user is None:
            continue
        if not isinstance(user, dict):
            raise ConfigError(f"'{section}' must be a mapping")
        _check_keys(section, user, allowed)
        raw[section] = {k: v for k, v in user.items() if v is not None}
        merged.setdefault(section, {}).update(raw[section])

    section = "ofdm"  # the section being built, named in any error it raises
    try:
        o = merged["ofdm"]
        lo, hi = o["used_range"]
        ofdm = OfdmConfig.centered(o["n"], o["n_cp"], lo, hi)
        w = ofdm.domain_half_width

        section, net = "network", merged["network"]
        if "snr_db" not in net:  # built at 0 dB, then moved to threshold_db below
            network = NetworkParams.from_budget(
                net["density_per_m2"], net["alpha"], 0.0, net["tx_power_dbm"],
                net["bandwidth_hz"], net["noise_psd_dbm_hz"], net["noise_figure_db"])
        elif _BUDGET & set(raw["network"]):
            raise ConfigError("network: give either snr_db or the power budget, not both")
        else:
            network = NetworkParams(net["density_per_m2"], net["alpha"],
                                    db_to_linear(net["snr_db"]), 1.0)

        section, tim = "timing", merged["timing"]
        if tim["kind"] == "delta":
            timing = timing_mod.delta(tim.get("offset", 0.0), w)
        elif tim["kind"] == "uniform":
            timing = timing_mod.uniform(tim["lo"], tim["hi"], w)
        elif tim["kind"] != "truncated_gaussian":
            raise ConfigError(f"timing.kind '{tim['kind']}' not one of "
                              "delta/truncated_gaussian/uniform")
        elif not tim["sigma_over_n"] > 0:
            raise ConfigError("timing.sigma_over_n must be positive for truncated_gaussian")
        else:
            timing = timing_mod.truncated_gaussian(tim["sigma_over_n"] * ofdm.n, w)

        section, det = "detection", merged["detection"]
        network = network.with_threshold_db(det["threshold_db"])
        grid_db = (det["threshold_db"],)
        if "sweep" in det:
            section, sweep = "detection.sweep", det["sweep"]
            _check_keys(section, sweep, _SWEEP_KEYS)
            grid_db = _sweep(sweep["lo_db"], sweep["hi_db"], sweep["step_db"], section)

        section, sim = "sim", merged["sim"]
        spec = SimSpec(sim["trials"], sim["seed"], sim["expected_points"])

        section, hyp = "hypotheses", None
        if merged.get("hypotheses"):
            h = merged["hypotheses"]
            hyp = hypothesis_set(h["n1"], h["n2"], h["delta"])
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{section}.{exc.args[0]} is required") from None
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{section}: {exc}") from None
    return RunConfig(ofdm, network, timing, ((timing.sigma / ofdm.n, timing),), grid_db, spec, hyp)


def _apply_flags(cfg: RunConfig, args) -> RunConfig:
    """cfg with the run flags over it; a bad value is named by its flag."""
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    sim, changes = cfg.sim, {}
    if args.seed is not None:
        sim = replace(sim, master_seed=args.seed)
    if args.trials is not None:
        sim = replace(sim, trials=args.trials)
    if args.sweep is not None:
        parts = args.sweep.split(":")
        if len(parts) != 3:
            raise ConfigError("--sweep expects LO:HI:STEP in dB")
        changes["grid_db"] = _sweep(*parts, "--sweep")
    if args.hypotheses is not None:
        try:
            n1, n2, delta = args.hypotheses.split(",")
            changes["hypotheses"] = hypothesis_set(int(n1), int(n2), float(delta))
        except ValueError as exc:  # a set past the cap is named as the hypotheses section names it
            raise ConfigError(f"--hypotheses: {exc}" if "MAX_HYPOTHESES" in str(exc)
                              else "--hypotheses expects N1,N2,DELTA") from None
    if args.sigma_over_n is not None:
        try:
            changes["sweep_timings"] = tuple((s, cfg.timing_model(s))
                                             for s in map(float, args.sigma_over_n.split(",")))
        except ValueError as exc:
            raise ConfigError(f"--sigma-over-n: {exc}") from None
    return replace(cfg, sim=sim, **changes)


def cmd_link_profile(cfg: RunConfig, args) -> None:
    profile = empirical_power_profile(cfg.ofdm, args.offset, cfg.sim.trials,
                                      cfg.sim.master_seed)
    profile.to_csv(args.out)


def _sweep_command(cfg, args, analytic_fn, mc_fn) -> None:
    sigmas, models = zip(*cfg.sweep_timings)
    runs = [None] * len(models)
    if args.with_mc:  # one pass for every model, at the sweep's lowest threshold
        runs = simulation.run_trials_each(cfg.params(min(cfg.grid_db)), models, cfg.ofdm, cfg.sim,
                                          workers=args.workers)
    header = ["threshold_db", "sigma_over_n", "analytic_value"]
    if args.with_mc:
        header += ["mc_value", "mc_ci_half"]
    thresholds, rows, t_strs = cfg.thresholds, [], [_fmt(t_db) for t_db in cfg.grid_db]
    columns = analytic_fn(cfg.network, models, cfg.ofdm, thresholds=thresholds)
    for sigma, results, values in zip(map(_fmt, sigmas), runs, columns):
        for t_str, t, value in zip(t_strs, thresholds, values.tolist()):
            row = [t_str, sigma, _fmt(value)]
            if args.with_mc:
                est = mc_fn(results, t)
                row += [_fmt(est.mean), _fmt(est.ci_half_width)]
            rows.append(row)
    _write_csv(args.out, header, rows)


def cmd_dist(cfg: RunConfig, args) -> None:
    bound = analytics.upsilon_upper_distribution(cfg.network, cfg.timing, cfg.ofdm)
    emp = simulation.estimate_distribution(cfg.network, cfg.timing, cfg.ofdm, cfg.sim,
                                           workers=args.workers)
    # rows past the bound pmf's underflow to 0 (its ccdf too) and the largest count: all 0
    n_max = max(int(bound.pmf.nonzero()[0][-1]), emp.support_max)
    columns = [c[:n_max + 1].tolist() for c in (bound.pmf, bound.ccdf(), emp.pmf, emp.ccdf(),
                                                emp.ci_half_width)]
    rows = [[n] + [_fmt(c[n] if n < len(c) else 0.0) for c in columns]
            for n in range(n_max + 1)]
    _write_csv(args.out, ["n", "bound_pmf", "bound_ccdf", "mc_pmf", "mc_ccdf", "mc_ci_half"],
               rows)


def cmd_throughput(cfg: RunConfig, args) -> None:
    grid = cfg.grid_db if len(cfg.grid_db) > 1 else THROUGHPUT_GRID_DB
    (sigmas, models), rows, t_strs = zip(*cfg.sweep_timings), [], [_fmt(t_db) for t_db in grid]
    for sigma, mean in zip(map(_fmt, sigmas), analytics.mean_decodable_each(
            cfg.network, models, cfg.ofdm, thresholds=[db_to_linear(t) for t in grid])):
        best_db, best_val, values = analytics._best_threshold(grid, mean.tolist())
        rows += [["data", t_str, sigma, _fmt(val)] for t_str, val in zip(t_strs, values)]
        rows.append(["optimal", _fmt(best_db), sigma, _fmt(best_val)])
    _write_csv(args.out, ["row_type", "threshold_db", "sigma_over_n", "throughput"], rows)


def cmd_hypotheses(cfg: RunConfig, args) -> None:
    if cfg.hypotheses is None:
        raise ConfigError("the hypotheses command needs a hypotheses section or --hypotheses")
    params, thresholds = cfg.network, cfg.thresholds
    columns = [*analytics.mean_decodable_each(params, [cfg.timing, cfg.timing_model(0.0)],
                                              cfg.ofdm, thresholds=thresholds),
               analytics.mean_decodable_with_hypotheses(params, cfg.timing, cfg.ofdm,
                                                        cfg.hypotheses, thresholds=thresholds)]
    rows = []
    for t_db, base, ideal, multi in zip(cfg.grid_db, *(c.tolist() for c in columns)):
        gap = ideal - base
        frac = (multi - base) / gap if gap > 0 else 1.0
        rows.append([_fmt(t_db), _fmt(base), _fmt(multi), _fmt(ideal), _fmt(frac)])
    _write_csv(args.out, ["threshold_db", "baseline", "with_hypotheses", "synchronized",
                          "recovered_fraction"], rows)


def cmd_simulate(cfg: RunConfig, args) -> None:
    results = simulation.run_trials(cfg.network, cfg.timing, cfg.ofdm, cfg.sim,
                                    workers=args.workers)
    results.to_csv(args.out)


def cmd_validate(cfg: RunConfig, args) -> int:
    """Analytic-vs-Monte-Carlo cross-checks; nonzero exit if any scenario fails."""
    sigmas = (0.0, 0.2, 0.4)
    models = [cfg.timing_model(sigma) for sigma in sigmas]
    runs = simulation.run_trials_each(cfg.network, models, cfg.ofdm, cfg.sim,
                                      workers=args.workers)
    values = analytics.mean_decodable_each(cfg.network, models, cfg.ofdm) + [
        analytics.nearest_decoding_prob(cfg.network, models[1], cfg.ofdm)]
    t = cfg.network.threshold
    names = [f"mean sigma={sigma}N" for sigma in sigmas] + ["nearest sigma=0.2N"]
    estimates = [results.mean_count(t) for results in runs] + [runs[1].nearest_prob(t)]

    rows, failed = [], False
    for name, est, analytic in zip(names, estimates, values):
        slack = max(est.ci_half_width, 0.02 * abs(analytic))
        ok = abs(est.mean - analytic) <= slack
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: analytic={analytic:.6g} "
              f"mc={est.mean:.6g} +/- {est.ci_half_width:.2g}")
        rows.append([name, _fmt(analytic), _fmt(est.mean), _fmt(est.ci_half_width),
                     "pass" if ok else "fail"])
    _write_csv(args.out, ["scenario", "analytic", "mc_mean", "mc_ci_half", "status"], rows)
    return 1 if failed else 0


_MC = {"trials", "seed", "workers"}  # read by mean-decodable and nearest only with --with-mc
_SWEEP = {"sweep", "sigma_over_n", "with_mc"}

# command: (function, the run flags it reads); --config and --out belong to every command.
# The sweep entries look their functions up at call time, where a tracer may have wrapped them.
COMMANDS = {
    "link-profile": (cmd_link_profile, {"offset", "trials", "seed"}),
    "mean-decodable": (lambda cfg, args: _sweep_command(
        cfg, args, analytics.mean_decodable_each, simulation.TrialResults.mean_count), _SWEEP),
    "nearest": (lambda cfg, args: _sweep_command(cfg, args, analytics.nearest_decoding_prob_each,
                                                  simulation.TrialResults.nearest_prob), _SWEEP),
    "dist": (cmd_dist, _MC),
    "throughput": (cmd_throughput, {"sweep", "sigma_over_n"}),
    "hypotheses": (cmd_hypotheses, {"hypotheses", "sweep"}),
    "simulate": (cmd_simulate, _MC),
    "validate": (cmd_validate, _MC),
}


@functools.cache  # one per process: parse_args leaves the parser as it found it
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
    parser.add_argument("--workers", type=int, default=None,
                        help="Monte Carlo processes, at most the usable CPUs (default: "
                             "one per started 1,024 trials where the pool forks, else 1)")
    parser.add_argument("--offset", type=int, default=-6,
                        help="timing offset in samples (link-profile)")
    parser.add_argument("--with-mc", action="store_true",
                        help="add Monte Carlo columns to sweep outputs")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command, reads = COMMANDS[args.command]
    if args.with_mc:
        reads = reads | _MC
    unread = [flag for flag, value in vars(args).items()
              if flag not in reads | {"command", "config", "out"}
              and value != parser.get_default(flag)]
    out_dir = os.path.dirname(args.out) or "."
    try:
        if unread:
            raise ConfigError(f"{args.command} does not use --{unread[0].replace('_', '-')}")
        if not os.path.isdir(out_dir):
            raise ConfigError(f"--out: directory {out_dir} does not exist")
        if os.path.isdir(args.out):
            raise ConfigError(f"--out: {args.out} is a directory")
        cfg = _apply_flags(load_config(args.config), args)
        return command(cfg, args) or 0  # only validate returns a status
    except (ConfigError, ValueError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
