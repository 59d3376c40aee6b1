"""Span tracing of asyncofdm from outside the package.

The tracer replaces public functions of the package with thin wrappers at the
places where their callers look them up (a module global, or a method on a
class), records one span per call and restores the originals on exit.  Spans
live in flat arrays in memory and are written out once, at the end of a run.

A span is (name, start, end, parent span, job).  Its self time is its
duration minus the durations of its direct children; calls run on one thread
and nest strictly, so children never overlap.  Quadrature abscissae are
counted by wrapping the integrand handed to ``integrate``.
"""

from __future__ import annotations

import functools
import inspect
import math
from array import array
from time import perf_counter

import numpy as np


def patch_table():
    """(span name, lookup sites) for every wrapped function of the package.

    A function imported by name into another module is looked up there, so
    it is patched at each such site as well as in its home module.
    """
    from asyncofdm import analytics, cli, link, quadrature, simulation, sinr, timing

    return [
        ("cli.load_config", [(cli, "load_config")]),
        ("cli.csv_write", [(simulation.TrialResults, "to_csv"), (link.PowerProfile, "to_csv")]),
        ("quadrature.integrate", [(quadrature, "integrate"), (analytics, "integrate")]),
        ("analytics.mean_decodable", [(analytics, "mean_decodable")]),
        ("analytics.mean_decodable_with_hypotheses",
         [(analytics, "mean_decodable_with_hypotheses")]),
        ("analytics.nearest_decoding_prob", [(analytics, "nearest_decoding_prob")]),
        ("analytics.lambda_tilde", [(analytics, "lambda_tilde")]),
        ("analytics.optimize_threshold", [(analytics, "optimize_threshold")]),
        ("analytics.rho", [(analytics, "rho")]),
        ("sinr.snapshot_sinr_all", [(sinr, "snapshot_sinr_all"), (simulation, "snapshot_sinr_all")]),
        ("sinr.cp_weight", [(sinr, "cp_weight")]),
        ("sinr.hypothesis_weight", [(sinr, "hypothesis_weight"), (analytics, "hypothesis_weight")]),
        ("timing.sample", [(timing.TimingModel, "sample")]),
        ("timing.density", [(timing.TimingModel, "density")]),
        ("simulation.run_trials", [(simulation, "run_trials")]),
        ("simulation.sample_snapshot", [(simulation, "sample_snapshot")]),
        ("simulation.count_decodable", [(simulation, "count_decodable")]),
        ("link.empirical_power_profile",
         [(link, "empirical_power_profile"), (cli, "empirical_power_profile")]),
        ("link.qpsk_stream", [(link, "qpsk_stream")]),
        ("link.modulate_symbol", [(link, "modulate_symbol")]),
        ("link.receive_window", [(link, "receive_window")]),
        ("link.demodulate_window", [(link, "demodulate_window")]),
        ("link.closed_form_outputs", [(link, "closed_form_outputs")]),
        ("link.analytic_power_profile", [(link, "analytic_power_profile")]),
    ]


def _threshold_sigma_tag(params, timing, config, *rest, **kwargs):
    """(threshold in dB, sigma / N) of an analytic call; sigma is 0 for a delta."""
    return (round(10.0 * math.log10(params.threshold), 6), round(timing.sigma / config.n, 6))


def _trials_tag(config, d, trials, *rest, **kwargs):
    return trials


# Calls whose arguments are kept with the span, to select or normalise them later.
_TAGGERS = {
    "analytics.mean_decodable": _threshold_sigma_tag,
    "analytics.nearest_decoding_prob": _threshold_sigma_tag,
    "link.empirical_power_profile": _trials_tag,
}


# Order of the Gauss-Legendre rule of integrate's first, rough estimate.
ROUGH_ORDER = 16


class Tracer:
    """Records spans for wrapped calls; use as a context manager to patch and unpatch."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.jobs: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self.nodes = array("q")  # abscissae evaluated directly by this span's integrand
        self.after = array("q")  # one past the last descendant of this span
        self.tags: dict[int, object] = {}
        self.worst_err_ratio = 0.0
        self.transmitters = 0
        self._current = -1
        self._job = -1
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._current)
        self.job.append(self._job)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.nodes.append(0)
        self.after.append(0)
        self._current = idx
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.after[idx] = len(self.name)
        self._current = self.parent[idx]

    def start_job(self, job: str) -> None:
        self.jobs.append(job)
        self._job = len(self.jobs) - 1

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        tagger = _TAGGERS.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            if tagger is not None:
                self.tags[idx] = tagger(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == "simulation.sample_snapshot":
                self.transmitters += len(result)
            return result

        return functools.wraps(fn)(wrapper)

    def _wrap_integrate(self, name: str, fn):
        """Counts the abscissae and keeps the worst error estimate against the
        scale integrate tests it with: |the 16-point estimate summed over the
        breakpoint panels|, which it computes from its first evaluations.  If
        those evaluations are not 16-point panels, |value| stands in."""
        name_id = self._name_id(name)
        sig = inspect.signature(fn)
        weights = np.polynomial.legendre.leggauss(ROUGH_ORDER)[1]

        def wrapper(f, *args, **kwargs):
            call = sig.bind(f, *args, **kwargs)
            call.apply_defaults()
            a, b = call.arguments["a"], call.arguments["b"]
            pts = [a] + sorted(p for p in set(call.arguments["breakpoints"]) if a < p < b) + [b]
            first = []  # the integrand's values on its first len(pts) - 1 evaluations
            idx = self._open(name_id)
            nodes = self.nodes

            def counted(t):
                nodes[idx] += len(t)
                y = f(t)
                if len(first) < len(pts) - 1:
                    first.append(np.asarray(y))
                return y

            try:
                result = fn(counted, *args, **kwargs)
            finally:
                self._close(idx)
            if all(len(y) == ROUGH_ORDER for y in first):
                rough = sum(0.5 * (hi - lo) * (weights @ y)
                            for lo, hi, y in zip(pts[:-1], pts[1:], first))
            else:
                rough = result[0]
            scale = np.maximum(np.abs(rough), 1e-300)
            ratio = float(np.max(np.asarray(result[1]) / (call.arguments["rtol"] * scale)))
            self.worst_err_ratio = max(self.worst_err_ratio, ratio)
            return result

        return functools.wraps(fn)(wrapper)

    def __enter__(self):
        for name, sites in patch_table():
            for owner, attr in sites:
                original = inspect.getattr_static(owner, attr)
                wrap = self._wrap_integrate if name == "quadrature.integrate" else self._wrap
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "job": np.frombuffer(self.job, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "nodes": np.frombuffer(self.nodes, dtype=np.int64),
            "after": np.frombuffer(self.after, dtype=np.int64),
        }

    def write(self, path) -> None:
        """Save every span, with the name and job tables, as a compressed .npz."""
        np.savez_compressed(path, names=np.array(self.names), jobs=np.array(self.jobs),
                            **self.arrays())


# Thresholds (dB) at which single-call abscissa counts are reported, and their labels.
NODE_POINTS = {-12.0: "t_m12db", 0.0: "t0db", 5.0: "t5db", 10.0: "t10db"}
NODE_SIGMA = 0.2


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Every name is reported on every workload; a layer the workload never calls
    reads 0.  Times are taken with tracing on, so they include its overhead.
    """
    a = tracer.arrays()
    n = len(tracer)
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child
    cum_nodes = np.concatenate([[0], np.cumsum(a["nodes"])])

    def sel(name):
        nid = tracer._name_ids.get(name)
        return np.zeros(n, dtype=bool) if nid is None else a["name"] == nid

    def calls(name):
        return float(np.count_nonzero(sel(name)))

    def self_s(name):
        return float(self_time[sel(name)].sum())

    def pct_ms(name, q):
        d = dur[sel(name)]
        return float(np.percentile(d, q)) * 1e3 if len(d) else 0.0

    def subtree_nodes(idx):
        return int(cum_nodes[a["after"][idx]] - cum_nodes[idx])

    def single_call_nodes(job, name, t_db):
        for idx in np.flatnonzero(sel(name)):
            if (tracer.jobs[a["job"][idx]] == job
                    and tracer.tags[int(idx)] == (t_db, NODE_SIGMA)):
                return float(subtree_nodes(int(idx)))
        return 0.0

    m: dict[str, tuple[float, str]] = {}
    m["quadrature.calls"] = (calls("quadrature.integrate"), "count")
    m["quadrature.nodes"] = (float(a["nodes"].sum()), "count")
    m["quadrature.self_s"] = (self_s("quadrature.integrate"), "s")
    for job, fn in (("nearest", "analytics.nearest_decoding_prob"),
                    ("mean_decodable", "analytics.mean_decodable")):
        for t_db, label in NODE_POINTS.items():
            m[f"quadrature.nodes.{job}.{label}"] = (single_call_nodes(job, fn, t_db), "count")
    m["quadrature.worst_err_ratio"] = (tracer.worst_err_ratio, "ratio")

    for fn in ("mean_decodable", "nearest_decoding_prob"):
        m[f"analytics.{fn}.ms_p50"] = (pct_ms(f"analytics.{fn}", 50), "ms")
        m[f"analytics.{fn}.ms_p90"] = (pct_ms(f"analytics.{fn}", 90), "ms")
    for fn in ("mean_decodable_with_hypotheses", "lambda_tilde"):
        m[f"analytics.{fn}.ms_p50"] = (pct_ms(f"analytics.{fn}", 50), "ms")
    m["analytics.optimize_threshold.ms"] = (pct_ms("analytics.optimize_threshold", 50), "ms")
    m["analytics.rho.calls"] = (calls("analytics.rho"), "count")
    m["analytics.rho.self_s"] = (self_s("analytics.rho"), "s")

    m["sinr.snapshot_sinr_all.calls"] = (calls("sinr.snapshot_sinr_all"), "count")
    m["sinr.snapshot_sinr_all.self_s"] = (self_s("sinr.snapshot_sinr_all"), "s")
    m["sinr.cp_weight.self_s"] = (self_s("sinr.cp_weight"), "s")
    m["sinr.hypothesis_weight.calls"] = (calls("sinr.hypothesis_weight"), "count")

    m["timing.sample.self_s"] = (self_s("timing.sample"), "s")
    m["timing.density.calls"] = (calls("timing.density"), "count")

    trials = calls("simulation.sample_snapshot")
    run_s = float(dur[sel("simulation.run_trials")].sum())
    m["simulation.run_trials.calls"] = (calls("simulation.run_trials"), "count")
    m["simulation.sample_snapshot.calls"] = (trials, "count")
    m["simulation.sample_snapshot.self_s"] = (self_s("simulation.sample_snapshot"), "s")
    m["simulation.count_decodable.self_s"] = (self_s("simulation.count_decodable"), "s")
    m["simulation.trials_per_s"] = (trials / run_s if run_s > 0 else 0.0, "1/s")
    m["simulation.transmitters_per_trial"] = (
        tracer.transmitters / trials if trials else 0.0, "count")

    epp = np.flatnonzero(sel("link.empirical_power_profile"))
    epp_trials = sum(tracer.tags[int(i)] for i in epp)
    m["link.empirical_power_profile.us_per_trial"] = (
        float(dur[epp].sum()) / epp_trials * 1e6 if epp_trials else 0.0, "us")
    for fn in ("qpsk_stream", "modulate_symbol", "receive_window", "demodulate_window"):
        m[f"link.{fn}.self_s"] = (self_s(f"link.{fn}"), "s")
    for fn in ("closed_form_outputs", "analytic_power_profile"):
        m[f"link.{fn}.ms_p50"] = (pct_ms(f"link.{fn}", 50), "ms")

    m["cli.load_config.ms"] = (pct_ms("cli.load_config", 50), "ms")
    m["cli.csv_write_s"] = (float(dur[sel("cli.csv_write")].sum()), "s")
    m["trace.spans"] = (float(n), "count")
    return m
