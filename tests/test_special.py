"""The in-package Cephes ports against scipy.special, which they replace at run
time: ndtr and ndtri bit for bit, rho against hyp2f1, and no command that
imports scipy (or, on the default path, yaml or multiprocessing)."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sc

import asyncofdm
from asyncofdm._special import ndtr, ndtri
from asyncofdm.analytics import rho
from asyncofdm.timing import truncated_gaussian

N, N_CP = 1024, 72
W = float(N + N_CP)
SIGMAS_OVER_N = (0.05, 0.2, 0.4, 2.0)


def _differing_bits(got, want) -> int:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    return int(np.count_nonzero(got.view(np.uint64) != want.view(np.uint64)))


def _with_neighbours(xs):
    xs = np.asarray(xs, dtype=float)
    return np.concatenate([np.nextafter(xs, -np.inf), xs, np.nextafter(xs, np.inf)])


# ------------------------------------------------------------------- ndtri

def test_ndtri_matches_scipy_on_seeded_uniforms():
    u = np.random.default_rng(20140).random(1_000_000)
    assert _differing_bits(ndtri(u), sc.ndtri(u)) == 0


@pytest.mark.parametrize("sigma_over_n", SIGMAS_OVER_N)
def test_quantile_matches_scipy_on_the_truncated_range(sigma_over_n):
    m = truncated_gaussian(sigma_over_n * N, W)
    a = sc.ndtr(-W / m.sigma)
    z = sc.ndtr(W / m.sigma) - a
    u = np.concatenate([np.random.default_rng(7).random(200_000), [0.0, 0.5, 1 - 2 ** -53]])
    assert _differing_bits(ndtri(a + u * z), sc.ndtri(a + u * z)) == 0
    assert _differing_bits(m.quantile(u), m.sigma * sc.ndtri(a + u * z)) == 0


def test_ndtri_matches_scipy_in_both_tails():
    tails = np.exp(-np.linspace(0.0, 700.0, 100_001))
    complements = np.concatenate([1.0 - tails, 1.0 - 2.0 ** -np.arange(1, 54)])
    for y in (tails, complements):
        assert _differing_bits(ndtri(y), sc.ndtri(y)) == 0


def test_ndtri_matches_scipy_at_its_branch_points():
    y = _with_neighbours([math.exp(-2), 1 - math.exp(-2), math.exp(-32)])
    assert _differing_bits(ndtri(y), sc.ndtri(y)) == 0


def test_ndtri_end_points():
    assert ndtri(np.array([0.0, 1.0])).tolist() == [-math.inf, math.inf]


# -------------------------------------------------------------------- ndtr

def test_ndtr_matches_scipy_on_a_grid():
    xs = np.linspace(-40.0, 40.0, 80_001)
    assert _differing_bits([ndtr(x) for x in xs.tolist()], sc.ndtr(xs)) == 0


def test_ndtr_matches_scipy_at_its_branch_points_and_zero():
    xs = np.concatenate([_with_neighbours([-1.0, 1.0]), [0.0, -0.0]])
    assert _differing_bits([ndtr(x) for x in xs.tolist()], sc.ndtr(xs)) == 0


def test_ndtr_matches_scipy_at_the_truncation_points():
    xs = [s * W / (r * N) for r in SIGMAS_OVER_N for s in (-1.0, 1.0)]
    assert _differing_bits([ndtr(x) for x in xs], sc.ndtr(xs)) == 0


# --------------------------------------------------------------------- rho

@pytest.mark.parametrize("alpha", [2.05, 2.5, 3.0, 3.8, 4.0, 6.0, 10.0])
def test_rho_matches_hyp2f1(alpha):
    x = np.concatenate([np.logspace(-8, 12, 4001), _with_neighbours([1.0])])
    d = 2.0 / alpha
    want = x * sc.hyp2f1(1.0, 1.0 - d, 2.0 - d, -x) / (alpha / 2.0 - 1.0)
    np.testing.assert_allclose(rho(x, alpha), want, rtol=1e-13, atol=0)


# ----------------------------------------------------------------- imports

def _run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(asyncofdm.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return done.stdout.strip()


def test_default_start_imports_no_scipy_yaml_or_multiprocessing():
    loaded = _run_fresh(
        "import sys, asyncofdm.cli\n"
        "asyncofdm.cli.load_config(None)\n"
        "print(sorted({'scipy', 'yaml', 'multiprocessing'} & set(sys.modules)))\n")
    assert loaded == "[]"


def test_no_command_imports_scipy(tmp_path):
    runs = [["link-profile", "--trials", "5"], ["mean-decodable"], ["nearest"],
            ["dist", "--trials", "5"], ["throughput", "--sweep=-4:0:2"],
            ["hypotheses", "--hypotheses", "1,1,72"], ["simulate", "--trials", "5"],
            ["validate", "--trials", "5"]]
    code = ["import contextlib, io, sys", "from asyncofdm.cli import main",
            "with contextlib.redirect_stdout(io.StringIO()):"]
    code += [f"    assert main({argv + ['--out', str(tmp_path / f'{i}.csv')]!r}) in (0, 1)"
             for i, argv in enumerate(runs)]
    code.append("print('scipy' in sys.modules)")
    assert _run_fresh("\n".join(code)) == "False"


def test_numpy_fft_and_random_load_with_the_package():
    # numpy 2 imports them on first use; a signal handler that uses them and fires again
    # during that import (a sampling profiler's, say) recurses until it fails
    loaded = _run_fresh("import sys, asyncofdm\n"
                        "print(sorted({'numpy.fft', 'numpy.random'} & set(sys.modules)))\n")
    assert loaded == "['numpy.fft', 'numpy.random']"
