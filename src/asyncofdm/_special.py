"""The standard normal CDF and its inverse, without scipy.

ndtri is the Cephes routine (Moshier, *Methods and Programs for Mathematical Functions*,
1989) that scipy.special.ndtri runs, with its coefficients and operation order, so it
returns scipy's bits: the Monte Carlo draws rest on them.  Each multiply and add is its own
float operation (numpy never fuses them; `np.polyval` starts Horner from 0, so on finite x its
first step is coef[0] exactly, as Cephes' polevl's is), and log goes through `math`, the C
library, as in Cephes; numpy's own SIMD `log` differs in the last bit on some CPUs.

ndtr is the C library's erfc, which agrees with scipy's Cephes ndtr to about 1e-13
relative but not bit for bit; nothing recorded depends on its last bits."""

from __future__ import annotations

import math

import numpy as np

# ndtri: |y - 1/2| <= 3/8, then sqrt(-2 log y) in [2, 8) and in [8, 64)
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
             2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # e^-2
_SQRT1_2 = math.sqrt(0.5)
_log = np.vectorize(math.log, otypes=[float])


def ndtr(a: float) -> float:
    """P(X <= a) for a standard normal X, on one float."""
    return 0.5 * math.erfc(-a * _SQRT1_2)


def ndtri(y0):
    """The x with ndtr(x) = y0, elementwise: 0 -> -inf, 1 -> inf, nan outside [0, 1]."""
    y0 = np.asarray(y0, dtype=float)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    out = np.full(y.shape, np.nan)
    mid = y > _EXP_M2
    c = y[mid] - 0.5
    c2 = c * c
    out[mid] = (c + c * (c2 * np.polyval(_NDTRI_P0, c2) / np.polyval(_NDTRI_Q0, c2))) * _S2PI
    tail = ~mid & (y > 0.0)
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = z * np.polyval(_NDTRI_P1, z) / np.polyval(_NDTRI_Q1, z)
    if (far := x >= 8.0).any():  # y < e^-32, which a timing model's uniform almost never is
        x1[far] = z[far] * np.polyval(_NDTRI_P2, z[far]) / np.polyval(_NDTRI_Q2, z[far])
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    out[y0 == 0.0], out[y0 == 1.0] = -np.inf, np.inf
    return out
