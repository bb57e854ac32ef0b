"""The two special functions the package needs beyond ``math``, in numpy.

:func:`expit` is the logistic sigmoid of the index-parameter map
p = 1 + expit(raw); :func:`digamma` is the derivative of lgamma, which
the Tweedie likelihood's partial in the Gamma shape and the tape's
``log_gamma`` need.  lgamma itself comes from ``math.lgamma``.
"""

from __future__ import annotations

import math

import numpy as np

#: digamma shifts every argument up by this many steps of its recurrence.
_DIGAMMA_SHIFTS = np.arange(20.0)
#: Coefficients of the asymptotic series of digamma in z = 1 / x**2, highest
#: power first: psi(x) ~ log(x) - 1 / (2x) - sum_k B_2k / (2k x**2k) with the
#: Bernoulli numbers B_2 .. B_10.  At x >= 20 the first term left out,
#: B_12 / (12 x**12), is below 1e-17.
_DIGAMMA_SERIES = (1.0 / 132.0, -1.0 / 240.0, 1.0 / 252.0, -1.0 / 120.0, 1.0 / 12.0)


def expit(x):
    """Logistic sigmoid, without overflow for any x.

    1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, by the
    same formula on both paths: a Python or numpy float takes the
    ``math`` path and returns a float, anything else the numpy path.
    """
    if isinstance(x, (float, int)):
        z = math.exp(-abs(x))
        return (1.0 if x >= 0.0 else z) / (1.0 + z)
    x = np.asarray(x, dtype=float)
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def digamma(x):
    """psi(x) = d lgamma(x) / dx, elementwise for x > 0.

    The recurrence psi(x) = psi(x + 20) - sum_{i < 20} 1 / (x + i) moves
    every argument to at least 20, where the asymptotic series takes over
    (the cephes ``psi`` scheme, shifted further so that it needs no
    branches and fewer terms).  Accurate to a few units in the last place
    of the largest of |psi(x)|, log(x + 20) and 1 / x, so in absolute
    terms near psi's root at x = 1.4616...
    """
    x = np.asarray(x, dtype=float)
    shift = np.add.reduce(1.0 / (x[..., None] + _DIGAMMA_SHIFTS), axis=-1)
    s = x + _DIGAMMA_SHIFTS.size
    r = 1.0 / s
    z = r * r
    series = _DIGAMMA_SERIES[0]
    for coef in _DIGAMMA_SERIES[1:]:
        series = series * z + coef
    return np.log(s) - 0.5 * r - z * series - shift
