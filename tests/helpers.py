"""Numeric helpers that several test modules share.

Nothing in the package calls these; they check its closed forms by other
means.
"""

import math

from wellcascade.dynamics import rabi_probability
from wellcascade.quantities import CODATA2018, PhysicalConstants

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# points of the period scan that brackets the first maximum
_PERIOD_SAMPLES = 4001


def _golden_minimize(objective, lo, hi, xtol):
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = objective(c), objective(d)
    while (hi - lo) > xtol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = objective(d)
    return 0.5 * (lo + hi)


def first_maximum_time(pair, constants: PhysicalConstants = CODATA2018) -> float:
    """Locate the first oscillation maximum by numeric scan plus refinement.

    Independent cross-check of :func:`wellcascade.dynamics.tunneling_time`
    with ``k = 0``: samples one full period, brackets the first peak, then
    golden-section maximises.
    Only meaningful in resonant mode where the peak reaches probability one.
    """
    if not pair.resonant_mode:
        raise ValueError("first-maximum scan applies to the resonant approximation")
    period = 2.0 * math.pi * constants.hbar_eV_s / pair.splitting
    step = period / (_PERIOD_SAMPLES - 1)
    best_i, best_p = 0, -1.0
    for i in range(1, _PERIOD_SAMPLES):
        p = rabi_probability(i * step, pair, constants)
        if p > best_p:
            best_i, best_p = i, p
        elif best_p >= 1.0 - 1e-12 and p < best_p:
            break  # already past the flat top of the first peak
    lo = max(0, best_i - 1) * step
    hi = min(_PERIOD_SAMPLES - 1, best_i + 1) * step

    def negative_p(t: float) -> float:
        return -rabi_probability(t, pair, constants)

    return _golden_minimize(negative_p, lo, hi, xtol=1e-9 * period)
