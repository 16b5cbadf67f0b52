"""Boundary-matching functions of the asymmetric double square well.

For a :class:`~wellcascade.potential.WellPair` the bound-state energies in
(0, v_deep) are the roots of ``lhs(E) = rhs(E)``, where both sides follow
from matching the piecewise wavefunction and its derivative at the two
barrier edges.  Two regimes exist, selected by the sign of the squared
wavenumber in the shallow-well region:

* regime A (``E < v_deep - v_shallow``): the shallow region is evanescent,
  ``lhs = (beta + k1*coth(k1*a)) * exp(beta*(L-a)) / (beta - k1*coth(k1*a))``
* regime B (``E > v_deep - v_shallow``): the shallow region oscillates,
  ``lhs = (beta + k1*cot(k1*a)) * exp(beta*(L-a)) / (beta - k1*cot(k1*a))``

with ``rhs = (beta - k2*cot(k2*a)) * exp(-beta*(L-a)) / (beta + k2*cot(k2*a))``
in both regimes.  Here ``a`` is the well width, ``L`` the center distance,
``k1`` the shallow-region wavenumber, ``k2`` the deep-region wavenumber and
``beta`` the barrier decay rate.  The boundary energy itself is assigned to
regime B (measure-zero tie-break, documented for determinism).

Numerical notes
---------------
* Reported ``lhs``/``rhs`` carry a common positive factor ``exp(-beta*(L-a))``
  so magnitudes stay near unity; a positive common factor cannot move roots.
  Inside each side the ratio is evaluated with numerator and denominator
  normalised by the same positive quantity (``exp(k1*a)`` in regime A,
  ``sin`` instead of ``cot`` in the trigonometric parts), again value
  preserving.
* Both sides have poles where their denominators vanish.  A point is flagged
  as a pole when the denominator magnitude drops below ``1e-12`` of the
  numerator scale or the side has no finite value (``0/0`` at the exact
  regime boundary); flagged evaluations report NaN instead of a number.  The
  mask needs no division, and the sides themselves are divided out only
  when read, since the solver reads the cleared form alone.
* Deep-well-dominated eigenvalues lie exponentially close to poles of
  ``rhs`` (within ~1e-13 eV for the reference geometry), so root finding
  never uses the raw mismatch.  :func:`characteristic` evaluates the
  denominator-cleared form ``Nl*Dr - Nr*Dl`` over an array of energies (the
  values of :attr:`GridScan.char`); it has the same roots, no poles, and a
  well-conditioned sign everywhere.
* :func:`characteristic` and :func:`grid_scan` both read the terms from
  ``_cleared_terms``, so the formula has one implementation.  Its parameters
  may be per-energy arrays, so one call evaluates many pairs, every value
  bit for bit the one a call for its own pair gives.  A call evaluates
  each shallow-region regime only when some of its energies lie in it.

Level count
-----------
The cleared form locates a level once it is bracketed; :func:`count_below`
says where to bracket.  With hard walls and a piecewise-constant potential,
the number of levels below E equals the number of zeros inside the domain
of the solution that starts at the left wall with ``psi = 0``,
``psi' = 1`` (the Sturm oscillation theorem).  The count propagates that
solution region by region in closed form: in a region below E it adds the
multiples of pi that the Prüfer phase ``atan2(k psi, psi')`` crosses
(Prüfer, 1926), in a region above E it adds one zero if psi changes sign,
and the state is rescaled at every edge, so no barrier overflows.  It reads
only the ``(x_start, x_end, value)`` segments of a profile, so it counts the
levels of a pair and of the four-well chain alike.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .potential import WellPair
from .quantities import CODATA2018, PhysicalConstants

__all__ = [
    "Regime",
    "GridScan",
    "classify_regime",
    "characteristic",
    "grid_scan",
    "count_below",
]

POLE_RTOL = 1e-12
# floor of a decay rate f*sqrt(V - E): it is exceeded for V - E > 4e-24 eV,
# below the rounding of every energy above 1e-7 eV, so it acts only at E = V
_KAPPA_FLOOR = 1e-12
_SMALLEST = np.finfo(float).smallest_subnormal


class Regime(str, enum.Enum):
    """Energy regime of the shallow-well region."""

    A = "A"  # below the shallow-well floor: evanescent
    B = "B"  # above the shallow-well floor: oscillatory

    def __str__(self) -> str:  # CSV/JSON friendly
        return self.value


def classify_regime(pair: WellPair, energy_ev: float) -> Regime:
    """Regime A below the shallow floor, B at or above it."""
    if not (math.isfinite(energy_ev) and 0.0 < energy_ev < pair.v_deep):
        raise ValueError(
            f"energy must lie in (0, v_deep={pair.v_deep}); got {energy_ev!r}"
        )
    return Regime.A if energy_ev < pair.shallow_floor else Regime.B


def _wavenumbers(pair: WellPair, energies, constants: PhysicalConstants = CODATA2018,
                 floor=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Region wavenumbers ``(k1, beta, k2)`` in 1/Angstrom over an array of energies.

    ``k1 = f*sqrt(|E - shallow_floor|)`` serves both regimes: it is the decay
    rate of the shallow region in regime A and its wavenumber in regime B.
    ``pair`` may carry its parameters as arrays (see :func:`_cleared_terms`),
    and ``floor`` is its shallow floor when the caller already has it.
    The energies are not checked; callers keep them inside (0, v_deep).
    """
    e = np.asarray(energies, dtype=float)
    f = constants.wavenumber_factor
    k1 = f * np.sqrt(np.abs(e - (pair.shallow_floor if floor is None else floor)))
    beta = f * np.sqrt(pair.v_deep - e)
    k2 = f * np.sqrt(e)
    return k1, beta, k2


@dataclass(frozen=True)
class GridScan:
    """Vectorised evaluation over an array of energies (used by solver and CLI).

    The solver reads only ``char`` and ``char_scale``.  The sides
    ``lhs`` and ``rhs`` cost a division and a pole mask each, so they are
    formed from ``terms`` on first read (the scan CSV and tests).
    """

    energies: np.ndarray
    regime_b: np.ndarray  # bool, True where regime B
    pole: np.ndarray  # bool, denominator below pole tolerance on either side
    char: np.ndarray  # denominator-cleared mismatch Nl*Dr - Nr*Dl
    char_scale: np.ndarray  # |Nl*Dr| + |Nr*Dl|, for relative residuals
    terms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # Nl, Dl, Nr, Dr

    @cached_property
    def lhs(self) -> np.ndarray:
        return _side(self.terms[0], self.terms[1], self.pole)

    @cached_property
    def rhs(self) -> np.ndarray:
        return _side(self.terms[2], self.terms[3], self.pole)

    @property
    def mismatch(self) -> np.ndarray:
        return self.lhs - self.rhs


def _poles(n: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Where ``n / d`` counts as a pole: ``|d| < POLE_RTOL * |n|`` or no finite quotient.

    No division is needed: the terms are finite, so the quotient fails to be
    finite only where ``d`` is zero (``0/0`` at the exact regime boundary; the
    floor at the smallest subnormal catches it) or ``|d| < |n| / DBL_MAX``,
    well inside the tolerance; a NaN fails the comparison.
    """
    return ~(np.abs(d) >= np.maximum(POLE_RTOL * np.abs(n), _SMALLEST))


def _side(n: np.ndarray, d: np.ndarray, pole: np.ndarray) -> np.ndarray:
    """One rescaled side ``n / d``, NaN at the poles of either side."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(pole, np.nan, n / d)


def _cleared_terms(pair: WellPair, energies, constants: PhysicalConstants):
    """Numerators and denominators ``(Nl, Dl, Nr, Dr)`` of the rescaled sides, free of poles.

    ``pair`` may carry its parameters as arrays that broadcast against
    ``energies`` (one geometry per energy); the formula is the same
    elementwise.

    Regime A lhs uses ``q = exp(-2 k1 a)`` so that
    ``Nl = beta*(1-q) + k1*(1+q)`` is ``(beta + k1*coth(k1 a)) * (1 - q)``
    up to the common positive factor; trigonometric parts are multiplied
    through by the relevant ``sin`` so ``cot`` poles become ordinary zeros.
    ``Nr`` absorbs the full ``exp(-2 beta (L-a))`` of the rescaled rhs.
    """
    e = np.asarray(energies, dtype=float)
    a, floor = pair.width, pair.shallow_floor
    k1, beta, k2 = _wavenumbers(pair, e, constants, floor)
    k1a, k2a = k1 * a, k2 * a

    def shallow(oscillating):
        # regime B multiplies through by sin(k1 a); regime A by 1 - q with
        # q = exp(-2 k1 a); each is evaluated only where some energy needs it
        if oscillating:
            u, v = beta * np.sin(k1a), k1 * np.cos(k1a)
        else:
            q = np.exp(-2.0 * k1a)
            u, v = beta * (1.0 - q), k1 * (1.0 + q)
        return u + v, u - v

    reg_b = e >= floor
    above = np.count_nonzero(reg_b)
    if 0 < above < reg_b.size:
        (nl_b, dl_b), (nl_a, dl_a) = shallow(True), shallow(False)
        nl, dl = np.where(reg_b, nl_b, nl_a), np.where(reg_b, dl_b, dl_a)
    else:
        nl, dl = shallow(above > 0)
    u, v = beta * np.sin(k2a), k2 * np.cos(k2a)
    decay = np.exp(-2.0 * beta * (pair.distance - pair.width))
    return nl, dl, decay * (u - v), u + v


def grid_scan(
    pair: WellPair,
    energies: np.ndarray,
    constants: PhysicalConstants = CODATA2018,
) -> GridScan:
    """Evaluate the cleared form and its pole mask over an array of energies.

    All energies must lie in (0, v_deep).  The sides carry the common
    ``exp(-beta (L-a))`` factor (see module notes).  ``pair`` is a
    :class:`WellPair` or per-energy arrays of its parameters, as in
    :func:`characteristic`.
    """
    e = np.asarray(energies, dtype=float)
    if e.size and not (np.all(e > 0.0) and np.all(e < pair.v_deep)):
        raise ValueError("grid energies must lie strictly inside (0, v_deep)")
    nl, dl, nr, dr = _cleared_terms(pair, e, constants)
    return GridScan(
        energies=e,
        regime_b=e >= pair.shallow_floor,
        pole=_poles(nl, dl) | _poles(nr, dr),
        char=nl * dr - nr * dl,
        char_scale=np.abs(nl * dr) + np.abs(nr * dl),
        terms=(nl, dl, nr, dr),
    )


def characteristic(
    pair: WellPair,
    energies: np.ndarray,
    constants: PhysicalConstants = CODATA2018,
) -> np.ndarray:
    """Denominator-cleared mismatch ``Nl*Dr - Nr*Dl`` over an array of energies.

    Vanishes exactly at the bound-state energies and equals :attr:`GridScan.char`
    at the same points.  ``pair`` is a :class:`WellPair` or per-energy arrays
    of its parameters (see :func:`_cleared_terms`), so one call can evaluate
    brackets of several pairs.  The energies are not checked: callers pass
    points inside a grid whose ends :func:`grid_scan` has already validated.
    """
    nl, dl, nr, dr = _cleared_terms(pair, energies, constants)
    return nl * dr - nr * dl


def _oscillate(k, length, psi, slope):
    """Zeros across an oscillatory region and the state at its far edge.

    The Prüfer phase ``theta = atan2(k psi, psi')``, taken in [0, pi], grows
    by ``k * length``; a zero lies wherever it crosses a multiple of pi.  The
    state leaves with ``(psi, psi'/k)`` at unit length, psi with the sign of
    the turns counted: within rounding of a multiple of pi, ``sin`` can keep
    the sign from before a zero that ``floor`` counts, and the next region
    would count it again.
    """
    theta = np.arctan2(k * psi, slope)
    theta = np.where(theta < 0.0, theta + np.pi, theta)
    end = theta + k * length
    turns = np.floor(end / np.pi)
    psi = np.copysign(np.sin(end), 0.5 - (turns.astype(np.int64) & 1))
    return turns - np.floor(theta / np.pi), psi, k * np.cos(end)


def _decay(kappa, length, psi, slope):
    """Zeros across an evanescent region and the state at its far edge.

    With ``w = psi'/kappa`` and ``q = exp(-2 kappa length)``, the far edge
    holds ``(psi (1+q) + w (1-q), psi (1-q) + w (1+q))`` times
    ``exp(kappa length) / 2``; that factor is dropped and ``(psi, w)`` leaves
    at unit length, so no barrier overflows.  The region holds one zero when
    psi changes sign across it, else none.  A floor on ``kappa``, below any
    wavenumber a nonzero double ``E - V`` gives, makes the same formulas the
    linear solution at ``E = V``.
    """
    kappa = np.maximum(kappa, _KAPPA_FLOOR)
    x = -2.0 * kappa * length
    q, rest = np.exp(x), -np.expm1(x)  # q and 1 - q
    w = slope / kappa
    end = psi * (1.0 + q) + w * rest
    end_w = psi * rest + w * (1.0 + q)
    norm = np.hypot(end, end_w)
    return psi * end < 0.0, end / norm, kappa * end_w / norm


def count_below(segments, energies, constants: PhysicalConstants = CODATA2018) -> np.ndarray:
    """Number of bound states below each energy: the Sturm oscillation count.

    ``segments`` are the ``(x_start, x_end, value)`` triples of a
    piecewise-constant profile between hard walls, as
    :attr:`~wellcascade.potential.PotentialProfile.segments` holds them;
    each entry may be an array that broadcasts against ``energies`` (one
    profile per energy), so one call serves many pairs.  The count is the
    number of zeros inside the domain of the solution that starts at the left
    wall with ``psi = 0``, ``psi' = 1``, propagated region by region (see
    :func:`_oscillate` and :func:`_decay`).  A branch is evaluated only when
    some energy needs it.  N does not fall as the energy rises, at a segment
    edge included (a phase that ends within rounding of a multiple of pi
    counts its zero once); only an energy exactly at a level may count it or
    not.
    """
    e = np.asarray(energies, dtype=float)
    f = constants.wavenumber_factor
    psi, slope = np.zeros(e.shape), np.ones(e.shape)
    count = np.zeros(e.shape)
    for x_start, x_end, value in segments:
        length = np.subtract(x_end, x_start)
        above = e > value
        k = f * np.sqrt(np.abs(e - value))
        if above.all():
            zeros, psi, slope = _oscillate(k, length, psi, slope)
        elif not above.any():
            zeros, psi, slope = _decay(k, length, psi, slope)
        else:
            zeros, length = np.empty(e.shape), np.broadcast_to(length, e.shape)
            for branch, where in ((_oscillate, above), (_decay, ~above)):
                zeros[where], psi[where], slope[where] = branch(
                    k[where], length[where], psi[where], slope[where]
                )
        count += zeros
    return count.astype(np.int64)
