"""Thermostatically controlled load (TCL) population model.

Each TCL is a first-order thermal mass cycling a cooling unit inside a
temperature deadband. Two binary variables govern consumption: the
thermostat switch ``m`` (hysteresis on the deadband) and the market
dispatch flag ``v`` (set by the clearing outcome, held for a whole
market interval). A TCL draws electrical power only while ``m`` and
``v`` are both 1.

:class:`Population` holds the parameters and state of every TCL as numpy
arrays, indexed by TCL id, and advances all devices at once. This module
also holds the validity rules of one TCL and their messages, which the
per-device reference in :mod:`tclmarket.reference` applies as well. The
vectorized steps are required to be bit-identical to that reference
evaluated in index order, which the test suite pins.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Optional

import numpy as np

__all__ = ["Population", "aggregate_power"]

#: Per-TCL parameter arrays of a :class:`Population`.
PARAM_FIELDS = (
    "C", "R", "P", "eta", "theta_set", "deadband",
    "p0", "p_cap", "gamma1", "gamma2", "noise_std",
)

# The validity rules of a TCL's parameters, in the order they are checked:
# the mask of offending TCLs, from the parameter arrays, and the message.
# A rule that names an accepted range is written as its negation, so a NaN
# offends it; the three written as bounds (deadband, bid slopes, P*R) let a
# NaN pass. Scenarios never reach them with one: the validator rejects NaN.
_PARAM_RULES = (
    (lambda p: ~((p.C > 0) & (p.R > 0) & (p.P > 0) & (p.eta > 0)),
     "TCL {id}: C, R, P and eta must all be positive"),
    (lambda p: ~((0 < p.P / p.eta) & (p.P / p.eta < math.inf)),
     "TCL {id}: P/eta must be positive and finite"),
    (lambda p: p.deadband <= 0,
     "TCL {id}: deadband must be positive"),
    (lambda p: ~((0.0 <= p.p0) & (p.p0 <= p.p_cap)),
     "TCL {id}: require 0 <= p0 <= p_cap, got p0={p0}, p_cap={p_cap}"),
    (lambda p: (p.gamma1 < 0) | (p.gamma2 < 0),
     "TCL {id}: bid slopes must be >= 0"),
    (lambda p: ~((0 <= p.noise_std) & (p.noise_std < math.inf)),
     "TCL {id}: noise_std must be finite and >= 0"),
    # A unit whose full-on temperature pull cannot span its own deadband
    # would stall mid-band and never cycle.
    (lambda p: p.P * p.R <= p.deadband,
     "TCL {id}: P*R={theta_gain:.3f} degC must exceed the deadband ({deadband} degC)"),
)


def check_params(arrays, values: Callable[[int], dict]) -> None:
    """Raise ValueError for the first TCL whose parameters break a rule.

    ``arrays`` has one array attribute per name in ``PARAM_FIELDS``;
    ``values(i)`` returns the id and the parameter values of TCL i, as the
    message shows them. The message is that of the first rule TCL i breaks.
    """
    with np.errstate(all="ignore"):
        masks = [offends(arrays) for offends, _ in _PARAM_RULES]
    bad = np.logical_or.reduce(masks)
    if bad.any():
        i = int(np.argmax(bad))
        message = next(msg for mask, (_, msg) in zip(masks, _PARAM_RULES) if mask[i])
        found = values(i)
        raise ValueError(message.format(theta_gain=found["P"] * found["R"], **found))


def check_switches(m: np.ndarray, v: np.ndarray) -> None:
    """Raise ValueError for the first TCL whose m or v is not 0 or 1."""
    bad = ((m != 0) & (m != 1)) | ((v != 0) & (v != 1))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"m and v must be 0 or 1, got m={m.item(i)}, v={v.item(i)}")


class Population:
    """A fixed roster of TCLs sharing one ambient temperature.

    Every per-TCL quantity is a numpy array indexed by TCL id: the
    parameters (float64, named in ``PARAM_FIELDS``) are immutable after
    construction, the thermal/switch state (float64 ``theta``, boolean
    ``m`` and ``v``) evolves. The constructor checks the validity rules of
    every TCL and raises the message of the first offending one. The
    population never draws noise; callers pass samples in.

    Two tables are derived from the parameters on first use and kept: the
    per-step thermal terms for each step length h (see ``step_terms``),
    and the integer limb table of P/eta that :func:`aggregate_power` sums
    exactly (see ``power_limbs``).
    """

    def __init__(
        self,
        *,
        C,
        R,
        P,
        eta,
        theta_set,
        deadband,
        p0,
        p_cap,
        gamma1,
        gamma2,
        noise_std,
        theta,
        m,
        v,
        theta_ambient: float,
        subgroup: Optional[np.ndarray] = None,
    ):
        self.C = np.asarray(C, dtype=np.float64)
        self.R = np.asarray(R, dtype=np.float64)
        self.P = np.asarray(P, dtype=np.float64)
        self.eta = np.asarray(eta, dtype=np.float64)
        self.theta_set = np.asarray(theta_set, dtype=np.float64)
        self.deadband = np.asarray(deadband, dtype=np.float64)
        self.p0 = np.asarray(p0, dtype=np.float64)
        self.p_cap = np.asarray(p_cap, dtype=np.float64)
        self.gamma1 = np.asarray(gamma1, dtype=np.float64)
        self.gamma2 = np.asarray(gamma2, dtype=np.float64)
        self.noise_std = np.asarray(noise_std, dtype=np.float64)
        self.theta = np.array(theta, dtype=np.float64)
        m = np.asarray(m)
        v = np.asarray(v)
        per_tcl = {name: getattr(self, name) for name in PARAM_FIELDS}
        per_tcl.update(theta=self.theta, m=m, v=v)
        lengths = {name: a.shape for name, a in per_tcl.items()}
        if len(set(lengths.values())) != 1 or self.theta.ndim != 1:
            raise ValueError(f"per-TCL arrays must be 1-D of one length, got {lengths}")
        if len(self.theta) == 0:
            raise ValueError("population must contain at least one TCL")
        self.theta_ambient = float(theta_ambient)

        self.theta_min = self.theta_set - self.deadband / 2.0
        self.theta_max = self.theta_set + self.deadband / 2.0
        self.theta_gain = self.P * self.R
        self.elec_power = self.P / self.eta

        check_params(self, lambda i: {
            "id": i, **{name: float(getattr(self, name)[i]) for name in PARAM_FIELDS}
        })
        check_switches(m, v)
        self.m = m.astype(bool)
        self.v = v.astype(bool)

        if self.theta_ambient <= self.theta_set.max():
            raise ValueError(
                "theta_ambient must exceed every set-point "
                "(cooling-load regime)"
            )
        if subgroup is not None and len(subgroup) != len(self.theta):
            raise ValueError("subgroup labels must align with the TCLs")
        self.subgroup = None if subgroup is None else np.asarray(subgroup, dtype=int)

        self._step_terms: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._power_limbs: Optional[tuple[np.ndarray, int, int]] = None

    def __len__(self) -> int:
        return len(self.theta)

    @property
    def size(self) -> int:
        return len(self.theta)

    @property
    def capacity_kw(self) -> float:
        """Total electrical draw if every TCL consumed at once."""
        return math.fsum(self.elec_power.tolist())

    def step_terms(self, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-TCL terms ``(a, off, on)`` of a thermal step of h seconds.

        One step is ``theta' = a*theta + (on if m*v else off)`` with
        ``a = exp(-h/(C*R*3600))``, ``off = (1-a)*theta_ambient`` and
        ``on = (1-a)*(theta_ambient - P*R)``: the same operations, in the
        same order, as :func:`tclmarket.reference.thermal_step`. ``a`` is
        computed element by element with math.exp, so the array path matches
        the per-device reference bit for bit.
        """
        terms = self._step_terms.get(h)
        if terms is None:
            exponents = -h / (self.C * self.R * 3600.0)
            a = np.fromiter(map(math.exp, exponents), np.float64, len(exponents))
            pull = 1.0 - a
            terms = (a, pull * self.theta_ambient, pull * (self.theta_ambient - self.theta_gain))
            self._step_terms[h] = terms
        return terms

    def step_physics(
        self,
        h: float,
        noise: Optional[np.ndarray] = None,
        theta_out: Optional[np.ndarray] = None,
        consuming_out: Optional[np.ndarray] = None,
    ) -> None:
        """One physics step: switches first (from current theta), then theta.

        The switch turns off strictly below the deadband, on strictly above
        it, and holds otherwise (as :func:`tclmarket.reference.hysteresis_update`);
        ``noise`` is degC per TCL (None = 0). The new theta is written into
        ``theta_out`` and the mask of consuming TCLs (``m & v``, as the step
        used it) into ``consuming_out``, each a length-n array the caller owns
        (None = a fresh one). ``theta`` then refers to ``theta_out``, so the
        caller must not overwrite it before the next step has read it.
        """
        a, off, on = self.step_terms(h)
        theta = self.theta
        self.m = (theta > self.theta_max) | (self.m & ~(theta < self.theta_min))
        consuming = np.logical_and(self.m, self.v, out=consuming_out)
        stepped = np.multiply(a, theta, out=theta_out)
        stepped += np.where(consuming, on, off)
        if noise is not None:
            stepped += noise
        self.theta = stepped

    def set_dispatch(self, bid_prices: np.ndarray, clearing_price: float) -> None:
        """Set v = 1 exactly for bids at or above the clearing price."""
        self.v = bid_prices >= clearing_price

    def consuming(self) -> np.ndarray:
        """Boolean mask of TCLs currently drawing power (m and v both 1)."""
        return self.m & self.v

    def power_limbs(self) -> tuple[np.ndarray, int, int]:
        """The exact integer form of P/eta: ``(limbs, lo, width)``.

        Every P/eta is a whole multiple of ``2**lo``, the unit in the last
        place of the smallest one. Row j of the k x n float64 table
        ``limbs`` holds digit j, base ``2**width``, of each ``(P/eta) / 2**lo``,
        so ``P/eta = 2**lo * sum_j limbs[j] * 2**(width*j)`` exactly. The
        width leaves room for n digits: any sum of one row is an integer
        below 2**53, which float64 holds exactly whatever the order of the
        additions. (The scaling by ``2**-lo`` stays finite while the largest
        P/eta is within 2**970 of the smallest.) Built on first use.
        """
        if self._power_limbs is None:
            x = self.elec_power
            lo = math.frexp(x.min())[1] - 53          # x = f * 2**e with 1/2 <= f < 1
            span = math.frexp(x.max())[1] - lo        # bits in the largest x / 2**lo
            width = 53 - len(x).bit_length()
            limbs = np.empty((-(-span // width), len(x)))
            for j, row in enumerate(limbs):
                digits = np.ldexp(x, -(lo + width * j))   # exact: a power-of-2 scaling
                np.floor(digits, out=digits)
                np.fmod(digits, 2.0**width, out=row)
            self._power_limbs = (limbs, lo, width)
        return self._power_limbs


def aggregate_power(population: Population, consuming: Optional[np.ndarray] = None):
    """Total electrical power drawn, kW, by each row of a consuming mask.

    ``consuming`` is a boolean mask of the TCLs drawing power, of length n
    or B x n with one row per instant (None = ``population.consuming()``).
    Each total is the exact sum of P/eta over the row's consuming TCLs,
    rounded once, so it equals ``math.fsum`` of those values bit for bit and
    does not depend on index order. One matrix product sums every limb row
    of ``population.power_limbs()`` over every mask row: each partial sum is
    an integer below 2**53, so the product is exact in any order. Each
    mask row's limb sums are combined as Python integers, and one integer
    division by ``2**-lo`` rounds its total correctly. Returns a float for a
    1-D mask and an array of B floats for a B x n one.
    """
    if consuming is None:
        consuming = population.consuming()
    limbs, lo, width = population.power_limbs()
    row_sums = limbs @ consuming.T.astype(np.float64)
    shifts = [width * j for j in range(len(limbs))]
    scale, divisor = 1 << max(lo, 0), 1 << max(-lo, 0)
    totals = [
        sum(map(operator.lshift, digits, shifts)) * scale / divisor
        for digits in row_sums.T.reshape(-1, len(limbs)).astype(np.int64).tolist()
    ]
    return totals[0] if consuming.ndim == 1 else np.array(totals)
