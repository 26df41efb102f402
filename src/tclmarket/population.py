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
test suite's per-device oracle (``tests/oracle.py``) applies as well. The
vectorized steps are required to be bit-identical to that oracle
evaluated in index order, which the test suite pins.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Optional

import numpy as np

__all__ = ["Population", "aggregate_power"]

#: The most the frexp exponents of the largest and the smallest value of a
#: :class:`LimbTable` may differ: the table scales the largest to below
#: 2**(53 + difference), which float64 holds up to 2**1024.
MAX_POWER_EXPONENT_SPAN = 1024 - 53

#: Per-TCL parameter arrays of a :class:`Population`.
PARAM_FIELDS = (
    "C", "R", "P", "eta", "theta_set", "deadband",
    "p0", "p_cap", "gamma1", "gamma2", "noise_std",
)

# The validity rules of a TCL's parameters, in the order they are checked:
# the mask of offending TCLs, from the parameter arrays, and the message.
# A rule that names an accepted range is written as its negation, so a NaN
# offends it; the two written as bounds (deadband, bid slopes) let a NaN
# pass. Scenarios never reach them with one: the validator rejects NaN.
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
    # would stall mid-band and never cycle; an infinite one has no step.
    (lambda p: ~((p.deadband < p.P * p.R) & (p.P * p.R < math.inf)),
     "TCL {id}: P*R={theta_gain:.3f} degC must be finite and exceed the deadband "
     "({deadband} degC)"),
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


def one_value(values: np.ndarray) -> np.ndarray:
    """``values`` as a read-only zero-stride view of its first value, if all share its bits.

    Float64 values are compared as their int64 bits, so -0.0 and 0.0 never
    merge and every value the view gives back is the one stored. Any other
    array (values that differ, or not 1-D of at least one value) comes back
    unchanged.
    """
    if values.ndim != 1 or not len(values):
        return values
    bits = values.view(np.int64)
    if bits.min() != bits.max():
        return values
    return np.broadcast_to(values[0], values.shape)


def is_one_value(values: np.ndarray) -> bool:
    """Whether ``values`` is a 1-D zero-stride view of one value (see :func:`one_value`)."""
    return values.ndim == 1 and len(values) > 0 and values.strides == (0,)


def per_load(f: Callable[..., np.ndarray], *arrays: np.ndarray) -> np.ndarray:
    """``f(*arrays)`` for an element-wise ``f`` of arrays of one length.

    When every array is a one-value view, ``f`` runs on one element, and
    the result is a one-value view of it.
    """
    if all(map(is_one_value, arrays)):
        return np.broadcast_to(f(*(a[:1] for a in arrays))[0], arrays[0].shape)
    return f(*arrays)


def flip_bits(on: np.ndarray, off: np.ndarray, out=None) -> np.ndarray:
    """The bits that turn each float64 ``off`` into ``on``: ``on ^ off`` as int64.

    ``out`` is an int64 array for the result (None = a fresh one).
    """
    return np.bitwise_xor(on.view(np.int64), off.view(np.int64), out=out)


def select(mask: np.ndarray, off: np.ndarray, flip: np.ndarray, out=None) -> np.ndarray:
    """``np.where(mask, on, off)`` for float64 arrays, bit for bit, without branches.

    ``flip`` is :func:`flip_bits` of ``on`` and ``off``; ``mask`` is boolean.
    ``mask * flip`` is ``flip`` where the mask holds and 0 elsewhere, so
    xoring it into the bits of ``off`` gives the bits of ``on`` exactly
    there: every value comes through unchanged, -0.0 and NaN payloads too.
    Two ufunc calls and no per-element branch: ``np.where`` branches per
    element, which makes it several times slower on a mask that varies
    from load to load. ``out`` is an int64 array that receives the bits
    (None = a fresh one); returns its float64 view.
    """
    bits = np.multiply(mask, flip, out=out)
    np.bitwise_xor(off.view(np.int64), bits, out=bits)
    return bits.view(np.float64)


class Population:
    """A fixed roster of TCLs sharing one ambient temperature.

    Every per-TCL quantity is a numpy array indexed by TCL id: the
    parameters (float64, named in ``PARAM_FIELDS``) are immutable after
    construction; the thermal/switch state (float64 ``theta``, boolean
    ``m`` and ``v``) evolves. The constructor passes every parameter
    through :func:`one_value`, so one value shared by every TCL is kept
    once, as a read-only zero-stride view, however it was passed. The
    derived ``theta_min``, ``theta_max`` and ``elec_power`` (P/eta) are
    such views when all their inputs are (see :func:`per_load`). The
    constructor checks the validity rules of every TCL and raises the
    message of the first offending one. The population never draws noise;
    callers pass samples in.

    Two tables are derived from the parameters and kept: ``power_limbs``,
    the :class:`LimbTable` of P/eta that :func:`aggregate_power` sums
    exactly, built by the constructor (which so rejects a P/eta it cannot
    sum exactly), and the per-step thermal terms for each step length h,
    built on first use (see ``step_terms``). ``step_physics`` works in one
    length-n int64 scratch buffer, allocated with the population.
    """

    def __init__(self, *, C, R, P, eta, theta_set, deadband, p0, p_cap, gamma1, gamma2,
                 noise_std, theta, m, v, theta_ambient: float):
        given = dict(C=C, R=R, P=P, eta=eta, theta_set=theta_set, deadband=deadband, p0=p0,
                     p_cap=p_cap, gamma1=gamma1, gamma2=gamma2, noise_std=noise_std)
        for name in PARAM_FIELDS:
            setattr(self, name, one_value(np.asarray(given[name], dtype=np.float64)))
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

        self.theta_min = per_load(lambda s, d: s - d / 2.0, self.theta_set, self.deadband)
        self.theta_max = per_load(lambda s, d: s + d / 2.0, self.theta_set, self.deadband)
        self.elec_power = per_load(np.divide, self.P, self.eta)

        check_params(self, lambda i: {
            "id": i, **{name: float(getattr(self, name)[i]) for name in PARAM_FIELDS}
        })
        check_switches(m, v)
        self.power_limbs = LimbTable(self.elec_power, "P/eta", "TCL {}")
        self.m = m.astype(bool)
        self.v = v.astype(bool)

        if self.theta_ambient <= self.theta_set.max():
            raise ValueError("theta_ambient must exceed every set-point (cooling-load regime)")

        self._step_terms: dict[float, tuple[np.ndarray, ...]] = {}
        self._forcing_bits = np.empty(len(self.theta), dtype=np.int64)
        self._forcing = self._forcing_bits.view(np.float64)

    @property
    def size(self) -> int:
        return len(self.theta)

    @property
    def capacity_kw(self) -> float:
        """Total electrical draw if every TCL consumed at once, exact and rounded once."""
        return self.power_limbs.total()

    def step_terms(self, h: float) -> tuple[np.ndarray, ...]:
        """Per-TCL terms ``(a, off, flip, off_bits)`` of a thermal step of h seconds.

        One step is ``theta' = a*theta + (on if m*v else off)`` with
        ``a = exp(-h/(C*R*3600))``, ``off = (1-a)*theta_ambient`` and
        ``on = (1-a)*(theta_ambient - P*R)``: the same operations, in the
        same order, as the per-device oracle's ``thermal_step``. ``a`` is
        computed element by element with math.exp, so the array path matches
        the per-device oracle bit for bit. ``on`` is kept as its
        ``flip = flip_bits(on, off)``, the form :func:`select` reads, and
        ``off_bits`` is the int64 view of ``off`` that a select xors into.
        """
        terms = self._step_terms.get(h)
        if terms is None:
            exponents = -h / (self.C * self.R * 3600.0)
            a = np.fromiter(map(math.exp, exponents), np.float64, len(exponents))
            pull = 1.0 - a
            off = pull * self.theta_ambient
            flip = flip_bits(pull * (self.theta_ambient - self.P * self.R), off)
            terms = (a, off, flip, off.view(np.int64))
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
        it, and holds otherwise (as the oracle's ``hysteresis_update``);
        ``noise`` is degC per TCL (None = 0). The new theta is written into
        ``theta_out`` and the mask of consuming TCLs (``m & v``, as the step
        used it) into ``consuming_out``, each a length-n array the caller owns
        (None = a fresh one). ``theta`` then refers to ``theta_out``, so the
        caller must not overwrite it before the next step has read it.

        Everything happens in place: ``m`` is updated as
        ``m = (m | (theta > theta_max)) > (theta < theta_min)``, which a NaN
        theta leaves unchanged, and the forcing term is a :func:`select`,
        written out inline, into a scratch buffer. Given both output arrays,
        a step allocates no length-n temporaries. At a thousand loads a step
        costs mostly call overhead, so it makes no call but its ufuncs' (nine,
        ten with noise), each with positional outputs.
        """
        a, _, flip, off_bits = self._step_terms.get(h) or self.step_terms(h)
        theta, m = self.theta, self.m
        # the consuming mask's array holds each band crossing first
        consuming = np.greater(theta, self.theta_max, consuming_out)
        np.logical_or(m, consuming, m)
        np.greater(m, np.less(theta, self.theta_min, consuming), m)
        np.logical_and(m, self.v, consuming)
        stepped = np.multiply(a, theta, theta_out)
        bits = self._forcing_bits
        np.multiply(consuming, flip, bits)
        np.bitwise_xor(off_bits, bits, bits)
        np.add(stepped, self._forcing, stepped)
        if noise is not None:
            np.add(stepped, noise, stepped)
        self.theta = stepped

    def set_dispatch(self, bid_prices: np.ndarray, clearing_price: float) -> None:
        """Set v = 1 exactly for bids at or above the clearing price."""
        self.v = bid_prices >= clearing_price

    def consuming(self) -> np.ndarray:
        """Boolean mask of TCLs currently drawing power (m and v both 1)."""
        return self.m & self.v


class LimbTable:
    """The exact integer form of fixed values, and their exact totals.

    The table keeps a reference to ``values``, a 1-D float64 array. Every
    value is a whole multiple of ``2**lo``, the unit in the last place of
    the smallest. Row j of the k x n float64 array ``limbs`` holds digit j,
    base ``2**width``, of each ``value / 2**lo``, so ``value = 2**lo *
    sum_j limbs[j] * 2**(width*j)`` exactly. The width leaves room for n
    digits: any sum over one row is an integer below 2**53, so float64 adds
    it exactly in any order. An empty table has one row of no digits.

    When ``values`` is a zero-stride view of one value (see
    :func:`one_value`), the table computes that value's k digits once,
    keeps them as ``digits``, and ``limbs`` is their read-only k x n
    broadcast; ``digits`` is None otherwise.

    A table exists only for values it sums exactly: the constructor raises
    ValueError unless every value is finite and positive, the frexp
    exponents of the largest and the smallest differ by at most
    ``MAX_POWER_EXPONENT_SPAN``, and the exact total rounds to a finite
    float64 (then every partial total does). Messages call the values
    ``what`` and value i ``who.format(i)``.
    """

    def __init__(self, values: np.ndarray, what: str, who: str):
        self.values = values
        smallest, largest = float(values.min(initial=math.inf)), float(values.max(initial=0.0))
        if not (smallest > 0 and largest < math.inf):   # a NaN fails both
            i = int(np.argmax(~(np.isfinite(values) & (values > 0))))
            raise ValueError(f"{who.format(i)}: {what} must be finite and > 0")
        self.lo = math.frexp(smallest)[1] - 53   # x = f * 2**e, 1/2 <= f < 1
        span = math.frexp(largest)[1] - self.lo  # bits in the largest x / 2**lo
        if span - 53 > MAX_POWER_EXPONENT_SPAN:
            raise ValueError(
                f"{what} spans too many binary orders of magnitude for an exact sum: "
                f"smallest {smallest!r} ({who.format(int(np.argmin(values)))}), largest "
                f"{largest!r} ({who.format(int(np.argmax(values)))}); their frexp exponents "
                f"may differ by at most {MAX_POWER_EXPONENT_SPAN}"
            )
        self.width = 53 - len(values).bit_length()
        shared = is_one_value(values)
        source = values[:1] if shared else values
        limbs = np.empty((-(-span // self.width), len(source)))
        for j, row in enumerate(limbs):
            np.ldexp(source, -(self.lo + self.width * j), out=row)   # exact: a power-of-2 scaling
            np.floor(row, out=row)
            np.fmod(row, 2.0**self.width, out=row)
        # one repeated value: its digits once, and each row a zero-stride view of its digit
        self.digits = limbs[:, 0] if shared else None
        self.limbs = np.broadcast_to(limbs, (len(limbs), len(values))) if shared else limbs
        if not len(values) * largest <= 2.0**1023:   # else n times the largest bounds the total
            try:
                self.total()
            except OverflowError:
                raise ValueError(
                    f"{what} sums past the float64 range: the exact total of all {len(values)} "
                    f"values exceeds {float(np.finfo(np.float64).max)!r} (largest {largest!r}, "
                    f"{who.format(int(np.argmax(values)))})"
                ) from None

    def total(self, mask: Optional[np.ndarray] = None, counts: Optional[list[int]] = None):
        """The exact total of the values each row of a boolean ``mask`` selects.

        ``mask`` has length n, or B x n with one row per total (None = every
        value). One matrix product sums every limb row over every mask row,
        exactly. A table of one repeated value needs only each mask row's
        count of selected values: each digit times each count is an integer
        below 2**53, so exact too. ``counts`` gives those counts, one per
        mask row, when the caller has them; else they are counted here.
        Each mask row's limb sums are combined as Python integers, and one
        integer division by ``2**-lo`` rounds the total correctly
        (OverflowError past float64). Returns a float for a 1-D mask or None,
        and an array of B floats for a B x n one.
        """
        limbs = self.limbs
        if self.digits is not None:
            if counts is None:   # per row: count_nonzero(axis=1) is several times slower
                counts = ([limbs.shape[1]] if mask is None
                          else [np.count_nonzero(row) for row in np.atleast_2d(mask)])
            row_sums = np.multiply.outer(self.digits, np.array(counts, dtype=np.float64))
        elif mask is None:
            row_sums = limbs.sum(axis=1)
        else:
            row_sums = limbs @ mask.T.astype(np.float64)
        shifts = [self.width * j for j in range(len(limbs))]
        scale, divisor = 1 << max(self.lo, 0), 1 << max(-self.lo, 0)
        totals = [
            sum(map(operator.lshift, digits, shifts)) * scale / divisor
            for digits in row_sums.T.reshape(-1, len(limbs)).astype(np.int64).tolist()
        ]
        return np.array(totals) if mask is not None and mask.ndim == 2 else totals[0]


def aggregate_power(
    population: Population,
    consuming: Optional[np.ndarray] = None,
    counts: Optional[list[int]] = None,
):
    """Total electrical power drawn, kW, by each row of a consuming mask.

    The exact sum of P/eta over the row's consuming TCLs, rounded once: the
    :meth:`LimbTable.total` of ``consuming`` (None = ``population.consuming()``),
    given the ``counts`` of consuming TCLs per row if the caller has them.
    """
    if consuming is None:
        consuming = population.consuming()
    return population.power_limbs.total(consuming, counts)
