"""Thermostatically controlled load (TCL) population model.

Each TCL is a first-order thermal mass cycling a cooling unit inside a
temperature deadband. Two binary variables govern consumption: the
thermostat switch ``m`` (hysteresis on the deadband) and the market
dispatch flag ``v`` (set by the clearing outcome, held for a whole
market interval). A TCL draws electrical power only while ``m`` and
``v`` are both 1.

:class:`Population` holds the parameters and state of every TCL as numpy
arrays, indexed by TCL id, and advances all devices at once. This module
also holds the validity rules of one TCL, which the scenario validator and
the per-device oracle (``tests/oracle.py``) apply as well. The vectorized
steps are required to be bit-identical to that oracle evaluated in index
order, which the test suite pins.
"""

from __future__ import annotations

import math
import operator
from itertools import chain
from types import SimpleNamespace
from typing import Optional

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
# the mask of offending TCLs, from the parameter arrays and the band edges
# theta_min and theta_max, and the message. A rule is the negation of its
# accepted range, so that a NaN offends it; a NaN deadband, which the
# deadband's bound lets pass, offends the P*R rule.
_PARAM_RULES = (
    # an infinite C or R leaves a = 1: the temperature would never move
    (lambda p: ~((0 < p.C) & (p.C < math.inf) & (0 < p.R) & (p.R < math.inf) & (p.P > 0)
                 & (p.eta > 0)),
     "C, R, P and eta must all be positive, C and R finite, got C={C}, R={R}, P={P}, eta={eta}"),
    (lambda p: ~((0 < p.P / p.eta) & (p.P / p.eta < math.inf)),
     "P/eta must be positive and finite"),
    (lambda p: p.deadband <= 0,
     "deadband must be positive"),
    (lambda p: ~((0.0 <= p.p0) & (p.p0 <= p.p_cap) & (p.p_cap < math.inf)),
     "require 0 <= p0 <= p_cap < inf, got p0={p0}, p_cap={p_cap}"),
    (lambda p: ~((0 <= p.gamma1) & (p.gamma1 < math.inf) & (0 <= p.gamma2)
                 & (p.gamma2 < math.inf)),
     "bid slopes must be finite and >= 0, got gamma1={gamma1}, gamma2={gamma2}"),
    (lambda p: ~((0 <= p.noise_std) & (p.noise_std < math.inf)),
     "noise_std must be finite and >= 0"),
    # A unit whose full-on temperature pull cannot span its own deadband
    # would stall mid-band and never cycle; an infinite one has no step.
    (lambda p: ~((p.deadband < p.P * p.R) & (p.P * p.R < math.inf)),
     "P*R={theta_gain:.3f} degC must be finite and exceed the deadband ({deadband} degC)"),
    (lambda p: ~((-math.inf < p.theta_min) & (p.theta_max < math.inf)),
     "theta_set +/- deadband/2 must be finite, got theta_set={theta_set}, deadband={deadband}"),
    # A deadband below the float spacing at theta_set leaves no band.
    (lambda p: ~(p.theta_min < p.theta_max),
     "deadband {deadband} is below the float spacing at theta_set {theta_set}: "
     "theta_set +/- deadband/2 round to one temperature"),
)


def band_edges(theta_set: np.ndarray, deadband: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``theta_set -/+ deadband/2`` through :func:`one_value`, one by one; inf past float64."""
    with np.errstate(over="ignore"):   # the rules report an infinite edge
        return one_value(theta_set - deadband / 2.0), one_value(theta_set + deadband / 2.0)


def broken_rule(params) -> Optional[tuple[int, str]]:
    """The first TCL whose parameters break a rule, and that rule's message; None if none does.

    ``params`` has one 1-D float64 array attribute per name in
    ``PARAM_FIELDS``, and the band edges ``theta_min`` and ``theta_max``.
    The rules are folded into one mask in one pass; the message is that of
    the first rule the first offender's own one-element slice breaks, with
    its values read from the arrays.
    """
    with np.errstate(all="ignore"):
        bad = np.zeros(params.C.shape, dtype=bool)
        for offends, _ in _PARAM_RULES:
            bad |= offends(params)
        if not bad.any():
            return None
        i = int(np.argmax(bad))
        one = SimpleNamespace(**{name: getattr(params, name)[i : i + 1]
                                 for name in (*PARAM_FIELDS, "theta_min", "theta_max")})
        message = next(msg for offends, msg in _PARAM_RULES if offends(one)[0])
    found = {name: getattr(one, name).item() for name in PARAM_FIELDS}
    return i, message.format(theta_gain=found["P"] * found["R"], **found)


def check_params(params, first_id: int = 0) -> None:
    """Raise ValueError for the :func:`broken_rule` of ``params``, naming TCL i ``first_id + i``."""
    found = broken_rule(params)
    if found is not None:
        raise ValueError(f"TCL {first_id + found[0]}: {found[1]}")


def check_state(theta: np.ndarray, m: np.ndarray, v: np.ndarray) -> None:
    """Raise ValueError for the first TCL whose m or v is not 0 or 1.

    Failing that, for the first TCL whose theta is not finite.
    """
    bad = ((m != 0) & (m != 1)) | ((v != 0) & (v != 1))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"m and v must be 0 or 1, got m={m.item(i)}, v={v.item(i)}")
    bad = ~np.isfinite(theta)
    if bad.any():
        raise ValueError(f"theta must be finite, got theta={theta.item(int(np.argmax(bad)))}")


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


class Population:
    """A fixed roster of TCLs sharing one ambient temperature.

    Every per-TCL quantity is a numpy array indexed by TCL id: the
    parameters (float64, named in ``PARAM_FIELDS``) are immutable after
    construction; the thermal/switch state (float64 ``theta``, boolean
    ``m`` and ``v``) evolves: ``m`` by assignment, never in place (see
    ``m``), and ``v`` only through :meth:`set_dispatch` (it is read-only).
    The constructor passes every parameter, and the derived ``theta_min``,
    ``theta_max`` and ``elec_power`` (P/eta), through :func:`one_value`, so
    one value shared by every TCL is kept once, as a read-only zero-stride
    view, however it was passed or derived. The constructor checks the
    validity rules of every TCL, its band edges among them (see
    :func:`check_params`), and then its initial state (see
    :func:`check_state`), and raises the message of the first offending one.
    The population never draws noise; callers pass samples in.

    Two tables are derived from the parameters and kept: ``power_limbs``,
    the :class:`LimbTable` of P/eta that :func:`aggregate_power` sums
    exactly, built by the constructor (which so rejects a P/eta it cannot
    sum exactly), and the per-step thermal terms for each step length h,
    built on first use (see ``step_terms``), into which every dispatch is
    folded. The population also keeps the forcing term of one step length h
    in a length-n int64 buffer allocated with it: :meth:`forcing` rebuilds
    it in full when it is stale, and :meth:`step_physics` rewrites it only
    where a switch changed. A step's band tests, and its copy of the
    switches when it writes them in place, go through boolean scratch
    arrays that the first step to need each allocates.
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

        self.theta_min, self.theta_max = band_edges(self.theta_set, self.deadband)
        with np.errstate(all="ignore"):   # a P/eta the rules reject may not be finite
            self.elec_power = one_value(self.P / self.eta)

        check_params(self)
        check_state(self.theta, m, v)
        self.power_limbs = LimbTable(self.elec_power)

        if not math.isfinite(self.theta_ambient):
            raise ValueError(f"theta_ambient must be finite, got {self.theta_ambient}")
        if not self.theta_ambient > self.theta_set.max():
            raise ValueError("theta_ambient must exceed every set-point (cooling-load regime)")

        self._step_terms: dict[float, tuple[np.ndarray, ...]] = {}
        self._forcing_bits = np.empty(len(self.theta), dtype=np.int64)
        self._forcing = self._forcing_bits.view(np.float64)
        self._forcing.flags.writeable = False
        # the band tests, and the old m of a step into it; each made by the first step needing it
        self._band = self._m_old = None
        self.m = m.astype(bool)   # and no kept term yet
        self._dispatch(np.array(v, dtype=bool))

    @property
    def size(self) -> int:
        return len(self.theta)

    @property
    def capacity_kw(self) -> float:
        """Total electrical draw if every TCL consumed at once: the power table's ``sum``."""
        return self.power_limbs.sum

    @property
    def m(self) -> np.ndarray:
        """The boolean thermostat switches.

        Assigning an array makes it the switches and marks the kept forcing
        term stale, so the next step or :meth:`forcing` rebuilds it. A write
        into ``m`` in place is not supported: the kept term would not see it.
        """
        return self._m

    @m.setter
    def m(self, m: np.ndarray) -> None:
        self._m = m
        self._forcing_h = None

    @property
    def v(self) -> np.ndarray:
        """The boolean dispatch flags, a read-only array the population owns.

        The constructor stores a copy of the mask it is passed, and
        :meth:`set_dispatch` a new mask; each is folded into the ``flip`` of
        every cached step term. A write into ``v`` in place raises, as it
        would leave ``flip`` stale.
        """
        return self._v

    def _dispatch(self, v: np.ndarray) -> None:
        """Make ``v``, a boolean array no one else holds, the dispatch flags."""
        v.flags.writeable = False
        self._v = v
        for a, flip, off_bits in self._step_terms.values():
            self._fold_dispatch(a, flip, off_bits)

    def _fold_dispatch(self, a: np.ndarray, flip: np.ndarray, off_bits: np.ndarray) -> None:
        """Rewrite ``flip`` in place: ``on ^ off`` as int64 where v holds, 0 elsewhere.

        ``on = (1-a)*(theta_ambient - P*R)`` is computed from ``a`` in
        ``flip``'s own memory, with ``theta_ambient - P*R`` in the forcing
        scratch, which so no longer holds a kept term; ``off`` is the float64
        view of ``off_bits``. Six ufunc calls and no temporary, so no
        population keeps a copy of ``on``.
        """
        self._forcing_h = None
        on = flip.view(np.float64)
        np.subtract(1.0, a, out=on)   # pull
        gain = np.multiply(self.P, self.R, out=self._forcing_bits.view(np.float64))
        np.subtract(self.theta_ambient, gain, out=gain)
        np.multiply(on, gain, out=on)
        np.bitwise_xor(flip, off_bits, out=flip)
        np.multiply(flip, self._v, out=flip)

    def step_terms(self, h: float) -> tuple[np.ndarray, ...]:
        """Per-TCL terms ``(a, flip, off_bits)`` of a thermal step of h seconds.

        One step is ``theta' = a*theta + (on if m*v else off)`` with
        ``a = exp(-h/(C*R*3600))``, ``off = (1-a)*theta_ambient`` and
        ``on = (1-a)*(theta_ambient - P*R)``: the same operations, in the
        same order, as the per-device oracle's ``thermal_step``. ``a`` is
        computed element by element with math.exp, so the array path matches
        the per-device oracle bit for bit. ``off`` is kept as its int64 bits
        ``off_bits``, and ``on`` as ``flip``, the form :meth:`forcing` reads,
        with the dispatch flags folded in by :meth:`_fold_dispatch`:
        ``on ^ off`` as int64 where v holds and 0 elsewhere, so selecting on
        ``m`` alone picks ``on`` exactly where ``m*v``. Every dispatch
        rewrites it in place.
        """
        terms = self._step_terms.get(h)
        if terms is None:
            # C*R*3600 may overflow to inf or round to 0, and the quotient
            # overflow: the exponent is then -0 or -inf, whose exp (1 or 0)
            # is the exact limit of the decay, so neither warning applies
            with np.errstate(over="ignore", divide="ignore"):
                exponents = -h / (self.C * self.R * 3600.0)
            # math.exp of Python floats, faster than of numpy scalars; converted
            # in chunks, so that no list of n float objects is ever held
            parts = (exponents[i : i + 2048].tolist() for i in range(0, len(exponents), 2048))
            a = np.fromiter(map(math.exp, chain.from_iterable(parts)), np.float64, len(exponents))
            off = (1.0 - a) * self.theta_ambient
            flip, off_bits = np.empty(len(a), np.int64), off.view(np.int64)
            self._fold_dispatch(a, flip, off_bits)
            terms = self._step_terms[h] = (a, flip, off_bits)
        return terms

    def forcing(self, h: float) -> np.ndarray:
        """The forcing term of a step of h seconds: ``on`` where m*v, ``off`` elsewhere.

        The population keeps the term of one step length between calls and
        between steps, and returns it as it is unless it is stale: before
        the first step, after a dispatch or the first use of a step length
        (both rewrite the forcing buffer, see :meth:`_fold_dispatch`), after
        an assignment to ``m``, and when it is of another h. A stale term is
        rebuilt in full as ``off ^ (m*flip)`` on the bits of the step terms:
        ``m*flip`` is ``on ^ off`` where m*v holds and 0 elsewhere, so the
        xor gives the bits of ``on`` exactly there and of ``off`` elsewhere.
        It equals ``np.where(m & v, on, off)`` bit for bit, -0.0 included,
        in two ufunc calls with no per-element branch: ``np.where`` branches
        per element, which makes it several times slower on a mask that
        varies from load to load. :meth:`step_physics` keeps the term so
        between rebuilds. Returns a read-only float64 view of the kept term,
        which the next step, dispatch, rebuild or first use of a step length
        changes.
        """
        if self._forcing_h != h:
            _, flip, off_bits = self._step_terms.get(h) or self.step_terms(h)
            bits = self._forcing_bits
            np.multiply(self._m, flip, bits)
            np.bitwise_xor(off_bits, bits, bits)
            self._forcing_h = h
        return self._forcing

    def step_physics(
        self, h: float, noise: Optional[np.ndarray], theta_out: np.ndarray, m_out: np.ndarray
    ) -> None:
        """One physics step: switches first (from current theta), then theta.

        The switch turns off strictly below the deadband, on strictly above
        it, and holds otherwise (as the oracle's ``hysteresis_update``);
        ``noise`` is degC per TCL (None = 0). The new theta is written into
        ``theta_out`` and the new switches into ``m_out``, a float64 and a
        boolean length-n array the caller owns. ``theta`` and ``m`` then
        refer to them, so the caller must not overwrite either before the
        next step has read it; either may be the array the step reads.

        The switches are ``m = (m | (theta > theta_max)) > (theta < theta_min)``,
        which a NaN theta leaves unchanged. When the population keeps the
        forcing term of this h, one byte-wise ``not_equal`` of the new and
        the old switches marks the loads that switched, and the term is
        xored with ``flip`` there alone: toggling ``m*flip`` where m changed
        gives ``off ^ (m*flip)`` of the new m, the term :meth:`forcing`
        would rebuild, bit for bit. Otherwise :meth:`forcing` rebuilds it
        from the new m. The band tests and the switch mask share one boolean
        scratch array, allocated by the first step; when ``m_out`` shares
        memory with the switches the step reads, they are first copied into
        a second one, allocated by the first such step. A step allocates
        nothing else. At a thousand loads a step costs mostly call overhead,
        so its ufuncs (eight, nine with noise) take positional outputs.
        """
        a, flip, _ = self._step_terms.get(h) or self.step_terms(h)
        theta, old, band = self.theta, self._m, self._band
        if band is None:
            band = self._band = np.empty(len(theta), dtype=bool)
        if np.may_share_memory(old, m_out):
            if self._m_old is None:
                self._m_old = np.empty(len(theta), dtype=bool)
            np.copyto(self._m_old, old)
            old = self._m_old
        np.greater(theta, self.theta_max, band)
        m = np.logical_or(old, band, m_out)
        m = np.greater(m, np.less(theta, self.theta_min, band), m)
        if self._forcing_h == h:
            bits = self._forcing_bits
            np.bitwise_xor(bits, flip, bits, where=np.not_equal(m, old, band))
            self._m = m
        else:
            self.m = m
            self.forcing(h)
        stepped = np.multiply(a, theta, theta_out)
        np.add(stepped, self._forcing, stepped)
        if noise is not None:
            np.add(stepped, noise, stepped)
        self.theta = stepped

    def set_dispatch(self, bid_prices: np.ndarray, clearing_price: float) -> None:
        """Set v = 1 exactly for bids at or above the clearing price.

        The new flags are folded into every cached step term (see ``v``).
        """
        self._dispatch(np.greater_equal(bid_prices, clearing_price))


class LimbTable:
    """The exact integer form of fixed values, and their exact totals.

    The table keeps a reference to ``values``, a 1-D float64 array. When
    ``values`` is a zero-stride view of one value (see :func:`one_value`),
    that value is ``value`` and a total is the count of values selected
    times it: one float64 product of an exact count (below 2**53) by the
    value, so correctly rounded, as the exact total rounded once is.

    Otherwise ``value`` is None and the table holds limbs. Every value is a
    whole multiple of ``2**lo``, the unit in the last place of the
    smallest. Row j of the k x n float64 array ``limbs`` holds digit j,
    base ``2**width``, of each ``value / 2**lo``, so ``value = 2**lo *
    sum_j limbs[j] * 2**(width*j)`` exactly. The width leaves room for n
    digits: any sum over one row is an integer below 2**53, so float64 adds
    it exactly in any order. An empty table has one row of no digits.

    The constructor computes ``sum``, the exact total of all the values
    rounded once. A table exists only for finite positive values (its one
    owner, :class:`Population`, checks them) that it sums exactly: the
    constructor raises ValueError unless the frexp exponents of the largest
    and the smallest differ by at most ``MAX_POWER_EXPONENT_SPAN`` and
    ``sum`` is finite (then every partial total is).
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        if len(values) and values.strides == (0,):
            self.value = largest = float(values[0])
            self.sum = len(values) * largest
        else:
            self.value, largest = None, float(values.max(initial=0.0))
            self.sum = self._build_limbs(float(values.min(initial=math.inf)), largest)
        if self.sum == math.inf:
            raise ValueError(
                f"P/eta sums past the float64 range: the exact total of all {len(values)} "
                f"values exceeds {float(np.finfo(np.float64).max)!r} (largest {largest!r}, "
                f"TCL {int(np.argmax(values))})"
            )

    def _build_limbs(self, smallest: float, largest: float) -> float:
        """Set ``lo``, ``width`` and ``limbs``; the exact total of all values, inf past float64."""
        values = self.values
        self.lo = math.frexp(smallest)[1] - 53   # x = f * 2**e, 1/2 <= f < 1
        span = math.frexp(largest)[1] - self.lo  # bits in the largest x / 2**lo
        if span - 53 > MAX_POWER_EXPONENT_SPAN:
            raise ValueError(
                f"P/eta spans too many binary orders of magnitude for an exact sum: "
                f"smallest {smallest!r} (TCL {int(np.argmin(values))}), largest "
                f"{largest!r} (TCL {int(np.argmax(values))}); their frexp exponents "
                f"may differ by at most {MAX_POWER_EXPONENT_SPAN}"
            )
        self.width = 53 - len(values).bit_length()
        self.limbs = np.empty((-(-span // self.width), len(values)))
        for j, row in enumerate(self.limbs):
            np.ldexp(values, -(self.lo + self.width * j), out=row)   # exact: a power-of-2 scaling
            np.floor(row, out=row)
            np.fmod(row, 2.0**self.width, out=row)
        try:
            return self._combine(self.limbs.sum(axis=1, keepdims=True))[0]
        except OverflowError:
            return math.inf

    def _combine(self, row_sums: np.ndarray) -> list[float]:
        """Each column of k x B limb row sums as its exact total, rounded once.

        The sums are combined as Python integers, and one integer division
        by ``2**-lo`` rounds each total correctly (OverflowError past float64).
        """
        shifts = [self.width * j for j in range(len(self.limbs))]
        scale, divisor = 1 << max(self.lo, 0), 1 << max(-self.lo, 0)
        return [
            sum(map(operator.lshift, digits, shifts)) * scale / divisor
            for digits in row_sums.T.astype(np.int64).tolist()
        ]

    def total(self, masks: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """The exact total of the values each row of a B x n boolean ``masks`` selects.

        A table of one value multiplies ``counts``, the number of values
        each row selects, by it; otherwise one matrix product sums every
        limb row over every mask row, exactly. Returns an array of B floats.
        """
        if self.value is not None:
            return np.multiply(counts, self.value)
        return np.array(self._combine(self.limbs @ masks.T.astype(np.float64)))


def aggregate_power(population: Population, consuming: np.ndarray, counts: np.ndarray):
    """Total electrical power drawn, kW, by each row of a B x n consuming mask.

    The exact sum of P/eta over the row's consuming TCLs (m and v both 1),
    rounded once: the :meth:`LimbTable.total` of ``consuming``, given the
    ``counts`` of consuming TCLs per row.
    """
    return population.power_limbs.total(consuming, counts)
