"""Thermostatically controlled load (TCL) population model.

Each TCL is a first-order thermal mass cycling a cooling unit inside a
temperature deadband. Two binary variables govern consumption: the
thermostat switch ``m`` (hysteresis on the deadband) and the market
dispatch flag ``v`` (set by the clearing outcome, held for a whole
market interval). A TCL draws electrical power only while ``m`` and
``v`` are both 1.

Scalar reference objects and operations (``TclParams``, ``TclState``,
``hysteresis_update``, ``thermal_step``) define the per-device semantics.
:class:`Population` holds the same parameters and state as numpy arrays,
indexed by TCL id, and advances all devices at once; it is built straight
from arrays, and ``Population.from_devices`` unpacks scalar objects for
tests and small examples. The vectorized path is required to be
bit-identical to evaluating the scalar operations in index order, which
the test suite pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "TclParams",
    "TclState",
    "Population",
    "hysteresis_update",
    "thermal_step",
    "aggregate_power",
]


@dataclass(frozen=True)
class TclParams:
    """Physical and bidding parameters of one TCL.

    Units: C in kWh/degC, R in degC/kW, P (thermal transfer rate when on)
    in kW, eta dimensionless (coefficient of performance), temperatures in
    degC, prices in $/MWh, bid slopes gamma1/gamma2 in $/MWh per degC.
    """

    id: int
    C: float = 10.0
    R: float = 2.0
    P: float = 14.0
    eta: float = 2.5
    theta_set: float = 20.0
    deadband: float = 0.5
    p0: float = 22.0
    p_cap: float = 35.0
    gamma1: float = 20.0
    gamma2: float = 20.0
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if not (self.C > 0 and self.R > 0 and self.P > 0 and self.eta > 0):
            raise ValueError(
                f"TCL {self.id}: C, R, P and eta must all be positive"
            )
        if not 0 < self.elec_power < math.inf:
            raise ValueError(f"TCL {self.id}: P/eta must be positive and finite")
        if self.deadband <= 0:
            raise ValueError(f"TCL {self.id}: deadband must be positive")
        if not 0.0 <= self.p0 <= self.p_cap:
            raise ValueError(
                f"TCL {self.id}: require 0 <= p0 <= p_cap, got "
                f"p0={self.p0}, p_cap={self.p_cap}"
            )
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError(f"TCL {self.id}: bid slopes must be >= 0")
        if not 0 <= self.noise_std < math.inf:
            raise ValueError(f"TCL {self.id}: noise_std must be finite and >= 0")
        if self.theta_gain <= self.deadband:
            # A unit whose full-on temperature pull cannot span its own
            # deadband would stall mid-band and never cycle.
            raise ValueError(
                f"TCL {self.id}: P*R={self.theta_gain:.3f} degC must exceed "
                f"the deadband ({self.deadband} degC)"
            )

    @property
    def theta_min(self) -> float:
        """Lower switching threshold, degC."""
        return self.theta_set - self.deadband / 2.0

    @property
    def theta_max(self) -> float:
        """Upper switching threshold, degC."""
        return self.theta_set + self.deadband / 2.0

    @property
    def theta_gain(self) -> float:
        """Temperature pull of the cooling unit when on (P*R), degC."""
        return self.P * self.R

    @property
    def elec_power(self) -> float:
        """Electrical draw while consuming (P/eta), kW."""
        return self.P / self.eta

    def decay(self, h: float) -> float:
        """Per-step thermal decay factor exp(-h / (C*R)) for step h seconds."""
        return math.exp(-h / (self.C * self.R * 3600.0))


@dataclass
class TclState:
    """Evolving state of one TCL: temperature plus the two switch bits."""

    theta: float
    m: int = 0
    v: int = 1

    def __post_init__(self) -> None:
        if self.m not in (0, 1) or self.v not in (0, 1):
            raise ValueError(f"m and v must be 0 or 1, got m={self.m}, v={self.v}")


def hysteresis_update(state: TclState, params: TclParams) -> TclState:
    """Advance the thermostat switch from the current temperature.

    Strictly below the band the unit switches off, strictly above it
    switches on; on the boundaries and inside the band the switch holds.
    Temperature and dispatch flag are untouched.
    """
    m = state.m
    if state.theta < params.theta_min:
        m = 0
    elif state.theta > params.theta_max:
        m = 1
    return replace(state, m=m)


def thermal_step(
    state: TclState,
    params: TclParams,
    theta_ambient: float,
    h: float,
    noise_sample: float = 0.0,
) -> TclState:
    """Advance the temperature one step of h seconds.

    First-order pull toward ambient, offset by the cooling gain while the
    device actually consumes (m*v = 1):

        theta' = a*theta + (1 - a)*(theta_ambient - m*v*P*R) + w

    with a = exp(-h/(C*R)). Switches are not updated here.
    """
    if h <= 0:
        raise ValueError("time step h must be positive")
    a = params.decay(h)
    theta = (
        a * state.theta
        + (1.0 - a) * (theta_ambient - state.m * state.v * params.theta_gain)
        + noise_sample
    )
    return replace(state, theta=theta)


#: Per-TCL parameter arrays of a :class:`Population`, named as in TclParams.
PARAM_FIELDS = tuple(f.name for f in fields(TclParams) if f.name != "id")


class Population:
    """A fixed roster of TCLs sharing one ambient temperature.

    Every per-TCL quantity is a numpy array indexed by TCL id: the
    parameters (float64, named as the fields of :class:`TclParams`) are
    immutable after construction, the thermal/switch state (float64
    ``theta``, boolean ``m`` and ``v``) evolves. The arrays are validated
    with the same rules, and the same message for the first offending TCL,
    as :class:`TclParams` and :class:`TclState`. ``rng_seed`` identifies
    the noise stream owner; the population itself never draws noise,
    callers pass samples in.

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
        rng_seed: int = 0,
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
        self.rng_seed = int(rng_seed)

        self.theta_min = self.theta_set - self.deadband / 2.0
        self.theta_max = self.theta_set + self.deadband / 2.0
        self.theta_gain = self.P * self.R
        self.elec_power = self.P / self.eta

        # Exact negations of the TclParams/TclState checks (NaN compares the
        # same way), so the scalar object built for the first offending TCL
        # raises that TCL's message.
        bad_params = (
            ~((self.C > 0) & (self.R > 0) & (self.P > 0) & (self.eta > 0))
            | ~((0 < self.elec_power) & (self.elec_power < math.inf))
            | (self.deadband <= 0)
            | ~((0.0 <= self.p0) & (self.p0 <= self.p_cap))
            | (self.gamma1 < 0) | (self.gamma2 < 0)
            | ~((0 <= self.noise_std) & (self.noise_std < math.inf))
            | (self.theta_gain <= self.deadband)
        )
        if bad_params.any():
            self._device_params(int(np.argmax(bad_params)))
        bad_states = ((m != 0) & (m != 1)) | ((v != 0) & (v != 1))
        if bad_states.any():
            i = int(np.argmax(bad_states))
            TclState(float(self.theta[i]), m[i].item(), v[i].item())
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

    @classmethod
    def from_devices(
        cls,
        params: Sequence[TclParams],
        states: Sequence[TclState],
        theta_ambient: float,
        rng_seed: int = 0,
        subgroup: Optional[np.ndarray] = None,
    ) -> "Population":
        """Unpack scalar TCL objects, in index order, into a Population.

        The ids of ``params`` are not kept: in a Population the id of a TCL
        is its index.
        """
        return cls(
            **{name: [getattr(p, name) for p in params] for name in PARAM_FIELDS},
            theta=[s.theta for s in states],
            m=[s.m for s in states],
            v=[s.v for s in states],
            theta_ambient=theta_ambient,
            rng_seed=rng_seed,
            subgroup=subgroup,
        )

    def __len__(self) -> int:
        return len(self.theta)

    @property
    def size(self) -> int:
        return len(self.theta)

    @property
    def capacity_kw(self) -> float:
        """Total electrical draw if every TCL consumed at once."""
        return math.fsum(self.elec_power.tolist())

    def _device_params(self, i: int) -> TclParams:
        return TclParams(
            id=i, **{name: float(getattr(self, name)[i]) for name in PARAM_FIELDS}
        )

    @property
    def params(self) -> tuple[TclParams, ...]:
        """Materialize the parameters as scalar objects (id = index)."""
        return tuple(self._device_params(i) for i in range(self.size))

    @property
    def states(self) -> list[TclState]:
        """Materialize the current state as scalar objects (index order)."""
        return [
            TclState(theta=float(t), m=int(m), v=int(v))
            for t, m, v in zip(self.theta, self.m, self.v)
        ]

    def step_terms(self, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-TCL terms ``(a, off, on)`` of a thermal step of h seconds.

        One step is ``theta' = a*theta + (on if m*v else off)`` with
        ``a = exp(-h/(C*R*3600))``, ``off = (1-a)*theta_ambient`` and
        ``on = (1-a)*(theta_ambient - P*R)``: the same operations, in the
        same order, as :func:`thermal_step`. ``a`` is computed element by
        element with math.exp, so the array path matches the scalar
        reference bit for bit.
        """
        terms = self._step_terms.get(h)
        if terms is None:
            exponents = -h / (self.C * self.R * 3600.0)
            a = np.fromiter(map(math.exp, exponents), np.float64, len(exponents))
            pull = 1.0 - a
            terms = (a, pull * self.theta_ambient, pull * (self.theta_ambient - self.theta_gain))
            self._step_terms[h] = terms
        return terms

    def step_physics(self, h: float, noise: Optional[np.ndarray] = None) -> None:
        """One physics step: switches first (from current theta), then theta.

        The switch turns off strictly below the deadband, on strictly above
        it, and holds otherwise (as :func:`hysteresis_update`); ``noise`` is
        degC per TCL (None = 0).
        """
        a, off, on = self.step_terms(h)
        theta = self.theta
        self.m = (theta > self.theta_max) | (self.m & ~(theta < self.theta_min))
        stepped = a * theta
        stepped += np.where(self.m & self.v, on, off)
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


def aggregate_power(population: Population) -> float:
    """Total electrical power drawn right now, kW.

    The exact sum of P/eta over every TCL with both switches on, rounded
    once, so it equals ``math.fsum`` of those values bit for bit and does
    not depend on index order. Each limb row of ``population.power_limbs()``
    is summed over the consuming TCLs with one matrix-vector product: every
    partial sum is an integer below 2**53, so the product is exact in any
    order. The row sums are combined as Python integers, and one integer
    division by ``2**-lo`` rounds the total correctly.
    """
    limbs, lo, width = population.power_limbs()
    row_sums = limbs @ population.consuming().astype(np.float64)
    total = sum(int(s) << (width * j) for j, s in enumerate(row_sums.tolist()))
    return (total << max(lo, 0)) / (1 << max(-lo, 0))
