"""Feeder-constrained market clearing over an aggregate demand curve.

The coordinator gathers anonymous (price, quantity) bids: an array of bid
prices and the limb table of the quantities, the population's exact
summer of its loads' P/eta (:class:`~tclmarket.population.LimbTable`),
so the demand at any price is one exact total of the table. The market
settles at the broadcast base price whenever the demand there fits under
the feeder capacity. Only when it does not does the clearing price rise
to the cheapest bid price above the base whose demand still respects the
limit, and everyone below that price is priced out.
Supply below the cap is treated as unlimited — the feeder is the only
constraint, and no network structure is modeled.

Dispatch downstream is all-or-nothing per price level (a device consumes
iff its bid is at or above the clearing price), so a marginal group of
equal-price bids that would overshoot the limit is excluded as a whole.
The feeder limit is therefore never exceeded, at the cost of occasionally
leaving headroom unused.

Every quantity the market reports or compares against the limit is an
exact total of the table, rounded once, so `cleared_demand <=
feeder_limit` and what follows from it hold without tolerance.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .population import LimbTable

__all__ = ["DemandCurve", "ClearingResult", "build_demand_curve", "clear"]

#: Price increment above the top bid used when nothing at all fits ($/MWh).
DEFAULT_PRICE_TICK = 0.01


@dataclass(frozen=True, eq=False)
class DemandCurve:
    """Aggregate demand over the bids: their prices and their quantities' table.

    ``bids`` is the caller's array of bid prices (not a copy: the curve
    holds while it is unchanged) and ``table`` the limb table of the bid
    quantities in the same order. Every demand is one exact total of the
    table; :func:`clear` sorts the bid prices above the base only when the
    feeder limit binds.
    """

    bids: np.ndarray
    table: LimbTable

    def __len__(self) -> int:
        """The number of bids."""
        return len(self.bids)

    def demand(self, price: float) -> float:
        """Exact total quantity bid at or above ``price``, kW; a NaN price excludes no bid."""
        selected = ~(self.bids < price)   # one mask row; count_nonzero(keepdims=True) is slower
        return self.table.total(selected[None], np.array([np.count_nonzero(selected)])).item()


@dataclass(frozen=True)
class ClearingResult:
    """Outcome of one clearing: settled price/quantity plus diagnostics."""

    clearing_price: float
    cleared_demand: float
    constrained: bool
    base_demand: float


def build_demand_curve(prices: np.ndarray, table: LimbTable) -> DemandCurve:
    """The demand curve of bids at ``prices`` offering the values of ``table``.

    ``prices`` is a 1-D float64 array aligned with ``table.values``; the
    table's constructor has checked the quantities, so only the prices are
    checked here. Zero-price bids stay on the curve (they clear only at a
    clearing price of zero). A bad price is reported by its index, which is
    the bidding TCL's id.
    """
    if prices.shape != table.values.shape or prices.ndim != 1:
        raise ValueError(
            f"prices {prices.shape} and quantities {table.values.shape} "
            "must be aligned 1-D arrays"
        )
    # a NaN fails both comparisons
    if not (prices.min(initial=0.0) >= 0 and prices.max(initial=0.0) < math.inf):
        i = int(np.argmax(~(np.isfinite(prices) & (prices >= 0))))
        raise ValueError(f"bid from TCL {i}: price must be finite and >= 0")
    return DemandCurve(prices, table)


def clear(
    curve: DemandCurve,
    base_price: float,
    feeder_limit: float,
    price_tick: float = DEFAULT_PRICE_TICK,
) -> ClearingResult:
    """Settle the market against the feeder capacity.

    If the demand at the base price fits under ``feeder_limit`` the market
    clears there, unconstrained. Otherwise the clearing price is the lowest
    bid price above the base whose demand fits, found by bisecting the
    sorted bid prices on the exact demand; if even the top bid price
    overshoots the limit, the price is set one tick above every bid and
    nothing clears. Either way, dispatching exactly the bids at or above
    the returned price yields ``cleared_demand``, and ``cleared_demand <=
    feeder_limit`` always.
    Raises ValueError for a ``feeder_limit`` that is not positive or a
    ``base_price`` below 0 (either NaN included), and when nothing fits and
    the top bid price plus ``price_tick`` does not exceed it (a tick below
    the float spacing there), since every bid would then still be
    dispatched.
    """
    if not feeder_limit > 0:
        raise ValueError("feeder_limit must be positive")
    if not base_price >= 0:
        raise ValueError("base_price must be >= 0")
    base_demand = curve.demand(base_price)
    if base_demand <= feeder_limit:
        return ClearingResult(base_price, base_demand, False, base_demand)
    # The exact demand falls as the price rises, so over the sorted bid
    # prices above the base the test "fits" runs False...True, and bisection
    # finds the cheapest price that fits in one exact total per halving.
    # Equal prices share a verdict, so a tie group is kept or shed whole.
    levels = curve.bids[~(curve.bids <= base_price)]
    levels.sort()
    i = bisect_left(levels, True, key=lambda price: curve.demand(price) <= feeder_limit)
    if i < len(levels):
        price = float(levels[i])
        return ClearingResult(price, curve.demand(price), True, base_demand)
    top = float(curve.bids.max(initial=0.0))
    if not top + price_tick > top:
        raise ValueError(
            f"price_tick ({price_tick!r}) does not raise the top bid price "
            f"({top!r}): nothing fits, and the price that sheds "
            "every bid must lie above all of them"
        )
    return ClearingResult(top + price_tick, 0.0, True, base_demand)
