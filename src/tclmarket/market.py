"""Feeder-constrained market clearing over an aggregate demand curve.

The coordinator gathers anonymous (price, quantity) bids as two aligned
arrays, sorts them into a descending-price step function, and settles at
the broadcast base price whenever the demand at that price fits under the
feeder capacity. When it does not fit, the clearing price rises to the
cheapest bid level whose cumulative demand still respects the limit, and
everyone below that level is priced out. Supply below the cap is treated
as unlimited — the feeder is the only constraint, and no network structure
is modeled.

Dispatch downstream is all-or-nothing per price level (a device consumes
iff its bid is at or above the clearing price), so a marginal group of
equal-price bids that would overshoot the limit is excluded as a whole.
The feeder limit is therefore never exceeded, at the cost of occasionally
leaving headroom unused.

A float running sum only locates the candidate level. Every quantity the
market reports or compares against the limit is the exact sum of the bids
involved, rounded once: a total of the quantities' limb table
(:class:`~tclmarket.population.LimbTable`, the package's one exact summer),
so `cleared_demand <= feeder_limit` and what follows from it hold without
tolerance. The caller may pass that table in place of the quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .population import LimbTable, check_exact_sum

__all__ = ["DemandCurve", "ClearingResult", "build_demand_curve", "clear"]

#: Price increment above the top bid used when nothing at all fits ($/MWh).
DEFAULT_PRICE_TICK = 0.01


@dataclass(frozen=True, eq=False)
class DemandCurve:
    """Aggregate demand as descending-price levels over the bids.

    ``prices`` holds the distinct bid prices, strictly decreasing, and
    ``approx_cumulative[k]`` the float running sum of the quantities bid at
    or above ``prices[k]``: close to, but not always equal to, the exact
    demand. ``bids`` is the caller's array of bid prices (not a copy: the
    curve holds while it is unchanged) and ``table`` the limb table of the
    bid quantities in the same order; every exact demand is one total of it.
    """

    prices: np.ndarray
    approx_cumulative: np.ndarray
    bids: np.ndarray
    table: LimbTable

    def __len__(self) -> int:
        return len(self.prices)

    @property
    def max_price(self) -> float:
        """Highest bid price on the curve; 0.0 for an empty curve."""
        return float(self.prices[0]) if len(self) else 0.0

    def demand(self, price: float) -> float:
        """Exact total quantity bid at or above ``price``, kW; a NaN price excludes no bid."""
        return self.table.total(~(self.bids < price))


@dataclass(frozen=True)
class ClearingResult:
    """Outcome of one clearing: settled price/quantity plus diagnostics."""

    clearing_price: float
    cleared_demand: float
    constrained: bool
    base_demand: float

    @staticmethod
    def unconstrained(base_price: float, base_demand: float) -> "ClearingResult":
        """The outcome when the demand at the base price fits: settle there."""
        return ClearingResult(base_price, base_demand, False, base_demand)


def build_demand_curve(prices, quantities) -> DemandCurve:
    """Stack bids, given as aligned price and quantity arrays, into a curve.

    Equal-price bids merge into one level. Zero-price bids stay on the
    curve (they clear only at a clearing price of zero). A bad bid is
    reported by its index, which is the bidding TCL's id. ``quantities``
    may also be a :class:`LimbTable` of the quantities, which the curve then
    uses as it is.
    """
    prices = np.asarray(prices, dtype=np.float64)
    table = quantities if isinstance(quantities, LimbTable) else None
    quantities = np.asarray(quantities, dtype=np.float64) if table is None else table.values
    if prices.shape != quantities.shape or prices.ndim != 1:
        raise ValueError(
            f"prices {prices.shape} and quantities {quantities.shape} "
            "must be aligned 1-D arrays"
        )
    bad_price = ~(np.isfinite(prices) & (prices >= 0))
    bad = bad_price | ~(np.isfinite(quantities) & (quantities > 0))
    if bad.any():
        i = int(np.argmax(bad))
        why = "price must be finite and >= 0" if bad_price[i] else "quantity must be finite and > 0"
        raise ValueError(f"bid from TCL {i}: {why}")
    if table is None:
        check_exact_sum(quantities, "quantity", "bid from TCL {}")
    # Each intermediate is dropped as soon as the curve has taken what it
    # keeps from it; a new table is built last, beside the curve alone.
    order = np.argsort(-prices)
    approx_cumulative = np.cumsum(quantities[order])
    levels = prices[order]
    del order
    level_end = np.ones(len(levels), dtype=bool)  # last bid of its price level
    np.not_equal(levels[1:], levels[:-1], out=level_end[:-1])
    last = np.flatnonzero(level_end)
    del level_end
    levels = levels[last]
    approx_cumulative = approx_cumulative[last]
    del last
    return DemandCurve(prices=levels, approx_cumulative=approx_cumulative, bids=prices,
                       table=LimbTable(quantities) if table is None else table)


def clear(
    curve: DemandCurve,
    base_price: float,
    feeder_limit: float,
    price_tick: float = DEFAULT_PRICE_TICK,
) -> ClearingResult:
    """Settle the market against the feeder capacity.

    If the demand at the base price fits under ``feeder_limit`` the market
    clears there, unconstrained. Otherwise the clearing price is the lowest
    breakpoint price above the base whose cumulative demand fits; if even
    the top price level overshoots the limit, the price is set one tick
    above every bid and nothing clears. Either way, dispatching exactly the
    bids at or above the returned price yields ``cleared_demand``, and
    ``cleared_demand <= feeder_limit`` always. Raises ValueError when
    nothing fits and ``max_price + price_tick`` does not exceed
    ``max_price`` (a tick below the float spacing there), since every bid
    would then still be dispatched.
    """
    if feeder_limit <= 0:
        raise ValueError("feeder_limit must be positive")
    if base_price < 0:
        raise ValueError("base_price must be >= 0")
    base_demand = curve.demand(base_price)
    if base_demand <= feeder_limit:
        return ClearingResult.unconstrained(base_price, base_demand)
    above_base = len(curve) - int(np.count_nonzero(curve.prices <= base_price))

    def demand_of(levels: int) -> float:   # exact demand of the top levels
        return curve.demand(curve.prices[levels - 1]) if levels else 0.0

    # The float running sum picks the candidate level; the exact sums
    # decide, stepping down past levels it let through and up past levels
    # it held back. Comparisons count rather than bisect so that a NaN
    # limit admits no level and a NaN base excludes none.
    levels = int(np.count_nonzero(curve.approx_cumulative[:above_base] <= feeder_limit))
    cleared = demand_of(levels)
    while levels > 0 and cleared > feeder_limit:
        levels -= 1
        cleared = demand_of(levels)
    while levels < above_base and (deeper := demand_of(levels + 1)) <= feeder_limit:
        levels, cleared = levels + 1, deeper
    if levels:
        return ClearingResult(float(curve.prices[levels - 1]), cleared, True, base_demand)
    above_every_bid = curve.max_price + price_tick
    if not above_every_bid > curve.max_price:
        raise ValueError(
            f"price_tick ({price_tick!r}) does not raise the top bid price "
            f"({curve.max_price!r}): nothing fits, and the price that sheds "
            "every bid must lie above all of them"
        )
    return ClearingResult(above_every_bid, 0.0, True, base_demand)
