"""Demand-curve construction and feeder-constrained clearing.

The clearing tests lean on a brute-force oracle: enumerate every candidate
price level directly from the bid list and pick the outcome the contract
describes. The production code must match it exactly, price and quantity.
"""

import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tclmarket.population import MAX_POWER_EXPONENT_SPAN, LimbTable
from oracle import Bid
from tclmarket.market import (
    DEFAULT_PRICE_TICK,
    ClearingResult,
    build_demand_curve,
    clear,
)


def curve_of(bids):
    """The demand curve of a bid list; bid i sits at array index i."""
    return build_demand_curve(np.array([b.price for b in bids]),
                              LimbTable(np.array([b.quantity for b in bids])))


def points(curve):
    """(price, cumulative demand) per price level, highest price first."""
    return tuple((p, curve.demand(p)) for p in sorted(set(curve.bids.tolist()), reverse=True))


# ----------------------------------------------------------------- the curve

def test_curve_from_three_distinct_bids():
    curve = curve_of([Bid(0, 50.0, 2.0), Bid(1, 30.0, 2.0), Bid(2, 10.0, 2.0)])
    assert points(curve) == ((50.0, 2.0), (30.0, 4.0), (10.0, 6.0))
    assert len(curve) == 3


def test_curve_from_empty_bid_list():
    curve = curve_of([])
    assert points(curve) == ()
    for p in (0.0, 10.0, 100.0):
        assert curve.demand(p) == 0.0


def test_curve_merges_equal_prices():
    curve = curve_of([Bid(0, 30.0, 2.0), Bid(1, 30.0, 3.0)])
    assert points(curve) == ((30.0, 5.0),)
    assert len(curve) == 2   # the number of bids


def test_curve_order_independent():
    bids = [Bid(0, 10.0, 1.0), Bid(1, 50.0, 2.5), Bid(2, 30.0, 0.5), Bid(3, 30.0, 1.5)]
    a = curve_of(bids)
    b = curve_of(list(reversed(bids)))
    assert points(a) == points(b)


def test_curve_takes_a_limb_table_of_the_quantities():
    prices = np.array([30.0, 50.0, 30.0, 10.0])
    table = LimbTable(np.array([1.5, 2.0, 0.5, 2.5]))
    curve = build_demand_curve(prices, table)
    assert curve.bids is prices and curve.table is table
    assert points(curve) == ((50.0, 2.0), (30.0, 4.0), (10.0, 6.5))
    with pytest.raises(ValueError, match="TCL 2: price"):
        build_demand_curve(np.array([30.0, 50.0, -1.0, 10.0]), table)
    with pytest.raises(ValueError, match="aligned"):
        build_demand_curve(np.array([30.0, 50.0]), table)


def test_curve_rejects_quantities_no_limb_table_sums_exactly():
    tiny = 2.0**-971
    # frexp exponents 2 and -970 differ by one more than a table holds
    assert math.frexp(3.0)[1] - math.frexp(tiny)[1] == MAX_POWER_EXPONENT_SPAN + 1
    with pytest.raises(ValueError, match=r"P/eta spans too many binary orders.*"
                       rf"smallest {tiny!r} \(TCL 1\), largest 3\.0 \(TCL 2\); "
                       r"their frexp exponents may differ by at most 971"):
        LimbTable(np.array([1.0, tiny, 3.0]))
    # a span of 971 fits
    curve = build_demand_curve(np.array([10.0, 20.0, 30.0]), LimbTable(np.array([1.0, tiny, 1.5])))
    assert curve.demand(0.0) == 2.5   # the exact 2.5 + tiny, rounded once
    with pytest.raises(ValueError, match=r"P/eta sums past the float64 range.*TCL 0"):
        LimbTable(np.array([1.5e308, 1.5e308]))


def test_curve_rejects_bad_bids():
    def bids_with(i, price, quantity):
        return [Bid(k, 10.0, 2.0) for k in range(i)] + [Bid(i, price, quantity)]

    with pytest.raises(ValueError, match="TCL 7: price"):
        curve_of(bids_with(7, -1.0, 2.0))
    with pytest.raises(ValueError, match="TCL 9: price"):
        curve_of(bids_with(9, float("nan"), 2.0))
    with pytest.raises(ValueError, match="TCL 4: price"):
        curve_of(bids_with(4, math.inf, 2.0))
    with pytest.raises(ValueError, match="aligned"):
        build_demand_curve(np.array([10.0, 20.0]), LimbTable(np.array([2.0])))


def test_demand_lookup_steps_at_breakpoints():
    curve = curve_of([Bid(0, 50.0, 2.0), Bid(1, 30.0, 2.0), Bid(2, 10.0, 2.0)])
    assert curve.demand(60.0) == 0.0
    assert curve.demand(50.0) == 2.0   # at-price bids count
    assert curve.demand(49.0) == 2.0
    assert curve.demand(30.0) == 4.0
    assert curve.demand(10.0) == 6.0
    assert curve.demand(0.0) == 6.0
    assert curve.demand(0.0) == 6.0


# ----------------------------------------------------------------- clearing

def test_clear_unconstrained_settles_at_base():
    curve = curve_of([Bid(0, 50.0, 2.0), Bid(1, 30.0, 2.0), Bid(2, 10.0, 2.0)])
    assert clear(curve, 20.0, 4.0) == ClearingResult(20.0, 4.0, False, 4.0)


def test_clear_constrained_excludes_whole_tie_group():
    curve = curve_of([Bid(0, 50.0, 2.0), Bid(1, 30.0, 2.0), Bid(2, 10.0, 2.0)])
    assert clear(curve, 20.0, 3.0) == ClearingResult(50.0, 2.0, True, 4.0)


def test_clear_no_bids_at_base():
    curve = curve_of([Bid(0, 50.0, 2.0), Bid(1, 30.0, 2.0), Bid(2, 10.0, 2.0)])
    assert clear(curve, 60.0, 6.0) == ClearingResult(60.0, 0.0, False, 0.0)


def test_clear_empty_curve():
    assert clear(curve_of([]), 20.0, 5.0) == ClearingResult(20.0, 0.0, False, 0.0)


def test_clear_everything_exceeds_limit():
    curve = curve_of([Bid(0, 50.0, 4.0), Bid(1, 30.0, 2.0)])
    out = clear(curve, 20.0, 3.0)
    assert out.clearing_price == 50.0 + DEFAULT_PRICE_TICK
    assert out.cleared_demand == 0.0
    assert out.constrained


def test_clear_rejects_a_tick_that_does_not_raise_the_top_price():
    curve = curve_of([Bid(0, 50.0, 4.0), Bid(1, 30.0, 2.0)])
    for tick in (1e-300, np.spacing(50.0) / 2.0, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="does not raise the top bid price"):
            clear(curve, 20.0, 3.0, price_tick=tick)
    out = clear(curve, 20.0, 3.0, price_tick=np.spacing(50.0))
    assert out.clearing_price == np.nextafter(50.0, math.inf)
    assert out.cleared_demand == 0.0
    # a tick too small to matter is harmless when something fits
    assert clear(curve, 20.0, 4.0, price_tick=1e-300).clearing_price == 50.0


def test_clear_validates_preconditions():
    curve = curve_of([Bid(0, 30.0, 2.0)])
    with pytest.raises(ValueError):
        clear(curve, 20.0, 0.0)
    with pytest.raises(ValueError):
        clear(curve, -1.0, 5.0)
    # a NaN passes neither check: it is no positive limit and no base >= 0
    with pytest.raises(ValueError, match="^feeder_limit must be positive$"):
        clear(curve, 20.0, math.nan)
    with pytest.raises(ValueError, match=r"^base_price must be >= 0$"):
        clear(curve, math.nan, 5.0)


def test_cleared_demand_never_exceeds_limit_even_with_many_summands():
    # 10000 quantities of 0.1 sum to a hair over 1000 in naive float; the
    # exact accumulation must still respect the limit
    bids = [Bid(i, 30.0, 0.1) for i in range(10000)]
    curve = curve_of(bids)
    out = clear(curve, 20.0, 1000.0)
    assert out.cleared_demand <= 1000.0


# ------------------------------------------------------------ oracle matching

def oracle_clear(bids, base_price, feeder_limit):
    """Brute-force restatement of the clearing contract."""
    levels = sorted({b.price for b in bids}, reverse=True)

    def demand_at(p):
        return math.fsum(b.quantity for b in bids if b.price >= p)

    base_demand = demand_at(base_price)
    if base_demand <= feeder_limit:
        return (base_price, base_demand, False, base_demand)
    feasible = [p for p in levels if p > base_price and demand_at(p) <= feeder_limit]
    if feasible:
        price = min(feasible)
        return (price, demand_at(price), True, base_demand)
    top = max(levels)
    return (top + DEFAULT_PRICE_TICK, 0.0, True, base_demand)


def random_bid_set(rng):
    n = rng.randint(0, 12)
    bids = []
    for i in range(n):
        # coarse price grid to force plenty of exact ties
        price = rng.choice([0.0, 5.0, 10.0, 10.0, 20.0, 25.0, 30.0, 30.0, 42.5])
        qty = rng.choice([0.5, 1.0, 1.5, 2.0, 5.6])
        bids.append(Bid(i, price, qty))
    return bids


def test_clear_matches_bruteforce_oracle_randomized():
    import random
    rng = random.Random(1234)
    for _ in range(2000):
        bids = random_bid_set(rng)
        base = rng.choice([0.0, 5.0, 9.0, 20.0, 31.0, 50.0])
        feeder = rng.uniform(0.5, 25.0)
        got = clear(curve_of(bids), base, feeder)
        want = oracle_clear(bids, base, feeder)
        assert (got.clearing_price, got.cleared_demand,
                got.constrained, got.base_demand) == want, (bids, base, feeder)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_clear_properties_hold_for_arbitrary_bids(data):
    n = data.draw(st.integers(0, 12))
    bids = [
        Bid(i,
            data.draw(st.floats(0.0, 60.0, allow_nan=False)),
            data.draw(st.floats(0.1, 8.0, allow_nan=False)))
        for i in range(n)
    ]
    base = data.draw(st.floats(0.0, 60.0))
    feeder = data.draw(st.floats(0.1, 40.0))
    curve = curve_of(bids)
    out = clear(curve, base, feeder)
    assert out.cleared_demand <= feeder
    assert out.clearing_price >= base
    assert out.constrained == (out.clearing_price > base)
    # the settled quantity is exactly the curve evaluated at the settle price
    assert out.cleared_demand == curve.demand(out.clearing_price)


# ------------------------------------------------- exact clearing at large n

def test_clear_is_exact_at_large_n_near_the_limit():
    # 12,000 bids at distinct prices with quantities 0.1, 1/3 and jittered
    # values, none exactly representable. A float running sum over the bids
    # by descending price drifts off the exact cumulative demand, so no float
    # sum may decide a level: a feeder limit set exactly at an exact prefix
    # sum, or one ulp either side of it, must be decided by exact totals.
    # The reference sums in rationals.
    rng = np.random.default_rng(2017)
    n = 12_000
    prices = 1.0 + rng.permutation(n) * 0.005
    quantities = rng.choice([0.1, 1 / 3], n)
    jittered = rng.random(n) < 1 / 3
    quantities[jittered] *= rng.uniform(0.5, 1.5, jittered.sum())
    curve = build_demand_curve(prices, LimbTable(quantities))
    assert len(curve) == n

    levels = sorted(prices.tolist(), reverse=True)
    by_price = dict(zip(prices.tolist(), quantities.tolist()))
    cums, total = [], Fraction(0)
    for p in levels:
        total += Fraction(by_price[p])
        cums.append(float(total))
    ascending = levels[::-1]

    def reference_clear(base_price, feeder_limit):
        def demand_at(p):
            k = n - bisect_left(ascending, p)   # levels at or above p
            return cums[k - 1] if k else 0.0

        base_demand = demand_at(base_price)
        if base_demand <= feeder_limit:
            return (base_price, base_demand, False, base_demand)
        feasible = [j for j in range(n) if levels[j] > base_price and cums[j] <= feeder_limit]
        if feasible:
            j = max(feasible)
            return (levels[j], cums[j], True, base_demand)
        return (levels[0] + DEFAULT_PRICE_TICK, 0.0, True, base_demand)

    probes = rng.choice(n, 100, replace=False)
    running = np.cumsum(quantities[np.argsort(prices)[::-1]])   # every price is distinct
    drifted = sum(running[j] != cums[j] for j in probes)
    assert drifted > 0, "the float running sum never left the exact sum"
    for probe, j in enumerate(probes):
        base = 0.0 if probe % 2 else levels[n // 2]
        for feeder in (math.nextafter(cums[j], -math.inf), cums[j],
                       math.nextafter(cums[j], math.inf)):
            got = clear(curve, base, feeder)
            want = reference_clear(base, feeder)
            assert (got.clearing_price, got.cleared_demand,
                    got.constrained, got.base_demand) == want, (j, base, feeder)
            assert got.cleared_demand <= feeder


@pytest.mark.parametrize("base", [0.0, 20.0])
def test_build_and_constrained_clear_allocate_little_beyond_the_table(traced_peak, base):
    n = 100_000
    rng = np.random.default_rng(2)
    prices, quantities = rng.uniform(0.0, 40.0, n), rng.uniform(1.0, 6.0, n)
    limit = 0.3 * math.fsum(quantities.tolist())   # below the demand at either base

    def build_and_clear():
        curve = build_demand_curve(prices, LimbTable(quantities))
        return curve, clear(curve, base, limit)

    (curve, result), peak = traced_peak(build_and_clear)
    assert result.constrained and len(np.unique(prices)) == len(curve) == n
    # the curve refers to the bid prices and quantities given and keeps their
    # table: two limb rows, 16 B per load
    assert curve.bids is prices and curve.table.values is quantities
    assert curve.table.limbs.nbytes == 16 * n
    # measured 33.0 B per load at base 0 and 29.0 at base 20: the table, the
    # sorted prices above the base, and one exact total's masks. Argsorting
    # those bids into levels with a float running sum measured 40.1, a curve
    # that stored every bid sorted into levels 41.04, keeping the running
    # sum through the exact steps 41.03, and compacting both the prices and
    # the running sum into levels at once 50.0
    assert peak <= 34.0 * n


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_clear_matches_exact_sums_on_multi_row_limb_tables(data):
    # Quantities from 2**-300 to 2**300 give the curve's limb table three or
    # more rows, so every level check combines digits across rows. The same
    # prices also clear over a one-value table of the last quantity (a
    # zero-stride view, summed as count x value). Feeder limits sit at each
    # level's exact total rounded, and one ulp either side, so they cover
    # ties at the marginal level and nothing fitting; a NaN limit is
    # rejected. The reference sums in rationals.
    n = data.draw(st.integers(2, 12))
    exponents = [-300, 300] + data.draw(st.lists(st.integers(-300, 300), min_size=n - 2,
                                                 max_size=n - 2))
    mantissas = data.draw(st.lists(st.floats(1.0, 2.0, exclude_max=True), min_size=n,
                                   max_size=n))
    quantities = [math.ldexp(m, e) for m, e in zip(mantissas, exponents)]
    prices = data.draw(st.lists(st.sampled_from([0.0, 5.0, 10.0, 20.0, 30.0, 42.5]),
                                min_size=n, max_size=n))
    levels = sorted(set(prices), reverse=True)
    base = data.draw(st.sampled_from([0.0, 7.5, 20.0, 50.0] + levels))
    limbs = build_demand_curve(np.array(prices), LimbTable(np.array(quantities)))
    one_value = build_demand_curve(np.array(prices), LimbTable(np.broadcast_to(quantities[-1], n)))
    assert len(limbs.table.limbs) >= 3 and one_value.table.value == quantities[-1]

    for curve, bid_quantities in ((limbs, quantities), (one_value, [quantities[-1]] * n)):
        def demand_at(p):
            return float(sum(Fraction(q) for q, b in zip(bid_quantities, prices) if b >= p))

        limits = {f for p in levels
                  for f in (math.nextafter(demand_at(p), -math.inf), demand_at(p),
                            math.nextafter(demand_at(p), math.inf))
                  if f > 0}
        with pytest.raises(ValueError, match="^feeder_limit must be positive$"):
            clear(curve, base, math.nan)
        for feeder in sorted(limits):
            base_demand = demand_at(base)
            if base_demand <= feeder:
                want = (base, base_demand, False, base_demand)
            else:
                fits = [p for p in levels if p > base and demand_at(p) <= feeder]
                want = ((min(fits), demand_at(min(fits)), True, base_demand) if fits
                        else (levels[0] + DEFAULT_PRICE_TICK, 0.0, True, base_demand))
            got = clear(curve, base, feeder)
            assert (got.clearing_price, got.cleared_demand,
                    got.constrained, got.base_demand) == want, (curve.table.value, base, feeder)
            assert got.cleared_demand <= feeder

