"""The platform kernels that the golden bytes rest on, each against a pure-Python reference.

The golden hashes (``tests/test_golden.py`` and ``bench/hashes.json``) pin
every CSV byte. Besides plain IEEE arithmetic and exact totals, those bytes
rest on kernels of the platform: ``math.exp`` in the thermal step terms,
numpy's pairwise summation of float64 values (bid price means,
``mean_std``, window means) and of complex128 ones (the phasor sums),
numpy's complex exponential of the sync phasors, its complex-by-real
division and its complex absolute value (the sync index). A libm, numpy
or CPU that moves one of them fails the test named after it here, not
only a hash."""

import math
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np

from tclmarket.cli import BUILTIN_SCENARIOS
from tclmarket.engine import generate_population
from tclmarket.metrics import cycle_phases

#: numpy's pairwise summation block: a run of at most this many values is
#: summed in eight interleaved partial sums, a longer one split in two
PAIRWISE_BLOCK = 128


def test_math_exp_is_correctly_rounded_on_the_builtin_step_terms():
    # every theta depends on a = exp(-h/(C*R*3600)); the reference is the
    # 60-digit decimal exp, rounded once more to the nearest float64
    context = Context(prec=60)
    for name, scenario in BUILTIN_SCENARIOS.items():
        pop = generate_population(scenario.population, scenario.seed)
        h = scenario.h_seconds
        exponents = (-h / (pop.C * pop.R * 3600.0)).tolist()
        expected = [float(context.exp(Decimal(x))) for x in exponents]
        assert pop.step_terms(h)[0].tolist() == expected, name


def _tree(values: list) -> float:
    """``((a + b) + (c + d)) + ...``: the sum of 2**k values as a balanced tree."""
    if len(values) == 1:
        return values[0]
    half = len(values) // 2
    return _tree(values[:half]) + _tree(values[half:])


def pairwise_sum(values: list, start: int, n: int, lanes: int = 1) -> list:
    """numpy's pairwise sums of ``values[start:start + n]``, in Python floats.

    ``lanes`` sums run interleaved: 1 for float64 values, 2 for the real
    and imaginary parts of complex128 values viewed as float64 (``n`` then
    counts float64 values). Either way numpy splits and blocks the run of
    float64 values alike; a block's eight partial sums hold ``8 / lanes``
    partials of each lane, which end in a balanced tree per lane.
    """
    if n < 8:
        totals = [-0.0] * lanes
        for i in range(n):
            totals[i % lanes] += values[start + i]
        return totals
    if n <= PAIRWISE_BLOCK:
        partial = values[start : start + 8]
        for i in range(start + 8, start + n - n % 8, 8):
            partial = [p + x for p, x in zip(partial, values[i : i + 8])]
        totals = [_tree(partial[lane::lanes]) for lane in range(lanes)]
        for i in range(n - n % 8, n):
            totals[i % lanes] += values[start + i]
        return totals
    half = n // 2
    half -= half % 8
    return [a + b for a, b in zip(pairwise_sum(values, start, half, lanes),
                                  pairwise_sum(values, start + half, n - half, lanes))]


def numpy_sum(values: list, lanes: int = 1) -> list:
    """The add identity plus the pairwise sums of float64 values (see :func:`pairwise_sum`)."""
    return [0.0 + total for total in pairwise_sum(values, 0, len(values), lanes)]


#: lengths 1..300 cover the unrolled block and its first splits; the
#: lengths around each doubling of the block cover deeper splits
SUM_LENGTHS = sorted(
    set(range(1, 301)) | {1000, 4097, 12345, 65536, 100_000}
    | {(PAIRWISE_BLOCK << k) + d for k in range(1, 10) for d in (-9, -8, -1, 0, 1, 8, 9)})


def _spread(rng, shape) -> np.ndarray:
    # magnitudes over six decades, so the order of the additions shows
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape)


def test_float64_sums_follow_the_pairwise_tree():
    rng = np.random.default_rng(7)
    for n in SUM_LENGTHS:
        x = _spread(rng, n)
        assert [x.sum()] == numpy_sum(x.tolist()), n
        rows = _spread(rng, (3, n))
        assert rows.sum(axis=1).tolist() == [numpy_sum(row)[0] for row in rows.tolist()], n
    # the add identity turns a sum of -0.0 into +0.0
    assert math.copysign(1.0, np.full(9, -0.0).sum()) == 1.0
    assert math.copysign(1.0, numpy_sum([-0.0] * 9)[0]) == 1.0


def test_complex128_sums_follow_the_pairwise_tree():
    # the phasor sums: real and imaginary parts in interleaved accumulators
    rng = np.random.default_rng(8)
    for n in SUM_LENGTHS:
        z = _spread(rng, n) + 1j * _spread(rng, n)
        total = z.sum()
        assert [total.real, total.imag] == numpy_sum(z.view(np.float64).tolist(), 2), n


def test_complex_by_real_division_multiplies_by_the_reciprocal():
    # the phasor mean divides a complex128 sum by the load count: numpy
    # divides as Smith's algorithm does for a zero imaginary part, with
    # one rounded reciprocal, which differs from dividing each part
    rng = np.random.default_rng(9)
    for n in [1, 3, 7, 10, 49, 1000, 12345, 100_000]:
        for total in (_spread(rng, 200) + 1j * _spread(rng, 200)).tolist():
            mean = np.complex128(total) / n
            assert [mean.real, mean.imag] == [total.real * (1.0 / n), total.imag * (1.0 / n)], n


def complex_abs(z: complex) -> float:
    """numpy's ``np.abs`` of a complex128: ``larger * sqrt(1 + ratio**2)``, with the
    square and the add fused into one rounding (an exact ``Fraction``), for
    finite parts not both zero."""
    larger, smaller = sorted((abs(z.real), abs(z.imag)), reverse=True)
    ratio = smaller / larger
    return larger * math.sqrt(float(Fraction(ratio) ** 2 + 1))


def test_complex_abs_is_the_fused_scaled_hypot():
    # the sync index is |phasor mean|. numpy's complex absolute is not
    # libm's hypot: its SIMD kernel scales by the larger part and fuses
    # ratio*ratio + 1 on a CPU with FMA, which rounds otherwise without it
    rng = np.random.default_rng(10)
    values = (_spread(rng, 20_000) + 1j * _spread(rng, 20_000)).tolist()
    for scenario in BUILTIN_SCENARIOS.values():
        pop = generate_population(scenario.population, scenario.seed)
        phasors = np.exp(1j * cycle_phases(pop.theta, pop.m, pop.theta_min, pop.theta_max))
        values.append(complex(phasors.sum() / len(phasors)))
    z = np.array(values)
    assert np.abs(z).tolist() == [complex_abs(v) for v in values]
    assert [float(np.abs(v)) for v in z[-100:]] == [complex_abs(v) for v in values[-100:]]


def test_complex_exp_of_phases_is_cos_and_sin():
    # the sync phasors are exp(1j*phase): cos and sin of each phase, unrounded further
    rng = np.random.default_rng(3)
    phases = [rng.uniform(0.0, 2.0 * np.pi, 100_000),
              np.array([0.0, 5e-324, 1e-8, np.pi / 2, np.pi, 1.5 * np.pi,
                        math.nextafter(2.0 * np.pi, 0.0)])]
    for scenario in BUILTIN_SCENARIOS.values():
        pop = generate_population(scenario.population, scenario.seed)
        phases.append(cycle_phases(pop.theta, pop.m, pop.theta_min, pop.theta_max))
    phases = np.concatenate(phases)
    phasors = np.exp(1j * phases)
    assert phasors.real.tolist() == [math.cos(p) for p in phases.tolist()]
    assert phasors.imag.tolist() == [math.sin(p) for p in phases.tolist()]
