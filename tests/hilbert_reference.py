"""Reference for the Hilbert series comparison.

`HilbertSeries.canonical` once cancelled each denominator factor against
the numerator by `list.remove` and validated and sorted its result again,
and two series were compared as their canonical forms.  That form is kept
here as the referee of `HilbertSeries.equals` and of the `Counter`
difference `canonical` now is.
"""

from hesscells import HilbertSeries


def canonical(series: HilbertSeries) -> HilbertSeries:
    """The cancelled form of series, cancelled factor by factor."""
    num = list(series.numerator_factors)
    den = []
    for e in series.denominator_factors:
        if e in num:
            num.remove(e)
        else:
            den.append(e)
    return HilbertSeries(tuple(num), tuple(den))


def same_series(a: HilbertSeries, b: HilbertSeries) -> bool:
    """Whether a and b are one series, by their reference canonical forms."""
    return canonical(a) == canonical(b)
