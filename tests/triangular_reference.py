"""Reference for the triangularity condition the analysis no longer checks.

`hesscells.groebner.triangular_analysis` once also scanned every pair of
ordered generators for an initial variable that divides a term of a later
generator.  Under a lex order that condition follows from the other two
(the analysis's docstring says why), so the scan was dropped from src; it
is kept here as the referee of that argument.
"""


def later_divisions(rep) -> list:
    """(x, j) for each initial variable x of an ordered generator i and
    each later generator j > i with a term that x divides."""
    gens = [g for _, _, g in rep.ordered_generators]
    found = []
    for i, (_, var) in enumerate(rep.initial_terms):
        if var is None:
            continue
        found += [(var, j) for j in range(i + 1, len(gens))
                  if any(mono.exponent(var) for mono in gens[j].terms)]
    return found
