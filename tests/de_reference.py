"""The exp-sinh rule of stable_msu.quadrature as it was before each run
of levels was summed in one reduceat: one integrand call and one
np.add.reduce per level, and the stopping test after each level.  Kept
as the reference whose levels the rule must take, and whose values and
error estimates it must give to within a few ulps (the sums add in
another order)."""

import math

import numpy as np

from stable_msu import quadrature as quad


def de_halfline(f, rel_tol=1e-10, max_level=10):
    """Lists of each row's value, error and level for f's rows (f
    returns a (k, n) array) over (0, inf)."""
    with np.errstate(all="ignore"):
        for level in range(max_level + 1):
            nodes = quad._nodes(level)
            terms = f(nodes.half_x) * nodes.half_w
            # a non-finite weighted value counts as 0 in its own row
            terms = np.where(np.isfinite(terms), terms, 0.0)
            sums = np.add.reduce(terms, axis=1).tolist()
            if level == 0:
                totals, values = list(sums), list(sums)
                errors, levels = [math.inf] * len(sums), [0] * len(sums)
                running = range(len(sums))
                continue
            for i in running:
                totals[i] += sums[i]
                new = totals[i] * 0.5 ** level
                errors[i] = (abs(new - values[i]) if math.isfinite(new)
                             else math.inf)
                values[i], levels[i] = new, level
            running = [i for i in running
                       if not (math.isfinite(values[i]) and errors[i]
                               <= rel_tol * (abs(values[i]) + 1e-300))]
            if not running:
                break
    return values, errors, levels
