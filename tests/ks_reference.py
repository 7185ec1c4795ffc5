"""Exhaustive references for the pruned KS core.

``ks_one_stat`` evaluates the CDF and both step gaps at every sorted
point, one block at a time; ``merged_gap`` merges every value of two
sorted samples a piece at a time.  The core in ``verify`` evaluates
only the pieces that can hold the maximum, and reads the two-sample
statistic against an empirical CDF without merging; both statistics
must equal these bit for bit.
"""

import numpy as np

from stable_msu.factorizations import _BLOCK, _HALF


def ks_one_stat(s, cdf):
    """max over k of (k+1)/n - F(s_k) and F(s_k) - k/n, with F = cdf
    clipped to [0, 1], for the sorted flat sample s of n values."""
    n = s.size
    worst = []
    for lo in range(0, n, _BLOCK):
        sb = s[lo:lo + _BLOCK]
        f = np.clip(np.asarray(cdf(sb), dtype=float), 0.0, 1.0)
        # steps[k] = (lo + k)/n: the empirical CDF is steps[1:] just
        # after each sorted sample and steps[:-1] just before
        steps = np.arange(lo, lo + sb.size + 1, dtype=float)
        steps /= n
        worst.append(np.max(steps[1:] - f))
        worst.append(np.max(f - steps[:-1]))
    return float(np.max(worst))


def merged_gap(a, b):
    """max |F_a - F_b| over the values of two sorted flat samples.

    A piece takes, of the next ``_HALF`` values of each sample, those
    below the smaller of the two blocks' last values; a stable argsort
    merges it, and running counts give both ranks at the last copy of
    each value.  When no value lies below that cut, its copies are
    counted in each sample by one binary search.
    """
    n, m = a.size, b.size
    half = _HALF
    piece = np.empty(2 * half)
    merged = np.empty_like(piece)
    ranks = np.arange(1.0, 2 * half + 1.0)
    last = np.empty(2 * half, dtype=bool)
    worst = 0.0
    i = j = 0
    while i < n or j < m:
        cut = min(s[min(lo + half, s.size) - 1]
                  for s, lo in ((a, i), (b, j)) if lo < s.size)
        ka = int(np.searchsorted(a[i:i + half], cut))
        kb = int(np.searchsorted(b[j:j + half], cut))
        if ka == kb == 0:
            i += int(np.searchsorted(a[i:], cut, side="right"))
            j += int(np.searchsorted(b[j:], cut, side="right"))
            worst = max(worst, abs(i / n - j / m))
            continue
        k = ka + kb
        p = piece[:k]
        p[:ka] = a[i:i + ka]
        p[ka:] = b[j:j + kb]
        order = np.argsort(p, kind="stable")
        values = np.take(p, order, out=merged[:k], mode="clip")
        at_last = last[:k]
        np.not_equal(values[:-1], values[1:], out=at_last[:-1])
        at_last[-1] = True
        ca = np.less(order, ka, out=p)
        np.cumsum(ca, out=ca)
        cb = np.subtract(ranks[:k], ca, out=values)
        ca += i
        cb += j
        gap = np.divide(ca, n, out=ca)
        gap -= np.divide(cb, m, out=cb)
        np.abs(gap, out=gap)
        worst = max(worst, float(np.max(gap, where=at_last, initial=0.0)))
        i += ka
        j += kb
    return worst
