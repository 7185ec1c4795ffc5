"""Whole-array references for the factor samplers' numpy stream.

Each factor's log draws are formed in plain expressions over whole
rounds, with the rounds and the order of the draws that
``Factor._add_logs`` documents; the in-place kernels must reproduce
them bit for bit and leave the stream where these leave it.
"""

import math

import numpy as np

from stable_msu.factorizations import _HALF, _JOHNK_MIN


def johnk_logs(rng, a, b, n, exponential=False):
    """The logs of n Beta(a, b) draws by Johnk's method, each times a
    standard exponential with ``exponential``: rounds of
    min(_HALF, missing) candidates draw their U's, then their V's, then
    one exponential per kept candidate."""
    logs = []
    missing = n
    with np.errstate(divide="ignore", invalid="ignore"):
        while missing:
            r = min(_HALF, missing)
            lx = np.log(rng.random(r)) / a
            ly = np.log(rng.random(r)) / b
            d = lx - ly
            tail = np.log1p(np.exp(-np.abs(d)))
            keep = (np.maximum(lx, ly) + tail <= 0.0) & np.isfinite(d)
            y = (np.minimum(d, 0.0) - tail)[keep]
            if exponential:
                y = y + np.log(rng.standard_exponential(y.size))
            logs.append(y)
            missing -= y.size
    return np.concatenate(logs) if logs else np.empty(0)


def factor_logs(factor, rng, n):
    """The logs of n draws of ``factor``, as one whole array."""
    if factor.kind == "gamma":
        c, = factor.params
        if _JOHNK_MIN <= c < 1.0:
            return johnk_logs(rng, c, 1.0 - c, n, exponential=True)
        return np.log(rng.gamma(c, 1.0, n))
    a, b = factor.params
    if _JOHNK_MIN <= min(a, b) and max(a, b) <= 1.0:
        return johnk_logs(rng, a, b, n)
    return np.log(rng.beta(a, b, n))


def product_sample(fl, rng, size):
    """FactorList.sample as whole arrays: log(scale) plus each factor's
    log draws in turn, then one exp."""
    n = 1 if size is None else int(np.prod(size))
    logs = np.full(n, math.log(fl.scale))
    for factor in fl.factors:
        logs = logs + factor_logs(factor, rng, n)
    out = np.exp(logs)
    return out[0] if size is None else out.reshape(size)
