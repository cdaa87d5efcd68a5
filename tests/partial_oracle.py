"""A frozen copy of the one-parameter partial-likelihood estimator as it was
before its per-cohort path was trimmed: the Breslow table, the l, l', l''
evaluation and the Newton iteration, written with plain array expressions.

The library's `LocalAlphaFunctional.detail` must reproduce it bit for bit;
do not edit this copy to follow the library.
"""

import math

import numpy as np

from cohortmetric.survival import ALPHA_CAP, LocalEffectEstimate


def breslow_table(t, events, treatments):
    ev = events == 1
    te = t[ev]
    if not te.size:
        return None
    first = np.empty(te.size, dtype=bool)
    first[0] = True
    np.not_equal(te[1:], te[:-1], out=first[1:])
    group = np.flatnonzero(first)
    bounds = np.append(group, te.size)
    uniq = te[group]
    start = np.searchsorted(t, uniq, side="left")
    treated_suffix = np.cumsum(treatments[::-1])[::-1]
    return {
        "times": uniq,
        "d": (bounds[1:] - bounds[:-1]).astype(float),
        "d1": np.add.reduceat(treatments[ev], group).astype(float),
        "r": (t.size - start).astype(float),
        "r1": treated_suffix[start].astype(float),
    }


def loglik_terms(alpha, d, d1, r, r1):
    r0 = r - r1
    if alpha >= 0:
        e = np.exp(-alpha)
        den = r1 + r0 * e
        log_denom = alpha + np.log(den)
        frac = r1 / den
    else:
        e = np.exp(alpha)
        den = r0 + r1 * e
        log_denom = np.log(den)
        frac = r1 * e / den
    l = float(np.add.reduce(alpha * d1 - d * log_denom))
    lp = float(np.add.reduce(d1 - d * frac))
    lpp = float(-np.add.reduce(d * frac * (1.0 - frac)))
    return l, lp, lpp


def partial_estimate(n0, n1, counts, balance_threshold):
    size = n0 + n1
    balanced = size > 0 and max(n0, n1) <= balance_threshold * size
    if counts is None or n0 == 0 or n1 == 0:
        return LocalEffectEstimate(np.nan, n0, n1, "partial", balanced=balanced, defined=False)
    d, d1, r, r1 = counts["d"], counts["d1"], counts["r"], counts["r1"]
    score_plus = float((d1 - d * (r1 > 0)).sum())
    score_minus = float((d1 - d * (r1 == r)).sum())
    if score_plus >= 0:
        return LocalEffectEstimate(
            np.inf, n0, n1, "partial", balanced=balanced, defined=False, diverged=True)
    if score_minus <= 0:
        return LocalEffectEstimate(
            -np.inf, n0, n1, "partial", balanced=balanced, defined=False, diverged=True)
    alpha = 0.0
    l, lp, lpp = loglik_terms(alpha, d, d1, r, r1)
    lo, hi = -ALPHA_CAP - 5, ALPHA_CAP + 5
    for _ in range(100):
        if not math.isfinite(lp) or abs(lp) < 1e-12:
            break
        if not math.isfinite(lpp) or lpp >= 0:
            break
        step = -lp / lpp
        new_alpha = min(max(alpha + step, lo), hi)
        new_l, new_lp, new_lpp = loglik_terms(new_alpha, d, d1, r, r1)
        halvings = 0
        while not (new_l >= l - 1e-12) and halvings < 50:
            new_alpha = alpha + 0.5 * (new_alpha - alpha)
            new_l, new_lp, new_lpp = loglik_terms(new_alpha, d, d1, r, r1)
            halvings += 1
        if abs(new_alpha - alpha) < 1e-13:
            break
        alpha, l, lp, lpp = new_alpha, new_l, new_lp, new_lpp
        if abs(alpha) > ALPHA_CAP:
            sign = 1.0 if alpha > 0 else -1.0
            return LocalEffectEstimate(
                sign * np.inf, n0, n1, "partial", balanced=balanced, defined=False, diverged=True)
    se = math.sqrt(-1.0 / lpp) if lpp < 0 else np.nan
    return LocalEffectEstimate(float(alpha), n0, n1, "partial", se=se, balanced=balanced)


def cohort_estimate(records, indices, balance_threshold):
    """The estimate on records[indices], from the cohort's columns sorted by time."""
    idx = np.asarray(indices, dtype=int)
    order = np.argsort(records.times[idx], kind="mergesort")
    t, events, treatments = (col[idx][order] for col in
                             (records.times, records.events, records.treatments))
    n1 = int(treatments.sum())
    return partial_estimate(idx.size - n1, n1, breslow_table(t, events, treatments),
                            balance_threshold)
