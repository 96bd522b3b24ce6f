"""Killed continuous-time chain simulation, occupation fields and bridges.

A path from x holds at each state for an exponential time with that
state's rate, then jumps along a row of the jump matrix or is killed with
the row's deficit; killing is almost sure.  One stepping kernel advances a
batch of paths in lockstep and hands every sojourn to its consumer:
occupation fields scatter-add holding times divided by the reference
measure, and the bridge accumulator realises the local-time-weighted path
measure: along each path from x, every stay at y of length tau contributes
``(1/m_y) * int_0^tau F(field + u e_y / m_y) du`` with ``field`` the
running occupation field (plus an optional per-path offset).  Paths depend
only on (start, count, seed), so `bridge_targets` evaluates any number of
(y, functional, offsets) targets in lockstep on one walk, and each suite
walks each of its path sets once; `bridge_values` is its one-target case.
A bridge functional must provide that sojourn integral in closed form as
``sojourn_integral(field, y, tau, m_y)``, as `ExpField`, `ProductField` and
`MonomialField` do; `bridge_targets` rejects any other functional with
`ValueError` before it walks.  Every walk is bounded by ``MAX_JUMPS``
sojourns and raises `NumericalError` beyond it.

Replication is deterministic: batches have a fixed size and every batch
draws from its own counter-based stream, so identical (seed, count) give
bit-identical results and replicas may run in parallel.
"""

from __future__ import annotations

import numpy as np

from .chain import DualPair, NumericalError
from .seeding import rng_stream

__all__ = ["bridge_targets", "bridge_values", "occupation_batch"]

BATCH = 1 << 15  # fixed so results depend only on (seed, count)
MAX_JUMPS = 1_000_000  # sojourns per path before a walk gives up


def _walk(dp: DualPair, start: int, b: int, rng):
    """Step ``b`` killed paths from ``start`` in lockstep until all are killed.

    Yields ``(rows, states, taus)`` per step: the indices of the live
    paths, their current states and the holding times just drawn.  Each
    step draws the holds of the live paths, then one uniform per live path
    for the jump; a path whose uniform passes its row's total is killed.
    """
    cum = np.cumsum(dp.pi, axis=1)
    rows = np.arange(b)
    states = np.full(b, start, dtype=int)
    for _ in range(MAX_JUMPS):
        if rows.size == 0:
            return
        taus = rng.exponential(1.0 / dp.q[states])
        yield rows, states, taus
        nxt = (rng.random(rows.size)[:, None] >= cum[states]).sum(axis=1)
        live = nxt < dp.n
        rows, states = rows[live], nxt[live]
    if rows.size:
        raise NumericalError("path did not terminate; jump matrix too close to stochastic")


def _batches(count: int, seed: int, stream: str):
    """(offset, size, generator) per fixed-size batch, each on its own stream."""
    for idx, lo in enumerate(range(0, count, BATCH)):
        yield lo, min(BATCH, count - lo), rng_stream(seed, stream, idx)


def occupation_batch(dp: DualPair, start: int, count: int, seed: int):
    """Occupation fields of ``count`` paths from ``start``: (count, n) array, lifetimes."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 0 <= int(start) < dp.n:
        raise ValueError("states out of range")
    fields = np.zeros((count, dp.n))
    lives = np.zeros(count)
    for lo, b, rng in _batches(count, seed, "occupation-batch"):
        times, life = fields[lo : lo + b], lives[lo : lo + b]
        for rows, states, taus in _walk(dp, int(start), b, rng):
            times[rows, states] += taus
            life[rows] += taus
    fields /= dp.m
    return fields, lives


def bridge_targets(dp: DualPair, x: int, targets, count: int, seed: int) -> list:
    """Per-path bridge accumulations of several targets on one walk from x.

    ``targets`` is a sequence of ``(y, functional, offsets)``; the result
    holds one (count,) array per target, each bit-identical to its own
    `bridge_values` call.  Targets that pass the same ``offsets`` object (or
    ``None``) share one running field.  A batch keeps its fields in one
    (fields, paths, n) array that each step updates with one scatter-add, so
    every field receives its holding times in the same order as on a walk of
    its own.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 0 <= int(x) < dp.n:
        raise ValueError("states out of range")
    groups, plan = [], []  # distinct offsets objects, compared by identity
    for y, functional, offsets in targets:
        if not 0 <= int(y) < dp.n:
            raise ValueError("states out of range")
        if not any(o is offsets for o in groups):
            groups.append(offsets)
        group = next(g for g, o in enumerate(groups) if o is offsets)
        sojourn = getattr(functional, "sojourn_integral", None)
        if sojourn is None:
            raise ValueError(f"{type(functional).__name__} has no sojourn_integral")
        plan.append((int(y), sojourn, group))
    starts = [None if o is None else np.asarray(o, dtype=float) for o in groups]
    if any(o is not None and o.shape != (count, dp.n) for o in starts):
        raise ValueError(f"offsets must be (count, {dp.n})")
    outs = [np.zeros(count) for _ in plan]
    for lo, b, rng in _batches(count, seed, "bridge-batch"):
        fields = np.zeros((len(starts), b, dp.n))
        for g, o in enumerate(starts):
            if o is not None:
                fields[g] = o[lo : lo + b]
        accs = [out[lo : lo + b] for out in outs]
        for rows, states, taus in _walk(dp, int(x), b, rng):
            for acc, (y, sojourn, group) in zip(accs, plan):
                here = states == y
                if here.any():
                    at = rows[here]
                    acc[at] += sojourn(fields[group, at], y, taus[here], dp.m[y])
            fields[:, rows, states] += taus / dp.m[states]
    return outs


def bridge_values(
    dp: DualPair,
    x: int,
    y: int,
    functional,
    count: int,
    seed: int,
    offsets=None,
) -> np.ndarray:
    """Per-path bridge accumulations for ``count`` paths from x weighted at y.

    ``offsets`` (count, n), when given, shifts the field seen by the
    functional path by path; the sample mean is then an unbiased estimator
    of the bridge integral of ``F(l + offset)``.
    """
    return bridge_targets(dp, x, [(y, functional, offsets)], count, seed)[0]
