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
sojourns: a start whose expected count e_x (I - pi)^{-1} 1 reaches it is
refused with `NumericalError` before any draw, and a walk that still runs
past it raises the same.  Jumps are found by bisection (`_walk`), which
takes each path to the state a linear search over its row takes it to
from the same uniform, so streams and paths are the linear search's.
Holds are standard exponentials times ``1/q`` formed once per walk, the
draws of numpy's ``exponential(1/q)`` bit for bit.  Each step scatter-adds
into flat views of the fields at ``row * n + state``, one cell per path, so
every entry receives its holding times in the order a 2-D scatter gives.
`bridge_targets` keeps its running fields in one buffer per call, reused
by every batch, and hands them to the sojourn integrals in place on a step
where the whole batch is live and at the target state (the first step when
x = y); on any other step it gathers the rows at the target with ``take``.

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
    step draws the holds of the live paths, standard exponentials scaled by
    the mean holds ``1/q`` computed once per walk, then one uniform u per
    live path for the jump: the next state is the count of the row's cumulative
    jump probabilities that are <= u, and a count of n kills.  The rows are
    nondecreasing (pi >= 0), so with +inf padding to width 2^w > n the
    count is found by branch-free bisection, w gathers per step, and equals
    the count a comparison with the whole row gives.
    """
    width = 1 << dp.n.bit_length()
    cum = np.full((dp.n, width), np.inf)
    cum[:, : dp.n] = np.cumsum(dp.pi, axis=1)
    cum = cum.ravel()
    mean_hold = 1.0 / dp.q
    rows = np.arange(b)
    states = np.full(b, start, dtype=int)
    for _ in range(MAX_JUMPS):
        if rows.size == 0:
            return
        taus = rng.standard_exponential(rows.size)
        taus *= mean_hold[states]
        yield rows, states, taus
        u = rng.random(rows.size)
        at = states * width - 1  # flat index of the last entry known to be <= u
        step = width
        while step > 1:
            step >>= 1
            at += step * (cum[at + step] <= u)
        nxt = at + 1 - states * width
        live = nxt < dp.n
        rows, states = rows[live], nxt[live]
    if rows.size:
        raise NumericalError("path did not terminate; jump matrix too close to stochastic")


def _refuse_over_budget(dp: DualPair, start: int) -> None:
    """Raise `NumericalError` if the expected sojourn count from ``start`` reaches ``MAX_JUMPS``."""
    visits = np.linalg.solve(np.eye(dp.n) - dp.pi, np.ones(dp.n))
    # rounding pi's entries to doubles moves each count by up to eps * max(visits)
    # of itself, so a count that close to the bound reaches it; NaN is refused too
    if not visits[start] * (1.0 + np.finfo(float).eps * visits.max()) < MAX_JUMPS:
        raise NumericalError(f"path did not terminate: {visits[start]:.6g} expected sojourns from state {start} reach {MAX_JUMPS}")


def _batches(dp: DualPair, start: int, count: int, seed: int, stream: str):
    """(offset, size, generator) per fixed-size batch, each on its own stream."""
    _refuse_over_budget(dp, start)
    for idx, lo in enumerate(range(0, count, BATCH)):
        yield lo, min(BATCH, count - lo), rng_stream(seed, stream, idx)


def occupation_batch(dp: DualPair, start: int, count: int, seed: int):
    """Occupation fields of ``count`` paths from ``start``: (count, n) array, lifetimes."""
    if count < 1:
        raise ValueError("count must be at least 1")
    start = dp.state_index(start)
    fields = np.zeros((count, dp.n))
    lives = np.zeros(count)
    for lo, b, rng in _batches(dp, start, count, seed, "occupation-batch"):
        flat, life = fields[lo : lo + b].reshape(-1), lives[lo : lo + b]
        for rows, states, taus in _walk(dp, start, b, rng):
            flat[rows * dp.n + states] += taus
            life[rows] += taus
    fields /= dp.m
    return fields, lives


def bridge_targets(dp: DualPair, x: int, targets, count: int, seed: int) -> list:
    """Per-path bridge accumulations of several targets on one walk from x.

    ``targets`` is a sequence of ``(y, functional, offsets)``; the result
    holds one (count,) array per target, each bit-identical to its own
    `bridge_values` call.  An empty ``targets`` gives ``[]`` without a walk.
    Targets that pass the same ``offsets`` object (or ``None``) share one
    running field.  The fields live in one (fields, min(count, BATCH), n)
    buffer made once per call; a batch of b paths uses its first b rows,
    zeroed or copied from its offsets.  Each step adds its holds over m at
    ``row * n + state`` of the batch's flat view, one scatter per field, so
    every field receives its holding times in the same order as on a walk
    of its own.  Each step masks the live paths once per distinct target
    state.  Where every path of the batch is live and at that state, the
    targets read the fields themselves; otherwise the fields of the paths
    there are gathered with ``take`` once per (state, offsets) pair, for
    every target reading them.  Either way a sojourn integral sees the same
    rows in the same order.  Sojourns are integrated step by step, not in
    one call per batch, because `ExpField`'s matrix-vector product rounds
    differently with the number of rows it is given.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    x = dp.state_index(x)
    groups = []  # distinct offsets objects, compared by identity
    readers = {}  # y -> {group: [(target index, sojourn)]}
    outs = []
    for i, (y, functional, offsets) in enumerate(targets):
        y = dp.state_index(y)
        if not any(o is offsets for o in groups):
            groups.append(offsets)
        group = next(g for g, o in enumerate(groups) if o is offsets)
        sojourn = getattr(functional, "sojourn_integral", None)
        if sojourn is None:
            raise ValueError(f"{type(functional).__name__} has no sojourn_integral")
        readers.setdefault(y, {}).setdefault(group, []).append((i, sojourn))
        outs.append(np.zeros(count))
    starts = [None if o is None else np.asarray(o, dtype=float) for o in groups]
    if any(o is not None and o.shape != (count, dp.n) for o in starts):
        raise ValueError(f"offsets must be (count, {dp.n})")
    if not outs:
        return outs
    buf = np.empty((len(starts), min(count, BATCH), dp.n))
    for lo, b, rng in _batches(dp, x, count, seed, "bridge-batch"):
        fields = buf[:, :b]
        for g, o in enumerate(starts):
            fields[g] = 0.0 if o is None else o[lo : lo + b]
        flat = fields.reshape(len(starts), -1)  # a view: each field's b rows are contiguous
        accs = [out[lo : lo + b] for out in outs]
        for rows, states, taus in _walk(dp, x, b, rng):
            for y, by_group in readers.items():
                here = states == y
                if rows.size == b and here.all():  # rows is arange(b): read the fields in place
                    for group, sojourns in by_group.items():
                        for i, sojourn in sojourns:
                            accs[i] += sojourn(fields[group], y, taus, dp.m[y])
                elif here.any():
                    at, tau = rows[here], taus[here]
                    for group, sojourns in by_group.items():
                        seen = fields[group].take(at, axis=0)
                        for i, sojourn in sojourns:
                            accs[i][at] += sojourn(seen, y, tau, dp.m[y])
                        del seen  # one gathered block live at a time, as with a gather per target
            cells, add = rows * dp.n + states, taus / dp.m[states]
            for field in flat:
                field[cells] += add
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
