"""Discrete-time hard-core kernel, trajectory simulation, hitting-time
sampling, and the monotone coupling.

The kernel's rows and reverse entries are one sort of the space's move
table, whose moves are also the conductance network's edges.

Simulation runs on the embedded jump chain: the geometric number of
self-loop steps at each state is drawn in closed form, so the step count of
the simulated discrete chain is exact in distribution while metastable waits
cost only one draw per actual transition.  The continuous clock is recovered
analytically (divide by gamma) or, under ``embed_clock``, by an exact
Gamma(steps, 1/gamma) draw, the sum of `steps` iid Exp(gamma) holding times.

RNG: numpy's Philox counter-based 64-bit generator; stream i of a batch uses
key ``base_seed + i``, so results are reproducible regardless of parallelism.
A batch keeps one bit generator per process and re-keys it for each sample,
which draws what a new ``Philox(key=...)`` draws.  Each transition reads two
uniforms in order from its stream, u = 1 - U on (0, 1]: one for the
geometric hold, one for the move.  The stream is drawn lazily in chunks that
never cross a multiple of ``1 << 14`` values.  The ``embed_clock`` Gamma
draw starts at the first such boundary at or after the last uniform read:
the walk sets Philox's counter there from its count of values read, however
far it has drawn ahead.  So samples do not depend on how the stream is
chunked.

Wells: with lambda >> 1 the walk spends almost every transition leaving a
stable state b and coming straight back.  A *well* is a state whose two-step
return probability r(b) = sum_y P(b -> y | move) P(y -> b | move) is at least
``_WELL_RETURN``.  Standing at a well, the walk reads a *bounce window*: W
transition pairs b -> y -> b, four uniforms each.  numpy finds every pair's
y (``searchsorted``, as ``bisect_left`` does), whether y's move uniform
falls in the exact ``bisect_left`` bounds of the entry back to b, and every
hold, truncating ``np.log`` quotients; a quotient within a relative 2^-40
of an integer is taken again with ``math.log``, so every hold is the one
the scalar step computes.  The pairs before the first one that does not
come back (or reaches a target, or would pass ``step_cap``) are accepted,
and the scalar loop resumes at that pair; while whole windows are accepted,
the next one follows.  W is fixed per well from r(b) by :func:`_window`, at
most 4,096.  Where fewer than 4W uniforms are left in the chunk, the walk
draws the rest ahead and joins the two, so a window is cut short only
where that draw stops at a multiple of ``1 << 14``.  Every uniform is read in
order, two per transition, so every sample is the one the scalar loop
gives.  The scalar steps read Python floats, converted from the chunk only
where they read.  A well one of whose edges is in ``gate_watch`` opens no
window.  ``occupation_counts`` stays scalar.
"""
from __future__ import annotations

import contextlib
import functools
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .configspace import ConfigurationSpace, ModelParams, leq

__all__ = [
    "TransitionKernel",
    "HittingSample",
    "CrossoverSummary",
    "build_kernel",
    "simulate_hit",
    "sample_crossover",
    "coupled_simulate",
    "continuous_mean",
    "occupation_counts",
]

DEFAULT_STEP_CAP = 10_000_000_000
_BLOCK = 1 << 14                # uniforms per block of a sampler stream
_KEY = (1 << 128) - 1           # Philox keys are 128-bit
_M64 = (1 << 64) - 1
# A bounce window costs about 17 us plus 0.03 us per pair, a scalar transition
# 0.5-1 us (2-vCPU Xeon VM), so a window of 64 pairs costs as much as 17-34
# scalar transitions.  At r(b) >= 1 - 1/64 a visit to b makes on average
# r/(1 - r) >= 63 pairs b -> y -> b (126 transitions) before one leaves b.  The
# break-even lies near r = 0.9, but every threshold from 1 - 1/8 to 1 - 1/128
# opens the same windows on the benchmark's and verify's instances.
_WELL_RETURN = 1.0 - 1.0 / 64
# pairs in one window: 4 * 4,096 uniforms, and holds below 2^48 keep a
# window's int64 step sums below 2^62 (see _wells)
_MAX_WINDOW = 4096
# a window's fixed cost in pairs: 12-17 us against about 0.03 us per pair
# read plus 0.03 us for its four uniforms drawn (see _window)
_WINDOW_COST = 256
_SEGMENT = 32                   # values converted to floats after a window
# A hold's quotient from np.log truncates as math.log's does unless an integer
# lies within this relative distance of it (see _holds)
_BAND = 2.0 ** -40


class _Uniforms:
    """(0,1] uniforms ``1 - U`` from the Philox stream of a seed.

    One bit generator serves every stream: :meth:`rekey` sets it to the state
    ``Philox(key=seed mod 2^128)`` starts in (counter 0, empty buffer), which
    costs a fifth of a new ``Philox``; the draws are the same.
    ``chunk(need)`` draws max(512, ``need``, values drawn so far), but never
    past the next multiple of ``_BLOCK``.  Without ``need`` that is 512, 512,
    1024, ..., 8192, then whole blocks.  Every chunk is even.
    """

    def __init__(self):
        self.rng = np.random.Generator(np.random.Philox(0))     # keyed by rekey()
        self.drawn = 0
        # the state _seek sets, its arrays filled in place (the setter copies)
        self.state = {"bit_generator": "Philox",
                      "state": {"counter": np.zeros(4, np.uint64),
                                "key": np.zeros(2, np.uint64)},
                      "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                      "has_uint32": 0, "uinteger": 0}

    def _seek(self, counter: int) -> None:
        """Philox at ``counter`` with an empty buffer: the state
        ``Philox(key=...).advance(counter)`` is in."""
        self.state["state"]["counter"][0] = counter
        self.rng.bit_generator.state = self.state

    def rekey(self, seed: int) -> "_Uniforms":
        key = seed & _KEY
        self.state["state"]["key"][:] = (key & _M64, key >> 64)
        self._seek(0)
        self.drawn = 0
        return self

    def chunk(self, need: int = 0) -> np.ndarray:
        n = min(max(need, self.drawn, 512), _BLOCK - self.drawn % _BLOCK)
        self.drawn += n
        return 1.0 - self.rng.random(n)

    def __iter__(self):
        while True:
            yield from self.chunk().tolist()

    def block_end(self, read: int) -> np.random.Generator:
        """The generator at the first multiple of ``_BLOCK`` values at or
        after value ``read`` (Philox makes 4 values per counter step),
        however many were drawn."""
        self._seek(-(-read // _BLOCK) * _BLOCK // 4)
        return self.rng


class TransitionKernel:
    """CSR arrays of the Gibbs-sampler kernel, built on first read.

    Off-diagonal entries: lambda_i/gamma for adding a particle at an empty,
    unblocked site i (lambda_bar on V), 1/gamma for removing one; the
    self-loop probability absorbs the rest of the row.  Row ``i`` holds its
    entries ``indptr[i]:indptr[i+1]`` in ascending site order: targets
    ``indices`` and probabilities ``probs``.  Each move of
    :attr:`ConfigurationSpace.moves` is an addition in one row and a removal
    in another; one sort of both by (row, site) makes the rows, and its
    permutation pairs each entry with its reverse.  The four arrays are
    built the first time one is read, and their running sums ``cum`` and each
    row's total move probability ``p_move`` the first time those are read;
    the sampler, the first-step system of ``green_by_visits``, :meth:`row`,
    :meth:`self_loop` and :meth:`check_invariants` read them.  A network
    takes its edges from the move table and reads none of them.  The
    sampler also reads, built on first use from these arrays, the
    bounce-window tables of the wells.
    """

    def __init__(self, space: ConfigurationSpace, params: ModelParams):
        self.space = space
        self.params = params

    @functools.cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, probs, rev): ``rev[e]`` is the entry back."""
        emptied, occupied, site = self.space.moves
        m = len(site)
        rows = np.concatenate([emptied, occupied])
        # a state moves at a site in at most one way: the keys are distinct
        order = np.argsort(rows * self.space.graph.n_sites + np.tile(site, 2))
        indptr = np.zeros(len(self) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(self)), out=indptr[1:])
        del rows
        indices = np.concatenate([occupied, emptied])[order]
        probs = np.concatenate([self.space.addition_probs(self.params)[site],
                                np.full(m, 1.0 / self.params.gamma)])[order]
        # entries d and d + m of the doubled list are one move both ways
        where = np.empty_like(order)
        where[order] = np.arange(2 * m)
        return indptr, indices, probs, where[(order + m) % (2 * m)]

    @property
    def indptr(self) -> np.ndarray:
        return self._csr[0]

    @property
    def indices(self) -> np.ndarray:
        return self._csr[1]

    @property
    def probs(self) -> np.ndarray:
        return self._csr[2]

    @functools.cached_property
    def _sums(self) -> tuple[np.ndarray, np.ndarray]:
        """(cum, p_move).  One pass per entry rank r adds the running sum up to
        entry r - 1 to entry r of every row that long, so each row is summed
        left to right, as a per-row loop would sum it."""
        cum = self.probs.copy()
        starts, counts = self.indptr[:-1], np.diff(self.indptr)
        for r in range(1, int(counts.max(initial=0))):
            at = starts[counts > r] + r
            cum[at] += cum[at - 1]
        p_move = np.zeros(len(counts))
        moves = counts > 0
        p_move[moves] = cum[self.indptr[1:][moves] - 1]
        return cum, p_move

    @property
    def cum(self) -> np.ndarray:
        return self._sums[0]

    @property
    def p_move(self) -> np.ndarray:
        return self._sums[1]

    @functools.cached_property
    def _rows(self):
        """Walker views: per state (p_move, log1p(-p_move) or -inf where no
        step holds, first entry, last entry), and ``indices``, ``cum``."""
        rows = [(p, math.log1p(-p) if p < 1.0 else -math.inf, lo, hi - 1)
                for p, lo, hi in zip(self.p_move.tolist(), self.indptr[:-1].tolist(),
                                     self.indptr[1:].tolist())]
        return rows, self.indices.tolist(), self.cum.tolist()

    @functools.cached_property
    def _wells(self) -> dict[int, tuple[np.ndarray, np.ndarray, list[int], int]]:
        """The bounce-window tables of every well b: ``cum[lo:last]`` of its
        row; per entry b -> y of the row, the columns (p_move of y, the lower
        and upper ``bisect_left`` bounds of y's move uniform times p_move that
        select the entry y -> b, b's and y's log1p(-p_move)); the targets y;
        and the pairs of its windows, from r(b).  The tables are copies made
        for the wells' rows alone: no array the size of the kernel outlives
        the call."""
        rows, cols, probs = self.offdiag_coo()
        indptr, cum, p_move = self.indptr, self.cum, self.p_move
        rev = self._csr[3]
        q = probs / p_move[rows]                # P(b -> y | move)
        ret = np.bincount(rows, q * q[rev], minlength=len(self))
        log_stay = np.array([r[1] for r in self._rows[0]])
        # |log u| <= 53 ln 2 < 37, so where log_stay < -37 / 2^48 no hold
        # passes 2^48 steps, and a window's int64 sums of at most _MAX_WINDOW
        # pairs stay exact.  Only a well whose holds and whose neighbours' all fit
        # opens windows (p_move > 1.3e-13; the scalar loop takes the rest).
        fits = log_stay < -37.0 / 2.0 ** 48
        wells = np.flatnonzero((ret >= _WELL_RETURN) & fits
                               & (np.bincount(rows, ~fits[cols], minlength=len(self)) == 0))
        lo, n = indptr[wells], np.diff(indptr)[wells]
        first = np.cumsum(n) - n                # each well's first row in the table
        at = np.arange(n.sum()) + np.repeat(lo - first, n)
        ys, back = cols[at], rev[at]
        # bisect_left over [lo_y, last_y) returns back iff (back == lo_y or
        # cum[back - 1] < x) and (back == last_y or x <= cum[back]).  The move
        # uniform is at most 1, so x <= p_move(y) = cum[last_y]: the upper
        # test holds at back == last_y as it stands.
        lower = np.where(back == indptr[ys], -np.inf, cum[back - 1])
        table = np.column_stack([p_move[ys], lower, cum[back],
                                 np.repeat(log_stay[wells], n), log_stay[ys]])
        return {b: (cum[l:l + k - 1].copy(), table[f:f + k], ys[f:f + k].tolist(),
                    _window(r))
                for b, l, k, f, r in zip(wells.tolist(), lo.tolist(), n.tolist(),
                                         first.tolist(), ret[wells].tolist())}

    def __len__(self) -> int:
        return len(self.space)

    def row(self, i: int) -> tuple[list[int], list[float]]:
        """(targets, probabilities) of row ``i``'s off-diagonal entries."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi].tolist(), self.probs[lo:hi].tolist()

    def self_loop(self, i: int) -> float:
        return 1.0 - float(self.p_move[i])

    def prob(self, i: int, j: int) -> float:
        if i == j:
            return self.self_loop(i)
        for t, p in zip(*self.row(i)):
            if t == j:
                return p
        return 0.0

    def offdiag_coo(self):
        """(rows, cols, probs) arrays of the off-diagonal entries, in CSR
        order; ``cols`` and ``probs`` are the kernel's own arrays."""
        rows = np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.indptr))
        return rows, self.indices, self.probs

    def check_invariants(self) -> dict[str, float]:
        """Max row-sum deviation and max relative detailed-balance defect.

        The row sum adds ``p_move`` to a self-loop taken from the masks
        alone: the rates a state cannot use, over gamma.  An occupied site
        cannot add (lambda_i), an empty free site cannot remove (1), a
        blocked site can do neither (1 + lambda_i)."""
        space, params = self.space, self.params
        masks = space.masks
        stay = np.zeros(len(masks))
        for site, nbr in enumerate(space.neighbor_masks):
            lam = params.lam if (space.u_mask >> site) & 1 else params.lam_bar
            occupied = (masks >> site) & 1 == 1
            blocked = ~occupied & (masks & nbr != 0)
            stay += np.where(occupied, lam, np.where(blocked, 1.0 + lam, 1.0))
        row_dev = float(np.max(np.abs(self.p_move + stay / params.gamma - 1.0)))
        pi = self.space.stationary(self.params)
        rows, cols, probs = self.offdiag_coo()
        up = rows < cols
        f, b = pi[rows[up]] * probs[up], pi[cols[up]] * probs[self._csr[3][up]]
        big = np.maximum(f, b)
        live = big > 0
        db = float(np.max(np.abs(f - b)[live] / big[live], initial=0.0))
        return {"row_sum_dev": row_dev, "detailed_balance_rel": db}


def build_kernel(space: ConfigurationSpace, params: ModelParams) -> TransitionKernel:
    return TransitionKernel(space, params)


@dataclass
class HittingSample:
    steps: int
    t_hat: float
    terminal: int
    gate_events: list[tuple[int, int]] = field(default_factory=list)
    timed_out: bool = False

    def as_json_obj(self, sample_index: int) -> dict:
        return {"sample": sample_index, "steps": self.steps, "t_hat": self.t_hat,
                "terminal": self.terminal, "timed_out": self.timed_out,
                "gate_events": [[a, b] for a, b in self.gate_events]}


class _Windows(dict):
    """One batch's bounce-window tables by well, made on the first visit:
    (cum_row, table, window), None for a well with a watched edge
    b -> y or y -> b, and entries into a target made never to return."""

    def __init__(self, wells: dict, targets: set[int], watch):
        super().__init__()
        self.wells = wells
        self.targets = targets
        self.watched = {s for pair in watch for s in pair} if watch else set()

    def __missing__(self, b: int):
        cum_row, table, ys, pairs = self.wells[b]
        win = None
        if b not in self.watched:
            stop = [y in self.targets for y in ys]
            if any(stop):
                table = table.copy()
                table[stop, 1] = np.inf
            win = (cum_row, table, pairs)
        self[b] = win
        return win


def _window(r: float) -> int:
    """Pairs per bounce window at a well of return probability r.

    A visit's run of returns is geometric with mean m = r/(1 - r), so a
    visit read in windows of W pairs costs about (c + W) / (1 - r^W) pairs'
    work, c = ``_WINDOW_COST``, least near W = sqrt(2 c m) where W << m.
    The run is memoryless, so every window of a visit has that best size.
    W is the power of two nearest it, 128 at r = 1 - 1/64, at most
    ``_MAX_WINDOW``."""
    if r >= 1.0:
        return _MAX_WINDOW
    return min(1 << round(math.log2(2 * _WINDOW_COST * r / (1.0 - r)) / 2), _MAX_WINDOW)


def _holds(u: np.ndarray, log_stay) -> np.ndarray:
    """``int(math.log(u) / log_stay)`` for every entry of ``u``; ``log_stay``
    is a scalar or an array of ``u``'s shape, and every quotient is below 2^63.

    The quotients come from ``np.log``, which is within 1 ulp of ``math.log``
    on the stream's uniforms (a test holds it to 4).  Such a quotient q lies
    within a few ulp of math.log's, so the two truncate alike unless an
    integer lies within q (1 +- 2^-40), a band about 2,000 ulp wide on either
    side; only the entries where it may lie take ``math.log``."""
    q = np.log(u) / log_stay
    # q >= 0, and fl(q (1 - 2^-40)) <= q <= fl(q (1 + 2^-40)): where the two
    # ends truncate alike, so does q, and so does math.log's quotient
    held = (q * (1.0 - _BAND)).astype(np.int64)     # toward zero, as int() does
    near = held != (q * (1.0 + _BAND)).astype(np.int64)
    if np.count_nonzero(near):
        ls = np.broadcast_to(log_stay, q.shape)
        for i in np.flatnonzero(near).tolist():
            held.flat[i] = int(math.log(u.flat[i]) / ls.flat[i])
    return held


def _bounce(win, arr: np.ndarray, pos: int, pairs: int,
            pm: float, log_stay: float, room: int) -> tuple[int, int]:
    """The window of ``pairs`` transition pairs b -> y -> b at well b whose
    uniforms start at ``arr[pos]``: (pairs accepted, steps they take).
    Accepted are the pairs before the first one whose y does not move back to
    b, and of those only as many as keep their running step count <=
    ``room``.  Each value is the one the scalar step of :func:`simulate_hit`
    computes."""
    cum_row, table, _ = win
    u = arr[pos:pos + 4 * pairs]
    k = cum_row.searchsorted(u[1::4] * pm)        # bisect_left over [lo, last)
    y = table.take(k, 0)
    x = u[3::4] * y[:, 0]
    back = (y[:, 1] < x) & (x <= y[:, 2])
    n = int(back.argmin())
    if back[n]:
        n = pairs
    elif n == 0:
        return 0, 0
    y[:n, 3] = log_stay                 # columns 3, 4: each pair's holds at b, at y
    h = _holds(u[:4 * n].reshape(n, 4)[:, ::2], y[:n, 3:])
    total = int(h.sum()) + 2 * n
    if total <= room:
        return n, total
    held = (h[:, 0] + h[:, 1] + 2).cumsum()
    n = int(held.searchsorted(room, "right"))
    return n, int(held[n - 1]) if n else 0


def simulate_hit(kernel: TransitionKernel, start: int, targets,
                 seed: int, step_cap: int = DEFAULT_STEP_CAP,
                 gate_watch=None, embed_clock: bool = False) -> HittingSample:
    """Exact simulation of the discrete chain from ``start`` to ``targets``.

    ``start`` and ``targets`` are state indices.  ``gate_watch`` is an
    iterable of (from, to) index pairs; every watched transition crossed
    before hitting is recorded in order.  A walk past ``step_cap`` steps
    times out; a cap below 1 is refused with ``ValueError``.
    """
    return _walker(kernel, start, targets, step_cap, gate_watch, embed_clock)(seed)


def _walker(kernel: TransitionKernel, start: int, targets, step_cap: int,
            gate_watch, embed_clock: bool):
    """:func:`simulate_hit` as a function of the seed alone: the target and
    watch sets, the window tables and one stream, re-keyed per sample, are
    made once for all the samples it draws."""
    target_set = set(int(t) for t in targets)
    if not target_set:
        raise ValueError("targets must be non-empty")
    if step_cap < 1:
        raise ValueError(f"step_cap must be at least 1, got {step_cap}")
    watch = set((int(a), int(b)) for a, b in gate_watch) if gate_watch else None
    return functools.partial(_walk, kernel, int(start), target_set, step_cap, watch,
                             embed_clock, _Windows(kernel._wells, target_set, watch),
                             _Uniforms())


def _walk(kernel: TransitionKernel, state: int, target_set: set[int], step_cap: int,
          watch, embed_clock: bool, windows: _Windows, uni: _Uniforms,
          seed: int) -> HittingSample:
    gamma = kernel.params.gamma
    steps = 0
    events: list[tuple[int, int]] = []
    if state in target_set:
        return HittingSample(0, 0.0, state, events)
    uni.rekey(seed)
    rows, indices, cum = kernel._rows
    wells = windows.wells
    arr = buf = None
    # arr[0] is value `base` of the stream; buf holds arr[fb:end] as floats
    base = size = pos = fb = end = 0
    seg = _SEGMENT                      # values the next conversion takes
    while True:
        pm, log_stay, lo, last = rows[state]
        if pm <= 0.0:
            raise RuntimeError(f"absorbing state {state} outside targets")
        if state in wells and (win := windows[state]) is not None:
            pairs = win[2]
            while True:
                if size - pos < 4 * pairs:  # draw ahead, joined to the rest
                    fresh = uni.chunk(4 * pairs - (size - pos))
                    arr = np.concatenate((arr[pos:], fresh)) if pos < size else fresh
                    base += pos
                    size, pos, end = len(arr), 0, 0
                # a chunk stops at a block's end: the window may be shorter
                want = min(pairs, (size - pos) >> 2)
                n, held = _bounce(win, arr, pos, want, pm, log_stay, step_cap - steps)
                pos += 4 * n
                steps += held
                if n < want:                # the scalar step takes pair n
                    break
            seg = _SEGMENT
        elif pos == size:               # chunks are even: both uniforms fit
            arr = uni.chunk()
            base += size
            size, pos, end = len(arr), 0, 0
        if pos >= end:                  # floats for the scalar steps only
            buf = arr[pos:pos + seg].tolist()
            fb, end = pos, pos + len(buf)
            seg *= 2
        # int(-0.0) == 0 where log_stay is -inf
        steps += int(math.log(buf[pos - fb]) / log_stay) + 1
        if steps > step_cap:
            return HittingSample(steps, steps / gamma, state, events, timed_out=True)
        nxt = indices[bisect_left(cum, buf[pos - fb + 1] * pm, lo, last)]
        pos += 2
        if watch is not None and (state, nxt) in watch:
            events.append((state, nxt))
        state = nxt
        if state in target_set:
            break
    if embed_clock:
        t_hat = float(uni.block_end(base + pos).gamma(shape=steps, scale=1.0 / gamma))
    else:
        t_hat = steps / gamma
    return HittingSample(steps, t_hat, state, events)


@dataclass
class CrossoverSummary:
    n: int
    mean_steps: float | None            # None where no sample finished
    mean_t_hat: float | None
    var_t_hat: float | None             # None below two finished samples
    timeouts: int
    scaled_sorted: list[float]          # t_hat / mean(t_hat), ascending


_WORKER_RUN = None


def _worker_init(run) -> None:
    global _WORKER_RUN
    _WORKER_RUN = run


def _worker_run(seed: int) -> HittingSample:
    return _WORKER_RUN(seed)


def sample_crossover(kernel: TransitionKernel, start: int, targets,
                     n_samples: int, base_seed: int,
                     step_cap: int = DEFAULT_STEP_CAP, gate_watch=None,
                     embed_clock: bool = False, threads: int = 1,
                     progress_every: int | None = None,
                     ) -> tuple[list[HittingSample], CrossoverSummary]:
    """Batch driver; sample i uses seed base_seed + i, merged in index order.

    ``progress_every`` emits a stderr checkpoint after that many samples
    (metastable waits can be astronomically long; timeouts are first-class).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    # builds every table the walk reads (the well tables read the rest), so
    # that a pool's workers get them with the kernel; each worker unpickles
    # its own stream
    run = _walker(kernel, start, targets, step_cap, gate_watch, embed_clock)
    seeds = range(base_seed, base_seed + n_samples)
    pool = contextlib.nullcontext()
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=threads, initializer=_worker_init,
                                   initargs=(run,))
    with pool as ex:
        results = (ex.map(_worker_run, seeds, chunksize=16) if threads > 1
                   else map(run, seeds))
        samples = []
        for s in results:               # in index order on both paths
            samples.append(s)
            if progress_every and len(samples) % progress_every == 0:
                print(f"[sample_crossover] {len(samples)}/{n_samples} samples",
                      file=sys.stderr)
    done = [s for s in samples if not s.timed_out]
    t = np.array([s.t_hat for s in done]) if done else np.zeros(0)
    mean_t = float(t.mean()) if len(t) else None
    var_t = float(t.var(ddof=1)) if len(t) > 1 else None
    scaled = sorted((t / mean_t).tolist()) if len(t) and mean_t > 0 else []
    summary = CrossoverSummary(
        n=n_samples,
        mean_steps=float(np.mean([s.steps for s in done])) if done else None,
        mean_t_hat=mean_t,
        var_t_hat=var_t,
        timeouts=sum(1 for s in samples if s.timed_out),
        scaled_sorted=scaled,
    )
    return samples, summary


def continuous_mean(mean_steps: float, params: ModelParams) -> float:
    """E[T] = gamma E[T_hat]: convert discrete steps to continuous time."""
    return mean_steps / params.gamma


def occupation_counts(kernel: TransitionKernel, start: int, n_steps: int,
                      seed: int) -> np.ndarray:
    """Discrete-time occupation counts over a trajectory of n_steps steps."""
    uni = _Uniforms().rekey(seed)
    counts = [0] * len(kernel)
    state = int(start)
    remaining = n_steps
    rows, indices, cum = kernel._rows
    buf, pos = [], 0
    while remaining > 0:
        pm, log_stay, lo, last = rows[state]
        if pos == len(buf):
            buf, pos = uni.chunk().tolist(), 0
        stay = min(int(math.log(buf[pos]) / log_stay) + 1, remaining)
        counts[state] += stay
        remaining -= stay
        if remaining == 0:
            break
        state = indices[bisect_left(cum, buf[pos + 1] * pm, lo, last)]
        pos += 2
    return np.array(counts, dtype=np.int64)


# ----------------------------------------------------------------------------
# Monotone coupling
# ----------------------------------------------------------------------------

@dataclass
class CoupledRun:
    trajectory_low: list[int]       # configuration bitmasks of the (lam1, lbar1) chain
    trajectory_high: list[int]
    violations: list[int]           # master-tick indices where the order broke


def coupled_simulate(space: ConfigurationSpace, params_low: ModelParams,
                     params_high: ModelParams, x_low: int, x_high: int,
                     horizon: int, seed: int, record: bool = True) -> CoupledRun:
    """Clock coupling of two chains with lam1 >= lam2 and lbar1 <= lbar2.

    The low chain (parameters lam1, lbar1) starts at ``x_low`` below
    ``x_high`` in the crossover order.  Both chains share death clocks; birth
    clocks on U are thinned from the low chain's (richer) stream, on V from
    the high chain's.  The violation report lists every tick after which the
    order fails (must be empty).
    """
    lam1, lb1 = params_low.lam, params_low.lam_bar
    lam2, lb2 = params_high.lam, params_high.lam_bar
    if lam1 < lam2 or lb1 > lb2:
        raise ValueError("need lam_low >= lam_high and lam_bar_low <= lam_bar_high")
    if not leq(space, x_low, x_high):
        raise ValueError("x_low must be below x_high in the crossover order")
    g = space.graph
    n = g.n_sites
    u_mask = space.u_mask
    nbr = space.neighbor_masks

    # Event table: births per site at the dominating rate, then deaths.
    rates = [lam1 if (1 << site) & u_mask else lb2 for site in range(n)] + [1.0] * n
    cum_list = np.cumsum(rates).tolist()
    total = cum_list[-1]
    thin_u = lam2 / lam1
    thin_v = lb1 / lb2

    draw = functools.partial(next, iter(_Uniforms().rekey(seed)))
    a, b = int(x_low), int(x_high)
    traj_a, traj_b = [a], [b]
    violations: list[int] = []

    def try_birth(mask: int, site: int) -> int:
        bit = 1 << site
        if mask & bit or mask & nbr[site]:
            return mask
        return mask | bit

    for tick in range(1, horizon + 1):
        ev = bisect_left(cum_list, draw() * total, 0, 2 * n - 1)
        if ev < n:
            site = ev
            if (1 << site) & u_mask:
                a = try_birth(a, site)
                if thin_u >= 1.0 or draw() < thin_u:
                    b = try_birth(b, site)
            else:
                b = try_birth(b, site)
                if thin_v >= 1.0 or draw() < thin_v:
                    a = try_birth(a, site)
        else:
            bit = 1 << (ev - n)
            a &= ~bit
            b &= ~bit
        if record:
            traj_a.append(a)
            traj_b.append(b)
        if not leq(space, a, b):
            violations.append(tick)
    return CoupledRun(traj_a, traj_b, violations)
