"""Stage fixed point at a set of public states (belief, mean field).

For a candidate leader prescription the follower side must be a
self-consistent best response: the next mean field is computed from the
candidate follower prescription itself, and under that next mean field every
follower type must already be playing an argmax action.  Pure candidates are
checked exhaustively; a damped best-response iteration over mixed
prescriptions is the fallback when no pure fixed point exists.  The leader
then picks the prescription pair maximizing her expected stage value, with
optimistic selection over follower multiplicity: the first pair in
(leader, follower) order whose objective is within ``SELECTION_TOL`` of the
best, so rounding among near-ties does not decide selection.

``StageEngine`` stacks every (public state, leader candidate, follower map)
pair into arrays once; a sweep is a gather, elementwise contractions, a
masked fixed-point test and a per-state selection.  No sweep contraction
goes through BLAS, so pairs with identical inputs get bit-identical
objectives wherever they sit in the batch.

Pair building is one batch over every (state, leader candidate) row: the
Bayes steps of all played leader actions come from one ``belief_batch``
call, the next mean fields of all pairs from one ``mean_field_batch`` call,
the stencils of the distinct ones from one ``simplex_stencils`` call, and
the joint gather rows from broadcasting belief stencils against them.
Next mean fields, their stencils, belief stencils and slots are keyed by
exact bytes before the joint rows are built, so the gather holds one row
per distinct next state and an inverse index names each slot's row; a
sweep interpolates [V^f | V^l] once over those rows.  Per-state tensors
are indexed by state and broadcast over the leader candidates.
The kernels repeat the scalar ``belief_step_total``, ``mean_field_step``
and ``simplex_weights`` operation for operation; sums the scalar path
leaves to ``einsum`` run as left-to-right chains in its order and those it
leaves to BLAS as stacked ``matmul``, so the arrays are bit-identical to a
per-pair build.  The damped fallback keeps each row's leader side (Bayes
steps, belief stencils, reward and kernel terms) from the pair arrays, so a
damped step rebuilds only what the follower prescription moves.  It
evaluates several predicted steps of every live row in one batch and keeps
each row's steps up to its first mispredicted best response: a row's step
depends only on its own prescription and a pair's bits not on its place in
the batch, so the result is that of one step at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dynamics import Prescription, belief_batch, mean_field_batch
from .errors import NoEquilibriumError
from .game import SELECTION_TOL, GameSpec
from .grids import JointGrid, JointTable, build_grid, simplex_stencils, stencil_products

_ARGMAX_TIE_TOL = 1e-12
DAMPING = 0.5               # weight on the new best response in the fallback
DAMP_MAX_ITER = 500
DAMP_TOL = 1e-9
_BR_WINDOW = 32             # best responses a damped row's lookahead searches for a period
_MIX = np.int64(0x9E3779B97F4A7C15 - 2**64)     # odd multiplier of the row mix
MIXED_STEP = 0.1            # mesh of the optional mixed leader grid
MIXED_CANDIDATE_CAP = 100_000


@dataclass
class SolverConfig:
    """Numerical knobs shared by the stage and horizon solvers."""

    br_tol: float = 1e-9            # slack accepted in best-response certificates
    bayes_eps: float = 1e-12
    leader_mixed_grid: bool = False


@dataclass
class StageDiagnostics:
    n_leader_candidates: int = 0
    n_follower_candidates: int = 0
    br_set_sizes: list = field(default_factory=list)
    empty_br_candidates: int = 0
    tie_events: int = 0             # pairs other than the chosen within SELECTION_TOL of the best
    used_damped_fallback: bool = False
    bayes_fallbacks: int = 0
    # (leader actions, follower actions, leader objective) per evaluated pair;
    # follower part is None for a damped mixed fixed point.
    candidate_objectives: list = field(default_factory=list)

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "candidate_objectives"}


@dataclass
class StageSolution:
    """Equilibrium prescription and stage values at one public state."""

    prescription: Prescription
    follower_values: np.ndarray     # per follower type
    leader_values: np.ndarray       # per leader type
    diagnostics: StageDiagnostics


def _tuples(n: int, k: int) -> np.ndarray:
    """All k-tuples over range(n) in lexicographic order, (n**k, k)."""
    return np.indices((n,) * k).reshape(k, -1).T


def _pure_candidates(n_states: int, n_actions: int):
    """All deterministic type-to-action maps, lexicographic by action tuple."""
    actions = _tuples(n_actions, n_states)
    return list(zip(map(tuple, actions.tolist()), np.eye(n_actions)[actions]))


def _leader_candidates(spec: GameSpec, config: SolverConfig):
    """Pure leader maps, then the strictly mixed grid when configured."""
    out = _pure_candidates(spec.n_leader_states, spec.n_leader_actions)
    if not config.leader_mixed_grid:
        return out
    denom, n_al = round(1.0 / MIXED_STEP), spec.n_leader_actions
    total = math.comb(denom + n_al - 1, n_al - 1) ** spec.n_leader_states
    if total > MIXED_CANDIDATE_CAP:     # checked before the grid exceeds its own cap
        raise ValueError(f"mixed leader grid would enumerate {total} candidates "
                         f"(cap {MIXED_CANDIDATE_CAP})")
    rows = build_grid(n_al, denom).points
    mats = rows[_tuples(len(rows), spec.n_leader_states)]
    mixed = ~np.all(np.max(mats, axis=2) == 1.0, axis=1)     # pure rows already enumerated
    return out + [(None, mat) for mat in mats[mixed]]


def _tensors(spec: GameSpec, Z, followers):
    """Q^f, R^f, Q^l at the mean fields ``Z`` (S, n_f), and R^l against each
    follower prescription (F, n_f, n_af): (S, F, n_l, n_al)."""
    return (spec.follower_kernel(Z), spec.follower_reward(Z), spec.leader_kernel(Z),
            spec.leader_reward(Z[:, None], followers[None]))


class _Pairs(NamedTuple):
    """Table-independent data of stacked (leader, follower) prescription pairs.

    Rows index (public state, leader candidate), columns follower maps, slots
    the leader actions a row plays; slots and stencils are zero-padded.  The
    gather holds one stencil per distinct next state, and ``inv`` names the
    stencil of every (row, column, slot).
    """

    idx: np.ndarray         # (U, K) flat gather indices into the joint tables
    w: np.ndarray           # (U, K) joint interpolation weights
    inv: np.ndarray         # (R, F, A) stencil of each slot's next state
    lead_base: np.ndarray   # (R, F) belief-averaged leader reward
    vl_base: np.ndarray     # (R, F, n_l) leader reward per leader type
    base_obj: np.ndarray    # (R, n_f, n_af) belief-averaged follower reward
    cont_op: np.ndarray     # (R, A, n_f, n_af, n_f) belief-weighted follower kernel
    lead_cont: np.ndarray   # (R, A, n_l) belief-weighted leader kernel
    vl_cont: np.ndarray     # (R, A, n_l, n_l) leader kernel per leader type
    bayes: np.ndarray       # (R,) played actions where Bayes rule kept the prior
    pi_idx: np.ndarray      # (R, A, d_pi) stencil of the next belief per slot
    pi_w: np.ndarray        # (R, A, d_pi) its weights, zero on unplayed slots


def _take(p: _Pairs, rows) -> _Pairs:
    return _Pairs(*(None if a is None else a[rows] for a in p))


def _first_seen(keys):
    """The distinct rows of ``keys`` (N, c) int64, numbered in order of first
    appearance: each one's first row (U,) and every row's number (N,).

    Rows are sorted by one int64 mix of their columns, so equal rows are
    adjacent unless a different row has the same mix; runs of equal
    neighbours are the groups, so a mix collision can only split a group.
    """
    mix = keys[:, 0]
    for column in keys.T[1:]:
        mix = mix * _MIX + column           # wraps modulo 2**64
    order = np.argsort(mix)
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    by_first = np.argsort(first)
    number = np.empty_like(by_first)
    number[by_first] = np.arange(len(first))
    ids = np.empty_like(order)
    ids[order] = number[np.cumsum(new) - 1]
    return first[by_first], ids


def _bits(*arrays):
    """(N, c) int64 keys of the exact bytes of (N, c_i) int64 and float64 rows."""
    return np.concatenate([a.view(np.int64) for a in arrays], axis=1)


def _joint_stencils(joint: JointGrid, pi_idx, pi_w, z_next):
    """Gather arrays of (..., A, d_pi) belief stencils against the (..., F, n_f)
    next mean fields: (U, K) indices and weights in ``stencil_product`` layout,
    one row per distinct next state in order of first appearance, and the
    (..., F, A) row of every slot.

    Next mean fields are keyed by their bytes, so each distinct one gets one
    ``simplex_stencils`` row; stencils, belief stencils and then slots are
    keyed by the bytes of what they are built from.  A row is a function of
    its own inputs alone, so its bits are those of a per-slot build.
    """
    z_rows = z_next.reshape(-1, z_next.shape[-1])
    z_first, z_ids = _first_seen(_bits(z_rows))
    z_idx, z_w = simplex_stencils(joint.z_grid, z_rows[z_first])
    zs_first, zs_ids = _first_seen(_bits(z_idx, z_w))
    z_ids = zs_ids[z_ids].reshape(z_next.shape[:-1] + (1,))                # (..., F, 1)
    d_pi = pi_idx.shape[-1]
    pi_rows = (pi_idx.reshape(-1, d_pi), pi_w.reshape(-1, d_pi))
    pi_first, pi_ids = _first_seen(_bits(*pi_rows))
    pi_ids = pi_ids.reshape(pi_idx.shape[:-2] + (1, -1))                   # (..., 1, A)
    # An unplayed slot's stencil has no weight, so its row is zero against
    # every mean-field stencil: key it with the first.
    z_ids = np.where(pi_w[..., None, :, 0] > 0.0, z_ids, 0)
    slots = z_ids * len(pi_first) + pi_ids
    first, inv = _first_seen(slots.reshape(-1, 1))
    z_of, pi_of = np.divmod(slots.ravel()[first], len(pi_first))
    pi_of, z_of = pi_first[pi_of], zs_first[z_of]
    idx, w = stencil_products(joint, (pi_rows[0][pi_of], pi_rows[1][pi_of]),
                              (z_idx[z_of], z_w[z_of]))
    return idx, w, inv.reshape(slots.shape)


def _leader_terms(pi, leaders, rl):
    """Belief-averaged leader reward (..., F) and the reward per leader type
    (..., F, n_l) of leader prescriptions (..., n_l, n_al) at beliefs
    (..., n_l), from the leader rewards (..., F, n_l, n_al) against F
    follower prescriptions; one follower prescription at a time, so the
    products never span all F."""
    w_la = pi[..., :, None] * leaders
    terms = [(np.sum(w_la * r, axis=(-2, -1)), np.sum(leaders * r, axis=-1))
             for r in np.moveaxis(rl, -3, 0)]
    return np.stack([t[0] for t in terms], axis=-1), np.stack([t[1] for t in terms], axis=-2)


def _slot_actions(leaders, n_slots: int):
    """The leader action each slot of a leader prescription (L, n_l, n_al)
    plays, its played actions in increasing order, and the mask of slots in
    use, both (L, A); unused slots name action 0."""
    played = np.any(leaders > 0.0, axis=1)                      # (L, n_al)
    used = np.arange(n_slots) < played.sum(axis=1, keepdims=True)
    actions = np.zeros(used.shape, dtype=np.int64)
    actions[used] = np.nonzero(played)[1]
    return actions, used


def _build_pairs(joint: JointGrid, pi, z, tensors, leaders, followers, n_slots: int,
                 bayes_eps: float) -> _Pairs:
    """Pair arrays of the public states ``pi`` (S, n_l), ``z`` (S, n_f):
    rows (state, leader) of ``leaders`` (L, n_l, n_al), state-major, and
    columns ``followers`` (F, n_f, n_af), all in one batch.

    ``tensors`` are the states' ``_tensors``, with R^l against ``followers``;
    they are indexed by state and broadcast over the leader candidates.
    Sums the scalar path leaves to ``einsum`` run as left-to-right chains in
    its order, those it leaves to BLAS as stacked ``matmul``, and the Bayes
    steps and next mean fields come from ``belief_batch`` and
    ``mean_field_batch``, so every array is bit-identical to a per-pair build.
    """
    QF, RF, QL, RL = tensors
    n_l = leaders.shape[1]
    actions, used = _slot_actions(leaders, n_slots)            # (L, A)
    # Per slot: gamma_l(a|.) (L, A, n_l), its weight under the belief
    # (S, L, A, n_l) and Q^l(.|z, ., a) (S, L, A, n_l, n_l).
    column = np.swapaxes(leaders, 1, 2)[np.arange(len(leaders))[:, None], actions]
    w_slot = pi[:, None, None, :] * column
    # The einsum chain over (x_l, a_l) from +0, keeping the played actions'
    # terms only: with finite rewards the others are exact zeros, which
    # leave the sum unchanged.
    w_played = np.where(used[..., None], w_slot, 0.0)
    r_f = np.moveaxis(RF, 3, 1)                                 # (S, n_al, n_l, n_f, n_af)
    base_obj = 0.0
    for xl, a in itertools.product(range(n_l), range(n_slots)):
        base_obj = base_obj + w_played[:, :, a, xl, None, None] * r_f[:, actions[:, a], xl]
    q_l = np.swapaxes(QL, 1, 2)[:, actions]
    pi_next, fell_back = belief_batch(pi[:, None, None], column, q_l, bayes_eps)
    pi_next = np.where(used[..., None], pi_next, pi[:, None, None])
    q_f = np.moveaxis(QF, 3, 1)                                 # (S, n_al, n_l, n_f, n_af, n_f)
    cont_op = 0.0
    for xl in range(n_l):
        cont_op = cont_op + w_slot[..., xl, None, None, None] * q_f[:, actions, xl]
    cont_op = np.where(used[..., None, None, None], cont_op, 0.0)
    lead_cont = np.where(used[..., None], np.matmul(w_slot[..., None, :], q_l)[..., 0, :], 0.0)
    vl_cont = np.where(used[..., None, None], column[..., None] * q_l, 0.0)
    pi_idx, pi_w = simplex_stencils(joint.pi_grid, pi_next.reshape(-1, n_l))
    pi_idx = np.where(used[..., None], pi_idx.reshape(pi_next.shape[:3] + (-1,)), 0)
    pi_w = np.where(used[..., None], pi_w.reshape(pi_idx.shape), 0.0)
    z_next = mean_field_batch(pi[:, None, None], z[:, None, None], leaders[:, None],
                              followers, QF[:, None, None])
    idx, w, inv = _joint_stencils(joint, pi_idx, pi_w, z_next)
    lead_base, vl_base = _leader_terms(pi[:, None], leaders, RL[:, None])
    bayes = np.sum(fell_back & used, axis=2)
    return _Pairs(idx, w, *(a.reshape((-1,) + a.shape[2:]) for a in (
        inv, lead_base, vl_base, base_obj, cont_op, lead_cont, vl_cont, bayes, pi_idx, pi_w)))


def _interpolate(p: _Pairs, flat_values):
    """Table values at every pair's next state per slot, (R, F, A, n): each
    distinct stencil's weighted table rows, summed, then spread to its slots."""
    return np.sum(p.w[..., None] * flat_values[p.idx], axis=-2)[p.inv]


def _fold(ufunc, x):
    """``ufunc.reduce`` over the last axis as a left-to-right chain of
    elementwise calls: the same result, without the per-row cost of
    reducing a short last axis."""
    out = x[..., 0]
    for n in range(1, x.shape[-1]):
        out = ufunc(out, x[..., n])
    return out


def _dot(x, y):
    """Sum of products over the last axis, left to right, elementwise."""
    out = x[..., 0] * y[..., 0]
    for n in range(1, x.shape[-1]):
        out = out + x[..., n] * y[..., n]
    return out


def _evaluate(p: _Pairs, follower_mats, vf_flat, vl_flat, discount: float):
    """Every pair against continuation tables, at its self-consistent next state.

    Returns follower objectives (R, F, n_f, n_af), follower values under
    ``follower_mats`` (R, F, n_f), leader objectives (R, F) and leader values
    per leader type (R, F, n_l); only the first two without ``vl_flat``.
    Both tables are interpolated in one gather of [V^f | V^l].
    """
    n_f, (_, F, A) = vf_flat.shape[1], p.inv.shape
    table = vf_flat if vl_flat is None else np.concatenate([vf_flat, vl_flat], axis=1)
    values = _interpolate(p, table)
    vf, vl = values[..., :n_f], values[..., n_f:]
    obj = np.repeat(p.base_obj[:, None], F, axis=1)
    for a in range(A):
        obj += discount * _dot(p.cont_op[:, None, a], vf[:, :, a, None, None, :])
    if vl_flat is None:
        return obj, _dot(follower_mats, obj)
    lead, lv = p.lead_base.copy(), p.vl_base.copy()
    for a in range(A):
        lead += discount * _dot(p.lead_cont[:, None, a], vl[:, :, a])
        lv += discount * _dot(p.vl_cont[:, None, a], vl[:, :, a, None, :])
    return obj, _dot(follower_mats, obj), lead, lv


def _br(ties):
    """Best responses mixing uniformly over each follower type's tied actions."""
    return ties * (1.0 / ties.sum(axis=-1, keepdims=True))


def _br_periods(window, filled):
    """Per row of best-response tie masks (n, W, n_f, n_af), whose last
    ``filled`` entries are set: the period p under which the longest run of
    latest entries repeats the entry p before, the shortest on ties, 1 when
    no entry does."""
    n, W = window.shape[:2]
    codes = np.packbits(window.reshape(n, W, -1), axis=2)
    back = np.arange(W) - np.arange(1, W)[:, None]         # (p, t): t - p, p = 1 .. W - 1
    same = (np.all(codes[:, None] == codes[:, np.maximum(back, 0)], axis=3)
            & (back >= W - filled[:, None, None]))
    run = np.argmin(np.concatenate([same[..., ::-1], np.zeros((n, W - 1, 1), dtype=bool)],
                                   axis=2), axis=2)
    return np.argmax(run, axis=1) + 1


@dataclass
class StageSweep:
    """One solved stage, as arrays over the engine's states.  ``objectives``,
    ``bayes`` and ``keys`` are None for a stage reloaded from ``state.npz``;
    ``bayes`` and ``keys`` are the engine's own, not copies."""

    leader: np.ndarray              # (S, n_l, n_al) chosen leader prescriptions
    follower: np.ndarray            # (S, n_f, n_af) chosen follower prescriptions
    follower_values: np.ndarray     # (S, n_f)
    leader_values: np.ndarray       # (S, n_l)
    objectives: Optional[np.ndarray] = None  # (S, L, F + 1), -inf off the BR set; column F: damped
    bayes: Optional[np.ndarray] = None       # (S, L) played actions where Bayes kept the prior
    keys: Optional[list] = None     # (leader actions, follower actions) per flat (L, F + 1) entry
    _prescriptions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def prescription(self, flat: int) -> Prescription:
        """The prescription pair at state ``flat``, built once."""
        if flat not in self._prescriptions:
            self._prescriptions[flat] = Prescription(self.leader[flat], self.follower[flat])
        return self._prescriptions[flat]

    def diagnostic_rows(self, states=slice(None)) -> list:
        """``StageDiagnostics`` fields but the candidate list, one dict per
        state of ``states``, each field reduced over all of them at once;
        empty dicts for a reloaded stage."""
        if self.objectives is None:
            return [{} for _ in self.leader[states]]
        values = self.objectives[states]                        # (n, L, F + 1)
        (n, L, F1), best = values.shape, values.max(axis=(1, 2), keepdims=True)
        sizes = np.isfinite(values).sum(axis=2)
        columns = dict(
            n_leader_candidates=[L] * n, n_follower_candidates=[F1 - 1] * n,
            br_set_sizes=sizes.tolist(), empty_br_candidates=np.sum(sizes == 0, axis=1).tolist(),
            tie_events=(np.sum(values >= best - SELECTION_TOL, axis=(1, 2)) - 1).tolist(),
            used_damped_fallback=np.all(values[..., :-1] == -np.inf, axis=2).any(axis=1).tolist(),
            bayes_fallbacks=np.sum(sizes * self.bayes[states], axis=1).tolist())
        return [dict(zip(columns, row)) for row in zip(*columns.values())]

    def diagnostic_fields(self, flat: int) -> dict:
        """``StageDiagnostics`` fields at state ``flat``, but the candidate list."""
        return self.diagnostic_rows([flat])[0]

    def solution(self, flat: int) -> StageSolution:
        """StageSolution at state ``flat``, built on demand."""
        diag = StageDiagnostics(**self.diagnostic_fields(flat))
        if self.objectives is not None:
            diag.candidate_objectives = [(*self.keys[e], float(v)) for e, v
                                         in enumerate(self.objectives[flat].ravel()) if v > -np.inf]
        return StageSolution(self.prescription(flat), self.follower_values[flat].copy(),
                             self.leader_values[flat].copy(), diag)

    @property
    def solutions(self) -> list:
        """StageSolution per state."""
        return [self.solution(flat) for flat in range(len(self.leader))]


class StageEngine:
    """Stage fixed points at a set of public states against value tables.

    Builds the pair arrays of every (state, leader candidate, follower map)
    once; each ``sweep`` then solves all states against one pair of
    continuation tables.  ``leaders`` defaults to every pure leader map (and
    the mixed grid when configured) as (action tuple or None, matrix).
    """

    def __init__(self, spec: GameSpec, joint: JointGrid, states=None,
                 config: Optional[SolverConfig] = None, leaders=None):
        if states is None:          # every joint grid point, in flat order
            states = [joint.point(flat) for flat in range(joint.n_points)]
        self.spec, self.joint = spec, joint
        self.config = config or SolverConfig()
        self.states = [(np.asarray(pi, dtype=np.float64), np.asarray(z, dtype=np.float64))
                       for pi, z in states]
        self.leaders = leaders or _leader_candidates(spec, self.config)
        self.followers = _pure_candidates(spec.n_follower_states, spec.n_follower_actions)
        self._leader_mats = np.array([G for _, G in self.leaders], dtype=np.float64)
        self._follower_mats = np.array([Ff for _, Ff in self.followers])
        self._unplayed = self._follower_mats == 0.0
        # (leader actions, follower actions) per flat (leader, follower map or damped) entry
        columns = [bf for bf, _ in self.followers] + [None]
        self._keys = [(gl, bf) for gl, _ in self.leaders for bf in columns]
        self._slots = int(np.any(self._leader_mats > 0.0, axis=1).sum(axis=1).max())
        self._pi = np.array([pi for pi, _ in self.states])
        self._z = np.array([z for _, z in self.states])
        self._tensors = _tensors(spec, self._z, self._follower_mats)
        self.pairs = _build_pairs(joint, self._pi, self._z, self._tensors, self._leader_mats,
                                  self._follower_mats, self._slots, self.config.bayes_eps)
        # (distinct next states, pair slots): the gather rows and their users
        self.next_states = (len(self.pairs.idx), self.pairs.inv.size)

    def _evaluate_pure(self, vf_flat, vl_flat):
        """Evaluated pure pairs and the (R, F) mask of follower fixed points."""
        obj, fv, lead, lv = _evaluate(self.pairs, self._follower_mats, vf_flat, vl_flat,
                                      self.spec.discount)
        best = obj >= _fold(np.maximum, obj)[..., None] - self.config.br_tol
        ok = best | self._unplayed
        return fv, lead, lv, _fold(np.logical_and, ok.reshape(ok.shape[:2] + (-1,)))

    def _mixed(self, rows):
        """Pair builder for ``rows`` (state × leader candidate) against one
        mixed follower prescription each.

        The leader side of a row (Bayes steps, belief stencils, follower
        reward and kernel terms) is taken from ``self.pairs`` once; the
        returned ``pairs(i, Ff, leader_terms=False)`` builds, for the rows
        ``rows[i]`` and prescriptions ``Ff`` (n, n_f, n_af), only what the
        follower prescription moves: the next mean fields, their stencils
        and the gather arrays, batched over the rows, one gather row per
        slot (keying them measured slower at the benchmark's signal grid).  The leader rewards
        depend on ``Ff`` too and are built only with ``leader_terms``.
        """
        states = rows // len(self.leaders)
        pi, z, QF = self._pi[states], self._z[states], self._tensors[0][states]
        G = self._leader_mats[rows % len(self.leaders)]
        fixed = _take(self.pairs._replace(idx=None, w=None, inv=None, lead_base=None,
                                          vl_base=None), rows)

        def pairs(i, Ff, leader_terms=False) -> _Pairs:
            part = _take(fixed, i)
            z_next = mean_field_batch(pi[i], z[i], G[i], Ff, QF[i])
            # Damped steps rarely share a next state: one gather row per slot.
            z_idx, z_w = simplex_stencils(self.joint.z_grid, z_next)
            idx, w = stencil_products(self.joint, (part.pi_idx, part.pi_w),
                                      (z_idx[:, None], z_w[:, None]))         # (n, A, K)
            K = idx.shape[-1]
            part = part._replace(idx=idx.reshape(-1, K), w=w.reshape(-1, K),
                                 inv=np.arange(idx.size // K).reshape(len(idx), 1, -1))
            if not leader_terms:
                return part
            rl = self.spec.leader_reward(z[i], Ff)[:, None]
            lead_base, vl_base = _leader_terms(pi[i], G[i], rl)
            return part._replace(lead_base=lead_base, vl_base=vl_base)
        return pairs

    def _damped(self, rows, vf_flat, vl_flat):
        """Damped best-response iteration over mixed follower prescriptions.

        Each row iterates F <- (1 - DAMPING) F + DAMPING BR(F) from the
        uniform prescription and stops on its own.  A round evaluates several
        future steps of every live row in one batch: from the recent history
        of its best-response tie masks a row predicts its next ones (the
        period that explains the longest suffix of the last ``_BR_WINDOW``),
        rolls F forward with them, and keeps the steps up to and including
        the first whose actual best response differs from the prediction.
        A row's step depends only on its own F and a pair's objective does
        not depend on where it sits in the batch, so every kept step is
        bit-identical to the one-step-at-a-time iteration; a misprediction
        costs only the evaluations after it.  A row's lookahead doubles after
        a round without a miss and falls back to its kept run after one; a
        round evaluates at most max(pair rows, ``DAMP_MAX_ITER``) mixed
        pairs.  Leader terms are built once, for the certificate of the rows
        that stopped.  Returns {row: (follower prescription, leader
        objective, follower values, leader values)} for the rows whose limit
        is certified.
        """
        if not len(rows):
            return {}
        n_f, n_af = self.spec.n_follower_states, self.spec.n_follower_actions
        pairs, discount, W = self._mixed(rows), self.spec.discount, _BR_WINDOW
        Ff = np.full((len(rows), n_f, n_af), 1.0 / n_af)
        window = np.zeros((len(rows), W, n_f, n_af), dtype=bool)  # last BR tie masks
        steps = np.zeros(len(rows), dtype=np.int64)
        ahead = np.ones(len(rows), dtype=np.int64)
        active, stopped = np.ones(len(rows), dtype=bool), np.zeros(len(rows), dtype=bool)
        budget = max(len(self.pairs.base_obj), DAMP_MAX_ITER)
        while active.any():
            # Lay out n steps per live row, predict their best responses from
            # the row's window and roll its prescription forward with them.
            live = np.flatnonzero(active)
            n = np.minimum(ahead[live], DAMP_MAX_ITER - steps[live])
            n = np.minimum(n, budget // len(live))
            k = np.arange(n.max())
            laid = k < n[:, None]                           # (live rows, steps)
            period = _br_periods(window[live], np.minimum(steps[live], W))[:, None]
            pred = window[live[:, None], W - period + k % period]
            pred_br = _br(pred[:, :-1])
            F = np.empty(pred.shape)
            F[:, 0] = Ff[live]
            for i in range(1, len(k)):
                F[:, i] = (1.0 - DAMPING) * F[:, i - 1] + DAMPING * pred_br[:, i - 1]
            # Evaluate the laid-out steps in one batch; each row keeps its
            # steps up to its first stop, misprediction or last laid-out step.
            obj = _evaluate(pairs(live[np.nonzero(laid)[0]], F[laid]), F[laid][:, None],
                            vf_flat, None, discount)[0][:, 0]
            ties = np.ones(pred.shape, dtype=bool)         # all tied where not laid out
            ties[laid] = obj >= _fold(np.maximum, obj)[..., None] - _ARGMAX_TIE_TOL
            new = (1.0 - DAMPING) * F + DAMPING * _br(ties)
            stop = laid & (np.max(np.abs(new - F), axis=(2, 3)) < DAMP_TOL)
            end = k == n[:, None] - 1
            miss = laid & ~end & np.any(ties != pred, axis=(2, 3))
            r = np.arange(len(live))
            last = np.argmax(stop | miss | end, axis=1)
            Ff[live] = new[r, last]
            steps[live] += last + 1
            stopped[live] = stop[r, last]
            active[live] = ~stopped[live] & (steps[live] < DAMP_MAX_ITER)
            ahead[live] = np.where(miss[r, last], last + 1, 2 * n)
            # Slide each window past the kept steps' actual tie masks.
            window[live] = np.concatenate([window[live], ties], axis=1)[
                r[:, None], last[:, None] + 1 + np.arange(W)]
        done = np.flatnonzero(stopped)
        if not len(done):
            return {}
        obj, fv, lead, lv = (x[:, 0] for x in _evaluate(
            pairs(done, Ff[done], leader_terms=True), Ff[done, None], vf_flat, vl_flat, discount))
        ok = ~np.any(fv < _fold(np.maximum, obj) - self.config.br_tol, axis=1)
        return {int(rows[i]): (Ff[i], lead[k], fv[k], lv[k])
                for k, i in enumerate(done) if ok[k]}

    def sweep(self, vf_flat, vl_flat, t: Optional[int] = None,
              prefer: Optional[Callable] = None) -> StageSweep:
        """Solve every state; raises NoEquilibriumError at the first state
        without an equilibrium.

        The leader takes the first pair in (leader, follower) order whose
        objective is within ``SELECTION_TOL`` of the maximum.  With
        ``prefer(t, pi, z, gl, bf)`` she takes the first preferred pair in
        that window, and the first pair when none is preferred.
        """
        S, L, F = len(self.states), len(self.leaders), len(self.followers)
        fv, lead, lv, fixed = self._evaluate_pure(vf_flat, vl_flat)
        damped = self._damped(np.flatnonzero(~fixed.any(axis=1)), vf_flat, vl_flat)

        values = np.full((S * L, F + 1), -np.inf)
        values[:, :F] = np.where(fixed, lead, -np.inf)
        values[list(damped), F] = [d[1] for d in damped.values()]
        flat_values = values.reshape(S, L * (F + 1))
        best = flat_values.max(axis=1)
        solved = best > -np.inf
        if not solved.all():
            pi, z = self.states[int(np.argmin(solved))]
            raise NoEquilibriumError("no leader candidate admits a follower fixed point",
                                     t=t, pi=pi.copy(), z=z.copy())
        window = flat_values >= best[:, None] - SELECTION_TOL
        chosen = np.argmax(window, axis=1)
        if prefer is not None:
            for s in range(S):
                chosen[s] = next((e for e in np.flatnonzero(window[s])
                                  if prefer(t, *self.states[s], *self._keys[e])), chosen[s])

        rows, cols = np.arange(S) * L + chosen // (F + 1), chosen % (F + 1)
        pure = np.minimum(cols, F - 1)      # damped entries are overwritten below
        out = StageSweep(
            leader=self._leader_mats[chosen // (F + 1)],
            follower=self._follower_mats[pure],
            follower_values=fv[rows, pure], leader_values=lv[rows, pure],
            objectives=values.reshape(S, L, F + 1),
            bayes=self.pairs.bayes.reshape(S, L), keys=self._keys)
        for s in np.flatnonzero(cols == F):
            out.follower[s], _, out.follower_values[s], out.leader_values[s] = damped[rows[s]]
        return out


def follower_br_set(pi, z, gamma_l, v_f_next: JointTable, spec: GameSpec,
                    config: Optional[SolverConfig] = None):
    """Self-consistent follower best responses to a fixed leader prescription.

    Returns every pure fixed point (as row-stochastic matrices); when none
    exists, a single damped-iteration mixed solution, or an empty list when
    even that fails to converge.
    """
    G = np.asarray(gamma_l, dtype=np.float64)
    engine = StageEngine(spec, v_f_next.joint, [(pi, z)], config, leaders=[(None, G)])
    vf_flat = v_f_next.flat_values()
    no_leader_table = np.zeros((len(vf_flat), spec.n_leader_states))
    fixed = engine._evaluate_pure(vf_flat, no_leader_table)[3][0]
    if fixed.any():
        return [Ff for (_, Ff), ok in zip(engine.followers, fixed) if ok]
    return [d[0] for d in engine._damped(np.array([0]), vf_flat, no_leader_table).values()]


def leader_optimize(pi, z, v_l_next: JointTable, v_f_next: JointTable,
                    spec: GameSpec, config: Optional[SolverConfig] = None,
                    t: Optional[int] = None) -> StageSolution:
    """Full stage solve: enumerate leader prescriptions, pick the best pair."""
    engine = StageEngine(spec, v_l_next.joint, [(pi, z)], config)
    return engine.sweep(v_f_next.flat_values(), v_l_next.flat_values(), t=t).solution(0)


def pair_objectives(pi, z, prescription: Prescription, v_f_next: JointTable,
                    v_l_next: JointTable, spec: GameSpec,
                    config: Optional[SolverConfig] = None):
    """(follower objectives, follower values, leader objective, leader values)
    of one prescription pair at one public state."""
    G, Ff = prescription.leader, prescription.follower
    z = np.asarray(z, dtype=np.float64)[None]
    pairs = _build_pairs(v_f_next.joint, np.asarray(pi, dtype=np.float64)[None], z,
                         _tensors(spec, z, Ff[None]), G[None], Ff[None], G.shape[1],
                         (config or SolverConfig()).bayes_eps)
    ev = _evaluate(pairs, Ff, v_f_next.flat_values(), v_l_next.flat_values(), spec.discount)
    return tuple(x[0, 0] for x in ev)


def stage_values(pi, z, prescription: Prescription, v_f_next: JointTable,
                 v_l_next: JointTable, spec: GameSpec,
                 config: Optional[SolverConfig] = None):
    """Stage values induced by a given prescription pair.

    Follower values average the per-type objectives under the follower
    prescription; leader values condition on the leader type.  Continuation
    values are interpolated at the updated (belief, mean field).
    """
    return pair_objectives(pi, z, prescription, v_f_next, v_l_next, spec, config)[1::2]
