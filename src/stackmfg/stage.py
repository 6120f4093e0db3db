"""Stage fixed point at a set of public states (belief, mean field).

For a candidate leader prescription the follower side must be a
self-consistent best response: the next mean field is computed from the
candidate follower prescription itself, and under that next mean field every
follower type must already be playing an argmax action.  Pure candidates are
checked exhaustively; when none is a fixed point, the mixed maps that mix
each type uniformly over a subset of its actions are checked, largest
supports first, and the first that is a fixed point is taken.  The leader
then picks the prescription pair maximizing her ex-ante stage value, the
belief average of her values per private type, with optimistic selection
over follower multiplicity: the first pair in (leader, follower) order
whose objective is within ``SELECTION_TOL`` of the best, so rounding among
near-ties does not decide selection.

``StageEngine`` stacks every (public state, leader candidate, follower map)
pair into arrays once, the (state × leader candidate) row axis last and
contiguous; a sweep is a gather, elementwise contractions along the rows,
in which per-row arrays broadcast over the follower maps, one fixed-point
certificate for pure and mixed maps, and a per-state selection.
``StageEngine.solve`` selects from the (follower map × row) leader
objectives and builds only what the next sweep reads, the chosen entries
and the stacked value table [V^f | V^l]; ``assemble`` builds the chosen
prescriptions, the per-state objectives and the rest of the ``StageSweep``
of a stage that is kept.  No sweep contraction goes through
BLAS, so pairs with identical inputs get bit-identical objectives wherever
they sit in the batch.

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
and ``simplex_weights`` operation for operation, and sums the scalar path
leaves to ``einsum`` run as left-to-right chains in its order, so the
arrays are bit-identical to a per-pair build.  The mixed check builds its
rows against the uniform-support maps with the same function, one row per
(state, leader candidate) with its own leader, in batches of at most
``MIXED_BATCH`` (row, map) pairs.
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

_MIX = np.int64(0x9E3779B97F4A7C15 - 2**64)     # odd multiplier of the row mix
MIXED_STEP = 0.1            # mesh of the optional mixed leader grid
MIXED_CANDIDATE_CAP = 100_000
MIXED_BATCH = 4_096         # (row, uniform map) pairs per mixed-check batch


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
    # Some leader candidate has no pure follower fixed point, so the mixed
    # check ran; ``perfbench`` reads the field by this older name.
    used_damped_fallback: bool = False
    bayes_fallbacks: int = 0
    # (leader actions, follower actions, leader objective) per evaluated pair;
    # follower part is None for a mixed fixed point.
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
    the leader actions a row plays; slots and stencils are zero-padded.  Per-pair
    arrays are stored with their axes reversed, rows last.  The gather holds
    one stencil per distinct next state, and ``inv`` names each slot's.  The
    leader side is kept per leader type only; ``pi`` averages it.
    """

    idx: np.ndarray         # (U, K) flat gather indices into the joint tables
    w: np.ndarray           # (U, K) joint interpolation weights
    inv: np.ndarray         # (A, F, R) stencil of each slot's next state
    pi: np.ndarray          # (n_l, R) each row's belief
    vl_base: np.ndarray     # (n_l, F, R) leader reward per leader type
    base_obj: np.ndarray    # (n_af, n_f, R) belief-averaged follower reward
    cont_op: np.ndarray     # (n_f', n_af, n_f, A, R) belief-weighted follower kernel
    vl_cont: np.ndarray     # (n_l', n_l, A, R) leader kernel per leader type
    bayes: np.ndarray       # (R,) played actions where Bayes rule kept the prior


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


def _slot_actions(leaders, n_slots: int):
    """The leader action each slot of leader prescriptions (..., n_l, n_al)
    plays, its played actions in increasing order, and the mask of slots in
    use, both (..., A); unused slots name action 0."""
    played = np.any(leaders > 0.0, axis=-2)                     # (..., n_al)
    used = np.arange(n_slots) < played.sum(axis=-1, keepdims=True)
    actions = np.zeros(used.shape, dtype=np.int64)
    actions[used] = np.nonzero(played)[-1]
    return actions, used


def _build_pairs(joint: JointGrid, pi, z, tensors, leaders, followers, n_slots: int,
                 bayes_eps: float) -> _Pairs:
    """Pair arrays of the public states ``pi`` (S, n_l), ``z`` (S, n_f):
    rows (state, leader) of ``leaders`` (1 or S, L, n_l, n_al), the same
    candidates at every state or each state its own, state-major, and
    columns ``followers`` (F, n_f, n_af), all in one batch.

    ``tensors`` are the states' ``_tensors``, with R^l against ``followers``;
    they are indexed by state and broadcast over the leader candidates.
    Sums the scalar path leaves to ``einsum`` run as left-to-right chains in
    its order, and the Bayes steps and next mean fields come from
    ``belief_batch`` and ``mean_field_batch``, so every array is
    bit-identical to a per-pair build.
    """
    QF, RF, QL, RL = tensors
    n_l = leaders.shape[-2]
    actions, used = _slot_actions(leaders, n_slots)            # (1 or S, L, A)
    state = np.arange(len(pi))[:, None, None]
    # Per slot: gamma_l(a|.) (1 or S, L, A, n_l), its weight under the
    # belief (S, L, A, n_l) and Q^l(.|z, ., a) (S, L, A, n_l, n_l).
    column = np.swapaxes(np.take_along_axis(leaders, actions[..., None, :], axis=-1), -1, -2)
    w_slot = pi[:, None, None, :] * column
    # The einsum chain over (x_l, a_l) from +0, keeping the played actions'
    # terms only: with finite rewards the others are exact zeros, which
    # leave the sum unchanged.
    w_played = np.where(used[..., None], w_slot, 0.0)
    r_f = np.moveaxis(RF, 3, 1)[state, actions]                 # (S, L, A, n_l, n_f, n_af)
    base_obj = 0.0
    for xl, a in itertools.product(range(n_l), range(n_slots)):
        base_obj = base_obj + w_played[:, :, a, xl, None, None] * r_f[:, :, a, xl]
    q_l = np.swapaxes(QL, 1, 2)[state, actions]
    pi_next, fell_back = belief_batch(pi[:, None, None], column, q_l, bayes_eps)
    pi_next = np.where(used[..., None], pi_next, pi[:, None, None])
    q_f = np.moveaxis(QF, 3, 1)                                 # (S, n_al, n_l, n_f, n_af, n_f)
    cont_op = 0.0
    for xl in range(n_l):
        cont_op = cont_op + w_slot[..., xl, None, None, None] * q_f[state, actions, xl]
    cont_op = np.where(used[..., None, None, None], cont_op, 0.0)
    vl_cont = np.where(used[..., None, None], column[..., None] * q_l, 0.0)
    pi_idx, pi_w = simplex_stencils(joint.pi_grid, pi_next.reshape(-1, n_l))
    pi_idx = np.where(used[..., None], pi_idx.reshape(pi_next.shape[:3] + (-1,)), 0)
    pi_w = np.where(used[..., None], pi_w.reshape(pi_idx.shape), 0.0)
    z_next = mean_field_batch(pi[:, None, None], z[:, None, None], leaders[:, :, None],
                              followers, QF[:, None, None])
    idx, w, inv = _joint_stencils(joint, pi_idx, pi_w, z_next)
    vl_base = np.sum(leaders[:, :, None] * RL[:, None], axis=-1)
    bayes = np.sum(fell_back & used, axis=2)
    rows_pi = np.broadcast_to(pi[:, None], vl_base.shape[:2] + (n_l,))
    return _Pairs(idx, w, *(np.ascontiguousarray(a.reshape((-1,) + a.shape[2:]).T) for a in (
        inv, rows_pi, vl_base, base_obj, cont_op, vl_cont, bayes)))


def _interpolate(p: _Pairs, table):
    """Table values at every pair's next state per slot, (n, A, F, R): each
    distinct stencil's weighted table rows, summed, then spread to its slots."""
    return np.add.reduce(p.w[..., None] * table.take(p.idx, axis=0), axis=-2).T.take(p.inv, axis=1)


def _fold(ufunc, x):
    """``ufunc.reduce`` over the first axis as a left-to-right chain of
    elementwise calls."""
    out = x[0]
    for n in range(1, len(x)):
        out = ufunc(out, x[n])
    return out


def _dot(x, y):
    """Sum of products over the first axis, left to right, elementwise."""
    out = x[0] * y[0]
    for n in range(1, len(x)):
        out = out + x[n] * y[n]
    return out


def _evaluate(p: _Pairs, follower_mats, table, discount: float):
    """Every pair against the continuation table [V^f | V^l], at its
    self-consistent next state.

    Returns follower objectives (n_af, n_f, F, R), follower values under
    ``follower_mats`` (F, n_f, n_af) as (n_f, F, R), leader objectives (F, R)
    and leader values per leader type (n_l, F, R).  The leader objective is
    the belief average of her values, summed over the types left to right;
    a type with zero belief adds an exact 0, so a non-finite value of a
    type the belief rules out does not make it NaN.  Per-row arrays
    broadcast over the F columns with stride 0.
    """
    n_f = len(p.cont_op)
    values = _interpolate(p, table)
    obj, lv = p.base_obj[:, :, None], p.vl_base
    for a in range(len(p.inv)):
        vf, vl = values[:n_f, a], values[n_f:, a]
        obj = obj + discount * _dot(p.cont_op[..., a, None, :], vf)
        lv = lv + discount * _dot(p.vl_cont[:, :, a, None], vl)
    pi = p.pi[:, None]
    lead = _fold(np.add, np.multiply(pi, lv, out=np.zeros(lv.shape), where=pi > 0.0))
    return obj, _dot(follower_mats.T[..., None], obj), lead, lv


def _uniform_maps(n_states: int, n_actions: int) -> np.ndarray:
    """Every follower map that mixes each type uniformly over a subset of its
    actions and is not pure, (M, n_states, n_actions).

    A type's subsets run largest first, those of one size in
    ``itertools.product((1, 0), ...)`` order; maps run lexicographically
    over the types.  The count is checked against ``MIXED_CANDIDATE_CAP``
    before any map is built.
    """
    total = (2 ** n_actions - 1) ** n_states - n_actions ** n_states
    if total > MIXED_CANDIDATE_CAP:
        raise ValueError(f"mixed follower check would enumerate {total} candidates "
                         f"(cap {MIXED_CANDIDATE_CAP})")
    subsets = sorted((m for m in itertools.product((1.0, 0.0), repeat=n_actions) if any(m)),
                     key=lambda m: -sum(m))
    masks = np.array(list(itertools.product(subsets, repeat=n_states)))
    sizes = masks.sum(axis=2, keepdims=True)
    return (masks * (1.0 / sizes))[~np.all(sizes == 1.0, axis=(1, 2))]


@dataclass
class StageSweep:
    """One solved stage, as arrays over the engine's states.  ``objectives``,
    ``bayes`` and ``keys`` are None for a stage reloaded from ``state.npz``;
    ``bayes`` and ``keys`` are the engine's own, not copies."""

    leader: np.ndarray              # (S, n_l, n_al) chosen leader prescriptions
    follower: np.ndarray            # (S, n_f, n_af) chosen follower prescriptions
    follower_values: np.ndarray     # (S, n_f)
    leader_values: np.ndarray       # (S, n_l)
    objectives: Optional[np.ndarray] = None  # (S, L, F + 1), -inf off the BR set; column F: mixed
    bayes: Optional[np.ndarray] = None       # (S, L) played actions where Bayes kept the prior
    keys: Optional[list] = None     # (leader actions, follower actions) per flat (L, F + 1) entry

    def prescription(self, flat: int) -> Prescription:
        """The prescription pair at state ``flat``."""
        return Prescription(self.leader[flat], self.follower[flat])

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

    def solution(self, flat: int) -> StageSolution:
        """StageSolution at state ``flat``, built on demand."""
        diag = StageDiagnostics(**self.diagnostic_rows([flat])[0])
        if self.objectives is not None:
            diag.candidate_objectives = [(*self.keys[e], float(v)) for e, v
                                         in enumerate(self.objectives[flat].ravel()) if v > -np.inf]
        return StageSolution(self.prescription(flat), self.follower_values[flat].copy(),
                             self.leader_values[flat].copy(), diag)

    @property
    def solutions(self) -> list:
        """StageSolution per state."""
        return [self.solution(flat) for flat in range(len(self.leader))]


class StageChoice(NamedTuple):
    """A solved stage before its ``StageSweep`` is assembled: the chosen flat
    (leader, follower map or mixed) entry (S,) and the chosen pairs' values
    [V^f | V^l] (S, n_f + n_l) per state, which are all the next sweep
    reads; the leader objectives (F, R) of the (state × leader candidate)
    rows, -inf off the follower fixed points, with a row F for the mixed
    fixed points when there are any; and {state: follower prescription} of
    the states whose chosen entry is mixed."""

    chosen: np.ndarray
    values: np.ndarray
    objectives: np.ndarray
    mixed: dict


class StageEngine:
    """Stage fixed points at a set of public states against value tables.

    Builds the pair arrays of every (state, leader candidate, follower map)
    once; each ``solve`` then solves all states against one continuation
    table, and ``sweep`` is ``solve`` assembled.  ``leaders`` defaults to
    every pure leader map (and the mixed grid when configured) as (action
    tuple or None, matrix).
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
        # (leader actions, follower actions) per flat (leader, follower map or mixed) entry
        columns = [bf for bf, _ in self.followers] + [None]
        self._keys = [(gl, bf) for gl, _ in self.leaders for bf in columns]
        self._slots = int(np.any(self._leader_mats > 0.0, axis=1).sum(axis=1).max())
        self._first_rows = np.arange(len(self.states)) * len(self.leaders)
        self._pi = np.array([pi for pi, _ in self.states])
        self._z = np.array([z for _, z in self.states])
        self._tensors = _tensors(spec, self._z, self._follower_mats)
        self.pairs = _build_pairs(joint, self._pi, self._z, self._tensors, self._leader_mats[None],
                                  self._follower_mats, self._slots, self.config.bayes_eps)
        # (distinct next states, pair slots): the gather rows and their users
        self.next_states = (len(self.pairs.idx), self.pairs.inv.size)

    def _certified(self, obj, fv):
        """(F, R) mask of the follower fixed points, pure or mixed: the pairs
        where no type's value is below its best objective by more than
        ``br_tol``.  A NaN value (0·inf after an overflow) is not below, so
        the overflow surfaces as non-finite values."""
        return ~_fold(np.logical_or, fv < _fold(np.maximum, obj) - self.config.br_tol)

    def _evaluate_pure(self, table):
        """Evaluated pure pairs and the (F, R) mask of follower fixed points."""
        obj, fv, lead, lv = _evaluate(self.pairs, self._follower_mats, table, self.spec.discount)
        return fv, lead, lv, self._certified(obj, fv)

    def _mixed_fixed(self, rows, table):
        """Mixed follower fixed points of ``rows`` (state × leader candidate).

        Every row meets every ``_uniform_maps`` map, in batches of whole
        rows holding at most ``MIXED_BATCH`` (row, map) pairs (one row at
        least): one ``_build_pairs`` call, each row with its own state and
        leader candidate and the maps as columns, on the engine's tensors
        with R^l against the maps, and one ``_evaluate`` call.  Each row
        takes the first map that passes the pure pairs' certificate.
        Returns {row: (follower prescription, leader objective, follower
        values, leader values)} for the rows with such a map.
        """
        if not len(rows):
            return {}
        maps = _uniform_maps(self.spec.n_follower_states, self.spec.n_follower_actions)
        L, step = len(self.leaders), max(1, MIXED_BATCH // len(maps))
        out = {}
        for batch in (rows[i:i + step] for i in range(0, len(rows), step)):
            states = batch // L
            pi, z = self._pi[states], self._z[states]
            tensors = (*(T[states] for T in self._tensors[:3]),
                       self.spec.leader_reward(z[:, None], maps[None]))
            pairs = _build_pairs(self.joint, pi, z, tensors, self._leader_mats[batch % L, None],
                                 maps, self._slots, self.config.bayes_eps)
            obj, fv, lead, lv = _evaluate(pairs, maps, table, self.spec.discount)
            ok = self._certified(obj, fv)
            out.update({int(row): (maps[k], lead[k, r], fv[:, k, r], lv[:, k, r])
                        for r, (row, k) in enumerate(zip(batch, np.argmax(ok, axis=0)))
                        if ok[k, r]})
        return out

    def solve(self, table, t: Optional[int] = None,
              prefer: Optional[Callable] = None) -> StageChoice:
        """Solve every state against the continuation table [V^f | V^l]
        (P, n_f + n_l); raises NoEquilibriumError at the first state
        without an equilibrium.

        The leader takes the first pair in (leader, follower) order whose
        objective is within ``SELECTION_TOL`` of the maximum.  With
        ``prefer(t, pi, z, gl, bf)`` she takes the first preferred pair in
        that window, and the first pair when none is preferred.
        """
        S, L, F = len(self.states), len(self.leaders), len(self.followers)
        fv, lead, lv, fixed = self._evaluate_pure(table)
        objectives = np.where(fixed, lead, -np.inf)             # (F, R)
        row_best = objectives.max(axis=0)
        mixed = {}
        # Some row has no fixed point, or a NaN or -inf best objective.
        if not row_best.min() > -np.inf:
            mixed = self._mixed_fixed(np.flatnonzero(~fixed.any(axis=0)), table)
            if mixed:
                column = np.full(S * L, -np.inf)
                column[list(mixed)] = [d[1] for d in mixed.values()]
                objectives = np.vstack([objectives, column])
                row_best = objectives.max(axis=0)
            solved = row_best.reshape(S, L).max(axis=1) > -np.inf
            if not solved.all():
                pi, z = self.states[int(np.argmin(solved))]
                raise NoEquilibriumError("no leader candidate admits a follower fixed point",
                                         t=t, pi=pi.copy(), z=z.copy())
        row_best = row_best.reshape(S, L)
        low = row_best.max(axis=1) - SELECTION_TOL
        # The first leader whose row reaches the window, then the first
        # column of that row in it.
        leader = (row_best >= low[:, None]).argmax(axis=1)
        rows = self._first_rows + leader
        cols = (objectives[:, rows] >= low).argmax(axis=0)
        chosen = leader * (F + 1) + cols
        if prefer is not None:
            window = objectives.reshape(-1, S, L) >= low[:, None]
            for s in range(S):
                entries = (lf * (F + 1) + col for lf, col in zip(*np.nonzero(window[:, s].T)))
                chosen[s] = next((e for e in entries
                                  if prefer(t, *self.states[s], *self._keys[e])), chosen[s])
            leader, cols = np.divmod(chosen, F + 1)
            rows = self._first_rows + leader

        # The chosen pure pairs' flat (F·R) index; a mixed entry's is overwritten.
        flat = (np.minimum(cols, F - 1) if mixed else cols) * (S * L) + rows
        # C order, so the next sweep's gather reads it without a copy
        values = np.concatenate([fv.reshape(len(fv), -1).take(flat, axis=1).T,
                                 lv.reshape(len(lv), -1).take(flat, axis=1).T], axis=1)
        maps = {}
        for s in np.flatnonzero(cols == F).tolist() if mixed else ():   # the mixed entries
            maps[s], _, *chosen_values = mixed[rows[s]]
            values[s] = np.concatenate(chosen_values)
        return StageChoice(chosen, values, objectives, maps)

    def assemble(self, choice: StageChoice) -> StageSweep:
        """The ``StageSweep`` of a solved stage: its chosen prescriptions and
        (S, L, F + 1) objectives are built here, once per kept stage."""
        S, L, F = len(self.states), len(self.leaders), len(self.followers)
        leader, cols = np.divmod(choice.chosen, F + 1)
        follower = self._follower_mats[np.minimum(cols, F - 1)]
        for s, mixed_map in choice.mixed.items():
            follower[s] = mixed_map
        n_f = self.spec.n_follower_states
        objectives = np.full((S, L, F + 1), -np.inf)
        objectives[..., :len(choice.objectives)] = choice.objectives.T.reshape(S, L, -1)
        return StageSweep(
            leader=self._leader_mats[leader], follower=follower,
            follower_values=choice.values[:, :n_f].copy(),
            leader_values=choice.values[:, n_f:].copy(), objectives=objectives,
            bayes=self.pairs.bayes.reshape(S, -1), keys=self._keys)

    def sweep(self, vf_flat, vl_flat, t: Optional[int] = None,
              prefer: Optional[Callable] = None) -> StageSweep:
        """``solve`` against the tables V^f, V^l, assembled."""
        return self.assemble(self.solve(np.concatenate([vf_flat, vl_flat], axis=1), t, prefer))


def follower_br_set(pi, z, gamma_l, v_f_next: JointTable, spec: GameSpec,
                    config: Optional[SolverConfig] = None):
    """Self-consistent follower best responses to a fixed leader prescription.

    Returns every pure fixed point (as row-stochastic matrices); when none
    exists, the first uniform-support mixed map that is one, or an empty
    list when none is.
    """
    G = np.asarray(gamma_l, dtype=np.float64)
    engine = StageEngine(spec, v_f_next.joint, [(pi, z)], config, leaders=[(None, G)])
    table = np.pad(v_f_next.flat_values(), ((0, 0), (0, spec.n_leader_states)))
    fixed = engine._evaluate_pure(table)[3][:, 0]
    if fixed.any():
        return [Ff for (_, Ff), ok in zip(engine.followers, fixed) if ok]
    return [d[0] for d in engine._mixed_fixed(np.array([0]), table).values()]


def leader_optimize(pi, z, v_l_next: JointTable, v_f_next: JointTable,
                    spec: GameSpec, config: Optional[SolverConfig] = None,
                    t: Optional[int] = None) -> StageSolution:
    """Full stage solve: enumerate leader prescriptions, pick the best pair."""
    engine = StageEngine(spec, v_l_next.joint, [(pi, z)], config)
    return engine.sweep(v_f_next.flat_values(), v_l_next.flat_values(), t=t).solution(0)


def pair_objectives(pi, z, prescription: Prescription, v_f_next: JointTable,
                    v_l_next: JointTable, spec: GameSpec,
                    config: Optional[SolverConfig] = None):
    """(follower objectives (n_f, n_af), follower values, leader objective,
    leader values) of one prescription pair at one public state; the leader
    objective is the belief average of the leader values, as in a sweep."""
    G, Ff = prescription.leader, prescription.follower
    z = np.asarray(z, dtype=np.float64)[None]
    pairs = _build_pairs(v_f_next.joint, np.asarray(pi, dtype=np.float64)[None], z,
                         _tensors(spec, z, Ff[None]), G[None, None], Ff[None], G.shape[1],
                         (config or SolverConfig()).bayes_eps)
    table = np.concatenate([v_f_next.flat_values(), v_l_next.flat_values()], axis=1)
    obj, fv, lead, lv = _evaluate(pairs, Ff[None], table, spec.discount)
    return obj[:, :, 0, 0].T, fv[:, 0, 0], lead[0, 0], lv[:, 0, 0]


def stage_values(pi, z, prescription: Prescription, v_f_next: JointTable,
                 v_l_next: JointTable, spec: GameSpec,
                 config: Optional[SolverConfig] = None):
    """Stage values induced by a given prescription pair.

    Follower values average the per-type objectives under the follower
    prescription; leader values condition on the leader type.  Continuation
    values are interpolated at the updated (belief, mean field).
    """
    return pair_objectives(pi, z, prescription, v_f_next, v_l_next, spec, config)[1::2]
