"""Stage fixed point at one public state (belief, mean field).

For a candidate leader prescription the follower side must be a
self-consistent best response: the next mean field is computed from the
candidate follower prescription itself, and under that next mean field every
follower type must already be playing an argmax action.  Pure candidates are
checked exhaustively; a damped best-response iteration over mixed
prescriptions is the fallback when no pure fixed point exists.  The leader
then picks the prescription pair maximizing her expected stage value, with
optimistic selection over follower multiplicity and lexicographic
tie-breaking for determinism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dynamics import Prescription, belief_step_total, mean_field_step
from .errors import NoEquilibriumError
from .game import GameSpec
from .grids import JointGrid, JointTable, joint_weights

_ARGMAX_TIE_TOL = 1e-12


@dataclass
class SolverConfig:
    """Numerical knobs shared by the stage and horizon solvers."""

    br_tol: float = 1e-9            # slack accepted in best-response certificates
    selection_tol: float = 1e-9     # near-optimality window for forced tie-breaking
    damping: float = 0.5            # weight on the new best response in the fallback
    damp_max_iter: int = 500
    damp_tol: float = 1e-9
    bayes_eps: float = 1e-12
    leader_mixed_grid: bool = False
    mixed_step: float = 0.1
    mixed_candidate_cap: int = 100_000
    branch_cap: int = 64


@dataclass
class StageDiagnostics:
    n_leader_candidates: int = 0
    n_follower_candidates: int = 0
    br_set_sizes: list = field(default_factory=list)
    empty_br_candidates: int = 0
    tie_events: int = 0
    used_damped_fallback: bool = False
    bayes_fallbacks: int = 0
    # (leader actions, follower actions, leader objective) per evaluated pair;
    # follower part is the leader-best element of the BR set.
    candidate_objectives: list = field(default_factory=list)

    def to_dict(self):
        return {
            "n_leader_candidates": self.n_leader_candidates,
            "n_follower_candidates": self.n_follower_candidates,
            "br_set_sizes": self.br_set_sizes,
            "empty_br_candidates": self.empty_br_candidates,
            "tie_events": self.tie_events,
            "used_damped_fallback": self.used_damped_fallback,
            "bayes_fallbacks": self.bayes_fallbacks,
        }


@dataclass
class StageSolution:
    """Equilibrium prescription and stage values at one public state."""

    prescription: Prescription
    follower_values: np.ndarray     # per follower type
    leader_values: np.ndarray       # per leader type
    diagnostics: StageDiagnostics


def _pure_candidates(n_states: int, n_actions: int):
    """All deterministic type-to-action maps, lexicographic by action tuple."""
    out = []
    for tup in itertools.product(range(n_actions), repeat=n_states):
        mat = np.zeros((n_states, n_actions))
        for x, a in enumerate(tup):
            mat[x, a] = 1.0
        out.append((tup, mat))
    return out


def _mixed_rows(n_actions: int, step: float):
    denom = round(1.0 / step)
    rows = []
    for comp in itertools.product(range(denom + 1), repeat=n_actions):
        if sum(comp) == denom:
            rows.append(np.array(comp, dtype=np.float64) / denom)
    return rows


class _PairData:
    """Iteration-independent data for one (leader, follower) prescription pair.

    Everything except the continuation-table values is frozen here:
    the induced next mean field, per-action posteriors, gather stencils into
    the joint value tables, and the reward/kernel contractions.  Re-solving
    with updated tables is then a handful of small gathers.
    """

    __slots__ = ("z_next", "rel_actions", "gather", "base_obj", "cont_op",
                 "lead_base", "lead_cont", "vl_base", "vl_cont", "bayes_fallbacks")

    def __init__(self, spec, joint, tensors, pi, z, G, Ff, rl_mat, bayes_eps):
        QF, RF, QL = tensors
        n_l, n_f = spec.n_leader_states, spec.n_follower_states
        prescription = Prescription(leader=G, follower=Ff)
        self.z_next = mean_field_step(pi, z, prescription, spec)

        self.rel_actions = [al for al in range(spec.n_leader_actions)
                            if np.any(G[:, al] > 0.0)]
        self.bayes_fallbacks = 0
        self.gather = {}
        for al in self.rel_actions:
            pi_next, fell_back = belief_step_total(pi, z, G, al, spec, eps=bayes_eps)
            if fell_back:
                self.bayes_fallbacks += 1
            self.gather[al] = joint_weights(joint, pi_next, self.z_next)

        w_la = pi[:, None] * G                           # (n_l, n_al)
        self.base_obj = np.einsum("la,lfab->fb", w_la, RF)
        self.cont_op = {al: np.einsum("l,lfbn->fbn", w_la[:, al], QF[:, :, al, :, :])
                        for al in self.rel_actions}
        self.lead_base = float(np.sum(w_la * rl_mat))
        self.lead_cont = {al: w_la[:, al] @ QL[:, al, :] for al in self.rel_actions}
        self.vl_base = np.sum(G * rl_mat, axis=1)        # (n_l,)
        self.vl_cont = [[(al, G[xl, al] * QL[xl, al, :])
                         for al in self.rel_actions if G[xl, al] > 0.0]
                        for xl in range(n_l)]

    def _state_vectors(self, flat_values):
        return {al: w @ flat_values[idx, :] for al, (idx, w) in self.gather.items()}

    def follower_objectives(self, vf_flat, discount):
        """Per (follower type, action) expected reward-to-go, self-consistent z'."""
        obj = self.base_obj.copy()
        if discount != 0.0:
            vecs = self._state_vectors(vf_flat)
            for al, op in self.cont_op.items():
                obj += discount * np.einsum("fbn,n->fb", op, vecs[al])
        return obj

    def leader_objective(self, vl_flat, discount):
        total = self.lead_base
        if discount != 0.0:
            vecs = self._state_vectors(vl_flat)
            for al, w in self.lead_cont.items():
                total += discount * float(w @ vecs[al])
        return total

    def leader_values(self, vl_flat, discount):
        """Stage value per leader type under this pair (type known, not averaged)."""
        out = self.vl_base.copy()
        if discount != 0.0:
            vecs = self._state_vectors(vl_flat)
            for xl, terms in enumerate(self.vl_cont):
                for al, w in terms:
                    out[xl] += discount * float(w @ vecs[al])
        return out


class StagePointSolver:
    """Reusable stage solver bound to one public state and one joint grid."""

    def __init__(self, spec: GameSpec, pi, z, joint: JointGrid,
                 config: Optional[SolverConfig] = None):
        self.spec = spec
        self.joint = joint
        self.config = config or SolverConfig()
        self.pi = np.asarray(pi, dtype=np.float64)
        self.z = np.asarray(z, dtype=np.float64)
        self.tensors = (spec.follower_kernel_tensor(self.z),
                        spec.follower_reward_tensor(self.z),
                        spec.leader_kernel_tensor(self.z))
        self.leader_candidates = _pure_candidates(spec.n_leader_states,
                                                  spec.n_leader_actions)
        if self.config.leader_mixed_grid:
            self.leader_candidates = self.leader_candidates + self._mixed_leader_candidates()
        self.follower_candidates = _pure_candidates(spec.n_follower_states,
                                                    spec.n_follower_actions)
        self._rl_cache = {}
        self._pair_cache = {}

    def _mixed_leader_candidates(self):
        rows = _mixed_rows(self.spec.n_leader_actions, self.config.mixed_step)
        total = len(rows) ** self.spec.n_leader_states
        if total > self.config.mixed_candidate_cap:
            raise ValueError(
                f"mixed leader grid would enumerate {total} candidates "
                f"(cap {self.config.mixed_candidate_cap})")
        out = []
        for combo in itertools.product(rows, repeat=self.spec.n_leader_states):
            mat = np.stack(combo)
            if np.all(np.max(mat, axis=1) == 1.0):
                continue        # pure rows already enumerated
            out.append((None, mat))
        return out

    def _rl_matrix(self, gf_key, Ff):
        if gf_key is not None and gf_key in self._rl_cache:
            return self._rl_cache[gf_key]
        n_l, n_al = self.spec.n_leader_states, self.spec.n_leader_actions
        mat = np.empty((n_l, n_al))
        for xl in range(n_l):
            for al in range(n_al):
                mat[xl, al] = float(self.spec.leader_reward(self.z, xl, al, Ff))
        if gf_key is not None:
            self._rl_cache[gf_key] = mat
        return mat

    def _pair(self, gl_key, gf_key, G, Ff) -> _PairData:
        key = (gl_key, gf_key)
        if gl_key is not None and gf_key is not None and key in self._pair_cache:
            return self._pair_cache[key]
        pair = _PairData(self.spec, self.joint, self.tensors, self.pi, self.z,
                         G, Ff, self._rl_matrix(gf_key, Ff), self.config.bayes_eps)
        if gl_key is not None and gf_key is not None:
            self._pair_cache[key] = pair
        return pair

    def _is_fixed_point(self, obj, actions) -> bool:
        row_max = obj.max(axis=1)
        for x, a in enumerate(actions):
            if obj[x, a] < row_max[x] - self.config.br_tol:
                return False
        return True

    def follower_br(self, gl_key, G, vf_flat, with_pairs=False):
        """All pure follower fixed points under ``G``; damped fallback if none."""
        found = []
        for gf_idx, (bf, Ff) in enumerate(self.follower_candidates):
            pair = self._pair(gl_key, gf_idx, G, Ff)
            obj = pair.follower_objectives(vf_flat, self.spec.discount)
            if self._is_fixed_point(obj, bf):
                found.append((gf_idx, bf, Ff, pair, obj))
        fallback = False
        if not found:
            mixed = self._damped_follower_br(G, vf_flat)
            fallback = True
            if mixed is not None:
                Ff, pair, obj = mixed
                found.append((None, None, Ff, pair, obj))
        if with_pairs:
            return found, fallback
        return [entry[2] for entry in found]

    def _damped_follower_br(self, G, vf_flat):
        n_f, n_af = self.spec.n_follower_states, self.spec.n_follower_actions
        cfg = self.config
        Ff = np.full((n_f, n_af), 1.0 / n_af)
        pair = obj = None
        for _ in range(cfg.damp_max_iter):
            pair = self._pair(None, None, G, Ff)
            obj = pair.follower_objectives(vf_flat, self.spec.discount)
            br = np.zeros_like(Ff)
            for x in range(n_f):
                top = obj[x].max()
                ties = obj[x] >= top - _ARGMAX_TIE_TOL
                br[x, ties] = 1.0 / ties.sum()
            new = (1.0 - cfg.damping) * Ff + cfg.damping * br
            step = float(np.max(np.abs(new - Ff)))
            Ff = new
            if step < cfg.damp_tol:
                break
        else:
            return None
        pair = self._pair(None, None, G, Ff)
        obj = pair.follower_objectives(vf_flat, self.spec.discount)
        row_val = np.sum(Ff * obj, axis=1)
        if np.any(row_val < obj.max(axis=1) - cfg.br_tol):
            return None
        return Ff, pair, obj

    def solve(self, vf_flat, vl_flat, prefer: Optional[Callable] = None,
              t: Optional[int] = None) -> StageSolution:
        """Run the stage fixed point; raises NoEquilibriumError if nothing solves."""
        cfg = self.config
        diag = StageDiagnostics(
            n_leader_candidates=len(self.leader_candidates),
            n_follower_candidates=len(self.follower_candidates))
        entries = []        # (objective, order, gl_tuple, bf_tuple, G, Ff, pair, obj)
        order = 0
        for gl_idx, (gl_tuple, G) in enumerate(self.leader_candidates):
            gl_key = gl_idx if gl_tuple is not None else None
            found, fell_back = self.follower_br(gl_key, G, vf_flat, with_pairs=True)
            diag.used_damped_fallback |= fell_back
            diag.br_set_sizes.append(len(found))
            if not found:
                diag.empty_br_candidates += 1
                continue
            for gf_idx, bf, Ff, pair, obj in found:
                diag.bayes_fallbacks += pair.bayes_fallbacks
                value = pair.leader_objective(vl_flat, self.spec.discount)
                entries.append((value, order, gl_tuple, bf, G, Ff, pair, obj))
                diag.candidate_objectives.append((gl_tuple, bf, value))
                order += 1
        if not entries:
            raise NoEquilibriumError(
                "no leader candidate admits a follower fixed point",
                t=t, pi=self.pi.copy(), z=self.z.copy())

        best_value = max(e[0] for e in entries)
        ties = [e for e in entries if e[0] == best_value]
        diag.tie_events += len(ties) - 1
        chosen = min(ties, key=lambda e: e[1])
        if prefer is not None:
            near = [e for e in entries if e[0] >= best_value - cfg.selection_tol]
            preferred = [e for e in near if prefer(e[2], e[3])]
            if preferred:
                chosen = min(preferred, key=lambda e: e[1])
        _, _, _, _, G, Ff, pair, obj = chosen

        follower_values = np.sum(Ff * obj, axis=1)
        leader_values = pair.leader_values(vl_flat, self.spec.discount)
        return StageSolution(
            prescription=Prescription(leader=G, follower=Ff),
            follower_values=follower_values,
            leader_values=leader_values,
            diagnostics=diag)


def follower_br_set(pi, z, gamma_l, v_f_next: JointTable, spec: GameSpec,
                    config: Optional[SolverConfig] = None):
    """Self-consistent follower best responses to a fixed leader prescription.

    Returns every pure fixed point (as row-stochastic matrices); when none
    exists, a single damped-iteration mixed solution, or an empty list when
    even that fails to converge.
    """
    solver = StagePointSolver(spec, pi, z, v_f_next.joint, config)
    G = np.asarray(gamma_l, dtype=np.float64)
    return solver.follower_br(None, G, v_f_next.flat_values())


def leader_optimize(pi, z, v_l_next: JointTable, v_f_next: JointTable,
                    spec: GameSpec, config: Optional[SolverConfig] = None,
                    prefer: Optional[Callable] = None,
                    t: Optional[int] = None) -> StageSolution:
    """Full stage solve: enumerate leader prescriptions, pick the best pair."""
    solver = StagePointSolver(spec, pi, z, v_l_next.joint, config)
    return solver.solve(v_f_next.flat_values(), v_l_next.flat_values(),
                        prefer=prefer, t=t)


def stage_values(pi, z, prescription: Prescription, v_f_next: JointTable,
                 v_l_next: JointTable, spec: GameSpec,
                 config: Optional[SolverConfig] = None):
    """Stage values induced by a given prescription pair.

    Follower values average the per-type objectives under the follower
    prescription; leader values condition on the leader type.  Continuation
    values are interpolated at the updated (belief, mean field).
    """
    solver = StagePointSolver(spec, pi, z, v_f_next.joint, config)
    G = np.asarray(prescription.leader, dtype=np.float64)
    Ff = np.asarray(prescription.follower, dtype=np.float64)
    pair = solver._pair(None, None, G, Ff)
    obj = pair.follower_objectives(v_f_next.flat_values(), spec.discount)
    follower_values = np.sum(Ff * obj, axis=1)
    leader_values = pair.leader_values(v_l_next.flat_values(), spec.discount)
    return follower_values, leader_values
