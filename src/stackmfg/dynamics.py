"""Transition maps of the public state: mean-field update and belief update.

Both maps live on the common-information level.  The mean field advances by
averaging the follower kernel over the current population, the leader belief,
and both prescriptions.  The belief over the leader's private state advances
by Bayes rule on the observed leader action followed by a kernel pushforward,
and does not depend on how prescriptions were generated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroProbabilityAction
from .game import GameSpec

BAYES_EPS = 1e-12


def _clean_distribution(vec: np.ndarray) -> np.ndarray:
    # Clamp cancellation noise (entries >= -1e-15) and renormalize each row.
    vec = np.where(vec < 0.0, 0.0, vec)
    return vec / vec.sum(axis=-1, keepdims=True)


def _check_rows(mat: np.ndarray, name: str):
    """The checks of ``Prescription`` on a stack of prescription matrices."""
    if mat.min() < -1e-15:
        raise ValueError(f"{name} prescription has negative entries")
    sums = mat.sum(axis=-1)
    if np.abs(sums - 1.0).max() > 1e-12:
        raise ValueError(f"{name} prescription rows must sum to 1, got {sums}")


@dataclass(frozen=True)
class Prescription:
    """Per-type action distributions for one information point.

    ``leader`` has shape (n_leader_states, n_leader_actions) and ``follower``
    (n_follower_states, n_follower_actions); rows are distributions.
    """

    leader: np.ndarray
    follower: np.ndarray

    def __post_init__(self):
        for name in ("leader", "follower"):
            mat = np.asarray(getattr(self, name), dtype=np.float64)
            if mat.ndim != 2:
                raise ValueError(f"{name} prescription must be a matrix")
            _check_rows(mat, name)
            mat = mat.copy()
            mat.flags.writeable = False
            object.__setattr__(self, name, mat)

    @classmethod
    def pure(cls, leader_actions, follower_actions, n_leader_actions, n_follower_actions):
        """Build a deterministic prescription from per-state action indices."""
        return cls(leader=np.eye(n_leader_actions)[list(leader_actions)],
                   follower=np.eye(n_follower_actions)[list(follower_actions)])

    def pure_actions(self):
        """(leader tuple, follower tuple) of argmax actions if both are pure, else None."""
        out = []
        for mat in (self.leader, self.follower):
            acts = []
            for row in mat:
                a = int(np.argmax(row))
                if abs(row[a] - 1.0) > 1e-12:
                    return None
                acts.append(a)
            out.append(tuple(acts))
        return tuple(out)


def mean_field_step(pi, z, prescription: Prescription, spec: GameSpec) -> np.ndarray:
    """Next mean field: population average of the follower kernel.

    z'(x') = sum_{x_f, x_l, a_l, a_f} z(x_f) pi(x_l) gamma_f(a_f|x_f)
             gamma_l(a_l|x_l) Q^f(x' | z, x_l, x_f, a_l, a_f)
    """
    pi = np.asarray(pi, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    gl, gf = prescription.leader, prescription.follower
    kernel = spec.follower_kernel(z)
    out = np.zeros(spec.n_follower_states)
    for xl in range(spec.n_leader_states):
        if pi[xl] == 0.0:
            continue
        for al in range(spec.n_leader_actions):
            w_l = pi[xl] * gl[xl, al]
            if w_l == 0.0:
                continue
            for xf in range(spec.n_follower_states):
                if z[xf] == 0.0:
                    continue
                for af in range(spec.n_follower_actions):
                    w = w_l * z[xf] * gf[xf, af]
                    if w == 0.0:
                        continue
                    out += w * kernel[xl, xf, al, af]
    return _clean_distribution(out)


def mean_field_batch(pi, z, leader, follower, kernel) -> np.ndarray:
    """``mean_field_step`` for a batch of public states and prescriptions.

    ``pi`` (..., n_l), ``z`` (..., n_f), ``leader`` (..., n_l, n_al),
    ``follower`` (..., n_f, n_af) and ``kernel``, the follower kernel tensor
    (..., n_l, n_f, n_al, n_af, n_f) at ``z``, broadcast over their leading
    axes; returns the next mean fields (..., n_f).  Each row adds the same
    terms as the scalar step, the nonzero-weight ones, one after another in
    its (x_l, a_l, x_f, a_f) order, so it is bit-identical to it.
    """
    pi, z, leader, follower, kernel = (np.asarray(a, dtype=np.float64)
                                       for a in (pi, z, leader, follower, kernel))
    _check_rows(leader, "leader")
    _check_rows(follower, "follower")
    w = (pi[..., :, None] * leader)[..., :, :, None, None] * z[..., None, None, :, None]
    w = w * follower[..., None, None, :, :]                     # (..., x_l, a_l, x_f, a_f)
    batch = np.broadcast_shapes(w.shape[:-4], kernel.shape[:-5])
    n_f, n_terms = kernel.shape[-1], math.prod(w.shape[-4:])
    kernel = np.swapaxes(kernel, -4, -3).reshape(kernel.shape[:-5] + (n_terms, n_f))
    kernel = np.broadcast_to(kernel, batch + (n_terms, n_f)).reshape(-1, n_terms, n_f)
    w = np.broadcast_to(w, batch + w.shape[-4:]).reshape(-1, n_terms)
    # Row r's k-th nonzero term goes to slot k and zeros fill the slots after
    # its last.  A left-to-right cumulative sum then equals the scalar running
    # sum, except that it starts from the first term rather than +0 plus it,
    # which can leave -0 where the scalar sum has +0; adding +0 removes that.
    used = w != 0.0
    row, term = np.nonzero(used)                # row-major: each row's terms in order
    slot = np.cumsum(used, axis=1)[row, term] - 1
    terms = np.zeros((len(w), slot.max(initial=0) + 1, n_f))
    terms[row, slot] = w[row, term][:, None] * kernel[row, term]
    out = np.cumsum(terms, axis=1)[:, -1] + 0.0
    return _clean_distribution(out.reshape(batch + (n_f,)))


def belief_step(pi, z, gamma_l, a_l: int, spec: GameSpec,
                eps: float = BAYES_EPS) -> np.ndarray:
    """Bayes update of the leader belief on an observed leader action.

    pi'(x') = sum_x pi(x) gamma_l(a_l|x) Q^l(x' | z, x, a_l) /
              sum_x pi(x) gamma_l(a_l|x)

    Only the a_l-column of ``gamma_l`` enters, so the update is invariant to
    rescaling that column by a positive constant.  Raises
    ZeroProbabilityAction when the observed action has (numerically) zero
    probability under the belief.
    """
    pi = np.asarray(pi, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    gamma_l = np.asarray(gamma_l, dtype=np.float64)
    col = gamma_l[:, a_l]
    denom = float(pi @ col)
    if denom <= eps:
        raise ZeroProbabilityAction(
            f"leader action {a_l} has probability {denom:.3e} under the current belief")
    kernel = spec.leader_kernel(z)
    out = np.zeros(spec.n_leader_states)
    for xl in range(spec.n_leader_states):
        w = pi[xl] * col[xl]
        if w == 0.0:
            continue
        out += w * kernel[xl, a_l]
    return _clean_distribution(out / denom)


def belief_step_total(pi, z, gamma_l, a_l: int, spec: GameSpec,
                      eps: float = BAYES_EPS):
    """Total-function wrapper: off-support actions keep the prior unchanged.

    Returns (next belief, fallback flag).  The leader optimization probes
    candidate prescriptions away from the current guess, so a belief must be
    produced even where Bayes rule is undefined; keeping the prior is the
    logged convention.
    """
    try:
        return belief_step(pi, z, gamma_l, a_l, spec, eps), False
    except ZeroProbabilityAction:
        return np.asarray(pi, dtype=np.float64).copy(), True
