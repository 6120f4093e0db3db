"""Transition maps of the public state: mean-field update and belief update.

Both maps live on the common-information level.  The mean field advances by
averaging the follower kernel over the current population, the leader belief,
and both prescriptions.  The belief over the leader's private state advances
by Bayes rule on the observed leader action followed by a kernel pushforward,
and does not depend on how prescriptions were generated.
"""

from __future__ import annotations

import itertools
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
    axes; returns the next mean fields (..., n_f).  A row gathers only its
    candidate terms: the (x_l, a_l) with nonzero pi(x_l) gamma_l(a_l|x_l)
    and the (x_f, a_f) with nonzero z(x_f) and gamma_f(a_f|x_f), each packed
    to the front in scalar order.  It adds their products from +0, leader
    term outer, so in the scalar (x_l, a_l, x_f, a_f) order; padding and
    underflowed terms add a signed zero to a sum that is never -0, so every
    row is bit-identical to the scalar step.
    """
    pi, z, leader, follower, kernel = (np.asarray(a, dtype=np.float64)
                                       for a in (pi, z, leader, follower, kernel))
    _check_rows(leader, "leader")
    _check_rows(follower, "follower")
    n_l, n_f, n_al, n_af = kernel.shape[-5:-1]
    w_l = pi[..., :, None] * leader
    w_l = w_l.reshape(w_l.shape[:-2] + (-1,))                   # (..., n_l n_al)
    lead, real = _front(w_l != 0.0)
    w_l = np.where(real, np.take_along_axis(w_l, lead, axis=-1), 0.0)
    f_batch = np.broadcast_shapes(z.shape[:-1], follower.shape[:-2])
    g_f = np.broadcast_to(follower.reshape(follower.shape[:-2] + (-1,)),
                          f_batch + (n_f * n_af,))              # (..., n_f n_af)
    foll, real = _front(np.repeat(z != 0.0, n_af, axis=-1) & (g_f != 0.0))
    g_f = np.where(real, np.take_along_axis(g_f, foll, axis=-1), 0.0)
    x_f, a_f = np.divmod(foll, n_af)
    z_f = np.take_along_axis(np.broadcast_to(z, f_batch + (n_f,)), x_f, axis=-1)
    x_l, a_l = np.divmod(lead, n_al)
    batch = np.broadcast_shapes(lead.shape[:-1], foll.shape[:-1], kernel.shape[:-5])
    k_batch = np.arange(math.prod(kernel.shape[:-5])).reshape(kernel.shape[:-5])
    flat = kernel.reshape(-1, n_l * n_f * n_al * n_af, n_f)
    out = np.zeros(batch + (n_f,))
    for i, j in itertools.product(range(lead.shape[-1]), range(foll.shape[-1])):
        w = (w_l[..., i] * z_f[..., j]) * g_f[..., j]
        term = ((x_l[..., i] * n_f + x_f[..., j]) * n_al + a_l[..., i]) * n_af + a_f[..., j]
        out += w[..., None] * flat[k_batch, term]
    return _clean_distribution(out)


def _front(keep):
    """Per row of ``keep`` (..., n), the positions where it is set, in order,
    then zeros: (..., T) positions, T the largest count (at least 1), and
    the (..., T) mask of the set ones."""
    count = keep.sum(axis=-1, keepdims=True)
    real = np.arange(max(int(count.max(initial=0)), 1)) < count
    pos = np.zeros(real.shape, dtype=np.int64)
    pos[real] = np.nonzero(keep)[-1]
    return pos, real


def belief_batch(pi, column, rows, eps: float = BAYES_EPS):
    """``belief_step_total`` for a batch of beliefs and observed leader actions.

    ``pi`` (..., n_l) are beliefs, ``column`` (..., n_l) the probabilities
    gamma_l(a_l|x) of the observed action under each leader type and
    ``rows`` (..., n_l, n_l) its leader kernel rows Q^l(. | z, x, a_l),
    broadcast over their leading axes.  Returns the next beliefs (..., n_l)
    and the (...) flags of the actions with probability at most ``eps``,
    whose belief stays the prior.  The denominator is a stacked matmul, so
    it comes from the same BLAS dot as the scalar ``pi @ col``, and the
    numerator adds the same terms from +0 in the same order (a zero weight
    the scalar skips adds a signed zero to a sum that is never -0), so both
    outputs are bit-identical to the scalar update's.
    """
    pi, column, rows = (np.asarray(a, dtype=np.float64) for a in (pi, column, rows))
    denom = np.matmul(pi[..., None, :], column[..., :, None])[..., 0, 0]
    fell_back = denom <= eps
    out = np.zeros(rows.shape[-1:])
    for x in range(pi.shape[-1]):
        out = out + (pi[..., x] * column[..., x])[..., None] * rows[..., x, :]
    out = np.where(fell_back[..., None], pi, out / np.where(fell_back, 1.0, denom)[..., None])
    return np.where(fell_back[..., None], pi, _clean_distribution(out)), fell_back


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
