"""Brute-force ground truth for tiny instances.

Enumerates every pure Markov strategy profile on the public-history tree of
a short game, computes the induced mean-field trajectory, and keeps exactly
the profiles where (a) each follower type is sequentially rational at every
tree node against the population's own play, (b) the mean field reproduces
itself under the profile, and (c) no alternative leader plan, with followers
re-equilibrating, earns the leader more.  Follower optimality is verified by
dynamic programming over tree nodes, so deviations conditioning on the full
public history are covered, not just Markov ones.  Work that depends only
on an exact public state is done once per game (one CLI call) and memoised
in its ``TinyGame``, keyed by exact bytes.

Profiles are formed only from last-stage prescription pairs that pass the
follower check on their own: with a zero continuation a last-stage node's
follower gap depends on that node alone, so a profile holding a larger gap
fails whatever its other nodes do.  Every other profile is still evaluated,
in enumeration order, so the results are those of the exhaustive search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .dynamics import Prescription, belief_step_total, mean_field_step
from .errors import EnumerationTooLarge, NoEquilibriumError, OffSimplexError, UncheckableProfile
from .game import SELECTION_TOL, GameSpec
from .grids import project_to_simplex

_KEY_DECIMALS = 12


def _round_key(vec) -> tuple:
    return tuple(float(v) for v in np.round(np.asarray(vec, dtype=np.float64),
                                            _KEY_DECIMALS))


def node_key(t: int, pi, z) -> tuple:
    return (t, _round_key(pi), _round_key(z))


def _exact(vec) -> bytes:
    return np.asarray(vec, dtype=np.float64).tobytes()


def _frozen(arr) -> np.ndarray:
    return np.broadcast_to(arr, np.shape(arr))      # a read-only view


@dataclass
class TinyGame:
    """A game small enough for exhaustive profile enumeration.

    Bounds: finite horizon <= 2, at most 2 types per side, at most 2 follower
    actions and 3 leader actions.  ``initial_points`` lists the (belief,
    mean field) starting points to analyze; defaults to the spec's own.

    ``_memo`` keeps for the game's lifetime, under the exact float64 bytes
    of beliefs and mean fields (never rounded node keys), the tensors per
    mean field (the spec ``_tensors`` reads them), the children per map
    pair, pure prescriptions, leader reward rows, last-stage follower action
    values per leader map, and node keys, read-only.
    """

    spec: GameSpec
    initial_points: list = field(default_factory=list)
    max_profiles: int = 10_000_000
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        s = self.spec
        if s.horizon is None or s.horizon > 2:
            raise ValueError("tiny games need a finite horizon <= 2")
        if s.n_follower_states > 2 or s.n_leader_states > 2:
            raise ValueError("tiny games allow at most 2 private states per side")
        if s.n_follower_actions > 2 or s.n_leader_actions > 3:
            raise ValueError("tiny games allow |A^f| <= 2 and |A^l| <= 3")
        if not self.initial_points:
            self.initial_points = [(s.initial_leader_belief.copy(),
                                    s.initial_mean_field.copy())]
        self.initial_points = [
            (np.asarray(pi, dtype=np.float64), np.asarray(z, dtype=np.float64))
            for pi, z in self.initial_points]
        self._tensors = replace(s, **{
            name: lambda z, name=name: self._memoised(
                (name, _exact(z)), lambda: _frozen(getattr(s, name)(z)))
            for name in ("follower_kernel", "follower_reward", "leader_kernel")})

    def _memoised(self, key, compute):
        """``compute()``, evaluated once per key over the game's lifetime."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _key(self, t: int, pi, z) -> tuple:
        return self._memoised(("key", t, _exact(pi), _exact(z)), lambda: node_key(t, pi, z))


def config_initial_points(spec: GameSpec) -> list:
    """The (belief, mean field) starts a game file lists under
    ``initial_points``: objects with ``pi`` and ``z`` that are distributions
    over the game's leader and follower types within 1e-9.  Raises a
    ValueError naming the index of the first bad entry."""
    entries = spec.metadata["config"].get("initial_points") or []
    if not isinstance(entries, list):
        raise ValueError(f"initial_points must be a list, got {entries!r}")
    for i, entry in enumerate(entries):
        try:
            for key, dim in (("pi", spec.n_leader_states), ("z", spec.n_follower_states)):
                project_to_simplex(entry[key], dim, tol=1e-9)
        except (OffSimplexError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"initial_points[{i}] must be an object with pi and z "
                             f"distributions of lengths {spec.n_leader_states} and "
                             f"{spec.n_follower_states}, got {entry!r} ({exc})") from None
    return [(entry["pi"], entry["z"]) for entry in entries]


@dataclass(frozen=True)
class OracleProfile:
    """Pure Markov profile: per-node action tuples for both sides."""

    leader: dict
    follower: dict

    def key(self):
        return (tuple(sorted(self.leader.items())),
                tuple(sorted(self.follower.items())))

    def __eq__(self, other):
        return isinstance(other, OracleProfile) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


@dataclass
class _Node:
    t: int
    pi: np.ndarray
    z: np.ndarray
    leader_map: tuple
    follower_map: tuple
    children: dict = field(default_factory=dict)   # leader action -> child key


def _pure_prescription(game, leader_map, follower_map) -> Prescription:
    return game._memoised(("gamma", leader_map, follower_map), lambda: Prescription.pure(
        leader_map, follower_map, game.spec.n_leader_actions, game.spec.n_follower_actions))


def _node_children(game, pi, z, leader_map, follower_map):
    """(next mean field, {leader action: next belief})."""
    def children():
        gamma = _pure_prescription(game, leader_map, follower_map)
        z_next = _frozen(mean_field_step(pi, z, gamma, game._tensors))
        return z_next, {al: _frozen(belief_step_total(pi, z, gamma.leader, al, game._tensors)[0])
                        for al in sorted(set(leader_map))}
    return game._memoised(("children", _exact(pi), _exact(z), leader_map, follower_map),
                          children)


def _last_stage_values(game, pi, z, leader_map) -> np.ndarray:
    """``_action_values`` at a last-stage node, whose continuation is zero:
    one table per (exact state, leader map), memoised in ``game``."""
    n_f = game.spec.n_follower_states
    return game._memoised(("last_stage", _exact(pi), _exact(z), leader_map), lambda: _frozen(
        _action_values(game, pi, z, leader_map, lambda al: np.zeros(n_f))))


def _last_stage_gap(game, pi, z, leader_map, follower_map) -> float:
    """Largest follower gain from deviating at a last-stage node; it equals
    the node's term of ``evaluate_profile``'s follower gap bit for bit."""
    table = _last_stage_values(game, pi, z, leader_map)
    return float(np.max(table.max(axis=1) - table[np.arange(len(table)), follower_map]))


def enumerate_profiles(game: TinyGame, initial_index: int = 0, tol: float = 1e-9):
    """Pure Markov profiles on the reachable public tree, in enumeration
    order, less those with a last-stage node whose follower gap exceeds ``tol``.

    Such a profile can never pass ``follower_ok(tol)``: its follower gap is
    the max over its nodes, or NaN.  A NaN node gap prunes nothing.  The
    pruned product over each last-stage node's kept pairs is a subsequence
    of the full product, so survivors keep their order.  ``max_profiles``
    caps the full, unpruned count.
    """
    spec = game.spec
    T = spec.horizon
    pi1, z1 = game.initial_points[initial_index]
    leader_maps = list(itertools.product(range(spec.n_leader_actions),
                                         repeat=spec.n_leader_states))
    follower_maps = list(itertools.product(range(spec.n_follower_actions),
                                           repeat=spec.n_follower_states))
    joint = list(itertools.product(leader_maps, follower_maps))

    profiles = []
    count = 0

    def recurse(t, states, leader_assign, follower_assign):
        nonlocal count
        keys = sorted(states)
        if t == T:
            count += len(joint) ** len(keys)
            if count > game.max_profiles:
                raise EnumerationTooLarge(
                    f"profile enumeration exceeded cap {game.max_profiles}")
            kept = [[(lm, fm) for lm, fm in joint
                     if not _last_stage_gap(game, *states[key], lm, fm) > tol]
                    for key in keys]
            for combo in itertools.product(*kept):
                leader, follower = dict(leader_assign), dict(follower_assign)
                for key, (lm, fm) in zip(keys, combo):
                    leader[key], follower[key] = lm, fm
                profiles.append(OracleProfile(leader=leader, follower=follower))
            return
        for combo in itertools.product(joint, repeat=len(keys)):
            for key, (lm, fm) in zip(keys, combo):
                leader_assign[key] = lm
                follower_assign[key] = fm
            next_states = {}
            for key in keys:
                pi, z = states[key]
                lm, fm = leader_assign[key], follower_assign[key]
                z_next, children = _node_children(game, pi, z, lm, fm)
                for pi_next in children.values():
                    # build_tree keeps the first state to reach a node key; with
                    # a single node before the last stage (horizon <= 2) so does this
                    next_states.setdefault(game._key(t + 1, pi_next, z_next), (pi_next, z_next))
            recurse(t + 1, next_states, leader_assign, follower_assign)
            for key in keys:
                del leader_assign[key]
                del follower_assign[key]

    recurse(1, {game._key(1, pi1, z1): (pi1, z1)}, {}, {})
    return profiles


def build_tree(game: TinyGame, profile: OracleProfile, initial_index: int = 0):
    """Expand a profile into its public tree (nodes keyed by (t, belief, mean field))."""
    T = game.spec.horizon
    pi1, z1 = game.initial_points[initial_index]
    nodes = {}

    def visit(t, pi, z):
        key = game._key(t, pi, z)
        if key in nodes:
            return key
        lm = profile.leader[key]
        fm = profile.follower[key]
        node = _Node(t=t, pi=np.asarray(pi), z=np.asarray(z),
                     leader_map=lm, follower_map=fm)
        nodes[key] = node
        if t < T:
            z_next, children = _node_children(game, pi, z, lm, fm)
            for al, pi_next in children.items():
                node.children[al] = visit(t + 1, pi_next, z_next)
        return key

    visit(1, pi1, z1)
    return nodes


@dataclass
class ProfileEvaluation:
    """Values and optimality checks of one profile on its own tree."""

    profile: OracleProfile
    tree: dict
    follower_values: dict           # key -> (n_f,)
    follower_best: dict             # key -> (n_f,) DP over all deviations
    leader_values: dict             # key -> (n_l,)
    root_key: tuple
    root_leader_value: float
    max_follower_gap: float
    consistent: bool

    def follower_ok(self, tol: float) -> bool:
        return self.max_follower_gap <= tol


def evaluate_profile(game: TinyGame, profile: OracleProfile,
                     initial_index: int = 0) -> ProfileEvaluation:
    spec = game.spec
    pi1, z1 = game.initial_points[initial_index]
    tree = build_tree(game, profile, initial_index)
    by_depth = sorted(tree.items(), key=lambda kv: -kv[1].t)

    vals, best, lead = {}, {}, {}
    for key, node in by_depth:
        pi, z = node.pi, node.z
        lm, fm = node.leader_map, node.follower_map
        n_f = spec.n_follower_states
        # Profile value plays the assigned action against the profile's own
        # continuation; the best-response DP maxes over actions against the
        # best continuation, covering history-dependent deviations.
        vals[key] = _action_values(game, pi, z, lm, _after(node, vals, n_f))[np.arange(n_f), fm]
        best[key] = _action_values(game, pi, z, lm, _after(node, best, n_f)).max(axis=1)

        lead[key] = _leader_values(game, z, lm, fm, lambda al: (lead[node.children[al]]
                                                                if node.children else None))

    root = game._key(1, pi1, z1)
    gap = max(float(np.max(best[k] - vals[k])) for k in tree)
    consistent = _check_consistency(game, tree)
    return ProfileEvaluation(
        profile=profile, tree=tree, follower_values=vals, follower_best=best,
        leader_values=lead, root_key=root,
        root_leader_value=float(pi1 @ lead[root]),
        max_follower_gap=gap, consistent=consistent)


def _action_values(game, pi, z, leader_map, child) -> np.ndarray:
    """(n_f, n_af) expected reward-to-go of each follower type and action
    when leader type x_l plays ``leader_map[x_l]``; ``child(a_l)`` is the
    follower value row after leader action a_l."""
    spec = game._tensors
    qf, rf = spec.follower_kernel(z), spec.follower_reward(z)
    out = np.zeros((spec.n_follower_states, spec.n_follower_actions))
    for xl in np.flatnonzero(np.asarray(pi) != 0.0):
        al = leader_map[xl]
        # (1, n_f) @ (n_f, 1): one dot product per kernel row
        ahead = np.matmul(qf[xl, :, al, :, None, :], child(al)[:, None])[..., 0, 0]
        out += pi[xl] * (rf[xl, :, al] + spec.discount * ahead)
    return out


def _after(node: _Node, table: dict, n_f: int):
    """``child`` for ``_action_values``: the ``table`` row of the node's child
    after each leader action, zeros at the last stage."""
    return lambda al: table[node.children[al]] if node.children else np.zeros(n_f)


def _leader_values(game, z, leader_map, follower_map, child) -> np.ndarray:
    """Leader value per type under a pure prescription pair; ``child(a_l)``
    is the leader value row after leader action a_l, or None at the end."""
    spec = game._tensors
    rl = game._memoised(("leader_reward", _exact(z), follower_map), lambda: _frozen(
        spec.leader_reward(z, _pure_prescription(game, leader_map, follower_map).follower)))
    ql = spec.leader_kernel(z)
    vl = np.zeros(spec.n_leader_states)
    for xl, al in enumerate(leader_map):
        after = child(al)
        vl[xl] = rl[xl, al]
        if after is not None:
            vl[xl] += spec.discount * float(ql[xl, al] @ after)
    return vl


def _check_consistency(game, tree) -> bool:
    """Stored child mean fields must be reproduced bitwise by the update map."""
    for key, node in tree.items():
        if not node.children:
            continue
        z_next = _node_children(game, node.pi, node.z, node.leader_map, node.follower_map)[0]
        for child_key in node.children.values():
            if not np.array_equal(tree[child_key].z, z_next):
                return False
    return True


class _ExactStageRecursion:
    """Exact stage equilibria at arbitrary public states, no grids.

    Works backward from the terminal time: at each queried (t, belief, mean
    field) it enumerates every pure prescription pair, keeps the pairs whose
    follower side is a self-consistent best response, and values them with
    the leader-optimistic continuation at the exact child states.  Used to
    price leader deviations: the leader must be unimprovable at every time,
    so candidate profiles are compared against these stage optima node by
    node.
    """

    def __init__(self, game: TinyGame, tol: float = 1e-9):
        self.game = game
        self.horizon = game.spec.horizon
        self.tol = tol
        self._stage = {}
        self._values = {}

    def stage_candidates(self, t: int, pi, z):
        """(leader map, follower map, ex-ante leader value, V^l rows) per
        stage-valid pair at this public state."""
        game, spec = self.game, self.game.spec
        key = game._key(t, pi, z)
        if key in self._stage:
            return self._stage[key]
        pi = np.asarray(pi, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        n_f, n_l = spec.n_follower_states, spec.n_leader_states
        zero_f, zero_l = np.zeros(n_f), np.zeros(n_l)
        out = []
        for lm in itertools.product(range(spec.n_leader_actions), repeat=n_l):
            for fm in itertools.product(range(spec.n_follower_actions), repeat=n_f):
                z_next, children = _node_children(game, pi, z, lm, fm)
                if t < self.horizon:
                    cont = {al: self.values(t + 1, pi_next, z_next)
                            for al, pi_next in children.items()}
                    vals = _action_values(game, pi, z, lm, lambda al: cont[al][0])
                else:
                    cont = dict.fromkeys(children, (zero_f, zero_l))
                    vals = _last_stage_values(game, pi, z, lm)
                if np.any(vals[np.arange(n_f), fm] < vals.max(axis=1) - self.tol):
                    continue
                vl = _leader_values(game, z, lm, fm, lambda al: cont[al][1])
                out.append((lm, fm, float(pi @ vl), vl))
        self._stage[key] = out
        return out

    def values(self, t: int, pi, z):
        """(V^f, V^l) rows of the leader-optimistic stage selection: the
        first stage-valid pair whose leader value is within ``SELECTION_TOL``
        of the best."""
        key = self.game._key(t, pi, z)
        if key in self._values:
            return self._values[key]
        cands = self.stage_candidates(t, pi, z)
        if not cands:
            raise NoEquilibriumError(
                "no pure stage equilibrium while pricing leader deviations; "
                "tiny game not oracle-compatible", t=t, pi=pi, z=z)
        best = max(c[2] for c in cands)
        lm, fm, _, vl = next(c for c in cands if c[2] >= best - SELECTION_TOL)
        # follower values of the selected pair, with its own continuation
        game = self.game
        if t < self.horizon:
            z_next, children = _node_children(game, pi, z, lm, fm)
            vals = _action_values(game, pi, z, lm,
                                  lambda al: self.values(t + 1, children[al], z_next)[0])
        else:
            vals = _last_stage_values(game, pi, z, lm)
        vf = vals[np.arange(len(vals)), fm]
        self._values[key] = (vf, vl)
        return self._values[key]

    def best_value(self, t: int, pi, z) -> float:
        cands = self.stage_candidates(t, pi, z)
        return max(c[2] for c in cands) if cands else -np.inf


def _leader_node_gaps(game: TinyGame, ev: ProfileEvaluation,
                      recursion: _ExactStageRecursion):
    """Per-node shortfall of the profile's leader value vs the stage optimum."""
    gaps = {}
    for key, node in ev.tree.items():
        own = float(np.asarray(node.pi) @ ev.leader_values[key])
        gaps[key] = recursion.best_value(node.t, node.pi, node.z) - own
    return gaps


@dataclass
class SMFEResult:
    profile: OracleProfile
    evaluation: ProfileEvaluation
    leader_gain: float
    max_follower_gain: float


def enumerate_smfe(game: TinyGame, initial_index: int = 0,
                   tol: float = 1e-9):
    """All equilibrium profiles of a tiny game, by exhaustive search.

    A profile qualifies when followers are sequentially rational at every
    tree node, the mean field reproduces itself, and the leader's play is
    unimprovable at every node: no alternative prescription pair (followers
    re-best-responding, leader-optimistic continuation) earns more than
    ``tol`` extra at any reached public state.  Requiring optimality at
    every time excludes time-inconsistent commitment plans that a stagewise
    recursion cannot generate.

    Profiles that a last-stage follower gap rules out are never formed (see
    ``enumerate_profiles``), so the result, its order and the first leader
    deviation pricing that raises ``NoEquilibriumError`` are those of the
    full search.  Leader gaps prune nothing, so no such raise is skipped.
    """
    recursion = _ExactStageRecursion(game, tol)
    out = []
    for profile in enumerate_profiles(game, initial_index, tol):
        ev = evaluate_profile(game, profile, initial_index)
        if not (ev.consistent and ev.follower_ok(tol)):
            continue
        gaps = _leader_node_gaps(game, ev, recursion)
        worst = max(gaps.values())
        if worst <= tol:
            out.append(SMFEResult(
                profile=ev.profile, evaluation=ev,
                leader_gain=max(worst, 0.0),
                max_follower_gain=ev.max_follower_gap))
    return out


def deviation_gain(profile: OracleProfile, game: TinyGame, player: str,
                   t: Optional[int] = None, info=None,
                   initial_index: int = 0) -> float:
    """Best improvement available by deviating from ``profile``.

    For a follower, the gain is over single-point deviations at one tree
    node and private type (all of them when ``info`` is None), keeping the
    continuation fixed.  For the leader, the gain at a node is the exact
    stage optimum (followers re-best-responding, optimistic continuation)
    minus the profile's own continuation value there; ``info`` may name a
    tree node key to restrict the check.
    """
    ev = evaluate_profile(game, profile, initial_index)
    if player == "follower":
        gaps = []
        for key, node in ev.tree.items():
            if t is not None and node.t != t:
                continue
            for xf in range(game.spec.n_follower_states):
                if info is not None and (key, xf) != tuple(info):
                    continue
                gaps.append(_one_shot_gain(game, ev, key, xf))
        return max(gaps) if gaps else 0.0
    if player == "leader":
        recursion = _ExactStageRecursion(game)
        gaps = _leader_node_gaps(game, ev, recursion)
        picked = [gap for key, gap in gaps.items()
                  if (t is None or key[0] == t) and (info is None or key == info)]
        return max(picked) if picked else 0.0
    raise ValueError(f"unknown player {player!r}")


def _one_shot_gain(game, ev: ProfileEvaluation, key, xf: int) -> float:
    """Gain from changing the follower action at one node/type only."""
    node = ev.tree[key]
    child = _after(node, ev.follower_values, game.spec.n_follower_states)
    dev_best = _action_values(game, node.pi, node.z, node.leader_map, child)[xf].max()
    return dev_best - float(ev.follower_values[key][xf])


def profile_from_generator(game: TinyGame, generator,
                           initial_index: int = 0) -> OracleProfile:
    """Extract the solver's pure profile over the reachable public tree.

    Requires every reached public state to sit exactly on the solver grid
    and every prescription there to be pure; tiny games are built to close
    their dynamics over the grid so this holds.
    """
    T = game.spec.horizon
    pi1, z1 = game.initial_points[initial_index]
    leader_assign, follower_assign = {}, {}

    def visit(t, pi, z):
        key = game._key(t, pi, z)
        if key in leader_assign:
            return
        flat, exact = generator.grid_lookup(pi, z)
        pure = exact and generator.policy_for(t).prescription(flat).pure_actions()
        if not pure:
            what = "prescription is not pure" if exact else "reaches an off-grid public state"
            raise UncheckableProfile(f"solver {what} at t={t}, pi={pi}, z={z}; "
                                     "the oracle checks pure on-grid profiles only")
        lm, fm = pure
        leader_assign[key] = lm
        follower_assign[key] = fm
        if t < T:
            z_next, children = _node_children(game, pi, z, lm, fm)
            for pi_next in children.values():
                visit(t + 1, pi_next, z_next)

    visit(1, pi1, z1)
    return OracleProfile(leader=leader_assign, follower=follower_assign)


def oracle_report(game: TinyGame, generator=None, tol: float = 1e-9) -> dict:
    """JSON-ready report: every equilibrium profile and its deviation gains."""
    report = {"initial_points": [], "horizon": game.spec.horizon,
              "game": game.spec.name}
    for idx, (pi1, z1) in enumerate(game.initial_points):
        results = enumerate_smfe(game, idx, tol)
        entry = {
            "initial_leader_belief": [float(v) for v in pi1],
            "initial_mean_field": [float(v) for v in z1],
            "n_smfe": len(results),
            "profiles": [],
        }
        solver_key = None
        if generator is not None:
            solver_key = profile_from_generator(game, generator, idx).key()
            entry["solver_profile_in_smfe_set"] = any(
                r.profile.key() == solver_key for r in results)
        for r in results:
            entry["profiles"].append({
                "leader": {str(k): list(v) for k, v in sorted(r.profile.leader.items())},
                "follower": {str(k): list(v) for k, v in sorted(r.profile.follower.items())},
                "leader_root_value": r.evaluation.root_leader_value,
                "leader_gain": r.leader_gain,
                "max_follower_gain": r.max_follower_gain,
                "matches_solver": (solver_key is not None
                                   and r.profile.key() == solver_key),
            })
        report["initial_points"].append(entry)
    return report
