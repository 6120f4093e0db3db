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
fails whatever its other nodes do.  Every exact public state a search
meets is priced once, every prescription pair in one array pass
(``_stage_table``): at the horizon against a zero continuation, before it
against the stage selection at each child.  That one table prunes the last
stage, screens the profiles and prices leader deviations.  The profiles that
share a root pair are screened together in arrays, in enumeration order;
each screened quantity equals ``evaluate_profile``'s bit for bit, so the
results are those of the exhaustive search, and only the equilibria are
evaluated one by one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

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
    view = np.asarray(arr).view()
    view.flags.writeable = False        # a read-only view
    return view


@dataclass
class TinyGame:
    """A game small enough for exhaustive profile enumeration.

    Bounds: finite horizon <= 2, at most 2 types per side, at most 2 follower
    actions and 3 leader actions.  ``initial_points`` lists the (belief,
    mean field) starting points to analyze; defaults to the spec's own.

    ``_memo`` keeps for the game's lifetime, under the exact float64 bytes
    of beliefs and mean fields (never rounded node keys), the tensors per
    mean field (the spec ``_tensors`` reads them), the children per map
    pair, pure prescriptions, leader reward rows, the ``_Stage`` table per
    (t, state, tol), and node keys, read-only.
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


def _joint(game) -> tuple:
    """Every (leader map, follower map) pair, leader maps outer."""
    spec = game.spec
    return game._memoised(("joint",), lambda: tuple(itertools.product(
        itertools.product(range(spec.n_leader_actions), repeat=spec.n_leader_states),
        itertools.product(range(spec.n_follower_actions), repeat=spec.n_follower_states))))


class _Stage(NamedTuple):
    """Every pair of ``_joint`` at one exact public state, by pair index,
    valued against the ``_selected`` rows of its children: a zero
    continuation at the horizon, where each row is, bit for bit, what
    ``evaluate_profile`` and ``_leader_node_gaps`` compute for the pair at a
    node there."""

    chosen: np.ndarray      # (P, n_f) value of each type's prescribed action
    best: np.ndarray        # (P, n_f) value of each type's best action
    gap: np.ndarray         # (P,) largest follower gain from deviating
    valid: np.ndarray       # (P,) no type's value below its best by more than tol
    lead: np.ndarray        # (P, n_l) leader value per type
    own: np.ndarray         # (P,) ex-ante leader value


def _stage_table(game, t: int, pi, z, tol: float) -> _Stage:
    """The ``_Stage`` at (t, pi, z): one ``_action_values`` call per leader
    map, its follower maps the batch axis; once per (t, exact state, tol),
    memoised in ``game``.  Children are priced in pair order, so the first
    one without a stage equilibrium raises."""
    def table():
        spec, n_f = game._tensors, game.spec.n_follower_states
        joint = _joint(game)
        leader_maps = list(dict.fromkeys(lm for lm, _ in joint))
        follower_maps = list(dict.fromkeys(fm for _, fm in joint))
        rewards = np.stack([_leader_reward(game, z, leader_maps[0], fm) for fm in follower_maps])
        ql = spec.leader_kernel(z)
        columns = []
        for lm in leader_maps:
            # leader action -> (V^f, V^l) rows after it, one per follower map
            after = dict.fromkeys(lm, (np.zeros((len(follower_maps), n_f)), None))
            if t < game.spec.horizon:
                picked = {}
                for fm in follower_maps:
                    z_next, children = _node_children(game, pi, z, lm, fm)
                    for al, pi_next in children.items():
                        picked.setdefault(al, []).append(
                            _selected(game, t + 1, pi_next, z_next, tol))
                after = {al: tuple(map(np.stack, zip(*rows))) for al, rows in picked.items()}
            values = _action_values(game, pi, z, lm, lambda al: after[al][0])
            # ``_leader_values`` with the follower maps as the batch axis
            lead = np.stack([rewards[:, xl, al] if after[al][1] is None else
                             rewards[:, xl, al] + spec.discount
                             * np.matmul(ql[xl, al], after[al][1][..., None])[..., 0]
                             for xl, al in enumerate(lm)], axis=-1)
            columns.append((np.take_along_axis(values, np.array(follower_maps)[..., None],
                                               axis=2)[..., 0], values.max(axis=2), lead))
        chosen, best, lead = map(np.concatenate, zip(*columns))
        return _Stage(*map(_frozen, (
            chosen, best, (best - chosen).max(axis=1), ~np.any(chosen < best - tol, axis=1),
            lead, np.matmul(pi, lead[..., None])[..., 0])))
    return game._memoised(("stage", t, _exact(pi), _exact(z), tol), table)


def _best_value(game, t: int, pi, z, tol: float) -> float:
    """The best ex-ante leader value of a valid pair at (t, pi, z): builtin
    ``max`` in pair order, so a NaN wins only first; -inf if there is none."""
    table = _stage_table(game, t, pi, z, tol)
    return max(table.own[table.valid].tolist(), default=-np.inf)


def _selected(game, t: int, pi, z, tol: float):
    """(V^f, V^l) rows of the leader-optimistic stage selection at (t, pi,
    z): the first valid pair whose leader value is within ``SELECTION_TOL``
    of the best."""
    table = _stage_table(game, t, pi, z, tol)
    best = _best_value(game, t, pi, z, tol)
    for p in np.flatnonzero(table.valid):
        if table.own[p] >= best - SELECTION_TOL:
            return table.chosen[p], table.lead[p]
    raise NoEquilibriumError(
        f"no pure stage equilibrium within {SELECTION_TOL} of the best leader value {best} "
        "while pricing leader deviations; tiny game not oracle-compatible", t=t, pi=pi, z=z)


@dataclass
class _Group:
    """The profiles that share their play before the last stage: every
    combination of the kept pairs of each last-stage node, keys in sorted
    order, in ``itertools.product`` order."""

    root_key: tuple
    root: Optional[_Node]   # the node before the last stage; None at horizon 1
    states: dict            # last-stage key -> (pi, z), in tree order
    kept: dict              # last-stage key -> ``_joint`` indices of its kept pairs

    def combos(self) -> list:
        return list(itertools.product(*(self.kept[key] for key in sorted(self.states))))

    def profile(self, joint, combo) -> OracleProfile:
        pairs = dict(zip(sorted(self.states), (joint[p] for p in combo)))
        if self.root is not None:
            pairs = {self.root_key: (self.root.leader_map, self.root.follower_map), **pairs}
        return OracleProfile(leader={key: lm for key, (lm, _) in pairs.items()},
                             follower={key: fm for key, (_, fm) in pairs.items()})


def _groups(game: TinyGame, initial_index: int, tol: float) -> list:
    """The pruned enumeration as ``_Group``s, one per root pair (a single one
    at horizon 1), in enumeration order.  A last-stage pair is kept unless
    its follower gap exceeds ``tol``; ``max_profiles`` caps the unpruned count.
    """
    joint, horizon = _joint(game), game.spec.horizon
    pi1, z1 = game.initial_points[initial_index]
    root_key = game._key(1, pi1, z1)
    roots = [None] if horizon == 1 else [
        _Node(t=1, pi=pi1, z=z1, leader_map=lm, follower_map=fm) for lm, fm in joint]
    groups, count = [], 0
    for root in roots:
        states = {root_key: (pi1, z1)}
        if root is not None:
            z_next, children = _node_children(game, pi1, z1, root.leader_map, root.follower_map)
            states = {}
            for al, pi_next in children.items():
                # build_tree keeps the first state to reach a node key; so does this
                root.children[al] = key = game._key(2, pi_next, z_next)
                states.setdefault(key, (pi_next, z_next))
        count += len(joint) ** len(states)
        if count > game.max_profiles:
            raise EnumerationTooLarge(f"profile enumeration exceeded cap {game.max_profiles}")
        groups.append(_Group(root_key, root, states, {
            key: np.flatnonzero(~(_stage_table(game, horizon, *state, tol).gap > tol)).tolist()
            for key, state in states.items()}))
    return groups


def enumerate_profiles(game: TinyGame, initial_index: int = 0, tol: float = 1e-9):
    """Pure Markov profiles on the reachable public tree, in enumeration
    order, less those with a last-stage node whose follower gap exceeds ``tol``.

    Such a profile can never pass ``follower_ok(tol)``: its follower gap is
    the max over its nodes, or NaN.  A NaN node gap prunes nothing.  The
    pruned product over each last-stage node's kept pairs is a subsequence
    of the full product, so survivors keep their order.  ``max_profiles``
    caps the full, unpruned count.
    """
    joint = _joint(game)
    return [group.profile(joint, combo) for group in _groups(game, initial_index, tol)
            for combo in group.combos()]


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
    """(..., n_f, n_af) expected reward-to-go of each follower type and
    action when leader type x_l plays ``leader_map[x_l]``; ``child(a_l)`` is
    the follower value row after leader action a_l, (..., n_f) for a batch."""
    spec = game._tensors
    qf, rf = spec.follower_kernel(z), spec.follower_reward(z)
    out = np.zeros((spec.n_follower_states, spec.n_follower_actions))
    for xl in np.flatnonzero(np.asarray(pi) != 0.0):
        al = leader_map[xl]
        # (1, n_f) @ (n_f, 1): one dot product per kernel row and batch entry
        ahead = np.matmul(qf[xl, :, al, :, None, :], child(al)[..., None, None, :, None])
        out = out + pi[xl] * (rf[xl, :, al] + spec.discount * ahead[..., 0, 0])
    return out


def _after(node: _Node, table: dict, n_f: int):
    """``child`` for ``_action_values``: the ``table`` row of the node's child
    after each leader action, zeros at the last stage."""
    return lambda al: table[node.children[al]] if node.children else np.zeros(n_f)


def _leader_reward(game, z, leader_map, follower_map) -> np.ndarray:
    """(n_l, n_al) leader reward against the follower map, memoised in ``game``
    per (exact mean field, follower map); ``leader_map`` only completes the
    pure prescription."""
    return game._memoised(("leader_reward", _exact(z), follower_map), lambda: _frozen(
        game._tensors.leader_reward(z, _pure_prescription(game, leader_map, follower_map).follower)))


def _leader_values(game, z, leader_map, follower_map, child) -> np.ndarray:
    """(..., n_l) leader value per type under a pure prescription pair;
    ``child(a_l)`` is the leader value row after leader action a_l, (..., n_l)
    for a batch, or None at the end."""
    spec = game._tensors
    rl = _leader_reward(game, z, leader_map, follower_map)
    ql = spec.leader_kernel(z)
    columns = []
    for xl, al in enumerate(leader_map):
        after = child(al)
        # (n_l,) @ (n_l, 1): one dot product per batch entry
        columns.append(rl[xl, al] if after is None else
                       rl[xl, al] + spec.discount * np.matmul(ql[xl, al], after[..., None])[..., 0])
    return np.stack(columns, axis=-1)


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


def _leader_node_gaps(game: TinyGame, ev: ProfileEvaluation, tol: float):
    """Per-node shortfall of the profile's leader value vs the stage optimum."""
    gaps = {}
    for key, node in ev.tree.items():
        own = float(np.asarray(node.pi) @ ev.leader_values[key])
        gaps[key] = _best_value(game, node.t, node.pi, node.z, tol) - own
    return gaps


def _ordered_max(columns: list) -> np.ndarray:
    """Elementwise builtin ``max`` over ``columns`` in order: a later value
    replaces the running one only when greater, so a NaN wins only first."""
    out = columns[0]
    for column in columns[1:]:
        out = np.where(column > out, column, out)
    return out


class _Screen(NamedTuple):
    """A ``_Group``'s profiles in arrays, in its ``combos`` order; each entry
    equals the ``evaluate_profile`` / ``_leader_node_gaps`` quantity bit for bit."""

    combos: list
    follower_gap: np.ndarray    # (B,) ``max_follower_gap``
    consistent: bool            # the same for every profile of a group
    nodes: list                 # (t, pi, z) per tree node, in tree order
    own: list                   # (B,) ex-ante leader value per tree node

    def leader_gap(self, game: TinyGame, tol: float) -> np.ndarray:
        """(B,) worst node shortfall against the stage optimum, pricing the
        nodes in tree order."""
        return _ordered_max([_best_value(game, *node, tol) - own
                           for node, own in zip(self.nodes, self.own)])


def _screen(game: TinyGame, group: _Group, tol: float) -> _Screen:
    """Screen every profile of ``group`` at once: the last-stage rows come
    from the horizon's ``_stage_table``; the root, if any, is valued over all
    of them in one batched ``_action_values`` / ``_leader_values`` call each."""
    combos = group.combos()
    picks = np.array(combos, dtype=np.intp).reshape(len(combos), len(group.states))
    rows = {}           # each last-stage node's ``_Stage`` rows, one per profile
    for i, key in enumerate(sorted(group.states)):
        table = _stage_table(game, game.spec.horizon, *group.states[key], tol)
        rows[key] = table._make(column[picks[:, i]] for column in table)
    nodes = [(game.spec.horizon, *state) for state in group.states.values()]
    gaps = [rows[key].gap for key in group.states]
    own = [rows[key].own for key in group.states]
    consistent = True
    root = group.root
    if root is not None:
        pi, z, lm, fm = root.pi, root.z, root.leader_map, root.follower_map
        z_next = _node_children(game, pi, z, lm, fm)[0]
        consistent = all(np.array_equal(z_child, z_next) for _, z_child in group.states.values())

        def after(column):
            return lambda al: getattr(rows[root.children[al]], column)
        vals = _action_values(game, pi, z, lm, after("chosen"))[:, np.arange(len(fm)), fm]
        best = _action_values(game, pi, z, lm, after("best")).max(axis=2)
        lead = _leader_values(game, z, lm, fm, after("lead"))
        nodes.insert(0, (root.t, pi, z))
        gaps.insert(0, (best - vals).max(axis=1))
        own.insert(0, np.matmul(pi, lead[..., None])[..., 0])
    return _Screen(combos, _ordered_max(gaps), consistent, nodes, own)


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
    ``enumerate_profiles``); the rest are screened in arrays per root pair
    (``_screen``), and only the equilibria go through ``evaluate_profile``.
    The result, its order and the first leader deviation pricing that
    raises ``NoEquilibriumError`` are those of the full search: leader
    gaps are priced, in enumeration order, for every group holding a
    profile that passes the follower and consistency checks.
    """
    joint = _joint(game)
    out = []
    for group in _groups(game, initial_index, tol):
        screen = _screen(game, group, tol)
        follower_ok = screen.consistent & (screen.follower_gap <= tol)
        if not follower_ok.any():
            continue
        worst = screen.leader_gap(game, tol)
        for b in np.flatnonzero(follower_ok & (worst <= tol)):
            ev = evaluate_profile(game, group.profile(joint, screen.combos[b]), initial_index)
            out.append(SMFEResult(
                profile=ev.profile, evaluation=ev,
                leader_gain=max(float(worst[b]), 0.0),
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
        gaps = _leader_node_gaps(game, ev, 1e-9)
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
