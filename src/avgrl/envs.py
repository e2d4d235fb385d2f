"""Benchmark environments and MDP (de)serialization.

Environments are recurrent by construction: gridworld terminals (holes and
the goal) restart to the start cell so the long-run average reward is well
defined, and Garnet instances mix every transition row with the uniform
distribution.  The two stored fixtures (4-state ring, 4x4 slippery gridworld)
are frozen; tests pin their content hashes.

The on-disk format is JSON:

    {"n_states": S, "n_actions": A, "reward_bound": U_r,
     "P": [[[...]]], "R": [[...]], "features": [[...]] (optional)}

Floats are written with repr(), which round-trips bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, ParseError
from .features import FeatureMap
from .mdp import FiniteMdp, SoftmaxLinearPolicy, induced_chain, is_irreducible

# gym-style action encoding for gridworlds
LEFT, DOWN, RIGHT, UP = 0, 1, 2, 3
_MOVES = {LEFT: (0, -1), DOWN: (1, 0), RIGHT: (0, 1), UP: (-1, 0)}
_PERPENDICULAR = {LEFT: (UP, DOWN), RIGHT: (UP, DOWN), DOWN: (LEFT, RIGHT), UP: (LEFT, RIGHT)}


@dataclass(frozen=True)
class GridworldSpec:
    """Slippery gridworld on a height x width grid.

    Each move goes to the intended neighbor with probability 1 - slip and
    splits the remaining slip mass evenly between the two perpendicular
    neighbors; walls reflect (the walker stays put).  Holes and the goal are
    terminal: every action restarts at `start`, which keeps every policy's
    chain recurrent.  Rewards depend on the current cell only: goal_reward at
    the goal, hole_reward in holes, step_reward elsewhere.
    """

    height: int = 4
    width: int = 4
    holes: tuple[int, ...] = ()
    goal: int = 15
    start: int = 0
    slip: float = 2.0 / 3.0
    step_reward: float = 0.0
    hole_reward: float = 0.0
    goal_reward: float = 1.0


def build_gridworld(spec: GridworldSpec) -> FiniteMdp:
    n = spec.height * spec.width
    cells = set(range(n))
    if spec.goal not in cells or spec.start not in cells:
        raise InvalidSpec("start and goal must be grid cells")
    if not set(spec.holes) <= cells:
        raise InvalidSpec("holes must be grid cells")
    if spec.start == spec.goal or spec.start in spec.holes or spec.goal in spec.holes:
        raise InvalidSpec("start, goal, and holes must be distinct cells")
    if not 0.0 <= spec.slip < 1.0:
        raise InvalidSpec(f"slip must lie in [0, 1), got {spec.slip}")

    terminal = set(spec.holes) | {spec.goal}

    def move(s: int, action: int) -> int:
        row, col = divmod(s, spec.width)
        dr, dc = _MOVES[action]
        r1, c1 = row + dr, col + dc
        if not (0 <= r1 < spec.height and 0 <= c1 < spec.width):
            return s  # wall: reflect
        return r1 * spec.width + c1

    P = np.zeros((n, 4, n))
    R = np.zeros((n, 4))
    for s in range(n):
        if s in spec.holes:
            R[s, :] = spec.hole_reward
        elif s == spec.goal:
            R[s, :] = spec.goal_reward
        else:
            R[s, :] = spec.step_reward
        for a in range(4):
            if s in terminal:
                P[s, a, spec.start] = 1.0
                continue
            P[s, a, move(s, a)] += 1.0 - spec.slip
            for side in _PERPENDICULAR[a]:
                P[s, a, move(s, side)] += spec.slip / 2.0

    bound = max(1.0, abs(spec.step_reward), abs(spec.hole_reward), abs(spec.goal_reward))
    mdp = FiniteMdp(P, R, reward_bound=bound)
    uniform = SoftmaxLinearPolicy(np.zeros(n * 4), tabular_action_features(n, 4))
    if not is_irreducible(induced_chain(mdp, uniform).kernel):
        raise InvalidSpec("gridworld is not irreducible under the uniform policy")
    return mdp


def frozen_lake_4x4() -> FiniteMdp:
    """The 4x4 slippery-lake benchmark (layout SFFF/FHFH/FFFH/HFFG).

    Holes at cells 5, 7, 11, 12; goal at 15; slip 2/3; reward 1 in the goal
    cell and 0 elsewhere.  Terminals restart at cell 0.
    """
    return build_gridworld(
        GridworldSpec(height=4, width=4, holes=(5, 7, 11, 12), goal=15, start=0)
    )


@dataclass(frozen=True)
class GarnetSpec:
    """Random MDP family: each (s, a) transitions to `branching` uniformly
    chosen successors with Dirichlet(1) weights, then every row is mixed with
    the uniform distribution: P <- (1 - epsilon) P + epsilon / S.  Rewards are
    i.i.d. uniform on [-reward_bound, reward_bound]."""

    n_states: int = 5
    n_actions: int = 3
    branching: int = 2
    epsilon: float = 0.05
    reward_bound: float = 1.0
    seed: int = 0


def build_garnet(spec: GarnetSpec) -> FiniteMdp:
    if not 1 <= spec.branching <= spec.n_states:
        raise InvalidSpec("branching must lie in [1, n_states]")
    if not 0.0 <= spec.epsilon <= 1.0:
        raise InvalidSpec("epsilon must lie in [0, 1]")
    rng = np.random.default_rng(spec.seed)
    S, A = spec.n_states, spec.n_actions
    P = np.zeros((S, A, S))
    for s in range(S):
        for a in range(A):
            succ = rng.choice(S, size=spec.branching, replace=False)
            w = rng.dirichlet(np.ones(spec.branching))
            P[s, a, succ] = w
    P = (1.0 - spec.epsilon) * P + spec.epsilon / S
    R = rng.uniform(-spec.reward_bound, spec.reward_bound, size=(S, A))
    return FiniteMdp(P, R, reward_bound=spec.reward_bound)


def four_state_easy() -> FiniteMdp:
    """4-state ring with a single rewarded cell; two actions, stay or advance.

    Every row keeps 0.05 mass on each state plus 0.80 extra on the action's
    target (stay: the current state; advance: the clockwise neighbor), so all
    policies mix geometrically.  Reward is 1 in state 2 regardless of action.
    The gain-optimal policy stays at state 2 and advances elsewhere; its gain
    is 0.738.
    """
    S, A = 4, 2
    P = np.full((S, A, S), 0.05)
    for s in range(S):
        P[s, 0, s] += 0.80  # stay
        P[s, 1, (s + 1) % S] += 0.80  # advance clockwise
    R = np.zeros((S, A))
    R[2, :] = 1.0
    return FiniteMdp(P, R, reward_bound=1.0)


def tabular_action_features(n_states: int, n_actions: int) -> np.ndarray:
    """One-hot (s, a) indicator features, shape (S, A, S*A); score bound 2."""
    return np.eye(n_states * n_actions).reshape(n_states, n_actions, n_states * n_actions)


def tabular_policy(mdp: FiniteMdp, theta: np.ndarray | None = None) -> SoftmaxLinearPolicy:
    """Softmax policy over one-hot (s, a) features; theta defaults to zeros."""
    x = tabular_action_features(mdp.n_states, mdp.n_actions)
    if theta is None:
        theta = np.zeros(mdp.n_states * mdp.n_actions)
    return SoftmaxLinearPolicy(theta, x)


def save_mdp(path: str, mdp: FiniteMdp, features: FeatureMap | None = None) -> None:
    """Write the JSON schema; repr-format floats survive a round trip exactly."""
    doc = {
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "reward_bound": mdp.reward_bound,
        "P": mdp.transition.tolist(),
        "R": mdp.reward.tolist(),
    }
    if features is not None:
        doc["features"] = features.table.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_mdp(path: str) -> tuple[FiniteMdp, FeatureMap | None]:
    """Parse and validate the JSON schema.

    ParseError names the missing, mistyped or misshapen field; InvariantViolation
    (raised by the constructors) names the offending (s, a) row.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("n_states", "n_actions", "reward_bound", "P", "R"):
        if key not in doc:
            raise ParseError(f"{path}: missing required key {key!r}")
    for key, kind, name in (("n_states", int, "an integer"), ("n_actions", int, "an integer"),
                            ("reward_bound", (int, float), "a number")):
        if isinstance(doc[key], bool) or not isinstance(doc[key], kind):
            raise ParseError(f"{path}: {key} must be {name}, got {doc[key]!r}")
    S, A = doc["n_states"], doc["n_actions"]
    try:
        P = np.array(doc["P"], dtype=float)
        R = np.array(doc["R"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: P/R are not numeric arrays ({exc})") from exc
    if P.shape != (S, A, S):
        raise ParseError(f"{path}: P has shape {P.shape}, want {(S, A, S)}")
    if R.shape != (S, A):
        raise ParseError(f"{path}: R has shape {R.shape}, want {(S, A)}")
    mdp = FiniteMdp(P, R, reward_bound=float(doc["reward_bound"]))
    features = None
    if "features" in doc:
        try:
            table = np.array(doc["features"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: features are not numeric ({exc})") from exc
        if table.ndim != 2 or table.shape[0] != S:
            raise ParseError(
                f"{path}: features have shape {table.shape}, want ({S}, d1)"
            )
        features = FeatureMap(table)
    return mdp, features


def content_hash(mdp: FiniteMdp) -> str:
    """SHA-256 over the exact transition/reward bytes; pins fixture stability."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(mdp.transition).tobytes())
    h.update(np.ascontiguousarray(mdp.reward).tobytes())
    h.update(repr(mdp.reward_bound).encode())
    return h.hexdigest()


BUILTIN_ENVS = {
    "four-state": four_state_easy,
    "gridworld4": frozen_lake_4x4,
    "garnet": lambda: build_garnet(GarnetSpec()),
}


def resolve_env(name_or_path: str) -> tuple[FiniteMdp, FeatureMap | None]:
    """Map a builtin name or a JSON file path to an MDP (+ embedded features)."""
    if name_or_path in BUILTIN_ENVS:
        return BUILTIN_ENVS[name_or_path](), None
    return load_mdp(name_or_path)
