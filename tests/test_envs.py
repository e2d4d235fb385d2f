"""Environment builders, fixture stability hashes, and JSON round trips."""

import json

import numpy as np
import pytest

from avgrl.envs import (
    DOWN,
    LEFT,
    RIGHT,
    UP,
    GarnetSpec,
    GridworldSpec,
    build_garnet,
    build_gridworld,
    content_hash,
    four_state_easy,
    frozen_lake_4x4,
    load_mdp,
    resolve_env,
    save_mdp,
    tabular_action_features,
)
from avgrl.errors import InvalidSpec, InvariantViolation, ParseError
from avgrl.features import make_features

FOUR_STATE_HASH = "d00b577df40b9e5d460831a8a215f67109816510468f6e9555de6a1bfe17f6c3"
GRIDWORLD_HASH = "938253aac44d3fb501693bc16b181f36e9a681c99492cd41d3b3f53e75be1b19"


class TestFourState:
    def test_transition_rows(self):
        m = four_state_easy()
        assert np.allclose(m.transition[0, 0], [0.85, 0.05, 0.05, 0.05])
        assert np.allclose(m.transition[0, 1], [0.05, 0.85, 0.05, 0.05])
        assert np.allclose(m.transition[3, 1], [0.85, 0.05, 0.05, 0.05])  # wraps

    def test_reward_placement(self):
        m = four_state_easy()
        expected = np.zeros((4, 2))
        expected[2, :] = 1.0
        assert np.array_equal(m.reward, expected)

    def test_content_hash_pinned(self):
        assert content_hash(four_state_easy()) == FOUR_STATE_HASH


class TestGridworld:
    def test_content_hash_pinned(self):
        assert content_hash(frozen_lake_4x4()) == GRIDWORLD_HASH

    def test_rows_are_distributions(self):
        m = frozen_lake_4x4()
        assert np.allclose(m.transition.sum(axis=2), 1.0)
        assert np.all(m.transition >= 0.0)

    def test_terminals_restart(self):
        m = frozen_lake_4x4()
        for cell in (5, 7, 11, 12, 15):
            for a in range(4):
                assert m.transition[cell, a, 0] == 1.0

    def test_reward_on_goal_only(self):
        m = frozen_lake_4x4()
        expected = np.zeros((16, 4))
        expected[15, :] = 1.0
        assert np.array_equal(m.reward, expected)

    def test_slip_splits_perpendicular(self):
        # cell 9 = (row 2, col 1); RIGHT intends 10, slips to 5 (up) or 13 (down)
        m = frozen_lake_4x4()
        row = m.transition[9, RIGHT]
        assert row[10] == pytest.approx(1.0 / 3.0)
        assert row[5] == pytest.approx(1.0 / 3.0)
        assert row[13] == pytest.approx(1.0 / 3.0)
        assert row.sum() == pytest.approx(1.0)

    def test_walls_reflect(self):
        spec = GridworldSpec(holes=(5,), slip=0.0)
        m = build_gridworld(spec)
        assert m.transition[0, UP, 0] == 1.0
        assert m.transition[0, LEFT, 0] == 1.0
        assert m.transition[3, RIGHT, 3] == 1.0
        assert m.transition[12, DOWN, 12] == 1.0

    def test_no_slip_moves_deterministically(self):
        m = build_gridworld(GridworldSpec(holes=(5,), slip=0.0))
        assert m.transition[1, LEFT, 0] == 1.0
        assert m.transition[1, DOWN, 5] == 1.0
        assert m.transition[1, RIGHT, 2] == 1.0

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            build_gridworld(GridworldSpec(goal=16))
        with pytest.raises(InvalidSpec):
            build_gridworld(GridworldSpec(start=15, goal=15))
        with pytest.raises(InvalidSpec):
            build_gridworld(GridworldSpec(holes=(0,)))  # hole on the start
        with pytest.raises(InvalidSpec):
            build_gridworld(GridworldSpec(holes=(99,)))
        with pytest.raises(InvalidSpec):
            build_gridworld(GridworldSpec(slip=1.0))


class TestGarnet:
    def test_uniform_mixing_at_epsilon_one(self):
        m = build_garnet(GarnetSpec(n_states=6, n_actions=2, epsilon=1.0))
        assert np.allclose(m.transition, 1.0 / 6.0)

    def test_branching_support(self):
        m = build_garnet(GarnetSpec(n_states=8, n_actions=3, branching=3, epsilon=0.0))
        support = (m.transition > 1e-12).sum(axis=2)
        assert np.all(support == 3)

    def test_seed_determinism(self):
        a = build_garnet(GarnetSpec(seed=42))
        b = build_garnet(GarnetSpec(seed=42))
        assert np.array_equal(a.transition, b.transition)
        assert np.array_equal(a.reward, b.reward)
        c = build_garnet(GarnetSpec(seed=43))
        assert not np.array_equal(a.transition, c.transition)

    def test_rewards_within_bound(self):
        m = build_garnet(GarnetSpec(reward_bound=0.3, seed=5))
        assert np.all(np.abs(m.reward) <= 0.3)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            build_garnet(GarnetSpec(branching=0))
        with pytest.raises(InvalidSpec):
            build_garnet(GarnetSpec(n_states=3, branching=4))
        with pytest.raises(InvalidSpec):
            build_garnet(GarnetSpec(epsilon=1.5))


class TestTabularFeatures:
    def test_one_hot_layout(self):
        x = tabular_action_features(3, 2)
        assert x.shape == (3, 2, 6)
        for s in range(3):
            for a in range(2):
                expected = np.zeros(6)
                expected[s * 2 + a] = 1.0
                assert np.array_equal(x[s, a], expected)


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        m = build_garnet(GarnetSpec(seed=7))  # dirichlet weights: full precision
        path = tmp_path / "garnet.json"
        save_mdp(str(path), m)
        loaded, feats = load_mdp(str(path))
        assert feats is None
        assert np.array_equal(loaded.transition, m.transition)
        assert np.array_equal(loaded.reward, m.reward)
        assert loaded.reward_bound == m.reward_bound
        assert content_hash(loaded) == content_hash(m)

    def test_embedded_features_round_trip(self, tmp_path):
        m = four_state_easy()
        fmap = make_features("random_unit", m, d1=2, seed=3)
        path = tmp_path / "with_features.json"
        save_mdp(str(path), m, features=fmap)
        _, loaded = load_mdp(str(path))
        assert loaded is not None
        assert np.array_equal(loaded.table, fmap.table)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "missing.json"
        doc = {"n_states": 2, "n_actions": 1, "reward_bound": 1.0,
               "P": [[[0.5, 0.5]], [[0.5, 0.5]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="'R'"):
            load_mdp(str(path))

    @pytest.mark.parametrize("key,value", [
        ("reward_bound", "x"), ("reward_bound", None), ("reward_bound", [1]),
        ("reward_bound", True), ("n_states", 2.0), ("n_states", "2"), ("n_actions", None),
        ("n_actions", False),
    ])
    def test_mistyped_number(self, tmp_path, key, value):
        path = tmp_path / "typed.json"
        doc = {"n_states": 2, "n_actions": 1, "reward_bound": 1.0,
               "P": [[[0.5, 0.5]], [[0.5, 0.5]]], "R": [[0.0], [0.0]]}
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"{key} must be"):
            load_mdp(str(path))

    def test_integer_reward_bound_accepted(self, tmp_path):
        path = tmp_path / "int_bound.json"
        doc = {"n_states": 2, "n_actions": 1, "reward_bound": 1,
               "P": [[[0.5, 0.5]], [[0.5, 0.5]]], "R": [[1.0], [0.0]]}
        path.write_text(json.dumps(doc))
        assert load_mdp(str(path))[0].reward_bound == 1.0

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="not valid JSON"):
            load_mdp(str(path))

    def test_wrong_shape(self, tmp_path):
        path = tmp_path / "shape.json"
        doc = {"n_states": 2, "n_actions": 1, "reward_bound": 1.0,
               "P": [[0.5, 0.5], [0.5, 0.5]], "R": [[0.0], [0.0]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="shape"):
            load_mdp(str(path))

    def test_features_wrong_shape(self, tmp_path):
        path = tmp_path / "feat.json"
        doc = {"n_states": 2, "n_actions": 1, "reward_bound": 1.0,
               "P": [[[0.5, 0.5]], [[0.5, 0.5]]], "R": [[0.0], [0.0]],
               "features": [[1.0], [0.0], [0.0]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="features"):
            load_mdp(str(path))

    def test_top_level_not_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ParseError, match="object"):
            load_mdp(str(path))

    def test_file_not_found(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_mdp(str(tmp_path / "nope.json"))

    def test_invalid_rows_rejected_on_load(self, tmp_path):
        path = tmp_path / "rows.json"
        doc = {"n_states": 2, "n_actions": 1, "reward_bound": 1.0,
               "P": [[[0.3, 0.3]], [[0.5, 0.5]]], "R": [[0.0], [0.0]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(InvariantViolation):
            load_mdp(str(path))

    def test_reward_bound_enforced_on_load(self, tmp_path):
        path = tmp_path / "bound.json"
        doc = {"n_states": 2, "n_actions": 1, "reward_bound": 0.1,
               "P": [[[0.5, 0.5]], [[0.5, 0.5]]], "R": [[1.0], [0.0]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(InvariantViolation):
            load_mdp(str(path))


class TestResolveEnv:
    def test_builtin_names(self):
        m, feats = resolve_env("four-state")
        assert feats is None
        assert content_hash(m) == FOUR_STATE_HASH
        m, _ = resolve_env("gridworld4")
        assert content_hash(m) == GRIDWORLD_HASH
        m, _ = resolve_env("garnet")
        assert m.n_states == 5 and m.n_actions == 3

    def test_path_fallback(self, tmp_path):
        m = four_state_easy()
        path = tmp_path / "ring.json"
        save_mdp(str(path), m)
        loaded, _ = resolve_env(str(path))
        assert content_hash(loaded) == FOUR_STATE_HASH
