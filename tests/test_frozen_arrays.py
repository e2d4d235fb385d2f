"""Every array held by the model objects is read-only (stdlib `ast`, then a
run-time check).

`SoftmaxLinearPolicy` caches its pi and psi tables and its last chain, and
`PolicyChain` its stationary distribution; they hand them to every caller, and
`with_theta` shares its action features with the new policy.  That is safe only while nothing can write to them, so:

  * each `np.ndarray` field of `FiniteMdp`, `SoftmaxLinearPolicy`,
    `PolicyChain` and `FeatureMap` is set in `__post_init__` through
    `_frozen_array(self.<field>)`;
  * each `functools.cached_property` in the package sets
    `<table>.flags.writeable = False` and returns that table;
  * nothing in the package makes an array writeable again.
"""

import ast
import copy
import pickle
from pathlib import Path

import numpy as np
import pytest

from avgrl.envs import GarnetSpec, build_garnet, four_state_easy, frozen_lake_4x4, tabular_policy
from avgrl.features import check_assumption2, make_features
from avgrl.learner import RunConfig, algo_schedule, run
from avgrl.mdp import induced_chain
from avgrl.oracles import actor_bias

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/avgrl/*.py"))
MODEL_CLASSES = {"FiniteMdp", "SoftmaxLinearPolicy", "PolicyChain", "FeatureMap"}


def _is_ndarray(annotation) -> bool:
    return ast.unparse(annotation) == "np.ndarray"


def _frozen_fields(post_init: ast.FunctionDef) -> set[str]:
    """Fields set by object.__setattr__(self, "f", ..._frozen_array(self.f))."""
    frozen = set()
    for node in ast.walk(post_init):
        if (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
                and len(node.args) == 3 and isinstance(node.args[1], ast.Constant)):
            name, value = node.args[1].value, node.args[2]
            if (isinstance(value, ast.Call) and ast.unparse(value.func).endswith("_frozen_array")
                    and [ast.unparse(a) for a in value.args] == [f"self.{name}"]):
                frozen.add(name)
    return frozen


def _freezes_and_returns(fn: ast.FunctionDef) -> bool:
    """The body ends in `return t` after a `t.flags.writeable = False`."""
    last = fn.body[-1]
    if not (isinstance(last, ast.Return) and isinstance(last.value, ast.Name)):
        return False
    target = f"{last.value.id}.flags.writeable"
    return any(isinstance(stmt, ast.Assign) and [ast.unparse(t) for t in stmt.targets] == [target]
               and isinstance(stmt.value, ast.Constant) and stmt.value.value is False
               for stmt in fn.body)


def writeable_arrays(source: str) -> list[tuple[int, str]]:
    """(line, what) for each way the source leaves a model array writeable."""
    found: list[tuple[int, str]] = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in MODEL_CLASSES:
            fields = [stmt.target.id for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name) and _is_ndarray(stmt.annotation)]
            post = [stmt for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__"]
            frozen = _frozen_fields(post[0]) if post else set()
            found += [(node.lineno, f"{node.name}.{name} not frozen")
                      for name in fields if name not in frozen]
        elif isinstance(node, ast.FunctionDef) and any(
                ast.unparse(d).endswith("cached_property") for d in node.decorator_list):
            if not _freezes_and_returns(node):
                found.append((node.lineno, f"cached {node.name} not frozen"))
        elif isinstance(node, ast.Assign) and any(
                ast.unparse(t).endswith(".flags.writeable") for t in node.targets):
            if not (isinstance(node.value, ast.Constant) and node.value.value is False):
                found.append((node.lineno, "writeable flag set"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setflags"):
            found.append((node.lineno, "setflags call"))
    return found


def test_scanner_flags_writeable_arrays():
    source = (
        "class FiniteMdp:\n"
        "    transition: np.ndarray\n"
        "    reward: np.ndarray\n"
        "    bound: float\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'transition', _frozen_array(self.transition))\n"
        "        object.__setattr__(self, 'reward', np.array(self.reward))\n"
        "class Other:\n"
        "    @functools.cached_property\n"
        "    def good(self):\n"
        "        t = np.ones(2)\n"
        "        t.flags.writeable = False\n"
        "        return t\n"
        "    @functools.cached_property\n"
        "    def bad(self):\n"
        "        return np.ones(2)\n"
        "def f(a):\n"
        "    a.flags.writeable = True\n"
        "    a.setflags(write=1)\n"
    )
    assert writeable_arrays(source) == [
        (1, "FiniteMdp.reward not frozen"), (15, "cached bad not frozen"),
        (18, "writeable flag set"), (19, "setflags call"),
    ]


def test_package_freezes_every_model_array():
    seen = {node.name for path in PACKAGE
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)}
    assert MODEL_CLASSES <= seen
    found = [f"{path.relative_to(ROOT)}:{line}: {what}" for path in PACKAGE
             for line, what in writeable_arrays(path.read_text(encoding="utf-8"))]
    assert found == []


def _arrays(value):
    """Every ndarray reachable through a model object's attributes and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif type(value).__name__ in MODEL_CLASSES:
        for item in vars(value).values():
            yield from _arrays(item)


@pytest.mark.parametrize("make", [
    four_state_easy, frozen_lake_4x4,
    lambda: build_garnet(GarnetSpec(n_states=6, n_actions=3, seed=2)),
])
def test_objects_hold_only_read_only_arrays(make):
    mdp = make()
    policy = tabular_policy(mdp)
    fmap = make_features("random_unit", mdp, seed=1)
    cfg = RunConfig(mdp=mdp, policy=policy, features=fmap, schedule=algo_schedule("ca"),
                    steps=20, metrics_every=10, uv_radius=5.0)
    check_assumption2(mdp, policy, fmap, n_theta_samples=2)
    actor_bias(mdp, policy, fmap, np.ones(fmap.dim))
    res = run(cfg)
    at = policy.with_theta(res.final.theta)
    induced_chain(mdp, at), at.score_table()  # fill every cache
    objects = [mdp, policy, fmap, at, induced_chain(mdp, policy)]
    objects += [copy_of(obj) for obj in objects
                for copy_of in (copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o)))]
    arrays = [a for obj in objects for a in _arrays(obj)]
    assert len(arrays) > 20
    assert not any(a.flags.writeable for a in arrays)
