"""Metamorphic relations of the exact oracles: a transformed input must give
outputs that move with it, bit for bit.

The relations must hold on any LAPACK core, so CI runs this file under a
second OpenBLAS core too.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from avgrl.cli import main
from avgrl.envs import GarnetSpec, build_garnet, four_state_easy, frozen_lake_4x4, save_mdp
from avgrl.mdp import FiniteMdp

ENVS = {
    "four-state": four_state_easy,
    "gridworld4": frozen_lake_4x4,
    "garnet20": lambda: build_garnet(GarnetSpec(n_states=20, n_actions=3, seed=1)),
}


def solve(path, mdp):
    """`avgrl solve` on mdp, written to path, as its JSON document."""
    save_mdp(str(path), mdp)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["solve", "--env", str(path)]) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("k", [20, 24])
@pytest.mark.parametrize("env", list(ENVS))
def test_reward_scaling_by_a_power_of_two(tmp_path, env, k):
    # every float operation on the rewards scales exactly by 2^k, so mu,
    # lambda(theta) and the mixing profile, which do not read the rewards, are
    # unchanged, and L, V, v* and ||M|| scale by 2^k bit for bit.  At k = 24 an
    # absolute residual test refused the differential value
    mdp = ENVS[env]()
    scale = 2.0 ** k
    scaled = FiniteMdp(mdp.transition, scale * mdp.reward, reward_bound=scale * mdp.reward_bound)
    base, big = solve(tmp_path / "base.json", mdp), solve(tmp_path / "scaled.json", scaled)
    for key in ("mu", "lambda_theta", "mixing"):
        assert big[key] == base[key]
    assert big["L"] == scale * base["L"]
    assert big["M_norm"] == scale * base["M_norm"]
    for key in ("V", "v_star"):
        assert big[key] == [scale * x for x in base[key]]
