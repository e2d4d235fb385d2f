"""Acceptance gate: twelve numbered checks over oracles, convergence, and CLI.

Each test prints one `criterion NN: PASS/FAIL/WARN` line (run pytest with -s
to see them).  Long-horizon checks share one million-step run through a
module-scoped fixture; the whole file stays within the stated runtime budgets
on commodity hardware.
"""

import io
import json
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

from avgrl.cli import main as cli_main
from avgrl.envs import (
    GarnetSpec,
    build_garnet,
    four_state_easy,
    frozen_lake_4x4,
    save_mdp,
    tabular_policy,
)
from avgrl.features import FeatureMap, check_assumption2, make_features, matrix_A
from avgrl.learner import (
    RunConfig,
    StepSchedule,
    algo_schedule,
    run,
    validate_schedule,
)
from avgrl.mdp import (
    FiniteMdp,
    grad_stationary,
    induced_chain,
    policy_gradient,
    stationary_distribution,
)
from avgrl.metrics import windowed_value_at, write_metrics_csv
from avgrl.oracles import (
    actor_bias,
    actor_field_M,
    brute_force_optimum,
    critic_fixed_point,
    estimate_mixing,
    expected_critic_drift,
    lp_optimum,
    projected_bellman_residual,
)


def report(num: int, ok: bool, detail: str, warn_only: bool = False) -> None:
    status = "PASS" if ok else ("WARN" if warn_only else "FAIL")
    print(f"criterion {num:02d}: {status}  {detail}")


def run_cli(argv):
    """Invoke the CLI in-process, returning (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli_main(argv)
    return rc, out.getvalue()


def garnet_suite(n=20, seed0=0, theta_scale=0.5):
    """Random 5-state/3-action instances with random parameters and features."""
    suite = []
    for i in range(n):
        mdp = build_garnet(GarnetSpec(n_states=5, n_actions=3, branching=2,
                                      seed=seed0 + i, epsilon=0.05))
        rng = np.random.default_rng(10_000 + seed0 + i)
        pol = tabular_policy(mdp, theta=theta_scale * rng.normal(size=15))
        fmap = make_features("random_unit", mdp, d1=3, seed=seed0 + i)
        suite.append((mdp, pol, fmap, rng))
    return suite


def gain_and_mu(mdp, pol):
    chain = induced_chain(mdp, pol)
    mu = stationary_distribution(chain)
    return float(mu @ chain.expected_reward), mu


@pytest.fixture(scope="module")
def long_run(tmp_path_factory):
    """One million critic-actor steps on the 4-state ring, seed 0."""
    mdp = four_state_easy()
    pol = tabular_policy(mdp)
    fmap = make_features("one_hot_reduced", mdp)
    cfg = RunConfig(mdp=mdp, policy=pol, features=fmap, schedule=algo_schedule("ca"),
                    steps=10**6, seed=0, metrics_every=500)
    t0 = time.perf_counter()
    result = run(cfg)
    elapsed = time.perf_counter() - t0
    csv_path = tmp_path_factory.mktemp("longrun") / "ca_1e6.csv"
    write_metrics_csv(str(csv_path), result.rows)
    ts = np.array([r.t for r in result.rows], dtype=float)
    cols = {
        name: np.array([getattr(r, name) for r in result.rows])
        for name in ("critic_err_sq", "M_norm_sq", "avg_err_sq", "L_theta")
    }
    return SimpleNamespace(ts=ts, cols=cols, csv=str(csv_path), elapsed=elapsed)


def test_criterion_01_gradient_oracles():
    # central finite differences of the gain and of the stationary
    # distribution against the closed-form gradients, 20 random instances
    h = 1e-5
    t0 = time.perf_counter()
    worst_grad = worst_jac = 0.0
    for mdp, pol, _, _ in garnet_suite(20):
        exact = policy_gradient(mdp, pol)
        jac = grad_stationary(mdp, pol)
        d2 = pol.theta.shape[0]
        fd_grad = np.zeros(d2)
        fd_jac = np.zeros((d2, mdp.n_states))
        for j in range(d2):
            e = np.zeros(d2)
            e[j] = h
            gp, mup = gain_and_mu(mdp, pol.with_theta(pol.theta + e))
            gm, mum = gain_and_mu(mdp, pol.with_theta(pol.theta - e))
            fd_grad[j] = (gp - gm) / (2 * h)
            fd_jac[j] = (mup - mum) / (2 * h)
        worst_grad = max(worst_grad,
                         np.linalg.norm(fd_grad - exact) / np.linalg.norm(exact))
        worst_jac = max(worst_jac,
                        np.linalg.norm(fd_jac - jac) / np.linalg.norm(jac))
    elapsed = time.perf_counter() - t0
    ok = worst_grad <= 1e-4 and worst_jac <= 1e-4 and elapsed < 5.0
    report(1, ok, f"gain-gradient rel err {worst_grad:.2e}, stationary-jacobian "
                  f"rel err {worst_jac:.2e}, {elapsed:.2f} s")
    assert worst_grad <= 1e-4
    assert worst_jac <= 1e-4
    assert elapsed < 5.0


def test_criterion_02_fixed_point_equivalence():
    t0 = time.perf_counter()
    worst_lin = worst_res = 0.0
    for mdp, pol, fmap, _ in garnet_suite(20):
        A, b = matrix_A(mdp, pol, fmap)
        v = critic_fixed_point(mdp, pol, fmap)
        worst_lin = max(worst_lin, float(np.linalg.norm(A @ v + b)))
        worst_res = max(worst_res, float(np.linalg.norm(
            projected_bellman_residual(mdp, pol, fmap, v))))
    elapsed = time.perf_counter() - t0
    ok = worst_lin <= 1e-10 and worst_res <= 1e-10 and elapsed < 1.0
    report(2, ok, f"max ||Av*+b|| {worst_lin:.2e}, max residual {worst_res:.2e}, "
                  f"{elapsed:.2f} s")
    assert worst_lin <= 1e-10
    assert worst_res <= 1e-10
    assert elapsed < 1.0


def test_criterion_03_td_tracks_fixed_point():
    # critic and average-reward tracker only (actor coefficient zero):
    # the tail-averaged iterate must land on the fixed point for every seed
    mdp = four_state_easy()
    pol = tabular_policy(mdp)
    fmap = make_features("one_hot_reduced", mdp)
    v_star = critic_fixed_point(mdp, pol, fmap)
    tol = 0.05 * max(1.0, float(np.linalg.norm(v_star)))
    sched = StepSchedule(c_alpha=0.0, c_beta=1.5, nu=0.5, sigma=0.51,
                         c_gamma=1.5, gamma_exp=0.5)
    steps = 200_000
    t0 = time.perf_counter()
    errs = []
    for seed in range(8):
        cfg = RunConfig(mdp=mdp, policy=pol, features=fmap, schedule=sched,
                        steps=steps, seed=seed, metrics_every=steps,
                        tail_average_from=steps // 2)
        res = run(cfg)
        errs.append(float(np.linalg.norm(res.v_tail_avg - v_star)))
    elapsed = time.perf_counter() - t0
    n_ok = sum(e <= tol for e in errs)
    ok = n_ok == 8 and elapsed < 30.0
    report(3, ok, f"{n_ok}/8 seeds with tail error <= {tol:.3f} "
                  f"(worst {max(errs):.4f}), {elapsed:.1f} s")
    assert n_ok == 8
    assert elapsed < 30.0


def test_criterion_04_critic_error_rate(long_run):
    rc, out = run_cli(["rate", long_run.csv, "--metric", "critic_err_sq",
                       "--t-min", "10000"])
    assert rc == 0
    slope = json.loads(out)["slope"]
    w4 = windowed_value_at(long_run.ts, long_run.cols["critic_err_sq"], 1e4)
    w5 = windowed_value_at(long_run.ts, long_run.cols["critic_err_sq"], 1e5)
    ratio = w5 / w4
    ok = -0.9 <= slope <= -0.15 and ratio <= 0.6 and long_run.elapsed < 300.0
    report(4, ok, f"critic error slope {slope:.3f} in [-0.9, -0.15], decade "
                  f"ratio {ratio:.3f} <= 0.6, run {long_run.elapsed:.0f} s")
    assert -0.9 <= slope <= -0.15
    assert ratio <= 0.6
    assert long_run.elapsed < 300.0


def test_criterion_05_actor_field_decay(long_run):
    w = {d: windowed_value_at(long_run.ts, long_run.cols["M_norm_sq"], 10.0**d)
         for d in (4, 5, 6)}
    f45, f56 = w[4] / w[5], w[5] / w[6]
    ok = f45 >= 2.0 and f56 >= 2.0
    report(5, ok, f"actor-field norm^2 decade factors {f45:.1f}x, {f56:.1f}x "
                  f"(need >= 2x)")
    assert f45 >= 2.0
    assert f56 >= 2.0


def test_criterion_06_average_error_monotone(long_run):
    w = [windowed_value_at(long_run.ts, long_run.cols["avg_err_sq"], 10.0**d)
         for d in (3, 4, 5, 6)]
    ok = all(a > b for a, b in zip(w, w[1:]))
    report(6, ok, "windowed (L_t - L(theta))^2 across decades: "
                  + " > ".join(f"{x:.2e}" for x in w))
    assert ok


def test_criterion_07_learning_quality():
    mdp = four_state_easy()
    pol = tabular_policy(mdp)
    fmap = make_features("one_hot_reduced", mdp)
    l_star, _ = brute_force_optimum(mdp)
    steps = 200_000
    finals = []
    for seed in range(10):
        cfg = RunConfig(mdp=mdp, policy=pol, features=fmap, schedule=algo_schedule("ca"),
                        steps=steps, seed=seed, metrics_every=steps)
        res = run(cfg)
        finals.append(res.rows[-1].L_theta)
    n_ok = sum(l >= 0.9 * l_star for l in finals)
    ok = n_ok >= 9
    report(7, ok, f"{n_ok}/10 seeds reached L(theta_T) >= 0.9 L* = "
                  f"{0.9 * l_star:.3f} (min {min(finals):.3f}, "
                  f"median {np.median(finals):.3f})")
    assert n_ok >= 9


def test_criterion_08_gridworld_comparison():
    # reported comparison: a miss prints WARN instead of failing, since the
    # expected margin between the two schedules is small
    mdp = frozen_lake_4x4()
    pol = tabular_policy(mdp)
    fmap = make_features("one_hot_reduced", mdp)
    l_star = lp_optimum(mdp)
    steps = 200_000
    finals = {"ca": [], "ac": []}
    for algo in finals:
        for seed in range(10):
            cfg = RunConfig(mdp=mdp, policy=pol, features=fmap, schedule=algo_schedule(algo),
                            steps=steps, algo=algo, seed=seed, metrics_every=steps)
            finals[algo].append(run(cfg).rows[-1].L_theta)
    med_ca = float(np.median(finals["ca"]))
    med_ac = float(np.median(finals["ac"]))
    margin = 0.05 * abs(l_star)
    ok = med_ca >= med_ac - margin
    report(8, ok, f"median L(theta_T): critic-first {med_ca:.4f} vs "
                  f"actor-first {med_ac:.4f} (allowed slack {margin:.4f})",
           warn_only=True)
    if not ok:
        warnings.warn(
            f"gridworld comparison below margin: {med_ca:.4f} < {med_ac:.4f} - {margin:.4f}"
        )
    assert np.isfinite(med_ca) and np.isfinite(med_ac)


def test_criterion_09_assumption_validators(tmp_path):
    report_path = tmp_path / "garnet_report.json"
    rc_good, _ = run_cli(["validate", "--env", "garnet",
                          "--out", str(report_path)])
    doc = json.loads(report_path.read_text())

    onehot_env = tmp_path / "full_onehot.json"
    save_mdp(str(onehot_env), four_state_easy(), features=FeatureMap(np.eye(4)))
    rc_onehot, out_onehot = run_cli(["validate", "--env", str(onehot_env)])

    P = np.zeros((2, 1, 2))
    P[0, 0, 1] = 1.0
    P[1, 0, 0] = 1.0
    cycle_env = tmp_path / "two_cycle.json"
    save_mdp(str(cycle_env), FiniteMdp(P, np.zeros((2, 1)), reward_bound=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc_cycle, out_cycle = run_cli(["validate", "--env", str(cycle_env)])

    ok = (rc_good == 0 and doc["lam"] > 0 and 0.0 <= doc["mixing_k"] < 1.0
          and rc_onehot == 1
          and "assumption2 (negative definiteness): FAIL" in out_onehot
          and rc_cycle == 1
          and "assumption3 (geometric mixing): FAIL" in out_cycle)
    report(9, ok, f"garnet exit {rc_good} (lam {doc['lam']:.3g}, "
                  f"k {doc['mixing_k']:.3g}), ones-in-span exit {rc_onehot}, "
                  f"periodic exit {rc_cycle}")
    assert rc_good == 0
    assert doc["lam"] > 0
    assert 0.0 <= doc["mixing_k"] < 1.0
    assert rc_onehot == 1
    assert "assumption2 (negative definiteness): FAIL" in out_onehot
    assert rc_cycle == 1
    assert "assumption3 (geometric mixing): FAIL" in out_cycle


def test_criterion_10_identity_suite():
    worst_field = worst_drift = 0.0
    envelope_ok = True
    for mdp, pol, fmap, rng in garnet_suite(20, seed0=100):
        v = rng.normal(size=fmap.dim)
        M = actor_field_M(mdp, pol, fmap, v)
        decomp = policy_gradient(mdp, pol) + actor_bias(mdp, pol, fmap, v)
        worst_field = max(worst_field, float(np.linalg.norm(M - decomp)))
        A, b = matrix_A(mdp, pol, fmap)
        drift = expected_critic_drift(mdp, pol, fmap, v)
        worst_drift = max(worst_drift, float(np.linalg.norm(drift - (A @ v + b))))
        prof = estimate_mixing(mdp, pol)
        for m, d in enumerate(prof.distances, start=1):
            if prof.b * prof.k ** m < d / 1.1:
                envelope_ok = False
    ok = worst_field <= 1e-9 and worst_drift <= 1e-12 and envelope_ok
    report(10, ok, f"max field-decomposition gap {worst_field:.2e}, max drift "
                   f"gap {worst_drift:.2e}, envelope holds: {envelope_ok}")
    assert worst_field <= 1e-9
    assert worst_drift <= 1e-12
    assert envelope_ok


def test_criterion_11_determinism(tmp_path):
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (csv_a, csv_b):
        rc, _ = run_cli(["train", "--env", "four-state", "--steps", "5000",
                         "--metrics-every", "1000", "--seed", "3",
                         "--out", str(path)])
        assert rc == 0

    def minus_wall(path):
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    trains_match = minus_wall(csv_a) == minus_wall(csv_b)

    d1, d2 = tmp_path / "serial", tmp_path / "par"
    args = ["sweep", "--env", "four-state", "--steps", "3000",
            "--metrics-every", "1000", "--seeds", "3"]
    rc1, _ = run_cli(args + ["--jobs", "1", "--out", str(d1)])
    rc2, _ = run_cli(args + ["--jobs", "3", "--out", str(d2)])
    assert rc1 == 0 and rc2 == 0
    aggregates_match = ((d1 / "aggregate.csv").read_bytes()
                        == (d2 / "aggregate.csv").read_bytes())

    ok = trains_match and aggregates_match
    report(11, ok, f"repeat-train rows identical (wall clock aside): "
                   f"{trains_match}; 1-job vs 3-job aggregates identical: "
                   f"{aggregates_match}")
    assert trains_match
    assert aggregates_match


def test_criterion_12_schedule_validator():
    flags_ca = validate_schedule(StepSchedule(nu=0.5, sigma=0.51))
    flags_both = validate_schedule(StepSchedule(nu=0.6, sigma=0.7))

    mdp = build_garnet(GarnetSpec())
    pol = tabular_policy(mdp)
    fmap = make_features("one_hot_reduced", mdp)
    rep = check_assumption2(mdp, pol, fmap)
    flags_tight = validate_schedule(algo_schedule("ca"), rep)
    small = StepSchedule(c_alpha=1e-3, c_beta=1.5, nu=0.5, sigma=0.51,
                         c_gamma=1.5, gamma_exp=0.5)
    flags_loose = validate_schedule(small, rep)

    ok = (flags_ca.finite_time_ok and not flags_ca.asymptotic_ok
          and flags_both.finite_time_ok and flags_both.asymptotic_ok
          and flags_tight.ratio_ok is False and flags_loose.ratio_ok is True)
    report(12, ok, f"(0.5,0.51): finite_time={flags_ca.finite_time_ok} "
                   f"asymptotic={flags_ca.asymptotic_ok}; (0.6,0.7): "
                   f"finite_time={flags_both.finite_time_ok} "
                   f"asymptotic={flags_both.asymptotic_ok}; coefficient ratio "
                   f"1 vs bound {flags_tight.ratio_bound:.3g} -> warning gate "
                   f"{flags_tight.ratio_ok}, ratio 6.7e-4 -> {flags_loose.ratio_ok}")
    if flags_tight.ratio_ok is False:
        warnings.warn(
            f"default coefficient ratio {flags_tight.ratio:.3g} exceeds the "
            f"constant-dependent bound {flags_tight.ratio_bound:.3g}"
        )
    assert flags_ca.finite_time_ok and not flags_ca.asymptotic_ok
    assert flags_both.finite_time_ok and flags_both.asymptotic_ok
    assert flags_tight.ratio_ok is False
    assert flags_loose.ratio_ok is True
