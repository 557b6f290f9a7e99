"""Parity of the JSMA step kernel with the original step, as an oracle.

The attack scores binary networks from the target-class Jacobian row alone
and keeps its infeasible-feature mask up to date incrementally.  The oracle
below is the original step: ``other_grad`` summed from the full Jacobian,
and ``saturated | touched | ~modifiable`` rebuilt in full every step.
Every output of the attack — adversarial rows, per-sample iterations and
the recorded trajectory — must be bitwise equal to the oracle's.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.jsma import JsmaAttack
from repro.attacks.trajectory import TrajectoryRecorder
from repro.nn.engine import use_dtype
from repro.nn.network import NeuralNetwork
from repro.utils.topk import top_k_indices


def oracle_scores(jacobian, target_class, use_saliency_map):
    target_grad = jacobian[:, target_class, :]
    other_grad = jacobian.sum(axis=1) - target_grad
    if not use_saliency_map:
        return target_grad
    salient = (target_grad > 0) & (other_grad < 0)
    scores = np.where(salient, target_grad * np.abs(other_grad), -np.inf)
    no_salient = ~salient.any(axis=1)
    if np.any(no_salient):
        scores[no_salient] = target_grad[no_salient]
    return scores


def oracle_run(attack, features, recorder):
    """The original JSMA loop: returns ``(adversarial, iterations)``."""
    original = np.asarray(features, dtype=np.float64)
    adversarial = original.copy()
    n_samples, n_features = original.shape
    constraints = attack.constraints
    budget = constraints.max_features(n_features)
    modifiable = constraints.modifiable_mask(n_features)
    iterations = np.zeros(n_samples, dtype=np.int64)
    recorder.begin(theta=constraints.theta, budget=budget, n_samples=n_samples,
                   n_features=n_features, early_stop=attack.early_stop,
                   features_per_step=attack.features_per_step)
    if budget == 0 or constraints.theta == 0.0:
        return adversarial, iterations
    touched = np.zeros((n_samples, n_features), dtype=bool)
    active = np.ones(n_samples, dtype=bool)
    per_step = attack.features_per_step
    n_steps = budget if per_step == 1 else -(-budget // per_step)
    for step in range(n_steps):
        if not np.any(active):
            break
        idx = np.flatnonzero(active)
        jacobian, probs = attack.network.class_gradients(adversarial[idx],
                                                         return_probs=True)
        evaded = np.argmax(probs, axis=1) == attack.target_class
        if np.any(evaded):
            recorder.record_evasions(idx[evaded])
        if attack.early_stop and np.any(evaded):
            active[idx[evaded]] = False
            keep = ~evaded
            if not np.any(keep):
                continue
            idx = idx[keep]
            jacobian = jacobian[keep]
        scores = oracle_scores(jacobian, attack.target_class, attack.use_saliency_map)
        saturated = adversarial[idx] >= constraints.clip_max - 1e-12
        infeasible = (~modifiable)[None, :] | saturated | touched[idx]
        scores = np.where(infeasible, -np.inf, scores)
        if per_step == 1:
            best = np.argmax(scores, axis=1)
            feasible = np.isfinite(scores[np.arange(idx.size), best])
            rows, cols, progressed = idx[feasible], best[feasible], feasible
        else:
            remaining = budget - touched[idx].sum(axis=1)
            k_row = np.minimum(per_step, remaining)
            k_max = int(max(k_row.max(), 1))
            order = top_k_indices(scores, k_max)
            top_scores = np.take_along_axis(scores, order, axis=1)
            valid = np.isfinite(top_scores) & (np.arange(k_max)[None, :]
                                               < k_row[:, None])
            flat_row, flat_col = np.nonzero(valid)
            rows, cols = idx[flat_row], order[flat_row, flat_col]
            progressed = valid.any(axis=1)
        if not np.any(progressed):
            break
        old_values = adversarial[rows, cols]
        adversarial[rows, cols] = np.minimum(adversarial[rows, cols] + constraints.theta,
                                             constraints.clip_max)
        touched[rows, cols] = True
        np.add.at(iterations, rows, 1)
        recorder.record_step(step, rows, cols, old_values, adversarial[rows, cols])
        active[idx[~progressed]] = False
    return constraints.project(adversarial, original), iterations


def assert_bitwise_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


TRAJECTORY_ARRAYS = ("steps", "rows", "cols", "old_values", "new_values",
                     "first_evaded_at")
TRAJECTORY_META = ("theta", "budget", "n_samples", "n_features", "early_stop",
                   "features_per_step")


@st.composite
def jsma_cases(draw):
    n_features = draw(st.integers(6, 24))
    n_samples = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    features = rng.random((n_samples, n_features))
    features[rng.random(features.shape) < 0.4] = 0.0
    # Some features start at (or within rounding of) the box maximum.
    features[rng.random(features.shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 1.0
    if draw(st.booleans()):
        mask = rng.random(n_features) < draw(st.floats(0.2, 0.9))
        mask[rng.integers(n_features)] = True
    else:
        mask = None
    constraints = PerturbationConstraints(
        theta=draw(st.sampled_from([0.05, 0.3, 1.0])),
        gamma=draw(st.floats(0.1, 0.8)), feature_mask=mask)
    return {
        "sizes": [n_features] + draw(st.lists(st.integers(2, 10), min_size=1,
                                              max_size=2)) + [2],
        "activation": draw(st.sampled_from(["relu", "tanh"])),
        "net_seed": seed % 1000,
        "features": features,
        "constraints": constraints,
        "params": {
            "target_class": draw(st.sampled_from([0, 1])),
            "use_saliency_map": draw(st.booleans()),
            "early_stop": draw(st.booleans()),
            "features_per_step": draw(st.sampled_from([1, 3])),
        },
        "dtype": draw(st.sampled_from(["float64", "float32"])),
    }


@given(case=jsma_cases())
@settings(max_examples=120, deadline=None)
def test_jsma_step_matches_oracle_bitwise(case):
    with use_dtype(case["dtype"]):
        network = NeuralNetwork.mlp(case["sizes"], activation=case["activation"],
                                    random_state=case["net_seed"])
    attack = JsmaAttack(network, constraints=case["constraints"], **case["params"])

    expected_recorder = TrajectoryRecorder()
    expected, expected_iterations = oracle_run(attack, case["features"],
                                               expected_recorder)
    recorder = TrajectoryRecorder()
    result = attack.run(case["features"], recorder=recorder)

    assert_bitwise_equal(result.adversarial, expected)
    assert_bitwise_equal(result.iterations, expected_iterations)
    trajectory, oracle = recorder.trajectory, expected_recorder.trajectory
    for name in TRAJECTORY_ARRAYS:
        assert_bitwise_equal(getattr(trajectory, name), getattr(oracle, name))
    for name in TRAJECTORY_META:
        assert getattr(trajectory, name) == getattr(oracle, name)


@given(case=jsma_cases(), top_k=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_select_features_matches_oracle(case, top_k):
    with use_dtype(case["dtype"]):
        network = NeuralNetwork.mlp(case["sizes"], activation=case["activation"],
                                    random_state=case["net_seed"])
    attack = JsmaAttack(network, constraints=case["constraints"], **case["params"])
    features = case["features"]
    scores = oracle_scores(network.class_gradients(features),
                           attack.target_class, attack.use_saliency_map)
    modifiable = attack.constraints.modifiable_mask(features.shape[1])
    infeasible = ((~modifiable)[None, :]
                  | (features >= attack.constraints.clip_max - 1e-12))
    expected = top_k_indices(np.where(infeasible, -np.inf, scores), top_k)
    assert_bitwise_equal(attack.select_features(features, top_k=top_k), expected)
