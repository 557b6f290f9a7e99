"""The Jacobian-based Saliency Map Attack (JSMA), add-only variant.

This is the attack the paper uses for every experiment (Section II-B-1).
Following Papernot et al. (2016) and the paper's adaptation to API-count
features:

1. compute the Jacobian of the softmax output with respect to the input
   (Equation 1 of the paper);
2. build the saliency map for moving the sample towards the *clean* class
   (class 0): a feature is salient when increasing it increases the clean
   probability and decreases the malware probability;
3. perturb the most salient modifiable feature by ``theta`` (adding API
   calls only — existing features are never reduced);
4. repeat until the crafting model classifies the sample as clean or the
   ``gamma`` feature budget is exhausted.

The implementation is batched: each iteration evaluates the Jacobian only on
the samples that are still detected and still have budget left.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.attacks.base import Attack, AttackResult
from repro.attacks.constraints import PerturbationConstraints
from repro.attacks.trajectory import TrajectoryRecorder
from repro.config import CLASS_CLEAN, CLASS_MALWARE
from repro.exceptions import AttackError
from repro.nn.network import NeuralNetwork
from repro.obs.instrument import current as current_instrumentation
from repro.scenarios.registry import Param, register_attack
from repro.utils.topk import top_k_indices
from repro.utils.validation import check_matrix


@register_attack("jsma", params=(
    Param("target_class", "int", CLASS_CLEAN, choices=(0, 1),
          help="class the adversarial example should be assigned to"),
    Param("use_saliency_map", "bool", True,
          help="rank features by the two-class saliency map (False: raw "
               "target-class gradient)"),
    Param("early_stop", "bool", True,
          help="stop perturbing a sample once the crafting model is fooled "
               "(False spends the full budget — the transfer setting)"),
    Param("features_per_step", "int", 1,
          help="top-saliency features perturbed per Jacobian evaluation"),
))
class JsmaAttack(Attack):
    """Add-only JSMA targeting the clean class.

    Parameters
    ----------
    network:
        The crafting model (white-box: the target itself; grey-box: the
        attacker's substitute).
    constraints:
        The θ/γ budget and threat-model constraints.
    target_class:
        Class the adversarial example should be assigned to (0 = clean).
    use_saliency_map:
        When True (default) features are ranked by the full two-class
        saliency map; when False they are ranked by the raw positive gradient
        of the target class, which is the simplification described in the
        paper ("a perturbation of X with maximal positive gradient into the
        target class 0 is chosen").  Both satisfy the same constraints.
    early_stop:
        Stop perturbing a sample as soon as the crafting model classifies it
        as the target class.  Disabling this always spends the full budget,
        which is useful when studying transferability.  The early-stop
        prediction is read from the same forward pass that produces the
        Jacobian — no extra ``predict`` pass per iteration.
    features_per_step:
        Number of top-saliency features perturbed per Jacobian evaluation
        (default 1, the classic JSMA).  Larger values trade attack precision
        for fewer forward/backward passes: a budget of ``k`` features is
        spent in ``ceil(k / features_per_step)`` steps, which is how the
        budget sweeps keep large-γ operating points tractable.
    """

    name = "jsma"

    #: The greedy add-only loop is budget-oblivious at fixed θ, so a
    #: recorded run can be sliced to any smaller γ (see
    #: :mod:`repro.attacks.trajectory` and :mod:`repro.evaluation.sweep`).
    supports_trajectory = True

    def __init__(self, network: NeuralNetwork,
                 constraints: Optional[PerturbationConstraints] = None,
                 target_class: int = CLASS_CLEAN,
                 use_saliency_map: bool = True,
                 early_stop: bool = True,
                 features_per_step: int = 1) -> None:
        super().__init__(network, constraints)
        if target_class not in (0, 1):
            raise AttackError(f"target_class must be 0 or 1, got {target_class}")
        if features_per_step < 1:
            raise AttackError(
                f"features_per_step must be >= 1, got {features_per_step}")
        self.target_class = int(target_class)
        self.use_saliency_map = bool(use_saliency_map)
        self.early_stop = bool(early_stop)
        self.features_per_step = int(features_per_step)

    # ------------------------------------------------------------------ #
    # Saliency computation
    # ------------------------------------------------------------------ #
    def _feature_scores(self, jacobian: np.ndarray) -> np.ndarray:
        """Score every feature of every sample for a single perturbation step.

        ``jacobian`` has shape ``(n, n_classes, d)``.  Higher scores mean
        "adding to this feature moves the sample towards the target class
        more".  Infeasible features are later masked to ``-inf``.
        """
        target_grad = jacobian[:, self.target_class, :]
        if not self.use_saliency_map:
            return target_grad
        # Papernot-style saliency for increase-only perturbations:
        # salient iff dF_target/dx_j > 0 and sum_{i != target} dF_i/dx_j < 0.
        salient = target_grad > 0
        if jacobian.shape[1] == 2:
            # Binary networks: class_gradients writes the other row as the
            # exact negation of this one, so the second condition is the
            # first and |other_grad| is target_grad itself.
            scores = np.where(salient, target_grad * target_grad, -np.inf)
        else:
            other_grad = jacobian.sum(axis=1) - target_grad
            salient &= other_grad < 0
            scores = np.where(salient, target_grad * np.abs(other_grad), -np.inf)
        # Fallback: when no feature is strictly salient for a sample, fall
        # back to the raw target-class gradient so the attack can still make
        # progress (matches CleverHans behaviour of relaxing the map).
        no_salient = ~salient.any(axis=1)
        if np.any(no_salient):
            scores[no_salient] = target_grad[no_salient]
        return scores

    def _blocked(self, matrix: np.ndarray) -> np.ndarray:
        """Features a step may not perturb: ``(n, d)``, True = infeasible.

        A feature is infeasible when it lies outside the modifiable mask or
        already sits at the box maximum (it cannot be increased).
        """
        modifiable = self.constraints.modifiable_mask(matrix.shape[1])
        return ~modifiable[None, :] | (matrix >= self.constraints.clip_max - 1e-12)

    # ------------------------------------------------------------------ #
    # Attack loop
    # ------------------------------------------------------------------ #
    def run(self, features: np.ndarray,
            recorder: Optional[TrajectoryRecorder] = None) -> AttackResult:
        """Craft adversarial examples; optionally record the trajectory.

        ``recorder`` (a fresh :class:`~repro.attacks.trajectory
        .TrajectoryRecorder`) captures the sparse perturbation log and
        per-step evasion flags at negligible overhead — everything it stores
        is already computed by the loop.  The γ-sweep replay engine slices
        that log instead of re-running the attack per operating point.

        When an ambient :class:`~repro.obs.Instrumentation` is active
        (see :func:`repro.obs.instrumented`), the whole crafting loop runs
        inside an ``attack.jsma`` span and the ``jsma.steps`` /
        ``jsma.features_flipped`` / ``jsma.evasions`` counters account for
        its work; the perturbation math is identical either way.
        """
        obs = current_instrumentation()
        if obs is None:
            return self._run(features, recorder, None)
        shape = getattr(features, "shape", None)
        with obs.span("attack.jsma",
                      n_samples=int(shape[0]) if shape else 0):
            return self._run(features, recorder, obs)

    def _run(self, features: np.ndarray,
             recorder: Optional[TrajectoryRecorder],
             obs) -> AttackResult:
        original = check_matrix(features, name="features",
                                n_features=self.network.input_dim)
        adversarial = original.copy()
        n_samples, n_features = original.shape
        constraints = self.constraints
        budget = constraints.max_features(n_features)
        iterations = np.zeros(n_samples, dtype=np.int64)

        if recorder is not None:
            recorder.begin(theta=constraints.theta, budget=budget,
                           n_samples=n_samples, n_features=n_features,
                           early_stop=self.early_stop,
                           features_per_step=self.features_per_step)

        if budget == 0 or constraints.theta == 0.0:
            return self._package(original, adversarial, iterations)

        # Infeasible features, kept up to date incrementally: a feature
        # joins once a step perturbs it (the budget counts features, not
        # additions).  Untouched features keep their original values, so
        # saturation only ever needs checking once, here.
        blocked = self._blocked(original)
        active = np.ones(n_samples, dtype=bool)
        per_step = self.features_per_step
        n_steps = budget if per_step == 1 else -(-budget // per_step)
        steps_run = 0
        ever_evaded = (np.zeros(n_samples, dtype=bool)
                       if obs is not None else None)

        for step in range(n_steps):
            if not np.any(active):
                break
            idx = np.flatnonzero(active)
            # One forward + (for binary networks) one fused backward pass per
            # step; the forward probabilities double as the early-stop
            # prediction for the current iterate, so no second predict pass
            # is needed.
            jacobian, probs = self.network.class_gradients(adversarial[idx],
                                                           return_probs=True)
            steps_run = step + 1
            if self.early_stop or recorder is not None or obs is not None:
                evaded = np.argmax(probs, axis=1) == self.target_class
                if recorder is not None and np.any(evaded):
                    recorder.record_evasions(idx[evaded])
                if ever_evaded is not None:
                    ever_evaded[idx[evaded]] = True
            if self.early_stop:
                if np.any(evaded):
                    active[idx[evaded]] = False
                    keep = ~evaded
                    if not np.any(keep):
                        continue
                    idx = idx[keep]
                    jacobian = jacobian[keep]
            scores = self._feature_scores(jacobian)
            # Infeasible features can never be selected.
            np.copyto(scores, -np.inf, where=blocked[idx])

            if per_step == 1:
                best = np.argmax(scores, axis=1)
                best_scores = scores[np.arange(idx.size), best]
                feasible = np.isfinite(best_scores)
                rows = idx[feasible]
                cols = best[feasible]
                progressed = feasible
            else:
                # Top-k selection capped by each sample's remaining budget
                # (argpartition-based: O(d) per row instead of a full sort).
                remaining = budget - iterations[idx]
                k_row = np.minimum(per_step, remaining)
                k_max = int(max(k_row.max(), 1))
                order = top_k_indices(scores, k_max)
                top_scores = np.take_along_axis(scores, order, axis=1)
                valid = np.isfinite(top_scores) & (np.arange(k_max)[None, :]
                                                   < k_row[:, None])
                flat_row, flat_col = np.nonzero(valid)
                rows = idx[flat_row]
                cols = order[flat_row, flat_col]
                progressed = valid.any(axis=1)
            if not np.any(progressed):
                break

            old_values = adversarial[rows, cols] if recorder is not None else None
            adversarial[rows, cols] = np.minimum(
                adversarial[rows, cols] + constraints.theta, constraints.clip_max)
            blocked[rows, cols] = True
            np.add.at(iterations, rows, 1)
            if recorder is not None:
                recorder.record_step(step, rows, cols, old_values,
                                     adversarial[rows, cols])

            # Samples with no feasible feature left stop here; evaded samples
            # are caught by the probability check at the top of the next step.
            active[idx[~progressed]] = False

        if obs is not None:
            obs.count("jsma.samples", n_samples)
            obs.count("jsma.steps", steps_run)
            obs.count("jsma.features_flipped", int(iterations.sum()))
            obs.count("jsma.evasions", int(ever_evaded.sum()))

        # Safety: the loop construction already satisfies the constraints,
        # but project anyway so the invariant holds even under future edits.
        adversarial = constraints.project(adversarial, original)
        return self._package(original, adversarial, iterations)

    # ------------------------------------------------------------------ #
    # Introspection helpers used by Figure 1 and the live experiment
    # ------------------------------------------------------------------ #
    def select_features(self, features: np.ndarray, top_k: int = 2) -> np.ndarray:
        """Return the indices of the ``top_k`` most salient features per sample.

        This exposes the feature-selection half of JSMA without applying the
        perturbation; Figure 1 ("adding two API calls") and the live grey-box
        attack use it to decide *which* API calls to add to the source.
        """
        matrix = check_matrix(features, name="features",
                              n_features=self.network.input_dim)
        if top_k < 1:
            raise AttackError(f"top_k must be >= 1, got {top_k}")
        scores = self._feature_scores(self.network.class_gradients(matrix))
        # Mask infeasible features exactly as the attack loop's first step.
        np.copyto(scores, -np.inf, where=self._blocked(matrix))
        return top_k_indices(scores, top_k)
