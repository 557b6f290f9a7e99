"""The :class:`NeuralNetwork` container.

A network is an ordered list of layers ending in a linear (logit) layer; the
softmax lives in the loss / prediction functions so the same logits can be
re-used with different distillation temperatures.  Besides the usual
``fit``-adjacent plumbing (delegated to :class:`repro.nn.training.Trainer`),
the container exposes the *input-gradient* machinery the attacks need:

* :meth:`class_gradients` — the Jacobian ``dF_i(x)/dx_j`` of the softmax
  output with respect to the input, i.e. Equation (1) of the paper, which the
  JSMA saliency map is computed from;
* :meth:`loss_input_gradient` — gradient of the training loss w.r.t. the
  input, used by FGSM and by gradient-based data augmentation in the
  black-box framework.

Both walk the layers through :meth:`input_backward`, which computes only
the input gradient: they neither pay for nor disturb the parameter
gradients a training step accumulates.
"""

from __future__ import annotations

import copy
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.exceptions import SerializationError, ShapeError
from repro.nn.activations import ACTIVATIONS, get_activation, softmax, softmax_input_gradient
from repro.nn.engine import SUPPORTED_DTYPES, get_engine
from repro.nn.layers import Dense, Dropout, Layer, Parameter
from repro.nn.losses import SoftmaxCrossEntropy
from repro.utils.rng import RandomState, as_rng, spawn_rngs
from repro.utils.serialization import load_bundle, save_bundle


class NeuralNetwork:
    """A feed-forward network (multi-layer perceptron).

    Parameters
    ----------
    layers:
        Ordered list of layers.  The final layer's output is interpreted as
        class logits.
    n_classes:
        Number of output classes (2 throughout the paper: clean vs malware).
    temperature:
        Default softmax temperature used by :meth:`predict_proba`; defensive
        distillation trains with ``T = 50`` and predicts with ``T = 1``.
    name:
        Human-readable model name, recorded in serialized bundles.
    """

    def __init__(self, layers: Sequence[Layer], n_classes: int = 2,
                 temperature: float = 1.0, name: str = "network") -> None:
        if not layers:
            raise ShapeError("a network needs at least one layer")
        if n_classes < 2:
            raise ShapeError(f"n_classes must be >= 2, got {n_classes}")
        self.layers: List[Layer] = list(layers)
        self.n_classes = int(n_classes)
        self.temperature = float(temperature)
        self.name = name

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def mlp(cls, layer_sizes: Sequence[int], activation: str = "relu",
            dropout: float = 0.0, temperature: float = 1.0,
            name: str = "mlp", random_state: RandomState = None) -> "NeuralNetwork":
        """Build a fully-connected network from ``layer_sizes``.

        ``layer_sizes`` includes the input dimension and the output (class)
        dimension, e.g. Table IV's substitute model is
        ``[491, 1200, 1500, 1300, 2]``.  Hidden layers use ``activation`` and
        optional dropout; the final Dense layer produces logits.
        """
        if len(layer_sizes) < 2:
            raise ShapeError("layer_sizes must contain at least input and output sizes")
        if activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; expected one of {sorted(ACTIVATIONS)}"
            )
        rngs = spawn_rngs(random_state, 2 * (len(layer_sizes) - 1))
        layers: List[Layer] = []
        rng_index = 0
        for i in range(len(layer_sizes) - 1):
            is_output = i == len(layer_sizes) - 2
            init = "xavier_uniform" if is_output or activation in ("tanh", "sigmoid") else "he_normal"
            layers.append(Dense(layer_sizes[i], layer_sizes[i + 1],
                                weight_init=init, random_state=rngs[rng_index]))
            rng_index += 1
            if not is_output:
                layers.append(get_activation(activation))
                if dropout > 0:
                    layers.append(Dropout(dropout, random_state=rngs[rng_index]))
                rng_index += 1
        return cls(layers, n_classes=layer_sizes[-1], temperature=temperature, name=name)

    @property
    def input_dim(self) -> int:
        """Input feature dimension (taken from the first Dense layer)."""
        for layer in self.layers:
            if isinstance(layer, Dense):
                return layer.in_features
        raise ShapeError("network has no Dense layer")

    @property
    def layer_sizes(self) -> List[int]:
        """The Dense layer sizes, e.g. ``[491, 1200, 1500, 1300, 2]``."""
        sizes: List[int] = []
        for layer in self.layers:
            if isinstance(layer, Dense):
                if not sizes:
                    sizes.append(layer.in_features)
                sizes.append(layer.out_features)
        return sizes

    def parameters(self) -> List[Parameter]:
        """Every trainable parameter in layer order."""
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def n_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(p.value.size for p in self.parameters()))

    def clone(self) -> "NeuralNetwork":
        """Deep-copy the network (weights and configuration)."""
        return copy.deepcopy(self)

    # ------------------------------------------------------------------ #
    # Forward / prediction
    # ------------------------------------------------------------------ #
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run a forward pass and return logits of shape ``(n, n_classes)``.

        The compute dtype follows the layer parameters (fixed when the
        network was built, see :mod:`repro.nn.engine`).  When buffer reuse is
        enabled the returned array may alias an internal layer buffer and is
        only valid until the next forward pass.
        """
        out = np.asarray(inputs)
        if out.ndim == 1:
            out = out.reshape(1, -1)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def predict_logits(self, inputs: np.ndarray) -> np.ndarray:
        """Logits in inference mode, as a fresh array the caller may keep.

        Unlike raw :meth:`forward`, the result never aliases a reused layer
        buffer, so consecutive calls do not overwrite each other.
        """
        logits = self.forward(inputs, training=False)
        return np.array(logits) if get_engine().reuse_buffers else logits

    def predict_proba(self, inputs: np.ndarray,
                      temperature: Optional[float] = None) -> np.ndarray:
        """Class probabilities ``softmax(logits / T)``."""
        temp = self.temperature if temperature is None else temperature
        return softmax(self.predict_logits(inputs), temperature=temp)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return np.argmax(self.predict_logits(inputs), axis=1)

    def malware_score(self, inputs: np.ndarray) -> np.ndarray:
        """Probability assigned to the malware class (class 1).

        This is the "confidence" the paper's live grey-box experiment tracks
        as API calls are added to the source sample.
        """
        return self.predict_proba(inputs)[:, 1]

    # ------------------------------------------------------------------ #
    # Backward passes
    # ------------------------------------------------------------------ #
    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        """Backpropagate a gradient w.r.t. the logits through every layer.

        Returns the gradient with respect to the network input and
        accumulates parameter gradients as a side effect — this is the
        training backward pass.  For the input gradient alone use
        :meth:`input_backward`, which leaves parameter gradients untouched.
        """
        grad = np.asarray(grad_logits)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def input_backward(self, grad_logits: np.ndarray) -> np.ndarray:
        """Backpropagate to the input only, skipping every parameter gradient.

        Each :class:`~repro.nn.layers.Dense` computes just ``grad @ W.T``,
        so this costs about half of :meth:`backward` and never reads or
        writes a ``.grad`` array.  The input gradient is bitwise identical
        to the one :meth:`backward` returns.
        """
        grad = np.asarray(grad_logits)
        for layer in reversed(self.layers):
            grad = layer.input_backward(grad)
        return grad

    def train_step(self, inputs: np.ndarray, targets: np.ndarray,
                   loss: SoftmaxCrossEntropy, optimizer) -> float:
        """One optimisation step on a mini-batch; returns the batch loss."""
        logits = self.forward(inputs, training=True)
        value = loss.forward(logits, targets)
        self.backward(loss.backward())
        optimizer.step(self.parameters())
        return value

    def class_gradients(self, inputs: np.ndarray,
                        temperature: Optional[float] = None,
                        fused: Optional[bool] = None,
                        return_probs: bool = False):
        """Jacobian of the softmax output w.r.t. the input (Equation 1).

        Returns an array of shape ``(n_samples, n_classes, n_features)``
        where entry ``[s, i, j]`` is ``dF_i(x_s) / dx_j`` with
        ``F = softmax(logits / T)``.

        For binary classifiers the softmax rows sum to 1, so
        ``dF_0/dx == -dF_1/dx`` and the full Jacobian needs only ONE backward
        pass — this fused path halves the per-step backward cost of JSMA.
        Row 1 is then written as the exact ``np.negative`` of row 0, which
        the JSMA saliency map relies on.  ``fused=None`` (the default)
        selects it automatically when ``n_classes == 2``; pass
        ``fused=False`` to force the per-class loop (used by the
        verification tests and benchmarks).  Either way the backward passes
        go through :meth:`input_backward`, so parameter gradients are
        neither computed nor touched.

        With ``return_probs=True`` the softmax probabilities from the forward
        pass are returned alongside the Jacobian, letting attack loops reuse
        them for early-stop predictions instead of running a second forward
        pass.
        """
        temp = self.temperature if temperature is None else temperature
        inputs = np.asarray(inputs)
        if inputs.ndim == 1:
            inputs = inputs.reshape(1, -1)
        logits = self.forward(inputs, training=False)
        probs = softmax(logits, temperature=temp)
        jacobian = np.empty((inputs.shape[0], self.n_classes, inputs.shape[1]),
                            dtype=probs.dtype)
        use_fused = self.n_classes == 2 if fused is None else (fused and self.n_classes == 2)
        if use_fused:
            grad_logits = softmax_input_gradient(probs, 0, temperature=temp)
            jacobian[:, 0, :] = self.input_backward(grad_logits)
            np.negative(jacobian[:, 0, :], out=jacobian[:, 1, :])
        else:
            for class_index in range(self.n_classes):
                grad_logits = softmax_input_gradient(probs, class_index, temperature=temp)
                # A fresh forward pass is not needed between classes: layer
                # caches are untouched by input_backward().
                jacobian[:, class_index, :] = self.input_backward(grad_logits)
        if return_probs:
            return jacobian, probs
        return jacobian

    def loss_input_gradient(self, inputs: np.ndarray, labels: np.ndarray,
                            temperature: Optional[float] = None) -> np.ndarray:
        """Gradient of the cross-entropy loss w.r.t. the input (for FGSM).

        Parameter gradients are left untouched (see :meth:`input_backward`).
        """
        temp = self.temperature if temperature is None else temperature
        loss = SoftmaxCrossEntropy(temperature=temp)
        logits = self.forward(inputs, training=False)
        loss.forward(logits, labels)
        # Copy: input_backward() may return a reused layer buffer
        # (repro.nn.engine).
        return np.array(self.input_backward(loss.backward()))

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def get_config(self) -> dict:
        """JSON-serialisable architecture description."""
        return {
            "name": self.name,
            "n_classes": self.n_classes,
            "temperature": self.temperature,
            "layers": [layer.get_config() for layer in self.layers],
        }

    def save(self, path: str | Path) -> Path:
        """Persist architecture + weights to directory ``path``."""
        arrays = {}
        for index, layer in enumerate(self.layers):
            for param in layer.parameters():
                arrays[f"layer{index}_{param.name}"] = param.value
        return save_bundle(path, self.get_config(), arrays)

    @classmethod
    def load(cls, path: str | Path) -> "NeuralNetwork":
        """Restore a network saved with :meth:`save`."""
        meta, arrays = load_bundle(path)
        layers: List[Layer] = []
        for config in meta["layers"]:
            layer_type = config.get("type")
            if layer_type == "Dense":
                layers.append(Dense(config["in_features"], config["out_features"],
                                    weight_init=config.get("weight_init", "he_normal"),
                                    random_state=0))
            elif layer_type == "Dropout":
                layers.append(Dropout(config["rate"]))
            elif layer_type == "LeakyReLU":
                from repro.nn.activations import LeakyReLU
                layers.append(LeakyReLU(config.get("negative_slope", 0.01)))
            elif layer_type in ("ReLU", "Sigmoid", "Tanh"):
                layers.append(get_activation(layer_type.lower()))
            else:
                raise SerializationError(f"unknown layer type {layer_type!r} in bundle")
        network = cls(layers, n_classes=meta["n_classes"],
                      temperature=meta.get("temperature", 1.0),
                      name=meta.get("name", "network"))
        for index, layer in enumerate(network.layers):
            for param in layer.parameters():
                key = f"layer{index}_{param.name}"
                if key not in arrays:
                    raise SerializationError(f"missing weight array {key!r} in bundle")
                if arrays[key].shape != param.value.shape:
                    raise SerializationError(
                        f"weight {key!r} has shape {arrays[key].shape}, "
                        f"expected {param.value.shape}"
                    )
                saved = arrays[key]
                # A checkpoint carries its compute dtype with it: float32
                # bundles restore as float32 regardless of the current engine
                # default (non-float payloads fall back to the engine dtype).
                dtype = saved.dtype if saved.dtype in SUPPORTED_DTYPES else param.value.dtype
                param.value = saved.astype(dtype)
                param.grad = np.zeros_like(param.value)
        return network

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"NeuralNetwork(name={self.name!r}, sizes={self.layer_sizes}, "
                f"parameters={self.n_parameters()})")
