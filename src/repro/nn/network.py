"""Network containers: ``Sequential`` and the workhorse ``MLP``."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autodiff import Tensor
from repro.nn.layers import Activation, Identity, Linear, Module, make_activation


class Sequential(Module):
    """Apply a list of modules in order."""

    def __init__(self, layers: Sequence[Module]):
        self.layers = list(layers)

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs
        for layer in self.layers:
            output = layer(output)
        return output

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class MLP(Module):
    """Multi-layer perceptron with a configurable output activation.

    This is the architecture used everywhere in the reproduction: policy
    networks, value/critic networks, neural experts and the distilled
    student controller are all ``MLP`` instances with different sizes.

    Parameters
    ----------
    input_dim, output_dim:
        Sizes of the input (system state) and output (control / value).
    hidden_sizes:
        Widths of the hidden layers, e.g. ``(32, 32)``.
    activation:
        Name of the hidden activation (``"tanh"``, ``"relu"``, ``"sigmoid"``).
    output_activation:
        Name of the final activation, default ``"identity"``.  Policies that
        need bounded outputs use ``"tanh"`` followed by explicit scaling.
    seed:
        Seed for the weight initialisation generator.
    """

    def __init__(
        self,
        input_dim: int,
        output_dim: int,
        hidden_sizes: Sequence[int] = (32, 32),
        activation: str = "tanh",
        output_activation: str = "identity",
        seed: Optional[int] = None,
    ):
        if input_dim <= 0 or output_dim <= 0:
            raise ValueError("MLP dimensions must be positive")
        rng = np.random.default_rng(seed)
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.hidden_sizes = tuple(int(size) for size in hidden_sizes)
        self.activation_name = activation
        self.output_activation_name = output_activation

        sizes = [input_dim, *self.hidden_sizes, output_dim]
        layers: List[Module] = []
        for index in range(len(sizes) - 1):
            layers.append(Linear(sizes[index], sizes[index + 1], rng=rng))
            is_last = index == len(sizes) - 2
            layers.append(make_activation(output_activation if is_last else activation))
        self.layers = layers

    # ------------------------------------------------------------------
    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs
        for layer in self.layers:
            output = layer(output)
        return output

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Plain-array forward pass (no graph), accepting 1-D or 2-D inputs."""

        array = np.asarray(inputs, dtype=np.float64)
        single = array.ndim == 1
        if single:
            array = array[None, :]
        output = array
        for layer in self.layers:
            if isinstance(layer, Linear):
                output = output @ layer.weight.data + layer.bias.data
            elif isinstance(layer, Activation):
                output = _apply_activation_array(layer, output)
            else:  # pragma: no cover - defensive
                output = layer(Tensor(output)).numpy()
        return output[0] if single else output

    # ------------------------------------------------------------------
    def linear_layers(self) -> List[Linear]:
        return [layer for layer in self.layers if isinstance(layer, Linear)]

    def activations(self) -> List[Activation]:
        return [layer for layer in self.layers if isinstance(layer, Activation)]

    def clone(self) -> "MLP":
        """Deep copy with identical weights (used for target networks)."""

        copy = MLP(
            self.input_dim,
            self.output_dim,
            hidden_sizes=self.hidden_sizes,
            activation=self.activation_name,
            output_activation=self.output_activation_name,
        )
        copy.load_state_dict(self.state_dict())
        return copy

    def architecture(self) -> dict:
        """Describe the architecture as a JSON-serialisable dictionary."""

        return {
            "input_dim": self.input_dim,
            "output_dim": self.output_dim,
            "hidden_sizes": list(self.hidden_sizes),
            "activation": self.activation_name,
            "output_activation": self.output_activation_name,
        }

    @classmethod
    def from_architecture(cls, spec: dict) -> "MLP":
        return cls(
            spec["input_dim"],
            spec["output_dim"],
            hidden_sizes=spec.get("hidden_sizes", (32, 32)),
            activation=spec.get("activation", "tanh"),
            output_activation=spec.get("output_activation", "identity"),
        )


def _apply_activation_array(activation: Activation, values: np.ndarray) -> np.ndarray:
    name = activation.name
    if name == "relu":
        return np.maximum(values, 0.0)
    if name == "tanh":
        return np.tanh(values)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-values))
    return values


def soft_update(target: Module, source: Module, tau: float) -> None:
    """Polyak averaging ``target <- (1 - tau) * target + tau * source``."""

    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    target_params = target.parameters()
    source_params = source.parameters()
    if len(target_params) != len(source_params):
        raise ValueError("target and source have different parameter counts")
    for target_param, source_param in zip(target_params, source_params):
        target_param.data = (1.0 - tau) * target_param.data + tau * source_param.data


def hard_update(target: Module, source: Module) -> None:
    """Copy parameters from ``source`` into ``target``."""

    soft_update(target, source, tau=1.0)
