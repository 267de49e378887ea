"""Lipschitz-constant reporting for arbitrary controllers.

Table I reports ``L`` for every controller that has a well-defined network
Lipschitz bound: the neural experts, ``kappa_D`` and ``kappa*``; linear and
polynomial controllers get the analytic constant of their feedback law; the
mixed design ``A_W`` and the switching baseline ``A_S`` have no single
constant (the paper prints '-'), represented here as ``None``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.experts.base import Controller, LinearStateFeedback, NeuralController
from repro.experts.lqr import LQRController
from repro.experts.polynomial import PolynomialController
from repro.nn.lipschitz import empirical_lipschitz, network_lipschitz
from repro.systems.base import ControlSystem
from repro.systems.simulation import batch_controls


def controller_lipschitz(controller: Controller, system: Optional[ControlSystem] = None) -> Optional[float]:
    """Best-available Lipschitz constant of a controller, or ``None``.

    Neural controllers use the paper's product-of-layer-norms bound; linear
    feedback uses the gain's spectral norm; polynomial controllers use an
    empirical bound over the safe region (requires ``system``); everything
    else returns ``None`` (rendered as '-' in the tables).
    """

    # The mixed design A_W and the switching baseline A_S have no single
    # Lipschitz constant -- the paper prints '-' for them.
    from repro.baselines.switching import SwitchingController
    from repro.core.mixing import MixedController

    if isinstance(controller, (MixedController, SwitchingController)):
        return None

    network = getattr(controller, "network", None)
    if isinstance(controller, NeuralController) or (network is not None and hasattr(network, "layers")):
        return float(network_lipschitz(network if network is not None else controller.network))
    if isinstance(controller, (LinearStateFeedback, LQRController)):
        return float(np.linalg.norm(controller.gain, 2))
    if isinstance(controller, PolynomialController) and system is not None:
        return _sampled_lipschitz(controller, system)
    if system is not None and isinstance(controller, Controller):
        # Model-based experts without an analytic constant (e.g. the
        # feedback-linearising oscillator expert): sampled estimate over X.
        return _sampled_lipschitz(controller, system)
    return None


def _sampled_lipschitz(controller: Controller, system: ControlSystem, samples: int = 512, epsilon: float = 1e-4) -> float:
    """Finite-difference estimate of the Lipschitz constant over the safe region."""

    rng = np.random.default_rng(0)
    box = system.safe_region
    points = box.sample(rng, count=samples)
    directions = rng.normal(size=points.shape)
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    directions /= norms
    base = batch_controls(controller, points)
    moved = batch_controls(controller, points + epsilon * directions)
    return float(np.max(np.linalg.norm(moved - base, axis=1) / epsilon, initial=0.0))
