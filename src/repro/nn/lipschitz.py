"""Lipschitz-constant estimation for fully-connected controllers.

The paper (footnote 1) bounds the Lipschitz constant of a feed-forward
network as the product over layers of the operator norm ``||W||`` of each
weight matrix, multiplied by the Lipschitz constant of each activation
(1 for ReLU/Tanh, 1/4 for Sigmoid).  That product is what Table I reports as
``L`` and what the robust distillation step drives down.

Two estimators are provided:

* :func:`network_lipschitz` -- the paper's analytic product-of-norms bound.
* :func:`empirical_lipschitz` -- a sampling-based lower bound (max local
  gradient norm over sampled input pairs), useful for sanity-checking that
  the analytic bound moves in the same direction.

:func:`network_lipschitz` memoises its result keyed by a digest of the
weight bytes: the verification engine asks for the same network's constant
repeatedly (partitioning, error bounds, reports, every sweep job), and the
power iterations dominate hashing a few kilobytes of weights by orders of
magnitude.  The cache is invalidated automatically by any weight update,
because the digest changes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.nn.layers import Activation, Linear
from repro.nn.network import MLP

_LIPSCHITZ_CACHE: "OrderedDict[str, float]" = OrderedDict()
_LIPSCHITZ_CACHE_MAX_ENTRIES = 256


def _weights_digest(network: MLP) -> str:
    """Digest of all parameters (weights change => digest changes).

    Delegates to :func:`repro.experiments.digest.weights_digest` over the
    state dictionary (dtype, shape and raw bytes per parameter), with the
    layer structure -- the architecture description when available, the
    layer/activation names otherwise -- folded in so networks whose
    concatenated parameter bytes coincide but are partitioned or activated
    differently never collide.  One implementation serves both this memo
    and the experiment run store, so their invalidation contracts can never
    drift apart.
    """

    from repro.experiments.digest import weights_digest

    if hasattr(network, "architecture"):
        structure: object = network.architecture()
    else:
        structure = [
            getattr(layer, "name", type(layer).__name__) for layer in network.layers
        ]
    return weights_digest(network.state_dict(), extra=structure)


def network_weights_digest(network: MLP) -> str:
    """Public form of the memo key: a content address for the weights.

    The experiment run store keys evaluation and verification results by
    this digest (times the analysis budgets), reusing the exact
    invalidation contract of the :func:`network_lipschitz` memo: any
    parameter update changes the digest.
    """

    return _weights_digest(network)


def spectral_norm(
    matrix: np.ndarray,
    iterations: int = 4096,
    seed: Optional[int] = 0,
    tol: float = 1e-10,
) -> float:
    """Largest singular value of ``matrix`` via power iteration.

    A closed-form SVD would also work for the tiny matrices used here; power
    iteration is kept because it matches what Lipschitz-regularisation papers
    use and scales to wider layers.  Iteration stops once the estimate is
    stationary to within ``tol`` (relative); ``iterations`` is the cap needed
    when the top two singular values nearly coincide and convergence is slow.
    """

    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("spectral_norm expects a 2-D matrix")
    rng = np.random.default_rng(seed)
    vector = rng.normal(size=matrix.shape[1])
    norm = np.linalg.norm(vector)
    if norm == 0.0:
        return 0.0
    vector /= norm
    estimate = 0.0
    for _ in range(iterations):
        product = matrix @ vector
        product_norm = np.linalg.norm(product)
        if product_norm == 0.0:
            return 0.0
        left = product / product_norm
        vector = matrix.T @ left
        vector_norm = np.linalg.norm(vector)
        if vector_norm == 0.0:
            return 0.0
        vector /= vector_norm
        if abs(vector_norm - estimate) <= tol * max(vector_norm, 1.0):
            break
        estimate = vector_norm
    return float(np.linalg.norm(matrix @ vector))


def layer_lipschitz(layer: Linear) -> float:
    """Lipschitz constant of a single linear layer (its operator norm)."""

    return spectral_norm(layer.weight.data)


def network_lipschitz(network: MLP) -> float:
    """Product-of-layer-norms Lipschitz bound from the paper's footnote 1.

    Memoised on a digest of the current weights (see the module docstring).
    """

    digest = _weights_digest(network)
    cached = _LIPSCHITZ_CACHE.get(digest)
    if cached is not None:
        return cached
    constant = 1.0
    for layer in network.layers:
        if isinstance(layer, Linear):
            constant *= layer_lipschitz(layer)
        elif isinstance(layer, Activation):
            constant *= layer.lipschitz_constant
    constant = float(constant)
    _LIPSCHITZ_CACHE[digest] = constant
    while len(_LIPSCHITZ_CACHE) > _LIPSCHITZ_CACHE_MAX_ENTRIES:
        _LIPSCHITZ_CACHE.popitem(last=False)
    return constant


def empirical_lipschitz(
    network: MLP,
    low: np.ndarray,
    high: np.ndarray,
    samples: int = 512,
    epsilon: float = 1e-3,
    seed: Optional[int] = 0,
) -> float:
    """Sampling lower bound on the Lipschitz constant over a box domain.

    For random points in ``[low, high]`` and random unit directions, measures
    ``||f(x + eps d) - f(x)|| / eps`` and returns the maximum.  Always at most
    the analytic bound of :func:`network_lipschitz` (up to sampling error),
    which the property-based tests rely on.
    """

    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    if low.shape != high.shape:
        raise ValueError("low and high must have the same shape")
    if np.any(high < low):
        raise ValueError("expected low <= high elementwise")
    rng = np.random.default_rng(seed)
    dimension = low.size
    points = rng.uniform(low, high, size=(samples, dimension))
    directions = rng.normal(size=(samples, dimension))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    directions /= norms
    outputs = network.predict(points)
    perturbed = network.predict(points + epsilon * directions)
    deltas = np.linalg.norm(np.atleast_2d(perturbed - outputs), axis=-1)
    return float(np.max(deltas) / epsilon)
