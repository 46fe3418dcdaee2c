"""Slimmable multi-layer perceptron.

The Lotus Q-network is a single MLP executed at two widths: the Q-values of
the first state-action pair of each frame (no proposal count yet) are
computed with only the first ``alpha x`` channels of every hidden layer,
while the second pair uses the full network.  The two computations therefore
share the bulk of their parameters, preserving the correlation between the
two decisions of the same frame — the core architectural idea of §4.3.4.

:class:`SlimmableMLP` implements this with plain NumPy.  Its public passes
take a width multiplier and only use the active slice of each hidden layer:
:meth:`~SlimmableMLP.predict` is validated inference,
:meth:`~SlimmableMLP.forward` the training forward into reusable buffers,
and :meth:`~SlimmableMLP.backward_into` backpropagates into caller buffers
*sliced to the active extents*, so neither the backward pass nor the
optimizer ever allocates full-shape zero arrays or boolean masks; the
optimizer updates the active rectangle through views (the paper: "the
remaining weights are not updated").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.rl.network import he_init


@dataclass
class ForwardCache:
    """Intermediate activations kept by :meth:`SlimmableMLP.forward`.

    Attributes:
        inputs: The input batch.
        pre_activations: Pre-activation values of every layer.
        activations: Post-activation values of every layer (the last entry
            is the network output).
        active_units: The number of active units per layer boundary used for
            this pass (length ``num_layers + 1``).
        width: The width multiplier the pass was run at.
    """

    inputs: np.ndarray
    pre_activations: List[np.ndarray]
    activations: List[np.ndarray]
    active_units: List[int]
    width: float


class SlimmableMLP:
    """An MLP whose hidden layers can run at a reduced width.

    Args:
        input_dim: Number of input features (always fully used).
        hidden_dims: Sizes of the hidden layers at full width.
        output_dim: Number of outputs (always fully used — every action must
            have a Q-value at every width).
        widths: The width multipliers the network supports; ``1.0`` must be
            included.  The paper uses ``(0.75, 1.0)``.
        rng: Random generator for weight initialisation.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dims: Sequence[int],
        output_dim: int,
        widths: Sequence[float] = (0.75, 1.0),
        rng: np.random.Generator | None = None,
    ):
        if input_dim <= 0 or output_dim <= 0:
            raise ConfigurationError("input_dim and output_dim must be positive")
        if not hidden_dims:
            raise ConfigurationError("at least one hidden layer is required")
        if any(h <= 0 for h in hidden_dims):
            raise ConfigurationError("hidden layer sizes must be positive")
        widths = tuple(sorted(set(float(w) for w in widths)))
        if not widths or widths[-1] != 1.0:
            raise ConfigurationError("widths must include 1.0")
        if widths[0] <= 0:
            raise ConfigurationError("widths must be positive")
        self.input_dim = int(input_dim)
        self.hidden_dims = tuple(int(h) for h in hidden_dims)
        self.output_dim = int(output_dim)
        self.widths = widths
        rng = rng if rng is not None else np.random.default_rng(0)

        layer_dims = [self.input_dim, *self.hidden_dims, self.output_dim]
        self._allocate_flat(layer_dims)
        for layer, (fan_in, fan_out) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
            w, b = he_init(fan_in, fan_out, rng)
            self.weights[layer][...] = w
            self.biases[layer][...] = b
        self._active_units_cache: Dict[float, List[int]] = {
            w: self._compute_active_units(w) for w in self.widths
        }
        self._layer_views_cache: Dict[float, List[Tuple[np.ndarray, np.ndarray]]] = {}
        self._backprop_scratch: Dict[Tuple[float, int], List[np.ndarray]] = {}
        self._forward_scratch: Dict[Tuple[float, int], ForwardCache] = {}

    def __getstate__(self) -> dict:
        # Pickling copies each view on its own, so the parameter views and
        # view caches are rebuilt over the copied flat buffer instead.  The
        # owning learner re-registers itself (see DqnLearner.__setstate__).
        state = self.__dict__.copy()
        for name in ("weights", "biases", "_pair_owner"):
            state.pop(name, None)
        state.update(_layer_views_cache={}, _backprop_scratch={}, _forward_scratch={})
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_views()

    def _allocate_flat(self, layer_dims: Sequence[int]) -> None:
        """Back all parameters by one contiguous buffer.

        ``flat_parameters`` is laid out as ``[w0, b0, w1, b1, ...]``;
        :attr:`weights` and :attr:`biases` are reshaped views into it.  The
        contiguous backing lets full-width optimizer steps run as a few
        whole-buffer ufuncs instead of dozens of per-parameter calls.
        Parameter mutation must always go through the views in place
        (``param[...] = ...``), never rebind them — which is what the
        optimizer does.
        """
        sizes = [
            fan_in * fan_out + fan_out
            for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:])
        ]
        self._flat = np.zeros(sum(sizes))
        self._build_views()

    def _build_views(self) -> None:
        layer_dims = [self.input_dim, *self.hidden_dims, self.output_dim]
        self.weights = []
        self.biases = []
        offset = 0
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
            w_size = fan_in * fan_out
            self.weights.append(
                self._flat[offset : offset + w_size].reshape(fan_in, fan_out)
            )
            offset += w_size
            self.biases.append(self._flat[offset : offset + fan_out])
            offset += fan_out

    @property
    def flat_parameters(self) -> np.ndarray:
        """The contiguous buffer backing every parameter (``[w0, b0, ...]``)."""
        return self._flat

    def rebase(self, flat_buffer: np.ndarray) -> None:
        """Move the parameters into ``flat_buffer`` (same size, same layout).

        Copies the current parameter values into the given contiguous buffer
        and rebuilds every view on top of it.  Used by
        :class:`~repro.rl.dqn.DqnLearner` to co-locate the online and target
        networks in one pair buffer, which makes zero-copy *stacked* weight
        views across the two networks possible (both TD-bootstrap forwards
        in one batched matmul per layer).  Any previously obtained parameter
        views are invalidated.
        """
        if flat_buffer.shape != self._flat.shape:
            raise ConfigurationError(
                f"rebase buffer has shape {flat_buffer.shape}, "
                f"expected {self._flat.shape}"
            )
        flat_buffer[...] = self._flat
        self._flat = flat_buffer
        self._build_views()
        self._layer_views_cache = {}
        self._backprop_scratch = {}
        self._forward_scratch = {}

    def _active_for(self, width: float) -> List[int]:
        """Cached active-unit counts for ``width``, validating on a miss.

        The returned list is the cache entry itself — callers must not
        mutate it (the public :meth:`active_units_for_width` returns a
        copy).
        """
        active = self._active_units_cache.get(width)
        if active is None:
            active = self._active_units_cache[self._validate_width(width)]
        return active

    def _views_for(self, width: float) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-layer ``(weight_slice, bias_slice)`` views for ``width``, cached.

        Valid because parameters are only ever mutated in place.
        """
        views = self._layer_views_cache.get(width)
        if views is None:
            active = self._active_for(width)
            views = [
                (w[: active[i], : active[i + 1]], b[: active[i + 1]])
                for i, (w, b) in enumerate(zip(self.weights, self.biases))
            ]
            self._layer_views_cache[width] = views
        return views

    # -- structure ------------------------------------------------------------------

    @property
    def num_layers(self) -> int:
        """Number of dense layers (hidden layers + output layer)."""
        return len(self.weights)

    def _compute_active_units(self, width: float) -> List[int]:
        units = [self.input_dim]
        for hidden in self.hidden_dims:
            units.append(max(1, math.ceil(width * hidden)))
        units.append(self.output_dim)
        return units

    def active_units_for_width(self, width: float) -> List[int]:
        """Active unit counts at each layer boundary for a width multiplier.

        The input and output dimensions are always fully active; hidden
        layers are truncated to ``ceil(width * size)`` units (at least one).
        The counts are precomputed per configured width, so repeated calls
        (every forward pass) are dictionary lookups, not re-derivations.
        """
        return list(self._active_for(width))

    def _validate_width(self, width: float) -> float:
        """Map ``width`` onto the canonical configured value (with tolerance)."""
        for w in self.widths:
            if abs(width - w) < 1e-9:
                return w
        raise ConfigurationError(
            f"width {width} is not one of the configured widths {self.widths}"
        )

    # -- forward / backward -----------------------------------------------------------

    def forward(
        self, x: np.ndarray, width: float = 1.0
    ) -> Tuple[np.ndarray, ForwardCache]:
        """Training forward at ``width``, for :meth:`backward_into`.

        ``x`` must be a 2-D float batch of ``input_dim`` columns (unchecked:
        this is the training hot path).  The outputs and the cache live in
        buffers this network reuses: the next ``forward`` with the same
        ``(width, batch)`` overwrites them, so consume both first.
        """
        batch = x.shape[0]
        key = (width, batch)
        cache = self._forward_scratch.get(key)
        views = self._views_for(width)
        last = len(views) - 1
        if cache is None:
            active = self._active_for(width)
            pre_activations = [np.empty((batch, active[i + 1])) for i in range(last + 1)]
            activations = [
                np.empty((batch, active[i + 1])) if i < last else pre_activations[last]
                for i in range(last + 1)
            ]
            cache = ForwardCache(
                inputs=x,
                pre_activations=pre_activations,
                activations=activations,
                active_units=active,
                width=width,
            )
            self._forward_scratch[key] = cache
        cache.inputs = x
        current = x
        for layer_index, (w, b) in enumerate(views):
            z = cache.pre_activations[layer_index]
            np.matmul(current, w, out=z)
            z += b
            if layer_index < last:
                current = np.maximum(z, 0.0, out=cache.activations[layer_index])
            else:
                current = z
        return current, cache

    def predict(self, inputs: np.ndarray, width: float = 1.0) -> np.ndarray:
        """Validated inference: the outputs at ``width``, freshly allocated.

        Accepts a batch of shape ``(batch, input_dim)`` or a single sample
        of shape ``(input_dim,)`` and keeps no :class:`ForwardCache` — it is
        the path of action selection and TD-target bootstrapping, where no
        backward pass follows.
        """
        x = np.asarray(inputs, dtype=float)
        if x.ndim != 2:
            x = np.atleast_2d(x)
        if x.shape[1] != self.input_dim:
            raise ConfigurationError(
                f"expected input dimension {self.input_dim}, got {x.shape[1]}"
            )
        return self._predict_2d(x, width)

    def _predict_2d(self, x: np.ndarray, width: float) -> np.ndarray:
        """Trusted inference path: ``x`` must be a 2-D float batch."""
        views = self._views_for(width)
        last = len(views) - 1
        for layer_index, (w, b) in enumerate(views):
            x = x @ w
            x += b
            if layer_index < last:
                # In place: x is this layer's fresh matmul output, so the
                # pre-activation need not survive.
                np.maximum(x, 0.0, out=x)
        return x

    def backward_into(
        self,
        cache: ForwardCache,
        grad_outputs: np.ndarray,
        weight_grads: List[np.ndarray],
        bias_grads: List[np.ndarray],
    ) -> None:
        """Back-propagate ``grad_outputs`` into gradients sliced to the
        active extents.

        ``cache`` comes from :meth:`forward`.  ``weight_grads[i]`` /
        ``bias_grads[i]`` must be preallocated arrays of the active-extent
        shapes ``(in_active, out_active)`` / ``(out_active,)`` of layer
        ``i`` at ``cache.width`` (typically views into one flat gradient
        buffer, see :meth:`~repro.rl.dqn.DqnLearner.train_batch`); the
        matmuls and reductions write straight into them, and the propagated
        gradients go through reusable scratch, so the backward pass
        allocates nothing but the boolean ReLU masks.
        """
        grad = grad_outputs
        if grad.__class__ is not np.ndarray or grad.ndim != 2:
            grad = np.atleast_2d(np.asarray(grad, dtype=float))
        if grad.shape != cache.activations[-1].shape:
            raise ConfigurationError(
                f"grad_outputs shape {grad.shape} does not match network output "
                f"shape {cache.activations[-1].shape}"
            )
        views = self._views_for(cache.width)
        num_layers = len(views)
        batch = grad.shape[0]
        key = (cache.width, batch)
        propagate_scratch = self._backprop_scratch.get(key)
        if propagate_scratch is None:
            active = cache.active_units
            propagate_scratch = [
                np.empty((batch, active[i])) for i in range(1, num_layers)
            ]
            self._backprop_scratch[key] = propagate_scratch
        for layer_index in range(num_layers - 1, -1, -1):
            if layer_index < num_layers - 1:
                # ``grad`` is a scratch/fresh array here (written by the
                # matmul of the previous iteration), so the in-place multiply
                # never touches the caller's ``grad_outputs``.  Multiplying
                # by the boolean mask directly (True -> 1.0, False -> 0.0)
                # is the ReLU derivative without materialising a float mask.
                grad *= cache.pre_activations[layer_index] > 0.0
            upstream = (
                cache.inputs if layer_index == 0 else cache.activations[layer_index - 1]
            )
            np.matmul(upstream.T, grad, out=weight_grads[layer_index])
            np.add.reduce(grad, axis=0, out=bias_grads[layer_index])
            if layer_index > 0:
                next_grad = propagate_scratch[layer_index - 1]
                np.matmul(grad, views[layer_index][0].T, out=next_grad)
                grad = next_grad

    # -- parameter management ------------------------------------------------------------

    def parameters(self) -> List[np.ndarray]:
        """Flat list of parameter arrays (weights then biases, interleaved)."""
        params: List[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            params.append(w)
            params.append(b)
        return params

    def clone(self) -> "SlimmableMLP":
        """Create a copy of this network with identical parameters.

        The copy is built directly from this network's attributes — no
        throwaway He initialisation (and no RNG draws) for weights that
        would be overwritten immediately anyway.
        """
        copy = object.__new__(SlimmableMLP)
        copy.input_dim = self.input_dim
        copy.hidden_dims = self.hidden_dims
        copy.output_dim = self.output_dim
        copy.widths = self.widths
        copy._allocate_flat([self.input_dim, *self.hidden_dims, self.output_dim])
        copy._flat[...] = self._flat
        copy._active_units_cache = {
            w: list(units) for w, units in self._active_units_cache.items()
        }
        copy._layer_views_cache = {}
        copy._backprop_scratch = {}
        copy._forward_scratch = {}
        return copy
