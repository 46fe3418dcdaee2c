"""NumPy network primitives and the slimmable MLP."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.rl.network import he_init, huber_loss_and_grad
from repro.rl.slimmable import SlimmableMLP


# -- primitives -----------------------------------------------------------------


def test_he_init_shapes_and_scale():
    rng = np.random.default_rng(0)
    weights, biases = he_init(64, 32, rng)
    assert weights.shape == (64, 32)
    assert biases.shape == (32,)
    assert np.all(biases == 0.0)
    assert np.std(weights) == pytest.approx(np.sqrt(2.0 / 64), rel=0.2)
    with pytest.raises(ValueError):
        he_init(0, 4, rng)


def test_huber_loss_quadratic_and_linear_regimes():
    predictions = np.array([0.5, 3.0])
    targets = np.array([0.0, 0.0])
    loss, grad = huber_loss_and_grad(predictions, targets, delta=1.0)
    expected_loss = (0.5 * 0.25 + (3.0 - 0.5)) / 2.0
    assert loss == pytest.approx(expected_loss)
    assert grad[0] == pytest.approx(0.5 / 2.0)
    assert grad[1] == pytest.approx(1.0 / 2.0)  # clipped to delta
    with pytest.raises(ValueError):
        huber_loss_and_grad(predictions, np.zeros(3))
    with pytest.raises(ValueError):
        huber_loss_and_grad(predictions, targets, delta=0.0)


def test_huber_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    predictions = rng.normal(size=8)
    targets = rng.normal(size=8)
    loss, grad = huber_loss_and_grad(predictions, targets, delta=1.0)
    eps = 1e-6
    for i in range(len(predictions)):
        bumped = predictions.copy()
        bumped[i] += eps
        loss_plus, _ = huber_loss_and_grad(bumped, targets, delta=1.0)
        numeric = (loss_plus - loss) / eps
        assert numeric == pytest.approx(grad[i], abs=1e-4)


# -- slimmable MLP ----------------------------------------------------------------------


def make_net(widths=(0.75, 1.0)) -> SlimmableMLP:
    return SlimmableMLP(
        input_dim=7, hidden_dims=(16, 16, 16), output_dim=10, widths=widths,
        rng=np.random.default_rng(0),
    )


def backward(net: SlimmableMLP, x: np.ndarray, width: float, grad_out: np.ndarray):
    """``forward`` then ``backward_into`` buffers of the active extents."""
    _, cache = net.forward(x, width)
    active = net.active_units_for_width(width)
    layers = range(net.num_layers)
    weight_grads = [np.full((active[i], active[i + 1]), np.nan) for i in layers]
    bias_grads = [np.full(active[i + 1], np.nan) for i in layers]
    net.backward_into(cache, grad_out, weight_grads, bias_grads)
    return weight_grads, bias_grads


def test_forward_shapes_at_both_widths():
    net = make_net()
    x = np.random.default_rng(1).normal(size=(5, 7))
    for width in (0.75, 1.0):
        out, cache = net.forward(x, width)
        assert out.shape == (5, 10)
        assert cache.width == width
    single = net.predict(np.zeros(7))
    assert single.shape == (1, 10)


def test_active_units_respects_width():
    net = make_net()
    full = net.active_units_for_width(1.0)
    reduced = net.active_units_for_width(0.75)
    assert full == [7, 16, 16, 16, 10]
    assert reduced == [7, 12, 12, 12, 10]
    with pytest.raises(ConfigurationError):
        net.active_units_for_width(0.5)


def test_reduced_width_uses_shared_parameters():
    """The reduced-width output only depends on the first alpha-fraction of
    each hidden layer, which are shared with the full-width network."""
    net = make_net()
    x = np.random.default_rng(2).normal(size=(3, 7))
    reduced_before = net.predict(x, 0.75)
    # Perturb weights outside the reduced slice: reduced output unchanged.
    net.weights[1][12:, :] += 100.0
    net.weights[2][:, 12:] += 100.0
    reduced_after = net.predict(x, 0.75)
    assert np.allclose(reduced_before, reduced_after)
    # The full-width output does change.
    assert not np.allclose(net.predict(x, 1.0), net.predict(x, 0.75))


def test_backward_sliced_covers_only_active_slices():
    """``backward_into`` fills buffers of the active extents, every entry."""
    net = make_net()
    x = np.random.default_rng(3).normal(size=(4, 7))
    ones = np.ones((4, 10))
    grads_w, grads_b = backward(net, x, 0.75, ones)
    # Hidden-to-hidden layer: only the 12x12 active block has a gradient.
    assert grads_w[1].shape == (12, 12) and grads_b[1].shape == (12,)
    assert [g.shape for g in grads_w] == [(7, 12), (12, 12), (12, 12), (12, 10)]
    assert all(np.isfinite(g).all() for g in grads_w + grads_b)
    # Full-shape buffers do not fit a reduced-width pass.
    _, cache = net.forward(x, 0.75)
    with pytest.raises(ValueError):
        net.backward_into(
            cache, ones, [np.empty_like(w) for w in net.weights],
            [np.empty_like(b) for b in net.biases],
        )
    # Full width covers every parameter.
    grads_w, grads_b = backward(net, x, 1.0, ones)
    assert [g.shape for g in grads_w] == [w.shape for w in net.weights]
    assert [g.shape for g in grads_b] == [b.shape for b in net.biases]
    assert all(np.isfinite(g).all() for g in grads_w + grads_b)


@pytest.mark.parametrize("width", [0.75, 1.0])
def test_backward_gradients_match_finite_differences(width):
    net = make_net()
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 7))
    grad_out = rng.normal(size=(3, 10))

    def loss_fn():
        out = net.predict(x, width)
        return float(np.sum(out * grad_out))

    grads_w, grads_b = backward(net, x, width, grad_out)
    eps = 1e-6
    # Spot-check a handful of weight entries in every layer.
    for layer in range(net.num_layers):
        shape = net.weights[layer].shape
        for index in [(0, 0), (min(3, shape[0] - 1), min(5, shape[1] - 1))]:
            original = net.weights[layer][index]
            net.weights[layer][index] = original + eps
            loss_plus = loss_fn()
            net.weights[layer][index] = original - eps
            loss_minus = loss_fn()
            net.weights[layer][index] = original
            numeric = (loss_plus - loss_minus) / (2 * eps)
            assert numeric == pytest.approx(grads_w[layer][index], rel=1e-3, abs=1e-4)
        original = net.biases[layer][0]
        net.biases[layer][0] = original + eps
        loss_plus = loss_fn()
        net.biases[layer][0] = original - eps
        loss_minus = loss_fn()
        net.biases[layer][0] = original
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert numeric == pytest.approx(grads_b[layer][0], rel=1e-3, abs=1e-4)


def test_state_round_trip_and_clone():
    net = make_net()
    clone = net.clone()
    x = np.random.default_rng(5).normal(size=(2, 7))
    assert np.allclose(net.predict(x), clone.predict(x))
    clone.weights[0][:] += 1.0
    assert not np.allclose(net.predict(x), clone.predict(x))
    net2 = SlimmableMLP(
        input_dim=7, hidden_dims=(16, 16, 16), output_dim=10,
        rng=np.random.default_rng(1),
    )
    assert not np.allclose(net.predict(x), net2.predict(x))
    net2.flat_parameters[...] = net.flat_parameters
    assert np.array_equal(net.predict(x), net2.predict(x))
    # The parameter list views the flat buffer, in [w0, b0, w1, b1, ...] order.
    params = net.parameters()
    flat = np.concatenate([p.ravel() for p in params])
    assert np.array_equal(flat, net.flat_parameters)
    assert all(np.shares_memory(p, net.flat_parameters) for p in params)
    with pytest.raises(ConfigurationError):
        net.rebase(np.zeros(net.flat_parameters.size - 1))


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        SlimmableMLP(0, (8,), 4)
    with pytest.raises(ConfigurationError):
        SlimmableMLP(4, (), 4)
    with pytest.raises(ConfigurationError):
        SlimmableMLP(4, (8,), 4, widths=(0.5, 0.75))  # 1.0 missing
    with pytest.raises(ConfigurationError, match="input dimension 7"):
        make_net().predict(np.zeros((2, 3)))  # wrong input dim


@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=500),
)
def test_forward_is_deterministic_and_finite(batch, seed):
    net = make_net()
    x = np.random.default_rng(seed).normal(size=(batch, 7))
    for width in (0.75, 1.0):
        a = net.predict(x, width)
        b = net.predict(x, width)
        assert np.allclose(a, b)
        assert np.all(np.isfinite(a))
