import numpy as np
import pytest

from quadrl import net, rl


def random_spec(rng) -> net.NetworkSpec:
    """A small random spec (<= 64 params) mixing all activations."""
    while True:
        sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 4)))]
        spec = net.mlp_spec(
            sizes,
            hidden_activation=rng.choice(["tanh", "linear"]),
            output_activation=rng.choice(["tanh", "linear", "scaled_tanh"]),
            output_bound=0.7,
        )
        if spec.param_count <= 64:
            return spec


def finite_difference_grad(params, x, g_out, h=1e-5):
    v = params.values
    fd = np.empty_like(v)
    for i in range(v.size):
        vp, vm = v.copy(), v.copy()
        vp[i] += h
        vm[i] -= h
        fp = net.forward(net.ParamVector(vp, params.spec), x)
        fm = net.forward(net.ParamVector(vm, params.spec), x)
        fd[i] = ((fp - fm) @ g_out) / (2.0 * h)
    return fd


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        net.LayerSpec(0, 1)
    with pytest.raises(ValueError):
        net.LayerSpec(2, 2, activation="relu")
    with pytest.raises(ValueError):
        net.LayerSpec(2, 2, activation="scaled_tanh", bound=0.0)


def test_network_spec_rejects_incompatible_chain():
    with pytest.raises(ValueError):
        net.NetworkSpec((net.LayerSpec(2, 3), net.LayerSpec(4, 1)))
    with pytest.raises(ValueError):
        net.NetworkSpec(())


def test_param_count_4_8_2():
    spec = net.mlp_spec([4, 8, 2])
    assert spec.param_count == 4 * 8 + 8 + 8 * 2 + 2 == 58
    assert net.init_network(spec, 0).values.size == 58


def test_init_bounds_and_zero_biases():
    spec = net.NetworkSpec((net.LayerSpec(2, 1, activation="linear"),))
    params = net.init_network(spec, 123)
    w, b = params.values[:2], params.values[2:]
    assert np.all(np.abs(w) <= 1.0 / np.sqrt(2.0))
    assert np.all(b == 0.0)


def test_init_deterministic():
    spec = net.mlp_spec([3, 5, 2])
    a = net.init_network(spec, 7)
    b = net.init_network(spec, 7)
    assert np.array_equal(a.values, b.values)
    c = net.init_network(spec, 8)
    assert not np.array_equal(a.values, c.values)


def test_forward_affine_identity():
    spec = net.NetworkSpec((net.LayerSpec(1, 1, activation="linear"),))
    params = net.ParamVector([2.0, 1.0], spec)
    assert net.forward(params, [3.0]) == pytest.approx(7.0, abs=0)


def test_forward_zero_params_tanh():
    spec = net.mlp_spec([3, 4, 2], output_activation="tanh")
    params = net.ParamVector(np.zeros(spec.param_count), spec)
    out = net.forward(params, [0.3, -0.2, 1.0])
    assert np.array_equal(out, np.zeros(2))


def test_forward_matches_hand_matrix_evaluation():
    rng = np.random.default_rng(11)
    spec = net.mlp_spec([3, 4, 2], output_activation="scaled_tanh",
                        output_bound=0.7)
    params = net.init_network(spec, 2)
    x = rng.normal(size=3)
    v = params.values
    w1 = v[:12].reshape(4, 3)
    b1 = v[12:16]
    w2 = v[16:24].reshape(2, 4)
    b2 = v[24:26]
    expected = 0.7 * np.tanh(w2 @ np.tanh(w1 @ x + b1) + b2)
    assert np.allclose(net.forward(params, x), expected, atol=1e-12)


def test_forward_batch_equals_loop():
    rng = np.random.default_rng(3)
    spec = net.mlp_spec([4, 6, 3])
    params = net.init_network(spec, 9)
    xs = rng.normal(size=(7, 4))
    batch = net.forward(params, xs)
    for i in range(7):
        assert np.allclose(batch[i], net.forward(params, xs[i]), atol=0)


def test_forward_rejects_bad_shape():
    spec = net.mlp_spec([4, 2])
    params = net.init_network(spec, 0)
    with pytest.raises(ValueError):
        net.forward(params, np.zeros(5))


def test_backward_linear_1x1():
    spec = net.NetworkSpec((net.LayerSpec(1, 1, activation="linear"),))
    params = net.ParamVector([2.5, 0.1], spec)
    outputs = net.layer_outputs(params, [[3.0]])
    grad = net.backward(params, outputs, [[1.0]], wrt="params")
    input_grad = net.backward(params, outputs, [[1.0]], wrt="inputs")
    assert grad[0] == pytest.approx(3.0, abs=0)  # d/dw (wx+b) = x
    assert grad[1] == pytest.approx(1.0, abs=0)  # d/db = 1
    assert input_grad[0, 0] == pytest.approx(2.5, abs=0)  # d/dx = w


def test_backward_zero_upstream_gives_zero():
    spec = net.mlp_spec([3, 5, 2])
    params = net.init_network(spec, 4)
    outputs = net.layer_outputs(params, np.ones((1, 3)))
    for wrt in net.GRADIENTS:
        assert np.all(net.backward(params, outputs, np.zeros((1, 2)), wrt) == 0.0)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(21)
    spec = net.mlp_spec([6, 16, 4])
    params = net.init_network(spec, 5)
    x = rng.normal(size=6)
    g_out = rng.normal(size=4)
    analytic = net.backward(params, net.layer_outputs(params, x[None, :]),
                            g_out[None, :], wrt="params")
    fd = finite_difference_grad(params, x, g_out)
    rel = np.abs(analytic - fd) / np.maximum(1e-3, np.abs(fd))
    assert rel.max() < 1e-4


def test_backward_batch_is_sum_of_singles():
    rng = np.random.default_rng(8)
    spec = net.mlp_spec([4, 5, 2], output_activation="scaled_tanh",
                        output_bound=0.7)
    params = net.init_network(spec, 6)
    xs = rng.normal(size=(6, 4))
    gs = rng.normal(size=(6, 2))
    outputs = net.layer_outputs(params, xs)
    batch_grad = net.backward(params, outputs, gs, wrt="params")
    batch_in = net.backward(params, outputs, gs, wrt="inputs")
    single_grad = 0.0
    for i in range(6):
        single = net.layer_outputs(params, xs[i:i + 1])
        single_grad += net.backward(params, single, gs[i:i + 1], wrt="params")
        single_in = net.backward(params, single, gs[i:i + 1], wrt="inputs")
        assert np.allclose(batch_in[i], single_in[0], atol=1e-12)
    assert np.allclose(batch_grad, single_grad, atol=1e-12)


def test_layer_outputs_record_the_forward_pass():
    rng = np.random.default_rng(9)
    spec = net.mlp_spec([4, 5, 3, 2], output_activation="scaled_tanh",
                        output_bound=0.7)
    params = net.init_network(spec, 3)
    xs = rng.normal(size=(5, 4))
    outputs = net.layer_outputs(params, xs)
    assert [o.shape for o in outputs] == [(5, 4), (5, 5), (5, 3), (5, 2)]
    assert np.array_equal(outputs[0], xs)
    assert outputs[-1].tobytes() == net.forward(params, xs).tobytes()
    # A single vector is recorded as a batch of one.
    single = net.layer_outputs(params, xs[0])
    assert single[-1].tobytes() == net.forward(params, xs[0]).tobytes()
    assert single[-1].shape == (1, 2)


LEARNER_SPECS = {"actor": rl.actor_spec(48, 8, 0.7), "critic": rl.critic_spec(48, 8)}


def plain_backward(params, outputs, output_grad):
    """Both gradients from a textbook reverse pass on fresh temporaries."""
    g = np.ascontiguousarray(output_grad)
    layer_grads = []
    for idx in range(len(params.spec.layers) - 1, -1, -1):
        layer, y = params.spec.layers[idx], outputs[idx + 1]
        if layer.activation == "tanh":
            g = (1.0 - y * y) * g
        elif layer.activation == "scaled_tanh":
            g = (layer.bound - y * y / layer.bound) * g
        layer_grads.append(np.concatenate([(g.T @ outputs[idx]).ravel(),
                                           np.add.reduce(g, axis=0)]))
        g = g @ params.views[idx][0]
    return np.concatenate(layer_grads[::-1]), g


@pytest.mark.parametrize("batch", [1, 128])
@pytest.mark.parametrize("name", sorted(LEARNER_SPECS))
def test_partial_backward_matches_full_pass_bytes(name, batch):
    # Each gradient that backward computes alone, in place, has the bytes of
    # the same gradient from a reverse pass that computes both.
    spec = LEARNER_SPECS[name]
    params = net.init_network(spec, 13)
    rng = np.random.default_rng(batch)
    xs = rng.normal(size=(batch, spec.input_size))
    gs = rng.normal(size=(batch, spec.output_size))
    outputs = net.layer_outputs(params, xs)
    param_grad, input_grad = plain_backward(params, outputs, gs)
    only_params = net.backward(params, outputs, gs, wrt="params")
    only_inputs = net.backward(params, outputs, gs, wrt="inputs")
    assert only_params.tobytes() == param_grad.tobytes()
    assert only_inputs.tobytes() == input_grad.tobytes()
    assert only_inputs.shape == xs.shape


def test_backward_and_layer_outputs_leave_their_arguments_unchanged():
    # The passes work in place on their own temporaries; the input batch,
    # the recorded outputs and the upstream gradient must keep their bytes.
    rng = np.random.default_rng(14)
    for name, spec in sorted(LEARNER_SPECS.items()):
        params = net.init_network(spec, 15)
        values = params.values.tobytes()
        xs = rng.normal(size=(128, spec.input_size))
        xs_bytes = xs.tobytes()
        outputs = net.layer_outputs(params, xs)
        assert xs.tobytes() == xs_bytes, name
        recorded = [o.tobytes() for o in outputs]
        gs = rng.normal(size=(128, spec.output_size))
        gs_bytes = gs.tobytes()
        for wrt in net.GRADIENTS:
            net.backward(params, outputs, gs, wrt=wrt)
            assert [o.tobytes() for o in outputs] == recorded, (name, wrt)
            assert gs.tobytes() == gs_bytes, (name, wrt)
        assert params.values.tobytes() == values, name


def test_backward_linear_output_reads_a_strided_gradient_like_a_copy():
    # A column slice (as the actor gets from the critic's input gradient)
    # gives the same bytes as a contiguous copy of it.
    spec = net.mlp_spec([5, 6, 3])
    params = net.init_network(spec, 16)
    rng = np.random.default_rng(16)
    outputs = net.layer_outputs(params, rng.normal(size=(9, 5)))
    wide = rng.normal(size=(9, 7))
    for wrt in net.GRADIENTS:
        sliced = net.backward(params, outputs, wide[:, 4:], wrt)
        copied = net.backward(params, outputs, wide[:, 4:].copy(), wrt)
        assert sliced.tobytes() == copied.tobytes(), wrt


def test_backward_rejects_unknown_gradient_selection():
    spec = net.mlp_spec([3, 2])
    params = net.init_network(spec, 1)
    outputs = net.layer_outputs(params, np.ones((2, 3)))
    for wrt in ("weights", "both"):
        with pytest.raises(ValueError):
            net.backward(params, outputs, np.zeros((2, 2)), wrt=wrt)


def test_layer_views_are_read_only_views_of_the_values():
    spec = net.mlp_spec([3, 4, 2])
    params = net.init_network(spec, 2)
    assert params.views is params.views  # computed once
    for (w, b), layer in zip(params.views, spec.layers):
        assert w.shape == (layer.output_size, layer.input_size)
        assert b.shape == (layer.output_size,)
        assert np.shares_memory(w, params.values)
        assert np.shares_memory(b, params.values)
        assert not w.flags.writeable and not b.flags.writeable


def test_backward_rejects_gradient_not_shaped_like_output():
    spec = net.mlp_spec([3, 4, 2])
    params = net.init_network(spec, 1)
    outputs = net.layer_outputs(params, np.ones((2, 3)))
    with pytest.raises(ValueError):  # single vector, not a batch
        net.backward(params, outputs, np.zeros(2), wrt="params")
    with pytest.raises(ValueError):  # wrong batch size
        net.backward(params, outputs, np.zeros((3, 2)), wrt="params")


def test_adam_first_step_closed_form():
    spec = net.mlp_spec([2, 2])
    params = net.ParamVector(np.array([1.0, 2.0, 3.0, 4.0, 0.1, 0.2]), spec)
    state = net.init_adam(6)
    g = np.array([0.5, -1.0, 2.0, 0.0, -0.25, 4.0])
    lr = 0.0123
    new, new_state = net.adam_step(params, g, state, lr)
    expected = params.values - lr * g / (np.abs(g) + net.ADAM_EPS)
    assert np.allclose(new.values, expected, atol=1e-15)
    assert new_state.step_count == 1


def test_adam_zero_gradient_keeps_params():
    spec = net.mlp_spec([2, 1])
    params = net.init_network(spec, 0)
    state = net.init_adam(spec.param_count)
    new, new_state = net.adam_step(params, np.zeros(spec.param_count), state, 0.1)
    assert np.array_equal(new.values, params.values)
    assert new_state.step_count == 1


def test_adam_two_steps_match_manual_recurrence():
    spec = net.mlp_spec([2, 1])
    params = net.init_network(spec, 1)
    state = net.init_adam(spec.param_count)
    rng = np.random.default_rng(17)
    g1, g2 = rng.normal(size=(2, spec.param_count))
    lr = 1e-3
    p1, s1 = net.adam_step(params, g1, state, lr)
    p2, _ = net.adam_step(p1, g2, s1, lr)

    b1, b2, eps = net.ADAM_BETA1, net.ADAM_BETA2, net.ADAM_EPS
    m = np.zeros(spec.param_count)
    v = np.zeros(spec.param_count)
    x = params.values.copy()
    for t, g in [(1, g1), (2, g2)]:
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    assert np.allclose(p2.values, x, atol=1e-12)


def test_adam_rejects_nan_gradient():
    spec = net.mlp_spec([2, 1])
    params = net.init_network(spec, 0)
    state = net.init_adam(spec.param_count)
    g = np.zeros(spec.param_count)
    g[0] = np.nan
    with pytest.raises(net.TrainingDiverged):
        net.adam_step(params, g, state, 0.1)
    assert net.TrainingDiverged is rl.TrainingDiverged


def test_updates_keep_their_values_private_and_read_only():
    # adam_step and polyak_blend adopt the array they build without a
    # copy; it must still be theirs alone.
    spec = net.mlp_spec([3, 4, 2])
    params = net.init_network(spec, 0)
    other = net.init_network(spec, 1)
    state = net.init_adam(spec.param_count)
    grads = np.random.default_rng(2).normal(size=spec.param_count)
    stepped, new_state = net.adam_step(params, grads, state, 1e-3)
    blended = net.polyak_blend(params, other, 0.1)
    held = {
        stepped: (params.values, grads, state.first_moment, state.second_moment,
                  new_state.first_moment, new_state.second_moment),
        blended: (params.values, other.values),
    }
    for result, arrays in held.items():
        assert not any(np.shares_memory(result.values, a) for a in arrays)
        assert not result.values.flags.writeable
        with pytest.raises(ValueError):
            result.values[0] = 0.0
        assert result.values.shape == (spec.param_count,)


def test_polyak_endpoints_and_rate():
    spec = net.NetworkSpec((net.LayerSpec(1, 1, activation="linear"),))
    target = net.ParamVector([1.0, 1.0], spec)
    source = net.ParamVector([0.0, 0.0], spec)
    assert np.array_equal(net.polyak_blend(target, source, 0.0).values,
                          target.values)
    assert np.array_equal(net.polyak_blend(target, source, 1.0).values,
                          source.values)
    blended = net.polyak_blend(target, source, 0.005)
    assert np.allclose(blended.values, [0.995, 0.995], atol=1e-15)


def test_polyak_converges_geometrically():
    spec = net.mlp_spec([3, 3])
    target = net.init_network(spec, 0)
    source = net.init_network(spec, 1)
    initial_gap = np.max(np.abs(target.values - source.values))
    gap = initial_gap
    for _ in range(50):
        target = net.polyak_blend(target, source, 0.1)
        new_gap = np.max(np.abs(target.values - source.values))
        assert new_gap <= gap + 1e-15
        gap = new_gap
    # Each blend scales the gap by exactly (1 - tau).
    assert gap == pytest.approx(0.9**50 * initial_gap, rel=1e-9)


def test_polyak_rejects_spec_mismatch():
    a = net.init_network(net.mlp_spec([2, 2]), 0)
    b = net.init_network(net.mlp_spec([2, 3]), 0)
    with pytest.raises(ValueError):
        net.polyak_blend(a, b, 0.5)


def test_flatten_unflatten_round_trip():
    rng = np.random.default_rng(30)
    for _ in range(20):
        spec = random_spec(rng)
        values = rng.normal(size=spec.param_count)
        params = net.ParamVector(values, spec)
        assert np.array_equal(params.values, values)


def test_flatten_documented_order():
    # 1 -> 1 linear net with w = 2, b = 3: weights come before biases.
    spec = net.NetworkSpec((net.LayerSpec(1, 1, activation="linear"),))
    params = net.ParamVector([2.0, 3.0], spec)
    assert net.forward(params, [1.0])[0] == pytest.approx(5.0, abs=0)
    assert list(params.values) == [2.0, 3.0]


def test_unflatten_rejects_wrong_length():
    spec = net.mlp_spec([2, 2])
    with pytest.raises(ValueError):
        net.ParamVector(np.zeros(spec.param_count + 1), spec)


def test_scaled_tanh_output_stays_in_bound():
    rng = np.random.default_rng(44)
    spec = net.mlp_spec([4, 8, 3], output_activation="scaled_tanh",
                        output_bound=0.7)
    for seed in range(10):
        params = net.init_network(spec, seed)
        out = net.forward(params, rng.normal(scale=50.0, size=(20, 4)))
        assert np.all(np.abs(out) <= 0.7)


def test_forward_is_pure():
    spec = net.mlp_spec([3, 4, 2])
    params = net.init_network(spec, 12)
    x = np.array([0.1, 0.2, 0.3])
    assert np.array_equal(net.forward(params, x), net.forward(params, x))
