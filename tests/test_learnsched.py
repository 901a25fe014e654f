import json

import numpy as np
import pytest

from pmpd import learnsched, quant, tinylm
from pmpd.errors import ConfigError, FormatError, InputError
from pmpd.learnsched import (LabeledExample, LearnedScheduler, SchedulerNet,
                             TrainConfig, example_loss_and_grads,
                             generate_labels, label_from_scores, load_labels,
                             pool_kv, predict_schedule, save_labels, train)
from pmpd.metrics import rouge_l
from pmpd.schedule import FixedScheduler, PrecisionSchedule, StaticScheduler, SwitchGrid
from pmpd.util import read_json, write_json

GRID = SwitchGrid(5, 16)


def make_net(d=4, hidden=3, n=3, seed=1, horizon=8):
    return SchedulerNet.init(d, d, hidden, SwitchGrid(n, horizon), 3, 2, seed=seed)


def make_separable_dataset(n_classes=5, per_class=20, d=6, margin=3.0, noise=0.3, seed=4):
    rng = np.random.default_rng(seed)
    data = []
    for i in range(n_classes * per_class):
        c = i % n_classes
        feat = np.zeros(d)
        feat[c] = margin
        feat += rng.normal(0, noise, d)
        data.append(LabeledExample(np.zeros((1, d), np.float32),
                                   feat.astype(np.float32)[None, :], c))
    return data


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def test_pool_single_row_returns_that_value_row():
    net = make_net()
    K = np.random.default_rng(0).normal(size=(1, 4))
    V = np.random.default_rng(1).normal(size=(1, 4))
    assert np.allclose(pool_kv(net, K, V), V[0])


def test_pool_zero_query_is_uniform_mean():
    net = make_net()
    net.q[:] = 0.0
    rng = np.random.default_rng(2)
    K, V = rng.normal(size=(7, 4)), rng.normal(size=(7, 4))
    assert np.allclose(pool_kv(net, K, V), V.mean(axis=0))


def test_pool_weights_stay_normalized_under_key_scaling():
    net = make_net()
    rng = np.random.default_rng(3)
    K, V = rng.normal(size=(9, 4)), rng.normal(size=(9, 4))
    for c in (0.1, 1.0, 37.0):
        s = (c * K) @ net.q / np.sqrt(net.d_k)
        a = np.exp(s - s.max())
        a /= a.sum()
        assert abs(a.sum() - 1.0) < 1e-9


def test_pool_rejects_dimension_mismatch():
    net = make_net()
    with pytest.raises(ConfigError):
        pool_kv(net, np.zeros((3, 5)), np.zeros((3, 4)))
    with pytest.raises(ConfigError):
        pool_kv(net, np.zeros((0, 4)), np.zeros((0, 4)))


@pytest.mark.parametrize("p_high, p_low", [(2, 4), (4, 4), (4, 9)])
def test_a_net_whose_high_precision_is_not_above_its_low_is_refused(p_high, p_low):
    # refused where the net is built, not at its first prediction
    with pytest.raises(ConfigError, match="precisions"):
        SchedulerNet.init(32, 32, 4, SwitchGrid(3, 8), p_high, p_low)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

class FakeCache:
    def __init__(self, K, V):
        self._kv = (K, V)

    def layer_kv(self, layer):
        return self._kv


def test_predict_argmax_selects_grid_point():
    net = make_net(n=5, horizon=16)
    # make class 1 win deterministically
    net.w2[:] = 0.0
    net.b2[:] = np.array([0.1, 5.0, 0.2, 0.1, 0.1])
    rng = np.random.default_rng(5)
    cache = FakeCache(rng.normal(size=(6, 4)), rng.normal(size=(6, 4)))
    sched = predict_schedule(net, cache)
    assert sched.switch_points[2] == net.grid.points[1]
    assert sched.switch_points[3] == 0


def test_predict_tie_breaks_to_lowest_class():
    net = make_net(n=4, horizon=9)
    net.w2[:] = 0.0
    net.b2[:] = np.array([1.0, 1.0, 1.0, 1.0])
    cache = FakeCache(np.ones((2, 4)), np.ones((2, 4)))
    sched = predict_schedule(net, cache)
    assert sched.switch_points[2] == net.grid.points[0]


def test_predictions_always_validate():
    rng = np.random.default_rng(6)
    for trial in range(50):
        net = make_net(d=int(rng.integers(2, 6)), hidden=int(rng.integers(2, 8)),
                       n=int(rng.integers(2, 6)), seed=trial, horizon=20)
        t = int(rng.integers(1, 10))
        cache = FakeCache(rng.normal(size=(t, net.d_k)), rng.normal(size=(t, net.d_v)))
        predict_schedule(net, cache)  # an invalid schedule raises when built


def test_learned_scheduler_runs_inside_generate(small_model):
    d = small_model.config.d_model
    net = SchedulerNet.init(d, d, 8, SwitchGrid(5, 16), 3, 2, seed=0)
    trace = tinylm.generate(small_model, list(b"A lantern in the window"),
                            LearnedScheduler(net, p_prefill=4), max_new=12)
    assert trace.p_prefill == 4
    assert all(p in (3, 2) for p in trace.precisions)


# ---------------------------------------------------------------------------
# gradients & training
# ---------------------------------------------------------------------------

def numeric_grads(net, K, V, label, h=1e-6):
    out = {}
    for name, arr in net.params().items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = example_loss_and_grads(net, K, V, label)[0]
            arr[idx] = orig - h
            lm = example_loss_and_grads(net, K, V, label)[0]
            arr[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
        out[name] = g
    return out


def test_gradients_match_finite_differences():
    net = make_net(d=4, hidden=3, n=3, seed=1)
    rng = np.random.default_rng(2)
    K, V = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
    _, analytic = example_loss_and_grads(net, K, V, 1)
    numeric = numeric_grads(net, K, V, 1)
    for name in analytic:
        denom = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(numeric[name])), 1e-8)
        assert np.max(np.abs(analytic[name] - numeric[name]) / denom) < 1e-4, name


def test_single_example_is_memorized():
    net = make_net(d=4, hidden=8, n=3, seed=3)
    rng = np.random.default_rng(4)
    ex = LabeledExample(rng.normal(size=(4, 4)).astype(np.float32),
                        rng.normal(size=(4, 4)).astype(np.float32), 2)
    result = train(net, [ex], TrainConfig(lr=0.05, epochs=400, batch=1, seed=0))
    assert result.final_loss < 0.01
    assert result.final_accuracy == 1.0


def test_separable_dataset_reaches_95_percent():
    data = make_separable_dataset()
    net = SchedulerNet.init(6, 6, 64, SwitchGrid(5, 16), 3, 2, seed=3)
    result = train(net, data, TrainConfig(lr=1e-2, epochs=200, batch=16, seed=5))
    assert result.final_accuracy >= 0.95


def test_whole_batch_descent_is_non_increasing():
    data = make_separable_dataset(per_class=8)
    net = SchedulerNet.init(6, 6, 16, SwitchGrid(5, 16), 3, 2, seed=7)
    result = train(net, data, TrainConfig(lr=1e-3, epochs=60, batch=len(data),
                                          momentum=0.0, seed=8))
    assert all(b <= a + 1e-12 for a, b in zip(result.losses, result.losses[1:]))


def test_training_is_seed_deterministic():
    data = make_separable_dataset(per_class=5)
    net = SchedulerNet.init(6, 6, 8, SwitchGrid(5, 16), 3, 2, seed=1)
    r1 = train(net, data, TrainConfig(epochs=5, seed=9))
    r2 = train(net, data, TrainConfig(epochs=5, seed=9))
    assert r1.losses == r2.losses
    assert np.array_equal(r1.net.w1, r2.net.w1)


def test_training_rejects_bad_labels_and_divergence():
    net = make_net(n=3)
    bad = [LabeledExample(np.zeros((1, 4), np.float32), np.zeros((1, 4), np.float32), 7)]
    with pytest.raises(InputError):
        train(net, bad)
    with pytest.raises(InputError):
        train(net, [])
    data = make_separable_dataset(n_classes=3, per_class=4, d=4, margin=50.0)
    with np.errstate(all="ignore"), pytest.raises(ConfigError, match="diverged"):
        train(make_net(n=3, d=4), data, TrainConfig(lr=1e12, epochs=30, seed=0))


@pytest.mark.parametrize("k_shape, v_shape", [((0, 4), (0, 4)), ((2, 5), (2, 4)),
                                              ((2, 4), (2, 3)), ((2, 4), (3, 4))])
def test_training_refuses_kv_the_net_cannot_pool(k_shape, v_shape):
    # an empty prompt's features, a width other than the net's, or K and V of
    # different lengths: a ConfigError before the first epoch, not numpy's error
    good = LabeledExample(np.zeros((1, 4), np.float32), np.zeros((1, 4), np.float32), 0)
    bad = LabeledExample(np.zeros(k_shape, np.float32), np.zeros(v_shape, np.float32), 1)
    with pytest.raises(ConfigError, match="K .* V"):
        train(make_net(n=3), [good, bad], TrainConfig(epochs=1))


def test_final_loss_and_accuracy_are_those_of_the_trained_net():
    data = make_separable_dataset(per_class=6, noise=2.0)
    net = SchedulerNet.init(6, 6, 8, SwitchGrid(5, 16), 3, 2, seed=2)
    result = train(net, data, TrainConfig(epochs=3, seed=4))
    losses = [example_loss_and_grads(result.net, ex.k, ex.v, ex.label)[0] for ex in data]
    assert result.final_loss == sum(losses) / len(data)
    points = result.net.grid.points
    hits = [points.index(predict_schedule(result.net, FakeCache(ex.k, ex.v))
                         .switch_points[2]) == ex.label for ex in data]
    assert result.final_accuracy == sum(hits) / len(data)
    assert 0 < result.final_accuracy < 1  # both outcomes occur, so both are counted


@pytest.mark.parametrize("bad", [{"batch": 0}, {"batch": -1}, {"epochs": 0}, {"epochs": -3},
                                 {"lr": 0.0}, {"lr": -5.0}, {"lr": float("nan")},
                                 {"lr": float("inf")}, {"momentum": -0.1},
                                 {"momentum": 1.0}, {"momentum": float("nan")}])
def test_train_config_refuses_settings_outside_their_domain(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad)
    TrainConfig(batch=1, epochs=1, lr=1e-3, momentum=0.0)  # the edges that stay valid


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

def test_label_rule_minimality():
    assert label_from_scores([0.9, 0.5, 0.6, 0.9]) == 0   # all-low already matches
    assert label_from_scores([0.1, 0.2, 0.3, 0.9]) == 3   # only the all-high run
    assert label_from_scores([0.1, 0.9, 0.95, 0.9]) == 1  # minimal qualifying index


def test_generate_labels_end_to_end(small_model, corpus_prompts):
    grid = SwitchGrid(5, 8)
    examples, skipped = generate_labels(small_model, corpus_prompts[:6], grid, 3, 2,
                                        p_prefill=4, seed=13)
    assert len(examples) + skipped == 6
    for ex in examples:
        assert 0 <= ex.label < 5
        assert len(ex.scores) == 5
        # re-verification: the labeled point qualifies and is minimal
        threshold = ex.scores[-1] - learnsched.MATCH_GUARD
        assert ex.scores[ex.label] >= threshold
        assert all(s < threshold for s in ex.scores[: ex.label])
        assert ex.k.shape == (ex.prompt_len, small_model.config.d_model)


def test_generate_labels_cuts_prompts_to_what_the_horizon_leaves():
    # a prompt of max_context - horizon + 1 tokens decodes its horizon to the
    # cache's last position, the engine's capacity rule
    cfg = tinylm.ModelConfig(n_layers=1, n_heads=2, d_model=32, d_ff=64, max_context=16)
    model = tinylm.ModelVariants.from_random(cfg, quant.PrecisionSet((3, 2)), seed=1)
    examples, _ = generate_labels(model, [list(b"A lantern swings over the dark water")] * 4,
                                  SwitchGrid(3, 8), 3, 2, seed=13)
    assert max(ex.prompt_len for ex in examples) == 16 - 8 + 1


def test_generate_labels_refuses_an_empty_seed_prompt(small_model):
    with pytest.raises(InputError, match="empty"):
        generate_labels(small_model, [list(b"A lantern"), []], SwitchGrid(3, 8), 3, 2)


def test_generate_labels_deterministic(small_model, corpus_prompts):
    grid = SwitchGrid(3, 8)
    a, _ = generate_labels(small_model, corpus_prompts[:3], grid, 3, 2, seed=21)
    b, _ = generate_labels(small_model, corpus_prompts[:3], grid, 3, 2, seed=21)
    assert [ex.label for ex in a] == [ex.label for ex in b]
    assert all(np.array_equal(x.k, y.k) and np.array_equal(x.v, y.v)
               for x, y in zip(a, b))


def test_labels_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    examples = [LabeledExample(rng.normal(size=(3, 4)).astype(np.float32),
                               rng.normal(size=(3, 5)).astype(np.float32),
                               1, [0.1, 0.2, 0.9], 3)]
    path = tmp_path / "labels.jsonl"
    save_labels(path, examples, SwitchGrid(3, 8), 3, 2)
    loaded, fields = load_labels(path)
    assert fields == {"grid": SwitchGrid(3, 8), "p_high": 3, "p_low": 2, "feature_block": -1}
    assert loaded[0].label == 1 and loaded[0].scores == [0.1, 0.2, 0.9]
    assert np.array_equal(loaded[0].k, examples[0].k)
    assert np.array_equal(loaded[0].v, examples[0].v)


def test_net_file_and_label_header_share_one_grid_format(tmp_path):
    grid = SwitchGrid(4, 12)
    net = SchedulerNet.init(4, 5, 3, grid, 4, 2, seed=0, feature_block=1)
    write_json(tmp_path / "net.json", net.to_json())
    save_labels(tmp_path / "labels.jsonl", [], grid, 4, 2, feature_block=1)
    header = json.loads((tmp_path / "labels.jsonl").read_text().splitlines()[0])
    expected = {"grid": grid, "p_high": 4, "p_low": 2, "feature_block": 1}
    assert learnsched._grid_fields(read_json(tmp_path / "net.json")) == expected
    assert learnsched._grid_fields(header) == expected


@pytest.mark.parametrize("body", [
    "{not json\n",
    '{"tag": "pmpd-labels-v1"}\n{"label": 0}\n',
    '{"tag": "pmpd-labels-v1"}\n{"label": 0, "t": 1, "d_k": 1, "d_v": 1, "k": "!", "v": ""}\n',
])
def test_malformed_labels_file_is_format_error(tmp_path, body):
    path = tmp_path / "labels.jsonl"
    path.write_text(body)
    with pytest.raises(FormatError):
        load_labels(path)


def test_generate_labels_scores_and_features_match_independent_runs(small_model,
                                                                    corpus_prompts):
    grid = SwitchGrid(3, 8)
    # more prompts than a lockstep wave, cut to mixed lengths
    prompts = [p[:20] for p in corpus_prompts[: tinylm.WAVE + 2]]
    examples, skipped = generate_labels(small_model, prompts, grid, 3, 2, p_prefill=4,
                                        seed=5, feature_block=0)
    assert skipped == 0 and len({ex.prompt_len for ex in examples}) > 1
    for ex, toks in zip(examples, prompts):
        prompt = toks[: ex.prompt_len]
        ref = tinylm.generate(small_model, prompt, FixedScheduler(tinylm.FULL_PRECISION),
                              max_new=8).output_tokens
        scores = [rouge_l(tinylm.generate(
            small_model, prompt,
            StaticScheduler(PrecisionSchedule.two_phase(3, 2, point, 8, 4)),
            max_new=8).output_tokens, ref).f1 for point in grid.points]
        assert ex.scores == scores
        _, cache = tinylm.prefill(small_model, 4, prompt)
        k, v = cache.layer_kv(0)
        assert ex.k.tobytes() == k.astype(np.float32).tobytes()
        assert ex.v.tobytes() == v.astype(np.float32).tobytes()


def test_net_json_round_trip():
    net = make_net(d=5, hidden=4, n=3, seed=11)
    obj = net.to_json()
    assert obj["tag"] == "pmpd-sched-v1"
    back = SchedulerNet.from_json(obj)
    for name in net.params():
        assert np.array_equal(net.params()[name], back.params()[name])
    assert back.grid.points == net.grid.points
    assert (back.p_high, back.p_low) == (net.p_high, net.p_low)


@pytest.mark.parametrize("field, value", [("p_high", 4.7), ("p_low", 2.2),
                                          ("feature_block", -1.0), ("p_low", True)])
def test_a_net_built_in_code_refuses_a_non_integer(field, value):
    # int() truncated them: p_high 4.7 was kept as 4, p_low 2.2 as 2
    net = make_net()
    fields = {"grid": net.grid, "p_high": 3, "p_low": 2, "feature_block": -1, field: value}
    with pytest.raises(TypeError):
        SchedulerNet(**net.params(), **fields)


def test_a_learned_scheduler_refuses_a_non_integer_prefill():
    net = make_net()
    with pytest.raises(TypeError):
        LearnedScheduler(net, 4.5)  # was built with p_prefill 4
    numpy_net = SchedulerNet(**net.params(), grid=net.grid, p_high=np.int64(3),
                             p_low=np.int32(2), feature_block=np.int64(-1))
    assert (numpy_net.p_high, numpy_net.p_low, numpy_net.feature_block) == (3, 2, -1)
    assert type(numpy_net.p_high) is int
    assert LearnedScheduler(numpy_net, np.int64(4)).p_prefill == 4


def test_feature_block_outside_the_model_is_config_error(small_model):
    d = small_model.config.d_model
    for block in (2, -3):  # small_model has two layers
        net = SchedulerNet.init(d, d, 8, SwitchGrid(5, 16), 3, 2, seed=0, feature_block=block)
        with pytest.raises(ConfigError, match="outside the cache"):
            tinylm.generate(small_model, list(b"A lantern"), LearnedScheduler(net), max_new=4)
