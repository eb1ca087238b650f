"""Properties of the synthetic scenario generator."""

import hashlib

import numpy as np
import pytest

from botdet.features import FEATURE_NAMES, aggregate_flows
from botdet.ingest import GroundTruth, read_dataset
from botdet.synth import (
    PROFILES,
    SynthConfig,
    generate_flows,
    make_fixture,
    write_scenario,
)

SMALL = SynthConfig(seed=3, n_normal_hosts=8, n_botnet_hosts=3,
                    n_background_hosts=2, n_windows=30)


@pytest.fixture(scope="module")
def small_flows():
    return generate_flows(SMALL)


def test_generation_is_deterministic(small_flows):
    again = generate_flows(SMALL)
    assert len(again) == len(small_flows)
    assert all(a == b for a, b in zip(again, small_flows))
    different = generate_flows(SynthConfig(seed=4, n_normal_hosts=8,
                                           n_botnet_hosts=3,
                                           n_background_hosts=2, n_windows=30))
    assert any(a != b for a, b in zip(different, small_flows))


@pytest.mark.parametrize("cfg, digest", [
    (SynthConfig(seed=7, n_windows=12),
     "04b2fe509eb503c9cedf2fb4f9f3a2b5cff5ad869c5b7dec35d3c02fc6adc2f1"),
    (SynthConfig(seed=1008, profile="test", n_windows=10, n_background_hosts=9),
     "b95fb0bfc849cc1a45480a78a2c8918d65f49e8f47c9594568edc37eabdbc77c"),
])
def test_written_scenarios_keep_their_bytes(tmp_path, cfg, digest):
    # The generator's draws, read from numpy's stream in a fixed order, set
    # every byte; these digests were taken when draws still went through
    # Generator.choice.
    path = tmp_path / "scenario.binetflow"
    write_scenario(path, cfg)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_flows_are_chronological_and_anchored(small_flows):
    times = [f.start_time for f in small_flows]
    assert times == sorted(times)
    assert times[0] == SMALL.start_time
    horizon = SMALL.start_time + SMALL.n_windows * SMALL.window_seconds
    assert times[-1] < horizon


def test_label_conventions(small_flows):
    by_label = {GroundTruth.BOTNET: set(), GroundTruth.NORMAL: set(),
                GroundTruth.BACKGROUND: set()}
    for f in small_flows:
        by_label[f.label].add(f.src_addr)
    assert len(by_label[GroundTruth.NORMAL]) == SMALL.n_normal_hosts
    assert len(by_label[GroundTruth.BOTNET]) == SMALL.n_botnet_hosts
    assert len(by_label[GroundTruth.BACKGROUND]) == SMALL.n_background_hosts
    # no host plays two roles
    assert not (by_label[GroundTruth.BOTNET] & by_label[GroundTruth.NORMAL])


def test_scenario_roundtrips_through_the_parser(tmp_path, small_flows):
    path = tmp_path / "synth.binetflow"
    write_scenario(path, SMALL)
    parsed, stats = read_dataset([path], strict=True)
    parsed = list(parsed)
    assert len(parsed) == len(small_flows)
    assert stats.errors == 0
    assert parsed[0].start_time == SMALL.start_time


def test_botnet_windows_deviate_in_three_plus_features(small_flows):
    aggs = aggregate_flows(small_flows, SMALL.start_time, SMALL.window_seconds)
    normal = np.array([a.values for a in aggs if a.label is GroundTruth.NORMAL])
    botnet = [a for a in aggs if a.label is GroundTruth.BOTNET]
    assert len(botnet) >= 30
    mu = normal.mean(axis=0)
    sigma = normal.std(axis=0)
    sigma[sigma == 0] = 1e-9
    for agg in botnet:
        z = np.abs((agg.values - mu) / sigma)
        assert int(np.sum(z >= 3.0)) >= 3, (agg.src_addr, agg.window_index)


def test_every_window_has_botnet_and_normal_presence(small_flows):
    aggs = aggregate_flows(small_flows, SMALL.start_time, SMALL.window_seconds)
    windows_norm = {a.window_index for a in aggs if a.label is GroundTruth.NORMAL}
    windows_bot = {a.window_index for a in aggs if a.label is GroundTruth.BOTNET}
    assert windows_norm == set(range(SMALL.n_windows))
    assert windows_bot == set(range(SMALL.n_windows))


def test_profiles_differ_in_burst_volume():
    base = SynthConfig(seed=5, n_normal_hosts=4, n_botnet_hosts=2,
                       n_background_hosts=0, n_windows=20)
    train = generate_flows(base)
    from dataclasses import replace
    test = generate_flows(replace(base, profile="test"))
    bot_train = sum(1 for f in train if f.label is GroundTruth.BOTNET)
    bot_test = sum(1 for f in test if f.label is GroundTruth.BOTNET)
    assert bot_test > bot_train  # test profile bursts are larger


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        generate_flows(SynthConfig(profile="prod"))


def test_make_fixture_layout(tmp_path):
    cfg = SynthConfig(seed=9, n_normal_hosts=4, n_botnet_hosts=2,
                      n_background_hosts=1, n_windows=12)
    fx = make_fixture(tmp_path, train_cfg=cfg)
    assert fx["train"].exists() and fx["test"].exists()
    import json
    manifest = json.loads(fx["manifest"].read_text())
    assert set(manifest["scenarios"]) == {"synth-train", "synth-test"}
    assert fx["test_cfg"].profile == "test"
    assert fx["test_cfg"].seed != cfg.seed


def test_feature_vector_width_unchanged():
    assert len(FEATURE_NAMES) == 25
    assert set(PROFILES) == {"train", "test"}
