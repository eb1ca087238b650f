"""Artifact round trips: features, model, detector, scores, decisions, manifests."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from botdet.detector import DetectorModel, FittedPdf
from botdet.errors import DataError
from botdet.features import FEATURE_NAMES, N_FEATURES, FeatureRow, Normalizer
from botdet.fileio import (
    FORMAT_VERSION,
    FeaturesMeta,
    config_hash,
    load_detector,
    load_model,
    read_decisions_jsonl,
    read_features,
    read_scores_csv,
    save_detector,
    save_model,
    write_decisions_jsonl,
    write_features,
    write_run_manifest,
    write_scores_csv,
)
from botdet.ingest import GroundTruth
from botdet.models import MlpVaeParams, RvaeParams
from botdet.scoring import ScoredWindow
from botdet.train import TrainedModel


def _meta(rng):
    raw = rng.random((30, N_FEATURES)) * 50
    nz = Normalizer.fit(raw)
    return FeaturesMeta(feature_names=FEATURE_NAMES, normalizer=nz,
                        window_seconds=60.0, n_windows=3, l_max=128,
                        t0=1312966800.0)


def _rows(rng, n=17):
    labels = [GroundTruth.NORMAL, GroundTruth.BOTNET, GroundTruth.BACKGROUND]
    return [
        FeatureRow(src_addr=f"192.168.0.{i}", window_index=i // 3,
                   first_seen=1312966800.0 + i * 8.13, label=labels[i % 3],
                   values=rng.random(N_FEATURES))
        for i in range(n)
    ]


def test_features_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    meta, rows = _meta(rng), _rows(rng)
    path = tmp_path / "features.csv"
    write_features(path, meta, rows)
    meta2, rows2 = read_features(path)
    assert meta2.feature_names == meta.feature_names
    assert np.array_equal(meta2.normalizer.vmin, meta.normalizer.vmin)
    assert np.array_equal(meta2.normalizer.vmax, meta.normalizer.vmax)
    assert meta2.t0 == meta.t0 and meta2.window_seconds == 60.0
    assert len(rows2) == len(rows)
    for a, b in zip(rows, rows2):
        assert (a.src_addr, a.window_index, a.label) == (b.src_addr, b.window_index, b.label)
        assert a.first_seen == b.first_seen
        assert np.array_equal(a.values, b.values)


def test_features_reader_rejects_foreign_files(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("src,dst\n1,2\n")
    with pytest.raises(DataError):
        read_features(p)
    # wrong kind embedded in an otherwise valid header
    r = tmp_path / "y.csv"
    r.write_text('#META {"format_version": 1, "kind": "model"}\n')
    with pytest.raises(DataError):
        read_features(r)
    s = tmp_path / "z.csv"
    s.write_text('#META {"format_version": 99, "kind": "features"}\n')
    with pytest.raises(DataError):
        read_features(s)
    # corrupt rows name the file line: #META, column header, then rows
    rng = np.random.default_rng(2)
    good = tmp_path / "good.csv"
    write_features(good, _meta(rng), _rows(rng, n=5))
    lines = good.read_text().splitlines()
    fields = lines[3].split(",")
    for name, row, reason in [
        ("truncated", fields[:6], "6 columns, expected 29"),
        ("extra", fields + ["0.5"], "30 columns, expected 29"),
        ("window", [fields[0], "w1", *fields[2:]], "invalid literal"),
        ("value", [*fields[:10], "0.5x", *fields[11:]], "could not convert"),
        ("label", [*fields[:3], "Suspect", *fields[4:]], "not a valid GroundTruth"),
        ("negwindow", [fields[0], "-1", *fields[2:]],
         "window_index: expected an integer >= 0, got '-1'"),
        ("seen", [*fields[:2], "nan", *fields[3:]],
         "first_seen: expected a finite number, got 'nan'"),
        ("nanvalue", [*fields[:10], "nan", *fields[11:]], r"finite and in \[0, 1\]"),
        ("infvalue", [*fields[:10], "inf", *fields[11:]], r"finite and in \[0, 1\]"),
        ("big", [*fields[:10], "2.5", *fields[11:]], r"finite and in \[0, 1\]"),
        ("neg", [*fields[:10], "-0.25", *fields[11:]], r"finite and in \[0, 1\]"),
    ]:
        bad = tmp_path / f"{name}.csv"
        bad.write_text("\n".join([*lines[:3], ",".join(row), *lines[4:]]) + "\n")
        with pytest.raises(DataError, match=f"{name}.csv:4: .*{reason}"):
            read_features(bad)
    # a features file in the retired binary encoding
    old = tmp_path / "features-train.bin"
    old.write_bytes(b"BDFT\x8a\x05\x00\x00\x05\x00\x00\x00{")
    with pytest.raises(DataError, match="features-train.bin:1: not UTF-8"):
        read_features(old)


def test_features_reader_rejects_a_repeated_host_window(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "dup.csv"
    write_features(path, _meta(rng), _rows(rng, n=5))
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines, lines[2]]) + "\n")
    with pytest.raises(DataError, match=r"dup.csv:8: host-window \('192.168.0.0', 0\) "
                                        "repeats line 3"):
        read_features(path)


# a host-window's key cells: any text for src_addr (commas, quotes, CR/LF and
# non-ASCII drawn often), any window_index up to int64's maximum, any finite first_seen
_KEY = st.tuples(
    st.text(st.one_of(st.sampled_from(',"\r\n #é\u2028'), st.characters(codec="utf-8"))),
    st.integers(0, 2**63 - 1), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(GroundTruth))


def _records(value):
    """Host-windows with unique (src_addr, window_index), each a key and a drawn value."""
    return st.lists(st.tuples(_KEY, value), max_size=8, unique_by=lambda r: r[0][:2])


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _key_bits(r) -> tuple:
    return r.src_addr, r.window_index, _bits(r.first_seen), r.label


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=_records(st.lists(st.floats(-0.0, 1.0), min_size=N_FEATURES,
                                 max_size=N_FEATURES)))
def test_features_table_round_trips_bit_for_bit(tmp_path, records):
    rows = [FeatureRow(*key, values=np.array(values)) for key, values in records]
    path = tmp_path / "features.csv"
    write_features(path, _meta(np.random.default_rng(0)), rows)
    _, back = read_features(path)
    assert ([(*_key_bits(r), r.values.tobytes()) for r in back]
            == [(*_key_bits(r), r.values.tobytes()) for r in rows])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=_records(st.floats(allow_nan=False, allow_infinity=False)))
def test_scores_table_round_trips_bit_for_bit(tmp_path, records):
    scored = [ScoredWindow(*key, score) for key, score in records]
    path = tmp_path / "scores.csv"
    write_scores_csv(path, scored)
    assert ([(*_key_bits(s), _bits(s.score)) for s in read_scores_csv(path)]
            == [(*_key_bits(s), _bits(s.score)) for s in scored])


def _trained_model(arch="rvae"):
    rng = np.random.default_rng(5)
    raw = rng.random((20, N_FEATURES)) * 9
    nz = Normalizer.fit(raw)
    if arch == "rvae":
        params = RvaeParams.init(rng, N_FEATURES, 6, 3)
    else:
        params = MlpVaeParams.init(rng, N_FEATURES, (8, 8), 4)
    return TrainedModel(arch=arch, params=params, feature_names=FEATURE_NAMES,
                        normalizer=nz, window_seconds=60.0, n_windows=3,
                        l_max=128, seed=5,
                        train_summary={"epochs": 2, "final_loss": 1.25})


@pytest.mark.parametrize("arch", ["rvae", "mlp"])
def test_model_roundtrip_is_bit_exact(tmp_path, arch):
    model = _trained_model(arch)
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.arch == arch
    assert loaded.feature_names == model.feature_names
    assert loaded.seed == 5 and loaded.n_windows == 3
    assert loaded.train_summary == model.train_summary
    named_a = model.params.named_parameters()
    named_b = loaded.params.named_parameters()
    assert list(named_a) == list(named_b)
    for name in named_a:
        assert np.array_equal(named_a[name].data, named_b[name].data), name
        assert named_b[name].grad is None, name  # a loaded model is only scored
    assert np.array_equal(loaded.normalizer.vmin, model.normalizer.vmin)
    # a second save produces identical bytes (determinism contract)
    path2 = tmp_path / "model2.json"
    save_model(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_model_loader_rejects_mismatches(tmp_path):
    model = _trained_model()
    path = tmp_path / "model.json"
    save_model(path, model)
    payload = json.loads(path.read_text())

    bad = dict(payload)
    bad["format_version"] = 2
    p1 = tmp_path / "v2.json"
    p1.write_text(json.dumps(bad))
    with pytest.raises(DataError):
        load_model(p1)

    bad = json.loads(path.read_text())
    del bad["parameters"]["head.mu.w"]
    p2 = tmp_path / "missing.json"
    p2.write_text(json.dumps(bad))
    with pytest.raises(DataError):
        load_model(p2)

    bad = json.loads(path.read_text())
    bad["parameters"]["head.mu.w"]["shape"] = [2, 2]
    bad["parameters"]["head.mu.w"]["data"] = [0.0, 0.0, 0.0, 0.0]
    p3 = tmp_path / "shape.json"
    p3.write_text(json.dumps(bad))
    with pytest.raises(DataError):
        load_model(p3)

    with pytest.raises(DataError):
        load_model(tmp_path / "nope.json")


def test_model_loader_rejects_f_dim_that_differs_from_feature_names(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, _trained_model())
    bad = json.loads(path.read_text())
    bad["feature_names"] = bad["feature_names"][:24]
    for key in ("min", "max", "log1p"):
        bad["normalizer"][key] = bad["normalizer"][key][:24]
    doctored = tmp_path / "f_dim.json"
    doctored.write_text(json.dumps(bad))
    with pytest.raises(DataError, match=f"{doctored}: config.f_dim 25 does not match "
                                        "the 24 feature names"):
        load_model(doctored)


def test_model_loader_takes_a_constant_feature_and_refuses_min_above_max(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, _trained_model())
    payload = json.loads(path.read_text())
    name, top = payload["feature_names"][4], payload["normalizer"]["max"][4]
    payload["normalizer"]["min"][4] = top  # a constant feature
    path.write_text(json.dumps(payload))
    assert load_model(path).normalizer.vmin[4] == top
    payload["normalizer"]["min"][4] = 1e30
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=f"normalizer min is above max for feature '{name}'"):
        load_model(path)


def test_detector_roundtrip(tmp_path):
    det = DetectorModel(
        pdf_normal=FittedPdf("gamma", (2.25,), 0.1, 1.5, 0.003, 400),
        pdf_botnet=FittedPdf("mielke", (3.0, 4.5), 8.0, 2.0, 0.01, 250),
        tie_rule="benign", bins=200, min_samples=100,
    )
    path = tmp_path / "detector.json"
    save_detector(path, det)
    loaded = load_detector(path)
    assert loaded == det
    payload = json.loads(path.read_text())
    assert payload["pdf_botnet"]["params"] == [3.0, 4.5]
    assert payload["pdf_normal"]["n"] == 400


def test_detector_loader_rejects_unknown_family(tmp_path):
    path = tmp_path / "detector.json"
    det = DetectorModel(
        pdf_normal=FittedPdf("gamma", (2.0,), 0.0, 1.0, 0.0, 200),
        pdf_botnet=FittedPdf("gamma", (2.0,), 5.0, 1.0, 0.0, 200),
    )
    save_detector(path, det)
    payload = json.loads(path.read_text())
    payload["pdf_normal"]["family"] = "gaussian"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError):
        load_detector(path)


def test_scores_roundtrip(tmp_path):
    scored = [
        ScoredWindow("10.0.0.1", 4, 1312966800.25, GroundTruth.BOTNET, 17.25),
        ScoredWindow("192.168.0.3", 0, 1312966800.0, GroundTruth.NORMAL,
                     0.1234567890123456789),
    ]
    path = tmp_path / "scores.csv"
    write_scores_csv(path, scored)
    loaded = read_scores_csv(path)
    assert loaded == scored  # dataclass equality covers exact float fields
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(DataError):
        read_scores_csv(bad)


def test_scores_reader_rejects_corrupt_rows(tmp_path):
    header = "src_addr,window_index,first_seen,label,score\n"
    for name, row, reason in [
        ("truncated", "10.0.0.1,2,1.0", "3 columns, expected 5"),
        ("extra", "10.0.0.1,2,1.0,Normal,0.5,0.5", "6 columns, expected 5"),
        ("window", "10.0.0.1,two,1.0,Normal,0.5", "invalid literal"),
        ("label", "10.0.0.1,2,1.0,Suspect,0.5", "not a valid GroundTruth"),
        ("negwindow", "10.0.0.1,-3,1.0,Normal,0.5",
         "window_index: expected an integer >= 0, got '-3'"),
        ("seen", "10.0.0.1,2,inf,Normal,0.5", "first_seen: expected a finite number, got 'inf'"),
        ("nanscore", "10.0.0.1,2,1.0,Normal,nan", "score: expected a finite number, got 'nan'"),
        ("infscore", "10.0.0.1,2,1.0,Normal,-inf",
         "score: expected a finite number, got '-inf'"),
    ]:
        bad = tmp_path / f"{name}.csv"
        bad.write_text(header + "10.0.0.2,1,0.5,Normal,0.25\n" + row + "\n")
        with pytest.raises(DataError, match=f"{name}.csv:3: .*{reason}"):
            read_scores_csv(bad)
    raw = tmp_path / "raw.csv"
    raw.write_bytes(header.encode() + b"10.0.0.\xff,1,2.0,Normal,0.5\n")
    with pytest.raises(DataError, match="raw.csv:2: not UTF-8"):
        read_scores_csv(raw)


def test_scores_reader_rejects_a_repeated_host_window(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("src_addr,window_index,first_seen,label,score\n"
                    "10.0.0.1,4,1.0,Botnet,17.25\n10.0.0.2,4,2.0,Normal,0.5\n"
                    "10.0.0.1,4,1.0,Botnet,3.0\n")
    with pytest.raises(DataError, match=r"dup.csv:4: host-window \('10.0.0.1', 4\) "
                                        "repeats line 2"):
        read_scores_csv(path)


def test_decisions_roundtrip(tmp_path):
    decisions = [
        {"src_addr": "10.0.0.1", "window_index": 2, "score": 9.5,
         "likelihood_normal": 0.001, "likelihood_botnet": 0.4,
         "verdict": "Malicious", "out_of_support": False},
        {"src_addr": "192.168.0.9", "window_index": 2, "score": 0.5,
         "likelihood_normal": 0.9, "likelihood_botnet": 0.0,
         "verdict": "NonMalicious", "out_of_support": False},
    ]
    path = tmp_path / "decisions.jsonl"
    write_decisions_jsonl(path, decisions)
    assert read_decisions_jsonl(path) == decisions
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ok": 1}\nnot json\n')
    with pytest.raises(DataError):
        read_decisions_jsonl(bad)


def test_decisions_reader_rejects_a_repeated_host_window(tmp_path):
    path = tmp_path / "dup.jsonl"
    path.write_text('{"src_addr": "10.0.0.1", "window_index": 2, "verdict": "Malicious"}\n'
                    '{"src_addr": "10.0.0.1", "window_index": 3, "verdict": "Malicious"}\n'
                    '{"src_addr": "10.0.0.1", "window_index": 2, "verdict": "NonMalicious"}\n')
    with pytest.raises(DataError, match=r"dup.jsonl:3: host-window \('10.0.0.1', 2\) "
                                        "repeats line 1"):
        read_decisions_jsonl(path)


def test_run_manifest_contents_and_determinism(tmp_path):
    inp = tmp_path / "input.csv"
    inp.write_text("hello\n")
    m1 = tmp_path / "m1.json"
    m2 = tmp_path / "m2.json"
    cfg = {"seed": 3, "epochs": 5, "lr": 0.01}
    write_run_manifest(m1, "train", cfg, [inp], [tmp_path / "model.json"], seed=3)
    write_run_manifest(m2, "train", cfg, [inp], [tmp_path / "model.json"], seed=3)
    assert m1.read_bytes() == m2.read_bytes()  # no timestamps, stable layout
    payload = json.loads(m1.read_text())
    assert payload["kind"] == "run-manifest"
    assert payload["format_version"] == FORMAT_VERSION
    assert payload["stage"] == "train"
    assert payload["config_sha256"] == config_hash(cfg)
    assert list(payload["inputs"].values())[0] == (
        "5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03")
    assert payload["seed"] == 3
    assert "botdet" in payload["versions"]
    text = m1.read_text()
    assert "time" not in text.lower() or "runtime" in text.lower()


def test_config_hash_is_order_insensitive():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
