"""Flags and ``--config`` keys resolve through one cast-and-check path.

For every option of every subcommand, ``--name=TEXT`` and a config file
holding ``{"name": "TEXT"}`` must resolve to the same value, or both must
be usage errors (exit 1).
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from botdet.cli import _finalize, build_parser
from botdet.errors import UsageError

SUBCOMMANDS = ("preprocess", "train", "score", "fitpdf", "detect", "evaluate",
               "sweep", "stream")
SPECS = {cmd: build_parser().parse_args([cmd])._spec for cmd in SUBCOMMANDS}
_TRAIN_HYPER = ["arch", "epochs", "batch_size", "lr", "anneal_steps", "beta_max", "seed",
                "grad_clip", "hidden", "latent", "mlp_hidden"]
# Every subcommand's options in declaration order: adding or removing a
# knob takes an edit here.
OPTION_NAMES = {
    "preprocess": ["manifest", "train_scenarios", "test_scenarios", "out_dir",
                   "window_seconds", "n_windows", "l_max", "log1p", "strict"],
    "train": ["features", "model_out", "kfold", *_TRAIN_HYPER],
    "score": ["model", "features", "scores_out"],
    "fitpdf": ["scores", "detector_out", "bins", "min_samples", "tie_rule"],
    "detect": ["scores", "detector", "decisions_out"],
    "evaluate": ["scores", "decisions", "report_out", "model", "exclude_background"],
    "sweep": ["manifest", "train_scenarios", "test_scenarios", "durations", "out_dir",
              "exclude_background", "n_windows", "l_max", "log1p", "strict",
              *_TRAIN_HYPER, "bins", "min_samples", "tie_rule"],
    "stream": ["model", "detector", "input", "strict"],
}
OPTIONS = [(cmd, name) for cmd, spec in SPECS.items() for name in spec]
BOOL_OPTIONS = [(cmd, name) for cmd, name in OPTIONS
                if isinstance(SPECS[cmd][name].default, bool)]
VALUE_OPTIONS = [case for case in OPTIONS if case not in BOOL_OPTIONS]

TEXT = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["", " 7 ", "1,2", "3,,4", "0.5,x", "2.0", "true", "false",
                     "rvae", "mlp", "malicious", "benign", "bogus"]),
    st.text(max_size=12),
)
SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def test_each_subcommand_has_exactly_the_listed_options():
    assert {cmd: list(spec) for cmd, spec in SPECS.items()} == OPTION_NAMES


def flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def resolve(cmd, name, flags, config, workdir):
    """What main() resolves before running ``cmd``: every option's value, or 1."""
    argv = [cmd, *flags]
    for other, opt in SPECS[cmd].items():  # every other required option is valid
        if opt.required and other != name:
            argv.append(f"{flag(other)}=1")
    if config is not None:
        path = workdir / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    try:
        args = _finalize(build_parser().parse_args(argv))
    except UsageError:
        return 1
    return {k: getattr(args, k) for k in SPECS[cmd]}


@SETTINGS
@given(case=st.sampled_from(VALUE_OPTIONS), text=TEXT)
def test_flag_and_config_text_resolve_alike(case, text, tmp_path):
    cmd, name = case
    assert (resolve(cmd, name, [f"{flag(name)}={text}"], None, tmp_path)
            == resolve(cmd, name, [], {name: text}, tmp_path))


@SETTINGS
@given(case=st.sampled_from(VALUE_OPTIONS), number=st.integers(-10**6, 10**6))
def test_config_numbers_resolve_like_their_flag_text(case, number, tmp_path):
    cmd, name = case
    from_flag = resolve(cmd, name, [f"{flag(name)}={number}"], None, tmp_path)
    if from_flag != 1 and isinstance(from_flag[name], (int, float)):
        assert resolve(cmd, name, [], {name: number}, tmp_path) == from_flag


@SETTINGS
@given(case=st.sampled_from(BOOL_OPTIONS), value=st.booleans())
def test_bool_flag_and_config_resolve_alike(case, value, tmp_path):
    cmd, name = case
    switch = flag(name) if value else "--no-" + flag(name)[2:]
    from_flag = resolve(cmd, name, [switch], None, tmp_path)
    assert from_flag[name] is value
    assert from_flag == resolve(cmd, name, [], {name: value}, tmp_path)


@SETTINGS
@given(case=st.sampled_from(BOOL_OPTIONS),
       value=st.one_of(st.text(max_size=8), st.integers(), st.floats(),
                       st.lists(st.booleans(), max_size=2)))
def test_bool_config_takes_only_json_booleans(case, value, tmp_path):
    cmd, name = case
    assert resolve(cmd, name, [], {name: value}, tmp_path) == 1


@pytest.mark.parametrize("value,folds", [(0, 0), (2, 2), (5, 5), ("3", 3),
                                         (1, None), (-3, None), (-1, None)])
def test_kfold_is_off_or_at_least_two_folds(value, folds, tmp_path):
    """0 turns k-fold off; 1 or a negative count is a usage error, not ignored."""
    for flags, config in (([f"--kfold={value}"], None), ([], {"kfold": value})):
        got = resolve("train", "kfold", flags, config, tmp_path)
        assert got == 1 if folds is None else got["kfold"] == folds


@pytest.mark.parametrize("cmd,name,value,want", [
    ("fitpdf", "min_samples", 0, None), ("fitpdf", "min_samples", -3, None),
    ("sweep", "min_samples", 0, None), ("fitpdf", "min_samples", 1, 1),
    ("train", "lr", -0.01, None), ("train", "lr", 0, None), ("sweep", "lr", "-1e-3", None),
    ("train", "lr", "1e-3", 0.001),
    ("train", "grad_clip", -5, None), ("train", "grad_clip", 0, None),
    ("sweep", "grad_clip", "0.0", None), ("train", "grad_clip", 0.5, 0.5),
    ("train", "beta_max", -0.5, None), ("sweep", "beta_max", "-1", None),
    ("train", "beta_max", 0, 0.0),
])
def test_training_and_density_values_that_cannot_work_are_usage_errors(cmd, name, value,
                                                                       want, tmp_path):
    """min_samples >= 1 (what a detector file needs), lr and grad_clip > 0, beta_max >= 0."""
    for flags, config in (([f"{flag(name)}={value}"], None), ([], {name: value})):
        got = resolve(cmd, name, flags, config, tmp_path)
        assert got == 1 if want is None else got[name] == want
