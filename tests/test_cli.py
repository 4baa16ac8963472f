"""Command line harness tests, run in-process through main()."""

import json
import math
import re
import tempfile

import pytest

from swarmsim.cli import main
from swarmsim.scenario import load_scenario, to_meta
from swarmsim.trace import HEADER_PREFIX, read_trace


# The scenario files these tests write; test_scenario.py also parses each
# with both YAML loaders.
TINY_YAML = """
name: tiny
platform: turtlebot3_burger
arena: {width: 6.0, height: 6.0}
robots:
  layout: line
  count: 2
  spacing: 1.0
pattern:
  kind: dispersion
  params: {dispersion_range: 1.5}
seed: 7
duration: 1.0
"""
UNKNOWN_PLATFORM_YAML = "name: bad\nplatform: nope\narena: {width: 6.0, height: 6.0}\n"
MALFORMED_YAML = "name: bad\nplatform: [jackal\narena: {width: 6.0, height: 6.0}\n"
# (kind, params as written, their bytes in the trace header)
INT_PARAMETERS = [
    ("voter", "{window_length: 2}", '"window_length":2'),
    ("drive", "{linear: 1}", '"linear":1'),
]


def int_parameters_yaml(kind, params):
    return (
        "platform: turtlebot3_burger\n"
        "arena: {width: 6.0, height: 6.0}\n"
        "robots: {layout: line, count: 2}\n"
        f"pattern: {{kind: {kind}, params: {params}}}\n"
        "duration: 2.0\n"
    )


def read_json(path):
    return json.loads(path.read_text())


def test_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "experiment2", "--seed", "4", "--duration", "2.0", "--out", str(out)])
    assert code == 0
    for name in ("trace.csv", "metrics.json", "series.csv"):
        assert (out / name).exists()
    text = capsys.readouterr().out
    assert "wrote" in text
    assert "ticks: 20" in text


def test_run_accepts_yaml_path(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_YAML)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()


def test_run_default_out_dir_uses_name_and_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "voting-demo", "--seed", "2", "--duration", "1.0"]) == 0
    assert (tmp_path / "runs" / "voting-demo-seed2" / "trace.csv").exists()


def test_replay_matches_fresh_run(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "experiment1-waffle", "--seed", "1", "--duration", "2.0", "--out", str(out)])
    capsys.readouterr()
    code = main(["replay", str(out / "trace.csv"), "--out", str(tmp_path / "replay")])
    assert code == 0
    assert "MATCH" in capsys.readouterr().out


@pytest.mark.parametrize("tamper", ["blank line added", "last newline cut"])
def test_replay_flags_tampered_trace(tmp_path, capsys, tamper):
    out = tmp_path / "out"
    main(["run", "experiment1-waffle", "--seed", "1", "--duration", "2.0", "--out", str(out)])
    trace_path = out / "trace.csv"
    text = trace_path.read_text()
    last = text.splitlines()[-1]
    lineno = text.count("\n")
    if tamper == "blank line added":
        trace_path.write_text(text + "\n")
        difference = f"line {lineno + 1} only in the trace: '\\n'"
    else:
        trace_path.write_text(text[:-1])
        difference = f"line {lineno}: {last!r} in the trace, {last + chr(10)!r} in the replay"
    capsys.readouterr()
    code = main(["replay", str(trace_path), "--out", str(tmp_path / "replay")])
    assert code == 1
    text = capsys.readouterr().out
    assert "MISMATCH" in text
    assert f"first difference: {difference}\n" in text


@pytest.fixture
def replay_tempdir(tmp_path, monkeypatch):
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    return temp


def test_replay_without_out_removes_its_artifacts_on_a_match(tmp_path, capsys, replay_tempdir):
    out = tmp_path / "out"
    main(["run", "experiment1-waffle", "--seed", "1", "--duration", "1.0", "--out", str(out)])
    capsys.readouterr()
    assert main(["replay", str(out / "trace.csv")]) == 0
    text = capsys.readouterr().out
    assert "MATCH" in text
    assert "replay artifacts" not in text
    assert list(replay_tempdir.glob("swarmsim-replay-*")) == []


def test_replay_without_out_keeps_its_artifacts_on_a_mismatch(tmp_path, capsys, replay_tempdir):
    out = tmp_path / "out"
    main(["run", "experiment1-waffle", "--seed", "1", "--duration", "1.0", "--out", str(out)])
    trace_path = out / "trace.csv"
    trace_path.write_bytes(trace_path.read_bytes() + b"\n")
    capsys.readouterr()
    assert main(["replay", str(trace_path)]) == 1
    text = capsys.readouterr().out
    assert "MISMATCH" in text
    (artifacts,) = replay_tempdir.glob("swarmsim-replay-*")
    assert f"replay artifacts in {artifacts}" in text
    assert (artifacts / "trace.csv").exists()


def test_replay_names_first_differing_cell(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "experiment1-waffle", "--seed", "1", "--duration", "1.0", "--out", str(out)])
    trace_path = out / "trace.csv"
    lines = trace_path.read_text().split("\n")
    row = lines[2 + 3 * 7 + 2].split(",")  # tick 4, robot 2
    assert row[:2] == ["4", "2"]
    original_x, row[3] = row[3], "1.25"
    lines[2 + 3 * 7 + 2] = ",".join(row)
    trace_path.write_text("\n".join(lines))
    capsys.readouterr()
    code = main(["replay", str(trace_path), "--out", str(tmp_path / "replay")])
    assert code == 1
    text = capsys.readouterr().out
    assert "MISMATCH" in text
    assert f"tick 4, robot 2, column x: '1.25' in the trace, '{original_x}' in the replay" in text


def test_metrics_recomputes_from_trace_alone(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "experiment2", "--seed", "6", "--duration", "25.0", "--out", str(out)])
    fresh = tmp_path / "fresh"
    capsys.readouterr()
    code = main(["metrics", str(out / "trace.csv"), "--out", str(fresh)])
    assert code == 0
    assert (fresh / "metrics.json").exists()
    assert (fresh / "series.csv").exists()
    text = capsys.readouterr().out
    assert "consensus at t=" in text
    assert (fresh / "metrics.json").read_text() == (out / "metrics.json").read_text()


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit):
        main([])


def test_run_on_unknown_platform_prints_one_error_line(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(UNKNOWN_PLATFORM_YAML)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nope" in err
    assert not (tmp_path / "out").exists()


def test_run_on_malformed_yaml_prints_one_error_line(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(MALFORMED_YAML)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}, line 3, column 6: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_run_with_a_duration_between_two_ticks_prints_one_error_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "experiment2", "--duration", "0.15", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: duration: 0.15 is not a whole number of steps of dt: 0.1\n"
    assert not out.exists()


def test_replay_of_a_truncated_trace_prints_one_error_line(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "experiment1-waffle", "--seed", "1", "--duration", "0.5", "--out", str(out)])
    trace_path = out / "trace.csv"
    lines = trace_path.read_text().splitlines()
    lines[-1] = ",".join(lines[-1].split(",")[:3])
    trace_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(trace_path), "--out", str(tmp_path / "replay")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {trace_path}, line {len(lines)}: 3 fields, expected 12\n"


# Every key to_meta writes, by its path in the header.
_META = to_meta(load_scenario("experiment1-waffle"))
HEADER_KEYS = [*_META, *(f"scenario.{key}" for key in _META["scenario"])]


@pytest.fixture(scope="module")
def waffle_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("waffle")
    assert main(["run", "experiment1-waffle", "--duration", "2.0", "--out", str(out)]) == 0
    return out / "trace.csv"


@pytest.mark.parametrize("key", HEADER_KEYS)
def test_metrics_and_replay_name_a_missing_header_key(tmp_path, capsys, waffle_trace, key):
    header, rows = waffle_trace.read_text().split("\n", 1)
    meta = json.loads(header[len(HEADER_PREFIX):])
    parent, _, name = key.rpartition(".")
    del (meta[parent] if parent else meta)[name]
    path = tmp_path / "trace.csv"
    path.write_text(HEADER_PREFIX + json.dumps(meta) + "\n" + rows)
    capsys.readouterr()
    error = f"error: trace header has no {key}\n"

    code = main(["metrics", str(path), "--out", str(tmp_path / "metrics")])
    if code != 0:
        assert (code, capsys.readouterr().err) == (2, error)
        assert not (tmp_path / "metrics").exists()

    code = main(["replay", str(path), "--out", str(tmp_path / "replay")])
    out, err = capsys.readouterr()
    if code == 1:
        assert "MISMATCH" in out and "first difference: header differs" in out
    else:
        assert (code, err) == (2, error)


def _with_header_value(trace_path, path, key, value):
    """trace_path's trace, written to path with scenario[key] set to value."""
    header, rows = trace_path.read_text().split("\n", 1)
    meta = json.loads(header[len(HEADER_PREFIX):])
    meta["scenario"][key] = value
    path.write_text(HEADER_PREFIX + json.dumps(meta) + "\n" + rows)
    return path


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("robot_ids", None, "scenario.robot_ids: None is not list[int]"),
        ("robot_ids", [0, 1, 2, 3, 4, 5, True], "scenario.robot_ids: True is not a number"),
        ("radii", None, "scenario.radii: None is not list[float]"),
        ("radii", [0.15], "scenario.radii has 1 radii for 7 robot_ids"),
        ("radii", [0.15] * 6 + ["0.15"], "scenario.radii: '0.15' is not a number"),
        ("radii", [0.15] * 6 + [math.nan], "scenario.radii: nan is not a finite number"),
        ("walls", "x", "scenario.walls: 'x' is not list[tuple[float, float, float, float]]"),
        ("walls", [[0, 0, 1]], "scenario.walls: [0, 0, 1] is not tuple[float, float, float, float]"),
        ("dt", None, "scenario.dt: None is not a number"),
        ("dt", "0.1", "scenario.dt: '0.1' is not a number"),
        ("dt", 0, "scenario.dt: 0 is not > 0"),
        ("poses", None, "scenario.poses: None is not list[tuple[float, float, float]]"),
        ("pattern_params", [1], "scenario.pattern_params: [1] is not a mapping"),
        (
            "pattern_params",
            {"window_length": 1e-4},
            "scenario.pattern_params.window_length: 0.0001 is not a whole number,"
            " at least 1, of steps of dt: 0.1",
        ),
        (
            "pattern_params",
            {"window_length": 0.15},
            "scenario.pattern_params.window_length: 0.15 is not a whole number,"
            " at least 1, of steps of dt: 0.1",
        ),
        ("poses", [[0.0, 0.0, 0.0]], "scenario.poses has 1 poses for 7 robot_ids"),
        ("initial_opinions", "abc", "scenario.initial_opinions: 'abc' is not list[int]"),
    ],
)
def test_metrics_names_a_wrongly_typed_header_value(
    tmp_path, capsys, waffle_trace, key, value, message
):
    """A header value of the wrong type or length stops metrics with one
    error line naming its key path, before any file is written."""
    path = _with_header_value(waffle_trace, tmp_path / "trace.csv", key, value)
    capsys.readouterr()
    code = main(["metrics", str(path), "--out", str(tmp_path / "metrics")])
    assert (code, capsys.readouterr().err) == (2, f"error: trace header {message}\n")
    assert not (tmp_path / "metrics").exists()


@pytest.fixture(scope="module")
def voting_trace(tmp_path_factory):
    """A discussed-dispersion trace that reaches consensus, at 2.1 s."""
    out = tmp_path_factory.mktemp("voting")
    args = ["run", "experiment2", "--seed", "1", "--duration", "3", "--out", str(out)]
    assert main(args) == 0
    return out / "trace.csv"


@pytest.mark.parametrize(
    "command, key, value",
    [
        pytest.param(command, key, value, id=f"{command}-{key}={json.dumps(value)}")
        for command in ("metrics", "replay")
        for key in _META["scenario"]
        for value in [None, "x", 1, [], {}, [1, 2, 3]]
    ],
)
def test_metrics_and_replay_end_cleanly_on_any_header_value(
    tmp_path, capsys, voting_trace, command, key, value
):
    """Whatever a header key holds, metrics and replay exit 0, report a
    MISMATCH, or print one error line; none raises."""
    path = _with_header_value(voting_trace, tmp_path / "trace.csv", key, value)
    capsys.readouterr()
    code = main([command, str(path), "--out", str(tmp_path / command)])
    out, err = capsys.readouterr()
    if code == 1:
        assert "MISMATCH" in out and "\nfirst difference: " in out
    elif code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code == 0


@pytest.mark.parametrize(
    "command, key, value, message",
    [
        (
            "metrics",
            "pattern_params",
            {"decision_duration": 20.0, "mapping": {"1": 1.0, "2": 1.4}, "window_length": 1.0},
            "scenario.pattern_params.mapping has no range for the agreed opinion 0",
        ),
        ("replay", "arena", [1, 2, 3], "scenario.arena: [1, 2, 3] is not tuple[float, float]"),
        (
            "replay",
            "pattern_params",
            {"decision_duration": 20.0, "mapping": [1], "window_length": 1.0},
            "scenario.pattern_params.mapping: [1] is not a mapping",
        ),
        ("replay", "platform_spec", "x", "scenario.platform_spec: 'x' is not a mapping"),
    ],
)
def test_metrics_and_replay_name_a_header_value_they_cannot_read(
    tmp_path, capsys, voting_trace, command, key, value, message
):
    """A header value that the summary or replay reshapes, of the wrong
    shape, stops either command with one error line naming its key path."""
    path = _with_header_value(voting_trace, tmp_path / "trace.csv", key, value)
    capsys.readouterr()
    code = main([command, str(path), "--out", str(tmp_path / command)])
    assert (code, capsys.readouterr().err) == (2, f"error: trace header {message}\n")
    assert not (tmp_path / command).exists()


def _summary(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("wrote ")]


@pytest.mark.parametrize(
    "scenario, duration",
    [("experiment1-waffle", "3.0"), ("experiment2", "25")],
)
def test_metrics_prints_the_summary_run_printed(tmp_path, capsys, scenario, duration):
    out = tmp_path / "out"
    main(["run", scenario, "--seed", "0", "--duration", duration, "--out", str(out)])
    ran = _summary(capsys.readouterr().out)
    assert main(["metrics", str(out / "trace.csv"), "--out", str(tmp_path / "again")]) == 0
    assert _summary(capsys.readouterr().out) == ran


def test_run_prints_the_spread_from_start_to_end(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "experiment1-waffle", "--seed", "0", "--duration", "3.0", "--out", str(out)])
    text = capsys.readouterr().out
    report = read_json(out / "metrics.json")
    final = report["final_mean_distance_to_centroid"]
    # seven robots 1 m apart on a line: mean distance to centroid 12/7 m
    initial = 12 / 7
    assert (
        f"mean distance to centroid: {initial:.4f} -> {final:.4f} (ratio {final / initial:.3f})"
        in text
    )
    clearance = min(report["min_clearance_per_robot"])
    assert f"min clearance: {clearance:.4f}" in text.splitlines()
    assert "opinion" not in text


def test_run_prints_the_agreed_opinion_and_its_range(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "experiment2", "--seed", "0", "--duration", "25", "--out", str(out)])
    text = capsys.readouterr().out
    trace = read_trace(out / "trace.csv")
    header = trace.meta["scenario"]
    assert f"initial opinions: {header['initial_opinions']}" in text.splitlines()
    consensus = read_json(out / "metrics.json")["consensus_time"]
    (agreed,) = set(trace.opinion[trace.clock == consensus].astype(int).tolist())
    assert (
        f"consensus at t={consensus:.1f}s on opinion {agreed}, "
        f"dispersion range {header['pattern_params']['mapping'][str(agreed)]} m"
    ) in text.splitlines()


@pytest.mark.parametrize("kind, params, written", INT_PARAMETERS)
def test_int_parameters_keep_their_header_bytes_and_replay(tmp_path, capsys, kind, params, written):
    # Headers record a parameter as written; an int read back as a float
    # would write 2.0 and no earlier trace would replay.
    path = tmp_path / "ints.yaml"
    path.write_text(int_parameters_yaml(kind, params))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    header = (out / "trace.csv").read_text().split("\n", 1)[0]
    assert re.search(re.escape(written) + "[,}]", header)
    capsys.readouterr()
    assert main(["replay", str(out / "trace.csv"), "--out", str(tmp_path / "replay")]) == 0
    assert "MATCH" in capsys.readouterr().out
