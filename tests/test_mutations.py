"""Randomly mutated snapshots and configs end in exit 0, 2 or 3, never in a
traceback."""

import copy
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from seedsched.cli import main
from seedsched.experiment import parse_config, read_snapshot, run_experiment, write_snapshot

# No "/" or ".": a mutated path stays a plain name inside the test directory.
_names = st.text("ab01-_", max_size=4)
_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.sampled_from([-(2**128), -(2**64), 2**32, 2**64, 2**128, 2**130, 10**400])
    | st.floats(allow_nan=True, allow_infinity=True)
    | _names
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_names, inner, max_size=3),
    max_leaves=5,
)

_EDGES = [
    {"id": 0, "p": 1.0},
    {"id": 1, "prereqs": [0], "p": 0.5, "time_range": [0.5, 2.0], "size_range": [1, 9]},
    {"id": 2, "prereqs": [0, 1], "p": 0.3},
]
_CONFIGS = {
    "arms": {
        "environment": {"arms": [0.4, 0.9]},
        "schedulers": ["sample", "round-robin"],
    },
    "edges": {
        "environment": {"edges": _EDGES},
        "schedulers": ["rare-plus", "greedy", "uniform"],
        "interesting_policy": "new-bucket",
    },
}


def _config(kind, out_dir):
    return {
        **copy.deepcopy(_CONFIGS[kind]),
        "trials": 2,
        "steps": 12,
        "base_seed": 5,
        "sampling_interval": 4,
        "output_dir": str(out_dir),
    }


def _paths(node, path=()):
    """Every node of a JSON document, as the keys that lead to it."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(data, doc):
    """Replace, nudge, delete or add one node of ``doc``; returns the new doc."""
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    if not path:
        return data.draw(_values, label="document")
    *parents, key = path
    node = doc
    for p in parents:
        node = node[p]
    ops = ["replace", "delete", "add"]
    if type(node[key]) is int:
        ops.append("nudge")
    op = data.draw(st.sampled_from(ops), label="op")
    if op == "replace":
        node[key] = data.draw(_values, label="value")
    elif op == "nudge":
        node[key] += data.draw(st.sampled_from([-1, 1, -(2**128), 2**128]), label="by")
    elif op == "delete":
        del node[key]
    elif isinstance(node, dict):
        node[data.draw(_names, label="key")] = data.draw(_values, label="value")
    else:
        node.append(data.draw(_values, label="value"))
    return doc


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """A valid snapshot payload of each environment kind."""
    payloads = {}
    for kind in _CONFIGS:
        out = tmp_path_factory.mktemp(kind)
        result = run_experiment(parse_config(_config(kind, out)), snapshot_at=5)
        payloads[kind] = read_snapshot(result.snapshot_path)
    return payloads


_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_SETTINGS
@given(kind=st.sampled_from(sorted(_CONFIGS)), data=st.data())
def test_a_mutated_snapshot_resumes_or_exits_2_or_3(
    tmp_path, monkeypatch, capsys, snapshots, kind, data
):
    monkeypatch.chdir(tmp_path)  # a mutated output_dir is relative to here
    payload = copy.deepcopy(snapshots[kind])
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        payload = _mutate(data, payload)
    assume(not (isinstance(payload, dict) and _long_run(payload.get("config"))))
    path = tmp_path / "snapshot.json"
    write_snapshot(path, payload)  # the checksum matches the mutated payload
    assert main(["resume", "--snapshot", str(path)]) in (0, 2, 3)
    capsys.readouterr()


def _long_run(config):
    # a valid config may ask for a long run; that is not bad input
    return isinstance(config, dict) and any(
        type(config.get(key)) is int and config[key] > 40 for key in ("steps", "trials")
    )


@_SETTINGS
@given(kind=st.sampled_from(sorted(_CONFIGS)), data=st.data())
def test_a_mutated_config_runs_or_exits_2_or_3(tmp_path, monkeypatch, capsys, kind, data):
    monkeypatch.chdir(tmp_path)
    config = _config(kind, tmp_path / "out")
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        config = _mutate(data, config)
    assume(not _long_run(config))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path), "--snapshot-at", "5"]) in (0, 2, 3)
    capsys.readouterr()
