import json

from workloads import TREE_EDGES, TREE_P_RANGE, TREE_ROOTS, WORKLOADS, write_inputs


def _written(tmp_path, name, seed, sub):
    config = write_inputs(WORKLOADS[name], seed, tmp_path / sub)
    return {p.name: p.read_bytes() for p in config.parent.iterdir()}


def test_same_seed_gives_identical_files(tmp_path):
    for name in WORKLOADS:
        assert _written(tmp_path, name, 7, f"{name}-a") == _written(tmp_path, name, 7, f"{name}-b")


def test_tree_depends_on_seed(tmp_path):
    a = _written(tmp_path, "tree-2k", 1, "a")["target.json"]
    b = _written(tmp_path, "tree-2k", 2, "b")["target.json"]
    assert a != b


def test_tree_target_shape_and_validity(tmp_path, seedsched):
    config = write_inputs(WORKLOADS["tree-2k"], 5, tmp_path)
    edges = json.loads((tmp_path / "target.json").read_text())
    assert [e["id"] for e in edges] == list(range(TREE_EDGES))
    lo, hi = TREE_P_RANGE
    for e in edges:
        assert lo <= e["p"] <= hi
        if e["id"] < TREE_ROOTS:
            assert e["prereqs"] == []
        else:
            assert len(e["prereqs"]) == 1 and 0 <= e["prereqs"][0] < e["id"]
    target = seedsched.load_target(tmp_path / "target.json")
    assert target.k_size == TREE_EDGES and len(target.roots) == TREE_ROOTS
    assert seedsched.load_config(config).target == target


def test_chain_target_is_the_library_chain(tmp_path, seedsched):
    config = seedsched.load_config(write_inputs(WORKLOADS["chain20-resume"], 3, tmp_path))
    assert config.target == seedsched.CfgTarget.chain(20, 0.05)
    assert config.interesting_policy == "new-bucket"


def test_arms_config(tmp_path, seedsched):
    config = seedsched.load_config(write_inputs(WORKLOADS["arms-k3"], 11, tmp_path))
    assert config.arms == (0.7, 0.8, 0.9)
    assert config.base_seed == 11
    assert len(config.schedulers) == 6
