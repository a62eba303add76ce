"""Trial and summary CSVs pinned byte for byte.

Each run is ``simulate --snapshot-at`` followed by ``resume``, at one and
at two worker processes, over all six schedulers.  The sha256 of every
trial CSV (full and resumed) and of the summary CSV must equal the value
pinned here; the snapshot file is left out, so its layout may change
while the outputs stay the same.  A change that moves any pinned hash
changes what a seeded run writes.
"""

import hashlib
import json

import numpy as np
import pytest

from seedsched.cli import main

SCHEDULERS = ["rare-minus", "rare-plus", "sample", "greedy", "uniform", "round-robin"]


def _seeded_dag(n_edges: int, seed: int) -> list[dict]:
    """A DAG of ``n_edges`` edges: three roots, then each edge depends on
    one or two earlier edges."""
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n_edges):
        prereqs = []
        if i >= 3:
            n_prereqs = rng.integers(1, 3)
            prereqs = sorted({int(rng.integers(0, i)) for _ in range(n_prereqs)})
        edges.append({"id": i, "prereqs": prereqs, "p": round(float(rng.uniform(0.02, 0.3)), 4)})
    return edges


ENVIRONMENTS = {
    "arms": {"environment": {"arms": [0.7, 0.8, 0.9]}, "steps": 400},
    "chain20": {
        "environment": {
            "edges": [{"id": i, "prereqs": [i - 1] if i else [], "p": 0.05} for i in range(20)]
        },
        "steps": 400,
        "interesting_policy": "new-bucket",
    },
    "dag": {"environment": {"edges": _seeded_dag(40, 7001)}, "steps": 300},
}

SNAPSHOT_AT = 150


def _csv_digests(tmp_path, env: str, jobs: int) -> dict[str, str]:
    out = tmp_path / f"{env}-jobs{jobs}"
    cfg = {
        "schedulers": SCHEDULERS,
        "trials": 2,
        "base_seed": 4001,
        "output_dir": str(out),
        "sampling_interval": 25,
        **ENVIRONMENTS[env],
    }
    path = tmp_path / f"{env}-jobs{jobs}.json"
    path.write_text(json.dumps(cfg))
    jobs_arg = ["--jobs", str(jobs)]
    snapshot_arg = ["--snapshot-at", str(SNAPSHOT_AT)]
    assert main(["simulate", "--config", str(path), *snapshot_arg, *jobs_arg]) == 0
    snapshot = out / f"snapshot-step{SNAPSHOT_AT}.json"
    assert main(["resume", "--snapshot", str(snapshot), *jobs_arg]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))
    }


GOLDEN = {
    "arms": {
        "greedy-trial0000-resumed.csv": "c83316158bdf65ee5a075bc0f17cd27e51496a17806f8d8d1fb4a06058b16856",
        "greedy-trial0000.csv": "a7dfcd1f77b3a097cd1352d7e20f5ef9a10a0eac527b4fda5130b50bc4e6ab65",
        "greedy-trial0001-resumed.csv": "a0c97cf019ad60c0e9488ae2aed0d38425e52853247c6a296b6d9656a39ce4e2",
        "greedy-trial0001.csv": "d0116a567bcb2dc221dad2f0207c4098bdced749f47828d379d75c09734ae04d",
        "rare-minus-trial0000-resumed.csv": "862e5d7244ef9818317d015049f915495b3eb9f990c877da10d0c6651bab827c",
        "rare-minus-trial0000.csv": "848063e1a2ee207edb667a57e19f4e57672703d435a1a0a0b424847ffe1b563c",
        "rare-minus-trial0001-resumed.csv": "f3f9ecafc14bc1eb8d753e94b941435d713bf526b8793d4ef09ae244df2542b4",
        "rare-minus-trial0001.csv": "fa80f18be940a035639a72c16a7a4e84dffe9634df3120b826a8937c1870ba2a",
        "rare-plus-trial0000-resumed.csv": "e4433f8fec2558a6a08be71faef07d84c095ff95254b22060760e0c930a7aeff",
        "rare-plus-trial0000.csv": "ab5505cb50eab301457713861435b98250723c139d17947028aa1522fb0e9e29",
        "rare-plus-trial0001-resumed.csv": "705724f636022f4cd0cddff998a9b30f1e3f01e88a3d72a74525cef39aa2b696",
        "rare-plus-trial0001.csv": "67bf7f6e3cfd89e67ae9f50722fe54abbf4a6511b406e8ae7029c6eb34e46495",
        "round-robin-trial0000-resumed.csv": "c014357e6827d63c8b7aa4b14a60df2d25ac5659ca73c211ef5f929b8e4366a8",
        "round-robin-trial0000.csv": "e48117a4863e14d5cff125e74dee122de2e45f8bf15e6769a06bf120ac22e98b",
        "round-robin-trial0001-resumed.csv": "a0a55633d12de1fb4902d1dcf1a960b04f652280a58f4eca57f9a06f2674b6b4",
        "round-robin-trial0001.csv": "29a1ee2241b49a1d558d45577bcfdd56f1d7013f278bb74428227dc180c1add7",
        "sample-trial0000-resumed.csv": "fe4855699b8ec46d80fa989def39b3fc9a0d31dde07c4de535a82772d65c7eef",
        "sample-trial0000.csv": "d266ebb8031e2bcd91d55040eed4168fe9e9c3250dec47d71fd3f8801133cd2e",
        "sample-trial0001-resumed.csv": "74188504309068bcaf14dc26a4e8656f0703a903de45bfc57f4760cf517b5f35",
        "sample-trial0001.csv": "e103bdf7b6b6f793a4d98f9eb0dce78adb00ebc47f6f819e21b962e71f7e6115",
        "summary.csv": "c4f4ddc00021bffe1b995e707d2abe942729f3d4502d474224314f29baba6ea7",
        "uniform-trial0000-resumed.csv": "f715125bde5e3d5e5c1152053768d82c529144aae97b0d294b8fac76455f9a8b",
        "uniform-trial0000.csv": "d3a24978e40af3d131289a3ee8a2a5ae1233c33f25c385c642596ceffac4ac34",
        "uniform-trial0001-resumed.csv": "5126495dd289b2a74217da382454ef60214482c4e5f528a14a266c469c449411",
        "uniform-trial0001.csv": "540df3a62fcbaf736788c95414b000a61812d206349f2c6b94202564aaa07cdc",
    },
    "chain20": {
        "greedy-trial0000-resumed.csv": "7315fa12d5764671b4e1b9c08a918db74f52f60591c33d7f190ab128b1b274ee",
        "greedy-trial0000.csv": "52d134bd87ad6268376e6b56a54c4cd7d772424d0274d5737ab4537aecc8a5d0",
        "greedy-trial0001-resumed.csv": "86c1e64392ca381417e596463a693d99f7198a62ada3b203db635f20942000ca",
        "greedy-trial0001.csv": "7ffa9d2ee109e4dc71392132a5a66654b8af3b04b338973df023734753d4454d",
        "rare-minus-trial0000-resumed.csv": "79507330aac333f1d3bf94207723ecf85824692142aa0f2e2945e4148d99c6c7",
        "rare-minus-trial0000.csv": "0c91f6a5eaa02d6ad45498582735c199f9aa693cc05d6f511afc0783d1b2c76b",
        "rare-minus-trial0001-resumed.csv": "484a5709c4791fe8ed2e0fd9394706b45cc21b7dcbd31b63663a880c6e11a1b3",
        "rare-minus-trial0001.csv": "6dc9c917efbf4b72540f940645ec9e2f96353f49be30873ccf98e2a8be522039",
        "rare-plus-trial0000-resumed.csv": "40bd9703999c860149d826d89a481dd9cbd5b7c066f25a2ef93a4542821e97b9",
        "rare-plus-trial0000.csv": "3fe382063fc6af0d7e1389062e61d6f53b86f98f3682a23d1ec3f4e3cf1dd66c",
        "rare-plus-trial0001-resumed.csv": "9c5b89bbe60ae72c08a416f6dd27223656031dc64d16c3e6aa0480511926caa2",
        "rare-plus-trial0001.csv": "d0603a3b1b61b19780cbcfdfcbfb57877fdcc0a28564e44a7a6c148387e28fa6",
        "round-robin-trial0000-resumed.csv": "fd7bdbd6a8526df096ad042541a1bff14cca69217d430b987716cdd10b2cfd92",
        "round-robin-trial0000.csv": "16ee844b9c49c13c5723f3a64acb73534020e808b1e38701103854d74494af7e",
        "round-robin-trial0001-resumed.csv": "978d609f9eeea3e48f96d130976ef924cc0070fe5ba01eabffad90e898524fad",
        "round-robin-trial0001.csv": "28a275dab865a02caf27e478c01421618adc935242ca822c00b4371d1085d7f9",
        "sample-trial0000-resumed.csv": "00dd33dc7b2b3c84b97243af4c3f06a479507cd741486979b6a975472f4dd3c8",
        "sample-trial0000.csv": "f9ee9ed65eb1742a0e2212300d13d05335cd336ef9b2ffe7ff5aa52ad01b08d5",
        "sample-trial0001-resumed.csv": "9c919eafa67de8f387da40d3f68fb097a82ef01981f9504b21bf7095e34560ef",
        "sample-trial0001.csv": "c0172382c24f9d82cd615dcbd1db24eeae4a177f95490bb0ff2fe55e8342aecf",
        "summary.csv": "787ec6d274babbe3d8536a91d04b2947a4deca1964bc1e6a16b72ed40cdbca7f",
        "uniform-trial0000-resumed.csv": "1f9d0d4d383d295c21a0097f53194d80420ea4c30a839dbb478f79de13c3029c",
        "uniform-trial0000.csv": "73f2bf6368139d7f6fb4e4e5d92e75e2af0a3936151e1de86168f8ce141b7817",
        "uniform-trial0001-resumed.csv": "1bfed964d9a50c4811b6b37289f165e5b3e2ac3d51277b5f02527db92d2837f0",
        "uniform-trial0001.csv": "98776642a131d65f8f822871a8842fc08a642d5b1591ec389043bbdddfd0bb76",
    },
    "dag": {
        "greedy-trial0000-resumed.csv": "45663da5ce2c5672f8612ea5717f9c7c9bb5bf60ca805f801590c5db784bdb9a",
        "greedy-trial0000.csv": "a8b202740a55722c018f71f7698507d360c7bdfcf24ddfe40534a792db5d2788",
        "greedy-trial0001-resumed.csv": "ab2022ad66fc7d38ea7bd54927c3fede98e9908bd21fe7ed25e7eb75906c3ade",
        "greedy-trial0001.csv": "febe3ffcb8bb7b519c202210dd96736dd9b1b391bfa18871762026274505e661",
        "rare-minus-trial0000-resumed.csv": "0cd91b4acff3c85f1fc69596b63ffc60128692b98cd9bf2a56950c4b9e054b19",
        "rare-minus-trial0000.csv": "973de2f97e52734e559f4cb6360731aa2830189559295705e376844377cb697c",
        "rare-minus-trial0001-resumed.csv": "7a57bee55295fe54264c6ef734dfaa9a834e766e1bd736089932e332184f8abf",
        "rare-minus-trial0001.csv": "141d6c3a18682a083a713172f3837ff4f05646a58c9274ff3e9318deba1f894f",
        "rare-plus-trial0000-resumed.csv": "c2f02bc23070cb1cb1bde27101a7fb14f4e6022a03e27c4724272b3ebb294902",
        "rare-plus-trial0000.csv": "23e9e0cf6d58df91a2e96014dc9930816d24df942163a1efcc3bb6bea729cb03",
        "rare-plus-trial0001-resumed.csv": "e0d5cd251fd98191fc9cf8f69d909edbcff4cc83577ae495e4f3c3cfd2b36e75",
        "rare-plus-trial0001.csv": "5ca64efbe5b4d2e5cc6c4b58e38fbc71acbc3bab739689ed51d789a96786854a",
        "round-robin-trial0000-resumed.csv": "fbb55646bfaa6ac43f9df2bb0e729ef695fc850f7a5d19d6adf687a973699948",
        "round-robin-trial0000.csv": "f06cb44734acd981217f7cb7986ee25fe14057648180991418298eef048e2380",
        "round-robin-trial0001-resumed.csv": "09f82ff7d91bb86411c00225b56c1b80ea4538c255b5292fd447c74826c4f97b",
        "round-robin-trial0001.csv": "41818dc816d6d2eaf7def7e76c80ad49304d4896baa821495324c255224b51c6",
        "sample-trial0000-resumed.csv": "10b3fa91b9a8e404d000f38c4da40a3677f331d792e44380aa953d3ca9692b66",
        "sample-trial0000.csv": "2952971cd7bf53e26cc212accc7ed4bcb65b50a90fec9affc74081352876b5b3",
        "sample-trial0001-resumed.csv": "df823277ac7dce5140ccbbf9f09a7fe42b3c9b74436ae843413898b1b66f3900",
        "sample-trial0001.csv": "3486f1da681fbc1798b25bb2b2ad4a9723a34acdd3efe346553cf980f317191e",
        "summary.csv": "f1aaf4fc36b5115007e29affd7fe0c5083c5ad877e96364136b43c3bc6f08e91",
        "uniform-trial0000-resumed.csv": "564370e1f97e3d49d229b9b956aa70359196d1225a056ac819205a24ff96f655",
        "uniform-trial0000.csv": "5afe400953ab41c7df0346cb95ba3bb804279f7547a36cf43e5615f444846dfe",
        "uniform-trial0001-resumed.csv": "cc579ab56f183a1e0848fe2b5d50e90faa05eb7bea738691643549d3adbcfbca",
        "uniform-trial0001.csv": "5636921ddc6b684dc2cf999767a60760649f6485892cd9c10c359f51b425a544",
    },
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("env", sorted(ENVIRONMENTS))
def test_csvs_match_the_pinned_hashes(tmp_path, capsys, env, jobs):
    digests = _csv_digests(tmp_path, env, jobs)
    capsys.readouterr()
    assert len(digests) == 2 * 2 * len(SCHEDULERS) + 1
    assert digests == GOLDEN[env]
