"""Pinned sha256 of the criterion-5 training artifacts, per algorithm.

Byte-identical artifacts are the behaviour spec: a refactor that claims
to keep behaviour must reproduce these digests bit for bit. A change
that alters numerics on purpose updates them here and says so in
CHANGES.md. The digests were the same across processes and at 1 and 2
OpenBLAS threads.
"""

import hashlib

import pytest

from quadrl.config import parse_config
from quadrl.train import train
from test_acceptance import _ARTIFACTS, _TINY_BUDGET

PINNED = {
    "ddpg": {
        "metrics.csv":
            "9bf96eb89f7d3457ec90f579099ff7ffad37dbcfec8f43560693b6ba665c23f6",
        "checkpoint.json":
            "da5ec9658b1f906335211a8260530db6a29ecddc8e679ad05b916042da63c49a",
        "checkpoint_best.json":
            "e7f6b23e9f0c912b03e808ad712cbd3567fbd48ed0a7ba84bcb6366a6f0add2b",
    },
    "td3": {
        "metrics.csv":
            "0ecbf778e7dde52fd59a9b44c1a37dc9f6d68be209cd5da17054c5c50a77d049",
        "checkpoint.json":
            "55ba50fdac1c863464924f2bff5ec262a7f7fb163d7c67b49d0913d963c6ce9e",
        "checkpoint_best.json":
            "82a97e1995900a690a9fadb6e046546eb367f748bab5655c4c04457cea910298",
    },
    "cem_ddpg": {
        "metrics.csv":
            "89f215c1e5ba888cf681795c87cb78cf3e7829f77f355ac18390c6284e5580d7",
        "checkpoint.json":
            "995b995f743f9a5f0607acb6b01fb9716acf9559d173c27651e5e989443d5d18",
        "checkpoint_best.json":
            "0047308e81000ce767ad8f668ee1ee80d928cd4cada97f6313be5d53a704a47c",
    },
    "cem_td3": {
        "metrics.csv":
            "957a65a0850b152dfa420d71e07b4423a3b5c89fc3d4c3362361574bf731fe08",
        "checkpoint.json":
            "59378a926c80f4d44ffa3ee624f4556bc4297ba540134d00a6b9f901ab7a87a0",
        "checkpoint_best.json":
            "280716bfa316f41a1ad4054660bff76e8653d6397a5fb9e2c95d9a3b8ff4a15d",
    },
}


@pytest.mark.parametrize("algorithm", sorted(PINNED))
def test_artifacts_match_pinned_sha256(algorithm, tmp_path):
    config = parse_config(_TINY_BUDGET, algorithm=algorithm, master_seed=11,
                          out_dir=str(tmp_path))
    train(config)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in _ARTIFACTS}
    assert digests == PINNED[algorithm]
