"""The whole command chain's outputs, pinned by digest.

synth -> train -> curate -> eval (the bank, and the model into its own
directory) -> compare -> explain run through `cli.main` at the default
config, seeds 0 and 1. The sha256 of every output file and of each
command's stdout, with the output directory replaced by `<out>`, must equal
the committed table in `chain_digests.json`. The explain command's stdout is
the explanation of one clip the bank flags. So a change meant to keep every
output byte-identical shows here that it does, and a change meant to alter
outputs updates the table, which a failure prints in full.

The digests hold for this numpy/OpenBLAS build (numpy 2.4.6 with
scipy-openblas 0.3.31), which is built with DYNAMIC_ARCH and so picks its
kernels by CPU: another build, or another CPU, may round the BLAS products
of training differently. On this build the outputs were the same at 1 and
at 2 BLAS threads.
"""

import hashlib
import json
import os

import pytest

from patternconv import cli

HERE = os.path.dirname(__file__)
EXPERTS = os.path.join(HERE, "..", "fixtures", "expert_patterns.jsonl")
FLAGGED_CLIP = {0: "synth-000052", 1: "synth-000012"}  # a clip each seed's bank flags


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _chain_digests(out: str, seed: int, capsys) -> dict:
    """Digest of each output file under `out` and of each command's stdout."""
    run = os.path.join(out, "run")
    clips = os.path.join(run, "dataset.jsonl")
    bank = os.path.join(run, "bank.json")
    commands = {  # name: (output directory, command)
        "synth": (run, ["synth"]),
        "train": (run, ["train", clips]),
        "curate": (run, ["curate", os.path.join(run, "snapshots"), clips]),
        "eval_bank": (run, ["eval", bank, clips]),
        "eval_model": (os.path.join(run, "model_eval"),
                       ["eval", os.path.join(run, "model.json"), clips]),
        "compare": (run, ["compare", bank, EXPERTS]),
        "explain": (run, ["explain", bank, clips, FLAGGED_CLIP[seed]]),
    }
    digests = {}
    for name, (dest, argv) in commands.items():
        assert cli.main(["--seed", str(seed), "--out", dest] + argv) == 0, name
        stdout = capsys.readouterr().out
        if name == "explain":
            assert f"clip {FLAGGED_CLIP[seed]}: flagged" in stdout
        digests[f"stdout/{name}"] = _sha(stdout.replace(run, "<out>").encode())
    for folder, _, files in os.walk(run):
        for fname in files:
            path = os.path.join(folder, fname)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, run).replace(os.sep, "/")] = _sha(fh.read())
    return dict(sorted(digests.items()))


@pytest.mark.parametrize("seed", [0, 1])
def test_chain_outputs_match_their_digests(tmp_path, capsys, seed):
    with open(os.path.join(HERE, "chain_digests.json"), encoding="utf-8") as fh:
        want = json.load(fh)[str(seed)]
    got = _chain_digests(str(tmp_path), seed, capsys)
    differ = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not differ, (f"outputs differ from the table: {differ}; this run's table:\n"
                        + json.dumps(got, indent=1))
