"""Byte-level regression fixture for the CLI outputs.

The six acceptance configs run through ``run_command`` at a short horizon
(400 rounds, seeds 0..1, checkpoints from 10), and the sha256 of every
per-seed CSV and every ``summary.csv`` must match the recorded value.  A
change to the floating-point operations or to the order of RNG draws in a
learner, a channel, a stream or the regret accounting shows up here as soon
as it moves one written digit.  A deliberate change of output bytes must
re-record ``GOLDEN`` and say why.
"""

import hashlib
import os

import pytest

from dualavg.cli import run_command
from test_acceptance import ALL_CONFIGS

OVERRIDES = {"horizon": "400", "seeds": "0..1", "checkpoint.start": "10"}

GOLDEN = {
    "c4_exact/da_seed0.csv": "e0c322ca1333ca04383ee4cd868655486755947b8ab2985370666007ea6af367",
    "c4_exact/da_seed1.csv": "cc69ae2b0388b0a4abfbcf131ac4e3e9f90216e15d776df7e712d96f46a4f2f0",
    "c4_exact/summary.csv": "4c48354d3fd68dd2719b9a4af55a00ab6af038ba5f867aff61d8e16ed12203a6",
    "c4_noisy/da_seed0.csv": "c680c7f650a62c7bd856f1b6da6bb6c978bb8a2e4a908f1f9ee298f38b821168",
    "c4_noisy/da_seed1.csv": "031bdd267bccc38a0c2cf4435da9559870371f3d8f36f5a39ec0167d750ad42f",
    "c4_noisy/summary.csv": "d931e70ed40714cd5d6b14374062696a22281b5b142b99b0b5565b0f1b97cf21",
    "c5_bda/bda_seed0.csv": "97e8d5610922cfb016fdad11d280cdfbf43a758da572872beb0fad946bfdf240",
    "c5_bda/bda_seed1.csv": "7ea6de6d3b9d18b76f1f697b8efec9c67adf4e5ef2df85b1f0f4b2caf7dfe8e0",
    "c5_bda/summary.csv": "4681aca27f77aecdb118e7e0fd048b7c9d65200237b4d64dc214a7c7ecfe2711",
    "c6_dynamic/da_seed0.csv": "07dfb5ddf9be1696b832e5aa3a8a29129ea3051c088b9bd6c2eb270dc72a1d9a",
    "c6_dynamic/da_seed1.csv": "947f13d6653c7106ac463a032074e9a47e80b7189280e33d4824cc7da263ca3b",
    "c6_dynamic/summary.csv": "21c6a01e188784e8b1607075bfbffba49642c09550930acc88eb4ae01cb15603",
    "c7_bda/bda_seed0.csv": "e4077615667566e7639ff078581427bd5a30b65db54dc1ce2ea7eca6f78f1287",
    "c7_bda/bda_seed1.csv": "9ef2a63abcb161b896a1d6cc86023e785c24ba8db906b354ae482d251f575368",
    "c7_bda/summary.csv": "abf5d15ad2a3508ab43fe2727c7461ca1b24ce613b3beb0ca007595035d983ab",
    "c7_exp3/exp3_grid_seed0.csv": "119282597d56c0afdefc533ad13002f404f5df9ca2ffe75d3dd97e4ed89acdf4",
    "c7_exp3/exp3_grid_seed1.csv": "efdaaa0c3d41fa8829e21c5271a1e30d09b2482f40d0e85592cb1eb250ce3379",
    "c7_exp3/summary.csv": "459397b7bdf3bf8a5ac4183e7ef6b0afb73cf24076c3b95c7456a8096dda7c31",
}


def short_config(text: str) -> str:
    """The config text with ``OVERRIDES`` replacing (or adding) their keys."""
    lines = [line for line in text.splitlines()
             if line.partition("=")[0].strip() not in OVERRIDES]
    lines += [f"{key} = {value}" for key, value in OVERRIDES.items()]
    return "\n".join(lines) + "\n"


def output_hashes(root, name: str) -> dict:
    """Run one shortened acceptance config under ``root``; map 'config/file' to sha256."""
    cfg_path = os.path.join(root, f"{name}.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(short_config(ALL_CONFIGS[name]))
    hashes = {}
    for path in run_command(cfg_path, out=os.path.join(root, name), threads=1):
        with open(path, "rb") as fh:
            hashes[f"{name}/{os.path.basename(path)}"] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def test_short_config_overrides():
    text = short_config(ALL_CONFIGS["c4_exact"])
    keys = [line.partition("=")[0].strip() for line in text.splitlines()]
    assert keys.count("horizon") == keys.count("seeds") == keys.count("checkpoint.start") == 1
    assert "horizon = 400" in text and "checkpoint.start = 10" in text


@pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
def test_golden_csv_bytes(name, tmp_path):
    mine = output_hashes(str(tmp_path), name)
    expected = {key: value for key, value in GOLDEN.items() if key.startswith(name + "/")}
    assert sorted(mine) == sorted(expected)
    for key in sorted(expected):
        assert mine[key] == expected[key], f"{key}: output bytes changed"
