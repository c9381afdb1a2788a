"""Each demo's stdout is pinned byte for byte: a change that moves a printed
number, a replayed XOR-set or a decode count shows up here.

The demos run in a fresh directory each, since demo 05 writes
efficiency_demo.csv into its working directory.  Their output does not
depend on PYTHONHASHSEED.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = {
    "01_distributions_and_feasibility.py":
        "05202999a017ca8d99173f8b890a3c21f443fdc3d66d0ef22184b47613fec3a1",
    "02_apa_and_encoding.py":
        "5599a86ab96c10d5477bd9a82e7e3ea93df9809934d667fe154f8a8bf57fdddb",
    "03_decoding_by_replay.py":
        "e9048ef76950e21e4f5b5fcb65c51fa2da4aa8fe25ce4de8ce95ea138a9d352b",
    "04_code_search.py":
        "b0a1e5f1909128fbcb2556b311e09b1886c638c5cb3f3ab99e0f0b8c17e7a948",
    "05_efficiency_comparison.py":
        "bf8e8485eba0fec3ec9cbd99ba676c764af9c5096fd17d12b9b2447d806ebc8d",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_pinned(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                          env=env, capture_output=True, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
