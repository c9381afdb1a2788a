"""Fixed-seed outputs pinned by SHA-256 digest.

The encoders may be restructured freely, but for a fixed seed these bytes
must not move: curve CSVs (degree-based at the paper's K=59, table-based
and PINT across the 64-hop word boundary), an action table file, the
XOR-set masks of every scheme at k = 64 and 65 (as generated and as
replayed at the destination), and a backward (HRS) search's sequence and
per-hop scores.  A digest changes only with a deliberate change to an
output format or to the sampling, and is then re-pinned in the same change.
"""

import hashlib

import numpy as np
import pytest

from recipe.cli import main
from recipe.decoder import replay_xor_mask
from recipe.distributions import PintParams
from recipe.evaluation import PintScheme, RecipeDScheme, RecipeTScheme
from recipe.feasibility import read_apa
from recipe.protocol import read_avst
from recipe.search import SearchConfig, hrs_search
from recipe.xdd import sequence_to_json

AVST_SHA = "62ce0ba47825baa17459f00436835b72f338a13c1b06f1ebef9ffced9fa5f32c"
CSV_SHA = {
    "recipe-d": "9d8172bdad5b144691ac1fbced5048da5923ea4ca00952f205d8f6a3b13230d8",
    "recipe-t": "4b2b884589ae20da033479801b3b072cf28dbd75b5c1fe77d11fd52f782e293c",
    "pint": "3861c1ccb72dd8f78cad4866b681a12c3bca2d8a10eb6845692ffa3c04cc1365",
}
MASKS_SHA = {
    64: "fd03e80c1663280c4d3b622b9992aaad9a6a8810c1886cae15177f77c1cbb9c0",
    65: "58f325c63283dd80297a2a8708b04bd8e18331553f1e809fc76b501efad1f55f",
}
HRS_SHA = "5e4b06279467965a101a571703c71ab2783e130481f3f3fe1e4ae77103661583"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(*argv):
    assert main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("pinned")
    for K in (59, 70):
        _cli("dist", "shifted-soliton", "--K", K, "-o", d / f"ss{K}.json")
        _cli("derive-apa", d / f"ss{K}.json", "-o", d / f"apa{K}.json")
    _cli("gen-avst", "--apa", d / "apa70.json", "--L", 1000, "--seed", 7, "-o", d / "t70.avst")
    return d


def test_gen_avst_bytes_pinned(artifacts):
    assert _sha((artifacts / "t70.avst").read_bytes()) == AVST_SHA


@pytest.mark.parametrize("scheme", sorted(CSV_SHA))
def test_evaluate_csv_bytes_pinned(artifacts, scheme):
    d = artifacts
    flags = {
        "recipe-d": ["--apa", d / "apa59.json", "--K", 59, "--trials", 10],
        "recipe-t": ["--avst", d / "t70.avst", "--K", 70, "--ks", "63,64,65,70",
                     "--trials", 20],
        "pint": ["--pint-alpha", 0.3, "--pint-p", 2 / 70, "--K", 70, "--ks", "63,64,65,70",
                 "--trials", 20],
    }[scheme]
    out = d / f"{scheme}.csv"
    _cli("evaluate", *flags, "--seed", 1, "--threads", 1, "-o", out)
    assert _sha(out.read_bytes()) == CSV_SHA[scheme]


@pytest.mark.parametrize("k", sorted(MASKS_SHA))
def test_generate_masks_ints_pinned(artifacts, k):
    apa = read_apa(artifacts / "apa70.json")
    schemes = [RecipeDScheme(apa=apa, seed=5),
               RecipeTScheme(read_avst(artifacts / "t70.avst"), seed=5),
               PintScheme(PintParams(0.3, 2 / 70), seed=5, K=70)]
    pids = np.random.default_rng(k).integers(0, 2**64, size=500, dtype=np.uint64)
    masks = [s.generate_masks(k, pids) for s in schemes]
    text = "\n".join(str(int(m)) for scheme_masks in masks for m in scheme_masks)
    assert _sha(text.encode()) == MASKS_SHA[k]
    for scheme, scheme_masks in zip(schemes, masks):
        assert [replay_xor_mask(pid, k, scheme) for pid in pids.tolist()] == scheme_masks


def test_hrs_search_sequence_and_scores_pinned():
    trace = []
    seq = hrs_search(16, SearchConfig(candidates_per_hop=8, trials_per_candidate=64, seed=3),
                     trace=trace)
    assert _sha((sequence_to_json(seq) + repr(trace)).encode()) == HRS_SHA
