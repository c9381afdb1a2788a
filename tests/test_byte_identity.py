"""Fixed-seed outputs pinned by SHA-256 digest.

The encoders may be restructured freely, but for a fixed seed these bytes
must not move: the APA files derived from Shifted Soliton at K=59 and 70,
from a sequence on the feasibility facets and from one with unreachable
states, curve CSVs (degree-based at the paper's K=59, table-based
and PINT across the 64-hop word boundary), an action table file, the
XOR-set masks of every scheme at k = 64 and 65 (as generated and as
replayed at the destination), PINT trials at K=118, a backward (HRS)
search's sequence and per-hop scores, quadratic (QPS) searches' sequences and descent traces, the
mean-field objective's per-rank terms, its gradient, the invariant-polytope
projection, random feasible sequences, and the single-XDD files of the CLI
(a Robust Soliton XDD, its invariant expansion and an HRS search started
from it).  A digest changes
only with a deliberate change to an output format or to the sampling, and
is then re-pinned in the same change.
"""

import hashlib

import numpy as np
import pytest

from recipe.cli import main
from recipe.decoder import replay_xor_mask
from recipe.distributions import PintParams, expand_invariant, robust_soliton, shifted_soliton
from recipe.evaluation import PintScheme, RecipeDScheme, RecipeTScheme, derive_seed, run_trials
from recipe.feasibility import apa_to_json, derive_apa, read_apa
from recipe.protocol import read_avst
from recipe.search import (_objective_and_grad, hrs_search, mean_field_objective,
                           project_invariant_polytope, qps_search, random_feasible_sequence)
from recipe.xdd import Xdd, sequence_to_json

APA_SHA = {
    59: "6d5869ebf1613ac9b7c27765a1c241b68d717cba23f9c6eae3dc20e6d4d4f28a",
    70: "bcc051f87506fc822a80e0a991fcc558bf6838e3a81623435ee2297acc7d6195",
}
# APA JSON of invariant expansions: mu(d) proportional to 1/d at K=5, whose
# facet rows have p_R = 0, and mass on degrees 1, 2 and 20 only at K=20,
# whose unreachable states are null rows.
APA_EDGE_SHA = {
    "facet": "ee084902b4c765d7b3a9b76e89ca95be5962b3b80f89f87176f64148bd5f2d0d",
    "null-rows": "2c7e255938e6cc12dcf4a25599c10ea5e84c70f7211d8c88fcee2bd2c4cda776",
}
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
PINT_TRIALS_SHA = "87718e2ddfb013b1bc3abbdb78619baa87e3cdee32fcfb2415c6ff57d6020f5d"
HRS_SHA = "5e4b06279467965a101a571703c71ab2783e130481f3f3fe1e4ae77103661583"
QPS_SHA = {
    59: "67e37df618a23dbcff19d0de357ec5592c3c4adc96e1f518632e542ec4b088c8",
    30: "d9650a41a80c61e6decc3d8aac3cac72a3bffc910c5c09ea01d5c962e5009bb4",
}
MEAN_FIELD_SHA = "22102e147fa1584a1a52725cc4748edef28b8a66bba5aefaae836d64de2be7eb"
GRADIENT_SHA = "ed4e875a3329cb2cbac86ecb4153cd682e6f50aa6fdfad63febe7ffd0fc615cc"
PROJECTION_SHA = "03091e327812c04622b4dfa59e7502bedb15b449250ac0762615eeeec068b131"
RANDOM_SEQUENCE_SHA = "5a6840ca8813c3c602526cedfa85e82c07b7bbc670bede40f962cf16c0deb4ac"
SINGLE_XDD_FLOW_SHA = {
    "rs8.json": "e91314bc7f31509b5d4372d716bbdcd611804b0422ad0e4ed119c75f0a247c6c",
    "inv8.json": "8b2c2d7e79f3b0b8e08a222db758c4b72dcb067e927437bcad488e461fbdb17d",
    "hrs8.json": "aa55a29f7964ac63539122b70835acc612a83ef6b16d6c3afed8320bc1f9b25b",
    "hrs8.csv": "f33a67ae71d580d03b9e5c84c0fad0555f1e9762dc775406790af90032603fbb",
}


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


@pytest.mark.parametrize("K", sorted(APA_SHA))
def test_derive_apa_bytes_pinned(artifacts, K):
    assert _sha((artifacts / f"apa{K}.json").read_bytes()) == APA_SHA[K]


@pytest.mark.parametrize("case", sorted(APA_EDGE_SHA))
def test_derive_apa_edge_rows_pinned(case):
    if case == "facet":
        h = sum(1.0 / d for d in range(1, 6))
        mu = Xdd(5, [1.0 / (d * h) for d in range(1, 6)])
    else:
        mu = Xdd(20, [0.6, 0.3] + [0.0] * 17 + [0.1])
    text = apa_to_json(derive_apa(expand_invariant(mu)))
    assert ("null" in text) == (case == "null-rows")
    assert _sha(text.encode()) == APA_EDGE_SHA[case]


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


def test_pint_run_trials_pinned():
    # K=118 with 200 trials: each kernel call covers 75 trials x 236
    # packets x 118 hops, many of the PINT encoder's hashing slabs.
    scheme = PintScheme(PintParams(0.3, 2 / 118), seed=9, K=118)
    used, completed = run_trials(scheme, 118, [derive_seed(9, 118, t) for t in range(200)])
    assert _sha(used.tobytes() + completed.tobytes()) == PINT_TRIALS_SHA


def test_hrs_search_sequence_and_scores_pinned():
    trace = []
    seq = hrs_search(16, candidates_per_hop=8, trials_per_candidate=64, seed=3, trace=trace)
    assert _sha((sequence_to_json(seq) + repr(trace)).encode()) == HRS_SHA


@pytest.mark.parametrize("K", sorted(QPS_SHA))
def test_qps_search_sequence_and_trace_pinned(K):
    trace = []
    seq = qps_search(K, restarts=2, seed=4, second_order=K == 30, trace=trace)
    assert _sha((sequence_to_json(seq) + repr(trace)).encode()) == QPS_SHA[K]


def test_mean_field_objective_terms_pinned():
    h = hashlib.sha256()
    for K in (8, 59, 236):
        for second_order in (False, True):
            total, terms = mean_field_objective(shifted_soliton(K), second_order)
            h.update(repr(total).encode())
            for a in (terms.p_rel, terms.p_suc, terms.t, terms.s):
                h.update(a.tobytes())
    assert h.hexdigest() == MEAN_FIELD_SHA


def test_objective_gradient_pinned():
    # The descent's (total, grad) at the points it visits: feasible masses.
    # A last-bit change in the gradient (say, Psuc**2 as Psuc*Psuc) shows
    # only where it is not absorbed by the later sums; 48 Dirichlet draws
    # per K are enough for that one to show.
    h = hashlib.sha256()
    for K in (8, 59, 236):
        rng = np.random.default_rng(K)
        masses = [shifted_soliton(K).mass, robust_soliton(K).mass,
                  *(project_invariant_polytope(m) for m in rng.dirichlet(np.ones(K), size=48))]
        for mass in masses:
            for second_order in (False, True):
                total, grad, _ = _objective_and_grad(np.asarray(mass, dtype=float), K,
                                                     second_order)
                h.update(repr(total).encode())
                h.update(grad.tobytes())
    assert h.hexdigest() == GRADIENT_SHA


def test_project_invariant_polytope_pinned():
    h = hashlib.sha256()
    for K in (2, 8, 59, 236):
        rng = np.random.default_rng(K)
        for v in rng.dirichlet(np.ones(K), size=16):
            h.update(project_invariant_polytope(v).tobytes())
    assert h.hexdigest() == PROJECTION_SHA


def test_random_feasible_sequence_pinned():
    h = hashlib.sha256()
    for K, seed in ((2, 0), (7, 1), (16, 2), (59, 3)):
        seq = random_feasible_sequence(K, np.random.default_rng(seed))
        h.update(sequence_to_json(seq).encode())
    assert h.hexdigest() == RANDOM_SEQUENCE_SHA


def test_cli_single_xdd_flow_pinned(tmp_path, capsys):
    rs8 = tmp_path / "rs8.json"
    _cli("dist", "robust-soliton", "--K", 8, "-o", rs8)
    capsys.readouterr()
    _cli("dist", "robust-soliton", "--K", 8)
    assert capsys.readouterr().out.encode() == rs8.read_bytes()
    _cli("dist", "invariant", "--from", rs8, "-o", tmp_path / "inv8.json")
    _cli("search", "hrs", "--K", 8, "--start", rs8, "--candidates", 4, "--trials", 16,
         "--seed", 2, "--trace", tmp_path / "hrs8.csv", "-o", tmp_path / "hrs8.json")
    for name, digest in SINGLE_XDD_FLOW_SHA.items():
        assert _sha((tmp_path / name).read_bytes()) == digest, name
