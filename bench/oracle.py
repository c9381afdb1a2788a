"""Scalar-reference oracle and the decode workload's input streams.

Everything here is untimed.  Codewords come from the normative per-switch
steps (`step_recipe_d`, `step_recipe_t`); PINT has no per-switch step, so
its codeword XORs the switch IDs over the replayed XOR-set.  XOR-sets come
from the scalar `replay_xor_mask` and stopping times from `decode_stream`,
so a trial rebuilt here shares no code with the vectorized evaluation path
except the peeling decoder itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from recipe import decoder, evaluation, protocol
from recipe.decoder import ReceivedCodeword, RecipeDMode, RecipeTMode
from recipe.errors import RecipeError

_U64 = np.uint64


def draw_switch_ids(rng, k: int) -> list[int]:
    """k distinct nonzero 32-bit switch IDs, drawn as the evaluation does."""
    ids = rng.integers(1, 2**32, size=k, dtype=_U64)
    while np.unique(ids).size < k:
        ids = rng.integers(1, 2**32, size=k, dtype=_U64)
    return [int(v) for v in ids]


def xor_ids(mask: int, ids: list[int]) -> int:
    value = 0
    for h, switch_id in enumerate(ids):
        if (mask >> h) & 1:
            value ^= switch_id
    return value


def encode(mode, packet_id: int, ids: list[int]) -> int:
    """The codeword a packet delivers after crossing switches ids[0..k-1]."""
    if isinstance(mode, (RecipeDMode, RecipeTMode)):
        pkt = protocol.Packet(packet_id=packet_id)
        for switch_id in ids:
            if isinstance(mode, RecipeDMode):
                pkt = protocol.step_recipe_d(pkt, switch_id, mode.apa, mode.gh)
            else:
                pkt = protocol.step_recipe_t(pkt, switch_id, mode.avst, mode.gh)
        return pkt.codeword
    return xor_ids(decoder.replay_xor_mask(packet_id, len(ids), mode), ids)


def resolved_ok(resolved: dict[int, int], ids: list[int], complete: bool) -> bool:
    """Every resolved hop carries its true ID, and a complete decode has all."""
    if complete and len(resolved) != len(ids):
        return False
    return all(1 <= h <= len(ids) and ids[h - 1] == v for h, v in resolved.items())


def rebuild_trial(mode, k: int, trial_seed: int):
    """Rerun one evaluation trial one packet at a time from its derived seed.

    The switch IDs come first from the trial's stream, then the packet ids
    one by one (a block draw yields the same ids).  Returns the decode
    result (capped like the evaluation) and the switch IDs.
    """
    rng = np.random.default_rng(trial_seed)
    ids = draw_switch_ids(rng, k)

    def stream():
        while True:
            pid = int(rng.integers(0, 2**64, dtype=_U64))
            yield ReceivedCodeword(pid, k, encode(mode, pid, ids),
                                   decoder.replay_xor_mask(pid, k, mode))

    return decoder.decode_stream(stream(), k, limit=evaluation.CAP_FACTOR * k), ids


def check_point(scheme, k: int, trials: int, master_seed: int, csv_mean: str,
                sample) -> tuple[int, int]:
    """Check one curve point against `run_trials` and the scalar reference.

    `run_trials` reruns the point's trials exactly as the CLI did; its mean
    must equal the CSV's, and each sampled trial rebuilt by the oracle must
    stop at the same codeword with every ID right.  Returns (checks
    attempted, checks failed): the point itself plus each sampled trial.
    """
    seeds = [evaluation.derive_seed(master_seed, k, t) for t in range(trials)]
    try:
        used, _ = evaluation.run_trials(scheme, k, seeds)
    except RecipeError:
        return 1 + len(sample), 1 + len(sample)
    failed = int(float(csv_mean) != float(used.mean()))
    mode = scheme.decode_mode()
    for t in sample:
        try:
            result, ids = rebuild_trial(mode, k, seeds[t])
        except RecipeError:
            failed += 1
            continue
        if result.used != int(used[t]) or not resolved_ok(result.resolved, ids, result.complete):
            failed += 1
    return 1 + len(sample), failed


@dataclass(frozen=True)
class Flow:
    """One destination flow: its path, and the stream the destination sees."""

    scheme: str
    k: int
    ids: list[int]
    packets: list[tuple[int, int]]  # (packet id, codeword) in arrival order
    mismatches: int  # packets whose scalar codeword differs from the vectorized one


def make_flow(scheme_name: str, scheme, mode, k: int, rng, block: int = 256) -> Flow:
    """A flow's stream, exactly as long as decoding needs.

    The stopping point comes from the vectorized masks peeled by a
    PeelingState; the codewords the destination receives come from the
    scalar per-switch steps, and any packet where the two disagree is
    counted in `mismatches`.
    """
    ids = draw_switch_ids(rng, k)
    state = decoder.PeelingState(k)
    pids: list[int] = []
    fast_values: list[int] = []
    while not state.complete:
        if len(pids) >= evaluation.CAP_FACTOR * k:
            raise RuntimeError(f"{scheme_name} flow at k={k} did not decode")
        block_ids = rng.integers(0, 2**64, size=block, dtype=_U64)
        masks = scheme.generate_masks(k, block_ids)
        for pid, mask in zip(block_ids, masks):
            value = xor_ids(int(mask), ids)
            state.insert(int(mask), value)
            pids.append(int(pid))
            fast_values.append(value)
            if state.complete:
                break
    packets = [(pid, encode(mode, pid, ids)) for pid in pids]
    mismatches = sum(cw != fast for (_, cw), fast in zip(packets, fast_values))
    return Flow(scheme_name, k, ids, packets, mismatches)
