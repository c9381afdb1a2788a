"""The destination's side: recover switch IDs from delivered codewords.

The destination never sees which hops XORed into a codeword; it replays
the switches' hash-driven decisions from the packet id alone, then peels:
any codeword reduced to one unknown member resolves that hop, and every
resolution cascades through the pending ones.
"""

import numpy as np

from recipe import (
    ReceivedCodeword,
    RecipeDScheme,
    decode_stream,
    derive_apa,
    replay_xor_set,
    shifted_soliton_sequence,
)
from recipe.decoder import PeelingState, peel_insert

print("=" * 72)
print("Hash replay: the decoder reconstructs every XOR-set")
print("=" * 72)
k = 5
seq = shifted_soliton_sequence(k)
scheme = RecipeDScheme(derive_apa(seq), seed=99)
rng = np.random.default_rng(1)
for pid in rng.integers(0, 2**64, size=4, dtype=np.uint64):
    hops = sorted(replay_xor_set(int(pid), k, scheme))
    print(f"  packet 0x{int(pid):016x} -> XOR-set {hops}")

print()
print("=" * 72)
print("Peeling, step by step")
print("=" * 72)
ids = {1: 0xAA, 2: 0xBB, 3: 0xCC}
state = PeelingState(3)
print("insert {1,2,3} (all three XORed together): nothing resolvable yet")
peel_insert(state, ReceivedCodeword(0, 3, ids[1] ^ ids[2] ^ ids[3], {1, 2, 3}))
print("  resolved:", state.resolved)
print("insert {2,3}: still nothing, two unknowns in both pending codewords")
peel_insert(state, ReceivedCodeword(1, 3, ids[2] ^ ids[3], {2, 3}))
print("  resolved:", state.resolved)
print("insert {3}: resolves hop 3, cascades through both pending codewords")
newly = peel_insert(state, ReceivedCodeword(2, 3, ids[3], {3}))
print("  newly resolved:", newly)
print("  resolved:", {h: hex(v) for h, v in sorted(state.resolved.items())})

print()
print("=" * 72)
print("Streaming decode of one instance")
print("=" * 72)
truth = [int(v) for v in rng.integers(1, 2**32, size=k)]

def deliveries():
    while True:
        pid = int(rng.integers(0, 2**64, dtype=np.uint64))
        mask = 0
        for h in replay_xor_set(pid, k, scheme):
            mask |= 1 << (h - 1)
        value = 0
        for h in range(k):
            if (mask >> h) & 1:
                value ^= truth[h]
        yield ReceivedCodeword(pid, k, value, mask)

result = decode_stream(deliveries(), k)
print(f"decoded all {k} switch IDs after {result.used} codewords")
print("  ground truth:", [hex(v) for v in truth])
print("  recovered:   ", [hex(result.resolved[h]) for h in range(1, k + 1)])
assert result.resolved == {h + 1: truth[h] for h in range(k)}
