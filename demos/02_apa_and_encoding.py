"""From a feasible sequence to switches making per-packet decisions.

derive_apa turns a feasible sequence into the action probability array:
for every (hop, incoming degree), the probabilities of Add / Skip /
Replace.  A switch draws one keyed hash of the packet and compares it to
those thresholds; that's the whole per-hop protocol.  The exact
enumeration oracle then confirms the APA induces precisely the sequence
we started from.
"""

import numpy as np

from recipe import (
    GlobalHash,
    Packet,
    derive_apa,
    exact_induced_sequence,
    generate_avst,
    shifted_soliton_sequence,
    step_recipe_d,
    step_recipe_t,
)
from recipe.protocol import ACTION_NAMES, hash_uniform

np.set_printoptions(precision=4, suppress=True)

seq = shifted_soliton_sequence(3)
apa = derive_apa(seq)

print("=" * 72)
print("Action probability array for the K=3 Shifted Soliton")
print("=" * 72)
print("hop 1 always replaces:", apa.entry(1, 0))
for i in (2, 3):
    for d in range(1, i):
        pa, ps, pr = apa.entry(i, d)
        print(f"  hop {i}, degree {d}: add={pa:.4f} skip={ps:.4f} replace={pr:.4f}")

print("\nExact enumeration of every XOR-set the protocol can produce:")
induced = exact_induced_sequence(apa)
for xdd in induced.xdds:
    print(f"  induced mu_{xdd.k} =", np.asarray(xdd.mass))
print("matches the target sequence:",
      all(np.allclose(a.mass, b.mass) for a, b in zip(induced.xdds, seq.xdds)))

print()
print("=" * 72)
print("A packet walking a 3-hop path (degree-based mode)")
print("=" * 72)
gh = GlobalHash(2024)
switch_ids = [0x11, 0x22, 0x44]
pkt = Packet(packet_id=0xFEEDFACE)
for i, sid in enumerate(switch_ids, start=1):
    nu = hash_uniform(gh, i, pkt.packet_id)
    nxt = step_recipe_d(pkt, sid, apa, gh)
    if nxt.codeword == pkt.codeword:
        action = "skip"
    elif nxt.codeword == pkt.codeword ^ sid and pkt.codeword:
        action = "add"
    else:
        action = "replace"
    print(f"  hop {i}: nu={nu:.4f} -> {action:7s} codeword=0x{nxt.codeword:02x} "
          f"degree={nxt.degree_field}")
    pkt = nxt

print()
print("=" * 72)
print("Table-based mode: same code, no degree field in the packet")
print("=" * 72)
avst = generate_avst(apa, L=30000, seed=7)
print(f"table: {avst.L} rows x {avst.K} hops, "
      f"{(avst.L * avst.K * 2 + 7) // 8} bytes packed")
print("first rows:", [[ACTION_NAMES[a] for a in row] for row in avst.rows[:3]])
pkt = Packet(packet_id=0xFEEDFACE)
for i, sid in enumerate(switch_ids, start=1):
    pkt = step_recipe_t(pkt, sid, avst, gh)
print(f"table-based delivery for the same packet: codeword=0x{pkt.codeword:02x}")
