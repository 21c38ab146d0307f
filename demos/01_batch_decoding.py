"""
Decoding a single multi-user batch
==================================

Four users collide in one slot.  The receiver recovers two linear
combinations of their packets instead of nothing, and side information
turns one of them into a fresh packet.
"""

from ncsa.decoders import batched_bp, ordinary_bp
from ncsa.frames import Batch, Frame
from ncsa.gf2 import BitMatrix, combine, rank
from ncsa.pnc import gamma_set

payloads = (b"\x11" * 4, b"\x22" * 4, b"\x44" * 4, b"\x88" * 4)

# the slot's transfer matrix: column j says which packets sum into output j
transfer = BitMatrix.from_rows([[1, 0], [0, 1], [1, 1], [1, 1]])
outputs = tuple(combine(list(payloads), transfer))

print("transfer matrix:", transfer.to_rows())
print("rank:", rank(transfer), "outputs:", [o.hex() for o in outputs])

# which subsets of the first three packets let us pull out the fourth?
print("resolving subsets for the last row:", sorted(map(sorted, gamma_set(transfer))))

frame = Frame(
    n_slots=1,
    payload_len=4,
    payloads=payloads,
    batches=(Batch(slot=0, users=(0, 1, 2, 3), transfer=transfer, outputs=outputs),),
)

# nothing moves without side information: both outputs mix several unknowns
print("no side info, batched:", batched_bp(frame).recovered)

# knowing packet 0 releases packet 1 through output 1 + output 0
report = batched_bp(frame, preknown={0: payloads[0]})
print("given packet 0, batched recovers:", sorted(report.newly_recovered))
print("payload correct:", report.recovered[1] == payloads[1])

# a decoder that only reads single-packet slots cannot use the batch at all
print("given packet 0, ordinary recovers:", sorted(ordinary_bp(frame, preknown={0: payloads[0]}).newly_recovered))
