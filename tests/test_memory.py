"""The working set of the `sim-sparse` call's draw and decodes.

tracemalloc peaks of `sample_frame`, `batched_bp` and `ordinary_bp` on the
benchmark's 20k-user frame (rate 0.5, degree 3, cap 10, seed 31), each the
peak above the memory held when the phase starts.  The decodes share one
rule table, as `simulate` does.  Before the blocked gather (`xor_gather`)
and the early frees, the three peaks were 12.7, 12.9 and 14.3 MiB.  With
the `reduceat` kernel and a full read-back of each pass's packets they
were 5.11, 6.89 and 7.45 MiB; the length-grouped gather and the
repeated-user check read 5.32, 6.94 and 7.51 MiB.
"""
import tracemalloc

from ncsa.decoders import RuleTable, batched_bp, ordinary_bp
from ncsa.frames import DegreeDistribution, SystemConfig, sample_frame
from ncsa.pnc import PncModel

# MiB, measured with numpy 2.4 on x86-64 Linux; a phase may grow to 1.25 times its value
PEAK_MIB = {"sample_frame": 5.33, "batched_bp": 6.95, "ordinary_bp": 7.51}
HEADROOM = 1.25


def test_draw_and_decode_peaks_stay_bounded():
    config = SystemConfig(users=20_000, slots=40_000, dist=DegreeDistribution({3: 1.0}),
                          model=PncModel.example(10), seed=31)
    rules = RuleTable()
    peaks, kept = {}, []
    tracemalloc.start()
    try:
        for name, phase in (
            ("sample_frame", lambda: sample_frame(config)),
            ("batched_bp", lambda: batched_bp(kept[0], rules=rules)),
            ("ordinary_bp", lambda: ordinary_bp(kept[0], rules=rules)),
        ):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            kept.append(phase())
            peaks[name] = (tracemalloc.get_traced_memory()[1] - held) / 2**20
    finally:
        tracemalloc.stop()
    assert len(kept[1].recovered) == len(kept[2].recovered) == 20_000
    over = {name: round(peak, 2) for name, peak in peaks.items() if peak > HEADROOM * PEAK_MIB[name]}
    assert not over, f"tracemalloc peaks (MiB) past {HEADROOM} times {PEAK_MIB}: {over}"
