#!/usr/bin/env python
"""A traced Monte Carlo campaign: where does the time actually go?

Runs a tiny Figure-9-style experiment — encode a synthetic clip,
compute VideoApp importances, split the payload into equal-storage
importance bins, and sweep error rates over the least and most
important bins — with span tracing enabled end to end
(see docs/OBSERVABILITY.md). Then:

* prints the **top 5 slowest stages** by total recorded time, with
  call counts — the answer a Chrome-trace viewer would give, from the
  terminal;
* writes ``trace_campaign.json``, loadable in ``chrome://tracing`` or
  https://ui.perfetto.dev, covering encode, injection, ECC, decode,
  and quality-metric spans.

Run:  python examples/trace_campaign.py
"""

from collections import defaultdict

import numpy as np

from repro.analysis import equal_storage_bins, quality_sweep
from repro.codec import Encoder, EncoderConfig
from repro.core import compute_importance, macroblock_bits
from repro.obs import trace
from repro.obs.trace import write_chrome_trace
from repro.storage.device import ApproximateDevice
from repro.storage.ecc import scheme_by_name
from repro.video import SceneConfig, VideoSequence, synthesize_scene

RATES = (1e-5, 1e-4, 1e-3)
RUNS = 3


def main() -> None:
    tracer = trace.enable()

    with trace.span("example.trace_campaign"):
        # One exact BCH round trip, so the trace has an ECC yardstick
        # (quality sweeps inject into payload bits and skip the BCH
        # machinery entirely).
        with trace.span("ecc.calibration"):
            device = ApproximateDevice(rng=np.random.default_rng(0),
                                       exact=True)
            device.store_and_read(bytes(range(64)),
                                  scheme_by_name("BCH-6"))

        video = synthesize_scene(SceneConfig(
            width=64, height=48, num_frames=6, seed=5, num_objects=2))
        config = EncoderConfig(crf=26, gop_size=6)
        (encoded,), (recon,) = Encoder(config).encode_batch_with_recon(
            [video])
        clean = VideoSequence.from_array(recon)
        importance = compute_importance(encoded.trace)
        bins = equal_storage_bins(
            macroblock_bits(encoded.trace, importance), num_bins=4)

        # Figure 9's question, in miniature: the least important bin
        # should tolerate orders of magnitude more errors than the most
        # important one.
        for which, bin_ in (("least", bins[0]), ("most", bins[-1])):
            result = quality_sweep(
                encoded, video, clean, bin_.ranges, rates=RATES,
                runs=RUNS, rng=np.random.default_rng(42))
            losses = ", ".join(
                f"{p.rate:.0e}: {p.max_loss_db:5.2f} dB"
                for p in result.points)
            print(f"{which:>5} important bin "
                  f"(log2 imp {np.log2(max(bin_.max_importance, 1)):.1f})"
                  f" max loss  {losses}")

    records = tracer.drain()
    write_chrome_trace("trace_campaign.json", records)

    totals = defaultdict(float)
    counts = defaultdict(int)
    for record in records:
        totals[record.name] += record.duration
        counts[record.name] += record.attrs.get("count", 1)
    print(f"\n{len(records)} spans recorded; top 5 stages by total time:")
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:5]
    for rank, (name, seconds) in enumerate(ranked, start=1):
        print(f"  {rank}. {name:<22} {seconds * 1000:9.1f} ms "
              f"({counts[name]} calls)")
    print("\nwrote trace_campaign.json — load in chrome://tracing "
          "or https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
