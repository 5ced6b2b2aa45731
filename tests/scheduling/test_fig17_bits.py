"""Figure 17's FTIO configurations, pinned to the bit.

``set10-ftio`` and ``set10-error`` hand the Set-10 scheduler the periods the
streaming prediction service publishes while the simulation runs.  Their
summary metrics over ten repetitions are pinned as ``float.hex`` strings:
any change to how a phase becomes a flush, how the service evaluates it, or
how the provider reads the published period moves one of them.  The values
were captured when the configurations still ran an in-process FTIO detector
per phase, which the streaming path reproduced bit for bit.
"""

from __future__ import annotations

from repro.scheduling.experiment import SchedulingExperiment, summarize

PINNED = {
    "set10-ftio": {
        "stretch": "0x1.2347dbe4cc396p+0",
        "io_slowdown": "0x1.6d3180cf8dcf1p+1",
        "utilization": "0x1.a461821e73b2ap-1",
    },
    "set10-error": {
        "stretch": "0x1.23478a9188797p+0",
        "io_slowdown": "0x1.6d2bc4ea1b17cp+1",
        "utilization": "0x1.a461e9d30eb6dp-1",
    },
}


def test_ftio_configurations_are_bit_stable():
    runs = SchedulingExperiment().run(repetitions=10, seed=17, configurations=tuple(PINNED))
    summary = summarize(runs)
    assert {
        configuration: {metric: float.hex(value) for metric, value in metrics.items()}
        for configuration, metrics in summary.items()
    } == PINNED
