"""Reproduction of "Capturing Periodic I/O Using Frequency Techniques" (FTIO, IPDPS 2024).

The package is organized in layers:

* :mod:`repro.trace` — I/O request traces, bandwidth signals, file formats;
* :mod:`repro.tracer` — the simulated TMIO tracing library and its overhead model;
* :mod:`repro.freq` — DFT, power spectra, autocorrelation, outlier detection;
* :mod:`repro.core` — the FTIO detection/prediction pipeline, confidence and
  characterization metrics, online prediction;
* :mod:`repro.workloads` — synthetic IOR / HACC-IO / LAMMPS / Nek5000 / miniIO
  and semi-synthetic trace generators;
* :mod:`repro.cluster` / :mod:`repro.scheduling` — the shared-file-system
  simulator and the Set-10 I/O scheduling use case;
* :mod:`repro.service` — the streaming prediction service: framed multi-job
  flush ingestion, bounded-memory online sessions, the versioned
  control-plane protocol, the TCP gateway, live FTIO-driven scheduling;
* :mod:`repro.client` — the blocking TCP client of the service gateway;
* :mod:`repro.analysis` — detection-error sweeps and report rendering;
* :mod:`repro.api` — the unified facade: ``detect`` / ``predict`` /
  ``serve`` / ``connect`` behind one frozen :class:`~repro.api.ReproConfig`.

Quick start::

    from repro import Ftio, FtioConfig, workloads

    trace = workloads.ior_trace(ranks=8, iterations=8, seed=1)
    result = Ftio(FtioConfig(sampling_frequency=1.0)).detect(trace)
    print(result.summary())

or, through the facade::

    import repro.api as api

    result = api.detect(trace, sampling_frequency=1.0)
"""

from repro import (
    analysis,
    api,
    client,
    cluster,
    core,
    freq,
    scheduling,
    service,
    trace,
    tracer,
    workloads,
)
from repro.api import ReproConfig
from repro.core import (
    Ftio,
    FtioConfig,
    FtioResult,
    OnlinePredictor,
    Periodicity,
    detect,
)
from repro.trace import IORequest, Trace

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "api",
    "client",
    "cluster",
    "core",
    "freq",
    "scheduling",
    "service",
    "trace",
    "tracer",
    "workloads",
    "Ftio",
    "FtioConfig",
    "ReproConfig",
    "FtioResult",
    "OnlinePredictor",
    "Periodicity",
    "detect",
    "Trace",
    "IORequest",
    "__version__",
]
