"""Workload generators: IOR, HACC-IO, LAMMPS, Nek5000, miniIO, semi-synthetic traces."""

from repro.workloads.hacc import hacc_flush_times, hacc_io_trace
from repro.workloads.ior import ior_periodic_job_trace, ior_phase, ior_trace
from repro.workloads.lammps import lammps_trace
from repro.workloads.miniio import miniio_trace
from repro.workloads.nek5000 import nek5000_heatmap, reduced_window
from repro.workloads.noise import NoiseLevel, add_noise, noise_trace
from repro.workloads.phases import PhaseSpec, generate_phase
from repro.workloads.synthetic import (
    PhaseLibrary,
    SemiSyntheticGenerator,
    SyntheticAppConfig,
    mean_period,
    synthetic_flush_streams,
)

__all__ = [
    "hacc_flush_times",
    "hacc_io_trace",
    "ior_periodic_job_trace",
    "ior_phase",
    "ior_trace",
    "lammps_trace",
    "miniio_trace",
    "nek5000_heatmap",
    "reduced_window",
    "NoiseLevel",
    "add_noise",
    "noise_trace",
    "PhaseSpec",
    "generate_phase",
    "PhaseLibrary",
    "SemiSyntheticGenerator",
    "SyntheticAppConfig",
    "mean_period",
    "synthetic_flush_streams",
]
