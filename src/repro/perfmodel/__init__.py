"""Performance models for execution and redistribution time (paper §IV-C).

* :mod:`repro.perfmodel.groundtruth` — the hidden "machine": an analytic
  WRF-nest cost oracle (compute ∝ points/processor, halo ∝ perimeter per
  processor, multiplicative run-to-run noise) standing in for real WRF
  timings;
* :mod:`repro.perfmodel.profiles` — the paper's profiling protocol: 13
  domains of varying size/aspect timed at 10 processor counts;
* :mod:`repro.perfmodel.exectime` — the predictor: Delaunay interpolation
  over (area, aspect) at each profiled processor count, then linear
  interpolation in processor count (after Malakar et al., SC'12);
* :mod:`repro.perfmodel.redisttime` — §IV-C1 redistribution time measured
  through the network simulator.
"""

from repro.perfmodel.groundtruth import ExecutionOracle
from repro.perfmodel.profiles import ProfileTable, DEFAULT_PROFILE_DOMAINS, DEFAULT_PROC_COUNTS
from repro.perfmodel.exectime import ExecTimePredictor
from repro.perfmodel.redisttime import measure_redistribution_time

__all__ = [
    "ExecutionOracle",
    "ProfileTable",
    "DEFAULT_PROFILE_DOMAINS",
    "DEFAULT_PROC_COUNTS",
    "ExecTimePredictor",
    "measure_redistribution_time",
]
