"""Performance models for execution and redistribution time (paper §IV-C).

* :mod:`repro.perfmodel.groundtruth` — the hidden "machine": an analytic
  WRF-nest cost oracle (compute ∝ points/processor, halo ∝ perimeter per
  processor, multiplicative run-to-run noise) standing in for real WRF
  timings;
* :mod:`repro.perfmodel.profiles` — the paper's profiling protocol: 13
  domains of varying size/aspect timed at 10 processor counts;
* :mod:`repro.perfmodel.exectime` — the predictor: Delaunay interpolation
  over (area, aspect) at each profiled processor count, then linear
  interpolation in processor count (after Malakar et al., SC'12).

The §IV-C1 redistribution time is predicted and measured where the
redistribution is planned (:func:`repro.core.redistribution.plan_redistribution`).
"""

from repro.perfmodel.groundtruth import ExecutionOracle
from repro.perfmodel.profiles import ProfileTable, DEFAULT_PROFILE_DOMAINS, DEFAULT_PROC_COUNTS
from repro.perfmodel.exectime import ExecTimePredictor

__all__ = [
    "ExecutionOracle",
    "ProfileTable",
    "DEFAULT_PROFILE_DOMAINS",
    "DEFAULT_PROC_COUNTS",
    "ExecTimePredictor",
]
