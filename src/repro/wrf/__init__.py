"""A WRF-like weather substrate (offline substitution for WRF v3.3.1).

The paper drives its reallocation machinery with WRF simulations of the
Indian region (60E–120E, 5N–40N at 12 km; July 2005 Mumbai rainfall).  The
reallocation code only observes WRF through two channels — the per-rank
QCLOUD/OLR split files that feed the parallel data analysis, and the nest
domains spawned over detected regions — so this package substitutes a
lightweight cloud-field simulator with the same interface:

* :mod:`repro.wrf.clouds` — organised cloud systems (anisotropic Gaussians
  with birth, advection, growth, decay and natural merging),
* :mod:`repro.wrf.fields` — vectorised QCLOUD/OLR field synthesis,
* :mod:`repro.wrf.model` — the time-stepping model producing split files
  over a ``Px x Py`` simulation decomposition,
* :mod:`repro.wrf.nests` — nest domains (3x refinement, parent→nest
  interpolation), ROI↔nest tracking across adaptation points and the
  detect half of a point (:func:`~repro.wrf.nests.detect_nests`),
* :mod:`repro.wrf.scenario` — the Mumbai-2005-like scripted scenario and
  random synthetic scenarios matching the paper's workload statistics.
"""

from repro.wrf.clouds import CloudSystem, advance_systems
from repro.wrf.fields import qcloud_field, olr_field
from repro.wrf.model import DomainConfig, WrfLikeModel
from repro.wrf.nests import Detection, Nest, NestTracker, detect_nests
from repro.wrf.scenario import mumbai_2005_scenario, synthetic_scenario
from repro.wrf.driver import CoupledSimulation, CoupledStepResult
from repro.wrf.io import SplitFileReader, SplitFileWriter, split_file_name
from repro.wrf.dynamics import DynamicalModel, DynamicsConfig
from repro.wrf.nestsim import NestModel

__all__ = [
    "CoupledSimulation",
    "CoupledStepResult",
    "SplitFileReader",
    "SplitFileWriter",
    "split_file_name",
    "DynamicalModel",
    "DynamicsConfig",
    "NestModel",
    "CloudSystem",
    "advance_systems",
    "qcloud_field",
    "olr_field",
    "DomainConfig",
    "WrfLikeModel",
    "Nest",
    "NestTracker",
    "Detection",
    "detect_nests",
    "mumbai_2005_scenario",
    "synthetic_scenario",
]
