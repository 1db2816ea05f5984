"""Interconnect topologies and process-to-processor mappings.

The paper evaluates on two machines:

* an IBM Blue Gene/L partition whose nodes form a **3D torus**
  (:class:`~repro.topology.torus.Torus3D`), with a *folding-based
  topology-aware mapping* (after Yu, Chung & Moreira, SC'06) so that
  neighbours in the logical 2D process grid are neighbours on the torus, and
* ``fist``, an Intel Xeon cluster on an Infiniband **switched network**
  (:class:`~repro.topology.switched.SwitchedNetwork`) with no regular
  mesh/torus structure.

This package provides hop metrics, routing, and rank→physical-coordinate
mappings used by the cost models and the link-level network simulator.
"""

from repro.topology.base import Topology
from repro.topology.torus import Torus3D, Mesh3D
from repro.topology.switched import SwitchedNetwork
from repro.topology.mapping import (
    ProcessMapping,
    RowMajorMapping,
    FoldedMapping,
    RandomMapping,
)
from repro.topology.machines import MachineSpec, blue_gene_l, fist_cluster, MACHINES

__all__ = [
    "Topology",
    "Torus3D",
    "Mesh3D",
    "SwitchedNetwork",
    "ProcessMapping",
    "RowMajorMapping",
    "FoldedMapping",
    "RandomMapping",
    "MachineSpec",
    "blue_gene_l",
    "fist_cluster",
    "MACHINES",
]
