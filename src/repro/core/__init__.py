"""The paper's core contribution: processor reallocation strategies.

* :class:`~repro.core.allocation.Allocation` — a complete nest→rectangle
  assignment (with its generating tree);
* :class:`~repro.core.scratch.ScratchStrategy` — §IV-A, rebuild the Huffman
  tree at every adaptation point;
* :class:`~repro.core.diffusion.DiffusionStrategy` — §IV-B, the tree-based
  hierarchical diffusion (Algorithm 3) reusing the existing tree;
* :class:`~repro.core.dynamic.DynamicStrategy` — §IV-C, pick per adaptation
  point whichever of the two minimises predicted execution + redistribution
  time;
* :func:`~repro.core.redistribution.plan_redistribution` — transfer
  matrices, messages, hop-bytes, overlap and predicted/measured times for
  one adaptation point;
* :class:`~repro.core.reallocator.ProcessorReallocator` — the end-to-end
  driver gluing predictor, strategy and redistribution planning together;
* :class:`~repro.core.stepper.AdaptationStepper` — the one adaptation-point
  driver: reallocator, data plane and ledger feed.
"""

from repro.core.allocation import Allocation
from repro.core.scratch import ScratchStrategy
from repro.core.diffusion import DiffusionStrategy
from repro.core.dynamic import DynamicStrategy
from repro.core.adaptive import AdaptiveResetStrategy, layout_quality
from repro.core.strategy import ReallocationStrategy
from repro.core.redistribution import NestMove, RedistributionPlan, plan_redistribution
from repro.core.reallocator import ProcessorReallocator, StepResult
from repro.core.stepper import AdaptationStepper, PointResult
from repro.core.metrics import StepMetrics, summarize_improvement
from repro.core.invariants import (
    InvariantViolation,
    check_all,
    check_plan_conservation,
    check_tiling,
    check_tree_consistency,
)

__all__ = [
    "Allocation",
    "AdaptiveResetStrategy",
    "layout_quality",
    "ReallocationStrategy",
    "ScratchStrategy",
    "DiffusionStrategy",
    "DynamicStrategy",
    "NestMove",
    "RedistributionPlan",
    "plan_redistribution",
    "ProcessorReallocator",
    "StepResult",
    "AdaptationStepper",
    "PointResult",
    "StepMetrics",
    "InvariantViolation",
    "check_all",
    "check_plan_conservation",
    "check_tiling",
    "check_tree_consistency",
    "summarize_improvement",
]
