"""CKKS benchmark workloads (Section V-B1): Bootstrapping, HELR, ResNet-20.

Each generator expands the application into the Table II operation sequence
(level-annotated) using the bootstrapping pipeline model of
:mod:`repro.fhe.ckks.bootstrap`, then lowers every operation to kernels with
:func:`repro.kernels.ckks_flows.ckks_operation_flow`.  The operation mixes
follow the published structure of each benchmark:

* **Packed Bootstrapping** — one fully-packed CKKS bootstrap (level
  consumption 15, as in the paper's benchmark description);
* **HELR** — one iteration of encrypted logistic-regression training with a
  batch of 1024 samples: the inner products, sigmoid polynomial, and weight
  update are keyswitch-heavy (HMult / HRotate dominated), which is exactly
  why the paper sees its largest CKKS gain (1.85x) here;
* **ResNet-20** — CIFAR-10 inference with multiplexed-parallel convolutions:
  convolution layers are PMult/HRotate dominated with periodic
  bootstrapping, giving a more element-wise-bound mix.
"""

from __future__ import annotations

import math
from typing import Dict, List

from ..fhe.ckks.bootstrap import BootstrapPlan, HomomorphicOp, linear_transform_plan
from ..fhe.params import CKKSParameters, CKKS_DEFAULT
from ..kernels.ckks_flows import ckks_operation_flow
from ..kernels.kernel import KernelTrace
from .base import Workload

__all__ = [
    "operations_to_traces",
    "program_workload",
    "packed_bootstrapping_workload",
    "helr_workload",
    "resnet20_workload",
    "CKKS_WORKLOADS",
]


def program_workload(program, params: "CKKSParameters | None" = None,
                     name: str = "HEProgram") -> Workload:
    """Lower a traced :class:`~repro.fhe.program.HEProgram` into a workload.

    The bridge between the two worlds the program API serves: the same DAG
    that executes functionally lowers — via
    :func:`repro.fhe.program.lower_to_operations` — to the
    level-annotated ``HomomorphicOp`` stream, whose kernel traces feed the
    scheduler and the Trinity simulator like any paper benchmark.  Pass the
    *planned* program to charge exactly what the optimized execution runs.
    """
    from ..fhe.program import (
        PlannedProgram, lower_to_operations, operation_histogram,
    )

    ir = program.program if isinstance(program, PlannedProgram) else program
    params = ir.params if params is None else params
    operations = lower_to_operations(program)
    return Workload(
        name=name,
        scheme="ckks",
        traces=operations_to_traces(operations, params),
        metadata={
            "operation_histogram": operation_histogram(program),
            "params": params.name,
            "nodes": len(ir),
        },
    )


def operations_to_traces(operations: List[HomomorphicOp],
                         params: CKKSParameters) -> List[KernelTrace]:
    """Lower a level-annotated operation list into kernel traces."""
    traces: List[KernelTrace] = []
    for op in operations:
        trace = ckks_operation_flow(op.name, params, op.level)
        if op.count > 1:
            repeated = KernelTrace(name=f"{trace.name}x{op.count}", scheme="ckks",
                                   metadata=dict(trace.metadata))
            repeated.extend(trace, repeat=op.count)
            trace = repeated
        traces.append(trace)
    return traces


# ---------------------------------------------------------------------------
# Packed bootstrapping
# ---------------------------------------------------------------------------

def packed_bootstrapping_workload(params: CKKSParameters = CKKS_DEFAULT,
                                  levels_consumed: int = 15) -> Workload:
    """One fully-packed CKKS bootstrapping (the paper's Bootstrap benchmark)."""
    plan = BootstrapPlan(
        ring_degree=params.ring_degree,
        start_level=params.max_level,
        levels_consumed=levels_consumed,
    )
    operations = plan.operations()
    traces = operations_to_traces(operations, params)
    return Workload(
        name="Packed Bootstrapping",
        scheme="ckks",
        traces=traces,
        metadata={
            "levels_consumed": levels_consumed,
            "operation_histogram": plan.operation_histogram(),
            "params": params.name,
        },
    )


# ---------------------------------------------------------------------------
# HELR: logistic regression training
# ---------------------------------------------------------------------------

def helr_iteration_operations(params: CKKSParameters, features: int = 256,
                              start_level: int | None = None) -> List[HomomorphicOp]:
    """One HELR training iteration (batch packed into the slots).

    Structure per iteration (Han et al. logistic regression on HE):

    1. inner products <x_i, w>: one HMult plus log2(features) rotate-and-add
       reductions,
    2. degree-3 sigmoid approximation: two HMult levels plus PMults,
    3. gradient aggregation over the batch: log2(batch-block) rotations,
    4. weight update: PMult by the learning rate and an addition.
    """
    level = params.max_level if start_level is None else start_level
    rotations_per_reduction = int(math.log2(features))
    ops: List[HomomorphicOp] = []
    # 1. batched inner product.
    ops.append(HomomorphicOp("HMult", level, 1))
    ops.append(HomomorphicOp("Rescale", level, 1))
    level -= 1
    ops.append(HomomorphicOp("HRotate", level, rotations_per_reduction))
    ops.append(HomomorphicOp("HAdd", level, rotations_per_reduction))
    # 2. sigmoid(x) ~ a0 + a1*x + a3*x^3: two multiplicative levels.
    for _ in range(2):
        ops.append(HomomorphicOp("HMult", level, 1))
        ops.append(HomomorphicOp("PMult", level, 1))
        ops.append(HomomorphicOp("HAdd", level, 2))
        ops.append(HomomorphicOp("Rescale", level, 1))
        level -= 1
    # 3. gradient aggregation across the batch block.
    ops.append(HomomorphicOp("HMult", level, 1))
    ops.append(HomomorphicOp("Rescale", level, 1))
    level -= 1
    ops.append(HomomorphicOp("HRotate", level, rotations_per_reduction))
    ops.append(HomomorphicOp("HAdd", level, rotations_per_reduction))
    # 4. weight update.
    ops.append(HomomorphicOp("PMult", level, 1))
    ops.append(HomomorphicOp("HAdd", level, 1))
    ops.append(HomomorphicOp("Rescale", level, 1))
    return ops


def helr_workload(params: CKKSParameters = CKKS_DEFAULT, batch: int = 1024,
                  iterations: int = 1, features: int = 256) -> Workload:
    """HELR logistic-regression training (batch 1024, per-iteration latency).

    The paper reports the per-iteration latency (Table VI); pass
    ``iterations=32`` for the full training run of the benchmark description.
    """
    operations: List[HomomorphicOp] = []
    for _ in range(iterations):
        operations.extend(helr_iteration_operations(params, features=features))
    traces = operations_to_traces(operations, params)
    return Workload(
        name="HELR",
        scheme="ckks",
        traces=traces,
        metadata={"batch": batch, "iterations": iterations, "features": features,
                  "params": params.name},
    )


# ---------------------------------------------------------------------------
# ResNet-20 inference
# ---------------------------------------------------------------------------

def resnet20_layer_operations(params: CKKSParameters, level: int,
                              channels: int, kernel_size: int = 3) -> List[HomomorphicOp]:
    """One multiplexed-parallel convolution layer plus its activation.

    A convolution over packed channels is a linear transform whose diagonal
    count is ``kernel_size^2 * channel-block``; the ReLU replacement is a
    low-degree polynomial (three multiplicative levels).
    """
    diagonals = kernel_size * kernel_size * max(1, channels // 4)
    plan = linear_transform_plan(params.slots, level, diagonals=diagonals)
    ops = list(plan.operations())
    level -= 1
    # Activation: a degree-7 polynomial approximation (3 levels).
    for _ in range(3):
        ops.append(HomomorphicOp("HMult", max(level, 1), 1))
        ops.append(HomomorphicOp("PMult", max(level, 1), 2))
        ops.append(HomomorphicOp("HAdd", max(level, 1), 2))
        ops.append(HomomorphicOp("Rescale", max(level, 1), 1))
        level -= 1
    return ops


def resnet20_workload(params: CKKSParameters = CKKS_DEFAULT,
                      bootstraps: int = 9) -> Workload:
    """ResNet-20 CIFAR-10 inference under CKKS (Lee et al. structure).

    Twenty convolution layers in three channel groups (16/32/64), an average
    pool and a fully-connected head, with a bootstrap inserted whenever the
    level budget is exhausted (every other residual block, ``bootstraps``
    times in total).
    """
    operations: List[HomomorphicOp] = []
    layer_channels = [16] * 7 + [32] * 6 + [64] * 6 + [64]   # 20 layers
    level = params.max_level
    boot_plan = BootstrapPlan(
        ring_degree=params.ring_degree,
        start_level=params.max_level,
        levels_consumed=15,
    )
    bootstraps_done = 0
    per_layer_levels = 4
    for index, channels in enumerate(layer_channels):
        if level - per_layer_levels <= boot_plan.end_level - 10 or level <= per_layer_levels + 1:
            if bootstraps_done < bootstraps:
                operations.extend(boot_plan.operations())
                bootstraps_done += 1
                level = boot_plan.end_level
        operations.extend(resnet20_layer_operations(params, level, channels))
        level -= per_layer_levels
    # Ensure the declared number of bootstraps is reached (the published
    # network uses one per residual block group boundary as well).
    while bootstraps_done < bootstraps:
        operations.extend(boot_plan.operations())
        bootstraps_done += 1
    # Average pooling + fully connected layer.
    final_level = max(2, boot_plan.end_level - 2)
    operations.append(HomomorphicOp("HRotate", final_level, int(math.log2(64))))
    operations.append(HomomorphicOp("HAdd", final_level, int(math.log2(64))))
    operations.append(HomomorphicOp("PMult", final_level, 10))
    operations.append(HomomorphicOp("HAdd", final_level, 10))
    traces = operations_to_traces(operations, params)
    return Workload(
        name="ResNet-20",
        scheme="ckks",
        traces=traces,
        metadata={"bootstraps": bootstraps, "layers": len(layer_channels),
                  "params": params.name},
    )


#: The Table VI workload set, keyed the way the paper labels them.
CKKS_WORKLOADS = {
    "Bootstrap": packed_bootstrapping_workload,
    "HELR": helr_workload,
    "ResNet-20": resnet20_workload,
}
