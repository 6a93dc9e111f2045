"""Lowering: :class:`HEProgram` -> ``HomomorphicOp`` stream -> kernel traces.

The same traced program that executes functionally also lowers to the cost
model's operation stream (Table II granularity), so one trace yields both a
ciphertext result and a Trinity cycle estimate:

* :func:`lower_to_operations` — the level-annotated ``HomomorphicOp`` list
  (fused ``pmult_mac`` nodes expand back into their ``PMult``/``HAdd``
  accounting, so the histogram matches the unfused math and the
  ``linear_transform_plan`` bookkeeping);
* :func:`operation_histogram` — total count per operation name;
* :func:`lower_to_traces` — kernel traces via
  :func:`repro.kernels.ckks_flows.ckks_operation_flow`, ready for
  :mod:`repro.core.scheduler` / :class:`repro.core.simulator.TrinitySimulator`;
* :func:`trinity_cycle_estimate` — convenience end-to-end cycle/latency
  estimate on the default Trinity configuration.

Domain conversions (``to_eval``/``to_coeff``) and ``mod_down`` are *not*
Table II operations — they are sub-operation kernels the flows already
charge inside HMult/HRotate/Rescale — so they are excluded from the stream
and reported separately by :func:`conversion_counts`.
"""

from __future__ import annotations

from typing import Dict, List

from ..ckks.bootstrap import HomomorphicOp
from .ir import HEProgram
from .ops import OP_TABLE
from .passes import PlannedProgram

__all__ = [
    "lower_to_operations",
    "operation_histogram",
    "conversion_counts",
    "lower_to_traces",
    "trinity_cycle_estimate",
    "lower_hybrid_to_workloads",
    "hybrid_kernel_histogram",
    "hybrid_cycle_estimate",
]

def _program_of(program) -> HEProgram:
    return program.program if isinstance(program, PlannedProgram) else program


def lower_to_operations(program) -> List[HomomorphicOp]:
    """The level-annotated Table II operation stream of a (planned) program.

    Consecutive identical ``(name, level)`` operations coalesce into one
    entry with a count; a fused ``pmult_mac`` over ``C`` ciphertexts
    contributes ``C`` PMults and ``C - 1`` HAdds (its mathematical
    content), keeping the histogram faithful to the unfused accounting.
    """
    ops: List[HomomorphicOp] = []

    def emit(name: str, level: int, count: int = 1) -> None:
        if ops and ops[-1].name == name and ops[-1].level == level:
            ops[-1] = HomomorphicOp(name, level, ops[-1].count + count)
        else:
            ops.append(HomomorphicOp(name, level, count))

    for node in _program_of(program).nodes:
        spec = OP_TABLE[node.op]
        # input / mod_down / to_eval / to_coeff lower to no Table II operation.
        for name, count in spec.lower(node):
            if count:
                emit(name, spec.lower_level(node), count)
    return ops


def operation_histogram(program) -> Dict[str, int]:
    """Total count of each Table II operation across the program."""
    histogram: Dict[str, int] = {}
    for op in lower_to_operations(program):
        histogram[op.name] = histogram.get(op.name, 0) + op.count
    return histogram


def conversion_counts(program) -> Dict[str, int]:
    """How many explicit domain conversions the planner materialized."""
    counts = {spec.name: 0 for spec in OP_TABLE.values()
              if spec.converts_to is not None}
    for node in _program_of(program).nodes:
        if node.op in counts:
            counts[node.op] += 1
    return counts


def lower_to_traces(program, params=None) -> list:
    """Kernel traces of the lowered operation stream (simulator input)."""
    from ...kernels.ckks_flows import ckks_operation_flow

    ir = _program_of(program)
    params = ir.params if params is None else params
    traces = []
    for op in lower_to_operations(program):
        trace = ckks_operation_flow(op.name, params, op.level)
        if op.count > 1:
            from ...kernels.kernel import KernelTrace

            repeated = KernelTrace(
                name=f"{trace.name}x{op.count}", scheme="ckks",
                metadata=dict(trace.metadata),
            )
            repeated.extend(trace, repeat=op.count)
            trace = repeated
        traces.append(trace)
    return traces


class _HybridSink:
    """What the op table's ``hybrid`` rules write a node's cost into: the
    TFHE and conversion trace lists, plus the two aggregates that become
    one trace each (extractions, LWE linear ops counted by dimension)."""

    def __init__(self, ckks_params, tfhe_params):
        self.ckks_params = ckks_params
        self.tfhe_params = tfhe_params
        self.tfhe_traces: List = []
        self.conversion_traces: List = []
        self.extractions = 0
        self.linear_by_dim: Dict[int, int] = {}


def lower_hybrid_to_workloads(program, params=None) -> list:
    """Scheme-grouped :class:`~repro.workloads.base.Workload` list of a hybrid program.

    The program's nodes are partitioned by the datapath that executes them —
    the CKKS subgraph (Table II stream via :func:`lower_to_traces`), the TFHE
    island (one :func:`~repro.kernels.tfhe_flows.pbs_flow` /
    :func:`~repro.kernels.tfhe_flows.gate_bootstrap_flow` per bootstrap, a
    bridge keyswitch per ``lwe_keyswitch``, one modular add per LWE linear
    op), and the scheme-switch boundary (one
    :func:`~repro.kernels.conversion_flows.ckks_to_tfhe_flow` covering every
    extraction, one :func:`~repro.kernels.conversion_flows.tfhe_to_ckks_flow`
    per repack node).  Grouping by scheme makes the lowering insensitive to
    the planner's node reordering: :meth:`WorkloadScheduler.run_interleaved`
    sums per-unit busy time across workloads, so the histogram — and hence
    the estimate — depends only on *what* ran, not on interleaving order.

    The planner's PBS batching is deliberately **not** reflected here: a
    batched dispatch performs the same NTT/MAC work as its members run
    sequentially, it just shares dispatch overhead the cost model does not
    charge per call.
    """
    from ...kernels.conversion_flows import ckks_to_tfhe_flow
    from ...kernels.kernel import Kernel, KernelKind, KernelTrace
    from ...workloads.base import Workload

    ir = _program_of(program)
    ckks_params = ir.params if params is None else params
    tfhe_params = ir.tfhe_params
    if tfhe_params is None:
        raise ValueError("not a hybrid program: no TFHE parameter set attached")

    sink = _HybridSink(ckks_params, tfhe_params)
    for node in ir.nodes:
        lower = OP_TABLE[node.op].hybrid
        if lower is not None:
            lower(sink, node)
    if sink.linear_by_dim:
        linear = KernelTrace(name="lwe-linear", scheme="tfhe")
        linear.add_step(
            [Kernel(KernelKind.MODADD, dim + 1, count=count, scheme="tfhe",
                    tag="lwe.linear")
             for dim, count in sorted(sink.linear_by_dim.items())],
            label="lwe-linear",
        )
        sink.tfhe_traces.append(linear)
    if sink.extractions:
        sink.conversion_traces.insert(
            0, ckks_to_tfhe_flow(ckks_params, nslot=sink.extractions))

    workloads = []
    ckks_traces = lower_to_traces(program, params=ckks_params)
    if ckks_traces:
        workloads.append(Workload(
            name="hybrid.ckks", scheme="ckks", traces=ckks_traces,
            metadata={"params": ckks_params.name},
        ))
    if sink.tfhe_traces:
        workloads.append(Workload(
            name="hybrid.tfhe", scheme="tfhe", traces=sink.tfhe_traces,
            metadata={"params": tfhe_params.name},
        ))
    if sink.conversion_traces:
        workloads.append(Workload(
            name="hybrid.conversion", scheme="conversion",
            traces=sink.conversion_traces,
            metadata={"extractions": sink.extractions},
        ))
    return workloads


def hybrid_kernel_histogram(workloads) -> Dict[tuple, int]:
    """Invocation histogram over workloads: ``(kind, N, inner) -> count``.

    Counts kernel invocations (``count`` x step ``repeat``), keyed by the
    kernel kind's value, polynomial length, and inner depth.  Two workload
    lists describing the same hardware work in a different order — e.g. the
    lowering of a planned program versus a hand-built cost entry — produce
    equal histograms, which is what the reconciliation tests assert.
    """
    histogram: Dict[tuple, int] = {}
    for workload in workloads:
        for trace in workload.traces:
            for step in trace.steps:
                for kernel in step.kernels:
                    key = (kernel.kind.value, kernel.poly_length, kernel.inner)
                    histogram[key] = histogram.get(key, 0) + kernel.count * step.repeat
    return histogram


def hybrid_cycle_estimate(program, params=None, config=None,
                          switch_penalty_cycles: float = 0.0):
    """Co-scheduled latency estimate of a hybrid program on Trinity.

    Lowers the program with :func:`lower_hybrid_to_workloads` and feeds the
    scheme-grouped workloads to
    :meth:`~repro.core.scheduler.WorkloadScheduler.run_interleaved`, so the
    CKKS, TFHE and conversion phases overlap on the shared units exactly the
    way Section IV-K schedules multi-scheme kernel streams.  Returns the
    :class:`~repro.core.scheduler.CoScheduleReport`.
    """
    from ...core.config import DEFAULT_TRINITY_CONFIG
    from ...core.scheduler import WorkloadScheduler

    config = DEFAULT_TRINITY_CONFIG if config is None else config
    scheduler = WorkloadScheduler(config, switch_penalty_cycles=switch_penalty_cycles)
    workloads = lower_hybrid_to_workloads(program, params=params)
    return scheduler.run_interleaved(workloads)


def trinity_cycle_estimate(program, params=None, config=None):
    """Latency estimate of the program on the Trinity model.

    Returns the simulator's :class:`~repro.core.simulator.PerformanceReport`
    for the lowered trace stream under the CKKS mapping policy.
    """
    from ...core.config import DEFAULT_TRINITY_CONFIG
    from ...core.mapping import select_mapping
    from ...core.simulator import TrinitySimulator

    config = DEFAULT_TRINITY_CONFIG if config is None else config
    simulator = TrinitySimulator(config)
    traces = lower_to_traces(program, params=params)
    return simulator.run_many(traces, mapping=select_mapping("ckks", config))
