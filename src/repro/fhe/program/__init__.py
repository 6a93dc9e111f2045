"""``repro.fhe.program`` — lazy homomorphic computation graphs.

The program-level front-end of the FHE layer: trace a computation on
operator-overloaded handles into a typed DAG, let the pass pipeline plan
execution (level/scale alignment, domain residency, hoist fusion,
multi-ciphertext batching), then either execute it functionally on the
vectorized backend or lower it to the ``HomomorphicOp`` stream the Trinity
cost model consumes — one trace, both worlds::

    from repro.fhe.program import HETrace, ProgramExecutor, plan_program

    trace = HETrace(params)
    x = trace.input("x")
    y = (x * weights + bias).rotate(4)
    trace.output("y", y + y.conjugate())

    planned = plan_program(trace.program)
    result = ProgramExecutor(evaluator).run(planned, {"x": ciphertext})["y"]

    from repro.fhe.program import operation_histogram, trinity_cycle_estimate
    operation_histogram(planned)          # Table II op counts
    trinity_cycle_estimate(planned)       # cycles on the hardware model

The eager :class:`~repro.fhe.ckks.CKKSEvaluator` remains the bit-exact
reference executor: ``ProgramExecutor.run_eager`` runs the same program as
a plain call sequence, and the planned path is gated bit-exact against it.

Programs may be *hybrid*: :class:`LWEHandle` values cross into the TFHE
domain through ``extract_lwe``/``keyswitch_to_tfhe``, bootstrap there, and
return through ``keyswitch_to_ckks``/``repack``.  Hybrid programs execute
through the same two executor paths (construct :class:`ProgramExecutor`
with a ``TFHEContext`` and a ``SchemeBridge``) and lower to scheme-grouped
workloads for the interleaved Trinity scheduler via
:func:`lower_hybrid_to_workloads` / :func:`hybrid_cycle_estimate`.

Adding a node kind is two edits: one :class:`~repro.fhe.program.ops.OpSpec`
in ``ops.OP_TABLE`` (arity, required attributes, level/scale rule, alignment
and residency class, the eager ``run`` callable, the lowering, the
evaluation keys it needs) and one handle method in ``tracer.py`` that emits
it.  Validation, the waterline, residency planning, execution, lowering and
key planning read the table; ``tests/test_program.py::TestOpTable`` then
asks for the smallest program containing the new kind (``SMALLEST``) and
runs it planned == eager, and the ROADMAP residency table is regenerated
with ``ops.residency_table()``.
"""

from .cache import LRUCache
from .ir import (
    HENode,
    HEProgram,
    SCHEME_SWITCH_OPS,
    TFHE_OPS,
    op_scheme,
)
from .tracer import HEHandle, HETrace, LWEHandle
from .passes import PlannedProgram, plan_program
from .executor import ProgramExecutor
from .lowering import (
    conversion_counts,
    hybrid_cycle_estimate,
    hybrid_kernel_histogram,
    lower_hybrid_to_workloads,
    lower_to_operations,
    lower_to_traces,
    operation_histogram,
    trinity_cycle_estimate,
)

__all__ = [
    "LRUCache",
    "HENode",
    "HEProgram",
    "TFHE_OPS",
    "SCHEME_SWITCH_OPS",
    "op_scheme",
    "HEHandle",
    "LWEHandle",
    "HETrace",
    "PlannedProgram",
    "plan_program",
    "ProgramExecutor",
    "lower_to_operations",
    "operation_histogram",
    "conversion_counts",
    "lower_to_traces",
    "trinity_cycle_estimate",
    "lower_hybrid_to_workloads",
    "hybrid_kernel_histogram",
    "hybrid_cycle_estimate",
]
