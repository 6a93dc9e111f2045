"""Diagonal-encoded BSGS plaintext-matrix x ciphertext products.

This is the workhorse of the paper's rotation-heavy workloads — encrypted
matrix-vector products for inference and the staged CoeffToSlot/SlotToCoeff
transforms of bootstrapping all reduce to it.  A dimension-``d`` matrix ``M``
acts on a slot vector ``x`` through its generalized diagonals,

    (M x)[k] = sum_d diag_d[k] * rot_d(x)[k],   diag_d[k] = M[k][(k+d) % dim],

and the baby-step/giant-step (Halevi-Shoup) regrouping

    M x = sum_j rot_{j*n1}( sum_i rot_{-j*n1}(diag_{j*n1+i}) ⊙ rot_i(x) )

needs only ``n1 - 1`` *hoisted* baby rotations (all of the same input
ciphertext — one shared Decompose+BConv+NTT via
:meth:`~repro.fhe.ckks.evaluator.CKKSEvaluator.rotate_hoisted`) plus
``n2 - 1`` outer giant rotations, instead of one full HRotate per diagonal.
The inner products are pointwise PMults on evaluation-resident ciphertexts.
The BSGS split is taken from :func:`repro.fhe.ckks.bootstrap.
linear_transform_plan`, so the functional rotation counts match the cost
model's ``(baby-1) hoisted + (giant-1) outer`` HRotate accounting exactly
(cross-checked by the test suite).

Vectors shorter than the slot count are handled by *tiling*: a dimension-``d``
transform (``d`` a power of two dividing the slot count) operates on the
vector replicated ``slots/d`` times, which makes full-slot rotations coincide
with length-``d`` cyclic rotations.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .bootstrap import LinearTransformPlan, linear_transform_plan
from .ciphertext import CKKSCiphertext, CKKSPlaintext

__all__ = ["BSGSLinearTransform"]


class BSGSLinearTransform:
    """A plaintext matrix, diagonal-encoded and BSGS-split for encrypted use.

    ``diagonals`` maps diagonal index ``d`` (``0 <= d < dimension``) to the
    length-``dimension`` diagonal vector; missing entries are treated as
    zero diagonals and skipped.  Plaintexts are encoded once at
    construction (each pre-rotated by its giant step), so :meth:`apply` does
    no encoding work.
    """

    def __init__(self, encoder, diagonals: Dict[int, Sequence[complex]],
                 dimension: int, level: "int | None" = None,
                 scale: "float | None" = None,
                 plan_cache_capacity: int = 16):
        params = encoder.params
        slots = params.slots
        if dimension < 1 or dimension & (dimension - 1):
            raise ValueError("dimension must be a positive power of two")
        if slots % dimension:
            raise ValueError(
                f"dimension {dimension} must divide the slot count {slots}"
            )
        for d, diag in diagonals.items():
            if not 0 <= d < dimension:
                raise ValueError(f"diagonal index {d} outside [0, {dimension})")
            if len(diag) != dimension:
                raise ValueError(f"diagonal {d} has {len(diag)} != {dimension} entries")
        self.params = params
        self.dimension = dimension
        self.level = params.max_level if level is None else level
        #: The cost-model view of this transform — the same object the
        #: bootstrapping planner builds, so rotation accounting is shared.
        #: Sparse transforms (the staged bootstrapping FFT factors) pass
        #: their present diagonal set, so the plan charges only the baby/
        #: giant rotations that survive dead-code elimination.
        self.plan: LinearTransformPlan = linear_transform_plan(
            slots, self.level, diagonals=dimension,
            active_diagonals=tuple(sorted(diagonals)),
        )
        self.last_stats: Dict[str, int] = {}
        #: Planned programs cached per input level (see :meth:`apply`),
        #: LRU-bounded so a transform applied across many levels (the
        #: bootstrapping FFT factors, or a long-lived serving process) holds
        #: at most ``plan_cache_capacity`` plans.  ``_programs.stats()``
        #: exposes hit/miss/eviction counters.
        from ..program.cache import LRUCache

        self._programs = LRUCache(plan_cache_capacity)
        n1 = self.plan.baby_steps
        n2 = self.plan.giant_steps
        repeat = slots // dimension
        self._plaintexts: List[List["CKKSPlaintext | None"]] = []
        for j in range(n2):
            row: List["CKKSPlaintext | None"] = []
            for i in range(n1):
                d = j * n1 + i
                diag = diagonals.get(d)
                if d >= dimension or diag is None:
                    row.append(None)
                    continue
                # Pre-rotate by the giant step so the outer rotation can be
                # applied to the whole inner sum, then tile to full slots.
                shifted = [
                    diag[(k - j * n1) % dimension] for k in range(dimension)
                ]
                row.append(
                    encoder.encode(list(shifted) * repeat, level=self.level,
                                   scale=scale)
                )
            self._plaintexts.append(row)

    @classmethod
    def from_matrix(cls, encoder, matrix: Sequence[Sequence[complex]],
                    level: "int | None" = None,
                    scale: "float | None" = None) -> "BSGSLinearTransform":
        """Build the transform from a dense square matrix (rows of rows)."""
        dimension = len(matrix)
        for row in matrix:
            if len(row) != dimension:
                raise ValueError("matrix must be square")
        diagonals = {
            d: [matrix[k][(k + d) % dimension] for k in range(dimension)]
            for d in range(dimension)
        }
        return cls(encoder, diagonals, dimension, level=level, scale=scale)

    # -- rotation-key management ------------------------------------------------
    def rotation_steps(self) -> Tuple[List[int], List[int]]:
        """The (baby, giant) rotation steps whose Galois keys :meth:`apply` uses."""
        n1 = self.plan.baby_steps
        n2 = self.plan.giant_steps
        return list(range(1, n1)), [j * n1 for j in range(1, n2)]

    def generate_rotation_keys(self, keys, level: "int | None" = None):
        """Materialize exactly the BSGS-needed Galois keys on ``keys``.

        Only ``(n1 - 1) + (n2 - 1)`` keys are generated — not one per
        diagonal — and repeated calls are free (keys cache on the key set).
        """
        baby, giant = self.rotation_steps()
        return keys.ensure_rotation_keys(baby + giant, self.level if level is None else level)

    # -- program tracing ---------------------------------------------------------
    def trace(self, handle):
        """Trace ``M @ x`` into ``handle``'s program: baby rotations of one
        source (one fused hoist group after planning), per-giant-block
        plaintext MACs (one stacked dispatch each after batching), and one
        rotation per non-empty giant block.  Returns the result handle."""
        n1 = self.plan.baby_steps
        n2 = self.plan.giant_steps
        babies = [handle.rotate(i) for i in range(n1)]
        result = None
        for j in range(n2):
            inner = None
            for i in range(n1):
                plaintext = self._plaintexts[j][i]
                if plaintext is None:
                    continue
                term = babies[i] * plaintext
                inner = term if inner is None else inner + term
            if inner is None:
                continue
            if j:
                inner = inner.rotate(j * n1)
            result = inner if result is None else result + inner
        if result is None:
            raise ValueError("transform has no non-zero diagonals")
        return result

    def _planned_program(self, level: int):
        """The traced+planned program for an input at ``level`` (cached)."""
        def build():
            from ..program import HETrace, plan_program

            trace = HETrace(self.params)
            x = trace.input("x", level=level)
            trace.output("y", self.trace(x))
            return plan_program(trace.program)

        return self._programs.get_or_create(level, build)

    # -- evaluation -------------------------------------------------------------
    def apply(self, evaluator, ciphertext: CKKSCiphertext) -> CKKSCiphertext:
        """Encrypted ``M @ x`` through the program front-end.

        The transform is traced into an :class:`~repro.fhe.program.HEProgram`
        (once per input level, then cached), planned — hoist fusion shares
        one ``hoist_decompose`` across all baby rotations, residency
        planning keeps the pipeline NTT-resident, batching runs each giant
        block's PMult/HAdd group as one stacked dispatch — and executed.
        Bit-identical to the eager node sequence
        (:meth:`~repro.fhe.program.ProgramExecutor.run_eager` over
        :meth:`trace`).

        ``ciphertext`` must hold the input vector tiled ``slots/dimension``
        times.  The result carries scale ``ciphertext.scale * pt_scale`` and
        is evaluation-resident; callers typically rescale it next.
        ``last_stats`` records the rotation counts actually performed, which
        the tests cross-check against :attr:`plan`.
        """
        from ..program import ProgramExecutor

        planned = self._planned_program(ciphertext.level)
        result = ProgramExecutor(evaluator).run(planned, {"x": ciphertext})["y"]
        self.last_stats = self._stats_from(planned.stats)
        return result

    def _stats_from(self, plan_stats: Dict[str, int]) -> Dict[str, int]:
        """BSGS-shaped view of the planner statistics: the baby rotations are
        the ones whose hoist the planner shares (they rotate the one traced
        source), the giant rotations each hoist their own block sum."""
        n1 = self.plan.baby_steps
        active = self.plan.active_diagonals
        baby_rotations = (
            len({d % n1 for d in active} - {0}) if active is not None else n1 - 1
        )
        rotations = plan_stats["rotations"]
        hoisted = min(baby_rotations, rotations)
        return {
            "hoisted_rotations": hoisted,
            "outer_rotations": rotations - hoisted,
            "rotations": rotations,
            "plain_multiplies": plan_stats["plain_multiplies"],
        }
