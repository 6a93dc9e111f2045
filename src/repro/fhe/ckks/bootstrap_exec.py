"""Functional packed CKKS bootstrapping as planned :class:`HEProgram`\\ s.

This module executes the pipeline that :mod:`repro.fhe.ckks.bootstrap` only
*prices*: a ciphertext at its last usable level is actually refreshed —

1. **ModRaise** — the exhausted level-0 ciphertext's centred coefficients are
   re-read in the full modulus chain, so the underlying plaintext becomes
   ``p + q0 * I`` for a small integer polynomial ``I``;
2. **CoeffToSlot** — ``c2s_stages`` staged BSGS linear transforms move the
   plaintext *coefficients* into the slots.  The stage matrices are the
   grouped radix-2 butterfly factors of the CKKS special FFT (the decoding
   Vandermonde over the ``5^j`` rotation orbit).  The factorization is
   bit-reversal-free: the middle of the pipeline simply operates on
   bit-reversed coefficients, which the slot-wise EvalMod cannot observe,
   and SlotToCoeff undoes the ordering for free;
3. **EvalMod** — one conjugation splits the packed coefficients into their
   real/imaginary branches, each evaluating a Chebyshev interpolant of the
   scaled sine (and cosine) by Paterson-Stockmeyer, followed by
   ``double_angle_iters`` double-angle rounds — the structure is
   :func:`repro.fhe.ckks.bootstrap.evalmod_structure`, shared verbatim with
   the cost model so the accountings reconcile by construction;
4. **SlotToCoeff** — the inverse staged transforms, with the final
   ``q0 / (2 pi Delta)`` constants folded into the branch-recombination
   plaintexts.

Every stage is a *traced* :class:`~repro.fhe.program.HEProgram` run through
``plan_program``/``ProgramExecutor``: hoist fusion shares one keyswitch
hoist across each stage's baby rotations, dead-code elimination prunes the
baby rotations the sparse stage matrices never touch (and with them the
Galois keys — :meth:`PackedBootstrap.generate_keys` materializes exactly
what :meth:`~repro.fhe.program.PlannedProgram.required_galois_elements`
reports), and the planned execution is bit-exact against the eager
node-by-node reference (``refresh(..., eager=True)``), gated by
``tests/test_bootstrap.py``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

try:  # numpy is an optional extra; the DFT factor matrices need it (as does
    import numpy as np  # the encoder every stage plaintext goes through).
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    np = None

from ..params import CKKSParameters
from ..rns import RNSPolynomial
from .bootstrap import BootstrapPlan, EvalModPlan, evalmod_structure
from .ciphertext import CKKSCiphertext
from .linear_transform import BSGSLinearTransform

__all__ = ["mod_raise", "PackedBootstrap"]


def mod_raise(ciphertext: CKKSCiphertext, params: CKKSParameters,
              target_level: "int | None" = None) -> CKKSCiphertext:
    """Re-read a level-0 ciphertext's coefficients in the chain at ``target_level``.

    The centred representatives of ``(c0, c1)`` modulo ``q0`` are lifted into
    the basis ``C_target``, so over the big modulus the decryption equation
    becomes ``c0 + c1 * s = [p]_{q0} + q0 * I`` with ``|I|`` bounded by
    roughly half the secret's 1-norm — the integer polynomial EvalMod's
    scaled sine removes.  Scale and slot semantics are untouched.
    """
    if ciphertext.level != 0:
        raise ValueError(
            f"mod_raise expects an exhausted level-0 ciphertext, got level "
            f"{ciphertext.level}"
        )
    target_level = params.max_level if target_level is None else target_level
    if target_level < 1:
        raise ValueError("mod_raise needs a target level >= 1")
    basis = params.basis(target_level)
    c0, c1 = (
        RNSPolynomial.from_integer_coefficients(
            params.ring_degree, basis, part.centered_coefficients())
        for part in (ciphertext.c0, ciphertext.c1)
    )
    return CKKSCiphertext(c0=c0, c1=c1, level=target_level, scale=ciphertext.scale)


# ---------------------------------------------------------------------------
# The CKKS special FFT: bit-reversal-free radix-2 butterfly factors
# ---------------------------------------------------------------------------

def _dft_factors(ring_degree: int) -> list:
    """Radix-2 butterfly factors ``F_1 .. F_t`` of the decoding transform.

    With ``n = N/2`` slots and ``V[j, k] = exp(i pi g_j k / N)``
    (``g_j = 5^j mod 2N`` — the rotation-orbit Vandermonde the encoder
    evaluates), the product ``F_1 @ F_2 @ ... @ F_t`` equals ``V`` with
    bit-reversed *columns* (``W = V R^{-1}``): a decimation-in-time FFT
    whose input permutation is absorbed into the pipeline ordering instead
    of a (rotation-hostile) permutation matrix.  Each factor has the three
    generalized diagonals ``{0, +h, -h}`` of a stride-``h`` butterfly, so it
    BSGS-evaluates with a handful of rotations.
    """
    n = ring_degree // 2
    factors = []
    sub = ring_degree                     # sub-ring degree of this stage
    while sub >= 4:
        block = sub // 2                  # butterfly block length in slots
        half = block // 2
        mat = np.zeros((n, n), dtype=np.complex128)
        for base in range(0, n, block):
            for j in range(half):
                twiddle = np.exp(1j * math.pi * (pow(5, j, 2 * sub) % (2 * sub)) / sub)
                r0, r1 = base + j, base + j + half
                mat[r0, r0] = 1.0
                mat[r0, r1] = twiddle
                mat[r1, r0] = 1.0
                mat[r1, r1] = -twiddle
        factors.append(mat)
        sub //= 2
    return factors


def _invert_factor(factor) -> "np.ndarray":
    """Analytic inverse of one butterfly factor (same 3-diagonal sparsity).

    ``(u0, u1) -> (u0 + w u1, u0 - w u1)`` inverts to
    ``u0 = (v0 + v1) / 2``, ``u1 = (v0 - v1) / (2w)`` — computed entry-wise
    from the factor itself so no numerical inversion (and no dense fill-in)
    is involved.
    """
    n = len(factor)
    inverse = np.zeros_like(factor)
    done = np.zeros(n, dtype=bool)
    for r0 in range(n):
        if done[r0]:
            continue
        (cols,) = np.nonzero(factor[r0])
        r1 = int(cols[cols != r0][0])
        twiddle = factor[r0, r1]
        inverse[r0, r0] = 0.5
        inverse[r0, r1] = 0.5
        inverse[r1, r0] = 0.5 / twiddle
        inverse[r1, r1] = -0.5 / twiddle
        done[r0] = done[r1] = True
    return inverse


def _partition(count: int, groups: int) -> List[Tuple[int, int]]:
    """Split ``range(count)`` into ``groups`` contiguous chunks, big-first."""
    base, extra = divmod(count, groups)
    bounds = []
    start = 0
    for g in range(groups):
        size = base + (1 if g < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _matrix_diagonals(mat) -> Dict[int, List[complex]]:
    """Generalized-diagonal view ``{d: [mat[j, (j+d) % n] ...]}`` of ``mat``,
    keeping only diagonals that are numerically present."""
    n = len(mat)
    threshold = 1e-10 * float(np.abs(mat).max())
    rows = np.arange(n)
    diagonals: Dict[int, List[complex]] = {}
    for d in range(n):
        vec = mat[rows, (rows + d) % n]
        if float(np.abs(vec).max()) > threshold:
            diagonals[d] = [complex(v) for v in vec]
    return diagonals


def _chebyshev_monomial(func, radius: float, degree: int):
    """Monomial coefficients of the Chebyshev interpolant of ``func`` on
    ``[-radius, radius]`` (coefficients apply to the raw argument)."""
    from numpy.polynomial import chebyshev, polynomial

    cheb = chebyshev.Chebyshev.interpolate(func, degree,
                                           domain=[-radius, radius])
    mono = cheb.convert(domain=[-radius, radius], kind=polynomial.Polynomial,
                        window=[-radius, radius])
    return [complex(c) for c in mono.coef]


# ---------------------------------------------------------------------------
# Tracing algebra for the shared EvalMod structure
# ---------------------------------------------------------------------------

class _TraceAlgebra:
    """Drives :func:`evalmod_structure` over :class:`HEHandle` values.

    The exact call sequence the counting algebra of
    :class:`~repro.fhe.ckks.bootstrap.EvalModPlan` replays — constants
    become encoded plaintexts (cached per value/scale), ``padd`` constants
    encode at the handle's trace-time scale so the waterline never has to
    insert a rescue rescale.
    """

    def __init__(self, encoder):
        self.encoder = encoder
        self.delta = float(encoder.params.scale)
        self._constants: Dict[tuple, object] = {}

    def _const(self, value, scale: float):
        key = (complex(value), float(scale))
        plaintext = self._constants.get(key)
        if plaintext is None:
            plaintext = self.encoder.encode(
                [complex(value)] * self.encoder.params.slots, scale=scale
            )
            self._constants[key] = plaintext
        return plaintext

    def conjugate(self, h):
        return h.conjugate()

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def rescale(self, h):
        return h.rescale()

    def pmult(self, h, coeff):
        return h * self._const(coeff, self.delta)

    def padd(self, h, coeff):
        return h + self._const(coeff, h.scale)

    def scalar(self, h, k):
        return h * int(k)


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

class PackedBootstrap:
    """Functional fully-packed CKKS bootstrapping over one parameter set.

    Construction precomputes everything data-independent: the grouped FFT
    stage matrices (diagonal-encoded as :class:`BSGSLinearTransform`\\ s with
    the CoeffToSlot normalisation ``pi * Delta / (2^r q0)`` spread across
    the stages), the Chebyshev sine/cosine interpolants (the imaginary
    branch's ``i`` factor folded into its coefficients via
    ``c_k -> c_k (-i)^k``), and the traced+planned stage programs.

    ``integer_bound`` bounds ``|I|`` of the post-ModRaise plaintext
    ``p + q0 * I`` — roughly ``(hamming_weight + 1) / 2 + 1`` for the sparse
    ternary secrets the bootstrappable contexts use; it sets the sine
    approximation radius.

    Use :meth:`generate_keys` (exact planned key set), then :meth:`refresh`
    on a level-0 ciphertext.  :meth:`plan` returns the
    :class:`BootstrapPlan` priced from this instance's exact structure —
    ``tests/test_bootstrap.py`` gates that the traced programs' lowered
    histograms match it stage by stage.
    """

    def __init__(self, encoder, *, c2s_stages: int = 2, s2c_stages: int = 2,
                 sine_degree: int = 15, double_angle_iters: int = 2,
                 integer_bound: int = 4, baby_steps: "int | None" = None,
                 start_level: "int | None" = None):
        if np is None:  # pragma: no cover - numpy-less installs
            raise RuntimeError(
                "PackedBootstrap requires numpy (install the 'numpy' extra): "
                "the FFT stage matrices and the encoder both need it"
            )
        params = encoder.params
        self.encoder = encoder
        self.params = params
        self.start_level = params.max_level if start_level is None else start_level
        slots = params.slots
        depth = slots.bit_length() - 1          # log2(slots) butterfly levels
        for label, stages in (("c2s_stages", c2s_stages), ("s2c_stages", s2c_stages)):
            if not 1 <= stages <= depth:
                raise ValueError(f"{label} must lie in [1, log2(slots) = {depth}]")
        self.c2s_stages = c2s_stages
        self.s2c_stages = s2c_stages
        self.sine_degree = sine_degree
        self.double_angle_iters = double_angle_iters
        self.integer_bound = integer_bound

        delta = float(params.scale)
        q0 = params.moduli[0]
        scaling = 2.0 ** double_angle_iters

        factors = _dft_factors(params.ring_degree)
        inverses = [_invert_factor(f) for f in factors]

        level = self.start_level
        # CoeffToSlot: the inverse factors, top group first, with the
        # normalisation pi * Delta / (2^r * q0) spread evenly across stages.
        fold = (math.pi * delta / (scaling * q0)) ** (1.0 / c2s_stages)
        self.c2s_transforms: List[BSGSLinearTransform] = []
        for lo, hi in _partition(len(factors), c2s_stages):
            # inv(F_a @ ... @ F_b) = inv(F_b) @ ... @ inv(F_a)
            stage = np.eye(len(inverses[0]), dtype=np.complex128)
            for inverse in inverses[lo:hi]:
                stage = inverse @ stage
            self.c2s_transforms.append(BSGSLinearTransform(
                encoder, _matrix_diagonals(fold * stage), slots, level=level,
            ))
            level -= 1

        # EvalMod: Chebyshev interpolants of sin/cos on the ModRaise range.
        radius = 2.0 * math.pi * (integer_bound + delta / q0) / scaling
        sin_coeffs = _chebyshev_monomial(np.sin, radius, sine_degree)
        for k in range(0, len(sin_coeffs), 2):
            sin_coeffs[k] = 0.0               # sine is odd: exact zeros
        cos_degree = sine_degree - (sine_degree % 2)
        cos_coeffs = _chebyshev_monomial(np.cos, radius, cos_degree)
        for k in range(1, len(cos_coeffs), 2):
            cos_coeffs[k] = 0.0               # cosine is even
        # The imaginary branch receives i * theta; composing with the linear
        # map -i * y folds the branch's 1/i into the coefficients for free.
        self.sin_coeffs = sin_coeffs
        self.cos_coeffs = cos_coeffs
        self.sin_coeffs_imag = [c * (-1j) ** k for k, c in enumerate(sin_coeffs)]
        self.cos_coeffs_imag = [c * (-1j) ** k for k, c in enumerate(cos_coeffs)]
        self.recombine = q0 / (2.0 * math.pi * delta)
        self.evalmod_plan = EvalModPlan(
            level=level, sine_degree=sine_degree,
            double_angle_iters=double_angle_iters, baby_steps=baby_steps,
            sin_pattern=tuple(bool(c) for c in sin_coeffs),
            cos_pattern=tuple(bool(c) for c in cos_coeffs),
        )
        self._evalmod_level = level
        level -= self.evalmod_plan.levels_consumed

        # SlotToCoeff: the forward factors, bottom group first.
        self.s2c_transforms: List[BSGSLinearTransform] = []
        bounds = _partition(len(factors), s2c_stages)
        for lo, hi in reversed(bounds):
            stage = np.eye(len(factors[0]), dtype=np.complex128)
            for factor in factors[lo:hi]:
                stage = stage @ factor
            if level < 0:
                raise ValueError(
                    "bootstrap pipeline does not fit the modulus chain; "
                    "raise max_level or shrink the pipeline"
                )
            self.s2c_transforms.append(BSGSLinearTransform(
                encoder, _matrix_diagonals(stage), slots, level=level,
            ))
            level -= 1

        self.end_level = level
        if self.end_level < 1:
            raise ValueError(
                f"bootstrap pipeline consumes {self.start_level - self.end_level} "
                f"levels but only {self.start_level} are available; raise "
                f"max_level or shrink the pipeline"
            )
        self._stages: "List[Tuple[str, object, object]] | None" = None
        #: Planner statistics of the last planned :meth:`refresh`, per stage.
        self.last_stats: Dict[str, Dict[str, int]] = {}

    # -- traced programs -----------------------------------------------------
    def _stage_list(self):
        """``(name, traced HEProgram, PlannedProgram)`` per stage (cached)."""
        if self._stages is None:
            from ..program import HETrace, plan_program

            params = self.params
            stages = []
            level = self.start_level
            for index, transform in enumerate(self.c2s_transforms):
                trace = HETrace(params)
                x = trace.input("x", level=level)
                trace.output("y", transform.trace(x).rescale())
                stages.append((f"c2s_{index}", trace.program,
                               plan_program(trace.program)))
                level -= 1
            trace = HETrace(params)
            x = trace.input("x", level=level)
            algebra = _TraceAlgebra(self.encoder)
            branches = [
                ("add", self.sin_coeffs, self.cos_coeffs, self.recombine),
                ("sub", self.sin_coeffs_imag, self.cos_coeffs_imag,
                 self.recombine * 1j),
            ]
            trace.output("y", evalmod_structure(
                algebra, x, branches, self.evalmod_plan.baby_steps,
                self.double_angle_iters,
            ))
            stages.append(("evalmod", trace.program, plan_program(trace.program)))
            level -= self.evalmod_plan.levels_consumed
            for index, transform in enumerate(self.s2c_transforms):
                trace = HETrace(params)
                x = trace.input("x", level=level)
                trace.output("y", transform.trace(x).rescale())
                stages.append((f"s2c_{index}", trace.program,
                               plan_program(trace.program)))
                level -= 1
            self._stages = stages
        return self._stages

    def stage_programs(self):
        """The planned stage programs as ``(name, PlannedProgram)`` pairs."""
        return [(name, planned) for name, _, planned in self._stage_list()]

    # -- key planning --------------------------------------------------------
    def required_galois_elements(self) -> List[Tuple[int, int]]:
        """Union of every stage plan's ``(galois_element, level)`` needs —
        dead-code elimination has already pruned the unused baby rotations
        of the sparse stage matrices, so this is the minimal key set."""
        needed = set()
        for _, _, planned in self._stage_list():
            needed.update(planned.required_galois_elements())
        return sorted(needed)

    def generate_keys(self, keys):
        """Materialize exactly the Galois keys the planned pipeline uses."""
        return keys.ensure_galois_keys(self.required_galois_elements())

    # -- the cost-model view -------------------------------------------------
    def plan(self) -> BootstrapPlan:
        """The :class:`BootstrapPlan` priced from this exact pipeline.

        Stage diagonal sets and EvalMod coefficient patterns come from the
        instance, so :meth:`BootstrapPlan.stage_operations` reconciles with
        the traced programs' lowered histograms stage by stage.
        """
        return BootstrapPlan(
            ring_degree=self.params.ring_degree,
            start_level=self.start_level,
            levels_consumed=self.start_level - self.end_level,
            sine_degree=self.sine_degree,
            double_angle_iters=self.double_angle_iters,
            slots=self.params.slots,
            baby_steps=self.evalmod_plan.baby_steps,
            c2s_diagonals=tuple(
                tuple(sorted(t.plan.active_diagonals))
                for t in self.c2s_transforms
            ),
            s2c_diagonals=tuple(
                tuple(sorted(t.plan.active_diagonals))
                for t in self.s2c_transforms
            ),
            sin_pattern=self.evalmod_plan.sin_pattern,
            cos_pattern=self.evalmod_plan.cos_pattern,
        )

    def stage_histograms(self) -> List[Tuple[str, Dict[str, int]]]:
        """Lowered Table II histograms of the traced stage programs."""
        from ..program import operation_histogram

        return [
            (name, operation_histogram(planned))
            for name, _, planned in self._stage_list()
        ]

    def trinity_cycle_estimate(self, config=None):
        """Latency estimate of the whole traced bootstrap on the Trinity model."""
        from ...core.config import DEFAULT_TRINITY_CONFIG
        from ...core.mapping import select_mapping
        from ...core.simulator import TrinitySimulator
        from ..program import lower_to_traces

        config = DEFAULT_TRINITY_CONFIG if config is None else config
        traces = []
        for _, _, planned in self._stage_list():
            traces.extend(lower_to_traces(planned, params=self.params))
        simulator = TrinitySimulator(config)
        return simulator.run_many(traces, mapping=select_mapping("ckks", config))

    # -- execution -----------------------------------------------------------
    def refresh(self, evaluator, ciphertext: CKKSCiphertext,
                eager: bool = False) -> CKKSCiphertext:
        """Bootstrap a level-0 ciphertext back to :attr:`end_level`.

        ``eager=True`` runs every stage through the aligned node-by-node
        reference executor (one hoist per rotation, no batching) — the
        bit-exact baseline the planned path is gated against.
        """
        from ..program import ProgramExecutor

        if ciphertext.level != 0:
            raise ValueError(
                f"refresh expects an exhausted level-0 ciphertext, got level "
                f"{ciphertext.level}; mod_down_to(ct, 0) first"
            )
        with evaluator._arith():
            value = mod_raise(ciphertext, self.params, self.start_level)
        executor = ProgramExecutor(evaluator)
        stats: Dict[str, Dict[str, int]] = {}
        for name, traced, planned in self._stage_list():
            if eager:
                value = executor.run_eager(traced, {"x": value})["y"]
            else:
                value = executor.run(planned, {"x": value})["y"]
                stats[name] = dict(planned.stats)
        if not eager:
            self.last_stats = stats
        return value
