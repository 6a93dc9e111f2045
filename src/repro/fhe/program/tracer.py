"""Operator-overloaded tracing front-end for :class:`HEProgram`.

Users describe a homomorphic computation on lazy handles instead of driving
the eager evaluator call by call::

    trace = HETrace(params)
    x = trace.input("x")
    y = (x * w_plain + b_plain).rotate(4)
    y = y + y.conjugate()
    trace.output("y", y)

Nothing executes during tracing: each operation appends a typed node to the
underlying :class:`~repro.fhe.program.ir.HEProgram` carrying the level and
scale metadata the planner needs.  Handles mirror the evaluator's operation
set (``+``/``-``/``*`` with ciphertext handles, :class:`CKKSPlaintext`
objects, or integer scalars, plus ``rotate``/``conjugate``/``rescale``/
``mod_down_to``/``inner_sum``).  Level and scale *mismatches are allowed at
trace time* — the planner's alignment pass inserts the ``mod_down``/
``rescale`` waterline instead of the caller bookkeeping them (the eager
evaluator's ``_check_levels`` discipline).

Hybrid programs mix schemes: :meth:`HEHandle.extract_lwe` crosses into the
TFHE domain (a :class:`LWEHandle`), LWE handles carry linear arithmetic,
cross-scheme keyswitches, and programmable bootstraps, and
:meth:`HETrace.repack` crosses back to CKKS.  Handles carry a ``scheme``
tag and LWE handles additionally a key ``kind`` (``"ckks"`` for
dimension-N ciphertexts under the CKKS coefficient key, ``"small"`` for
the TFHE LWE key), so scheme and key mismatches are *type errors at trace
time* — mixing an :class:`HEHandle` into LWE arithmetic, bootstrapping a
ciphertext that is still under the CKKS key, or repacking small-key LWEs
all raise before a program is ever planned.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..ckks.ciphertext import CKKSPlaintext
from .ir import HENode, HEProgram

__all__ = ["HEHandle", "LWEHandle", "HETrace"]


class HEHandle:
    """A lazy ciphertext value: one node of the traced program."""

    __slots__ = ("trace", "id")

    #: Scheme tag of the handle's value (mirrored by ``HENode.scheme``).
    scheme = "ckks"

    def __init__(self, trace: "HETrace", node_id: int):
        self.trace = trace
        self.id = node_id

    # -- metadata -----------------------------------------------------------
    @property
    def _node(self) -> HENode:
        return self.trace.program.node(self.id)

    @property
    def level(self) -> int:
        return self._node.level

    @property
    def scale(self) -> float:
        return self._node.scale

    def _emit(self, op, args, attrs=None) -> "HEHandle":
        return HEHandle(self.trace, self.trace.program.emit(op, args, attrs))

    def _binary(self, other, op: str, plain_op: "str | None" = None):
        """``self <op> other`` for a ciphertext handle, ``plain_op`` for an
        encoded plaintext (level and scale follow the op's rule)."""
        if isinstance(other, LWEHandle):
            raise TypeError(
                "cannot mix a CKKS handle with a TFHE (LWE) handle; cross "
                "the scheme boundary explicitly with extract_lwe/repack")
        if isinstance(other, HEHandle):
            self.trace._check_same(other)
            return self._emit(op, (self.id, other.id))
        if plain_op is not None and isinstance(other, CKKSPlaintext):
            return self._emit(plain_op, (self.id,), {"plaintext": other})
        return NotImplemented

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other) -> "HEHandle":
        return self._binary(other, "add", "add_plain")

    __radd__ = __add__

    def __sub__(self, other) -> "HEHandle":
        return self._binary(other, "sub")

    def __neg__(self) -> "HEHandle":
        return self._emit("negate", (self.id,))

    def __mul__(self, other) -> "HEHandle":
        if isinstance(other, int):
            return self._emit("multiply_scalar", (self.id,), {"scalar": other})
        return self._binary(other, "multiply", "multiply_plain")

    __rmul__ = __mul__

    def square(self) -> "HEHandle":
        return self * self

    # -- rotations ----------------------------------------------------------
    def rotate(self, steps: int) -> "HEHandle":
        """Slot rotation by ``steps`` (0 is the identity and adds no node)."""
        if steps == 0:
            return self
        return self._emit("rotate", (self.id,), {"steps": steps})

    def conjugate(self) -> "HEHandle":
        return self._emit("conjugate", (self.id,))

    # -- level / scale management -------------------------------------------
    def rescale(self) -> "HEHandle":
        return self._emit("rescale", (self.id,))

    def mod_down_to(self, level: int) -> "HEHandle":
        if level == self.level:
            return self
        return self._emit("mod_down", (self.id,), {"level": level})

    # -- composite helpers ----------------------------------------------------
    def inner_sum(self, count: int) -> "HEHandle":
        """Sum ``count`` adjacent slots into every slot (binary rotation
        decomposition — the same structure as ``CKKSEvaluator.inner_sum``)."""
        if count < 1:
            raise ValueError("count must be positive")
        result = None
        processed = 0
        acc = self
        bit = 1
        while bit <= count:
            if count & bit:
                if result is None:
                    result = acc
                else:
                    result = result + acc.rotate(processed)
                processed += bit
            if (bit << 1) <= count:
                acc = acc + acc.rotate(bit)
            bit <<= 1
        return result

    # -- scheme switching ------------------------------------------------------
    def extract_lwe(self, index: int) -> "LWEHandle":
        """Cross into the TFHE domain: extract polynomial coefficient
        ``index`` as an LWE ciphertext under the CKKS coefficient key.

        The planner mod-downs the source to level 0 (SampleExtract reads
        the single-limb representation); the LWE value keeps this handle's
        scale as its encoding factor.
        """
        n = self.trace.params.ring_degree
        if not 0 <= index < n:
            raise ValueError(f"extract index {index} out of range [0, {n})")
        node_id = self.trace.program.emit(
            "ckks_to_tfhe", (self.id,), {"index": index, "lwe": "ckks"})
        return LWEHandle(self.trace, node_id, kind="ckks")

    def extract_lwes(self, nslot: int, stride: "int | None" = None
                     ) -> "list[LWEHandle]":
        """Extract ``nslot`` coefficients at ``stride`` spacing (defaults to
        ``N / nslot``, the positions :meth:`HETrace.repack` later fills)."""
        n = self.trace.params.ring_degree
        stride = (n // nslot) if stride is None else stride
        return [self.extract_lwe(i * stride) for i in range(nslot)]


class LWEHandle:
    """A lazy LWE (TFHE) scalar value: one node of the traced program.

    ``kind`` names the key the ciphertext is under: ``"ckks"`` for
    dimension-N ciphertexts keyed by the CKKS secret's coefficients (what
    extraction produces and repacking consumes), ``"small"`` for the TFHE
    LWE key that bootstrapping operates on.  Operations check kinds at
    trace time, so a PBS on a CKKS-keyed ciphertext (or a repack of
    small-keyed ones) fails during tracing, not execution.
    """

    __slots__ = ("trace", "id", "kind")

    scheme = "tfhe"

    def __init__(self, trace: "HETrace", node_id: int, kind: str):
        if kind not in ("ckks", "small"):
            raise ValueError(f"unknown LWE key kind {kind!r}")
        self.trace = trace
        self.id = node_id
        self.kind = kind

    # -- metadata -----------------------------------------------------------
    @property
    def _node(self) -> HENode:
        return self.trace.program.node(self.id)

    @property
    def scale(self) -> float:
        """The encoding factor of the LWE message (phase ~ scale * m)."""
        return self._node.scale

    def _emit(self, op, args, attrs=None, kind=None) -> "LWEHandle":
        kind = self.kind if kind is None else kind
        node_id = self.trace.program.emit(op, args, {**(attrs or {}), "lwe": kind})
        return LWEHandle(self.trace, node_id, kind=kind)

    def _check_compatible(self, other, op: str) -> "LWEHandle":
        if isinstance(other, HEHandle):
            raise TypeError(
                f"cannot {op} a CKKS handle with a TFHE (LWE) handle; cross "
                f"the scheme boundary explicitly with extract_lwe/repack")
        if not isinstance(other, LWEHandle):
            raise TypeError(f"cannot {op} LWEHandle and {type(other).__name__}")
        self.trace._check_same(other)
        if other.kind != self.kind:
            raise TypeError(
                f"cannot {op} LWE ciphertexts under different keys "
                f"({self.kind!r} vs {other.kind!r}); keyswitch first")
        if not 0.99 < (self.scale / other.scale) < 1.01:
            raise ValueError(
                f"cannot {op} LWE ciphertexts with different encoding "
                f"factors ({self.scale:g} vs {other.scale:g})")
        return other

    # -- linear arithmetic (the free LWE homomorphisms) ---------------------
    def __add__(self, other) -> "LWEHandle":
        other = self._check_compatible(other, "add")
        return self._emit("lwe_add", (self.id, other.id))

    def __sub__(self, other) -> "LWEHandle":
        other = self._check_compatible(other, "subtract")
        return self._emit("lwe_sub", (self.id, other.id))

    def __neg__(self) -> "LWEHandle":
        return self._emit("lwe_negate", (self.id,))

    def scalar_mul(self, scalar: int) -> "LWEHandle":
        """Multiply the message (and its encoding factor) by an integer."""
        if not isinstance(scalar, int):
            raise TypeError("LWE scalar multiplication takes an integer")
        return self._emit("lwe_scalar_mul", (self.id,), {"scalar": scalar})

    def add_encoded(self, value: int) -> "LWEHandle":
        """Add an already-encoded plaintext constant to the message."""
        return self._emit("lwe_add_const", (self.id,), {"value": int(value)})

    # -- cross-scheme keyswitches -------------------------------------------
    def keyswitch_to_tfhe(self) -> "LWEHandle":
        """Switch a CKKS-keyed LWE onto the small TFHE key (and the TFHE
        modulus), scaling the encoding factor by ``q_tfhe / q0``."""
        if self.kind != "ckks":
            raise TypeError("keyswitch_to_tfhe expects a CKKS-keyed LWE "
                            f"(got kind {self.kind!r})")
        self.trace._require_tfhe("keyswitch_to_tfhe")
        return self._emit("lwe_keyswitch", (self.id,), {"direction": "c2t"},
                          kind="small")

    def keyswitch_to_ckks(self) -> "LWEHandle":
        """Switch a small-keyed LWE back onto the CKKS coefficient key (and
        the level-0 CKKS modulus) so it can be repacked."""
        if self.kind != "small":
            raise TypeError("keyswitch_to_ckks expects a small-keyed LWE "
                            f"(got kind {self.kind!r})")
        self.trace._require_tfhe("keyswitch_to_ckks")
        return self._emit("lwe_keyswitch", (self.id,), {"direction": "t2c"},
                          kind="ckks")

    # -- bootstrapping ------------------------------------------------------
    def pbs(self, fn: Callable[[int], int]) -> "LWEHandle":
        """Programmable bootstrap: apply the lookup table of ``fn`` (a map
        over ``[0, t)`` messages) while refreshing noise."""
        if self.kind != "small":
            raise TypeError("pbs expects a small-keyed LWE ciphertext; "
                            "keyswitch_to_tfhe first")
        self.trace._require_tfhe("pbs")
        return self._emit("pbs", (self.id,), {"fn": fn})

    def bootstrap_sign(self, amplitude: int) -> "LWEHandle":
        """Gate bootstrap with a constant test vector: the result encodes
        ``2 * amplitude`` when the input phase is in ``[0, q/2)`` and ``0``
        otherwise — i.e. a threshold bit with encoding factor
        ``2 * amplitude``."""
        if self.kind != "small":
            raise TypeError("bootstrap_sign expects a small-keyed LWE "
                            "ciphertext; keyswitch_to_tfhe first")
        self.trace._require_tfhe("bootstrap_sign")
        if amplitude <= 0:
            raise ValueError("amplitude must be positive")
        return self._emit("gate_bootstrap", (self.id,),
                          {"amplitude": int(amplitude)})


class HETrace:
    """Builds one :class:`HEProgram` through lazy handle values.

    ``tfhe_params`` is required for traces that cross into the TFHE domain
    (keyswitches and bootstraps need the TFHE parameter set); pure-CKKS
    traces leave it ``None``.
    """

    def __init__(self, params, program: "HEProgram | None" = None,
                 tfhe_params=None):
        self.params = params
        self.program = (HEProgram(params, tfhe_params=tfhe_params)
                        if program is None else program)
        if tfhe_params is not None:
            self.program.tfhe_params = tfhe_params

    @property
    def tfhe_params(self):
        return self.program.tfhe_params

    def _require_tfhe(self, op: str):
        tfhe = self.program.tfhe_params
        if tfhe is None:
            raise ValueError(
                f"{op} needs TFHE parameters; construct the trace with "
                f"HETrace(params, tfhe_params=...)")
        return tfhe

    def input(self, name: str, level: "int | None" = None,
              scale: "float | None" = None) -> HEHandle:
        """Declare a ciphertext input (bound at execution time by name)."""
        level = self.params.max_level if level is None else level
        scale = float(self.params.scale) if scale is None else float(scale)
        return HEHandle(self, self.program.add_input(name, level, scale))

    def input_lwe(self, name: str, scale: float,
                  kind: str = "small") -> LWEHandle:
        """Declare an LWE (TFHE) ciphertext input of key kind ``kind``."""
        if kind not in ("ckks", "small"):
            raise ValueError(f"unknown LWE key kind {kind!r}")
        if kind == "small":
            self._require_tfhe("input_lwe")
        node_id = self.program.add_input(name, level=0, scale=float(scale),
                                         lwe=kind)
        return LWEHandle(self, node_id, kind=kind)

    def repack(self, lwes: "Sequence[LWEHandle]") -> HEHandle:
        """Cross back into CKKS: repack ``nslot`` CKKS-keyed LWE handles
        into one level-0 CKKS ciphertext (Ring Embedding + PackLWEs +
        Field Trace).  The j-th message lands at coefficient
        ``j * N / nslot``; the output scale is the common LWE encoding
        factor, so decryption divides it back out."""
        lwes = list(lwes)
        if not lwes:
            raise ValueError("cannot repack an empty list of LWE handles")
        nslot = len(lwes)
        if nslot & (nslot - 1):
            raise ValueError("the number of repacked LWEs must be a power of two")
        for lwe in lwes:
            if not isinstance(lwe, LWEHandle):
                raise TypeError("repack takes LWE handles, got "
                                f"{type(lwe).__name__}")
            self._check_same(lwe)
            if lwe.kind != "ckks":
                raise TypeError(
                    "repack expects CKKS-keyed LWE handles; apply "
                    "keyswitch_to_ckks to small-keyed values first")
        scale = lwes[0].scale
        for lwe in lwes[1:]:
            if not 0.99 < (lwe.scale / scale) < 1.01:
                raise ValueError(
                    "repacked LWE handles must share one encoding factor "
                    f"({scale:g} vs {lwe.scale:g})")
        return HEHandle(self, self.program.emit(
            "tfhe_to_ckks", tuple(lwe.id for lwe in lwes)))

    def output(self, name: str, handle) -> None:
        """Mark a handle (CKKS or LWE) as a named program output."""
        if not isinstance(handle, (HEHandle, LWEHandle)):
            raise TypeError(f"cannot output a {type(handle).__name__}")
        self._check_same(handle)
        self.program.set_output(name, handle.id)

    def _check_same(self, handle) -> None:
        if handle.trace.program is not self.program:
            raise ValueError("cannot mix handles from different traces")
