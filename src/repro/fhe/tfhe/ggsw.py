"""GGSW ciphertexts, gadget decomposition, and the External Product.

A GGSW ciphertext of a (small) message ``m`` is a matrix of
``(k + 1) * l_b`` GLWE ciphertexts: row ``(i, j)`` encrypts
``-m * S_i * g_j`` for the mask rows (``i < k``) and ``m * g_j`` for the body
rows (``i = k``), where ``g_j = q / B^(j+1)`` are the gadget factors.

The **External Product** (the core kernel of TFHE blind rotation, Algorithm 2
lines 7-10) multiplies a GLWE ciphertext by a GGSW ciphertext: decompose each
GLWE component into ``l_b`` digits, then multiply-accumulate the digits
against the GGSW rows.  In hardware this is ``(k+1) * l_b`` NTTs plus a MAC
reduction — exactly the kernel split the Trinity CU balances.

:func:`external_product` and :func:`cmux` here are the *list-level* API: one
GLWE in, one GLWE out, nothing cached, the GGSW rows transformed on every
call.  Bootstrapping does not go through them — blind rotation keeps a whole
wave in one backend store against an evaluation-domain key handle (see
:func:`repro.fhe.tfhe.pbs.blind_rotate_wave`) — and the tests use them as
the independent reference that loop must match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..backend import active_backend
from ..params import TFHEParameters
from ..polynomial import _ntt_context
from ..rns import RNSPolynomial
from .glwe import GLWECiphertext, GLWEContext

__all__ = [
    "gadget_factors", "GGSWCiphertext", "GGSWContext", "ggsw_coefficient_rows",
    "external_product", "cmux",
]


def gadget_factors(modulus: int, base: int, levels: int) -> List[int]:
    """The gadget vector ``g_j = round(q / B^(j+1))`` for ``j = 0..levels-1``."""
    if base < 2:
        raise ValueError("decomposition base must be >= 2")
    return [modulus // (base ** (j + 1)) for j in range(levels)]


@dataclass
class GGSWCiphertext:
    """A GGSW ciphertext: ``(k+1) * l_b`` GLWE rows (grouped per component)."""

    rows: List[List[GLWECiphertext]]   # rows[i][j]: component i, level j
    base: int
    levels: int

    @property
    def glwe_dimension(self) -> int:
        return len(self.rows) - 1

    @property
    def ring_degree(self) -> int:
        return self.rows[0][0].ring_degree

    @property
    def modulus(self) -> int:
        return self.rows[0][0].modulus


class GGSWContext:
    """Generates GGSW encryptions under a GLWE secret (used for bsk rows)."""

    def __init__(self, params: TFHEParameters, glwe_context: GLWEContext):
        self.params = params
        self.glwe_context = glwe_context

    def encrypt_scalar(self, message: int, noise_stddev: float | None = None) -> GGSWCiphertext:
        """GGSW encryption of a small scalar (typically a secret key bit)."""
        return self.encrypt_polynomial(
            RNSPolynomial.from_integer_coefficients(
                self.params.polynomial_size, self.glwe_context.basis, [message]),
            noise_stddev=noise_stddev,
        )

    def encrypt_polynomial(self, message: RNSPolynomial,
                           noise_stddev: float | None = None) -> GGSWCiphertext:
        """GGSW encryption of a small polynomial message.

        Row ``(i, j)`` is an encryption of zero with ``m * g_j`` added to
        component ``i``: its phase is ``-m * S_i * g_j`` for a mask
        component (phase = B - sum A_u S_u) and ``m * g_j`` for the body.
        """
        params = self.params
        k = params.glwe_dimension
        base = params.bsk_base
        levels = params.bsk_levels
        zero = RNSPolynomial(params.polynomial_size, self.glwe_context.basis)
        scaled = [message * factor
                  for factor in gadget_factors(params.modulus, base, levels)]
        rows: List[List[GLWECiphertext]] = []
        for i in range(k + 1):
            component_rows = []
            for payload in scaled:
                zero_enc = self.glwe_context.encrypt(zero, noise_stddev=noise_stddev)
                components = [zero] * (k + 1)
                components[i] = payload
                component_rows.append(
                    zero_enc + GLWECiphertext.from_components(components))
            rows.append(component_rows)
        return GGSWCiphertext(rows=rows, base=base, levels=levels)


def ggsw_coefficient_rows(ggsw: GGSWCiphertext) -> List[List[int]]:
    """Every GGSW row component as one coefficient row.

    Row ``(i * levels + j) * (k + 1) + c`` is component ``c`` of GLWE row
    ``(i, j)`` — the digit order of :func:`external_product`, components
    innermost.
    """
    return [
        coefficients
        for component_rows in ggsw.rows
        for row in component_rows
        for coefficients in row.coefficient_rows()
    ]


def external_product(ggsw: GGSWCiphertext, glwe: GLWECiphertext) -> GLWECiphertext:
    """GGSW ⊡ GLWE: returns a GLWE encryption of ``m_ggsw * m_glwe``.

    Runs exactly the workload the hardware model charges: ``(k+1)*l_b``
    forward NTTs of the decomposition digits (one batched dispatch, which
    here also carries the GGSW rows), a MAC reduction over the GGSW rows in
    the evaluation domain, and ``k+1`` inverse NTTs (one batched dispatch).
    Summing in the evaluation domain before the single inverse transform is
    exact, so the result is bit-identical to the per-row convolution
    formulation.
    """
    if ggsw.ring_degree != glwe.ring_degree or ggsw.modulus != glwe.modulus:
        raise ValueError("GGSW and GLWE ciphertexts are incompatible")
    base = ggsw.base
    levels = ggsw.levels
    q = glwe.modulus
    context = _ntt_context(glwe.ring_degree, q)
    backend = active_backend()
    factors = gadget_factors(q, base, levels)
    # Every component in one dispatch, level innermost.
    digit_rows = backend.store_rows(
        backend.gadget_decompose_rows(glwe.store(), q, factors))
    count = len(digit_rows)
    fwd = backend.ntt_forward_batch(
        context, digit_rows + ggsw_coefficient_rows(ggsw)
    )
    # The wave kernel on a wave of one; it returns a store.
    out_rows = backend.external_product_mac(fwd[:count], fwd[count:], 1, q)
    return GLWECiphertext(
        glwe.ring_degree, glwe.basis,
        backend.ntt_inverse_batch(context, out_rows))


def cmux(selector: GGSWCiphertext, when_true: GLWECiphertext,
         when_false: GLWECiphertext) -> GLWECiphertext:
    """Homomorphic multiplexer: ``selector ? when_true : when_false``.

    ``cmux(b, c1, c0) = c0 + b ⊡ (c1 - c0)`` — one external product.  This is
    the per-iteration step of blind rotation.
    """
    return when_false + external_product(selector, when_true - when_false)
