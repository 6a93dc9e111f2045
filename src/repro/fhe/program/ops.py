"""The op table: one :class:`OpSpec` per IR node kind.

Every per-op fact is stated here once and *read* by the other layers:
:class:`~repro.fhe.program.ir.HENode` validates arity and required
attributes against it, tracer handles and the waterline pass call the same
level/scale rule (:func:`infer`), the residency pass reads the residency
class, the executor dispatches through ``run``, the lowering maps through
``lower``/``hybrid``, and key planning (:func:`required_keys`) asks ``keys``.
Passes that pattern-match particular ops by design (PMult-MAC fusion, hoist
grouping) still name them; nothing else does.

This module must import on a bare (numpy-less) install and sits below
every other module of the package, so evaluator, TFHE and kernel-flow
modules are imported inside the callables that need them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..ckks.keys import galois_element_for_conjugation, galois_element_for_rotation

__all__ = ["OpSpec", "OP_TABLE", "infer", "required_keys", "residency_table"]


# -- level / scale rules: (program, argument nodes, attrs) -> value ----------

def _arg_level(program, args, attrs):
    return args[0].level


def _arg_scale(program, args, attrs):
    return args[0].scale


def _min_level(program, args, attrs):
    return min(arg.level for arg in args)


def _level_zero(program, args, attrs):
    """LWE values are level-free; scheme switches meet CKKS at level 0."""
    return 0


def _rescale_level(program, args, attrs):
    if args[0].level < 1:
        raise ValueError("cannot rescale a level-0 value")
    return args[0].level - 1


def _mod_down_level(program, args, attrs):
    if attrs["level"] > args[0].level:
        raise ValueError("cannot mod-down to a higher level")
    return attrs["level"]


def _keyswitch_scale(program, args, attrs):
    """Crossing the key boundary also switches modulus: the encoding factor
    follows ``q_tfhe / q0`` (``c2t``) or its inverse (``t2c``)."""
    q0, qt = program.params.moduli[0], program.tfhe_params.modulus
    if attrs["direction"] == "c2t":
        return args[0].scale * qt / q0
    return args[0].scale * q0 / qt


# -- evaluation keys: (node, ring degree) -> requirement tuples ---------------

def _galois_keys(elements: Callable) -> Callable:
    def keys(node, ring_degree):
        return [("galois", element, node.level)
                for element in elements(node, ring_degree) if element != 1]
    return keys


def _repack_elements(node, ring_degree):
    from ..conversion.tfhe_to_ckks import repack_galois_elements

    return repack_galois_elements(ring_degree, len(node.args))


# -- lowering: Table II names and hybrid kernel flows -------------------------

def _table2(name: str) -> Callable:
    return lambda node: ((name, 1),)


def _lower_pbs(sink, node):
    from ...kernels.tfhe_flows import pbs_flow

    sink.tfhe_traces.append(pbs_flow(sink.tfhe_params))


def _lower_gate_bootstrap(sink, node):
    from ...kernels.tfhe_flows import gate_bootstrap_flow

    sink.tfhe_traces.append(gate_bootstrap_flow(sink.tfhe_params))


def _lower_keyswitch(sink, node):
    from ...kernels.conversion_flows import bridge_keyswitch_flow

    sink.tfhe_traces.append(bridge_keyswitch_flow(
        str(node.attrs["direction"]), sink.ckks_params, sink.tfhe_params))


def _lower_repack(sink, node):
    from ...kernels.conversion_flows import tfhe_to_ckks_flow

    sink.conversion_traces.append(tfhe_to_ckks_flow(
        sink.ckks_params, nslot=len(node.args), level=node.level))


def _lower_extract(sink, node):
    sink.extractions += 1         # all extractions share one SampleExtract flow


def _lower_lwe_linear(sink, node):
    """One ``(dim + 1)``-element modular add/scale, aggregated by dimension."""
    dim = (sink.ckks_params.ring_degree if node.attrs.get("lwe") == "ckks"
           else sink.tfhe_params.lwe_dimension)
    sink.linear_by_dim[dim] = sink.linear_by_dim.get(dim, 0) + 1


@dataclass(frozen=True)
class OpSpec:
    """Everything the pipeline knows about one node kind.

    ``run(run_state, node, *argument_values)`` is the eager callable
    (``run_state`` is the executor's per-execution state: ``ev``, ``tfhe``,
    ``bridge``, ``inputs`` and the grouped/hoisted dispatch helpers).
    ``lower(node)`` yields ``(Table II name, count)`` pairs; ``hybrid(sink,
    node)`` adds the node's kernel flow to a hybrid lowering.
    """

    name: str
    doc: str
    scheme: str = "ckks"                    # scheme of the produced value
    consumes: str = "ckks"                  # scheme of the arguments
    arity: Optional[int] = 1                # None: variadic, at least one
    attrs: Tuple[str, ...] = ()             # required attributes
    identity_attrs: Tuple[str, ...] = ()    # keyed by object identity in CSE
    level: Callable = _arg_level
    scale: Callable = _arg_scale
    #: What the waterline does to the arguments first: ``none``, ``level``
    #: (common level), ``level+scale``, ``plaintext-scale`` or ``level-0``.
    align: str = "none"
    #: ``pass-through`` (either domain, inherits the consumers' preference),
    #: ``wants-eval-args`` (pointwise in the evaluation domain),
    #: ``coeff-only`` or ``conversion`` (produces ``converts_to``).
    residency: str = "pass-through"
    converts_to: Optional[str] = None
    #: The wave kind, named by the node attribute its groups carry
    #: (``galois_wave``, ``pbs_group``, ``ks_group``): the planner counts
    #: such ops along every path, sorts the program by that count and runs
    #: the members of one wave (same level, same ``direction``) as one
    #: stacked dispatch.  ``None``: not a wave op.
    wave: Optional[str] = None
    run: Optional[Callable] = None
    lower: Callable = lambda node: ()
    #: The level ``lower`` is priced at: the node's own, or for an op that
    #: works on its argument's limbs and drops one (``rescale``) the input's.
    lower_level: Callable = lambda node: node.level
    hybrid: Optional[Callable] = None
    keys: Callable = lambda node, ring_degree: ()


def _lwe(name: str, doc: str, **fields) -> OpSpec:
    """A TFHE-island op: LWE in, LWE out, level-free, never NTT-resident."""
    fields.setdefault("hybrid", _lower_lwe_linear)
    return OpSpec(name, doc, scheme="tfhe", consumes="tfhe", level=_level_zero,
                  residency="coeff-only", **fields)


#: The node alphabet.  ``to_eval``/``to_coeff`` and ``pmult_mac`` are
#: planner-inserted; everything else is traceable.
OP_TABLE: Dict[str, OpSpec] = {spec.name: spec for spec in (
    OpSpec("input", "named CKKS ciphertext input (arrives coefficient-resident)",
           arity=0, attrs=("name",), residency="coeff-only",
           run=lambda r, n: r.input(n)),
    OpSpec("input_lwe", "named LWE input under the key kind `lwe`",
           scheme="tfhe", consumes="tfhe", arity=0, attrs=("name", "lwe"),
           residency="coeff-only", run=lambda r, n: r.inputs[n.attrs["name"]]),
    OpSpec("add", "HAdd", arity=2, level=_min_level, align="level+scale",
           run=lambda r, n, a, b: r.ev.add(a, b), lower=_table2("HAdd")),
    OpSpec("sub", "HAdd of the negation", arity=2, level=_min_level,
           align="level+scale",
           run=lambda r, n, a, b: r.ev.sub(a, b), lower=_table2("HAdd")),
    OpSpec("negate", "negation", run=lambda r, n, a: r.ev.negate(a),
           lower=_table2("HAdd")),
    OpSpec("multiply", "HMult (tensor product + relinearization)", arity=2,
           level=_min_level, scale=lambda p, a, at: a[0].scale * a[1].scale,
           align="level", residency="wants-eval-args",
           run=lambda r, n, a, b: r.ev.multiply(a, b), lower=_table2("HMult"),
           keys=lambda n, ring: [("relin", n.level)]),
    OpSpec("multiply_plain", "PMult by the encoded `plaintext`",
           attrs=("plaintext",), identity_attrs=("plaintext",),
           scale=lambda p, a, at: a[0].scale * at["plaintext"].scale,
           residency="wants-eval-args",
           run=lambda r, n, a: r.ev.multiply_plain(a, n.attrs["plaintext"]),
           lower=_table2("PMult")),
    OpSpec("multiply_scalar", "PMult by the integer `scalar` (scale kept)",
           attrs=("scalar",),
           run=lambda r, n, a: r.ev.multiply_scalar(a, n.attrs["scalar"]),
           lower=_table2("PMult")),
    OpSpec("add_plain", "PAdd of the encoded `plaintext`",
           attrs=("plaintext",), identity_attrs=("plaintext",),
           align="plaintext-scale",
           run=lambda r, n, a: r.ev.add_plain(a, n.attrs["plaintext"]),
           lower=_table2("PAdd")),
    OpSpec("rotate", "HRotate by `steps` slots", attrs=("steps",),
           wave="galois_wave",
           run=lambda r, n, a: r.galois(n, a), lower=_table2("HRotate"),
           keys=_galois_keys(lambda n, ring: [
               galois_element_for_rotation(ring, n.attrs["steps"])])),
    OpSpec("conjugate", "slot-wise complex conjugation", wave="galois_wave",
           run=lambda r, n, a: r.galois(n, a), lower=_table2("Conjugate"),
           keys=_galois_keys(lambda n, ring: [
               galois_element_for_conjugation(ring)])),
    OpSpec("rescale", "drop the top limb and divide the scale by it",
           level=_rescale_level,
           scale=lambda p, a, at: a[0].scale / p.params.moduli[a[0].level],
           run=lambda r, n, a: r.ev.rescale(a), lower=_table2("Rescale"),
           lower_level=lambda node: node.level + 1),
    OpSpec("mod_down", "drop limbs down to `level` (scale kept)",
           attrs=("level",), level=_mod_down_level,
           run=lambda r, n, a: r.ev.mod_down_to(a, n.attrs["level"])),
    OpSpec("to_eval", "NTT into the evaluation domain",
           residency="conversion", converts_to="eval",
           run=lambda r, n, a: r.convert(n, a)),
    OpSpec("to_coeff", "inverse NTT into the coefficient domain",
           residency="conversion", converts_to="coeff",
           run=lambda r, n, a: r.convert(n, a)),
    OpSpec("pmult_mac", "fused sum of PMults, one stacked dispatch",
           arity=None, attrs=("plaintexts",), identity_attrs=("plaintexts",),
           scale=lambda p, a, at: a[0].scale * at["plaintexts"][0].scale,
           residency="wants-eval-args",
           run=lambda r, n, *cts: r.pmult_mac(n, cts),
           lower=lambda n: (("PMult", len(n.args)), ("HAdd", len(n.args) - 1))),
    _lwe("lwe_add", "LWE addition (same key and modulus)", arity=2,
         align="level+scale", run=lambda r, n, a, b: a + b),
    _lwe("lwe_sub", "LWE subtraction (same key and modulus)", arity=2,
         align="level+scale", run=lambda r, n, a, b: a - b),
    _lwe("lwe_negate", "LWE negation", run=lambda r, n, a: -a),
    _lwe("lwe_scalar_mul", "message and encoding factor times `scalar`",
         attrs=("scalar",),
         scale=lambda p, a, at: (a[0].scale * abs(at["scalar"])
                                 if at["scalar"] else 1.0),
         run=lambda r, n, a: a.scalar_multiply(n.attrs["scalar"])),
    _lwe("lwe_add_const", "add the already-encoded constant `value`",
         attrs=("value",), run=lambda r, n, a: a.add_constant(n.attrs["value"])),
    _lwe("lwe_keyswitch", "cross-scheme key/modulus switch; `direction` c2t: "
         "CKKS-coefficient key -> TFHE key, t2c: back", attrs=("direction",),
         scale=_keyswitch_scale, wave="ks_group",
         run=lambda r, n, a: r.keyswitch(n, a),
         hybrid=_lower_keyswitch),
    _lwe("pbs", "programmable bootstrap: the lookup table of `fn` on a "
         "TFHE-key LWE", attrs=("fn",), identity_attrs=("fn",),
         scale=lambda p, a, at: float(p.tfhe_params.delta), wave="pbs_group",
         run=lambda r, n, a: r.bootstrap(n, a), hybrid=_lower_pbs),
    _lwe("gate_bootstrap", "sign bootstrap on a TFHE-key LWE: `2 * amplitude` "
         "when the phase is in [0, q/2), else 0", attrs=("amplitude",),
         scale=lambda p, a, at: 2.0 * at["amplitude"], wave="pbs_group",
         run=lambda r, n, a: r.bootstrap(n, a), hybrid=_lower_gate_bootstrap),
    OpSpec("ckks_to_tfhe", "SampleExtract coefficient `index` as an LWE under "
           "the CKKS-coefficient key, mod q0", scheme="tfhe", attrs=("index",),
           level=_level_zero, align="level-0", residency="coeff-only",
           run=lambda r, n, a: r.extract(n, a), hybrid=_lower_extract),
    OpSpec("tfhe_to_ckks", "repack CKKS-coefficient-key LWEs into one level-0 "
           "ciphertext (Ring Embedding + PackLWEs + Field Trace); message j "
           "lands at coefficient j * N / n",
           consumes="tfhe", arity=None, level=_level_zero, align="level+scale",
           residency="coeff-only", run=lambda r, n, *lwes: r.repack(n, lwes),
           hybrid=_lower_repack, keys=_galois_keys(_repack_elements)),
)}


def infer(program, op: str, args, attrs) -> Tuple[int, float]:
    """``(level, scale)`` of an ``op`` node over the argument ids ``args``:
    the one rule trace-time handles and the waterline pass both apply."""
    spec = OP_TABLE[op]
    nodes = [program.nodes[arg] for arg in args]
    return spec.level(program, nodes, attrs), spec.scale(program, nodes, attrs)


def required_keys(program) -> list:
    """Sorted evaluation-key requirements of a program's nodes:
    ``("galois", element, level)`` and ``("relin", level)`` tuples."""
    ring_degree = program.params.ring_degree
    return sorted({key for node in program.nodes
                   for key in OP_TABLE[node.op].keys(node, ring_degree)})


def residency_table() -> str:
    """The ROADMAP's "Residency rows for the hybrid node kinds" table."""
    kind = {"tfhe": "LWE", "ckks": "CKKS"}
    rows = ["| operation | arguments | waterline | residency | returns | notes |",
            "|---|---|---|---|---|---|"]
    for spec in OP_TABLE.values():
        if spec.arity != 0 and "tfhe" in (spec.scheme, spec.consumes):
            count = "n" if spec.arity is None else spec.arity
            rows.append(
                f"| `{spec.name}` | {count} {kind[spec.consumes]} | {spec.align} "
                f"| {spec.residency} | {kind[spec.scheme]} | {spec.doc} |")
    return "\n".join(rows)
