"""Typed DAG IR for lazy homomorphic computation graphs.

An :class:`HEProgram` is an append-only list of :class:`HENode` values in
topological order (every node's arguments precede it), built by the tracer
(:mod:`repro.fhe.program.tracer`), transformed by the planning passes
(:mod:`repro.fhe.program.passes`), executed by
:mod:`repro.fhe.program.executor`, and lowered to the cost model's
``HomomorphicOp`` stream by :mod:`repro.fhe.program.lowering`.

The node alphabet and every per-kind fact (arity, required attributes,
level/scale rule, residency, eager callable, lowering, evaluation keys) live
in one table, :mod:`repro.fhe.program.ops`; nodes are validated against it
when they are built.  Each node carries the metadata the planner reasons
about — operation kind, argument ids, ciphertext ``level``, ``scale``, and the
planned residency ``domain`` (``"coeff"``/``"eval"``) — plus op-specific
attributes (rotation steps, the encoded plaintext of a PMult/PAdd, the
plaintext list of a fused MAC, a hoist-group id).

Node construction is hash-consed: structurally identical ``(op, args,
attrs)`` triples return the existing node id, so the graph *is* the
common-subexpression view (tracing ``x.rotate(1)`` twice yields one node,
and the executor computes it once).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .ops import OP_TABLE, infer

__all__ = ["TFHE_OPS", "SCHEME_SWITCH_OPS", "op_scheme", "HENode", "HEProgram"]


#: Scheme-switch ops (``ckks_to_tfhe`` extraction, ``tfhe_to_ckks`` repack):
#: the kinds that consume one scheme's values and produce the other's.
SCHEME_SWITCH_OPS = frozenset(
    spec.name for spec in OP_TABLE.values() if spec.consumes != spec.scheme)

#: TFHE-island ops: LWE arguments in, LWE value out (views over the op
#: table, like ``SCHEME_SWITCH_OPS``; see :mod:`repro.fhe.program.ops`).
TFHE_OPS = frozenset(
    spec.name for spec in OP_TABLE.values()
    if spec.consumes == spec.scheme == "tfhe" and spec.arity != 0)


def op_scheme(op: str) -> str:
    """Which scheme's ciphertext type a node of this op *produces*.

    Scheme-switch nodes belong to their output scheme: ``ckks_to_tfhe``
    produces an LWE ciphertext (``"tfhe"``), ``tfhe_to_ckks`` produces a
    CKKS ciphertext (``"ckks"``).
    """
    return OP_TABLE[op].scheme


@dataclass
class HENode:
    """One operation of the DAG at a known level/scale/domain."""

    id: int
    op: str
    args: Tuple[int, ...]
    level: int
    scale: float
    domain: str = "coeff"
    attrs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        spec = OP_TABLE.get(self.op)
        if spec is None:
            raise ValueError(f"unknown program op {self.op!r}")
        if len(self.args) != spec.arity and (spec.arity is not None
                                             or not self.args):
            wanted = "at least one" if spec.arity is None else spec.arity
            raise ValueError(f"{self.op} takes {wanted} argument(s), "
                             f"got {len(self.args)}")
        for name in spec.attrs:
            if name not in self.attrs:
                raise ValueError(f"{self.op} needs a {name!r} attribute")

    @property
    def scheme(self) -> str:
        """``"ckks"`` or ``"tfhe"`` — the scheme of the value this node
        produces (derived from the op, so passes can never desynchronize
        a node's scheme tag from its kind)."""
        return OP_TABLE[self.op].scheme


def _attr_key(op: str, attrs: "Dict[str, object] | None") -> tuple:
    """A hashable fingerprint of the op-specific attributes (for CSE).

    Plaintexts and PBS lookup functions (the op's ``identity_attrs``) are
    keyed by identity: two distinct encodings/tables never merge, reuse of
    the *same* object does.
    """
    if not attrs:
        return ()
    by_identity = OP_TABLE[op].identity_attrs
    parts = []
    for key in sorted(attrs):
        value = attrs[key]
        if key in by_identity:
            value = (tuple(id(item) for item in value)
                     if isinstance(value, tuple) else id(value))
        parts.append((key, value))
    return tuple(parts)


class HEProgram:
    """A lazy homomorphic computation graph over one CKKS parameter set.

    Nodes are appended in topological order and hash-consed; ``inputs``
    and ``outputs`` are name -> node-id maps.  Programs are built through
    :class:`~repro.fhe.program.tracer.HETrace` handles, not by calling
    :meth:`add_node` directly.
    """

    def __init__(self, params, tfhe_params=None):
        self.params = params
        #: TFHE parameter set of the program's TFHE islands (``None`` for a
        #: pure-CKKS program).  Set by the tracer; carried through rebuilds.
        self.tfhe_params = tfhe_params
        self.nodes: List[HENode] = []
        self.inputs: Dict[str, int] = {}
        self.outputs: Dict[str, int] = {}
        self._cse: Dict[tuple, int] = {}

    # -- construction -------------------------------------------------------
    def add_node(self, op: str, args: Tuple[int, ...], level: int, scale: float,
                 domain: str = "coeff",
                 attrs: "Dict[str, object] | None" = None,
                 cse: bool = True) -> int:
        """Append a node (or return the existing structurally-equal one)."""
        args = tuple(args)
        for arg in args:
            if not 0 <= arg < len(self.nodes):
                raise ValueError(f"argument {arg} does not precede the new node")
        key = (op, args, domain, _attr_key(op, attrs))
        if cse and key in self._cse:
            return self._cse[key]
        node = HENode(
            id=len(self.nodes), op=op, args=args, level=level,
            scale=float(scale), domain=domain, attrs=dict(attrs or {}),
        )
        self.nodes.append(node)
        if cse:
            self._cse[key] = node.id
        return node.id

    def emit(self, op: str, args: Tuple[int, ...],
             attrs: "Dict[str, object] | None" = None,
             domain: str = "coeff") -> int:
        """Append a node whose level and scale follow the op's inference
        rule (:func:`repro.fhe.program.ops.infer`)."""
        level, scale = infer(self, op, args, attrs or {})
        return self.add_node(op, args, level, scale, domain, attrs)

    def add_input(self, name: str, level: int, scale: float,
                  lwe: "str | None" = None) -> int:
        """Declare a named input; ``lwe`` makes it an LWE (TFHE) input and
        names the key kind (``"ckks"`` / ``"small"``) the ciphertext is
        under."""
        if name in self.inputs:
            raise ValueError(f"duplicate input {name!r}")
        attrs: Dict[str, object] = {"name": name}
        op = "input"
        if lwe is not None:
            op = "input_lwe"
            attrs["lwe"] = lwe
        node_id = self.add_node(
            op, (), level=level, scale=scale, attrs=attrs, cse=False,
        )
        self.inputs[name] = node_id
        return node_id

    def set_output(self, name: str, node_id: int) -> None:
        if not 0 <= node_id < len(self.nodes):
            raise ValueError(f"unknown node {node_id}")
        self.outputs[name] = node_id

    # -- inspection ---------------------------------------------------------
    def node(self, node_id: int) -> HENode:
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    def use_counts(self) -> List[int]:
        """How many times each node is consumed (args + outputs)."""
        counts = [0] * len(self.nodes)
        for node in self.nodes:
            for arg in node.args:
                counts[arg] += 1
        for node_id in self.outputs.values():
            counts[node_id] += 1
        return counts

    def consumers(self) -> List[List[int]]:
        """For each node, the ids of the nodes consuming it."""
        users: List[List[int]] = [[] for _ in self.nodes]
        for node in self.nodes:
            for arg in set(node.args):
                users[arg].append(node.id)
        return users

    def like(self) -> "HEProgram":
        """A fresh empty program over the same parameters (pass rebuilds)."""
        return HEProgram(self.params, tfhe_params=self.tfhe_params)

    def schemes(self) -> "frozenset[str]":
        """The set of schemes appearing in the program."""
        return frozenset(node.scheme for node in self.nodes)

    def is_hybrid(self) -> bool:
        """Whether the program contains any TFHE or scheme-switch node."""
        return any(node.scheme == "tfhe" for node in self.nodes)

    def validate(self) -> None:
        """Check topological ordering and input/output wiring."""
        for node in self.nodes:
            for arg in node.args:
                if arg >= node.id:
                    raise ValueError(
                        f"node {node.id} ({node.op}) consumes later node {arg}"
                    )
        for name, node_id in list(self.inputs.items()) + list(self.outputs.items()):
            if not 0 <= node_id < len(self.nodes):
                raise ValueError(f"{name!r} points at unknown node {node_id}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HEProgram({len(self.nodes)} nodes, "
            f"inputs={list(self.inputs)}, outputs={list(self.outputs)})"
        )
