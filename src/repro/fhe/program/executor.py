"""Executes planned (or aligned-eager) :class:`HEProgram` graphs.

One executor serves both roles the differential suite compares:

* ``run(program, inputs)`` — the **planned** path: domains, conversions and
  fused nodes come from the pass pipeline; the rotations of one wave run
  as one keyswitch wave (each distinct source hoisted once, one stacked
  transform per phase across the whole wave), and ``pmult_mac`` nodes run
  as one stacked ``(C, L, N)`` backend dispatch.
* ``run_eager(program, inputs)`` — the **eager call sequence**: the aligned
  program executed node by node through the plain evaluator operations,
  with one keyswitch per rotation and no batching.  This is the bit-exact
  reference the planner is gated against (every pass is an exact
  transformation over modular arithmetic).

Both paths are one loop: each node dispatches through its op's ``run``
callable in the op table (:mod:`repro.fhe.program.ops`) against a per-run
:class:`_Run` state, which holds the stateful machinery the callables lean on
(the planner's stacked-conversion / rotation-wave / PBS-wave /
bridge-keyswitch-wave groups).

Rotation keys are validated up front: every Galois key a program needs is
fetched before any hoist work starts, so a missing key raises the same
``KeyError`` as ``CKKSEvaluator.rotate`` without paying the hoist cost.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..backend import active_backend
from ..ckks.ciphertext import CKKSCiphertext
from ..rns import RNSPolynomial, _limb_contexts
from .ir import HENode, HEProgram
from .ops import OP_TABLE
from .passes import PlannedProgram, plan_program

__all__ = ["ProgramExecutor"]

#: Node attributes by which the planner groups nodes into one dispatch:
#: stacked conversions and every wave kind the op table declares.
_GROUP_ATTRS = ("conv_group", *sorted(
    {spec.wave for spec in OP_TABLE.values() if spec.wave}))


class ProgramExecutor:
    """Runs a program against one :class:`~repro.fhe.ckks.CKKSEvaluator`.

    Hybrid programs additionally need ``tfhe`` (a
    :class:`~repro.fhe.tfhe.TFHEContext` matching the program's
    ``tfhe_params``) for the PBS/gate-bootstrap nodes, and ``bridge`` (a
    :class:`~repro.fhe.conversion.bridge.SchemeBridge`) for the
    ``lwe_keyswitch`` nodes crossing the key boundary.  Pure-CKKS programs
    ignore both.
    """

    def __init__(self, evaluator, tfhe=None, bridge=None):
        self.evaluator = evaluator
        self.tfhe = tfhe
        self.bridge = bridge

    # -- public entry points ------------------------------------------------
    def run(self, program, inputs: Dict[str, CKKSCiphertext],
            optimize: bool = True) -> Dict[str, CKKSCiphertext]:
        """Plan (unless already planned) and execute; returns outputs by name."""
        planned = (
            program if isinstance(program, PlannedProgram)
            else plan_program(program, optimize=optimize)
        )
        return self._execute(planned.program, inputs,
                             grouped=planned.optimized)

    def run_eager(self, program,
                  inputs: Dict[str, CKKSCiphertext]) -> Dict[str, CKKSCiphertext]:
        """The eager call sequence: aligned program, one evaluator call per
        node, one hoist per rotation, no stacking."""
        planned = (
            program if isinstance(program, PlannedProgram)
            else plan_program(program, optimize=False)
        )
        return self._execute(planned.program, inputs, grouped=False)

    # -- execution ----------------------------------------------------------
    def _execute(self, program: HEProgram, inputs: Dict[str, CKKSCiphertext],
                 grouped: bool) -> Dict[str, CKKSCiphertext]:
        missing = set(program.inputs) - set(inputs)
        if missing:
            raise ValueError(f"missing program inputs: {sorted(missing)}")
        if program.is_hybrid() and self.tfhe is None:
            raise ValueError(
                "hybrid program: construct ProgramExecutor with a TFHEContext"
            )
        with self.evaluator._arith():
            self._prefetch_galois_keys(program)
            run = _Run(self, program, inputs, grouped)
            values = run.values
            for node in program.nodes:
                values[node.id] = OP_TABLE[node.op].run(
                    run, node, *[values[arg] for arg in node.args])
            return {
                name: values[node_id]
                for name, node_id in program.outputs.items()
            }

    def _prefetch_galois_keys(self, program: HEProgram) -> None:
        """Fetch every Galois key the program needs before any hoist work
        (missing keys raise KeyError here, exactly like ``rotate``)."""
        ring_degree = program.params.ring_degree
        for node in program.nodes:
            for key in OP_TABLE[node.op].keys(node, ring_degree):
                if key[0] == "galois":
                    self.evaluator.keys.galois_key(*key[1:])


class _Run:
    """One execution's state: what the op table's ``run`` callables see.

    ``values`` holds every node's result (LWE values flow through it exactly
    like CKKS ciphertexts); ``groups``/``ready`` the planner's dispatch
    groups and the results their first member computed for the later ones.
    """

    def __init__(self, executor: ProgramExecutor, program: HEProgram,
                 inputs, grouped: bool):
        self.ev = executor.evaluator
        self.tfhe = executor.tfhe
        self.bridge = executor.bridge
        self.program = program
        self.inputs = inputs
        self.values: List[object] = [None] * len(program)
        self.ready: Dict[int, object] = {}
        self.groups: Dict[tuple, List[int]] = {}
        if grouped:
            for node in program.nodes:
                for attr in _GROUP_ATTRS:
                    if attr in node.attrs:
                        self.groups.setdefault(
                            (attr, node.attrs[attr]), []).append(node.id)

    def input(self, node: HENode) -> CKKSCiphertext:
        ct = self.inputs[node.attrs["name"]]
        if ct.level != node.level:
            raise ValueError(
                f"input {node.attrs['name']!r} is at level {ct.level} but the "
                f"program was traced at level {node.level}; re-trace at the "
                f"new level"
            )
        return ct

    def _grouped(self, node: HENode, attr: str, single: Callable,
                 many: Callable):
        """Run ``node`` with the planner group its ``attr`` names.

        The whole group executes as one ``many(member_nodes)`` dispatch the
        moment its first member is reached (the grouping invariant
        guarantees every member's source is computed by then); later
        members pop their pre-computed result.  Ungrouped nodes, and every
        node of an eager run, execute ``single()``.
        """
        if node.id in self.ready:
            return self.ready.pop(node.id)
        members = self.groups.get((attr, node.attrs.get(attr)))
        if not members or len(members) < 2:
            return single()
        member_nodes = [self.program.node(member) for member in members]
        for member, out in zip(member_nodes, many(member_nodes)):
            self.ready[member.id] = out
        return self.ready.pop(node.id)

    # -- TFHE islands and scheme switches -----------------------------------
    def extract(self, node: HENode, ct: CKKSCiphertext):
        from ..conversion.ckks_to_tfhe import sample_extract_rlwe

        if ct.domain != "coeff":
            ct = self.ev.to_coeff(ct)
        if ct.level != 0:
            ct = self.ev.mod_down_to(ct, 0)
        return sample_extract_rlwe(ct, node.attrs["index"])

    def repack(self, node: HENode, lwes) -> CKKSCiphertext:
        from ..conversion.tfhe_to_ckks import repack_lwe_ciphertexts

        repacked = repack_lwe_ciphertexts(list(lwes), self.ev)
        return CKKSCiphertext(c0=repacked.c0, c1=repacked.c1,
                              level=repacked.level, scale=node.scale)

    def keyswitch(self, node: HENode, lwe):
        """Cross the key bridge; a planner group shares one stacked
        ``digits @ ksk`` dispatch per wave and direction."""
        if self.bridge is None:
            raise ValueError(
                "program crosses the CKKS/TFHE key boundary: construct "
                "ProgramExecutor with a SchemeBridge"
            )
        bridge, to_tfhe = self.bridge, node.attrs["direction"] == "c2t"
        single = bridge.switch_to_tfhe if to_tfhe else bridge.switch_to_ckks
        many = (bridge.switch_many_to_tfhe if to_tfhe
                else bridge.switch_many_to_ckks)
        return self._grouped(
            node, "ks_group", lambda: single(lwe),
            lambda members: many([self.values[m.args[0]] for m in members]))

    def bootstrap(self, node: HENode, lwe):
        """``pbs``/``gate_bootstrap``: a planner group runs as one batched
        blind rotation (the two kinds differ only in their test vectors)."""
        return self._grouped(node, "pbs_group",
                             lambda: self._bootstrap_wave([node])[0],
                             self._bootstrap_wave)

    def _bootstrap_wave(self, members: List[HENode]) -> list:
        from ..tfhe.batched import (
            batched_programmable_bootstrap, sign_test_vector,
        )

        # One table per distinct function (by identity, as CSE keys it) or
        # sign amplitude, shared by every member that reads it.
        tables, vectors = {}, []
        for m in members:
            pbs = m.op == "pbs"
            key = (m.op, id(m.attrs["fn"]) if pbs else m.attrs["amplitude"])
            if key not in tables:
                tables[key] = (
                    self.tfhe.make_test_vector(m.attrs["fn"]) if pbs
                    else sign_test_vector(self.tfhe, m.attrs["amplitude"]))
            vectors.append(tables[key])
        sources = [self.values[m.args[0]] for m in members]
        outputs = batched_programmable_bootstrap(self.tfhe, sources, vectors)
        return [
            out.add_constant(m.attrs["amplitude"]) if m.op == "gate_bootstrap"
            else out
            for m, out in zip(members, outputs)
        ]

    # -- stacked domain conversions --------------------------------------------
    def convert(self, node: HENode, ct: CKKSCiphertext) -> CKKSCiphertext:
        """Execute a ``to_eval``/``to_coeff`` node, stacking its group.

        When the planner grouped this node with siblings (same direction,
        same level), the whole group's ``(2 * members, L, N)`` store stack
        converts in a single ``stacked_ntt``/``stacked_intt`` backend
        dispatch.  Ungrouped nodes run the plain per-ciphertext conversion.
        """
        target = OP_TABLE[node.op].converts_to
        single = self.ev.to_eval if target == "eval" else self.ev.to_coeff

        def many(members):
            sources = [self.values[m.args[0]] for m in members]
            pending = [src for src in sources if src.domain != target]
            converted = iter(self._convert_stack(pending, target, single))
            return [src if src.domain == target else next(converted)
                    for src in sources]

        return self._grouped(node, "conv_group", lambda: single(ct), many)

    def _convert_stack(self, pending: List[CKKSCiphertext], target: str,
                       single: Callable) -> List[CKKSCiphertext]:
        if not pending:
            return []
        basis = pending[0].c0.basis
        n = pending[0].ring_degree
        if any(ct.c0.basis != basis for ct in pending):
            return [single(ct) for ct in pending]
        contexts = _limb_contexts(n, basis)
        backend = active_backend()
        stores = [c.store() for ct in pending for c in (ct.c0, ct.c1)]
        stacked = (
            backend.stacked_ntt(contexts, stores) if target == "eval"
            else backend.stacked_intt(contexts, stores)
        )
        return [
            CKKSCiphertext(
                c0=RNSPolynomial._from_store(
                    n, basis, stacked[2 * index], domain=target),
                c1=RNSPolynomial._from_store(
                    n, basis, stacked[2 * index + 1], domain=target),
                level=ct.level, scale=ct.scale,
            )
            for index, ct in enumerate(pending)
        ]

    # -- keyswitch waves ------------------------------------------------------
    def galois(self, node: HENode, ct: CKKSCiphertext) -> CKKSCiphertext:
        """``rotate``/``conjugate``: a planner ``galois_wave`` runs as one
        keyswitch wave (each distinct source hoisted once, one stacked
        transform per phase); an eager node is a wave of one."""
        ring_degree = self.ev.params.ring_degree

        def member(m: HENode):              # the identity element needs no key
            needed = OP_TABLE[m.op].keys(m, ring_degree)
            return self.values[m.args[0]], needed[0][1] if needed else 1

        return self._grouped(
            node, "galois_wave",
            lambda: self.ev.galois_wave([member(node)])[0],
            lambda members: self.ev.galois_wave(map(member, members)))

    # -- fused plaintext MAC ---------------------------------------------------
    def pmult_mac(self, node: HENode, cts) -> CKKSCiphertext:
        ev = self.ev
        plaintexts = node.attrs["plaintexts"]
        if any(ct.domain != "eval" for ct in cts):
            # Defensive fallback (the planner only fuses eval-domain groups):
            # the semantics of pmult_mac are the plain PMult/HAdd chain.
            result = None
            for ct, plaintext in zip(cts, plaintexts):
                term = ev.multiply_plain(ct, plaintext)
                result = term if result is None else ev.add(result, term)
            return result
        basis = cts[0].c0.basis
        moduli = tuple(basis.moduli)
        level = cts[0].level
        pt_stores = [
            ev._plaintext_eval_at_level(plaintext, level).store()
            for plaintext in plaintexts
        ]
        backend = active_backend()
        s0, s1 = backend.stacked_pmult_mac(
            [ct.c0.store() for ct in cts],
            [ct.c1.store() for ct in cts],
            pt_stores, moduli,
        )
        n = cts[0].ring_degree
        return CKKSCiphertext(
            c0=RNSPolynomial._from_store(n, basis, s0, domain="eval"),
            c1=RNSPolynomial._from_store(n, basis, s1, domain="eval"),
            level=level,
            scale=cts[0].scale * plaintexts[0].scale,
        )
