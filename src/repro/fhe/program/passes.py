"""Planning passes: trace -> (align, domains, batching, hoists) -> execute.

The pipeline turns a traced :class:`~repro.fhe.program.ir.HEProgram` into a
:class:`PlannedProgram` the executor and the lowering consume:

1. **Level/scale alignment** (always) — the waterline pass.  Wherever two
   operands meet at different levels a ``mod_down`` is inserted, and
   wherever an addition's scales diverge a ``rescale`` chain brings the
   hotter operand back to the waterline.  This replaces the eager
   evaluator's manual ``_check_levels``/``align``/``rescale`` bookkeeping;
   irreconcilable scales fail here, at plan time, not mid-execution.
2. **Domain-residency planning** (optimize only) — every node is assigned
   an execution domain using the PR-3 residency table, propagating an
   *eval preference* backwards (a rotation whose results feed pointwise
   plaintext MACs stays NTT-resident; a ``multiply -> rescale -> multiply``
   chain never leaves the evaluation domain) and materializing explicit
   ``to_eval``/``to_coeff`` nodes only where the table requires a
   conversion.  Conversions are hash-consed, so one source feeding many
   eval consumers transforms once.
3. **Multi-ciphertext batching** (optimize only) — an addition tree whose
   leaves are all single-use evaluation-domain ``multiply_plain`` nodes at
   one level collapses into one ``pmult_mac`` node, which the executor runs
   as a single stacked ``(C, L, N)`` backend dispatch (the BSGS inner sums
   are the canonical instance).
4. **Hoist fusion** (annotation) — rotations/conjugations are grouped by
   their source node; every group shares a single ``hoist_decompose`` at
   execution, generalizing ``rotate_hoisted`` beyond the hand-written BSGS
   case.  Group ids are stored on the nodes and the sharing statistics in
   :attr:`PlannedProgram.stats`.

Every pass is semantics-preserving over exact modular arithmetic: the
planned program computes bit-identical residues to the node-by-node eager
execution of the aligned program (gated by ``tests/test_program.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..rns import _limb_contexts
from .ir import HENode, HEProgram, SCHEME_SWITCH_OPS, TFHE_OPS

__all__ = ["PlannedProgram", "plan_program"]


#: Ops that accept either residency domain and pass the preference through.
_PASSTHROUGH = frozenset({
    "add", "sub", "negate", "multiply_scalar", "rescale", "mod_down",
    "multiply_plain", "add_plain", "rotate", "conjugate", "pmult_mac",
})

#: Ops that always live in the coefficient domain: TFHE islands are scalar
#: LWE values (no NTT residency), SampleExtract reads polynomial
#: coefficients, and repacking produces a coefficient-resident ciphertext.
#: The residency planner never assigns these nodes to the evaluation domain
#: and forces a ``to_coeff`` on the CKKS edge feeding an extraction.
_COEFF_ONLY = TFHE_OPS | SCHEME_SWITCH_OPS | frozenset({"input_lwe"})


@dataclass
class PlannedProgram:
    """An aligned (and optionally optimized) program plus planning stats.

    ``stats`` keys: ``rescales_inserted``, ``mod_downs_inserted``,
    ``conversions_inserted``, ``dead_nodes_removed``, ``hoist_groups``,
    ``hoisted_rotations`` (rotations sharing a multi-member hoist),
    ``outer_rotations`` (singleton hoists), ``rotations``,
    ``plain_multiplies``, ``batched_groups``, ``batched_pmults``,
    ``stacked_conversion_groups``, ``stacked_conversions``,
    ``pbs_groups``/``grouped_pbs`` (bootstraps sharing a batched blind
    rotation), ``scheme_switches`` (surviving scheme-switch nodes).
    """

    program: HEProgram
    stats: Dict[str, int] = field(default_factory=dict)
    optimized: bool = True

    @property
    def params(self):
        return self.program.params

    # -- rotation-key planning ------------------------------------------------
    def required_galois_elements(self) -> List[Tuple[int, int]]:
        """Sorted ``(galois_element, level)`` pairs this program keyswitches.

        Exactly the Galois keys the executor will fetch — after dead-code
        elimination, so unused baby rotations of sparse BSGS transforms do
        not demand keys.  Feed the result to
        :meth:`~repro.fhe.ckks.keys.CKKSKeySet.ensure_galois_keys` to
        materialize the minimal key set for this plan.
        """
        from ..ckks.keys import (
            galois_element_for_conjugation,
            galois_element_for_rotation,
        )

        ring_degree = self.params.ring_degree
        needed = set()
        for node in self.program.nodes:
            if node.op == "rotate":
                element = galois_element_for_rotation(
                    ring_degree, node.attrs["steps"]
                )
            elif node.op == "conjugate":
                element = galois_element_for_conjugation(ring_degree)
            elif node.op == "tfhe_to_ckks":
                # Repacking keyswitches through PackLWEs merge elements
                # (2^r + 1 per doubling) and Field Trace automorphisms
                # (2N / 2^k + 1 per cancelled coefficient class), all at
                # the node's (level-0) chain position.
                nslot = len(node.args)
                for r in range(1, int(math.log2(nslot)) + 1):
                    needed.add(((1 << r) + 1, node.level))
                for k in range(1, int(math.log2(ring_degree // nslot)) + 1):
                    needed.add(((2 * ring_degree) // (1 << k) + 1, node.level))
                continue
            else:
                continue
            if element != 1:
                needed.add((element, node.level))
        return sorted(needed)

    def required_rotation_steps(self) -> Dict[int, List[int]]:
        """Per-level rotation steps (``rotate`` nodes only) after planning.

        The steps-shaped view of :meth:`required_galois_elements` for
        callers that drive :meth:`CKKSKeySet.ensure_rotation_keys` per
        level; conjugations are not slot rotations and are excluded.
        """
        by_level: Dict[int, set] = {}
        for node in self.program.nodes:
            if node.op == "rotate":
                by_level.setdefault(node.level, set()).add(node.attrs["steps"])
        return {level: sorted(steps) for level, steps in sorted(by_level.items())}


def _close(a: float, b: float) -> bool:
    """The evaluator's scale-match tolerance (ratio within 1%)."""
    return 0.99 < a / b < 1.01


class _Rebuilder:
    """Shared old-id -> new-id remapping for rebuilding passes."""

    def __init__(self, old: HEProgram):
        self.old = old
        self.new = old.like()
        self.map: Dict[int, Optional[int]] = {}

    def rebuild_input(self, node: HENode) -> None:
        """Re-declare an ``input``/``input_lwe`` node in the new program."""
        self.map[node.id] = self.new.add_input(
            node.attrs["name"], node.level, node.scale,
            lwe=node.attrs.get("lwe") if node.op == "input_lwe" else None,
        )

    def arg(self, old_id: int) -> int:
        new_id = self.map[old_id]
        if new_id is None:
            raise ValueError(f"node {old_id} was fused away but is still used")
        return new_id

    def finish(self) -> HEProgram:
        for name, node_id in self.old.inputs.items():
            self.new.inputs[name] = self.arg(node_id)
        for name, node_id in self.old.outputs.items():
            self.new.outputs[name] = self.arg(node_id)
        return self.new


# ---------------------------------------------------------------------------
# 1. Level / scale alignment (the waterline pass)
# ---------------------------------------------------------------------------

def _rescale_towards(rb: _Rebuilder, node_id: int, target_scale: float,
                     stats: Dict[str, int]) -> int:
    """Insert rescales on ``node_id`` while they bring its scale closer to
    ``target_scale`` (each drops one level and divides by that level's
    modulus — the waterline step)."""
    params = rb.new.params
    node = rb.new.node(node_id)
    while not _close(node.scale, target_scale) and node.level >= 1:
        dropped = params.moduli[node.level]
        new_scale = node.scale / dropped
        if abs(math.log(new_scale / target_scale)) >= abs(
            math.log(node.scale / target_scale)
        ):
            break
        node_id = rb.new.add_node(
            "rescale", (node_id,), level=node.level - 1, scale=new_scale,
            domain=node.domain,
        )
        stats["rescales_inserted"] += 1
        node = rb.new.node(node_id)
    return node_id


def _mod_down(rb: _Rebuilder, node_id: int, level: int,
              stats: Dict[str, int]) -> int:
    node = rb.new.node(node_id)
    if node.level == level:
        return node_id
    stats["mod_downs_inserted"] += 1
    return rb.new.add_node(
        "mod_down", (node_id,), level=level, scale=node.scale,
        domain=node.domain, attrs={"level": level},
    )


def _align_tfhe(rb: _Rebuilder, node: HENode, args: List[int],
                stats: Dict[str, int]) -> int:
    """Waterline step for TFHE-island and scheme-switch nodes.

    TFHE islands are level-free (LWE ciphertexts carry no modulus chain to
    align), so no rescale/mod_down ever lands *inside* an island; the only
    alignment work is at the CKKS boundary, where the extraction source is
    mod-downed to level 0 (SampleExtract reads the single-limb residue —
    exact, since encoded coefficients are small against q0).  Encoding
    factors are recomputed from the rebuilt arguments, so a waterline
    rescale upstream of an extraction propagates through the island.
    """
    op = node.op
    new = rb.new
    if op == "ckks_to_tfhe":
        (a,) = args
        a = _mod_down(rb, a, 0, stats)
        return new.add_node(op, (a,), level=0, scale=new.node(a).scale,
                            attrs=dict(node.attrs))
    if op == "tfhe_to_ckks":
        scales = [new.node(a).scale for a in args]
        for scale in scales[1:]:
            if not _close(scale, scales[0]):
                raise ValueError(
                    f"repacked LWEs feeding node {node.id} have diverging "
                    f"encoding factors ({scales[0]:g} vs {scale:g})")
        return new.add_node(op, tuple(args), level=0, scale=scales[0],
                            attrs=dict(node.attrs))
    if op in ("lwe_add", "lwe_sub"):
        a, b = args
        sa, sb = new.node(a).scale, new.node(b).scale
        if not _close(sa, sb):
            raise ValueError(
                f"cannot align LWE encoding factors {sa:g} vs {sb:g} "
                f"feeding node {node.id} ({op}); LWE values have no "
                f"rescale — re-trace with matching factors")
        return new.add_node(op, (a, b), level=0, scale=sa,
                            attrs=dict(node.attrs))
    (a,) = args
    arg_scale = new.node(a).scale
    tfhe = rb.old.tfhe_params
    if op == "lwe_scalar_mul":
        scalar = node.attrs["scalar"]
        scale = arg_scale * abs(scalar) if scalar else 1.0
    elif op == "lwe_keyswitch":
        q0 = rb.old.params.moduli[0]
        if node.attrs["direction"] == "c2t":
            scale = arg_scale * tfhe.modulus / q0
        else:
            scale = arg_scale * q0 / tfhe.modulus
    elif op == "pbs":
        scale = float(tfhe.delta)
    elif op == "gate_bootstrap":
        scale = 2.0 * node.attrs["amplitude"]
    else:                                 # lwe_negate / lwe_add_const
        scale = arg_scale
    return new.add_node(op, (a,), level=0, scale=scale,
                        attrs=dict(node.attrs))


def _align(old: HEProgram, stats: Dict[str, int]) -> HEProgram:
    """Insert mod_down / rescale nodes so every op sees legal operands."""
    params = old.params
    rb = _Rebuilder(old)
    for node in old.nodes:
        op = node.op
        if op in ("input", "input_lwe"):
            rb.rebuild_input(node)
            continue
        args = [rb.arg(a) for a in node.args]
        if op in TFHE_OPS or op in SCHEME_SWITCH_OPS:
            rb.map[node.id] = _align_tfhe(rb, node, args, stats)
            continue
        if op in ("add", "sub"):
            a, b = args
            sa, sb = rb.new.node(a).scale, rb.new.node(b).scale
            if not _close(sa, sb):
                if sa > sb:
                    a = _rescale_towards(rb, a, sb, stats)
                else:
                    b = _rescale_towards(rb, b, sa, stats)
                sa, sb = rb.new.node(a).scale, rb.new.node(b).scale
                if not _close(sa, sb):
                    raise ValueError(
                        f"cannot align scales {sa} vs {sb} feeding node "
                        f"{node.id} ({op}); rescaling cannot reconcile them"
                    )
            common = min(rb.new.node(a).level, rb.new.node(b).level)
            a = _mod_down(rb, a, common, stats)
            b = _mod_down(rb, b, common, stats)
            rb.map[node.id] = rb.new.add_node(
                op, (a, b), level=common, scale=rb.new.node(a).scale
            )
        elif op == "multiply":
            a, b = args
            common = min(rb.new.node(a).level, rb.new.node(b).level)
            a = _mod_down(rb, a, common, stats)
            b = _mod_down(rb, b, common, stats)
            rb.map[node.id] = rb.new.add_node(
                op, (a, b), level=common,
                scale=rb.new.node(a).scale * rb.new.node(b).scale,
            )
        elif op == "add_plain":
            (a,) = args
            plaintext = node.attrs["plaintext"]
            scale = rb.new.node(a).scale
            if not _close(scale, plaintext.scale):
                a = _rescale_towards(rb, a, plaintext.scale, stats)
                scale = rb.new.node(a).scale
                if not _close(scale, plaintext.scale):
                    raise ValueError(
                        f"cannot align ciphertext scale {scale} with plaintext "
                        f"scale {plaintext.scale} feeding node {node.id} (add_plain)"
                    )
            rb.map[node.id] = rb.new.add_node(
                op, (a,), level=rb.new.node(a).level, scale=scale,
                attrs=dict(node.attrs),
            )
        elif op == "multiply_plain":
            (a,) = args
            arg = rb.new.node(a)
            rb.map[node.id] = rb.new.add_node(
                op, (a,), level=arg.level,
                scale=arg.scale * node.attrs["plaintext"].scale,
                attrs=dict(node.attrs),
            )
        elif op == "rescale":
            (a,) = args
            arg = rb.new.node(a)
            if arg.level < 1:
                raise ValueError(f"node {node.id} rescales a level-0 value")
            rb.map[node.id] = rb.new.add_node(
                op, (a,), level=arg.level - 1,
                scale=arg.scale / params.moduli[arg.level],
            )
        elif op == "mod_down":
            (a,) = args
            arg = rb.new.node(a)
            level = node.attrs["level"]
            if level > arg.level:
                raise ValueError(f"node {node.id} mod-downs to a higher level")
            rb.map[node.id] = _mod_down(rb, a, level, stats)
        elif op == "pmult_mac":
            # Re-planning a planned program: the fused MAC's operands are
            # already mutually aligned; metadata follows the first one.
            arg0 = rb.new.node(args[0])
            rb.map[node.id] = rb.new.add_node(
                op, tuple(args), level=arg0.level,
                scale=arg0.scale * node.attrs["plaintexts"][0].scale,
                domain=node.domain, attrs=dict(node.attrs),
            )
        elif op in ("to_eval", "to_coeff"):
            (a,) = args
            arg = rb.new.node(a)
            rb.map[node.id] = rb.new.add_node(
                op, (a,), level=arg.level, scale=arg.scale,
                domain="eval" if op == "to_eval" else "coeff",
            )
        else:
            # negate / multiply_scalar / rotate / conjugate: unary, metadata
            # follows the arg.
            (a,) = args
            arg = rb.new.node(a)
            rb.map[node.id] = rb.new.add_node(
                op, (a,), level=arg.level, scale=arg.scale, domain=arg.domain,
                attrs=dict(node.attrs),
            )
    return rb.finish()


# ---------------------------------------------------------------------------
# 1b. Dead-code elimination
# ---------------------------------------------------------------------------

def _eliminate_dead_code(old: HEProgram, stats: Dict[str, int]) -> HEProgram:
    """Drop nodes unreachable from any program output.

    Tracing convenience code frequently materializes values it then never
    uses — the canonical case is a BSGS transform over a *sparse* stage
    matrix, where ``trace`` creates every baby rotation but only the
    diagonals present in the matrix consume them.  Removing the dead
    rotations both skips their execution and shrinks the Galois-key set
    :meth:`PlannedProgram.required_galois_elements` reports.  Named inputs
    are always kept (they are the program signature, not computed work).

    Reachability is scheme-agnostic, which makes the pass safe across
    scheme boundaries by construction: a ``ckks_to_tfhe`` node whose only
    consumer sits in the TFHE subgraph is reachable *through* that
    consumer and survives, while a TFHE island none of whose nodes feeds
    an output (extraction, bootstraps, and all) is pruned whole.
    """
    live = [False] * len(old)
    stack = list(old.outputs.values())
    while stack:
        node_id = stack.pop()
        if live[node_id]:
            continue
        live[node_id] = True
        stack.extend(old.node(node_id).args)
    for node_id in old.inputs.values():
        live[node_id] = True
    dead = sum(1 for flag in live if not flag)
    if not dead:
        return old
    stats["dead_nodes_removed"] += dead
    rb = _Rebuilder(old)
    for node in old.nodes:
        if not live[node.id]:
            rb.map[node.id] = None
            continue
        if node.op in ("input", "input_lwe"):
            rb.rebuild_input(node)
            continue
        rb.map[node.id] = rb.new.add_node(
            node.op, tuple(rb.arg(a) for a in node.args), level=node.level,
            scale=node.scale, domain=node.domain, attrs=dict(node.attrs),
        )
    return rb.finish()


# ---------------------------------------------------------------------------
# 2. Domain-residency planning
# ---------------------------------------------------------------------------

#: Ops whose ciphertext arguments should be evaluation-resident: the tensor
#: product and the plaintext product are *pointwise* there (a coefficient-
#: domain PMult would be a full negacyclic convolution per component).
_WANTS_EVAL_ARGS = frozenset({"multiply", "multiply_plain", "pmult_mac"})


def _plan_domains(old: HEProgram, stats: Dict[str, int]) -> HEProgram:
    """Assign execution domains and insert the minimal conversion set."""
    consumers = old.consumers()
    # Backward sweep: does this node's result want to live in the evaluation
    # domain?  Multiplies and plaintext products consume eval operands;
    # pass-through ops inherit the preference of any eval-hungry consumer.
    prefer_eval = [False] * len(old)
    for node in reversed(old.nodes):
        if node.op == "multiply":
            prefer_eval[node.id] = True
            continue
        for user_id in consumers[node.id]:
            user = old.node(user_id)
            if user.op in _WANTS_EVAL_ARGS or (
                user.op in _PASSTHROUGH and prefer_eval[user_id]
            ):
                prefer_eval[node.id] = True
                break
    # Forward sweep: the planned domain of each node.  TFHE islands and
    # scheme switches are pinned to the coefficient domain (_COEFF_ONLY):
    # LWE scalars have no NTT residency and SampleExtract reads polynomial
    # coefficients, so the eval-domain contagion stops at the boundary.
    domain = ["coeff"] * len(old)
    for node in old.nodes:
        if node.op == "input" or node.op in _COEFF_ONLY:
            continue                      # ciphertexts arrive coefficient-resident
        if node.op in ("to_eval", "to_coeff"):
            domain[node.id] = "eval" if node.op == "to_eval" else "coeff"
        elif node.op in _WANTS_EVAL_ARGS:
            domain[node.id] = "eval"      # eval inputs, eval output
        elif prefer_eval[node.id] or any(
            domain[a] == "eval" for a in node.args
        ):
            domain[node.id] = "eval"
    # Rebuild with explicit (hash-consed) conversions on mismatched edges.
    rb = _Rebuilder(old)
    for node in old.nodes:
        if node.op in ("input", "input_lwe"):
            rb.rebuild_input(node)
            continue
        if node.op in ("to_eval", "to_coeff"):
            # Already a conversion (re-planning): keep it, never wrap it.
            a = rb.arg(node.args[0])
            arg = rb.new.node(a)
            rb.map[node.id] = rb.new.add_node(
                node.op, (a,), level=arg.level, scale=arg.scale,
                domain=domain[node.id],
            )
            continue
        wanted = "eval" if node.op in _WANTS_EVAL_ARGS else domain[node.id]
        args = []
        for a in node.args:
            new_a = rb.arg(a)
            arg = rb.new.node(new_a)
            if arg.domain != wanted:
                before = len(rb.new)
                new_a = rb.new.add_node(
                    "to_eval" if wanted == "eval" else "to_coeff",
                    (new_a,), level=arg.level, scale=arg.scale, domain=wanted,
                )
                stats["conversions_inserted"] += len(rb.new) - before
            args.append(new_a)
        rb.map[node.id] = rb.new.add_node(
            node.op, tuple(args), level=node.level, scale=node.scale,
            domain=domain[node.id], attrs=dict(node.attrs),
        )
    return rb.finish()


# ---------------------------------------------------------------------------
# 3. Multi-ciphertext batching (fused plaintext MACs)
# ---------------------------------------------------------------------------

def _fuse_pmult_macs(old: HEProgram, stats: Dict[str, int]) -> HEProgram:
    """Collapse eval-domain multiply_plain addition trees into pmult_mac.

    A *pure* tree is built bottom-up: a single-use evaluation-domain
    ``multiply_plain`` is a pure leaf, and an evaluation-domain ``add`` of
    two single-use pure subtrees is a pure interior node.  The maximal pure
    trees (those not absorbed into a larger one — e.g. the per-giant-block
    inner sums of a BSGS transform, whose outer accumulation mixes in
    rotations) become single ``pmult_mac`` nodes.
    """
    use_counts = old.use_counts()
    consumers = old.consumers()
    # leaves[i] = multiply_plain leaf ids (left-to-right) of the pure tree
    # rooted at i; members[i] = every node of that tree including the root.
    leaves: Dict[int, List[int]] = {}
    members: Dict[int, List[int]] = {}
    for node in old.nodes:
        if node.domain != "eval":
            continue
        if node.op == "multiply_plain":
            leaves[node.id] = [node.id]
            members[node.id] = [node.id]
        elif node.op == "add":
            a, b = node.args
            if (
                a in leaves and b in leaves and a != b
                and use_counts[a] == 1 and use_counts[b] == 1
            ):
                leaves[node.id] = leaves[a] + leaves[b]
                members[node.id] = members[a] + members[b] + [node.id]
    absorbed: Dict[int, int] = {}        # absorbed node id -> root id
    fused: Dict[int, Tuple[Tuple[int, ...], tuple]] = {}
    for node in old.nodes:
        if node.op != "add" or node.id not in leaves:
            continue
        # Maximal roots only: skip a pure add absorbed into a larger pure
        # tree.  A node whose single use is a program *output* has no
        # consumer entry (consumers() counts args only) and is a root.
        if use_counts[node.id] == 1 and consumers[node.id]:
            user = old.node(consumers[node.id][0])
            if user.op == "add" and user.id in leaves:
                continue
        leaf_nodes = [old.node(leaf) for leaf in leaves[node.id]]
        for member in members[node.id]:
            absorbed[member] = node.id
        del absorbed[node.id]
        fused[node.id] = (
            tuple(leaf.args[0] for leaf in leaf_nodes),
            tuple(leaf.attrs["plaintext"] for leaf in leaf_nodes),
        )
        stats["batched_groups"] += 1
        stats["batched_pmults"] += len(leaf_nodes)
    if not fused:
        return old
    rb = _Rebuilder(old)
    for node in old.nodes:
        if node.id in absorbed:
            rb.map[node.id] = None
            continue
        if node.id in fused:
            ct_args, plaintexts = fused[node.id]
            rb.map[node.id] = rb.new.add_node(
                "pmult_mac", tuple(rb.arg(a) for a in ct_args),
                level=node.level, scale=node.scale, domain="eval",
                attrs={"plaintexts": plaintexts},
            )
            continue
        if node.op in ("input", "input_lwe"):
            rb.rebuild_input(node)
            continue
        rb.map[node.id] = rb.new.add_node(
            node.op, tuple(rb.arg(a) for a in node.args), level=node.level,
            scale=node.scale, domain=node.domain, attrs=dict(node.attrs),
        )
    return rb.finish()


# ---------------------------------------------------------------------------
# 3b. Stacked conversion batching (annotation)
# ---------------------------------------------------------------------------

def _annotate_conversion_groups(program: HEProgram, stats: Dict[str, int]) -> None:
    """Group sibling ``to_eval``/``to_coeff`` nodes into stacked dispatches.

    A group shares one ``stacked_ntt``/``stacked_intt`` backend call at
    execution.  Members must agree on the conversion direction and the level
    (one NTT-context stack per dispatch), and every member's *source* must
    precede the group's first member — the executor converts the whole group
    the moment it reaches that first member, so all inputs have to be
    computed by then.  The greedy scan preserves those invariants by
    construction; groups that stay singletons execute as plain conversions.
    """
    open_groups: Dict[tuple, List[List[int]]] = {}
    groups: List[List[int]] = []
    for node in program.nodes:
        if node.op not in ("to_eval", "to_coeff"):
            continue
        key = (node.op, node.level)
        placed = False
        for group in open_groups.setdefault(key, []):
            if node.args[0] < group[0]:
                group.append(node.id)
                placed = True
                break
        if not placed:
            group = [node.id]
            open_groups[key].append(group)
            groups.append(group)
    index = 0
    for group in groups:
        if len(group) < 2:
            continue
        for member in group:
            program.node(member).attrs["conv_group"] = index
        index += 1
        stats["stacked_conversion_groups"] += 1
        stats["stacked_conversions"] += len(group)


# ---------------------------------------------------------------------------
# 3c. Batched PBS dispatch (annotation)
# ---------------------------------------------------------------------------

def _schedule_pbs_waves(old: HEProgram, stats: Dict[str, int]) -> HEProgram:
    """Reorder the program into bootstrap *waves* and group each wave into
    one batched PBS dispatch.

    A node's wave is the largest number of ``pbs``/``gate_bootstrap`` nodes
    on any path ending at it (inclusive).  Two bootstrap nodes in the same
    wave can never depend on each other, and every source of a wave-``w``
    bootstrap sits in a wave ``< w`` — so the stable re-sort by
    ``(wave, id)`` is a valid topological order in which all of a wave's
    sources precede its first member (the same executor invariant stacked
    conversions rely on).  Traces that interleave per-slot chains
    (extract, switch, bootstrap per slot) therefore still batch: the sort
    pulls the independent bootstraps together.

    Members of a group run as *one* array-resident blind rotation: the
    wave's accumulators are a single backend store, and each CMux iteration
    is a fixed handful of whole-wave dispatches against the shared
    evaluation-domain bootstrapping key (``repro.fhe.tfhe.batched``).  ``pbs``
    and ``gate_bootstrap`` nodes mix freely in one group (they differ only
    in their test vectors).

    ``lwe_keyswitch`` nodes wave-schedule the same way: every member of a
    wave crossing the key boundary in the same direction shares one bridge
    key, so the group runs as a single ``digits @ ksk`` dispatch
    (:func:`~repro.fhe.tfhe.batched.batched_lwe_keyswitch`) — the
    ``ks_group`` attribute mirrors ``pbs_group``.
    """
    boot_ops = ("pbs", "gate_bootstrap")
    waves = [0] * len(old)
    wave_members: Dict[int, List[int]] = {}
    ks_members: Dict[Tuple[int, str], List[int]] = {}
    for node in old.nodes:
        wave = max((waves[arg] for arg in node.args), default=0)
        if node.op in boot_ops:
            wave += 1
            wave_members.setdefault(wave, []).append(node.id)
        elif node.op == "lwe_keyswitch":
            wave += 1
            ks_members.setdefault(
                (wave, node.attrs["direction"]), []
            ).append(node.id)
        waves[node.id] = wave
    if not wave_members and not ks_members:
        return old
    order = sorted(range(len(old)), key=lambda i: (waves[i], i))
    rb = _Rebuilder(old)
    for old_id in order:
        node = old.node(old_id)
        if node.op in ("input", "input_lwe"):
            rb.rebuild_input(node)
            continue
        rb.map[node.id] = rb.new.add_node(
            node.op, tuple(rb.arg(a) for a in node.args), level=node.level,
            scale=node.scale, domain=node.domain, attrs=dict(node.attrs),
        )
    new = rb.finish()
    index = 0
    for wave in sorted(wave_members):
        members = wave_members[wave]
        if len(members) < 2:
            continue
        for member in members:
            new.node(rb.arg(member)).attrs["pbs_group"] = index
        index += 1
        stats["pbs_groups"] += 1
        stats["grouped_pbs"] += len(members)
    ks_index = 0
    for key in sorted(ks_members):
        members = ks_members[key]
        if len(members) < 2:
            continue
        for member in members:
            new.node(rb.arg(member)).attrs["ks_group"] = ks_index
        ks_index += 1
        stats["ks_groups"] += 1
        stats["grouped_keyswitches"] += len(members)
    return new


# ---------------------------------------------------------------------------
# 4. Hoist fusion (annotation)
# ---------------------------------------------------------------------------

def _annotate_hoist_groups(program: HEProgram, stats: Dict[str, int]) -> None:
    """Group rotations/conjugations by source: one hoist_decompose each."""
    groups: Dict[int, List[int]] = {}
    for node in program.nodes:
        if node.op in ("rotate", "conjugate"):
            groups.setdefault(node.args[0], []).append(node.id)
    for index, (source, members) in enumerate(groups.items()):
        for member in members:
            program.node(member).attrs["hoist_group"] = index
        if len(members) > 1:
            stats["hoisted_rotations"] += len(members)
        else:
            stats["outer_rotations"] += 1
    stats["hoist_groups"] = len(groups)
    stats["rotations"] = sum(len(m) for m in groups.values())


# ---------------------------------------------------------------------------
# Pipeline entry point
# ---------------------------------------------------------------------------

def plan_program(program: HEProgram, optimize: bool = True) -> PlannedProgram:
    """Run the pass pipeline: align always, optimize when requested.

    ``optimize=False`` yields the *aligned* program only — the node
    sequence the eager reference executor runs, with every waterline
    rescale and mod_down explicit but no residency planning, batching, or
    hoist sharing.  Dead-code elimination runs in **both** modes (a dead
    node is not part of the computation either path should perform, and
    both paths must agree on the Galois-key set they demand).
    Domain/batching passes are skipped automatically on non-NTT-friendly
    moduli (no evaluation domain exists there).
    """
    stats = {
        "rescales_inserted": 0, "mod_downs_inserted": 0,
        "conversions_inserted": 0, "dead_nodes_removed": 0,
        "hoist_groups": 0,
        "hoisted_rotations": 0, "outer_rotations": 0, "rotations": 0,
        "plain_multiplies": 0, "batched_groups": 0, "batched_pmults": 0,
        "stacked_conversion_groups": 0, "stacked_conversions": 0,
        "pbs_groups": 0, "grouped_pbs": 0, "scheme_switches": 0,
        "ks_groups": 0, "grouped_keyswitches": 0,
    }
    planned = _align(program, stats)
    planned = _eliminate_dead_code(planned, stats)
    ntt_friendly = (
        _limb_contexts(program.params.ring_degree, program.params.basis())
        is not None
    )
    if optimize:
        # PBS batching depends on the TFHE modulus (always NTT-friendly by
        # construction), not the CKKS chain, so it is not gated on
        # ntt_friendly.  The wave reorder runs *before* the residency and
        # conversion-stacking passes: those rebuild in program order and
        # their grouping invariant (sources precede the group's first
        # member) must be established on the final node order.
        planned = _schedule_pbs_waves(planned, stats)
    if optimize and ntt_friendly:
        planned = _plan_domains(planned, stats)
        planned = _fuse_pmult_macs(planned, stats)
        _annotate_conversion_groups(planned, stats)
    _annotate_hoist_groups(planned, stats)
    stats["scheme_switches"] = sum(
        1 for node in planned.nodes if node.op in SCHEME_SWITCH_OPS
    )
    stats["plain_multiplies"] = sum(
        1 if node.op == "multiply_plain" else len(node.attrs["plaintexts"])
        for node in planned.nodes
        if node.op in ("multiply_plain", "pmult_mac")
    )
    planned.validate()
    return PlannedProgram(program=planned, stats=stats, optimized=optimize)
