"""Planning passes: trace -> (align, domains, batching, waves, hoists) -> execute.

The pipeline turns a traced :class:`~repro.fhe.program.ir.HEProgram` into a
:class:`PlannedProgram` the executor and the lowering consume:

1. **Level/scale alignment** (always) — the waterline pass.  Wherever two
   operands meet at different levels a ``mod_down`` is inserted, and
   wherever an addition's scales diverge a ``rescale`` chain brings the
   hotter operand back to the waterline.  This replaces the eager
   evaluator's manual ``_check_levels``/``align``/``rescale`` bookkeeping;
   irreconcilable scales fail here, at plan time, not mid-execution.
2. **Domain-residency planning** (optimize only) — every node is assigned
   an execution domain from its op's residency class, propagating an
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
4. **Wave scheduling** (optimize only) — the one pass that reorders: the
   program is sorted by how many wave ops (``OpSpec.wave``: rotations,
   bootstraps, bridge keyswitches) lie on the longest path to each node,
   and the members of one wave run as one stacked dispatch — a keyswitch
   wave hoists each distinct source once and shares one stacked transform
   per phase across every rotation of a joint batch.
5. **Hoist fusion** (annotation) — rotations/conjugations are grouped by
   their source node (always inside one wave); every group shares a single
   hoist at execution, generalizing ``rotate_hoisted`` beyond the
   hand-written BSGS case.  Group ids are stored on the nodes and the
   sharing statistics in :attr:`PlannedProgram.stats`.

Per-op facts (level/scale rule, alignment and residency class, wave kind,
evaluation keys) are read from the op table (:mod:`repro.fhe.program.ops`);
only the passes that pattern-match particular ops by design — MAC fusion,
hoist grouping — name them.

Every pass is semantics-preserving over exact modular arithmetic: the
planned program computes bit-identical residues to the node-by-node eager
execution of the aligned program (gated by ``tests/test_program.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .ir import HENode, HEProgram, SCHEME_SWITCH_OPS
from .ops import OP_TABLE, infer, required_keys

__all__ = ["PlannedProgram", "plan_program"]


#: Every key of :attr:`PlannedProgram.stats` (all start at zero):
#: ``hoisted_rotations`` are rotations sharing a multi-member hoist,
#: ``outer_rotations`` singleton hoists; ``galois_waves``/``waved_rotations``
#: count rotations sharing a keyswitch wave, ``pbs_groups``/``grouped_pbs``
#: bootstraps sharing a batched blind rotation and
#: ``ks_groups``/``grouped_keyswitches`` bridge keyswitches sharing one
#: ``digits @ ksk`` dispatch; ``scheme_switches`` the surviving
#: scheme-switch nodes.
STATS_KEYS = (
    "rescales_inserted", "mod_downs_inserted", "conversions_inserted",
    "dead_nodes_removed", "hoist_groups", "hoisted_rotations",
    "outer_rotations", "rotations", "plain_multiplies", "batched_groups",
    "batched_pmults", "stacked_conversion_groups", "stacked_conversions",
    "pbs_groups", "grouped_pbs", "scheme_switches", "ks_groups",
    "grouped_keyswitches", "galois_waves", "waved_rotations",
)


@dataclass
class PlannedProgram:
    """An aligned (and optionally optimized) program plus planning stats
    (``stats`` holds exactly the :data:`STATS_KEYS` counters)."""

    program: HEProgram
    stats: Dict[str, int] = field(default_factory=dict)
    optimized: bool = True

    @property
    def params(self):
        return self.program.params

    # -- evaluation-key planning ----------------------------------------------
    def required_keys(self) -> List[tuple]:
        """Sorted ``("galois", element, level)`` / ``("relin", level)``
        tuples: every evaluation key executing this plan fetches (each
        op's requirement comes from the op table)."""
        return required_keys(self.program)

    def required_galois_elements(self) -> List[Tuple[int, int]]:
        """Sorted ``(galois_element, level)`` pairs this program keyswitches.

        Exactly the Galois keys the executor will fetch — after dead-code
        elimination, so unused baby rotations of sparse BSGS transforms do
        not demand keys.  Feed the result to
        :meth:`~repro.fhe.ckks.keys.CKKSKeySet.ensure_galois_keys` to
        materialize the minimal key set for this plan.
        """
        return [key[1:] for key in self.required_keys() if key[0] == "galois"]

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

    def copy(self, node: HENode) -> None:
        """Re-create ``node`` verbatim over its remapped arguments (inputs,
        the arity-0 kinds, are re-declared by name)."""
        if OP_TABLE[node.op].arity == 0:
            self.map[node.id] = self.new.add_input(
                node.attrs["name"], node.level, node.scale,
                lwe=node.attrs.get("lwe"))
        else:
            self.map[node.id] = self.new.add_node(
                node.op, tuple(self.arg(a) for a in node.args), node.level,
                node.scale, node.domain, node.attrs)

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
    node = rb.new.node(node_id)
    while not _close(node.scale, target_scale) and node.level >= 1:
        level, new_scale = infer(rb.new, "rescale", (node_id,), {})
        if abs(math.log(new_scale / target_scale)) >= abs(
            math.log(node.scale / target_scale)
        ):
            break
        node_id = rb.new.add_node("rescale", (node_id,), level, new_scale,
                                  domain=node.domain)
        stats["rescales_inserted"] += 1
        node = rb.new.node(node_id)
    return node_id


def _match_scale(rb: _Rebuilder, node_id: int, target_scale: float,
                 consumer: HENode, stats: Dict[str, int]) -> int:
    """Bring ``node_id`` to ``target_scale`` by rescaling, or fail at plan
    time.  LWE values sit at level 0 and have no rescale, so diverging
    encoding factors inside a TFHE island always fail here."""
    node_id = _rescale_towards(rb, node_id, target_scale, stats)
    scale = rb.new.node(node_id).scale
    if not _close(scale, target_scale):
        raise ValueError(
            f"cannot align scales {scale:g} vs {target_scale:g} feeding node "
            f"{consumer.id} ({consumer.op}); rescaling cannot reconcile them")
    return node_id


def _mod_down(rb: _Rebuilder, node_id: int, level: int,
              stats: Dict[str, int]) -> int:
    node = rb.new.node(node_id)
    if node.level == level:
        return node_id
    stats["mod_downs_inserted"] += 1
    return rb.new.emit("mod_down", (node_id,), {"level": level},
                       domain=node.domain)


def _align(old: HEProgram, stats: Dict[str, int]) -> HEProgram:
    """Insert mod_down / rescale nodes so every op sees legal operands.

    Each node's arguments are first brought to what its alignment class
    asks for, then the node is re-emitted with level and scale recomputed
    from the rebuilt arguments by the op's own rule — so a waterline
    rescale upstream propagates through everything downstream, TFHE islands
    included.  Islands are level-free: no rescale/mod_down ever lands inside
    one; the only work at the boundary is the mod-down of an extraction
    source to level 0 (SampleExtract reads the single-limb residue — exact,
    since encoded coefficients are small against q0).
    """
    rb = _Rebuilder(old)
    for node in old.nodes:
        spec = OP_TABLE[node.op]
        if spec.arity == 0:
            rb.copy(node)
            continue
        args = [rb.arg(a) for a in node.args]
        if node.op == "mod_down":
            # The waterline's own op: re-insert it canonically (and count it).
            rb.map[node.id] = _mod_down(rb, args[0], node.attrs["level"], stats)
            continue
        if spec.align == "plaintext-scale":
            args = [_match_scale(rb, args[0], node.attrs["plaintext"].scale,
                                 node, stats)]
        elif spec.align == "level+scale":
            target = min(rb.new.node(a).scale for a in args)
            args = [_match_scale(rb, a, target, node, stats) for a in args]
        if spec.align in ("level", "level+scale", "level-0"):
            common = (0 if spec.align == "level-0"
                      else min(rb.new.node(a).level for a in args))
            args = [_mod_down(rb, a, common, stats) for a in args]
        rb.map[node.id] = rb.new.emit(node.op, args, node.attrs, node.domain)
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
        if live[node.id]:
            rb.copy(node)
        else:
            rb.map[node.id] = None
    return rb.finish()


# ---------------------------------------------------------------------------
# 2. Domain-residency planning
# ---------------------------------------------------------------------------

#: The conversion op producing each domain (``"eval"`` -> ``"to_eval"``).
_CONVERSION_TO = {spec.converts_to: spec.name for spec in OP_TABLE.values()
                  if spec.converts_to is not None}


def _plan_domains(old: HEProgram, stats: Dict[str, int]) -> HEProgram:
    """Assign execution domains and insert the minimal conversion set.

    Driven by each op's residency class: ``wants-eval-args`` ops (the tensor
    product and the plaintext products are *pointwise* in the evaluation
    domain; a coefficient-domain PMult would be a full negacyclic
    convolution per component) take and return eval values;
    ``pass-through`` ops accept either domain and follow their consumers'
    preference; ``coeff-only`` ops (inputs, TFHE islands, scheme switches:
    LWE scalars have no NTT residency and SampleExtract reads polynomial
    coefficients) stop the eval-domain contagion at the boundary and force
    a ``to_coeff`` on an eval edge feeding them.
    """
    consumers = old.consumers()
    residency = [OP_TABLE[node.op].residency for node in old.nodes]
    # Backward sweep: does this node's result want to live in the evaluation
    # domain?  It does when any consumer is eval-hungry, directly or through
    # a chain of pass-through ops.
    prefer_eval = [False] * len(old)
    for node in reversed(old.nodes):
        prefer_eval[node.id] = any(
            residency[user] == "wants-eval-args"
            or (residency[user] == "pass-through" and prefer_eval[user])
            for user in consumers[node.id])
    # Forward sweep: the planned domain of each node.
    domain = ["coeff"] * len(old)
    for node in old.nodes:
        kind = residency[node.id]
        if kind == "conversion":
            domain[node.id] = OP_TABLE[node.op].converts_to
        elif kind == "wants-eval-args" or (kind == "pass-through" and (
                prefer_eval[node.id]
                or any(domain[a] == "eval" for a in node.args))):
            domain[node.id] = "eval"
    # Rebuild with explicit (hash-consed) conversions on mismatched edges.
    rb = _Rebuilder(old)
    for node in old.nodes:
        kind = residency[node.id]
        if not node.args:
            rb.copy(node)                 # inputs arrive coefficient-resident
            continue
        if kind == "conversion":
            # Already a conversion (re-planning): keep it, never wrap it.
            rb.map[node.id] = rb.new.emit(
                node.op, (rb.arg(node.args[0]),), domain=domain[node.id])
            continue
        wanted = "eval" if kind == "wants-eval-args" else domain[node.id]
        args = []
        for a in node.args:
            new_a = rb.arg(a)
            if rb.new.node(new_a).domain != wanted:
                before = len(rb.new)
                new_a = rb.new.emit(_CONVERSION_TO[wanted], (new_a,),
                                    domain=wanted)
                stats["conversions_inserted"] += len(rb.new) - before
            args.append(new_a)
        rb.map[node.id] = rb.new.add_node(
            node.op, tuple(args), node.level, node.scale, domain[node.id],
            node.attrs)
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
        rb.copy(node)
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
        if OP_TABLE[node.op].converts_to is None:
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
# 3c. Wave scheduling: stacked keyswitch / PBS / bridge dispatches
# ---------------------------------------------------------------------------

#: Wave kind (``OpSpec.wave``, the group attribute) -> its two counters:
#: groups formed, members grouped.
_WAVE_STATS = {
    "galois_wave": ("galois_waves", "waved_rotations"),
    "pbs_group": ("pbs_groups", "grouped_pbs"),
    "ks_group": ("ks_groups", "grouped_keyswitches"),
}


def _schedule_waves(old: HEProgram, stats: Dict[str, int]) -> HEProgram:
    """Reorder the program into *waves* and group each wave's members into
    one stacked dispatch.

    A node's wave is the largest number of wave ops (``OpSpec.wave``:
    rotations and conjugations, bootstraps, bridge keyswitches) on any path
    ending at it (inclusive).  Two wave ops in the same wave can never
    depend on each other, and every source of a wave-``w`` op sits in a
    wave ``< w`` — so the stable re-sort by ``(wave, id)`` is a valid
    topological order in which all of a wave's sources precede its first
    member (the same executor invariant stacked conversions rely on).
    Traces that interleave per-slot or per-request chains (extract, switch,
    bootstrap per slot; one BSGS transform per request of a joint batch)
    therefore still batch: the sort pulls the independent members together.

    Members of one wave, kind, level and ``direction`` share a group
    attribute named after the kind:

    * ``galois_wave`` — ``rotate``/``conjugate``: one keyswitch wave
      (:meth:`~repro.fhe.ckks.CKKSEvaluator.galois_wave`), each distinct
      source hoisted once, one stacked transform per phase.  On a width-8
      joint dense trace that is two waves — 56 baby rotations over 8
      hoists, then 24 giant rotations — instead of 80 keyswitches.
    * ``pbs_group`` — ``pbs``/``gate_bootstrap`` (they differ only in their
      test vectors and mix freely): *one* array-resident blind rotation
      whose CMux iterations are a fixed handful of whole-wave dispatches
      against the shared evaluation-domain bootstrapping key
      (``repro.fhe.tfhe.batched``).
    * ``ks_group`` — ``lwe_keyswitch``: every member crossing the key
      boundary in the same direction shares one bridge key, so the group is
      a single ``digits @ ksk`` dispatch
      (:func:`~repro.fhe.tfhe.batched.batched_lwe_keyswitch`).
    """
    waves = [0] * len(old)
    members: Dict[tuple, List[int]] = {}
    for node in old.nodes:
        kind = OP_TABLE[node.op].wave
        wave = max((waves[arg] for arg in node.args), default=0)
        if kind is not None:
            wave += 1
            members.setdefault(
                (kind, wave, node.level, node.attrs.get("direction")), []
            ).append(node.id)
        waves[node.id] = wave
    if not members:
        return old
    order = sorted(range(len(old)), key=lambda i: (waves[i], i))
    rb = _Rebuilder(old)
    for old_id in order:
        rb.copy(old.node(old_id))
    new = rb.finish()
    index = dict.fromkeys(_WAVE_STATS, 0)
    for key in sorted(members):
        kind, group = key[0], members[key]
        if len(group) < 2:
            continue
        for member in group:
            new.node(rb.arg(member)).attrs[kind] = index[kind]
        index[kind] += 1
        groups_formed, members_grouped = _WAVE_STATS[kind]
        stats[groups_formed] += 1
        stats[members_grouped] += len(group)
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
    """
    stats = dict.fromkeys(STATS_KEYS, 0)
    planned = _align(program, stats)
    planned = _eliminate_dead_code(planned, stats)
    if optimize:
        planned = _plan_domains(planned, stats)
        planned = _fuse_pmult_macs(planned, stats)
        # The wave reorder is the *last* rebuilding pass: a conversion the
        # residency pass puts in front of one member must not land between
        # a wave's first member and a later member's source, and conversion
        # stacking below needs the final node order.
        planned = _schedule_waves(planned, stats)
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
