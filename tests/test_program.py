"""Differential and pass-level suite for the ``repro.fhe.program`` API.

* **Differential**: every traced program executes bit-exact against the
  eager evaluator call sequence (``ProgramExecutor.run`` vs ``run_eager``),
  on both backends, cross-backend, across every params.py prime/degree
  combination including the <= 32-bit single-word fast path.
* **Pass-level**: hoist-fusion groups, inserted conversion counts, the
  rescale/mod_down waterline, pmult_mac batching (including the mixed-tree
  BSGS shape), and the lowered ``HomomorphicOp`` histogram cross-checked
  against ``bootstrap.linear_transform_plan``'s accounting.
* **Kernels**: the stacked backend entry points
  (``stacked_intt``/``stacked_ntt``/``stacked_pmult_mac``) and a keyswitch
  wave's ``keyswitch_rows`` are bit-exact against their per-store (or
  per-member) runs and across backends.
* **Fix regression**: ``rotate_hoisted`` validates rotation keys *before*
  hoisting and raises the same ``KeyError`` shape as ``rotate``.

The raw-polynomial tests run on the pure-python backend alone, so this file
is part of the no-numpy CI leg; encoder-based semantic tests skip without
numpy.
"""

import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fhe.backend import (
    PythonBackend,
    WrappedBackend,
    available_backends,
    use_backend,
)
from repro.fhe.ckks import evaluator as evaluator_module
from repro.fhe.ckks import keyswitch as keyswitch_module
from repro.fhe.program import executor as executor_module
from repro.fhe.ckks.bootstrap import linear_transform_plan
from repro.fhe.ckks.ciphertext import CKKSCiphertext, CKKSPlaintext
from repro.fhe.ckks.evaluator import CKKSEvaluator
from repro.fhe.ckks.keys import (
    CKKSKeyGenerator,
    CKKSKeySet,
    galois_element_for_rotation,
)
from repro.fhe.ckks.keyswitch import hoist_wave, keyswitch_wave
from repro.fhe.conversion.bridge import SchemeBridge
from repro.fhe.params import CKKSParameters, TFHEParameters
from repro.fhe.program import (
    HETrace,
    ProgramExecutor,
    SCHEME_SWITCH_OPS,
    TFHE_OPS,
    conversion_counts,
    hybrid_cycle_estimate,
    hybrid_kernel_histogram,
    lower_hybrid_to_workloads,
    lower_to_operations,
    lower_to_traces,
    operation_histogram,
    plan_program,
)
from repro.fhe.program.ops import OP_TABLE, OpSpec, residency_table
from repro.fhe.program.passes import STATS_KEYS, _Rebuilder
from repro.fhe.rns import RNSPolynomial, _limb_contexts
from repro.fhe.tfhe import TFHEContext
from repro.workloads.hybrid_workloads import (
    hybrid_query_parameters,
    hybrid_query_workloads,
)

numpy_missing = "numpy" not in available_backends()
needs_numpy = pytest.mark.skipif(numpy_missing, reason="numpy backend unavailable")

PYTHON = PythonBackend()

if not numpy_missing:
    from repro.fhe.backend import NumpyBackend

    #: Thresholds at 0: force the vectorized paths at every ring size.
    PACKED = NumpyBackend(min_vector_length=0, min_ntt_length=0)
    BACKENDS = [PYTHON, PACKED]
else:  # pragma: no cover - exercised only on numpy-less installs
    PACKED = None
    BACKENDS = [PYTHON]

#: Every params.py shape family, including a word-size (<= 32-bit) chain that
#: exercises the direct single-word kernels end to end.
PARAM_SETS = [
    CKKSParameters.toy(),
    CKKSParameters.toy(ring_degree=128, max_level=4, dnum=2),
    CKKSParameters.small(ring_degree=256),
    CKKSParameters(
        ring_degree=64, max_level=3, dnum=2, scale_bits=24, modulus_bits=28,
        special_modulus_bits=30, security_bits=0, name="ckks-u32",
    ),
]
PARAM_IDS = [
    f"{p.name}-N{p.ring_degree}-L{p.max_level}-{p.modulus_bits}bit"
    for p in PARAM_SETS
]


def _random_poly(params, seed, level=None):
    degree = params.ring_degree
    basis = params.basis(params.max_level if level is None else level)
    return RNSPolynomial.sample_uniform(degree, basis, random.Random(seed ^ 0x9E0681))


def _random_ct(params, seed, level=None, scale=None):
    level = params.max_level if level is None else level
    return CKKSCiphertext(
        c0=_random_poly(params, seed, level),
        c1=_random_poly(params, seed + 1, level),
        level=level,
        scale=float(params.scale) if scale is None else float(scale),
    )


def _random_pt(params, seed, level=None, scale=None):
    level = params.max_level if level is None else level
    return CKKSPlaintext(
        poly=_random_poly(params, seed, level),
        level=level,
        scale=float(params.scale) if scale is None else float(scale),
    )


def _rows(ct):
    """Coefficient rows of both components (domain-normalized, hashable)."""
    c0 = ct.c0.to_coeff()
    c1 = ct.c1.to_coeff()
    return (
        tuple(map(tuple, c0.coefficient_rows())),
        tuple(map(tuple, c1.coefficient_rows())),
    )


def _keyed(params, seed=11):
    keygen = CKKSKeyGenerator(params, seed=seed, error_stddev=0.0)
    return keygen.generate()


# ---------------------------------------------------------------------------
# Tracer / IR
# ---------------------------------------------------------------------------

class TestTracer:
    PARAMS = CKKSParameters.toy()

    def test_metadata_propagation(self):
        params = self.PARAMS
        t = HETrace(params)
        x = t.input("x")
        assert x.level == params.max_level and x.scale == float(params.scale)
        pt = _random_pt(params, 5)
        y = x * pt
        assert y.scale == x.scale * pt.scale and y.level == x.level
        z = y.rescale()
        assert z.level == x.level - 1
        assert z.scale == y.scale / params.moduli[x.level]
        assert x.rotate(0) is x                      # identity adds no node
        assert (x * 3).scale == x.scale              # scalar mult keeps scale

    def test_cse_merges_identical_subexpressions(self):
        t = HETrace(self.PARAMS)
        x = t.input("x")
        a = x.rotate(2)
        b = x.rotate(2)
        assert a.id == b.id                          # hash-consed
        pt = _random_pt(self.PARAMS, 7)
        assert (x * pt).id == (x * pt).id
        assert (x * pt).id != (a * pt).id

    def test_mixed_traces_rejected(self):
        t1 = HETrace(self.PARAMS)
        t2 = HETrace(self.PARAMS)
        x1, x2 = t1.input("x"), t2.input("x")
        with pytest.raises(ValueError):
            x1 + x2

    def test_trace_time_errors(self):
        t = HETrace(self.PARAMS)
        x = t.input("x", level=0)
        with pytest.raises(ValueError):
            x.rescale()
        with pytest.raises(ValueError):
            x.mod_down_to(1)
        with pytest.raises(ValueError):
            t.input("x")                             # duplicate name

    def test_malformed_nodes_fail_at_build_time(self):
        """Arity and required attributes are checked against the op table
        when the node is built, not at plan or execution time."""
        t = HETrace(self.PARAMS)
        x = t.input("x")
        add_node = t.program.add_node
        with pytest.raises(ValueError, match="rotate needs a 'steps'"):
            add_node("rotate", (x.id,), level=x.level, scale=x.scale)
        with pytest.raises(ValueError, match="add takes 2 argument"):
            add_node("add", (x.id,), level=x.level, scale=x.scale)
        with pytest.raises(ValueError, match="pmult_mac takes at least one"):
            add_node("pmult_mac", (), level=x.level, scale=x.scale,
                     attrs={"plaintexts": ()})
        with pytest.raises(ValueError, match="unknown program op 'rot'"):
            add_node("rot", (x.id,), level=x.level, scale=x.scale)
        assert len(t.program) == 1                   # nothing was appended


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class TestPasses:
    PARAMS = CKKSParameters.toy()

    def test_waterline_inserts_rescale_and_mod_down(self):
        """Adding a Delta^2 product to a Delta input auto-rescales and
        mod-downs — the alignment the eager API makes callers do by hand."""
        params = self.PARAMS
        t = HETrace(params)
        x = t.input("x")
        pt = _random_pt(params, 3)
        t.output("y", x * pt + x)                    # scales Delta^2 vs Delta
        planned = plan_program(t.program)
        assert planned.stats["rescales_inserted"] == 1
        assert planned.stats["mod_downs_inserted"] == 1
        ops = {node.op for node in planned.program.nodes}
        assert "rescale" in ops and "mod_down" in ops

    def test_irreconcilable_scales_fail_at_plan_time(self):
        params = self.PARAMS
        t = HETrace(params)
        x = t.input("x")
        weird = t.input("w", scale=float(params.scale) * 3.0)
        t.output("y", x + weird)
        with pytest.raises(ValueError, match="scale"):
            plan_program(t.program)

    def test_level_alignment(self):
        params = self.PARAMS
        t = HETrace(params)
        x = t.input("x")
        low = t.input("low", level=params.max_level - 2)
        t.output("y", x * low)
        planned = plan_program(t.program)
        assert planned.stats["mod_downs_inserted"] == 1
        out = planned.program.node(planned.program.outputs["y"])
        assert out.level == params.max_level - 2

    def test_domain_planning_multiply_chain_stays_resident(self):
        """multiply -> rescale -> multiply: eval inputs converted once each,
        nothing converts back to coefficients mid-chain."""
        params = self.PARAMS
        t = HETrace(params)
        a, b = t.input("a"), t.input("b")
        c = t.input("c", level=params.max_level - 1)
        t.output("y", (a * b).rescale() * c)
        planned = plan_program(t.program)
        counts = conversion_counts(planned)
        assert counts == {"to_eval": 3, "to_coeff": 0}
        for node in planned.program.nodes:
            if node.op in ("multiply", "rescale"):
                assert node.domain == "eval"

    def test_hoist_fusion_groups_by_source(self):
        params = self.PARAMS
        t = HETrace(params)
        x = t.input("x")
        rotations = [x.rotate(s) for s in (1, 2, 3)]
        y = rotations[0] + rotations[1] + rotations[2] + x.conjugate()
        z = y.rotate(1)
        t.output("y", z)
        planned = plan_program(t.program)
        stats = planned.stats
        # x's 3 rotations + conjugate share one hoist; y's rotation is alone.
        assert stats["hoist_groups"] == 2
        assert stats["hoisted_rotations"] == 4
        assert stats["outer_rotations"] == 1
        groups = {}
        for node in planned.program.nodes:
            if node.op in ("rotate", "conjugate"):
                groups.setdefault(node.attrs["hoist_group"], []).append(node.id)
        assert sorted(len(g) for g in groups.values()) == [1, 4]

    def test_dense_joint_plan_is_two_keyswitch_waves(self):
        """Width 8: 56 baby rotations over 8 hoists, then 24 giant
        rotations — two waves instead of 80 keyswitches."""
        planned = plan_program(_dense_joint_program(self.PARAMS, 8))
        assert planned.stats["galois_waves"] == 2
        assert planned.stats["waved_rotations"] == 80
        assert planned.stats["rotations"] == 80
        assert planned.stats["hoist_groups"] == 8 + 24
        assert set(planned.stats) == set(STATS_KEYS)
        waves = [node.attrs["galois_wave"] for node in planned.program.nodes
                 if node.op == "rotate"]
        assert waves == [0] * 56 + [1] * 24           # sorted wave by wave
        eager = plan_program(_dense_joint_program(self.PARAMS, 8), optimize=False)
        assert eager.stats["galois_waves"] == eager.stats["waved_rotations"] == 0
        assert not any("galois_wave" in node.attrs for node in eager.program.nodes)

    def test_pmult_mac_fusion_of_pure_and_mixed_trees(self):
        """A pure PMult sum fuses whole; a BSGS-shaped mixed accumulation
        fuses its inner blocks and keeps the outer adds."""
        params = self.PARAMS
        pts = [_random_pt(params, 20 + i) for i in range(4)]
        t = HETrace(params)
        x = t.input("x")
        babies = [x.rotate(i) for i in range(2)]
        inner0 = babies[0] * pts[0] + babies[1] * pts[1]
        inner1 = (babies[0] * pts[2] + babies[1] * pts[3]).rotate(2)
        t.output("y", inner0 + inner1)               # mixed: add(mac, rotate)
        planned = plan_program(t.program)
        assert planned.stats["batched_groups"] == 2
        assert planned.stats["batched_pmults"] == 4
        macs = [n for n in planned.program.nodes if n.op == "pmult_mac"]
        assert len(macs) == 2
        assert all(len(n.args) == 2 == len(n.attrs["plaintexts"]) for n in macs)
        assert planned.stats["plain_multiplies"] == 4

    def test_pmult_mac_fuses_when_tree_is_a_program_output(self):
        """Regression: a pure PMult sum whose only use is a program output
        (no consuming node) must still fuse, not crash."""
        params = self.PARAMS
        t = HETrace(params)
        x = t.input("x")
        p1, p2 = _random_pt(params, 30), _random_pt(params, 31)
        t.output("y", x * p1 + x * p2)
        planned = plan_program(t.program)
        assert planned.stats["batched_groups"] == 1
        assert planned.stats["batched_pmults"] == 2
        keys = _keyed(params)
        executor = ProgramExecutor(CKKSEvaluator(params, keys, backend=PYTHON))
        with use_backend(PYTHON):
            inputs = {"x": _random_ct(params, 32)}
            planned_out = executor.run(planned, inputs)["y"]
            eager_out = executor.run_eager(t.program, inputs)["y"]
            assert _rows(planned_out) == _rows(eager_out)

    def test_replanning_a_planned_program_is_stable(self):
        """Regression: plan_program over an already-planned program (with
        pmult_mac and to_eval nodes) must not crash and stays executable."""
        params = self.PARAMS
        t = HETrace(params)
        x = t.input("x")
        pts = [_random_pt(params, 33 + i) for i in range(2)]
        t.output("y", (x.rotate(1) * pts[0] + x.rotate(2) * pts[1]) * x)
        planned = plan_program(t.program)
        replanned = plan_program(planned.program)    # idempotent re-plan
        assert replanned.stats["batched_groups"] == 0   # already fused
        keys = _keyed(params)
        executor = ProgramExecutor(CKKSEvaluator(params, keys, backend=PYTHON))
        with use_backend(PYTHON):
            inputs = {"x": _random_ct(params, 35)}
            first = executor.run(planned, inputs)["y"]
            again = executor.run(replanned, inputs)["y"]
            eager = executor.run_eager(t.program, inputs)["y"]
            assert _rows(first) == _rows(again) == _rows(eager)

    def test_reused_subexpression_executes_once(self):
        params = self.PARAMS
        t = HETrace(params)
        x = t.input("x")
        r = x.rotate(1)
        t.output("y", r + r)                         # same node twice
        planned = plan_program(t.program)
        assert sum(1 for n in planned.program.nodes if n.op == "rotate") == 1


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

class TestLowering:
    def test_histogram_matches_linear_transform_plan(self):
        """A hand-traced BSGS dense layer lowers to exactly the cost model's
        (baby-1)+(giant-1) HRotate / n1*n2 PMult / n1*n2-1 HAdd accounting."""
        params = CKKSParameters.toy(ring_degree=128, max_level=3, dnum=2)
        dim = 16
        plan = linear_transform_plan(params.slots, params.max_level,
                                     diagonals=dim)
        n1, n2 = plan.baby_steps, plan.giant_steps
        pts = {
            (j, i): _random_pt(params, 100 + j * n1 + i)
            for j in range(n2) for i in range(n1)
        }
        t = HETrace(params)
        x = t.input("x")
        babies = [x.rotate(i) for i in range(n1)]
        result = None
        for j in range(n2):
            inner = None
            for i in range(n1):
                term = babies[i] * pts[(j, i)]
                inner = term if inner is None else inner + term
            if j:
                inner = inner.rotate(j * n1)
            result = inner if result is None else result + inner
        t.output("y", result.rescale())
        planned = plan_program(t.program)
        histogram = operation_histogram(planned)
        assert histogram["HRotate"] == plan.num_rotations
        assert histogram["PMult"] == plan.num_plain_multiplies
        assert histogram["HAdd"] == plan.num_additions
        assert histogram["Rescale"] == 1
        # The same accounting must hold for the *unoptimized* stream (fusion
        # cannot change the math the cost model charges).
        eager_hist = operation_histogram(plan_program(t.program, optimize=False))
        assert eager_hist == histogram

    def test_levels_annotated_and_conversions_excluded(self):
        params = CKKSParameters.toy()
        t = HETrace(params)
        a, b = t.input("a"), t.input("b")
        t.output("y", (a * b).rescale() + b.mod_down_to(params.max_level - 1))
        planned = plan_program(t.program)
        ops = lower_to_operations(planned)
        assert all(op.name in ("HMult", "Rescale", "HAdd") for op in ops)
        hmult = next(op for op in ops if op.name == "HMult")
        assert hmult.level == params.max_level
        hadd = next(op for op in ops if op.name == "HAdd")
        assert hadd.level == params.max_level - 1
        # Rescale works on its input's limbs: priced where it starts.
        rescale = next(op for op in ops if op.name == "Rescale")
        assert rescale.level == params.max_level

    def test_a_rescale_onto_level_zero_lowers_to_a_flow(self):
        params = CKKSParameters.toy()
        t = HETrace(params)
        x = t.input("x", level=1)
        t.output("y", (x * x).rescale())
        planned = plan_program(t.program)
        assert [(op.name, op.level) for op in lower_to_operations(planned)] == [
            ("HMult", 1), ("Rescale", 1)]
        traces = lower_to_traces(planned)
        assert len(traces) == 2 and all(len(trace) for trace in traces)


# ---------------------------------------------------------------------------
# Differential: planned == eager call sequence, bit-exact
# ---------------------------------------------------------------------------

def _trace_mixed_program(params, seeds):
    """A program exercising every traceable op (rotations sharing a source,
    conjugation, HMult + relinearization, PMult/PAdd, waterline insertion).

    Plaintext scales are chosen CKKS-consistently for *any* modulus chain
    (``pt_a`` at scale ``q_L`` so its product rescales exactly back to the
    ciphertext scale; ``pt_c`` at the post-rescale scale of ``y``), so the
    waterline pass has legal rescue moves on every params.py family.
    """
    delta = float(params.scale)
    level = params.max_level
    pt_a = _random_pt(params, seeds + 1, scale=float(params.moduli[level]))
    pt_b = _random_pt(params, seeds + 2, scale=delta)
    pt_c = _random_pt(
        params, seeds + 3,
        scale=delta * delta / params.moduli[level - 1],
    )
    t = HETrace(params)
    x = t.input("x")
    w = t.input("w")
    # x*pt_a has scale Delta*q_L vs Delta for the rotations: the waterline
    # pass must insert exactly one rescale plus the mod_downs.
    lin = x * pt_a + x.rotate(1) + x.rotate(2) - x.conjugate()
    quad = lin * w                                    # HMult + relinearization
    y = quad + x * pt_b                               # equal scales, mod_down
    z = (y.rescale() + pt_c) * 3
    t.output("y", y)
    t.output("z", (-z) + z.inner_sum(3))
    return t.program


@pytest.mark.parametrize("params", PARAM_SETS, ids=PARAM_IDS)
class TestDifferential:
    def test_planned_matches_eager_and_cross_backend(self, params):
        program = _trace_mixed_program(params, seeds=40)
        reference = None
        for backend in BACKENDS:
            keys = _keyed(params)
            evaluator = CKKSEvaluator(params, keys, backend=backend)
            executor = ProgramExecutor(evaluator)
            with use_backend(backend):
                inputs = {
                    "x": _random_ct(params, 50),
                    "w": _random_ct(params, 60),
                }
                planned_out = executor.run(program, inputs)
                eager_out = executor.run_eager(program, inputs)
                rows = {
                    name: _rows(ct) for name, ct in planned_out.items()
                }
                for name, ct in eager_out.items():
                    assert rows[name] == _rows(ct), (backend.name, name)
                    assert planned_out[name].level == ct.level
                    assert abs(planned_out[name].scale / ct.scale - 1) < 1e-9
            if reference is None:
                reference = rows
            else:
                assert rows == reference              # cross-backend bit-exact

    def test_planned_rotations_match_rotate_hoisted(self, params):
        """Fused-hoist rotations == the evaluator's rotate_hoisted output."""
        steps = [1, 2, 5]
        t = HETrace(params)
        x = t.input("x")
        for s in steps:
            t.output(f"r{s}", x.rotate(s))
        for backend in BACKENDS:
            keys = _keyed(params)
            evaluator = CKKSEvaluator(params, keys, backend=backend)
            with use_backend(backend):
                ct = _random_ct(params, 70)
                outs = ProgramExecutor(evaluator).run(t.program, {"x": ct})
                expected = evaluator.rotate_hoisted(ct, steps)
                for s, exp in zip(steps, expected):
                    assert _rows(outs[f"r{s}"]) == _rows(exp), (backend.name, s)


class TestExecutorValidation:
    PARAMS = CKKSParameters.toy()

    def _executor(self):
        keys = _keyed(self.PARAMS)
        return ProgramExecutor(CKKSEvaluator(self.PARAMS, keys, backend=PYTHON))

    def test_missing_input_raises(self):
        t = HETrace(self.PARAMS)
        t.output("y", t.input("x").rotate(1))
        with pytest.raises(ValueError, match="missing program inputs"):
            self._executor().run(t.program, {})

    def test_level_mismatch_raises(self):
        t = HETrace(self.PARAMS)
        t.output("y", t.input("x") * 2)
        with use_backend(PYTHON):
            ct = _random_ct(self.PARAMS, 80, level=self.PARAMS.max_level - 1)
        with pytest.raises(ValueError, match="level"):
            self._executor().run(t.program, {"x": ct})

    def test_missing_galois_key_raises_before_hoist(self):
        """Executor key prefetch: a key set without a generator fails with
        the same KeyError shape as evaluator.rotate."""
        params = self.PARAMS
        keys = _keyed(params)
        frozen = CKKSKeySet(params=params, secret=keys.secret, public=keys.public)
        evaluator = CKKSEvaluator(params, frozen, backend=PYTHON)
        t = HETrace(params)
        t.output("y", t.input("x").rotate(1))
        with use_backend(PYTHON):
            ct = _random_ct(params, 81)
        with pytest.raises(KeyError, match="no Galois key"):
            ProgramExecutor(evaluator).run(t.program, {"x": ct})


# ---------------------------------------------------------------------------
# Fix regression: rotate_hoisted validates keys before hoisting
# ---------------------------------------------------------------------------

class TestRotateHoistedKeyValidation:
    def test_missing_key_raises_like_rotate(self):
        params = CKKSParameters.toy()
        keys = _keyed(params)
        frozen = CKKSKeySet(params=params, secret=keys.secret, public=keys.public)
        evaluator = CKKSEvaluator(params, frozen, backend=PYTHON)
        with use_backend(PYTHON):
            ct = _random_ct(params, 90)
        with pytest.raises(KeyError) as via_rotate:
            evaluator.rotate(ct, 3)
        with pytest.raises(KeyError) as via_hoisted:
            evaluator.rotate_hoisted(ct, [1, 3])
        assert "no Galois key" in str(via_hoisted.value)
        # Same KeyError shape: identical message for the same missing key.
        with pytest.raises(KeyError) as via_hoisted_3:
            evaluator.rotate_hoisted(ct, [3])
        assert str(via_hoisted_3.value) == str(via_rotate.value)

    def test_identity_step_needs_no_key(self):
        params = CKKSParameters.toy()
        keys = _keyed(params)
        frozen = CKKSKeySet(params=params, secret=keys.secret, public=keys.public)
        evaluator = CKKSEvaluator(params, frozen, backend=PYTHON)
        with use_backend(PYTHON):
            ct = _random_ct(params, 91)
            (out,) = evaluator.rotate_hoisted(ct, [0])
            assert _rows(out) == _rows(ct)


# ---------------------------------------------------------------------------
# Keyswitch waves: joint dense traces, the wave invariant, the dispatch census
# ---------------------------------------------------------------------------

def _dense_joint_program(params, width, dim=32, seed=500):
    """``width`` requests of one BSGS dense layer in one program — the joint
    trace the serving scheduler plans for a batch (the node shape of
    ``BSGSLinearTransform.trace``, with random plaintexts so it needs no
    encoder and runs on the no-numpy leg)."""
    plan = linear_transform_plan(params.slots, params.max_level, diagonals=dim)
    n1, n2 = plan.baby_steps, plan.giant_steps
    pts = [[_random_pt(params, seed + j * n1 + i) for i in range(n1)]
           for j in range(n2)]
    t = HETrace(params)
    handles = [t.input(f"x{k}") for k in range(width)]
    for k, x in enumerate(handles):
        babies = [x.rotate(i) for i in range(n1)]
        result = None
        for j in range(n2):
            inner = None
            for i in range(n1):
                term = babies[i] * pts[j][i]
                inner = term if inner is None else inner + term
            if j:
                inner = inner.rotate(j * n1)
            result = inner if result is None else result + inner
        t.output(f"y{k}", result)
    return t.program


def _shuffled(program, rng):
    """The same program, its nodes in another valid topological order."""
    rb = _Rebuilder(program)
    pending = {node.id for node in program.nodes}
    while pending:
        ready = sorted(i for i in pending
                       if not pending.intersection(program.node(i).args))
        pick = rng.choice(ready)
        rb.copy(program.node(pick))
        pending.remove(pick)
    return rb.finish()


def _signature(program):
    return [(node.op, node.args, node.level, repr(node.scale), node.domain,
             node.attrs) for node in program.nodes]


def _assert_wave_invariant(planned):
    """Every member's source precedes its group's first member (what lets
    the executor run a whole group when it reaches that first member), and
    planning the plan again changes nothing."""
    groups = {}
    for node in planned.program.nodes:
        for attr in ("galois_wave", "pbs_group", "ks_group", "conv_group"):
            if attr in node.attrs:
                groups.setdefault((attr, node.attrs[attr]), []).append(node)
    for (attr, _), members in groups.items():
        first = min(member.id for member in members)
        assert len(members) >= 2
        assert all(arg < first for member in members for arg in member.args)
        assert len({member.level for member in members}) == 1, attr
    again = plan_program(planned.program)
    assert _signature(again.program) == _signature(planned.program)
    return groups


class TestKeyswitchWaves:
    PARAMS = CKKSParameters.toy()

    def _executor(self, backend):
        keys = _keyed(self.PARAMS)
        return ProgramExecutor(CKKSEvaluator(self.PARAMS, keys, backend=backend))

    def _inputs(self, width):
        return {f"x{k}": _random_ct(self.PARAMS, 600 + 2 * k)
                for k in range(width)}

    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    def test_joint_dense_trace_is_exact_and_two_waves(self, width):
        """Planned (two keyswitch waves, whatever the width) == eager (one
        keyswitch per rotation), residue for residue, on every backend."""
        program = _dense_joint_program(self.PARAMS, width)
        planned = plan_program(program)
        assert planned.stats["galois_waves"] == 2
        assert planned.stats["waved_rotations"] == 10 * width
        assert planned.stats["hoist_groups"] == 4 * width
        groups = _assert_wave_invariant(planned)
        assert sorted(len(members) for (attr, _), members in groups.items()
                      if attr == "galois_wave") == [3 * width, 7 * width]
        reference = None
        for backend in BACKENDS:
            executor = self._executor(backend)
            with use_backend(backend):
                inputs = self._inputs(width)
                planned_out = executor.run(planned, inputs)
                eager_out = executor.run_eager(program, inputs)
            rows = {name: _rows(ct) for name, ct in planned_out.items()}
            assert rows == {name: _rows(ct) for name, ct in eager_out.items()}
            assert reference in (None, rows)          # cross-backend bit-exact
            reference = rows

    def test_a_wave_larger_than_the_budget_is_cut_and_still_exact(self, monkeypatch):
        """Budget at one member's worth: every chunk is a single keyswitch
        or hoist, the residues are the uncut wave's."""
        program = _dense_joint_program(self.PARAMS, 3)
        planned = plan_program(program)
        for backend in BACKENDS:
            counting = WrappedBackend(backend)
            executor = self._executor(counting)
            with use_backend(backend):
                inputs = self._inputs(3)
                executor.run(planned, inputs)          # rotation keys: first use
                warm = dict(counting.calls)
                whole = executor.run(planned, inputs)
                uncut = dict(counting.calls)
                monkeypatch.setattr(keyswitch_module, "WAVE_ELEMENTS", 1)
                cut = executor.run(planned, inputs)
                monkeypatch.undo()
            calls = counting.calls
            # Per run: the stacked input conversion and a forward dispatch
            # per hoist chunk; the per-key phase is one dispatch per chunk.
            assert uncut["stacked_ntt"] - warm["stacked_ntt"] == 1 + 2
            assert uncut["keyswitch_rows"] - warm["keyswitch_rows"] == 2
            assert calls["stacked_ntt"] - uncut["stacked_ntt"] == 1 + 12
            assert calls["keyswitch_rows"] - uncut["keyswitch_rows"] == 30  # keyswitches
            assert {n: _rows(ct) for n, ct in cut.items()} == {
                n: _rows(ct) for n, ct in whole.items()}

    def test_transform_dispatches_per_batch_are_pinned(self):
        """The census that guards the gain without a timer: the planned
        width-8 joint dense trace issues five transform dispatches (the
        budget never cuts at this ring) — the stacked conversion of the
        eight inputs, then per wave a source inverse and a digit forward
        transform for the hoists — and per wave one ``keyswitch_rows``,
        whose ModDown transforms only inside it.  One keyswitch per node
        would be 80 of each again."""
        transforms = ("batched_ntt", "batched_intt", "stacked_ntt", "stacked_intt",
                      "keyswitch_rows")
        planned = plan_program(_dense_joint_program(self.PARAMS, 8))
        for backend in BACKENDS:
            counting = WrappedBackend(backend)
            executor = self._executor(counting)
            with use_backend(backend):
                inputs = self._inputs(8)
                executor.run(planned, inputs)          # key transforms: first use
                before = dict(counting.calls)
                executor.run(planned, inputs)
            after = counting.calls
            per_batch = [after.get(kernel, 0) - before.get(kernel, 0)
                         for kernel in transforms]
            assert per_batch == [0, 0, 3, 2, 2], backend.name

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), which=st.integers(0, 2))
    def test_any_topological_order_plans_into_valid_waves(self, seed, which):
        """Shuffled-but-valid node orders of rotation programs: after the
        pass every member's source precedes its wave's first member, the
        plan is a fixed point of the planner, and the waves do not depend
        on the order the trace happened to emit (conversion stacking is a
        greedy scan over that order and may)."""
        program = (
            _dense_joint_program(self.PARAMS, 2),
            _dense_joint_program(self.PARAMS, 3, dim=8),
            _trace_mixed_program(self.PARAMS, seeds=40),
        )[which]
        shuffled = plan_program(_shuffled(program, random.Random(seed)))
        _assert_wave_invariant(shuffled)
        greedy = ("stacked_conversion_groups", "stacked_conversions")
        assert {key: value for key, value in shuffled.stats.items()
                if key not in greedy} == {
            key: value for key, value in plan_program(program).stats.items()
            if key not in greedy}

    def test_shuffled_mixed_program_still_matches_eager(self):
        program = _trace_mixed_program(self.PARAMS, seeds=40)
        shuffled = _shuffled(program, random.Random(7))
        planned = plan_program(shuffled)
        assert planned.stats["galois_waves"] >= 1
        executor = self._executor(PYTHON)
        with use_backend(PYTHON):
            inputs = {"x": _random_ct(self.PARAMS, 50),
                      "w": _random_ct(self.PARAMS, 60)}
            planned_out = executor.run(planned, inputs)
            eager_out = executor.run_eager(program, inputs)
        assert {n: _rows(ct) for n, ct in planned_out.items()} == {
            n: _rows(ct) for n, ct in eager_out.items()}

    def test_wave_resolves_every_key_before_any_transform(self):
        """A missing Galois key fails a wave like it fails a call: the same
        ``KeyError``, before any hoist work."""
        params = self.PARAMS
        keys = _keyed(params)
        keys.ensure_rotation_keys([1], params.max_level)
        frozen = CKKSKeySet(params=params, secret=keys.secret, public=keys.public,
                            _galois_keys=dict(keys._galois_keys))
        counting = WrappedBackend(PYTHON)
        evaluator = CKKSEvaluator(params, frozen, backend=counting)
        elements = [evaluator.galois_element_for_rotation(s) for s in (1, 3)]
        with use_backend(PYTHON):
            a, b = _random_ct(params, 92), _random_ct(params, 93)
        with pytest.raises(KeyError) as via_rotate:
            evaluator.rotate(a, 3)
        with pytest.raises(KeyError) as via_wave:
            evaluator.galois_wave([(a, elements[0]), (b, elements[1])])
        assert str(via_wave.value) == str(via_rotate.value)
        assert not {"bconv_matmul", "stacked_ntt", "batched_ntt",
                    "limbs_eval_mac"} & counting.calls.keys()

    def test_wave_members_must_share_a_level(self):
        params = self.PARAMS
        evaluator = CKKSEvaluator(params, _keyed(params), backend=PYTHON)
        g = evaluator.galois_element_for_rotation(1)
        with use_backend(PYTHON):
            top = _random_ct(params, 94)
            low = _random_ct(params, 95, level=params.max_level - 1)
        with pytest.raises(ValueError, match="member 1"):
            evaluator.galois_wave([(top, g), (low, g)])

    def test_rotate_by_zero_inside_a_wave_is_a_copy_and_joins_no_dispatch(
            self, monkeypatch):
        params = self.PARAMS
        evaluator = CKKSEvaluator(params, _keyed(params), backend=PYTHON)
        g = evaluator.galois_element_for_rotation(2)
        joined = []
        original = evaluator_module.keyswitch_wave

        def counting(members):
            joined.extend(members)
            return original(members)

        monkeypatch.setattr(evaluator_module, "keyswitch_wave", counting)
        with use_backend(PYTHON):
            a, b = _random_ct(params, 96), _random_ct(params, 97)
            same, rotated, also_same = evaluator.galois_wave(
                [(a, 1), (b, g), (b, 1)])
            (alone,) = evaluator.galois_wave([(b, g)])
            (only_identity,) = evaluator.galois_wave([(a, 1)])
        assert len(joined) == 2                       # (b, g), twice
        assert _rows(same) == _rows(a) and same is not a
        assert _rows(also_same) == _rows(b) and _rows(only_identity) == _rows(a)
        assert _rows(rotated) == _rows(alone)


# ---------------------------------------------------------------------------
# Dead-code elimination + rotation-key planning
# ---------------------------------------------------------------------------

class TestDeadCodeElimination:
    PARAMS = CKKSParameters.toy()

    def _dead_rotation_program(self):
        t = HETrace(self.PARAMS)
        x = t.input("x")
        x.rotate(3)                              # traced, never consumed
        x.rotate(7).conjugate()                  # a dead chain
        t.output("y", x.rotate(1) + x.rotate(2))
        return t.program

    def test_dead_nodes_removed_in_both_modes(self):
        program = self._dead_rotation_program()
        for optimize in (True, False):
            planned = plan_program(program, optimize=optimize)
            assert planned.stats["dead_nodes_removed"] == 3
            ops = [n.op for n in planned.program.nodes if n.op == "rotate"]
            assert len(ops) == 2
            assert not any(
                n.op == "conjugate" for n in planned.program.nodes
            )

    def test_unused_inputs_are_kept(self):
        t = HETrace(self.PARAMS)
        x = t.input("x")
        t.input("unused")
        t.output("y", x.rotate(1))
        planned = plan_program(t.program)
        assert set(planned.program.inputs) == {"x", "unused"}

    def test_required_galois_elements_shrink_with_dce(self):
        program = self._dead_rotation_program()
        planned = plan_program(program)
        ring = self.PARAMS.ring_degree
        level = self.PARAMS.max_level
        expected = sorted(
            (pow(5, s, 2 * ring), level) for s in (1, 2)
        )
        assert planned.required_galois_elements() == expected
        assert planned.required_rotation_steps() == {level: [1, 2]}

    def _hybrid_round_trip(self):
        """extract -> c2t -> PBS -> t2c -> repack, then a conjugation."""
        params, tparams = hybrid_query_parameters()
        keys = _keyed(params)
        tfhe = TFHEContext(tparams, seed=7)
        t = HETrace(params, tfhe_params=tparams)
        x = t.input("x", level=1, scale=float(params.scale))
        bits = [lwe.keyswitch_to_tfhe().pbs(lambda m: m).keyswitch_to_ckks()
                for lwe in x.extract_lwes(2)]
        t.output("y", t.repack(bits).conjugate())
        with use_backend(PYTHON):
            ct = _encrypt_coefficients(
                params, keys, [0] * params.ring_degree, level=1, scale=params.scale)
            bridge = SchemeBridge(params, keys.secret, tfhe, seed=7)
        return t.program, keys, {"x": ct}, {"tfhe": tfhe, "bridge": bridge}

    def _dead_rotations(self):
        inputs = {"x": _random_ct(self.PARAMS, 300)}
        return self._dead_rotation_program(), _keyed(self.PARAMS), inputs, {}

    def test_minimal_key_set_executes(self):
        """ensure_galois_keys over the plan's requirement set is sufficient:
        a frozen key set holding exactly those keys runs the program (the
        dead rotations would otherwise demand keys at prefetch time, and a
        repack element the planner under-reports is missing there)."""
        for build, expected_keys in (
            (self._dead_rotations, 2),
            (self._hybrid_round_trip, 1 + 5 + 1),   # PackLWEs + Trace + conj
        ):
            program, keys, inputs, contexts = build()
            planned = plan_program(program)
            generated = keys.ensure_galois_keys(
                planned.required_galois_elements())
            assert len(generated) == expected_keys
            frozen = CKKSKeySet(
                params=keys.params, secret=keys.secret, public=keys.public,
                _galois_keys=dict(keys._galois_keys),
            )
            evaluator = CKKSEvaluator(keys.params, frozen, backend=PYTHON)
            with use_backend(PYTHON):
                out = ProgramExecutor(evaluator, **contexts).run(planned, inputs)
            assert out["y"].level == planned.program.node(
                planned.program.outputs["y"]).level

    def test_conjugate_requirement_reported(self):
        t = HETrace(self.PARAMS)
        x = t.input("x")
        t.output("y", x.conjugate())
        planned = plan_program(t.program)
        assert planned.required_galois_elements() == [
            (2 * self.PARAMS.ring_degree - 1, self.PARAMS.max_level)
        ]
        assert planned.required_rotation_steps() == {}


# ---------------------------------------------------------------------------
# Stacked conversion batching
# ---------------------------------------------------------------------------

class TestStackedConversionBatching:
    PARAMS = CKKSParameters.toy()

    def test_sibling_conversions_grouped(self):
        """Two coefficient inputs feeding one multiply convert in a single
        stacked dispatch; the planner annotates them as one group."""
        t = HETrace(self.PARAMS)
        a, b = t.input("a"), t.input("b")
        t.output("y", a * b)
        planned = plan_program(t.program)
        assert planned.stats["stacked_conversion_groups"] == 1
        assert planned.stats["stacked_conversions"] == 2
        groups = [
            n.attrs.get("conv_group") for n in planned.program.nodes
            if n.op == "to_eval"
        ]
        assert groups == [0, 0]

    def test_grouped_execution_is_bit_exact(self):
        pts = [_random_pt(self.PARAMS, 310 + i) for i in range(2)]
        t = HETrace(self.PARAMS)
        a, b, c = t.input("a"), t.input("b"), t.input("c")
        t.output("y", (a * b) + (c * pts[0]) * pts[1])
        planned = plan_program(t.program)
        assert planned.stats["stacked_conversion_groups"] >= 1
        keys = _keyed(self.PARAMS)
        for backend in BACKENDS:
            evaluator = CKKSEvaluator(self.PARAMS, keys, backend=backend)
            executor = ProgramExecutor(evaluator)
            with use_backend(backend):
                inputs = {
                    "a": _random_ct(self.PARAMS, 320),
                    "b": _random_ct(self.PARAMS, 321),
                    "c": _random_ct(self.PARAMS, 322),
                }
                planned_out = executor.run(planned, inputs)["y"]
                eager_out = executor.run_eager(t.program, inputs)["y"]
                assert _rows(planned_out) == _rows(eager_out), backend.name

    def test_group_members_only_share_ready_sources(self):
        """A conversion whose source is computed *after* an earlier group
        opened must start its own group (the stacking invariant)."""
        pt = _random_pt(self.PARAMS, 330)
        t = HETrace(self.PARAMS)
        a, b = t.input("a"), t.input("b")
        first = a * b                            # converts a and b (group 0)
        second = first.rescale() * (a * pt)      # a*pt is eval already
        t.output("y", second)
        planned = plan_program(t.program)
        program = planned.program
        for node in program.nodes:
            if node.op != "to_eval" or "conv_group" not in node.attrs:
                continue
            group_members = [
                n for n in program.nodes
                if n.op == "to_eval"
                and n.attrs.get("conv_group") == node.attrs["conv_group"]
            ]
            first_member = min(n.id for n in group_members)
            for member in group_members:
                assert member.args[0] < first_member


# ---------------------------------------------------------------------------
# Plaintext evaluation-domain encoding cache
# ---------------------------------------------------------------------------

class TestPlaintextEvalCache:
    @pytest.mark.parametrize("params", PARAM_SETS, ids=PARAM_IDS)
    def test_cache_hit_is_exact_and_keyed_per_backend(self, params):
        pt = _random_pt(params, 95)
        reference = None
        for backend in BACKENDS:
            keys = _keyed(params)
            evaluator = CKKSEvaluator(params, keys, backend=backend)
            with use_backend(backend):
                ct = evaluator.to_eval(_random_ct(params, 96))
                first = evaluator.multiply_plain(ct, pt)
                cached = evaluator.multiply_plain(ct, pt)    # cache hit
                assert _rows(first) == _rows(cached)
                padd = evaluator.add_plain(ct, pt)
                # Coefficient path is untouched by the cache.
                coeff = evaluator.multiply_plain(evaluator.to_coeff(ct), pt)
                assert _rows(first) == _rows(coeff)
                if reference is None:
                    reference = (_rows(first), _rows(padd))
                else:
                    assert (_rows(first), _rows(padd)) == reference
        # One entry per backend.
        assert len(pt._eval_cache) == len({b.name for b in BACKENDS})

    def test_cache_respects_levels(self):
        params = CKKSParameters.toy()
        pt = _random_pt(params, 97)
        keys = _keyed(params)
        evaluator = CKKSEvaluator(params, keys, backend=PYTHON)
        with use_backend(PYTHON):
            high = evaluator.to_eval(_random_ct(params, 98))
            low = evaluator.to_eval(
                _random_ct(params, 99, level=params.max_level - 1)
            )
            a = evaluator.multiply_plain(high, pt)
            b = evaluator.multiply_plain(low, pt)
            assert a.level == params.max_level and b.level == params.max_level - 1
        assert len(pt._eval_cache) == 2              # one entry per level


# ---------------------------------------------------------------------------
# Stacked backend kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", PARAM_SETS, ids=PARAM_IDS)
class TestStackedKernels:
    def test_stacked_transforms_match_batched(self, params):
        contexts = _limb_contexts(params.ring_degree, params.basis())
        assert contexts is not None
        for backend in BACKENDS:
            with use_backend(backend):
                polys = [_random_poly(params, 200 + i) for i in range(3)]
                stores = [p.store() for p in polys]
                fwd = backend.stacked_ntt(contexts, stores)
                for got, poly in zip(fwd, polys):
                    expected = backend.batched_ntt(contexts, poly.store())
                    assert backend.store_rows(got) == backend.store_rows(expected)
                inv = backend.stacked_intt(contexts, fwd)
                for got, poly in zip(inv, polys):
                    assert backend.store_rows(got) == poly.coefficient_rows()

    def test_keyswitch_rows_matches_per_member(self, params):
        """A wave's per-key phase (Galois members and a relinearisation
        sharing hoists) equals its members run one at a time, on every
        backend and across backends."""
        keys = _keyed(params)
        level = params.max_level
        g1, g2 = (galois_element_for_rotation(params.ring_degree, r) for r in (1, 2))

        def rows(pairs):
            return [tuple(tuple(map(tuple, f.to_coeff().coefficient_rows()))
                          for f in pair) for pair in pairs]

        reference = None
        for backend in BACKENDS:
            with use_backend(backend):
                first, second = hoist_wave(
                    [_random_poly(params, 210 + i) for i in range(2)], params, level)
                members = [(first, keys.galois_key(g1, level), g1),
                           (first, keys.galois_key(g2, level), g2),
                           (second, keys.galois_key(g1, level), g1),
                           (first, keys.relinearization_key(level), None)]
                wave = rows(keyswitch_wave(members))
                assert wave == rows(keyswitch_wave([member])[0] for member in members)
            assert reference in (None, wave)
            reference = wave

    def test_stacked_pmult_mac_matches_mul_add_chain(self, params):
        moduli = tuple(params.basis().moduli)
        reference = None
        for backend in BACKENDS:
            with use_backend(backend):
                cts = [
                    (_random_poly(params, 220 + i).to_eval(),
                     _random_poly(params, 230 + i).to_eval())
                    for i in range(4)
                ]
                pts = [
                    _random_poly(params, 240 + i).to_eval() for i in range(4)
                ]
                s0, s1 = backend.stacked_pmult_mac(
                    [c0.store() for c0, _ in cts],
                    [c1.store() for _, c1 in cts],
                    [p.store() for p in pts], moduli,
                )
                acc0 = acc1 = None
                for (c0, c1), p in zip(cts, pts):
                    t0, t1 = c0 * p, c1 * p
                    acc0 = t0 if acc0 is None else acc0 + t0
                    acc1 = t1 if acc1 is None else acc1 + t1
                got = (
                    backend.store_rows(s0), backend.store_rows(s1),
                )
                assert got[0] == backend.store_rows(acc0.store())
                assert got[1] == backend.store_rows(acc1.store())
            if reference is None:
                reference = got
            else:
                assert got == reference


# ---------------------------------------------------------------------------
# Encoder-based semantic tests (slot values; need numpy)
# ---------------------------------------------------------------------------

@needs_numpy
class TestSemantics:
    @pytest.fixture(scope="class")
    def context(self):
        from repro.fhe.ckks import CKKSContext

        return CKKSContext(
            CKKSParameters.toy(ring_degree=128, max_level=3, dnum=2), seed=7
        )

    def test_dense_layer_program_matches_eager_apply(self, context):
        from repro.fhe.ckks import BSGSLinearTransform

        dim = 8
        slots = context.params.slots
        matrix = [
            [((3 * i + 5 * j) % 7 - 3) / 4.0 for j in range(dim)]
            for i in range(dim)
        ]
        x = [0.5, -1.0, 2.0, 0.25, -0.75, 1.5, -0.5, 1.0]
        transform = BSGSLinearTransform.from_matrix(context.encoder, matrix)
        transform.generate_rotation_keys(context.keys)
        ct = context.encrypt_vector(x * (slots // dim))
        trace = HETrace(context.params)
        trace.output("y", transform.trace(trace.input("x")))
        reference = None
        for backend in (PYTHON, PACKED):             # bit-exact on BOTH backends
            evaluator = CKKSEvaluator(context.params, context.keys,
                                      backend=backend)
            planned_result = transform.apply(evaluator, ct)
            eager_result = ProgramExecutor(evaluator).run_eager(
                trace.program, {"x": ct})["y"]
            with use_backend(backend):
                rows = _rows(planned_result)
                assert rows == _rows(eager_result), backend.name
            stats = transform.last_stats
            assert stats["rotations"] == transform.plan.num_rotations
            assert stats["plain_multiplies"] == \
                transform.plan.num_plain_multiplies
            if reference is None:
                reference = rows
            else:
                assert rows == reference             # and across backends
        evaluator = context.evaluator
        out = evaluator.rescale(planned_result)
        got = [v.real for v in context.decrypt_vector(out, dim)]
        expected = [sum(m * v for m, v in zip(row, x)) for row in matrix]
        assert max(abs(a - e) for a, e in zip(got, expected)) < 0.05

    def test_dense_layer_histogram_matches_cost_model(self, context):
        from repro.fhe.ckks import BSGSLinearTransform

        dim = 16
        matrix = [[(i + 2 * j) % 5 - 2 for j in range(dim)] for i in range(dim)]
        transform = BSGSLinearTransform.from_matrix(context.encoder, matrix)
        planned = transform._planned_program(context.params.max_level)
        plan = linear_transform_plan(context.params.slots,
                                     context.params.max_level, diagonals=dim)
        histogram = operation_histogram(planned)
        assert histogram["HRotate"] == plan.num_rotations
        assert histogram["PMult"] == plan.num_plain_multiplies
        assert histogram["HAdd"] == plan.num_additions

    def test_program_workload_and_cycle_estimate(self, context):
        from repro.fhe.program import trinity_cycle_estimate
        from repro.workloads import program_workload

        params = context.params
        t = HETrace(params)
        a, b = t.input("a"), t.input("b")
        t.output("y", (a * b).rescale() + a.mod_down_to(params.max_level - 1))
        planned = plan_program(t.program)
        workload = program_workload(planned, params=params, name="test-prog")
        assert workload.scheme == "ckks"
        assert workload.metadata["operation_histogram"]["HMult"] == 1
        assert len(workload.traces) == len(lower_to_operations(planned))
        report = trinity_cycle_estimate(planned, params=params)
        assert report.latency_cycles > 0

    def test_traced_sigmoid_neuron_matches_eager_calls(self, context):
        """The quickstart-style classifier traced end to end decodes to the
        same slots as the hand-written eager sequence (bit-exact)."""
        params = context.params
        evaluator = context.evaluator
        encoder = context.encoder
        features = [0.8, -1.2, 0.5, 2.0]
        weights = encoder.encode([0.6, 0.4, -1.0, 0.3])
        ct = context.encrypt_vector(features)

        t = HETrace(params)
        x = t.input("x")
        t.output("z", (x * weights).rescale().inner_sum(4))
        executor = ProgramExecutor(evaluator)
        planned = executor.run(t.program, {"x": ct})["z"]

        eager = evaluator.inner_sum(
            evaluator.rescale(evaluator.multiply_plain(ct, weights)), 4
        )
        assert _rows(planned) == _rows(eager)


# ---------------------------------------------------------------------------
# Hybrid CKKS <-> TFHE programs
# ---------------------------------------------------------------------------

#: (ckks, tfhe, boost, amplitude) combos for the hybrid differential suite.
#: The boost lifts the message far enough above the sign-bootstrap bucket
#: resolution (q_tfhe / 2N_glwe) that the decoded mask bits are exact; the
#: 28-bit chain additionally exercises the <= 32-bit single-word kernels.
HYBRID_PARAM_SETS = [
    hybrid_query_parameters() + (1 << 28, 1 << 16),
    (
        CKKSParameters(
            ring_degree=32, max_level=1, dnum=1, scale_bits=4,
            modulus_bits=28, special_modulus_bits=30, security_bits=0,
            name="ckks-hybrid-u32",
        ),
        TFHEParameters.hybrid(), 1 << 16, 1 << 16,
    ),
    (
        CKKSParameters(
            ring_degree=64, max_level=1, dnum=1, scale_bits=4,
            modulus_bits=40, special_modulus_bits=42, security_bits=0,
            name="ckks-hybrid-small-glwe",
        ),
        TFHEParameters(
            polynomial_size=128, lwe_dimension=8, glwe_dimension=1,
            bsk_levels=5, bsk_base_log=6, ksk_levels=5, ksk_base_log=6,
            modulus_bits=31, plaintext_modulus=4, noise_stddev=0.0,
            security_bits=0, name="tfhe-small-glwe",
        ),
        1 << 28, 1 << 16,
    ),
]
HYBRID_PARAM_IDS = [
    f"{p.name}+{t.name}" for p, t, _, _ in HYBRID_PARAM_SETS
]

#: Threshold-query instance shared by the differential tests: margins of at
#: least 5 on either side of the threshold keep every combo's sign
#: bootstrap away from its bucket boundary.
HYBRID_VALUES = [3, 14, 2, 13]
HYBRID_THRESHOLD = 8


def _encrypt_coefficients(params, keys, coefficients, level, scale, seed=21):
    """Symmetric zero-noise encryption of integer coefficients.

    The hybrid tests run on the no-numpy leg, where ``CKKSContext`` (whose
    encoder is the one hard numpy consumer) is unavailable — so encrypt by
    hand: ``(-(a s) + m, a)`` under the ``_keyed`` secret.
    """
    n = params.ring_degree
    basis = params.basis(level)
    rng = random.Random(seed ^ 0xB1D9E)
    s = keys.secret.as_rns(n, basis)
    a = RNSPolynomial.sample_uniform(n, basis, rng)
    pt = RNSPolynomial.from_integer_coefficients(
        n, basis, [int(c) for c in coefficients])
    return CKKSCiphertext(c0=-(a * s) + pt, c1=a, level=level,
                          scale=float(scale))


def _phase_coefficients(params, keys, ct):
    """Centered ``c0 + c1 s`` — decryption without the (numpy) encoder."""
    c0 = ct.c0.to_coeff()
    c1 = ct.c1.to_coeff()
    s = keys.secret.as_rns(params.ring_degree, c0.basis)
    return (c0 + c1 * s).centered_coefficients()


def _hybrid_threshold_program(params, tparams, boost, amplitude, nslot=4,
                              values=HYBRID_VALUES,
                              threshold=HYBRID_THRESHOLD, pre=lambda x: x):
    """The encrypted threshold filter as one traced hybrid program.

    A coefficient-packed CKKS column crosses into TFHE per slot (extract +
    bridge keyswitch), a sign bootstrap evaluates ``value <= threshold``,
    and the mask bits repack into CKKS — the per-slot chains are traced
    interleaved, exactly the shape the PBS wave scheduler must regroup.
    """
    q0, qt = params.moduli[0], tparams.modulus
    encoded_threshold = round(threshold * params.scale * boost * qt / q0)
    t = HETrace(params, tfhe_params=tparams)
    x = t.input("x", level=1, scale=float(params.scale))
    boosted = pre(x) * boost
    bits = []
    for lwe in boosted.extract_lwes(nslot):
        diff = (-lwe.keyswitch_to_tfhe()).add_encoded(encoded_threshold)
        bits.append(diff.bootstrap_sign(amplitude))
    t.output("mask", t.repack([bit.keyswitch_to_ckks() for bit in bits]))
    t.output("double", x + x)
    return t.program


def _hybrid_column(params, values=HYBRID_VALUES, nslot=4):
    stride = params.ring_degree // nslot
    coefficients = [0] * params.ring_degree
    for j, value in enumerate(values):
        coefficients[j * stride] = value * params.scale
    return coefficients


@pytest.mark.parametrize(("params", "tparams", "boost", "amplitude"),
                         HYBRID_PARAM_SETS, ids=HYBRID_PARAM_IDS)
class TestHybridDifferential:
    def test_planned_matches_eager_and_decodes_the_filter(
            self, params, tparams, boost, amplitude):
        nslot = len(HYBRID_VALUES)
        stride = params.ring_degree // nslot
        program = _hybrid_threshold_program(params, tparams, boost, amplitude)
        planned = plan_program(program, optimize=True)
        eager = plan_program(program, optimize=False)
        assert planned.stats["pbs_groups"] == 1
        assert planned.stats["grouped_pbs"] == nslot

        reference = None
        for backend in BACKENDS:
            keys = _keyed(params)
            tfhe = TFHEContext(tparams, seed=7)
            bridge = SchemeBridge(params, keys.secret, tfhe, seed=7)
            executor = ProgramExecutor(
                CKKSEvaluator(params, keys, backend=backend),
                tfhe=tfhe, bridge=bridge)
            with use_backend(backend):
                ct = _encrypt_coefficients(
                    params, keys, _hybrid_column(params), level=1,
                    scale=params.scale)
                planned_out = executor.run(planned, {"x": ct})
                eager_out = executor.run_eager(eager, {"x": ct})
                rows = {name: _rows(out) for name, out in planned_out.items()}
                for name, out in eager_out.items():
                    assert rows[name] == _rows(out), (backend.name, name)

                # The mask decodes to the exact predicate bits: the planner's
                # batched-PBS/wave reordering changed nothing semantically.
                encoding = 2 * amplitude * params.moduli[0] / tparams.modulus
                phase = _phase_coefficients(params, keys, planned_out["mask"])
                bits = [round(phase[j * stride] / encoding)
                        for j in range(nslot)]
                assert bits == [1 if v <= HYBRID_THRESHOLD else 0
                                for v in HYBRID_VALUES], backend.name
            if reference is None:
                reference = rows
            else:
                assert rows == reference          # cross-backend bit-exact


    def test_a_trace_with_a_rotation_and_a_pbs_matches_eager(
            self, params, tparams, boost, amplitude):
        program = _hybrid_threshold_program(
            params, tparams, boost, amplitude,
            pre=lambda x: x.rotate(1) + x.rotate(2))
        planned = plan_program(program)
        assert planned.stats["galois_waves"] == planned.stats["pbs_groups"] == 1
        keys = _keyed(params)
        tfhe = TFHEContext(tparams, seed=7)
        with use_backend(PYTHON):
            bridge = SchemeBridge(params, keys.secret, tfhe, seed=7)
            executor = ProgramExecutor(
                CKKSEvaluator(params, keys, backend=PYTHON),
                tfhe=tfhe, bridge=bridge)
            ct = _encrypt_coefficients(
                params, keys, _hybrid_column(params), level=1, scale=params.scale)
            planned_out = executor.run(planned, {"x": ct})
            eager_out = executor.run_eager(program, {"x": ct})
        assert {n: _rows(out) for n, out in planned_out.items()} == {
            n: _rows(out) for n, out in eager_out.items()}


class TestHybridDeadCodeElimination:
    PARAMS, TPARAMS = hybrid_query_parameters()

    def _trace(self):
        t = HETrace(self.PARAMS, tfhe_params=self.TPARAMS)
        return t, t.input("x", level=1, scale=float(self.PARAMS.scale))

    def test_scheme_switch_survives_cross_scheme_liveness(self):
        """A ``ckks_to_tfhe`` node whose only consumers live in the TFHE
        subgraph is not dead: liveness must traverse the scheme boundary."""
        t, x = self._trace()
        x.rotate(3)                              # actually dead
        lwe = x.extract_lwe(0).keyswitch_to_tfhe()
        t.output("y", t.repack([lwe.keyswitch_to_ckks()]))
        planned = plan_program(t.program)
        ops = [node.op for node in planned.program.nodes]
        assert "ckks_to_tfhe" in ops and "tfhe_to_ckks" in ops
        assert ops.count("lwe_keyswitch") == 2
        assert "rotate" not in ops
        assert planned.stats["dead_nodes_removed"] == 1
        assert planned.stats["scheme_switches"] == 2

    def test_dead_tfhe_island_is_pruned(self):
        """A TFHE chain nothing consumes disappears wholesale (the switch,
        the bridge keyswitch, the bootstrap and its mod_down)."""
        t, x = self._trace()
        x.extract_lwe(0).keyswitch_to_tfhe().bootstrap_sign(16)
        t.output("y", x + x)
        planned = plan_program(t.program)
        live_ops = {node.op for node in planned.program.nodes}
        assert live_ops.isdisjoint(TFHE_OPS | SCHEME_SWITCH_OPS)
        assert planned.stats["dead_nodes_removed"] == 4
        assert set(planned.program.schemes()) == {"ckks"}
        assert not planned.program.is_hybrid()


class TestHybridPlanner:
    PARAMS, TPARAMS = hybrid_query_parameters()

    def test_interleaved_bootstraps_group_into_one_wave(self):
        """Per-slot chains are traced interleaved; the wave scheduler still
        pulls the four independent bootstraps into one batched dispatch."""
        program = _hybrid_threshold_program(
            self.PARAMS, self.TPARAMS, boost=1 << 28, amplitude=1 << 16)
        planned = plan_program(program)
        assert planned.stats["pbs_groups"] == 1
        assert planned.stats["grouped_pbs"] == 4
        assert planned.stats["scheme_switches"] == 5   # 4 extracts + 1 repack
        groups = {node.attrs.get("pbs_group")
                  for node in planned.program.nodes
                  if node.op == "gate_bootstrap"}
        assert groups == {0}
        planned.program.validate()                     # reorder kept topo order

    def test_rotations_ahead_of_the_island_shift_waves_not_groups(self):
        """One trace with rotations *and* bootstraps: the keyswitch wave
        takes wave 1, every TFHE wave moves one later, and the PBS / bridge
        groups are the ones the rotation-free program gets."""
        kwargs = dict(boost=1 << 28, amplitude=1 << 16)
        plain = plan_program(_hybrid_threshold_program(
            self.PARAMS, self.TPARAMS, **kwargs))
        mixed = plan_program(_hybrid_threshold_program(
            self.PARAMS, self.TPARAMS, **kwargs,
            pre=lambda x: x.rotate(1) + x.rotate(2)))
        assert (mixed.stats["galois_waves"], mixed.stats["waved_rotations"]) == (1, 2)
        assert (plain.stats["galois_waves"], plain.stats["waved_rotations"]) == (0, 0)
        for key in ("pbs_groups", "grouped_pbs", "ks_groups",
                    "grouped_keyswitches", "scheme_switches"):
            assert mixed.stats[key] == plain.stats[key], key

        def tfhe_groups(planned):
            return [(node.op, node.attrs.get("direction"),
                     node.attrs.get("pbs_group"), node.attrs.get("ks_group"))
                    for node in planned.program.nodes if node.op in TFHE_OPS]

        assert tfhe_groups(mixed) == tfhe_groups(plain)
        _assert_wave_invariant(mixed)
        # Wave numbers are consistent: every rotation precedes every bridge
        # keyswitch, which precede every bootstrap.
        position = {op: [n.id for n in mixed.program.nodes if n.op == op]
                    for op in ("rotate", "lwe_keyswitch", "gate_bootstrap")}
        assert max(position["rotate"]) < min(position["lwe_keyswitch"])
        c2t = [n.id for n in mixed.program.nodes
               if n.attrs.get("direction") == "c2t"]
        assert max(c2t) < min(position["gate_bootstrap"])

    def test_dependent_bootstraps_are_not_grouped(self):
        """A bootstrap feeding another sits in a later wave: no batching."""
        t = HETrace(self.PARAMS, tfhe_params=self.TPARAMS)
        x = t.input("x", level=1, scale=float(self.PARAMS.scale))
        first = x.extract_lwe(0).keyswitch_to_tfhe().bootstrap_sign(16)
        second = first.pbs(lambda value: value)
        t.output("y", t.repack([second.keyswitch_to_ckks()]))
        planned = plan_program(t.program)
        assert planned.stats.get("pbs_groups", 0) == 0
        assert planned.stats.get("grouped_pbs", 0) == 0
        assert not any("pbs_group" in node.attrs
                       for node in planned.program.nodes)

    def test_eager_mode_skips_wave_scheduling(self):
        program = _hybrid_threshold_program(
            self.PARAMS, self.TPARAMS, boost=1 << 28, amplitude=1 << 16)
        planned = plan_program(program, optimize=False)
        assert planned.stats.get("pbs_groups", 0) == 0


class TestBootstrapWaveTables:
    """A PBS wave builds one test vector per distinct table: ``pbs`` members
    share theirs by function, ``gate_bootstrap`` members by amplitude."""

    PARAMS, TPARAMS, BOOST, _ = HYBRID_PARAM_SETS[2]

    def _program(self):
        """Eight bootstraps of one wave over three tables: four signs at one
        amplitude, two at another, two lookups of one function."""
        identity = lambda m: m                      # noqa: E731
        t = HETrace(self.PARAMS, tfhe_params=self.TPARAMS)
        x = t.input("x", level=1, scale=float(self.PARAMS.scale))
        lwes = [lwe.keyswitch_to_tfhe() for lwe in (x * self.BOOST).extract_lwes(8)]
        outputs = {"high": [lwe.bootstrap_sign(1 << 16) for lwe in lwes[:4]],
                   "low": [lwe.bootstrap_sign(1 << 15) for lwe in lwes[4:6]],
                   "lut": [lwe.pbs(identity) for lwe in lwes[6:]]}
        for name, bits in outputs.items():
            t.output(name, t.repack([bit.keyswitch_to_ckks() for bit in bits]))
        return t.program

    def test_one_table_per_distinct_function_or_amplitude(self, monkeypatch):
        program = self._program()
        planned = plan_program(program)
        assert (planned.stats["pbs_groups"], planned.stats["grouped_pbs"]) == (1, 8)
        wave = executor_module._Run._bootstrap_wave
        reference = None
        for backend in BACKENDS:
            counting = WrappedBackend(backend)
            keys = _keyed(self.PARAMS)
            tfhe = TFHEContext(self.TPARAMS, seed=7)
            bridge = SchemeBridge(self.PARAMS, keys.secret, tfhe, seed=7)
            executor = ProgramExecutor(
                CKKSEvaluator(self.PARAMS, keys, backend=counting),
                tfhe=tfhe, bridge=bridge)
            waves = []

            def counted(run, members):
                before = dict(counting.calls)
                out = wave(run, members)
                waves.append((len(members), *(
                    counting.calls[kernel] - before.get(kernel, 0)
                    for kernel in ("reduce_limbs", "pack_limbs"))))
                return out

            monkeypatch.setattr(executor_module._Run, "_bootstrap_wave", counted)
            with use_backend(counting):
                ct = _encrypt_coefficients(
                    self.PARAMS, keys,
                    _hybrid_column(self.PARAMS, [3, 14, 2, 13, 5, 9, 1, 0], nslot=8),
                    level=1, scale=self.PARAMS.scale)
                planned_out = executor.run(planned, {"x": ct})
                # (members, reduce_limbs, pack_limbs): one reduce and one
                # pack per table (eight each before tables were shared), and
                # the wave's own packs.
                assert waves == [(8, 3, 6)], backend.name
                del waves[:]
                eager_out = executor.run_eager(program, {"x": ct})
                assert waves == [(1, 1, 2)] * 8, backend.name
            rows = {name: _rows(out) for name, out in planned_out.items()}
            assert rows == {name: _rows(out) for name, out in eager_out.items()}
            assert reference in (None, rows)          # cross-backend bit-exact
            reference = rows


class TestHybridLowering:
    PARAMS, TPARAMS = hybrid_query_parameters()

    def _query_program(self, nslot=4):
        """The example-shaped program: threshold filter + plaintext fold."""
        q0, qt = self.PARAMS.moduli[0], self.TPARAMS.modulus
        encoded_threshold = round(
            200 * self.PARAMS.scale * (1 << 24) * qt / q0)
        t = HETrace(self.PARAMS, tfhe_params=self.TPARAMS)
        x = t.input("prices", level=1, scale=float(self.PARAMS.scale))
        boosted = x * (1 << 24)
        bits = []
        for lwe in boosted.extract_lwes(nslot):
            diff = (-lwe.keyswitch_to_tfhe()).add_encoded(encoded_threshold)
            bits.append(diff.bootstrap_sign(1 << 16))
        mask = t.repack([bit.keyswitch_to_ckks() for bit in bits])
        t.output("mask", mask)
        t.output("filtered", mask * _random_pt(self.PARAMS, 99, level=0,
                                               scale=1.0))
        return plan_program(t.program)

    def test_lowering_requires_tfhe_params(self):
        t = HETrace(self.PARAMS)
        x = t.input("x")
        t.output("y", x + x)
        with pytest.raises(ValueError, match="TFHE"):
            lower_hybrid_to_workloads(plan_program(t.program))

    def test_workloads_are_scheme_grouped(self):
        workloads = lower_hybrid_to_workloads(self._query_program())
        assert [w.name for w in workloads] == [
            "hybrid.ckks", "hybrid.tfhe", "hybrid.conversion"]
        assert [w.scheme for w in workloads] == [
            "ckks", "tfhe", "conversion"]
        assert workloads[2].metadata["extractions"] == 4

    def test_histogram_reconciles_with_workloads_entry(self):
        """The lowered kernel stream of the planned query program and the
        hand-built ``hybrid_query_workloads`` cost entry agree kernel by
        kernel, so the workloads entry *is* the example's Trinity cost."""
        lowered = hybrid_kernel_histogram(
            lower_hybrid_to_workloads(self._query_program()))
        hand_built = hybrid_kernel_histogram(hybrid_query_workloads(nslot=4))
        assert lowered == hand_built

    def test_cycle_estimate_matches_scheduler_on_workloads_entry(self):
        from repro.core.scheduler import WorkloadScheduler

        planned = self._query_program()
        report = hybrid_cycle_estimate(planned)
        reference = WorkloadScheduler().run_interleaved(
            hybrid_query_workloads(nslot=4))
        assert report.interleaved_cycles == pytest.approx(
            reference.interleaved_cycles)
        assert report.sequential_cycles == pytest.approx(
            reference.sequential_cycles)
        assert report.co_scheduling_gain > 1.0
        round_trip = report.to_dict()
        assert round_trip["interleaved_cycles"] == report.interleaved_cycles
        assert round_trip["workload_names"] == list(report.workload_names)


# ---------------------------------------------------------------------------
# The op table: totality, extensibility, and the generated residency table
# ---------------------------------------------------------------------------

class _OpFixture:
    """Shared keys/contexts for one-op programs: hybrid-sized parameters, so
    every node kind — CKKS, TFHE island, scheme switch — is executable, with
    one level to spare (the cost model prices a Rescale at its *output*
    level and has no flow for one that lands on level 0)."""

    PARAMS = CKKSParameters(
        ring_degree=64, max_level=2, dnum=3, scale_bits=4, modulus_bits=40,
        special_modulus_bits=42, security_bits=0, name="ckks-op-table")
    TPARAMS = TFHEParameters.hybrid()

    def __init__(self):
        self.keys = _keyed(self.PARAMS)
        self.tfhe = TFHEContext(self.TPARAMS, seed=7)
        with use_backend(PYTHON):
            self.bridge = SchemeBridge(
                self.PARAMS, self.keys.secret, self.tfhe, seed=7)
            self.pt = _random_pt(self.PARAMS, 41)

    def inputs(self):
        """``x`` (CKKS, level 2), ``s`` (LWE under the small TFHE key) and
        ``c`` (LWE under the CKKS coefficient key) on the active backend."""
        from repro.fhe.conversion.ckks_to_tfhe import sample_extract_rlwe

        params = self.PARAMS
        column = [0] * params.ring_degree
        column[0] = 3 * params.scale
        x = _encrypt_coefficients(params, self.keys, column, level=2,
                                  scale=params.scale)
        level0 = CKKSEvaluator(params, self.keys).mod_down_to(x, 0)
        return {"x": x, "s": self.tfhe.encrypt(1),
                "c": sample_extract_rlwe(level0, 0)}

    def trace(self):
        t = HETrace(self.PARAMS, tfhe_params=self.TPARAMS)
        x = t.input("x")
        s = t.input_lwe("s", scale=float(self.TPARAMS.delta), kind="small")
        c = t.input_lwe("c", scale=float(self.PARAMS.scale), kind="ckks")
        return t, x, s, c


def _emit(handle, op, args, attrs=None):
    """A planner-inserted node kind, built the way a pass builds it."""
    return type(handle)(handle.trace, handle.trace.program.emit(
        op, tuple(arg.id for arg in args), attrs))


#: The smallest traced value containing each node kind:
#: ``(fixture, trace, x, small-key LWE, CKKS-key LWE) -> handle``.
SMALLEST = {
    "input": lambda f, t, x, s, c: x,
    "input_lwe": lambda f, t, x, s, c: s,
    "add": lambda f, t, x, s, c: x + x,
    "sub": lambda f, t, x, s, c: x - x.rotate(1),
    "negate": lambda f, t, x, s, c: -x,
    "multiply": lambda f, t, x, s, c: x * x,
    "multiply_plain": lambda f, t, x, s, c: x * f.pt,
    "multiply_scalar": lambda f, t, x, s, c: x * 3,
    "add_plain": lambda f, t, x, s, c: x + f.pt,
    "rotate": lambda f, t, x, s, c: x.rotate(1),
    "conjugate": lambda f, t, x, s, c: x.conjugate(),
    "rescale": lambda f, t, x, s, c: x.rescale(),
    "mod_down": lambda f, t, x, s, c: x.mod_down_to(0),
    "to_eval": lambda f, t, x, s, c: _emit(x, "to_eval", (x,)),
    "to_coeff": lambda f, t, x, s, c: _emit(
        x, "to_coeff", (_emit(x, "to_eval", (x,)),)),
    "pmult_mac": lambda f, t, x, s, c: _emit(
        x, "pmult_mac", (x, x.rotate(1)), {"plaintexts": (f.pt, f.pt)}),
    "lwe_add": lambda f, t, x, s, c: s + s,
    "lwe_sub": lambda f, t, x, s, c: s - s,
    "lwe_negate": lambda f, t, x, s, c: -s,
    "lwe_scalar_mul": lambda f, t, x, s, c: s.scalar_mul(2),
    "lwe_add_const": lambda f, t, x, s, c: s.add_encoded(5),
    "lwe_keyswitch": lambda f, t, x, s, c: c.keyswitch_to_tfhe(),
    "pbs": lambda f, t, x, s, c: s.pbs(lambda m: m),
    "gate_bootstrap": lambda f, t, x, s, c: s.bootstrap_sign(1 << 16),
    "ckks_to_tfhe": lambda f, t, x, s, c: x.extract_lwe(0),
    "tfhe_to_ckks": lambda f, t, x, s, c: t.repack([c]),
}


def _value_rows(value):
    """Bit-exact fingerprint of a CKKS ciphertext or an LWE ciphertext."""
    if isinstance(value, CKKSCiphertext):
        return _rows(value)
    return (tuple(value.a), value.b, value.modulus)


class TestOpTable:
    @pytest.fixture(scope="class")
    def fixture(self):
        return _OpFixture()

    def _check(self, fixture, program, op):
        """Plans, runs planned == eager bit-exact on every backend, lowers."""
        planned = plan_program(program)
        eager = plan_program(program, optimize=False)
        assert op in {node.op for node in planned.program.nodes}
        for backend in BACKENDS:
            executor = ProgramExecutor(
                CKKSEvaluator(fixture.PARAMS, fixture.keys, backend=backend),
                tfhe=fixture.tfhe, bridge=fixture.bridge)
            with use_backend(backend):
                inputs = fixture.inputs()
                planned_out = executor.run(planned, inputs)
                eager_out = executor.run_eager(eager, inputs)
            assert _value_rows(planned_out["y"]) == _value_rows(eager_out["y"])
        lower_to_operations(planned)
        lower_hybrid_to_workloads(planned)
        return planned

    @pytest.mark.parametrize("op", sorted(OP_TABLE))
    def test_every_op_plans_runs_and_lowers(self, fixture, op):
        """A spec missing its executor or lowering half fails here, in
        tier-1, rather than at first use."""
        t, x, s, c = fixture.trace()
        t.output("y", SMALLEST[op](fixture, t, x, s, c))
        self._check(fixture, t.program, op)

    @pytest.mark.parametrize("op", ["sub", "rotate", "conjugate", "pmult_mac"])
    def test_rotation_programs_plan_the_same_from_any_order(self, fixture, op):
        """Each smallest program containing a rotation, its nodes shuffled:
        the wave invariant holds, the plan is a fixed point, and it still
        runs planned == eager."""
        t, x, s, c = fixture.trace()
        t.output("y", SMALLEST[op](fixture, t, x, s, c))
        t.output("z", x.rotate(2) + x.rotate(3).conjugate())
        for seed in range(3):
            shuffled = _shuffled(t.program, random.Random(seed))
            _assert_wave_invariant(plan_program(shuffled))
        self._check(fixture, shuffled, "rotate")

    def test_throw_away_op_needs_only_a_spec(self, fixture, monkeypatch):
        """One table entry carries a new node kind through build, plan,
        execute and lower: no pass, executor or lowering edit."""
        monkeypatch.setitem(OP_TABLE, "double", OpSpec(
            "double", "x + x as one node",
            run=lambda run, node, ct: run.ev.add(ct, ct),
            lower=lambda node: (("HAdd", 1),)))
        t, x, s, c = fixture.trace()
        doubled = _emit(x, "double", (x * fixture.pt,))
        t.output("y", doubled.rotate(1))
        planned = self._check(fixture, t.program, "double")
        node = next(n for n in planned.program.nodes if n.op == "double")
        assert node.domain == "eval"             # pass-through: stays resident
        assert operation_histogram(planned) == {
            "PMult": 1, "HAdd": 1, "HRotate": 1}
        reference = x * fixture.pt
        t.output("reference", (reference + reference).rotate(1))
        with use_backend(PYTHON):
            out = ProgramExecutor(
                CKKSEvaluator(fixture.PARAMS, fixture.keys, backend=PYTHON),
                tfhe=fixture.tfhe).run(t.program, fixture.inputs())
        assert _rows(out["y"]) == _rows(out["reference"])

    def test_views_are_derived_from_the_table(self):
        assert SCHEME_SWITCH_OPS == {"ckks_to_tfhe", "tfhe_to_ckks"}
        assert TFHE_OPS == {name for name, spec in OP_TABLE.items()
                            if name.startswith(("lwe_", "pbs", "gate_"))}
        assert all(name == spec.name for name, spec in OP_TABLE.items())

    def test_roadmap_residency_table_is_generated(self):
        """ROADMAP.md's hybrid residency table is the op table's rendering:
        regenerate with ``residency_table()`` after editing a spec."""
        roadmap = pathlib.Path(__file__).resolve().parent.parent / "ROADMAP.md"
        assert residency_table() in roadmap.read_text(encoding="utf-8")
