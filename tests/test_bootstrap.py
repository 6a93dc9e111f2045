"""Functional packed bootstrapping + bootstrap cost-model suite.

* **Cost model** (no numpy): the ``BootstrapPlan.operations()`` contract
  holds both ways (padding when the pipeline under-consumes, ``ValueError``
  when it over-consumes — the silent ``end_level`` disagreement regression),
  sparse-diagonal ``LinearTransformPlan`` accounting, and the
  :class:`EvalModPlan` counting algebra.
* **Evaluator bugfix regressions** (no numpy): ``inner_sum`` merges its two
  per-iteration rotations into one hoist (counted via a shim),
  ``rotate_hoisted`` pays the per-key phase once for duplicate steps, and
  ``mod_down_to`` runs under the evaluator's pinned backend scope.
* **Functional bootstrap** (numpy for the DFT matrices + encoder): the
  radix-2 special-FFT factorization is numerically exact, a level-0
  ciphertext refreshes through trace -> plan -> execute and decrypts
  correctly on both backends, planned == eager bit-exact, the traced stage
  histograms reconcile with ``BootstrapPlan.stage_operations()`` stage by
  stage, and dead-code elimination + ``required_galois_elements`` drive a
  *minimal* key set that provably suffices (a frozen key set with exactly
  those keys bootstraps successfully).

The numpy-free half of this file runs on the no-numpy CI leg.
"""

import math

import pytest

from repro.fhe.backend import PythonBackend, available_backends, use_backend
from repro.fhe.ckks import evaluator as evaluator_module
from repro.fhe.ckks.bootstrap import (
    BootstrapPlan,
    EvalModPlan,
    HomomorphicOp,
    linear_transform_plan,
)
from repro.fhe.ckks.ciphertext import CKKSCiphertext
from repro.fhe.ckks.evaluator import CKKSEvaluator
from repro.fhe.ckks.keys import CKKSKeyGenerator, CKKSKeySet
from repro.fhe.params import CKKSParameters
from repro.fhe.rns import RNSPolynomial

numpy_missing = "numpy" not in available_backends()
needs_numpy = pytest.mark.skipif(numpy_missing, reason="numpy backend unavailable")

PYTHON = PythonBackend()

if not numpy_missing:
    from repro.fhe.backend import NumpyBackend

    PACKED = NumpyBackend(min_vector_length=0, min_ntt_length=0)
    BACKENDS = [PYTHON, PACKED]
else:  # pragma: no cover - exercised only on numpy-less installs
    PACKED = None
    BACKENDS = [PYTHON]


#: The bootstrappable functional parameter set: equal scale/modulus bits so
#: rescaling keeps the scale at Delta, enough levels for 2 + 8 + 2 stages.
BOOT_PARAMS = CKKSParameters(
    ring_degree=128, max_level=13, dnum=4, scale_bits=40, modulus_bits=40,
    special_modulus_bits=42, security_bits=0, name="ckks-boot-test",
)


def _random_poly(params, seed, level=None):
    import random

    degree = params.ring_degree
    basis = params.basis(params.max_level if level is None else level)
    return RNSPolynomial.sample_uniform(degree, basis, random.Random(seed ^ 0xB007))


def _random_ct(params, seed, level=None):
    level = params.max_level if level is None else level
    return CKKSCiphertext(
        c0=_random_poly(params, seed, level),
        c1=_random_poly(params, seed + 1, level),
        level=level,
        scale=float(params.scale),
    )


def _rows(ct):
    c0 = ct.c0.to_coeff()
    c1 = ct.c1.to_coeff()
    return (
        tuple(map(tuple, c0.coefficient_rows())),
        tuple(map(tuple, c1.coefficient_rows())),
    )


# ---------------------------------------------------------------------------
# Cost model: the levels_consumed contract and the stage accountings
# ---------------------------------------------------------------------------

class TestBootstrapPlanContract:
    def test_default_plan_consumes_exactly_fifteen(self):
        """The paper's configuration: 3 + 9 + 3 levels, no padding needed."""
        plan = BootstrapPlan()
        stages = plan.stage_operations()
        assert [name for name, _ in stages] == [
            "c2s_0", "c2s_1", "c2s_2", "evalmod", "s2c_0", "s2c_1", "s2c_2",
        ]
        assert plan.end_level == 20

    def test_end_level_agrees_with_operations_for_valid_configs(self):
        """Walking the op stream's rescales lands exactly on end_level."""
        configs = [
            BootstrapPlan(),
            BootstrapPlan(ring_degree=4096, start_level=20, levels_consumed=15,
                          slots=2048),
            BootstrapPlan(ring_degree=256, start_level=18, levels_consumed=14,
                          c2s_stages=2, s2c_stages=2, sine_degree=15),
            BootstrapPlan(ring_degree=256, start_level=30, levels_consumed=20,
                          sine_degree=7, double_angle_iters=1),
        ]
        for plan in configs:
            ops = plan.operations()
            level = plan.start_level
            for op in ops:
                assert op.level <= level
                if op.name == "Rescale":
                    level = op.level - 1
            assert level == plan.end_level, plan

    def test_overconsuming_pipeline_raises(self):
        """Regression: declaring fewer levels than the schedule consumes must
        fail loudly instead of silently disagreeing with end_level."""
        plan = BootstrapPlan(start_level=20, levels_consumed=5)
        with pytest.raises(ValueError, match="consumes 15 levels"):
            plan.operations()
        with pytest.raises(ValueError, match="levels_consumed=5"):
            plan.stage_operations()

    def test_underconsuming_pipeline_pads(self):
        plan = BootstrapPlan(start_level=35, levels_consumed=20)
        stages = plan.stage_operations()
        assert stages[-1][0] == "pad"
        ops = plan.operations()
        rescales = sum(op.count for op in ops if op.name == "Rescale")
        level = plan.start_level
        for op in ops:
            if op.name == "Rescale":
                level = op.level - 1
        assert level == plan.end_level == 15
        assert rescales >= 5                     # the padding rescales

    def test_operation_levels_never_increase(self):
        plan = BootstrapPlan(ring_degree=4096, start_level=20,
                             levels_consumed=15, slots=2048)
        levels = [op.level for op in plan.operations()]
        assert levels == sorted(levels, reverse=True)


class TestSparseLinearTransformPlan:
    def test_dense_accounting_unchanged(self):
        dense = linear_transform_plan(slots=4096, level=30)
        assert dense.num_rotations == dense.baby_steps + dense.giant_steps - 2
        assert dense.num_plain_multiplies == dense.baby_steps * dense.giant_steps

    def test_sparse_charges_only_touched_steps(self):
        # n1 = 8 for 64 diagonals; actives {0, 16, 48} all have i = 0.
        plan = linear_transform_plan(slots=64, level=3,
                                     active_diagonals=(0, 16, 48))
        assert plan.baby_steps == 8
        assert plan.num_rotations == 2           # two giant blocks, no babies
        assert plan.num_plain_multiplies == 3
        assert plan.num_additions == 2
        mixed = linear_transform_plan(slots=64, level=3,
                                      active_diagonals=(1, 9, 17))
        assert mixed.num_rotations == 1 + 2      # baby 1 + giant blocks 1, 2

    def test_active_indices_validated(self):
        with pytest.raises(ValueError, match="active"):
            linear_transform_plan(slots=64, level=3, active_diagonals=())
        with pytest.raises(ValueError, match="lie in"):
            linear_transform_plan(slots=64, level=3, active_diagonals=(64,))


class TestEvalModPlan:
    def test_counts_are_deterministic_and_structured(self):
        plan = EvalModPlan(level=12, sine_degree=15, double_angle_iters=2)
        histogram = plan.operation_histogram()
        assert histogram["Conjugate"] == 1
        assert histogram["HMult"] > 0
        assert histogram["PMult"] > 0
        assert plan.levels_consumed == 8
        again = EvalModPlan(level=12, sine_degree=15, double_angle_iters=2)
        assert again.operation_histogram() == histogram

    def test_levels_scale_with_degree_and_iterations(self):
        base = EvalModPlan(level=20, sine_degree=15, double_angle_iters=1)
        deeper = EvalModPlan(level=20, sine_degree=31, double_angle_iters=3)
        assert deeper.levels_consumed > base.levels_consumed

    def test_operations_sorted_by_level(self):
        ops = EvalModPlan(level=12, sine_degree=15).operations()
        levels = [op.level for op in ops]
        assert levels == sorted(levels, reverse=True)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            EvalModPlan(level=12, sine_degree=2)
        with pytest.raises(ValueError):
            EvalModPlan(level=12, baby_steps=3)
        with pytest.raises(ValueError, match="out of levels"):
            EvalModPlan(level=3, sine_degree=31).operations()


# ---------------------------------------------------------------------------
# Evaluator bugfix regressions
# ---------------------------------------------------------------------------

def _toy_evaluator(seed=11):
    params = CKKSParameters.toy()
    keys = CKKSKeyGenerator(params, seed=seed, error_stddev=0.0).generate()
    return params, CKKSEvaluator(params, keys, backend=PYTHON)


class TestInnerSumHoistMerge:
    def _count_hoists(self, monkeypatch):
        """One entry per polynomial hoisted (a rotate_hoisted call is a
        keyswitch wave over one source)."""
        calls = []
        original = evaluator_module.hoist_wave

        def counting(polys, *args):
            calls.extend(polys)
            return original(polys, *args)

        monkeypatch.setattr(evaluator_module, "hoist_wave", counting)
        return calls

    def test_merged_iterations_hoist_once(self, monkeypatch):
        """count = 7 needs rotations in 3 iterations; the old code paid 4
        hoists (combine + double separately in the middle iteration)."""
        params, evaluator = _toy_evaluator()
        calls = self._count_hoists(monkeypatch)
        with use_backend(PYTHON):
            ct = _random_ct(params, 21)
            evaluator.inner_sum(ct, 7)
        assert len(calls) == 3

    def test_results_match_unmerged_reference(self, monkeypatch):
        """Bit-exact against the pre-fix algorithm (two rotate_hoisted calls
        per doubling iteration) — the merged call shares the same hoisted
        digits, so the integers cannot change."""
        params, evaluator = _toy_evaluator()
        for count in (1, 2, 3, 5, 6, 7, 8, 12):
            with use_backend(PYTHON):
                ct = _random_ct(params, 100 + count)
                merged = evaluator.inner_sum(ct, count)
                # The pre-fix reference implementation.
                result = None
                processed = 0
                acc = ct
                bit = 1
                while bit <= count:
                    if count & bit:
                        if result is None:
                            result = acc
                        else:
                            result = evaluator.add(
                                result, evaluator.rotate_hoisted(acc, [processed])[0]
                            )
                        processed += bit
                    if (bit << 1) <= count:
                        acc = evaluator.add(
                            acc, evaluator.rotate_hoisted(acc, [bit])[0]
                        )
                    bit <<= 1
                assert _rows(merged) == _rows(result), count


def _count_wave_members(monkeypatch):
    """One entry per member that pays the per-key phase of a wave."""
    calls = []
    original = evaluator_module.keyswitch_wave

    def counting(members):
        calls.extend(members)
        return original(members)

    monkeypatch.setattr(evaluator_module, "keyswitch_wave", counting)
    return calls


class TestRotateHoistedDedupe:
    def test_duplicate_steps_pay_per_key_phase_once(self, monkeypatch):
        params, evaluator = _toy_evaluator()
        calls = _count_wave_members(monkeypatch)
        with use_backend(PYTHON):
            ct = _random_ct(params, 31)
            results = evaluator.rotate_hoisted(ct, [1, 3, 1, 3, 0])
        assert len(calls) == 2                    # unique non-identity steps
        assert _rows(results[0]) == _rows(results[2])
        assert _rows(results[1]) == _rows(results[3])
        assert _rows(results[4]) == _rows(ct)
        with use_backend(PYTHON):
            singles = evaluator.rotate_hoisted(ct, [1, 3])
        assert _rows(results[0]) == _rows(singles[0])
        assert _rows(results[1]) == _rows(singles[1])

    def test_steps_sharing_a_galois_element_deduplicate(self, monkeypatch):
        """steps and steps + n map to the same Galois element (5^n = 1 mod 2N)."""
        params, evaluator = _toy_evaluator()
        n = params.slots
        calls = _count_wave_members(monkeypatch)
        with use_backend(PYTHON):
            ct = _random_ct(params, 41)
            results = evaluator.rotate_hoisted(ct, [2, n + 2])
        assert len(calls) == 1
        assert _rows(results[0]) == _rows(results[1])


class TestModDownBackendScope:
    def test_mod_down_runs_under_pinned_backend(self):
        params, evaluator = _toy_evaluator()
        entered = []
        original = evaluator._arith

        def recording():
            entered.append(1)
            return original()

        evaluator._arith = recording
        with use_backend(PYTHON):
            ct = _random_ct(params, 51)
        result = evaluator.mod_down_to(ct, 1)
        assert entered, "mod_down_to bypassed the evaluator's backend scope"
        assert result.level == 1
        with use_backend(PYTHON):
            assert result.c0.coefficient_rows() == [
                row for row in ct.c0.coefficient_rows()[:2]
            ]


# ---------------------------------------------------------------------------
# The special-FFT factorization (numerical ground truth)
# ---------------------------------------------------------------------------

@needs_numpy
class TestDFTFactorization:
    @pytest.mark.parametrize("ring_degree", [16, 64, 256])
    def test_factor_product_is_bit_reversed_vandermonde(self, ring_degree):
        import numpy as np

        from repro.fhe.ckks.bootstrap_exec import _dft_factors, _invert_factor

        n = ring_degree // 2
        t = n.bit_length() - 1
        vandermonde = np.zeros((n, n), dtype=np.complex128)
        for j in range(n):
            g = pow(5, j, 2 * ring_degree)
            for k in range(n):
                vandermonde[j, k] = np.exp(
                    1j * math.pi * ((g * k) % (2 * ring_degree)) / ring_degree
                )
        reverse = [
            int(format(k, f"0{t}b")[::-1], 2) if t else 0 for k in range(n)
        ]
        factors = _dft_factors(ring_degree)
        assert len(factors) == t
        product = np.eye(n, dtype=np.complex128)
        for factor in factors:
            product = product @ factor
        assert np.allclose(product, vandermonde[:, reverse])
        for factor in factors:
            assert np.allclose(factor @ _invert_factor(factor), np.eye(n))

    def test_grouped_factors_stay_rotation_sparse(self):
        import numpy as np

        from repro.fhe.ckks.bootstrap_exec import (
            _dft_factors,
            _matrix_diagonals,
            _partition,
        )

        factors = _dft_factors(128)
        for stages in (2, 3):
            for lo, hi in _partition(len(factors), stages):
                group = np.eye(64, dtype=np.complex128)
                for factor in factors[lo:hi]:
                    group = group @ factor
                diagonals = _matrix_diagonals(group)
                # g merged radix-2 levels have at most 2^(g+1) - 1 diagonals.
                assert len(diagonals) <= 2 ** (hi - lo + 1) - 1


# ---------------------------------------------------------------------------
# Functional packed bootstrapping
# ---------------------------------------------------------------------------

@needs_numpy
class TestPackedBootstrap:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.fhe.ckks import CKKSContext, PackedBootstrap

        context = CKKSContext(BOOT_PARAMS, seed=7, error_stddev=0.0,
                              secret_hamming_weight=2)
        bootstrap = PackedBootstrap(
            context.encoder, c2s_stages=2, s2c_stages=2, sine_degree=15,
            double_angle_iters=2, integer_bound=3,
        )
        bootstrap.generate_keys(context.keys)
        return context, bootstrap

    def test_end_to_end_refresh(self, setup):
        """Encrypt -> exhaust the levels -> bootstrap -> decrypt correctly."""
        context, bootstrap = setup
        params = context.params
        evaluator = context.evaluator
        values = [0.04 * math.sin(1.0 + 3 * i) for i in range(params.slots)]
        ct = context.encrypt_vector(values, level=2)
        # Burn the remaining levels like a real workload would.
        halve = context.encoder.encode([0.5] * params.slots, level=2)
        ct = evaluator.rescale(evaluator.multiply_plain(ct, halve))
        ct = evaluator.mod_down_to(ct, 0)
        assert ct.level == 0
        refreshed = bootstrap.refresh(evaluator, ct)
        assert refreshed.level == bootstrap.end_level >= 1
        got = context.decrypt_vector(refreshed)
        expected = [0.5 * v for v in values]
        worst = max(abs(g - e) for g, e in zip(got, expected))
        assert worst < 1e-3, worst
        # The refreshed ciphertext is *usable*: one more multiply works.
        squared = evaluator.rescale(evaluator.multiply(refreshed, refreshed))
        got_sq = context.decrypt_vector(squared)
        worst_sq = max(abs(g - e * e) for g, e in zip(got_sq, expected))
        assert worst_sq < 1e-3, worst_sq

    def test_planned_matches_eager_on_both_backends(self, setup):
        context, bootstrap = setup
        params = context.params
        values = [0.03 * math.cos(0.3 * i) for i in range(params.slots)]
        ct = context.encrypt_vector(values, level=0)
        reference = None
        for backend in BACKENDS:
            evaluator = CKKSEvaluator(params, context.keys, backend=backend)
            planned = bootstrap.refresh(evaluator, ct)
            eager = bootstrap.refresh(evaluator, ct, eager=True)
            with use_backend(backend):
                rows = _rows(planned)
                assert rows == _rows(eager), backend.name
            assert planned.level == eager.level == bootstrap.end_level
            assert abs(planned.scale / eager.scale - 1) < 1e-9
            if reference is None:
                reference = rows
            else:
                assert rows == reference          # cross-backend bit-exact

    def test_stage_histograms_match_cost_model(self, setup):
        """The traced bootstrap's lowered histogram == BootstrapPlan's,
        stage by stage (the shared-structure reconciliation gate)."""
        context, bootstrap = setup
        plan = bootstrap.plan()
        assert plan.end_level == bootstrap.end_level
        traced = dict(bootstrap.stage_histograms())
        model = dict(plan.stage_histograms())
        assert set(traced) == set(model)          # no padding stage either
        for name in traced:
            assert traced[name] == model[name], name
        # Aggregate view agrees too.
        total = {}
        for histogram in traced.values():
            for key, value in histogram.items():
                total[key] = total.get(key, 0) + value
        assert total == plan.operation_histogram()

    def test_no_waterline_rescues_inserted(self, setup):
        """Scale bookkeeping is exact by construction: the planner never has
        to insert a rescue rescale (which would break the reconciliation)."""
        _, bootstrap = setup
        for name, planned in bootstrap.stage_programs():
            assert planned.stats["rescales_inserted"] == 0, name

    def test_dce_prunes_sparse_stage_rotations(self, setup):
        """The sparse FFT stage matrices leave most BSGS baby rotations
        unused; DCE removes them and the key requirement shrinks."""
        _, bootstrap = setup
        dead = {
            name: planned.stats["dead_nodes_removed"]
            for name, planned in bootstrap.stage_programs()
        }
        # The top-factor stage groups are the sparsest; at least one BSGS
        # stage must shed unused baby rotations (e.g. 7 of c2s_0's at n=64).
        assert max(dead.values()) > 0, dead
        # The planned key set is strictly smaller than the dense BSGS need.
        dense_need = set()
        for transform in bootstrap.c2s_transforms + bootstrap.s2c_transforms:
            baby, giant = transform.rotation_steps()
            for step in baby + giant:
                dense_need.add((step, transform.level))
        assert len(bootstrap.required_galois_elements()) < len(dense_need)

    def test_minimal_key_set_suffices(self, setup):
        """A frozen key set holding exactly required_galois_elements() (plus
        the relinearization keys the multiplies need) bootstraps fine —
        required_galois_elements is complete, not just small."""
        context, bootstrap = setup
        params = context.params
        keys = context.keys
        bootstrap.generate_keys(keys)
        for _, planned in bootstrap.stage_programs():
            for node in planned.program.nodes:
                if node.op == "multiply":
                    keys.relinearization_key(node.level)
        frozen = CKKSKeySet(
            params=params, secret=keys.secret, public=keys.public,
            _relin_keys=dict(keys._relin_keys),
            _galois_keys={
                pair: keys._galois_keys[pair]
                for pair in bootstrap.required_galois_elements()
            },
        )
        evaluator = CKKSEvaluator(params, frozen, backend=PYTHON)
        values = [0.02] * params.slots
        ct = context.encrypt_vector(values, level=0)
        refreshed = bootstrap.refresh(evaluator, ct)
        got = context.decrypt_vector(refreshed)
        assert max(abs(g - v) for g, v in zip(got, values)) < 1e-3

    def test_refresh_validates_input_level(self, setup):
        context, bootstrap = setup
        ct = context.encrypt_vector([0.01], level=1)
        with pytest.raises(ValueError, match="level-0"):
            bootstrap.refresh(context.evaluator, ct)

    def test_mod_raise_requires_level_zero(self, setup):
        from repro.fhe.ckks import mod_raise

        context, _ = setup
        ct = context.encrypt_vector([0.01], level=1)
        with pytest.raises(ValueError, match="level-0"):
            mod_raise(ct, context.params)

    def test_planner_stats_recorded_per_stage(self, setup):
        context, bootstrap = setup
        ct = context.encrypt_vector([0.01] * context.params.slots, level=0)
        bootstrap.refresh(context.evaluator, ct)
        assert set(bootstrap.last_stats) == {
            name for name, _ in bootstrap.stage_programs()
        }
        for name, stats in bootstrap.last_stats.items():
            if name != "evalmod":
                assert stats["rotations"] > 0, name
        # At least one stage matrix has in-block diagonals, whose baby
        # rotations share a fused hoist (top-factor stages may legitimately
        # be giant-only: their diagonals are all multiples of n1).
        assert any(
            stats["hoisted_rotations"] > 0
            for name, stats in bootstrap.last_stats.items()
            if name != "evalmod"
        )

    def test_trinity_estimate_positive(self, setup):
        _, bootstrap = setup
        report = bootstrap.trinity_cycle_estimate()
        assert report.latency_cycles > 0
