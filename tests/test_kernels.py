"""Tests for the kernel IR, operation counts, and kernel flows, and the
library's transform rows per CKKS operation against those flows."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fhe.backend import WrappedBackend, available_backends, get_backend
from repro.fhe.ckks import CKKSCiphertext, CKKSEvaluator, CKKSKeyGenerator, CKKSPlaintext
from repro.fhe.rns import RNSPolynomial
from repro.fhe.params import CKKS_DEFAULT, CKKS_KEYSWITCH_BREAKDOWN, CKKSParameters, TFHE_SET_I, TFHE_SET_III
from repro.kernels import (
    KERNEL_CLASS,
    Kernel,
    KernelKind,
    KernelStep,
    KernelTrace,
    blind_rotation_flow,
    ckks_operation_flow,
    ckks_to_tfhe_flow,
    external_product_flow,
    hadd_flow,
    hmult_flow,
    hrotate_flow,
    kernel_additions,
    kernel_multiplications,
    keyswitch_flow,
    pbs_flow,
    pmult_flow,
    rescale_flow,
    tfhe_to_ckks_flow,
    trace_multiplications,
    trace_operation_breakdown,
)
from repro.kernels.tfhe_flows import gate_bootstrap_flow, lwe_keyswitch_flow


class TestKernel:
    def test_elements(self):
        kernel = Kernel(KernelKind.NTT, poly_length=1024, count=4)
        assert kernel.elements == 4096

    def test_scaled(self):
        kernel = Kernel(KernelKind.MAC, poly_length=256, count=2, inner=6)
        scaled = kernel.scaled(3)
        assert scaled.count == 6
        assert scaled.inner == 6
        assert scaled.poly_length == 256

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Kernel(KernelKind.NTT, poly_length=0)
        with pytest.raises(ValueError):
            Kernel(KernelKind.NTT, poly_length=8, count=0)
        with pytest.raises(ValueError):
            Kernel(KernelKind.NTT, poly_length=8, inner=0)

    def test_every_kind_has_a_class(self):
        for kind in KernelKind:
            assert kind in KERNEL_CLASS


class TestKernelTrace:
    def test_add_step_and_iteration(self):
        trace = KernelTrace(name="t")
        trace.add_step([Kernel(KernelKind.NTT, 64)], label="a")
        trace.add_step([Kernel(KernelKind.MAC, 64, inner=2)], repeat=3, label="b")
        assert len(trace) == 2
        kinds = [k.kind for k in trace.kernels()]
        assert kinds == [KernelKind.NTT, KernelKind.MAC]

    def test_empty_step_is_skipped(self):
        trace = KernelTrace(name="t")
        trace.add_step([], label="empty")
        assert len(trace) == 0

    def test_repeat_expands_histogram(self):
        trace = KernelTrace(name="t")
        trace.add_step([Kernel(KernelKind.NTT, 64, count=2)], repeat=5)
        histogram = trace.kernel_histogram()
        assert histogram[KernelKind.NTT] == 64 * 2 * 5

    def test_extend_and_concatenate(self):
        a = KernelTrace(name="a")
        a.add_step([Kernel(KernelKind.NTT, 64)])
        b = KernelTrace(name="b")
        b.add_step([Kernel(KernelKind.MODADD, 64)])
        combined = KernelTrace.concatenate("ab", [a, b])
        assert len(combined) == 2
        a.extend(b, repeat=2)
        assert len(a) == 3

    def test_invalid_repeat(self):
        with pytest.raises(ValueError):
            KernelStep(kernels=[Kernel(KernelKind.NTT, 64)], repeat=0)


class TestOpCounts:
    def test_ntt_multiplication_count(self):
        kernel = Kernel(KernelKind.NTT, poly_length=1024, count=1)
        # N/2 * log2(N) butterflies plus N twisting multiplications.
        assert kernel_multiplications(kernel) == 512 * 10 + 1024

    def test_mac_counts(self):
        kernel = Kernel(KernelKind.BCONV, poly_length=256, count=3, inner=7)
        assert kernel_multiplications(kernel) == 3 * 256 * 7
        assert kernel_additions(kernel) == 3 * 256 * 6

    def test_data_kernels_cost_no_multiplications(self):
        for kind in (KernelKind.AUTO, KernelKind.ROTATE, KernelKind.SAMPLE_EXTRACT,
                     KernelKind.DECOMPOSE, KernelKind.TRANSPOSE):
            assert kernel_multiplications(Kernel(kind, 256, count=4)) == 0

    def test_modadd_has_additions_only(self):
        kernel = Kernel(KernelKind.MODADD, poly_length=128, count=2)
        assert kernel_multiplications(kernel) == 0
        assert kernel_additions(kernel) == 256

    @given(st.integers(min_value=3, max_value=12), st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_multiplications_scale_linearly_with_count(self, log_n, count):
        n = 1 << log_n
        single = Kernel(KernelKind.NTT, n, count=1)
        many = Kernel(KernelKind.NTT, n, count=count)
        assert kernel_multiplications(many) == count * kernel_multiplications(single)


class TestCKKSFlows:
    def test_keyswitch_flow_structure(self):
        params = CKKS_DEFAULT
        trace = keyswitch_flow(params, params.max_level)
        labels = [step.label for step in trace]
        assert labels == ["decompose", "digit-lift", "inner-product", "intt", "moddown"]
        histogram = trace.kernel_histogram()
        assert histogram[KernelKind.NTT] > 0
        assert histogram[KernelKind.BCONV] > 0

    def test_keyswitch_ntt_count_matches_algorithm(self):
        params = CKKS_DEFAULT
        level = params.max_level
        beta = params.beta(level)
        extended = level + 1 + params.num_special_moduli
        trace = keyswitch_flow(params, level)
        ntt_kernels = [k for k in trace.kernels() if k.kind == KernelKind.NTT]
        # Algorithm 1 lines 3-6: beta digits, each NTT-ed over the extended basis.
        assert sum(k.count for k in ntt_kernels) == beta * extended

    def test_keyswitch_work_shrinks_with_level(self):
        params = CKKS_DEFAULT
        high = trace_multiplications(keyswitch_flow(params, params.max_level))
        low = trace_multiplications(keyswitch_flow(params, 5))
        assert low < high

    def test_hmult_includes_keyswitch(self):
        trace = hmult_flow(CKKS_DEFAULT, 10)
        kinds = {k.kind for k in trace.kernels()}
        assert {KernelKind.MODMUL, KernelKind.NTT, KernelKind.BCONV, KernelKind.IP} <= kinds

    def test_hmult_with_rescale_is_larger(self):
        base = trace_multiplications(hmult_flow(CKKS_DEFAULT, 10, include_rescale=False))
        with_rescale = trace_multiplications(hmult_flow(CKKS_DEFAULT, 10, include_rescale=True))
        assert with_rescale > base

    def test_hrotate_includes_automorphism(self):
        trace = hrotate_flow(CKKS_DEFAULT, 10)
        kinds = {k.kind for k in trace.kernels()}
        assert KernelKind.AUTO in kinds

    def test_cheap_operations_have_no_ntt(self):
        for flow in (hadd_flow, pmult_flow):
            kinds = {k.kind for k in flow(CKKS_DEFAULT, 10).kernels()}
            assert KernelKind.NTT not in kinds

    def test_rescale_level_zero_raises(self):
        with pytest.raises(ValueError):
            rescale_flow(CKKS_DEFAULT, 0)

    def test_operation_dispatcher(self):
        for name in ("HMult", "PMult", "HAdd", "PAdd", "HRotate", "Rescale", "Conjugate"):
            trace = ckks_operation_flow(name, CKKS_DEFAULT, 8)
            assert len(trace) >= 1
        with pytest.raises(ValueError):
            ckks_operation_flow("Bogus", CKKS_DEFAULT, 8)

    def test_table_ii_composition(self):
        """Table II: which kernels compose each CKKS operation."""
        expectations = {
            "HMult": {KernelKind.NTT, KernelKind.BCONV, KernelKind.IP,
                      KernelKind.MODMUL, KernelKind.MODADD},
            "PMult": {KernelKind.MODMUL, KernelKind.MODADD},
            "HAdd": {KernelKind.MODADD},
            "PAdd": {KernelKind.MODADD},
            "HRotate": {KernelKind.NTT, KernelKind.BCONV, KernelKind.IP,
                        KernelKind.MODMUL, KernelKind.MODADD, KernelKind.AUTO},
            "Rescale": {KernelKind.NTT, KernelKind.MODADD},
        }
        for name, expected in expectations.items():
            kinds = {k.kind for k in ckks_operation_flow(name, CKKS_DEFAULT, 10).kernels()}
            assert expected <= kinds, f"{name} is missing kernels {expected - kinds}"


class TestTFHEFlows:
    def test_external_product_branches(self):
        trace = external_product_flow(TFHE_SET_I)
        ntt = [k for k in trace.kernels() if k.kind == KernelKind.NTT]
        assert sum(k.count for k in ntt) == TFHE_SET_I.external_product_branches

    def test_blind_rotation_repeats_lwe_dimension_times(self):
        trace = blind_rotation_flow(TFHE_SET_I)
        assert all(step.repeat == TFHE_SET_I.lwe_dimension for step in trace)

    def test_pbs_flow_contains_all_stages(self):
        kinds = {k.kind for k in pbs_flow(TFHE_SET_I).kernels()}
        assert {KernelKind.MODSWITCH, KernelKind.NTT, KernelKind.MAC,
                KernelKind.SAMPLE_EXTRACT, KernelKind.LWE_KEYSWITCH} <= kinds

    def test_pbs_work_grows_with_parameter_strength(self):
        weak = trace_multiplications(pbs_flow(TFHE_SET_I))
        strong = trace_multiplications(pbs_flow(TFHE_SET_III))
        assert strong > weak

    def test_gate_bootstrap_adds_linear_step(self):
        gate = gate_bootstrap_flow(TFHE_SET_I)
        assert len(gate) == len(pbs_flow(TFHE_SET_I)) + 1

    def test_lwe_keyswitch_reduction_depth(self):
        trace = lwe_keyswitch_flow(TFHE_SET_I)
        ks = [k for k in trace.kernels() if k.kind == KernelKind.LWE_KEYSWITCH][0]
        assert ks.inner == TFHE_SET_I.glwe_lwe_dimension * TFHE_SET_I.ksk_levels


class TestConversionFlows:
    def test_ckks_to_tfhe_is_pure_extraction(self):
        trace = ckks_to_tfhe_flow(CKKS_DEFAULT, nslot=32)
        kinds = {k.kind for k in trace.kernels()}
        assert kinds == {KernelKind.SAMPLE_EXTRACT}

    def test_tfhe_to_ckks_uses_ckks_datapath(self):
        params = CKKSParameters(ring_degree=16384, max_level=8, dnum=3, name="conv-test")
        trace = tfhe_to_ckks_flow(params, nslot=8)
        kinds = {k.kind for k in trace.kernels()}
        assert {KernelKind.AUTO, KernelKind.NTT, KernelKind.BCONV, KernelKind.ROTATE} <= kinds

    def test_repacking_work_grows_with_nslot(self):
        params = CKKSParameters(ring_degree=16384, max_level=8, dnum=3, name="conv-test")
        work = [trace_multiplications(tfhe_to_ckks_flow(params, nslot=n)) for n in (2, 8, 32)]
        assert work[0] < work[1] < work[2]

    def test_nslot_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            tfhe_to_ckks_flow(CKKS_DEFAULT, nslot=3)


class TestWorkloadBreakdown:
    def test_figure_2_shape(self):
        """PBS is NTT-dominated; CKKS keyswitch is closer to balanced (Fig. 2)."""
        keyswitch = keyswitch_flow(CKKS_KEYSWITCH_BREAKDOWN, CKKS_KEYSWITCH_BREAKDOWN.max_level)
        ks_breakdown = trace_operation_breakdown(keyswitch)
        ks_ntt_share = ks_breakdown["ntt"] / (ks_breakdown["ntt"] + ks_breakdown["mac"]
                                              + ks_breakdown["elementwise"])
        pbs_breakdown = trace_operation_breakdown(pbs_flow(TFHE_SET_I))
        pbs_ntt_share = pbs_breakdown["ntt"] / (pbs_breakdown["ntt"] + pbs_breakdown["mac"]
                                                + pbs_breakdown["elementwise"])
        assert 0.4 < ks_ntt_share < 0.7
        assert 0.65 < pbs_ntt_share < 0.9
        assert pbs_ntt_share > ks_ntt_share


# ---------------------------------------------------------------------------
# The library's transform rows per CKKS operation against the flows
# ---------------------------------------------------------------------------

#: Forward and inverse transform rows of one top-level dispatch, per kernel
#: that transforms; ``args[1]`` is the store (or the list of stores).
TRANSFORM_ROWS = {
    "batched_ntt": lambda args: (len(args[1]), 0),
    "ntt_forward_batch": lambda args: (len(args[1]), 0),
    "limbs_eval_key": lambda args: (len(args[1]), 0),
    "stacked_ntt": lambda args: (sum(map(len, args[1])), 0),
    "batched_intt": lambda args: (0, len(args[1])),
    "ntt_inverse_batch": lambda args: (0, len(args[1])),
    "stacked_intt": lambda args: (0, sum(map(len, args[1]))),
    "limbs_convolution": lambda args: (2 * len(args[1]), len(args[1])),
    # Per member, the two accumulators' |P| special rows (contexts beyond
    # the len(scalars) Q limbs) inverse and their lifted Q rows forward.
    "keyswitch_rows": lambda args: (2 * len(args[3]) * len(args[1]),
                                    2 * (len(args[0]) - len(args[3])) * len(args[1])),
}
#: Every other kernel the operations below dispatch: none transforms.
TRANSFORM_FREE = {
    "limbs_add", "limbs_sub", "limbs_mul", "limbs_neg", "limbs_tensor_product",
    "limbs_eval_mac", "bconv_matmul", "batched_sub_scaled", "limbs_gather",
    "limbs_signed_permute", "replicate_row", "pack_limbs",
}


class _TransformCensus(WrappedBackend):
    """Counts forward and inverse transform rows of the top-level dispatches."""

    prefix = "census"

    def __init__(self, inner):
        super().__init__(inner)
        self.reset()

    def reset(self):
        self.rows, self.kernels = [0, 0], set()

    def _dispatch(self, kernel, func, args, kwargs):
        self.kernels.add(kernel)
        if kernel in TRANSFORM_ROWS:
            forward, inverse = TRANSFORM_ROWS[kernel](args)
            self.rows = [self.rows[0] + forward, self.rows[1] + inverse]
        return func(*args, **kwargs)


#: Why the library's rows differ from the flows, as ``(reason, rows)`` with
#: ``rows(l) = (forward, inverse)`` added at level ``l`` (``l + 1`` limbs).
DECOMPOSE_INPUT = ("the keyswitched polynomial returns to coefficients for "
                   "Decompose, a step the model omits", lambda l: (0, l + 1))
EVAL_MODDOWN = ("ModDown in the evaluation domain: the P part's BConv image is "
                "forward-transformed onto both outputs' l + 1 limbs, which the "
                "model inverse-transforms instead", lambda l: (2 * (l + 1), -2 * (l + 1)))
OPERANDS_TO_EVAL = ("both coefficient operands go to the evaluation domain, "
                    "where the model takes them to be", lambda l: (4 * (l + 1), 0))
BACK_TO_COEFF = ("the result returns to its source's coefficient domain",
                 lambda l: (0, 2 * (l + 1)))
COEFF_PMULT = ("both components and the plaintext go to the evaluation domain "
               "and the products return: the model's operands are "
               "evaluation-resident", lambda l: (3 * (l + 1), 2 * (l + 1)))
COEFF_RESCALE = ("a coefficient-resident rescale needs no transform",
                 lambda l: (-2 * l, -2))
#: ``(operation, input domain)`` -> its deviations; a pair not named has none.
DEVIATIONS = {
    ("HMult", "eval"): (DECOMPOSE_INPUT, EVAL_MODDOWN),
    ("HMult", "coeff"): (OPERANDS_TO_EVAL, DECOMPOSE_INPUT, EVAL_MODDOWN),
    ("HRotate", "eval"): (DECOMPOSE_INPUT, EVAL_MODDOWN),
    ("HRotate", "coeff"): (EVAL_MODDOWN, BACK_TO_COEFF),
    ("PMult", "coeff"): (COEFF_PMULT,),
    ("Rescale", "coeff"): (COEFF_RESCALE,),
}


def _model_rows(name, params, level):
    trace = ckks_operation_flow(name, params, level)
    return [sum(k.count for k in trace.kernels() if k.kind == kind)
            for kind in (KernelKind.NTT, KernelKind.INTT)]


@pytest.mark.parametrize("backend", available_backends())
def test_ckks_transform_census_matches_the_flows(backend):
    """Per operation and level of ``CKKSParameters.toy()``, on evaluation-
    resident inputs (what the planner feeds) and coefficient ones (eager),
    the library's forward / inverse transform rows equal the flow's NTT /
    INTT counts plus the named ``DEVIATIONS``.  Each operation runs twice
    and the second run is counted, so cached key and plaintext images are
    not."""
    params = CKKSParameters.toy()
    census = _TransformCensus(get_backend(backend))
    ev = CKKSEvaluator(params, CKKSKeyGenerator(params, seed=3, backend=census).generate(),
                       backend=census)
    rotation = ev.galois_element_for_rotation(1)
    rng = random.Random(3)
    seen = set()
    for level in range(params.max_level + 1):
        # Uniform rows stand in for encryptions: the rows a kernel
        # transforms do not depend on the values.
        def poly():
            return RNSPolynomial.sample_uniform(params.ring_degree, params.basis(level), rng)
        a, b = (CKKSCiphertext(c0=poly(), c1=poly(), level=level, scale=params.scale)
                for _ in range(2))
        plaintext = CKKSPlaintext(poly=poly(), level=level, scale=params.scale)
        for domain in ("eval", "coeff"):
            x, y = (ev.to_eval(a), ev.to_eval(b)) if domain == "eval" else (a, b)
            ops = {"HMult": lambda: ev.multiply(x, y),
                   "HRotate": lambda: ev.galois_wave([(x, rotation)]),
                   "PMult": lambda: ev.multiply_plain(x, plaintext),
                   "HAdd": lambda: ev.add(x, y)}
            if level:
                ops["Rescale"] = lambda: ev.rescale(x)
            for name, op in ops.items():
                op()
                census.reset()
                op()
                assert census.kernels <= TRANSFORM_FREE | set(TRANSFORM_ROWS)
                expected = _model_rows(name, params, level)
                for _, rows in DEVIATIONS.get((name, domain), ()):
                    expected = [e + d for e, d in zip(expected, rows(level))]
                assert census.rows == expected, (name, domain, level)
                seen.add((name, domain))
    assert set(DEVIATIONS) <= seen
