"""The finite-difference checker itself: exactness, calibration against a
deliberately broken rule, sampling, and switch-point skipping."""

import numpy as np
import pytest

from dfsn.autodiff import Tensor, matmul, relu, tanh_op
from dfsn.gradcheck import grad_check
from dfsn.verify import run_op_checks

from oracles import project


class TestGradCheckBasics:
    def test_linear_function_is_exact(self):
        # power-of-two eps and representable values make the slopes exact
        t = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        report = grad_check(lambda x: project(x, [2.0, 2.0, 2.0]), [t], eps=2.0 ** -10, tol=1e-12)
        assert report.passed
        assert report.max_rel_err == 0.0

    def test_relu_away_from_zero_passes_tight_tolerance(self):
        rng = np.random.default_rng(0)
        mag = rng.uniform(0.1, 1.0, size=8)
        t = Tensor(mag * rng.choice([-1.0, 1.0], size=8), requires_grad=True)
        proj = rng.uniform(0.5, 1.5, size=8)
        report = grad_check(lambda x: project(relu(x), proj), [t], eps=1e-3, tol=1e-5)
        assert report.passed, str(report)

    def test_wrong_backward_rule_is_caught(self):
        def broken_double(t: Tensor) -> Tensor:
            out = Tensor(t.values * 2.0)
            out.requires_grad = True
            out._op = "broken_double"
            out._parents = (t,)
            out._backward_fn = lambda g: (4.0 * g,)  # true rule is 2*g
            return out

        t = Tensor([1.0, 2.0], requires_grad=True)
        report = grad_check(lambda x: project(broken_double(x)), [t], eps=1e-3, tol=1e-4)
        assert not report.passed
        assert report.max_rel_err > 0.4

    def test_report_names_worst_element(self):
        t = Tensor([1.0, -1.0, 2.0], requires_grad=True)
        report = grad_check(lambda x: project(tanh_op(x), x), [t], eps=1e-3, tol=1e-4)
        entry = report.entries[0]
        assert 0 <= entry.worst_flat_index < 3
        assert "max_rel_err" in str(report)

    def test_non_scalar_fn_rejected(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda x: tanh_op(x), [t])

    def test_values_restored_after_probing(self):
        t = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        before = t.values.copy()
        grad_check(lambda x: project(x), [t], eps=1e-3, tol=1e-6)
        assert np.array_equal(t.values, before)

    def test_unreached_input_gets_zero_gradient(self):
        used = Tensor([1.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        report = grad_check(lambda a, b: project(a, a), [used, unused], eps=1e-3, tol=1e-6)
        assert report.passed


class TestSampling:
    def test_sampled_check_needs_rng(self):
        t = Tensor(np.ones(10), requires_grad=True)
        with pytest.raises(ValueError, match="rng"):
            grad_check(lambda x: project(x), [t], sample=3)

    def test_sampled_check_probes_subset(self):
        rng = np.random.default_rng(1)
        t = Tensor(np.arange(20.0), requires_grad=True)
        report = grad_check(lambda x: project(x, x), [t], eps=1e-4, tol=1e-6,
                            sample=5, rng=rng)
        assert report.passed
        assert report.entries[0].compared == 5


class TestSwitchPointSkipping:
    """grad_check always runs in smooth mode: it skips a probe pair whose ReLU
    masks or pooling picks differ from the unperturbed pass's."""

    def test_probe_across_relu_kink_skipped_in_smooth_mode(self):
        # 0.0005 < eps, so the minus probe flips the mask
        t = Tensor([0.0005], requires_grad=True)
        report = grad_check(lambda x: project(relu(x)), [t], eps=1e-3, tol=1e-4)
        assert report.entries[0].skipped == 1
        assert report.entries[0].compared == 0

    def test_smooth_mode_keeps_clear_probes(self):
        t = Tensor([0.5, -0.5, 2.0], requires_grad=True)
        report = grad_check(lambda x: project(relu(x)), [t], eps=1e-3, tol=1e-6)
        assert report.passed
        assert report.entries[0].compared == 3
        assert report.entries[0].skipped == 0

    def test_all_skipped_does_not_count_as_pass(self):
        t = Tensor([0.0], requires_grad=True)
        report = grad_check(lambda x: project(relu(x)), [t], eps=1e-3, tol=1e-4)
        assert report.compared == 0
        assert not report.passed


class TestOpSuite:
    def test_every_op_passes_strict_wide_precision(self):
        # eps 1e-4 keeps central-difference truncation below the 1e-5 bar
        for name, report in run_op_checks(seed=123, trials=20, eps=1e-4, tol=1e-5):
            assert report.passed, f"{name}: {report}"

    def test_narrow_precision_passes_relaxed_tolerance(self):
        # float32 storage quantizes the loss near 6e-8 relative, so narrow
        # checks need the wider probe step to keep slope noise under 1e-3
        rng = np.random.default_rng(3)
        t = Tensor(rng.uniform(-1, 1, (4, 3)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (3, 2)).astype(np.float32), requires_grad=True)
        report = grad_check(lambda a, b: project(tanh_op(matmul(a, b))), [t, w],
                            eps=1e-2, tol=1e-3)
        assert report.passed, str(report)
