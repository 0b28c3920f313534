import numpy as np
import pytest

from gsvgd.dynamics import DynamicsSpec
from gsvgd.integrator import euler_step, symmetric_split_step
from gsvgd.kernels import KernelConfig
from gsvgd.errors import NumericalError
from gsvgd.sampler import Ensemble, gsvgd_velocity
from gsvgd.targets import TargetDensity, standard_gaussian

from helpers import nonfinite_on_call


def ld_field(target, spec, h=1.0):
    return lambda ens: gsvgd_velocity(ens, target, spec, h=h)


def leapfrog_setup(friction=0.0):
    spec = DynamicsSpec("HMC", 1, sigma2=1.0, friction=friction)
    return spec.augment(standard_gaussian(1)), spec, spec.layout


class TestEulerStep:
    def test_zero_step_identity(self):
        target = standard_gaussian(2)
        spec = DynamicsSpec("LD", 2)
        layout = spec.layout
        x = np.random.default_rng(0).standard_normal((4, 2))
        e = Ensemble(x, layout)
        out = euler_step(e, ld_field(target, spec), 0.0)
        np.testing.assert_array_equal(out.positions, x)

    def test_single_particle_gaussian(self):
        target = standard_gaussian(1)
        spec = DynamicsSpec("LD", 1)
        layout = spec.layout
        e = Ensemble(np.array([[1.0]]), layout)
        out = euler_step(e, ld_field(target, spec), 0.1)
        assert out.positions[0, 0] == pytest.approx(0.9, abs=1e-15)

    def test_richardson_halving(self):
        # Two half steps vs one full step differ at second order: halving
        # the step quarters the gap.
        target = standard_gaussian(1)
        spec = DynamicsSpec("LD", 1)
        layout = spec.layout
        f = ld_field(target, spec)

        def gap(eps):
            e0 = Ensemble(np.array([[1.0]]), layout)
            one = euler_step(e0, f, eps)
            half = euler_step(euler_step(e0, f, eps / 2), f, eps / 2)
            return abs(one.positions[0, 0] - half.positions[0, 0])

        ratio = gap(0.2) / gap(0.1)
        assert 3.5 <= ratio <= 4.5


class TestSymmetricSplitStep:
    def test_zero_step_identity(self):
        target, spec, layout = leapfrog_setup()
        x = np.random.default_rng(1).standard_normal((4, 2))
        e = Ensemble(x, layout)
        out = symmetric_split_step(e, target, spec, eps=0.0, h=1.0)
        np.testing.assert_array_equal(out.positions, x)

    def test_requires_momentum_block(self):
        target = standard_gaussian(2)
        spec = DynamicsSpec("LD", 2)
        layout = spec.layout
        e = Ensemble(np.zeros((2, 2)), layout)
        with pytest.raises(ValueError):
            symmetric_split_step(e, target, spec, eps=0.1, h=1.0)

    def test_single_particle_is_classic_leapfrog(self):
        # One step from (theta, r) = (1, 0) at eps = 0.1 for H = (t^2+r^2)/2.
        target, spec, layout = leapfrog_setup(friction=0.0)
        e = Ensemble(np.array([[1.0, 0.0]]), layout)
        out = symmetric_split_step(e, target, spec, eps=0.1, h=1.0)
        assert out.positions[0, 0] == pytest.approx(0.995, abs=1e-15)
        assert out.positions[0, 1] == pytest.approx(-0.09975, abs=1e-15)

    def test_tracks_leapfrog_over_many_steps(self):
        target, spec, layout = leapfrog_setup(friction=0.0)
        e = Ensemble(np.array([[1.0, 0.0]]), layout)
        theta, r = 1.0, 0.0
        eps = 0.1
        for _ in range(200):
            e = symmetric_split_step(e, target, spec, eps=eps, h=1.0)
            r_half = r - 0.5 * eps * theta
            theta = theta + eps * r_half
            r = r_half - 0.5 * eps * theta
            assert abs(e.positions[0, 0] - theta) <= 1e-12
            assert abs(e.positions[0, 1] - r) <= 1e-12

    @staticmethod
    def _max_energy_error(eps, steps):
        target, spec, layout = leapfrog_setup(friction=0.0)
        e = Ensemble(np.array([[1.0, 0.0]]), layout)
        h0 = 0.5
        worst = 0.0
        for _ in range(steps):
            e = symmetric_split_step(e, target, spec, eps=eps, h=1.0)
            energy = 0.5 * float(np.sum(e.positions ** 2))
            worst = max(worst, abs(energy - h0))
        return worst

    def test_bounded_energy_oscillation(self):
        assert self._max_energy_error(0.1, 10_000) <= 0.01

    def test_energy_error_is_second_order(self):
        ratio = (self._max_energy_error(0.1, 2_000)
                 / self._max_energy_error(0.05, 2_000))
        assert 3.0 <= ratio <= 5.0

    def test_agrees_with_euler_to_second_order(self):
        target, spec, layout = leapfrog_setup(friction=0.3)
        x0 = np.array([[0.8, -0.5], [0.2, 0.9], [-1.0, 0.1]])

        def gap(eps):
            e0 = Ensemble(x0, layout)
            split = symmetric_split_step(e0, target, spec, eps=eps, h=1.0)
            euler = euler_step(
                e0, lambda ens: gsvgd_velocity(ens, target, spec, h=1.0), eps)
            return np.max(np.abs(split.positions - euler.positions))

        ratio = gap(0.1) / gap(0.05)
        assert 3.0 <= ratio <= 5.0

    def test_nonfinite_middle_substate_names_particle(self):
        # Sub-states are not re-validated; the score of the middle
        # sub-state (the 2nd of 3 field evaluations) is what turns
        # non-finite, and the field's drift check still names particle 1.
        target, spec, layout = leapfrog_setup(friction=0.3)
        bad = TargetDensity(2, target.logp_fn,
                            nonfinite_on_call(target.grad_fn, 2, 1))
        e = Ensemble(np.array([[0.5, 0.1], [-0.4, 0.3], [0.2, -0.6]]), layout)
        with pytest.raises(NumericalError) as exc:
            symmetric_split_step(e, bad, spec, eps=0.1, h=1.0)
        assert exc.value.particle == 1
        assert "drift" in str(exc.value)

    def test_leaves_its_input_unchanged(self):
        target, spec, layout = leapfrog_setup(friction=0.3)
        x = np.array([[0.5, 0.1], [-0.4, 0.3]])
        e = Ensemble(x, layout)
        seen = []

        def field(ens, h):
            seen.append(ens.positions)
            return gsvgd_velocity(ens, target, spec, h=h)

        out = symmetric_split_step(e, target, spec, eps=0.1, h=1.0,
                                   field_fn=field)
        np.testing.assert_array_equal(e.positions, x)
        assert seen[0] is e.positions
        # Each sub-state is its own snapshot, untouched by later sub-steps.
        assert not np.shares_memory(seen[1], seen[2])
        assert not np.shares_memory(seen[2], out.positions)
        np.testing.assert_array_equal(seen[1][:, 0], x[:, 0])

    def test_nonfinite_result_names_particle(self):
        target, spec, layout = leapfrog_setup()
        e = Ensemble(np.array([[0.5, 0.1], [-0.4, 0.3]]), layout)

        def field(ens, h):
            v = np.zeros_like(ens.positions)
            v[1, 1] = np.inf
            return v

        with pytest.raises(NumericalError) as exc:
            symmetric_split_step(e, target, spec, eps=0.1, h=1.0,
                                 field_fn=field)
        assert exc.value.particle == 1

    def test_thermostat_block_moves_with_half_steps(self):
        base = standard_gaussian(1)
        spec = DynamicsSpec("NHT", 1, sigma2=1.0, friction=0.4, mu=2.0)
        target = spec.augment(base)
        e = Ensemble(np.array([[0.5, 0.8, 0.1]]), spec.layout)
        out = symmetric_split_step(e, target, spec, eps=0.1, h=1.0)
        assert out.positions[0, 2] != 0.1  # xi updated alongside r

    def test_deterministic_repeat(self):
        target, spec, layout = leapfrog_setup(friction=0.2)
        x = np.random.default_rng(2).standard_normal((6, 2))
        kernel = KernelConfig("median")
        a = Ensemble(x, layout)
        b = Ensemble(x, layout)
        for _ in range(20):
            a = symmetric_split_step(a, target, spec, kernel=kernel, eps=0.05)
            b = symmetric_split_step(b, target, spec, kernel=kernel, eps=0.05)
        np.testing.assert_array_equal(a.positions, b.positions)
