"""Tests for integration, the benchmark field, and ensemble sampling."""

import numpy as np
import pytest
import scipy.linalg

from mredmd import dynamics
from mredmd.dynamics import (
    TIME_MATCH_TOL,
    Ensemble,
    SamplingSchedule,
    common_micro_step,
    export_ensemble,
    import_ensemble,
    integrate,
    linear_field,
    lorenz_field,
    sample_ensemble,
)
from mredmd.errors import ConfigurationError, DataError, DivergenceError


class TestIntegrate:
    def test_zero_field_constant(self):
        fld = dynamics.VectorField(2, lambda x: np.zeros_like(x))
        out = integrate(fld, [1.0, -2.0], 0.1, 5)
        np.testing.assert_array_equal(out, np.tile([1.0, -2.0], (6, 1)))

    def test_exponential_decay(self):
        fld = linear_field([[-1.0]])
        out = integrate(fld, [1.0], 0.001, 1000)
        assert out[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_lorenz_step_doubling(self):
        # per-step error is O(h^5): halving h shrinks the one-step vs
        # two-half-steps difference by ~2^5
        fld = lorenz_field()
        x0 = np.array([0.7, -0.4, 0.9])

        def diff(h):
            one = integrate(fld, x0, h, 1)[-1]
            two = integrate(fld, x0, h / 2, 2)[-1]
            return np.linalg.norm(one - two)

        ratio = diff(0.2) / diff(0.1)
        assert 16.0 < ratio < 64.0

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 3))
        x0 = rng.normal(size=3)
        h = 0.01
        out = integrate(linear_field(a), x0, h, 1)[-1]
        exact = scipy.linalg.expm(a * h) @ x0
        assert np.linalg.norm(out - exact) < 10 * h**5

    def test_batch_matches_single(self):
        fld = lorenz_field()
        x0s = np.array([[0.1, 0.2, 0.3], [-0.5, 0.4, 0.8]])
        batch = integrate(fld, x0s, 0.05, 10)
        for k in range(2):
            single = integrate(fld, x0s[k], 0.05, 10)
            np.testing.assert_array_equal(batch[:, k, :], single)

    def test_divergence_names_step(self):
        fld = dynamics.VectorField(1, lambda x: x**3)
        with pytest.raises(DivergenceError, match="step"):
            integrate(fld, [10.0], 1.0, 50)


class TestLorenzField:
    def test_equilibrium(self):
        np.testing.assert_array_equal(lorenz_field()(np.zeros(3)), np.zeros(3))

    def test_hand_values(self):
        fld = lorenz_field()
        np.testing.assert_allclose(fld(np.array([1.0, 1.0, 1.0])), [0.0, -1.25, -1.0])
        np.testing.assert_allclose(fld(np.array([0.0, 1.0, 0.0])), [0.5, -1.0, 0.0])


class TestSamplingSchedule:
    def test_instants(self):
        s = SamplingSchedule(component=0, dead_time=0.2, period=0.5, count=3)
        np.testing.assert_allclose(s.instants(), [0.2, 0.7, 1.2, 1.7])

    def test_sample_index(self):
        s = SamplingSchedule(component=0, dead_time=0.1, period=0.3, count=2)
        assert s.sample_index(0.4) == 1
        assert s.sample_index(0.2) is None
        assert s.sample_index(1.3) is None  # beyond the last sample

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SamplingSchedule(component=0, dead_time=-0.1, period=0.5, count=1)
        with pytest.raises(ConfigurationError):
            SamplingSchedule(component=0, dead_time=0.0, period=0.0, count=1)
        with pytest.raises(ConfigurationError):
            SamplingSchedule(component=0, dead_time=0.0, period=0.5, count=0)


class TestCommonMicroStep:
    def test_benchmark_rates(self):
        schedules = [
            SamplingSchedule(component=i, dead_time=0.0, period=p * 0.1, count=2)
            for i, p in enumerate((1, 4, 3))
        ]
        h = common_micro_step(schedules)
        assert float(h) == pytest.approx(0.01)

    def test_includes_dead_times_and_extras(self):
        schedules = [SamplingSchedule(component=0, dead_time=0.05, period=0.2, count=2)]
        h = common_micro_step(schedules, extra_times=(0.1,))
        assert float(h) == pytest.approx(0.005)

    def test_irrational_period_rejected(self):
        schedules = [
            SamplingSchedule(component=0, dead_time=0.0, period=0.1, count=1),
            SamplingSchedule(component=1, dead_time=0.0, period=0.1 * np.sqrt(2), count=1),
        ]
        with pytest.raises(ConfigurationError):
            common_micro_step(schedules)

    def test_too_fine_grid_rejected(self):
        schedules = [
            SamplingSchedule(component=0, dead_time=0.0, period=0.1, count=1),
            SamplingSchedule(component=1, dead_time=0.0, period=0.10001, count=1),
        ]
        with pytest.raises(ConfigurationError):
            common_micro_step(schedules)


def benchmark_schedules(t_s=0.1):
    """Multirate schedules for rates (1, 4, 3) with the lcm-covering counts."""
    return [
        SamplingSchedule(component=0, dead_time=0.0, period=t_s, count=12),
        SamplingSchedule(component=1, dead_time=0.0, period=4 * t_s, count=3),
        SamplingSchedule(component=2, dead_time=0.0, period=3 * t_s, count=4),
    ]


class TestSampleEnsemble:
    def test_grid_aligned_samples_equal_dense(self):
        fld = lorenz_field()
        schedules = [
            SamplingSchedule(component=i, dead_time=0.0, period=0.1, count=2)
            for i in range(3)
        ]
        ensemble = sample_ensemble(fld, schedules, 1, seed=0)
        for i in range(3):
            np.testing.assert_allclose(ensemble.times[i], [0.0, 0.1, 0.2])
            np.testing.assert_array_equal(
                ensemble.values[i][0], ensemble.dense_states[[0, 10, 20], 0, i]
            )

    def test_benchmark_multirate_instants(self):
        ensemble = sample_ensemble(lorenz_field(), benchmark_schedules(), 300, seed=0)
        assert len(ensemble) == 300
        rec = ensemble[17]
        assert rec.index == 17
        np.testing.assert_allclose(rec.series[1].times, [0.0, 0.4, 0.8, 1.2])
        np.testing.assert_allclose(rec.series[2].times, [0.0, 0.3, 0.6, 0.9, 1.2])
        np.testing.assert_array_equal(rec.series[2].values, ensemble.values[2][17])
        np.testing.assert_array_equal(rec.dense_states, ensemble.dense_states[:, 17])

    def test_same_seed_bit_identical(self):
        a = sample_ensemble(lorenz_field(), benchmark_schedules(), 5, seed=42)
        b = sample_ensemble(lorenz_field(), benchmark_schedules(), 5, seed=42)
        np.testing.assert_array_equal(a.x0, b.x0)
        np.testing.assert_array_equal(a.dense_states, b.dense_states)
        for i in a.values:
            np.testing.assert_array_equal(a.values[i], b.values[i])

    def test_different_seeds_differ(self):
        a = sample_ensemble(lorenz_field(), benchmark_schedules(), 2, seed=0)
        b = sample_ensemble(lorenz_field(), benchmark_schedules(), 2, seed=1)
        assert not np.array_equal(a.x0[0], b.x0[0])

    def test_init_box_respected(self):
        box = [(0.5, 1.0), (-2.0, -1.0), (3.0, 4.0)]
        ensemble = sample_ensemble(lorenz_field(), benchmark_schedules(), 20, init_box=box, seed=1)
        for i, (lo, hi) in enumerate(box):
            assert np.all((ensemble.x0[:, i] >= lo) & (ensemble.x0[:, i] <= hi))

    def test_noise_hook(self):
        clean = sample_ensemble(lorenz_field(), benchmark_schedules(), 3, seed=5)
        noisy = sample_ensemble(lorenz_field(), benchmark_schedules(), 3, seed=5, noise_std=0.01)
        np.testing.assert_array_equal(clean.x0, noisy.x0)
        assert not np.array_equal(clean.values[0][0], noisy.values[0][0])

    def test_schedule_coverage_check(self):
        with pytest.raises(ConfigurationError):
            sample_ensemble(lorenz_field(), benchmark_schedules()[:2], 1, seed=0)

    def test_dense_value_at(self):
        ensemble = sample_ensemble(
            lorenz_field(), benchmark_schedules(), 2, seed=0, extra_times=(0.1, 0.2)
        )
        at = ensemble.dense_at(0.1)
        np.testing.assert_array_equal(at, ensemble.dense_states[10].T)
        assert at.flags.c_contiguous
        with pytest.raises(DataError):
            ensemble.dense_at(0.105)


class TestEnsembleCsvRoundtrip:
    def test_export_import(self, tmp_path):
        ensemble = sample_ensemble(lorenz_field(), benchmark_schedules(), 3, seed=2)
        export_ensemble(ensemble, tmp_path)
        files = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert files == [f"trajectory_{k:05d}.csv" for k in range(3)]
        back = import_ensemble(tmp_path)
        np.testing.assert_array_equal(back.indices, ensemble.indices)
        assert back.x0 is None and back.dense_states is None
        assert sorted(back.times) == sorted(ensemble.times)
        for i in ensemble.times:
            np.testing.assert_array_equal(back.times[i], ensemble.times[i])
            np.testing.assert_array_equal(back.values[i], ensemble.values[i])

    def test_export_deterministic_bytes(self, tmp_path):
        ensemble = sample_ensemble(lorenz_field(), benchmark_schedules(), 2, seed=9)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        export_ensemble(ensemble, d1)
        export_ensemble(ensemble, d2)
        for p1, p2 in zip(sorted(d1.iterdir()), sorted(d2.iterdir())):
            assert p1.read_bytes() == p2.read_bytes()

    def test_import_missing_dir(self, tmp_path):
        with pytest.raises(DataError):
            import_ensemble(tmp_path / "empty")


def _exported(tmp_path):
    """Directory of three exported trajectories and the lines of the second.

    Each file holds component 0 on lines 2-14, component 1 on lines 15-18
    and component 2 on lines 19-23.
    """
    export_ensemble(sample_ensemble(lorenz_field(), benchmark_schedules(), 3, seed=2), tmp_path)
    path = tmp_path / "trajectory_00001.csv"
    return path, path.read_text().splitlines(keepends=True)


def _set_field(lines, line_no, column, text):
    fields = lines[line_no - 1].rstrip("\n").split(",")
    fields[column] = text
    lines[line_no - 1] = ",".join(fields) + "\n"


class TestImportValidation:
    """import_ensemble rejects bad data with the file (and line) named."""

    def test_unparsable_row(self, tmp_path):
        path, lines = _exported(tmp_path)
        _set_field(lines, 5, 2, "0.3x")
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=r"trajectory_00001\.csv, line 5"):
            import_ensemble(tmp_path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, text):
        path, lines = _exported(tmp_path)
        _set_field(lines, 16, 2, text)
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=r"trajectory_00001\.csv, line 16: non-finite"):
            import_ensemble(tmp_path)

    @pytest.mark.parametrize("swap", [True, False], ids=["unsorted", "duplicate"])
    def test_times_not_increasing(self, tmp_path, swap):
        path, lines = _exported(tmp_path)
        if swap:
            lines[2], lines[3] = lines[3], lines[2]
        else:
            lines[3] = lines[2]
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=r"trajectory_00001\.csv, line 4: component 0"):
            import_ensemble(tmp_path)

    def test_component_missing(self, tmp_path):
        path, lines = _exported(tmp_path)
        path.write_text("".join(lines[:18]))  # drops component 2
        with pytest.raises(DataError, match=r"trajectory_00001\.csv: components \[0, 1\]"):
            import_ensemble(tmp_path)

    def test_times_differ_between_files(self, tmp_path):
        path, lines = _exported(tmp_path)
        _set_field(lines, 17, 1, repr(0.8 + 10 * TIME_MATCH_TOL))
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=r"trajectory_00001\.csv: component 1 sample times"):
            import_ensemble(tmp_path)
        # differences within the tolerance are the same instant
        _set_field(lines, 17, 1, repr(0.8 + 0.1 * TIME_MATCH_TOL))
        path.write_text("".join(lines))
        assert len(import_ensemble(tmp_path)) == 3


class TestComponentSeriesValidation:
    """Sample series are validated once, when their ensemble is built."""

    def test_strictly_increasing_times(self):
        with pytest.raises(DataError):
            Ensemble(times={0: [0.0, 0.0]}, values={0: [[1.0, 2.0]]}, indices=[0])
        with pytest.raises(DataError):
            Ensemble(times={0: [0.1, 0.0]}, values={0: [[1.0, 2.0]]}, indices=[0])

    def test_record_requires_dense_for_truth(self):
        ensemble = Ensemble(times={0: [0.0, 0.1]}, values={0: [[1.0, 2.0]]}, indices=[0])
        assert ensemble[0].dense_states is None
        with pytest.raises(DataError):
            ensemble.dense_at(0.1)
