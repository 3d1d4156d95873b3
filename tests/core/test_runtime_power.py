"""Tests for the run-time (in-simulator) power analysis path."""

from dataclasses import replace

import pytest

from repro.core.pipeline import GemStone
from repro.core.runtime_power import (
    PowerSample,
    compile_equations,
    mean_power,
    runtime_power_trace,
    trace_energy,
)

from tests.conftest import SMALL_FREQS
from tests.sim.test_executor import _count_compiles


@pytest.fixture(scope="module")
def equations(small_gemstone):
    return compile_equations(small_gemstone.power_model.gem5_equations())


class TestCompileEquations:
    def test_opps_match_model(self, small_gemstone, equations):
        assert set(equations.opps()) == set(small_gemstone.power_model.per_opp)

    def test_core_parsed_from_header(self, equations):
        assert equations.core == "A15"

    def test_runtime_matches_posthoc_application(self, small_gemstone, equations,
                                                 small_profiles):
        """Method 2 (runtime equations) must agree with method 1 (post-hoc
        application) — same model, same inputs."""
        for profile in small_profiles[:4]:
            stats = small_gemstone.gem5.run(profile, SMALL_FREQS[1])
            runtime = equations.evaluate_stats(stats)
            posthoc = small_gemstone.application.apply_to_gem5(stats).power_w
            # Agreement up to the 8-significant-digit coefficient printing.
            assert runtime == pytest.approx(posthoc, rel=1e-6)

    def test_unknown_opp_rejected(self, equations):
        with pytest.raises(KeyError, match="MHz"):
            equations.evaluate(123e6, {})

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="unparseable"):
            compile_equations("power at 600MHz is three watts")

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="no power equations"):
            compile_equations("# just a comment\n")

    def test_missing_intercept_rejected(self):
        with pytest.raises(ValueError, match="intercept"):
            compile_equations("power[600MHz] = rate(cpu.numCycles)")

    def test_negative_weights_parse(self):
        eq = compile_equations(
            "power[600MHz] = 0.5 + 1e-10*rate(a.b) - 2e-10*rate(c.d)"
        )
        assert eq.evaluate(600e6, {"a.b": 1e10, "c.d": 1e9}) == pytest.approx(
            0.5 + 1.0 - 0.2
        )


class TestRuntimeTrace:
    @pytest.fixture(scope="class")
    def samples(self, small_gemstone, equations, small_profiles):
        return runtime_power_trace(
            small_gemstone.gem5, small_profiles[2], SMALL_FREQS[1], equations,
            n_windows=6,
        )

    def test_window_count(self, samples):
        assert len(samples) == 6

    def test_windows_contiguous(self, samples):
        clock = 0.0
        for sample in samples:
            assert sample.start_seconds == pytest.approx(clock)
            clock += sample.duration_seconds

    def test_power_positive_and_plausible(self, samples):
        for sample in samples:
            assert 0.05 < sample.power_w < 10.0

    def test_mean_power_near_whole_run(self, small_gemstone, equations,
                                       small_profiles, samples):
        stats = small_gemstone.gem5.run(small_profiles[2], SMALL_FREQS[1])
        whole = equations.evaluate_stats(stats)
        assert mean_power(samples) == pytest.approx(whole, rel=0.15)

    def test_energy_is_power_times_time(self, samples):
        expected = sum(s.power_w * s.duration_seconds for s in samples)
        assert trace_energy(samples) == pytest.approx(expected)

    def test_invalid_window_count(self, small_gemstone, equations, small_profiles):
        with pytest.raises(ValueError):
            runtime_power_trace(
                small_gemstone.gem5, small_profiles[0], SMALL_FREQS[0],
                equations, n_windows=0,
            )

    def test_mean_power_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_power([])

    def test_single_window_equals_whole_run_power(self, small_gemstone,
                                                  equations, small_profiles):
        samples = runtime_power_trace(
            small_gemstone.gem5, small_profiles[0], SMALL_FREQS[0], equations,
            n_windows=1,
        )
        stats = small_gemstone.gem5.run(small_profiles[0], SMALL_FREQS[0])
        whole = equations.evaluate_stats(stats)
        assert samples[0].power_w == pytest.approx(whole, rel=1e-6)


class TestRuntimeTraceCached:
    """Run-time power against a result cache: the same samples, bit for bit."""

    #: ``(start_seconds, duration_seconds, power_w)`` of the six windows of
    #: ``small_profiles[2]`` at 1 GHz, recorded before the windows went
    #: through the simulation executor.
    PINNED = (
        (0.0, 2.4072642594000038, 0.8297518422623166),
        (2.4072642594000038, 2.055531277800003, 0.8351337134803616),
        (4.462795537200007, 2.166797833200004, 0.8280015811830038),
        (6.629593370400011, 1.8745314588000033, 0.8413817838253073),
        (8.504124829200014, 1.6845760932000025, 0.8543688249455186),
        (10.188700922400017, 2.205597794400004, 0.8376528769208678),
    )

    def _run(self, small_gemstone, equations, small_profiles, cache_dir):
        gs = GemStone(replace(small_gemstone.config, cache_dir=str(cache_dir)))
        samples = runtime_power_trace(
            gs.gem5, small_profiles[2], SMALL_FREQS[1], equations, n_windows=6
        )
        return (
            tuple((s.start_seconds, s.duration_seconds, s.power_w) for s in samples),
            gs.executor.telemetry,
        )

    def test_samples_bit_identical(self, small_gemstone, equations,
                                   small_profiles, tmp_path):
        samples, _ = self._run(small_gemstone, equations, small_profiles, tmp_path)
        assert samples == self.PINNED

    def test_one_compile_serves_every_window(self, small_gemstone, equations,
                                            small_profiles, tmp_path,
                                            monkeypatch):
        """One compile finds the window bounds, and on the miss the
        executor replays that same compile for all six windows."""
        calls = _count_compiles(monkeypatch)
        _, telemetry = self._run(
            small_gemstone, equations, small_profiles, tmp_path
        )
        assert calls == [small_profiles[2].name] * 1
        assert telemetry.jobs_run == 6

    def test_second_run_on_the_cache_replays_nothing(
        self, small_gemstone, equations, small_profiles, tmp_path
    ):
        self._run(small_gemstone, equations, small_profiles, tmp_path)
        samples, telemetry = self._run(
            small_gemstone, equations, small_profiles, tmp_path
        )
        assert telemetry.jobs_run == 0
        assert telemetry.cache_hits == 6
        assert samples == self.PINNED
