import shutil
import sys
import tracemalloc

import numpy as np
import pytest

import latentqubo as lq
import latentqubo._native as native
import latentqubo.samplers as samplers
from conftest import all_bit_vectors, random_qubo


class TestBruteForce:
    def test_worked_example(self):
        q = lq.QuboProblem(linear=[1, -1], quadratic={(0, 1): 6.0}, offset=0.5)
        best = lq.brute_force_sample(q, top_k=1).best()
        assert best.vector.tolist() == [0, 1]
        assert best.energy == -0.5

    def test_single_negative_bias(self):
        best = lq.brute_force_sample(lq.QuboProblem(linear=[-1.0]), top_k=1).best()
        assert best.vector.tolist() == [1]
        assert best.energy == -1.0

    def test_flat_landscape_returns_all_states(self):
        ss = lq.brute_force_sample(lq.QuboProblem(linear=[0.0, 0.0]), top_k=4)
        assert len(ss.entries) == 4
        assert all(e.energy == 0.0 for e in ss.entries)
        # lexicographic tie-break
        assert [e.vector.tolist() for e in ss.entries] == [
            [0, 0], [0, 1], [1, 0], [1, 1],
        ]

    def test_top_k_sorted_and_exact(self):
        rng = np.random.default_rng(3)
        q = random_qubo(rng, 8)
        ss = lq.brute_force_sample(q, top_k=10)
        energies = [e.energy for e in ss.entries]
        assert energies == sorted(energies)
        truth = sorted(lq.qubo_energy(q, x) for x in all_bit_vectors(8))
        assert energies == pytest.approx(truth[:10], abs=1e-9)

    def test_cap_enforced_and_named(self):
        q = lq.QuboProblem(linear=np.zeros(30))
        with pytest.raises(ValueError, match="24"):
            lq.brute_force_sample(q, top_k=1)

    def test_chunked_enumeration_matches_small(self):
        # n above the chunk width exercises the streaming top-k merge
        rng = np.random.default_rng(5)
        q = random_qubo(rng, 17, density=0.3)
        ss = lq.brute_force_sample(q, top_k=3)
        for entry in ss.entries:
            assert lq.qubo_energy(q, entry.vector) == pytest.approx(entry.energy, abs=1e-9)


class TestAnnealSchedule:
    def test_geometric_endpoints(self):
        betas = lq.AnnealSchedule(beta_start=0.1, beta_end=10.0, num_sweeps=5).betas()
        assert betas[0] == pytest.approx(0.1)
        assert betas[-1] == pytest.approx(10.0)
        ratios = betas[1:] / betas[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_single_sweep_stays_at_start(self):
        betas = lq.AnnealSchedule(num_sweeps=1).betas()
        assert betas.tolist() == [0.1]

    def test_validation(self):
        with pytest.raises(ValueError, match="beta_start"):
            lq.AnnealSchedule(beta_start=0.0)
        with pytest.raises(ValueError, match="beta_end"):
            lq.AnnealSchedule(beta_start=1.0, beta_end=0.5)
        with pytest.raises(ValueError, match=">= 1"):
            lq.AnnealSchedule(num_sweeps=0)


class TestSimulatedAnnealing:
    def test_toy_matches_brute_force(self):
        q = lq.QuboProblem(linear=[1, -1], quadratic={(0, 1): 6.0}, offset=0.5)
        best = lq.simulated_annealing_sample(q, lq.AnnealSchedule(), seed=0).best()
        assert best.vector.tolist() == [0, 1]
        assert best.energy == pytest.approx(-0.5)

    def test_single_negative_bias(self):
        best = lq.simulated_annealing_sample(
            lq.QuboProblem(linear=[-1.0]), lq.AnnealSchedule(num_sweeps=50), seed=0
        ).best()
        assert best.vector.tolist() == [1]
        assert best.energy == pytest.approx(-1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_oracle_agreement_n12(self, seed):
        rng = np.random.default_rng(1000 + seed)
        q = random_qubo(rng, 12)
        truth = lq.brute_force_sample(q, top_k=1).best().energy
        best = lq.simulated_annealing_sample(q, lq.AnnealSchedule(), seed=seed).best()
        assert best.energy == pytest.approx(truth, abs=1e-9)

    def test_deterministic_and_serializable(self, tmp_path):
        rng = np.random.default_rng(77)
        q = random_qubo(rng, 10)
        a = lq.simulated_annealing_sample(q, lq.AnnealSchedule(num_sweeps=200), seed=5)
        b = lq.simulated_annealing_sample(q, lq.AnnealSchedule(num_sweeps=200), seed=5)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_csv(pa)
        b.write_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_stored_energies_revalidate(self):
        rng = np.random.default_rng(8)
        q = random_qubo(rng, 10)
        ss = lq.simulated_annealing_sample(q, lq.AnnealSchedule(num_sweeps=100), seed=2)
        occurrences = 0
        for entry in ss.entries:
            assert lq.qubo_energy(q, entry.vector) == pytest.approx(entry.energy, abs=1e-9)
            occurrences += entry.occurrences
        assert occurrences == 20  # default read count, dedup aggregates

    def test_entries_sorted_by_energy(self):
        rng = np.random.default_rng(13)
        q = random_qubo(rng, 10)
        ss = lq.simulated_annealing_sample(q, lq.AnnealSchedule(num_sweeps=100), seed=2)
        energies = [e.energy for e in ss.entries]
        assert energies == sorted(energies)


def sample_set_contents(ss: lq.SampleSet):
    """Everything a SampleSet holds, in order, as comparable values."""
    entries = [(e.vector.tolist(), e.energy, e.occurrences) for e in ss.entries]
    return ss.sampler_name, ss.seed, entries


class TestAnnealKernel:
    """The compiled sweep against the numpy loop it replaces."""

    # (n, schedule): random QUBOs at each size, one-sweep and one-read schedules among them.
    # At 63, 64, 65 and 130 bits the last word of the kernel's bitmask is
    # partial, full, holds one bit, and holds two bits.
    CASES = [
        (1, lq.AnnealSchedule()),
        (2, lq.AnnealSchedule(num_sweeps=50, num_reads=1)),
        (16, lq.AnnealSchedule()),
        (16, lq.AnnealSchedule(num_sweeps=1)),
        (16, lq.AnnealSchedule(beta_end=1000.0, num_sweeps=300, num_reads=7)),
        (40, lq.AnnealSchedule(num_sweeps=100, num_reads=9)),
        (180, lq.AnnealSchedule(num_sweeps=25, num_reads=4)),
        (180, lq.AnnealSchedule(num_sweeps=1, num_reads=1)),
        (63, lq.AnnealSchedule(num_sweeps=30, num_reads=5)),
        (64, lq.AnnealSchedule(num_sweeps=30, num_reads=5)),
        (65, lq.AnnealSchedule(num_sweeps=30, num_reads=5)),
        (130, lq.AnnealSchedule(num_sweeps=20, num_reads=3)),
    ]

    @pytest.mark.parametrize("n, schedule", CASES)
    def test_same_sample_set_as_numpy_loop(self, monkeypatch, n, schedule):
        q = random_qubo(np.random.default_rng(100 + n), n)
        compiled = lq.simulated_annealing_sample(q, schedule, seed=n)
        monkeypatch.setattr(native, "library", lambda: None)
        looped = lq.simulated_annealing_sample(q, schedule, seed=n)
        assert sample_set_contents(compiled) == sample_set_contents(looped)

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_kernel_loads_where_a_compiler_is_found(self):
        assert native.library() is not None

    def test_without_compiler_the_numpy_loop_runs(self, monkeypatch, tmp_path):
        q = random_qubo(np.random.default_rng(9), 16)
        schedule = lq.AnnealSchedule(num_sweeps=200)
        compiled = lq.simulated_annealing_sample(q, schedule, seed=4)
        calls = []
        numpy_loop = samplers._anneal_numpy
        monkeypatch.setattr(
            samplers, "_anneal_numpy", lambda *args: calls.append(1) or numpy_loop(*args)
        )
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        monkeypatch.setattr(native, "_CACHE_DIR", tmp_path)
        native.library.cache_clear()
        try:
            looped = lq.simulated_annealing_sample(q, schedule, seed=4)
            assert native.library() is None
        finally:
            native.library.cache_clear()
        assert calls == [1]
        assert sample_set_contents(looped) == sample_set_contents(compiled)

    def test_same_result_on_any_number_of_cores(self, monkeypatch):
        q = random_qubo(np.random.default_rng(140), 40)
        schedule = lq.AnnealSchedule(num_sweeps=300, num_reads=9)
        results = []
        for cores in (1, 8):
            monkeypatch.setattr(samplers, "_cores", lambda: cores)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
            try:
                results.append(sample_set_contents(lq.simulated_annealing_sample(q, schedule, 7)))
            finally:
                sys.setswitchinterval(interval)
        monkeypatch.setattr(native, "library", lambda: None)
        looped = sample_set_contents(lq.simulated_annealing_sample(q, schedule, 7))
        assert results == [looped, looped]

    def test_memory_is_bounded_by_one_read(self, monkeypatch):
        # the draws of 100 reads x 200 sweeps x 180 bits alone would take 58 MB;
        # on 64 cores the pool still holds at most four reads' draws at once
        if native.library() is None:
            pytest.skip("the numpy loop holds every read's draws at once")
        monkeypatch.setattr(samplers, "_cores", lambda: 64)
        q = random_qubo(np.random.default_rng(0), 180)
        schedule = lq.AnnealSchedule(num_sweeps=200, num_reads=100)
        tracemalloc.start()
        try:
            lq.simulated_annealing_sample(q, schedule, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSampleSetCsv:
    def test_header_and_ranks(self, tmp_path):
        q = lq.QuboProblem(linear=[0.0, 0.0])
        ss = lq.brute_force_sample(q, top_k=3)
        path = tmp_path / "samples.csv"
        ss.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "rank,energy,occurrences,bits"
        assert lines[1].startswith("0,")
        assert lines[1].endswith(",00")
        assert lines[3].startswith("2,")
