import math
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import latentqubo as lq
import latentqubo._native as native
import latentqubo.samplers as samplers
from latentqubo._settings import ConfigError
from conftest import all_bit_vectors, needs_cc, random_fm, random_qubo


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

    @pytest.mark.parametrize("top_k", [0, -3, 2.5])
    def test_top_k_must_be_a_positive_integer(self, top_k):
        with pytest.raises(ValueError, match="top_k must be an integer >= 1"):
            lq.brute_force_sample(lq.QuboProblem(linear=[1.0, -1.0]), top_k)

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


def first_by_energy_then_bits(q: lq.QuboProblem, top_k: int):
    """The oracle: the first top_k of all 2^n states fully sorted by (energy, lexicographic bits)."""
    X = all_bit_vectors(q.n)
    energies = np.concatenate([lq.qubo_energy(q, X[s:s + 2**16]) for s in range(0, len(X), 2**16)])
    lexicographic = X @ (1 << np.arange(q.n)[::-1])  # x_0 is the most significant bit
    order = np.lexsort((lexicographic, energies))[:top_k]
    return "brute_force", 0, [(X[i].tolist(), energies[i], 1) for i in order]


def integer_qubo(rng: np.random.Generator, n: int) -> lq.QuboProblem:
    """Small integer coefficients, so many states tie."""
    return lq.QuboProblem(
        linear=rng.integers(-2, 3, n), quadratic=np.triu(rng.integers(-2, 3, (n, n)), 1), offset=1.0
    )


def fm_qubo(rng: np.random.Generator, n: int) -> lq.QuboProblem:
    return lq.fm_to_qubo(lq.FmModel(w0=0.5, w=rng.normal(0, 0.3, n), V=rng.normal(0, 0.3, (n, 8))))


class TestBruteForceScreen:
    """The compiled energy kernel against the numpy energy-loop fallback and a full sort."""

    def assert_paths_match_oracle(self, monkeypatch, q, top_ks):
        name, seed, ranked = first_by_energy_then_bits(q, max(top_ks))
        for top_k in top_ks:
            compiled = sample_set_contents(lq.brute_force_sample(q, top_k))
            with monkeypatch.context() as patched:
                patched.setattr(native, "library", lambda: None)
                fallback = sample_set_contents(lq.brute_force_sample(q, top_k))
            assert compiled == fallback == (name, seed, ranked[:top_k]), top_k

    @pytest.mark.parametrize("n", range(1, 21))
    def test_random_qubos(self, monkeypatch, n):
        # every state up to n=12; at n=17 a top_k beyond one chunk of 2^16 states;
        # from n=18 the fallback takes a second or more a call
        if n <= 12:
            top_ks = (1, 40, 1 << n, (1 << n) + 3)
        elif n == 17:
            top_ks = (1, 40, (1 << 16) + 3)
        else:
            top_ks = (1, 40) if n < 18 else (40,)
        self.assert_paths_match_oracle(monkeypatch, random_qubo(np.random.default_rng(n), n), top_ks)

    @pytest.mark.parametrize("n", [5, 16, 18])
    def test_fm_qubos(self, monkeypatch, n):
        # the top_k a fit_heavy loop asks for, from 1,240 to 1,440
        top_ks = (1, 40, 1 << n, (1 << n) + 3) if n == 5 else (1, 40, 1240, 1440)
        self.assert_paths_match_oracle(monkeypatch, fm_qubo(np.random.default_rng(n), n), top_ks)

    @pytest.mark.parametrize("n", [6, 12, 17])
    def test_states_tied_at_the_cut_are_taken_in_lexicographic_order(self, monkeypatch, n):
        q = integer_qubo(np.random.default_rng(30 + n), n)
        _, _, ranked = first_by_energy_then_bits(q, 1 << n)
        energies = [energy for _, energy, _ in ranked]
        cuts = [k for k in range(1, min(len(energies), 5000)) if energies[k - 1] == energies[k]]
        # ties at the first, a middling and the last cut below 5000 that falls inside one
        top_ks = (cuts[0], cuts[len(cuts) // 2], cuts[-1])
        assert all(energies[k - 1] == energies[k] for k in top_ks)
        self.assert_paths_match_oracle(monkeypatch, q, top_ks)

    @pytest.mark.parametrize("n", [16, 18])
    def test_coefficients_of_many_magnitudes(self, monkeypatch, n):
        # 1e8 on x_0 beside the 1e-8..1e-4 couplings that order the best states
        rng = np.random.default_rng(4)

        def tiny(*shape):
            return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, -4, shape)

        linear, upper = tiny(n), np.triu(tiny(n, n), 1)
        linear[0], linear[1], upper[0, 1] = 1e8, -1e4, 3.0
        q = lq.QuboProblem(linear=linear, quadratic=upper, offset=1e6)
        self.assert_paths_match_oracle(monkeypatch, q, (1, 40, 1240))

    @pytest.mark.parametrize("linear", [[-0.0, 1.5, -0.0, -2.0, -0.0, 0.25], [-1.0] * 6])
    def test_signed_zeros_agree_bit_for_bit(self, monkeypatch, linear):
        # -0.0 + -0.0 is -0.0, and the zero state's unset bits add 0 * -1.0 = -0.0
        # in the dense sum, so a sum that started at offset = -0.0 would keep its sign
        n = 6
        upper = np.triu(np.random.default_rng(2).choice([-0.0, 0.0, -1.5, 2.0], (n, n)), 1)
        q = lq.QuboProblem(linear=linear, quadratic=upper, offset=-0.0)
        X = all_bit_vectors(n)  # row s holds state s, x_i = bit i

        def by_state(ss):
            states = [entry.vector @ (1 << np.arange(n)) for entry in ss.entries]
            energies = np.empty(1 << n)
            energies[states] = [entry.energy for entry in ss.entries]
            return energies.view(np.uint64)

        direct = lq.qubo_energy(q, X).view(np.uint64)
        compiled = by_state(lq.brute_force_sample(q, 1 << n))
        with monkeypatch.context() as patched:
            patched.setattr(native, "library", lambda: None)
            fallback = by_state(lq.brute_force_sample(q, 1 << n))
        assert np.array_equal(direct, compiled)
        assert np.array_equal(direct, fallback)
        zero = np.float64(lq.qubo_energy(q, np.zeros(n, dtype=int))).view(np.uint64)
        assert zero == direct[0] == compiled[0] == fallback[0] == 0  # +0.0

    def test_memory_is_bounded_by_one_chunk(self):
        # an energy per state at n=20 alone would take 8 MB
        if native.library() is None:
            pytest.skip("the fallback scores each chunk's states as a float matrix")
        q = random_qubo(np.random.default_rng(0), 20)
        tracemalloc.start()
        try:
            lq.brute_force_sample(q, top_k=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


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
        for beta_end in (math.inf, math.nan):
            with pytest.raises(ValueError, match="beta_end"):
                lq.AnnealSchedule(beta_end=beta_end)
        with pytest.raises(ValueError, match="beta_start"):
            lq.AnnealSchedule(beta_start=math.inf, beta_end=math.inf)
        for name in ("num_sweeps", "num_reads"):
            for value in (2.5, 0, -1, "3"):
                with pytest.raises(ValueError, match=name):
                    lq.AnnealSchedule(**{name: value})
        assert lq.AnnealSchedule(num_sweeps=np.int64(3), num_reads=np.int64(2)).betas().size == 3

    def test_a_ramp_that_overflows_is_rejected(self):
        # finite ends whose ratio overflows: betas() would be [1e-300, inf, inf], and a zero-delta
        # step at beta = inf gives -inf * 0 = nan, which the kernel and the numpy loop read apart
        with pytest.raises(ConfigError, match="beta_end"):
            lq.AnnealSchedule(beta_start=1e-300, beta_end=1e300, num_sweeps=3)
        with pytest.raises(ConfigError, match="beta_end"):
            lq.AnnealSchedule(beta_start=1e-300, beta_end=1e300)
        with pytest.raises(ConfigError, match="beta_end"):
            lq.AnnealSchedule(beta_start=1e-8, beta_end=1.7e308, num_sweeps=2)
        # a single sweep stays at beta_start, and a wide ramp that does not overflow stays allowed
        assert lq.AnnealSchedule(beta_start=1e-300, beta_end=1e300, num_sweeps=1).betas().tolist() == [
            1e-300]
        for beta_start, beta_end in ((1e-150, 1e150), (1e-8, 1e300), (1.0, 1.7976931348623157e308)):
            assert np.isfinite(lq.AnnealSchedule(beta_start, beta_end, num_sweeps=7).betas()).all()


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

    @pytest.mark.parametrize("n, k, factored", [(16, 8, False), (32, 8, False), (33, 8, True),
                                                (5, 1, True), (4, 1, False)])
    def test_factors_are_used_above_four_bits_per_rank(self, monkeypatch, n, k, factored):
        forms = []
        numpy_loop = samplers._anneal_numpy
        monkeypatch.setattr(samplers, "_anneal_numpy",
                            lambda *args: forms.append(args[4] is not None) or numpy_loop(*args))
        monkeypatch.setattr(native, "library", lambda: None)
        model = random_fm(np.random.default_rng(n), n, k)
        lq.simulated_annealing_sample(lq.fm_to_qubo(model), lq.AnnealSchedule(num_sweeps=2), 0,
                                      factors=model.V)
        assert forms == [factored]

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
    def test_factors_below_the_crossover_change_nothing(self, monkeypatch, compiled):
        if not compiled:
            monkeypatch.setattr(native, "library", lambda: None)
        model = random_fm(np.random.default_rng(8), 16, 4)
        q = lq.fm_to_qubo(model)
        schedule = lq.AnnealSchedule(num_sweeps=100, num_reads=20)
        with_factors = lq.simulated_annealing_sample(q, schedule, 3, factors=model.V)
        assert sample_set_contents(with_factors) == sample_set_contents(
            lq.simulated_annealing_sample(q, schedule, 3))

    def test_factors_that_do_not_give_the_couplings_are_rejected(self):
        model = random_fm(np.random.default_rng(6), 40, 3)
        q = lq.fm_to_qubo(model)
        off_by_one_ulp = model.V.copy()
        off_by_one_ulp[7, 2] = np.nextafter(off_by_one_ulp[7, 2], np.inf)
        schedule = lq.AnnealSchedule(num_sweeps=2, num_reads=1)
        for bad in (off_by_one_ulp, model.V[:-1], model.V[:, :0], model.V[:, 0], 2.0 * model.V,
                    np.where(model.V == model.V[0, 0], np.nan, model.V)):
            with pytest.raises(ValueError, match="factors"):
                lq.simulated_annealing_sample(q, schedule, 0, factors=bad)

    def test_factored_reads_end_where_dense_reads_end(self):
        # the two fields round differently, so a read may part at a near-tie, but rarely
        same = total = 0
        for seed in range(3):
            model = random_fm(np.random.default_rng(seed), 180, 8)
            q = lq.fm_to_qubo(model)
            finals = [annealed_reads(q, lq.AnnealSchedule(num_sweeps=100, num_reads=48), seed, V)
                      for V in (None, model.V)]
            same += int(np.all(finals[0] == finals[1], axis=1).sum())
            total += len(finals[0])
        assert same >= 0.95 * total

    @needs_cc
    def test_kernel_loads_where_a_compiler_is_found(self):
        assert native.library() is not None

    def test_without_compiler_the_numpy_loop_runs(self, monkeypatch, request):
        q = random_qubo(np.random.default_rng(9), 16)
        schedule = lq.AnnealSchedule(num_sweeps=200)
        compiled = lq.simulated_annealing_sample(q, schedule, seed=4)
        calls = []
        numpy_loop = samplers._anneal_numpy
        monkeypatch.setattr(
            samplers, "_anneal_numpy", lambda *args: calls.append(1) or numpy_loop(*args)
        )
        request.getfixturevalue("fresh_build")  # forget the library that ran `compiled`
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        looped = lq.simulated_annealing_sample(q, schedule, seed=4)
        assert native.library() is None
        assert calls == [1]
        assert sample_set_contents(looped) == sample_set_contents(compiled)

    def test_same_result_on_any_number_of_cores(self, cores, monkeypatch):
        # 40 reads make 3 blocks on any number of cores, run by 1, 2, 3 and 3 threads
        q = random_qubo(np.random.default_rng(140), 40)
        schedule = lq.AnnealSchedule(num_sweeps=150, num_reads=40)
        results, threads = [], []
        lib = native.library()
        for count in (1, 2, 3, 8):
            cores(count)
            recorder = BlockThreads(lib, pause=0.1)
            monkeypatch.setattr(native, "library", lambda: lib and recorder)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
            try:
                results.append(sample_set_contents(lq.simulated_annealing_sample(q, schedule, 7)))
            finally:
                sys.setswitchinterval(interval)
            threads.append(len(set(recorder.threads)))
        monkeypatch.setattr(native, "library", lambda: None)
        looped = sample_set_contents(lq.simulated_annealing_sample(q, schedule, 7))
        assert results == [looped] * 4
        assert threads == ([1, 2, 3, 3] if lib else [0] * 4)

    @needs_cc
    def test_calls_after_the_first_start_no_thread(self, cores, monkeypatch):
        cores(2)
        q = random_qubo(np.random.default_rng(142), 40)
        schedule = lq.AnnealSchedule(num_sweeps=20, num_reads=40)
        lib = native.library()
        first = BlockThreads(lib, pause=0.1)  # a block holds its thread, so the next needs another
        monkeypatch.setattr(native, "library", lambda: first)
        lq.simulated_annealing_sample(q, schedule, seed=0)
        assert len(set(first.threads)) == 2
        count, started = threading.active_count(), []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        recorder = BlockThreads(lib)
        monkeypatch.setattr(native, "library", lambda: recorder)
        for seed in range(1, 21):
            lq.simulated_annealing_sample(q, schedule, seed)
        assert started == [] and threading.active_count() == count
        # 60 blocks on the same two threads, neither of them this one
        assert len(recorder.threads) == 60
        assert len(set(recorder.threads)) <= 2
        assert threading.current_thread() not in recorder.threads

    @needs_cc
    def test_a_thread_that_fails_to_start_leaves_none_waiting(self, cores, monkeypatch):
        # the first block holds the one thread that starts, so the second block's thread is
        # needed, and fails to start; the next call anneals the same reads, that thread included
        cores(2)
        start, started = threading.Thread.start, []

        def start_one(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_one)
        lib = native.library()
        failing = BlockThreads(lib, pause=0.1)
        monkeypatch.setattr(native, "library", lambda: failing)
        q = random_qubo(np.random.default_rng(145), 40)
        schedule = lq.AnnealSchedule(num_sweeps=20, num_reads=40)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            lq.simulated_annealing_sample(q, schedule, seed=0)
        monkeypatch.setattr(threading.Thread, "start", start)
        recorder = BlockThreads(lib, pause=0.1)
        monkeypatch.setattr(native, "library", lambda: recorder)
        expected = sample_set_contents(lq.simulated_annealing_sample(q, schedule, seed=0))
        assert started[0] in recorder.threads and len(recorder.threads) == 3
        monkeypatch.setattr(native, "library", lambda: None)
        assert sample_set_contents(lq.simulated_annealing_sample(q, schedule, seed=0)) == expected

    @needs_cc
    def test_concurrent_calls_share_the_threads(self, cores):
        # a dense and a factored caller, 5 calls of 3 blocks each, at the same time, on four
        # annealing threads whatever the core count
        cores(4)
        model = random_fm(np.random.default_rng(143), 40, 4)
        q, schedule = lq.fm_to_qubo(model), lq.AnnealSchedule(num_sweeps=100, num_reads=40)
        callers = [lambda seed: lq.simulated_annealing_sample(q, schedule, seed),
                   lambda seed: lq.simulated_annealing_sample(q, schedule, seed, factors=model.V)]
        serial = [[sample_set_contents(call(seed)) for seed in range(5)] for call in callers]
        ready, results = threading.Barrier(2, timeout=60), [None, None]

        def run(i):
            ready.wait()
            results[i] = [sample_set_contents(callers[i](seed)) for seed in range(5)]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial

    @needs_cc
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="fork is POSIX only")
    def test_a_forked_child_anneals_on_threads_of_its_own(self, cores):
        # the parent's executor threads do not exist in the child; a child that handed its
        # blocks to them would wait for ever
        cores(2)
        q = random_qubo(np.random.default_rng(144), 40)
        schedule = lq.AnnealSchedule(num_sweeps=150, num_reads=40)
        expected = sample_set_contents(lq.simulated_annealing_sample(q, schedule, seed=7))
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                child = sample_set_contents(lq.simulated_annealing_sample(q, schedule, seed=7))
                os.write(write, b"same" if child == expected else b"differs")
            finally:
                os._exit(0)
        os.close(write)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG)[0]) == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        answer = os.read(read, 16)
        os.close(read)
        assert (done, answer) == (pid, b"same")

    def test_memory_is_bounded_by_one_read(self, cores):
        # the draws of 100 reads x 200 sweeps x 180 bits alone would take 29 MB; the
        # kernel draws none, and on 64 cores the executor holds four blocks' masks at once
        if native.library() is None:
            pytest.skip("no compiled kernel")
        cores(64)
        assert traced_peak(180, lq.AnnealSchedule(num_sweeps=200, num_reads=100)) < 1.25 * 2**20

    def test_numpy_loop_memory_is_bounded_by_one_sweep(self, monkeypatch):
        # the draws of 100 reads x 20 sweeps x 180 bits would take 2.9 MB; the loop
        # holds one sweep's, 144 kB
        monkeypatch.setattr(native, "library", lambda: None)
        assert traced_peak(180, lq.AnnealSchedule(num_sweeps=20, num_reads=100)) < 1.25 * 2**20


class BlockThreads:
    """A loaded library that records the thread of each anneal_block call.

    Each call first sleeps for ``pause`` seconds, so that while one thread holds a block,
    every waiting block goes to another idle thread.
    """

    def __init__(self, lib, pause: float = 0.0):
        self.lib, self.pause, self.threads = lib, pause, []

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def anneal_block(self, *args):
        self.threads.append(threading.current_thread())
        time.sleep(self.pause)
        self.lib.anneal_block(*args)


def annealed_reads(q: lq.QuboProblem, schedule: lq.AnnealSchedule, seed: int, V) -> np.ndarray:
    """Every read's final state in read order, as the sampler anneals them, dense or through V."""
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(schedule.num_reads)]
    x = np.array([rng.integers(0, 2, q.n) for rng in rngs], dtype=np.float64)
    lib = native.library()
    if lib is None:
        samplers._anneal_numpy(q, schedule.betas(), rngs, x, V)
    else:
        samplers._anneal_blocks(lib, q, schedule.betas(), rngs, x, V)
    return x


def traced_peak(n: int, schedule: lq.AnnealSchedule) -> int:
    """The traced peak memory of one annealing call on a random QUBO, in bytes."""
    q = random_qubo(np.random.default_rng(0), n)
    tracemalloc.start()
    try:
        lq.simulated_annealing_sample(q, schedule, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_anneal(q: lq.QuboProblem, schedule: lq.AnnealSchedule, seed: int):
    """Every read's final state, annealed one step at a time in plain Python."""
    coupling = (q.upper + q.upper.T).tolist()
    finals = []
    for stream in np.random.SeedSequence(seed).spawn(schedule.num_reads):
        rng = np.random.default_rng(stream)
        x = rng.integers(0, 2, q.n).tolist()
        uniforms = rng.random((schedule.num_sweeps, q.n)).tolist()
        for beta, sweep in zip(schedule.betas().tolist(), uniforms):
            for i in range(q.n):
                field = 0.0
                for j in range(q.n):
                    if x[j]:
                        field += coupling[i][j]
                delta = (1 - 2 * x[i]) * (float(q.linear[i]) + field)
                if sweep[i] < math.exp(min(0.0, -beta * delta)):
                    x[i] = 1 - x[i]
        finals.append(tuple(x))
    return finals


def reference_factored_anneal(model: lq.FmModel, schedule: lq.AnnealSchedule, seed: int):
    """Every read's final state, annealed through the FM's factors one step at a time in plain Python.

    Each read keeps s = V^T x, summed over the bits in index order; bit i's field is the
    sum over f in index order of V[i, f] s[f], less |v_i|^2 where x[i] is set, and a
    flip adds V[i, f] to s[f] where it sets the bit and subtracts it where it clears it.
    """
    V, linear = model.V.tolist(), model.w.tolist()
    norms = []
    for row in V:
        norm = 0.0
        for v in row:
            norm += v * v
        norms.append(norm)
    finals = []
    for stream in np.random.SeedSequence(seed).spawn(schedule.num_reads):
        rng = np.random.default_rng(stream)
        x = rng.integers(0, 2, model.n).tolist()
        uniforms = rng.random((schedule.num_sweeps, model.n)).tolist()
        s = [0.0] * model.k
        for j in range(model.n):
            if x[j]:
                s = [s_f + v for s_f, v in zip(s, V[j])]
        for beta, sweep in zip(schedule.betas().tolist(), uniforms):
            for i in range(model.n):
                dot = 0.0
                for v, s_f in zip(V[i], s):
                    dot += v * s_f
                field = dot - norms[i] if x[i] else dot
                delta = (1 - 2 * x[i]) * (linear[i] + field)
                if sweep[i] < math.exp(min(0.0, -beta * delta)):
                    x[i] = 1 - x[i]
                    s = [s_f + v if x[i] else s_f - v for s_f, v in zip(s, V[i])]
        finals.append(tuple(x))
    return finals


class TestAnnealReference:
    """Both paths against a pure-Python annealer that pins the visiting order and the draws."""

    CASES = [
        (3, lq.AnnealSchedule(beta_start=0.1, beta_end=0.5, num_sweeps=2, num_reads=2)),
        (4, lq.AnnealSchedule(beta_start=0.2, beta_end=2.0, num_sweeps=3, num_reads=3)),
        (5, lq.AnnealSchedule(beta_start=0.1, beta_end=1.0, num_sweeps=4, num_reads=3)),
        (5, lq.AnnealSchedule(beta_start=0.5, beta_end=5.0, num_sweeps=5, num_reads=2)),
    ]

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
    @pytest.mark.parametrize("n, schedule", CASES)
    def test_same_reads_as_reference(self, monkeypatch, compiled, n, schedule):
        if not compiled:
            monkeypatch.setattr(native, "library", lambda: None)
        elif native.library() is None:
            pytest.skip("no compiled kernel")
        q = random_qubo(np.random.default_rng(500 + n), n)
        finals = reference_anneal(q, schedule, seed=n)
        ss = lq.simulated_annealing_sample(q, schedule, seed=n)
        got = {tuple(e.vector.tolist()): e.occurrences for e in ss.entries}
        assert got == {state: finals.count(state) for state in finals}

    # FMs of more than four bits per rank, which anneal through their factors
    FACTORED_CASES = [
        (5, 1, lq.AnnealSchedule(beta_start=0.1, beta_end=0.5, num_sweeps=2, num_reads=3)),
        (9, 2, lq.AnnealSchedule(beta_start=0.2, beta_end=2.0, num_sweeps=3, num_reads=3)),
        (13, 3, lq.AnnealSchedule(beta_start=0.5, beta_end=5.0, num_sweeps=4, num_reads=2)),
    ]

    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
    @pytest.mark.parametrize("n, k, schedule", FACTORED_CASES)
    def test_factored_same_reads_as_reference(self, monkeypatch, compiled, n, k, schedule):
        if not compiled:
            monkeypatch.setattr(native, "library", lambda: None)
        elif native.library() is None:
            pytest.skip("no compiled kernel")
        model = random_fm(np.random.default_rng(600 + n), n, k)
        finals = reference_factored_anneal(model, schedule, seed=n)
        ss = lq.simulated_annealing_sample(lq.fm_to_qubo(model), schedule, seed=n, factors=model.V)
        got = {tuple(e.vector.tolist()): e.occurrences for e in ss.entries}
        assert got == {state: finals.count(state) for state in finals}


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
