from itertools import combinations_with_replacement

import numpy as np
import pytest

from hpdstensor.benchmarks import (SCHEMES, _symmetric_dense, gen_instance,
                                   memory_report, timing_report)
from hpdstensor.errors import ArgumentError, ScaleError
from hpdstensor.hier_tucker import htd_param_count, htd_reconstruct
from hpdstensor.randomness import generator
from hpdstensor.tensor_train import tt_param_count, tt_reconstruct


def symmetric_dense_loop(n, k, seed):
    """Reference: one draw per multiset, then a loop over every entry."""
    g = generator(seed)
    values = {multiset: g.random() * 2.0 - 1.0
              for multiset in combinations_with_replacement(range(n), k)}
    tensor = np.zeros((n,) * k)
    for idx in np.ndindex(*tensor.shape):
        tensor[idx] = values[tuple(sorted(idx))]
    return tensor


class TestGenInstance:
    # the symmetric instances the benchmark draws, plus edge sizes
    @pytest.mark.parametrize("n,k", [(5, 7), (3, 10), (3, 8), (4, 7), (5, 6),
                                     (8, 4), (3, 9), (5, 3), (7, 3), (1, 4),
                                     (2, 2), (300, 2)])
    def test_symmetric_dense_matches_the_loop_bitwise(self, n, k):
        for seed in (0, 11):
            want = symmetric_dense_loop(n, k, seed)
            got = _symmetric_dense(n, k, seed)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_round_trip_decompositions(self, scheme):
        inst = gen_instance(scheme, 2, 5, rank_cap=2, seed=1)
        norm = np.linalg.norm(inst.dense)
        assert np.linalg.norm(tt_reconstruct(inst.tt) - inst.dense) <= 1e-9 * norm
        assert np.linalg.norm(htd_reconstruct(inst.ht) - inst.dense) <= 1e-9 * norm

    def test_symmetric_scheme_fully_symmetric(self):
        inst = gen_instance("symmetric", 2, 4, seed=2)
        t = inst.dense
        assert np.allclose(t, np.transpose(t, (3, 2, 1, 0)))
        assert np.allclose(t, np.transpose(t, (1, 0, 2, 3)))

    def test_low_tt_rank_cap_one_is_separable(self):
        inst = gen_instance("low_tt", 3, 4, rank_cap=1, seed=3)
        assert max(inst.tt.ranks) == 1

    def test_low_schemes_respect_cap(self):
        inst = gen_instance("low_tt", 2, 6, rank_cap=2, seed=4)
        assert max(inst.tt.ranks) <= 2
        inst = gen_instance("low_ht", 2, 6, rank_cap=2, seed=5)
        assert inst.ht.max_rank() <= 4  # tt-side ranks of an ht tensor may double

    def test_deterministic_per_seed(self):
        a = gen_instance("low_tt", 2, 4, seed=9)
        b = gen_instance("low_tt", 2, 4, seed=9)
        assert np.array_equal(a.dense, b.dense)
        c = gen_instance("low_tt", 2, 4, seed=10)
        assert not np.array_equal(a.dense, c.dense)

    def test_scale_guard(self):
        with pytest.raises(ScaleError):
            gen_instance("symmetric", 10, 8, seed=0)

    def test_unknown_scheme(self):
        with pytest.raises(ArgumentError):
            gen_instance("dense", 2, 3)


class TestMemoryReport:
    def test_full_count_is_power(self):
        recs = memory_report(2, [5, 10], schemes=("symmetric",), seed=0)
        full = {r.k: r.params for r in recs if r.repr == "full"}
        assert full == {5: 32, 10: 1024}

    def test_params_match_representation_counts(self):
        recs = memory_report(2, [6], schemes=("low_tt",), rank_cap=2, seed=1)
        by_repr = {r.repr: r for r in recs}
        inst = gen_instance("low_tt", 2, 6, rank_cap=2, seed=1)
        assert by_repr["tt"].params == tt_param_count(inst.tt)
        assert by_repr["ht"].params == htd_param_count(inst.ht)
        assert by_repr["full"].params == 64

    def test_low_tt_savings_at_k10(self):
        recs = memory_report(2, [10], schemes=("low_tt",), rank_cap=2, seed=2)
        by_repr = {r.repr: r.params for r in recs}
        assert by_repr["tt"] <= 80 < by_repr["full"]

    def test_every_scheme_and_k_has_three_rows(self):
        recs = memory_report(2, [4, 5], seed=3)
        assert len(recs) == len(SCHEMES) * 2 * 3


class TestTimingReport:
    def test_ranks_agree_and_rows_present(self):
        recs = timing_report([4], [4], schemes=("low_tt",), m=2, rank_cap=2,
                             seed=0, repeats=2)
        assert {r.repr for r in recs} == {"full", "tt", "ht"}
        assert len({r.rank for r in recs}) == 1
        assert all(r.elapsed_ms >= 0 for r in recs)

    def test_low_tt_faster_than_full_at_desk_scale(self):
        recs = timing_report([5], [6], schemes=("low_tt",), m=5, rank_cap=2,
                             seed=0, repeats=3)
        time_of = {r.repr: r.elapsed_ms for r in recs}
        assert time_of["tt"] < time_of["full"]

    def test_median_stability_between_repeat_counts(self):
        one = timing_report([4], [5], schemes=("low_tt",), m=3, seed=1,
                            repeats=1)
        five = timing_report([4], [5], schemes=("low_tt",), m=3, seed=1,
                             repeats=5)
        t1 = {r.repr: r.elapsed_ms for r in one}
        t5 = {r.repr: r.elapsed_ms for r in five}
        for name in t1:
            assert abs(t1[name] - t5[name]) <= 0.5 * max(t1[name], t5[name]) \
                or max(t1[name], t5[name]) < 1.0  # sub-ms noise floor

    def test_bad_repeats(self):
        with pytest.raises(ArgumentError):
            timing_report([2], [3], repeats=0)
