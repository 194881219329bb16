"""Subgroup sampling, the commutation contract, and the seeded RNG."""

import pytest

from conftest import commutes, rng_from
from twincsp import (
    BraidWord,
    GroupParams,
    SeededRng,
    SubgroupSide,
    default_params,
    sample_subgroup,
)


class TestSeededRng:
    def test_seed_length_enforced(self):
        with pytest.raises(ValueError):
            SeededRng(b"short")

    def test_hex_round_trip(self):
        seed = bytes(range(32))
        assert SeededRng.from_hex(seed.hex()).rand_bytes(8) == SeededRng(seed).rand_bytes(8)

    def test_bad_hex_length(self):
        with pytest.raises(ValueError):
            SeededRng.from_hex("ab" * 16)

    def test_determinism(self):
        a, b = rng_from(5), rng_from(5)
        assert [a.rand_below(1000) for _ in range(50)] == [b.rand_below(1000) for _ in range(50)]

    def test_rand_below_bounds(self):
        rng = rng_from(6)
        for m in (1, 2, 7, 255, 1 << 20):
            for _ in range(30):
                assert 0 <= rng.rand_below(m) < m

    def test_rand_below_range_is_what_four_bytes_cover(self):
        # m = 2**32 takes one 4-byte draw as it is; a larger m would reject
        # every draw, so it is refused rather than looping forever
        assert rng_from(9).rand_below(2**32) == int.from_bytes(rng_from(9).rand_bytes(4), "big")
        for m in (0, -1, 2**32 + 1, 2**40):
            with pytest.raises(ValueError):
                rng_from(9).rand_below(m)

    def test_fork_streams_differ(self):
        rng = rng_from(7)
        assert rng.fork("a").rand_bytes(16) != rng.fork("b").rand_bytes(16)

    def test_fork_is_deterministic(self):
        assert rng_from(7).fork("x").rand_bytes(16) == rng_from(7).fork("x").rand_bytes(16)

    def test_sign_values(self):
        rng = rng_from(8)
        signs = {rng.rand_sign() for _ in range(64)}
        assert signs == {1, -1}


class TestGroupParams:
    def test_defaults(self):
        p = default_params()
        assert p.n == 16 and p.l == 8 and p.r == 8 and p.W == 16
        assert any(abs(v) == p.l for v in p.g.letters)  # g straddles the split

    def test_subgroup_size_floor(self):
        g = BraidWord(4, (1,))
        with pytest.raises(ValueError):
            GroupParams(1, 3, g, 16)
        with pytest.raises(ValueError):
            GroupParams(3, 1, g, 16)

    def test_base_element_strand_check(self):
        with pytest.raises(ValueError):
            GroupParams(2, 2, BraidWord(5, (1,)), 16)

    def test_bad_sample_length(self):
        with pytest.raises(ValueError):
            GroupParams(2, 2, BraidWord(4, (1,)), 0)


class TestSampling:
    def test_left_membership(self, params):
        rng = rng_from(20)
        for _ in range(50):
            word = sample_subgroup(params, SubgroupSide.LEFT, rng)
            assert all(1 <= abs(v) <= params.l - 1 for v in word.letters)

    def test_right_membership(self, params):
        rng = rng_from(21)
        for _ in range(50):
            word = sample_subgroup(params, SubgroupSide.RIGHT, rng)
            assert all(params.l + 1 <= abs(v) <= params.n - 1 for v in word.letters)

    def test_length_is_W_before_reduction(self, params):
        rng = rng_from(22)
        for _ in range(50):
            assert len(sample_subgroup(params, SubgroupSide.LEFT, rng)) <= params.W

    def test_minimal_left_subgroup_uses_single_generator(self):
        p = default_params(l=2, r=2)
        rng = rng_from(23)
        word = sample_subgroup(p, SubgroupSide.LEFT, rng)
        assert all(abs(v) == 1 for v in word.letters)

    def test_reproducible(self, params):
        a = sample_subgroup(params, SubgroupSide.LEFT, rng_from(24))
        b = sample_subgroup(params, SubgroupSide.LEFT, rng_from(24))
        assert a.letters == b.letters

    def test_samples_vary_across_draws(self, params):
        rng = rng_from(25)
        words = {sample_subgroup(params, SubgroupSide.LEFT, rng).letters for _ in range(20)}
        assert len(words) > 1


class TestCommutation:
    def test_identity_commutes(self, params):
        rng = rng_from(26)
        x = sample_subgroup(params, SubgroupSide.LEFT, rng)
        assert commutes(x, BraidWord(params.n, ()))

    def test_far_generators(self):
        assert commutes(BraidWord(4, (1,)), BraidWord(4, (3,)))

    def test_adjacent_generators_do_not_commute(self):
        assert not commutes(BraidWord(3, (1,)), BraidWord(3, (2,)))

    def test_cross_subgroup_commutation(self, params):
        rng = rng_from(27)
        for _ in range(100):
            x = sample_subgroup(params, SubgroupSide.LEFT, rng)
            y = sample_subgroup(params, SubgroupSide.RIGHT, rng)
            assert commutes(x, y)

    def test_same_side_elements_need_not_commute(self, params):
        # witnesses that LEFT is genuinely nonabelian at l = 8
        a = BraidWord(params.n, (1, 2))
        b = BraidWord(params.n, (2, 1))
        assert not commutes(BraidWord(params.n, (1,)), BraidWord(params.n, (2,)))
        assert commutes(a, a)
        assert not commutes(a, b)
