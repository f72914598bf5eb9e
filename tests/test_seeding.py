"""The bulk seed sequence against numpy's own ``SeedSequence`` and
``default_rng``, which serve as the reference here and nowhere in the package."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from granger_lab import datagen
from granger_lab.cli import main
from granger_lab.seeding import derive_seeds, generator_states, state_generator

#: Integers of one, two, three and four 32-bit words.
INTEGERS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                     st.integers(2**64, 2**96 - 1), st.integers(2**96, 2**128 - 1))
#: Stream prefixes: a master seed and a key of up to five integers.
PREFIXES = st.lists(INTEGERS, min_size=1, max_size=6).map(tuple)
#: Iteration indices, including index 0 and indices of two words.
STARTS = st.one_of(st.just(0), st.integers(0, 2**16), st.integers(2**32 - 3, 2**33))


def _reference_seed(entropy):
    high, low = np.random.SeedSequence(entropy).generate_state(2, np.uint32)
    return int(high) << 32 | int(low)


def _reference_state(seed):
    return np.random.SeedSequence(int(seed)).generate_state(4, np.uint64)


class TestDeriveSeeds:
    @settings(max_examples=80, deadline=None)
    @given(streams=st.lists(st.tuples(PREFIXES, STARTS, st.integers(0, 4)),
                            min_size=1, max_size=5))
    def test_matches_seed_sequence(self, streams):
        streams = [(prefix, start, start + count) for prefix, start, count in streams]
        expected = [_reference_seed([*prefix, i])
                    for prefix, start, stop in streams for i in range(start, stop)]
        assert derive_seeds(streams).tolist() == expected

    def test_index_zero_and_wide_masters(self):
        for master in (0, 7, 2**32, 2**64 + 5, 2**70):
            for key in ((), (3,), (2**40, 0)):
                [seed] = derive_seeds([((master, *key), 0, 1)])
                assert int(seed) == _reference_seed([master, *key, 0])

    def test_negative_entropy_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            derive_seeds([((-1,), 0, 3)])
        with pytest.raises(ValueError, match="non-negative"):
            generator_states([-1])


class TestGeneratorStates:
    @settings(max_examples=60, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    def test_uint64_seeds_match_seed_sequence(self, seeds):
        states = generator_states(np.array(seeds, dtype=np.uint64))
        assert states.dtype == np.uint64 and states.shape == (len(seeds), 4)
        for seed, state in zip(seeds, states):
            np.testing.assert_array_equal(state, _reference_state(seed))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.one_of(INTEGERS, st.integers(2**128, 2**200)))
    def test_draws_match_default_rng(self, seed):
        [state] = generator_states([seed])
        np.testing.assert_array_equal(state, _reference_state(seed))
        ours, reference = state_generator(state), np.random.default_rng(seed)
        assert ours.uniform(-2.0, 2.0, 64).tobytes() == reference.uniform(-2.0, 2.0, 64).tobytes()
        assert ours.standard_normal(64).tobytes() == reference.standard_normal(64).tobytes()

    def test_derived_seeds_feed_the_same_generators(self):
        seeds = derive_seeds([((11, 4), 0, 20)])
        for seed, state in zip(seeds, generator_states(seeds)):
            ours, reference = state_generator(state), np.random.default_rng(int(seed))
            assert ours.standard_normal(16).tobytes() == reference.standard_normal(16).tobytes()


@pytest.mark.parametrize("noise, params", [("fixed", "0,0.1,0.5"), ("extrinsic", "20,-5,0")])
@pytest.mark.parametrize("seed", [0, 4294967296, 1180591620717411303424])
def test_generate_writes_the_default_rng_sample(tmp_path, monkeypatch, noise, params, seed):
    # The same command with every row drawn from default_rng(seed), as the
    # seeding module replaces it, must write the same bytes.
    argv = ["generate", "--topology", "driver", "--n", "120", "--noise", noise,
            "--params", params, f"--seed={seed}", "--out"]
    assert main(argv + [str(tmp_path / "bulk.csv")]) == 0
    monkeypatch.setattr(datagen, "generator_states", list)
    monkeypatch.setattr(datagen, "state_generator", np.random.default_rng)
    assert main(argv + [str(tmp_path / "reference.csv")]) == 0
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
