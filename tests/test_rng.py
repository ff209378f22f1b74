import numpy as np

from evograft.rng import Rng, fnv1a64


def test_replay_is_identical():
    a = Rng(42, "stream")
    b = Rng(42, "stream")
    assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]


def test_state_round_trip_resumes_mid_stream():
    a = Rng(42, "stream")
    for _ in range(17):
        a.uniform()
    b = Rng(*a.state())
    assert [a.uniform() for _ in range(20)] == [b.uniform() for _ in range(20)]


def test_vector_draws_match_scalar_draws():
    a = Rng(9, "v")
    b = Rng(9, "v")
    vec = a.uniforms(257)
    scalars = np.array([b.uniform() for _ in range(257)])
    assert np.array_equal(vec, scalars)
    assert a.counter == b.counter


def scalar_normal(rng, mu=0.0, sigma=1.0):
    """One cosine-branch Box-Muller normal from two scalar uniform draws, with
    numpy's own log and cos one value at a time: on AVX-512 hosts numpy's log
    differs from math.log in the last bit for a few inputs in a thousand."""
    u1 = np.float64(((rng.raw() >> 11) + 1) * 2.0 ** -53)
    u2 = np.float64((rng.raw() >> 11) * 2.0 ** -53)
    return mu + sigma * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def test_normals_match_scalar_normal():
    a = Rng(9, "n")
    b = Rng(9, "n")
    vec = a.normals(33)
    scalars = np.array([scalar_normal(b) for _ in range(33)])
    assert vec.tobytes() == scalars.tobytes()
    assert a.counter == b.counter == 66


def test_streams_with_different_labels_disagree():
    a = Rng(5, "alpha")
    b = Rng(5, "beta")
    assert [a.raw() for _ in range(8)] != [b.raw() for _ in range(8)]


def test_spawn_does_not_consume_parent_draws():
    a = Rng(5, "parent")
    _ = a.spawn("child")
    assert a.counter == 0
    assert a.spawn("child").label == "parent/child"


def test_uniform_range_and_mean():
    u = Rng(123, "u").uniforms(20000)
    assert u.min() >= 0.0 and u.max() < 1.0
    # mean of U[0,1) over n draws: sigma = 1/sqrt(12 n)
    assert abs(u.mean() - 0.5) < 3.0 / np.sqrt(12 * 20000)


def test_normal_moments():
    z = Rng(7, "z").normals(20000)
    assert abs(z.mean()) < 3.0 / np.sqrt(20000)
    assert abs(z.std() - 1.0) < 0.03


def test_randint_bounds_and_coverage():
    rng = Rng(1, "ints")
    draws = [rng.randint(5) for _ in range(2000)]
    assert set(draws) == {0, 1, 2, 3, 4}


def test_shuffle_is_a_permutation():
    rng = Rng(2, "shuf")
    seq = list(range(40))
    rng.shuffle(seq)
    assert sorted(seq) == list(range(40))
    assert seq != list(range(40))


def test_fnv1a64_known_vector():
    # standard FNV-1a 64-bit test vector
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


def test_label_validation():
    import pytest
    with pytest.raises(ValueError):
        Rng(0, "has space")


def scalar_shuffle(rng, seq):
    """Fisher-Yates one scalar draw at a time: the reference for ``shuffle``."""
    for i in range(len(seq) - 1, 0, -1):
        j = rng.randint(i + 1)
        seq[i], seq[j] = seq[j], seq[i]


def test_shuffle_matches_a_scalar_fisher_yates():
    for n in [*range(41), 1000]:
        bulk, scalar = Rng(5, "shuffle", 3), Rng(5, "shuffle", 3)
        got, expected = list(range(n)), list(range(n))
        bulk.shuffle(got)
        scalar_shuffle(scalar, expected)
        assert got == expected, n
        assert bulk.counter == scalar.counter == 3 + max(n - 1, 0)


def test_split_labels_match_per_draw_randint():
    from evograft.data import _sample_split
    protos = np.linspace(0.0, 1.0, 7 * 4 * 4 * 3).reshape(7, 4, 4, 3)
    for k in (1, 2, 3, 7):
        bulk, scalar = Rng(11, f"labels{k}"), Rng(11, f"labels{k}")
        images, labels = _sample_split(bulk, protos[:k], 50, 0.1)
        expected = np.array([scalar.randint(k) for _ in range(50)], dtype=np.int64)
        noise = scalar.normals(50 * 4 * 4 * 3, 0.0, 0.1).reshape(50, 4, 4, 3)
        pixels = np.round(np.clip(protos[expected] + noise, 0.0, 1.0) * 255.0)
        assert labels.dtype == np.int64 and labels.tolist() == expected.tolist()
        assert images.tobytes() == pixels.astype(np.uint8).tobytes()
        assert bulk.counter == scalar.counter


def test_bulk_draws_match_scalar_draws_across_the_normals_chunk():
    from evograft.rng import _NORMAL_CHUNK

    for n in (_NORMAL_CHUNK - 1, _NORMAL_CHUNK, _NORMAL_CHUNK + 1):
        bulk, scalar = Rng(31, f"chunk{n}", 5), Rng(31, f"chunk{n}", 5)
        assert bulk.raws(n).tolist() == [scalar.raw() for _ in range(n)]
        assert bulk.uniforms(n).tobytes() == np.array(
            [scalar.uniform() for _ in range(n)]).tobytes()
        expected = np.array([scalar_normal(scalar, 0.0, 0.03) for _ in range(n)])
        assert bulk.normals(n, 0.0, 0.03).tobytes() == expected.tobytes()
        assert bulk.counter == scalar.counter == 5 + 4 * n
