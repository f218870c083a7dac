"""Stream determinism and Box-Muller distribution checks."""

import numpy as np
import pytest

from invfold.rng import RandomStream


def test_same_name_same_stream():
    a = RandomStream(5, "x").gaussian((100,))
    b = RandomStream(5, "x").gaussian((100,))
    assert np.array_equal(a, b)


def test_different_names_differ():
    a = RandomStream(5, "x").uniform((100,))
    b = RandomStream(5, "y").uniform((100,))
    assert not np.array_equal(a, b)


def test_child_streams_are_independent_of_consumption_order():
    root = RandomStream(1)
    first = root.child("a").uniform((10,))
    root.child("b").uniform((1000,))
    again = RandomStream(1).child("a").uniform((10,))
    assert np.array_equal(first, again)


def test_uniform_range():
    u = RandomStream(2, "u").uniform((10000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_gaussian_moments():
    z = RandomStream(3, "g").gaussian((200000,))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # kurtosis separates a true normal from uniform-ish deviates
    assert abs(np.mean(z**4) - 3.0) < 0.08


def test_keep_mask_matches_uniform_threshold():
    mask = RandomStream(4, "m").keep_mask((5000,), 0.1)
    uni = RandomStream(4, "m").uniform((5000,))
    assert np.array_equal(mask, uni >= 0.1)


@pytest.mark.parametrize("rate", [0.0, 0.1, 0.5, 1.0 - 2.0**-53])
def test_keep_mask_compares_raw_draws_with_the_shifted_threshold(monkeypatch, rate):
    # raw draws at, just below and just above the threshold shifted into
    # the raw draws' range, and at both ends of that range
    shifted = int(rate * 2.0**53) << 11
    raw = [v for v in (0, shifted - 1, shifted, shifted + 1, 2**64 - 1) if 0 <= v < 2**64]
    raw = np.array(raw, dtype=np.uint64)
    stream = RandomStream(4, "t")
    monkeypatch.setattr(stream, "_raw", lambda count: raw[:count])
    mask = stream.keep_mask((raw.size,), rate)
    # the comparison of the draws shifted right by 11 gives the same bits
    assert np.array_equal(mask, (raw >> np.uint64(11)) >= np.uint64(int(rate * 2.0**53)))
    assert np.array_equal(mask, raw >= shifted)


@pytest.mark.parametrize("k,d_h", [(3, 5), (4, 12), (2, 16)])
def test_keep_mask_at_matches_the_whole_draw(k, d_h):
    """Rows drawn at their counter offset equal the rows of the mask drawn
    whole, for every block layout: with 15 entries a receiver (k 3, d_h 5)
    the offsets fall on all four draws of a Philox counter value. d_h 5
    and 12 also leave a packed row's last byte part full."""
    n, rate = 7, 0.3
    whole = RandomStream(9, "rows").keep_mask((n, k, d_h), rate)
    stream = RandomStream(9, "rows")
    stream.uniform((3,))  # the stream's own position does not matter
    offsets = set()
    # one-receiver blocks; blocks of three with a short last one; one block
    for step in (1, 3, n):
        for r0 in range(0, n, step):
            r1 = min(n, r0 + step)
            offsets.add(r0 * k * d_h % 4)
            rows = stream.keep_mask_at((r1 - r0, k, d_h), rate, r0 * k * d_h)
            assert np.array_equal(rows, whole[r0:r1])
            packed = np.packbits(rows, axis=-1)
            assert packed.shape == (r1 - r0, k, (d_h + 7) // 8)
            assert np.array_equal(np.unpackbits(packed, axis=-1, count=d_h).view(bool), rows)
    assert offsets == ({0, 1, 2, 3} if k * d_h % 2 else {0})
    assert stream.keep_mask_at((0, k, d_h), rate, n * k * d_h).shape == (0, k, d_h)
    flat = whole.reshape(-1)
    for offset in range(9):
        assert np.array_equal(stream.keep_mask_at((5,), rate, offset), flat[offset:offset + 5])


def test_permutation_is_a_permutation():
    p = RandomStream(6, "p").permutation(50)
    assert sorted(p.tolist()) == list(range(50))


def test_integers_in_range():
    v = RandomStream(7, "i").integers(2, 9, (1000,))
    assert v.min() >= 2 and v.max() <= 8
