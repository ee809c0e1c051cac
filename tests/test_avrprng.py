import random as pyrandom

import numpy as np
import pytest

from randpipe.avrprng import MODULUS, MULTIPLIER, srandom, stream


def test_constants():
    assert MODULUS == 2**31 - 1
    assert MULTIPLIER == 16807


def test_first_outputs_from_seed_1():
    # Frozen from an independent wide-integer modular multiplication:
    # 16807^2 = 282475249 and 16807 * 282475249 mod (2^31 - 1) = 1622650073.
    assert stream(1, 3) == [16807, 282475249, 1622650073]


def test_minimal_standard_check_value():
    # The classic full-period check: from x0 = 1, x10000 = 1043618065.
    assert stream(1, 10000)[-1] == 1043618065


def test_srandom_identity_small_seed():
    assert srandom(1) == 1
    assert srandom(881) == 881


def test_srandom_zero_maps_to_one():
    assert srandom(0) == 1
    assert stream(0, 5) == stream(1, 5)


def test_srandom_modulus_wraps_then_maps():
    assert srandom(2**31 - 1) == 1


def test_srandom_rejects_negative():
    with pytest.raises(ValueError):
        srandom(-1)


def test_random_single_steps():
    # Each output is one step from the state that the previous output seeds.
    assert stream(1, 1) == [16807]
    assert stream(16807, 1) == [282475249]


def test_state_bounds_enforced():
    # The state is the seed mod 2^31 - 1 with a zero residue mapped to 1, so it
    # never leaves [1, 2^31 - 2], where neither fixed point (0, 2^31 - 1) lies.
    for seed in (0, 1, 2**31 - 2, 2**31 - 1, 2**31, 2 * (2**31 - 1), 2**100):
        state = srandom(seed)
        assert 1 <= state <= 2**31 - 2
        assert state == (seed % (2**31 - 1) or 1), seed


# Values every integer input of the package must refuse with TypeError: a
# float, integral or not; a bool, which operator.index alone takes as 0 or 1;
# numpy's bool; a numeric string; None (which random.Random would seed from the OS).
NON_INTEGERS = (2.5, 4.0, True, False, np.True_, "3", None)


def test_non_integer_state_rejected():
    for bad in NON_INTEGERS:
        with pytest.raises(TypeError):
            srandom(bad)
        with pytest.raises(TypeError):
            stream(1, bad)
    with pytest.raises(TypeError):
        stream(2.0, 1)
    with pytest.raises(TypeError):
        stream(0.0, 1)      # a zero residue must not map to the seed-1 stream
    assert stream(np.int64(5), np.int64(2)) == stream(5, 2)
    assert type(srandom(np.int64(5))) is int


def test_stream_empty():
    assert stream(123, 0) == []


def test_stream_rejects_negative_count():
    with pytest.raises(ValueError):
        stream(1, -1)


def test_stream_self_seeding():
    # X_{n+1} depends only on X_n, so re-seeding with any output
    # continues the stream: the keystone of the window-slide trick.
    s = stream(417, 50)
    assert stream(s[0], 49) == s[1:]


def test_self_seeding_random_states():
    rng = pyrandom.Random(1234)
    for _ in range(200):
        v1, v2 = stream(rng.randrange(1, MODULUS - 1), 2)
        assert stream(v1, 1) == [v2]


def test_outputs_stay_in_range_and_never_zero():
    out = np.array(stream(1, 10**6))
    assert out.min() > 0 and out.max() < MODULUS
