import random as pyrandom

import numpy as np
import pytest

from randpipe.avrprng import MODULUS, MULTIPLIER, LcgState, random, srandom, stream


def test_constants():
    assert MODULUS == 2**31 - 1
    assert MULTIPLIER == 16807


def test_first_outputs_from_seed_1():
    # Frozen from an independent wide-integer modular multiplication:
    # 16807^2 = 282475249 and 16807 * 282475249 mod (2^31 - 1) = 1622650073.
    assert stream(1, 3) == [16807, 282475249, 1622650073]


def test_minimal_standard_check_value():
    # The classic full-period check: from x0 = 1, x10000 = 1043618065.
    x = srandom(1)
    for _ in range(10000):
        _, x = random(x)
    assert x.x == 1043618065


def test_srandom_identity_small_seed():
    assert srandom(1).x == 1
    assert srandom(881).x == 881


def test_srandom_zero_maps_to_one():
    assert srandom(0).x == 1
    assert stream(0, 5) == stream(1, 5)


def test_srandom_modulus_wraps_then_maps():
    assert srandom(2**31 - 1).x == 1


def test_srandom_rejects_negative():
    with pytest.raises(ValueError):
        srandom(-1)


def test_random_single_steps():
    v, st = random(LcgState(1))
    assert v == 16807 and st.x == 16807
    v, st = random(st)
    assert v == 282475249 and st.x == 282475249


def test_state_bounds_enforced():
    with pytest.raises(ValueError):
        LcgState(0)
    with pytest.raises(ValueError):
        LcgState(2**31 - 1)


def test_non_integer_state_rejected():
    with pytest.raises(TypeError):
        LcgState(1.5)
    with pytest.raises(TypeError):
        srandom(1.5)
    with pytest.raises(TypeError):
        stream(2.0, 1)
    with pytest.raises(TypeError):
        stream(0.0, 1)      # a zero residue must not map to the seed-1 stream
    assert stream(np.int64(5), 2) == stream(5, 2)


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
        x0 = LcgState(rng.randrange(1, MODULUS - 1))
        v1, st1 = random(x0)
        v2, _ = random(st1)
        w1, st = random(srandom(v1))
        assert (v1, v2) == (v1, w1) and st.x == v2


def test_outputs_stay_in_range_and_never_zero():
    x = 1
    for _ in range(1_000_000):
        x = (MULTIPLIER * x) % MODULUS
        assert 0 < x < MODULUS
