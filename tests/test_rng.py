from vulgraph.rng import Rng


def test_raw_stream_matches_reference():
    # first outputs of the splitmix64 generator for seeds 0 and 42
    r = Rng(0)
    assert [r._next() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    r = Rng(42)
    assert r._next() == 0xBDD732262FEB6E95


def test_same_seed_same_everything():
    a, b = Rng(7), Rng(7)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    assert [a.randint(0, 9) for _ in range(20)] == [b.randint(0, 9) for _ in range(20)]
    xs, ys = list(range(30)), list(range(30))
    a.shuffle(xs)
    b.shuffle(ys)
    assert xs == ys


def test_fork_streams_are_stable_and_distinct():
    base = Rng(99)
    f1 = base.fork("split")
    f2 = base.fork("model")
    again = Rng(99).fork("split")
    s1 = [f1.random() for _ in range(4)]
    assert s1 == [again.random() for _ in range(4)]
    assert s1 != [f2.random() for _ in range(4)]


def test_bounds_and_coverage():
    r = Rng(5)
    vals = [r.randint(0, 3) for _ in range(400)]
    assert set(vals) == {0, 1, 2, 3}
    assert all(0.0 <= r.random() < 1.0 for _ in range(200))
    assert all(-1.5 <= r.uniform(-1.5, 2.5) <= 2.5 for _ in range(200))
