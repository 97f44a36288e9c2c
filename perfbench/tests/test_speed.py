"""The speed probe's bookkeeping, on hand-worked readings."""

from time import perf_counter

import pytest

import speed
import workloads


@pytest.fixture
def probe(monkeypatch):
    monkeypatch.setattr(speed, "REFERENCE_MS", 3.0)
    monkeypatch.setattr(speed, "WINDOW_S", 0.5)
    sp = speed.Speed()
    # readings of 1, 2 and 4 ms at t = 1, 2 and 3 s
    sp.starts = [1.0, 2.0, 3.0]
    sp.ends = [1.001, 2.002, 3.004]
    sp.ms = [1.0, 2.0, 4.0]
    return sp


def test_net_removes_probe_time(probe):
    # both probes inside
    assert probe.net(0.5, 2.5) == pytest.approx(2.0 - 0.003)
    # half of the first, half of the second
    assert probe.net(1.0005, 2.001) == pytest.approx(1.0005 - 0.0015)
    # none inside
    assert probe.net(1.5, 1.9) == pytest.approx(0.4)


def test_scale_uses_readings_around_the_interval(probe):
    assert probe.scale(2.0, 2.0) == pytest.approx(3.0 / 2.0)
    # 1.2 - 0.5 reaches the first reading, 2.8 + 0.5 the third
    assert probe.scale(1.2, 2.8) == pytest.approx(3.0 / 2.0)
    assert probe.scale(2.9, 3.1) == pytest.approx(3.0 / 4.0)
    assert probe.scale(10.0, 11.0) == 1.0


def test_seconds_scales_each_interval(probe):
    # [1.9, 2.1] holds the 2 ms reading: 0.198 s at 3/2
    # [2.9, 3.1] holds the 4 ms reading: 0.196 s at 3/4
    intervals = [(1.9, 2.1), (2.9, 3.1)]
    assert probe.seconds(intervals, scaled=False) == \
        pytest.approx(0.198 + 0.196)
    assert probe.seconds(intervals) == \
        pytest.approx(0.198 * 1.5 + 0.196 * 0.75)


def test_run_values_are_times_or_rates(probe):
    run = workloads.Run(seed=1)
    run.speed = probe
    run.add("evaluate", [(1.9, 2.1)])
    run.add("train", [(1.5, 1.9)], work=100)
    assert run.values("evaluate", scaled=False) == [pytest.approx(0.198)]
    assert run.values("evaluate") == [pytest.approx(0.297)]
    # no reading within the train interval's window but the 1 and 2 ms
    # ones: median 1.5 ms, scale 2
    assert run.values("train", scaled=False) == [pytest.approx(250.0)]
    assert run.values("train") == [pytest.approx(125.0)]


def test_timer_probes_land_inside_work_and_come_off_it():
    sp = speed.Speed()
    sp.start()
    try:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.4:
            sum(i for i in range(1000))
        t1 = perf_counter()
    finally:
        sp.stop()
    inside = [(s, e) for s, e in zip(sp.starts, sp.ends) if t0 < s < t1]
    assert len(inside) >= 2
    probe_time = sum(min(e, t1) - s for s, e in inside)
    assert sp.net(t0, t1) == pytest.approx(t1 - t0 - probe_time)
    # the timer is off again
    count = len(sp.ms)
    t2 = perf_counter()
    while perf_counter() - t2 < 0.2:
        pass
    assert len(sp.ms) == count
