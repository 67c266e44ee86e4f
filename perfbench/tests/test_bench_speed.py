"""Scaling of wall time to the reference speed."""

import signal
import threading
import time

import pytest

import run
import speed
import workloads


def test_scaled_is_net_wall_times_mean_speed_over_the_window():
    clock = speed.SpeedClock()
    ref = speed.REFERENCE_S
    # two samples before the interval, four in it, three after it
    clock.samples = [ref, ref, ref / 2, ref / 2, 2 * ref, 2 * ref, ref, ref, 1.0]
    a = (10.0, 0.25, 2)
    b = (13.0, 0.75, 6)
    assert clock.wall(a, b) == pytest.approx(2.5)
    # the window is samples[0:8]: speeds 1, 1, 2, 2, 0.5, 0.5, 1, 1
    assert clock.speed(a, b) == pytest.approx(9 / 8)
    assert clock.scaled(a, b) == pytest.approx(2.5 * 9 / 8)


def test_an_interval_without_samples_cannot_be_scaled():
    clock = speed.SpeedClock()
    with pytest.raises(RuntimeError):
        clock.speed((0.0, 0.0, 0), (1.0, 0.0, 0))


def test_sampling_runs_while_started_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = speed.SpeedClock(interval=0.01)
    with clock:
        a = clock.read()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
        b = clock.read()
    assert b[2] - a[2] >= 5
    assert 0 < clock.wall(a, b) < 0.2
    assert clock.scaled(a, b) > 0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_selftest_checks_run_in_the_main_thread_and_are_scaled(km):
    log = []
    threads = []
    clock = speed.SpeedClock(interval=0.01)
    with clock:
        a = clock.read()
        # the selftest's checks run through this executor, in the main thread
        with workloads.item_executor(km, log, clock=clock)(max_workers=2) as pool:
            outcomes = list(
                pool.map(
                    lambda pair: threads.append(threading.current_thread()) or time.sleep(0.05),
                    [(("one", None), {}), (("two", None), {})],
                )
            )
        b = clock.read()
    passes = [{"raw_wall_s": clock.wall(a, b), "span": (a, b), "items": log}]
    run.scale(passes, clock)
    assert passes[0]["wall_s"] == pytest.approx(passes[0]["raw_wall_s"] * passes[0]["speed"])
    assert outcomes == [None, None]
    assert [i["item"] for i in log] == ["one", "two"]
    assert all("span" not in i and i["seconds"] > 0 for i in log)
    assert threads == [threading.main_thread()] * 2
