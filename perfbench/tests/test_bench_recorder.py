"""Self-time arithmetic of the span recorder, on a clock the test moves."""

import recorder


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def self_times(rec):
    return rec.self_times(None)


def test_nested_spans_subtract_direct_children_only():
    clock = Clock()
    rec = recorder.Recorder(clock)
    outer = rec.open("outer")
    clock.now = 1.0
    middle = rec.open("middle")
    clock.now = 2.0
    inner = rec.open("inner")
    clock.now = 5.0
    rec.suspend(inner)
    clock.now = 6.0
    rec.suspend(middle)
    clock.now = 10.0
    rec.suspend(outer)
    assert self_times(rec) == {"outer": 5.0, "middle": 2.0, "inner": 3.0}
    assert [span[recorder.PARENT] for span in rec.spans] == [None, 0, 1]
    assert rec.counts[None] == {"outer.calls": 1, "middle.calls": 1, "inner.calls": 1}


def test_generator_span_covers_only_its_own_stretches():
    clock = Clock()
    rec = recorder.Recorder(clock)

    def produce():
        for _ in range(3):
            clock.now += 2.0  # work inside the generator
            yield clock.now

    def helper():
        clock.now += 1.0

    traced_helper = recorder.wrap_function(rec, helper, "helper")

    def produce_with_child():
        for value in produce():
            traced_helper()  # a child span inside the generator
            yield value

    gen = recorder.wrap_function(rec, produce_with_child, "gen")
    consumer = rec.open("consumer")
    for _ in gen():
        clock.now += 5.0  # the consumer's own work between yields
    rec.suspend(consumer)

    # three stretches of 2 + 1 inside the generator, 5 outside after each
    assert self_times(rec) == {"consumer": 15.0, "gen": 6.0, "helper": 3.0}
    names = [span[recorder.NAME] for span in rec.spans]
    assert names.count("gen") == 1
    gen_index = names.index("gen")
    assert rec.spans[gen_index][recorder.PARENT] == names.index("consumer")
    assert all(
        span[recorder.PARENT] == gen_index for span in rec.spans if span[recorder.NAME] == "helper"
    )
    assert rec.counts[None]["gen.yielded"] == 3


def test_generator_closed_early_leaves_the_stack_balanced():
    clock = Clock()
    rec = recorder.Recorder(clock)

    def produce():
        while True:
            clock.now += 1.0
            yield None

    gen = recorder.wrap_function(rec, produce, "gen")()
    outer = rec.open("outer")
    next(gen)
    next(gen)
    gen.close()
    clock.now += 4.0
    rec.suspend(outer)
    assert self_times(rec) == {"outer": 4.0, "gen": 2.0}


def test_phases_split_spans_and_counts():
    clock = Clock()
    rec = recorder.Recorder(clock)
    for phase, length in (("setup", 1.0), (0, 2.0)):
        rec.phase = phase
        index = rec.open("work")
        clock.now += length
        rec.suspend(index)
    assert rec.self_times("setup") == {"work": 1.0}
    assert rec.self_times(0) == {"work": 2.0}
    assert rec.counts == {"setup": {"work.calls": 1}, 0: {"work.calls": 1}}
