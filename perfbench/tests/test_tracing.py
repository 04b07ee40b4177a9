import pytest

from tracing import NO_PARENT, Tracer, contexts, patched, self_times


def test_self_time_subtracts_direct_children_only():
    # root [0, 100) > a [10, 50) > b [20, 30); root > c [60, 90)
    parent = [NO_PARENT, 0, 1, 0]
    start = [0, 10, 20, 60]
    end = [100, 50, 30, 90]
    assert self_times(parent, start, end) == [100 - 40 - 30, 40 - 10, 10, 30]


def test_self_times_sum_to_root_duration():
    parent = [NO_PARENT, 0, 1, 1, 0]
    start = [0, 5, 6, 20, 70]
    end = [100, 60, 15, 40, 99]
    assert sum(self_times(parent, start, end)) == 100


def test_wrap_records_parent_and_survives_exceptions():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", lambda x: traced_inner(x) + 1)
    assert traced_outer(1) == 2
    try:
        traced_outer(-1)
    except ValueError:
        pass
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["outer", "inner", "outer", "inner"]
    assert list(tracer.parent) == [NO_PARENT, 0, NO_PARENT, 2]
    assert all(e >= s > 0 for s, e in zip(tracer.start, tracer.end))
    # the span stack is empty again after the exception
    with tracer.span("after") as idx:
        pass
    assert tracer.parent[idx] == NO_PARENT


def test_contexts_find_nearest_marked_ancestor():
    tracer = Tracer()
    with tracer.span("loop"):
        with tracer.span("oracle"):
            with tracer.span("step"):
                pass
        with tracer.span("step"):
            pass
    assert contexts(tracer, ("oracle",)) == [None, "oracle", "oracle", None]


def test_patched_restores_and_rejects_a_missing_target():
    class Owner:
        @staticmethod
        def f():
            return 1

    original = Owner.f
    with patched([(Owner, "f", lambda fn: lambda: fn() + 1)]):
        assert Owner.f() == 2
    assert Owner.f is original
    with pytest.raises(AttributeError):
        with patched([(Owner, "f", lambda fn: lambda: fn() + 1),
                      (Owner, "gone", lambda fn: fn)]):
            pass
    assert Owner.f is original
