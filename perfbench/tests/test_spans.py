"""Self-time arithmetic, percentile choice and span aggregation."""

import pytest

import spans


def test_self_time_without_children_is_duration():
    assert spans.self_time(1.0, 4.0, []) == pytest.approx(3.0)


def test_self_time_subtracts_nested_children():
    children = [(1.0, 2.0), (2.5, 3.0)]
    assert spans.self_time(0.0, 4.0, children) == pytest.approx(2.5)


def test_self_time_counts_overlap_between_children_once():
    # [1, 3] and [2, 4] together cover [1, 4]: three seconds, not four.
    assert spans.self_time(0.0, 5.0, [(2.0, 4.0), (1.0, 3.0)]) == pytest.approx(2.0)


def test_self_time_clips_children_to_the_parent():
    children = [(-1.0, 1.0), (4.0, 9.0), (6.0, 7.0)]
    assert spans.self_time(0.0, 5.0, children) == pytest.approx(3.0)


def test_self_time_of_a_child_inside_another_child():
    assert spans.self_time(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == pytest.approx(4.0)


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, 50.0),      # nothing has ten samples beyond it: median
        (19, 50.0),
        (20, 50.0),     # rank 10 of 20 leaves ten beyond the median
        (99, 50.0),     # rank 90 of 99 leaves nine beyond p90
        (100, 90.0),    # rank 90 of 100 leaves ten beyond p90
        (176, 90.0),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert spans.tail_percentile(n) == expected


def test_nearest_rank():
    values = list(range(1, 101))
    assert spans.nearest_rank(values, 50.0) == 50
    assert spans.nearest_rank(values, 90.0) == 90
    assert spans.nearest_rank([7.0], 90.0) == 7.0


def test_tracer_nests_spans_and_aggregates(tmp_path):
    tracer = spans.Tracer("run-1")

    def leaf():
        return 1

    leaf_w = tracer.wrap("leaf", leaf)

    def outer():
        return leaf_w() + leaf_w()

    outer_w = tracer.wrap("outer", outer)
    # A same-named call inside an open span adds no second span.
    outer_again = tracer.wrap("outer", lambda: outer_w())
    assert outer_again() == 2
    tracer.dump(str(tmp_path))

    payloads = spans.load_span_files(str(tmp_path))
    totals = spans.layer_totals(payloads, "run-1")
    assert totals.calls == {"outer": 1, "leaf": 2}
    assert totals.self_s["outer"] == pytest.approx(
        totals.busy["outer"] - totals.busy["leaf"]
    )
    with pytest.raises(ValueError):
        spans.layer_totals(payloads, "another-run")


def test_tracer_closes_the_span_when_the_call_raises():
    tracer = spans.Tracer("run-1")

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.names == ["boom"] and tracer.ends[0] >= tracer.starts[0]
    assert tracer._open == []
