"""Tests for task and access-group segmentation."""

from repro.workloads.tasks import (
    TASK_DURATION_CAP,
    segment_access_groups,
    segment_tasks,
)
from repro.workloads.trace import CREATE, READ, Trace, TraceRecord, WRITE


def reads(times, user="u", path="/f"):
    return [TraceRecord(t, user, READ, path) for t in times]


class TestTaskSegmentation:
    def test_gap_splits_tasks(self):
        trace = Trace("t", reads([0.0, 1.0, 10.0, 11.0]))
        tasks = segment_tasks(trace, inter=5.0)
        assert [len(t.records) for t in tasks] == [2, 2]

    def test_gap_at_threshold_does_not_split(self):
        trace = Trace("t", reads([0.0, 5.0]))
        tasks = segment_tasks(trace, inter=5.0)
        assert len(tasks) == 1

    def test_duration_cap_splits(self):
        times = [i * 4.0 for i in range(100)]  # 396 s of 4 s gaps
        trace = Trace("t", reads(times))
        tasks = segment_tasks(trace, inter=5.0)
        assert len(tasks) >= 2
        assert all(t.records[-1].time - t.start <= TASK_DURATION_CAP + 4.0 for t in tasks)

    def test_users_segmented_independently(self):
        records = reads([0.0, 1.0], user="a") + reads([0.5, 1.5], user="b")
        trace = Trace("t", records)
        tasks = segment_tasks(trace, inter=5.0)
        assert len(tasks) == 2
        assert {t.user for t in tasks} == {"a", "b"}

    def test_accesses_only_filter(self):
        records = [
            TraceRecord(0.0, "u", READ, "/f"),
            TraceRecord(0.5, "u", CREATE, "/g", size=10),
            TraceRecord(1.0, "u", WRITE, "/f", length=10),
        ]
        tasks = segment_tasks(Trace("t", records), inter=5.0)
        assert len(tasks) == 1
        assert len(tasks[0].records) == 2  # create excluded

    def test_smaller_inter_makes_more_tasks(self):
        times = [0.0, 2.0, 4.0, 20.0, 22.0]
        trace = Trace("t", reads(times))
        fine = segment_tasks(trace, inter=1.0)
        coarse = segment_tasks(trace, inter=60.0)
        assert len(fine) > len(coarse)

    def test_tasks_sorted_by_start(self):
        records = reads([10.0], user="b") + reads([0.0], user="a")
        tasks = segment_tasks(Trace("t", records), inter=1.0)
        assert [t.start for t in tasks] == sorted(t.start for t in tasks)

    def test_every_access_in_exactly_one_task(self):
        times = [0.0, 1.0, 3.0, 100.0, 101.0, 500.0]
        trace = Trace("t", reads(times))
        tasks = segment_tasks(trace, inter=5.0)
        assert sum(len(t.records) for t in tasks) == len(times)


class TestAccessGroups:
    def test_think_time_splits(self):
        trace = Trace("t", reads([0.0, 0.5, 0.9, 3.0, 3.2]))
        groups = segment_access_groups(trace)
        assert [len(g.records) for g in groups] == [3, 2]

    def test_reads_only(self):
        records = [
            TraceRecord(0.0, "u", READ, "/f"),
            TraceRecord(0.2, "u", WRITE, "/f", length=10),
            TraceRecord(0.4, "u", READ, "/f"),
        ]
        groups = segment_access_groups(Trace("t", records))
        assert len(groups) == 1
        assert len(groups[0].records) == 2

    def test_no_duration_cap(self):
        times = [i * 0.5 for i in range(1000)]  # 500 s, no gap > 1 s
        groups = segment_access_groups(Trace("t", reads(times)))
        assert len(groups) == 1
