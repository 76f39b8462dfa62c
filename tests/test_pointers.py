"""Tests for pointer-range bookkeeping."""

from repro.store.pointers import PointerRange, PointerTable


class TestPointerRange:
    def test_covers(self):
        record = PointerRange(10, 20, "n1", 0.0)
        assert record.covers(15)
        assert record.covers(20)
        assert not record.covers(10)
        assert not record.covers(25)


class TestPointerTable:
    def test_adopt_and_retire(self):
        table = PointerTable()
        record = table.adopt(10, 20, "n1", now=5.0)
        assert len(table) == 1
        assert table.retire(record)
        assert len(table) == 0

    def test_double_retire_harmless(self):
        table = PointerTable()
        record = table.adopt(10, 20, "n1", now=0.0)
        assert table.retire(record)
        assert not table.retire(record)

    def test_retire_matches_identity_not_equality(self):
        # Two adoptions of the same arc at the same instant are equal but
        # distinct records; each stabilization event must retire its own.
        table = PointerTable()
        first = table.adopt(10, 20, "n1", now=0.0)
        second = table.adopt(10, 20, "n1", now=0.0)
        assert first == second and first is not second
        assert table.retire(first)
        assert table.pending() == (second,)
        assert table.pending()[0] is second
        assert table.retire(second)
        assert not table.retire(first)  # both gone; stale events no-op

    def test_drop_does_not_count_as_stabilized(self):
        table = PointerTable()
        record = table.adopt(10, 20, "n1", now=0.0)
        assert table.drop(record)
        assert len(table) == 0
        assert table.dropped_count == 1
        assert not table.retire(record)  # its stabilization event no-ops
        assert not table.drop(record)

    def test_pending_for_owner(self):
        table = PointerTable()
        table.adopt(10, 20, "n1", 0.0)
        table.adopt(30, 40, "n2", 0.0)
        assert len(list(table.pending_for("n1"))) == 1

    def test_covering(self):
        table = PointerTable()
        table.adopt(10, 20, "n1", 0.0)
        table.adopt(15, 40, "n2", 0.0)
        assert len(list(table.covering(18))) == 2
        assert len(list(table.covering(35))) == 1

    def test_pending_snapshot_immutable(self):
        table = PointerTable()
        table.adopt(10, 20, "n1", 0.0)
        snapshot = table.pending()
        table.adopt(30, 40, "n2", 0.0)
        assert len(snapshot) == 1
