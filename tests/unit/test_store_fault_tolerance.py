"""Fault tolerance of the :class:`~repro.campaign.store.ResultStore`.

The store must survive everything a long-running sweep harness throws at
it: writers killed mid-append (truncated JSON lines), duplicate
fingerprints from racing campaigns, and genuinely concurrent writer
processes.  The contract under test: **loading never raises** (corrupt
lines are quarantined, counted and reported), and ``O_APPEND`` appends
from two processes never interleave.
"""

import json
import multiprocessing
import os

import pytest

from repro.campaign.store import (
    RESULTS_FILENAME,
    QuarantinedLine,
    ResultStore,
    RunResult,
)


def _result(fingerprint, cycles=100, **overrides):
    fields = dict(
        fingerprint=fingerprint,
        campaign="test",
        run_id="strongarm/crc@1/interpreted",
        processor="strongarm",
        workload="crc",
        scale=1,
        engine="interpreted",
        backend="interpreted",
        repeat=0,
        cycles=cycles,
        instructions=50,
        final_r0=7,
        finish_reason="halt",
        wall_seconds=0.5,
        stats={"cycles": cycles},
    )
    fields.update(overrides)
    return RunResult(**fields)


def _hex_fingerprint(index):
    # Varied leading digits, zero-padded tail: sha256-shaped, all distinct.
    head = "%016x" % ((index * 0x9E3779B97F4A7C15) % (1 << 64))
    return head + "0" * 48


def _legacy_store(path, results):
    """Write a results.jsonl store by hand, without the append path."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, RESULTS_FILENAME), "a", encoding="utf-8") as handle:
        for result in results:
            handle.write(json.dumps(result.to_json_dict(), sort_keys=True) + "\n")


def _lines(path):
    return (path / RESULTS_FILENAME).read_text().splitlines()


# ---------------------------------------------------------------------------
# Single-file layout and the append path
# ---------------------------------------------------------------------------


class TestSingleFileLayout:
    def test_appends_land_in_results_jsonl(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append(_result("ab" * 32))
        assert os.listdir(tmp_path / "store") == [RESULTS_FILENAME]
        assert [json.loads(line)["fingerprint"] for line in _lines(tmp_path / "store")] == ["ab" * 32]

    def test_many_results_round_trip_through_one_file(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        appended = [_result(_hex_fingerprint(index + 1), cycles=index) for index in range(64)]
        for result in appended:
            store.append(result)
        assert len(_lines(tmp_path / "store")) == 64
        reloaded = ResultStore(tmp_path / "store")
        assert reloaded.results() == tuple(appended)

    def test_non_hex_fingerprints_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append(_result("not-hex!", cycles=42))
        reloaded = ResultStore(tmp_path / "store")
        assert "not-hex!" in reloaded
        assert reloaded.get("not-hex!").cycles == 42

    def test_hand_written_single_file_store_is_readable(self, tmp_path):
        results = [_result(_hex_fingerprint(index + 1)) for index in range(3)]
        _legacy_store(tmp_path / "store", results)
        store = ResultStore(tmp_path / "store")
        assert store.results() == tuple(results)
        assert store.quarantined() == ()

    def test_appends_to_a_hand_written_store_extend_its_file(self, tmp_path):
        _legacy_store(tmp_path / "store", [_result("aa" * 32)])
        store = ResultStore(tmp_path / "store")
        store.append(_result("bb" * 32))
        assert os.listdir(tmp_path / "store") == [RESULTS_FILENAME]
        assert len(_lines(tmp_path / "store")) == 2
        assert ResultStore(tmp_path / "store").fingerprints() == ("aa" * 32, "bb" * 32)

    def test_each_append_is_one_write_and_one_fsync(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        writes, syncs = [], []
        real_write, real_fsync = os.write, os.fsync

        def counting_write(fd, data):
            writes.append(bytes(data))
            return real_write(fd, data)

        def counting_fsync(fd):
            syncs.append(fd)
            return real_fsync(fd)

        with monkeypatch.context() as patch:
            patch.setattr(os, "write", counting_write)
            patch.setattr(os, "fsync", counting_fsync)
            store.append(_result("aa" * 32))
            store.append(_result("bb" * 32))
        assert len(writes) == 2
        assert len(syncs) == 2
        assert all(data.endswith(b"}\n") and data.count(b"\n") == 1 for data in writes)

    def test_torn_tail_seal_rides_in_the_same_write(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        store.append(_result("aa" * 32))
        with open(tmp_path / "store" / RESULTS_FILENAME, "a", encoding="utf-8") as handle:
            handle.write('{"torn')  # a killed writer's half line, no newline
        writes = []
        real_write = os.write

        def counting_write(fd, data):
            writes.append(bytes(data))
            return real_write(fd, data)

        fresh = ResultStore(tmp_path / "store")
        with monkeypatch.context() as patch:
            patch.setattr(os, "write", counting_write)
            fresh.append(_result("bb" * 32))
        assert len(writes) == 1
        assert writes[0].startswith(b"\n{")
        reloaded = ResultStore(tmp_path / "store")
        assert reloaded.fingerprints() == ("aa" * 32, "bb" * 32)
        assert [line.sample for line in reloaded.quarantined()] == ['{"torn']


# ---------------------------------------------------------------------------
# Corruption tolerance (the ISSUE 9 regression: truncated final line)
# ---------------------------------------------------------------------------


class TestQuarantine:
    def _truncate_last_line(self, path):
        text = path.read_text()
        assert text.endswith("}\n")
        start = text.rfind("\n", 0, len(text) - 1) + 1
        path.write_text(text[: start + (len(text) - start) // 2])  # mid-line kill

    def test_append_after_torn_tail_does_not_merge_lines(self, tmp_path):
        """Regression: appending to a store whose last line lost its newline
        must seal the torn tail, not concatenate the new record onto it."""
        store = ResultStore(tmp_path / "store")
        store.append(_result("a" * 64, cycles=100))
        self._truncate_last_line(tmp_path / "store" / RESULTS_FILENAME)  # torn tail, no newline

        fresh = ResultStore(tmp_path / "store")
        fresh.append(_result("b" * 64, cycles=200))

        reloaded = ResultStore(tmp_path / "store")
        index = reloaded.load()
        assert set(index) == {"b" * 64}  # the new record survived intact
        assert index["b" * 64].cycles == 200
        assert len(reloaded.quarantined()) == 1  # the torn junk, alone

    def test_short_write_raises_and_costs_only_its_own_line(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        store.append(_result("a" * 64))
        real_write = os.write
        with monkeypatch.context() as patch:
            patch.setattr(os, "write", lambda fd, data: real_write(fd, data[:10]))
            with pytest.raises(OSError, match="short write"):
                store.append(_result("b" * 64))
        store.append(_result("c" * 64))

        reloaded = ResultStore(tmp_path / "store")
        assert reloaded.fingerprints() == ("a" * 64, "c" * 64)
        assert len(reloaded.quarantined()) == 1

    def test_truncated_last_line_is_quarantined_not_fatal(self, tmp_path):
        """Regression: a writer killed mid-append used to brick the store."""
        store = ResultStore(tmp_path / "store")
        intact = [_result(_hex_fingerprint(index + 1)) for index in range(5)]
        for result in intact:
            store.append(result)
        self._truncate_last_line(tmp_path / "store" / RESULTS_FILENAME)

        reloaded = ResultStore(tmp_path / "store")
        index = reloaded.load()  # must not raise
        # Every result whose line is still intact warm-loads.
        lost = {
            result.fingerprint
            for result in intact
            if result.fingerprint not in index
        }
        assert len(lost) == 1  # only the torn line
        assert len(reloaded.quarantined()) == 1
        assert reloaded.quarantined()[0].line > 0

    def test_truncated_legacy_store_loads_every_intact_result(self, tmp_path):
        results = [_result(_hex_fingerprint(index + 1)) for index in range(4)]
        _legacy_store(tmp_path / "store", results)
        path = tmp_path / "store" / RESULTS_FILENAME
        text = path.read_text()
        path.write_text(text[:-10])  # kill the writer mid-final-line

        store = ResultStore(tmp_path / "store")
        index = store.load()
        assert set(index) == {result.fingerprint for result in results[:3]}
        assert len(store.quarantined()) == 1

    @pytest.mark.parametrize(
        "garbage",
        ["{truncated", '"a bare string"', "[1, 2, 3]", '{"fingerprint": "x"}'],
        ids=["torn-json", "non-object-string", "non-object-list", "missing-fields"],
    )
    def test_garbage_lines_are_skipped_counted_and_reported(self, tmp_path, garbage):
        store = ResultStore(tmp_path / "store")
        good = _result("ab" * 32)
        store.append(good)
        with open(tmp_path / "store" / RESULTS_FILENAME, "a", encoding="utf-8") as handle:
            handle.write(garbage + "\n")

        reloaded = ResultStore(tmp_path / "store")
        assert reloaded.get(good.fingerprint).cycles == good.cycles
        quarantined = reloaded.quarantined()
        assert len(quarantined) == 1
        assert isinstance(quarantined[0], QuarantinedLine)
        assert quarantined[0].reason
        assert len(reloaded) == 1

    def test_blank_lines_are_not_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append(_result("ab" * 32))
        with open(tmp_path / "store" / RESULTS_FILENAME, "a", encoding="utf-8") as handle:
            handle.write("\n\n")
        reloaded = ResultStore(tmp_path / "store")
        assert len(reloaded) == 1
        assert reloaded.quarantined() == ()

    def test_other_files_in_the_store_directory_are_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append(_result("aa" * 32))
        shards = tmp_path / "store" / "shards"  # the layout of repro < 1.17
        shards.mkdir()
        (shards / "000.jsonl").write_text(json.dumps(_result("bb" * 32).to_json_dict()) + "\n")
        (tmp_path / "store" / "store.json").write_text("{}")

        reloaded = ResultStore(tmp_path / "store")
        assert reloaded.fingerprints() == ("aa" * 32,)
        assert reloaded.quarantined() == ()


# ---------------------------------------------------------------------------
# Concurrent writers (two real processes, O_APPEND)
# ---------------------------------------------------------------------------


def _writer_process(path, start, count):
    store = ResultStore(path)
    for index in range(start, start + count):
        store.append(_result(_hex_fingerprint(index + 1), cycles=index))


class TestConcurrentWriters:
    def test_two_processes_append_without_losing_or_corrupting_lines(self, tmp_path):
        path = str(tmp_path / "store")
        count = 40
        workers = [
            multiprocessing.Process(
                target=_writer_process, args=(path, side * count, count)
            )
            for side in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0

        store = ResultStore(path)
        assert len(store) == 2 * count  # zero lost
        assert store.quarantined() == ()  # zero corrupt
        by_fp = store.load()
        for index in range(2 * count):
            assert by_fp[_hex_fingerprint(index + 1)].cycles == index
