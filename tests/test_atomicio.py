"""Unit tests for the durability layer (repro.atomicio).

Covers the journal (round trip, torn-tail truncation on append but never
on read, sequence numbers continuing across instances, tampered records,
two processes sharing one journal under ``file_lock``), the
envelope's rejection paths, quarantine naming, and the lock itself.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import multiprocessing
import os
import stat

import pytest

from repro.atomicio import (
    EnvelopeError,
    Journal,
    atomic_write_bytes,
    file_lock,
    quarantine,
    seal,
    unseal,
)


class TestJournal:
    def test_round_trip(self, tmp_path):
        journal = Journal(str(tmp_path / "journal.jsonl"))
        assert journal.read() == []
        first = journal.append("start", owner="a")
        second = journal.append("done", owner="a", n=3)
        records = journal.read()
        assert records == [first, second]
        assert [r["seq"] for r in records] == [0, 1]
        assert records[1]["n"] == 3
        assert set(records[0]) == {"seq", "event", "owner", "sha1"}
        assert journal.dropped == 0

    def test_records_are_sorted_key_json_lines(self, tmp_path):
        journal = Journal(str(tmp_path / "journal.jsonl"))
        record = journal.append("start", b=1, a=2)
        with open(journal.path) as handle:
            assert handle.read() == json.dumps(record, sort_keys=True) + "\n"

    def test_append_truncates_a_torn_tail(self, tmp_path):
        journal = Journal(str(tmp_path / "journal.jsonl"))
        journal.append("first")
        intact = open(journal.path, "rb").read()
        with open(journal.path, "a") as handle:
            handle.write('{"seq": 1, "event": "torn"')
        assert [r["event"] for r in journal.read()] == ["first"]
        assert journal.dropped == 1
        journal.append("second")
        assert journal.dropped == 1
        data = open(journal.path, "rb").read()
        assert data.startswith(intact)
        assert b"torn" not in data
        records = journal.read()
        assert [r["event"] for r in records] == ["first", "second"]
        assert [r["seq"] for r in records] == [0, 1]
        assert journal.dropped == 0

    def test_unterminated_last_record_counts_as_torn(self, tmp_path):
        journal = Journal(str(tmp_path / "journal.jsonl"))
        journal.append("first")
        journal.append("second")
        data = open(journal.path, "rb").read()
        with open(journal.path, "wb") as handle:
            handle.write(data[:-1])  # the newline never reached the disk
        assert [r["event"] for r in journal.read()] == ["first"]
        journal.append("third")
        assert [r["event"] for r in journal.read()] == ["first", "third"]

    def test_tampered_record_invalidates_the_suffix(self, tmp_path):
        journal = Journal(str(tmp_path / "journal.jsonl"))
        for event in ("a", "b", "c"):
            journal.append(event)
        lines = open(journal.path).readlines()
        lines[1] = lines[1].replace('"b"', '"x"')
        with open(journal.path, "w") as handle:
            handle.writelines(lines)
        assert [r["event"] for r in journal.read()] == ["a"]
        assert journal.dropped == 2
        record = journal.append("d")
        assert record["seq"] == 1
        assert [r["event"] for r in journal.read()] == ["a", "d"]

    def test_a_second_writers_corrupt_line_ends_the_verified_prefix(
        self, tmp_path
    ):
        path = str(tmp_path / "journal.jsonl")
        first, second = Journal(path), Journal(path)
        first.append("a")
        assert [r["event"] for r in first.read()] == ["a"]
        second.append("b")
        forged = dict(second.append("c"), event="forged")
        # The second writer's torn append, then a well-formed record
        # after it: neither may join the first reader's verified prefix.
        with open(path, "ab") as handle:
            handle.write(json.dumps(forged, sort_keys=True).encode() + b"\n")
        valid_looking = second.read()[-1] | {"seq": 4}
        valid_looking["sha1"] = hashlib.sha1(json.dumps(
            {k: v for k, v in valid_looking.items() if k != "sha1"},
            sort_keys=True,
        ).encode()).hexdigest()
        with open(path, "ab") as handle:
            handle.write(
                json.dumps(valid_looking, sort_keys=True).encode() + b"\n"
            )
        assert [r["event"] for r in first.read()] == ["a", "b", "c"]
        assert first.dropped == 2
        record = first.append("d")
        assert record["seq"] == 3
        assert [r["event"] for r in second.read()] == ["a", "b", "c", "d"]
        assert second.dropped == 0

    def test_a_rewritten_prefix_is_rescanned(self, tmp_path):
        journal = Journal(str(tmp_path / "journal.jsonl"))
        for event in ("a", "b"):
            journal.append(event)
        assert len(journal.read()) == 2
        data = open(journal.path, "rb").read()
        with open(journal.path, "wb") as handle:  # same inode and length
            handle.write(data.replace(b'"a"', b'"x"', 1))
        assert journal.read() == []
        assert journal.dropped == 2

    def test_reading_truncates_nothing(self, tmp_path):
        journal = Journal(str(tmp_path / "journal.jsonl"))
        journal.append("first")
        with open(journal.path, "a") as handle:
            handle.write('{"seq": 1, "event": "torn"')
        torn = open(journal.path, "rb").read()
        for _ in range(2):
            assert [r["event"] for r in journal.read()] == ["first"]
            assert journal.dropped == 1
        assert open(journal.path, "rb").read() == torn
        journal.append("second")
        assert journal.dropped == 1
        journal.append("third")
        assert journal.dropped == 0

    def test_sequence_continues_across_instances(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        Journal(path).append("first")
        second = Journal(path)
        second.append("second")
        records = Journal(path).read()
        assert [r["seq"] for r in records] == [0, 1]
        assert [r["event"] for r in records] == ["first", "second"]

    def test_a_new_instance_truncates_a_torn_tail_before_appending(
        self, tmp_path
    ):
        path = str(tmp_path / "journal.jsonl")
        Journal(path).append("first")
        torn = '{"seq": 1, "event": "torn"'
        with open(path, "a") as handle:
            handle.write(torn)
        reopened = Journal(path)
        record = reopened.append("second")
        assert record["seq"] == 1
        assert reopened.dropped == 1
        assert torn not in open(path).read()
        assert [r["event"] for r in Journal(path).read()] == ["first", "second"]

    @pytest.mark.dist
    def test_two_processes_share_one_journal_under_the_lock(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        lock = str(tmp_path / "journal.lock")
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_append_many, args=(path, lock, owner, 100))
            for owner in ("p0", "p1")
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert not proc.is_alive()
        assert [proc.exitcode for proc in procs] == [0, 0]
        records = Journal(path).read()
        assert [r["seq"] for r in records] == list(range(200))
        for owner in ("p0", "p1"):
            assert [r["i"] for r in records if r["owner"] == owner] == list(
                range(100)
            )


def _append_many(path: str, lock: str, owner: str, n: int) -> None:
    journal = Journal(path)
    for i in range(n):
        with file_lock(lock):
            journal.append("tick", owner=owner, i=i)


class TestAtomicWrite:
    def test_one_atomic_write_fsyncs_exactly_its_temp_file(
        self, tmp_path, monkeypatch
    ):
        synced = []
        real_fsync = os.fsync

        def recording(fd):
            synced.append(os.fstat(fd))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording)
        path = str(tmp_path / "artifact.json")
        atomic_write_bytes(path, b"payload")
        monkeypatch.undo()
        # No directory fsync: the one fsync'd file is the temporary file,
        # renamed over the destination.
        assert len(synced) == 1
        assert stat.S_ISREG(synced[0].st_mode)
        assert synced[0].st_ino == os.stat(path).st_ino
        assert os.listdir(tmp_path) == ["artifact.json"]


class TestEnvelope:
    def test_round_trip_keeps_caller_fields(self, tmp_path):
        path = str(tmp_path / "entry.bin")
        seal(path, b"payload", 7, phase="dataset")
        header, body = unseal(path, 7)
        assert body == b"payload"
        assert header == {
            "schema": 7,
            "sha1": hashlib.sha1(b"payload").hexdigest(),
            "n_bytes": 7,
            "phase": "dataset",
        }

    def test_wrong_schema_is_rejected(self, tmp_path):
        path = str(tmp_path / "entry.bin")
        seal(path, b"payload", 7)
        with pytest.raises(EnvelopeError, match="schema"):
            unseal(path, 8)

    def test_short_body_is_rejected(self, tmp_path):
        path = str(tmp_path / "entry.bin")
        seal(path, b"payload", 7)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:-2])
        with pytest.raises(EnvelopeError, match="truncated"):
            unseal(path, 7)

    def test_checksum_mismatch_is_rejected(self, tmp_path):
        path = str(tmp_path / "entry.bin")
        seal(path, b"payload", 7)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:-1] + b"D")  # same length, one byte flipped
        with pytest.raises(EnvelopeError, match="checksum"):
            unseal(path, 7)

    def test_garbage_header_is_rejected(self, tmp_path):
        path = tmp_path / "entry.bin"
        path.write_bytes(b'{"schema": 7, "sha1": "dea')
        with pytest.raises(EnvelopeError, match="header"):
            unseal(str(path), 7)

    def test_missing_artifact_is_not_an_envelope_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            unseal(str(tmp_path / "absent.bin"), 7)


class TestQuarantine:
    def test_repeated_quarantines_keep_distinct_artifacts(self, tmp_path):
        path = tmp_path / "dataset.ckpt"
        target = str(tmp_path / "quarantine")
        kept = []
        for blob in (b"first corruption", b"second corruption"):
            path.write_bytes(blob)
            dest = quarantine(str(path), target)
            digest = hashlib.sha1(blob).hexdigest()[:12]
            assert dest == os.path.join(target, f"dataset-{digest}.ckpt")
            assert not path.exists()
            kept.append(dest)
        assert sorted(os.listdir(target)) == sorted(
            os.path.basename(dest) for dest in kept
        )
        assert [open(dest, "rb").read() for dest in kept] == [
            b"first corruption", b"second corruption",
        ]

    def test_unmovable_artifact_is_removed(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_bytes(b"x")
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the directory should go")
        assert quarantine(str(path), str(blocker / "quarantine")) is None
        assert not path.exists()


class TestFileLock:
    def test_lock_is_exclusive_across_handles(self, tmp_path):
        lock = str(tmp_path / "dir.lock")
        with file_lock(lock):
            # A second claimant (another open file description, as another
            # process would hold) cannot take the lock while we do.
            with open(lock, "a") as probe:
                with pytest.raises(OSError):
                    fcntl.flock(probe.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        with open(lock, "a") as probe:
            fcntl.flock(probe.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            fcntl.flock(probe.fileno(), fcntl.LOCK_UN)

    def test_unopenable_lock_raises(self, tmp_path):
        with pytest.raises(OSError):
            with file_lock(str(tmp_path / "missing" / "deep.lock")):
                pass
