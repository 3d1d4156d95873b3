"""The durability layer: every format and protocol that must survive a crash.

Everything the pipeline persists for a later run to trust goes through this
module — simulation-result entries, run-state checkpoints and journals, the
campaign board's journal and lock.  The contract, stated once:

* **Atomic replace.**  An artifact is written to a same-directory temporary
  file, flushed, ``fsync``'d, then ``os.replace``'d over the destination
  (:func:`atomic_write_bytes` / :func:`atomic_write_text`).  A reader only
  ever sees the complete old bytes or the complete new bytes.
* **Envelope.**  A trusted artifact is a JSON header line — ``schema``,
  ``sha1`` and ``n_bytes`` of the body, plus any caller fields — followed
  by the body (:func:`seal`).  :func:`unseal` rejects a wrong schema, a
  short body or a checksum mismatch with :class:`EnvelopeError`, so a
  half-written or bit-rotted file is detected, never deserialised.
* **Journal.**  An append-only JSONL file of ``{"seq", "event", ...,
  "sha1"}`` records (:class:`Journal`).  A record is committed once its
  terminating newline is durable; reads trust only the verified prefix,
  and an append first truncates any torn or corrupt suffix, so a crash
  mid-append never hides later records.  ``seq`` is re-derived from the
  verified tail on every append, so many processes can share one journal
  as long as they serialise appends with :func:`file_lock`.
* **Quarantine.**  A corrupt or stale artifact is moved to a quarantine
  directory under ``<stem>-<sha1[:12]><ext>`` (:func:`quarantine`): the
  bytes survive for post-mortems, out of the live namespace, and repeated
  quarantines of the same name never overwrite each other.
* **Remove and touch.**  Files whose absence is the goal are deleted with
  :func:`remove_quietly`, which treats "already gone" as success, and
  mtime clocks are stamped with :func:`touch`.  Neither fsyncs the parent
  directory.
* **Lock.**  :func:`file_lock` is an exclusive advisory ``flock`` over a
  lock file, for writers in different processes or hosts sharing a
  directory.  It is a no-op only where ``fcntl`` is missing.

Writing an artifact with a plain ``open(path, "w")`` in :mod:`repro.sim` or
:mod:`repro.core` is a lint error (rule ``ROB002``); ``flock`` outside this
module is outside the scope ``ROB004`` checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from typing import Any, Iterator

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]


def atomic_write_bytes(path: str, data: bytes, fsync: bool = True) -> None:
    """Atomically replace ``path`` with ``data``.

    The temporary file lives next to the destination (same filesystem, so
    the rename is atomic) and is named per-pid so concurrent writers never
    collide on it.  On any OSError the temporary file is removed and the
    error re-raised; the destination is never left half-written.

    Raises:
        OSError: If the directory is unwritable or the filesystem is full.
    """
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except OSError:
        remove_quietly(tmp_path)
        raise


def atomic_write_text(path: str, text: str, fsync: bool = True) -> None:
    """Atomically replace ``path`` with UTF-8 encoded ``text``.

    Raises:
        OSError: If the directory is unwritable or the filesystem is full.
    """
    atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def _sha1_json(obj: dict) -> str:
    """Order-independent checksum of a JSON-serialisable mapping."""
    return hashlib.sha1(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ------------------------------------------------------------------ envelope
class EnvelopeError(ValueError):
    """A sealed artifact failed its header, length or checksum check."""


def seal(path: str, body: bytes, schema: int, **fields: Any) -> None:
    """Atomically write ``body`` behind a checksummed header line.

    Raises:
        OSError: If the directory is unwritable or the filesystem is full.
    """
    header = {
        **fields,
        "schema": schema,
        "sha1": hashlib.sha1(body).hexdigest(),
        "n_bytes": len(body),
    }
    atomic_write_bytes(
        path, json.dumps(header, sort_keys=True).encode() + b"\n" + body
    )


def unseal(path: str, schema: int) -> tuple[dict, bytes]:
    """The verified ``(header, body)`` of a sealed artifact.

    Raises:
        FileNotFoundError: When there is no artifact.
        OSError: When it cannot be read.
        EnvelopeError: For an unparseable header, a wrong schema, a short
            or long body, or a checksum mismatch.
    """
    with open(path, "rb") as handle:
        header_line = handle.readline()
        body = handle.read()
    try:
        header = json.loads(header_line)
        recorded = (header["schema"], header["n_bytes"], header["sha1"])
    except (ValueError, KeyError, TypeError) as exc:
        raise EnvelopeError(f"bad header: {type(exc).__name__}") from exc
    if recorded[0] != schema:
        raise EnvelopeError(f"schema {recorded[0]!r}")
    if recorded[1] != len(body):
        raise EnvelopeError("truncated body")
    if hashlib.sha1(body).hexdigest() != recorded[2]:
        raise EnvelopeError("checksum mismatch")
    return header, body


# ----------------------------------------------------------------- quarantine
def quarantine(path: str, directory: str) -> str | None:
    """Move ``path`` into ``directory`` as ``<stem>-<sha1[:12]><ext>``.

    The content hash in the name keeps repeated quarantines of the same
    artifact as distinct files.  Where the move fails (read-only directory,
    a concurrent quarantine) the artifact is removed instead, so it never
    answers another read.  Never raises.

    Returns:
        The quarantined file's path, or None when it was only removed.
    """
    try:
        with open(path, "rb") as handle:
            digest = hashlib.sha1(handle.read()).hexdigest()[:12]
    except OSError:
        digest = "unreadable"
    stem, ext = os.path.splitext(os.path.basename(path))
    dest = os.path.join(directory, f"{stem}-{digest}{ext}")
    try:
        os.makedirs(directory, exist_ok=True)
        os.replace(path, dest)
    except OSError:
        remove_quietly(path)
        return None
    return dest


# --------------------------------------------------------------- remove/touch
def remove_quietly(path: str) -> bool:
    """Remove ``path``; False when it was already gone or is not removable.

    For files whose absence is the goal (a failed write's temporary file,
    a retired or released campaign artifact, a cleared cache entry): a
    concurrent remover or a read-only directory is not an error.
    """
    try:
        os.remove(path)
    except OSError:
        return False
    return True


def touch(path: str) -> None:
    """Set ``path``'s mtime to now, creating it empty when missing.

    The campaign board keeps time in mtimes: its clock probe file and
    every lease heartbeat are touched.

    Raises:
        OSError: When the file cannot be created or stamped.
    """
    with open(path, "a"):
        pass
    os.utime(path)


# ----------------------------------------------------------------------- lock
@contextlib.contextmanager
def file_lock(path: str) -> Iterator[None]:
    """Hold an exclusive advisory lock on ``path`` (created on demand).

    Raises:
        OSError: When the lock file cannot be opened; the caller decides
            whether to degrade or fail.
    """
    if fcntl is None:
        yield
        return
    with open(path, "a") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


# -------------------------------------------------------------------- journal
class Journal:
    """An append-only JSONL journal of checksummed, numbered records.

    Attributes:
        path: The journal file.
        dropped: Non-blank lines past the verified prefix at the last
            :meth:`read` or :meth:`append` (the latter truncated them).
    """

    def __init__(self, path: str):
        self.path = path
        self.dropped = 0

    def _scan(self) -> tuple[list[dict], int]:
        """The verified records and the byte length of their prefix."""
        self.dropped = 0
        try:
            with open(self.path, "rb") as handle:
                lines = handle.read().splitlines(keepends=True)
        except OSError:
            return [], 0
        records: list[dict] = []
        end = 0
        for index, line in enumerate(lines):
            if line.strip():
                try:
                    if not line.endswith(b"\n"):
                        raise ValueError("unterminated record")
                    record = json.loads(line)
                    body = {k: v for k, v in record.items() if k != "sha1"}
                    if _sha1_json(body) != record["sha1"]:
                        raise ValueError("checksum mismatch")
                except (ValueError, KeyError, TypeError, AttributeError):
                    self.dropped = sum(1 for rest in lines[index:] if rest.strip())
                    break
                records.append(record)
            end += len(line)
        return records, end

    def read(self) -> list[dict]:
        """Verified records, oldest first; a bad line ends the prefix."""
        return self._scan()[0]

    def append(self, event: str, **fields: Any) -> dict:
        """Append one record (fsync'd) after truncating any torn tail.

        Concurrent writers must hold a shared :func:`file_lock`.

        Raises:
            OSError: If the journal cannot be written.
        """
        records, end = self._scan()
        seq = int(records[-1]["seq"]) + 1 if records else 0
        record: dict[str, Any] = {"seq": seq, "event": event, **fields}
        record["sha1"] = _sha1_json(record)
        with open(self.path, "ab") as handle:
            if self.dropped:
                handle.truncate(end)
            handle.write(json.dumps(record, sort_keys=True).encode() + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        return record
