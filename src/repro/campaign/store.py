"""Content-addressed, fault-tolerant persistence for campaign results.

A :class:`ResultStore` is a directory of JSON-lines shard files
(``shards/NNN.jsonl``; the shard is chosen by the fingerprint's leading
hex digits): one line per completed run, keyed by the run's content
fingerprint.  Appending is the only write operation, so a store survives
interrupted campaigns (every line already written is a finished run) and
re-running a campaign against the same store skips every fingerprint it
already holds — incremental experiments for free.

The layer is built to survive the failure modes a long-running sweep
harness actually hits:

* **Torn writes never brick a store.**  Appends go through
  write + flush + ``fsync`` under a per-shard advisory file lock
  (``fcntl``/``msvcrt``, with a lockfile spin fallback), and the loader
  *quarantines* corrupt or truncated lines — skip, count, report via
  :meth:`ResultStore.health` — instead of raising.  A writer killed
  mid-append loses at most its own last line.
* **Concurrent writers are safe.**  The per-shard locks serialise
  appends from multiple processes; duplicate fingerprints (two campaigns
  racing on the same run) resolve deterministically: the last line wins.
* **Stores are migratable and compactable.**  The legacy single-file
  layout (``results.jsonl``) is auto-detected and stays readable;
  :meth:`ResultStore.compact` rewrites everything into clean shards
  atomically (temp file + rename, per shard, under the shard's lock),
  dropping duplicate-fingerprint lines and quarantined garbage.

Failed runs are persisted too: a :class:`RunResult` whose ``kind`` is
``"failed"`` carries the error and traceback of a run that exhausted its
retry budget, so ``status``/``report`` can show failure rows.  A failed
record never satisfies a cache lookup in the runner — re-running the
campaign retries the run, and a success overwrites the failure by the
last-line-wins rule.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field

RESULTS_FILENAME = "results.jsonl"
SHARDS_DIRNAME = "shards"
META_FILENAME = "store.json"
DEFAULT_SHARD_COUNT = 16

#: Record kinds a store line may carry.
KIND_RESULT = "result"
KIND_FAILED = "failed"

try:  # POSIX advisory locks
    import fcntl
except ImportError:  # pragma: no cover - platform dependent
    fcntl = None
try:  # Windows advisory locks
    import msvcrt
except ImportError:  # pragma: no cover - platform dependent
    msvcrt = None


@dataclass
class RunResult:
    """The structured outcome of one simulation run.

    ``stats`` is the engine's statistics summary (cycles, CPI, stalls,
    retirement counters); ``generation`` is the
    :class:`~repro.core.generator.GenerationReport` summary, which carries
    the schedule/codegen cache hit indicators; ``memory`` is the memory
    system's :meth:`~repro.memory.memory_system.MemorySystem.statistics_summary`
    (per-level hit/miss/writeback counters and rates — empty for results
    stored before the field existed).  ``cached`` is transient: it marks
    results served from a store instead of executed, and is never
    persisted as ``True``.

    ``kind`` distinguishes successful ``"result"`` records from
    ``"failed"`` ones; a failed record holds the error summary and full
    traceback in ``error``/``error_details`` and the number of
    ``attempts`` the runner spent before giving up.
    """

    fingerprint: str
    campaign: str
    run_id: str
    processor: str
    workload: str
    scale: int
    engine: str
    backend: str
    repeat: int
    cycles: int
    instructions: int
    final_r0: int
    finish_reason: str
    wall_seconds: float
    stats: dict = field(default_factory=dict)
    generation: dict = field(default_factory=dict)
    memory: dict = field(default_factory=dict)
    worker_pid: int = 0
    cached: bool = False
    kind: str = KIND_RESULT
    error: str = ""
    error_details: str = ""
    attempts: int = 1

    @property
    def ok(self):
        """True for a successful run record, False for a ``"failed"`` row."""
        return self.kind != KIND_FAILED

    @property
    def cpi(self):
        # A zero-instruction run (failed row, budget of zero) has no
        # measurable CPI; degrade to 0.0 rather than leaking inf into
        # tables and CSV/JSON exports (the zero-wall-guard convention).
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions

    @property
    def cycles_per_second(self):
        if self.wall_seconds <= 0:
            return 0.0
        return self.cycles / self.wall_seconds

    def to_json_dict(self):
        data = asdict(self)
        data.pop("cached")
        return data

    @classmethod
    def from_json_dict(cls, data):
        known = {name for name in cls.__dataclass_fields__ if name != "cached"}
        return cls(**{key: value for key, value in data.items() if key in known})


@dataclass(frozen=True)
class QuarantinedLine:
    """One store line the loader could not parse (and skipped)."""

    file: str
    line: int
    reason: str
    sample: str


@dataclass(frozen=True)
class CompactionReport:
    """What :meth:`ResultStore.compact` did."""

    results: int
    shards: int
    duplicates_dropped: int
    quarantined_dropped: int
    migrated_legacy: bool


def shard_index(fingerprint, shard_count):
    """The shard a fingerprint lives in: its leading hex digits, mod count.

    Campaign fingerprints are sha256 hex, so the prefix is uniform;
    anything else (hand-written test fingerprints) is re-hashed so every
    string still lands deterministically in exactly one shard.
    """
    try:
        prefix = int(fingerprint[:8], 16)
    except (ValueError, TypeError):
        digest = hashlib.sha256(str(fingerprint).encode("utf-8")).hexdigest()
        prefix = int(digest[:8], 16)
    return prefix % shard_count


class ShardLock:
    """An advisory, cross-process exclusive lock on one store file.

    Locking goes through ``fcntl.flock`` (POSIX) or ``msvcrt.locking``
    (Windows) on a sidecar ``*.lock`` file; when neither is available the
    sidecar itself is the lock (``O_CREAT | O_EXCL`` spin with a stale
    timeout).  The elapsed wait is recorded on ``wait_seconds`` so the
    store can report lock contention as a metric.
    """

    def __init__(self, path, timeout=30.0, poll_seconds=0.005):
        self.path = os.fspath(path) + ".lock"
        self.timeout = timeout
        self.poll_seconds = poll_seconds
        self.wait_seconds = 0.0
        self._fd = None
        self._exclusive_file = False

    def acquire(self):
        start = time.perf_counter()
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        if fcntl is not None:
            self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        elif msvcrt is not None:  # pragma: no cover - Windows only
            self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT)
            deadline = start + self.timeout
            while True:
                try:
                    os.lseek(self._fd, 0, os.SEEK_SET)
                    msvcrt.locking(self._fd, msvcrt.LK_NBLCK, 1)
                    break
                except OSError:
                    if time.perf_counter() > deadline:
                        os.close(self._fd)
                        self._fd = None
                        raise TimeoutError("timed out locking %s" % self.path) from None
                    time.sleep(self.poll_seconds)
        else:  # pragma: no cover - exercised via _force_fallback in tests
            self._acquire_fallback(start)
        self.wait_seconds = time.perf_counter() - start
        return self

    def _acquire_fallback(self, start):
        """Lockfile spin: the sidecar's existence is the lock."""
        deadline = start + self.timeout
        while True:
            try:
                self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_EXCL)
                self._exclusive_file = True
                return
            except FileExistsError:
                if time.perf_counter() > deadline:
                    # Assume the holder died; break the stale lock.
                    with contextlib.suppress(OSError):
                        os.unlink(self.path)
                    deadline = time.perf_counter() + self.timeout
                time.sleep(self.poll_seconds)

    def release(self):
        if self._fd is None:
            return
        try:
            if self._exclusive_file:
                os.close(self._fd)
                with contextlib.suppress(OSError):
                    os.unlink(self.path)
            elif fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
                os.close(self._fd)
            elif msvcrt is not None:  # pragma: no cover - Windows only
                os.lseek(self._fd, 0, os.SEEK_SET)
                msvcrt.locking(self._fd, msvcrt.LK_UNLCK, 1)
                os.close(self._fd)
        finally:
            self._fd = None
            self._exclusive_file = False

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc_info):
        self.release()


class ResultStore:
    """Fingerprint-keyed store of :class:`RunResult`s on disk.

    The in-memory index is loaded lazily and kept in sync with appends.
    On duplicate fingerprints (e.g. a store written by two concurrent
    campaigns) the **last line wins**: the index keeps the values of the
    most recently appended record under the key position of the *first*
    appearance, so iteration order stays stable while contents reflect
    the newest write.  :meth:`results` documents (and tests pin) exactly
    that contract.
    """

    def __init__(self, path, shard_count=None):
        self.path = os.fspath(path)
        self._index = None
        self._quarantined = ()
        self._requested_shard_count = shard_count
        self._shard_count = None
        #: Cross-process lock bookkeeping, for the campaign metrics snapshot.
        self.counters = {"lock_wait_seconds": 0.0, "lock_acquisitions": 0}

    # -- layout ---------------------------------------------------------------
    @property
    def results_path(self):
        """The legacy single-file location (kept readable, never written)."""
        return os.path.join(self.path, RESULTS_FILENAME)

    @property
    def shards_path(self):
        return os.path.join(self.path, SHARDS_DIRNAME)

    @property
    def meta_path(self):
        return os.path.join(self.path, META_FILENAME)

    @property
    def shard_count(self):
        if self._shard_count is None:
            meta = self._read_meta()
            if meta and isinstance(meta.get("shard_count"), int) and meta["shard_count"] > 0:
                self._shard_count = meta["shard_count"]
            else:
                self._shard_count = self._requested_shard_count or DEFAULT_SHARD_COUNT
        return self._shard_count

    def _read_meta(self):
        try:
            with open(self.meta_path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def _write_meta(self):
        payload = {"layout_version": 1, "shard_count": self.shard_count}
        tmp = self.meta_path + ".tmp.%d" % os.getpid()
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.meta_path)

    def shard_path(self, fingerprint):
        """The shard file a fingerprint's record belongs in."""
        return os.path.join(
            self.shards_path, "%03d.jsonl" % shard_index(fingerprint, self.shard_count)
        )

    def _shard_files(self):
        try:
            names = sorted(os.listdir(self.shards_path))
        except FileNotFoundError:
            return []
        return [
            os.path.join(self.shards_path, name)
            for name in names
            if name.endswith(".jsonl")
        ]

    def layout(self):
        """``"sharded"``, ``"legacy"``, ``"mixed"`` or ``"empty"``."""
        legacy = os.path.exists(self.results_path)
        sharded = bool(self._shard_files())
        if legacy and sharded:
            return "mixed"
        if sharded:
            return "sharded"
        if legacy:
            return "legacy"
        return "empty"

    # -- loading --------------------------------------------------------------
    def _load_file(self, path, index, quarantined):
        try:
            handle = open(path, encoding="utf-8")
        except FileNotFoundError:
            return
        relative = os.path.relpath(path, self.path)
        with handle:
            for lineno, line in enumerate(handle, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    data = json.loads(text)
                    if not isinstance(data, dict):
                        raise ValueError("line is not a JSON object")
                    result = RunResult.from_json_dict(data)
                except Exception as error:  # corrupt/truncated: quarantine
                    quarantined.append(
                        QuarantinedLine(
                            file=relative,
                            line=lineno,
                            reason="%s: %s" % (type(error).__name__, error),
                            sample=text[:120],
                        )
                    )
                    continue
                index[result.fingerprint] = result

    def _ensure_loaded(self):
        if self._index is not None:
            return self._index
        index = {}
        quarantined = []
        # Legacy first, shards after: appends always land in shards, so on
        # duplicate fingerprints the shard (newer) record wins.
        self._load_file(self.results_path, index, quarantined)
        for path in self._shard_files():
            self._load_file(path, index, quarantined)
        self._index = index
        self._quarantined = tuple(quarantined)
        return index

    def load(self):
        """The full fingerprint → :class:`RunResult` index (reads the files once)."""
        return dict(self._ensure_loaded())

    def refresh(self):
        """Drop the in-memory index; the next access re-reads the files."""
        self._index = None
        self._quarantined = ()

    # -- writing --------------------------------------------------------------
    def append(self, result):
        """Persist one result as one JSON line, crash- and race-safe.

        The line goes to the fingerprint's shard under that shard's
        advisory lock and is flushed and ``fsync``'d before the lock is
        released, so a concurrent writer can never interleave mid-line
        and a killed writer can lose only a line the OS never promised.
        A torn tail left by a killed writer (no trailing newline) is
        sealed with a newline first, so the junk stays its own
        quarantined line instead of corrupting this record too.
        """
        os.makedirs(self.shards_path, exist_ok=True)
        if not os.path.exists(self.meta_path):
            self._write_meta()
        path = self.shard_path(result.fingerprint)
        line = json.dumps(result.to_json_dict(), sort_keys=True) + "\n"
        with ShardLock(path) as lock, open(path, "ab") as handle:
            if handle.tell() > 0:
                with open(path, "rb") as reader:
                    reader.seek(-1, os.SEEK_END)
                    if reader.read(1) != b"\n":
                        handle.write(b"\n")
            handle.write(line.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        self.counters["lock_wait_seconds"] += lock.wait_seconds
        self.counters["lock_acquisitions"] += 1
        self._ensure_loaded()[result.fingerprint] = result

    # -- health and compaction ------------------------------------------------
    def quarantined(self):
        """The :class:`QuarantinedLine`s the last load skipped."""
        self._ensure_loaded()
        return self._quarantined

    def health(self):
        """Store health as plain data (the ``fsck`` subcommand's payload)."""
        index = self._ensure_loaded()
        failed = sum(1 for result in index.values() if not result.ok)
        return {
            "path": self.path,
            "layout": self.layout(),
            "shard_count": self.shard_count,
            "shard_files": len(self._shard_files()),
            "results": len(index),
            "ok": len(index) - failed,
            "failed": failed,
            "quarantined": len(self._quarantined),
            "quarantined_lines": [asdict(line) for line in self._quarantined],
        }

    def compact(self, shard_count=None):
        """Rewrite the store as clean shards; returns a :class:`CompactionReport`.

        Compaction migrates a legacy ``results.jsonl`` store to the
        sharded layout, drops duplicate-fingerprint lines (keeping the
        last write, like the loader) and sheds quarantined garbage.  Each
        shard is rewritten atomically — temp file, ``fsync``, rename —
        under the shard's advisory lock, so concurrent appenders are
        serialised per shard and a crash mid-compaction leaves only
        intact files behind.  The surviving index is bit-identical to
        what :meth:`load` returned before compaction.
        """
        self.refresh()
        raw_lines = self._count_data_lines()
        index = self._ensure_loaded()
        quarantined = len(self._quarantined)
        if shard_count is not None and shard_count > 0:
            self._shard_count = shard_count
        migrated = os.path.exists(self.results_path)

        buckets = {}
        for fingerprint, result in index.items():
            buckets.setdefault(
                shard_index(fingerprint, self.shard_count), []
            ).append(result)

        os.makedirs(self.shards_path, exist_ok=True)
        stale = {
            os.path.join(self.shards_path, name)
            for name in os.listdir(self.shards_path)
            if name.endswith(".jsonl")
        }
        for idx, results in sorted(buckets.items()):
            path = os.path.join(self.shards_path, "%03d.jsonl" % idx)
            tmp = path + ".tmp.%d" % os.getpid()
            with ShardLock(path):
                with open(tmp, "w", encoding="utf-8") as handle:
                    for result in results:
                        handle.write(
                            json.dumps(result.to_json_dict(), sort_keys=True) + "\n"
                        )
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            stale.discard(path)
        for path in sorted(stale):
            with ShardLock(path), contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        if migrated:
            with ShardLock(self.results_path), contextlib.suppress(FileNotFoundError):
                os.unlink(self.results_path)
        self._write_meta()
        self.refresh()
        return CompactionReport(
            results=len(index),
            shards=len(buckets),
            duplicates_dropped=max(raw_lines - quarantined - len(index), 0),
            quarantined_dropped=quarantined,
            migrated_legacy=migrated,
        )

    def _count_data_lines(self):
        """Non-blank line count across every store file (for compaction stats)."""
        total = 0
        for path in [self.results_path, *self._shard_files()]:
            try:
                with open(path, encoding="utf-8") as handle:
                    total += sum(1 for line in handle if line.strip())
            except FileNotFoundError:
                continue
        return total

    # -- mapping-style access --------------------------------------------------
    def get(self, fingerprint):
        return self._ensure_loaded().get(fingerprint)

    def __contains__(self, fingerprint):
        return fingerprint in self._ensure_loaded()

    def __len__(self):
        return len(self._ensure_loaded())

    def results(self):
        """All stored records, in stable first-appended order.

        Duplicate fingerprints collapse to a single entry whose *values*
        come from the last line written (last write wins) while the
        *position* is where the fingerprint first appeared — re-appending
        a run updates it in place without reshuffling the sequence.
        Includes ``"failed"`` records; filter on :attr:`RunResult.ok` for
        successful runs only.
        """
        return tuple(self._ensure_loaded().values())

    def fingerprints(self):
        return tuple(self._ensure_loaded())
