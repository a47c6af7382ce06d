"""Content-addressed, fault-tolerant persistence for campaign results.

A :class:`ResultStore` is a directory holding one append-only JSON-lines
file, ``results.jsonl``: one line per completed run, keyed by the run's
content fingerprint.  Appending is the only write operation, so a store
survives interrupted campaigns (every line already written is a finished
run) and re-running a campaign against the same store skips every
fingerprint it already holds — incremental experiments for free.  Any
other file in the store directory is ignored.

The layer is built to survive the failure modes a long-running sweep
harness actually hits:

* **Torn writes never brick a store.**  Each append is a single
  ``O_APPEND`` write followed by ``fsync``, and the loader *quarantines*
  corrupt or truncated lines — skip, count, report via
  :meth:`ResultStore.quarantined` — instead of raising.  A writer killed
  mid-append loses at most its own last line, and the next append seals
  that torn tail so the junk stays on a line of its own.
* **Concurrent appends do not interleave.**  On POSIX, ``O_APPEND``
  places every ``write`` whole at the end of the file, so two campaigns
  appending to one store at once cannot splice their lines.  Duplicate
  fingerprints resolve deterministically: the last line wins.

Failed runs are persisted too: a :class:`RunResult` whose ``kind`` is
``"failed"`` carries the error and traceback of a run that raised, so
``status``/``report`` can show failure rows.  A failed record never
satisfies a cache lookup in the runner — re-running the campaign
re-executes the run, and a success overwrites the failure by the
last-line-wins rule.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

RESULTS_FILENAME = "results.jsonl"

#: Record kinds a store line may carry.
KIND_RESULT = "result"
KIND_FAILED = "failed"


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
    traceback in ``error``/``error_details``.  Unknown fields are dropped
    on load, so rows written by older versions, with fields since retired,
    still load.
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
    """One ``results.jsonl`` line the loader could not parse (and skipped)."""

    line: int
    reason: str
    sample: str


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

    def __init__(self, path):
        self.path = os.fspath(path)
        self._index = None
        self._quarantined = ()

    @property
    def results_path(self):
        return os.path.join(self.path, RESULTS_FILENAME)

    # -- loading --------------------------------------------------------------
    def _ensure_loaded(self):
        if self._index is not None:
            return self._index
        index = {}
        quarantined = []
        try:
            with open(self.results_path, encoding="utf-8") as handle:
                lines = handle.read().split("\n")
        except FileNotFoundError:
            lines = ()
        for lineno, line in enumerate(lines, start=1):
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
                        line=lineno,
                        reason="%s: %s" % (type(error).__name__, error),
                        sample=text[:120],
                    )
                )
                continue
            index[result.fingerprint] = result
        self._index = index
        self._quarantined = tuple(quarantined)
        return index

    def load(self):
        """The full fingerprint → :class:`RunResult` index (reads the file once)."""
        return dict(self._ensure_loaded())

    def refresh(self):
        """Drop the in-memory index; the next access re-reads the file."""
        self._index = None
        self._quarantined = ()

    # -- writing --------------------------------------------------------------
    def append(self, result):
        """Persist one result as one JSON line, crash-safe.

        The line goes to ``results.jsonl`` in one ``O_APPEND`` write and is
        ``fsync``'d before this returns, so a concurrent appender cannot
        interleave mid-line and a killed writer loses only its own line.
        A torn tail left by a killed writer (no trailing newline) is sealed
        with a newline in the same write, so the junk stays its own
        quarantined line.  A short write raises :class:`OSError` and is
        never retried: a second write could split the line.
        """
        index = self._ensure_loaded()
        data = (json.dumps(result.to_json_dict(), sort_keys=True) + "\n").encode("utf-8")
        os.makedirs(self.path, exist_ok=True)
        fd = os.open(self.results_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            if os.fstat(fd).st_size > 0:
                with open(self.results_path, "rb") as reader:
                    reader.seek(-1, os.SEEK_END)
                    if reader.read(1) != b"\n":
                        data = b"\n" + data
            written = os.write(fd, data)
            if written != len(data):
                raise OSError("short write to %s: %d of %d bytes" % (self.results_path, written, len(data)))
            os.fsync(fd)
        finally:
            os.close(fd)
        index[result.fingerprint] = result

    def quarantined(self):
        """The :class:`QuarantinedLine`s the last load skipped."""
        self._ensure_loaded()
        return self._quarantined

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
