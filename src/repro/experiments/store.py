"""Digest-keyed, resumable run store for experiment artefacts.

A :class:`RunStore` is a directory of completed pipeline stages, each keyed
by the :func:`~repro.experiments.digest.config_digest` of its resolved
configuration::

    <root>/
        <stage>/<digest>/
            entry.json     # stage, digest, canonical config, created_unix
            result.json    # the stage's JSON result payload
            <name>.npz     # optional network / array artefacts

``stage`` names the kind of work (``train``, ``evaluate``, ``verify``,
...), and the digest covers everything that determines the stage's output
-- scenario parameters, :class:`~repro.core.config.CocktailConfig`, seeds,
engine and vectorization widths -- so :meth:`RunStore.run_cells` can
answer an unchanged request from disk instead of recomputing it.

Entries are written atomically: artefacts land in a temporary sibling
directory that is renamed into place only once ``result.json`` exists, so
a run killed mid-cell leaves at most an ignorable ``.tmp`` directory and a
subsequent ``--resume`` recomputes exactly the missing cells.  Timestamps
live in ``entry.json`` only; ``result.json`` is a deterministic function
of the work, which is what the byte-stability regression tests pin.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.digest import canonicalize, config_digest

PathLike = Union[str, Path]

_ENTRY_FILE = "entry.json"
_RESULT_FILE = "result.json"
_TMP_PREFIX = ".tmp-"
_CLAIMS_DIR = ".claims"
_CLAIM_SUFFIX = ".claim"

#: Default seconds before a claim with no heartbeat counts as abandoned.
DEFAULT_CLAIM_LEASE = 60.0

#: Poll period while waiting for another worker's claim to clear.
_CLAIM_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class RunKey:
    """Identity of one pipeline stage: its kind plus its config digest."""

    stage: str
    digest: str
    config: Dict

    def __post_init__(self) -> None:
        if not self.stage or "/" in self.stage or self.stage.startswith("."):
            raise ValueError(f"bad stage name {self.stage!r}")


@dataclass(frozen=True)
class CellOutcome:
    """What :meth:`RunStore.run_cells` did with one key.

    ``status`` is ``"cached"`` (restored from the store), ``"computed"``,
    ``"skipped"`` (another live worker holds the claim) or ``"missing"``
    (offline, and the store lacks the entry).  ``payload`` is the stored
    result, or the fresh one when it was not cacheable; skipped and missing
    keys have none.  ``stale_takeover`` marks a claim won from a dead worker.
    """

    key: RunKey
    status: str
    payload: Optional[Dict] = None
    stale_takeover: bool = False


class ClaimBoard:
    """Atomic claim files coordinating concurrent workers over one store.

    A claim marks a :class:`RunKey` as *being computed* so that shards
    sharing a run directory never duplicate in-flight work: claims are
    plain files under ``<root>/.claims/`` created with ``O_EXCL`` (atomic
    on POSIX filesystems), so exactly one worker wins each cell.  The file
    mtime doubles as the claim's heartbeat; :meth:`hold` refreshes it from
    a background thread during long computations, and a claim whose
    heartbeat is older than ``lease_seconds`` counts as abandoned (its
    worker was killed) and may be taken over by any other worker.

    Takeover is itself race-free: the stale file is first renamed to a
    unique tombstone -- only one renamer can win, everyone else sees
    ``FileNotFoundError`` -- and the winner then recreates the claim with
    ``O_EXCL``.  Claims are *advisory*: the store's digest-keyed atomic
    publish stays the source of truth, so even a duplicated computation
    (e.g. two hosts with skewed clocks) is idempotent, merely wasted work.

    For observability the board counts stale-lease ``takeovers`` and flags
    whether the most recent successful :meth:`acquire` reaped a dead
    worker's claim (:attr:`last_acquire_was_takeover` -- telemetry marks
    the resulting steal as ``stale``); an optional ``observer`` callback
    receives ``(action, key)`` for every ``"claim"``, ``"release"`` and
    ``"stale-takeover"``.
    """

    def __init__(self, root: PathLike, owner: str, lease_seconds: float = DEFAULT_CLAIM_LEASE):
        self.root = Path(root) / _CLAIMS_DIR
        self.owner = str(owner)
        self.lease_seconds = float(lease_seconds)
        #: Heartbeat period while :meth:`hold` runs; well inside the lease.
        self.heartbeat_seconds = max(0.02, self.lease_seconds / 4.0)
        #: Stale claims this board reaped over its lifetime.
        self.takeovers = 0
        #: Optional ``(action, key)`` callback for claim-lifecycle events.
        self.observer: Optional[Callable[[str, RunKey], None]] = None
        self._last_acquire_was_takeover = False

    @property
    def last_acquire_was_takeover(self) -> bool:
        """Whether the latest successful acquire displaced a stale claim."""

        return self._last_acquire_was_takeover

    def _notify(self, action: str, key: RunKey) -> None:
        if self.observer is not None:
            self.observer(action, key)

    def path(self, key: RunKey) -> Path:
        return self.root / f"{key.stage}-{key.digest}{_CLAIM_SUFFIX}"

    def holder(self, key: RunKey) -> Optional[Dict]:
        """The claim payload (owner, pid, claimed_unix), or None if unclaimed."""

        try:
            with self.path(key).open() as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def is_stale(self, key: RunKey) -> bool:
        """True when the claim exists but its heartbeat outlived the lease."""

        try:
            age = time.time() - self.path(key).stat().st_mtime
        except OSError:
            return False
        return age > self.lease_seconds

    def acquire(self, key: RunKey) -> bool:
        """Claim ``key`` for this owner; steals abandoned claims.

        Returns False when another live worker holds the claim.
        """

        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(key)
        self._last_acquire_was_takeover = False
        payload = json.dumps(
            {"owner": self.owner, "pid": os.getpid(), "claimed_unix": time.time()}
        )
        for _ in range(2):  # second attempt only after reaping a stale claim
            try:
                descriptor = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if not self._reap_if_stale(path, key):
                    return False
                continue
            with os.fdopen(descriptor, "w") as handle:
                handle.write(payload)
            self._notify("claim", key)
            return True
        return False

    def _reap_if_stale(self, path: Path, key: Optional[RunKey] = None) -> bool:
        """Remove an abandoned claim file; True when the path is now free."""

        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return True  # released (or reaped) concurrently -- retry the create
        if age <= self.lease_seconds:
            return False
        tombstone = path.with_name(f"{path.name}.stale-{uuid.uuid4().hex[:8]}")
        try:
            os.rename(path, tombstone)  # only one reaper wins the rename
        except OSError:
            return True
        tombstone.unlink(missing_ok=True)
        self.takeovers += 1
        self._last_acquire_was_takeover = True
        if key is not None:
            self._notify("stale-takeover", key)
        return True

    def release(self, key: RunKey) -> None:
        self.path(key).unlink(missing_ok=True)
        self._notify("release", key)

    def heartbeat(self, key: RunKey) -> None:
        """Refresh the claim's lease (no-op if the claim is gone)."""

        try:
            os.utime(self.path(key))
        except OSError:
            pass

    @contextlib.contextmanager
    def hold(self, keys: Union[RunKey, Sequence[RunKey]]):
        """Heartbeat ``keys`` from a background thread while the body runs."""

        held: List[RunKey] = [keys] if isinstance(keys, RunKey) else list(keys)
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(self.heartbeat_seconds):
                for key in held:
                    self.heartbeat(key)

        thread = threading.Thread(target=beat, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()


class RunStore:
    """Content-addressed store of completed pipeline stages under ``root``.

    ``hits`` / ``misses`` count how many :meth:`run_cells` keys were served
    from disk versus executed during this store object's lifetime (the
    resumability tests assert a fully warmed store answers every cell from
    cache).
    """

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # -- keys ----------------------------------------------------------
    def key(self, stage: str, config) -> RunKey:
        """Build the :class:`RunKey` for ``stage`` with resolved ``config``."""

        canonical = canonicalize(config)
        digest = config_digest({"stage": stage, "config": canonical})
        return RunKey(stage=stage, digest=digest, config=canonical)

    def entry_dir(self, key: RunKey) -> Path:
        return self.root / key.stage / key.digest

    def contains(self, key: RunKey) -> bool:
        return (self.entry_dir(key) / _RESULT_FILE).exists()

    # -- reads ---------------------------------------------------------
    def load_result(self, key: RunKey) -> Dict:
        with (self.entry_dir(key) / _RESULT_FILE).open() as handle:
            return json.load(handle)

    def load_entry(self, key: RunKey) -> Dict:
        with (self.entry_dir(key) / _ENTRY_FILE).open() as handle:
            return json.load(handle)

    def artefact_path(self, key: RunKey, name: str) -> Path:
        return self.entry_dir(key) / name

    def load_network(self, key: RunKey, name: str):
        """Reload a network artefact saved by :meth:`save` as an MLP."""

        from repro.nn.serialization import load_state_dict

        return load_state_dict(self.entry_dir(key) / f"{name}.npz")

    # -- writes --------------------------------------------------------
    def save(
        self,
        key: RunKey,
        result: Mapping,
        networks: Optional[Mapping] = None,
        files: Optional[Mapping[str, PathLike]] = None,
    ) -> Path:
        """Atomically record a completed stage (result + optional artefacts).

        ``networks`` maps artefact names to live :class:`repro.nn.MLP`
        objects (saved as ``<name>.npz``); ``files`` maps destination names
        to existing files copied into the entry.  An existing entry under
        the same key is replaced wholesale.
        """

        final = self.entry_dir(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        staging = final.parent / f"{_TMP_PREFIX}{key.digest[:16]}-{uuid.uuid4().hex[:8]}"
        staging.mkdir()
        try:
            if networks:
                from repro.nn.serialization import save_state_dict

                for name, network in networks.items():
                    save_state_dict(network, staging / f"{name}.npz")
            for name, source in (files or {}).items():
                shutil.copyfile(Path(source), staging / name)
            with (staging / _RESULT_FILE).open("w") as handle:
                json.dump(canonicalize(result), handle, indent=2, sort_keys=True)
                handle.write("\n")
            entry = {
                "stage": key.stage,
                "digest": key.digest,
                "config": key.config,
                "created_unix": time.time(),
            }
            with (staging / _ENTRY_FILE).open("w") as handle:
                json.dump(entry, handle, indent=2, sort_keys=True)
                handle.write("\n")
            if final.exists():
                shutil.rmtree(final)
            os.replace(staging, final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return final

    def get_or_run(self, key: RunKey, fn: Callable, force: bool = False) -> Dict:
        """Return the stored result for ``key``, running ``fn`` on a miss.

        The unclaimed single-key case of :meth:`run_cells`: ``fn()`` returns
        the result, or ``(result, networks)``; ``force=True`` always
        executes and overwrites.
        """

        (outcome,) = self.run_cells([key], lambda indices: [fn()], force=force)
        return outcome.payload

    def run_cells(
        self,
        keys: Sequence[RunKey],
        compute: Callable[[List[int]], Sequence],
        claims: Optional[ClaimBoard] = None,
        force: bool = False,
        offline: bool = False,
        wait: Optional[Callable[[], bool]] = None,
        cacheable: Optional[Callable[[int, Dict], bool]] = None,
    ) -> List[CellOutcome]:
        """Restore, claim, compute and publish a batch of cells; one outcome per key.

        Each key is restored when ``force`` is off and the store holds it;
        otherwise it is ``missing`` when ``offline``; otherwise it is claimed
        on ``claims`` (unsharded runs have no board and skip claiming) and
        re-checked after acquiring, so an entry published meanwhile is
        restored rather than recomputed.  A key another live worker holds is
        ``skipped``, unless ``wait()``, asked before each poll, keeps it
        polling until the claim clears.

        ``compute(indices)`` runs once per round over the claimed positions
        into ``keys``, under :meth:`ClaimBoard.hold`, and returns one result
        per index (any other count raises ``ValueError``): the JSON-able
        result dictionary, or ``(result, networks)`` when the stage also saves
        network artefacts.  Results for which
        ``cacheable(index, result)`` is false are returned but not published.
        Claims are released on every path, so a raising ``compute`` leaves
        no claim and publishes nothing.
        """

        outcomes: List[Optional[CellOutcome]] = [None] * len(keys)
        pending = list(range(len(keys)))
        while True:
            claimed: List[int] = []
            takeover: Dict[int, bool] = {}
            busy: List[int] = []
            try:
                for index in pending:
                    key = keys[index]
                    if not force and self.contains(key):
                        outcomes[index] = self._restore(key)
                    elif offline:
                        outcomes[index] = CellOutcome(key, "missing")
                    elif claims is None:
                        claimed.append(index)
                    elif claims.acquire(key):
                        takeover[index] = claims.last_acquire_was_takeover
                        if not force and self.contains(key):  # published while acquiring
                            claims.release(key)
                            outcomes[index] = self._restore(key)
                        else:
                            claimed.append(index)
                    else:
                        busy.append(index)
                if claimed:
                    hold = (
                        claims.hold([keys[index] for index in claimed])
                        if claims is not None
                        else contextlib.nullcontext()
                    )
                    with hold:
                        produced = list(compute(list(claimed)))
                        if len(produced) != len(claimed):
                            raise ValueError(
                                f"compute returned {len(produced)} results for "
                                f"{len(claimed)} claimed cells"
                            )
                        for index, result in zip(claimed, produced):
                            outcomes[index] = self._publish(
                                keys[index], index, result, cacheable, takeover.get(index, False)
                            )
            finally:
                if claims is not None:
                    for index in claimed:
                        claims.release(keys[index])
            if not busy or wait is None or not wait():
                break
            time.sleep(_CLAIM_POLL_SECONDS)
            pending = busy
        for index in busy:
            outcomes[index] = CellOutcome(keys[index], "skipped")
        return outcomes

    def _restore(self, key: RunKey) -> CellOutcome:
        self.hits += 1
        return CellOutcome(key, "cached", self.load_result(key))

    def _publish(self, key: RunKey, index: int, result, cacheable, stale: bool) -> CellOutcome:
        self.misses += 1
        networks = None
        if isinstance(result, tuple):
            result, networks = result
        if cacheable is None or cacheable(index, result):
            self.save(key, result, networks=networks)
            result = self.load_result(key)
        return CellOutcome(key, "computed", result, stale_takeover=stale)

    # -- coordination --------------------------------------------------
    def claims(self, owner: str, lease_seconds: float = DEFAULT_CLAIM_LEASE) -> ClaimBoard:
        """A :class:`ClaimBoard` for this store (shared ``.claims/`` dir)."""

        return ClaimBoard(self.root, owner=owner, lease_seconds=lease_seconds)

    def missing(self, keys: Iterable[RunKey]) -> List[RunKey]:
        """The subset of ``keys`` with no complete entry (merge precondition)."""

        return [key for key in keys if not self.contains(key)]

    # -- inspection ----------------------------------------------------
    def stages(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir() if p.is_dir() and not p.name.startswith("."))

    def entries(self, stage: Optional[str] = None) -> List[Dict]:
        """Every complete entry (its ``entry.json`` plus path and size)."""

        rows: List[Dict] = []
        for stage_name in [stage] if stage is not None else self.stages():
            stage_dir = self.root / stage_name
            if not stage_dir.is_dir():
                continue
            for entry_dir in sorted(stage_dir.iterdir()):
                if not entry_dir.is_dir() or entry_dir.name.startswith("."):
                    continue
                entry_file = entry_dir / _ENTRY_FILE
                if not entry_file.exists() or not (entry_dir / _RESULT_FILE).exists():
                    continue
                with entry_file.open() as handle:
                    entry = json.load(handle)
                entry["path"] = str(entry_dir)
                entry["files"] = sorted(p.name for p in entry_dir.iterdir() if p.is_file())
                entry["bytes"] = sum(p.stat().st_size for p in entry_dir.iterdir() if p.is_file())
                rows.append(entry)
        return rows

    def find(self, digest_prefix: str) -> List[Dict]:
        """Complete entries whose digest starts with ``digest_prefix``."""

        prefix = digest_prefix.lower()
        return [entry for entry in self.entries() if str(entry.get("digest", "")).startswith(prefix)]

    def gc(self, stages: Optional[List[str]] = None, dry_run: bool = False) -> Tuple[List[Path], List[Path]]:
        """Collect garbage: incomplete entries always, whole stages on request.

        Returns ``(incomplete, removed_entries)`` -- the staging/incomplete
        directories swept and the complete entries deleted because their
        stage was listed in ``stages``.  Claim debris left by sharded runs
        (takeover tombstones, and claims whose entry was published -- a
        worker died between publish and release) counts as incomplete.
        ``dry_run=True`` only reports.
        """

        incomplete: List[Path] = []
        removed: List[Path] = []
        for stage_name in self.stages():
            stage_dir = self.root / stage_name
            for entry_dir in sorted(stage_dir.iterdir()):
                if not entry_dir.is_dir():
                    continue
                if entry_dir.name.startswith(_TMP_PREFIX) or not (entry_dir / _RESULT_FILE).exists():
                    incomplete.append(entry_dir)
                elif stages and stage_name in stages:
                    removed.append(entry_dir)
        claims_dir = self.root / _CLAIMS_DIR
        if claims_dir.is_dir():
            for claim in sorted(claims_dir.iterdir()):
                if not claim.is_file():
                    continue
                if ".stale-" in claim.name:
                    incomplete.append(claim)
                elif claim.name.endswith(_CLAIM_SUFFIX):
                    stage_name, _, digest = claim.name[: -len(_CLAIM_SUFFIX)].rpartition("-")
                    if (self.root / stage_name / digest / _RESULT_FILE).exists():
                        incomplete.append(claim)
        if not dry_run:
            for path in incomplete + removed:
                if path.is_dir():
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    path.unlink(missing_ok=True)
        return incomplete, removed
