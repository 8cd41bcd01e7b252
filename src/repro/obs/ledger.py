"""Per-run provenance ledger: ``runs/<run_id>/manifest.json``.

Every ``repro experiment`` / ``repro run-all`` invocation (and every
``repro serve`` / ``repro serve-bench``) gets a directory under the
runs root::

    runs/
      3f9a2c41be07/
        manifest.json        <- provenance + telemetry summary
        events.jsonl         <- parent-process span/counter events
        events-w4231.jsonl   <- one file per pool worker (jobs > 1)

The manifest is written twice: a minimal ``status: "running"`` stub at
launch (so a crashed run is visible as incomplete in ``repro runs
list``) and the full document at exit — CLI argv, config, corpus
profile, span totals, histogram p50/p90/p99 summaries, counters and
gauges, the failure report, and any section a command records (e.g.
the serve-bench payload).  It is plain
JSON (no integrity envelope) so external tooling can read it directly.

The runs root resolves like the memo cache: explicit argument, else
``$REPRO_RUNS_DIR``, else ``./runs``.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from typing import Dict, List, Optional

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = 1

MANIFEST_NAME = "manifest.json"
RUNS_DIR_ENV = "REPRO_RUNS_DIR"
DEFAULT_RUNS_DIR = "runs"

#: A ``running`` stub older than this (and whose liveness cannot be
#: probed, e.g. written on another host) is rendered as ``stale``.
STALE_AFTER_SECONDS = 6 * 3600.0


def resolve_runs_dir(runs_dir: Optional[str] = None) -> str:
    """Explicit argument, else ``$REPRO_RUNS_DIR``, else ``./runs``."""
    if runs_dir is not None:
        return runs_dir
    env = os.environ.get(RUNS_DIR_ENV)
    if env:
        return env
    return os.path.join(os.getcwd(), DEFAULT_RUNS_DIR)


def _atomic_write_json(path: str, document: Dict[str, object]) -> None:
    # Unique temp names (pid + tid + sequence) keep concurrent writers
    # of one manifest from tearing each other's temp file — see
    # repro.resilience.integrity.unique_tmp_path.
    from repro.resilience.integrity import unique_tmp_path

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = unique_tmp_path(path)
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True, default=str)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class RunLedger:
    """One run's directory, manifest, and event-file locations."""

    def __init__(self, runs_dir: str, run_id: str) -> None:
        self.runs_dir = runs_dir
        self.run_id = run_id
        self.dir = os.path.join(runs_dir, run_id)
        self._extra: Dict[str, object] = {}
        self._base: Dict[str, object] = {}
        self._started = time.time()

    # -- paths ----------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.dir, MANIFEST_NAME)

    @property
    def events_path(self) -> str:
        """The parent process's event file (workers get their own)."""
        return os.path.join(self.dir, "events.jsonl")

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def create(
        cls,
        runs_dir: str,
        kind: str,
        argv: List[str],
        config: Optional[Dict[str, object]] = None,
        run_id: Optional[str] = None,
    ) -> "RunLedger":
        """Allocate the run directory and write the ``running`` stub."""
        ledger = cls(runs_dir, run_id if run_id else uuid.uuid4().hex[:12])
        os.makedirs(ledger.dir, exist_ok=True)
        ledger._base = {
            "schema": MANIFEST_SCHEMA,
            "run_id": ledger.run_id,
            "kind": kind,
            "argv": list(argv),
            "config": dict(config or {}),
            "started_at": ledger._started,
            "started_at_iso": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(ledger._started)
            ),
            # Liveness identity for the `running` stub: lets `repro
            # runs list` tell a live run from one that crashed before
            # finalize (dead pid -> rendered as `stale`).
            "pid": os.getpid(),
            "host": socket.gethostname(),
        }
        _atomic_write_json(
            ledger.manifest_path, {**ledger._base, "status": "running"}
        )
        return ledger

    def record(self, key: str, value: object) -> None:
        """Attach an extra manifest section (failures, serve-bench payload, …)."""
        self._extra[key] = value

    def finalize(
        self,
        instr=None,
        exit_code: Optional[int] = None,
        status: str = "ok",
    ) -> Dict[str, object]:
        """Write the full manifest; returns the written document.

        ``instr`` (an :class:`~repro.obs.Instrumentation`) contributes
        span totals, histogram summaries, counters and gauges; pass
        ``None`` for runs with no instrumentation.
        """
        finished = time.time()
        document: Dict[str, object] = {
            **self._base,
            "status": status,
            "exit_code": exit_code,
            "finished_at": finished,
            "duration_seconds": finished - self._started,
        }
        if instr is not None:
            snapshot = instr.counters.snapshot()
            document["span_totals"] = {
                name: {"calls": total.calls, "seconds": total.seconds}
                for name, total in sorted(instr.span_totals().items())
            }
            document["histograms"] = {
                name: hist.summary()
                for name, hist in sorted(instr.counters.histograms().items())
            }
            document["counters"] = snapshot["counters"]
            document["gauges"] = snapshot["gauges"]
        document.setdefault("failures", None)
        document.update(self._extra)
        _atomic_write_json(self.manifest_path, document)
        return document


# -- querying -----------------------------------------------------------


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a pid on this host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return True  # can't tell; err on the side of "alive"
    return True


def effective_status(
    manifest: Dict[str, object], now: Optional[float] = None
) -> str:
    """The manifest's status with crashed ``running`` stubs downgraded.

    The stub written at launch says ``running``; a run that crashed (or
    was SIGKILLed) never rewrites it, so without this check ``repro
    runs list`` shows the run as running forever.  A ``running``
    manifest is downgraded to ``stale`` when its recorded pid is dead
    on this host, or — for stubs written elsewhere or predating the
    pid field — when it is older than :data:`STALE_AFTER_SECONDS`.
    """
    status = str(manifest.get("status", "?"))
    if status != "running":
        return status
    pid = manifest.get("pid")
    host = manifest.get("host")
    if isinstance(pid, int) and (host is None or host == socket.gethostname()):
        return "running" if _pid_alive(pid) else "stale"
    started = manifest.get("started_at")
    try:
        age = (now if now is not None else time.time()) - float(started)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return "stale"  # a running stub with no start time is damage
    return "stale" if age > STALE_AFTER_SECONDS else "running"


def load_manifest(runs_dir: str, run_id: str) -> Optional[Dict[str, object]]:
    """Manifest of ``run_id`` (unique-prefix match), or ``None``."""
    run_dir = find_run_dir(runs_dir, run_id)
    if run_dir is None:
        return None
    path = os.path.join(run_dir, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def find_run_dir(runs_dir: str, run_id: str) -> Optional[str]:
    """Resolve a run id (or unique prefix) to its directory."""
    exact = os.path.join(runs_dir, run_id)
    if os.path.isdir(exact):
        return exact
    if not os.path.isdir(runs_dir):
        return None
    matches = [
        name
        for name in sorted(os.listdir(runs_dir))
        if name.startswith(run_id)
        and os.path.isdir(os.path.join(runs_dir, name))
    ]
    if len(matches) == 1:
        return os.path.join(runs_dir, matches[0])
    return None


def list_runs(runs_dir: str) -> List[Dict[str, object]]:
    """Every run's manifest, newest first (by start time).

    Runs whose manifest is unreadable still appear (as
    ``status: "unreadable"``) so damage is visible, not hidden.
    """
    if not os.path.isdir(runs_dir):
        return []
    manifests: List[Dict[str, object]] = []
    for name in os.listdir(runs_dir):
        run_dir = os.path.join(runs_dir, name)
        if not os.path.isdir(run_dir):
            continue
        manifest = load_manifest(runs_dir, name)
        if manifest is None:
            manifest = {"run_id": name, "status": "unreadable"}
        manifests.append(manifest)
    manifests.sort(
        key=lambda m: float(m.get("started_at", 0.0) or 0.0), reverse=True  # type: ignore[arg-type]
    )
    return manifests
