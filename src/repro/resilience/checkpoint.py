"""Checkpoint/resume manifest for experiment sweeps.

A sweep (``repro run-all`` / ``repro experiment``) writes a versioned
manifest — ``sweep-manifest.json``, wrapped in the same integrity
envelope as every other cache file — next to the result store.  The
manifest records every completed cell label and driver, so a killed
sweep restarted with ``--resume`` skips finished work without even
stat'ing the per-cell store entries, and the final
:class:`~repro.resilience.FailureReport` of a ``--keep-going`` run is
persisted for post-mortems.

Resumed and uninterrupted sweeps converge to byte-identical ``perm/``,
``eval/`` and ``metrics/`` store entries, which depend only on their
keys.  The rest of the directory does not converge: ``time/`` entries
hold measured reordering seconds, and the manifest lists the
``run_ids`` of every sweep that touched it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Set

from repro.obs import get_obs, logger
from repro.resilience.failures import FailureReport
from repro.resilience.integrity import atomic_write_payload, load_or_quarantine

MANIFEST_NAME = "sweep-manifest.json"

#: Bump when the manifest payload layout changes; older manifests are
#: ignored (the sweep restarts from the per-cell memo files alone).
MANIFEST_VERSION = 1


@dataclass
class SweepManifest:
    """Persistent record of what one sweep has finished so far."""

    cache_dir: str
    profile: str
    completed_cells: Set[str] = field(default_factory=set)
    completed_drivers: Set[str] = field(default_factory=set)
    failures: FailureReport = field(default_factory=FailureReport)
    #: Run-ledger ids of every sweep that touched this manifest —
    #: provenance linking a resumed sweep back to the ``runs/<run_id>/``
    #: directories that produced it.  Additive: absent in old manifests.
    run_ids: Set[str] = field(default_factory=set)

    @staticmethod
    def path_for(cache_dir: str) -> str:
        return os.path.join(cache_dir, MANIFEST_NAME)

    @property
    def path(self) -> str:
        return self.path_for(self.cache_dir)

    # -- construction ---------------------------------------------------

    @classmethod
    def load(cls, cache_dir: str, profile: str) -> Optional["SweepManifest"]:
        """Load a resumable manifest, or ``None`` when unusable.

        A damaged manifest is quarantined (like any cache file); a
        version or profile mismatch is logged and ignored — resuming
        then falls back to the per-cell memo files, which stay the
        ground truth either way.
        """
        path = cls.path_for(cache_dir)
        if not os.path.exists(path):
            return None
        payload = load_or_quarantine(path, cache_dir=cache_dir)
        if payload is None:
            return None
        if payload.get("manifest_version") != MANIFEST_VERSION:
            logger.warning(
                "ignoring sweep manifest %s: version %r != %d",
                path,
                payload.get("manifest_version"),
                MANIFEST_VERSION,
            )
            return None
        if payload.get("profile") != profile:
            logger.warning(
                "ignoring sweep manifest %s: profile %r != %r",
                path,
                payload.get("profile"),
                profile,
            )
            return None
        return cls(
            cache_dir=cache_dir,
            profile=profile,
            completed_cells=set(payload.get("completed_cells", ())),
            completed_drivers=set(payload.get("completed_drivers", ())),
            failures=FailureReport.from_json(
                payload.get("failures", {})  # type: ignore[arg-type]
            ),
            run_ids=set(payload.get("run_ids", ())),
        )

    @classmethod
    def for_sweep(
        cls, cache_dir: str, profile: str, resume: bool = False
    ) -> "SweepManifest":
        """The manifest a new sweep should run against.

        ``resume=True`` reloads a prior manifest when one matches;
        otherwise (or when nothing usable exists) the sweep starts a
        fresh, empty manifest.
        """
        if resume:
            loaded = cls.load(cache_dir, profile)
            if loaded is not None:
                get_obs().counter(
                    "resilience.resume.cells_in_manifest",
                    len(loaded.completed_cells),
                )
                logger.info(
                    "resuming sweep: %d cells, %d drivers already complete",
                    len(loaded.completed_cells),
                    len(loaded.completed_drivers),
                )
                # A resumed sweep retries what previously failed.
                loaded.failures = FailureReport()
                return loaded
            logger.info("no resumable sweep manifest in %s; starting fresh", cache_dir)
        return cls(cache_dir=cache_dir, profile=profile)

    # -- progress -------------------------------------------------------

    def mark_cell(self, label: str) -> None:
        self.mark_cells([label])

    def mark_cells(self, labels) -> None:
        """Record completed cells and checkpoint to disk (one write)."""
        new = [label for label in labels if label not in self.completed_cells]
        if not new:
            return
        self.completed_cells.update(new)
        self.save()

    def mark_driver(self, name: str) -> None:
        if name in self.completed_drivers:
            return
        self.completed_drivers.add(name)
        self.save()

    def record_failures(self, report: FailureReport) -> None:
        self.failures = report
        self.save()

    def add_run_id(self, run_id: str) -> None:
        """Link this sweep to its run-ledger directory (provenance)."""
        if run_id in self.run_ids:
            return
        self.run_ids.add(run_id)
        self.save()

    def save(self) -> None:
        payload = {
            "manifest_version": MANIFEST_VERSION,
            "profile": self.profile,
            "completed_cells": sorted(self.completed_cells),
            "completed_drivers": sorted(self.completed_drivers),
            "failures": self.failures.to_json(),
            "run_ids": sorted(self.run_ids),
        }
        atomic_write_payload(self.path, payload)
