"""Deterministic fault injection for the experiment stack.

The resilience machinery (retries, quarantine, keep-going) is
only trustworthy if its failure paths are exercised — so the runner and
executor expose named *fault sites*, and a :class:`FaultPlan` describes
exactly which faults to fire at them.  Production code calls
:func:`fault_point` at each site; with no plan configured that is a
single dictionary lookup.

A plan comes from the ``REPRO_FAULT_PLAN`` environment variable —
either inline JSON or a path to a JSON file (the env var propagates
into spawned pool workers automatically)::

    {
      "state_dir": "/tmp/faults",
      "faults": [
        {"site": "cell.execute", "match": "soc-forum", "action": "raise",
         "exception": "transient", "times": 2},
        {"site": "cell.execute", "action": "kill", "times": 1},
        {"site": "store.put", "match": "eval:", "action": "corrupt",
         "mode": "truncate", "times": 1},
        {"site": "cell.execute", "action": "delay", "seconds": 0.5}
      ]
    }

Known sites:

* ``cell.execute`` — immediately before a pipeline cell runs (both the
  in-process ``jobs=1`` path and pool workers); ``match`` tests against
  the cell label.
* ``store.get`` — before a verified result-store read (``corrupt``
  damages the entry so the read quarantines it; ``raise`` simulates a
  failing disk); ``match`` tests against ``kind:key-prefix``, e.g.
  ``eval:4f19c2``.
* ``store.put`` — immediately after a result-store entry is written
  (``corrupt`` damages the just-written bytes, truncate or bit-flip;
  ``raise`` simulates a failed persist, which the serve tier's store
  breaker absorbs); ``match`` tests against ``kind:key-prefix``.
* ``serve.compute`` — inside the serve tier's admitted compute path,
  before the reorder+simulate pipeline; ``match`` tests against
  ``technique|kernel``.  ``raise`` faults here drive the serve tier's
  compute circuit breaker.
* ``serve.render`` — between a successful service call and the HTTP
  response write (the lost-response path); ``match`` tests against
  ``path|store-state``.

Actions: ``raise`` (named exception), ``kill`` (``os._exit`` in pool
workers — simulating a crashed worker; in the parent process it raises
a :class:`TransientError` instead so tests don't kill themselves),
``delay`` (sleep), ``corrupt`` (damage the file at ``path``).

Determinism: each rule fires at most ``times`` times.  With a
``state_dir`` the count is shared across *processes* via exclusive
marker-file creation — a rule with ``times: 1`` fires exactly once
per sweep no matter how many workers race past the site or how often a
retried group re-runs; without one, counts are per-process, held under
a lock so threads racing past a site (serve workers) share one budget.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Type

from repro.errors import (
    CacheIntegrityError,
    CellTimeoutError,
    TransientError,
    ValidationError,
)
from repro.obs import get_obs, logger

ENV_VAR = "REPRO_FAULT_PLAN"

ACTIONS = ("raise", "kill", "delay", "corrupt")
CORRUPT_MODES = ("truncate", "flip")

#: Exception names a ``raise`` rule may ask for.
EXCEPTIONS: Dict[str, Type[BaseException]] = {
    "transient": TransientError,
    "timeout": CellTimeoutError,
    "integrity": CacheIntegrityError,
    "validation": ValidationError,
    "runtime": RuntimeError,
    "oserror": OSError,
}


@dataclass(frozen=True)
class FaultRule:
    """One fault to inject: where, what, how often."""

    site: str
    action: str
    match: str = ""
    times: int = 1
    exception: str = "transient"
    seconds: float = 0.01
    mode: str = "truncate"

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValidationError(
                f"fault action must be one of {ACTIONS}, got {self.action!r}"
            )
        if self.exception not in EXCEPTIONS:
            raise ValidationError(
                f"fault exception must be one of {sorted(EXCEPTIONS)}, "
                f"got {self.exception!r}"
            )
        if self.mode not in CORRUPT_MODES:
            raise ValidationError(
                f"corrupt mode must be one of {CORRUPT_MODES}, got {self.mode!r}"
            )
        if self.times < 1:
            raise ValidationError(f"fault times must be >= 1, got {self.times}")


class FaultPlan:
    """A parsed set of fault rules plus optional cross-process state."""

    def __init__(
        self, rules: List[FaultRule], state_dir: Optional[str] = None
    ) -> None:
        self.rules = list(rules)
        self.state_dir = state_dir

    @classmethod
    def from_document(cls, document: object) -> "FaultPlan":
        """Build from decoded JSON: a rule list or ``{state_dir, faults}``."""
        state_dir: Optional[str] = None
        if isinstance(document, dict):
            state_dir = document.get("state_dir")
            items = document.get("faults", [])
        elif isinstance(document, list):
            items = document
        else:
            raise ValidationError(
                f"fault plan must be a JSON object or array, got {type(document).__name__}"
            )
        rules = []
        for item in items:
            if not isinstance(item, dict):
                raise ValidationError(f"fault rule must be an object, got {item!r}")
            try:
                rules.append(FaultRule(**item))
            except TypeError as exc:
                raise ValidationError(f"malformed fault rule {item!r}: {exc}") from exc
        return cls(rules, state_dir=state_dir)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse inline JSON, or read a JSON file when given a path."""
        stripped = text.strip()
        if stripped.startswith("{") or stripped.startswith("["):
            source = stripped
        else:
            try:
                with open(stripped, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as exc:
                raise ValidationError(
                    f"cannot read fault plan file {stripped!r}: {exc}"
                ) from exc
        try:
            document = json.loads(source)
        except ValueError as exc:
            raise ValidationError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_document(document)


class FaultInjector:
    """Executes a plan's rules as fault sites are reached."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._fired: List[int] = [0] * len(plan.rules)
        self._lock = threading.Lock()

    def fire(self, site: str, label: str = "", path: str = "") -> None:
        for index, rule in enumerate(self.plan.rules):
            if rule.site != site:
                continue
            target = label or (os.path.basename(path) if path else "")
            if rule.match and rule.match not in target:
                continue
            if not self._claim(index, rule):
                continue
            self._act(rule, label=label, path=path)

    def _claim(self, index: int, rule: FaultRule) -> bool:
        """At-most-``times`` semantics, cross-process when state_dir set."""
        if self.plan.state_dir:
            os.makedirs(self.plan.state_dir, exist_ok=True)
            for slot in range(rule.times):
                marker = os.path.join(self.plan.state_dir, f"fault-{index}-{slot}")
                try:
                    handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    continue
                os.close(handle)
                return True
            return False
        with self._lock:
            if self._fired[index] >= rule.times:
                return False
            self._fired[index] += 1
            return True

    def _act(self, rule: FaultRule, label: str, path: str) -> None:
        where = label or path or rule.site
        get_obs().counter(f"faults.injected.{rule.action}")
        logger.warning("fault injected: %s at %s (%s)", rule.action, rule.site, where)
        if rule.action == "raise":
            raise EXCEPTIONS[rule.exception](
                f"injected {rule.exception} fault at {rule.site} ({where})"
            )
        if rule.action == "delay":
            time.sleep(rule.seconds)
            return
        if rule.action == "kill":
            if multiprocessing.parent_process() is not None:
                os._exit(86)
            raise TransientError(
                f"injected kill at {rule.site} ({where}) — "
                "in-process, raising instead of exiting"
            )
        if rule.action == "corrupt":
            _corrupt_file(path, rule.mode)


def _corrupt_file(path: str, mode: str) -> None:
    """Damage a just-written file in place (deliberately non-atomic)."""
    if not path or not os.path.exists(path):
        return
    with open(path, "rb") as handle:
        data = handle.read()
    if mode == "truncate":
        damaged = data[: len(data) // 2]
    else:
        middle = len(data) // 2
        damaged = data[:middle] + bytes([data[middle] ^ 0xFF]) + data[middle + 1 :]
    with open(path, "wb") as handle:
        handle.write(damaged)


# -- process-wide accessor ----------------------------------------------

#: (env text, injector) cache so an unchanged plan parses once per
#: process; an explicit injector installed by tests overrides the env.
_cached: "tuple[str, Optional[FaultInjector]]" = ("", None)
_override: Optional[FaultInjector] = None
#: Serializes building the env injector, so threads reaching their
#: first fault site together share one injector and its budget.
_build_lock = threading.Lock()


def get_injector() -> Optional[FaultInjector]:
    global _cached
    if _override is not None:
        return _override
    env = os.environ.get(ENV_VAR, "")
    cached = _cached
    if cached[0] == env:
        return cached[1]
    with _build_lock:
        if _cached[0] != env:
            _cached = (env, FaultInjector(FaultPlan.parse(env)) if env else None)
        return _cached[1]


def fault_point(site: str, label: str = "", path: str = "") -> None:
    """Hook called by instrumented code at a named fault site."""
    injector = get_injector()
    if injector is not None:
        injector.fire(site, label=label, path=path)


def install_injector(injector: Optional[FaultInjector]) -> None:
    """Install (or with ``None``, clear) an explicit in-process injector."""
    global _override
    _override = injector


def reset_faults() -> None:
    """Drop both the override and the parsed-env cache (test teardown)."""
    global _cached, _override
    _cached = ("", None)
    _override = None
