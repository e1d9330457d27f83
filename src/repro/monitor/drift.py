"""Per-attribute finding-rate drift detection over audit windows.

The fitted rules describe the data regime they were trained on; when the
stream's regime shifts (a feed starts mis-coding a column, an upstream
default changes), the symptom visible to the monitor is a change in the
**finding rate** — the fraction of rows the auditor flags — for the
affected attributes. :class:`DriftTracker` watches that rate window by
window and raises a :class:`DriftEvent` when a sustained, statistically
significant departure from the baseline appears.

The statistics reuse the Wilson score intervals the miners already use
for rule confidence (:mod:`repro.mining.intervals`): a window has
drifted when its Wilson interval and the baseline's interval *separate*,
i.e. ``wilson_lower(window) − wilson_upper(baseline)`` (or the mirrored
difference for a falling rate) exceeds ``threshold``. Interval
separation rather than a raw rate difference is what keeps stationary
streams quiet: small windows get wide intervals and must show a
proportionally larger swing before they can alarm.

The baseline is the mean finding rate over the first
``baseline_windows`` windows after (re)start or reset — the stream as
it looked when the current model was adopted. A single drifted window
is noise; ``sustain_windows`` *consecutive* drifted windows fire the
event, once per excursion (an alarmed attribute stays silent until its
rate recovers or :meth:`DriftTracker.reset` is called after a refit).

The tracker serializes to a plain dict (:meth:`DriftTracker.to_dict`)
so the watcher can persist it inside the watermark — drift detection
resumes mid-excursion exactly where the killed monitor left off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.errors import InputError
from repro.mining.intervals import wilson_lower, wilson_upper

__all__ = ["DriftConfig", "DriftEvent", "DriftTracker"]


@dataclass(frozen=True)
class DriftConfig:
    """Tuning knobs for :class:`DriftTracker`.

    ``confidence`` sets the Wilson interval level; ``threshold`` is the
    extra interval separation (in rate units) required on top of mere
    non-overlap; ``baseline_windows`` windows establish the reference
    rate; ``sustain_windows`` consecutive drifted windows raise the
    event.
    """

    confidence: float = 0.95
    threshold: float = 0.0
    baseline_windows: int = 3
    sustain_windows: int = 2

    def __post_init__(self) -> None:
        # a bool is neither a rate nor a count
        for name in ("confidence", "threshold"):
            value = getattr(self, name)
            if type(value) not in (int, float) or not math.isfinite(value):
                raise InputError(f"drift {name} must be a finite number, got {value!r}")
        for name in ("baseline_windows", "sustain_windows"):
            value = getattr(self, name)
            if type(value) is not int:
                raise InputError(f"{name} must be an integer, got {value!r}")
        if not 0.5 <= self.confidence < 1.0:
            raise InputError(
                f"drift confidence must be in [0.5, 1), got {self.confidence}"
            )
        if self.threshold < 0:
            raise InputError(f"drift threshold must be >= 0, got {self.threshold}")
        if self.baseline_windows < 1:
            raise InputError(
                f"baseline_windows must be >= 1, got {self.baseline_windows}"
            )
        if self.sustain_windows < 1:
            raise InputError(
                f"sustain_windows must be >= 1, got {self.sustain_windows}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "confidence": self.confidence,
            "threshold": self.threshold,
            "baseline_windows": self.baseline_windows,
            "sustain_windows": self.sustain_windows,
        }


@dataclass(frozen=True)
class DriftEvent:
    """One sustained departure of an attribute's finding rate."""

    attribute: str
    window: int  #: 1-based index of the window that completed the excursion
    direction: str  #: "rising" or "falling"
    score: float  #: Wilson interval separation beyond overlap, in rate units
    window_rate: float
    baseline_rate: float
    window_rows: int
    baseline_rows: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "attribute": self.attribute,
            "window": self.window,
            "direction": self.direction,
            "score": self.score,
            "window_rate": self.window_rate,
            "baseline_rate": self.baseline_rate,
            "window_rows": self.window_rows,
            "baseline_rows": self.baseline_rows,
        }


class _AttributeState:
    """Baseline + excursion state for one audited attribute."""

    __slots__ = (
        "baseline_findings",
        "baseline_rows",
        "baseline_windows",
        "consecutive",
        "alarmed",
    )

    def __init__(self) -> None:
        self.baseline_findings = 0
        self.baseline_rows = 0
        self.baseline_windows = 0
        self.consecutive = 0
        self.alarmed = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "baseline_findings": self.baseline_findings,
            "baseline_rows": self.baseline_rows,
            "baseline_windows": self.baseline_windows,
            "consecutive": self.consecutive,
            "alarmed": self.alarmed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "_AttributeState":
        state = cls()
        for name in cls.__slots__:
            if name in payload:
                setattr(state, name, payload[name])
        return state


class DriftTracker:
    """Windowed finding-rate drift detection (see module docstring)."""

    def __init__(self, attributes: Iterable[str], config: Optional[DriftConfig] = None):
        self.attributes = tuple(attributes)
        if not self.attributes:
            raise ValueError("DriftTracker needs at least one audited attribute")
        self.config = config or DriftConfig()
        self.windows = 0
        self._states = {name: _AttributeState() for name in self.attributes}

    def observe(
        self, n_rows: int, findings_per_attribute: Mapping[str, int]
    ) -> list[DriftEvent]:
        """Record one completed audit window; return newly fired events.

        ``n_rows`` is the window size; ``findings_per_attribute`` maps
        attribute name → findings in that window (absent names count as
        zero). Baseline windows accumulate silently; after that each
        window is scored against the frozen baseline.
        """
        if n_rows <= 0:
            raise ValueError(f"drift window must hold rows, got n_rows={n_rows}")
        self.windows += 1
        cfg = self.config
        events: list[DriftEvent] = []
        for name in self.attributes:
            state = self._states[name]
            count = int(findings_per_attribute.get(name, 0))
            if state.baseline_windows < cfg.baseline_windows:
                state.baseline_findings += count
                state.baseline_rows += n_rows
                state.baseline_windows += 1
                continue
            window_rate = count / n_rows
            baseline_rate = state.baseline_findings / state.baseline_rows
            rising = wilson_lower(
                window_rate, n_rows, cfg.confidence
            ) - wilson_upper(baseline_rate, state.baseline_rows, cfg.confidence)
            falling = wilson_lower(
                baseline_rate, state.baseline_rows, cfg.confidence
            ) - wilson_upper(window_rate, n_rows, cfg.confidence)
            score = max(rising, falling)
            if score > cfg.threshold:
                state.consecutive += 1
                if state.consecutive >= cfg.sustain_windows and not state.alarmed:
                    state.alarmed = True
                    events.append(
                        DriftEvent(
                            attribute=name,
                            window=self.windows,
                            direction="rising" if rising >= falling else "falling",
                            score=score,
                            window_rate=window_rate,
                            baseline_rate=baseline_rate,
                            window_rows=n_rows,
                            baseline_rows=state.baseline_rows,
                        )
                    )
            else:
                state.consecutive = 0
                state.alarmed = False
        return events

    def reset(self) -> None:
        """Forget baselines and excursions — called after a refit, when
        the new model defines a new normal."""
        self.windows = 0
        self._states = {name: _AttributeState() for name in self.attributes}

    @property
    def alarmed_attributes(self) -> tuple[str, ...]:
        return tuple(n for n in self.attributes if self._states[n].alarmed)

    def stats(self) -> dict[str, Any]:
        """JSON-able snapshot for status endpoints and logs."""
        per_attribute = {}
        for name in self.attributes:
            state = self._states[name]
            entry: dict[str, Any] = {
                "baseline_windows": state.baseline_windows,
                "consecutive_drifted": state.consecutive,
                "alarmed": state.alarmed,
            }
            if state.baseline_rows:
                entry["baseline_rate"] = state.baseline_findings / state.baseline_rows
            per_attribute[name] = entry
        return {
            "windows": self.windows,
            "config": self.config.to_dict(),
            "attributes": per_attribute,
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "windows": self.windows,
            "states": {n: s.to_dict() for n, s in self._states.items()},
        }

    @classmethod
    def from_dict(
        cls,
        payload: Mapping[str, Any],
        attributes: Sequence[str],
        config: Optional[DriftConfig] = None,
    ) -> "DriftTracker":
        tracker = cls(attributes, config)
        tracker.windows = int(payload.get("windows", 0))
        for name, state in payload.get("states", {}).items():
            if name in tracker._states:
                tracker._states[name] = _AttributeState.from_dict(state)
        return tracker
