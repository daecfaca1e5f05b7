"""Diagnostic records and the static-analysis rule catalog.

Every check in :mod:`repro.check` — the Layer-1 model verifier, the
Layer-2 simulation lint, and the Layer-3 flow analyzer
(:mod:`repro.check.simflow`) — reports through one vocabulary: a
:class:`Rule` describes *what class of defect* a check detects (stable
id, default severity, fix hint), and a :class:`Diagnostic` is *one
concrete finding* (which rule fired, where, and why).

The catalog below is the single source of truth for ids, severities
and fix hints: the verifier and the linter both look their rules up
here.  Why each defect matters is documented once, in the rule tables
of ``docs/static_analysis.md``, and the test suite asserts the two
list the same ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping

__all__ = [
    "Severity",
    "Rule",
    "Diagnostic",
    "RULES",
    "rule",
    "make_diagnostic",
    "max_severity",
    "has_errors",
    "diagnostics_to_dict",
    "diagnostics_to_json",
    "format_diagnostic",
    "ModelVerificationError",
]


class Severity(IntEnum):
    """How bad a finding is; ordering allows threshold comparisons."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()

    @classmethod
    def parse(cls, label: str) -> "Severity":
        """Parse ``"error"``/``"warning"``/``"info"`` (case-insensitive)."""
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {label!r}") from None


@dataclass(frozen=True)
class Rule:
    """One entry of the static-analysis rule catalog.

    Parameters
    ----------
    id:
        Stable identifier: ``RC1xx`` for model-verifier rules,
        ``SL2xx`` for simulation-lint rules, ``SF3xx`` for
        flow-analysis rules.  Ids never change meaning; retired rules
        are not reused.
    severity:
        Default severity of findings (a check may not override upward).
    fix_hint:
        The standard remedy, shown with every finding.
    """

    id: str
    severity: Severity
    fix_hint: str


@dataclass
class Diagnostic:
    """One concrete finding of a static check.

    Attributes
    ----------
    rule:
        Catalog id of the rule that fired (e.g. ``"RC103"``).
    severity:
        Severity of this finding.
    message:
        What was found, with model/code specifics interpolated.
    subject:
        Where: a model element (``"app:pipeline/process:enc"``) or a
        source path for lint findings.
    line:
        1-based source line for lint findings; ``None`` for model
        findings.
    fix_hint:
        Remedy, defaulted from the rule catalog.
    """

    rule: str
    severity: Severity
    message: str
    subject: str
    line: int | None = None
    fix_hint: str = ""

    @property
    def location(self) -> str:
        """``subject`` or ``subject:line`` when a line is known."""
        if self.line is None:
            return self.subject
        return f"{self.subject}:{self.line}"

    def to_dict(self) -> dict:
        """JSON-ready representation (stable key order via sort_keys)."""
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "subject": self.subject,
            "line": self.line,
            "fix_hint": self.fix_hint,
        }

    def __str__(self) -> str:
        return format_diagnostic(self)


def format_diagnostic(diag: Diagnostic) -> str:
    """One-line human rendering: ``location: severity RC101: message``."""
    return (
        f"{diag.location}: {diag.severity} {diag.rule}: {diag.message}"
    )


class ModelVerificationError(ValueError):
    """Raised when a pre-flight model check finds error diagnostics.

    Attributes
    ----------
    diagnostics:
        Every diagnostic of the failed check (including warnings).
    """

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        errors = [d for d in self.diagnostics
                  if d.severity >= Severity.ERROR]
        lines = "; ".join(format_diagnostic(d) for d in errors[:5])
        more = len(errors) - 5
        if more > 0:
            lines += f"; and {more} more"
        super().__init__(
            f"model verification failed with {len(errors)} error(s): "
            f"{lines}"
        )


# ----------------------------------------------------------------------
# Rule catalog
# ----------------------------------------------------------------------
def _catalog(rules: Iterable[Rule]) -> dict[str, Rule]:
    out: dict[str, Rule] = {}
    for entry in rules:
        if entry.id in out:
            raise ValueError(f"duplicate rule id {entry.id}")
        out[entry.id] = entry
    return out


#: Every static-analysis rule, keyed by id.  ``RC1xx`` = model
#: verifier (Layer 1), ``SL2xx`` = simulation lint (Layer 2),
#: ``SF3xx`` = flow analysis (Layer 3).
RULES: Mapping[str, Rule] = _catalog([
    # ---- Layer 1: process/task-graph structure -----------------------
    Rule("RC101", Severity.ERROR,
         "Connect the process to a rated source or remove it."),
    Rule("RC102", Severity.WARNING,
         "Split the model into separate graphs or add the missing "
         "channel/dependency."),
    Rule("RC103", Severity.ERROR,
         "Break the cycle or model the feedback path outside the token "
         "flow."),
    Rule("RC104", Severity.ERROR,
         "Set ProcessNode.rate_hz on every source process."),
    Rule("RC105", Severity.WARNING,
         "Drop rate_hz from internal processes, or remove their input "
         "channels to make them sources."),
    Rule("RC106", Severity.WARNING,
         "Equalize the upstream source rates or add an explicit "
         "down-sampling process before the join."),
    Rule("RC107", Severity.WARNING,
         "Give the edge its real control-message volume, or delete it "
         "if no ordering is intended."),
    # ---- Layer 1: mapping --------------------------------------------
    Rule("RC110", Severity.ERROR,
         "Map every process/task of the graph to a platform PE."),
    Rule("RC111", Severity.WARNING,
         "Remove the stale entry or fix the process name."),
    Rule("RC112", Severity.ERROR,
         "Add the PE to the platform or retarget the mapping."),
    Rule("RC113", Severity.ERROR,
         "Repair the PE before simulating, or remap its processes."),
    Rule("RC114", Severity.WARNING,
         "Map one kernel per ASIC, or model the PE as an ASIP/DSP/GPP."),
    Rule("RC115", Severity.ERROR,
         "Repair the link, or co-locate the communicating processes."),
    # ---- Layer 1: constraint feasibility -----------------------------
    Rule("RC120", Severity.ERROR,
         "Rebalance the mapping, raise the PE frequency, or lower the "
         "source rates."),
    Rule("RC121", Severity.ERROR,
         "Relax the deadline, shorten the critical path, or add a "
         "faster PE."),
    Rule("RC122", Severity.ERROR,
         "Co-locate heavy communicators, widen the interconnect, or "
         "reduce token sizes."),
    # ---- Layer 1: unit & dimension sanity ----------------------------
    Rule("RC130", Severity.WARNING,
         "Check the datasheet units; active power must exceed idle."),
    Rule("RC131", Severity.WARNING,
         "Re-derive the value in SI base units (Hz, W, J)."),
    Rule("RC132", Severity.WARNING,
         "Make ProcessingElement.frequency one of the DVFS operating "
         "points."),
    # ---- Layer 1: scenario documents ---------------------------------
    Rule("RC140", Severity.ERROR,
         "Fix the value at the reported JSON path (repro scenario "
         "import FILE re-validates), or re-export the scenario with "
         "repro scenario export."),
    # ---- Layer 2: simulation lint ------------------------------------
    Rule("SL200", Severity.ERROR, "Fix the syntax error."),
    Rule("SL201", Severity.ERROR,
         "Draw from a seeded stream: repro.utils.RandomStreams, "
         "spawn_rng(seed, name), or np.random.default_rng(seed)."),
    Rule("SL202", Severity.ERROR,
         "Use env.now for simulated time and env.timeout for delays; "
         "use time.perf_counter for wall-time measurement."),
    Rule("SL203", Severity.ERROR,
         "Yield every kernel event: `yield env.timeout(d)`, `tok = "
         "yield queue.get()`."),
    Rule("SL204", Severity.WARNING,
         "Default to None and create the container in the body, or use "
         "dataclasses.field(default_factory=...)."),
    Rule("SL205", Severity.WARNING,
         "Compare with a tolerance (math.isclose) or use ordered "
         "comparisons (<=, >=)."),
    Rule("SL206", Severity.WARNING,
         "Fan work out with repro.parallel.parallel_map or "
         "run_replicated instead of importing multiprocessing / "
         "concurrent.futures directly."),
    Rule("SL207", Severity.WARNING,
         "Catch the narrowest exception you can actually recover from, "
         "and handle it visibly: record a metric, return a degraded "
         "result, or re-raise."),
    # ---- Layer 3: flow analysis (simflow) ----------------------------
    Rule("SF301", Severity.ERROR,
         "Yield each event before creating the next, or collect events "
         "and wait with env.any_of/env.all_of."),
    Rule("SF302", Severity.ERROR,
         "Yield kernel events only: `yield env.timeout(delay)`."),
    Rule("SF303", Severity.ERROR,
         "Acquire with `with res.request() as req:` or release in a "
         "try/finally."),
    Rule("SF304", Severity.WARNING,
         "Pick one global acquisition order for the cycle's resources, "
         "or merge the acquisitions into one request."),
    Rule("SF305", Severity.ERROR,
         "Clamp delays to max(0.0, delay) or fix the sign of the "
         "computed interval."),
    Rule("SF306", Severity.ERROR,
         "Yield a kernel event inside the loop (`yield "
         "env.timeout(...)`) so time can advance."),
    Rule("SF307", Severity.ERROR,
         "Derive delays and seeds only from seeded streams (spawn_rng, "
         "RandomStreams) and simulated time (env.now)."),
])


def rule(rule_id: str) -> Rule:
    """Look up a catalog rule by id."""
    try:
        return RULES[rule_id]
    except KeyError:
        raise KeyError(f"unknown rule id {rule_id!r}") from None


def make_diagnostic(
    rule_id: str,
    message: str,
    subject: str,
    line: int | None = None,
    severity: Severity | None = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic` with catalog defaults filled in."""
    entry = rule(rule_id)
    return Diagnostic(
        rule=rule_id,
        severity=entry.severity if severity is None else severity,
        message=message,
        subject=subject,
        line=line,
        fix_hint=entry.fix_hint,
    )


def max_severity(diagnostics: Iterable[Diagnostic]) -> Severity | None:
    """Highest severity present, or ``None`` for a clean result."""
    severities = [d.severity for d in diagnostics]
    return max(severities) if severities else None


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """True when any diagnostic is error-severity."""
    return any(d.severity >= Severity.ERROR for d in diagnostics)


def _sort_key(diag: Diagnostic) -> tuple:
    return (diag.subject, diag.line if diag.line is not None else -1,
            diag.rule, diag.message)


def diagnostics_to_dict(diagnostics: Iterable[Diagnostic]) -> dict:
    """Stable JSON document for a set of findings.

    Findings are sorted by (subject, line, rule, message) so two runs
    over the same tree serialize identically — the property the golden
    test and the CI artifact diffing rely on.
    """
    ordered = sorted(diagnostics, key=_sort_key)
    counts = {"error": 0, "warning": 0, "info": 0}
    for diag in ordered:
        counts[str(diag.severity)] += 1
    return {
        "version": 2,
        "counts": counts,
        "diagnostics": [d.to_dict() for d in ordered],
    }


def diagnostics_to_json(
    diagnostics: Iterable[Diagnostic], indent: int | None = 2
) -> str:
    """Serialize findings to deterministic JSON text."""
    return json.dumps(diagnostics_to_dict(diagnostics), indent=indent,
                      sort_keys=True)
