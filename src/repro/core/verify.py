"""Static verification of boosters and their composition (§6).

"FastFlex must make sure that the individual in-network defenses, as
well as their composition, are secure.  Since switch programs are much
simpler than general-purpose programs, it should be possible to achieve
high assurance by formally verifying them [52, 72]."

Our PPM IR is simple enough to check mechanically.  The verifier runs
two passes:

* **Per booster** — structural soundness of the dataflow graph (acyclic,
  connected to a parser, mitigation reachable from detection), resource
  sanity (non-negative vectors, each module individually fits the
  reference switch profile), and mode hygiene (declared modes actually
  gate something; detectors that trigger modes are always-on).
* **Composition** — across the whole catalog: mode names don't collide
  across attack types, every booster named in a mode spec exists, and
  the merged catalog's footprint is reported against the network's
  aggregate budget (a too-big catalog is a warning, not an error — the
  scheduler decides placements, but an operator should know).

Findings come back as structured records, ``error`` severity meaning
"the controller should refuse to deploy this".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..dataplane.resources import TOFINO_LIKE
from ..telemetry import metrics
from .analyzer import ProgramAnalyzer
from .booster import Booster
from .dataflow import DataflowGraph
from .modes import DEFAULT_MODE
from .ppm import PpmKind, PpmRole

# Verification aborts (a booster's own code raising mid-check) must be
# countable per run: a sweep that silently degrades every finding to
# "dataflow() raised" would otherwise look like a clean catalog with
# one odd error finding.
_C_VERIFY_ABORTS = metrics().counter(
    "verify_aborts_total",
    "verification passes aborted by an exception, by failing check",
    labelnames=("check",))


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One verification result."""

    severity: Severity
    booster: str
    check: str
    message: str

    def __str__(self) -> str:
        return (f"[{self.severity.value}] {self.booster}: "
                f"{self.check}: {self.message}")


@dataclass
class VerificationReport:
    findings: List[Finding] = field(default_factory=list)

    def add(self, severity: Severity, booster: str, check: str,
            message: str) -> None:
        self.findings.append(Finding(severity, booster, check, message))

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings
                if f.severity == Severity.WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def __str__(self) -> str:
        if not self.findings:
            return "verification clean"
        return "\n".join(str(f) for f in self.findings)


class BoosterVerifier:
    """Checks one booster, or the composition of a catalog against
    :data:`TOFINO_LIKE` switches."""

    # ------------------------------------------------------------------
    # Per-booster checks
    # ------------------------------------------------------------------
    def verify_booster(self, booster: Booster) -> VerificationReport:
        report = VerificationReport()
        name = booster.name or "<unnamed>"
        if not booster.name:
            report.add(Severity.ERROR, name, "identity",
                       "booster has no name; it cannot be gated by modes")
        try:
            graph = booster.dataflow()
        except (ValueError, KeyError) as exc:
            # Known failure shape: graph construction rejecting its own
            # inputs (cycles, duplicate PPM names, missing wiring).
            _C_VERIFY_ABORTS.labels("dataflow").inc()
            report.add(Severity.ERROR, name, "dataflow",
                       f"dataflow() rejected its own spec: {exc!r}")
            return report
        except Exception as exc:  # noqa: BLE001 - surface as a finding
            _C_VERIFY_ABORTS.labels("dataflow").inc()
            report.add(Severity.ERROR, name, "dataflow",
                       f"dataflow() raised: {exc!r}")
            return report
        self._check_graph(name, graph, report)
        self._check_resources(name, graph, report)
        self._check_modes(booster, report)
        return report

    def _check_graph(self, name: str, graph: DataflowGraph,
                     report: VerificationReport) -> None:
        if len(graph) == 0:
            report.add(Severity.ERROR, name, "dataflow",
                       "booster declares no PPMs")
            return
        try:
            graph.topological_order()
        except ValueError as exc:
            report.add(Severity.ERROR, name, "dataflow", str(exc))
            return
        parsers = [p for p in graph.ppms() if p.kind == PpmKind.PARSER]
        if not parsers:
            report.add(Severity.WARNING, name, "parser",
                       "no parser PPM: the booster inherits whatever the "
                       "routing parser extracts")
        detection = [p.qualified_name for p in graph.ppms()
                     if p.role == PpmRole.DETECTION]
        mitigation = [p.qualified_name for p in graph.ppms()
                      if p.role == PpmRole.MITIGATION]
        if not detection and not mitigation:
            report.add(Severity.ERROR, name, "roles",
                       "no detection or mitigation modules")
        if mitigation and detection:
            reachable = self._reachable_from(graph, detection)
            for module in mitigation:
                if module not in reachable:
                    report.add(
                        Severity.WARNING, name, "reachability",
                        f"mitigation module {module} has no dataflow "
                        f"path from any detection module — it cannot be "
                        f"driven by this booster's own signals")
        for ppm in graph.ppms():
            if ppm.factory is None and ppm.kind == PpmKind.LOGIC \
                    and ppm.role != PpmRole.SUPPORT:
                report.add(
                    Severity.WARNING, name, "runtime",
                    f"{ppm.qualified_name} declares no runtime factory; "
                    f"it is planning-only")

    @staticmethod
    def _reachable_from(graph: DataflowGraph,
                        roots: Sequence[str]) -> set:
        seen = set(roots)
        frontier = list(roots)
        while frontier:
            node = frontier.pop()
            for succ in graph.successors(node):
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        return seen

    def _check_resources(self, name: str, graph: DataflowGraph,
                         report: VerificationReport) -> None:
        for ppm in graph.ppms():
            if not ppm.requirement.is_nonnegative():
                report.add(Severity.ERROR, name, "resources",
                           f"{ppm.qualified_name} declares a negative "
                           f"resource requirement {ppm.requirement}")
            elif not ppm.requirement.fits_within(TOFINO_LIKE):
                report.add(
                    Severity.ERROR, name, "resources",
                    f"{ppm.qualified_name} needs {ppm.requirement}, "
                    f"which no {TOFINO_LIKE} switch can host")
        total = graph.total_requirement()
        if not total.fits_within(TOFINO_LIKE):
            report.add(
                Severity.WARNING, name, "resources",
                f"whole booster ({total}) exceeds one switch; the "
                f"scheduler will have to split it across switches")

    def _check_modes(self, booster: Booster,
                     report: VerificationReport) -> None:
        name = booster.name or "<unnamed>"
        modes = booster.modes()
        for spec in modes:
            if spec.name == DEFAULT_MODE:
                report.add(Severity.ERROR, name, "modes",
                           "a booster may not define the default mode")
            if not spec.boosters_on:
                report.add(Severity.WARNING, name, "modes",
                           f"mode {spec.name!r} gates nothing on")
        if booster.always_on() and not modes \
                and not booster.attack_types:
            report.add(Severity.WARNING, name, "modes",
                       "always-on booster with no attack types or "
                       "modes: nothing would ever react to its signals")

    # ------------------------------------------------------------------
    # Composition checks
    # ------------------------------------------------------------------
    def verify_composition(self, boosters: Sequence[Booster],
                           n_switches: int = 1) -> VerificationReport:
        report = VerificationReport()
        names = set()
        for booster in boosters:
            if booster.name in names:
                report.add(Severity.ERROR, booster.name, "composition",
                           "duplicate booster name in the catalog")
            names.add(booster.name)

        # Mode uniqueness per attack type, and referenced boosters exist.
        seen_modes: Dict[tuple, str] = {}
        gate_names = set(names)
        for booster in boosters:
            for spec in booster.modes():
                key = (spec.attack_type, spec.name)
                if key in seen_modes and seen_modes[key] != booster.name:
                    report.add(
                        Severity.ERROR, booster.name, "composition",
                        f"mode {spec.name!r}/{spec.attack_type!r} is "
                        f"also defined by {seen_modes[key]!r}")
                seen_modes[key] = booster.name
                for gated in spec.boosters_on:
                    root = gated.split(".")[0]
                    if root not in gate_names:
                        report.add(
                            Severity.ERROR, booster.name, "composition",
                            f"mode {spec.name!r} gates unknown booster "
                            f"{gated!r}")

        # Catalog footprint vs. the network's aggregate budget.
        try:
            merged = ProgramAnalyzer().merge(
                [b.dataflow() for b in boosters])
        except ValueError as exc:
            # Known failure shape: the analyzer refusing to merge
            # conflicting graphs (name clashes across boosters).
            _C_VERIFY_ABORTS.labels("composition").inc()
            report.add(Severity.ERROR, "<catalog>", "composition",
                       f"catalog merge rejected: {exc!r}")
            return report
        except Exception as exc:  # noqa: BLE001
            _C_VERIFY_ABORTS.labels("composition").inc()
            report.add(Severity.ERROR, "<catalog>", "composition",
                       f"joint analysis failed: {exc!r}")
            return report
        total = merged.merged.total_requirement()
        budget = TOFINO_LIKE.scaled(max(n_switches, 1))
        if not total.fits_within(budget):
            report.add(
                Severity.WARNING, "<catalog>", "capacity",
                f"merged catalog needs {total} but {n_switches} "
                f"switch(es) offer {budget}; expect partial placements")
        return report


def verify_catalog(boosters: Sequence[Booster],
                   n_switches: int = 1) -> VerificationReport:
    """Verify every booster plus the composition; one merged report."""
    verifier = BoosterVerifier()
    report = VerificationReport()
    for booster in boosters:
        report.findings.extend(verifier.verify_booster(booster).findings)
    report.findings.extend(
        verifier.verify_composition(boosters, n_switches).findings)
    return report
