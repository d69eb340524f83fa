"""The rule table: one instance of every rule, in code order.

Each module guards one written-down contract (see DESIGN.md "Enforced
invariants" for the rule/contract/escape-hatch table).  Adding a rule
is: new module here with a :class:`~repro.lint.core.Rule` subclass, an
entry in :data:`RULES`, good/bad fixtures under
``tests/lint/fixtures/``, and a DESIGN.md row.
"""

from typing import Tuple

from ..core import Rule
from .rpl001_randomness import UnseededRandomnessRule
from .rpl002_wallclock import WallClockRule
from .rpl003_mutation import DirectMutationRule
from .rpl004_telemetry import TelemetryNamingRule
from .rpl005_assert import AssertRule
from .rpl006_ordering import UnorderedIterationRule
from .rpl007_constants import DuplicatedConstantRule
from .rpl009_fsum import FsumParityRule
from .rpl010_checkpoint import CheckpointSafetyRule

RULES: Tuple[Rule, ...] = (
    UnseededRandomnessRule(), WallClockRule(), DirectMutationRule(),
    TelemetryNamingRule(), AssertRule(), UnorderedIterationRule(),
    DuplicatedConstantRule(), FsumParityRule(), CheckpointSafetyRule(),
)
