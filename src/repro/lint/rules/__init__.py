"""Rule modules; importing this package registers every rule.

Each module guards one written-down contract (see DESIGN.md "Enforced
invariants" for the rule/contract/escape-hatch table).  Adding a rule
is: new module here with a ``@register``-decorated :class:`~repro.lint
.core.Rule` subclass, paired good/bad fixtures under
``tests/lint/fixtures/``, and a DESIGN.md row.
"""

from . import (  # noqa: F401
    rpl001_randomness,
    rpl002_wallclock,
    rpl003_mutation,
    rpl004_telemetry,
    rpl005_assert,
    rpl006_ordering,
    rpl007_constants,
    rpl009_fsum,
    rpl010_checkpoint,
)
