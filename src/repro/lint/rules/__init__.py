"""Rule plugin manifest: importing this package registers every rule.

To add a rule, drop a module here that defines a
:class:`repro.lint.registry.Rule` subclass decorated with
:func:`repro.lint.registry.rule`, and import it below.
"""

from repro.lint.rules import (  # noqa: F401
    oracle,
    compiled,
)

__all__ = ["oracle", "compiled"]
