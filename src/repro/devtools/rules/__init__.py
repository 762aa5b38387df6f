"""Rule families shipped with ``repro lint``.

Importing this package registers every syntactic family with
:mod:`repro.devtools.registry`; each module is one family and owns its
sub-rule ids.  The lock family (REP400) has no syntactic module: its
rules read the extracted call sites in
:mod:`repro.devtools.semantic.rules_concurrency`.
"""

from repro.devtools.rules import (  # noqa: F401  -- registration imports
    rep100_determinism,
    rep200_workspace,
    rep300_cache_keys,
    rep500_api,
    rep600_reliability,
)
