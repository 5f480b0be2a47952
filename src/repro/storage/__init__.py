"""Multi-level checkpoint storage hierarchy (L1 local / L2 partner / L3 remote).

See :mod:`repro.storage.policy` for the level semantics and
:mod:`repro.storage.hierarchy` for the runtime subsystem.
"""

from repro.storage.hierarchy import (
    ImageCopy,
    ImageRecord,
    RestorePlan,
    StorageHierarchy,
)
from repro.storage.policy import (
    LEVELS,
    PARTNER_CROSS_SWITCH,
    PARTNER_SAME_SWITCH,
    StoragePolicy,
    full_hierarchy,
    local_only,
    partner_replicated,
)

__all__ = [
    "ImageCopy",
    "ImageRecord",
    "LEVELS",
    "PARTNER_CROSS_SWITCH",
    "PARTNER_SAME_SWITCH",
    "RestorePlan",
    "StorageHierarchy",
    "StoragePolicy",
    "full_hierarchy",
    "local_only",
    "partner_replicated",
]
