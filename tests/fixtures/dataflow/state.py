"""Cell-state fixture: module-level mutables with and without
function-scope writes.  SNIC010 fires on ``FLOW_TABLE`` (a ``del``
here) and ``SEEN`` (mutator call from function scope); the constants
and the import-time-only dict stay cell-safe."""

RULE_IDS = ("SNIC001", "SNIC010")  # immutable -> cell-safe

DEFAULTS = {"mtu": 1500}  # mutable but only written at import time
DEFAULTS["window"] = 64

FLOW_TABLE = {}  # cell-unsafe: an element is deleted from function scope

SEEN = set()  # cell-unsafe: mutated below, from function scope


def remember(key):
    SEEN.add(key)


def forget(key):
    del FLOW_TABLE[key]
