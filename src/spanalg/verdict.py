"""Three-valued check results.

Every law checker in the package returns a Verdict rather than a bare
bool: Holds, Fails (with a replayable witness), or Unknown (a search
budget ran out before a decision was reached).

A Verdict is a ``NamedTuple`` of (outcome, witness, reason): built, hashed
and compared as a tuple, and never truthy or falsy.
"""

from typing import Any, NamedTuple

HOLDS = "Holds"
FAILS = "Fails"
UNKNOWN = "Unknown"


class _Fields(NamedTuple):
    outcome: str
    witness: Any = None
    reason: str = ""


class Verdict(_Fields):
    __slots__ = ()

    def __new__(cls, outcome, witness=None, reason=""):
        if outcome not in (HOLDS, FAILS, UNKNOWN):
            raise ValueError(f"bad outcome {outcome!r}")
        return tuple.__new__(cls, (outcome, witness, reason))

    @property
    def holds(self):
        return self.outcome == HOLDS

    @property
    def fails(self):
        return self.outcome == FAILS

    @property
    def unknown(self):
        return self.outcome == UNKNOWN

    def __bool__(self):
        # Deliberately undefined: callers must test .holds / .fails.
        raise TypeError("Verdict is three-valued; use .holds, .fails or .unknown")

    # A bare yes() or no() returns one shared instance each (made below):
    # a Verdict is frozen, so no caller can alter what another one holds.

    @staticmethod
    def yes(witness=None, reason=""):
        if witness is None and not reason:
            return _YES
        return Verdict(HOLDS, witness, reason)

    @staticmethod
    def no(witness=None, reason=""):
        if witness is None and not reason:
            return _NO
        return Verdict(FAILS, witness, reason)

    @staticmethod
    def maybe(reason=""):
        return Verdict(UNKNOWN, None, reason)


_YES = Verdict(HOLDS)
_NO = Verdict(FAILS)


def combine(verdicts):
    """Aggregate: Fails dominates Unknown dominates Holds."""
    result = Verdict.yes()
    for v in verdicts:
        if v.fails:
            return v
        if v.unknown and not result.unknown:
            result = v
    return result
