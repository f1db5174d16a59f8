"""The step budget.

Every engine charges one unit per contraction (beta, case selection,
effect emission, let binding in MNF, each non-congruence rule in the
while language).  Congruence descent is free.  The check happens before
the contraction, so a value sitting at budget zero is still an answer,
and running out is an outcome, never an error.  The loops keep the
budget in a local int; the recursive tree engines share one Budget.
"""


def check_budget(units: int) -> int:
    """units, if it is a budget; a negative one raises ValueError.  Every
    engine that takes a budget checks it here."""
    if units < 0:
        raise ValueError("budget must be non-negative")
    return units


class Budget:
    __slots__ = ("remaining",)

    def __init__(self, units: int):
        self.remaining = check_budget(units)
