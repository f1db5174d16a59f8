"""The step budget.

Every engine charges one unit per contraction (beta, case selection,
effect emission, let binding in MNF, each non-congruence rule in the
while language).  Congruence descent is free.  The check happens before
the contraction, so a value sitting at budget zero is still an answer,
and running out is an outcome, never an error.  The loops keep the
budget in a local int; the recursive tree engines share one Budget.
"""


def check_budget(units: int) -> int:
    """units, if it is a budget: one that is not an int raises TypeError
    (a count that skips 0 would never run out), a negative one ValueError.
    Every engine that takes a budget checks it here."""
    if type(units) is not int or units < 0:
        if type(units) is not int:
            raise TypeError(f"budget must be an int, not {type(units).__name__}")
        raise ValueError("budget must be non-negative")
    return units


class Budget:
    __slots__ = ("remaining",)

    def __init__(self, units: int):
        self.remaining = check_budget(units)
