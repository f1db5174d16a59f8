"""A mutable step budget shared by one evaluation run.

Every engine charges one unit per contraction (beta, case selection,
effect emission, let binding in MNF, each non-congruence rule in the
while language).  Congruence descent is free.  The check happens before
the contraction, so a value sitting at budget zero is still an answer.
"""


def check_budget(units: int) -> int:
    """units, if it is a budget; a negative one raises ValueError.  Every
    engine that takes a budget checks it here."""
    if units < 0:
        raise ValueError("budget must be non-negative")
    return units


class BudgetExhausted(RuntimeError):
    """spend() on an empty budget; PCF's big_step catches it as no fuel."""


class Budget:
    __slots__ = ("remaining",)

    def __init__(self, units: int):
        self.remaining = check_budget(units)

    def spend(self) -> None:
        if self.remaining <= 0:
            raise BudgetExhausted("spend() on an empty budget")
        self.remaining -= 1

    def __repr__(self):
        return f"Budget({self.remaining})"
