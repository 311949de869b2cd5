"""Shared exception types."""


class BudgetError(RuntimeError):
    """Raised when an operation would exceed a configured resource budget."""

    def __init__(self, what: str, needed, budget):
        super().__init__(f"{what} needs {needed} but the budget is {budget}")
        self.what = what
        self.needed = needed
        self.budget = budget


class InternalError(Exception):
    """Raised when a result fails its own re-validation: a bug, not bad input.

    It subclasses neither :class:`BudgetError` nor ``RuntimeError``, so no
    handler of those takes it for a resource limit.
    """
