import sys

import pytest


@pytest.fixture
def at_recursion_limit_1000():
    """run(name=thunk, ...) calls each thunk with the recursion limit at the
    interpreter's default of 1,000 and returns {name: result}.

    A thunk that overflows the stack fails the test at once with its name
    and no traceback: pytest takes minutes to render a 1,000-frame one, so
    a walker that recursed again would otherwise look like a hang.
    """

    def run(**thunks):
        results, recursed = {}, None
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            for name, thunk in thunks.items():
                try:
                    results[name] = thunk()
                except RecursionError:
                    recursed = name
                    break
        finally:
            sys.setrecursionlimit(limit)
        if recursed is not None:
            pytest.fail(f"{recursed} recursed", pytrace=False)
        return results

    return run
