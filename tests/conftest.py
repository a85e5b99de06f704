import pytest

from circleops.circled import splice
from circleops.operad_h import reduction_violations


@pytest.fixture
def normal_forms():
    """The reduction oracle: normal_forms(term, r3=True) is every normal
    form reachable by splicing in any order; each term met on the way is
    expanded once."""

    def normal_forms(term, r3=True):
        seen = {}

        def forms(t):
            if t not in seen:
                viols = reduction_violations(t, r3=r3)
                seen[t] = frozenset().union(
                    *(forms(splice(t, addr)) for addr, _ in viols)
                ) or frozenset((t,))
            return seen[t]

        return forms(term)

    return normal_forms
