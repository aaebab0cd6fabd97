"""Reference listings that the tests compare the engines against; not
collected as tests.  Each one is written from the definitions, shares
no walk with the engine it checks, and is too slow for anything but
small inputs."""

from functools import lru_cache
from itertools import combinations

from schramsey.schreier import SchreierConfig
from schramsey.verify import mem_direct


@lru_cache(maxsize=None)  # the sweeps ask for one listing many times
def reference_members(xi, max_n, rule):
    """The subsets of {1..max_n} that the split-searching recursion
    accepts under a limit rule, in lexicographic order."""
    cfg = SchreierConfig(rule)
    subsets = (s for size in range(max_n + 1) for s in combinations(range(1, max_n + 1), size))
    return tuple(sorted(s for s in subsets if mem_direct(xi, s, cfg)))
