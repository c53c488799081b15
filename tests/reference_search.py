"""The solver's former search, kept as a test oracle.

Recursive bisection: the narrowest open variable is split into two
halves, lower half first, and an enumerable one into its values in
order.  It recurses once per level, about 256 levels per uint256
variable, so callers raise the recursion limit around it.
"""

from phantomscan.symexec.solver import ENUM_LIMIT, _propagate


def reference_search(atoms_, bounds, budget):
    """Returns a model dict, "unsat", or "budget"; `budget` is a
    one-element list shared by the whole search."""
    if budget[0] <= 0:
        return "budget"
    budget[0] -= 1
    bounds = dict(bounds)
    if not _propagate(atoms_, bounds):
        return "unsat"

    open_syms = [(hi - lo, s) for s, (lo, hi) in bounds.items() if lo < hi]
    if not open_syms:
        model = {s: lo for s, (lo, _) in bounds.items()}
        return model if all(a.holds(model) for a in atoms_) else "unsat"

    open_syms.sort(key=lambda p: (p[0], repr(p[1])))
    width, sym = open_syms[0]
    lo, hi = bounds[sym]
    hit_budget = False
    if width + 1 <= ENUM_LIMIT:
        for v in range(lo, hi + 1):
            bounds[sym] = (v, v)
            r = reference_search(atoms_, bounds, budget)
            if isinstance(r, dict):
                return r
            if r == "budget":
                hit_budget = True
    else:
        mid = (lo + hi) // 2
        for piece in ((lo, mid), (mid + 1, hi)):
            bounds[sym] = piece
            r = reference_search(atoms_, bounds, budget)
            if isinstance(r, dict):
                return r
            if r == "budget":
                hit_budget = True
    return "budget" if hit_budget else "unsat"
