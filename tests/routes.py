"""Route forcing for the tests: pin spectral.exact_counts to one tier, turn
phi_subgroup's screen on or off, and count the per-subgroup contexts, the
per-prime tables and the rotation views a call builds.

exact_counts and the batched spectral.exact_supports price their tiers from
spectral's cost constants, so setting them to 0 or +-inf leaves exactly one
tier the cheapest; phi_subgroup prices its screen the same way.  Tests force
a route only through these helpers, so that a change of the prices cannot
silently move a test onto a route it does not name.
"""

import math

import subgroup_lab.spectral as spectral
from subgroup_lab.energetics import SubgroupContext
from subgroup_lab.zpsets import ZpSet

TIERS = ("pairs", "gather", "fft")


def force_tier(mp, tier: str, block: int | None = None) -> None:
    """Send exact_counts calls to one tier, the pair bincount, the gather or
    the convolution, with gathers and pair sums in blocks of `block` elements
    if given.  A call with an empty Y, or with a bool out, never takes the
    pair tier; exact_supports gathers its rows for "pairs" and "gather"."""
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}")
    mp.setattr(spectral, "SCATTER_COST", 0 if tier == "pairs" else math.inf)
    mp.setattr(spectral, "CONV_COST_PER_N", -math.inf if tier == "fft" else math.inf)
    if block is not None:
        mp.setattr(spectral, "_GATHER_BLOCK", block)


def force_phi_screen(mp, on: bool) -> None:
    """Make phi_subgroup screen every subgroup with d > 1 (on) or none (off),
    by pricing the screen's fixed cost at -inf or +inf."""
    mp.setattr(spectral, "PHI_SCREEN_PER_CALL", -math.inf if on else math.inf)


def count_contexts(mp) -> list:
    """Record the subgroup of every SubgroupContext built from now on, by
    whichever module builds it; returns the list they are appended to."""
    built = []
    init = SubgroupContext.__init__

    def counting_init(self, A, **kwargs):
        built.append(A)
        init(self, A, **kwargs)

    mp.setattr(SubgroupContext, "__init__", counting_init)
    return built


def count_builds(mp, cache) -> list:
    """Empty a one-entry cache (numtheory._LastPrime) and record the key of
    every build it makes from now on; returns the list they are appended to."""
    built = []
    build = cache.build

    def counting_build(key, *args):
        built.append(key)
        return build(key, *args)

    cache.cache_clear()
    mp.setattr(cache, "build", counting_build)
    return built


def count_views(mp) -> list:
    """Record the set of every rotation view (ZpSet.rotations) built from
    now on, once per build; returns the list they are appended to."""
    built = []
    view = ZpSet.rotations.fget

    def counting_view(S):
        if S._rot is None:
            built.append(S)
        return view(S)

    mp.setattr(ZpSet, "rotations", property(counting_view))
    return built
