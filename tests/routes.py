"""Route forcing for the tests: pin spectral.exact_counts to one tier, and
count the per-subgroup contexts a call builds.

exact_counts and the batched spectral.exact_supports price their tiers from
spectral's cost constants, so setting them to 0 or +-inf leaves exactly one
tier the cheapest.  Tests force a route only through force_tier, so that a
change of the prices cannot silently move a test onto a route it does not
name.
"""

import math

import subgroup_lab.spectral as spectral
from subgroup_lab.energetics import SubgroupContext

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
