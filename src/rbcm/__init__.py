"""Regular t-balanced Cayley maps on split metacyclic 2-groups.

Exact-arithmetic classification, verification and enumeration: every map
the package emits is realized as an explicit skew-morphism and checked
against the first-principles definitions.
"""

from .groups import DeltaParams, GroupElement, Metacyclic, parse_group
from .maps import CayleyMap, SkewMorphism, balance_data, check_skew, genus, is_regular
from .classify import ClassificationSolution, check_necessary, classify, realize

__version__ = "0.1.0"

__all__ = [
    "CayleyMap",
    "ClassificationSolution",
    "DeltaParams",
    "GroupElement",
    "Metacyclic",
    "SkewMorphism",
    "balance_data",
    "check_necessary",
    "check_skew",
    "classify",
    "genus",
    "is_regular",
    "parse_group",
    "realize",
    "__version__",
]
